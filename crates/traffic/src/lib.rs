//! # rfh-traffic
//!
//! Traffic determination (§II-C): the paper's equations (2)–(11) turned
//! into an epoch-level accounting pass.
//!
//! The model: every query for partition `B_i` from requester datacenter
//! `j` travels the WAN routing path `A_ij` toward the partition holder.
//! Replicas sitting *on that path* absorb queries up to their processing
//! capacity; the residual flows to the next hop (eqs. 2–4). The traffic
//! of a node is the residual arriving at it, summed over requesters
//! (eqs. 6–8); the requester node itself sees the full query load
//! (eq. 5). Replicas *off* the path serve nothing — which is exactly why
//! randomly-placed replicas achieve poor utilization and why placing
//! replicas at high-traffic path conjunctions ("traffic hubs") works.
//!
//! * [`grid`] — the dense (partition × datacenter) and sparse
//!   (partition → server cells) arrays the accounting pass stores.
//! * [`placement`] — the per-epoch view of where replicas are and how
//!   much capacity each offers.
//! * [`absorption`] — the traffic pass semantics and the one-shot
//!   [`compute_traffic`] entry point.
//! * [`engine`] — the reusable [`TrafficEngine`]: route-cached,
//!   zero-allocation accounting for callers that run the pass every
//!   epoch.
//! * [`smoothing`] — the EWMA state of eqs. (9)–(11): smoothed system
//!   query averages `q̄_it` and smoothed per-node traffic `t̄r_ikt`.

#![warn(missing_docs)]

pub mod absorption;
pub mod engine;
pub mod grid;
pub mod placement;
pub mod smoothing;

pub use absorption::{compute_traffic, TrafficAccounts};
pub use engine::{EngineStats, TrafficEngine};
pub use grid::Grid;
pub use placement::PlacementView;
pub use smoothing::TrafficSmoother;
