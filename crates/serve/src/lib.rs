//! # rfh-serve
//!
//! A live key-value serving runtime on the RFH stack: the offline
//! simulator's control plane (ring placement, `TrafficEngine`
//! accounting, the real `RfhPolicy`, fault injection, repair queue,
//! invariant auditor) driving a real cluster of node threads behind
//! loopback TCP listeners.
//!
//! * [`wire`] — the length-prefixed binary protocol
//!   (get/put/forward/ack).
//! * [`store`] — per-node LWW shard maps and the key → partition hash.
//! * [`wal`] — the optional log-structured durable backend: per-shard
//!   segment logs, checkpoints, and torn-tail-truncating recovery.
//! * [`cluster`] — startup, shared state, clean shutdown.
//! * `node` (internal) — listener/handler threads: the data plane.
//! * `control` (internal) — the online RFH loop: the simulator's
//!   `rfh_sim::EpochKernel` ticked on live counters, with an executor
//!   that copies partition data and republishes routes; its lifetime
//!   totals surface as [`ControlStats`].
//! * [`client`] — datacenter-homed client handle with failover.
//! * [`loadgen`] — closed/open-loop load generation, latency
//!   histograms, and the acked-write verify pass.
//! * [`config`] — cluster and loadgen TOML-subset configs.
//! * [`telemetry`] — server-side phase histograms, the controller's
//!   tick-sample ring, and the `rfh watch` dashboard renderer.
//! * [`http`] — the hand-rolled HTTP/1.0 surface behind
//!   `GET /metrics` and friends, plus the matching client.
//!
//! The live runtime is **not** bit-deterministic — thread scheduling
//! decides how many requests land in each control tick. Everything
//! downstream of the drained traffic matrix is the same deterministic
//! code the offline simulator runs, and the offline simulator itself is
//! untouched by this crate.

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod config;
mod control;
pub mod http;
pub mod loadgen;
mod node;
mod reactor;
pub mod store;
pub mod telemetry;
pub mod wal;
pub mod wire;

pub use client::{CompletedOp, GetOutcome, PipelinedClient, ServeClient};
pub use cluster::{Cluster, NodeInfo, ServeSummary};
pub use config::{ArrivalMode, ClusterConfig, DataPlane, LoadGenConfig};
pub use control::ControlStats;
pub use loadgen::{run_loadgen, run_loadgen_with, LoadReport};
pub use telemetry::{render_dashboard, TelemetryRing, TickSample};
pub use wal::{FsyncPolicy, PersistenceConfig, StorageSnapshot, StorageStats};
