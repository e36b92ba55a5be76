//! # rfh-sim
//!
//! The epoch-driven cloud-storage simulator of §III: the paper's
//! evaluation environment, rebuilt. Each epoch it
//!
//! 1. applies scheduled cluster events (failures, recoveries, joins —
//!    the Fig. 10 machinery),
//! 2. generates (or replays) the `q_ijt` query matrix,
//! 3. runs the traffic pass (absorption along WAN routes),
//! 4. folds the observations into the EWMA state,
//! 5. lets the policy under test decide and executes its actions under
//!    the storage/bandwidth limits, and
//! 6. records every metric the paper's figures plot.
//!
//! * [`metrics`] — per-epoch series: replica utilization (eqs. 20–23),
//!   replica counts, replication/migration costs (eq. 1), migration
//!   times, load imbalance (eqs. 24–26), lookup path length, unserved
//!   demand, alive servers.
//! * [`kernel`] — the RFH epoch loop itself ([`EpochKernel`]): fault
//!   injection, traffic pass, smoothing, decisions, execution through an
//!   [`Executor`], audit. The simulator drives it with the
//!   placement-only executor; the live controller in `rfh-serve` drives
//!   the same kernel with one that moves data and republishes routes.
//! * [`simulation`] — one policy's run: a kernel fed by a workload
//!   generator or trace, plus the cluster-event schedule and the metric
//!   series.
//! * [`runner`] — run the four policies over identical workloads, in
//!   parallel (crossbeam scoped threads; each run is independent and
//!   deterministic, so parallelism cannot change results).
//! * [`report`] — CSV rendering of results and per-policy phase-budget
//!   tables.
//!
//! Observability (the `rfh-obs` crate) threads through without touching
//! semantics: [`Simulation::with_recorder`] streams decision events,
//! [`Simulation::with_profiling`] times each epoch phase, and
//! [`runner::run_comparison_observed`] does both across all four
//! policies — none of which can change a run's results.

#![warn(missing_docs)]

pub mod kernel;
pub mod metrics;
pub mod planner;
pub mod repair;
pub mod report;
pub mod runner;
pub mod simulation;

pub use kernel::{Availability, EpochKernel, Executor, PlacementOnly};
pub use metrics::{recovery_epochs, EpochSnapshot, Metrics};
pub use planner::{
    link_between, LinkKey, MoveClass, MoveReq, PlanOutcome, PlannerConfig, TransferPlanner,
};
pub use repair::{destination_unreachable, RepairQueue};
pub use rfh_faults::{FaultAction, FaultPlan};
pub use runner::{run_comparison, run_comparison_observed, ComparisonResult, ObsOptions};
pub use simulation::{SimParams, SimResult, Simulation};
