//! The reference ≡ sparse ≡ parallel differential harness.
//!
//! The epoch kernel's contract is *bit-identity*: for any thread count,
//! a run produces exactly the metric history, placement, decision
//! trace, and rendered reports of the *full-sweep reference* — the same
//! run with every partition kept in the active set every epoch. The
//! reference is built here, in test code only: [`FullSweep`] wraps the
//! policy the kernel built and answers `keeps_live` with `true` for
//! every partition, so the kernel never skips one. The sparse
//! dirty-set walk and the sharded passes may only change wall-clock.
//! These tests drive the full matrix (every policy, the domain-spread
//! placement variant included, × {reference, sparse} × thread counts
//! {1, 2, 4, 7} × several seeds, with and without a chaos fault plan)
//! and compare:
//!
//! * the [`SimResult`] (every metric series, profile excluded),
//! * the final rendered [`PlacementView`] (replica placement content),
//! * the decision-event JSONL trace, byte for byte,
//! * the full per-epoch CSV report, byte for byte.
//!
//! Every cell also checks that the two sides did different work: the
//! reference skips no partition and the sparse run skips some, so the
//! differential cannot quietly compare sparse against sparse. That is
//! why the matrix workload is steeply skewed (Zipf exponent 3) and
//! rotates its hot set every quarter of the run (the popularity-shift
//! scenario): under the paper's even spread every one of the 16
//! partitions is queried every epoch, the sparse run skips nothing, and
//! the two sides run the same code. With the skew, a few partitions
//! carry most of the load while the tail goes cold; with the rotation,
//! hot partitions cool down while they still hold extra replicas, so
//! the freeze predicates decide what the sparse run carries.
//!
//! 7 threads is deliberately coprime with the 16-partition count so
//! shard boundaries land unevenly; 2 and 4 divide it exactly. The
//! chaos plan matters doubly for the sparse engine: a datacenter
//! outage prunes replicas from partitions that carry no queries, so
//! cold partitions must re-enter the dirty set through the placement
//! (not the workload) channel for the runs to stay identical.
//!
//! The transfer planner joins the same contract: with an unlimited
//! budget every move is admitted in decision order, so a planner-on run
//! must be byte-identical to the greedy executor across the whole
//! matrix (`unlimited_budget_planner_is_bit_identical_to_greedy`).
//!
//! The `cli_*` tests repeat the reference check at the scale of the
//! `rfh run` command: the default 64-partition run and a 10⁵-partition
//! run under the chaos plan. They are slow in a debug build; CI runs
//! them in release.

use rfh_core::{Action, EpochContext, PolicyKind, ReplicaManager, ReplicationPolicy};
use rfh_faults::{ChurnConfig, FaultAction, FaultPlan};
use rfh_obs::{Metric, MetricsRegistry, TraceRecorder};
use rfh_sim::{report, PlannerConfig, SimParams, SimResult, Simulation};
use rfh_topology::Topology;
use rfh_traffic::{PlacementView, TrafficSmoother};
use rfh_types::{DatacenterId, PartitionId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 7];
const SEEDS: [u64; 3] = [7, 23, 4242];

/// The full-sweep reference policy: the wrapped policy, except that
/// every partition stays live, so the kernel's active set is every
/// partition every epoch.
struct FullSweep(Box<dyn ReplicationPolicy + Send>);

impl ReplicationPolicy for FullSweep {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        self.0.decide(ctx, manager)
    }

    fn set_message_loss(&mut self, probability: f64) {
        self.0.set_message_loss(probability);
    }

    fn keeps_live(
        &self,
        _topo: &Topology,
        _smoother: &TrafficSmoother,
        _manager: &ReplicaManager,
        _r_min: usize,
        _p: PartitionId,
    ) -> bool {
        true
    }
}

/// Which side of the differential a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// Every partition active every epoch ([`FullSweep`]).
    Reference,
    /// The kernel's own active set.
    Sparse,
}

/// Everything the differential compares, plus the skip counter that
/// proves the two sides did different work.
struct Run {
    result: SimResult,
    csv: String,
    trace: String,
    view: PlacementView,
    skipped: u64,
}

fn base(policy: PolicyKind, seed: u64, threads: usize) -> SimParams {
    SimParams {
        config: SimConfig {
            partitions: 16,
            replica_capacity_mean: 5.0,
            partition_skew: 3.0,
            ..SimConfig::default()
        },
        scenario: Scenario::PopularityShift,
        policy,
        epochs: 30,
        seed,
        events: EventSchedule::new(),
        faults: FaultPlan::default(),
        threads,
    }
}

/// Every fault family at once: background churn, a correlated DC
/// outage, gray message loss, and a bandwidth squeeze — all inside the
/// 30-epoch window.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 11,
        scheduled: Vec::new(),
        churn: Some(ChurnConfig { mtbf: 300.0, mttr: 10.0, start: 0, end: None }),
    }
    .at(8, FaultAction::FailDatacenter(DatacenterId::new(3)))
    .at(10, FaultAction::MessageLoss(0.2))
    .at(12, FaultAction::Bandwidth(0.5, 0.5))
    .at(18, FaultAction::RecoverDatacenter(DatacenterId::new(3)))
    .at(20, FaultAction::MessageLoss(0.0))
    .at(22, FaultAction::Bandwidth(1.0, 1.0))
}

/// Run `p` to completion on one side of the differential and capture
/// the result, the rendered CSV, the decision trace, the final
/// placement view and the lifetime skipped-partition count.
fn run_params(p: SimParams, engine: Engine, planner: PlannerConfig) -> Run {
    let cap = p.config.replica_capacity_mean;
    let epochs = p.epochs;
    let recorder = Arc::new(TraceRecorder::new());
    let mut sim = Simulation::new(p)
        .expect("params are valid")
        .with_planner(planner)
        .with_recorder(Arc::clone(&recorder) as Arc<dyn rfh_obs::Recorder>);
    if engine == Engine::Reference {
        sim = sim.map_policy(|policy| Box::new(FullSweep(policy)));
    }
    while sim.epoch() < epochs {
        sim.step().expect("epoch steps");
    }
    let mut registry = MetricsRegistry::new();
    sim.collect_metrics(&mut registry);
    let skipped = match registry.get("sim.sparse.skipped_partitions") {
        Some(Metric::Counter(v)) => *v,
        other => panic!("sim.sparse.skipped_partitions: expected a counter, got {other:?}"),
    };
    let view = sim.manager().placement_view(sim.topology(), cap);
    let result = sim.finish();
    let csv = report::run_csv(&result);
    Run { result, csv, trace: recorder.to_jsonl(), view, skipped }
}

fn run_once(policy: PolicyKind, seed: u64, threads: usize, chaos: bool, engine: Engine) -> Run {
    run_planned(policy, seed, threads, chaos, engine, PlannerConfig::default())
}

fn run_planned(
    policy: PolicyKind,
    seed: u64,
    threads: usize,
    chaos: bool,
    engine: Engine,
    planner: PlannerConfig,
) -> Run {
    let mut p = base(policy, seed, threads);
    if chaos {
        p.faults = chaos_plan();
    }
    run_params(p, engine, planner)
}

/// `run` must equal `reference` on every compared output.
fn assert_identical(reference: &Run, run: &Run, tag: &str) {
    assert_eq!(reference.result, run.result, "SimResult diverged: {tag}");
    assert_eq!(reference.csv, run.csv, "CSV report diverged: {tag}");
    assert_eq!(reference.trace, run.trace, "decision trace diverged: {tag}");
    assert_eq!(reference.view, run.view, "final placement diverged: {tag}");
}

/// A reference run skips nothing; a sparse run skips something.
fn assert_did_its_own_work(run: &Run, engine: Engine, tag: &str) {
    match engine {
        Engine::Reference => assert_eq!(run.skipped, 0, "reference skipped partitions: {tag}"),
        Engine::Sparse => assert!(run.skipped > 0, "sparse run skipped nothing: {tag}"),
    }
}

fn assert_matrix(chaos: bool) {
    for policy in PolicyKind::WITH_SPREAD {
        for seed in SEEDS {
            let reference = run_once(policy, seed, 1, chaos, Engine::Reference);
            let base_tag = format!("{policy} seed {seed}{}", if chaos { " +chaos" } else { "" });
            assert_did_its_own_work(&reference, Engine::Reference, &base_tag);
            for engine in [Engine::Reference, Engine::Sparse] {
                for threads in THREADS {
                    if engine == Engine::Reference && threads == 1 {
                        continue; // that's the baseline itself
                    }
                    let run = run_once(policy, seed, threads, chaos, engine);
                    let tag = format!("{base_tag} {engine:?} threads {threads}");
                    assert_identical(&reference, &run, &tag);
                    assert_did_its_own_work(&run, engine, &tag);
                }
            }
        }
    }
}

#[test]
fn engine_and_thread_matrix_is_bit_identical() {
    assert_matrix(false);
}

#[test]
fn engine_and_thread_matrix_is_bit_identical_under_chaos() {
    assert_matrix(true);
}

/// The sparse engine against the full-sweep reference for every paper
/// policy on a 40-epoch run of the matrix workload.
#[test]
fn reference_equals_sparse_for_every_policy() {
    for kind in PolicyKind::ALL {
        let mut p = base(kind, 7, 1);
        p.epochs = 40;
        let reference = run_params(p.clone(), Engine::Reference, PlannerConfig::default());
        let sparse = run_params(p, Engine::Sparse, PlannerConfig::default());
        assert_eq!(reference.result, sparse.result, "{kind}: sparse engine must be bit-identical");
        assert_did_its_own_work(&reference, Engine::Reference, &kind.to_string());
        assert_did_its_own_work(&sparse, Engine::Sparse, &kind.to_string());
    }
}

/// The planner differential: with `--planner on` and no link budget,
/// every move is admitted in decision order, so the run — SimResult,
/// CSV, decision trace, final placement — must be byte-identical to
/// the greedy executor. Driven across every policy (domain-spread
/// included) × {reference, sparse} × thread counts {1, 4} × chaos on/off, so
/// the identity holds exactly where the planner will actually run.
#[test]
fn unlimited_budget_planner_is_bit_identical_to_greedy() {
    for chaos in [false, true] {
        for policy in PolicyKind::WITH_SPREAD {
            let reference = run_once(policy, 7, 1, chaos, Engine::Reference);
            for engine in [Engine::Reference, Engine::Sparse] {
                for threads in [1, 4] {
                    let run =
                        run_planned(policy, 7, threads, chaos, engine, PlannerConfig::unlimited());
                    let tag = format!(
                        "{policy} planner-on {engine:?} threads {threads}{}",
                        if chaos { " +chaos" } else { "" }
                    );
                    assert_identical(&reference, &run, &tag);
                    assert_did_its_own_work(&run, engine, &tag);
                }
            }
        }
    }
}

/// The four-way comparison runner goes through the same kernel; spot
/// check that its per-metric CSV (the figure pipeline's input) is
/// byte-identical too: the full-sweep reference of each policy, serial,
/// vs the runner's sparse runs at a deliberately awkward thread count.
#[test]
fn comparison_csv_is_engine_and_thread_invariant() {
    let reference = rfh_sim::ComparisonResult {
        results: PolicyKind::ALL
            .into_iter()
            .map(|kind| run_params(base(kind, 7, 1), Engine::Reference, PlannerConfig::default()))
            .map(|run| run.result)
            .collect(),
    };
    let sparse = rfh_sim::run_comparison(&base(PolicyKind::Rfh, 7, 7)).unwrap();
    for metric in ["utilization", "replicas_total", "unserved", "latency_ms"] {
        assert_eq!(
            report::comparison_csv(&reference, metric),
            report::comparison_csv(&sparse, metric),
            "comparison CSV diverged for {metric}"
        );
    }
}

/// The fault plan of the CI chaos smokes (`chaos.toml` in
/// `.github/workflows/ci.yml`).
const CI_CHAOS_TOML: &str = r#"
seed = 7

[churn]
mtbf = 400
mttr = 20

[[at]]
epoch = 20
fail_dc = 3

[[at]]
epoch = 40
recover_dc = 3

[[at]]
epoch = 25
partition = [7, 8]

[[at]]
epoch = 45
heal_partition = true
"#;

/// The parameters `rfh run` builds from its defaults (RFH, the random
/// scenario, seed 42, Table I config).
fn cli_params(epochs: u64, threads: usize) -> SimParams {
    let mut p = SimParams::paper(PolicyKind::Rfh, Scenario::RandomEven);
    p.epochs = epochs;
    p.threads = threads;
    p
}

/// `rfh run --epochs 60` on defaults: the CSV and the decision JSONL of
/// the sparse run, serial and on four threads, equal the reference's.
/// At this scale (64 partitions, 300 queries an epoch) every partition
/// is queried every epoch, so the sparse run skips none either; the
/// 10⁵-partition run below is the one where the two sides differ.
#[test]
fn cli_default_run_matches_full_sweep_reference() {
    let reference = run_params(cli_params(60, 1), Engine::Reference, PlannerConfig::default());
    assert_did_its_own_work(&reference, Engine::Reference, "cli default");
    for threads in [1, 4] {
        let run = run_params(cli_params(60, threads), Engine::Sparse, PlannerConfig::default());
        let tag = format!("cli default threads {threads}");
        assert_eq!(reference.csv, run.csv, "CSV diverged: {tag}");
        assert_eq!(reference.trace, run.trace, "decision JSONL diverged: {tag}");
    }
}

/// `rfh run --partitions 100000 --epochs 12 --faults chaos.toml`: the
/// scale the sparse server axis targets, under the CI chaos plan.
#[test]
fn cli_chaos_run_at_1e5_partitions_matches_full_sweep_reference() {
    let params = || {
        let mut p = cli_params(12, 1);
        p.config.partitions = 100_000;
        p.faults = FaultPlan::from_toml_str(CI_CHAOS_TOML).expect("CI chaos plan parses");
        p
    };
    let reference = run_params(params(), Engine::Reference, PlannerConfig::default());
    let sparse = run_params(params(), Engine::Sparse, PlannerConfig::default());
    assert_eq!(reference.csv, sparse.csv, "CSV diverged at 1e5 partitions");
    assert_eq!(reference.trace, sparse.trace, "decision JSONL diverged at 1e5 partitions");
    assert_did_its_own_work(&reference, Engine::Reference, "1e5 chaos");
    assert_did_its_own_work(&sparse, Engine::Sparse, "1e5 chaos");
}
