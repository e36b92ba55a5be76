//! `sim-zipf-100k`: the epoch engine at 10⁵ partitions.
//!
//! RFH on the paper topology with the Table I configuration, the
//! `RandomEven` scenario, the sparse engine and one thread. Each
//! repetition constructs a fresh `Simulation`, runs the warm-up epochs
//! (the dense seed epochs and the settling after them — that is set-up)
//! and then times a fixed window of epochs, each around its `step()`
//! call. A run makes a fixed number of repetitions of the same seed.
//! The work is fixed by the seed, so every repetition does the same
//! work (a gate checks that their results agree), and the reported time
//! of epoch `i` is its fastest repetition: interference from outside
//! the program only ever slows an epoch down, so the minimum filters it.

use crate::counters::{self, Sample};
use crate::report::{digest, percentile, sorted, Metrics, Pass, Span, Tracer, DIGEST_SEED, ROOT};
use rfh_core::PolicyKind;
use rfh_obs::{Metric, MetricsRegistry, ProfileReport};
use rfh_sim::{SimParams, Simulation};
use rfh_topology::paper_topology;
use rfh_types::{PartitionId, SimConfig};
use rfh_workload::{EventSchedule, Scenario};
use std::time::Instant;

/// Partitions simulated.
const PARTITIONS: u32 = 100_000;
/// Epochs of set-up: the dense seed epochs and the ramp after them.
/// Epoch time climbs steeply while the carried active set fills in and
/// flattens after about 60 epochs; timing the ramp would make the median
/// hinge on where the ramp bends.
const WARMUP: u64 = 60;
/// Epochs in the measured window (p90 then has ten epochs beyond it
/// in a single repetition).
const WINDOW: u64 = 100;
/// A repetition takes about this long on the reference host; a run
/// makes `seconds / REP_SECONDS` repetitions, at least three.
const REP_SECONDS: f64 = 9.0;
/// The profiler's phases, in epoch order.
const PHASES: [&str; 7] = ["events", "workload", "sparse", "traffic", "decide", "apply", "metrics"];

fn params(seed: u64) -> SimParams {
    SimParams {
        config: SimConfig { partitions: PARTITIONS, ..SimConfig::default() },
        scenario: Scenario::RandomEven,
        policy: PolicyKind::Rfh,
        epochs: WARMUP + WINDOW,
        seed,
        events: EventSchedule::new(),
        faults: rfh_sim::FaultPlan::default(),
        threads: 1,
    }
}

fn registry(sim: &Simulation) -> MetricsRegistry {
    let mut r = MetricsRegistry::new();
    sim.collect_metrics(&mut r);
    r
}

fn counter(r: &MetricsRegistry, name: &str) -> u64 {
    match r.get(name) {
        Some(Metric::Counter(v)) => *v,
        _ => 0,
    }
}

/// What one repetition measured.
struct Rep {
    setup_s: f64,
    epoch_ms: Vec<f64>,
    actions: u64,
    digest: u64,
    /// Process and allocator counters over the window.
    used: Sample,
    /// Engine counters over the window: `(name, growth)`.
    counters: Vec<(&'static str, u64)>,
    profile: Option<ProfileReport>,
}

const COUNTERS: [&str; 5] = [
    "sim.sparse.dirty_partitions",
    "sim.sparse.skipped_partitions",
    "traffic.engine.topo_rebuilds",
    "traffic.engine.index_rebuilds",
    "traffic.engine.fast_restores",
];

fn repetition(seed: u64, rep: u64, tracer: &Tracer) -> Result<Rep, String> {
    let err = |e: rfh_types::RfhError| e.to_string();
    let rep_id = 100 + rep * 1_000;
    let start = Instant::now();
    let mut sim = tracer.time("setup", rep_id, ROOT, || -> Result<Simulation, String> {
        // The topology is the system under test, not an input: its
        // capacity draw stays fixed while the seed varies the workload.
        let topo = paper_topology(0.25, 42).map_err(err)?;
        let mut sim = Simulation::with_topology(params(seed), topo).map_err(err)?;
        while sim.epoch() < WARMUP {
            sim.step().map_err(err)?;
        }
        Ok(sim)
    })?;
    let setup_s = start.elapsed().as_secs_f64();
    if tracer.enabled() {
        // A fresh profiler: the report then covers the window only.
        sim = sim.with_profiling(true);
    }
    let before = registry(&sim);
    let mut epoch_ms = Vec::with_capacity(WINDOW as usize);
    let mut actions = 0u64;
    let mut d = DIGEST_SEED;
    let window_start = Instant::now();
    let at_start = Sample::now();
    while sim.epoch() < WARMUP + WINDOW {
        let epoch = sim.epoch();
        let t = Instant::now();
        let snap = sim.step().map_err(err)?;
        let took = t.elapsed();
        epoch_ms.push(took.as_secs_f64() * 1e3);
        tracer.record(Span {
            name: "epoch",
            id: rep_id + 1 + epoch,
            parent: rep_id + 1,
            op_id: None,
            start_us: tracer.offset_us(t),
            dur_us: took.as_secs_f64() * 1e6,
        });
        actions += (snap.replications + snap.migrations + snap.suicides) as u64;
        d = digest(d, snap.utilization.to_bits());
        d = digest(d, snap.replicas_total as u64);
    }
    let used = Sample::now().since(&at_start);
    tracer.record(Span {
        name: "measure",
        id: rep_id + 1,
        parent: ROOT,
        op_id: None,
        start_us: tracer.offset_us(window_start),
        dur_us: window_start.elapsed().as_secs_f64() * 1e6,
    });

    // Gates: a clean audit and every partition at its floor.
    let violations = sim.auditor().total();
    if violations > 0 {
        return Err(format!("{violations} invariant violations"));
    }
    let cfg = SimConfig { partitions: PARTITIONS, ..SimConfig::default() };
    let r_min = rfh_stats::min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
    let manager = sim.manager();
    let short =
        (0..PARTITIONS).filter(|&p| manager.replica_count(PartitionId::new(p)) < r_min).count();
    if short > 0 {
        return Err(format!("{short} partitions below r_min = {r_min} at the end"));
    }
    for p in 0..PARTITIONS {
        for s in manager.replicas(PartitionId::new(p)) {
            d = digest(d, u64::from(p) << 32 | u64::from(s.0));
        }
    }

    let after = registry(&sim);
    let counters =
        COUNTERS.iter().map(|&n| (n, counter(&after, n) - counter(&before, n))).collect();
    let profile = sim.finish().profile;
    Ok(Rep { setup_s, epoch_ms, actions, digest: d, used, counters, profile })
}

/// One measured pass of `sim-zipf-100k`.
pub fn run(args: &crate::PassArgs) -> Result<Pass, String> {
    let tracer = Tracer::new(args.trace);
    let pass_start = Instant::now();
    let mut reps = Vec::new();
    let count = ((args.seconds / REP_SECONDS).round() as u64).max(3);
    for rep in 0..count {
        let r = repetition(args.seed, rep, &tracer)?;
        if reps.first().is_some_and(|first: &Rep| first.digest != r.digest) {
            return Err("two repetitions of one seed produced different results".into());
        }
        reps.push(r);
    }

    let fastest: Vec<f64> = (0..WINDOW as usize)
        .map(|i| reps.iter().map(|r| r.epoch_ms[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let window_s: f64 = fastest.iter().sum::<f64>() / 1e3;
    let epochs = sorted(fastest);
    let setup = sorted(reps.iter().map(|r| r.setup_s).collect());
    let n = epochs.len() as f64;
    let mut m = Metrics::default();
    m.put("setup_s", percentile(&setup, 0.5), "s");
    m.put("throughput_ops_s", n / window_s, "ops/s");
    m.put("op_p50_us", percentile(&epochs, 0.5) * 1e3, "us");
    m.put("op_tail_us", percentile(&epochs, 0.9) * 1e3, "us");
    m.put("peak_rss_mb", counters::peak_rss_mb(), "MiB");
    m.put("sim.epoch_ms_p50", percentile(&epochs, 0.5), "ms");
    m.put("sim.epoch_ms_p90", percentile(&epochs, 0.9), "ms");

    if args.trace {
        // Counters and the profile cover every repetition's window.
        let stepped = (reps.len() as u64 * WINDOW) as f64;
        let stepped_ms: f64 = reps.iter().flat_map(|r| &r.epoch_ms).sum();
        let used = reps.iter().fold(Sample::default(), |acc, r| acc.plus(&r.used));
        m.put("proc.cpu_ms_per_epoch", used.cpu_s * 1e3 / stepped, "ms");
        m.put("proc.read_syscalls_per_op", used.read_syscalls as f64 / stepped, "count");
        m.put("proc.write_syscalls_per_op", used.write_syscalls as f64 / stepped, "count");
        m.put("proc.write_bytes_per_op", used.write_bytes as f64 / stepped, "bytes");
        m.put("proc.ctx_switches_per_op", used.ctx_switches as f64 / stepped, "count");
        m.put("alloc.count_per_epoch", used.allocs as f64 / stepped, "count");
        m.put("alloc.bytes_per_op", used.alloc_bytes as f64 / stepped, "bytes");

        let mut phase_ns = [0u64; PHASES.len()];
        for r in &reps {
            let profile = r.profile.as_ref().expect("traced repetitions are profiled");
            for (i, name) in PHASES.iter().enumerate() {
                phase_ns[i] += profile.phase(name).map_or(0, |p| p.nanos);
            }
        }
        for (name, ns) in PHASES.iter().zip(phase_ns) {
            m.put(&format!("sim.{name}_ms"), ns as f64 / 1e6 / stepped, "ms");
        }
        let covered = phase_ns.iter().sum::<u64>() as f64 / 1e6;
        m.put("sim.phase_coverage", covered / stepped_ms, "fraction");

        let total = |name: &str| -> f64 {
            reps.iter()
                .flat_map(|r| &r.counters)
                .filter(|(c, _)| *c == name)
                .map(|(_, v)| *v as f64)
                .sum()
        };
        let dirty = total("sim.sparse.dirty_partitions");
        let skipped = total("sim.sparse.skipped_partitions");
        m.put("sim.active_frac", dirty / (dirty + skipped).max(1.0), "fraction");
        m.put("sim.active_partitions_per_epoch", dirty / stepped, "count");
        m.put("traffic.topo_rebuilds", total("traffic.engine.topo_rebuilds"), "count");
        m.put("traffic.index_rebuilds", total("traffic.engine.index_rebuilds"), "count");
        m.put("traffic.fast_restores", total("traffic.engine.fast_restores"), "count");
        let actions: u64 = reps.iter().map(|r| r.actions).sum();
        m.put("sim.actions_per_epoch", actions as f64 / stepped, "count");

        tracer.record(Span {
            name: "run",
            id: ROOT,
            parent: 0,
            op_id: None,
            start_us: 0.0,
            dur_us: pass_start.elapsed().as_secs_f64() * 1e6,
        });
        let path = args.out.join(format!("trace-sim-zipf-100k-seed{}.jsonl", args.seed));
        tracer.write(&path, "").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    eprintln!(
        "sim-zipf-100k: {} repetitions × {WINDOW} epochs after {WARMUP} warm-up epochs",
        reps.len()
    );
    Ok(Pass {
        workload: "sim-zipf-100k".into(),
        seed: args.seed,
        attempted: reps.len() as u64 * WINDOW,
        failed: 0,
        digest: reps[0].digest,
        metrics: m,
    })
}
