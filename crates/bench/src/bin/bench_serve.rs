//! End-to-end serving benchmark, emitted as `BENCH_serve.json` for the
//! repo's records.
//!
//! Run from the workspace root (release profile matters):
//!
//! ```text
//! cargo run --release -p rfh-bench --bin bench_serve
//! ```
//!
//! Brings up a 60-node loopback cluster (the scaled paper topology at
//! 3 servers per rack) under the online RFH control loop, kills one
//! server mid-run via a fault plan, and drives a closed-loop mixed
//! read/write workload through real TCP connections. The report
//! records throughput and p50/p99/p999 latency, and the process exits
//! nonzero if any acknowledged write was lost or corrupted — the same
//! guarantee the serve smoke tests assert, here at benchmark scale.
//!
//! Four arms are interleaved across [`ROUNDS`] rounds, keeping the
//! fastest pass of each (the `bench_obs` methodology: fastest-of-N
//! filters scheduler noise on a shared host):
//!
//! * `off` / `on` — the reactor plane with telemetry off/on (their
//!   delta is the telemetry overhead);
//! * `durable` — reactor with the WAL on, `checkpoint_every` sized so
//!   the run actually crosses the checkpoint threshold;
//! * `piped` — the reactor plane at pipeline depth [`PIPELINE_DEPTH`].
//!
//! Overheads are reported raw *and* clamped at zero, next to the
//! measured noise floor (the spread of the baseline arm across
//! rounds): a negative raw overhead within the noise floor is
//! scheduler jitter, not a speedup, and `within_noise` says so.

use rfh_faults::FaultPlan;
use rfh_serve::{
    run_loadgen, ArrivalMode, Cluster, ClusterConfig, LoadGenConfig, LoadReport, PersistenceConfig,
    ServeSummary,
};

/// Interleaved measurement rounds; fastest of each arm counts.
const ROUNDS: usize = 3;

/// Closed-loop window depth of the pipelined arms.
const PIPELINE_DEPTH: u64 = 8;

/// Checkpoint threshold for the durable arm. 20k ops at a 50% write
/// fraction, ×3 replicas, spread over 60 nodes × 2 range shards lands
/// ~250 records per shard — at 100 every busy shard checkpoints.
const CHECKPOINT_EVERY: u64 = 100;

fn cluster_config(telemetry: bool, persistence: Option<PersistenceConfig>) -> ClusterConfig {
    ClusterConfig {
        servers_per_rack: 3, // 10 DCs × 2 racks × 3 = 60 nodes
        partitions: 64,
        seed: 42,
        control_interval_ms: 100,
        capacity_spread: 0.25,
        threads: 1,
        telemetry,
        persistence,
        ..ClusterConfig::default()
    }
}

/// One full pass: cluster up, chaos kill, load, verify, shutdown.
fn run_pass(
    telemetry: bool,
    persist_dir: Option<&std::path::Path>,
    pipeline: u64,
) -> (LoadReport, ServeSummary) {
    let persistence = persist_dir.map(|d| {
        let mut p = PersistenceConfig::with_dir(d.display().to_string());
        p.checkpoint_every = CHECKPOINT_EVERY;
        p
    });
    let durable = persistence.is_some();
    let cluster_cfg = cluster_config(telemetry, persistence);
    // One server dies four ticks (~400 ms) into the run, while the
    // load generator is writing at full tilt.
    let plan = FaultPlan::from_toml_str("[[at]]\nepoch = 4\nfail_servers = [17]\n")
        .expect("inline plan parses");
    let load_cfg = LoadGenConfig {
        mode: ArrivalMode::Closed,
        workers: 8,
        ops: 20_000,
        rate: 2_000.0,
        read_fraction: 0.5,
        keys: 5_000,
        zipf_s: 0.9,
        value_bytes: 128,
        seed: 1,
        trace_sample: 0,
        pipeline,
    };
    let cluster = Cluster::start(&cluster_cfg, plan).expect("cluster starts");
    let t0 = std::time::Instant::now();
    let report = run_loadgen(&load_cfg, cluster.node_infos()).expect("loadgen runs");
    // The reactor drains the budget fast enough that the kill tick may
    // still be ahead; let it land before reading the summary.
    let kill_at = std::time::Duration::from_millis(500);
    if t0.elapsed() < kill_at {
        std::thread::sleep(kill_at - t0.elapsed());
    }
    let summary = cluster.shutdown().expect("clean shutdown");

    if report.lost_acked_writes > 0 || report.value_mismatches > 0 {
        eprintln!(
            "FAIL: {} lost acked writes, {} value mismatches",
            report.lost_acked_writes, report.value_mismatches
        );
        std::process::exit(1);
    }
    if summary.alive_nodes != summary.nodes - 1 {
        eprintln!("FAIL: expected exactly one dead server, {} alive", summary.alive_nodes);
        std::process::exit(1);
    }
    if durable {
        let ckpts = summary.storage.as_ref().map_or(0, |s| s.checkpoints_written);
        if ckpts == 0 {
            eprintln!("FAIL: durable arm wrote no checkpoints (checkpoint_every sized wrong?)");
            std::process::exit(1);
        }
    }
    (report, summary)
}

/// Keep `candidate` if it beats the incumbent's throughput.
fn keep_best(best: &mut Option<(LoadReport, ServeSummary)>, candidate: (LoadReport, ServeSummary)) {
    if best.as_ref().is_none_or(|(b, _)| candidate.0.throughput > b.throughput) {
        *best = Some(candidate);
    }
}

/// `{ "throughput_ops_per_sec": …, "p50_us": …, "p99_us": … }`.
fn arm_json(r: &LoadReport) -> String {
    format!(
        "{{ \"throughput_ops_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }}",
        r.throughput, r.p50_us, r.p99_us
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "60-node cluster, {ROUNDS} interleaved rounds × 4 arms \
         (telemetry off/on, durable, piped), host_cpus={host_cpus}…"
    );
    let scratch = std::env::temp_dir().join(format!("rfh-bench-wal-{}", std::process::id()));
    let mut best_off: Option<(LoadReport, ServeSummary)> = None;
    let mut best_on: Option<(LoadReport, ServeSummary)> = None;
    let mut best_durable: Option<(LoadReport, ServeSummary)> = None;
    let mut best_piped: Option<(LoadReport, ServeSummary)> = None;
    // The baseline arm's per-round throughputs, for the noise floor.
    let mut off_rounds: Vec<f64> = Vec::new();
    for round in 0..ROUNDS {
        let pass = run_pass(false, None, 1);
        eprintln!("round {round} telemetry off:   {:>7.0} ops/s", pass.0.throughput);
        off_rounds.push(pass.0.throughput);
        keep_best(&mut best_off, pass);

        let pass = run_pass(true, None, 1);
        eprintln!("round {round} telemetry on:    {:>7.0} ops/s", pass.0.throughput);
        keep_best(&mut best_on, pass);

        // Durable arm: telemetry off (so the delta against `off`
        // isolates the WAL), fresh directory per pass so no round
        // replays the previous round's logs.
        let _ = std::fs::remove_dir_all(&scratch);
        let pass = run_pass(false, Some(&scratch), 1);
        eprintln!("round {round} durable:         {:>7.0} ops/s", pass.0.throughput);
        keep_best(&mut best_durable, pass);

        let pass = run_pass(false, None, PIPELINE_DEPTH);
        eprintln!("round {round} reactor piped:   {:>7.0} ops/s", pass.0.throughput);
        keep_best(&mut best_piped, pass);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let (off, _) = best_off.expect("at least one round ran");
    let (report, summary) = best_on.expect("at least one round ran");
    let (durable, durable_summary) = best_durable.expect("at least one round ran");
    let (piped, _) = best_piped.expect("at least one round ran");

    // Noise floor: the baseline arm's own round-to-round spread. Any
    // overhead smaller than this is indistinguishable from scheduler
    // jitter on this host.
    let off_max = off_rounds.iter().cloned().fold(f64::MIN, f64::max);
    let off_min = off_rounds.iter().cloned().fold(f64::MAX, f64::min);
    let noise_floor_pct = if off_max > 0.0 { (off_max - off_min) / off_max * 100.0 } else { 0.0 };
    let overhead_raw = (off.throughput - report.throughput) / off.throughput * 100.0;
    let durable_raw = (off.throughput - durable.throughput) / off.throughput * 100.0;
    let storage = durable_summary.storage.expect("durable arm has storage counters");

    let json = format!(
        "{{\n  \"cluster\": {{ \"nodes\": {}, \"partitions\": {}, \"killed_servers\": 1, \
         \"control_ticks\": {}, \"replications\": {}, \"migrations\": {}, \
         \"repairs_completed\": {}, \"invariant_violations\": {} }},\n  \
         \"telemetry\": {{ \"off_throughput_ops_per_sec\": {:.1}, \
         \"on_throughput_ops_per_sec\": {:.1}, \"overhead_pct\": {:.2}, \
         \"overhead_raw_pct\": {:.2}, \"noise_floor_pct\": {:.2}, \"within_noise\": {} }},\n  \
         \"durability\": {{ \"memory_throughput_ops_per_sec\": {:.1}, \
         \"durable_throughput_ops_per_sec\": {:.1}, \"overhead_pct\": {:.2}, \
         \"overhead_raw_pct\": {:.2}, \"within_noise\": {}, \
         \"memory_p99_us\": {:.1}, \"durable_p99_us\": {:.1}, \
         \"records_appended\": {}, \"segments_written\": {}, \
         \"checkpoints_written\": {} }},\n  \
         \"reactor\": {{ \"host_cpus\": {}, \"pipeline_depth\": {}, \
         \"reactor\": {}, \"reactor_pipelined\": {} }},\n  \"load\": {}\n}}\n",
        summary.nodes,
        64,
        summary.ticks,
        summary.replications,
        summary.migrations,
        summary.repairs_completed,
        summary.invariant_violations,
        off.throughput,
        report.throughput,
        overhead_raw.max(0.0),
        overhead_raw,
        noise_floor_pct,
        overhead_raw.abs() <= noise_floor_pct,
        off.throughput,
        durable.throughput,
        durable_raw.max(0.0),
        durable_raw,
        durable_raw.abs() <= noise_floor_pct,
        off.p99_us,
        durable.p99_us,
        storage.records_appended,
        storage.segments_written,
        storage.checkpoints_written,
        host_cpus,
        PIPELINE_DEPTH,
        arm_json(&off),
        arm_json(&piped),
        report.to_json().replace('\n', "\n  "),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");

    eprint!("{}", report.render());
    eprintln!("alive at shutdown: {}/{}", summary.alive_nodes, summary.nodes);
    eprintln!(
        "reactor {:.0} ops/s (p99 {:.0} µs) → reactor piped {:.0} ops/s (p99 {:.0} µs)",
        off.throughput, off.p99_us, piped.throughput, piped.p99_us,
    );
    eprintln!(
        "telemetry overhead: {:.2}% raw (noise floor {noise_floor_pct:.2}%; off {:.0} → on {:.0} \
         ops/s)",
        overhead_raw, off.throughput, report.throughput
    );
    eprintln!(
        "durability overhead: {:.2}% raw (memory {:.0} → durable {:.0} ops/s, p99 {:.0} → {:.0} \
         µs; {} checkpoints)",
        durable_raw,
        off.throughput,
        durable.throughput,
        off.p99_us,
        durable.p99_us,
        storage.checkpoints_written,
    );
    println!("{json}");
}
