//! Head-to-head timing of the one-shot traffic pass vs the reused
//! engine, emitted as `BENCH_traffic.json` for the repo's records.
//!
//! Run from the workspace root (release profile matters):
//!
//! ```text
//! cargo run --release -p rfh-bench --bin bench_traffic
//! ```
//!
//! Methodology: the two paths are timed in interleaved rounds (so a
//! frequency or scheduler drift hits both alike) and each path reports
//! its *median* round — a single noisy round cannot skew the ratio.

use rfh_bench::{bench_load, bench_manager, bench_ring, bench_topology};
use rfh_traffic::{compute_traffic, TrafficEngine};
use rfh_types::SimConfig;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 9;
const ITERS: u32 = 1000;

/// Mean ns/iteration of `f` over `ITERS` runs (after one warm-up call).
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let topo = bench_topology();
    let ring = bench_ring(&topo);
    let cfg = SimConfig::default();
    let manager = bench_manager(&cfg, &topo, &ring);
    let load = bench_load(&cfg);
    let view = manager.placement_view(&topo, cfg.replica_capacity_mean);
    let all: Vec<u32> = (0..cfg.partitions).collect();

    let mut engine = TrafficEngine::new();
    let mut oneshot = Vec::with_capacity(ROUNDS);
    let mut reused = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        // One-shot path: every call builds a throwaway engine — fresh
        // route table, fresh membership caches, fresh grids.
        oneshot.push(time_ns(|| {
            black_box(compute_traffic(&topo, &load, &view));
        }));
        // Reused path: the engine keeps its caches and buffers across
        // calls (the simulator's steady state), here over every
        // partition like the one-shot pass.
        reused.push(time_ns(|| {
            black_box(engine.account_active(&topo, &load, &view, &all, None));
        }));
    }
    let oneshot_ns = median(oneshot);
    let reused_ns = median(reused);

    let speedup = oneshot_ns / reused_ns;
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"traffic pass, paper topology (10 DCs, 100 servers, 64 partitions)\",\n",
            "  \"rounds\": {},\n",
            "  \"iters_per_round\": {},\n",
            "  \"compute_traffic_ns\": {:.1},\n",
            "  \"engine_account_reused_ns\": {:.1},\n",
            "  \"speedup\": {:.2}\n",
            "}}\n"
        ),
        ROUNDS, ITERS, oneshot_ns, reused_ns, speedup
    );
    std::fs::write("BENCH_traffic.json", &json).expect("write BENCH_traffic.json");
    print!("{json}");
    eprintln!("wrote BENCH_traffic.json (reused engine {speedup:.2}x faster)");
}
