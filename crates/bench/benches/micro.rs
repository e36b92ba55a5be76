//! Micro-benchmarks of the simulator's hot primitives.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfh_bench::{bench_load, bench_manager, bench_ring, bench_topology};
use rfh_ring::PrefixRouter;
use rfh_stats::{eq14_availability, erlang_b, min_replica_count};
use rfh_topology::paper_topology_spec;
use rfh_traffic::{compute_traffic, TrafficEngine, TrafficSmoother};
use rfh_types::{DatacenterId, Epoch, PartitionId, ServerId, SimConfig};
use rfh_workload::{Poisson, Zipf};

fn ring_benches(c: &mut Criterion) {
    let topo = bench_topology();
    let ring = bench_ring(&topo);
    c.bench_function("ring/primary_lookup", |b| {
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % 64;
            black_box(ring.primary(PartitionId::new(p)).unwrap())
        })
    });
    c.bench_function("ring/successors_4", |b| {
        b.iter(|| black_box(ring.successors(PartitionId::new(7), 4).unwrap()))
    });
    c.bench_function("ring/join_leave", |b| {
        b.iter_batched(
            || ring.clone(),
            |mut r| {
                r.join(ServerId::new(5000));
                r.leave(ServerId::new(5000));
                r
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn topology_benches(c: &mut Criterion) {
    c.bench_function("topology/build_paper_preset", |b| {
        b.iter(|| black_box(paper_topology_spec().build(0.25, 42).unwrap()))
    });
    let topo = bench_topology();
    c.bench_function("topology/path_lookup", |b| {
        b.iter(|| black_box(topo.path(DatacenterId::new(7), DatacenterId::new(0))))
    });
}

fn overlay_benches(c: &mut Criterion) {
    let mut overlay = PrefixRouter::new();
    for i in 0..100 {
        overlay.join(ServerId::new(i));
    }
    c.bench_function("overlay/route_100_nodes", |b| {
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(0x9e3779b97f4a7c15);
            black_box(overlay.route(ServerId::new(0), key).unwrap())
        })
    });
}

fn stats_benches(c: &mut Criterion) {
    c.bench_function("stats/erlang_b_c100", |b| {
        b.iter(|| black_box(erlang_b(black_box(80.0), black_box(100))))
    });
    c.bench_function("stats/eq14_availability", |b| {
        b.iter(|| black_box(eq14_availability(black_box(8), black_box(0.1))))
    });
    c.bench_function("stats/min_replica_count", |b| {
        b.iter(|| black_box(min_replica_count(black_box(0.1), black_box(0.8))))
    });
}

fn sampler_benches(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let poisson = Poisson::new(300.0);
    c.bench_function("workload/poisson_300", |b| b.iter(|| black_box(poisson.sample(&mut rng))));
    let zipf = Zipf::new(64, 0.8);
    c.bench_function("workload/zipf_64", |b| b.iter(|| black_box(zipf.sample(&mut rng))));
}

fn traffic_benches(c: &mut Criterion) {
    let topo = bench_topology();
    let ring = bench_ring(&topo);
    let cfg = SimConfig::default();
    let manager = bench_manager(&cfg, &topo, &ring);
    let load = bench_load(&cfg);
    let view = manager.placement_view(&topo, cfg.replica_capacity_mean);
    c.bench_function("traffic/compute_pass_paper_scale", |b| {
        b.iter(|| black_box(compute_traffic(&topo, &load, &view)))
    });
    let all: Vec<u32> = (0..cfg.partitions).collect();
    c.bench_function("traffic/engine_account_reused", |b| {
        let mut engine = TrafficEngine::new();
        engine.account_active(&topo, &load, &view, &all, None); // warm the caches once
        b.iter(|| {
            black_box(engine.account_active(&topo, &load, &view, &all, None));
        })
    });
    let accounts = compute_traffic(&topo, &load, &view);
    c.bench_function("traffic/smoother_update", |b| {
        let mut smoother = TrafficSmoother::new(64, 10, 0.2);
        b.iter(|| smoother.update_active(&load, &accounts, &all))
    });
}

fn decision_benches(c: &mut Criterion) {
    use rfh_core::{server_blocking_probabilities, EpochContext, ReplicationPolicy, RfhPolicy};
    let topo = bench_topology();
    let ring = bench_ring(&topo);
    let cfg = SimConfig::default();
    let manager = bench_manager(&cfg, &topo, &ring);
    let load = bench_load(&cfg);
    let view = manager.placement_view(&topo, cfg.replica_capacity_mean);
    let accounts = compute_traffic(&topo, &load, &view);
    let all: Vec<u32> = (0..cfg.partitions).collect();
    let mut smoother = TrafficSmoother::new(64, 10, 0.2);
    smoother.update_active(&load, &accounts, &all);
    let blocking = server_blocking_probabilities(&topo, &accounts, cfg.replica_capacity_mean);
    c.bench_function("core/rfh_decide_epoch", |b| {
        let mut policy = RfhPolicy::new();
        b.iter(|| {
            let ctx = EpochContext {
                epoch: Epoch(1),
                topo: &topo,
                load: &load,
                accounts: &accounts,
                smoother: &smoother,
                blocking: &blocking,
                view: &view,
                config: &cfg,
                recorder: &rfh_obs::NullRecorder,
                active: &all,
            };
            black_box(policy.decide(&ctx, &manager))
        })
    });
}

fn net_benches(c: &mut Criterion) {
    use rfh_net::{Message, MessagePayload, Network};
    let payload = MessagePayload::TrafficReport {
        partition: PartitionId::new(0),
        reporter: DatacenterId::new(7),
        traffic: 12.0,
        outflow: 9.0,
        candidate: Some(ServerId::new(70)),
        blocking_probability: 0.05,
        observed_at: Epoch(1),
    };
    let route: Vec<DatacenterId> = [7u32, 8, 4, 3, 0].into_iter().map(DatacenterId::new).collect();
    c.bench_function("net/deliver_640_reports", |b| {
        b.iter(|| {
            let mut net = Network::new(10, 8);
            for _ in 0..640 {
                net.send(Message::new(route.clone(), payload.clone()));
            }
            net.run_epoch();
            black_box(net.drain_inbox(DatacenterId::new(0)).len())
        })
    });
}

fn consistency_benches(c: &mut Criterion) {
    use rfh_consistency::PartitionVersions;
    c.bench_function("consistency/write_and_sync_8_replicas", |b| {
        b.iter(|| {
            let mut p = PartitionVersions::new();
            for s in 0..8u32 {
                p.add_replica(ServerId::new(s), None);
            }
            for _ in 0..20 {
                p.write(ServerId::new(0));
            }
            for s in 1..8u32 {
                black_box(p.sync_replica(ServerId::new(s), 32));
            }
            black_box(p.lag(ServerId::new(7)))
        })
    });
}

criterion_group!(
    benches,
    ring_benches,
    topology_benches,
    overlay_benches,
    stats_benches,
    sampler_benches,
    traffic_benches,
    decision_benches,
    net_benches,
    consistency_benches
);
criterion_main!(benches);
