//! Property: a reused [`TrafficEngine`] is *bit-for-bit* equivalent to
//! the legacy one-shot `compute_traffic` pass — for arbitrary loads and
//! placements, and across arbitrary membership churn (failures,
//! recoveries, joins) that invalidates the engine's generation-keyed
//! caches between passes.

use proptest::prelude::*;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{compute_traffic, PlacementView, TrafficEngine};
use rfh_types::{DatacenterId, PartitionId, RackId, RoomId, ServerId};
use rfh_workload::QueryLoad;

const PARTITIONS: u32 = 4;
/// Every partition, ascending: the active list of a full pass.
const ALL: [u32; PARTITIONS as usize] = [0, 1, 2, 3];
const DCS: u32 = 10;
const SERVERS: u32 = 100;

fn topo() -> Topology {
    paper_topology(0.0, 1).unwrap()
}

#[derive(Debug, Clone)]
struct Setup {
    load: Vec<(u32, u32, u32)>,     // (partition, dc, count)
    capacity: Vec<(u32, u32, u16)>, // (partition, server, capacity)
    holders: Vec<u32>,              // per partition
}

/// One membership mutation between traffic passes.
#[derive(Debug, Clone)]
enum Churn {
    Fail(u32),
    Recover(u32),
    Join(u32),
}

fn arb_setup(servers: u32) -> impl Strategy<Value = Setup> {
    (
        proptest::collection::vec((0..PARTITIONS, 0..DCS, 1u32..60), 0..30),
        proptest::collection::vec((0..PARTITIONS, 0..servers, 1u16..40), 0..40),
        proptest::collection::vec(0..servers, PARTITIONS as usize),
    )
        .prop_map(|(load, capacity, holders)| Setup { load, capacity, holders })
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0..SERVERS).prop_map(Churn::Fail),
        (0..SERVERS).prop_map(Churn::Recover),
        (0..DCS).prop_map(Churn::Join),
    ]
}

fn build(setup: &Setup, servers: u32) -> (QueryLoad, PlacementView) {
    let mut load = QueryLoad::zeros(PARTITIONS, DCS);
    for &(p, dc, c) in &setup.load {
        load.add(PartitionId::new(p), DatacenterId::new(dc), c);
    }
    let holders = setup.holders.iter().map(|&h| ServerId::new(h)).collect();
    let mut view = PlacementView::new(PARTITIONS, servers, holders);
    for &(p, s, c) in &setup.capacity {
        view.add_capacity(PartitionId::new(p), ServerId::new(s), c as f64);
    }
    (load, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single pass: one engine call equals the legacy pass exactly
    /// (`TrafficAccounts` derives `PartialEq` over every grid cell and
    /// accumulator, so this is a full bitwise-f64 comparison).
    #[test]
    fn engine_equals_legacy_pass(setup in arb_setup(SERVERS)) {
        let topo = topo();
        let (load, view) = build(&setup, SERVERS);
        let legacy = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        prop_assert_eq!(engine.account_active(&topo, &load, &view, &ALL, None), &legacy);
    }

    /// Reuse under churn: one long-lived engine, mutated topology
    /// between passes. After every mutation batch the reused engine
    /// must still match both the legacy pass and a from-scratch engine.
    #[test]
    fn reused_engine_survives_membership_churn(
        setup in arb_setup(SERVERS),
        rounds in proptest::collection::vec(
            proptest::collection::vec(arb_churn(), 0..4), 1..4),
    ) {
        let mut topo = topo();
        let mut engine = TrafficEngine::new();
        for round in &rounds {
            for op in round {
                match *op {
                    Churn::Fail(s) => { topo.fail_server(ServerId::new(s)).unwrap(); }
                    Churn::Recover(s) => { topo.recover_server(ServerId::new(s)).unwrap(); }
                    Churn::Join(dc) => {
                        topo.add_server(
                            DatacenterId::new(dc), RoomId::new(0), RackId::new(0), 1.0,
                        ).unwrap();
                    }
                }
            }
            // The view must span however many servers the churn left us.
            let servers = topo.server_count() as u32;
            let (load, view) = build(&setup, servers);
            let legacy = compute_traffic(&topo, &load, &view);
            let reused = engine.account_active(&topo, &load, &view, &ALL, None);
            prop_assert_eq!(reused, &legacy, "reused engine diverged from legacy pass");
            let mut fresh = TrafficEngine::new();
            prop_assert_eq!(fresh.account_active(&topo, &load, &view, &ALL, None), &legacy,
                "fresh engine diverged from legacy pass");
        }
    }
}
