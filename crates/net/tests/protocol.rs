//! Protocol-level integration: drive the distributed agent epoch by
//! epoch against a hand-built cluster and observe the control plane.

use rfh_core::{server_blocking_probabilities, EpochContext, ReplicaManager, ReplicationPolicy};
use rfh_net::{DistributedRfhPolicy, NetworkFaults};
use rfh_ring::ConsistentHashRing;
use rfh_topology::{paper_topology, Topology};
use rfh_traffic::{compute_traffic, TrafficSmoother};
use rfh_types::{DatacenterId, Epoch, PartitionId, SimConfig};
use rfh_workload::QueryLoad;

struct Cluster {
    cfg: SimConfig,
    topo: Topology,
    manager: ReplicaManager,
    smoother: TrafficSmoother,
    epoch: u64,
}

impl Cluster {
    fn new(partitions: u32) -> Self {
        let cfg = SimConfig { partitions, ..SimConfig::default() };
        let topo = paper_topology(0.0, 1).unwrap();
        let mut ring = ConsistentHashRing::new(32);
        for s in topo.servers() {
            ring.join(s.id);
        }
        let holders = (0..partitions).map(|p| ring.primary(PartitionId::new(p)).unwrap()).collect();
        let manager = ReplicaManager::new(&cfg, topo.server_count(), holders).unwrap();
        let smoother = TrafficSmoother::new(partitions, 10, cfg.thresholds.alpha);
        Cluster { cfg, topo, manager, smoother, epoch: 0 }
    }

    /// One epoch: given a load, run traffic + policy, apply actions.
    fn step(&mut self, policy: &mut DistributedRfhPolicy, load: QueryLoad) {
        self.manager.begin_epoch();
        let view = self.manager.placement_view(&self.topo, self.cfg.replica_capacity_mean);
        let accounts = compute_traffic(&self.topo, &load, &view);
        let active: Vec<u32> = (0..self.cfg.partitions).collect();
        self.smoother.update_active(&load, &accounts, &active);
        let blocking =
            server_blocking_probabilities(&self.topo, &accounts, self.cfg.replica_capacity_mean);
        let ctx = EpochContext {
            epoch: Epoch(self.epoch),
            topo: &self.topo,
            load: &load,
            accounts: &accounts,
            smoother: &self.smoother,
            blocking: &blocking,
            view: &view,
            config: &self.cfg,
            recorder: &rfh_obs::NullRecorder,
            active: &active,
        };
        let actions = policy.decide(&ctx, &self.manager);
        for a in actions {
            let _ = self.manager.apply(&self.topo, a);
        }
        self.epoch += 1;
    }

    fn load_from(&self, p: u32, dc: u32, n: u32) -> QueryLoad {
        let mut l = QueryLoad::zeros(self.cfg.partitions, 10);
        l.add(PartitionId::new(p), DatacenterId::new(dc), n);
        l
    }
}

#[test]
fn reports_flow_toward_holders_and_counters_track() {
    let mut cluster = Cluster::new(4);
    let mut agent = DistributedRfhPolicy::new(8);
    // Demand from DC 8 for partition 0 lights up the I→…→holder chain.
    for _ in 0..5 {
        let load = cluster.load_from(0, 8, 40);
        cluster.step(&mut agent, load);
    }
    assert!(agent.reports_sent() > 0, "traffic must generate reports");
    assert!(agent.control_hops() > 0, "reports travel real WAN hops");
    assert_eq!(
        agent.reports_in_flight(),
        0,
        "a full tick budget delivers everything within the epoch"
    );
    // The agent actually replicated toward the traffic.
    assert!(
        cluster.manager.replica_count(PartitionId::new(0)) >= 2,
        "availability floor + hub relief acted on delivered reports"
    );
}

#[test]
fn starved_budget_leaves_reports_in_flight() {
    let mut cluster = Cluster::new(4);
    let mut agent = DistributedRfhPolicy::new(1);
    // Demand from every datacenter: whatever DC holds a partition, some
    // reporter is ≥ 2 WAN hops away (the topology's degree is well below
    // 9), so with one tick per epoch reports must still be flying after
    // the step.
    let mut load = QueryLoad::zeros(4, 10);
    for p in 0..4 {
        for dc in 0..10 {
            load.add(PartitionId::new(p), DatacenterId::new(dc), 10);
        }
    }
    cluster.step(&mut agent, load);
    assert!(
        agent.reports_in_flight() > 0,
        "1 tick/epoch cannot deliver multi-hop reports immediately"
    );
}

#[test]
fn lossy_control_plane_degrades_but_still_replicates() {
    // A heavily lossy control plane (40% per-hop drop, tight TTL) must
    // not stop the agent: enough reports eventually land for the
    // availability floor to act, and losses are properly accounted as
    // drops/timeouts rather than deliveries.
    let mut cluster = Cluster::new(4);
    let mut agent = DistributedRfhPolicy::new(8);
    agent.set_network_faults(Some(NetworkFaults {
        drop_probability: 0.4,
        ttl_ticks: Some(6),
        seed: 11,
    }));
    for _ in 0..10 {
        let load = cluster.load_from(0, 8, 40);
        cluster.step(&mut agent, load);
    }
    assert!(agent.reports_sent() > 0);
    let mut reg = rfh_obs::MetricsRegistry::new();
    agent.collect_metrics(&mut reg);
    let dropped = match reg.get("net.dropped") {
        Some(rfh_obs::Metric::Counter(n)) => *n,
        other => panic!("expected drop counter, got {other:?}"),
    };
    assert!(dropped > 0, "a 40% loss rate over 10 epochs must drop reports");
    assert!(
        cluster.manager.replica_count(PartitionId::new(0)) >= 2,
        "replication must still converge under gray failure"
    );
}

#[test]
fn quiet_cluster_sends_nothing() {
    let mut cluster = Cluster::new(4);
    let mut agent = DistributedRfhPolicy::new(8);
    let quiet = QueryLoad::zeros(4, 10);
    cluster.step(&mut agent, quiet);
    assert_eq!(agent.reports_sent(), 0, "no traffic, nothing to piggyback on");
}

#[test]
fn report_volume_scales_with_active_datacenters() {
    let mut cluster = Cluster::new(4);
    let mut agent = DistributedRfhPolicy::new(8);
    // One requester DC: only the DCs on that one path carry traffic.
    let load = cluster.load_from(0, 8, 40);
    cluster.step(&mut agent, load);
    let narrow = agent.reports_sent();
    // All ten DCs request all four partitions: far more reporters.
    let mut broad_cluster = Cluster::new(4);
    let mut broad_agent = DistributedRfhPolicy::new(8);
    let mut load = QueryLoad::zeros(4, 10);
    for p in 0..4 {
        for dc in 0..10 {
            load.add(PartitionId::new(p), DatacenterId::new(dc), 10);
        }
    }
    broad_cluster.step(&mut broad_agent, load);
    assert!(
        broad_agent.reports_sent() > narrow * 3,
        "broad demand must multiply control traffic: {} vs {narrow}",
        broad_agent.reports_sent()
    );
}
