//! The online RFH control loop.
//!
//! One thread owns the control plane: an [`EpochKernel`] — the same
//! epoch loop the offline simulator runs — plus a [`LiveExecutor`] that
//! carries the kernel's placement changes onto the data plane. Every
//! `control_interval_ms` it runs one *tick*, which is one kernel epoch
//! on live counters:
//!
//! 1. drive the fault plan: the kernel updates the topology and ring
//!    and prunes dead replicas; the executor flips the data plane's
//!    alive flags, replays restarted nodes' logs, copies archive
//!    restores and republishes routes;
//! 2. retry archive restores for pinned partitions;
//! 3. gauge availability for the timeline (telemetry on only);
//! 4. atomically drain the live `q_ijt` counters into a `QueryLoad`;
//! 5. run the kernel's epoch over it — traffic pass, EWMA smoothing,
//!    Erlang-B blocking, the policy's decisions, deferred repairs and
//!    the transfer planner, audit — with every admitted action executed
//!    as route epoch odd → manager apply → data copy → route publish;
//! 6. record the tick sample and republish the registry.
//!
//! The loop is paced by wall-clock, so a live run is *not*
//! bit-deterministic — how many requests land in each tick depends on
//! scheduling. Everything downstream of the drained matrix is the
//! kernel the simulator runs; the differential test below feeds both
//! the same recorded trace and checks they decide alike.

use crate::cluster::Shared;
use crate::config::ClusterConfig;
use crate::store::Versioned;
use crate::telemetry::TickSample;
use crate::wal::StorageSnapshot;
use rfh_core::{Action, AppliedAction, PlacementMode, PolicyKind, ReplicaManager};
use rfh_faults::{EpochFaultReport, FaultPlan};
use rfh_obs::{MetricsRegistry, Recorder};
use rfh_sim::{Availability, EpochKernel, Executor};
use rfh_stats::Histogram;
use rfh_topology::{scaled_paper_topology, Topology};
use rfh_types::{PartitionId, Result, ServerId};
use rfh_workload::QueryLoad;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Lifetime totals the control loop hands back at shutdown.
#[derive(Debug)]
pub struct ControlStats {
    /// Ticks executed (including the final drain tick).
    pub ticks: u64,
    /// Replicate actions executed.
    pub replications: u64,
    /// Migrate actions executed.
    pub migrations: u64,
    /// Suicide actions executed.
    pub suicides: u64,
    /// Deferred transfers completed.
    pub repairs_completed: u64,
    /// Deferred transfers dropped after max retries.
    pub dead_letters: u64,
    /// Invariant-auditor findings.
    pub invariant_violations: u64,
    /// Partitions restored from the archive (all replicas lost).
    pub data_restores: u64,
    /// Kill-then-restart cycles completed (`restart_after` verb).
    pub restarts: u64,
    /// Replicas placed at shutdown.
    pub replicas_total: usize,
    /// serve.* counters plus the traffic engine's cache stats.
    pub registry: MetricsRegistry,
}

/// Lifetime counter values as of the last recorded tick sample, used
/// to turn monotone totals into per-tick deltas.
#[derive(Debug, Default, Clone, Copy)]
struct TickCounters {
    ops: u64,
    forwards: u64,
    acks_ok: u64,
    acks_unavailable: u64,
    replications: u64,
    migrations: u64,
    suicides: u64,
    repairs_completed: u64,
    violations: u64,
}

/// The cluster's initial control state: the scaled paper topology,
/// ring placement, and every partition floor-replicated to `r_min`
/// copies (so a single-server kill never strands a partition). Rejects
/// a fault plan that names an entity the topology lacks.
pub(crate) fn control_kernel(config: &ClusterConfig, faults: &FaultPlan) -> Result<EpochKernel> {
    let topo = scaled_paper_topology(config.servers_per_rack, config.capacity_spread, config.seed)?;
    faults.check_topology(&topo)?;
    let policy = match config.placement {
        PlacementMode::Traffic => PolicyKind::Rfh,
        PlacementMode::DomainSpread => PolicyKind::DomainSpread,
    };
    let threads = config.threads as usize;
    let mut kernel =
        EpochKernel::new(config.sim_config(), topo, policy, config.seed, faults, threads)?
            .with_planner(config.planner());
    kernel.replicate_to_floor();
    Ok(kernel)
}

pub(crate) struct Controller {
    kernel: EpochKernel,
    exec: LiveExecutor,
    /// Reused buffer the live counters drain into each tick.
    load: QueryLoad,
    /// Counter snapshot at the previous tick sample.
    prev_counters: TickCounters,
    /// Reused buffer for the per-tick server-side latency histogram.
    tick_hist: Histogram,
    replications: u64,
    migrations: u64,
    suicides: u64,
}

impl Controller {
    pub fn new(shared: Arc<Shared>, kernel: EpochKernel) -> Self {
        Controller {
            load: QueryLoad::zeros(shared.partitions, shared.load.datacenters()),
            exec: LiveExecutor { shared, tick_events: Vec::new(), data_restores: 0, restarts: 0 },
            kernel,
            prev_counters: TickCounters::default(),
            tick_hist: Histogram::latency(),
            replications: 0,
            migrations: 0,
            suicides: 0,
        }
    }

    /// Run ticks until shutdown; always executes one final tick after
    /// the flag flips so the last interval's counters are drained and
    /// audited. A kernel error stops the loop and is returned.
    pub fn run(mut self, interval: Duration) -> Result<ControlStats> {
        let shared = Arc::clone(&self.exec.shared);
        let shutdown = || shared.shutdown.load(Ordering::Acquire);
        loop {
            let last = shutdown();
            self.step()?;
            if last {
                break;
            }
            let mut slept = Duration::ZERO;
            while slept < interval && !shutdown() {
                let nap = (interval - slept).min(Duration::from_millis(10));
                std::thread::sleep(nap);
                slept += nap;
            }
        }
        Ok(self.finish())
    }

    /// The control plane's registry: serve.* lifetime totals, the
    /// data-plane request counters, and the traffic engine's pass
    /// counters (the active-set sizes among them). Built fresh from
    /// totals every call, so republishing per tick (and re-scraping) is
    /// idempotent.
    fn build_registry(&self) -> MetricsRegistry {
        let k = &self.kernel;
        let stats = k.engine().stats();
        let mut registry = MetricsRegistry::new();
        registry.counter_total("serve.control.ticks", k.epoch());
        registry.counter_total("serve.actions.replications", self.replications);
        registry.counter_total("serve.actions.migrations", self.migrations);
        registry.counter_total("serve.actions.suicides", self.suicides);
        registry.counter_total("serve.repairs.completed", k.repair_queue().completed());
        registry.counter_total("serve.repairs.dead_letters", k.repair_queue().dead_letters());
        registry.counter_total("serve.data_restores", self.exec.data_restores);
        registry.counter_total("serve.invariant_violations", k.auditor().total());
        // One traffic pass per tick, over the tick's active set.
        registry.counter_total("serve.sparse.dirty_partitions", stats.dirty_partitions);
        registry.counter_total("serve.sparse.skipped_partitions", stats.skipped_partitions);
        // Planner series appear only when the planner runs, so a
        // budget-less scrape is byte-identical to older builds.
        if let Some(planner) = k.planner() {
            registry.counter_total("serve.planner.admitted", planner.admitted_total());
            registry.counter_total("serve.planner.deferred", planner.deferred_total());
            registry.gauge("serve.planner.credit_bytes", planner.credit_bytes() as f64);
        }
        registry.gauge("serve.replicas_total", k.manager().total_replicas() as f64);
        let c = &self.exec.shared.counters;
        registry.counter_total("serve.requests.gets", c.gets.load(Ordering::Relaxed));
        registry.counter_total("serve.requests.puts", c.puts.load(Ordering::Relaxed));
        registry.counter_total("serve.requests.forwards", c.forwards.load(Ordering::Relaxed));
        registry.counter_total("serve.acks.ok", c.acks_ok.load(Ordering::Relaxed));
        registry.counter_total("serve.acks.not_found", c.acks_not_found.load(Ordering::Relaxed));
        registry
            .counter_total("serve.acks.unavailable", c.acks_unavailable.load(Ordering::Relaxed));
        stats.collect_metrics(&mut registry);
        // Durability series appear only when durability is in play, so
        // a persistence-off scrape is byte-identical to older builds.
        if self.exec.restarts > 0 {
            registry.counter_total("serve.restarts", self.exec.restarts);
        }
        let mut storage = StorageSnapshot::default();
        let mut durable = false;
        for s in &self.exec.shared.stores {
            if let Some(stats) = s.storage() {
                storage.add(stats.snapshot());
                durable = true;
            }
        }
        if durable {
            storage.collect_metrics(&mut registry);
        }
        registry
    }

    fn finish(self) -> ControlStats {
        let registry = self.build_registry();
        let k = &self.kernel;
        ControlStats {
            ticks: k.epoch(),
            replications: self.replications,
            migrations: self.migrations,
            suicides: self.suicides,
            repairs_completed: k.repair_queue().completed(),
            dead_letters: k.repair_queue().dead_letters(),
            invariant_violations: k.auditor().total(),
            data_restores: self.exec.data_restores,
            restarts: self.exec.restarts,
            replicas_total: k.manager().total_replicas(),
            registry,
        }
    }

    /// One control tick: one kernel epoch on live counters.
    fn step(&mut self) -> Result<()> {
        let tick = self.kernel.epoch();
        self.kernel.inject_faults(&mut self.exec)?;
        self.kernel.open_epoch(&mut self.exec);
        // Health is gauged here — after faults land, before this tick's
        // repair actions — so a kill shows up as a degraded/unavailable
        // dip on the timeline even when RFH repairs it within the tick.
        let health = self.exec.shared.telemetry.enabled().then(|| self.kernel.availability());
        self.load.clear_touched();
        self.exec.shared.load.drain_sparse_into(&mut self.load);
        let snap = self.kernel.step(&self.load, &mut self.exec);
        self.replications += snap.replications as u64;
        self.migrations += snap.migrations as u64;
        self.suicides += snap.suicides as u64;
        self.record_tick_sample(tick, health);
        Ok(())
    }

    /// Drain the per-tick server-side latency histograms, compute this
    /// tick's deltas, append one [`TickSample`] to the timeline ring
    /// (with the pre-repair health gauges), and republish the control
    /// registry for the `/metrics` endpoint. No-op when telemetry is
    /// off, so the control loop's outputs match a pre-telemetry build.
    fn record_tick_sample(&mut self, tick: u64, health: Option<Availability>) {
        let Some(health) = health else {
            return;
        };
        let shared = &self.exec.shared;
        self.tick_hist.clear();
        shared.telemetry.drain_tick(&mut self.tick_hist);

        let c = &shared.counters;
        let cur = TickCounters {
            ops: c.gets.load(Ordering::Relaxed) + c.puts.load(Ordering::Relaxed),
            forwards: c.forwards.load(Ordering::Relaxed),
            acks_ok: c.acks_ok.load(Ordering::Relaxed),
            acks_unavailable: c.acks_unavailable.load(Ordering::Relaxed),
            replications: self.replications,
            migrations: self.migrations,
            suicides: self.suicides,
            repairs_completed: self.kernel.repair_queue().completed(),
            violations: self.kernel.auditor().total(),
        };
        let prev = self.prev_counters;

        shared.telemetry.push_sample(TickSample {
            tick,
            ops: cur.ops - prev.ops,
            forwards: cur.forwards - prev.forwards,
            acks_ok: cur.acks_ok - prev.acks_ok,
            acks_unavailable: cur.acks_unavailable - prev.acks_unavailable,
            p50_us: self.tick_hist.quantile(0.5).unwrap_or(0.0),
            p99_us: self.tick_hist.quantile(0.99).unwrap_or(0.0),
            replicas_total: self.kernel.manager().total_replicas() as u64,
            degraded: health.sub_rmin - health.unavailable,
            unavailable: health.unavailable,
            replications: cur.replications - prev.replications,
            migrations: cur.migrations - prev.migrations,
            suicides: cur.suicides - prev.suicides,
            repairs: cur.repairs_completed - prev.repairs_completed,
            violations: cur.violations - prev.violations,
            events: std::mem::take(&mut self.exec.tick_events),
        });
        self.prev_counters = cur;
        shared.telemetry.publish_registry(self.build_registry());
    }
}

/// The kernel's executor on a live cluster: every placement change is
/// mirrored onto the node stores and the published routes.
struct LiveExecutor {
    shared: Arc<Shared>,
    /// Fault-plan events this tick, for the timeline (empty unless
    /// telemetry is on).
    tick_events: Vec<String>,
    /// Partitions restored from the archive.
    data_restores: u64,
    /// Kill-then-restart cycles completed.
    restarts: u64,
}

impl Executor for LiveExecutor {
    /// Route epoch odd → control-plane apply → data copy → route
    /// publish (epoch even again). A client write whose replica set may
    /// straddle the copy sees the epoch move and retries against the
    /// new route instead of acking, so no acknowledged write can miss
    /// the new replica.
    fn apply(
        &mut self,
        manager: &mut ReplicaManager,
        topo: &Topology,
        action: Action,
        recorder: &dyn Recorder,
        policy: &'static str,
    ) -> Result<AppliedAction> {
        let p = action.partition();
        let old_route = self.shared.route(p);
        self.shared.begin_route_change(p);
        let applied = match manager.apply_recorded(topo, action, recorder, policy) {
            Ok(applied) => applied,
            Err(e) => {
                // Aborted change: settle the epoch even again (spurious
                // invalidation of in-flight optimistic writes is harmless).
                self.shared.end_route_change(p);
                return Err(e);
            }
        };
        match action {
            Action::Replicate { target: to, .. } | Action::Migrate { to, .. } => {
                self.copy_partition(p, &old_route, to);
            }
            // The shard's data stays in place but unrouted; a later
            // re-replication to this node finds a warm copy and merge
            // makes that safe.
            Action::Suicide { .. } => {}
        }
        self.publish(manager, p);
        Ok(applied)
    }

    fn faults(&mut self, report: &EpochFaultReport) {
        let telemetry = self.shared.telemetry.enabled();
        for &id in &report.failed {
            self.shared.alive[id.index()].store(false, Ordering::Release);
            if telemetry {
                self.tick_events.push(format!("kill s{}", id.0));
            }
        }
        for &id in &report.recovered {
            self.shared.alive[id.index()].store(true, Ordering::Release);
            if telemetry {
                self.tick_events.push(format!("recover s{}", id.0));
            }
        }
        for &id in &report.restarted {
            // Kill-then-restart: the node comes back with empty memory
            // and replays its log before rejoining — exactly the
            // in-process analogue of SIGKILL + relaunch. A memory store
            // replays nothing; that data loss *is* its baseline
            // semantics and what the durability tests measure against.
            // A failed replay degrades to a cold rejoin rather than
            // killing the control thread; repairs re-copy its partitions.
            let replay = self.shared.stores[id.index()].restart_from_disk();
            if telemetry {
                self.tick_events.push(match replay {
                    Ok(replayed) => format!("restart s{} replayed {replayed}", id.0),
                    Err(e) => format!("restart s{} replay failed: {e}", id.0),
                });
            }
            self.shared.alive[id.index()].store(true, Ordering::Release);
            self.restarts += 1;
        }
    }

    fn restored(&mut self, manager: &ReplicaManager, p: PartitionId) {
        if let Some(&to) = manager.replicas(p).first() {
            let entries = self.archive_snapshot(p);
            self.shared.stores[to.index()].merge(&entries);
        }
        self.publish(manager, p);
        self.data_restores += 1;
    }

    fn republish(&mut self, manager: &ReplicaManager, p: PartitionId) {
        self.publish(manager, p);
    }

    fn republish_all(&mut self, manager: &ReplicaManager) {
        for p in (0..self.shared.partitions).map(PartitionId::new) {
            self.republish(manager, p);
        }
    }
}

impl LiveExecutor {
    /// Copy a full partition onto `to`: from the first live member of
    /// the pre-transfer route when one exists, else merged from every
    /// store (dead disks double as the archive).
    fn copy_partition(&self, p: PartitionId, old_route: &[ServerId], to: ServerId) {
        let source = old_route.iter().copied().find(|&s| self.shared.is_alive(s.index()));
        let entries: Vec<(u64, Versioned)> = match source {
            Some(s) => self.shared.stores[s.index()].snapshot_partition(p, self.shared.partitions),
            None => self.archive_snapshot(p),
        };
        self.shared.stores[to.index()].merge(&entries);
    }

    /// The archive stand-in: the union of every node's shard of `p`,
    /// LWW-merged. Dead nodes' stores are included — a failed server's
    /// disk outlives its process, which is what makes catastrophic
    /// restores lossless for acknowledged writes.
    fn archive_snapshot(&self, p: PartitionId) -> Vec<(u64, Versioned)> {
        let mut best: std::collections::HashMap<u64, Versioned> = std::collections::HashMap::new();
        for store in &self.shared.stores {
            for (k, v) in store.snapshot_partition(p, self.shared.partitions) {
                match best.get(&k) {
                    Some(cur) if cur.seq >= v.seq => {}
                    _ => {
                        best.insert(k, v);
                    }
                }
            }
        }
        best.into_iter().collect()
    }

    /// Republish one partition's route row from the replica map, then
    /// settle its route epoch at the next even value.
    fn publish(&self, manager: &ReplicaManager, p: PartitionId) {
        self.shared.routes.write().expect("routes lock")[p.index()] = manager.replicas(p).to_vec();
        self.shared.end_route_change(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{partition_of, NodeStore};
    use rfh_faults::FaultAction;
    use rfh_obs::BufferedRecorder;
    use rfh_sim::PlacementOnly;
    use rfh_workload::{Scenario, Trace, WorkloadGenerator};

    const TICKS: u64 = 40;

    fn jsonl(recorder: &BufferedRecorder) -> String {
        recorder.drain().iter().map(|e| e.to_json() + "\n").collect()
    }

    /// Drive a socket-free controller tick by tick with a recorded
    /// trace, and the placement-only kernel over the same trace from
    /// the same initial state: both must decide alike every tick, end
    /// on the same replica map, and the controller must have published
    /// exactly that map — with one key per partition following its
    /// replicas. Returns the controller's kernel for extra checks.
    fn differential(config: &ClusterConfig, faults: &FaultPlan) -> EpochKernel {
        let live_rec = Arc::new(BufferedRecorder::new(true));
        let ref_rec = Arc::new(BufferedRecorder::new(true));
        let kernel = control_kernel(config, faults).unwrap().with_recorder(live_rec.clone());
        let n = kernel.topology().server_count();
        let stores = (0..n).map(|_| NodeStore::new()).collect();
        let shared = Arc::new(Shared::new(&kernel, stores, Vec::new(), false));
        let mut live = Controller::new(Arc::clone(&shared), kernel);
        let mut reference = control_kernel(config, faults).unwrap().with_recorder(ref_rec.clone());

        // One key per partition, written to its initial replicas.
        let partitions = config.partitions;
        let mut keys = vec![None; partitions as usize];
        for k in 0u64.. {
            let slot = &mut keys[partition_of(k, partitions).index()];
            if slot.is_none() {
                *slot = Some(k);
                if keys.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        let keys: Vec<u64> = keys.into_iter().map(Option::unwrap).collect();
        for (p, &k) in keys.iter().enumerate() {
            for s in shared.route(PartitionId::new(p as u32)) {
                shared.stores[s.index()].put(k, 1, b"v");
            }
        }

        let cfg = config.sim_config();
        let mut gen = WorkloadGenerator::new(
            cfg.queries_per_epoch,
            partitions,
            shared.load.datacenters(),
            cfg.partition_skew,
            Scenario::RandomEven,
            TICKS,
            config.seed,
        );
        let trace = Trace::record(&mut gen, TICKS);
        let mut decisions = 0;
        for (tick, load) in trace.iter().enumerate() {
            for (p, dc, q) in load.iter_nonzero() {
                shared.load.add(p, dc, q);
            }
            live.step().unwrap();
            reference.inject_faults(&mut PlacementOnly).unwrap();
            reference.open_epoch(&mut PlacementOnly);
            reference.step(load, &mut PlacementOnly);
            let (got, want) = (jsonl(&live_rec), jsonl(&ref_rec));
            assert_eq!(got, want, "tick {tick}: decisions diverge");
            decisions += got.lines().count();
        }
        assert!(decisions > 0, "the trace must make the policy act");

        let topo = live.kernel.topology();
        for p in (0..partitions).map(PartitionId::new) {
            let replicas = live.kernel.manager().replicas(p);
            assert_eq!(replicas, reference.manager().replicas(p), "{p}: final placement");
            assert_eq!(shared.route(p), replicas, "{p}: published route");
            for &s in replicas.iter().filter(|s| topo.servers()[s.index()].alive) {
                let key = keys[p.index()];
                assert!(shared.stores[s.index()].get(key).is_some(), "{p}: data missing on {s}");
            }
        }
        for s in topo.servers() {
            assert_eq!(shared.is_alive(s.id.index()), s.alive, "{}: alive flag", s.id);
        }
        live.kernel
    }

    fn small_cluster() -> ClusterConfig {
        ClusterConfig { servers_per_rack: 1, partitions: 16, ..ClusterConfig::default() }
    }

    /// A plan that bypasses the start-up check and fails mid-run stops
    /// the control loop with the kernel's error instead of ticking on
    /// over a half-faulted topology.
    #[test]
    fn a_kernel_error_stops_the_control_loop() {
        let config = small_cluster();
        let faults = FaultPlan::default().at(0, FaultAction::FailServers(vec![ServerId::new(99)]));
        let topo = scaled_paper_topology(1, config.capacity_spread, config.seed).unwrap();
        let cfg = config.sim_config();
        let kernel = EpochKernel::new(cfg, topo, PolicyKind::Rfh, 7, &faults, 1).unwrap();
        let stores = (0..20).map(|_| NodeStore::new()).collect();
        let shared = Arc::new(Shared::new(&kernel, stores, Vec::new(), false));
        shared.shutdown.store(true, Ordering::Release);
        let err = Controller::new(shared, kernel).run(Duration::ZERO).unwrap_err();
        assert!(err.to_string().contains("unknown server id 99"), "{err}");
    }

    #[test]
    fn live_controller_decides_like_the_placement_only_kernel() {
        let kernel = differential(&small_cluster(), &FaultPlan::default());
        assert_eq!(kernel.auditor().total(), 0, "a fault-free run audits clean");
    }

    #[test]
    fn live_controller_matches_the_kernel_under_chaos_and_a_link_budget() {
        let config = ClusterConfig { link_budget_bytes: Some(524_288), ..small_cluster() };
        let faults = FaultPlan::default()
            .at(3, FaultAction::FailServers(vec![ServerId::new(5)]))
            .at(6, FaultAction::Bandwidth(0.5, 0.5));
        let kernel = differential(&config, &faults);
        assert!(!kernel.topology().servers()[5].alive, "the kill landed");
        assert!(kernel.planner().unwrap().deferred_total() > 0, "the budget must defer moves");
        assert!(kernel.repair_queue().completed() > 0, "deferred moves must complete");
    }
}
