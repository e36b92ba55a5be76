//! The RFH epoch loop (eqs. 4–26), shared by the offline simulator and
//! the live controller.
//!
//! One [`EpochKernel`] owns all placement state: topology, ring,
//! replica manager, traffic engine and smoother, the placement view,
//! the policy, the fault injector, the auditor, the repair queue and
//! the transfer planner. Each epoch runs in three calls:
//!
//! 1. [`inject_faults`](EpochKernel::inject_faults): drive the fault
//!    plan, update ring membership, prune replicas on dead servers;
//! 2. [`open_epoch`](EpochKernel::open_epoch): retry archive restores
//!    for pinned partitions and open the manager's bandwidth budget;
//! 3. [`step`](EpochKernel::step): assemble the epoch's active set,
//!    account its query matrix, smooth it, let the policy decide,
//!    execute the decisions (deferred repairs first, through the planner
//!    when it is on), and audit.
//!
//! The caller may act between the calls: the simulator applies its
//! scheduled cluster events after 1, the controller gauges availability
//! after 2 and drains its live counters before 3.
//!
//! Everything that touches the world outside the placement state goes
//! through an [`Executor`]. The simulator passes [`PlacementOnly`];
//! the live controller passes one that copies partition data and
//! republishes routes. Executors are generic parameters, so the
//! placement-only path compiles to the plain manager calls.
//!
//! ## The active set
//!
//! Every stage after the render works on one sorted list of partitions:
//! those with queries this epoch, those whose placement changed, and
//! those carried over from last epoch that the policy cannot yet prove
//! inert ([`rfh_core::ReplicationPolicy::keeps_live`]). Everything else
//! is skipped, so an epoch over a million partitions costs only its hot
//! set. Skipping is exact, not approximate: a policy whose `keeps_live`
//! is always `true` keeps every partition active, and the differential
//! tests check runs against that full-sweep reference byte for byte.

use crate::metrics::{epoch_load_imbalance, mean_utilization, EpochSnapshot};
use crate::planner::{link_between, LinkKey, MoveClass, MoveReq, PlannerConfig, TransferPlanner};
use crate::repair::{destination_unreachable, PendingRepair, RepairQueue};
use rfh_core::{
    server_blocking_probabilities, Action, AppliedAction, EpochContext, OwnerOrientedPolicy,
    PlacementMode, PolicyKind, RandomPolicy, ReplicaManager, ReplicationPolicy,
    RequestOrientedPolicy, RfhPolicy,
};
use rfh_faults::{EpochFaultReport, FaultInjector, FaultPlan, InvariantAuditor};
use rfh_obs::{
    NullRecorder, Profiler, Recorder, PHASE_APPLY, PHASE_DECIDE, PHASE_METRICS, PHASE_SPARSE,
    PHASE_TRAFFIC,
};
use rfh_pool::WorkerPool;
use rfh_ring::ConsistentHashRing;
use rfh_stats::min_replica_count;
use rfh_topology::Topology;
use rfh_traffic::{PlacementView, TrafficEngine, TrafficSmoother};
use rfh_types::{Epoch, PartitionId, Result, ServerId, SimConfig};
use rfh_workload::QueryLoad;
use std::sync::Arc;

/// Tokens per server on the placement ring.
const RING_TOKENS: u32 = 64;

/// How the kernel's placement changes reach the world outside it.
///
/// Every hook has a default that does nothing beyond the placement
/// state, which is all the simulator needs ([`PlacementOnly`]). A live
/// runtime overrides them to move data and republish routes.
pub trait Executor {
    /// Apply one admitted action to the replica map. An override must
    /// apply it through `manager` exactly as the default does and may
    /// only add side effects around it; an `Err` means the manager
    /// rejected the action.
    fn apply(
        &mut self,
        manager: &mut ReplicaManager,
        topo: &Topology,
        action: Action,
        recorder: &dyn Recorder,
        policy: &'static str,
    ) -> Result<AppliedAction> {
        manager.apply_recorded(topo, action, recorder, policy)
    }

    /// What the fault plan did this epoch: servers killed, recovered
    /// or restarted. Called every epoch a plan is active, after the
    /// ring update and before the dead servers' replicas are pruned.
    fn faults(&mut self, _report: &EpochFaultReport) {}

    /// Partition `p` lost every replica and was restored from the
    /// archive onto `manager.replicas(p)[0]`.
    fn restored(&mut self, _manager: &ReplicaManager, _p: PartitionId) {}

    /// `p`'s replica set changed without a transfer (a pinned server
    /// came back with its disk).
    fn republish(&mut self, _manager: &ReplicaManager, _p: PartitionId) {}

    /// Any partition's replica set may have changed (a prune sweep).
    fn republish_all(&mut self, _manager: &ReplicaManager) {}
}

/// The simulator's executor: placement changes only, no data plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementOnly;

impl Executor for PlacementOnly {}

/// Partition counts below the availability floor at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Availability {
    /// Partitions with no live replica.
    pub unavailable: u64,
    /// Partitions with fewer than `r_min` live replicas (unavailable
    /// ones included).
    pub sub_rmin: u64,
}

/// The shared RFH epoch loop. See the module docs.
pub struct EpochKernel {
    cfg: SimConfig,
    pub(crate) topo: Topology,
    pub(crate) ring: ConsistentHashRing,
    pub(crate) manager: ReplicaManager,
    smoother: TrafficSmoother,
    policy: Box<dyn ReplicationPolicy + Send>,
    /// Reused traffic engine: route table and membership caches persist
    /// across epochs, refreshed only when the topology generation moves.
    engine: TrafficEngine,
    /// The placement view the traffic pass reads, maintained in place
    /// from replica-map deltas instead of rebuilt every epoch.
    view: PlacementView,
    /// Partitions whose replica set changed since the last render.
    dirty_parts: Vec<PartitionId>,
    /// The view's shape is invalid (first epoch, join, prune): the next
    /// step re-renders it wholesale.
    pub(crate) view_stale: bool,
    /// Chaos injector; `None` for the empty plan (the zero-cost path).
    injector: Option<FaultInjector>,
    /// Always-on safety/liveness checker (see `rfh_faults::audit`).
    pub(crate) auditor: InvariantAuditor,
    /// Deferred transfers awaiting a reachable destination.
    repair_queue: RepairQueue,
    /// Partitions whose every replica died with no live server to
    /// restore onto: pinned to their dead primary until one recovers.
    pinned: Vec<PartitionId>,
    /// Servers requested by `FailRandom`-style faults beyond the alive
    /// population (the clamp's accounting).
    pub(crate) fault_shortfall: u64,
    /// Data-loss events (partitions restored from archive) pending
    /// attribution to the next snapshot.
    pending_data_loss: usize,
    /// Archive restores completed this epoch, pending the snapshot.
    pending_repairs: usize,
    /// Shared worker pool for the traffic and decision passes; `None`
    /// when one thread was asked for (the serial path, zero overhead).
    pool: Option<Arc<WorkerPool>>,
    /// Availability floor `r_min` (it depends only on the config).
    r_min: usize,
    /// Last epoch's active set, sorted ascending — the carry half of
    /// the next active set.
    prev_active: Vec<u32>,
    /// Build buffer for the next active set (swapped with
    /// `prev_active` each epoch).
    active_scratch: Vec<u32>,
    /// Transfer-planner configuration; disabled (the default) keeps the
    /// greedy execution path byte for byte.
    planner_cfg: PlannerConfig,
    /// Per-link admission state (carried credit and lifetime counts).
    /// Untouched while the planner is disabled.
    planner: TransferPlanner,
    /// Decision-event sink; [`NullRecorder`] unless traced.
    recorder: Arc<dyn Recorder>,
    /// Per-phase epoch timer; disabled (one branch per phase) unless
    /// [`with_profiling`](Self::with_profiling) turned it on.
    pub(crate) profiler: Profiler,
    epoch: u64,
}

impl EpochKernel {
    /// Place every partition on the ring over `topo`'s alive servers
    /// and build the loop around that placement. `seed` feeds the
    /// request-oriented baseline's RNG; `threads > 1` shares one worker
    /// pool between the traffic and decision passes (results are
    /// bit-identical for any thread count).
    pub fn new(
        cfg: SimConfig,
        topo: Topology,
        policy: PolicyKind,
        seed: u64,
        faults: &FaultPlan,
        threads: usize,
    ) -> Result<Self> {
        cfg.validate()?;
        let mut ring = ConsistentHashRing::new(RING_TOKENS);
        for s in topo.servers() {
            if s.alive {
                ring.join(s.id);
            }
        }
        let holders = (0..cfg.partitions)
            .map(|p| ring.primary(PartitionId::new(p)))
            .collect::<Result<Vec<_>>>()?;
        let manager = ReplicaManager::new(&cfg, topo.server_count(), holders)?;
        let dc_count = topo.datacenters().len() as u32;
        let smoother = TrafficSmoother::new(cfg.partitions, dc_count, cfg.thresholds.alpha);
        let pool = (threads > 1).then(|| Arc::new(WorkerPool::new(threads)));
        let policy = build_policy(policy, &cfg, dc_count, seed, &ring, pool.as_ref());
        let r_min = min_replica_count(cfg.failure_rate, cfg.min_availability) as usize;
        Ok(EpochKernel {
            injector: FaultInjector::new(faults),
            auditor: InvariantAuditor::new(cfg.partitions, r_min),
            repair_queue: RepairQueue::new(),
            pinned: Vec::new(),
            fault_shortfall: 0,
            pending_data_loss: 0,
            pending_repairs: 0,
            cfg,
            topo,
            ring,
            manager,
            smoother,
            policy,
            engine: TrafficEngine::new(),
            view: PlacementView::new(0, 0, Vec::new()),
            dirty_parts: Vec::new(),
            view_stale: true,
            pool,
            r_min,
            prev_active: Vec::new(),
            active_scratch: Vec::new(),
            planner_cfg: PlannerConfig::default(),
            planner: TransferPlanner::new(),
            recorder: Arc::new(NullRecorder),
            profiler: Profiler::new(false),
            epoch: 0,
        })
    }

    /// Replace the policy with a custom (e.g. ablated) implementation.
    pub fn with_policy(mut self, policy: Box<dyn ReplicationPolicy + Send>) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a decision-event recorder (observation-only).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Enable (or disable) per-phase epoch timing, starting afresh.
    pub fn with_profiling(mut self, enabled: bool) -> Self {
        self.profiler = Profiler::new(enabled);
        self
    }

    /// Wrap the policy this kernel built — same worker pool, ring and
    /// seed — in a decorator, e.g. one that observes or overrides
    /// [`keeps_live`](ReplicationPolicy::keeps_live).
    pub(crate) fn map_policy(
        mut self,
        wrap: impl FnOnce(Box<dyn ReplicationPolicy + Send>) -> Box<dyn ReplicationPolicy + Send>,
    ) -> Self {
        self.policy = wrap(self.policy);
        self
    }

    /// Attach the per-epoch transfer planner (see [`crate::planner`]).
    pub fn with_planner(mut self, cfg: PlannerConfig) -> Self {
        self.planner_cfg = cfg;
        self
    }

    /// Grow every partition to `r_min` replicas along its ring
    /// successors, cycling the per-epoch bandwidth budget as needed —
    /// the start-up step of a cluster whose stores are still empty, so
    /// only the replica map changes.
    pub fn replicate_to_floor(&mut self) {
        let (topo, ring, manager) = (&self.topo, &self.ring, &mut self.manager);
        let partitions = (0..self.cfg.partitions).map(PartitionId::new);
        for _round in 0..self.r_min.max(1) * 4 {
            manager.begin_epoch();
            let mut progressed = false;
            for p in partitions.clone() {
                if manager.replica_count(p) >= self.r_min {
                    continue;
                }
                let target =
                    ring.successors(p, topo.server_count()).ok().into_iter().flatten().find(|&s| {
                        topo.servers()[s.index()].alive
                            && !manager.hosts(p, s)
                            && manager.can_accept(p, s)
                    });
                if let Some(target) = target {
                    if manager.apply(topo, Action::Replicate { partition: p, target }).is_ok() {
                        progressed = true;
                    }
                }
            }
            let done = partitions.clone().all(|p| manager.replica_count(p) >= self.r_min);
            if done || !progressed {
                break;
            }
        }
        manager.begin_epoch();
        self.view_stale = true;
    }

    /// Current epoch (next to be stepped).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The replica map.
    pub fn manager(&self) -> &ReplicaManager {
        &self.manager
    }

    /// The cluster.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The invariant auditor's findings so far.
    pub fn auditor(&self) -> &InvariantAuditor {
        &self.auditor
    }

    /// The deferred-transfer queue (completed and dead-letter counts).
    pub fn repair_queue(&self) -> &RepairQueue {
        &self.repair_queue
    }

    /// The transfer planner's lifetime state, when it runs.
    pub fn planner(&self) -> Option<&TransferPlanner> {
        self.planner_cfg.enabled.then_some(&self.planner)
    }

    /// The traffic engine: its [`stats`](TrafficEngine::stats) count
    /// passes, route rebuilds, and the partitions the active sets
    /// visited and skipped.
    pub fn engine(&self) -> &TrafficEngine {
        &self.engine
    }

    /// Whether a non-empty fault plan drives this run.
    pub fn faults_active(&self) -> bool {
        self.injector.is_some()
    }

    /// Drive the fault plan for this epoch: inject what is due, update
    /// ring membership, tell the executor, prune replicas on
    /// freshly-dead servers, and apply the sticky gray-failure knobs.
    ///
    /// # Errors
    /// Fails when the plan names an entity the topology lacks; the
    /// topology then keeps every fault applied before the bad one.
    pub fn inject_faults<E: Executor>(&mut self, exec: &mut E) -> Result<()> {
        let Some(injector) = self.injector.as_mut() else {
            return Ok(());
        };
        let report = injector.begin_epoch(self.epoch, &mut self.topo)?;
        if !report.failed.is_empty() || report.routes_changed || report.random_shortfall > 0 {
            self.auditor.note_fault(self.epoch);
        }
        for &id in &report.failed {
            self.ring.leave(id);
        }
        // A restart rejoins the ring like a plain recovery; only a live
        // executor gives it a meaning of its own ("replay the log").
        for &id in report.recovered.iter().chain(&report.restarted) {
            self.ring.join(id);
        }
        exec.faults(&report);
        if let Some(p) = report.message_loss {
            self.policy.set_message_loss(p);
        }
        if let Some((repl, migr)) = report.bandwidth {
            self.manager.set_bandwidth_factors(repl, migr);
        }
        self.fault_shortfall += report.random_shortfall as u64;
        // Route changes need no handling here: the topology generation
        // bump re-keys the traffic engine's caches automatically.
        if !report.failed.is_empty() {
            self.prune_dead(exec);
        }
        Ok(())
    }

    /// Drop replicas on dead servers. Partitions that lost every copy
    /// are restored onto a surviving ring successor when one exists;
    /// with no live server anywhere they stay pinned to their dead
    /// primary and are retried by [`Self::open_epoch`].
    pub(crate) fn prune_dead<E: Executor>(&mut self, exec: &mut E) {
        let (ring, topo) = (&self.ring, &self.topo);
        let outcome = self.manager.prune_dead(topo, |p| restore_target(ring, topo, p));
        self.pending_data_loss += outcome.restored_partitions.len();
        for &p in &outcome.restored_partitions {
            exec.restored(&self.manager, p);
        }
        for p in outcome.unrestored_partitions {
            if !self.pinned.contains(&p) {
                self.pinned.push(p);
            }
        }
        self.view_stale = true;
        exec.republish_all(&self.manager);
    }

    /// Retry archive restores for partitions pinned to dead servers
    /// (data loss is accounted when the restore actually lands), then
    /// open the manager's per-epoch bandwidth budget.
    pub fn open_epoch<E: Executor>(&mut self, exec: &mut E) {
        if !self.pinned.is_empty() {
            let mut still_pinned = Vec::new();
            for p in std::mem::take(&mut self.pinned) {
                // A pinned server that recovered brings its disk back
                // with it: the partition is whole again without touching
                // the archive, so no data loss and no repair to account.
                if self.manager.replicas(p).iter().any(|&s| self.topo.servers()[s.index()].alive) {
                    exec.republish(&self.manager, p);
                    self.view_stale = true;
                    continue;
                }
                match restore_target(&self.ring, &self.topo, p) {
                    Some(to) if self.manager.restore_partition(&self.topo, p, to).is_ok() => {
                        exec.restored(&self.manager, p);
                        self.pending_data_loss += 1;
                        self.pending_repairs += 1;
                        self.view_stale = true;
                    }
                    _ => still_pinned.push(p),
                }
            }
            self.pinned = still_pinned;
        }
        self.manager.begin_epoch();
    }

    /// Count partitions with no live replica and below the availability
    /// floor. O(replicas); reads the replica map, not the active set.
    pub fn availability(&self) -> Availability {
        let mut a = Availability::default();
        for p in 0..self.manager.partitions() {
            let live = self
                .manager
                .replicas(PartitionId::new(p))
                .iter()
                .filter(|&&s| self.topo.servers()[s.index()].alive)
                .count();
            a.unavailable += u64::from(live == 0);
            a.sub_rmin += u64::from(live < self.r_min);
        }
        a
    }

    /// Run the rest of the epoch over `load`: active set, traffic pass,
    /// smoothing, decisions, execution through `exec`, audit. Returns
    /// the epoch's snapshot and advances the epoch counter.
    pub fn step<E: Executor>(&mut self, load: &QueryLoad, exec: &mut E) -> EpochSnapshot {
        // Assemble the epoch's active set before the render below
        // consumes `dirty_parts` / `view_stale`. A stale view means
        // placements moved wholesale (first epoch, prune, join, restore)
        // — that epoch runs every partition, which doubles as the
        // warm-up that seeds the carry. Otherwise the set is carry ∪
        // touched ∪ dirty: carried partitions the policy cannot yet
        // prove inert, plus everything with queries or placement
        // changes this epoch.
        let sp_t0 = self.profiler.start();
        self.active_scratch.clear();
        if self.view_stale {
            self.active_scratch.extend(0..self.cfg.partitions);
        } else {
            for &pu in &self.prev_active {
                if self.policy.keeps_live(
                    &self.topo,
                    &self.smoother,
                    &self.manager,
                    self.r_min,
                    PartitionId::new(pu),
                ) {
                    self.active_scratch.push(pu);
                }
            }
            self.active_scratch.extend_from_slice(load.touched());
            self.active_scratch.extend(self.dirty_parts.iter().map(|p| p.0));
            self.active_scratch.sort_unstable();
            self.active_scratch.dedup();
        }
        std::mem::swap(&mut self.prev_active, &mut self.active_scratch);
        let active = &self.prev_active;
        self.profiler.stop(PHASE_SPARSE, sp_t0);

        let tr_t0 = self.profiler.start();
        let cfg = &self.cfg;
        if self.view_stale {
            self.manager.render_view(&self.topo, cfg.replica_capacity_mean, &mut self.view);
            self.view_stale = false;
        } else {
            for &p in &self.dirty_parts {
                self.manager.render_partition(
                    &self.topo,
                    cfg.replica_capacity_mean,
                    p,
                    &mut self.view,
                );
            }
        }
        self.dirty_parts.clear();
        let accounts =
            self.engine.account_active(&self.topo, load, &self.view, active, self.pool.as_deref());
        self.smoother.update_active(load, accounts, active);
        let blocking =
            server_blocking_probabilities(&self.topo, accounts, cfg.replica_capacity_mean);
        self.profiler.stop(PHASE_TRAFFIC, tr_t0);

        let de_t0 = self.profiler.start();
        let ctx = EpochContext {
            epoch: Epoch(self.epoch),
            topo: &self.topo,
            load,
            accounts,
            smoother: &self.smoother,
            blocking: &blocking,
            view: &self.view,
            config: cfg,
            recorder: &*self.recorder,
            active,
        };
        let actions = self.policy.decide(&ctx, &self.manager);
        self.profiler.stop(PHASE_DECIDE, de_t0);

        let me_t0 = self.profiler.start();
        let mut snap = EpochSnapshot {
            utilization: mean_utilization(&self.view, accounts, active),
            load_imbalance: epoch_load_imbalance(&self.topo, accounts),
            path_length: accounts.mean_path_length(),
            served: accounts.served_total(),
            unserved: accounts.unserved_total(),
            alive_servers: self.topo.alive_server_count(),
            latency_ms: accounts.mean_latency_ms(),
            sla_fraction: accounts.sla_fraction(),
            data_loss: std::mem::take(&mut self.pending_data_loss),
            ..Default::default()
        };
        self.profiler.stop(PHASE_METRICS, me_t0);

        let ap_t0 = self.profiler.start();
        self.apply_actions(actions, &mut snap, exec);
        self.profiler.stop(PHASE_APPLY, ap_t0);

        let me_t1 = self.profiler.start();
        snap.replicas_total = self.manager.total_replicas();
        let manager = &self.manager;
        let pinned = &self.pinned;
        // Audit the active set plus the auditor's own watch list of
        // armed / dead-replica partitions; the violation stream equals a
        // full sweep's because only actions can change a partition's
        // audit state, actions land on active partitions, and deferred
        // repairs either hit watched partitions or leave the audit
        // outcome unchanged.
        snap.invariant_violations = self.auditor.audit_subset(
            self.epoch,
            &self.topo,
            &self.prev_active,
            |p, buf| buf.extend_from_slice(manager.replicas(p)),
            |p| pinned.contains(&p),
        ) as usize;
        self.profiler.stop(PHASE_METRICS, me_t1);
        self.recorder.end_epoch(self.policy.name(), self.epoch);
        self.epoch += 1;
        snap
    }

    /// Execute the decisions the policy made against the frozen
    /// placement view. Deferred repairs go first (admitted in an
    /// earlier epoch, they compete for this epoch's bandwidth ahead of
    /// new decisions), then this epoch's actions in decision order.
    /// All placement mutation for the epoch happens here, on the
    /// coordinating thread.
    fn apply_actions<E: Executor>(
        &mut self,
        actions: Vec<Action>,
        snap: &mut EpochSnapshot,
        exec: &mut E,
    ) {
        snap.repairs = std::mem::take(&mut self.pending_repairs);
        let due = self.repair_queue.take_due(self.epoch);
        if !self.planner_cfg.enabled {
            for item in due {
                self.execute_repair(item, snap, exec);
            }
            for action in actions {
                self.execute_fresh(action, snap, exec);
            }
            return;
        }
        // Planner path. Moves are offered in the greedy execution order
        // (deferred lane first, then this epoch's decisions); priority
        // only decides *which* moves win a contended budget, and
        // admitted moves execute in their offered order — so with an
        // unlimited budget this path is byte-identical to the greedy
        // one above.
        let size = self.cfg.partition_size.0;
        let mut moves: Vec<MoveReq<(Action, bool, u32)>> =
            Vec::with_capacity(due.len() + actions.len());
        for item in &due {
            moves.push(MoveReq {
                tag: (item.action, true, item.attempts),
                link: self.wan_link(&item.action),
                bytes: size,
                class: MoveClass::Deferred { age: item.attempts },
            });
        }
        for &action in &actions {
            let class = match action {
                Action::Replicate { partition, .. }
                    if self.manager.replica_count(partition) < self.r_min =>
                {
                    MoveClass::UnderReplicated
                }
                _ => MoveClass::Normal,
            };
            moves.push(MoveReq {
                tag: (action, false, 0),
                link: self.wan_link(&action),
                bytes: size,
                class,
            });
        }
        // Per-link budget: the configured cap scaled by the live WAN
        // bandwidth-cut factors, so a `bandwidth` fault verb throttles
        // planned transfers exactly as it throttles the per-server caps.
        let (repl_f, migr_f) = self.manager.bandwidth_factors();
        let budget = match self.planner_cfg.link_budget_bytes {
            None => u64::MAX,
            Some(b) => (b as f64 * repl_f.min(migr_f)) as u64,
        };
        let outcome = self.planner.plan(moves, |_| budget);
        for (action, is_repair, attempts) in outcome.admitted {
            if is_repair {
                let item = PendingRepair { action, attempts, due: self.epoch };
                self.execute_repair(item, snap, exec);
            } else {
                self.execute_fresh(action, snap, exec);
            }
        }
        for (action, _, attempts) in outcome.deferred {
            self.recorder.outcome(self.policy.name(), action.partition().0, false, 0.0);
            // A budget deferral is not a failed attempt (the destination
            // is fine), so the planner lane retries next epoch without
            // backoff; `attempts` keeps growing as the aging priority.
            self.repair_queue.defer_next(action, attempts + 1, self.epoch);
        }
    }

    /// The WAN link an action's transfer crosses, as a planner
    /// [`LinkKey`]. `None` — always admitted, zero bytes — for suicides
    /// and intra-datacenter transfers: the planner budgets the WAN, not
    /// the in-datacenter fabric.
    fn wan_link(&self, action: &Action) -> Option<LinkKey> {
        let dc = |s: ServerId| self.topo.servers()[s.index()].datacenter;
        let (src, dst) = match *action {
            Action::Replicate { partition, target } => {
                (dc(self.manager.holder(partition)), dc(target))
            }
            Action::Migrate { from, to, .. } => (dc(from), dc(to)),
            Action::Suicide { .. } => return None,
        };
        (src != dst).then(|| link_between(src, dst))
    }

    /// Execute one deferred-lane item: re-defer with backoff while the
    /// destination is unreachable, otherwise apply and account it.
    fn execute_repair<E: Executor>(
        &mut self,
        item: PendingRepair,
        snap: &mut EpochSnapshot,
        exec: &mut E,
    ) {
        if destination_unreachable(&self.topo, &self.manager, &item.action) {
            if !self.repair_queue.defer(item.action, item.attempts + 1, self.epoch) {
                snap.dead_letters += 1;
            }
            return;
        }
        // An unapplicable retry (partition re-replicated elsewhere
        // meanwhile, target filled up) is moot, not a failure: the
        // policy re-decides every epoch.
        if self.execute(item.action, snap, exec) {
            self.repair_queue.note_completed();
            snap.repairs += 1;
        }
    }

    /// Execute one of this epoch's fresh decisions.
    fn execute_fresh<E: Executor>(
        &mut self,
        action: Action,
        snap: &mut EpochSnapshot,
        exec: &mut E,
    ) {
        // Under WAN faults a transfer whose destination is dead or
        // unreachable is deferred and retried with backoff instead
        // of silently counting as done. The check only runs when a
        // fault plan is active: scripted-event runs keep their
        // historical behaviour bit for bit.
        if self.injector.is_some() && destination_unreachable(&self.topo, &self.manager, &action) {
            self.recorder.outcome(self.policy.name(), action.partition().0, false, 0.0);
            if !self.repair_queue.defer(action, 0, self.epoch) {
                snap.dead_letters += 1;
            }
            return;
        }
        // A rejected action (bandwidth exhausted, target filled up by
        // an earlier action this epoch) is simply not executed —
        // the decision is retried naturally in later epochs.
        self.execute(action, snap, exec);
    }

    /// Apply one action through the executor and account it. Returns
    /// whether the manager accepted it.
    fn execute<E: Executor>(
        &mut self,
        action: Action,
        snap: &mut EpochSnapshot,
        exec: &mut E,
    ) -> bool {
        // The recorder matches outcomes by the label the policy stamps
        // into its events — ask the policy itself, so custom (ablated)
        // policies stay correctly attributed too.
        let label = self.policy.name();
        let Ok(applied) = exec.apply(&mut self.manager, &self.topo, action, &*self.recorder, label)
        else {
            return false;
        };
        match action {
            Action::Replicate { .. } => {
                snap.replications += 1;
                snap.replication_cost += applied.cost;
            }
            Action::Migrate { .. } => {
                snap.migrations += 1;
                snap.migration_cost += applied.cost;
            }
            Action::Suicide { .. } => snap.suicides += 1,
        }
        self.dirty_parts.push(action.partition());
        true
    }
}

/// Where a partition that lost every replica is restored: its first
/// live ring successor, else any live server.
fn restore_target(ring: &ConsistentHashRing, topo: &Topology, p: PartitionId) -> Option<ServerId> {
    ring.successors(p, topo.server_count())
        .ok()
        .into_iter()
        .flatten()
        .find(|&s| topo.servers()[s.index()].alive)
        .or_else(|| topo.servers().iter().find(|s| s.alive).map(|s| s.id))
}

/// The policy a [`PolicyKind`] names, sharing `pool` for its decision
/// pass where the policy has one.
fn build_policy(
    kind: PolicyKind,
    cfg: &SimConfig,
    dc_count: u32,
    seed: u64,
    ring: &ConsistentHashRing,
    pool: Option<&Arc<WorkerPool>>,
) -> Box<dyn ReplicationPolicy + Send> {
    let rfh = |placement| -> Box<dyn ReplicationPolicy + Send> {
        let p = RfhPolicy::new().with_placement(placement);
        Box::new(match pool {
            Some(pool) => p.with_pool(Arc::clone(pool)),
            None => p,
        })
    };
    match kind {
        PolicyKind::Rfh => rfh(PlacementMode::Traffic),
        PolicyKind::DomainSpread => rfh(PlacementMode::DomainSpread),
        PolicyKind::Random => Box::new(RandomPolicy::new(ring.clone())),
        PolicyKind::OwnerOriented => Box::new(OwnerOrientedPolicy::new()),
        PolicyKind::RequestOriented => Box::new(RequestOrientedPolicy::new(
            cfg.partitions,
            dc_count,
            seed ^ 0x5245_5155, // "REQU"
        )),
    }
}
