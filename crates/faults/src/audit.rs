//! Per-epoch safety and liveness auditing.
//!
//! The epoch kernel drives [`InvariantAuditor::audit_subset`] once per
//! epoch over its active set, after faults were injected, dead replicas
//! pruned, and the policy's actions applied. The auditor checks the
//! paper's implicit contract:
//!
//! **Safety**
//! * No replica sits on a dead server — except partitions the caller
//!   has explicitly pinned (every copy lost, awaiting restore).
//! * No armed partition drops below the availability floor `r_min`
//!   without a fault recorded ([`InvariantAuditor::note_fault`])
//!   within the cause window.
//!
//! **Liveness**
//! * An under-replicated partition reconverges to `r_min` within the
//!   repair window, counted from the later of the dip and the most
//!   recent fault — ongoing chaos keeps extending the deadline, but
//!   once the cluster quiets down the policy must actually heal.
//!
//! "Armed" means the partition reached `r_min` at least once: initial
//! placement starts every partition at one replica and the floor grows
//! it, so the warm-up ramp is not a violation.
//!
//! Violations are recorded (bounded) and counted; the simulation
//! surfaces the count as a metric series and tests assert it stays
//! zero on healthy runs.

use rfh_topology::Topology;
use rfh_types::{PartitionId, ServerId};

/// What kind of invariant broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A replica sits on a dead server outside the pinned set: the
    /// prune path missed it.
    ReplicaOnDeadServer,
    /// An armed partition dropped below `r_min` with no fault recorded
    /// within the cause window: the policy destroyed availability.
    UnderReplicatedNoCause,
    /// An armed partition stayed below `r_min` past the repair window:
    /// recovery is stuck.
    StuckUnderReplicated,
}

impl ViolationKind {
    /// Stable short name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::ReplicaOnDeadServer => "replica_on_dead_server",
            ViolationKind::UnderReplicatedNoCause => "under_replicated_no_cause",
            ViolationKind::StuckUnderReplicated => "stuck_under_replicated",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Epoch the violation was detected.
    pub epoch: u64,
    /// The partition it concerns.
    pub partition: PartitionId,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics (counts, server ids).
    pub detail: String,
}

/// Bound on the stored [`Violation`] list; the total count keeps
/// incrementing past it.
const MAX_STORED: usize = 128;

/// The per-epoch invariant checker. See the module docs for the
/// properties it enforces.
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    r_min: usize,
    /// Epochs a fresh dip may look back for a fault cause.
    cause_window: u64,
    /// Epochs an armed partition may stay under `r_min` after the
    /// later of its dip and the last fault.
    repair_window: u64,
    last_fault: Option<u64>,
    armed: Vec<bool>,
    under_since: Vec<Option<u64>>,
    stuck_reported: Vec<bool>,
    violations: Vec<Violation>,
    total: u64,
    scratch: Vec<ServerId>,
    /// Partitions the incremental audit must keep revisiting even when
    /// nothing dirties them (sorted ascending): currently
    /// under-replicated (their repair clock ticks every epoch) or still
    /// hosting replicas on dead servers (a recurring safety violation,
    /// or a pinned set awaiting restore). Rebuilt by every audit pass.
    watch: Vec<u32>,
    /// Recycled buffer for rebuilding [`Self::watch`] without
    /// per-epoch allocation.
    watch_spare: Vec<u32>,
}

impl InvariantAuditor {
    /// Auditor for `partitions` partitions with availability floor
    /// `r_min`, using the default windows (cause 2, repair 30 epochs).
    pub fn new(partitions: u32, r_min: usize) -> Self {
        Self::with_windows(partitions, r_min, 2, 30)
    }

    /// Auditor with explicit cause / repair windows (in epochs).
    pub fn with_windows(partitions: u32, r_min: usize, cause: u64, repair: u64) -> Self {
        InvariantAuditor {
            r_min,
            cause_window: cause,
            repair_window: repair,
            last_fault: None,
            armed: vec![false; partitions as usize],
            under_since: vec![None; partitions as usize],
            stuck_reported: vec![false; partitions as usize],
            violations: Vec::new(),
            total: 0,
            scratch: Vec::new(),
            watch: Vec::new(),
            watch_spare: Vec::new(),
        }
    }

    /// Record that a fault hit the cluster at `epoch`: injected
    /// failures, link cuts, or scripted workload events. Excuses
    /// under-replication dips near this epoch and restarts the repair
    /// clock.
    pub fn note_fault(&mut self, epoch: u64) {
        self.last_fault = Some(epoch);
    }

    /// The reference audit: every partition, every epoch. The unit
    /// tests check [`audit_subset`](Self::audit_subset) against it.
    #[cfg(test)]
    fn audit(
        &mut self,
        epoch: u64,
        topo: &Topology,
        mut fill_replicas: impl FnMut(PartitionId, &mut Vec<ServerId>),
        pinned: impl Fn(PartitionId) -> bool,
    ) -> u64 {
        let before = self.total;
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut watch = std::mem::take(&mut self.watch_spare);
        watch.clear();
        for idx in 0..self.armed.len() {
            let p = PartitionId::new(idx as u32);
            scratch.clear();
            fill_replicas(p, &mut scratch);
            let pin = pinned(p);
            if self.audit_one(epoch, topo, p, &scratch, pin) {
                watch.push(idx as u32);
            }
        }
        self.scratch = scratch;
        self.watch_spare = std::mem::replace(&mut self.watch, watch);
        self.total - before
    }

    /// Run the end-of-epoch audit over `parts` (sorted ascending,
    /// deduped) plus the auditor's internal watch list — partitions
    /// whose state can only evolve while they are being watched (a
    /// ticking repair clock, replicas still parked on dead servers).
    /// `fill_replicas` writes partition `p`'s replica set into the
    /// provided buffer (called once per audited partition, buffer
    /// pre-cleared); `pinned` marks partitions whose every copy is lost
    /// and which legitimately sit on dead servers awaiting restore.
    /// Returns the number of new violations.
    ///
    /// Provided every epoch's `parts` contains every partition whose
    /// replica set or liveness changed that epoch (the kernel's active
    /// set does), the violations recorded — kinds, epochs, order,
    /// running total — are identical to auditing every partition each
    /// epoch: all other partitions are either unarmed and untouched, or
    /// healthy at `r_min`+ with every replica alive, and a full sweep is
    /// a no-op on them.
    pub fn audit_subset(
        &mut self,
        epoch: u64,
        topo: &Topology,
        parts: &[u32],
        mut fill_replicas: impl FnMut(PartitionId, &mut Vec<ServerId>),
        pinned: impl Fn(PartitionId) -> bool,
    ) -> u64 {
        debug_assert!(parts.windows(2).all(|w| w[0] < w[1]), "parts must be sorted ascending");
        let before = self.total;
        let mut scratch = std::mem::take(&mut self.scratch);
        let old_watch = std::mem::take(&mut self.watch);
        let mut new_watch = std::mem::take(&mut self.watch_spare);
        new_watch.clear();
        // Merge-walk parts ∪ watch ascending so violations come out in
        // the same partition order as a full sweep's.
        let (mut i, mut j) = (0, 0);
        while i < parts.len() || j < old_watch.len() {
            let next = match (parts.get(i), old_watch.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                    a
                }
                (Some(&a), Some(&b)) if a < b => {
                    i += 1;
                    a
                }
                (_, Some(&b)) => {
                    j += 1;
                    b
                }
                (Some(&a), None) => {
                    i += 1;
                    a
                }
                (None, None) => unreachable!(),
            };
            let p = PartitionId::new(next);
            scratch.clear();
            fill_replicas(p, &mut scratch);
            let pin = pinned(p);
            if self.audit_one(epoch, topo, p, &scratch, pin) {
                new_watch.push(next);
            }
        }
        self.scratch = scratch;
        self.watch_spare = old_watch;
        self.watch = new_watch;
        self.total - before
    }

    /// Audit one partition; returns whether it must stay on the watch
    /// list (see [`Self::watch`]).
    fn audit_one(
        &mut self,
        epoch: u64,
        topo: &Topology,
        p: PartitionId,
        replicas: &[ServerId],
        pinned: bool,
    ) -> bool {
        let idx = p.index();
        let alive = replicas.iter().filter(|s| topo.servers()[s.index()].alive).count();
        let dead = replicas.len() - alive;
        if dead > 0 && !pinned {
            self.push(Violation {
                epoch,
                partition: p,
                kind: ViolationKind::ReplicaOnDeadServer,
                detail: format!("{dead} of {} replicas on dead servers", replicas.len()),
            });
        }
        if alive >= self.r_min {
            self.armed[idx] = true;
            self.under_since[idx] = None;
            self.stuck_reported[idx] = false;
            return dead > 0;
        }
        if !self.armed[idx] {
            return dead > 0; // still on the warm-up ramp
        }
        let caused =
            |at: u64| self.last_fault.is_some_and(|f| at.saturating_sub(f) <= self.cause_window);
        match self.under_since[idx] {
            None => {
                self.under_since[idx] = Some(epoch);
                if !caused(epoch) {
                    self.push(Violation {
                        epoch,
                        partition: p,
                        kind: ViolationKind::UnderReplicatedNoCause,
                        detail: format!("{alive} < r_min {} with no fault", self.r_min),
                    });
                }
            }
            Some(since) => {
                let clock_start = self.last_fault.map_or(since, |f| f.max(since));
                if epoch > clock_start + self.repair_window && !self.stuck_reported[idx] {
                    self.stuck_reported[idx] = true;
                    self.push(Violation {
                        epoch,
                        partition: p,
                        kind: ViolationKind::StuckUnderReplicated,
                        detail: format!(
                            "{alive} < r_min {} for {} epochs",
                            self.r_min,
                            epoch - since
                        ),
                    });
                }
            }
        }
        true
    }

    /// Total violations detected over the whole run.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The recorded violations (first [`MAX_STORED`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn push(&mut self, v: Violation) {
        self.total += 1;
        if self.violations.len() < MAX_STORED {
            self.violations.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint};

    /// One DC, four servers.
    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        b.datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 4)
            .unwrap();
        b.build(0.0, 0).unwrap()
    }

    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    /// Audit every partition of `sets` through the production entry.
    fn audit_sets(
        a: &mut InvariantAuditor,
        epoch: u64,
        topo: &Topology,
        sets: &[&[ServerId]],
    ) -> u64 {
        let all: Vec<u32> = (0..sets.len() as u32).collect();
        a.audit_subset(
            epoch,
            topo,
            &all,
            |p, buf| buf.extend_from_slice(sets[p.index()]),
            |_| false,
        )
    }

    #[test]
    fn healthy_run_is_silent() {
        let t = topo();
        let mut a = InvariantAuditor::new(1, 2);
        assert_eq!(audit_sets(&mut a, 0, &t, &[&[s(0)]]), 0, "warm-up ramp");
        for e in 1..50 {
            assert_eq!(audit_sets(&mut a, e, &t, &[&[s(0), s(1)]]), 0);
        }
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn dead_replica_is_flagged_unless_pinned() {
        let mut t = topo();
        let mut a = InvariantAuditor::new(1, 2);
        t.fail_server(s(1)).unwrap();
        let n = audit_sets(&mut a, 0, &t, &[&[s(0), s(1)]]);
        assert_eq!(n, 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::ReplicaOnDeadServer);
        // The same set, pinned: legitimate awaiting-restore state.
        let n =
            a.audit_subset(1, &t, &[0], |_, buf| buf.extend_from_slice(&[s(0), s(1)]), |_| true);
        assert_eq!(n, 0);
    }

    #[test]
    fn causeless_dip_fires_but_faulted_dip_is_excused() {
        let t = topo();
        let mut a = InvariantAuditor::new(2, 2);
        // Arm both partitions.
        audit_sets(&mut a, 0, &t, &[&[s(0), s(1)], &[s(2), s(3)]]);
        // Partition 0 dips with no fault anywhere → violation.
        let n = audit_sets(&mut a, 1, &t, &[&[s(0)], &[s(2), s(3)]]);
        assert_eq!(n, 1);
        assert_eq!(a.violations()[0].kind, ViolationKind::UnderReplicatedNoCause);
        assert_eq!(a.violations()[0].partition, PartitionId::new(0));
        // Partition 1 dips right after a noted fault → excused.
        a.note_fault(5);
        let n = audit_sets(&mut a, 6, &t, &[&[s(0), s(1)], &[s(2)]]);
        assert_eq!(n, 0, "fault within the cause window excuses the dip");
    }

    #[test]
    fn stuck_under_replication_fires_once_after_the_window() {
        let t = topo();
        let mut a = InvariantAuditor::with_windows(1, 2, 2, 10);
        audit_sets(&mut a, 0, &t, &[&[s(0), s(1)]]);
        a.note_fault(1);
        let mut fired = 0;
        for e in 1..30 {
            fired += audit_sets(&mut a, e, &t, &[&[s(0)]]);
        }
        assert_eq!(fired, 1, "exactly one stuck violation per dip");
        assert_eq!(a.violations()[0].kind, ViolationKind::StuckUnderReplicated);
        assert!(a.violations()[0].epoch > 11, "deadline counts from the fault");
        // Healing resets the clock: a later dip starts a fresh window.
        audit_sets(&mut a, 30, &t, &[&[s(0), s(1)]]);
        a.note_fault(31);
        assert_eq!(audit_sets(&mut a, 32, &t, &[&[s(0)]]), 0);
    }

    #[test]
    fn subset_audit_matches_reference_audit() {
        // A fault-and-repair scenario driven twice: once auditing every
        // partition every epoch, once auditing only the partitions that
        // changed that epoch (plus the auditor's own watch list). The
        // violation streams must be identical.
        let schedule = |t: &mut Topology, a: &mut InvariantAuditor, e: u64| -> Vec<u32> {
            match e {
                6 => {
                    if t.servers()[1].alive {
                        t.fail_server(s(1)).unwrap();
                    }
                    a.note_fault(6);
                    vec![0]
                }
                21 => vec![0],
                0 => vec![0, 1],
                _ => vec![],
            }
        };
        let sets_at = |e: u64| -> Vec<Vec<ServerId>> {
            match e {
                0..=6 => vec![vec![s(0), s(1)], vec![s(2), s(3)]],
                7..=20 => vec![vec![s(0)], vec![s(2), s(3)]], // pruned, under r_min
                _ => vec![vec![s(0), s(2)], vec![s(2), s(3)]], // healed
            }
        };
        let run = |sparse: bool| -> (u64, Vec<Violation>) {
            let mut t = topo();
            let mut a = InvariantAuditor::with_windows(2, 2, 2, 10);
            for e in 0..30 {
                let parts = schedule(&mut t, &mut a, e);
                let sets = sets_at(e);
                let fill = |p: PartitionId, buf: &mut Vec<ServerId>| {
                    buf.extend_from_slice(&sets[p.index()]);
                };
                if sparse {
                    a.audit_subset(e, &t, &parts, fill, |_| false);
                } else {
                    a.audit(e, &t, fill, |_| false);
                }
            }
            (a.total(), a.violations().to_vec())
        };
        let reference = run(false);
        let sparse = run(true);
        assert!(reference.0 > 0, "scenario must actually trip violations");
        assert_eq!(reference, sparse);
    }

    #[test]
    fn ongoing_chaos_extends_the_repair_deadline() {
        let t = topo();
        let mut a = InvariantAuditor::with_windows(1, 2, 2, 10);
        audit_sets(&mut a, 0, &t, &[&[s(0), s(1)]]);
        a.note_fault(1);
        for e in 1..40 {
            // A fault every few epochs keeps the cluster excused.
            if e % 5 == 0 {
                a.note_fault(e);
            }
            audit_sets(&mut a, e, &t, &[&[s(0)]]);
        }
        assert_eq!(a.total(), 0, "deadline slides while faults keep landing");
    }
}
