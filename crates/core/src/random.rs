//! The random baseline.
//!
//! "Most of the current Cloud storage systems replicate each data item
//! at a fixed number of physically distinct nodes in a static way" —
//! Dynamo-style: "replicate data at the N−1 clockwise successor nodes.
//! Although adjacent in node ID space, these replicas are actually
//! randomly chosen considering geographical location" (§II-A, refs
//! [4][21][22]).
//!
//! Behaviour:
//! * keeps the availability floor `r_min` by walking the partition's
//!   ring successor list (the Dynamo preference list — a geographically
//!   random but deterministic permutation of the servers);
//! * when demand goes unserved, adds one more successor-list replica per
//!   partition per epoch (all four algorithms are demand-adaptive so
//!   they face the same workload; what differs is *placement*);
//! * never migrates, never suicides — exactly what Figs. 6–7 show
//!   (zero migration activity).

use crate::manager::ReplicaManager;
use crate::policy::{Action, EpochContext, ReplicationPolicy};
use rfh_obs::{DecisionEvent, DecisionKind, Trigger};
use rfh_ring::ConsistentHashRing;
use rfh_stats::min_replica_count;
use rfh_types::{PartitionId, ServerId};

/// Residual demand (queries/epoch) that triggers growth.
pub(crate) const UNSERVED_TRIGGER: f64 = 0.5;

/// The trace event for a baseline growth decision: below the floor it is
/// an availability replication (count vs `r_min`), otherwise an
/// unserved-demand one (residual vs [`UNSERVED_TRIGGER`]). Shared by the
/// owner and random baselines, which grow on the same predicate.
pub(crate) fn growth_event(
    ctx: &EpochContext<'_>,
    manager: &ReplicaManager,
    policy: &'static str,
    p: PartitionId,
    target: ServerId,
    r_min: usize,
) -> DecisionEvent {
    let below_floor = manager.replica_count(p) < r_min;
    let unserved = ctx.accounts.unserved[p.index()];
    let (trigger, traffic, threshold) = if below_floor {
        (Trigger::AvailabilityFloor, manager.replica_count(p) as f64, r_min as f64)
    } else {
        (Trigger::UnservedDemand, unserved, UNSERVED_TRIGGER)
    };
    DecisionEvent {
        target: Some(target.0),
        traffic,
        threshold,
        q_avg: ctx.smoother.q_avg(p),
        blocking: ctx.blocking.get(target.index()).copied().unwrap_or(f64::NAN),
        unserved,
        ..DecisionEvent::new(ctx.epoch.raw(), policy, DecisionKind::Replicate, p.0, trigger)
    }
}

/// The random placement baseline.
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    ring: ConsistentHashRing,
}

impl RandomPolicy {
    /// Build over the ring the cluster was placed with.
    pub fn new(ring: ConsistentHashRing) -> Self {
        RandomPolicy { ring }
    }
}

impl ReplicationPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn decide(&mut self, ctx: &EpochContext<'_>, manager: &ReplicaManager) -> Vec<Action> {
        let r_min =
            min_replica_count(ctx.config.failure_rate, ctx.config.min_availability) as usize;
        let mut actions = Vec::new();
        // The active set only: every skipped partition is at the floor
        // with zero unserved demand, so a full sweep would `continue` on
        // it anyway.
        for &p_idx in ctx.active {
            let p = PartitionId::new(p_idx);
            let needs_growth = manager.replica_count(p) < r_min
                || ctx.accounts.unserved[p.index()] > UNSERVED_TRIGGER;
            if !needs_growth {
                continue;
            }
            // Next unused, alive, accepting server on the preference
            // list; the list is a pseudo-random permutation, so this is
            // the "randomly chosen considering geographical location"
            // placement.
            let Ok(preference) = self.ring.successors(p, self.ring.server_count()) else {
                continue;
            };
            let target = preference.into_iter().find(|&s| {
                s.index() < ctx.topo.server_count()
                    && ctx.topo.servers()[s.index()].alive
                    && manager.can_accept(p, s)
            });
            if let Some(target) = target {
                if ctx.recorder.enabled() {
                    ctx.recorder.decision(growth_event(ctx, manager, "Random", p, target, r_min));
                }
                actions.push(Action::Replicate { partition: p, target });
            }
        }
        actions
    }

    fn keeps_live(
        &self,
        _topo: &rfh_topology::Topology,
        _smoother: &rfh_traffic::TrafficSmoother,
        manager: &ReplicaManager,
        r_min: usize,
        p: PartitionId,
    ) -> bool {
        // Below the floor the policy acts every epoch regardless of
        // demand; at or above it, growth needs unserved residual, which
        // only a queried (hence dirtied) partition can have. The policy
        // never migrates or suicides and keeps no per-partition state,
        // so nothing else can change while frozen.
        manager.replica_count(p) < r_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use rfh_types::ServerId;

    #[test]
    fn grows_to_availability_floor() {
        let h = Harness::paper_small();
        let mut policy = RandomPolicy::new(h.ring.clone());
        // No queries at all: only the r_min floor drives replication.
        let (ctx_parts, manager) = h.quiet_epoch();
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        // Every partition has 1 replica < r_min = 2 → one action each.
        assert_eq!(actions.len(), manager.partitions() as usize);
        assert!(actions.iter().all(|a| matches!(a, Action::Replicate { .. })));
    }

    #[test]
    fn grows_on_unserved_demand_only_for_affected_partition() {
        let h = Harness::paper_small();
        let mut policy = RandomPolicy::new(h.ring.clone());
        let (mut ctx_parts, manager) = h.epoch_at_r_min();
        ctx_parts.accounts.unserved[3] = 10.0;
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::Replicate { partition, target } => {
                assert_eq!(partition.index(), 3);
                assert!(!manager.hosts(partition, target));
                assert!(manager.can_accept(partition, target));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn never_migrates_or_suicides() {
        let h = Harness::paper_small();
        let mut policy = RandomPolicy::new(h.ring.clone());
        let (mut ctx_parts, manager) = h.epoch_at_r_min();
        // Saturate demand everywhere: still only replications.
        for u in &mut ctx_parts.accounts.unserved {
            *u = 100.0;
        }
        let ctx = ctx_parts.ctx(&h);
        for a in policy.decide(&ctx, &manager) {
            assert!(matches!(a, Action::Replicate { .. }));
        }
    }

    #[test]
    fn skips_dead_and_full_servers() {
        let mut h = Harness::paper_small();
        // Kill everything except the holders' servers and one spare.
        let keep: Vec<ServerId> = (0..h.topo.server_count() as u32).map(ServerId::new).collect();
        for &s in &keep[..keep.len() - 1] {
            let holders_use = (0..h.cfg.partitions)
                .any(|p| h.manager.holder(rfh_types::PartitionId::new(p)) == s);
            if !holders_use {
                h.topo.fail_server(s).unwrap();
            }
        }
        let mut policy = RandomPolicy::new(h.ring.clone());
        let (ctx_parts, manager) = h.quiet_epoch();
        let ctx = ctx_parts.ctx(&h);
        for a in policy.decide(&ctx, &manager) {
            if let Action::Replicate { target, .. } = a {
                assert!(ctx.topo.servers()[target.index()].alive);
            }
        }
    }
}
