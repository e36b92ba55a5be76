//! The owner-oriented baseline.
//!
//! "The coordinator will consider maximizing availability while
//! minimizing replication cost. … it is better to choose a different
//! datacenter close to the primary partition owner to replicate on"
//! (§II-A, in the spirit of PAST / CFS / Overlook, refs [7][11][12][13]).
//!
//! Placement ranks candidates by:
//! 1. the *minimum availability level* against the existing replica set
//!    (higher first — a different datacenter beats a different room,
//!    etc., per the label scheme);
//! 2. replication cost from the holder, i.e. distance (closer first);
//! 3. server id (determinism).
//!
//! Migration "actually happens only when physical nodes are added into
//! or removed from the system" (§III-D) — replica loss on failure is
//! handled by re-replication (the availability floor), so this policy
//! emits no migrations and no suicides.

use crate::manager::ReplicaManager;
use crate::policy::{Action, EpochContext, ReplicationPolicy};
use crate::random::{growth_event, UNSERVED_TRIGGER};
use crate::selection::accepting_servers_anywhere;
use rfh_stats::min_replica_count;
use rfh_types::{PartitionId, ServerId};

/// The owner-oriented placement baseline.
#[derive(Debug, Clone, Default)]
pub struct OwnerOrientedPolicy;

impl OwnerOrientedPolicy {
    /// Create the policy.
    pub fn new() -> Self {
        Self
    }

    /// Pick the best target per the availability-then-cost ranking.
    fn pick_target(
        ctx: &EpochContext<'_>,
        manager: &ReplicaManager,
        p: PartitionId,
    ) -> Option<ServerId> {
        let holder = manager.holder(p);
        let replicas = manager.replicas(p);
        accepting_servers_anywhere(ctx.topo, manager, p).into_iter().max_by(|&a, &b| {
            let key = |s: ServerId| {
                let min_level = replicas
                    .iter()
                    .map(|&r| ctx.topo.availability_level(s, r).map(|l| l.value()).unwrap_or(1))
                    .min()
                    .unwrap_or(5);
                let dist = ctx.topo.server_distance_km(s, holder).unwrap_or(f64::MAX);
                (min_level, dist)
            };
            let (la, da) = key(a);
            let (lb, db) = key(b);
            la.cmp(&lb)
                .then_with(|| db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| b.cmp(&a))
        })
    }
}

impl ReplicationPolicy for OwnerOrientedPolicy {
    fn name(&self) -> &'static str {
        "Owner"
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
            if let Some(target) = Self::pick_target(ctx, manager, p) {
                if ctx.recorder.enabled() {
                    ctx.recorder.decision(growth_event(ctx, manager, "Owner", p, target, r_min));
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
        // Same growth predicate as the random baseline: below the floor
        // it acts unconditionally, above it only on unserved residual,
        // which requires this epoch's demand (a dirtied partition). No
        // migration, no suicide, no per-partition state.
        manager.replica_count(p) < r_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;

    #[test]
    fn prefers_foreign_datacenter_close_to_holder() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (ctx_parts, manager) = h.quiet_epoch();
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        assert_eq!(actions.len(), manager.partitions() as usize, "r_min growth");
        for a in actions {
            let Action::Replicate { partition, target } = a else {
                panic!("owner policy only replicates, got {a:?}");
            };
            let holder = manager.holder(partition);
            let holder_dc = ctx.topo.servers()[holder.index()].datacenter;
            let target_dc = ctx.topo.servers()[target.index()].datacenter;
            // Level 5 placement: a different datacenter…
            assert_ne!(holder_dc, target_dc, "first extra replica goes off-site");
            // …and among foreign DCs, (one of) the closest.
            let d_target = ctx.topo.distance_km(holder_dc, target_dc).unwrap();
            let d_min = ctx
                .topo
                .datacenters()
                .iter()
                .filter(|dc| dc.id != holder_dc)
                .map(|dc| ctx.topo.distance_km(holder_dc, dc.id).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                d_target <= d_min + 1.0,
                "{partition}: went {d_target} km when {d_min} km was available"
            );
        }
    }

    #[test]
    fn second_growth_step_keeps_diversity() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (mut ctx_parts, manager) = h.epoch_at_r_min();
        // Partition 0 is under-served: owner grows it once more.
        ctx_parts.accounts.unserved[0] = 5.0;
        let ctx = ctx_parts.ctx(&h);
        let actions = policy.decide(&ctx, &manager);
        assert_eq!(actions.len(), 1);
        let Action::Replicate { partition, target } = actions[0] else {
            panic!("expected replicate");
        };
        assert_eq!(partition.index(), 0);
        // The new copy avoids every server already hosting the partition.
        assert!(!manager.hosts(partition, target));
    }

    #[test]
    fn no_actions_when_satisfied() {
        let h = Harness::paper_small();
        let mut policy = OwnerOrientedPolicy::new();
        let (ctx_parts, manager) = h.epoch_at_r_min();
        let ctx = ctx_parts.ctx(&h);
        assert!(policy.decide(&ctx, &manager).is_empty());
    }
}
