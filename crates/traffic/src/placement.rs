//! The per-epoch placement view the traffic pass reads.
//!
//! The replica manager (in `rfh-core`) owns the authoritative replica
//! map; each epoch it renders this flattened view: for every partition,
//! the servers hosting its replicas and the total query-processing
//! capacity those replicas offer there this epoch (`Σ_l C_ikl` in the
//! paper's notation), plus each partition's primary holder.
//!
//! The server axis is sparse. A partition keeps one short list of
//! `(server, capacity)` cells, ascending by server id, holding exactly
//! the servers with positive capacity; every other server reads as
//! zero. A partition has a handful of replicas out of the cluster's
//! hundred servers, so the view costs O(replicas), not
//! O(partitions × servers), to store, render and walk.

use crate::grid::CellRows;
use rfh_types::{PartitionId, ServerId};

/// Flattened placement + capacity view for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementView {
    /// Per partition: `(server, Σ over replicas of per-replica
    /// capacity)` for every server with positive capacity, ascending by
    /// server id. Queries/epoch.
    capacity: CellRows,
    /// Size of the server axis.
    servers: u32,
    /// Primary holder server of each partition.
    holders: Vec<ServerId>,
    /// Number of `(partition, server)` cells with positive capacity,
    /// maintained on every mutation so sparse consumers learn the
    /// replica-cell population in O(1).
    nonzero: usize,
}

impl PlacementView {
    /// Empty view: no capacity anywhere; holders must be set for every
    /// partition before use.
    pub fn new(partitions: u32, servers: u32, holders: Vec<ServerId>) -> Self {
        assert_eq!(holders.len(), partitions as usize, "one holder per partition required");
        let mut capacity = CellRows::default();
        capacity.reset(partitions as usize);
        PlacementView { capacity, servers, holders, nonzero: 0 }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> u32 {
        self.capacity.rows() as u32
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Primary holder of a partition.
    #[inline]
    pub fn holder(&self, p: PartitionId) -> ServerId {
        self.holders[p.index()]
    }

    /// Capacity of partition `p` replicas on server `s`.
    #[inline]
    pub fn capacity(&self, p: PartitionId, s: ServerId) -> f64 {
        self.capacity.get(p.index(), s)
    }

    /// The servers holding capacity for `p` and their capacity,
    /// ascending by server id. Every listed capacity is positive.
    #[inline]
    pub fn cells(&self, p: PartitionId) -> &[(ServerId, f64)] {
        self.capacity.row(p.index())
    }

    /// Add replica capacity for `(p, s)`.
    pub fn add_capacity(&mut self, p: PartitionId, s: ServerId, queries_per_epoch: f64) {
        debug_assert!(queries_per_epoch >= 0.0);
        debug_assert!(
            s.0 < self.servers,
            "server {s:?} outside the view's {} servers",
            self.servers
        );
        // A zero add changes no capacity, so it creates no cell.
        if queries_per_epoch > 0.0 && self.capacity.add(p.index(), s, queries_per_epoch) {
            self.nonzero += 1;
        }
    }

    /// Total capacity provisioned for a partition across the cluster.
    pub fn partition_capacity_total(&self, p: PartitionId) -> f64 {
        self.cells(p).iter().fold(0.0, |sum, &(_, c)| sum + c)
    }

    /// Reshape in place to `partitions × servers`, dropping all capacity
    /// and resetting every holder to server 0 (callers re-set holders
    /// before use). Reuses the backing allocations — this is the
    /// "rebuild" half of delta maintenance when the cluster shape moved.
    pub fn reset(&mut self, partitions: u32, servers: u32) {
        self.capacity.reset(partitions as usize);
        self.servers = servers;
        self.holders.clear();
        self.holders.resize(partitions as usize, ServerId::new(0));
        self.nonzero = 0;
    }

    /// Re-point a partition's primary holder (delta update).
    pub fn set_holder(&mut self, p: PartitionId, holder: ServerId) {
        self.holders[p.index()] = holder;
    }

    /// Drop one partition's capacity cells (delta update: callers then
    /// re-add the partition's current replica capacities).
    pub fn clear_partition(&mut self, p: PartitionId) {
        self.nonzero -= self.capacity.clear_row(p.index());
    }

    /// Number of `(partition, server)` cells holding positive capacity —
    /// the total length of every partition's [`cells`](Self::cells), in
    /// O(1).
    #[inline]
    pub fn nonzero_cells(&self) -> usize {
        self.nonzero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }
    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn empty_view() {
        let v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        assert_eq!(v.partitions(), 2);
        assert_eq!(v.servers(), 3);
        assert_eq!(v.holder(p(1)), s(2));
        assert_eq!(v.capacity(p(0), s(0)), 0.0);
        assert_eq!(v.partition_capacity_total(p(0)), 0.0);
        assert!(v.cells(p(0)).is_empty());
    }

    #[test]
    fn capacities_accumulate() {
        let mut v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(0), s(1), 5.0);
        v.add_capacity(p(0), s(2), 20.0);
        assert_eq!(v.capacity(p(0), s(1)), 15.0);
        assert_eq!(v.partition_capacity_total(p(0)), 35.0);
        assert_eq!(v.cells(p(0)), &[(s(1), 15.0), (s(2), 20.0)]);
        assert_eq!(v.partition_capacity_total(p(1)), 0.0, "partitions are independent");
    }

    #[test]
    #[should_panic(expected = "one holder per partition")]
    fn holder_count_must_match() {
        let _ = PlacementView::new(3, 3, vec![s(0)]);
    }

    #[test]
    fn equality_is_content_only() {
        // A view mutated back to the same content equals a fresh one.
        let mut v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        v.add_capacity(p(0), s(1), 1.0);
        v.set_holder(p(0), s(1));
        v.clear_partition(p(0));
        v.reset(2, 3);
        let fresh = PlacementView::new(2, 3, vec![s(0), s(0)]);
        v.set_holder(p(1), s(0));
        assert_eq!(v, fresh);
    }

    #[test]
    fn nonzero_cells_tracks_every_mutation() {
        let mut v = PlacementView::new(3, 4, vec![s(0), s(1), s(2)]);
        let recount =
            |v: &PlacementView| (0..v.partitions()).map(|pi| v.cells(p(pi)).len()).sum::<usize>();
        assert_eq!(v.nonzero_cells(), 0);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(0), s(1), 5.0); // same cell: no new entry
        v.add_capacity(p(0), s(2), 1.0);
        v.add_capacity(p(2), s(3), 2.0);
        v.add_capacity(p(1), s(0), 0.0); // zero capacity is not a cell
        assert_eq!(v.nonzero_cells(), 3);
        assert_eq!(v.nonzero_cells(), recount(&v));
        v.clear_partition(p(0));
        assert_eq!(v.nonzero_cells(), 1);
        assert_eq!(v.nonzero_cells(), recount(&v));
        v.reset(2, 4);
        assert_eq!(v.nonzero_cells(), 0);
    }

    #[test]
    fn delta_updates_match_fresh_construction() {
        let mut v = PlacementView::new(2, 3, vec![s(0), s(2)]);
        v.add_capacity(p(0), s(1), 10.0);
        v.add_capacity(p(1), s(2), 4.0);

        // Partition 0 moves: clear its row, re-add, re-point the holder.
        v.clear_partition(p(0));
        v.set_holder(p(0), s(2));
        v.add_capacity(p(0), s(2), 7.0);

        let mut fresh = PlacementView::new(2, 3, vec![s(2), s(2)]);
        fresh.add_capacity(p(0), s(2), 7.0);
        fresh.add_capacity(p(1), s(2), 4.0);
        assert_eq!(v, fresh);

        // Shape change: reset rebuilds in place.
        v.reset(1, 4);
        v.set_holder(p(0), s(3));
        v.add_capacity(p(0), s(3), 2.0);
        let mut fresh = PlacementView::new(1, 4, vec![s(3)]);
        fresh.add_capacity(p(0), s(3), 2.0);
        assert_eq!(v, fresh);
    }
}
