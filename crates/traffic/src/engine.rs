//! The reusable per-epoch traffic engine.
//!
//! [`compute_traffic`](crate::absorption::compute_traffic) allocates
//! its whole working set — the accounts, the capacity index, and a
//! routing path per `(requester, holder)` pair — on every call. Inside
//! a simulation that pass runs once per epoch per policy, so the
//! allocations and the repeated shortest-path walks dominate the hot
//! loop.
//!
//! [`TrafficEngine`] hoists all of that into reusable state:
//!
//! * a [`RouteTable`] caching every DC pair's path *and* the cumulative
//!   latency at each hop, refreshed only when the topology's
//!   [`generation`](rfh_topology::Topology::generation) moves;
//! * per-generation membership caches: each server's datacenter and its
//!   rank in the visit order (below);
//! * a capacity index over the pass's active partitions: each one's
//!   alive capacity-bearing servers, grouped per datacenter in visit
//!   order;
//! * per-shard working buffers, zeroed in place each pass.
//!
//! Every pass is a *sparse* pass over a sorted active list (see
//! [`account_active`](TrafficEngine::account_active)); a pass over all
//! partitions is the one-shot reference
//! [`compute_traffic`](crate::absorption::compute_traffic).
//!
//! ## Visit order and fold order
//!
//! Two orders fix every `f64` the pass produces:
//!
//! * **Visit order.** Within one datacenter, replicas absorb residual
//!   queries in the datacenter's `server_ids()` order (rooms → racks →
//!   servers), datacenters in path order. After a server joins a rack,
//!   this is not ascending server id, so
//!   [`sync_topology`](TrafficEngine::sync_topology) ranks every alive
//!   server once per topology generation and the index sorts each
//!   partition's few [`PlacementView::cells`] by that rank. The work is
//!   O(replicas) per partition, not O(servers).
//! * **Fold order.** Each server's load is folded in ascending partition
//!   order, one served cell per `(server, partition)`. A partition where
//!   the server served nothing has no cell and adds nothing, which is
//!   bit-identical to adding a `+0.0` term to these non-negative sums.
//!
//! ## Sharded pass, canonical merge
//!
//! Partitions are independent in the traffic pass: remaining capacity
//! is per partition, every account write lands in a per-partition row,
//! and the within-partition accounting order (requesters ascending, hops
//! in path order, indexed servers in visit order) fixes every cell's
//! value exactly. Only five scalar totals (`hops_weighted`,
//! `latency_weighted_ms`, `sla_within`, `served_total`,
//! `unserved_total`) cross partitions, and `f64` addition is not
//! associative — so the engine defines their *canonical* value as
//! per-partition subtotals folded in ascending partition order.
//!
//! The pass therefore runs as contiguous shards of the active list (one
//! shard serially; given a [`WorkerPool`], one per worker) followed by a
//! serial merge that walks shards — hence partitions — in ascending
//! order. Serial and parallel execution share the shard code and the
//! merge, so the output is bit-identical for any thread count
//! (property-tested in `tests/prop_parallel.rs`), and `compute_traffic`
//! (a one-shot, single-shard pass over every partition) stays the
//! semantic reference.

use rfh_obs::MetricsRegistry;
use rfh_pool::{shard_bounds, WorkerPool};
use rfh_topology::{RouteTable, Topology};
use rfh_types::{DatacenterId, PartitionId, ServerId};
use rfh_workload::QueryLoad;

use crate::absorption::{TrafficAccounts, INTRA_DC_LATENCY_MS, SLA_TARGET_MS};
use crate::grid::Grid;
use crate::placement::PlacementView;

/// [`TrafficEngine`] visit rank of a failed server: never indexed.
const DEAD: u32 = u32::MAX;

/// A stateful traffic pass: all buffers preallocated, routes cached.
///
/// One engine serves one topology lineage: it keys its caches on
/// [`Topology::generation`] and refreshes them lazily inside
/// [`account_active`](Self::account_active). Engines are cheap to
/// create but only pay off when reused; they are deliberately *not*
/// shared between policy threads — give each thread its own
/// (share-nothing).
#[derive(Debug, Clone)]
pub struct TrafficEngine {
    routes: RouteTable,
    /// Generation the membership caches below were built for.
    synced: Option<u64>,
    /// Datacenter of each server, indexed by server id.
    server_dc: Vec<DatacenterId>,
    /// Position of each alive server in the visit order — datacenters
    /// ascending, then each datacenter's `server_ids()` order — indexed
    /// by server id; [`DEAD`] for failed servers.
    server_rank: Vec<u32>,
    /// Capacity index over the active list of the last pass.
    index: CapIndex,
    /// Per-shard working buffers; one shard on the serial path.
    shards: Vec<Shard>,
    accounts: TrafficAccounts,
    /// Active list of the previous pass: the partitions whose account
    /// cells it wrote, so the next pass at the same shape clears the
    /// accounts in O(prev) instead of O(partitions).
    prev_active: Vec<u32>,
    stats: EngineStats,
}

/// Which servers are worth visiting per `(position, datacenter)` pair,
/// with the capacity each offers. Positions are indices into the pass's
/// active list.
#[derive(Debug, Clone, Default)]
struct CapIndex {
    /// Segment bounds into [`cells`](Self::cells): entry
    /// `position * n_dcs + dc` and the next one delimit that pair's
    /// servers; a final sentinel closes the last segment.
    offsets: Vec<u32>,
    /// Alive servers holding positive capacity, with that capacity,
    /// grouped per (position, datacenter) in visit order. Skipping the
    /// rest up front is behavior-neutral: the pass performs no
    /// arithmetic on a zero-capacity server.
    cells: Vec<(ServerId, f64)>,
}

impl CapIndex {
    fn clear(&mut self, positions: usize, n_dcs: usize) {
        self.cells.clear();
        self.offsets.clear();
        self.offsets.reserve(positions * n_dcs + 1);
    }

    /// Append one partition's alive cells in visit order, one segment
    /// per datacenter. Ranks are datacenter-major, so sorting by rank
    /// also groups the cells by ascending datacenter.
    fn push_partition(
        &mut self,
        cells: &[(ServerId, f64)],
        rank: &[u32],
        server_dc: &[DatacenterId],
        n_dcs: usize,
    ) {
        let start = self.cells.len();
        self.cells.extend(cells.iter().filter(|c| rank[c.0.index()] != DEAD));
        self.cells[start..].sort_unstable_by_key(|c| rank[c.0.index()]);
        let mut k = start;
        for d in 0..n_dcs {
            self.offsets.push(k as u32);
            while k < self.cells.len() && server_dc[self.cells[k].0.index()].index() == d {
                k += 1;
            }
        }
    }

    fn finish(&mut self) {
        self.offsets.push(self.cells.len() as u32);
    }
}

/// Shard-local working state for a contiguous range `[lo, hi)` of the
/// active list. Everything a shard writes during the pass lands here;
/// the global accounts are assembled afterwards by the canonical merge.
#[derive(Debug, Clone)]
struct Shard {
    /// First position of the shard's range (an index into the pass's
    /// active list).
    lo: usize,
    /// One past the last position.
    hi: usize,
    /// Remaining capacity of the partition being processed, one entry
    /// per indexed cell of that partition, in index order. Reloaded
    /// from the index for every partition.
    remaining: Vec<f64>,
    /// Per-(local partition, datacenter) arrival traffic, laid out like
    /// the global accounts so the merge copies whole rows.
    dc_traffic: Grid,
    /// Per-(local partition, datacenter) forwarding traffic.
    dc_outflow: Grid,
    /// Served events per local partition, in emission order: replayed
    /// into the global served cells by the merge. All events for one
    /// `(server, partition)` cell occur within one partition's pass, so
    /// replay-in-order reproduces the cell bit for bit.
    served: Vec<Vec<(ServerId, f64)>>,
    /// Holder datacenter per local partition.
    holder_dc: Vec<DatacenterId>,
    /// Unserved residual per local partition. The partition's
    /// contribution to `unserved_total` is this same subtotal.
    unserved: Vec<f64>,
    /// Per-partition subtotals of the cross-partition scalars.
    hops_weighted: Vec<f64>,
    latency_weighted_ms: Vec<f64>,
    sla_within: Vec<f64>,
    served_total: Vec<f64>,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            lo: 0,
            hi: 0,
            remaining: Vec::new(),
            dc_traffic: Grid::zeros(0, 0),
            dc_outflow: Grid::zeros(0, 0),
            served: Vec::new(),
            holder_dc: Vec::new(),
            unserved: Vec::new(),
            hops_weighted: Vec::new(),
            latency_weighted_ms: Vec::new(),
            sla_within: Vec::new(),
            served_total: Vec::new(),
        }
    }
}

impl Shard {
    /// Point this shard at `[lo, hi)` and (re)shape its buffers. Grid
    /// reshapes zero-fill; contents are otherwise left stale — the pass
    /// re-derives everything it reads.
    fn layout(&mut self, lo: usize, hi: usize, n_dcs: usize) {
        self.lo = lo;
        self.hi = hi;
        let span = hi - lo;
        if self.dc_traffic.rows() != span || self.dc_traffic.cols() != n_dcs {
            self.dc_traffic.reset(span, n_dcs);
            self.dc_outflow.reset(span, n_dcs);
        }
        self.served.resize(span, Vec::new());
        self.holder_dc.resize(span, DatacenterId::new(0));
        self.unserved.resize(span, 0.0);
        self.hops_weighted.resize(span, 0.0);
        self.latency_weighted_ms.resize(span, 0.0);
        self.sla_within.resize(span, 0.0);
        self.served_total.resize(span, 0.0);
    }
}

/// The read-only inputs a shard pass needs — all `Sync`, shared by
/// every worker.
struct PassCtx<'a> {
    routes: &'a RouteTable,
    server_dc: &'a [DatacenterId],
    index: &'a CapIndex,
    n_dcs: usize,
    load: &'a QueryLoad,
    view: &'a PlacementView,
    /// The pass's active list: positions map through it to global
    /// partition ids, and the capacity index is keyed by *position*.
    parts: &'a [u32],
}

/// Lifetime counters of a [`TrafficEngine`]: passes run, route-cache
/// rebuilds, and how much of the partition space the passes visited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traffic passes run ([`TrafficEngine::account_active`] calls).
    pub passes: u64,
    /// Route/membership cache rebuilds (topology generation moved).
    pub topo_rebuilds: u64,
    /// Partitions visited, cumulative: the length of every pass's
    /// active list — the dirty-set work the engine actually performed.
    pub dirty_partitions: u64,
    /// Partitions left out of the passes' active lists, cumulative: the
    /// work a sweep over every partition would have added.
    pub skipped_partitions: u64,
}

impl EngineStats {
    /// Export the counters into a metrics registry under
    /// `traffic.engine.*`. The stats are lifetime totals, written
    /// set-style so re-collecting into the same registry is idempotent.
    pub fn collect_metrics(&self, registry: &mut MetricsRegistry) {
        registry.counter_total("traffic.engine.passes", self.passes);
        registry.counter_total("traffic.engine.topo_rebuilds", self.topo_rebuilds);
        registry.counter_total("traffic.engine.dirty_partitions", self.dirty_partitions);
        registry.counter_total("traffic.engine.skipped_partitions", self.skipped_partitions);
    }
}

impl Default for TrafficEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TrafficEngine {
    /// A fresh engine with empty buffers; the first
    /// [`account_active`](Self::account_active) sizes everything.
    pub fn new() -> Self {
        TrafficEngine {
            routes: RouteTable::new(),
            synced: None,
            server_dc: Vec::new(),
            server_rank: Vec::new(),
            index: CapIndex::default(),
            shards: Vec::new(),
            accounts: TrafficAccounts::empty(),
            prev_active: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Cache-effectiveness counters accumulated over this engine's life.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The topology generation the caches are currently valid for.
    pub fn generation(&self) -> Option<u64> {
        self.synced
    }

    /// Refresh route + membership caches if `topo`'s generation moved
    /// (or on first use). Called by every pass; exposed
    /// for tests and for callers that want to pay the rebuild outside
    /// the measured pass.
    pub fn sync_topology(&mut self, topo: &Topology) -> bool {
        self.routes.sync(topo);
        if self.synced == Some(topo.generation()) && self.server_dc.len() == topo.server_count() {
            return false;
        }
        self.server_dc.clear();
        self.server_dc.extend(topo.servers().iter().map(|s| s.datacenter));

        self.server_rank.clear();
        self.server_rank.resize(topo.server_count(), DEAD);
        let mut rank = 0;
        for d in 0..topo.datacenters().len() {
            let dc = topo.datacenter(DatacenterId::new(d as u32)).expect("dense dc ids");
            for server in dc.server_ids() {
                if topo.servers()[server.index()].alive {
                    self.server_rank[server.index()] = rank;
                    rank += 1;
                }
            }
        }
        self.synced = Some(topo.generation());
        self.stats.topo_rebuilds += 1;
        true
    }

    /// Run the traffic pass for one epoch over the `active` partitions
    /// (sorted ascending, deduplicated), reusing every buffer and
    /// leaving every other partition's account cells untouched. With a
    /// `pool`, the shard passes fan out over it, one contiguous slice of
    /// the active list per worker; the merge is serial and ascending, so
    /// the result is bit-identical to the serial pass for any pool size.
    ///
    /// `view` must describe the same cluster as `topo` (same server
    /// count) and the same partition count as `load`. The returned
    /// borrow is valid until the next call on this engine.
    ///
    /// ## Contract
    ///
    /// `active` must contain **every partition with non-zero load this
    /// epoch** (supersets are fine). Under that contract the result is
    /// bit-identical to a pass over every partition
    /// ([`compute_traffic`](crate::absorption::compute_traffic)) on
    /// every account the callers read: an inactive partition carries
    /// zero load, so a full pass would write exact zeros into its cells
    /// (which the sparse invariant already guarantees) and contribute
    /// exact `+0.0` terms to the five cross-partition scalars and the
    /// per-server load sums — the additive identity on these
    /// non-negative accumulators. The one deliberate exception is
    /// [`TrafficAccounts::holder_dc`], which the engine maintains as a
    /// persistent map: an inactive partition keeps its last-written
    /// holder datacenter (still correct — placement changes dirty their
    /// partition) instead of being re-derived each pass.
    pub fn account_active(
        &mut self,
        topo: &Topology,
        load: &QueryLoad,
        view: &PlacementView,
        active: &[u32],
        pool: Option<&WorkerPool>,
    ) -> &TrafficAccounts {
        self.sync_topology(topo);
        self.stats.passes += 1;

        let n_dcs = topo.datacenters().len();
        let n_parts = load.partitions() as usize;
        let n_servers = topo.server_count();
        debug_assert_eq!(view.partitions() as usize, n_parts);
        debug_assert_eq!(view.servers() as usize, n_servers);
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active set must be sorted ascending and deduplicated"
        );
        debug_assert!(
            load.touched().iter().all(|t| active.binary_search(t).is_ok()),
            "active set must cover every partition with load"
        );
        self.stats.dirty_partitions += active.len() as u64;
        self.stats.skipped_partitions += (n_parts - active.len()) as u64;

        // Reset the accounts: O(prev) at the same shape, full otherwise.
        // Inactive cells stay zero either way (the sparse invariant).
        if self.accounts.has_shape(n_dcs, n_parts, n_servers) {
            self.accounts.clear_sparse(&self.prev_active);
        } else {
            self.accounts.reset(n_dcs, n_parts, n_servers);
            // holder_dc is a persistent map across passes.
            self.accounts.holder_dc.resize(n_parts, DatacenterId::new(0));
        }
        self.prev_active.clear();
        self.prev_active.extend_from_slice(active);

        // Build the capacity index over the active list, keyed by
        // *position*.
        self.index.clear(active.len(), n_dcs);
        for &pu in active {
            self.index.push_partition(
                view.cells(PartitionId::new(pu)),
                &self.server_rank,
                &self.server_dc,
                n_dcs,
            );
        }
        self.index.finish();

        self.run_pass(n_dcs, load, view, active, pool);
        self.accounts.fold_server_loads(active.iter().map(|&p| p as usize));
        &self.accounts
    }

    /// Lay the shards out over the positions of `parts`, run them, and
    /// merge them into the accounts. The serial path is the one-shard
    /// case of the same code, which is what makes serial ≡ parallel
    /// structural rather than coincidental.
    fn run_pass(
        &mut self,
        n_dcs: usize,
        load: &QueryLoad,
        view: &PlacementView,
        parts: &[u32],
        pool: Option<&WorkerPool>,
    ) {
        let n_shards = pool.map_or(1, WorkerPool::size).max(1);
        self.shards.resize_with(n_shards, Shard::default);
        for (k, shard) in self.shards.iter_mut().enumerate() {
            let (lo, hi) = shard_bounds(parts.len(), n_shards, k);
            shard.layout(lo, hi, n_dcs);
        }
        let ctx = PassCtx {
            routes: &self.routes,
            server_dc: &self.server_dc,
            index: &self.index,
            n_dcs,
            load,
            view,
            parts,
        };
        run_shards(&mut self.shards, &ctx, pool);
        merge_shards(&mut self.accounts, &self.shards, parts);
    }

    /// The accounts from the most recent pass (all-zero shapes before
    /// the first).
    pub fn accounts(&self) -> &TrafficAccounts {
        &self.accounts
    }

    /// Consume the engine, keeping only the last pass's accounts — the
    /// one-shot path [`compute_traffic`](crate::absorption::compute_traffic)
    /// uses.
    pub fn into_accounts(self) -> TrafficAccounts {
        self.accounts
    }
}

/// Run every shard, fanned out over `pool` when one is given and worth
/// using.
fn run_shards(shards: &mut [Shard], ctx: &PassCtx<'_>, pool: Option<&WorkerPool>) {
    match pool {
        Some(pool) if shards.len() > 1 => {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = shards
                .iter_mut()
                .map(|shard| {
                    Box::new(move || run_shard(ctx, shard)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        _ => {
            for shard in shards {
                run_shard(ctx, shard);
            }
        }
    }
}

/// Canonical merge: shards ascending — hence positions, hence
/// partitions ascending — regardless of how many shards ran or on which
/// threads they finished. Positions map through the active list `parts`
/// and `holder_dc` is written by index into the persistent map.
fn merge_shards(acc: &mut TrafficAccounts, shards: &[Shard], parts: &[u32]) {
    for shard in shards {
        for (i, pos) in (shard.lo..shard.hi).enumerate() {
            let p_idx = parts[pos] as usize;
            acc.holder_dc[p_idx] = shard.holder_dc[i];
            // The global rows were just zeroed and the shard rows only
            // accumulate positive residuals onto +0.0, so a whole-row
            // copy writes exactly the cells the pass touched.
            acc.dc_traffic.row_mut(p_idx).copy_from_slice(shard.dc_traffic.row(i));
            acc.dc_outflow.row_mut(p_idx).copy_from_slice(shard.dc_outflow.row(i));
            for &(server, take) in &shard.served[i] {
                acc.served.add(p_idx, server, take);
            }
            acc.unserved[p_idx] = shard.unserved[i];
            acc.hops_weighted += shard.hops_weighted[i];
            acc.latency_weighted_ms += shard.latency_weighted_ms[i];
            acc.sla_within += shard.sla_within[i];
            acc.served_total += shard.served_total[i];
            acc.unserved_total += shard.unserved[i];
        }
    }
}

/// The accounting pass over one shard's positions. Reads only the
/// shared [`PassCtx`]; writes only shard-local buffers. The
/// within-partition order is the legacy accounting order — requesters
/// ascending, hops in path order, indexed servers in visit order — so
/// every per-partition quantity is computed by the exact `f64` sequence
/// the one-shot pass uses.
fn run_shard(ctx: &PassCtx<'_>, shard: &mut Shard) {
    let Shard {
        lo,
        hi,
        remaining,
        dc_traffic,
        dc_outflow,
        served,
        holder_dc,
        unserved,
        hops_weighted,
        latency_weighted_ms,
        sla_within,
        served_total,
    } = shard;
    let n_dcs = ctx.n_dcs;
    let offsets = &ctx.index.offsets;
    let cells = &ctx.index.cells;

    for (i, pos) in (*lo..*hi).enumerate() {
        let p = PartitionId::new(ctx.parts[pos]);
        // Load remaining capacity for this partition's indexed cells.
        // The index is keyed by position in the active list.
        let base = pos * n_dcs;
        let first = offsets[base] as usize;
        remaining.clear();
        remaining.extend(cells[first..offsets[base + n_dcs] as usize].iter().map(|c| c.1));
        let tr_row = dc_traffic.row_mut(i);
        let of_row = dc_outflow.row_mut(i);
        tr_row.fill(0.0);
        of_row.fill(0.0);
        let served_i = &mut served[i];
        served_i.clear();
        let mut unserved_p = 0.0;
        let mut hops_p = 0.0;
        let mut latency_p = 0.0;
        let mut sla_p = 0.0;
        let mut served_p = 0.0;

        let holder = ctx.view.holder(p);
        let hdc = ctx.server_dc.get(holder.index()).copied().unwrap_or(DatacenterId::new(0));
        holder_dc[i] = hdc;

        for j_idx in 0..ctx.load.datacenters() {
            let j = DatacenterId::new(j_idx);
            let q = ctx.load.get(p, j) as f64;
            if q == 0.0 {
                continue;
            }
            let Some((hops, cum_ms)) = ctx.routes.route(j, hdc) else {
                // Holder unreachable (partitioned WAN): everything
                // drops without travelling.
                unserved_p += q;
                continue;
            };
            let mut residual = q;
            let mut served_here = 0.0;
            for (hop, &dc) in hops.iter().enumerate() {
                // One-way latency from the requester to this hop,
                // precomputed in path order by the route table.
                let lat_ms = cum_ms[hop];
                // eq. 4/5: the node's traffic is the residual
                // reaching it.
                tr_row[dc.index()] += residual;
                // Replicas in this datacenter absorb what they can:
                // only the indexed capacity-bearing servers, in visit
                // order.
                let seg = base + dc.index();
                for k in offsets[seg] as usize..offsets[seg + 1] as usize {
                    let cap = &mut remaining[k - first];
                    if *cap <= 0.0 {
                        continue;
                    }
                    let take = cap.min(residual);
                    if take > 0.0 {
                        *cap -= take;
                        served_i.push((cells[k].0, take));
                        hops_p += hop as f64 * take;
                        let rtt = 2.0 * lat_ms + INTRA_DC_LATENCY_MS;
                        latency_p += rtt * take;
                        if rtt <= SLA_TARGET_MS {
                            sla_p += take;
                        }
                        served_here += take;
                        residual -= take;
                    }
                    if residual <= 0.0 {
                        break;
                    }
                }
                if residual <= 0.0 {
                    break;
                }
                // What leaves this DC toward the next hop is its
                // forwarding traffic (the terminal hop forwards
                // nothing).
                if hop + 1 < hops.len() {
                    of_row[dc.index()] += residual;
                }
            }
            served_p += served_here;
            if residual > 0.0 {
                // Travelled the whole path and still unserved.
                unserved_p += residual;
                hops_p += (hops.len() - 1) as f64 * residual;
            }
        }

        unserved[i] = unserved_p;
        hops_weighted[i] = hops_p;
        latency_weighted_ms[i] = latency_p;
        sla_within[i] = sla_p;
        served_total[i] = served_p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absorption::compute_traffic;
    use rfh_topology::TopologyBuilder;
    use rfh_types::{Continent, GeoPoint};
    use rfh_workload::QueryLoad;

    /// Chain A(0) — B(1) — C(2), one server per datacenter.
    fn chain() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 1, 1)
            .unwrap();
        let m = b
            .datacenter(
                "B",
                Continent::NorthAmerica,
                "USA",
                "B1",
                GeoPoint::new(0.0, 10.0),
                1,
                1,
                1,
            )
            .unwrap();
        let c = b
            .datacenter(
                "C",
                Continent::NorthAmerica,
                "USA",
                "C1",
                GeoPoint::new(0.0, 20.0),
                1,
                1,
                1,
            )
            .unwrap();
        b.link(a, m, 10.0).unwrap();
        b.link(m, c, 10.0).unwrap();
        b.build(0.0, 1).unwrap()
    }

    fn sample_load(parts: u32, dcs: u32) -> QueryLoad {
        let mut load = QueryLoad::zeros(parts, dcs);
        for p in 0..parts {
            for d in 0..dcs {
                load.add(PartitionId::new(p), DatacenterId::new(d), p * 7 + d * 3 + 1);
            }
        }
        load
    }

    fn sample_view(parts: u32, servers: u32) -> PlacementView {
        let holders: Vec<ServerId> = (0..parts).map(|p| ServerId::new(p % servers)).collect();
        let mut view = PlacementView::new(parts, servers, holders);
        for p in 0..parts {
            view.add_capacity(PartitionId::new(p), ServerId::new((p + 1) % servers), 8.0);
        }
        view
    }

    /// Every partition of a `parts`-partition load, ascending.
    fn all(parts: u32) -> Vec<u32> {
        (0..parts).collect()
    }

    #[test]
    fn reused_engine_is_bit_identical_to_one_shot_pass() {
        let topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        // Run twice on the same engine: the second pass exercises the
        // zero-in-place reset path.
        engine.account_active(&topo, &load, &view, &all(4), None);
        let reused = engine.account_active(&topo, &load, &view, &all(4), None).clone();
        assert_eq!(reused, compute_traffic(&topo, &load, &view));
    }

    #[test]
    fn sharded_pass_is_bit_identical_for_any_pool_size() {
        let topo = chain();
        let load = sample_load(5, 3);
        let view = sample_view(5, 3);
        let serial = compute_traffic(&topo, &load, &view);
        for workers in [1, 2, 3, 7, 11] {
            let pool = WorkerPool::new(workers);
            let mut engine = TrafficEngine::new();
            // Twice: both the full reset and the partial-clear pass.
            engine.account_active(&topo, &load, &view, &all(5), Some(&pool));
            let sharded = engine.account_active(&topo, &load, &view, &all(5), Some(&pool)).clone();
            assert_eq!(sharded, serial, "{workers} workers");
        }
    }

    #[test]
    fn shard_layout_survives_pool_size_changes() {
        // The same engine alternates serial and pooled passes: shard
        // buffers must relayout without residue.
        let topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let serial = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        let big = WorkerPool::new(6);
        let small = WorkerPool::new(2);
        let full = all(4);
        assert_eq!(engine.account_active(&topo, &load, &view, &full, Some(&big)), &serial);
        assert_eq!(engine.account_active(&topo, &load, &view, &full, None), &serial);
        assert_eq!(engine.account_active(&topo, &load, &view, &full, Some(&small)), &serial);
        assert_eq!(engine.account_active(&topo, &load, &view, &full, Some(&big)), &serial);
    }

    #[test]
    fn view_mutation_between_passes_matches_one_shot() {
        let topo = chain();
        let load = sample_load(4, 3);
        let mut view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        let full = all(4);
        engine.account_active(&topo, &load, &view, &full, None);
        assert_eq!(
            engine.account_active(&topo, &load, &view, &full, None),
            &compute_traffic(&topo, &load, &view)
        );

        // Mutate the view in place (capacity appears on a new server
        // and a holder moves): the reused engine must stay
        // bit-identical to the one-shot pass.
        view.add_capacity(PartitionId::new(2), ServerId::new(0), 3.0);
        view.set_holder(PartitionId::new(0), ServerId::new(2));
        assert_eq!(
            engine.account_active(&topo, &load, &view, &full, None),
            &compute_traffic(&topo, &load, &view)
        );
    }

    #[test]
    fn stats_count_passes_rebuilds_and_visits() {
        let topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account_active(&topo, &load, &view, &all(4), None);
        engine.account_active(&topo, &load, &view, &all(4), None);
        engine.account_active(&topo, &load, &view, &all(4), None);
        assert_eq!(
            engine.stats(),
            EngineStats {
                passes: 3,
                topo_rebuilds: 1,
                dirty_partitions: 12,
                skipped_partitions: 0,
            }
        );
        // A narrower pass visits fewer partitions and skips the rest.
        let quiet = sparse_load(4, 3, &[1]);
        engine.account_active(&topo, &quiet, &view, &[1, 3], None);
        let stats = engine.stats();
        assert_eq!((stats.dirty_partitions, stats.skipped_partitions), (14, 2));

        let mut reg = MetricsRegistry::new();
        stats.collect_metrics(&mut reg);
        assert_eq!(reg.get("traffic.engine.passes"), Some(&rfh_obs::Metric::Counter(4)));
        assert_eq!(reg.get("traffic.engine.topo_rebuilds"), Some(&rfh_obs::Metric::Counter(1)));
        assert_eq!(
            reg.get("traffic.engine.skipped_partitions"),
            Some(&rfh_obs::Metric::Counter(2))
        );
    }

    /// Load touching only `touched` partitions, shaped like
    /// `sample_load` on those rows.
    fn sparse_load(parts: u32, dcs: u32, touched: &[u32]) -> QueryLoad {
        let mut load = QueryLoad::zeros(parts, dcs);
        for &p in touched {
            for d in 0..dcs {
                load.add(PartitionId::new(p), DatacenterId::new(d), p * 7 + d * 3 + 1);
            }
        }
        load
    }

    /// Assert a sparse pass result equals the one-shot full pass on
    /// every account callers read. `holder_dc` entries of inactive
    /// partitions are a persistent map, so they are aligned to the full
    /// pass's value before the whole-struct comparison.
    fn assert_matches_full_pass(sparse: &TrafficAccounts, full: &TrafficAccounts, active: &[u32]) {
        let mut sparse = sparse.clone();
        for p in 0..full.holder_dc.len() {
            if active.binary_search(&(p as u32)).is_err() {
                sparse.holder_dc[p] = full.holder_dc[p];
            }
        }
        assert_eq!(&sparse, full);
    }

    #[test]
    #[allow(clippy::identity_op)] // the 0 terms keep the per-epoch breakdown readable
    fn sparse_pass_bit_equals_full_pass_across_epochs() {
        let topo = chain();
        let (parts, dcs, servers) = (8u32, 3u32, 3u32);
        let view = sample_view(parts, servers);
        let mut engine = TrafficEngine::new();
        // Epoch-by-epoch touched sets: shrinking, empty, growing, full.
        let epochs: Vec<Vec<u32>> = vec![
            vec![0, 1, 2, 5],
            vec![1, 5],
            vec![],
            vec![0, 3, 4, 6, 7],
            (0..parts).collect(),
            vec![7],
        ];
        for (e, active) in epochs.iter().enumerate() {
            let load = sparse_load(parts, dcs, active);
            let full = compute_traffic(&topo, &load, &view);
            let sparse = engine.account_active(&topo, &load, &view, active, None).clone();
            assert_matches_full_pass(&sparse, &full, active);
            for s in 0..servers {
                let sid = ServerId::new(s);
                assert_eq!(
                    sparse.server_load(sid).to_bits(),
                    full.server_load(sid).to_bits(),
                    "server {s} load, epoch {e}"
                );
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.passes, 6);
        assert_eq!(stats.dirty_partitions, 4 + 2 + 0 + 5 + 8 + 1);
        assert_eq!(stats.skipped_partitions, 4 + 6 + 8 + 3 + 0 + 7);
    }

    #[test]
    fn sparse_pass_accepts_active_supersets() {
        let topo = chain();
        let view = sample_view(8, 3);
        let load = sparse_load(8, 3, &[2, 6]);
        let full = compute_traffic(&topo, &load, &view);
        let mut engine = TrafficEngine::new();
        let active = [1, 2, 4, 6, 7];
        let sparse = engine.account_active(&topo, &load, &view, &active, None).clone();
        assert_matches_full_pass(&sparse, &full, &active);
    }

    #[test]
    fn sharded_sparse_pass_is_bit_identical_for_any_pool_size() {
        let topo = chain();
        let view = sample_view(9, 3);
        let active: Vec<u32> = vec![0, 2, 3, 5, 8];
        let load = sparse_load(9, 3, &active);
        let full = compute_traffic(&topo, &load, &view);
        for workers in [1, 2, 3, 7, 11] {
            let pool = WorkerPool::new(workers);
            let mut engine = TrafficEngine::new();
            // Twice: the second pass exercises the O(prev) partial clear.
            engine.account_active(&topo, &load, &view, &active, Some(&pool));
            let sparse = engine.account_active(&topo, &load, &view, &active, Some(&pool)).clone();
            assert_matches_full_pass(&sparse, &full, &active);
        }
    }

    #[test]
    fn alternating_full_and_narrow_passes_stay_consistent() {
        // A narrow pass after a full one must clear every cell the full
        // pass wrote, and a full pass after a narrow one must rewrite
        // every cell: the partial clear follows the previous active list.
        let topo = chain();
        let view = sample_view(6, 3);
        let full = all(6);
        let busy = sample_load(6, 3);
        let quiet = sparse_load(6, 3, &[4]);
        let ref_busy = compute_traffic(&topo, &busy, &view);
        let ref_quiet = compute_traffic(&topo, &quiet, &view);
        let mut engine = TrafficEngine::new();
        assert_eq!(engine.account_active(&topo, &busy, &view, &full, None), &ref_busy);
        let sparse = engine.account_active(&topo, &quiet, &view, &[4], None).clone();
        assert_matches_full_pass(&sparse, &ref_quiet, &[4]);
        assert_eq!(engine.account_active(&topo, &busy, &view, &full, None), &ref_busy);
        let sparse = engine.account_active(&topo, &quiet, &view, &[4], None).clone();
        assert_matches_full_pass(&sparse, &ref_quiet, &[4]);
    }

    /// Datacenter A (one room, racks 0 and 1, one server each: s0, s1)
    /// linked to datacenter B (s2), then a server joins A's rack 0. It
    /// gets id 3, above B's s2, yet A visits it second: s0, s3, s1.
    fn joined_rack() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b
            .datacenter("A", Continent::NorthAmerica, "USA", "A1", GeoPoint::new(0.0, 0.0), 1, 2, 1)
            .unwrap();
        let m = b
            .datacenter(
                "B",
                Continent::NorthAmerica,
                "USA",
                "B1",
                GeoPoint::new(0.0, 10.0),
                1,
                1,
                1,
            )
            .unwrap();
        b.link(a, m, 10.0).unwrap();
        let mut topo = b.build(0.0, 1).unwrap();
        let joined =
            topo.add_server(a, rfh_types::RoomId::new(0), rfh_types::RackId::new(0), 1.0).unwrap();
        assert_eq!(joined, ServerId::new(3));
        topo
    }

    /// An oracle written out by hand, not derived from any engine path:
    /// in A the joined s3 absorbs before the lower-id s1, because A's
    /// visit order is its racks' order, not server-id order. Each holds
    /// less capacity than the residual arriving at A, so the split shows
    /// the order: ascending ids would give s1 its full capacity instead.
    #[test]
    fn joined_server_absorbs_in_rack_order_not_id_order() {
        let topo = joined_rack();
        let (s1, s2, s3) = (ServerId::new(1), ServerId::new(2), ServerId::new(3));
        let (p0, p1) = (PartitionId::new(0), PartitionId::new(1));
        let (a, b) = (DatacenterId::new(0), DatacenterId::new(1));
        // Both partitions are held in B and queried only from A.
        let mut view = PlacementView::new(2, 4, vec![s2, s2]);
        view.add_capacity(p0, s2, 100.0);
        view.add_capacity(p0, s1, 7.0);
        view.add_capacity(p0, s3, 6.0);
        view.add_capacity(p1, s2, 100.0);
        view.add_capacity(p1, s1, 3.0);
        view.add_capacity(p1, s3, 2.0);
        let mut load = QueryLoad::zeros(2, 2);
        load.add(p0, a, 10);
        load.add(p1, a, 4);

        let check = |acc: &TrafficAccounts, how: &str| {
            // p0: s3 takes 6 of 10, s1 the remaining 4, nothing reaches B.
            assert_eq!(acc.served_cells(p0), &[(s1, 4.0), (s3, 6.0)], "{how}: p0 split");
            assert_eq!(acc.served(p0, s2), 0.0, "{how}");
            assert_eq!(acc.dc_traffic(p0, a), 10.0, "{how}");
            assert_eq!(acc.dc_traffic(p0, b), 0.0, "{how}");
            // p1: s3 takes 2 of 4, s1 the remaining 2.
            assert_eq!(acc.served_cells(p1), &[(s1, 2.0), (s3, 2.0)], "{how}: p1 split");
            assert_eq!(acc.server_load(s1), 6.0, "{how}");
            assert_eq!(acc.server_load(s3), 8.0, "{how}");
            assert_eq!(acc.server_load(s2), 0.0, "{how}");
            assert_eq!(acc.served_total(), 14.0, "{how}");
            assert_eq!(acc.mean_path_length(), 0.0, "{how}");
        };
        let pool = WorkerPool::new(2);
        check(&compute_traffic(&topo, &load, &view), "compute_traffic");
        check(TrafficEngine::new().account_active(&topo, &load, &view, &[0, 1], None), "serial");
        check(
            TrafficEngine::new().account_active(&topo, &load, &view, &[0, 1], Some(&pool)),
            "pooled",
        );
    }

    #[test]
    fn generation_bump_invalidates_caches() {
        let mut topo = chain();
        let load = sample_load(4, 3);
        let view = sample_view(4, 3);
        let mut engine = TrafficEngine::new();
        engine.account_active(&topo, &load, &view, &all(4), None);
        assert_eq!(engine.generation(), Some(topo.generation()));
        assert!(!engine.sync_topology(&topo), "same generation must not rebuild");

        // Kill the middle server: the engine must notice and match a
        // fresh engine built against the failed topology.
        topo.fail_server(ServerId::new(1)).unwrap();
        assert_ne!(engine.generation(), Some(topo.generation()));
        let stale_refreshed = engine.account_active(&topo, &load, &view, &all(4), None).clone();
        assert_eq!(stale_refreshed, compute_traffic(&topo, &load, &view));
        assert_eq!(engine.generation(), Some(topo.generation()));
    }
}
