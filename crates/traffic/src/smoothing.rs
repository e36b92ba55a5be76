//! EWMA state of eqs. (9)–(11).
//!
//! "In order to compensate for steep changes of the query rate, we take
//! historical data into account and use a smoothing factor α":
//!
//! ```text
//! q̄_it  = α·q̄_i(t−1)  + (1 − α)·q_it         (eq. 10)
//! t̄r_ikt = α·t̄r_ik(t−1) + (1 − α)·tr_ikt      (eq. 11)
//! ```
//!
//! One smoother instance holds the per-partition smoothed system query
//! average and the per-(partition, datacenter) smoothed traffic the
//! decision thresholds (eqs. 12, 13, 15) compare against. The traffic
//! state is partition-major like the accounts it folds, so a sparse
//! update touches one contiguous run of cells per active partition.

use crate::absorption::TrafficAccounts;
use rfh_types::{DatacenterId, PartitionId};
use rfh_workload::QueryLoad;

/// Smoothed query and traffic state across epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSmoother {
    alpha: f64,
    partitions: usize,
    dcs: usize,
    /// Smoothed `q̄_it` per partition; NaN marks "no observation yet".
    q_avg: Vec<f64>,
    /// Smoothed `t̄r_ikt`, `[partition][dc]` flattened; NaN marks unset.
    traffic: Vec<f64>,
    /// Smoothed forwarding traffic (outflow), same layout.
    outflow: Vec<f64>,
    /// The pass at which each partition's cells were last brought
    /// current (0 = never).
    stamps: Vec<u64>,
    /// Number of [`update_active`](Self::update_active) passes so far.
    pass: u64,
    /// Pass at which each datacenter's history was last forgotten via
    /// [`reset_dc`](Self::reset_dc) (0 = never). Caps the zero-fold gap
    /// for that datacenter's cells: zeros before the reset are moot.
    dc_reset_pass: Vec<u64>,
}

impl TrafficSmoother {
    /// New smoother for the given shape and smoothing factor α.
    pub fn new(partitions: u32, dcs: u32, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha.is_finite(),
            "alpha must be in [0, 1], got {alpha}"
        );
        TrafficSmoother {
            alpha,
            partitions: partitions as usize,
            dcs: dcs as usize,
            q_avg: vec![f64::NAN; partitions as usize],
            traffic: vec![f64::NAN; dcs as usize * partitions as usize],
            outflow: vec![f64::NAN; dcs as usize * partitions as usize],
            stamps: vec![0; partitions as usize],
            pass: 0,
            dc_reset_pass: vec![0; dcs as usize],
        }
    }

    fn smooth(alpha: f64, prev: f64, obs: f64) -> f64 {
        if prev.is_nan() {
            obs
        } else {
            alpha * prev + (1.0 - alpha) * obs
        }
    }

    /// Fold one epoch's raw observations into the smoothed state, for
    /// the `active` partitions only (sorted ascending, deduplicated),
    /// catching each one's cells up over the epochs it sat untouched
    /// first.
    ///
    /// An inactive partition carries no load and no traffic, so folding
    /// it epoch by epoch would feed its cells exact-zero observations.
    /// Those zero steps are folded lazily here via
    /// [`rfh_stats::decay_zeros`], which is bit-identical to the
    /// explicit recurrence — a smoother driven by `update_active` with
    /// supersets of the touched partitions equals one that folds every
    /// partition every epoch, bit for bit, on every cell a decision ever
    /// reads (cells of partitions that were *never* active stay lazily
    /// unfolded until first activation). The unit tests check this
    /// against a step-by-step fold.
    pub fn update_active(&mut self, load: &QueryLoad, accounts: &TrafficAccounts, active: &[u32]) {
        debug_assert_eq!(load.partitions() as usize, self.partitions);
        debug_assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "active set must be sorted ascending and deduplicated"
        );
        self.pass += 1;
        let alpha = self.alpha;
        for &pu in active {
            let p = pu as usize;
            // Zero observations a step-by-step fold would have applied
            // since this partition's cells were last brought current.
            let stamp = self.stamps[p];
            let gap = self.pass - 1 - stamp;
            self.stamps[p] = self.pass;

            let obs = load.system_average(PartitionId::new(pu));
            Self::fold_gap(alpha, &mut self.q_avg[p], gap);
            self.q_avg[p] = Self::smooth(alpha, self.q_avg[p], obs);

            let tr = accounts.dc_traffic.row(p);
            let of = accounts.dc_outflow.row(p);
            for dc in 0..self.dcs {
                // A reset_dc wipes the cell to NaN; zero steps *before*
                // the reset are irrelevant, so the fold only covers
                // epochs after the later of the two.
                let dc_gap = (self.pass - 1).saturating_sub(stamp.max(self.dc_reset_pass[dc]));
                let i = p * self.dcs + dc;
                Self::fold_gap(alpha, &mut self.traffic[i], dc_gap);
                self.traffic[i] = Self::smooth(alpha, self.traffic[i], tr[dc]);
                Self::fold_gap(alpha, &mut self.outflow[i], dc_gap);
                self.outflow[i] = Self::smooth(alpha, self.outflow[i], of[dc]);
            }
        }
    }

    /// Apply `gap` zero-observation smoothing steps to one cell, exactly
    /// as `gap` step-by-step folds of a 0.0 observation would have: an
    /// unset (NaN) cell is seeded to 0.0 by the first zero and every
    /// further step keeps it at exactly 0.0.
    fn fold_gap(alpha: f64, cell: &mut f64, gap: u64) {
        if gap == 0 {
            return;
        }
        *cell = if cell.is_nan() { 0.0 } else { rfh_stats::decay_zeros(alpha, *cell, gap) };
    }

    /// Smoothed system query average `q̄_it` for a partition (eq. 10);
    /// zero before any update.
    pub fn q_avg(&self, p: PartitionId) -> f64 {
        let v = self.q_avg[p.index()];
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// Smoothed traffic `t̄r_ikt` of a datacenter for a partition
    /// (eq. 11); zero before any update.
    pub fn traffic(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        let v = self.traffic[p.index() * self.dcs + dc.index()];
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// Smoothed *forwarding* traffic of a datacenter for a partition:
    /// the residual it passes onward after local absorption. This is the
    /// "most forwarding traffic" quantity RFH ranks hubs by (§I); zero
    /// before any update.
    pub fn outflow(&self, dc: DatacenterId, p: PartitionId) -> f64 {
        let v = self.outflow[p.index() * self.dcs + dc.index()];
        if v.is_nan() {
            0.0
        } else {
            v
        }
    }

    /// Average smoothed traffic over all datacenters for a partition —
    /// `t̄r_i` of eq. (17), the migration-benefit baseline.
    pub fn mean_traffic(&self, p: PartitionId) -> f64 {
        if self.dcs == 0 {
            return 0.0;
        }
        let sum: f64 = (0..self.dcs).map(|dc| self.traffic(DatacenterId::new(dc as u32), p)).sum();
        sum / self.dcs as f64
    }

    /// Forget the traffic history of one datacenter (used when all its
    /// servers failed: stale history must not drive decisions after
    /// recovery).
    pub fn reset_dc(&mut self, dc: DatacenterId) {
        for p in 0..self.partitions {
            self.traffic[p * self.dcs + dc.index()] = f64::NAN;
            self.outflow[p * self.dcs + dc.index()] = f64::NAN;
        }
        self.dc_reset_pass[dc.index()] = self.pass;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CellRows, Grid};

    fn p(i: u32) -> PartitionId {
        PartitionId::new(i)
    }
    fn d(i: u32) -> DatacenterId {
        DatacenterId::new(i)
    }

    /// The reference fold: every partition and cell stepped once per
    /// epoch through eqs. (10)–(11), with no stamps and no lazy decay.
    /// It touches only the smoothed cells, so a smoother it drives must
    /// not also be driven through `update_active`.
    fn step_fold(s: &mut TrafficSmoother, load: &QueryLoad, accounts: &TrafficAccounts) {
        for p in 0..s.partitions {
            let obs = load.system_average(PartitionId::new(p as u32));
            s.q_avg[p] = TrafficSmoother::smooth(s.alpha, s.q_avg[p], obs);
        }
        for p in 0..s.partitions {
            let tr = accounts.dc_traffic.row(p);
            let of = accounts.dc_outflow.row(p);
            for dc in 0..s.dcs {
                let i = p * s.dcs + dc;
                s.traffic[i] = TrafficSmoother::smooth(s.alpha, s.traffic[i], tr[dc]);
                s.outflow[i] = TrafficSmoother::smooth(s.alpha, s.outflow[i], of[dc]);
            }
        }
    }

    /// Build a TrafficAccounts with chosen dc_traffic values.
    fn accounts(dcs: usize, parts: usize, cells: &[(usize, usize, f64)]) -> TrafficAccounts {
        let mut dc_traffic = Grid::zeros(parts, dcs);
        for &(dc, pp, v) in cells {
            dc_traffic.row_mut(pp)[dc] = v;
        }
        let mut served = CellRows::default();
        served.reset(parts);
        TrafficAccounts {
            dc_traffic,
            dc_outflow: Grid::zeros(parts, dcs),
            served,
            unserved: vec![0.0; parts],
            holder_dc: vec![DatacenterId::new(0); parts],
            server_loads: vec![0.0; 1],
            hops_weighted: 0.0,
            latency_weighted_ms: 0.0,
            sla_within: 0.0,
            served_total: 0.0,
            unserved_total: 0.0,
        }
    }

    #[test]
    fn before_any_update_everything_is_zero() {
        let s = TrafficSmoother::new(4, 3, 0.2);
        assert_eq!(s.q_avg(p(0)), 0.0);
        assert_eq!(s.traffic(d(2), p(3)), 0.0);
        assert_eq!(s.mean_traffic(p(1)), 0.0);
    }

    #[test]
    fn first_update_initialises_without_bias() {
        let mut s = TrafficSmoother::new(1, 2, 0.2);
        let mut load = QueryLoad::zeros(1, 2);
        load.add(p(0), d(0), 10); // system average = 10/2 = 5
        let acc = accounts(2, 1, &[(0, 0, 8.0), (1, 0, 2.0)]);
        s.update_active(&load, &acc, &[0]);
        assert_eq!(s.q_avg(p(0)), 5.0, "first observation taken as-is");
        assert_eq!(s.traffic(d(0), p(0)), 8.0);
        assert_eq!(s.traffic(d(1), p(0)), 2.0);
        assert_eq!(s.mean_traffic(p(0)), 5.0);
    }

    #[test]
    fn subsequent_updates_follow_eq_10_11() {
        let mut s = TrafficSmoother::new(1, 1, 0.2);
        let mut load = QueryLoad::zeros(1, 1);
        load.add(p(0), d(0), 10);
        s.update_active(&load, &accounts(1, 1, &[(0, 0, 10.0)]), &[0]);
        // Second epoch: zero observation.
        let load2 = QueryLoad::zeros(1, 1);
        s.update_active(&load2, &accounts(1, 1, &[(0, 0, 0.0)]), &[0]);
        // α·prev + (1−α)·obs = 0.2·10 + 0.8·0 = 2.
        assert!((s.q_avg(p(0)) - 2.0).abs() < 1e-12);
        assert!((s.traffic(d(0), p(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reset_dc_forgets_history() {
        let mut s = TrafficSmoother::new(1, 2, 0.5);
        let load = QueryLoad::zeros(1, 2);
        s.update_active(&load, &accounts(2, 1, &[(0, 0, 100.0), (1, 0, 40.0)]), &[0]);
        s.reset_dc(d(0));
        assert_eq!(s.traffic(d(0), p(0)), 0.0);
        assert_eq!(s.traffic(d(1), p(0)), 40.0, "other DCs keep history");
        // The next observation re-initialises rather than smoothing
        // against stale state.
        s.update_active(&load, &accounts(2, 1, &[(0, 0, 10.0), (1, 0, 0.0)]), &[0]);
        assert_eq!(s.traffic(d(0), p(0)), 10.0);
        assert_eq!(s.traffic(d(1), p(0)), 20.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn invalid_alpha_rejected() {
        let _ = TrafficSmoother::new(1, 1, 1.5);
    }

    /// Drive one smoother through the step-by-step reference fold and
    /// one sparsely through the same observation stream and require
    /// bitwise-equal state on every cell the sparse side ever brought
    /// current.
    #[test]
    fn sparse_update_bit_equals_step_fold() {
        let (parts, dcs) = (6u32, 3usize);
        // Epoch → (partition, per-dc traffic) observations. Partitions
        // 4 and 5 stay cold for long stretches; partition 3 is never
        // touched at all.
        let epochs: Vec<Vec<(u32, [f64; 3])>> = vec![
            vec![(0, [8.0, 2.0, 0.0]), (1, [1.0, 0.0, 3.0])],
            vec![(0, [4.0, 4.0, 4.0])],
            vec![],
            vec![(4, [9.0, 0.0, 1.0])],
            vec![(0, [1.0, 1.0, 1.0]), (5, [0.5, 0.25, 0.0])],
            vec![],
            vec![],
            vec![(4, [2.0, 2.0, 2.0]), (1, [0.0, 7.0, 0.0])],
        ];
        let mut reference = TrafficSmoother::new(parts, dcs as u32, 0.2);
        let mut sparse = TrafficSmoother::new(parts, dcs as u32, 0.2);
        for obs in &epochs {
            let mut load = QueryLoad::zeros(parts, dcs as u32);
            let mut cells = Vec::new();
            for &(pp, traffic) in obs {
                load.add(p(pp), d(0), (traffic[0] * 4.0) as u32 + 1);
                for (dc, &v) in traffic.iter().enumerate() {
                    cells.push((dc, pp as usize, v));
                }
            }
            let acc = accounts(dcs, parts as usize, &cells);
            step_fold(&mut reference, &load, &acc);
            let mut active: Vec<u32> = obs.iter().map(|&(pp, _)| pp).collect();
            active.sort_unstable();
            sparse.update_active(&load, &acc, &active);
        }
        // Catch every partition up (an all-active epoch with zero load),
        // then compare all cells bitwise.
        let load = QueryLoad::zeros(parts, dcs as u32);
        let acc = accounts(dcs, parts as usize, &[]);
        step_fold(&mut reference, &load, &acc);
        sparse.update_active(&load, &acc, &[0, 1, 2, 3, 4, 5]);
        for pp in 0..parts {
            assert_eq!(
                sparse.q_avg(p(pp)).to_bits(),
                reference.q_avg(p(pp)).to_bits(),
                "q_avg partition {pp}"
            );
            for dc in 0..dcs as u32 {
                assert_eq!(
                    sparse.traffic(d(dc), p(pp)).to_bits(),
                    reference.traffic(d(dc), p(pp)).to_bits(),
                    "traffic dc {dc} partition {pp}"
                );
                assert_eq!(
                    sparse.outflow(d(dc), p(pp)).to_bits(),
                    reference.outflow(d(dc), p(pp)).to_bits(),
                    "outflow dc {dc} partition {pp}"
                );
            }
        }
    }

    /// `reset_dc` between sparse passes: cells wiped mid-gap must not
    /// fold pre-reset zeros, exactly like the step-by-step fold.
    #[test]
    fn sparse_update_matches_step_fold_across_dc_reset() {
        let (parts, dcs) = (3u32, 2usize);
        let mut reference = TrafficSmoother::new(parts, dcs as u32, 0.5);
        let mut sparse = TrafficSmoother::new(parts, dcs as u32, 0.5);
        let seed = accounts(dcs, parts as usize, &[(0, 0, 32.0), (1, 0, 16.0), (0, 2, 8.0)]);
        let mut load = QueryLoad::zeros(parts, dcs as u32);
        load.add(p(0), d(0), 6);
        load.add(p(2), d(1), 2);
        step_fold(&mut reference, &load, &seed);
        sparse.update_active(&load, &seed, &[0, 2]);

        // Partitions go quiet, then DC 0 loses its history.
        let quiet = accounts(dcs, parts as usize, &[]);
        let none = QueryLoad::zeros(parts, dcs as u32);
        step_fold(&mut reference, &none, &quiet);
        step_fold(&mut reference, &none, &quiet);
        sparse.update_active(&none, &quiet, &[]);
        sparse.update_active(&none, &quiet, &[]);
        reference.reset_dc(d(0));
        sparse.reset_dc(d(0));

        // Partition 0 reactivates on the very next pass (the seed-vs-
        // fold edge), partition 2 only one pass later.
        let obs = accounts(dcs, parts as usize, &[(0, 0, 4.0), (1, 0, 4.0)]);
        load.clear();
        load.add(p(0), d(0), 4);
        step_fold(&mut reference, &load, &obs);
        sparse.update_active(&load, &obs, &[0]);
        let late = accounts(dcs, parts as usize, &[(0, 2, 2.0)]);
        let mut load2 = QueryLoad::zeros(parts, dcs as u32);
        load2.add(p(2), d(0), 2);
        step_fold(&mut reference, &load2, &late);
        sparse.update_active(&load2, &late, &[2]);

        // Catch every cell up before comparing: sparse cells are stale
        // by design until their partition next activates.
        let none2 = QueryLoad::zeros(parts, dcs as u32);
        step_fold(&mut reference, &none2, &quiet);
        sparse.update_active(&none2, &quiet, &[0, 1, 2]);

        for pp in [0u32, 2] {
            for dc in 0..dcs as u32 {
                assert_eq!(
                    sparse.traffic(d(dc), p(pp)).to_bits(),
                    reference.traffic(d(dc), p(pp)).to_bits(),
                    "traffic dc {dc} partition {pp}"
                );
            }
            assert_eq!(sparse.q_avg(p(pp)).to_bits(), reference.q_avg(p(pp)).to_bits());
        }
    }
}
