//! Dense and sparse 2-D arrays.
//!
//! The traffic pass is the simulator's hot loop. Its per-partition
//! state has two shapes:
//!
//! * [`Grid`] — a dense, flat `rows × cols` matrix for axes that are
//!   small and fully populated (partitions × datacenters, stored
//!   partition-major so one partition's cells sit on one row);
//! * [`CellRows`] — one short row of `(server, value)` cells per
//!   partition, ascending by server id, for the server axis. A
//!   partition has a handful of replica servers out of the cluster's
//!   hundred, so a dense partitions × servers matrix would be almost all
//!   zeros and every per-partition walk would cost O(servers).

use rfh_types::ServerId;

/// A dense row-major 2-D array of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid {
    /// Zero-filled grid.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Grid { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {}×{}",
            self.rows,
            self.cols
        );
        r * self.cols + c
    }

    /// Read one cell.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[self.idx(r, c)]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Reshape to `rows × cols` and zero every cell, reusing the
    /// backing allocation when it is already large enough.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }
}

/// Sparse rows over the server axis: for each row (a partition), the
/// servers with a non-zero value and that value, ascending by server id.
/// A server without a cell reads as 0.0.
///
/// Emptied rows keep their allocation, so a reused `CellRows` stops
/// allocating once every row has reached its working size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellRows {
    rows: Vec<Vec<(ServerId, f64)>>,
}

impl CellRows {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// One row's cells, ascending by server id.
    #[inline]
    pub fn row(&self, r: usize) -> &[(ServerId, f64)] {
        &self.rows[r]
    }

    /// The value at `(r, s)`; 0.0 without a cell.
    #[inline]
    pub fn get(&self, r: usize, s: ServerId) -> f64 {
        self.rows[r].iter().find(|c| c.0 == s).map_or(0.0, |c| c.1)
    }

    /// Add `v` to the cell `(r, s)`, creating it in server order if it
    /// does not exist. Returns whether a cell was created. Callers only
    /// add positive values, so every cell stays positive.
    #[inline]
    pub fn add(&mut self, r: usize, s: ServerId, v: f64) -> bool {
        let row = &mut self.rows[r];
        match row.iter().position(|c| c.0 >= s) {
            Some(i) if row[i].0 == s => {
                row[i].1 += v;
                false
            }
            Some(i) => {
                row.insert(i, (s, v));
                true
            }
            None => {
                row.push((s, v));
                true
            }
        }
    }

    /// Remove every cell of one row, returning how many there were.
    #[inline]
    pub fn clear_row(&mut self, r: usize) -> usize {
        let n = self.rows[r].len();
        self.rows[r].clear();
        n
    }

    /// Reshape to `rows` empty rows, reusing row allocations.
    pub fn reset(&mut self, rows: usize) {
        self.rows.truncate(rows);
        for row in &mut self.rows {
            row.clear();
        }
        self.rows.resize_with(rows, Vec::new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let g = Grid::zeros(3, 4);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.get(2, 3), 0.0);
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut g = Grid::zeros(2, 2);
        g.row_mut(1)[1] = 9.0;
        g.reset(3, 4);
        assert_eq!((g.rows(), g.cols()), (3, 4));
        assert!(g.row(2).iter().all(|&v| v == 0.0));
        g.row_mut(2)[3] = 1.0;
        g.reset(2, 2);
        assert_eq!((g.rows(), g.cols()), (2, 2));
        assert_eq!(g.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut g = Grid::zeros(2, 3);
        g.row_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.get(1, 2), 3.0);
        assert_eq!(g.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn out_of_bounds_panics_in_debug() {
        let g = Grid::zeros(2, 2);
        let _ = g.get(2, 0);
    }

    fn s(i: u32) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn cells_stay_in_server_order_and_accumulate() {
        let mut c = CellRows::default();
        c.reset(2);
        assert!(c.add(0, s(7), 1.0));
        assert!(c.add(0, s(2), 2.0));
        assert!(c.add(0, s(9), 3.0));
        assert!(c.add(0, s(5), 4.0));
        assert!(!c.add(0, s(2), 0.5), "an existing cell accumulates");
        assert_eq!(c.row(0), &[(s(2), 2.5), (s(5), 4.0), (s(7), 1.0), (s(9), 3.0)]);
        assert_eq!(c.get(0, s(5)), 4.0);
        assert_eq!(c.get(0, s(6)), 0.0, "no cell reads as zero");
        assert!(c.row(1).is_empty(), "rows are independent");
    }

    #[test]
    fn clear_row_and_reset_empty_the_rows() {
        let mut c = CellRows::default();
        c.reset(3);
        c.add(0, s(1), 1.0);
        c.add(0, s(3), 1.0);
        c.add(2, s(0), 1.0);
        assert_eq!(c.clear_row(0), 2);
        assert!(c.row(0).is_empty());
        c.reset(2);
        assert_eq!(c.rows(), 2);
        assert!(c.row(0).is_empty() && c.row(1).is_empty());
        c.reset(4);
        assert_eq!(c.rows(), 4);
        assert!(c.row(3).is_empty());
    }
}
