//! Compressed-sparse-column (CSC) matrix storage for the revised simplex.
//!
//! The revised simplex ([`crate::revised`]) never forms a dense tableau:
//! it keeps the constraint matrix in CSC form and touches one column at a
//! time (pricing needs `aᵀ·y` per column, FTRAN needs one column
//! scattered into a dense right-hand side). The bill-capping MILPs are
//! sparse — each structural column appears in at most four rows (a big-M
//! pair, an exactly-one row and a power identity), and every slack column
//! is a unit vector — so column-wise sparse storage is the natural fit.

/// An `m × n` sparse matrix in compressed-sparse-column form.
///
/// Built by [`crate::revised::RevisedEngine`] when a model structure is
/// first solved. The sparsity pattern never changes afterwards: branch-
/// and-bound only changes variable *bounds*, which the revised
/// formulation keeps out of the matrix, and value edits between solves
/// overwrite stored entries in place.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMat {
    nrows: usize,
    ncols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry.
    row_ix: Vec<usize>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl CscMat {
    /// Builds a matrix from per-column sparse vectors. Entries with the
    /// same row index within a column are summed; exact zeros (including
    /// sums that cancel) are dropped.
    ///
    /// # Panics
    /// Panics if a row index is out of range — columns come from model
    /// constraints that were already validated.
    pub fn from_columns(nrows: usize, columns: &[Vec<(usize, f64)>]) -> Self {
        let ncols = columns.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_ix = Vec::new();
        let mut vals = Vec::new();
        col_ptr.push(0);
        let mut dense: Vec<f64> = vec![0.0; nrows];
        let mut touched: Vec<usize> = Vec::new();
        for col in columns {
            for &(r, v) in col {
                assert!(r < nrows, "row index {r} out of range ({nrows} rows)");
                if dense[r] == 0.0 {
                    touched.push(r);
                }
                dense[r] += v;
            }
            touched.sort_unstable();
            for &r in &touched {
                if dense[r] != 0.0 {
                    row_ix.push(r);
                    vals.push(dense[r]);
                }
                dense[r] = 0.0;
            }
            touched.clear();
            col_ptr.push(row_ix.len());
        }
        Self {
            nrows,
            ncols,
            col_ptr,
            row_ix,
            vals,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_ix[lo..hi], &self.vals[lo..hi])
    }

    /// Sets the entry at row `row` of column `j` to `v` without changing
    /// the sparsity pattern: a stored entry is overwritten, and a zero
    /// written where nothing is stored is a no-op.
    ///
    /// Returns `false` and changes nothing when the edit would change the
    /// pattern: a stored entry set to zero (of either sign) or a nonzero
    /// written where nothing is stored. [`CscMat::from_columns`] stores
    /// exactly the nonzeros, so the caller must rebuild the matrix then.
    pub(crate) fn set_value(&mut self, row: usize, j: usize, v: f64) -> bool {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        match (self.row_ix[lo..hi].binary_search(&row), v != 0.0) {
            (Ok(k), true) => {
                self.vals[lo + k] = v;
                true
            }
            (Err(_), false) => true,
            _ => false,
        }
    }

    /// Dot product of column `j` with a dense row-indexed vector —
    /// the pricing kernel (`rcⱼ = cⱼ − aⱼᵀ·y`).
    pub fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| v * x[r]).sum()
    }

    /// `out += alpha * column j` (dense scatter) — the right-hand-side
    /// assembly kernel for FTRAN.
    pub fn scatter_col(&self, j: usize, alpha: f64, out: &mut [f64]) {
        if alpha == 0.0 {
            return;
        }
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r] += alpha * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_reads_columns() {
        let m = CscMat::from_columns(
            3,
            &[
                vec![(0, 1.0), (2, -2.0)],
                vec![(1, 3.0)],
                vec![],
                vec![(2, 0.5), (0, 4.0)],
            ],
        );
        assert_eq!((m.nrows(), m.ncols(), m.nnz()), (3, 4, 5));
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, -2.0][..]));
        assert_eq!(m.col(2), (&[][..], &[][..]));
        // Entries are sorted by row regardless of insertion order.
        assert_eq!(m.col(3), (&[0usize, 2][..], &[4.0, 0.5][..]));
    }

    #[test]
    fn duplicate_entries_sum_and_zeros_drop() {
        let m = CscMat::from_columns(2, &[vec![(0, 1.0), (0, 2.0), (1, 5.0), (1, -5.0)]]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(0), (&[0usize][..], &[3.0][..]));
    }

    #[test]
    fn set_value_keeps_the_pattern_or_refuses() {
        let mut m = CscMat::from_columns(3, &[vec![(0, 1.0), (2, -2.0)], vec![(1, 3.0)]]);
        assert!(m.set_value(2, 0, 7.5));
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, 7.5][..]));
        // A zero where nothing is stored leaves the pattern as it is.
        assert!(m.set_value(1, 0, 0.0));
        assert!(m.set_value(1, 0, -0.0));
        // Nonzero into a gap, or zero over an entry, would change it.
        assert!(!m.set_value(1, 0, 4.0));
        assert!(!m.set_value(0, 0, 0.0));
        assert!(!m.set_value(1, 1, -0.0));
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, 7.5][..]));
    }

    #[test]
    fn dot_and_scatter() {
        let m = CscMat::from_columns(3, &[vec![(0, 2.0), (2, 3.0)]]);
        assert_eq!(m.col_dot(0, &[1.0, 100.0, 10.0]), 32.0);
        let mut out = vec![0.0; 3];
        m.scatter_col(0, -1.0, &mut out);
        assert_eq!(out, vec![-2.0, 0.0, -3.0]);
        m.scatter_col(0, 0.0, &mut out);
        assert_eq!(out, vec![-2.0, 0.0, -3.0]);
    }
}
