//! LU-factorized simplex basis with product-form eta updates.
//!
//! The basis matrices that branch-and-bound produces on the bill-capping
//! MILPs are dominated by slack columns (unit vectors): a 231-row basis
//! typically holds fewer than 40 structural columns. [`BasisFactorization`]
//! exploits that with a two-stage factorization:
//!
//! 1. **Forward triangularization** — repeatedly pivot on columns that
//!    have exactly one entry in the still-active rows. Every slack column
//!    pivots for free, and most structural columns follow once their
//!    neighbours are eliminated. This yields a large permuted
//!    upper-triangular block at zero fill-in.
//! 2. **Dense bump** — whatever small irreducible block remains (usually
//!    a handful of rows) is factorized with dense partial-pivoting LU.
//!
//! Basis changes between refactorizations are absorbed as product-form
//! *eta* matrices (`B = B₀·E₁…Eₖ`), the classic update that
//! Forrest–Tomlin refines; the engine refactorizes from scratch once the
//! eta file grows past its refactorization interval or a pivot looks
//! numerically unstable (see [`crate::revised`] for the policy).
//!
//! A factorization is refactorized in place (`refactor`):
//! the triangular columns, coupling block, eta file and every scratch
//! buffer live in flat vectors that keep their capacity, so a long-lived
//! engine factorizes and solves without touching the allocator once its
//! buffers have grown to the basis size.

/// A pivot too small to divide by — the basis is numerically singular.
const SINGULAR_EPS: f64 = 1e-10;

/// Eta entries smaller than this are dropped from the product form.
const ETA_DROP_EPS: f64 = 1e-12;

/// One product-form update: basis slot `slot` was replaced by a column
/// whose basis-space image (`B⁻¹·a`) was `w`. Applying the inverse eta
/// to a vector costs `O(nnz(w))`.
#[derive(Debug, Clone, Copy)]
struct Eta {
    /// Basis slot whose column was replaced.
    slot: usize,
    /// Off-diagonal entries of `w`, as `(slot, value)` pairs, are
    /// `eta_vals[start..end]`.
    start: usize,
    end: usize,
    /// `w[slot]` — the pivot element; guaranteed away from zero.
    diag: f64,
}

/// Working storage of a factorization that does not outlive it.
#[derive(Debug, Clone, Default)]
struct Scratch {
    row_active: Vec<bool>,
    col_active: Vec<bool>,
    /// How many entries each column has in still-active rows.
    count: Vec<usize>,
    /// Which slots touch each row, for count maintenance:
    /// `row_cols[row_ptr[r]..row_ptr[r + 1]]`, in slot order.
    row_ptr: Vec<usize>,
    row_cols: Vec<usize>,
    /// Singleton columns waiting to pivot.
    queue: Vec<usize>,
    /// `(slot, row)` pivots of the triangular block, in pivot order.
    pivots: Vec<(usize, usize)>,
    /// Original row → permuted position.
    row_pos: Vec<usize>,
    /// The permuted vector FTRAN and BTRAN work on.
    work: Vec<f64>,
}

/// LU factorization of an `m × m` simplex basis, plus the eta file of
/// updates applied since the last refactorization.
///
/// Vectors pass through two index spaces: *row space* (constraint rows,
/// the space of right-hand sides and duals) and *slot space* (positions
/// in the ordered list of basic columns, the space of basic solutions).
/// [`ftran`](Self::ftran) maps row space → slot space (`B·z = b`);
/// [`btran`](Self::btran) maps slot space → row space (`Bᵀ·y = c_B`).
///
/// [`Default`] is the empty, unfactorized state that the solver's
/// in-place refactorization fills.
#[derive(Debug, Clone, Default)]
pub struct BasisFactorization {
    m: usize,
    /// Size of the triangular block.
    t: usize,
    /// Permuted position `k` ↔ original row `row_of[k]`.
    row_of: Vec<usize>,
    /// Permuted position `k` ↔ basis slot `col_of[k]`.
    col_of: Vec<usize>,
    /// Diagonal (pivot) value of triangular column `k < t`.
    tri_diag: Vec<f64>,
    /// Entries above the diagonal of triangular column `k`, as
    /// `(permuted position, value)` with every position strictly smaller
    /// than `k`, are `tri_above[tri_ptr[k]..tri_ptr[k + 1]]`.
    tri_ptr: Vec<usize>,
    tri_above: Vec<(usize, f64)>,
    /// Entries of bump column `t + j` in triangular rows, as
    /// `(permuted position < t, value)`, are `u12[u12_ptr[j]..u12_ptr[j + 1]]`.
    u12_ptr: Vec<usize>,
    u12: Vec<(usize, f64)>,
    /// Dense `nb × nb` bump block, row-major, LU-decomposed in place.
    bump: Vec<f64>,
    /// Bump dimension.
    nb: usize,
    /// Partial-pivoting row swaps for the bump LU.
    ipiv: Vec<usize>,
    /// Product-form updates since factorization, oldest first.
    etas: Vec<Eta>,
    eta_vals: Vec<(usize, f64)>,
    scratch: Scratch,
}

impl BasisFactorization {
    /// Factorizes the basis whose column in slot `s` is the sparse
    /// vector `cols[s]` (row index, value — rows need not be sorted).
    /// Returns `None` when the basis is numerically singular.
    pub fn factor(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<Self> {
        debug_assert_eq!(cols.len(), m);
        let mut f = Self::default();
        f.refactor(m, |s| cols[s].iter().copied()).then_some(f)
    }

    /// Refactorizes in place from scratch: the basis is `m × m` and
    /// `col(s)` yields the `(row, value)` entries of the column in slot
    /// `s`. Clears the eta file. Returns `false` when the basis is
    /// numerically singular; the factorization must then not be used
    /// until a later refactorization succeeds.
    pub(crate) fn refactor<I>(&mut self, m: usize, col: impl Fn(usize) -> I) -> bool
    where
        I: Iterator<Item = (usize, f64)>,
    {
        self.m = m;
        self.etas.clear();
        self.eta_vals.clear();
        let s = &mut self.scratch;
        s.row_active.clear();
        s.row_active.resize(m, true);
        s.col_active.clear();
        s.col_active.resize(m, true);
        s.count.clear();
        s.count.extend((0..m).map(|j| col(j).count()));
        // Row → slot incidence in slot order, by counting sort.
        s.row_ptr.clear();
        s.row_ptr.resize(m + 1, 0);
        for j in 0..m {
            for (r, _) in col(j) {
                debug_assert!(r < m);
                s.row_ptr[r + 1] += 1;
            }
        }
        for r in 0..m {
            s.row_ptr[r + 1] += s.row_ptr[r];
        }
        s.row_cols.clear();
        s.row_cols.resize(s.row_ptr[m], 0);
        s.row_pos.clear();
        s.row_pos.extend_from_slice(&s.row_ptr[..m]); // fill cursors
        for j in 0..m {
            for (r, _) in col(j) {
                s.row_cols[s.row_pos[r]] = j;
                s.row_pos[r] += 1;
            }
        }
        // Seed the singleton queue in slot order for determinism.
        s.queue.clear();
        s.queue.extend((0..m).filter(|&j| s.count[j] == 1));
        s.pivots.clear();
        while let Some(sl) = s.queue.pop() {
            if !s.col_active[sl] || s.count[sl] != 1 {
                continue;
            }
            let Some((r, v)) = col(sl).find(|&(r, _)| s.row_active[r]) else {
                continue;
            };
            if v.abs() <= SINGULAR_EPS {
                // Too small to pivot on; leave this column for the bump,
                // where partial pivoting can judge it. It cannot re-enter
                // the queue (pushes happen only on a transition to 1).
                continue;
            }
            s.pivots.push((sl, r));
            s.col_active[sl] = false;
            s.row_active[r] = false;
            for &s2 in &s.row_cols[s.row_ptr[r]..s.row_ptr[r + 1]] {
                if s.col_active[s2] {
                    s.count[s2] -= 1;
                    if s.count[s2] == 1 {
                        s.queue.push(s2);
                    }
                }
            }
        }

        let t = s.pivots.len();
        self.row_of.clear();
        self.col_of.clear();
        for &(sl, r) in &s.pivots {
            self.col_of.push(sl);
            self.row_of.push(r);
        }
        // Remaining rows/columns become the bump, in index order.
        for (r, &active) in s.row_active.iter().enumerate() {
            if active {
                self.row_of.push(r);
            }
        }
        for (sl, &active) in s.col_active.iter().enumerate() {
            if active {
                self.col_of.push(sl);
            }
        }
        debug_assert_eq!(self.row_of.len(), m);
        debug_assert_eq!(self.col_of.len(), m);
        let nb = m - t;
        self.t = t;
        self.nb = nb;
        for (k, &r) in self.row_of.iter().enumerate() {
            s.row_pos[r] = k;
        }

        // Triangular columns: by construction every non-pivot entry of
        // column `col_of[k]` (k < t) lies in a row pivoted earlier.
        self.tri_diag.clear();
        self.tri_ptr.clear();
        self.tri_above.clear();
        self.tri_ptr.push(0);
        for (k, &(sl, r)) in s.pivots.iter().enumerate() {
            let mut diag = 0.0;
            for (row, v) in col(sl) {
                if row == r {
                    diag = v;
                } else {
                    let p = s.row_pos[row];
                    debug_assert!(p < k, "triangularization produced fill below the diagonal");
                    self.tri_above.push((p, v));
                }
            }
            self.tri_diag.push(diag);
            self.tri_ptr.push(self.tri_above.len());
        }

        // Bump columns: split entries into the triangular coupling block
        // (U12) and the dense bump itself.
        self.u12_ptr.clear();
        self.u12.clear();
        self.u12_ptr.push(0);
        self.bump.clear();
        self.bump.resize(nb * nb, 0.0);
        for k in t..m {
            for (row, v) in col(self.col_of[k]) {
                let p = s.row_pos[row];
                if p < t {
                    self.u12.push((p, v));
                } else {
                    self.bump[(p - t) * nb + (k - t)] = v;
                }
            }
            self.u12_ptr.push(self.u12.len());
        }

        // Dense partial-pivoting LU on the bump, in place.
        let bump = &mut self.bump;
        self.ipiv.clear();
        self.ipiv.resize(nb, 0);
        for k in 0..nb {
            let mut best = k;
            let mut best_abs = bump[k * nb + k].abs();
            for i in k + 1..nb {
                let a = bump[i * nb + k].abs();
                if a > best_abs {
                    best = i;
                    best_abs = a;
                }
            }
            if best_abs <= SINGULAR_EPS {
                return false;
            }
            self.ipiv[k] = best;
            if best != k {
                for j in 0..nb {
                    bump.swap(k * nb + j, best * nb + j);
                }
            }
            let pivot = bump[k * nb + k];
            for i in k + 1..nb {
                let l = bump[i * nb + k] / pivot;
                bump[i * nb + k] = l;
                if l != 0.0 {
                    for j in k + 1..nb {
                        bump[i * nb + j] -= l * bump[k * nb + j];
                    }
                }
            }
        }
        true
    }

    /// Basis dimension.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Size of the dense bump block (diagnostic: 0 means the basis was
    /// fully triangularized).
    pub fn bump_dim(&self) -> usize {
        self.nb
    }

    /// Number of eta updates absorbed since the last factorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Solves `B·z = b`. On input `x` is row-indexed (`b`); on output it
    /// is slot-indexed (`z`, the basic components).
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        self.solve_base(x);
        for eta in &self.etas {
            let zr = x[eta.slot] / eta.diag;
            if zr != 0.0 {
                for &(i, v) in &self.eta_vals[eta.start..eta.end] {
                    x[i] -= v * zr;
                }
            }
            x[eta.slot] = zr;
        }
    }

    /// Solves `Bᵀ·y = c`. On input `x` is slot-indexed (`c_B`); on
    /// output it is row-indexed (`y`, the dual values).
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.slot];
            for &(i, v) in &self.eta_vals[eta.start..eta.end] {
                acc -= x[i] * v;
            }
            x[eta.slot] = acc / eta.diag;
        }
        self.solve_base_transpose(x);
    }

    /// Records a basis change: slot `slot`'s column was replaced by a
    /// column whose FTRAN image is the slot-indexed dense vector `w`.
    /// Returns `false` (and records nothing) when the pivot `w[slot]`
    /// is too small — the caller must refactorize instead.
    #[must_use]
    pub fn push_eta(&mut self, slot: usize, w: &[f64]) -> bool {
        debug_assert_eq!(w.len(), self.m);
        let diag = w[slot];
        if diag.abs() <= SINGULAR_EPS {
            return false;
        }
        let start = self.eta_vals.len();
        self.eta_vals.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &v)| i != slot && v.abs() > ETA_DROP_EPS)
                .map(|(i, &v)| (i, v)),
        );
        self.etas.push(Eta {
            slot,
            start,
            end: self.eta_vals.len(),
            diag,
        });
        true
    }

    /// `B₀·z = b` (no etas): permute, solve the bump, back-substitute
    /// the triangular block.
    // Index loops mirror the textbook LU recurrences over the row-major
    // `bump` (stride arithmetic an iterator form would bury).
    #[allow(clippy::needless_range_loop)]
    fn solve_base(&mut self, x: &mut [f64]) {
        let m = self.m;
        let (t, nb) = (self.t, self.nb);
        let p = &mut self.scratch.work;
        p.clear();
        p.resize(m, 0.0);
        for (k, &r) in self.row_of.iter().enumerate() {
            p[k] = x[r];
        }
        // Bump block: L·U·z₂ = p₂ with partial-pivot swaps.
        if nb > 0 {
            let z2 = &mut p[t..];
            for k in 0..nb {
                z2.swap(k, self.ipiv[k]);
            }
            for k in 0..nb {
                let zk = z2[k];
                if zk != 0.0 {
                    for i in k + 1..nb {
                        z2[i] -= self.bump[i * nb + k] * zk;
                    }
                }
            }
            for k in (0..nb).rev() {
                let mut acc = z2[k];
                for j in k + 1..nb {
                    acc -= self.bump[k * nb + j] * z2[j];
                }
                z2[k] = acc / self.bump[k * nb + k];
            }
            // Substitute the coupling block U12·z₂ out of the
            // triangular right-hand side.
            for j in 0..nb {
                let zj = p[t + j];
                if zj != 0.0 {
                    for &(i, v) in &self.u12[self.u12_ptr[j]..self.u12_ptr[j + 1]] {
                        p[i] -= v * zj;
                    }
                }
            }
        }
        // Triangular back-substitution (positions t-1 .. 0).
        for k in (0..t).rev() {
            let zk = p[k] / self.tri_diag[k];
            p[k] = zk;
            if zk != 0.0 {
                for &(i, v) in &self.tri_above[self.tri_ptr[k]..self.tri_ptr[k + 1]] {
                    p[i] -= v * zk;
                }
            }
        }
        // Emit by slot.
        for (k, &s) in self.col_of.iter().enumerate() {
            x[s] = p[k];
        }
    }

    /// `B₀ᵀ·y = c` (no etas): permute by slot, forward-solve U11ᵀ,
    /// solve the bump transpose, emit by row.
    #[allow(clippy::needless_range_loop)] // see solve_base
    fn solve_base_transpose(&mut self, x: &mut [f64]) {
        let m = self.m;
        let (t, nb) = (self.t, self.nb);
        let p = &mut self.scratch.work;
        p.clear();
        p.resize(m, 0.0);
        for (k, &s) in self.col_of.iter().enumerate() {
            p[k] = x[s];
        }
        // U11ᵀ is lower triangular: forward substitution.
        for k in 0..t {
            let mut acc = p[k];
            for &(i, v) in &self.tri_above[self.tri_ptr[k]..self.tri_ptr[k + 1]] {
                acc -= v * p[i];
            }
            p[k] = acc / self.tri_diag[k];
        }
        if nb > 0 {
            // Couple the solved triangular part into the bump RHS.
            for j in 0..nb {
                let mut acc = p[t + j];
                for &(i, v) in &self.u12[self.u12_ptr[j]..self.u12_ptr[j + 1]] {
                    acc -= v * p[i];
                }
                p[t + j] = acc;
            }
            // (L·U)ᵀ·y₂ = rhs₂: solve Uᵀ (forward), then Lᵀ (backward),
            // then undo the row swaps in reverse.
            let y2 = &mut p[t..];
            for k in 0..nb {
                let mut acc = y2[k];
                for i in 0..k {
                    acc -= self.bump[i * nb + k] * y2[i];
                }
                y2[k] = acc / self.bump[k * nb + k];
            }
            for k in (0..nb).rev() {
                let mut acc = y2[k];
                for i in k + 1..nb {
                    acc -= self.bump[i * nb + k] * y2[i];
                }
                y2[k] = acc;
            }
            for k in (0..nb).rev() {
                y2.swap(k, self.ipiv[k]);
            }
        }
        for (k, &r) in self.row_of.iter().enumerate() {
            x[r] = p[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for reproducible random matrices.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn dense_mul(m: usize, cols: &[Vec<(usize, f64)>], x_by_slot: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for (s, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                out[r] += v * x_by_slot[s];
            }
        }
        out
    }

    fn dense_mul_t(m: usize, cols: &[Vec<(usize, f64)>], y_by_row: &[f64]) -> Vec<f64> {
        (0..m)
            .map(|s| cols[s].iter().map(|&(r, v)| v * y_by_row[r]).sum())
            .collect()
    }

    fn check_roundtrip(m: usize, cols: &[Vec<(usize, f64)>]) {
        let mut f = BasisFactorization::factor(m, cols).expect("nonsingular");
        let mut rng = Rng(42);
        let z_true: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        // FTRAN: b = B z  ⇒  ftran(b) == z.
        let mut b = dense_mul(m, cols, &z_true);
        f.ftran(&mut b);
        for (a, e) in b.iter().zip(&z_true) {
            assert!((a - e).abs() < 1e-9, "ftran mismatch: {a} vs {e}");
        }
        // BTRAN: c = Bᵀ y  ⇒  btran(c) == y.
        let y_true: Vec<f64> = (0..m).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        let mut c = dense_mul_t(m, cols, &y_true);
        f.btran(&mut c);
        for (a, e) in c.iter().zip(&y_true) {
            assert!((a - e).abs() < 1e-9, "btran mismatch: {a} vs {e}");
        }
    }

    #[test]
    fn identity_and_permutation() {
        check_roundtrip(
            4,
            &[
                vec![(0, 1.0)],
                vec![(1, 1.0)],
                vec![(2, 1.0)],
                vec![(3, 1.0)],
            ],
        );
        check_roundtrip(3, &[vec![(2, 1.0)], vec![(0, -1.0)], vec![(1, 2.0)]]);
    }

    #[test]
    fn slack_heavy_basis_has_no_bump() {
        // 5 unit columns and one structural column: fully triangular.
        let cols = vec![
            vec![(0, 1.0)],
            vec![(1, 1.0)],
            vec![(2, 2.0), (0, 1.0), (4, -1.0)],
            vec![(3, 1.0)],
            vec![(4, 1.0)],
        ];
        let f = BasisFactorization::factor(5, &cols).expect("nonsingular");
        assert_eq!(f.bump_dim(), 0);
        check_roundtrip(5, &cols);
    }

    #[test]
    fn dense_random_basis_roundtrips() {
        let mut rng = Rng(7);
        for trial in 0..20 {
            let m = 2 + (trial % 7);
            let cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|s| {
                    (0..m)
                        .filter_map(|r| {
                            let v = rng.next_f64() * 2.0 - 1.0;
                            // Diagonal dominance keeps it honestly nonsingular.
                            let v = if r == s { v + 3.0 } else { v };
                            (v.abs() > 0.3 || r == s).then_some((r, v))
                        })
                        .collect()
                })
                .collect();
            check_roundtrip(m, &cols);
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        assert!(BasisFactorization::factor(2, &cols).is_none());
    }

    #[test]
    fn zero_dimensional_basis() {
        let mut f = BasisFactorization::factor(0, &[]).expect("empty basis is trivially factored");
        assert_eq!(f.dim(), 0);
        f.ftran(&mut []);
        f.btran(&mut []);
    }

    #[test]
    fn eta_updates_match_refactorization() {
        // Start from a basis, replace a column via push_eta, and verify
        // solves match a from-scratch factorization of the new basis.
        let mut cols = vec![
            vec![(0, 1.0)],
            vec![(1, 2.0), (0, 1.0)],
            vec![(2, 1.0), (1, -1.0)],
        ];
        let mut f = BasisFactorization::factor(3, &cols).expect("nonsingular");
        // New column to put in slot 1.
        let newcol = vec![(0, 0.5), (1, 1.0), (2, 2.0)];
        let mut w = vec![0.0; 3];
        for &(r, v) in &newcol {
            w[r] = v;
        }
        f.ftran(&mut w);
        assert!(f.push_eta(1, &w));
        assert_eq!(f.eta_count(), 1);
        cols[1] = newcol;
        let mut fresh = BasisFactorization::factor(3, &cols).expect("nonsingular");
        let mut rng = Rng(99);
        for _ in 0..5 {
            let b: Vec<f64> = (0..3).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let (mut z1, mut z2) = (b.clone(), b.clone());
            f.ftran(&mut z1);
            fresh.ftran(&mut z2);
            for (a, e) in z1.iter().zip(&z2) {
                assert!((a - e).abs() < 1e-9, "eta ftran mismatch: {a} vs {e}");
            }
            let (mut y1, mut y2) = (b.clone(), b);
            f.btran(&mut y1);
            fresh.btran(&mut y2);
            for (a, e) in y1.iter().zip(&y2) {
                assert!((a - e).abs() < 1e-9, "eta btran mismatch: {a} vs {e}");
            }
        }
    }

    #[test]
    fn refactor_in_place_matches_a_fresh_factorization_bitwise() {
        // One factorization object reused across bases of different
        // sizes, with etas and a failed (singular) refactor in between,
        // must solve exactly like a fresh factorization of each basis.
        let bases: Vec<Vec<Vec<(usize, f64)>>> = vec![
            vec![
                vec![(0, 2.0), (1, 1.0)],
                vec![(0, 1.0), (1, 3.0), (2, -1.0)],
                vec![(1, 0.5), (2, 4.0)],
            ],
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            vec![
                vec![(0, 1.0)],
                vec![(1, 2.0), (0, 1.0), (3, 0.25)],
                vec![(2, 1.0)],
                vec![(3, 1.0), (2, -3.0)],
            ],
        ];
        let mut reused = BasisFactorization::default();
        let mut rng = Rng(5);
        for cols in &bases {
            let m = cols.len();
            let ok = reused.refactor(m, |s| cols[s].iter().copied());
            let Some(mut fresh) = BasisFactorization::factor(m, cols) else {
                assert!(!ok, "singular basis must fail in place too");
                continue;
            };
            assert!(ok);
            assert_eq!(reused.eta_count(), 0, "refactor clears the eta file");
            assert_eq!(reused.bump_dim(), fresh.bump_dim());
            let b: Vec<f64> = (0..m).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
            let (mut z1, mut z2) = (b.clone(), b.clone());
            reused.ftran(&mut z1);
            fresh.ftran(&mut z2);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&z1), bits(&z2));
            let (mut y1, mut y2) = (b.clone(), b);
            reused.btran(&mut y1);
            fresh.btran(&mut y2);
            assert_eq!(bits(&y1), bits(&y2));
            // Leave an eta behind for the next refactor to discard.
            let mut w = vec![0.0; m];
            w[0] = 1.0;
            reused.ftran(&mut w);
            assert!(reused.push_eta(0, &w));
        }
    }

    #[test]
    fn tiny_eta_pivot_is_refused() {
        let mut f =
            BasisFactorization::factor(2, &[vec![(0, 1.0)], vec![(1, 1.0)]]).expect("identity");
        let w = vec![1.0, 1e-13];
        assert!(!f.push_eta(1, &w));
        assert_eq!(f.eta_count(), 0);
    }
}
