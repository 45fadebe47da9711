//! Stack-allocated kernels for the hot solve shapes.
//!
//! The paper's positioning systems are tiny — a few dozen pseudorange
//! rows at most, 3–4 unknowns — so the general heap-backed
//! [`crate::Matrix`] path spends a measurable share of every fix on
//! pointer chasing and runtime-dimension bookkeeping. This module holds
//! the kernels that avoid it:
//!
//! * [`Normal3`] / [`Rank1Normal3`] — the 3-unknown normal equations as
//!   scalar accumulators, fed one row at a time (plain OLS, and GLS under
//!   a rank-one-plus-diagonal covariance via Sherman–Morrison). DLO and
//!   the structured DLG form each differenced row on the fly and push it
//!   straight in (the structured DLG with its Ψ diagonal entry), storing
//!   no design matrix; the dense-Ψ DLG whitens each stored row through
//!   Ψ's factor first (`lstsq::gls3_whitened`). Each runs one code path
//!   for every satellite count; `lstsq::ols3` and `lstsq::gls_rank1_into`
//!   share the same accumulators.
//! * [`cholesky_factor`], [`cholesky_forward`], [`cholesky_back`] — the
//!   in-place factor and substitutions; Bancroft factors its 4×4 Gram
//!   with them once for both right-hand sides, and DOP reads the
//!   diagonal of its 4×4 cofactor matrix through them.
//! * [`sym3_eigenvalues`] — cyclic Jacobi on a symmetric 3×3, behind
//!   [`Normal3::condition_number`] (the detail κ telemetry and the
//!   condition-optimal base choice).
//! * [`SMat<M, N>`] / [`SVec<N>`] with [`ols4`] — fixed-capacity storage
//!   and the 4-unknown least-squares step of Newton–Raphson, the one
//!   solver that still keeps two kernels: its Jacobian is rebuilt every
//!   iteration, and at `m ≤` [`STACK_M_CAP`] it solves each step here
//!   instead of through `lstsq::ols_into`. `M`/`N` are **capacities**;
//!   the active row count is a runtime field.
//!
//! # Bit-for-bit parity with the heap path
//!
//! Every kernel here that has a heap counterpart in [`crate::lstsq`] /
//! [`crate::Cholesky`] performs **the same floating-point operations in
//! the same order** as it ([`ols4`] mirrors `ols_into`'s gram + Cholesky
//! chain; [`sym3_eigenvalues`] has no heap counterpart). IEEE-754 arithmetic is
//! deterministic, so on identical inputs the two return bit-identical
//! results and identical errors — a property pinned by the
//! `stack_parity` test suite, which is what makes NR's choice of kernel
//! by `m` invisible to its callers.

use crate::LinalgError;

/// Largest satellite count NR solves its steps with the [`SMat`]
/// kernels; above it NR uses the heap `lstsq` kernels. A full
/// [`SMat<STACK_M_CAP, 4>`] Jacobian is half a KiB of stack.
pub const STACK_M_CAP: usize = 16;

/// Fixed-capacity row-major matrix: `M` rows × `N` columns of storage,
/// with a runtime active-row count `rows ≤ M`. Columns are always fully
/// active (the hot shapes have exactly 3 or 4 columns, so the column
/// capacity *is* the column count).
///
/// `Copy`: ≤ `16 × 4 × 8` bytes at the largest instantiation used by the
/// solvers, cheap to pass by value and trivially reusable without any
/// warm-up allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SMat<const M: usize, const N: usize> {
    rows: usize,
    data: [[f64; N]; M],
}

impl<const M: usize, const N: usize> SMat<M, N> {
    /// A zeroed matrix with `rows` active rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows > M` (capacity overflow is a caller bug; NR
    /// gates on [`STACK_M_CAP`] before building one).
    #[must_use]
    pub fn zeroed(rows: usize) -> Self {
        assert!(rows <= M, "SMat: {rows} rows exceed capacity {M}");
        SMat {
            rows,
            data: [[0.0; N]; M],
        }
    }

    /// Number of active rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (always the full capacity `N`).
    #[must_use]
    pub fn cols(&self) -> usize {
        N
    }

    /// Borrows active row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64; N] {
        assert!(r < self.rows, "SMat: row {r} out of {} active", self.rows);
        &self.data[r]
    }

    /// Mutably borrows active row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64; N] {
        assert!(r < self.rows, "SMat: row {r} out of {} active", self.rows);
        &mut self.data[r]
    }

    /// Borrows the active rows as a slice (bounds-check-free iteration).
    #[must_use]
    pub fn active_rows(&self) -> &[[f64; N]] {
        &self.data[..self.rows]
    }
}

/// Fixed-capacity vector: `N` slots of storage with a runtime active
/// length `len ≤ N`. The stack counterpart of [`crate::Vector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SVec<const N: usize> {
    len: usize,
    data: [f64; N],
}

impl<const N: usize> SVec<N> {
    /// A zeroed vector with `len` active entries.
    ///
    /// # Panics
    ///
    /// Panics if `len > N`.
    #[must_use]
    pub fn zeroed(len: usize) -> Self {
        assert!(len <= N, "SVec: length {len} exceeds capacity {N}");
        SVec {
            len,
            data: [0.0; N],
        }
    }

    /// Number of active entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no entries are active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the active entries.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[..self.len]
    }

    /// Mutably borrows the active entries.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data[..self.len]
    }
}

/// Three-unknown normal equations `G x = c` (`G = AᵀWA`, `c = AᵀWb`)
/// held as nine scalar accumulators — the system every direct-
/// linearization solve reduces to.
///
/// Rows are pushed one at a time, so a caller can form each row from its
/// measurements and never store the design matrix. Every 3-unknown
/// kernel in the crate accumulates and solves through this type, so they
/// all share one per-accumulator summation order and one Cramer tail,
/// and agree to the bit on identical rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Normal3 {
    g00: f64,
    g01: f64,
    g02: f64,
    g11: f64,
    g12: f64,
    g22: f64,
    c0: f64,
    c1: f64,
    c2: f64,
}

impl Normal3 {
    /// Adds row `(x, y, z)` with right-hand side `b` at unit weight.
    #[inline]
    pub fn add_row(&mut self, [x, y, z]: [f64; 3], b: f64) {
        self.g00 += x * x;
        self.g01 += x * y;
        self.g02 += x * z;
        self.g11 += y * y;
        self.g12 += y * z;
        self.g22 += z * z;
        self.c0 += x * b;
        self.c1 += y * b;
        self.c2 += z * b;
    }

    /// Adds row `(x, y, z)` with right-hand side `b` at weight `w`; each
    /// product is formed as `(x·y)·w`.
    #[inline]
    fn add_weighted_row(&mut self, [x, y, z]: [f64; 3], b: f64, w: f64) {
        self.g00 += x * x * w;
        self.g01 += x * y * w;
        self.g02 += x * z * w;
        self.g11 += y * y * w;
        self.g12 += y * z * w;
        self.g22 += z * z * w;
        self.c0 += x * b * w;
        self.c1 += y * b * w;
        self.c2 += z * b * w;
    }

    /// Whether every accumulator is finite.
    fn is_finite(&self) -> bool {
        [
            self.g00, self.g01, self.g02, self.g11, self.g12, self.g22, self.c0, self.c1, self.c2,
        ]
        .iter()
        .all(|v| v.is_finite())
    }

    /// The symmetric matrix `G`, row by row (for diagnostics such as
    /// condition numbers).
    #[must_use]
    pub fn gram(&self) -> [[f64; 3]; 3] {
        [
            [self.g00, self.g01, self.g02],
            [self.g01, self.g11, self.g12],
            [self.g02, self.g12, self.g22],
        ]
    }

    /// Spectral condition number of the design matrix `A` whose normal
    /// matrix this is: `κ₂(A) = √κ₂(G) = √(|λ|max / |λ|min)` from
    /// [`sym3_eigenvalues`], infinite when `G` is singular. `None` when
    /// an entry of `G` is NaN/∞.
    #[must_use]
    pub fn condition_number(&self) -> Option<f64> {
        let lambda = sym3_eigenvalues(&self.gram())?;
        let max = lambda.iter().fold(0.0f64, |m, l| m.max(l.abs()));
        let min = lambda.iter().fold(f64::INFINITY, |m, l| m.min(l.abs()));
        Some(if min > 0.0 {
            (max / min).sqrt()
        } else {
            f64::INFINITY
        })
    }

    /// Solves `G x = c` by Cramer's rule on the symmetric 3×3 system.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when `|det G|` is at most `1e-13` of the
    /// cube of `G`'s largest diagonal entry.
    pub fn solve_cramer(&self) -> crate::Result<[f64; 3]> {
        let Normal3 {
            g00,
            g01,
            g02,
            g11,
            g12,
            g22,
            c0,
            c1,
            c2,
        } = *self;
        let det = g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * g12 - g11 * g02);
        let scale = [g00, g11, g22].into_iter().fold(0.0f64, f64::max);
        if det.abs() <= 1e-13 * scale * scale * scale.max(f64::MIN_POSITIVE) {
            return Err(LinalgError::Singular);
        }
        let x0 = (c0 * (g11 * g22 - g12 * g12) - g01 * (c1 * g22 - g12 * c2)
            + g02 * (c1 * g12 - g11 * c2))
            / det;
        let x1 = (g00 * (c1 * g22 - c2 * g12) - c0 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * c2 - c1 * g02))
            / det;
        let x2 = (g00 * (g11 * c2 - g12 * c1) - g01 * (g01 * c2 - c1 * g02)
            + c0 * (g01 * g12 - g11 * g02))
            / det;
        Ok([x0, x1, x2])
    }
}

/// Sweep cap for [`sym3_eigenvalues`]. Cyclic Jacobi converges
/// quadratically; a 3×3 needs a handful of sweeps.
const JACOBI_MAX_SWEEPS: usize = 32;

/// Eigenvalues of the symmetric 3×3 matrix `a` by cyclic Jacobi
/// rotations, unsorted. Only the upper triangle is read.
///
/// Each sweep rotates the pairs (0,1), (0,2), (1,2) in turn, and the
/// sweeps stop once the off-diagonal Frobenius mass is at most `1e-14`
/// of the largest entry, so by Weyl's inequality every eigenvalue is
/// within that much of exact. Jacobi keeps small eigenvalues accurate
/// relative to the largest one, which is what a condition number needs.
/// `None` when an entry is NaN/∞.
// lint: no_alloc
#[must_use]
pub fn sym3_eigenvalues(a: &[[f64; 3]; 3]) -> Option<[f64; 3]> {
    let [[mut d0, mut o01, mut o02], [_, mut d1, mut o12], [_, _, mut d2]] = *a;
    let upper = [d0, d1, d2, o01, o02, o12];
    if !upper.iter().all(|v| v.is_finite()) {
        return None;
    }
    let scale = upper
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    for _ in 0..JACOBI_MAX_SWEEPS {
        let off = (o01 * o01 + o02 * o02 + o12 * o12).sqrt();
        if off <= 1e-14 * scale {
            break;
        }
        // Rotating (p, q) mixes row/column r, the remaining index.
        jacobi_rotate(&mut d0, &mut d1, &mut o01, &mut o02, &mut o12);
        jacobi_rotate(&mut d0, &mut d2, &mut o02, &mut o01, &mut o12);
        jacobi_rotate(&mut d1, &mut d2, &mut o12, &mut o01, &mut o02);
    }
    Some([d0, d1, d2])
}

/// One Jacobi rotation in the (p, q) plane of a symmetric 3×3: zeroes
/// `apq` and updates the diagonal pair and the entries `arp`, `arq` of
/// the third index, in the stable tangent form (`t = tan φ` as the
/// smaller root, `τ = tan(φ/2)`).
#[inline]
fn jacobi_rotate(app: &mut f64, aqq: &mut f64, apq: &mut f64, arp: &mut f64, arq: &mut f64) {
    let g = *apq;
    if g.abs() <= f64::MIN_POSITIVE {
        return;
    }
    let theta = (*aqq - *app) / (2.0 * g);
    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
    let c = 1.0 / (t * t + 1.0).sqrt();
    let s = t * c;
    let tau = s / (1.0 + c);
    *app -= t * g;
    *aqq += t * g;
    *apq = 0.0;
    let (rp, rq) = (*arp, *arq);
    *arp = rp - s * (rq + tau * rp);
    *arq = rq + s * (rp - tau * rq);
}

/// Structured general least squares for three unknowns under the
/// covariance `M = rank1·𝟙𝟙ᵀ + diag(d)`, accumulated row by row.
///
/// Each row arrives with its diagonal entry `dᵢ`; the accumulator keeps
/// `AᵀD⁻¹A`, `AᵀD⁻¹b`, `u = AᵀD⁻¹𝟙`, `s = 𝟙ᵀD⁻¹b` and `Σ 1/dᵢ`, and
/// [`Rank1Normal3::finish`] applies the Sherman–Morrison correction
/// `G −= γ·uuᵀ`, `c −= γ·s·u` with `γ = rank1 / (1 + rank1·Σ 1/dᵢ)`.
/// `O(m)` work, no matrix of any size stored — the kernel behind
/// `lstsq::gls_rank1_into`'s three-unknown shape and the structured DLG.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rank1Normal3 {
    normal: Normal3,
    u0: f64,
    u1: f64,
    u2: f64,
    s: f64,
    inv_sum: f64,
    rows: usize,
    not_pd: Option<usize>,
}

impl Rank1Normal3 {
    /// Adds row `a` with right-hand side `b` and covariance diagonal
    /// entry `d` (weight `1/d`).
    #[inline]
    pub fn add_row(&mut self, a: [f64; 3], b: f64, d: f64) {
        if (d <= 0.0 || !d.is_finite()) && self.not_pd.is_none() {
            self.not_pd = Some(self.rows);
        }
        let w = 1.0 / d;
        self.inv_sum += w;
        self.normal.add_weighted_row(a, b, w);
        let [x, y, z] = a;
        self.u0 += x * w;
        self.u1 += y * w;
        self.u2 += z * w;
        self.s += b * w;
        self.rows += 1;
    }

    /// Tests `M` for positive definiteness and returns the corrected
    /// normal equations `AᵀM⁻¹A x = AᵀM⁻¹b`, ready for
    /// [`Normal3::solve_cramer`].
    ///
    /// `M` is positive definite iff every `dᵢ > 0` and
    /// `t = 1 + rank1·Σ 1/dᵢ > 0`; both are tested exactly.
    ///
    /// # Errors
    ///
    /// In this order: [`LinalgError::NonFinite`] for a NaN/∞ `rank1`;
    /// [`LinalgError::NotPositiveDefinite`] at the first row with
    /// `dᵢ ≤ 0` (pivot = that row), or for `t ≤ 0` (pivot = last row,
    /// where a dense factorization would generically fail);
    /// [`LinalgError::NonFinite`] if the corrected system overflowed.
    pub fn finish(&self, rank1: f64) -> crate::Result<Normal3> {
        if !rank1.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        if let Some(pivot) = self.not_pd {
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        let t = 1.0 + rank1 * self.inv_sum;
        if t <= 0.0 || !t.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: self.rows.saturating_sub(1),
            });
        }
        let gamma = rank1 / t;
        let (u0, u1, u2, s) = (self.u0, self.u1, self.u2, self.s);
        let mut n = self.normal;
        n.g00 -= gamma * u0 * u0;
        n.g01 -= gamma * u0 * u1;
        n.g02 -= gamma * u0 * u2;
        n.g11 -= gamma * u1 * u1;
        n.g12 -= gamma * u1 * u2;
        n.g22 -= gamma * u2 * u2;
        n.c0 -= gamma * s * u0;
        n.c1 -= gamma * s * u1;
        n.c2 -= gamma * s * u2;
        // On the dense path an accumulation overflow surfaces as
        // NonFinite (the whitened rows are checked); keep that.
        if !n.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        Ok(n)
    }
}

/// Stack mirror of [`crate::lstsq::ols_into`] for the 4-unknown shape
/// (the NR Jacobian): `lstsq::check_system`'s checks in its order, then
/// the 4×4 normal equations (lower triangle) and `Aᵀb`, factored and
/// substituted by the stack Cholesky kernels — the exact operation
/// sequence of the heap path at `n = 4`. Bit-identical results and
/// errors on identical inputs.
///
/// # Errors
///
/// Same conditions as [`crate::lstsq::ols`]
/// ([`LinalgError::NotPositiveDefinite`] for rank-deficient geometry).
// lint: no_alloc
pub fn ols4<const M: usize>(a: &SMat<M, 4>, b: &SVec<M>) -> crate::Result<[f64; 4]> {
    let m = a.rows;
    if m == 0 {
        return Err(LinalgError::EmptyDimension);
    }
    if m < 4 {
        return Err(LinalgError::Underdetermined { rows: m, cols: 4 });
    }
    if b.len != m {
        return Err(LinalgError::ShapeMismatch {
            left: (m, 4),
            right: (b.len, 1),
            op: "ols",
        });
    }
    let finite = |v: &f64| v.is_finite();
    if !a.active_rows().iter().flatten().all(finite) || !b.as_slice().iter().all(finite) {
        return Err(LinalgError::NonFinite);
    }
    let mut gram = SMat::<4, 4>::zeroed(4);
    let mut x = [0.0f64; 4];
    for (row, &bv) in a.active_rows().iter().zip(b.as_slice()) {
        for i in 0..4 {
            let ai = row[i];
            x[i] += ai * bv;
            // Lower triangle of AᵀA is all the factorization reads.
            for (gij, &rj) in gram.data[i][..=i].iter_mut().zip(row) {
                *gij += ai * rj;
            }
        }
    }
    cholesky_factor(&mut gram)?;
    cholesky_forward(&gram, &mut x);
    cholesky_back(&gram, &mut x);
    Ok(x)
}

/// Stack mirror of [`crate::Cholesky::factor_in_place`] over the active
/// `rows × rows` block: on success the lower triangle holds `L` and the
/// strict upper triangle is zeroed. Same pivot tests, same error values,
/// same operation order as the heap kernel.
///
/// # Errors
///
/// Same conditions as [`crate::Cholesky::factor_in_place`] (the
/// not-square case is impossible by construction here).
// lint: no_alloc
pub fn cholesky_factor<const N: usize>(a: &mut SMat<N, N>) -> crate::Result<()> {
    let n = a.rows;
    if n == 0 {
        return Err(LinalgError::EmptyDimension);
    }
    let finite = a.data[..n]
        .iter()
        .all(|row| row[..n].iter().all(|v| v.is_finite()));
    if !finite {
        return Err(LinalgError::NonFinite);
    }
    for j in 0..n {
        // Diagonal entry. Columns k < j of rows ≥ j already hold L.
        let mut d = a.data[j][j];
        for k in 0..j {
            let v = a.data[j][k];
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let dsqrt = d.sqrt();
        a.data[j][j] = dsqrt;
        // Below-diagonal entries of column j.
        for i in (j + 1)..n {
            let mut s = a.data[i][j];
            for k in 0..j {
                s -= a.data[i][k] * a.data[j][k];
            }
            a.data[i][j] = s / dsqrt;
        }
        // Zero the strict upper triangle of row j so the result is a
        // genuine lower-triangular factor.
        for c in (j + 1)..n {
            a.data[j][c] = 0.0;
        }
    }
    Ok(())
}

/// Stack mirror of [`crate::Cholesky::forward_substitute`]: solves
/// `L y = x` in place over the factor's active dimension. The caller
/// guarantees `x.len() == l.rows()` (enforced by construction in every
/// kernel above; debug-checked here), so the heap path's shape error
/// cannot arise.
// lint: no_alloc
pub fn cholesky_forward<const N: usize>(l: &SMat<N, N>, x: &mut [f64]) {
    let n = l.rows;
    debug_assert!(x.len() >= n, "cholesky_forward: rhs shorter than factor");
    for i in 0..n {
        let row = &l.data[i];
        let mut s = x[i];
        for (j, xv) in x[..i].iter().enumerate() {
            s -= row[j] * xv;
        }
        x[i] = s / row[i];
    }
}

/// Stack mirror of [`crate::Cholesky::back_substitute`]: solves
/// `Lᵀ x = y` in place over the factor's active dimension. Shape
/// preconditions as for [`cholesky_forward`].
// lint: no_alloc
pub fn cholesky_back<const N: usize>(l: &SMat<N, N>, x: &mut [f64]) {
    let n = l.rows;
    debug_assert!(x.len() >= n, "cholesky_back: rhs shorter than factor");
    for i in (0..n).rev() {
        let mut s = x[i];
        for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
            s -= l.data[j][i] * xj;
        }
        x[i] = s / l.data[i][i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smat4(rows: &[[f64; 4]]) -> SMat<STACK_M_CAP, 4> {
        let mut a = SMat::zeroed(rows.len());
        for (r, row) in rows.iter().enumerate() {
            a.row_mut(r).copy_from_slice(row);
        }
        a
    }

    fn svec(vals: &[f64]) -> SVec<STACK_M_CAP> {
        let mut v = SVec::zeroed(vals.len());
        v.as_mut_slice().copy_from_slice(vals);
        v
    }

    #[test]
    fn accessors_and_capacity() {
        let a = SMat::<8, 3>::zeroed(5);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.active_rows().len(), 5);
        let v = SVec::<8>::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice().len(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_overflow_panics() {
        let _ = SMat::<4, 3>::zeroed(5);
    }

    #[test]
    fn ols4_solves_exact_system() {
        let mut a = SMat::<STACK_M_CAP, 4>::zeroed(5);
        let truth = [2.0, -1.0, 0.5, 4.0];
        let mut b = SVec::<STACK_M_CAP>::zeroed(5);
        let rows = [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
        ];
        for (r, row) in rows.iter().enumerate() {
            a.row_mut(r).copy_from_slice(row);
            b.as_mut_slice()[r] = row.iter().zip(truth).map(|(c, t)| c * t).sum();
        }
        let x = ols4(&a, &b).unwrap();
        for (got, want) in x.iter().zip(truth) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn error_paths_match_heap_semantics() {
        // Underdetermined.
        let a = smat4(&[[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 1.0]]);
        assert_eq!(
            ols4(&a, &svec(&[1.0, 2.0])).unwrap_err(),
            LinalgError::Underdetermined { rows: 2, cols: 4 }
        );
        // Length mismatch.
        let a = smat4(&[[1.0; 4]; 4]);
        assert!(matches!(
            ols4(&a, &svec(&[1.0; 3])).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        // Non-finite.
        let mut a = smat4(&[[1.0; 4]; 4]);
        a.row_mut(2)[1] = f64::NAN;
        assert_eq!(
            ols4(&a, &svec(&[1.0; 4])).unwrap_err(),
            LinalgError::NonFinite
        );
        // Singular geometry, through the Cholesky pivot and through
        // Cramer's determinant test.
        let a = smat4(&[[1.0, 0.0, 0.0, 1.0]; 4]);
        assert!(matches!(
            ols4(&a, &svec(&[1.0; 4])).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
        let mut normal = Normal3::default();
        for _ in 0..4 {
            normal.add_row([1.0, 0.0, 0.0], 1.0);
        }
        assert_eq!(normal.solve_cramer().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rank1_normal3_reduces_to_ols_and_guards_definiteness() {
        let rows = [
            [2.0, 1.0, 0.5],
            [0.3, 1.5, -0.2],
            [-1.0, 0.4, 2.0],
            [0.8, -0.6, 1.1],
        ];
        let b = [1.0, -2.0, 0.5, 3.0];
        let with_diag = |diag: [f64; 4]| {
            let mut acc = Rank1Normal3::default();
            for ((&row, &bv), d) in rows.iter().zip(&b).zip(diag) {
                acc.add_row(row, bv, d);
            }
            acc
        };
        // rank1 = 0 with a unit diagonal is plain OLS, to the bit.
        let structured = with_diag([1.0; 4])
            .finish(0.0)
            .unwrap()
            .solve_cramer()
            .unwrap();
        let mut plain = Normal3::default();
        for (&row, &bv) in rows.iter().zip(&b) {
            plain.add_row(row, bv);
        }
        for (s, o) in structured.iter().zip(plain.solve_cramer().unwrap()) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
        assert_eq!(
            with_diag([1.0, -1.0, 1.0, 0.0]).finish(1.0).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 1 }
        );
        assert_eq!(
            with_diag([1.0; 4]).finish(-0.5).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 3 }
        );
        assert_eq!(
            with_diag([1.0; 4]).finish(f64::NAN).unwrap_err(),
            LinalgError::NonFinite
        );
    }

    #[test]
    fn sym3_eigenvalues_of_known_matrices() {
        let sorted = |a: &[[f64; 3]; 3]| {
            let mut l = sym3_eigenvalues(a).unwrap();
            l.sort_by(f64::total_cmp);
            l
        };
        // Diagonal: no rotation, the entries themselves.
        let diag = [[3.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 7.0]];
        assert_eq!(sorted(&diag), [-1.0, 3.0, 7.0]);
        // [[2,1,0],[1,2,0],[0,0,5]] has eigenvalues 1, 3, 5.
        let block = [[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]];
        for (got, want) in sorted(&block).iter().zip([1.0, 3.0, 5.0]) {
            assert!((got - want).abs() < 1e-14, "{got} vs {want}");
        }
        // The all-ones matrix is singular: eigenvalues 0, 0, 3.
        let ones = [[1.0; 3]; 3];
        let l = sorted(&ones);
        assert!(l[0].abs() < 1e-14 && l[1].abs() < 1e-14);
        assert!((l[2] - 3.0).abs() < 1e-14);
        // Only the upper triangle is read.
        let mut poisoned = block;
        poisoned[1][0] = 999.0;
        assert_eq!(sorted(&poisoned), sorted(&block));
        let mut nan = block;
        nan[0][2] = f64::NAN;
        assert_eq!(sym3_eigenvalues(&nan), None);
    }

    #[test]
    fn normal3_condition_number() {
        let with_rows = |rows: &[[f64; 3]]| {
            let mut n = Normal3::default();
            for &row in rows {
                n.add_row(row, 0.0);
            }
            n.condition_number()
        };
        // Singular values 4, 2, 1 → κ(A) = 4.
        let kappa = with_rows(&[[4.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]).unwrap();
        assert!((kappa - 4.0).abs() < 1e-12, "kappa {kappa}");
        // Rank-deficient design: the zero column makes G singular.
        assert_eq!(
            with_rows(&[[1.0, 2.0, 0.0], [3.0, 1.0, 0.0]]),
            Some(f64::INFINITY)
        );
        assert_eq!(with_rows(&[[f64::INFINITY, 0.0, 0.0]]), None);
    }

    #[test]
    fn cholesky_factor_rejects_bad_input() {
        assert_eq!(
            cholesky_factor(&mut SMat::<4, 4>::zeroed(0)).unwrap_err(),
            LinalgError::EmptyDimension
        );
        let mut indefinite = SMat::<4, 4>::zeroed(2);
        indefinite.row_mut(0).copy_from_slice(&[1.0, 2.0, 0.0, 0.0]);
        indefinite.row_mut(1).copy_from_slice(&[2.0, 1.0, 0.0, 0.0]);
        assert!(matches!(
            cholesky_factor(&mut indefinite).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
        let mut nan = SMat::<4, 4>::zeroed(1);
        nan.row_mut(0)[0] = f64::NAN;
        assert_eq!(
            cholesky_factor(&mut nan).unwrap_err(),
            LinalgError::NonFinite
        );
    }
}
