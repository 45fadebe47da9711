use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{LinalgError, Vector};

/// A dense, row-major matrix of `f64` entries.
///
/// This is the workhorse type of the crate: the design matrix `A` of the
/// paper's eq. 4-9, the Jacobian of the Newton–Raphson iteration
/// (eq. 3-29), and the covariance `M` of eq. 4-22 are all `Matrix` values.
///
/// # Example
///
/// ```
/// use gps_linalg::Matrix;
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.transpose();
/// assert_eq!(b[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Row-major storage: entry `(r, c)` lives at `r * cols + c`.
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Example
    ///
    /// ```
    /// use gps_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyDimension`] if `rows` is empty or the
    /// first row is empty, and [`LinalgError::ShapeMismatch`] if rows have
    /// differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> crate::Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::EmptyDimension);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    left: (1, cols),
                    right: (1, row.len()),
                    op: "from_rows",
                });
            }
            let _ = i;
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a function of `(row, col)`.
    ///
    /// # Example
    ///
    /// ```
    /// use gps_linalg::Matrix;
    /// // Hilbert-like matrix.
    /// let h = Matrix::from_fn(2, 2, |r, c| 1.0 / (r + c + 1) as f64);
    /// assert_eq!(h[(1, 1)], 1.0 / 3.0);
    /// ```
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    #[must_use]
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Reshapes the matrix in place to `rows × cols` with every entry set
    /// to zero.
    ///
    /// Unlike [`Matrix::zeros`], the existing heap allocation is reused
    /// whenever its capacity suffices, so resizing a scratch matrix inside
    /// a hot loop is allocation-free after warm-up.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Makes `self` an entry-for-entry copy of `other`, reshaping as
    /// needed.
    ///
    /// Reuses the existing allocation when possible (see
    /// [`Matrix::resize_zeroed`]).
    pub fn copy_from(&mut self, other: &Matrix) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns `true` if every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Returns `true` if the matrix is symmetric within `tol` (absolute).
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vector {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix × matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> crate::Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for c in 0..rhs.cols {
                    out_row[c] += a * rhs_row[c];
                }
            }
        }
        Ok(out)
    }

    /// Matrix × vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != v.len()`.
    pub fn matvec(&self, v: &Vector) -> crate::Result<Vector> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        }))
    }

    /// Computes `Aᵀ A` (the normal-equations Gram matrix) without forming
    /// the transpose explicitly. The result is symmetric positive
    /// semi-definite.
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in (i + 1)..n {
                g[(j, i)] = g[(i, j)];
            }
        }
        g
    }

    /// Computes `Aᵀ v` without forming the transpose explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.rows() != v.len()`.
    pub fn transpose_matvec(&self, v: &Vector) -> crate::Result<Vector> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "transpose_matvec",
            });
        }
        let mut out = Vector::zeros(self.cols);
        for r in 0..self.rows {
            let s = v[r];
            if s == 0.0 {
                continue;
            }
            let row = self.row(r);
            for c in 0..self.cols {
                out[c] += s * row[c];
            }
        }
        Ok(out)
    }

    /// Scales every entry by `s`, returning a new matrix.
    #[must_use]
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Maximum absolute entry.
    #[must_use]
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Infinity norm: maximum absolute row sum.
    #[must_use]
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// The default matrix is empty (`0 × 0`) — a convenient initial value for
/// reusable scratch buffers that are reshaped on first use.
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat2() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = mat2();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.is_square());
        assert_eq!(m[(1, 0)], 3.0);
        assert!(Matrix::zeros(2, 3).row(1).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_rejects_bad_input() {
        assert_eq!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::EmptyDimension
        );
        assert!(matches!(
            Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = mat2();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = mat2();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn matvec_known_product() {
        let m = mat2();
        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.matvec(&v).unwrap().as_slice(), &[3.0, 7.0]);
        assert!(m.matvec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn gram_equals_explicit_ata() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let explicit = a.transpose().matmul(&a).unwrap();
        let g = a.gram();
        assert_eq!(g, explicit);
        assert!(g.is_symmetric(0.0));
    }

    #[test]
    fn transpose_matvec_equals_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let v = Vector::from_slice(&[1.0, -1.0, 2.0]);
        let explicit = a.transpose().matvec(&v).unwrap();
        assert_eq!(a.transpose_matvec(&v).unwrap(), explicit);
        assert!(a.transpose_matvec(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert_eq!(m.norm_max(), 4.0);
        assert_eq!(m.norm_inf(), 4.0);
    }

    #[test]
    fn diagonal_constructor() {
        let d = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = mat2();
        assert!(!a.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = mat2();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
    }

    #[test]
    fn finite_detection() {
        assert!(mat2().is_finite());
        let mut m = mat2();
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }
}
