use crate::{LinalgError, Matrix, Vector};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// This is the fast path for the normal equations of ordinary least squares
/// (`AᵀA x = Aᵀb`, paper eq. 4-12) and for applying the inverse covariance
/// in general least squares (`M⁻¹`, paper eq. 4-21): the covariance Ψ of
/// eq. 4-26 is proven positive definite by the paper's Theorem 4.2, so
/// Cholesky always applies there.
///
/// # Example
///
/// ```
/// use gps_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&Vector::from_slice(&[6.0, 5.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor; entries above the diagonal are zero.
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::EmptyDimension`] if `a` is 0×0.
    /// * [`LinalgError::NonFinite`] if `a` contains NaN/∞.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
    pub fn new(a: &Matrix) -> crate::Result<Self> {
        let mut l = a.clone();
        Cholesky::factor_in_place(&mut l)?;
        Ok(Cholesky { l })
    }

    /// Factors a symmetric positive-definite matrix **in place**: on
    /// success `a` holds the lower-triangular factor `L` (strict upper
    /// triangle zeroed).
    ///
    /// This is the allocation-free core of [`Cholesky::new`], exposed for
    /// callers that keep a reusable scratch matrix across solves (the
    /// `lstsq::*_into` entry points). Only the lower triangle of the input
    /// is read. On error the contents of `a` are unspecified.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::new`].
    // lint: no_alloc
    pub fn factor_in_place(a: &mut Matrix) -> crate::Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::EmptyDimension);
        }
        if !a.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        for j in 0..n {
            // Diagonal entry. Columns k < j of rows ≥ j already hold L.
            let mut d = a[(j, j)];
            for k in 0..j {
                let v = a[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dsqrt = d.sqrt();
            a[(j, j)] = dsqrt;
            // Below-diagonal entries of column j.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= a[(i, k)] * a[(j, k)];
                }
                a[(i, j)] = s / dsqrt;
            }
            // Zero the strict upper triangle of row j so the result is a
            // genuine lower-triangular factor.
            for c in (j + 1)..n {
                a[(j, c)] = 0.0;
            }
        }
        Ok(())
    }

    /// Forward-substitutes `L y = x` in place, overwriting `x` with `y`,
    /// for a lower-triangular factor `l` (as produced by
    /// [`Cholesky::factor_in_place`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != l.rows()`.
    // lint: no_alloc
    pub fn forward_substitute(l: &Matrix, x: &mut [f64]) -> crate::Result<()> {
        let n = l.rows();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "cholesky forward_substitute",
            });
        }
        for i in 0..n {
            let row = l.row(i);
            let mut s = x[i];
            for (j, xv) in x[..i].iter().enumerate() {
                s -= row[j] * xv;
            }
            x[i] = s / row[i];
        }
        Ok(())
    }

    /// Back-substitutes `Lᵀ x = y` in place, overwriting `y` with `x`.
    ///
    /// Combined with [`Cholesky::forward_substitute`] this solves
    /// `L Lᵀ x = b` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != l.rows()`.
    // lint: no_alloc
    pub fn back_substitute(l: &Matrix, x: &mut [f64]) -> crate::Result<()> {
        let n = l.rows();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "cholesky back_substitute",
            });
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= l[(j, i)] * x[j];
            }
            x[i] = s / l[(i, i)];
        }
        Ok(())
    }

    /// Forward-substitutes `L Y = X` in place across every column of `x`
    /// (the whitening transform `X ← L⁻¹ X` used by generalized least
    /// squares), for a lower-triangular factor `l`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.rows() != l.rows()`.
    // lint: no_alloc
    pub fn forward_substitute_matrix(l: &Matrix, x: &mut Matrix) -> crate::Result<()> {
        let n = l.rows();
        if x.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: x.shape(),
                op: "cholesky forward_substitute_matrix",
            });
        }
        let cols = x.cols();
        for i in 0..n {
            for j in 0..i {
                let lij = l[(i, j)];
                for c in 0..cols {
                    let v = x[(j, c)];
                    x[(i, c)] -= lij * v;
                }
            }
            let d = l[(i, i)];
            for c in 0..cols {
                x[(i, c)] /= d;
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[must_use]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> crate::Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
                op: "cholesky solve",
            });
        }
        // Forward: L y = b.
        let mut y = b.clone();
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = y;
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * x[j];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> crate::Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: b.shape(),
                op: "cholesky solve_matrix",
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let x = self.solve(&b.col(c))?;
            for r in 0..n {
                out[(r, c)] = x[r];
            }
        }
        Ok(out)
    }

    /// Computes `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Cholesky::solve_matrix`]; cannot fail in
    /// practice for a successfully constructed factorization.
    pub fn inverse(&self) -> crate::Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I is SPD for any B.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, 2.0], &[3.0, 0.0, 1.0]]).unwrap();
        &b.gram() + &Matrix::identity(3)
    }

    #[test]
    fn reconstruction() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.l();
        let reconstructed = l.matmul(&l.transpose()).unwrap();
        assert!((&reconstructed - &a).norm_max() < 1e-10);
    }

    #[test]
    fn factor_is_lower_triangular() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let l = chol.l();
        for r in 0..3 {
            for c in (r + 1)..3 {
                assert_eq!(l[(r, c)], 0.0);
            }
        }
    }

    #[test]
    fn solve_recovers_exact_solution() {
        let a = spd3();
        let x_true = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        assert!((&x - &x_true).norm_inf() < 1e-10);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        assert_eq!(
            Cholesky::new(&Matrix::zeros(0, 0)).unwrap_err(),
            LinalgError::EmptyDimension
        );
        let mut m = Matrix::identity(2);
        m[(1, 1)] = f64::INFINITY;
        assert_eq!(Cholesky::new(&m).unwrap_err(), LinalgError::NonFinite);
    }

    #[test]
    fn inverse_round_trip() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!((&prod - &Matrix::identity(3)).norm_max() < 1e-10);
    }

    #[test]
    fn whitened_gram_is_identity() {
        // L⁻¹ A = Lᵀ when A = L Lᵀ.
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let mut w = a.clone();
        Cholesky::forward_substitute_matrix(chol.l(), &mut w).unwrap();
        assert!((&w - &chol.l().transpose()).norm_max() < 1e-10);
    }

    #[test]
    fn solve_shape_mismatch() {
        let chol = Cholesky::new(&Matrix::identity(2)).unwrap();
        assert!(chol.solve(&Vector::zeros(3)).is_err());
        assert!(chol.solve_matrix(&Matrix::zeros(3, 2)).is_err());
        let mut wrong = Matrix::zeros(3, 2);
        assert!(Cholesky::forward_substitute_matrix(chol.l(), &mut wrong).is_err());
    }
}
