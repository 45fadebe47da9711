//! Bit-for-bit parity between the row-at-a-time and stack kernels and the
//! heap `*_into` path they mirror.
//!
//! These kernels promise to perform the same floating-point operations in
//! the same order as the heap kernels, so on identical inputs the two must
//! agree **to the last ULP** — not merely to a tolerance. Every assertion
//! here compares `f64::to_bits`, across seeded random systems: NR's
//! 4-unknown stack step (`ols4`, `M ≤ 16`) and DLG's dense
//! 3-unknown whitening kernel (`lstsq::gls3_whitened`, `M ≤ 40`), plus the
//! error paths (both sides must reject identically).

use gps_linalg::lstsq::{self, GlsStrategy, LstsqScratch};
use gps_linalg::stack::{self, SMat, SVec, STACK_M_CAP};
use gps_linalg::{LinalgError, Matrix, Vector};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

const CASES: usize = 64;

/// A heap matrix and its stack mirror built from the same draws.
fn paired_system<const N: usize>(
    rng: &mut StdRng,
    m: usize,
) -> (Matrix, Vector, SMat<STACK_M_CAP, N>, SVec<STACK_M_CAP>) {
    let mut sa = SMat::<STACK_M_CAP, N>::zeroed(m);
    let mut sb = SVec::<STACK_M_CAP>::zeroed(m);
    let a = Matrix::from_fn(m, N, |r, c| {
        let v = rng.gen_range(-10.0..10.0);
        sa.row_mut(r)[c] = v;
        v
    });
    let b = Vector::from(
        (0..m)
            .map(|r| {
                let v: f64 = rng.gen_range(-10.0..10.0);
                sb.as_mut_slice()[r] = v;
                v
            })
            .collect::<Vec<f64>>(),
    );
    (a, b, sa, sb)
}

fn assert_bits_eq(heap: &[f64], stk: &[f64], what: &str) {
    assert_eq!(heap.len(), stk.len(), "{what}: length mismatch");
    for (i, (h, s)) in heap.iter().zip(stk).enumerate() {
        assert_eq!(
            h.to_bits(),
            s.to_bits(),
            "{what}: component {i} differs: heap {h:e} vs stack {s:e}"
        );
    }
}

#[test]
fn ols4_matches_heap_to_the_last_ulp() {
    let mut rng = StdRng::seed_from_u64(0x57AC_0401);
    for m in 4..=STACK_M_CAP {
        for _ in 0..CASES {
            let (a, b, sa, sb) = paired_system::<4>(&mut rng, m);
            let mut scratch = LstsqScratch::new();
            let mut x = Vector::default();
            let heap = lstsq::ols_into(&a, &b, &mut scratch, &mut x);
            let stk = stack::ols4(&sa, &sb);
            match (heap, stk) {
                (Ok(()), Ok(sol)) => assert_bits_eq(x.as_slice(), &sol, "ols4"),
                (Err(he), Err(se)) => assert_eq!(he, se, "ols4 error parity (m={m})"),
                (h, s) => panic!("ols4 lanes disagree on success (m={m}): {h:?} vs {s:?}"),
            }
        }
    }
}

/// `[A | b]` as the row array `lstsq::gls3_whitened` whitens in place.
fn augmented(a: &Matrix, b: &Vector) -> Vec<[f64; 4]> {
    (0..a.rows())
        .map(|r| {
            let row = a.row(r);
            [row[0], row[1], row[2], b[r]]
        })
        .collect()
}

#[test]
fn gls3_whitened_matches_heap_to_the_last_ulp() {
    let mut rng = StdRng::seed_from_u64(0x57AC_0302);
    for m in 3..=40 {
        for _ in 0..CASES {
            let a = Matrix::from_fn(m, 3, |_, _| rng.gen_range(-10.0..10.0));
            let b = Vector::from(
                (0..m)
                    .map(|_| rng.gen_range(-10.0..10.0))
                    .collect::<Vec<f64>>(),
            );
            // The DLG structure: a common off-diagonal term plus a random
            // diagonal that is sometimes small or negative enough to make
            // the matrix indefinite (error parity).
            let common = rng.gen_range(0.2..2.0);
            let diag: Vec<f64> = (0..m).map(|_| common + rng.gen_range(-0.4..3.0)).collect();
            let cov = Matrix::from_fn(m, m, |r, c| if r == c { diag[r] } else { common });
            let mut scratch = LstsqScratch::new();
            let mut x = Vector::default();
            let heap = lstsq::gls_into(&a, &b, &cov, GlsStrategy::Whitened, &mut scratch, &mut x);
            let mut factor = cov.clone();
            let kernel = lstsq::gls3_whitened(&mut factor, &mut augmented(&a, &b))
                .and_then(|normal| normal.solve_cramer());
            match (heap, kernel) {
                (Ok(()), Ok(sol)) => assert_bits_eq(x.as_slice(), &sol, "gls3_whitened"),
                (Err(he), Err(ke)) => assert_eq!(he, ke, "gls3_whitened error parity (m={m})"),
                (h, k) => panic!("gls3_whitened disagrees on success (m={m}): {h:?} vs {k:?}"),
            }
        }
    }
}

#[test]
fn gls3_whitened_rejects_like_the_heap_path() {
    let a = Matrix::from_fn(5, 3, |r, c| 1.0 + (r * r + c) as f64);
    let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let cov = Matrix::identity(5);
    let both = |a: &Matrix, b: &Vector, cov: &Matrix| {
        let heap = lstsq::gls(a, b, cov).unwrap_err();
        let kernel = lstsq::gls3_whitened(&mut cov.clone(), &mut augmented(a, b)).unwrap_err();
        assert_eq!(heap, kernel);
        heap
    };
    // Too few rows for three unknowns, and none at all.
    let short = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
    both(&short, &Vector::zeros(2), &Matrix::identity(2));
    both(
        &Matrix::zeros(0, 3),
        &Vector::zeros(0),
        &Matrix::identity(0),
    );
    // A NaN in A, then in b: rejected before the covariance is read.
    let mut nan_a = a.clone();
    nan_a[(3, 1)] = f64::NAN;
    assert_eq!(both(&nan_a, &b, &cov), LinalgError::NonFinite);
    let mut nan_b = b.clone();
    nan_b[4] = f64::INFINITY;
    assert_eq!(both(&a, &nan_b, &cov), LinalgError::NonFinite);
    // A covariance of the wrong size, a non-finite one, an indefinite one.
    assert!(matches!(
        both(&a, &b, &Matrix::identity(4)),
        LinalgError::ShapeMismatch { .. }
    ));
    let mut nan_cov = cov.clone();
    nan_cov[(2, 2)] = f64::NAN;
    assert_eq!(both(&a, &b, &nan_cov), LinalgError::NonFinite);
    let mut indefinite = cov.clone();
    indefinite[(3, 3)] = -1.0;
    assert_eq!(
        both(&a, &b, &indefinite),
        LinalgError::NotPositiveDefinite { pivot: 3 }
    );
    // Whitening through a tiny pivot overflows: NonFinite, as the heap
    // path's re-check of the whitened system reports it.
    let mut tiny = Matrix::identity(4);
    tiny[(3, 3)] = 1e-300;
    let big_a = Matrix::from_fn(4, 3, |r, c| 1e200 * (1.0 + (r * 3 + c) as f64));
    let big_b = Vector::from_slice(&[1e200, 2e200, 3e200, 4e200]);
    assert_eq!(both(&big_a, &big_b, &tiny), LinalgError::NonFinite);
}

#[test]
fn cholesky_factor_matches_heap_to_the_last_ulp() {
    let mut rng = StdRng::seed_from_u64(0x57AC_C401);
    for n in 1..=STACK_M_CAP {
        for _ in 0..CASES {
            // SPD input built as BᵀB + εI from shared draws.
            let k = n + 1;
            let bmat = Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0));
            let mut heap = &bmat.gram() + &Matrix::identity(n).scaled(0.5);
            let mut stk = SMat::<STACK_M_CAP, STACK_M_CAP>::zeroed(n);
            for r in 0..n {
                for c in 0..n {
                    stk.row_mut(r)[c] = heap[(r, c)];
                }
            }
            gps_linalg::Cholesky::factor_in_place(&mut heap).unwrap();
            stack::cholesky_factor(&mut stk).unwrap();
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(
                        heap[(r, c)].to_bits(),
                        stk.row(r)[c].to_bits(),
                        "cholesky factor differs at ({r},{c}), n={n}"
                    );
                }
            }
        }
    }
}

#[test]
fn non_finite_and_degenerate_inputs_reject_identically() {
    // NaN in the design matrix.
    let mut sa = SMat::<STACK_M_CAP, 4>::zeroed(5);
    let a = Matrix::from_fn(5, 4, |r, c| {
        let v = if (r, c) == (2, 1) {
            f64::NAN
        } else {
            1.0 + r as f64 + c as f64
        };
        sa.row_mut(r)[c] = v;
        v
    });
    let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
    let mut sb = SVec::<STACK_M_CAP>::zeroed(5);
    sb.as_mut_slice().copy_from_slice(b.as_slice());
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    let heap = lstsq::ols_into(&a, &b, &mut scratch, &mut x).unwrap_err();
    let stk = stack::ols4(&sa, &sb).unwrap_err();
    assert_eq!(heap, stk);

    // Rank-deficient geometry: all rows identical.
    let mut sa = SMat::<STACK_M_CAP, 4>::zeroed(5);
    let a = Matrix::from_fn(5, 4, |_, c| c as f64 + 1.0);
    for r in 0..5 {
        for c in 0..4 {
            sa.row_mut(r)[c] = a[(r, c)];
        }
    }
    let heap = lstsq::ols_into(&a, &b, &mut scratch, &mut x).unwrap_err();
    let stk = stack::ols4(&sa, &sb).unwrap_err();
    assert_eq!(heap, stk);
}
