//! Randomized property tests for the linear-algebra substrate.
//!
//! Ported off `proptest` onto seeded `gps-rng` loops for the offline
//! build; inputs come from deterministic xoshiro256++ streams.

use gps_linalg::stack::sym3_eigenvalues;
use gps_linalg::{lstsq, Cholesky, Matrix, Vector};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

const CASES: usize = 256;

/// A well-scaled `rows × cols` matrix with entries in [-10, 10].
fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen_range(-10.0..10.0))
        .collect();
    Matrix::from_fn(rows, cols, |r, c| data[r * cols + c])
}

fn random_vector(rng: &mut StdRng, n: usize) -> Vector {
    Vector::from(
        (0..n)
            .map(|_| rng.gen_range(-10.0..10.0))
            .collect::<Vec<f64>>(),
    )
}

/// An SPD matrix built as `BᵀB + εI`.
fn random_spd(rng: &mut StdRng, n: usize) -> Matrix {
    let b = random_matrix(rng, n + 1, n);
    &b.gram() + &Matrix::identity(n).scaled(0.5)
}

#[test]
fn cholesky_solve_residual_small() {
    let mut rng = StdRng::seed_from_u64(0x1A_01);
    for _ in 0..CASES {
        let a = random_spd(&mut rng, 4);
        let b = random_vector(&mut rng, 4);
        // SPD by construction, so the factorization must succeed.
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x).unwrap() - &b;
        let scale = 1.0 + b.norm_inf() + a.norm_max() * x.norm_inf();
        assert!(r.norm_inf() / scale < 1e-9, "residual {}", r.norm_inf());
    }
}

#[test]
fn cholesky_inverse_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x1A_02);
    for _ in 0..CASES {
        let a = random_spd(&mut rng, 3);
        let inv = Cholesky::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = (&prod - &Matrix::identity(3)).norm_max();
        assert!(err < 1e-7, "err {err}");
    }
}

#[test]
fn cholesky_reconstructs() {
    let mut rng = StdRng::seed_from_u64(0x1A_03);
    for _ in 0..CASES {
        let a = random_spd(&mut rng, 5);
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.l();
        let rec = l.matmul(&l.transpose()).unwrap();
        let err = (&rec - &a).norm_max() / (1.0 + a.norm_max());
        assert!(err < 1e-10, "err {err}");
    }
}

#[test]
fn cholesky_recovers_exact_solution() {
    let mut rng = StdRng::seed_from_u64(0x1A_04);
    for _ in 0..CASES {
        let a = random_spd(&mut rng, 4);
        let x_true = random_vector(&mut rng, 4);
        let b = a.matvec(&x_true).unwrap();
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let err = (&x - &x_true).norm_inf() / (1.0 + x.norm_inf());
        assert!(err < 1e-8, "err {err}");
    }
}

#[test]
fn ols_exact_recovery() {
    let mut rng = StdRng::seed_from_u64(0x1A_06);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 7, 3);
        let x = random_vector(&mut rng, 3);
        let b = a.matvec(&x).unwrap();
        if let Ok(xh) = lstsq::ols(&a, &b) {
            let err = (&xh - &x).norm_inf() / (1.0 + x.norm_inf());
            assert!(err < 1e-6, "err {err}");
        }
    }
}

#[test]
fn ols_normal_equations_hold() {
    let mut rng = StdRng::seed_from_u64(0x1A_07);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 6, 2);
        let b = random_vector(&mut rng, 6);
        if let Ok(x) = lstsq::ols(&a, &b) {
            // Optimality: Aᵀ(b − Ax) = 0.
            let r = lstsq::residual(&a, &b, &x).unwrap();
            let atr = a.transpose_matvec(&r).unwrap();
            let scale = 1.0 + a.norm_max() * b.norm_inf();
            assert!(atr.norm_inf() / scale < 1e-9, "Aᵀr {}", atr.norm_inf());
        }
    }
}

#[test]
fn gls_identity_equals_ols() {
    let mut rng = StdRng::seed_from_u64(0x1A_08);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 5, 2);
        let b = random_vector(&mut rng, 5);
        let i = Matrix::identity(5);
        if let (Ok(x1), Ok(x2)) = (lstsq::ols(&a, &b), lstsq::gls(&a, &b, &i)) {
            let err = (&x1 - &x2).norm_inf() / (1.0 + x1.norm_inf());
            assert!(err < 1e-8, "err {err}");
        }
    }
}

#[test]
fn gls_whitened_matches_explicit() {
    let mut rng = StdRng::seed_from_u64(0x1A_09);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 5, 2);
        let b = random_vector(&mut rng, 5);
        let m = random_spd(&mut rng, 5);
        match (
            lstsq::gls(&a, &b, &m),
            lstsq::gls_explicit_inverse(&a, &b, &m),
        ) {
            (Ok(x1), Ok(x2)) => {
                let err = (&x1 - &x2).norm_inf() / (1.0 + x1.norm_inf());
                assert!(err < 1e-6, "err {err}");
            }
            (Err(e1), Err(e2)) => assert_eq!(e1, e2),
            (r1, r2) => panic!("disagree: {r1:?} vs {r2:?}"),
        }
    }
}

#[test]
fn gls_optimality_condition() {
    let mut rng = StdRng::seed_from_u64(0x1A_0A);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 6, 3);
        let b = random_vector(&mut rng, 6);
        let m = random_spd(&mut rng, 6);
        if let Ok(x) = lstsq::gls(&a, &b, &m) {
            // Optimality: Aᵀ M⁻¹ (b − Ax) = 0.
            let r = lstsq::residual(&a, &b, &x).unwrap();
            let minv_r = Cholesky::new(&m).unwrap().solve(&r).unwrap();
            let grad = a.transpose_matvec(&minv_r).unwrap();
            let scale = 1.0 + a.norm_max() * b.norm_inf();
            assert!(grad.norm_inf() / scale < 1e-6, "grad {}", grad.norm_inf());
        }
    }
}

/// A uniformly random rotation (unit quaternion from four Gaussians).
fn random_rotation(rng: &mut StdRng) -> [[f64; 3]; 3] {
    let mut q = [0.0f64; 4];
    for v in &mut q {
        // Box–Muller.
        let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
        *v = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
    let norm = q.iter().map(|v| v * v).sum::<f64>().sqrt();
    let [w, x, y, z] = q.map(|v| v / norm);
    [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ]
}

#[test]
fn sym3_eigenvalues_recover_a_constructed_spectrum() {
    let mut rng = StdRng::seed_from_u64(0x1A_0B);
    for case in 0..CASES {
        // κ from 1 to 1e8: λ_max in [1, 1e6], λ_min = λ_max / κ, and
        // the middle eigenvalue anywhere in between.
        let kappa = 10f64.powf(8.0 * case as f64 / (CASES - 1) as f64);
        let lambda_max = 10f64.powf(rng.gen_range(0.0..6.0));
        let lambda_min = lambda_max / kappa;
        let lambda_mid = lambda_min + rng.gen_range(0.0..1.0) * (lambda_max - lambda_min);
        let want = [lambda_max, lambda_min, lambda_mid];
        // A = R·diag(λ)·Rᵀ.
        let r = random_rotation(&mut rng);
        let mut a = [[0.0f64; 3]; 3];
        for (i, a_row) in a.iter_mut().enumerate() {
            for (j, aij) in a_row.iter_mut().enumerate() {
                *aij = (0..3).map(|k| r[i][k] * want[k] * r[j][k]).sum();
            }
        }
        let mut got = sym3_eigenvalues(&a).expect("finite input");
        got.sort_by(f64::total_cmp);
        let mut want_sorted = want;
        want_sorted.sort_by(f64::total_cmp);
        for (g, w) in got.iter().zip(&want_sorted) {
            assert!(
                (g - w).abs() <= 1e-12 * lambda_max,
                "case {case}: eigenvalue {g} vs {w} (κ {kappa:e})"
            );
        }
        // Trace invariant, positivity, κ ≥ 1.
        let trace = a[0][0] + a[1][1] + a[2][2];
        let sum: f64 = got.iter().sum();
        assert!((trace - sum).abs() <= 1e-12 * lambda_max, "case {case}");
        assert!(got[0] > 0.0, "case {case}: λ_min {} not positive", got[0]);
        assert!(got[2] / got[0] >= 1.0);
    }
}

#[test]
fn ols3_matches_general_path() {
    let mut rng = StdRng::seed_from_u64(0x1A_0C);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 7, 3);
        let b = random_vector(&mut rng, 7);
        // `ols` dispatches to the Cramer fast path for 3 columns; verify
        // against the explicit normal-equation route.
        if let Ok(fast) = lstsq::ols3(&a, &b) {
            let g = a.gram();
            let rhs = a.transpose_matvec(&b).unwrap();
            if let Ok(general) = Cholesky::new(&g).and_then(|c| c.solve(&rhs)) {
                for k in 0..3 {
                    let scale = 1.0 + general.norm_inf();
                    assert!(
                        (fast[k] - general[k]).abs() / scale < 1e-7,
                        "x[{k}]: {} vs {}",
                        fast[k],
                        general[k]
                    );
                }
            }
        }
    }
}

#[test]
fn transpose_of_product() {
    let mut rng = StdRng::seed_from_u64(0x1A_0E);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 3, 4);
        let b = random_matrix(&mut rng, 4, 2);
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!((&lhs - &rhs).norm_max() < 1e-10);
    }
}

#[test]
fn matvec_linearity() {
    let mut rng = StdRng::seed_from_u64(0x1A_0F);
    for _ in 0..CASES {
        let a = random_matrix(&mut rng, 4, 3);
        let x = random_vector(&mut rng, 3);
        let y = random_vector(&mut rng, 3);
        let lhs = a.matvec(&(&x + &y)).unwrap();
        let rhs = &a.matvec(&x).unwrap() + &a.matvec(&y).unwrap();
        assert!((&lhs - &rhs).norm_inf() < 1e-9);
    }
}
