//! Ablation — linear-algebra path (paper §6, extension 3: "optimize the
//! matrix operations ... so the computation time may be further reduced").
//!
//! Compares, on the actual GPS-shaped systems:
//!
//! * OLS through the heap `lstsq::ols` entry point (which hands a
//!   three-column system to the Cramer kernel and returns a heap
//!   `Vector`) vs `lstsq::ols3` called directly;
//! * GLS via whitening (the crate default) vs the explicit `M⁻¹`
//!   formulation of eq. 4-21.

use gps_bench::fixture_epochs;
use gps_bench::harness::Harness;
use gps_core::{linearize, BaseSelection, Dlg};
use gps_linalg::lstsq::{self, GlsStrategy, LstsqScratch};
use gps_linalg::Vector;
use std::hint::black_box;

fn bench_paths(h: &mut Harness) {
    let mut group = h.benchmark_group("ablation_linalg_path");
    for m in [6usize, 10] {
        // Pre-linearize every epoch so only the estimator is measured.
        let systems: Vec<_> = fixture_epochs(m, 63)
            .iter()
            .map(|meas| linearize(meas, 12.0, BaseSelection::First).expect("fixture is valid"))
            .collect();
        let dlg = Dlg::default();

        group.bench_with_input(&format!("ols_normal_eq/{m}"), &systems, |b, systems| {
            b.iter(|| {
                for sys in systems {
                    let _ = black_box(lstsq::ols(&sys.a, &sys.d));
                }
            })
        });
        group.bench_with_input(&format!("ols3_cramer/{m}"), &systems, |b, systems| {
            b.iter(|| {
                for sys in systems {
                    let _ = black_box(lstsq::ols3(&sys.a, &sys.d));
                }
            })
        });
        // Both GLS paths now route through the one `gls_with` entry
        // point; the strategy enum is the ablation knob.
        group.bench_with_input(&format!("gls_whitened/{m}"), &systems, |b, systems| {
            b.iter(|| {
                for sys in systems {
                    let cov = dlg.covariance_matrix(sys);
                    let _ = black_box(lstsq::gls_with(&sys.a, &sys.d, &cov, GlsStrategy::Whitened));
                }
            })
        });
        group.bench_with_input(
            &format!("gls_explicit_inverse/{m}"),
            &systems,
            |b, systems| {
                b.iter(|| {
                    for sys in systems {
                        let cov = dlg.covariance_matrix(sys);
                        let _ = black_box(lstsq::gls_with(
                            &sys.a,
                            &sys.d,
                            &cov,
                            GlsStrategy::ExplicitInverse,
                        ));
                    }
                })
            },
        );
        // Caller-provided buffers: the same whitened estimator with all
        // scratch reused across epochs (the `SolveContext` hot path).
        group.bench_with_input(&format!("gls_whitened_into/{m}"), &systems, |b, systems| {
            let mut scratch = LstsqScratch::default();
            let mut x = Vector::zeros(3);
            let mut cov = gps_linalg::Matrix::default();
            b.iter(|| {
                for sys in systems {
                    dlg.covariance_matrix_into(sys, &mut cov);
                    let _ = black_box(lstsq::gls_into(
                        &sys.a,
                        &sys.d,
                        &cov,
                        GlsStrategy::Whitened,
                        &mut scratch,
                        &mut x,
                    ));
                }
            })
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new();
    bench_paths(&mut harness);
}
