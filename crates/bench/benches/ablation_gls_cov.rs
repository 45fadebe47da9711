//! Ablation — the DLG covariance structure (paper Theorems 4.1/4.2).
//!
//! Two sweeps:
//!
//! 1. **Model** (accuracy + time, m = 10): how much of DLG's accuracy
//!    edge comes from modeling the *correlation* (the `ρ₁²`
//!    off-diagonals of eq. 4-26) versus merely the unequal variances?
//!    Identity ≡ DLO, so the timing also brackets the GLS overhead.
//! 2. **GLS path** (time, m ∈ {4, 6, 8, 10, 20, 40} over the multi-GNSS
//!    segment): the same full-Ψ solve through DLG's two paths — the
//!    O(m·n) Sherman–Morrison kernel and the dense O(m³)
//!    whitened-Cholesky kernel — and through eq. 4-21 evaluated
//!    literally with an explicit Ψ⁻¹ on `linearize`'s system (the
//!    `explicit-inv` ids). Identical fixes; the per-fix gap must *widen*
//!    with m.

use gps_bench::harness::Harness;
use gps_bench::{fixture_dataset, fixture_epochs, fixture_epochs_multi};
use gps_core::metrics::Summary;
use gps_core::{
    linearize, BaseSelection, CovarianceModel, Dlg, Epoch, GlsPath, Measurement, PositionSolver,
    SolveContext,
};
use gps_linalg::lstsq::{self, GlsStrategy, LstsqScratch};
use gps_linalg::{Matrix, Vector};
use std::hint::black_box;

const MODELS: [(&str, CovarianceModel); 4] = [
    ("full(paper)", CovarianceModel::Full),
    ("diagonal", CovarianceModel::DiagonalOnly),
    ("identity(=DLO)", CovarianceModel::Identity),
    ("elevation-scaled", CovarianceModel::ElevationScaled),
];

fn print_accuracy_ablation() {
    let data = fixture_dataset(1, 64);
    let truth = data.station().position();
    println!("GLS-covariance ablation (DLG, m=10, true clock bias fed in):");
    for (name, model) in MODELS {
        let dlg = Dlg::new().with_covariance_model(model);
        let mut errors = Summary::new();
        for epoch in data.epochs() {
            if epoch.observations().len() < 10 {
                continue;
            }
            let meas = gps_sim::to_measurements(&gps_sim::select_subset(truth, epoch, 10));
            let bias_m = epoch.truth().clock_bias * gps_geodesy::wgs84::SPEED_OF_LIGHT;
            if let Ok(fix) = dlg.solve(&meas, bias_m) {
                errors.push(fix.position.distance_to(truth));
            }
        }
        println!(
            "  {:<15} mean {:>7.2} m  rms {:>7.2} m  (n={})",
            name,
            errors.mean(),
            errors.rms(),
            errors.count()
        );
    }
}

fn bench_covariances(h: &mut Harness) {
    print_accuracy_ablation();

    let epochs = fixture_epochs(10, 64);
    let mut group = h.benchmark_group("ablation_gls_cov");
    if quick() {
        group.sample_size(3);
    }
    for (name, model) in MODELS {
        let dlg = Dlg::new().with_covariance_model(model);
        group.bench_with_input(&format!("dlg/{name}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(dlg.solve(black_box(meas), 12.0));
                }
            })
        });
    }
    group.finish();
}

/// `GPS_BENCH_QUICK=1` trims both sweeps to a smoke run — 3 samples per
/// cell, a few epochs per shape — so `scripts/ci.sh` can exercise the
/// full path × m matrix without bench-grade runtimes. Committed numbers
/// must come from a run without the variable.
fn quick() -> bool {
    std::env::var_os("GPS_BENCH_QUICK").is_some_and(|v| v != "0")
}

const PATHS: [(&str, GlsPath); 2] = [
    ("structured", GlsPath::Structured),
    ("whitened", GlsPath::DenseWhitened),
];

const SWEEP_M: [usize; 6] = [4, 6, 8, 10, 20, 40];

/// One warm-context pass over every epoch (the throughput-style inner
/// loop: no allocation inside the timed region after warmup).
fn solve_all(dlg: &Dlg, epochs: &[Vec<Measurement>], ctx: &mut SolveContext) {
    for meas in epochs {
        let _ = black_box(gps_core::Solver::solve(
            dlg,
            &Epoch::new(black_box(meas), 12.0),
            ctx,
        ));
    }
}

/// Eq. 4-21 evaluated literally — Ψ and its explicit inverse — through
/// the public linearization and linalg API. It allocates per fix: it is
/// the faithful-to-the-text reference, not a solver path.
fn solve_all_explicit(dlg: &Dlg, epochs: &[Vec<Measurement>], buffers: &mut ExplicitBuffers) {
    let (cov, scratch, x) = buffers;
    for meas in epochs {
        let Ok(sys) = linearize(black_box(meas), 12.0, BaseSelection::First) else {
            continue;
        };
        dlg.covariance_matrix_into(&sys, cov);
        let strategy = GlsStrategy::ExplicitInverse;
        let _ = black_box(lstsq::gls_into(&sys.a, &sys.d, cov, strategy, scratch, x));
    }
}

type ExplicitBuffers = (Matrix, LstsqScratch, Vector);

fn bench_gls_paths(h: &mut Harness) {
    let mut group = h.benchmark_group("ablation_gls_path");
    if quick() {
        group.sample_size(3);
    }
    for m in SWEEP_M {
        let mut epochs = fixture_epochs_multi(m, 64);
        assert!(!epochs.is_empty(), "no multi-GNSS epoch reached m = {m}");
        if quick() {
            epochs.truncate(4);
        }
        for (name, path) in PATHS {
            let dlg = Dlg::new().with_gls_path(path);
            let mut ctx = SolveContext::new();
            // Warm the context so resize-to-shape allocations happen
            // outside the timed region.
            solve_all(&dlg, &epochs, &mut ctx);
            group.bench_with_input(&format!("dlg/{name}/m{m}"), &epochs, |b, epochs| {
                b.iter(|| solve_all(&dlg, epochs, &mut ctx))
            });
        }
        let dlg = Dlg::new();
        let mut buffers = ExplicitBuffers::default();
        solve_all_explicit(&dlg, &epochs, &mut buffers);
        group.bench_with_input(&format!("dlg/explicit-inv/m{m}"), &epochs, |b, epochs| {
            b.iter(|| solve_all_explicit(&dlg, epochs, &mut buffers))
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new();
    bench_covariances(&mut harness);
    bench_gls_paths(&mut harness);
}
