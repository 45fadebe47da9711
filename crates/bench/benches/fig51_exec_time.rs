//! Figure 5.1 — Execution Time Comparisons.
//!
//! Benchmarks one positioning solve per algorithm (NR, DLO, DLG, plus the
//! Bancroft baseline) for each satellite count in the paper's sweep
//! `m = 4..=10`, over realistic epochs from the SRZN dataset. The ratio
//! `DLO/NR` and `DLG/NR` of the reported times is the paper's
//! `θ = τ_O/τ_NR × 100 %` (eq. 5-3); the full four-dataset series is
//! printed by `cargo run --release --example reproduce_paper -- fig51`.
//!
//! Each algorithm is measured through the simple allocating
//! [`PositionSolver`] path (the `<ALGO>/{m}` ids, unchanged from before
//! the `Solver` refactor) and through the zero-allocation
//! [`gps_core::Solver`] + [`SolveContext`] path (`<ALGO>-ctx/{m}`); the
//! difference is the context's per-epoch saving. NR's context path keeps
//! its `NR-stk/{m}` id: at these m it solves every step with the
//! const-generic stack kernels.

use gps_bench::fixture_epochs;
use gps_bench::harness::{BenchmarkGroup, Harness, Throughput};
use gps_core::{
    Bancroft, Dlg, Dlo, Engine, Epoch, Measurement, NewtonRaphson, PositionSolver, SolveContext,
    Solver,
};
use std::hint::black_box;

/// Times `solver` through the [`Solver`] path on one warm context.
fn bench_context_path(
    group: &mut BenchmarkGroup,
    id: &str,
    solver: &dyn Solver,
    epochs: &[Vec<Measurement>],
    bias: f64,
    mut ctx: SolveContext,
) {
    group.bench_with_input(id, epochs, |b, epochs| {
        b.iter(|| {
            for meas in epochs {
                let epoch = Epoch::new(black_box(meas), bias);
                let _ = black_box(solver.solve(&epoch, &mut ctx));
            }
        })
    });
}

fn bench_solvers(h: &mut Harness) {
    let mut group = h.benchmark_group("fig51_exec_time");
    for m in [4usize, 5, 6, 7, 8, 9, 10] {
        let epochs = fixture_epochs(m, 51);
        if epochs.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(epochs.len() as u64));

        let nr = NewtonRaphson::default();
        group.bench_with_input(&format!("NR/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(PositionSolver::solve(&nr, black_box(meas), 0.0));
                }
            })
        });
        bench_context_path(
            &mut group,
            &format!("NR-stk/{m}"),
            &nr,
            &epochs,
            0.0,
            SolveContext::new(),
        );

        // Warm-started NR (previous epoch's fix as the initial guess):
        // quantifies how much of NR's cost is the paper's cold start.
        group.bench_with_input(&format!("NR-warm/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                let mut warm = NewtonRaphson::default();
                for meas in epochs {
                    if let Ok(fix) = black_box(PositionSolver::solve(&warm, black_box(meas), 0.0)) {
                        warm = NewtonRaphson::default()
                            .with_initial(fix.position, fix.receiver_bias_m.unwrap_or(0.0));
                    }
                }
            })
        });

        let dlo = Dlo::default();
        group.bench_with_input(&format!("DLO/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(PositionSolver::solve(&dlo, black_box(meas), 12.0));
                }
            })
        });
        bench_context_path(
            &mut group,
            &format!("DLO-ctx/{m}"),
            &dlo,
            &epochs,
            12.0,
            SolveContext::new(),
        );

        let dlg = Dlg::default();
        group.bench_with_input(&format!("DLG/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(PositionSolver::solve(&dlg, black_box(meas), 12.0));
                }
            })
        });
        bench_context_path(
            &mut group,
            &format!("DLG-ctx/{m}"),
            &dlg,
            &epochs,
            12.0,
            SolveContext::new(),
        );

        let bancroft = Bancroft;
        group.bench_with_input(&format!("Bancroft/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(PositionSolver::solve(&bancroft, black_box(meas), 0.0));
                }
            })
        });
        bench_context_path(
            &mut group,
            &format!("Bancroft-ctx/{m}"),
            &bancroft,
            &epochs,
            0.0,
            SolveContext::new(),
        );

        // All four lanes through the batched Engine (per-lane warm
        // contexts, per-lane timing folded into the engine's own stats).
        group.bench_with_input(&format!("Engine/{m}"), &epochs, |b, epochs| {
            let mut engine = Engine::all_solvers();
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(engine.run_epoch(black_box(meas), 12.0));
                }
            })
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new();
    bench_solvers(&mut harness);
}
