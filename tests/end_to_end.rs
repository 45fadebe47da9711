//! End-to-end integration: constellation → atmosphere → clock → dataset →
//! solvers → metrics, through the public APIs only.

use gps_repro::atmosphere::ErrorBudget;
use gps_repro::core::{Bancroft, Dlg, Dlo, NewtonRaphson, PositionSolver};
use gps_repro::obs::{paper_stations, DatasetGenerator};
use gps_repro::sim::{run_dataset, select_subset, to_measurements, ExperimentConfig};

/// With every error source disabled, all four algorithms must reproduce
/// the station coordinates to sub-millimetre accuracy from generated
/// data — the full stack is self-consistent.
#[test]
fn noise_free_pipeline_recovers_station_exactly() {
    for station in &paper_stations() {
        let data = DatasetGenerator::new(1)
            .epoch_interval_s(300.0)
            .epoch_count(12)
            .error_budget(ErrorBudget::disabled())
            .steering_clock(gps_repro::clock::SteeringClock::new(0.0, 0.0, 1.0))
            .threshold_clock(gps_repro::clock::ThresholdClock::new(0.0, 0.0, 1e-3, 0.0))
            .generate(station);
        let truth = station.position();
        for epoch in data.epochs() {
            let meas = to_measurements(epoch.observations());
            // Clock bias is exactly zero by construction, so the direct
            // methods get a perfect prediction of 0.
            for solver in [
                &NewtonRaphson::default() as &dyn PositionSolver,
                &Dlo::default(),
                &Dlg::default(),
                &Bancroft,
            ] {
                let fix = solver
                    .solve(&meas, 0.0)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
                let err = fix.position.distance_to(truth);
                assert!(
                    err < 1e-3,
                    "{} at {}: error {err} m",
                    solver.name(),
                    station.id()
                );
            }
        }
    }
}

/// With the realistic error budget, NR lands within tens of metres and
/// the direct methods stay within a small factor of NR.
#[test]
fn realistic_pipeline_error_bounds() {
    let cfg = ExperimentConfig {
        epoch_count: 90,
        calibration_epochs: 15,
        ..ExperimentConfig::quick(3)
    };
    for (idx, station) in paper_stations().iter().enumerate() {
        let data = DatasetGenerator::new(cfg.seed)
            .epoch_interval_s(cfg.epoch_interval_s)
            .epoch_count(cfg.epoch_count)
            .elevation_mask_deg(cfg.elevation_mask_deg)
            .generate(station);
        let r = run_dataset(&data, 8, &cfg);
        assert!(r.epochs_used > 60, "dataset {idx}: used {}", r.epochs_used);
        assert!(
            r.nr.error.mean() > 0.1 && r.nr.error.mean() < 50.0,
            "dataset {idx}: NR mean {}",
            r.nr.error.mean()
        );
        for (name, stats) in [("DLO", &r.dlo), ("DLG", &r.dlg)] {
            assert!(
                stats.error.mean() < 5.0 * r.nr.error.mean(),
                "dataset {idx}: {name} mean {} vs NR {}",
                stats.error.mean(),
                r.nr.error.mean()
            );
        }
    }
}

/// The paper's headline accuracy shape on a reduced workload: DLG's
/// accuracy rate stays in a flat band while DLO's degrades as satellites
/// are added, and DLG is at least as accurate as DLO once the system is
/// meaningfully over-determined.
#[test]
fn accuracy_shape_matches_paper() {
    let cfg = ExperimentConfig {
        epoch_count: 240,
        epoch_interval_s: 120.0,
        calibration_epochs: 20,
        ..ExperimentConfig::new(11)
    };
    let station = &paper_stations()[1]; // YYR1
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .generate(station);

    let r6 = run_dataset(&data, 6, &cfg);
    let r10 = run_dataset(&data, 10, &cfg);
    assert!(r6.nr.solves > 100 && r10.nr.solves > 100);

    // Both direct methods are less accurate than NR (η > 100%) but within
    // a sane band (< 200%).
    for (label, eta) in [
        ("eta_dlo(6)", r6.eta_dlo()),
        ("eta_dlg(6)", r6.eta_dlg()),
        ("eta_dlo(10)", r10.eta_dlo()),
        ("eta_dlg(10)", r10.eta_dlg()),
    ] {
        assert!(eta > 95.0 && eta < 200.0, "{label} = {eta}");
    }
    // DLG at m=10 beats DLO at m=10 (the GLS pay-off the paper reports).
    assert!(
        r10.eta_dlg() < r10.eta_dlo(),
        "DLG {} should beat DLO {} at m=10",
        r10.eta_dlg(),
        r10.eta_dlo()
    );
}

/// Execution-time shape (release builds only; debug-mode ratios are
/// distorted by allocator overhead): both direct methods run in well
/// under NR's time, and DLG costs more than DLO.
#[test]
fn execution_time_shape_matches_paper() {
    if cfg!(debug_assertions) {
        return;
    }
    let cfg = ExperimentConfig {
        epoch_count: 240,
        epoch_interval_s: 120.0,
        calibration_epochs: 20,
        ..ExperimentConfig::new(13)
    };
    let station = &paper_stations()[0];
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .generate(station);
    // Median θ over k = 5 independent runs: one run's θ is a ratio of
    // two short wall-clock sums that scheduler noise can move. Bounds:
    // θ_DLO < 60 % and θ_DLG < 90 % at m = 8 (EXPERIMENTS.md measures
    // ≈ 13–20 % and ≈ 45–50 %), and the paper's dense-Ψ DLG above DLO.
    let (mut dlo, mut dlg): (Vec<f64>, Vec<f64>) = (0..5)
        .map(|_| {
            let r = run_dataset(&data, 8, &cfg);
            (r.theta_dlo(), r.theta_dlg())
        })
        .unzip();
    dlo.sort_by(f64::total_cmp);
    dlg.sort_by(f64::total_cmp);
    let (theta_dlo, theta_dlg) = (dlo[2], dlg[2]);
    assert!(theta_dlo < 60.0, "median θ_DLO {theta_dlo}");
    assert!(theta_dlg < 90.0, "median θ_DLG {theta_dlg}");
    assert!(
        theta_dlg > theta_dlo,
        "median θ_DLG {theta_dlg} vs θ_DLO {theta_dlo}"
    );
}

/// Satellite subset selection: the geometry-aware subset never returns
/// duplicates, respects the requested size, and always includes the
/// highest-elevation satellite.
#[test]
fn subset_selection_invariants() {
    let station = &paper_stations()[2];
    let data = DatasetGenerator::new(21)
        .epoch_interval_s(600.0)
        .epoch_count(24)
        .elevation_mask_deg(5.0)
        .generate(station);
    for epoch in data.epochs() {
        let available = epoch.observations().len();
        for m in 4..=available {
            let subset = select_subset(station.position(), epoch, m);
            assert_eq!(subset.len(), m);
            let mut prns: Vec<u8> = subset.iter().map(|o| o.sat.prn()).collect();
            prns.sort_unstable();
            prns.dedup();
            assert_eq!(prns.len(), m, "duplicate satellite in subset");
            assert_eq!(subset[0].sat, epoch.observations()[0].sat);
        }
    }
}
