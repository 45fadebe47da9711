//! The three reproduced experiments, one per table/figure of §5.

use gps_obs::{paper_stations, DataSet, DatasetGenerator};
use gps_telemetry::{Event, Level};

use crate::report::{FigureReport, SeriesPoint, Table51Report, Table51Row};
use crate::{run_dataset, ExperimentConfig};

/// Generates the four paper datasets under the given configuration.
///
/// Dataset generation is independent per station, so the four are built
/// in parallel (one scoped thread each).
#[must_use]
pub fn generate_datasets(cfg: &ExperimentConfig) -> Vec<DataSet> {
    generate_datasets_with_budget(cfg, gps_atmosphere::ErrorBudget::default())
}

/// Like [`generate_datasets`] with an explicit error budget (the
/// sensitivity-study entry point).
#[must_use]
pub fn generate_datasets_with_budget(
    cfg: &ExperimentConfig,
    budget: gps_atmosphere::ErrorBudget,
) -> Vec<DataSet> {
    let _span = gps_telemetry::span("generate_datasets");
    let stations = paper_stations();
    let generator = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .error_budget(budget);
    let mut slots: Vec<Option<DataSet>> = (0..stations.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, station) in slots.iter_mut().zip(&stations) {
            let generator = &generator;
            scope.spawn(move || {
                *slot = Some(generator.generate(station));
            });
        }
    });
    let datasets: Vec<DataSet> = slots
        .into_iter()
        .map(|s| s.expect("filled by thread"))
        .collect();
    if gps_telemetry::enabled(Level::Info) {
        Event::new(Level::Info, "sim.experiments", "datasets generated")
            .with("stations", datasets.len())
            .with("epochs_per_station", cfg.epoch_count)
            .with("seed", cfg.seed)
            .emit();
    }
    datasets
}

/// Reproduces **Table 5.1** (dataset specifications): the four stations
/// with their published coordinates, dates and clock types, plus the
/// generated data's epoch and satellite-count statistics.
#[must_use]
pub fn table51(cfg: &ExperimentConfig) -> Table51Report {
    let _span = gps_telemetry::span("table51");
    let datasets = generate_datasets(cfg);
    let rows = datasets
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let st = data.station();
            let p = st.position();
            Table51Row {
                no: i + 1,
                site: st.id().to_owned(),
                ecef: (p.x, p.y, p.z),
                date: st.date().to_string(),
                clock: st.correction_type().to_string(),
                epochs: data.epochs().len(),
                sat_range: data.satellite_count_range(),
            }
        })
        .collect();
    Table51Report { rows }
}

/// Runs the full satellite-count sweep over one dataset, returning one
/// figure series per rate extractor.
fn sweep<F>(data: &DataSet, cfg: &ExperimentConfig, extract: F) -> Vec<SeriesPoint>
where
    F: Fn(&crate::RunResult) -> (f64, f64),
{
    cfg.satellite_counts()
        .filter_map(|m| {
            let result = run_dataset(data, m, cfg);
            if result.epochs_used == 0 || result.nr.solves == 0 {
                return None; // nothing to rate at this count
            }
            let (dlo, dlg) = extract(&result);
            Some(SeriesPoint {
                m,
                dlo,
                dlg,
                epochs: result.epochs_used,
            })
        })
        .collect()
}

/// Reproduces **Figure 5.1** (Execution Time Comparisons): the
/// execution-time rate `θ = τ_O/τ_NR × 100 %` versus the satellite count,
/// for each of the four datasets.
///
/// The paper's observed shape: θ_DLO stays below ≈20 % roughly flat;
/// θ_DLG grows with the satellite count toward ≈50 % at `m = 10`.
#[must_use]
pub fn fig51(cfg: &ExperimentConfig) -> FigureReport {
    let _span = gps_telemetry::span("fig51");
    let datasets = generate_datasets(cfg);
    FigureReport {
        title: "Figure 5.1 Execution Time Comparisons (reproduction)".to_owned(),
        rate_legend: "θ = τ_O / τ_NR × 100% (eq. 5-3); < 100% means faster than NR".to_owned(),
        datasets: datasets
            .iter()
            .map(|data| {
                let series = sweep(data, cfg, |r| (r.theta_dlo(), r.theta_dlg()));
                (data.station().id().to_owned(), series)
            })
            .collect(),
    }
}

/// Reproduces **Figure 5.2** (Accuracy Comparisons): the accuracy rate
/// `η = d_O/d_NR × 100 %` versus the satellite count, for each of the four
/// datasets.
///
/// The paper's observed shape: η_DLG ≈ 110 % nearly constant in `m`;
/// η_DLO degrades as satellites are added, reaching ≈120 % at `m = 10`.
#[must_use]
pub fn fig52(cfg: &ExperimentConfig) -> FigureReport {
    let _span = gps_telemetry::span("fig52");
    let datasets = generate_datasets(cfg);
    FigureReport {
        title: "Figure 5.2 Accuracy Comparisons (reproduction)".to_owned(),
        rate_legend: "η = d_O / d_NR × 100% (eq. 5-2); > 100% means less accurate than NR"
            .to_owned(),
        datasets: datasets
            .iter()
            .map(|data| {
                let series = sweep(data, cfg, |r| (r.eta_dlo(), r.eta_dlg()));
                (data.station().id().to_owned(), series)
            })
            .collect(),
    }
}

/// Extension experiment (paper §6, extension 1): accuracy rate of DLO
/// under different base-satellite selections, swept over the satellite
/// count.
///
/// The harness feeds elevation-sorted measurements, so the paper's
/// "randomly chosen" base and the *best* base (highest elevation — the
/// cleanest equation) coincide on the `First` strategy; the informative
/// bracket is therefore best vs **worst**: the `dlo` column uses the
/// lowest-elevation base (noisiest equation subtracted from all others),
/// the `dlg` column the highest-elevation base. The gap bounds what the
/// extension can possibly buy.
#[must_use]
pub fn ext_base_selection(cfg: &ExperimentConfig) -> FigureReport {
    use gps_core::{BaseSelection, Dlo};
    let _span = gps_telemetry::span("ext_base_selection");
    let datasets = generate_datasets(cfg);
    let worst_base = crate::SolverSet {
        dlo: Dlo::new().with_base_selection(BaseSelection::LowestElevation),
        ..crate::SolverSet::default()
    };
    let best_base = crate::SolverSet {
        dlo: Dlo::new().with_base_selection(BaseSelection::HighestElevation),
        ..crate::SolverSet::default()
    };
    FigureReport {
        title: "Extension 1: base-satellite selection (accuracy rate of DLO)".to_owned(),
        rate_legend:
            "η = d/d_NR × 100%; DLO column = lowest-elevation base (worst), DLG column = highest-elevation base (best)"
                .to_owned(),
        datasets: datasets
            .iter()
            .map(|data| {
                let series: Vec<SeriesPoint> = cfg
                    .satellite_counts()
                    .filter_map(|m| {
                        let r_worst = crate::run_dataset_with(data, m, cfg, &worst_base);
                        let r_best = crate::run_dataset_with(data, m, cfg, &best_base);
                        if r_worst.nr.solves == 0 || r_best.nr.solves == 0 {
                            return None;
                        }
                        Some(SeriesPoint {
                            m,
                            dlo: r_worst.eta_dlo(),
                            dlg: r_best.eta_dlo(),
                            epochs: r_best.epochs_used,
                        })
                    })
                    .collect();
                (data.station().id().to_owned(), series)
            })
            .collect(),
    }
}

/// Extension experiment (DESIGN.md GLS-covariance ablation): accuracy
/// rate of DLG with the paper's full Ψ (the `dlg` column) versus the
/// diagonal-only covariance (the `dlo` column), isolating the value of
/// modeling the Theorem 4.1 correlation.
#[must_use]
pub fn ext_gls_covariance(cfg: &ExperimentConfig) -> FigureReport {
    use gps_core::{CovarianceModel, Dlg};
    let _span = gps_telemetry::span("ext_gls_covariance");
    let datasets = generate_datasets(cfg);
    let diagonal = crate::SolverSet {
        dlg: Dlg::new().with_covariance_model(CovarianceModel::DiagonalOnly),
        ..crate::SolverSet::default()
    };
    let full = crate::SolverSet::default();
    FigureReport {
        title: "Ablation: GLS covariance structure (accuracy rate of DLG)".to_owned(),
        rate_legend:
            "η = d/d_NR × 100%; DLO column = diagonal-only Ψ, DLG column = full Ψ (paper eq. 4-26)"
                .to_owned(),
        datasets: datasets
            .iter()
            .map(|data| {
                let series: Vec<SeriesPoint> = cfg
                    .satellite_counts()
                    .filter_map(|m| {
                        let r_diag = crate::run_dataset_with(data, m, cfg, &diagonal);
                        let r_full = crate::run_dataset_with(data, m, cfg, &full);
                        if r_diag.nr.solves == 0 || r_full.nr.solves == 0 {
                            return None;
                        }
                        Some(SeriesPoint {
                            m,
                            dlo: r_diag.eta_dlg(),
                            dlg: r_full.eta_dlg(),
                            epochs: r_full.epochs_used,
                        })
                    })
                    .collect();
                (data.station().id().to_owned(), series)
            })
            .collect(),
    }
}

/// Satellite counts swept by [`theta_vs_m`]: the paper's 4–10 band plus
/// the multi-constellation extension out to m = 40 (ROADMAP item 4).
pub const THETA_VS_M_COUNTS: [usize; 9] = [4, 6, 8, 10, 14, 20, 28, 34, 40];

/// ROADMAP items 2+4 experiment: the paper's Figure 5.1 execution-time
/// rate `θ = τ/τ_NR × 100 %` re-plotted to large satellite counts with
/// **both DLG GLS paths** — the structured Sherman–Morrison lane (`dlo`
/// column) versus the dense-Ψ Cholesky lane (`dlg` column).
///
/// The SRZN dataset is regenerated over the
/// [`gps_orbits::Constellation::multi_gnss_nominal`] space segment so
/// epochs reach m ≈ 40 visible, and the sweep uses the fixed
/// [`THETA_VS_M_COUNTS`] grid instead of `cfg`'s 4–10 band (counts no
/// epoch reaches are skipped). The paper's dense DLG grows like O(m³)
/// and falls off a cliff here; the structured path stays O(m·n) and
/// bends the curve back down.
#[must_use]
pub fn theta_vs_m(cfg: &ExperimentConfig) -> FigureReport {
    use gps_core::{Dlg, GlsPath};
    let _span = gps_telemetry::span("theta_vs_m");
    let station = paper_stations().remove(0); // SRZN, the steering station
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .constellation(gps_orbits::Constellation::multi_gnss_nominal())
        .generate(&station);
    let structured = crate::SolverSet {
        dlg: Dlg::default(), // the structured Sherman–Morrison lane
        ..crate::SolverSet::default()
    };
    let dense = crate::SolverSet {
        dlg: Dlg::new().with_gls_path(GlsPath::DenseWhitened),
        ..crate::SolverSet::default()
    };
    let series: Vec<SeriesPoint> = THETA_VS_M_COUNTS
        .iter()
        .filter_map(|&m| {
            let r_structured = crate::run_dataset_with(&data, m, cfg, &structured);
            let r_dense = crate::run_dataset_with(&data, m, cfg, &dense);
            if r_structured.nr.solves == 0 || r_dense.nr.solves == 0 {
                return None; // no epoch reached this satellite count
            }
            Some(SeriesPoint {
                m,
                dlo: r_structured.theta_dlg(),
                dlg: r_dense.theta_dlg(),
                epochs: r_structured.epochs_used,
            })
        })
        .collect();
    FigureReport {
        title: "θ vs m to 40 satellites: structured vs dense-Ψ DLG (SRZN, multi-GNSS)".to_owned(),
        rate_legend:
            "θ = τ/τ_NR × 100% (eq. 5-3); DLO column = DLG w/ Sherman–Morrison GLS, DLG column = DLG w/ dense Ψ Cholesky"
                .to_owned(),
        datasets: vec![("SRZN @ multi-GNSS".to_owned(), series)],
    }
}

/// Robustness experiment: applies a [`gps_faults::FaultPlan`] to the
/// SRZN dataset and reports availability, degradation and integrity of
/// the [`gps_core::ResilientSolver`] pipeline (plus per-algorithm bare
/// RAIM scoring and the θ/η reference rates on the faulted data). See
/// [`crate::run_campaign`] for the mechanics and docs/ROBUSTNESS.md for
/// the fault taxonomy.
#[must_use]
pub fn fault_campaign(
    cfg: &ExperimentConfig,
    plan: &gps_faults::FaultPlan,
) -> crate::CampaignReport {
    let _span = gps_telemetry::span("fault_campaign_experiment");
    let station = paper_stations().remove(0); // SRZN, the steering station
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .generate(&station);
    crate::run_campaign(&data, plan, cfg)
}

/// Like [`fault_campaign`], but fanned across **all four** paper
/// stations in parallel: each station's dataset is generated, paired
/// with the same fault plan, and the four campaigns are sharded over a
/// [`gps_pool::ThreadPool`] with `jobs` workers. Reports come back in
/// station order regardless of the worker count.
#[must_use]
pub fn fault_campaign_fleet(
    cfg: &ExperimentConfig,
    plan: &gps_faults::FaultPlan,
    jobs: usize,
) -> Vec<(String, crate::CampaignReport)> {
    let _span = gps_telemetry::span("fault_campaign_fleet");
    let scenarios: Vec<crate::CampaignScenario> = generate_datasets(cfg)
        .into_iter()
        .map(|data| {
            let label = data.station().id().to_owned();
            crate::CampaignScenario::new(label, data, plan.clone())
        })
        .collect();
    let pool = gps_pool::ThreadPool::new(jobs);
    crate::run_campaigns(&pool, scenarios, cfg)
}

/// Sensitivity study: do the paper's accuracy rates survive a noisier (or
/// cleaner) receiver? Re-runs the Fig 5.2 sweep on the YYR1 dataset with
/// the whole error budget scaled by 0.5×, 1× and 2×. One "dataset" per
/// scale in the returned figure.
#[must_use]
pub fn ext_noise_sensitivity(cfg: &ExperimentConfig) -> FigureReport {
    let _span = gps_telemetry::span("ext_noise_sensitivity");
    let station = paper_stations().remove(1); // YYR1
    let datasets: Vec<(String, DataSet)> = [0.5, 1.0, 2.0]
        .iter()
        .map(|&scale| {
            let data = DatasetGenerator::new(cfg.seed)
                .epoch_interval_s(cfg.epoch_interval_s)
                .epoch_count(cfg.epoch_count)
                .elevation_mask_deg(cfg.elevation_mask_deg)
                .error_budget(gps_atmosphere::ErrorBudget::scaled(scale))
                .generate(&station);
            (format!("YYR1 @ {scale}x error budget"), data)
        })
        .collect();
    FigureReport {
        title: "Sensitivity: accuracy rates vs error-budget scale (YYR1)".to_owned(),
        rate_legend: "η = d_O / d_NR × 100% (eq. 5-2)".to_owned(),
        datasets: datasets
            .into_iter()
            .map(|(label, data)| {
                let series = sweep(&data, cfg, |r| (r.eta_dlo(), r.eta_dlg()));
                (label, series)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table51_matches_paper_metadata() {
        let cfg = ExperimentConfig {
            epoch_count: 20,
            ..ExperimentConfig::quick(5)
        };
        let report = table51(&cfg);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0].site, "SRZN");
        assert_eq!(report.rows[0].clock, "Steering");
        assert_eq!(report.rows[3].site, "KYCP");
        assert_eq!(report.rows[3].clock, "Threshold");
        assert_eq!(report.rows[1].date, "2009/10/23");
        assert!((report.rows[0].ecef.0 - 3_623_420.032).abs() < 1e-9);
        for r in &report.rows {
            assert_eq!(r.epochs, 20);
            assert!(r.sat_range.0 >= 5, "{}: {:?}", r.site, r.sat_range);
            assert!(r.sat_range.1 <= 15);
        }
    }

    #[test]
    fn generate_datasets_is_deterministic() {
        let cfg = ExperimentConfig {
            epoch_count: 5,
            ..ExperimentConfig::quick(9)
        };
        let a = generate_datasets(&cfg);
        let b = generate_datasets(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn fig51_series_have_expected_shape() {
        // Small but long enough for timing ratios to make sense.
        let mut cfg = ExperimentConfig::quick(13);
        cfg.epoch_count = 60;
        cfg.calibration_epochs = 10;
        cfg.min_satellites = 4;
        cfg.max_satellites = 8;
        // One trial's θ is a ratio of two sub-millisecond wall-clock
        // sums that scheduler noise under a parallel test run can push
        // past 100 %, so the timing bound holds for the median of
        // K = 5 trials per (station, m) point. Same seed: the trials
        // differ only in timing.
        const K: usize = 5;
        let reports: Vec<FigureReport> = (0..K).map(|_| fig51(&cfg)).collect();
        let report = &reports[0];
        assert_eq!(report.datasets.len(), 4);
        for (d, (label, series)) in report.datasets.iter().enumerate() {
            assert!(!series.is_empty(), "{label}: empty series");
            for (i, p) in series.iter().enumerate() {
                let trials: Vec<&SeriesPoint> =
                    reports.iter().map(|r| &r.datasets[d].1[i]).collect();
                for t in &trials {
                    assert_eq!(t.m, p.m, "{label}: trials disagree on m");
                    assert!(t.dlo > 0.0 && t.dlg > 0.0);
                    assert!(t.dlo.is_finite() && t.dlg.is_finite());
                }
                let median = |theta: fn(&SeriesPoint) -> f64| {
                    let mut v: Vec<f64> = trials.iter().map(|t| theta(t)).collect();
                    v.sort_by(f64::total_cmp);
                    v[K / 2]
                };
                let (dlo, dlg) = (median(|t| t.dlo), median(|t| t.dlg));
                // Strict timing shape only holds in optimized builds; in
                // debug the allocator and bounds checks distort ratios.
                // Bound: median θ < 100 % (faster than NR), as in the
                // paper's Fig. 5.1.
                if !cfg!(debug_assertions) {
                    assert!(dlo < 100.0, "{label} m={}: median θ_DLO {dlo}", p.m);
                    assert!(dlg < 100.0, "{label} m={}: median θ_DLG {dlg}", p.m);
                }
            }
        }
    }

    #[test]
    fn extension_experiments_produce_series() {
        let mut cfg = ExperimentConfig::quick(23);
        cfg.epoch_count = 30;
        cfg.calibration_epochs = 8;
        cfg.min_satellites = 6;
        cfg.max_satellites = 7;
        for report in [ext_base_selection(&cfg), ext_gls_covariance(&cfg)] {
            assert_eq!(report.datasets.len(), 4);
            for (label, series) in &report.datasets {
                for p in series {
                    assert!(p.dlo.is_finite() && p.dlo > 0.0, "{label}: {p:?}");
                    assert!(p.dlg.is_finite() && p.dlg > 0.0, "{label}: {p:?}");
                }
            }
        }
    }

    #[test]
    fn theta_vs_m_reaches_large_counts() {
        let mut cfg = ExperimentConfig::quick(37);
        cfg.epoch_count = 40;
        cfg.calibration_epochs = 8;
        let report = theta_vs_m(&cfg);
        assert_eq!(report.datasets.len(), 1);
        let series = &report.datasets[0].1;
        assert!(!series.is_empty());
        // The multi-GNSS segment must carry the sweep well past the
        // GPS-only m ≤ 14 ceiling.
        let max_m = series.iter().map(|p| p.m).max().unwrap();
        assert!(max_m >= 28, "sweep topped out at m = {max_m}");
        for p in series {
            assert!(p.dlo.is_finite() && p.dlo > 0.0, "{p:?}");
            assert!(p.dlg.is_finite() && p.dlg > 0.0, "{p:?}");
        }
        // In optimized builds the structured path must not be slower
        // than dense at the largest swept count (the whole point of the
        // Sherman–Morrison lane); debug builds distort timing too much
        // to pin.
        if !cfg!(debug_assertions) {
            let top = series.last().unwrap();
            assert!(
                top.dlo <= top.dlg,
                "structured θ {} > dense θ {} at m = {}",
                top.dlo,
                top.dlg,
                top.m
            );
        }
    }

    #[test]
    fn sensitivity_report_has_three_scales() {
        let mut cfg = ExperimentConfig::quick(29);
        cfg.epoch_count = 30;
        cfg.calibration_epochs = 8;
        cfg.min_satellites = 7;
        cfg.max_satellites = 7;
        let report = ext_noise_sensitivity(&cfg);
        assert_eq!(report.datasets.len(), 3);
        assert!(report.datasets[0].0.contains("0.5x"));
        for (label, series) in &report.datasets {
            assert!(!series.is_empty(), "{label}");
            for p in series {
                assert!(p.dlo.is_finite() && p.dlg.is_finite(), "{label}: {p:?}");
            }
        }
    }

    #[test]
    fn scaled_budget_changes_absolute_errors() {
        let mut cfg = ExperimentConfig::quick(31);
        cfg.epoch_count = 40;
        cfg.calibration_epochs = 10;
        let quiet = generate_datasets_with_budget(&cfg, gps_atmosphere::ErrorBudget::scaled(0.5));
        let loud = generate_datasets_with_budget(&cfg, gps_atmosphere::ErrorBudget::scaled(2.0));
        let r_quiet = crate::run_dataset(&quiet[0], 8, &cfg);
        let r_loud = crate::run_dataset(&loud[0], 8, &cfg);
        assert!(r_loud.nr.error.mean() > r_quiet.nr.error.mean() * 1.5);
    }

    #[test]
    fn fig52_rates_are_finite_and_positive() {
        let mut cfg = ExperimentConfig::quick(17);
        cfg.epoch_count = 40;
        cfg.calibration_epochs = 10;
        cfg.min_satellites = 5;
        cfg.max_satellites = 7;
        let report = fig52(&cfg);
        for (label, series) in &report.datasets {
            for p in series {
                assert!(p.dlo.is_finite() && p.dlo > 0.0, "{label}: {p:?}");
                assert!(p.dlg.is_finite() && p.dlg > 0.0, "{label}: {p:?}");
            }
        }
    }
}
