use std::time::{Duration as StdDuration, Instant};

use gps_clock::ClockBiasPredictor;
use gps_core::metrics::Summary;
use gps_core::{Dlg, Dlo, GlsPath, Measurement, NewtonRaphson, PositionSolver};
use gps_obs::{DataSet, Epoch, SatObservation};
use gps_telemetry::{Event, Level};

use crate::ExperimentConfig;

/// Accumulated per-algorithm statistics over one run.
#[derive(Debug, Clone, Default)]
pub struct AlgoStats {
    /// Total wall-clock time spent inside the solver.
    pub total_time: StdDuration,
    /// Absolute position errors (paper eq. 5-1), metres. Only epochs where
    /// **all** compared algorithms produced an accepted fix contribute, so
    /// the accuracy rates compare like with like.
    pub error: Summary,
    /// Horizontal position errors over the same paired epochs, metres.
    pub horizontal_error: Summary,
    /// |vertical| position errors over the same paired epochs, metres.
    pub vertical_error: Summary,
    /// Solve attempts (the timing denominator).
    pub attempts: usize,
    /// Successful solves.
    pub solves: usize,
    /// Failed solves (degenerate geometry, non-convergence, or an NR fix
    /// rejected by the receiver's plausibility screen).
    pub failures: usize,
}

impl AlgoStats {
    /// Mean solve time in nanoseconds (0 if nothing ran).
    #[must_use]
    pub fn mean_time_ns(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.total_time.as_nanos() as f64 / self.attempts as f64
        }
    }
}

/// Result of running the three algorithms over one dataset at a fixed
/// satellite count.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Satellite count `m` used per epoch.
    pub m: usize,
    /// Newton–Raphson (baseline) statistics.
    pub nr: AlgoStats,
    /// DLO statistics.
    pub dlo: AlgoStats,
    /// DLG statistics.
    pub dlg: AlgoStats,
    /// Epochs that actually had ≥ m satellites and were solved.
    pub epochs_used: usize,
    /// Epochs skipped for having fewer than `m` satellites.
    pub epochs_skipped: usize,
    /// NR iteration counts over the paired epochs (the cost driver the
    /// paper's θ rates trace back to).
    pub nr_iterations: Summary,
}

impl RunResult {
    /// Execution-time rate `θ` (eq. 5-3) for DLO, percent.
    #[must_use]
    pub fn theta_dlo(&self) -> f64 {
        gps_core::metrics::execution_time_rate(self.dlo.mean_time_ns(), self.nr.mean_time_ns())
    }

    /// Execution-time rate `θ` (eq. 5-3) for DLG, percent.
    #[must_use]
    pub fn theta_dlg(&self) -> f64 {
        gps_core::metrics::execution_time_rate(self.dlg.mean_time_ns(), self.nr.mean_time_ns())
    }

    /// Accuracy rate `η` (eq. 5-2) for DLO, percent (mean errors).
    #[must_use]
    pub fn eta_dlo(&self) -> f64 {
        gps_core::metrics::accuracy_rate(self.dlo.error.mean(), self.nr.error.mean())
    }

    /// Accuracy rate `η` (eq. 5-2) for DLG, percent (mean errors).
    #[must_use]
    pub fn eta_dlg(&self) -> f64 {
        gps_core::metrics::accuracy_rate(self.dlg.error.mean(), self.nr.error.mean())
    }
}

/// The clock-calibration state machine of the paper's §5.2.2, built on the
/// eq. 4-3 linear predictor.
///
/// * At startup, the first [`ExperimentConfig::calibration_epochs`] epochs
///   are solved with NR; the offset `D` is taken from the first solve
///   (eq. 5-4) and the drift `r` is line-fitted over the window.
/// * For the threshold station, `D` is re-anchored from the NR bias at
///   every epoch whose clock was reset.
/// * Optionally, `D` is also re-anchored every
///   `recalibration_interval_s` seconds (§4.2 approach 1/2).
#[derive(Debug, Clone)]
pub struct ClockCalibration {
    predictor: ClockBiasPredictor,
    recalibration_interval_s: Option<f64>,
    last_recalibration: gps_time::GpsTime,
}

impl ClockCalibration {
    /// Bootstraps the predictor from the dataset's startup window, running
    /// NR with all visible satellites (this happens once, outside the
    /// timed region).
    #[must_use]
    pub fn bootstrap(data: &DataSet, cfg: &ExperimentConfig) -> Self {
        let nr = NewtonRaphson::default();
        let window = cfg.calibration_epochs.min(data.epochs().len());
        let mut samples = Vec::with_capacity(window);
        for epoch in &data.epochs()[..window] {
            let meas = to_measurements(epoch.observations());
            if let Ok(fix) = nr.solve(&meas, 0.0) {
                if let Some(bias_m) = fix.receiver_bias_m {
                    samples.push((epoch.time(), bias_m / gps_geodesy::wgs84::SPEED_OF_LIGHT));
                }
            }
        }
        let t0 = data
            .epochs()
            .first()
            .map_or(gps_time::GpsTime::EPOCH, Epoch::time);
        let mut predictor = ClockBiasPredictor::new(t0);
        predictor.fit_drift(&samples);
        if let Some(&(t, bias)) = samples.first() {
            predictor.calibrate(t, bias);
        }
        ClockCalibration {
            predictor,
            recalibration_interval_s: cfg.recalibration_interval_s,
            last_recalibration: t0,
        }
    }

    /// Predicted receiver range bias `ε̂ᴿ` (metres) for an epoch.
    #[must_use]
    pub fn predict_range_bias(&self, t: gps_time::GpsTime) -> f64 {
        self.predictor.predict_range_bias(t)
    }

    /// Whether the predictor wants a fresh bias anchor at this epoch:
    /// always at a threshold reset (the station knows it just stepped its
    /// own clock), and at the periodic §4.2 re-anchoring cadence.
    #[must_use]
    pub fn needs_recalibration(&self, epoch: &Epoch) -> bool {
        epoch.truth().clock_reset
            || self.recalibration_interval_s.is_some_and(|interval| {
                (epoch.time() - self.last_recalibration).as_seconds() >= interval
            })
    }

    /// Re-anchors `D` from an NR-derived range bias (metres) at this
    /// epoch.
    pub fn observe(&mut self, epoch: &Epoch, nr_bias_m: f64) {
        let t = epoch.time();
        self.predictor.calibrate_from_range_bias(t, nr_bias_m);
        self.last_recalibration = t;
    }
}

/// Converts dataset observations into solver measurements.
#[must_use]
pub fn to_measurements(observations: &[SatObservation]) -> Vec<Measurement> {
    observations
        .iter()
        .map(|o| Measurement::new(o.position, o.pseudorange).with_elevation(o.elevation))
        .collect()
}

/// Converts observations carrying extended observables into the inputs of
/// [`gps_core::solve_velocity`]. Returns `None` if any observation lacks
/// them (datasets generated without
/// [`gps_obs::DatasetGenerator::extended_observables`]).
#[must_use]
pub fn to_rate_measurements(
    observations: &[SatObservation],
) -> Option<Vec<gps_core::RateMeasurement>> {
    observations
        .iter()
        .map(|o| {
            o.extended
                .map(|ext| gps_core::RateMeasurement::new(o.position, ext.velocity, ext.doppler))
        })
        .collect()
}

/// Picks `m` of the visible satellites with receiver-realistic geometry:
/// seed with the highest-elevation satellite, then greedily add the
/// satellite maximizing the minimum angular separation from those already
/// chosen.
///
/// Taking the top-`m` by elevation alone would cluster the subset near
/// zenith and blow up the DOP at small `m`; deployed receivers select an
/// all-in-view subset for geometry, which this approximates.
#[must_use]
pub fn select_subset(station: gps_geodesy::Ecef, epoch: &Epoch, m: usize) -> Vec<SatObservation> {
    let obs = epoch.observations();
    if obs.len() <= m {
        return obs.to_vec();
    }
    // Unit line-of-sight vectors from the station.
    let los: Vec<gps_geodesy::Ecef> = obs
        .iter()
        .map(|o| (o.position - station).normalized())
        .collect();
    let mut chosen: Vec<usize> = vec![0]; // obs are elevation-sorted
    while chosen.len() < m {
        let candidate = (0..obs.len())
            .filter(|i| !chosen.contains(i))
            .max_by(|&a, &b| {
                let spread = |i: usize| {
                    chosen
                        .iter()
                        .map(|&c| 1.0 - los[i].dot(los[c])) // monotone in angle
                        .fold(f64::INFINITY, f64::min)
                };
                spread(a).total_cmp(&spread(b))
            });
        // Candidates remain while chosen < m <= obs.len(); if the
        // invariant is ever broken, stop with what we have.
        let Some(next) = candidate else { break };
        chosen.push(next);
    }
    chosen.into_iter().map(|i| obs[i]).collect()
}

/// The solver variants a run compares: the NR baseline plus one DLO and
/// one DLG configuration. The defaults are the paper's algorithms;
/// replacing a member turns the run into one of the DESIGN.md ablations
/// (base selection, covariance model, ...).
#[derive(Debug, Clone, Copy)]
pub struct SolverSet {
    /// The iterative baseline.
    pub nr: NewtonRaphson,
    /// The direct-linearization + OLS solver.
    pub dlo: Dlo,
    /// The direct-linearization + GLS solver.
    pub dlg: Dlg,
}

impl Default for SolverSet {
    /// The paper's algorithms. DLG runs the dense-Ψ GLS the paper
    /// specifies (eq. 4-21 with the eq. 4-26 covariance), not the
    /// structured Sherman–Morrison lane that `Dlg::default()` selects,
    /// so Figures 5.1/5.2 time the algorithm the paper timed.
    fn default() -> Self {
        SolverSet {
            nr: NewtonRaphson::default(),
            dlo: Dlo::default(),
            dlg: Dlg::new().with_gls_path(GlsPath::DenseWhitened),
        }
    }
}

/// Runs NR, DLO and DLG over every epoch of `data` using exactly `m`
/// satellites per epoch (the `m` best-placed; epochs with fewer are
/// skipped), with per-algorithm wall-clock timing.
///
/// This is the inner loop of both Figure 5.1 and Figure 5.2.
#[must_use]
pub fn run_dataset(data: &DataSet, m: usize, cfg: &ExperimentConfig) -> RunResult {
    run_dataset_with(data, m, cfg, &SolverSet::default())
}

/// Like [`run_dataset`], with explicit solver variants (the ablation
/// entry point).
#[must_use]
pub fn run_dataset_with(
    data: &DataSet,
    m: usize,
    cfg: &ExperimentConfig,
    solvers: &SolverSet,
) -> RunResult {
    let nr = solvers.nr;
    let dlo = solvers.dlo;
    let dlg = solvers.dlg;
    let truth = data.station().position();

    let mut calibration = ClockCalibration::bootstrap(data, cfg);

    // One warm context per solver: after the first epoch the timed
    // regions below run without heap allocation, so the θ (eq. 5-3)
    // comparisons measure the algorithms, not the allocator.
    let mut nr_ctx = gps_core::SolveContext::new();
    let mut dlo_ctx = gps_core::SolveContext::new();
    let mut dlg_ctx = gps_core::SolveContext::new();

    let mut result = RunResult {
        m,
        nr: AlgoStats::default(),
        dlo: AlgoStats::default(),
        dlg: AlgoStats::default(),
        epochs_used: 0,
        epochs_skipped: 0,
        nr_iterations: Summary::new(),
    };

    for epoch in data.epochs() {
        if epoch.observations().len() < m {
            result.epochs_skipped += 1;
            continue;
        }
        // Spans the whole epoch (subset selection, the three solves, the
        // clock bookkeeping). The θ timings below use their own `Instant`
        // windows, so the span never sits inside a timed region.
        let _epoch_span = gps_telemetry::span("epoch");
        let meas = to_measurements(&select_subset(truth, epoch, m));
        let t = epoch.time();

        // --- NR (timed) ---
        result.nr.attempts += 1;
        let start = Instant::now();
        let nr_fix = gps_core::Solver::solve(&nr, &gps_core::Epoch::new(&meas, 0.0), &mut nr_ctx);
        result.nr.total_time += start.elapsed();
        // Receiver plausibility screen: from a cold start the 4-unknown
        // system occasionally converges to the spurious mirror root far
        // from the Earth. Deployed receivers reject such fixes (altitude
        // sanity check); so do we.
        let nr_accepted = nr_fix.as_ref().ok().and_then(|fix| {
            let height = gps_geodesy::Geodetic::from_ecef(fix.position).height();
            (height.abs() < 1.0e5).then_some((fix.position, fix.receiver_bias_m, fix.iterations))
        });

        // Clock bookkeeping happens *before* the direct solvers run, as in
        // a real receiver: at a threshold reset the station knows it just
        // stepped its own clock and re-anchors D first (§5.2.2); the
        // periodic §4.2 re-anchor likewise applies to the current epoch.
        // The station's timekeeping solve uses ALL satellites in view —
        // the m-satellite subset is only the experiment control — and is
        // untimed (it is amortized receiver bookkeeping, not part of any
        // compared algorithm).
        if calibration.needs_recalibration(epoch) {
            let full_meas = to_measurements(epoch.observations());
            if let Ok(fix) = nr.solve(&full_meas, 0.0) {
                if let Some(bias_m) = fix.receiver_bias_m {
                    let height = gps_geodesy::Geodetic::from_ecef(fix.position).height();
                    if height.abs() < 1.0e5 {
                        calibration.observe(epoch, bias_m);
                    }
                }
            }
        }
        let predicted_bias = calibration.predict_range_bias(t);

        // --- DLO (timed; includes the eq. 4-1 correction) ---
        result.dlo.attempts += 1;
        let start = Instant::now();
        let dlo_fix = gps_core::Solver::solve(
            &dlo,
            &gps_core::Epoch::new(&meas, predicted_bias),
            &mut dlo_ctx,
        );
        result.dlo.total_time += start.elapsed();

        // --- DLG (timed; includes the eq. 4-26 covariance build) ---
        result.dlg.attempts += 1;
        let start = Instant::now();
        let dlg_fix = gps_core::Solver::solve(
            &dlg,
            &gps_core::Epoch::new(&meas, predicted_bias),
            &mut dlg_ctx,
        );
        result.dlg.total_time += start.elapsed();

        // Accuracy bookkeeping: only epochs where all three produced an
        // accepted fix contribute, so η compares identical epoch sets.
        match (nr_accepted, dlo_fix, dlg_fix) {
            (Some((nr_pos, _, nr_iters)), Ok(dlo_sol), Ok(dlg_sol)) => {
                result.nr_iterations.push(nr_iters as f64);
                for (stats, position) in [
                    (&mut result.nr, nr_pos),
                    (&mut result.dlo, dlo_sol.position),
                    (&mut result.dlg, dlg_sol.position),
                ] {
                    stats.solves += 1;
                    stats
                        .error
                        .push(gps_core::metrics::absolute_error(position, truth));
                    let hv = gps_core::metrics::horizontal_vertical_error(position, truth);
                    stats.horizontal_error.push(hv.horizontal);
                    stats.vertical_error.push(hv.vertical.abs());
                }
            }
            (nr_ok, dlo_res, dlg_res) => {
                if nr_ok.is_none() {
                    result.nr.failures += 1;
                }
                if dlo_res.is_err() {
                    result.dlo.failures += 1;
                }
                if dlg_res.is_err() {
                    result.dlg.failures += 1;
                }
            }
        }
        result.epochs_used += 1;
    }
    if gps_telemetry::enabled(Level::Info) {
        Event::new(Level::Info, "sim.runner", "run complete")
            .with("station", data.station().id().to_owned())
            .with("m", m)
            .with("epochs_used", result.epochs_used)
            .with("epochs_skipped", result.epochs_skipped)
            .with("nr_mean_iterations", result.nr_iterations.mean())
            .with("theta_dlo_pct", result.theta_dlo())
            .with("theta_dlg_pct", result.theta_dlg())
            .with("eta_dlo_pct", result.eta_dlo())
            .with("eta_dlg_pct", result.eta_dlg())
            .emit();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_obs::{paper_stations, DatasetGenerator};

    fn small_dataset(station_idx: usize) -> DataSet {
        DatasetGenerator::new(99)
            .epoch_interval_s(60.0)
            .epoch_count(60)
            .elevation_mask_deg(5.0)
            .generate(&paper_stations()[station_idx])
    }

    fn quick_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(99);
        cfg.calibration_epochs = 10;
        cfg
    }

    #[test]
    fn run_produces_sane_statistics() {
        let data = small_dataset(0);
        let cfg = quick_cfg();
        let result = run_dataset(&data, 6, &cfg);
        assert!(result.epochs_used > 40, "used {}", result.epochs_used);
        assert_eq!(result.nr.failures, 0);
        assert_eq!(result.dlo.failures, 0);
        assert_eq!(result.dlg.failures, 0);
        // NR with metre-level errors lands within tens of metres.
        assert!(
            result.nr.error.mean() < 50.0,
            "nr {}",
            result.nr.error.mean()
        );
        assert!(result.dlo.error.mean() < 200.0);
        assert!(result.dlg.error.mean() < 200.0);
        assert!(result.nr.total_time.as_nanos() > 0);
    }

    /// Median θ_DLO and θ_DLG over `k` independent runs: one run's θ is
    /// a ratio of two sub-millisecond wall-clock sums, so scheduler
    /// noise under a parallel test run can move any single sample.
    fn median_thetas(data: &DataSet, m: usize, cfg: &ExperimentConfig, k: usize) -> (f64, f64) {
        let (mut dlo, mut dlg): (Vec<f64>, Vec<f64>) = (0..k)
            .map(|_| {
                let r = run_dataset(data, m, cfg);
                (r.theta_dlo(), r.theta_dlg())
            })
            .unzip();
        dlo.sort_by(f64::total_cmp);
        dlg.sort_by(f64::total_cmp);
        (dlo[k / 2], dlg[k / 2])
    }

    #[test]
    fn direct_methods_faster_than_nr() {
        let data = small_dataset(0);
        let cfg = quick_cfg();
        // The paper's dense-Ψ DLG does strictly more work than DLO (Ψ
        // assembly plus an (m−1)³ Cholesky); at m = 8 it costs ≈ 2.5–4×
        // DLO (EXPERIMENTS.md Fig. 5.1), so the median of 5 runs orders
        // them with a wide margin.
        let (theta_dlo, theta_dlg) = median_thetas(&data, 8, &cfg, 5);
        assert!(
            theta_dlg > theta_dlo,
            "median θ_DLG {theta_dlg} should exceed median θ_DLO {theta_dlo}"
        );
        // Strict "< 100% of NR" timing shape only holds in optimized
        // builds; debug-mode allocator overhead distorts the ratio.
        if !cfg!(debug_assertions) {
            assert!(
                theta_dlo < 100.0,
                "median θ_DLO {theta_dlo} should be < 100%"
            );
            assert!(
                theta_dlg < 100.0,
                "median θ_DLG {theta_dlg} should be < 100%"
            );
        }
    }

    #[test]
    fn paper_dlg_theta_rises_with_satellite_count() {
        // Fig. 5.1's DLG claim: on the paper's dense-Ψ path the (m−1)³
        // factorization makes θ_DLG grow with m (≈ 35 % → 60 % from
        // m = 5 to 10 in EXPERIMENTS.md). Medians of 5 runs each.
        let data = small_dataset(0);
        let cfg = quick_cfg();
        let (_, theta_m5) = median_thetas(&data, 5, &cfg, 5);
        let (_, theta_m10) = median_thetas(&data, 10, &cfg, 5);
        assert!(
            theta_m10 > theta_m5,
            "median θ_DLG should rise from m = 5 ({theta_m5}) to m = 10 ({theta_m10})"
        );
    }

    #[test]
    fn epochs_with_too_few_satellites_are_skipped() {
        let data = small_dataset(0);
        let cfg = quick_cfg();
        let result = run_dataset(&data, 13, &cfg);
        assert_eq!(result.epochs_used + result.epochs_skipped, 60);
        assert!(result.epochs_skipped > 0);
    }

    #[test]
    fn threshold_station_recalibrates_and_stays_accurate() {
        // KYCP drifts up to 1 ms (300 km of range bias); without the
        // predictor chain DLO would be hopeless.
        let data = small_dataset(3);
        let cfg = quick_cfg();
        let result = run_dataset(&data, 7, &cfg);
        assert!(
            result.dlo.error.mean() < 500.0,
            "dlo {}",
            result.dlo.error.mean()
        );
        assert!(result.nr.error.mean() < 50.0);
    }

    #[test]
    fn calibration_predicts_clock_over_window() {
        let data = small_dataset(0);
        let cfg = quick_cfg();
        let cal = ClockCalibration::bootstrap(&data, &cfg);
        // Predicted bias should land near the truth for the early epochs.
        for epoch in &data.epochs()[..20] {
            let predicted = cal.predict_range_bias(epoch.time());
            let true_bias = epoch.truth().clock_bias * gps_geodesy::wgs84::SPEED_OF_LIGHT;
            assert!(
                (predicted - true_bias).abs() < 30.0,
                "prediction error {}",
                (predicted - true_bias).abs()
            );
        }
    }

    #[test]
    fn vertical_error_exceeds_horizontal_and_nr_iterations_are_few() {
        // All satellites are above the receiver, so vertical errors are
        // systematically larger; and NR from the cold start converges in
        // a handful of iterations (the paper's cost model).
        let data = small_dataset(0);
        let cfg = quick_cfg();
        let result = run_dataset(&data, 8, &cfg);
        assert!(result.nr.solves > 40);
        assert!(
            result.nr.vertical_error.mean() > result.nr.horizontal_error.mean(),
            "vertical {} vs horizontal {}",
            result.nr.vertical_error.mean(),
            result.nr.horizontal_error.mean()
        );
        let iters = result.nr_iterations.mean();
        assert!((3.0..=9.0).contains(&iters), "mean NR iterations {iters}");
        // Components are consistent with the 3-D error.
        let rss = (result.nr.horizontal_error.rms().powi(2)
            + result.nr.vertical_error.rms().powi(2))
        .sqrt();
        assert!((rss - result.nr.error.rms()).abs() / result.nr.error.rms() < 1e-9);
    }

    #[test]
    fn select_subset_no_duplicates_and_spread() {
        let data = small_dataset(2);
        let station = data.station().position();
        for epoch in data.epochs().iter().take(10) {
            let available = epoch.observations().len();
            let m = 4.min(available);
            let subset = select_subset(station, epoch, m);
            assert_eq!(subset.len(), m);
            let mut ids: Vec<u8> = subset.iter().map(|o| o.sat.prn()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), m);
            // Spread subset must have no worse GDOP than the naive top-m
            // by elevation (usually much better).
            let naive = epoch.take_satellites(m);
            let dop = |obs: &[gps_obs::SatObservation]| {
                let meas = to_measurements(obs);
                gps_core::Dop::compute(&meas, station).map(|d| d.gdop)
            };
            if let (Ok(spread), Ok(topm)) = (dop(&subset), dop(&naive)) {
                assert!(spread <= topm * 1.001, "spread {spread} vs top-m {topm}");
            }
        }
    }

    #[test]
    fn select_subset_returns_all_when_m_exceeds_count() {
        let data = small_dataset(0);
        let station = data.station().position();
        let epoch = &data.epochs()[0];
        let all = select_subset(station, epoch, 99);
        assert_eq!(all.len(), epoch.observations().len());
    }

    #[test]
    fn needs_recalibration_fires_on_reset_and_interval() {
        let data = small_dataset(3); // KYCP threshold
        let mut cfg = quick_cfg();
        cfg.recalibration_interval_s = Some(300.0);
        let cal = ClockCalibration::bootstrap(&data, &cfg);
        // Immediately after bootstrap nothing is due at the first epoch...
        assert!(!cal.needs_recalibration(&data.epochs()[1]));
        // ...but after the interval it is (epochs are 60 s apart).
        assert!(cal.needs_recalibration(&data.epochs()[6]));
        // A reset epoch always triggers, regardless of interval.
        let reset_epoch = gps_obs::Epoch::new(
            data.epochs()[1].time(),
            vec![],
            gps_obs::EpochTruth {
                clock_bias: 0.0,
                clock_reset: true,
            },
        );
        assert!(cal.needs_recalibration(&reset_epoch));
    }

    #[test]
    fn measurements_conversion_keeps_elevation() {
        let data = small_dataset(1);
        let obs = data.epochs()[0].observations();
        let meas = to_measurements(obs);
        assert_eq!(meas.len(), obs.len());
        assert_eq!(meas[0].elevation, Some(obs[0].elevation));
        assert_eq!(meas[0].pseudorange, obs[0].pseudorange);
    }
}
