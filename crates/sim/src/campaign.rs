//! The `fault_campaign` experiment: availability and integrity of the
//! solver stack under injected faults.
//!
//! The paper's evaluation (§5) assumes every epoch is healthy; this
//! experiment measures what happens when it is not. A seeded
//! [`FaultPlan`] perturbs a generated dataset, then two pipelines run
//! over the perturbed stream:
//!
//! 1. the [`ResilientSolver`] degradation pipeline, scored for
//!    **availability** (nominal / degraded / holdover / no-fix epochs)
//!    and for **integrity** against the plan's injection log (missed
//!    detections, true and false exclusions);
//! 2. plain RAIM wrappers around NR, DLO and DLG, scored for the same
//!    integrity counts per algorithm — quantifying how much fault
//!    detection each algorithm's residual affords on its own.
//!
//! The report closes with the paper's θ/η reference rates computed *on
//! the faulted data*, so the robustness numbers sit next to the
//! cost/accuracy numbers the rest of the harness produces.

use std::fmt;

use gps_core::metrics::Summary;
use gps_core::{
    Dlg, Dlo, Epoch, FixQuality, NewtonRaphson, Raim, ResilientSolver, SolveContext, Solver,
};
use gps_faults::{EpochFaults, FaultPlan, FaultedDataSet};
use gps_obs::{DataSet, SatObservation};
use gps_telemetry::{Event, Level};

use crate::{run_dataset, to_measurements, ClockCalibration, ExperimentConfig};

/// Injected magnitude below which a fault is not expected to be caught:
/// the slow-drift ramp starts at zero, and no residual test can (or
/// should) flag a perturbation inside the noise budget. Epochs whose
/// largest fault is below this floor are exempt from missed-detection
/// accounting.
pub const DETECTION_FLOOR_M: f64 = 50.0;

/// Satellite count for the θ/η reference sweep on the faulted data.
const REFERENCE_M: usize = 7;

/// Detection/exclusion bookkeeping for one pipeline, scored against the
/// fault plan's injection log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounts {
    /// Epochs carrying a significant (≥ [`DETECTION_FLOOR_M`]) injected
    /// measurement fault that the pipeline attempted.
    pub faulted_epochs: usize,
    /// Significant-fault epochs the pipeline accepted without excluding
    /// the faulted satellite (integrity's cardinal sin).
    pub missed_detections: usize,
    /// Exclusions that hit an actually-faulted satellite.
    pub true_exclusions: usize,
    /// Exclusions that hit a healthy satellite.
    pub false_exclusions: usize,
}

/// One bare-RAIM pipeline's campaign outcome.
#[derive(Debug, Clone)]
pub struct AlgoIntegrity {
    /// Algorithm name ("NR", "DLO", "DLG").
    pub name: &'static str,
    /// Epochs where the RAIM-wrapped solve returned a solution.
    pub solved: usize,
    /// Epochs where it returned an error (outage or integrity fault).
    pub failed: usize,
    /// Detection/exclusion scoring.
    pub counts: IntegrityCounts,
}

/// The availability/integrity report of one fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Station whose dataset was perturbed.
    pub station: String,
    /// Scenario names in application order.
    pub scenarios: Vec<String>,
    /// Fault-plan seed (dataset seed is the experiment config's).
    pub seed: u64,
    /// Epochs run.
    pub epochs: usize,
    /// Total injections recorded by the plan.
    pub injections: usize,
    /// Epochs the resilient pipeline accepted at full quality.
    pub nominal: usize,
    /// Epochs accepted with degraded quality.
    pub degraded: usize,
    /// Epochs bridged by kinematic holdover.
    pub holdover: usize,
    /// Epochs with no usable output at all.
    pub no_fix: usize,
    /// Resilient-pipeline integrity scoring.
    pub resilient: IntegrityCounts,
    /// Position error of nominal-quality fixes, metres.
    pub error_nominal: Summary,
    /// Position error of degraded-quality fixes, metres.
    pub error_degraded: Summary,
    /// Position error of holdover outputs, metres.
    pub error_holdover: Summary,
    /// Per-algorithm bare-RAIM scoring.
    pub per_algorithm: Vec<AlgoIntegrity>,
    /// θ for DLO on the faulted data at [`REFERENCE_M`] satellites.
    pub theta_dlo: f64,
    /// θ for DLG, same sweep.
    pub theta_dlg: f64,
    /// η for DLO, same sweep.
    pub eta_dlo: f64,
    /// η for DLG, same sweep.
    pub eta_dlg: f64,
}

impl CampaignReport {
    /// Epochs with a *measurement* fix (nominal + degraded) as a
    /// percentage of all epochs. Holdover epochs coast on the kinematic
    /// predictor — no position solution was formed — so they count
    /// against availability, as standard GNSS availability accounting
    /// does.
    #[must_use]
    pub fn availability_pct(&self) -> f64 {
        self.pct(self.nominal + self.degraded)
    }

    /// Degraded epochs as a percentage of all epochs.
    #[must_use]
    pub fn degraded_pct(&self) -> f64 {
        self.pct(self.degraded)
    }

    /// Holdover epochs as a percentage of all epochs.
    #[must_use]
    pub fn holdover_pct(&self) -> f64 {
        self.pct(self.holdover)
    }

    fn pct(&self, n: usize) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.epochs as f64
        }
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault campaign — {} (plan seed {}, scenarios: {})",
            self.station,
            self.seed,
            self.scenarios.join(", ")
        )?;
        writeln!(
            f,
            "  epochs {}, injections {}",
            self.epochs, self.injections
        )?;
        writeln!(
            f,
            "  availability {:.1}% — nominal {} ({:.1}%), degraded {} ({:.1}%); coasting: holdover {} ({:.1}%), no fix {}",
            self.availability_pct(),
            self.nominal,
            self.pct(self.nominal),
            self.degraded,
            self.degraded_pct(),
            self.holdover,
            self.holdover_pct(),
            self.no_fix
        )?;
        writeln!(
            f,
            "  position error (mean m): nominal {:.1}, degraded {:.1}, holdover {:.1}",
            self.error_nominal.mean(),
            self.error_degraded.mean(),
            self.error_holdover.mean()
        )?;
        writeln!(
            f,
            "  resilient integrity: {} significant-fault epochs, {} missed, {} true excl, {} false excl",
            self.resilient.faulted_epochs,
            self.resilient.missed_detections,
            self.resilient.true_exclusions,
            self.resilient.false_exclusions
        )?;
        writeln!(f, "  bare RAIM per algorithm:")?;
        for algo in &self.per_algorithm {
            writeln!(
                f,
                "    {:<8} solved {:>4}, failed {:>4}, missed {:>3}, true excl {:>3}, false excl {:>3}",
                algo.name,
                algo.solved,
                algo.failed,
                algo.counts.missed_detections,
                algo.counts.true_exclusions,
                algo.counts.false_exclusions
            )?;
        }
        write!(
            f,
            "  reference rates on faulted data @ m={REFERENCE_M}: θ_DLO {:.1}% θ_DLG {:.1}% η_DLO {:.1}% η_DLG {:.1}%",
            self.theta_dlo, self.theta_dlg, self.eta_dlo, self.eta_dlg
        )
    }
}

/// Satellites in `record` that a residual test is expected to catch:
/// finite injected magnitude at or above [`DETECTION_FLOOR_M`].
/// (Non-finite corruption is caught by input sanitization, not residual
/// testing, so it is scored separately via the sanitizer's drop count.)
fn significant_faults(record: &EpochFaults) -> Vec<gps_orbits::SatId> {
    record
        .faulted
        .iter()
        .filter(|(_, _, m)| m.is_finite() && m.abs() >= DETECTION_FLOOR_M)
        .map(|(sat, _, _)| *sat)
        .collect()
}

/// Scores one accepted epoch's exclusions against the injection log.
/// `excluded` holds indices into `obs`.
fn score_exclusions(
    counts: &mut IntegrityCounts,
    obs: &[SatObservation],
    excluded: &[usize],
    record: &EpochFaults,
    significant: &[gps_orbits::SatId],
) {
    for &index in excluded {
        if let Some(o) = obs.get(index) {
            if record.is_faulted(o.sat) {
                counts.true_exclusions += 1;
            } else {
                counts.false_exclusions += 1;
            }
        }
    }
    if !significant.is_empty() {
        counts.faulted_epochs += 1;
        let all_caught = significant.iter().all(|sat| {
            excluded
                .iter()
                .any(|&i| obs.get(i).is_some_and(|o| o.sat == *sat))
        });
        if !all_caught {
            counts.missed_detections += 1;
        }
    }
}

/// Runs the full campaign over one dataset: applies `plan`, drives the
/// resilient pipeline and the three bare-RAIM pipelines epoch by epoch,
/// and closes with the θ/η reference run on the faulted data.
#[must_use]
pub fn run_campaign(data: &DataSet, plan: &FaultPlan, cfg: &ExperimentConfig) -> CampaignReport {
    let _span = gps_telemetry::span("fault_campaign");
    let FaultedDataSet { data: faulted, log } = plan.apply(data);
    let truth = faulted.station().position();
    let calibration = ClockCalibration::bootstrap(&faulted, cfg);

    let mut resilient = ResilientSolver::new();
    // One FDE wrapper per solver, walked generically: the trait erases
    // the concrete solver type, and the per-wrapper context keeps the
    // RAIM happy path allocation-free across epochs.
    let mut algos: Vec<(Raim<Box<dyn Solver>>, SolveContext)> = [
        Box::new(NewtonRaphson::default()) as Box<dyn Solver>,
        Box::new(Dlo::default()),
        Box::new(Dlg::default()),
    ]
    .into_iter()
    .map(|solver| {
        (
            Raim::new(solver, 10.0).with_max_exclusions(2),
            SolveContext::new(),
        )
    })
    .collect();

    let mut report = CampaignReport {
        station: faulted.station().id().to_owned(),
        scenarios: plan
            .scenarios()
            .iter()
            .map(|s| s.kind().name().to_owned())
            .collect(),
        seed: plan.seed(),
        epochs: faulted.epochs().len(),
        injections: log.total_injections(),
        nominal: 0,
        degraded: 0,
        holdover: 0,
        no_fix: 0,
        resilient: IntegrityCounts::default(),
        error_nominal: Summary::new(),
        error_degraded: Summary::new(),
        error_holdover: Summary::new(),
        per_algorithm: algos
            .iter()
            .map(|(raim, _)| AlgoIntegrity {
                name: raim.inner().name(),
                solved: 0,
                failed: 0,
                counts: IntegrityCounts::default(),
            })
            .collect(),
        theta_dlo: 0.0,
        theta_dlg: 0.0,
        eta_dlo: 0.0,
        eta_dlg: 0.0,
    };

    let mut previous_time: Option<gps_time::GpsTime> = None;
    for (index, epoch) in faulted.epochs().iter().enumerate() {
        let record = &log.epochs()[index];
        let significant = significant_faults(record);
        let obs = epoch.observations();
        let meas = to_measurements(obs);
        let t = epoch.time();
        let dt = previous_time
            .map(|prev| (t - prev).as_seconds())
            .filter(|dt| *dt > 0.0)
            .unwrap_or_else(|| cfg.epoch_interval_s.max(1.0));
        previous_time = Some(t);
        let predicted_bias = calibration.predict_range_bias(t);

        // --- Resilient pipeline ---
        match resilient.solve_epoch(&meas, predicted_bias, dt) {
            Ok(fix) => {
                let error = fix.position.distance_to(truth);
                match fix.quality {
                    FixQuality::Nominal => {
                        report.nominal += 1;
                        report.error_nominal.push(error);
                    }
                    FixQuality::Degraded => {
                        report.degraded += 1;
                        report.error_degraded.push(error);
                    }
                    FixQuality::Holdover => {
                        report.holdover += 1;
                        report.error_holdover.push(error);
                    }
                }
                // Holdover produces no measurement fix, so it neither
                // misses nor excludes anything; score the rest.
                if fix.quality != FixQuality::Holdover {
                    score_exclusions(
                        &mut report.resilient,
                        obs,
                        &fix.excluded,
                        record,
                        &significant,
                    );
                }
            }
            Err(_) => report.no_fix += 1,
        }

        // --- Bare RAIM per algorithm ---
        for ((raim, ctx), algo) in algos.iter_mut().zip(report.per_algorithm.iter_mut()) {
            match raim.solve_with(&Epoch::new(&meas, predicted_bias), ctx) {
                Ok(result) => {
                    algo.solved += 1;
                    score_exclusions(
                        &mut algo.counts,
                        obs,
                        &result.excluded,
                        record,
                        &significant,
                    );
                }
                Err(_) => algo.failed += 1,
            }
        }
    }

    // θ/η reference on the same faulted data (paired-epoch accounting
    // inside run_dataset keeps the rates meaningful under dropouts).
    let reference = run_dataset(&faulted, REFERENCE_M, cfg);
    if reference.nr.solves > 0 {
        report.theta_dlo = reference.theta_dlo();
        report.theta_dlg = reference.theta_dlg();
        report.eta_dlo = reference.eta_dlo();
        report.eta_dlg = reference.eta_dlg();
    }

    if gps_telemetry::enabled(Level::Info) {
        Event::new(Level::Info, "sim.campaign", "campaign complete")
            .with("station", report.station.clone())
            .with("epochs", report.epochs)
            .with("availability_pct", report.availability_pct())
            .with("degraded_pct", report.degraded_pct())
            .with("holdover", report.holdover)
            .with("no_fix", report.no_fix)
            .with("missed_detections", report.resilient.missed_detections)
            .with("false_exclusions", report.resilient.false_exclusions)
            .emit();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_faults::FaultScenario;
    use gps_obs::{paper_stations, DatasetGenerator};

    fn dataset(epochs: usize) -> DataSet {
        DatasetGenerator::new(77)
            .epoch_interval_s(60.0)
            .epoch_count(epochs)
            .elevation_mask_deg(5.0)
            .generate(&paper_stations()[0])
    }

    fn cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(77);
        cfg.calibration_epochs = 10;
        cfg
    }

    #[test]
    fn default_campaign_degrades_but_stays_mostly_available() {
        let data = dataset(80);
        let plan = FaultPlan::default_campaign(42);
        let report = run_campaign(&data, &plan, &cfg());
        // Every epoch is accounted for exactly once.
        assert_eq!(
            report.nominal + report.degraded + report.holdover + report.no_fix,
            report.epochs
        );
        assert_eq!(report.epochs, 80);
        // The blackout and the deep dropout fade starve the solver:
        // availability dips below 100%, with holdover bridging part of
        // the outage before the budget runs out.
        assert!(report.availability_pct() < 100.0, "{report}");
        assert!(report.availability_pct() > 60.0, "{report}");
        assert!(report.degraded > 0, "{report}");
        assert!(report.holdover > 0, "{report}");
        assert!(report.no_fix > 0, "{report}");
        // The ramp is a detectable fault: the resilient pipeline sees
        // significant-fault epochs and excludes satellites.
        assert!(report.resilient.faulted_epochs > 0, "{report}");
        assert!(report.injections > 0);
    }

    #[test]
    fn clean_plan_is_fully_available_and_clean() {
        let data = dataset(40);
        let plan = FaultPlan::new(1); // no scenarios
        let report = run_campaign(&data, &plan, &cfg());
        assert_eq!(report.no_fix, 0, "{report}");
        assert_eq!(report.holdover, 0, "{report}");
        assert!((report.availability_pct() - 100.0).abs() < 1e-9);
        assert_eq!(report.resilient.faulted_epochs, 0);
        assert_eq!(report.resilient.missed_detections, 0);
        assert_eq!(report.injections, 0);
        // Healthy data solves at nominal quality most of the time (an
        // occasional noise spike may trip a gate into degraded).
        assert!(report.nominal > report.degraded, "{report}");
        assert!(report.error_nominal.mean() < 50.0, "{report}");
    }

    #[test]
    fn step_fault_is_detected_not_missed() {
        let data = dataset(60);
        let plan = FaultPlan::new(3).with(FaultScenario::Step {
            magnitude_m: 400.0,
            start_frac: 0.4,
            epochs: 8,
        });
        let report = run_campaign(&data, &plan, &cfg());
        assert_eq!(report.resilient.faulted_epochs, 8, "{report}");
        // A 400 m step is far outside the noise budget: the pipeline must
        // catch essentially all of it.
        assert!(
            report.resilient.missed_detections <= 1,
            "missed {} of 8: {report}",
            report.resilient.missed_detections
        );
        assert!(report.resilient.true_exclusions >= 7, "{report}");
        // The bare-RAIM pipelines see the same epochs.
        for algo in &report.per_algorithm {
            assert_eq!(algo.solved + algo.failed, report.epochs, "{}", algo.name);
            assert_eq!(algo.counts.faulted_epochs, 8, "{}", algo.name);
        }
    }

    /// The GDOP a fix reports is the one its geometry gate computed: the
    /// DOP of exactly the satellites the accepted solve used (finite and
    /// not RAIM-excluded), at the fix position, to the bit.
    #[test]
    fn resilient_gdop_is_the_dop_of_the_used_set() {
        use gps_core::{Dop, Measurement};

        let data = dataset(60);
        let plan = FaultPlan::new(3).with(FaultScenario::Step {
            magnitude_m: 400.0,
            start_frac: 0.4,
            epochs: 8,
        });
        let FaultedDataSet { data: faulted, .. } = plan.apply(&data);
        let calibration = ClockCalibration::bootstrap(&faulted, &cfg());
        let mut resilient = ResilientSolver::new();
        let mut with_exclusions = 0;
        for epoch in faulted.epochs() {
            let meas = to_measurements(epoch.observations());
            let bias = calibration.predict_range_bias(epoch.time());
            let Ok(fix) = resilient.solve_epoch(&meas, bias, 60.0) else {
                continue;
            };
            if fix.quality == FixQuality::Holdover {
                assert_eq!(fix.gdop, None);
                continue;
            }
            let used: Vec<Measurement> = meas
                .iter()
                .enumerate()
                .filter(|(i, m)| m.is_finite() && !fix.excluded.contains(i))
                .map(|(_, m)| *m)
                .collect();
            let want = Dop::compute(&used, fix.position).unwrap().gdop;
            assert_eq!(
                fix.gdop.map(f64::to_bits),
                Some(want.to_bits()),
                "gdop {:?} vs {want} (excluded {:?})",
                fix.gdop,
                fix.excluded
            );
            with_exclusions += usize::from(!fix.excluded.is_empty());
        }
        assert!(
            with_exclusions > 0,
            "the step fault caused no RAIM exclusion"
        );
    }

    #[test]
    fn report_renders_every_section() {
        let data = dataset(40);
        let plan = FaultPlan::default_campaign(7);
        let text = run_campaign(&data, &plan, &cfg()).to_string();
        for needle in [
            "Fault campaign",
            "availability",
            "holdover",
            "resilient integrity",
            "bare RAIM per algorithm",
            "DLG",
            "θ_DLO",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn percentages_are_consistent() {
        let report = CampaignReport {
            station: "X".into(),
            scenarios: vec![],
            seed: 0,
            epochs: 10,
            injections: 0,
            nominal: 5,
            degraded: 2,
            holdover: 2,
            no_fix: 1,
            resilient: IntegrityCounts::default(),
            error_nominal: Summary::new(),
            error_degraded: Summary::new(),
            error_holdover: Summary::new(),
            per_algorithm: vec![],
            theta_dlo: 0.0,
            theta_dlg: 0.0,
            eta_dlo: 0.0,
            eta_dlg: 0.0,
        };
        assert!((report.availability_pct() - 70.0).abs() < 1e-9);
        assert!((report.degraded_pct() - 20.0).abs() < 1e-9);
        assert!((report.holdover_pct() - 20.0).abs() < 1e-9);
    }
}
