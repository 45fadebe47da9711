//! Workload definitions and seeded input generation.
//!
//! Everything here runs before any timed region: the program under
//! test only ever sees the generated epochs.

use std::sync::Arc;

use gps_core::{EpochJob, Measurement, NewtonRaphson, PositionSolver};
use gps_faults::{FaultPlan, FaultScenario};
use gps_geodesy::{Ecef, Geodetic};
use gps_obs::{paper_stations, DataSet, DatasetGenerator};
use gps_orbits::Constellation;
use gps_sim::{select_subset, to_measurements, ClockCalibration, ExperimentConfig};

/// Fixed satellite counts of the wide-constellation workload.
pub const WIDE_M: [usize; 3] = [24, 32, 40];

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GPS-only, all in view (m ≈ 4–13): the paper's own regime.
    PaperGps,
    /// 118-SV multi-GNSS, epochs cut to m ∈ {24, 32, 40}.
    GnssWide,
    /// Synchronized fleet with a recoverable fault mix, ladder crossing
    /// the slot limit.
    FleetSync,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperGps, Workload::GnssWide, Workload::FleetSync];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGps => "paper_gps",
            Workload::GnssWide => "gnss_wide",
            Workload::FleetSync => "fleet_sync",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether receivers see the multi-GNSS space segment.
    pub fn wide(self) -> bool {
        self == Workload::GnssWide
    }

    /// Every `FAULT_EVERY`-th fleet receiver carries the fault mix
    /// (fleet_sync only).
    pub fn faulted_receiver(self, receiver: usize) -> bool {
        self == Workload::FleetSync && receiver % FAULT_EVERY == FAULT_EVERY - 1
    }

    /// Fleet ladder as multiples of the slot limit, in eighths. Only
    /// fleet_sync climbs above the limit.
    pub fn ladder_eighths(self) -> &'static [usize] {
        match self {
            Workload::FleetSync => &[2, 4, 7, 12],
            Workload::PaperGps | Workload::GnssWide => &[2, 4, 7],
        }
    }
}

/// One receiver in four carries the step + multipath fault mix.
pub const FAULT_EVERY: usize = 4;

/// Epochs per station of the batch stream (four stations, 30 s
/// cadence). fleet_sync's batch phase runs the paper_gps stream.
fn batch_epochs_per_station(workload: Workload) -> usize {
    match workload {
        Workload::PaperGps | Workload::FleetSync => 1_440,
        Workload::GnssWide => 720,
    }
}

/// A batch stream plus the ground truth of every epoch.
#[derive(Debug, Clone)]
pub struct BatchStream {
    pub jobs: Arc<Vec<EpochJob>>,
    pub truth: Vec<Ecef>,
}

impl BatchStream {
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn mean_m(&self) -> f64 {
        let total: usize = self.jobs.iter().map(|j| j.measurements.len()).sum();
        total as f64 / self.jobs.len().max(1) as f64
    }
}

/// One fleet receiver's epochs (one per tick it is active).
#[derive(Debug, Clone)]
pub struct ReceiverStream {
    pub epochs: Vec<Vec<Measurement>>,
}

/// The fleet: distinct receiver streams, reused round-robin by the
/// sessions of a step.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub streams: Vec<ReceiverStream>,
}

impl Fleet {
    pub fn stream(&self, receiver: usize) -> &ReceiverStream {
        &self.streams[receiver % self.streams.len()]
    }
}

/// All generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub batch: BatchStream,
    pub fleet: Fleet,
}

/// Distinct fleet streams generated; larger fleets reuse them (each
/// session still keeps its own state).
pub const DISTINCT_RECEIVERS: usize = 32;

fn generator(workload: Workload, seed: u64) -> DatasetGenerator {
    let g = DatasetGenerator::new(seed).elevation_mask_deg(5.0);
    if workload.wide() {
        g.constellation(Constellation::multi_gnss_nominal())
    } else {
        g
    }
}

/// Cuts one epoch to the workload's satellite count: all in view for
/// GPS-only workloads, the largest of [`WIDE_M`] that fits (rotating by
/// `index`) for gnss_wide. `None` if the epoch is unusable.
fn cut(workload: Workload, data: &DataSet, index: usize) -> Option<Vec<Measurement>> {
    let epoch = data.epochs().get(index)?;
    let visible = epoch.observations().len();
    if workload.wide() {
        let want = WIDE_M[index % WIDE_M.len()];
        let m = WIDE_M
            .iter()
            .rev()
            .copied()
            .find(|&m| m <= want && m <= visible)?;
        Some(to_measurements(&select_subset(
            data.station().position(),
            epoch,
            m,
        )))
    } else if visible >= 4 {
        Some(to_measurements(epoch.observations()))
    } else {
        None
    }
}

/// Clock predictions for every epoch of `data`, as the paper's runner
/// makes them (NR bootstrap, re-anchor at clock resets and every 900 s).
fn predicted_biases(data: &DataSet, seed: u64) -> Vec<f64> {
    let cfg = ExperimentConfig::new(seed);
    let mut calibration = ClockCalibration::bootstrap(data, &cfg);
    let nr = NewtonRaphson::default();
    data.epochs()
        .iter()
        .map(|epoch| {
            if calibration.needs_recalibration(epoch) {
                let full = to_measurements(epoch.observations());
                if let Ok(fix) = nr.solve(&full, 0.0) {
                    let plausible = Geodetic::from_ecef(fix.position).height().abs() < 1.0e5;
                    if let (Some(bias), true) = (fix.receiver_bias_m, plausible) {
                        calibration.observe(epoch, bias);
                    }
                }
            }
            calibration.predict_range_bias(epoch.time())
        })
        .collect()
}

fn push_dataset(
    workload: Workload,
    data: &DataSet,
    seed: u64,
    out: &mut BatchStream,
    jobs: &mut Vec<EpochJob>,
) {
    let biases = predicted_biases(data, seed);
    let truth = data.station().position();
    for (index, bias) in biases.into_iter().enumerate() {
        if let Some(meas) = cut(workload, data, index) {
            jobs.push(EpochJob::new(meas, bias));
            out.truth.push(truth);
        }
    }
}

/// Generates the run's inputs from `seed`. `ticks_per_receiver` is the
/// longest stream any fleet session consumes.
pub fn generate(workload: Workload, seed: u64, ticks_per_receiver: usize) -> Inputs {
    let stations = paper_stations();
    let mut batch = BatchStream {
        jobs: Arc::new(Vec::new()),
        truth: Vec::new(),
    };
    let mut jobs = Vec::new();

    let mut fleet = Fleet {
        streams: Vec::with_capacity(DISTINCT_RECEIVERS),
    };
    for receiver in 0..DISTINCT_RECEIVERS {
        let station = &stations[receiver % stations.len()];
        let rseed = seed.wrapping_mul(1_000).wrapping_add(receiver as u64);
        let data = generator(workload, rseed)
            .epoch_interval_s(1.0)
            .epoch_count(ticks_per_receiver)
            .generate(station);
        let data = if workload.faulted_receiver(receiver) {
            FaultPlan::new(rseed)
                .with(FaultScenario::step())
                .with(FaultScenario::multipath())
                .apply(&data)
                .data
        } else {
            data
        };
        // A session needs one epoch per tick: reuse the last usable one
        // should an epoch ever be empty.
        let mut epochs = Vec::with_capacity(ticks_per_receiver);
        for index in 0..data.epochs().len() {
            match cut(workload, &data, index) {
                Some(meas) => epochs.push(meas),
                None => {
                    let fallback = epochs.last().cloned().unwrap_or_default();
                    epochs.push(fallback);
                }
            }
        }
        fleet.streams.push(ReceiverStream { epochs });
    }

    for (index, station) in stations.iter().enumerate() {
        let sseed = seed.wrapping_add(index as u64);
        let data = generator(workload, sseed)
            .epoch_interval_s(30.0)
            .epoch_count(batch_epochs_per_station(workload))
            .generate(station);
        push_dataset(workload, &data, sseed, &mut batch, &mut jobs);
    }
    batch.jobs = Arc::new(jobs);
    Inputs { batch, fleet }
}
