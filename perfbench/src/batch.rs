//! The batch phase: the serial `Engine`, the `ParallelEngine`, the
//! paper's θ/η, and the traced layer walk that splits a solve into the
//! public calls of `gps-core` and `gps-linalg`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gps_core::{
    metrics, BaseSelection, Dlg, Engine, Epoch, EpochJob, ParallelEngine, Solution, SolveContext,
    SolveError, Solver,
};
use gps_geodesy::{Ecef, Geodetic};
use gps_linalg::lstsq::{self, GlsStrategy, LstsqScratch};
use gps_linalg::{Cholesky, Matrix, Vector};
use gps_pool::ThreadPool;

use crate::inputs::BatchStream;
use crate::report::Report;
use crate::stats;
use crate::trace::{layer_table, Tracer};

/// Lane order of `Engine::all_solvers` / `ParallelEngine::all_solvers`.
pub const LANES: [&str; 4] = ["nr", "dlo", "dlg", "bancroft"];
const NR: usize = 0;

/// Bit pattern of one lane's outcome, for parity checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeBits {
    Fix([u64; 3]),
    Error(u16),
}

impl OutcomeBits {
    pub fn of(result: &Result<Solution, SolveError>) -> Self {
        match result {
            Ok(s) => OutcomeBits::Fix([
                s.position.x.to_bits(),
                s.position.y.to_bits(),
                s.position.z.to_bits(),
            ]),
            Err(e) => OutcomeBits::Error(e.code()),
        }
    }
}

/// The serial engine's per-epoch outcomes, computed once untimed: the
/// parity reference for every parallel pass and the source of η.
#[derive(Debug)]
pub struct Reference {
    pub bits: Vec<[OutcomeBits; 4]>,
    pub fails: [u64; 4],
    /// RMS 3-D error of NR, DLO, DLG over epochs all three solved.
    pub rms: [f64; 3],
    pub nr_iterations_mean: f64,
}

impl Reference {
    pub fn compute(stream: &BatchStream) -> Reference {
        let mut engine = Engine::all_solvers().with_timing(false);
        let mut bits = Vec::with_capacity(stream.len());
        let mut fails = [0u64; 4];
        let mut sq = [0.0f64; 3];
        let mut used = 0usize;
        let mut iterations = 0usize;
        let mut nr_solved = 0usize;
        for (job, truth) in stream.jobs.iter().zip(&stream.truth) {
            engine.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
            let results: Vec<&Result<Solution, SolveError>> = engine
                .lanes()
                .iter()
                .map(|lane| lane.last().expect("every lane ran this epoch"))
                .collect();
            let mut row = [OutcomeBits::Error(0); 4];
            for (lane, result) in results.iter().enumerate() {
                row[lane] = OutcomeBits::of(result);
                if result.is_err() {
                    fails[lane] += 1;
                }
            }
            if let Ok(fix) = results[NR] {
                iterations += fix.iterations;
                nr_solved += 1;
            }
            bits.push(row);
            if let Some(errors) = paper_errors(&results, *truth) {
                for (acc, e) in sq.iter_mut().zip(errors) {
                    *acc += e * e;
                }
                used += 1;
            }
        }
        let rms = sq.map(|s| (s / used.max(1) as f64).sqrt());
        Reference {
            bits,
            fails,
            rms,
            nr_iterations_mean: iterations as f64 / nr_solved.max(1) as f64,
        }
    }

    /// η = RMS error ratio to NR in percent (eq. 5-2 on RMS errors): DLO,
    /// DLG.
    pub fn eta(&self) -> [f64; 2] {
        [
            metrics::accuracy_rate(self.rms[1], self.rms[0]),
            metrics::accuracy_rate(self.rms[2], self.rms[0]),
        ]
    }

    /// Epochs of a batch starting at epoch `first` whose parallel
    /// outcome differs from the serial one in any lane.
    pub fn mismatches(&self, first: usize, outcomes: &[Vec<Result<Solution, SolveError>>]) -> u64 {
        let Some(want) = self.bits.get(first..first + outcomes.len()) else {
            return outcomes.len().max(1) as u64;
        };
        outcomes
            .iter()
            .zip(want)
            .filter(|(lanes, want)| {
                lanes.len() != 4
                    || lanes
                        .iter()
                        .zip(want.iter())
                        .any(|(r, w)| OutcomeBits::of(r) != *w)
            })
            .count() as u64
    }
}

/// 3-D errors of NR, DLO and DLG when all three solved and NR's fix is
/// plausible (the paper runner's altitude screen against NR's mirror
/// root).
fn paper_errors(results: &[&Result<Solution, SolveError>], truth: Ecef) -> Option<[f64; 3]> {
    let nr = results[NR].as_ref().ok()?;
    if Geodetic::from_ecef(nr.position).height().abs() >= 1.0e5 {
        return None;
    }
    let dlo = results[1].as_ref().ok()?;
    let dlg = results[2].as_ref().ok()?;
    Some([
        metrics::absolute_error(nr.position, truth),
        metrics::absolute_error(dlo.position, truth),
        metrics::absolute_error(dlg.position, truth),
    ])
}

/// θ of DLO, DLG and Bancroft (eq. 5-3, percent) from one interleaved
/// pass's time per lane, in lane order.
pub fn theta_of(ns: [f64; 4]) -> [f64; 3] {
    [1, 2, 3].map(|lane| metrics::execution_time_rate(ns[lane], ns[NR]))
}

/// Runs `engine` over the whole stream; returns solved lane-epochs.
fn engine_pass(engine: &mut Engine, jobs: &[EpochJob]) -> usize {
    let mut solved = 0;
    for job in jobs {
        solved += engine.run_epoch(
            std::hint::black_box(&job.measurements),
            job.predicted_receiver_bias_m,
        );
    }
    std::hint::black_box(solved)
}

fn single_lane(solver: &dyn Solver) -> Engine {
    Engine::new()
        .with_solver(solver.clone_box())
        .with_timing(false)
}

/// Program state of the batch phase, built during set-up.
pub struct BatchRig {
    pub serial: Engine,
    pub singles: Vec<Engine>,
    pub parallel: ParallelEngine,
    pub pool: ThreadPool,
    /// The stream cut into [`PARALLEL_BATCH`]-epoch batches, with the
    /// index of each batch's first epoch.
    pub batches: Vec<(usize, Arc<Vec<EpochJob>>)>,
}

impl BatchRig {
    /// Builds the engines and pool and warms every context with one
    /// pass over the stream.
    pub fn new(stream: &BatchStream, jobs: usize) -> BatchRig {
        let mut rig = BatchRig {
            serial: Engine::new(),
            singles: Vec::new(),
            parallel: ParallelEngine::all_solvers(),
            pool: ThreadPool::new(jobs),
            batches: stream
                .jobs
                .chunks(PARALLEL_BATCH)
                .enumerate()
                .map(|(i, batch)| (i * PARALLEL_BATCH, Arc::new(batch.to_vec())))
                .collect(),
        };
        rig.fresh_engines(stream);
        for (_, batch) in &rig.batches {
            let _ = rig.parallel.run_shared(&rig.pool, Arc::clone(batch));
        }
        rig
    }

    /// Replaces the serial engines with new, warmed ones. Where an
    /// engine's buffers land in memory can slow one lane for as long as
    /// they live; fresh engines per slice give every run several
    /// placements.
    fn fresh_engines(&mut self, stream: &BatchStream) {
        self.serial = Engine::all_solvers().with_timing(false);
        self.singles = self
            .parallel
            .solvers()
            .iter()
            .map(|s| single_lane(s.as_ref()))
            .collect();
        engine_pass(&mut self.serial, &stream.jobs);
        for engine in &mut self.singles {
            engine_pass(engine, &stream.jobs);
        }
    }
}

/// Epochs per timed chunk of the serial and θ passes.
const CHUNK: usize = 64;

/// Epochs per `ParallelEngine` batch: the stated input size of
/// `parallel_fixes_per_s`.
pub const PARALLEL_BATCH: usize = 960;

/// Times of every chunk in every pass. On a shared machine contention
/// only adds time, and it comes and goes over seconds, changing even the
/// solvers' relative costs; each chunk's fastest pass is its cost with
/// the least contention. Those sum to a stream time with the stream's
/// own mix of epochs.
#[derive(Debug, Default)]
struct ChunkTimes {
    /// `ns[c]` holds chunk `c`'s time, one entry per pass.
    ns: Vec<Vec<f64>>,
}

impl ChunkTimes {
    fn push(&mut self, chunk: usize, ns: f64) {
        if self.ns.len() <= chunk {
            self.ns.resize(chunk + 1, Vec::new());
        }
        self.ns[chunk].push(ns);
    }

    /// Σ over chunks of the fastest pass, ns.
    fn total_ns(&self) -> f64 {
        self.ns
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }

    fn samples(&self) -> usize {
        self.ns.iter().map(Vec::len).sum()
    }
}

/// End-to-end samples of the batch phase, gathered over several slices.
#[derive(Debug, Default)]
pub struct Samples {
    serial: ChunkTimes,
    serial_solved: Vec<usize>,
    lanes: [ChunkTimes; 4],
    parallel: ChunkTimes,
    parallel_solved: Vec<u64>,
    /// Parallel over serial fixes/s of each round. The parallel engine
    /// needs every core at once, and on a shared machine that is seldom
    /// the case for long, so the fastest pass says little; the ratio of
    /// two passes made moments apart cancels the machine's state.
    speedup: Vec<f64>,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// One slice of the untraced batch phase. Each round makes one serial
/// pass, one θ pass and one parallel pass, so every metric samples the
/// whole slice. In the θ pass the four single-solver engines take turns
/// on every chunk, the first lane rotating, so a slow stretch of the
/// machine hits every lane alike. Each parallel batch is checked for
/// parity. `interlude` runs `interludes` times, spread evenly over the
/// slice.
#[allow(clippy::too_many_arguments)]
pub fn measure_slice(
    rig: &mut BatchRig,
    stream: &BatchStream,
    reference: &Reference,
    budget: Duration,
    samples: &mut Samples,
    report: &mut Report,
    interludes: u32,
    interlude: &mut dyn FnMut(&mut Report),
) {
    let epochs = stream.len();
    rig.fresh_engines(stream);
    let started = Instant::now();
    let mut done = 0u32;
    let mut rounds = 0usize;
    while rounds < 2 || started.elapsed() < budget {
        if done < interludes && started.elapsed() >= budget * done / interludes {
            interlude(report);
            done += 1;
        }
        samples.serial_solved.clear();
        let mut serial_ns = 0.0;
        for (c, chunk) in stream.jobs.chunks(CHUNK).enumerate() {
            let (solved, ns) = timed(|| engine_pass(&mut rig.serial, chunk));
            serial_ns += ns;
            samples.serial.push(c, ns);
            samples.serial_solved.push(solved);
        }

        for (c, chunk) in stream.jobs.chunks(CHUNK).enumerate() {
            for k in 0..4 {
                let lane = (c + k) % 4;
                let ((), ns) = timed(|| {
                    engine_pass(&mut rig.singles[lane], chunk);
                });
                samples.lanes[lane].push(c, ns);
            }
        }

        samples.parallel_solved.clear();
        let mut parallel_ns = 0.0;
        for (b, (first, batch)) in rig.batches.iter().enumerate() {
            let (run, ns) = timed(|| rig.parallel.run_shared(&rig.pool, Arc::clone(batch)));
            parallel_ns += ns;
            samples.parallel.push(b, ns);
            samples
                .parallel_solved
                .push(run.lane_stats.iter().map(|s| s.solved).sum());
            report.fail_gate(
                "parallel_parity",
                reference.mismatches(*first, &run.outcomes),
            );
        }
        let serial_rate = samples.serial_solved.iter().sum::<usize>() as f64 / serial_ns;
        let parallel_rate = samples.parallel_solved.iter().sum::<u64>() as f64 / parallel_ns;
        samples.speedup.push(parallel_rate / serial_rate);
        report.attempted += 6 * epochs as u64;
        rounds += 1;
    }
    while done < interludes {
        interlude(report);
        done += 1;
    }
}

impl Samples {
    /// Reports the batch metrics, and η from the reference.
    pub fn report(&self, reference: &Reference, report: &mut Report) {
        let serial = self.serial_solved.iter().sum::<usize>() as f64 * 1e9 / self.serial.total_ns();
        let parallel =
            self.parallel_solved.iter().sum::<u64>() as f64 * 1e9 / self.parallel.total_ns();
        report.exact("serial_fixes_per_s", serial, "1/s", self.serial.samples());
        report.exact(
            "parallel_fixes_per_s",
            parallel,
            "1/s",
            self.parallel.samples(),
        );
        // Ratios, which the machine's changing speed moves far less than
        // the rates themselves.
        report.median("parallel_speedup", &self.speedup, "ratio");
        let ns = self.lanes.each_ref().map(ChunkTimes::total_ns);
        report.exact(
            "serial_engine_efficiency",
            ns.iter().sum::<f64>() / self.serial.total_ns(),
            "ratio",
            self.serial.samples(),
        );
        let n = self.lanes[NR].samples();
        for (name, value) in ["theta_dlo", "theta_dlg", "theta_bancroft"]
            .iter()
            .zip(theta_of(ns))
        {
            report.exact(name, value, "%", n);
        }
        let eta = reference.eta();
        let epochs = reference.bits.len();
        report.exact("eta_dlo", eta[0], "%", epochs);
        report.exact("eta_dlg", eta[1], "%", epochs);
        report.fail_gate(
            "eta_finite",
            u64::from(!eta.iter().all(|e| e.is_finite() && *e > 0.0)),
        );
    }
}

/// Computed operation counts at `r` rows, `n = 3` unknowns.
/// Normal equations: r·(n(n+1)/2 + n) multiply-adds; n×n Cholesky
/// n³/3; two triangular solves 2n²; an r×r Cholesky r³/3; a whitening
/// forward solve of n + 1 right-hand sides (n + 1)·r².
pub fn flops(r: f64) -> [f64; 4] {
    let n = 3.0;
    let normal = 2.0 * r * (n * (n + 1.0) / 2.0 + n);
    let small = n * n * n / 3.0 + 2.0 * n * n;
    let ols = normal + small;
    // D⁻¹ row scaling (r), 𝟙ᵀD⁻¹𝟙 (2r), u = AᵀD⁻¹𝟙 (2rn), rank-one
    // update of the n×n system and its rhs (2n² + 2n).
    let gls_rank1 = ols + 3.0 * r + 2.0 * r * n + 2.0 * n * n + 2.0 * n;
    let chol = r * r * r / 3.0;
    let gls_dense = chol + (n + 1.0) * r * r + ols;
    [ols, gls_rank1, gls_dense, chol]
}

/// Epochs per traced walk, and the most walks per run: bounds the
/// span buffer to a few hundred thousand spans.
const WALK_EPOCHS: usize = 1_500;
const MAX_WALKS: u64 = 8;

/// Scratch of the traced layer walk.
struct Walk {
    timed: Engine,
    solvers: Vec<(Box<dyn Solver>, SolveContext)>,
    dlg: Dlg,
    base: BaseSelection,
    scratch: LstsqScratch,
    x: Vector,
    cov: Matrix,
    factor: Matrix,
}

fn layer_walk(
    tracer: &mut Tracer,
    rig: &mut BatchRig,
    walk: &mut Walk,
    jobs: &[EpochJob],
    first_epoch: u64,
) {
    for (i, job) in jobs.iter().enumerate() {
        let id = first_epoch + i as u64;
        let meas = &job.measurements[..];
        let bias = job.predicted_receiver_bias_m;
        tracer.span("epoch", id, |t| {
            t.span("core.engine.run_epoch", id, |_| {
                rig.serial.run_epoch(meas, bias)
            });
            t.span("core.engine.run_epoch_timed", id, |_| {
                walk.timed.run_epoch(meas, bias)
            });
            let epoch = Epoch::new(meas, bias);
            for (lane, (solver, ctx)) in walk.solvers.iter_mut().enumerate() {
                let name = [
                    "core.solver.nr",
                    "core.solver.dlo",
                    "core.solver.dlg",
                    "core.solver.bancroft",
                ][lane];
                let _ = t.span(name, id, |_| solver.solve(&epoch, ctx));
            }
            t.span("core.dlg.stages", id, |t| {
                t.span("core.base.select", id, |_| {
                    std::hint::black_box(walk.base.select(meas))
                });
                let Ok(sys) = t.span("core.dlo.linearize_alloc", id, |_| {
                    gps_core::linearize(meas, bias, walk.base)
                }) else {
                    return;
                };
                let (rank1, diag) = t.span("core.dlg.covariance_rank1", id, |_| {
                    walk.dlg.covariance_rank1(&sys)
                });
                let _ = t.span("linalg.gls_rank1_into", id, |_| {
                    lstsq::gls_rank1_into(
                        &sys.a,
                        &sys.d,
                        rank1,
                        &diag,
                        &mut walk.scratch,
                        &mut walk.x,
                    )
                });
                let _ = t.span("linalg.ols_into", id, |_| {
                    lstsq::ols_into(&sys.a, &sys.d, &mut walk.scratch, &mut walk.x)
                });
                t.span("core.dlg.covariance_matrix_into", id, |_| {
                    walk.dlg.covariance_matrix_into(&sys, &mut walk.cov)
                });
                let _ = t.span("linalg.gls_into", id, |_| {
                    lstsq::gls_into(
                        &sys.a,
                        &sys.d,
                        &walk.cov,
                        GlsStrategy::Whitened,
                        &mut walk.scratch,
                        &mut walk.x,
                    )
                });
                walk.factor.copy_from(&walk.cov);
                let _ = t.span("linalg.cholesky.factor_in_place", id, |_| {
                    Cholesky::factor_in_place(&mut walk.factor)
                });
            });
        });
    }
}

/// The traced batch pass: the layer walk untraced then traced over
/// the same epochs, plus traced `ParallelEngine` runs. Returns the
/// busy time of the untraced and traced walks (for the tracing
/// overhead) and the trace's spans.
pub fn traced(
    rig: &mut BatchRig,
    stream: &BatchStream,
    reference: &Reference,
    budget: Duration,
    report: &mut Report,
) -> (Duration, Duration, Vec<crate::trace::Span>) {
    let jobs = &stream.jobs[..stream.len().min(WALK_EPOCHS)];
    let mut walk = Walk {
        timed: Engine::all_solvers(),
        solvers: rig
            .parallel
            .solvers()
            .iter()
            .map(|s| (s.clone_box(), SolveContext::new()))
            .collect(),
        dlg: Dlg::default(),
        base: BaseSelection::default(),
        scratch: LstsqScratch::new(),
        x: Vector::default(),
        cov: Matrix::default(),
        factor: Matrix::default(),
    };
    // Warm-up walk, untraced.
    let mut off = Tracer::new(false);
    layer_walk(&mut off, rig, &mut walk, jobs, 0);

    // Alternate untraced and traced walks until half the budget is used.
    let mut untraced = Duration::ZERO;
    let mut traced_busy = Duration::ZERO;
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || (passes < MAX_WALKS && started.elapsed() < budget / 2) {
        let t = Instant::now();
        layer_walk(&mut off, rig, &mut walk, jobs, 0);
        untraced += t.elapsed();
        let t = Instant::now();
        layer_walk(
            &mut tracer,
            rig,
            &mut walk,
            jobs,
            passes * jobs.len() as u64,
        );
        traced_busy += t.elapsed();
        passes += 1;
    }
    report.attempted += passes * 2 * jobs.len() as u64;

    // Traced parallel runs: one span per run.
    let submitted = || {
        gps_telemetry::snapshot()
            .counters
            .iter()
            .find(|c| c.name == "pool.submitted")
            .map_or(0, |c| c.value)
    };
    let before = submitted();
    let mut utilization_min = Vec::new();
    let mut imbalance = Vec::new();
    let mut ns_per_epoch = Vec::new();
    let started = Instant::now();
    let mut runs = 0u64;
    while runs < 3 || started.elapsed() < budget / 2 {
        let t = Instant::now();
        let run = tracer.span("core.parallel.run", runs, |_| {
            rig.parallel.run_shared(&rig.pool, Arc::clone(&stream.jobs))
        });
        let wall = t.elapsed();
        ns_per_epoch.push(wall.as_nanos() as f64 / stream.len() as f64);
        report.fail_gate("parallel_parity", reference.mismatches(0, &run.outcomes));
        let util = run
            .workers
            .iter()
            .map(|w| w.utilization(run.elapsed))
            .fold(f64::INFINITY, f64::min);
        utilization_min.push(util);
        let counts: Vec<f64> = run.workers.iter().map(|w| w.epochs as f64).collect();
        let mean = stats::mean(&counts).unwrap_or(0.0);
        let max = counts.iter().copied().fold(0.0, f64::max);
        imbalance.push(if mean > 0.0 { max / mean - 1.0 } else { 0.0 });
        runs += 1;
    }
    report.attempted += runs * stream.len() as u64;
    let submitted_per_run = (submitted() - before) as f64 / runs as f64;

    let table = layer_table(tracer.spans());
    let span_cost = crate::trace::span_cost_ns();
    let per_call = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |r| r.self_ns_per_call() - span_cost)
    };
    let lane_ns: Vec<f64> = LANES
        .iter()
        .map(|l| per_call(&format!("core.solver.{l}")))
        .collect();
    let run_epoch = per_call("core.engine.run_epoch");
    let overhead = run_epoch - lane_ns.iter().sum::<f64>();
    let parallel_ns = stats::median(&ns_per_epoch).unwrap_or(0.0);
    let jobs_n = rig.pool.jobs() as f64;
    let parallel_overhead = jobs_n * parallel_ns - run_epoch;

    let n = table.get("epoch").map_or(0, |r| r.calls as usize);
    let mean_r = jobs
        .iter()
        .map(|j| j.measurements.len() as f64 - 1.0)
        .sum::<f64>()
        / jobs.len() as f64;
    let ops = flops(mean_r);
    for (i, name) in [
        "linalg.ols_into",
        "linalg.gls_rank1_into",
        "linalg.gls_into",
        "linalg.cholesky.factor_in_place",
    ]
    .iter()
    .enumerate()
    {
        report.exact(&format!("{name}.ns"), per_call(name), "ns", n);
        report.exact(&format!("{name}.flops"), ops[i], "count", n);
    }
    report.exact("core.base.select.ns", per_call("core.base.select"), "ns", n);
    report.exact(
        "core.dlo.linearize_alloc.ns",
        per_call("core.dlo.linearize_alloc"),
        "ns",
        n,
    );
    report.exact(
        "core.dlg.covariance_rank1.ns",
        per_call("core.dlg.covariance_rank1"),
        "ns",
        n,
    );
    for (lane, name) in LANES.iter().enumerate() {
        report.exact(
            &format!("core.solver.{name}.ns_per_fix"),
            lane_ns[lane],
            "ns",
            n,
        );
        report.exact(
            &format!("core.solver.{name}.fail_ratio"),
            reference.fails[lane] as f64 / stream.len() as f64,
            "ratio",
            stream.len(),
        );
    }
    report.exact(
        "core.nr.iterations_mean",
        reference.nr_iterations_mean,
        "count",
        stream.len(),
    );
    report.exact("core.engine.run_epoch.ns", run_epoch, "ns", n);
    report.exact("core.engine.overhead_ns", overhead, "ns", n);
    report.exact(
        "core.engine.timing_hooks_ns",
        per_call("core.engine.run_epoch_timed") - run_epoch,
        "ns",
        n,
    );
    report.median("core.parallel.ns_per_epoch", &ns_per_epoch, "ns");
    report.exact(
        "core.parallel.overhead_ns_per_epoch",
        parallel_overhead,
        "ns",
        runs as usize,
    );
    report.median(
        "core.parallel.worker_utilization_min",
        &utilization_min,
        "ratio",
    );
    report.median("core.parallel.worker_imbalance", &imbalance, "ratio");
    report.exact("pool.submitted", submitted_per_run, "count", runs as usize);

    // Shares the workload design predicts: of the serial epoch, the
    // part inside solver calls and the engine's own part; of the two
    // direct solvers, the part their estimator kernels take; of the
    // parallel workers' time, the part that is not solving.
    let solver_sum: f64 = lane_ns.iter().sum();
    report.exact(
        "trace.solver_self_share",
        solver_sum / run_epoch,
        "ratio",
        n,
    );
    report.exact(
        "trace.engine_overhead_share",
        overhead / run_epoch,
        "ratio",
        n,
    );
    report.exact(
        "trace.linalg_self_share",
        (per_call("linalg.ols_into") + per_call("linalg.gls_rank1_into"))
            / (lane_ns[1] + lane_ns[2]),
        "ratio",
        n,
    );
    report.exact(
        "trace.parallel_overhead_share",
        parallel_overhead / (jobs_n * parallel_ns),
        "ratio",
        runs as usize,
    );
    report.exact("trace.span_cost_ns", span_cost, "ns", 20_001);

    (untraced, traced_busy, tracer.spans().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::Measurement;

    /// A tiny noise-free stream: five satellites, the receiver at a
    /// few truths, zero clock bias.
    fn tiny_stream() -> BatchStream {
        let sats = [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ];
        let truths: Vec<Ecef> = (0..6)
            .map(|i| Ecef::new(6.371e6, 1.0e5 * f64::from(i), -2.0e5))
            .collect();
        let jobs = truths
            .iter()
            .map(|&truth| {
                let meas = sats
                    .iter()
                    .map(|&s| Measurement::new(s, s.distance_to(truth)))
                    .collect();
                EpochJob::new(meas, 0.0)
            })
            .collect();
        BatchStream {
            jobs: Arc::new(jobs),
            truth: truths,
        }
    }

    #[test]
    fn chunk_times_keep_each_chunks_fastest_pass() {
        let mut times = ChunkTimes::default();
        // Chunk 0: 100 ns, two passes slowed; chunk 1: 300 ns.
        for ns in [140.0, 5_000.0, 100.0] {
            times.push(0, ns);
        }
        for ns in [300.0, 330.0, 310.0] {
            times.push(1, ns);
        }
        assert_eq!(times.total_ns(), 400.0);
        assert_eq!(times.samples(), 6);
    }

    #[test]
    fn theta_is_percent_of_nr() {
        let theta = theta_of([200.0, 50.0, 100.0, 300.0]);
        assert_eq!(theta, [25.0, 50.0, 150.0]);
    }

    #[test]
    fn eta_is_rms_ratio_in_percent() {
        let reference = Reference {
            bits: Vec::new(),
            fails: [0; 4],
            rms: [2.0, 3.0, 1.0],
            nr_iterations_mean: 0.0,
        };
        assert_eq!(reference.eta(), [150.0, 50.0]);
    }

    #[test]
    fn reference_on_a_tiny_stream() {
        let stream = tiny_stream();
        let reference = Reference::compute(&stream);
        assert_eq!(reference.bits.len(), 6);
        assert_eq!(reference.fails, [0; 4]);
        assert!(
            reference.rms.iter().all(|&r| r < 1e-3),
            "{:?}",
            reference.rms
        );
        assert!(reference.nr_iterations_mean >= 1.0);
        assert!(reference.eta().iter().all(|e| e.is_finite()));
    }

    #[test]
    fn parity_counts_every_differing_epoch() {
        let stream = tiny_stream();
        let reference = Reference::compute(&stream);
        let pool = ThreadPool::new(2);
        let mut run = ParallelEngine::all_solvers().run_shared(&pool, Arc::clone(&stream.jobs));
        assert_eq!(reference.mismatches(0, &run.outcomes), 0);
        if let Ok(fix) = run.outcomes[3][2].as_mut() {
            fix.position.x = f64::from_bits(fix.position.x.to_bits() ^ 1);
        }
        run.outcomes[5][0] = Err(SolveError::NonFinite);
        assert_eq!(reference.mismatches(0, &run.outcomes), 2);
        // A batch compares against its own slice of the reference.
        assert_eq!(reference.mismatches(1, &run.outcomes[1..5]), 1);
        assert_eq!(reference.mismatches(2, &run.outcomes[1..5]), 4);
        assert_eq!(reference.mismatches(3, &run.outcomes), 6);
    }

    #[test]
    fn flop_counts_grow_with_rows() {
        let small = flops(3.0);
        let large = flops(39.0);
        for (s, l) in small.iter().zip(&large) {
            assert!(l > s);
        }
        // The dense GLS pays the r³/3 factorization the rank-one path avoids.
        assert!(large[2] > 10.0 * large[1]);
        assert!((large[3] - 39.0f64.powi(3) / 3.0).abs() < 1e-9);
    }
}
