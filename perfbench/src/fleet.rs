//! The fleet phase: an open loop of synchronized bursts against
//! `PositioningService`, climbing a fixed ladder of session counts.
//!
//! Receivers sample on the GPS second, so at every tick of a
//! compressed epoch clock each active session delivers one epoch at
//! once. The generator ingests the burst and runs one processing round;
//! if a round overruns, the next burst starts late and the lateness is
//! charged to those epochs, because latency is timed from each tick's
//! due time.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gps_core::{
    fleet_digest, replay_journal, Disposition, Dlg, Epoch, FixQuality, IngestResult,
    PositioningService, Raim, ServiceConfig, Session, SessionEpoch, SolveContext,
};
use gps_telemetry::JournalWriter;

use crate::inputs::{Fleet, Workload};
use crate::report::Report;
use crate::stats;
use crate::trace::{layer_table, Span, Tracer};

/// Wall-clock length of one (compressed) GPS second.
pub const PERIOD: Duration = Duration::from_millis(50);
/// Seconds between a receiver's epochs, as the sessions see it.
const EPOCH_DT_S: f64 = 1.0;

/// The load ladder of one run.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// `shards × queue_capacity`: epochs one round can admit.
    pub slot_limit: usize,
    /// Sessions per step, ascending.
    pub steps: Vec<usize>,
    pub ticks_per_step: usize,
}

impl Ladder {
    pub fn new(workload: Workload, config: &ServiceConfig, ticks_per_step: usize) -> Ladder {
        let slot_limit = config.shards.max(1) * config.queue_capacity;
        Ladder {
            slot_limit,
            steps: workload
                .ladder_eighths()
                .iter()
                .map(|e| slot_limit * e / 8)
                .collect(),
            ticks_per_step,
        }
    }

    /// The highest step below the slot limit.
    pub fn below_limit_step(&self) -> usize {
        self.steps
            .iter()
            .rposition(|&s| s < self.slot_limit)
            .unwrap_or(0)
    }

    /// Ticks of step `index`: the step whose latency is reported runs
    /// twice as long as the others.
    pub fn ticks(&self, index: usize) -> usize {
        if index == self.below_limit_step() {
            2 * self.ticks_per_step
        } else {
            self.ticks_per_step
        }
    }

    /// Epochs the longest-lived receiver consumes.
    pub fn ticks_total(&self) -> usize {
        (0..self.steps.len()).map(|i| self.ticks(i)).sum()
    }

    /// Epochs per latency window of the reported step.
    pub fn latency_window(&self) -> usize {
        latency_window(self.steps[self.below_limit_step()])
    }

    /// A copy running only the first `ticks` ticks of every step.
    pub fn shortened(&self, ticks: usize) -> Ladder {
        Ladder {
            ticks_per_step: ticks.min(self.ticks_per_step),
            ..self.clone()
        }
    }
}

/// Epochs per latency window at `sessions` epochs a tick: whole ticks,
/// enough for a p99 with 10 samples beyond it.
pub fn latency_window(sessions: usize) -> usize {
    let sessions = sessions.max(1);
    (1_000 + stats::MIN_BEYOND).div_ceil(sessions) * sessions
}

/// The service configuration of every fleet run.
pub fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        shards: workers,
        ..ServiceConfig::default()
    }
}

/// Due → outcome latency of one epoch, µs: the lateness of its ingest
/// plus the service's own ingest → outcome latency.
pub fn due_latency_us(due: Instant, ingested: Instant, service_latency_us: u64) -> f64 {
    ingested.saturating_duration_since(due).as_secs_f64() * 1e6 + service_latency_us as f64
}

/// How late the generator started a tick, µs.
pub fn generator_lag_us(due: Instant, started: Instant) -> f64 {
    started.saturating_duration_since(due).as_secs_f64() * 1e6
}

/// Per-step tallies.
#[derive(Debug, Default, Clone)]
pub struct StepStats {
    pub offered: u64,
    pub outcomes: u64,
    pub fixes_in_limit: u64,
    /// Due → outcome µs per offered epoch; missing outcomes are +∞.
    pub latency_us: Vec<f64>,
    pub wall: Duration,
    /// Epochs neither shed nor answered grew during the step.
    pub backlog_growth: bool,
}

impl StepStats {
    /// Meets the limit: no backlog growth, and the p99 of the step's
    /// latency windows (median over windows; missing outcomes count as
    /// late) within one period.
    pub fn sustainable(&self, window: usize) -> bool {
        !self.backlog_growth
            && stats::windowed_percentile(&self.latency_us, window, 0.99)
                .is_some_and(|(p99, _)| p99 <= PERIOD.as_secs_f64() * 1e6)
    }

    pub fn delivered_per_s(&self) -> f64 {
        self.fixes_in_limit as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Everything one ladder run observed.
#[derive(Debug, Default)]
pub struct LadderRun {
    pub steps: Vec<StepStats>,
    pub round_ms: Vec<f64>,
    pub lag_us: Vec<f64>,
    pub queue_to_outcome_us: Vec<f64>,
    pub busy: Duration,
    pub round_wall: Duration,
    pub offered: u64,
    pub shed: u64,
    pub outcomes: u64,
    pub deadline_expired: u64,
    pub round_failures: u64,
    pub quality: [u64; 3],
    /// (tick, receiver, epoch index) of every epoch a session solved,
    /// in processing order per receiver.
    pub solved: Vec<(usize, usize, usize)>,
    pub receivers_with_outcome: BTreeSet<u64>,
    pub live_digests: Vec<(u64, u64)>,
}

impl LadderRun {
    /// Offered epochs neither shed nor answered yet.
    pub fn backlog(&self) -> u64 {
        self.offered.saturating_sub(self.shed + self.outcomes)
    }
}

fn counter(name: &str) -> u64 {
    gps_telemetry::snapshot()
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Runs the ladder against `service`. Spans (when `tracer` is on):
/// one `tick` root per burst with `core.service.ingest` per epoch and
/// one `core.service.process_round`.
pub fn run_ladder(
    service: &mut PositioningService,
    fleet: &Fleet,
    ladder: &Ladder,
    tracer: &mut Tracer,
) -> LadderRun {
    let limit_us = PERIOD.as_secs_f64() * 1e6;
    let mut run = LadderRun::default();
    let mut next_epoch: Vec<usize> = Vec::new();
    let start = Instant::now() + PERIOD;
    let mut tick = 0usize;
    for (index, &sessions) in ladder.steps.iter().enumerate() {
        next_epoch.resize(sessions, 0);
        let mut step = StepStats::default();
        let step_start = start + PERIOD * tick as u32;
        let backlog_before = run.backlog();
        for _ in 0..ladder.ticks(index) {
            let due = start + PERIOD * tick as u32;
            let burst: Vec<SessionEpoch> = (0..sessions)
                .map(|r| {
                    let stream = fleet.stream(r);
                    SessionEpoch {
                        receiver: r as u64,
                        dt_s: EPOCH_DT_S,
                        measurements: stream.epochs[next_epoch[r] % stream.epochs.len()].clone(),
                    }
                })
                .collect();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let began = Instant::now();
            run.lag_us.push(generator_lag_us(due, began));
            let mut ingested = vec![began; sessions];
            let mut shed = 0u64;
            let id = tick as u64;
            let round = tracer.span("tick", id, |t| {
                for (r, epoch) in burst.into_iter().enumerate() {
                    let admitted = t.span("core.service.ingest", id, |_| service.ingest(epoch));
                    ingested[r] = Instant::now();
                    if matches!(admitted, IngestResult::Shed { .. }) {
                        shed += 1;
                    }
                }
                let round_began = Instant::now();
                let round = t.span("core.service.process_round", id, |_| {
                    service.process_round()
                });
                (round, round_began.elapsed())
            });
            let (result, round_wall) = round;
            run.shed += shed;
            run.busy += began.elapsed();
            run.round_wall += round_wall;
            run.round_ms.push(round_wall.as_secs_f64() * 1e3);
            run.round_failures += (result.expected_shards - result.completed_shards) as u64;

            let mut latency = vec![f64::INFINITY; sessions];
            for outcome in &result.outcomes {
                let r = outcome.receiver as usize;
                if r >= sessions {
                    continue;
                }
                latency[r] = due_latency_us(due, ingested[r], outcome.latency_us);
                run.queue_to_outcome_us.push(outcome.latency_us as f64);
                run.outcomes += 1;
                run.receivers_with_outcome.insert(outcome.receiver);
                match outcome.disposition {
                    Disposition::Solved => run.solved.push((tick, r, next_epoch[r])),
                    Disposition::DeadlineExpired => run.deadline_expired += 1,
                }
                if let Ok(fix) = &outcome.result {
                    let q = match fix.quality {
                        FixQuality::Nominal => 0,
                        FixQuality::Degraded => 1,
                        FixQuality::Holdover => 2,
                    };
                    run.quality[q] += 1;
                    if latency[r] <= limit_us {
                        step.fixes_in_limit += 1;
                    }
                }
                step.outcomes += 1;
            }
            // Every offered epoch advances its receiver's stream, shed
            // or not: the receiver has moved on to the next second.
            for e in next_epoch.iter_mut() {
                *e += 1;
            }
            step.offered += sessions as u64;
            step.latency_us.extend_from_slice(&latency);
            tick += 1;
        }
        step.wall = Instant::now().saturating_duration_since(step_start);
        run.offered += step.offered;
        step.backlog_growth = run.backlog() > backlog_before;
        run.steps.push(step);
    }
    run.live_digests = service
        .session_digests()
        .into_iter()
        .filter(|(id, _)| run.receivers_with_outcome.contains(id))
        .collect();
    run
}

/// A fresh service with `workers` workers, journaling to `journal`.
pub fn new_service(workers: usize, journal: Option<&Path>) -> std::io::Result<PositioningService> {
    let service = PositioningService::new(service_config(workers));
    match journal {
        Some(path) => service.with_journal(path),
        None => Ok(service),
    }
}

/// Replays the journal once; gates verification, one record per
/// outcome, and digest parity with the live run. Returns records/s.
pub fn replay(path: &Path, run: &LadderRun, report: &mut Report) -> Option<f64> {
    let t = Instant::now();
    let Ok(replayed) = replay_journal(path) else {
        report.fail_gate("replay_io", 1);
        return None;
    };
    let wall = t.elapsed().as_secs_f64();
    report.attempted += replayed.records as u64;
    report.fail_gate("replay_verified", u64::from(!replayed.verified()));
    report.fail_gate("replay_mismatches", replayed.mismatches as u64);
    report.fail_gate(
        "fleet_digest_parity",
        u64::from(fleet_digest(&replayed.digests) != fleet_digest(&run.live_digests)),
    );
    report.fail_gate(
        "replay_records",
        u64::from(replayed.records as u64 != run.outcomes),
    );
    Some(replayed.records as f64 / wall)
}

/// End-to-end fleet samples, gathered over several untraced ladders.
#[derive(Debug, Default)]
pub struct Samples {
    /// Due → outcome µs at the highest step below the slot limit,
    /// whole latency windows only.
    below_limit_us: Vec<f64>,
    offered: u64,
    fixes_in_limit: u64,
    sustainable: Vec<(f64, usize)>,
    pub replay: Vec<f64>,
}

impl Samples {
    /// Runs one untraced ladder on `service` (journal attached) and
    /// keeps its samples; the caller replays the journal later.
    pub fn ladder(
        &mut self,
        service: &mut PositioningService,
        fleet: &Fleet,
        ladder: &Ladder,
        report: &mut Report,
    ) -> LadderRun {
        let run = run_ladder(service, fleet, ladder, &mut Tracer::new(false));
        if service.sync_journal().is_err() {
            report.fail_gate("journal_sync", 1);
        }
        report.attempted += run.offered;
        report.fail_gate("round_failures", run.round_failures);
        let step = ladder.below_limit_step();
        let window = ladder.latency_window();
        let latency = &run.steps[step].latency_us;
        self.below_limit_us
            .extend_from_slice(&latency[..latency.len() - latency.len() % window]);
        self.offered += run.offered;
        self.fixes_in_limit += run.steps.iter().map(|s| s.fixes_in_limit).sum::<u64>();
        let sustainable = run
            .steps
            .iter()
            .zip(&ladder.steps)
            .rev()
            .find(|(s, &sessions)| s.sustainable(latency_window(sessions)));
        match sustainable.map(|(s, _)| s) {
            Some(s) => self
                .sustainable
                .push((s.delivered_per_s(), s.offered as usize)),
            None => report.fail_gate("no_sustainable_step", 1),
        }
        run
    }

    pub fn report(&self, ladder: &Ladder, report: &mut Report) {
        let window = ladder.latency_window();
        report.windowed_percentile(
            "fix_latency_p50_us",
            &self.below_limit_us,
            window,
            0.5,
            "us",
        );
        report.windowed_percentile(
            "fix_latency_p99_us",
            &self.below_limit_us,
            window,
            0.99,
            "us",
        );
        report.exact(
            "availability",
            self.fixes_in_limit as f64 / self.offered.max(1) as f64,
            "ratio",
            self.offered as usize,
        );
        let rates: Vec<f64> = self.sustainable.iter().map(|s| s.0).collect();
        report.median("sustainable_epochs_per_s", &rates, "1/s");
        report.median("replay_epochs_per_s", &self.replay, "1/s");
    }
}

/// Journal payload with the service's record shape: 12 header words
/// plus 5 per measurement.
fn journal_payload(measurements: &[gps_core::Measurement]) -> Vec<u64> {
    let mut words = vec![0u64; 6];
    for m in measurements {
        words.extend_from_slice(&[
            m.position.x.to_bits(),
            m.position.y.to_bits(),
            m.position.z.to_bits(),
            m.pseudorange.to_bits(),
            m.elevation.unwrap_or(f64::NAN).to_bits(),
        ]);
    }
    words.extend_from_slice(&[0; 6]);
    words
}

/// Per-layer fleet metrics: traced ladders with the journal on and
/// off, the solved epochs replayed through standalone sessions (with a
/// RAIM solve beside each), and a standalone journal writer. Returns
/// the untraced and traced busy time, and the spans.
pub fn traced(
    workers: usize,
    scratch: &Path,
    fleet: &Fleet,
    ladder: &Ladder,
    report: &mut Report,
) -> std::io::Result<(Duration, Duration, Vec<Span>)> {
    let journal_on = scratch.join("journal-traced.bin");
    let journal_plain = scratch.join("journal-untraced.bin");

    // Untraced reference ladder for the tracing overhead.
    let mut off = Tracer::new(false);
    let mut service = new_service(workers, Some(&journal_plain))?;
    let untraced = run_ladder(&mut service, fleet, ladder, &mut off);
    drop(service);
    let below = &untraced.steps[ladder.below_limit_step()].latency_us;
    let window = ladder.latency_window();
    report.windowed_percentile("fix_latency_p50_us", below, window, 0.5, "us");
    report.windowed_percentile("fix_latency_p99_us", below, window, 0.99, "us");

    let drains_before = counter("service.batch_drains");
    let journal_records_before = counter("service.journal_records");
    let mut tracer = Tracer::new(true);
    let mut service = new_service(workers, Some(&journal_on))?;
    let run = run_ladder(&mut service, fleet, ladder, &mut tracer);
    service.sync_journal()?;
    let journal_bytes = std::fs::metadata(&journal_on)?.len();
    drop(service);
    let drains = counter("service.batch_drains") - drains_before;
    let journal_records = counter("service.journal_records") - journal_records_before;
    let replays: Vec<f64> = (0..3)
        .filter_map(|_| replay(&journal_on, &run, report))
        .collect();
    report.median("replay_epochs_per_s", &replays, "1/s");
    report.attempted += run.offered + untraced.offered;

    // The same ladder without a journal.
    let mut plain_tracer = Tracer::new(true);
    let mut service = new_service(workers, None)?;
    let no_journal = run_ladder(&mut service, fleet, ladder, &mut plain_tracer);
    drop(service);
    report.attempted += no_journal.offered;

    // Standalone sessions over the epochs the live sessions solved,
    // with the RAIM solve the ladder's first rung would make.
    let raim = Raim::new(Dlg::default(), 10.0).with_max_exclusions(2);
    let mut raim_ctx = SolveContext::new();
    let mut sessions: HashMap<usize, Session> = HashMap::new();
    let mut by_tick: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for &(tick, r, k) in &run.solved {
        by_tick.entry(tick).or_default().push((r, k));
    }
    let offset = 1 << 32;
    for (tick, epochs) in &by_tick {
        let id = offset + *tick as u64;
        tracer.span("session_replay", id, |t| {
            for &(r, k) in epochs {
                let stream = fleet.stream(r);
                let meas = &stream.epochs[k % stream.epochs.len()];
                let session = sessions.entry(r).or_insert_with(|| Session::new(r as u64));
                let bias = session.predicted_bias_m();
                let _ = t.span("core.raim", id, |_| {
                    raim.solve_with(&Epoch::new(meas, bias), &mut raim_ctx)
                });
                let _ = t.span("core.session.process", id, |_| {
                    session.process(meas, EPOCH_DT_S)
                });
            }
        });
    }
    report.attempted += 2 * run.solved.len() as u64;

    // Standalone journal writer: append and the default fsync batch.
    let batch = service_config(workers).journal_fsync_every.max(1);
    let mut writer = JournalWriter::create(&scratch.join("journal-standalone.bin"), usize::MAX)?;
    for (i, &(tick, r, k)) in run.solved.iter().enumerate() {
        let stream = fleet.stream(r);
        let payload = journal_payload(&stream.epochs[k % stream.epochs.len()]);
        let id = offset * 2 + tick as u64;
        tracer.span("telemetry.journal.append", id, |_| writer.append(&payload))?;
        if (i + 1) % batch == 0 {
            tracer.span("telemetry.journal.sync", id, |_| writer.sync())?;
        }
    }
    writer.sync()?;
    report.attempted += run.solved.len() as u64;

    let t = Instant::now();
    let replayed = replay_journal(&journal_on)?;
    let replay_ns = t.elapsed().as_nanos() as f64;

    let table = layer_table(tracer.spans());
    let span_cost = crate::trace::span_cost_ns();
    let per_call = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |r| r.self_ns_per_call() - span_cost)
    };
    let processed = run.outcomes.max(1) as f64;
    let n = run.offered as usize;
    report.exact(
        "core.service.ingest.ns",
        per_call("core.service.ingest"),
        "ns",
        n,
    );
    report.exact(
        "core.service.shed_ratio",
        run.shed as f64 / run.offered.max(1) as f64,
        "ratio",
        n,
    );
    report.exact(
        "core.service.deadline_expired_ratio",
        run.deadline_expired as f64 / run.offered.max(1) as f64,
        "ratio",
        n,
    );
    report.percentile(
        "core.service.process_round.p50_ms",
        &run.round_ms,
        0.5,
        "ms",
    );
    report.percentile(
        "core.service.process_round.p90_ms",
        &run.round_ms,
        0.9,
        "ms",
    );
    report.percentile(
        "core.service.queue_to_outcome.p50_us",
        &run.queue_to_outcome_us,
        0.5,
        "us",
    );
    report.percentile(
        "core.service.queue_to_outcome.p99_us",
        &run.queue_to_outcome_us,
        0.99,
        "us",
    );
    report.exact("core.service.backlog_end", run.backlog() as f64, "count", n);
    report.exact(
        "core.service.round_failures",
        run.round_failures as f64,
        "count",
        run.round_ms.len(),
    );
    report.exact(
        "core.service.batch_drains",
        drains as f64,
        "count",
        run.round_ms.len(),
    );
    report.percentile("core.service.generator_lag.p90_us", &run.lag_us, 0.9, "us");
    let session_ns = per_call("core.session.process");
    report.exact(
        "core.session.process.ns",
        session_ns,
        "ns",
        run.solved.len(),
    );
    report.exact(
        "core.raim.ns",
        per_call("core.raim"),
        "ns",
        run.solved.len(),
    );
    let delivered = run.quality.iter().sum::<u64>().max(1) as f64;
    for (i, name) in ["nominal", "degraded", "holdover"].iter().enumerate() {
        report.exact(
            &format!("core.resilient.{name}_ratio"),
            run.quality[i] as f64 / delivered,
            "ratio",
            delivered as usize,
        );
    }
    report.exact(
        "telemetry.journal.append.ns",
        per_call("telemetry.journal.append"),
        "ns",
        run.solved.len(),
    );
    report.exact(
        "telemetry.journal.sync.us",
        per_call("telemetry.journal.sync") / 1e3,
        "us",
        run.solved.len() / batch,
    );
    report.exact(
        "telemetry.journal.bytes_per_epoch",
        journal_bytes as f64 / journal_records.max(1) as f64,
        "bytes",
        journal_records as usize,
    );
    report.exact(
        "telemetry.journal.replay.ns_per_record",
        replay_ns / replayed.records.max(1) as f64,
        "ns",
        replayed.records,
    );
    let worker_ns = |wall: Duration, epochs: u64| {
        wall.as_nanos() as f64 * workers as f64 / epochs.max(1) as f64
    };
    let journal_ns = worker_ns(run.round_wall, run.outcomes)
        - worker_ns(no_journal.round_wall, no_journal.outcomes);
    report.exact("core.service.journal_ns_per_epoch", journal_ns, "ns", n);
    report.exact(
        "core.service.unaccounted_ns_per_epoch",
        worker_ns(run.round_wall, run.outcomes) - session_ns - journal_ns,
        "ns",
        processed as usize,
    );

    for path in [
        &journal_on,
        &journal_plain,
        &scratch.join("journal-standalone.bin"),
    ] {
        let _ = std::fs::remove_file(path);
    }
    let mut spans = tracer.spans().to_vec();
    spans.extend(plain_tracer.spans().iter().map(|s| Span {
        parent: s.parent.map(|p| p + tracer.spans().len()),
        ..s.clone()
    }));
    Ok((untraced.busy, run.busy, spans))
}

/// Directory for journals and trace dumps: under the Cargo target
/// directory, so a run writes nowhere else.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench-run")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_lateness_from_due() {
        let due = Instant::now();
        let ingested = due + Duration::from_micros(300);
        // 300 µs late ingest + 1200 µs service latency.
        assert!((due_latency_us(due, ingested, 1_200) - 1_500.0).abs() < 1e-6);
        // An ingest before due (impossible in the loop) clamps to zero.
        let early = Instant::now();
        let later_due = early + Duration::from_micros(50);
        assert!((due_latency_us(later_due, early, 10) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn generator_lag_is_start_minus_due() {
        let due = Instant::now();
        assert!((generator_lag_us(due, due + Duration::from_micros(250)) - 250.0).abs() < 1e-6);
        assert_eq!(generator_lag_us(due + Duration::from_secs(1), due), 0.0);
    }

    #[test]
    fn a_stalled_round_is_charged_to_the_next_burst() {
        // The round of tick 0 overruns its period by 15 ms, so tick 1
        // starts 15 ms late and its epochs carry that lag.
        let start = Instant::now();
        let due1 = start + PERIOD;
        let began1 = start + PERIOD + Duration::from_millis(15);
        let lag = generator_lag_us(due1, began1);
        assert!((lag - 15_000.0).abs() < 1e-3);
        let latency = due_latency_us(due1, began1 + Duration::from_micros(5), 800);
        assert!((latency - 15_805.0).abs() < 1e-3);
        assert!(latency <= PERIOD.as_secs_f64() * 1e6);
    }

    #[test]
    fn missing_outcomes_break_sustainability() {
        // Windows of 1 010: p99 is rank 1 000, so 10 misses per window
        // still meet it and 11 do not.
        let window = latency_window(101);
        assert_eq!(window, 1_010);
        let mut ok = vec![1_000.0; 1_000];
        ok.extend([f64::INFINITY; 10]);
        let mut late = vec![1_000.0; 999];
        late.extend([f64::INFINITY; 11]);
        let mut step = StepStats {
            latency_us: [ok.clone(), ok.clone(), late.clone()].concat(),
            ..StepStats::default()
        };
        assert!(step.sustainable(window), "one bad window of three");
        step.latency_us = [ok, late.clone(), late].concat();
        assert!(!step.sustainable(window));
        step.latency_us = vec![1_000.0; 2 * window];
        step.backlog_growth = true;
        assert!(!step.sustainable(window));
    }

    #[test]
    fn ladder_straddles_the_slot_limit() {
        let config = service_config(2);
        let ladder = Ladder::new(Workload::FleetSync, &config, 10);
        assert_eq!(ladder.slot_limit, 128);
        assert_eq!(ladder.steps, vec![32, 64, 112, 192]);
        assert_eq!(ladder.below_limit_step(), 2);
        let engines = Ladder::new(Workload::PaperGps, &config, 10);
        assert!(engines.steps.iter().all(|&s| s < engines.slot_limit));
    }
}
