//! Fleet-scale service campaign: drives a [`PositioningService`] with a
//! multi-receiver observation fleet, optionally under signal faults
//! ([`FaultPlan`]) and runtime chaos ([`RuntimeFaultPlan`]), and scores
//! the service-level objectives ISSUE 7 cares about: fix availability,
//! tail latency, shed volume, recovery, integrity, and crash-safe
//! journal replay.
//!
//! The campaign is the service-level analogue of
//! [`run_campaign`](crate::run_campaign): where that experiment measures
//! one solver pipeline's behavior under *signal* faults, this one
//! measures a whole positioning fleet's behavior when the *runtime*
//! itself misbehaves — workers panic and die, shard jobs stall past
//! their deadline budget, ingest bursts overflow the bounded queues,
//! and the journal loses its tail to a SIGKILL.

use std::collections::HashMap;
use std::fmt;
use std::fs::OpenOptions;
use std::path::PathBuf;
use std::time::Duration;

use gps_core::{
    fleet_digest, replay_journal, ChaosOp, FixQuality, IngestResult, PositioningService,
    RoundResult, ServiceConfig, SessionEpoch, SolveError,
};
use gps_faults::{
    emit_runtime_injection, FaultPlan, FaultScenario, RoundFaults, RuntimeFaultKind,
    RuntimeFaultPlan,
};
use gps_geodesy::Ecef;
use gps_obs::{paper_stations, DatasetGenerator};
use gps_telemetry::{Event, Level};

use crate::to_measurements;

/// A nominal-quality fix farther than this from the receiver's true
/// position is a **missed integrity** event: the service vouched for a
/// wrong answer. The chaos SLO requires zero of these — degrading or
/// erroring under chaos is acceptable, lying is not.
pub const MISSED_INTEGRITY_FLOOR_M: f64 = 100.0;

/// Extra no-ingest rounds run after the scripted rounds so epochs left
/// queued behind a panicked or stalled shard get their chance to drain.
const DRAIN_ROUNDS: usize = 4;

/// Configuration of one service campaign.
#[derive(Debug, Clone)]
pub struct ServiceCampaignConfig {
    /// Seed for fleet generation (receiver `r` streams from
    /// `seed + r`).
    pub seed: u64,
    /// Receivers in the fleet (stations assigned round-robin from
    /// [`paper_stations`]).
    pub sessions: usize,
    /// Scripted ingest rounds (drain rounds run extra).
    pub rounds: usize,
    /// Seconds between a receiver's consecutive epochs.
    pub epoch_interval_s: f64,
    /// Service tuning (workers, shards, queues, deadline, journal
    /// batching).
    pub service: ServiceConfig,
    /// Signal-level fault plan applied to every receiver's stream.
    pub signal_faults: Option<FaultPlan>,
    /// Runtime chaos plan resolved against `rounds` × shards.
    pub runtime_faults: Option<RuntimeFaultPlan>,
    /// Journal path; `None` runs without crash-safety.
    pub journal: Option<PathBuf>,
}

impl ServiceCampaignConfig {
    /// A fast, fault-free baseline: a small fleet on default service
    /// tuning with a deadline wide enough that healthy epochs never
    /// expire.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        let service = ServiceConfig {
            deadline: Duration::from_millis(250),
            ..Default::default()
        };
        ServiceCampaignConfig {
            seed,
            sessions: 12,
            rounds: 24,
            epoch_interval_s: 1.0,
            service,
            signal_faults: None,
            runtime_faults: None,
            journal: None,
        }
    }

    /// The chaos campaign: signal faults layered with the default
    /// runtime chaos mix (panic storm, worker kill, stall injection,
    /// burst overload, journal truncation).
    ///
    /// The signal mix is deliberately *recoverable* — steps, multipath
    /// bursts, a clock jump, NaN corruption — because the campaign's
    /// availability SLO scores the **service's** contribution to
    /// downtime. A total blackout makes fixing physically impossible
    /// for any implementation; that regime is measured by the signal
    /// fault campaign ([`crate::run_campaign`]), not the runtime one.
    #[must_use]
    pub fn chaos(seed: u64) -> Self {
        let mut cfg = ServiceCampaignConfig::quick(seed);
        cfg.sessions = 16;
        cfg.rounds = 40;
        cfg.signal_faults = Some(
            FaultPlan::new(seed)
                .with(FaultScenario::step())
                .with(FaultScenario::multipath())
                .with(FaultScenario::clock_jump())
                .with(FaultScenario::corruption()),
        );
        cfg.runtime_faults = Some(RuntimeFaultPlan::default_chaos(seed.wrapping_add(1)));
        cfg
    }
}

/// One receiver's pre-generated epoch stream.
struct ReceiverStream {
    receiver: u64,
    truth: Ecef,
    epochs: Vec<Vec<gps_core::Measurement>>,
}

/// Generates the fleet: `sessions` receivers assigned round-robin to
/// the paper's stations, each with its own seeded dataset, with the
/// signal fault plan (if any) applied per stream.
fn build_fleet(cfg: &ServiceCampaignConfig) -> Vec<ReceiverStream> {
    let stations = paper_stations();
    stations
        .iter()
        .cycle()
        .take(cfg.sessions)
        .enumerate()
        .map(|(index, station)| {
            let receiver = index as u64;
            let data = DatasetGenerator::new(cfg.seed.wrapping_add(receiver))
                .epoch_interval_s(cfg.epoch_interval_s)
                .epoch_count(cfg.rounds)
                .elevation_mask_deg(5.0)
                .generate(station);
            let data = match &cfg.signal_faults {
                Some(plan) => plan.apply(&data).data,
                None => data,
            };
            ReceiverStream {
                receiver,
                truth: station.position(),
                epochs: data
                    .epochs()
                    .iter()
                    .map(|e| to_measurements(e.observations()))
                    .collect(),
            }
        })
        .collect()
}

/// Journal verification appended to a campaign that ran with one.
#[derive(Debug, Clone)]
pub struct JournalVerdict {
    /// Journal file path.
    pub path: PathBuf,
    /// Bytes chopped off the tail by the chaos plan (0 = intact).
    pub truncated_bytes: u64,
    /// Records the replay decoded.
    pub records: usize,
    /// Whether the reader stopped at a torn tail.
    pub torn_tail: bool,
    /// Replay records whose recomputed outcome disagreed with the
    /// journaled one (must be 0).
    pub mismatches: usize,
    /// [`gps_core::ReplayReport::verified`] — structurally intact and
    /// mismatch-free.
    pub replay_verified: bool,
    /// Whether the replayed per-receiver digests equal the live
    /// service's bit-for-bit (expected exactly when
    /// `truncated_bytes == 0`).
    pub digest_parity: bool,
}

/// Scoring of one service campaign.
#[derive(Debug, Clone)]
pub struct ServiceCampaignReport {
    /// Receivers in the fleet.
    pub sessions: usize,
    /// Scripted rounds.
    pub rounds: usize,
    /// Ingest attempts (the availability denominator — burst
    /// duplicates included).
    pub ingest_attempts: usize,
    /// Epochs shed by backpressure.
    pub shed: usize,
    /// Outcomes at nominal quality.
    pub nominal: usize,
    /// Outcomes at degraded quality.
    pub degraded: usize,
    /// Outcomes bridged by holdover.
    pub holdover: usize,
    /// Outcomes dropped on an expired deadline with holdover already
    /// exhausted.
    pub deadline_errors: usize,
    /// Outcomes with any other solve error.
    pub no_fix: usize,
    /// Nominal fixes farther than [`MISSED_INTEGRITY_FLOOR_M`] from
    /// truth (SLO: 0).
    pub missed_integrity: usize,
    /// Median per-epoch service latency, µs (exact, not estimated).
    pub p50_latency_us: u64,
    /// 99th-percentile per-epoch service latency, µs (exact).
    pub p99_latency_us: u64,
    /// `pool.worker_restarts` delta across the run.
    pub worker_restarts: u64,
    /// Shard jobs that never completed their round.
    pub round_failures: usize,
    /// Longest streak of consecutive degraded rounds (a round is
    /// degraded when some shard failed to complete) — the recovery
    /// SLO.
    pub longest_outage_rounds: usize,
    /// Runtime injections performed.
    pub runtime_injections: usize,
    /// Sessions evicted for idleness.
    pub evicted: usize,
    /// Fleet-wide outcome digest of the live service.
    pub fleet_digest: u64,
    /// Journal verification, when the campaign journaled.
    pub journal: Option<JournalVerdict>,
}

impl ServiceCampaignReport {
    /// Epochs that produced a usable output (nominal + degraded +
    /// holdover) as a percentage of all ingest attempts. Shed epochs,
    /// expired deadlines without holdover, and solve failures all
    /// count against it.
    #[must_use]
    pub fn availability_pct(&self) -> f64 {
        if self.ingest_attempts == 0 {
            return 0.0;
        }
        100.0 * (self.nominal + self.degraded + self.holdover) as f64 / self.ingest_attempts as f64
    }

    /// Whether the run met the chaos SLOs: availability at or above
    /// `floor_pct` and zero missed-integrity events (and, when
    /// journaled, a clean replay).
    #[must_use]
    pub fn meets_slo(&self, floor_pct: f64) -> bool {
        self.availability_pct() >= floor_pct
            && self.missed_integrity == 0
            && self.journal.as_ref().is_none_or(|j| j.replay_verified)
    }

    /// Serializes the report as a `BENCH_service.json`-shaped document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": \"service\",\n");
        let mut num = |key: &str, v: f64| {
            out.push_str(&format!("  \"{key}\": {v},\n"));
        };
        num("sessions", self.sessions as f64);
        num("rounds", self.rounds as f64);
        num("ingest_attempts", self.ingest_attempts as f64);
        num(
            "availability_pct",
            (self.availability_pct() * 100.0).round() / 100.0,
        );
        num("nominal", self.nominal as f64);
        num("degraded", self.degraded as f64);
        num("holdover", self.holdover as f64);
        num("shed", self.shed as f64);
        num("deadline_errors", self.deadline_errors as f64);
        num("no_fix", self.no_fix as f64);
        num("missed_integrity", self.missed_integrity as f64);
        num("p50_latency_us", self.p50_latency_us as f64);
        num("p99_latency_us", self.p99_latency_us as f64);
        num("worker_restarts", self.worker_restarts as f64);
        num("round_failures", self.round_failures as f64);
        num("longest_outage_rounds", self.longest_outage_rounds as f64);
        num("runtime_injections", self.runtime_injections as f64);
        num("evicted", self.evicted as f64);
        let journal = match &self.journal {
            Some(j) => format!(
                "{{\"records\": {}, \"truncated_bytes\": {}, \"torn_tail\": {}, \"mismatches\": {}, \"replay_verified\": {}, \"digest_parity\": {}}}",
                j.records, j.truncated_bytes, j.torn_tail, j.mismatches, j.replay_verified, j.digest_parity
            ),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "  \"fleet_digest\": \"{:016x}\",\n",
            self.fleet_digest
        ));
        out.push_str(&format!("  \"journal\": {journal}\n}}\n"));
        out
    }
}

impl fmt::Display for ServiceCampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Service campaign — {} receivers × {} rounds, {} ingest attempts",
            self.sessions, self.rounds, self.ingest_attempts
        )?;
        writeln!(
            f,
            "  availability {:.2}% — nominal {}, degraded {}, holdover {}; shed {}, deadline errors {}, no fix {}",
            self.availability_pct(),
            self.nominal,
            self.degraded,
            self.holdover,
            self.shed,
            self.deadline_errors,
            self.no_fix
        )?;
        writeln!(
            f,
            "  latency p50 {} µs, p99 {} µs; missed integrity {} (floor {MISSED_INTEGRITY_FLOOR_M} m)",
            self.p50_latency_us, self.p99_latency_us, self.missed_integrity
        )?;
        writeln!(
            f,
            "  chaos: {} injections, worker restarts {}, round failures {}, longest outage {} round(s), evicted {}",
            self.runtime_injections,
            self.worker_restarts,
            self.round_failures,
            self.longest_outage_rounds,
            self.evicted
        )?;
        write!(f, "  fleet digest {:016x}", self.fleet_digest)?;
        if let Some(j) = &self.journal {
            write!(
                f,
                "\n  journal: {} records, cut {} B, torn tail {}, mismatches {}, replay {}, digest parity {}",
                j.records,
                j.truncated_bytes,
                j.torn_tail,
                j.mismatches,
                if j.replay_verified { "verified" } else { "FAILED" },
                j.digest_parity
            )?;
        }
        Ok(())
    }
}

/// Running tallies folded over each round's [`RoundResult`].
#[derive(Default)]
struct Tally {
    nominal: usize,
    degraded: usize,
    holdover: usize,
    deadline_errors: usize,
    no_fix: usize,
    missed_integrity: usize,
    latencies: Vec<u64>,
    round_failures: usize,
    outage_streak: usize,
    longest_outage: usize,
    evicted: usize,
}

impl Tally {
    fn absorb(&mut self, result: &RoundResult, truths: &HashMap<u64, Ecef>) {
        for outcome in &result.outcomes {
            self.latencies.push(outcome.latency_us);
            match &outcome.result {
                Ok(fix) => match fix.quality {
                    FixQuality::Nominal => {
                        self.nominal += 1;
                        let wide = truths.get(&outcome.receiver).is_some_and(|truth| {
                            fix.position.distance_to(*truth) > MISSED_INTEGRITY_FLOOR_M
                        });
                        if wide {
                            self.missed_integrity += 1;
                        }
                    }
                    FixQuality::Degraded => self.degraded += 1,
                    FixQuality::Holdover => self.holdover += 1,
                },
                Err(SolveError::DeadlineExceeded { .. }) => self.deadline_errors += 1,
                Err(_) => self.no_fix += 1,
            }
        }
        self.round_failures += result.expected_shards - result.completed_shards;
        if result.completed_shards < result.expected_shards {
            self.outage_streak += 1;
            self.longest_outage = self.longest_outage.max(self.outage_streak);
        } else {
            self.outage_streak = 0;
        }
        self.evicted += result.evicted;
    }
}

/// Exact percentile of a latency population (nearest-rank).
fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Runs one service campaign end to end: generates the fleet, drives
/// the service round by round with the scheduled chaos injections,
/// drains the backlog, and (when journaled) truncates and replays the
/// journal.
///
/// # Errors
///
/// Returns an I/O error if journal creation, truncation, or replay
/// fails at the filesystem level (replay *mismatches* are reported in
/// the [`JournalVerdict`], not as errors).
pub fn run_service_campaign(cfg: &ServiceCampaignConfig) -> std::io::Result<ServiceCampaignReport> {
    let _span = gps_telemetry::span("service_campaign");
    let fleet = build_fleet(cfg);
    let truths: HashMap<u64, Ecef> = fleet.iter().map(|r| (r.receiver, r.truth)).collect();
    let mut service = match &cfg.journal {
        Some(path) => PositioningService::new(cfg.service).with_journal(path)?,
        None => PositioningService::new(cfg.service),
    };
    let schedule = cfg
        .runtime_faults
        .as_ref()
        .map(|plan| plan.schedule(cfg.rounds, cfg.service.shards));
    let restarts_counter = gps_telemetry::counter("pool.worker_restarts");
    let restarts_before = restarts_counter.value();

    let mut tally = Tally::default();
    let mut ingest_attempts = 0usize;
    let mut shed = 0usize;
    let mut runtime_injections = 0usize;

    for round in 0..cfg.rounds {
        let faults: RoundFaults = schedule
            .as_ref()
            .map_or_else(RoundFaults::default, |s| s.round(round));
        let next = service.round() + 1;
        for _ in 0..faults.worker_kills {
            service.pool().inject_worker_exit();
            emit_runtime_injection(RuntimeFaultKind::WorkerKill, next, 1.0);
            runtime_injections += 1;
        }
        for &shard in &faults.panic_shards {
            service.set_chaos(next, shard, ChaosOp::Panic);
            emit_runtime_injection(RuntimeFaultKind::PanicStorm, next, shard as f64);
            runtime_injections += 1;
        }
        for &(shard, stall_ms) in &faults.stalls {
            service.set_chaos(next, shard, ChaosOp::Stall(Duration::from_millis(stall_ms)));
            emit_runtime_injection(RuntimeFaultKind::StallInjection, next, stall_ms as f64);
            runtime_injections += 1;
        }
        let multiplier = faults.ingest_multiplier.max(1);
        if multiplier > 1 {
            emit_runtime_injection(RuntimeFaultKind::BurstOverload, next, multiplier as f64);
            runtime_injections += 1;
        }
        for stream in &fleet {
            let Some(measurements) = stream.epochs.get(round) else {
                continue;
            };
            for _ in 0..multiplier {
                ingest_attempts += 1;
                let admitted = service.ingest(SessionEpoch {
                    receiver: stream.receiver,
                    dt_s: cfg.epoch_interval_s,
                    measurements: measurements.clone(),
                });
                if matches!(admitted, IngestResult::Shed { .. }) {
                    shed += 1;
                }
            }
        }
        tally.absorb(&service.process_round(), &truths);
    }
    // Drain: epochs stranded behind a panicked shard still get served.
    for _ in 0..DRAIN_ROUNDS {
        let result = service.process_round();
        if result.expected_shards == 0 {
            break;
        }
        tally.absorb(&result, &truths);
    }

    service.sync_journal()?;
    let live_digests = service.session_digests();
    let worker_restarts = restarts_counter.value().saturating_sub(restarts_before);
    // Release the journal writer before truncating/replaying the file.
    drop(service);

    let journal = match &cfg.journal {
        Some(path) => {
            let cut = schedule
                .as_ref()
                .and_then(|s| s.journal_cut_bytes)
                .unwrap_or(0);
            if cut > 0 {
                let file = OpenOptions::new().write(true).open(path)?;
                let len = file.metadata()?.len();
                file.set_len(len.saturating_sub(cut))?;
                emit_runtime_injection(
                    RuntimeFaultKind::JournalTruncation,
                    cfg.rounds as u64,
                    cut as f64,
                );
                runtime_injections += 1;
            }
            let replay = replay_journal(path)?;
            Some(JournalVerdict {
                path: path.clone(),
                truncated_bytes: cut,
                records: replay.records,
                torn_tail: replay.truncated,
                mismatches: replay.mismatches,
                replay_verified: replay.verified(),
                digest_parity: replay.digests == live_digests,
            })
        }
        None => None,
    };

    tally.latencies.sort_unstable();
    let report = ServiceCampaignReport {
        sessions: cfg.sessions,
        rounds: cfg.rounds,
        ingest_attempts,
        shed,
        nominal: tally.nominal,
        degraded: tally.degraded,
        holdover: tally.holdover,
        deadline_errors: tally.deadline_errors,
        no_fix: tally.no_fix,
        missed_integrity: tally.missed_integrity,
        p50_latency_us: exact_percentile(&tally.latencies, 0.50),
        p99_latency_us: exact_percentile(&tally.latencies, 0.99),
        worker_restarts,
        round_failures: tally.round_failures,
        longest_outage_rounds: tally.longest_outage,
        runtime_injections,
        evicted: tally.evicted,
        fleet_digest: fleet_digest(&live_digests),
        journal,
    };
    if gps_telemetry::enabled(Level::Info) {
        Event::new(Level::Info, "sim.service", "service campaign complete")
            .with("sessions", report.sessions)
            .with("ingest_attempts", report.ingest_attempts)
            .with("availability_pct", report.availability_pct())
            .with("shed", report.shed)
            .with("p99_latency_us", report.p99_latency_us)
            .with("worker_restarts", report.worker_restarts)
            .with("missed_integrity", report.missed_integrity)
            .emit();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gps-sim-service-{}-{name}", std::process::id()))
    }

    #[test]
    fn clean_fleet_is_fully_available() {
        let cfg = ServiceCampaignConfig::quick(11);
        let report = run_service_campaign(&cfg).expect("campaign");
        assert_eq!(report.ingest_attempts, cfg.sessions * cfg.rounds);
        assert_eq!(report.shed, 0, "{report}");
        assert_eq!(report.missed_integrity, 0, "{report}");
        assert!(report.availability_pct() > 99.0, "{report}");
        assert!(report.meets_slo(99.0), "{report}");
        assert!(report.p99_latency_us >= report.p50_latency_us);
    }

    #[test]
    fn chaos_campaign_stays_available_and_honest() {
        let path = temp_path("chaos.jrnl");
        let mut cfg = ServiceCampaignConfig::chaos(7);
        cfg.sessions = 8;
        cfg.rounds = 30;
        cfg.journal = Some(path.clone());
        let report = run_service_campaign(&cfg).expect("campaign");
        let _ = std::fs::remove_file(&path);
        // Chaos injects real damage...
        assert!(report.runtime_injections > 0, "{report}");
        assert!(report.worker_restarts > 0, "{report}");
        // ...and the service absorbs it within the SLO.
        assert!(report.availability_pct() >= 95.0, "{report}");
        assert_eq!(report.missed_integrity, 0, "{report}");
        let journal = report.journal.as_ref().expect("journal verdict");
        assert!(journal.truncated_bytes > 0);
        assert!(journal.replay_verified, "{report}");
        assert_eq!(journal.mismatches, 0, "{report}");
        assert!(report.meets_slo(95.0), "{report}");
    }

    #[test]
    fn intact_journal_has_digest_parity() {
        let path = temp_path("parity.jrnl");
        let mut cfg = ServiceCampaignConfig::quick(23);
        cfg.sessions = 6;
        cfg.rounds = 10;
        cfg.journal = Some(path.clone());
        let report = run_service_campaign(&cfg).expect("campaign");
        let _ = std::fs::remove_file(&path);
        let journal = report.journal.as_ref().expect("journal verdict");
        assert_eq!(journal.truncated_bytes, 0);
        assert!(!journal.torn_tail);
        assert!(journal.digest_parity, "{report}");
        assert!(journal.replay_verified, "{report}");
        assert_eq!(journal.records, report.ingest_attempts);
    }

    #[test]
    fn burst_overload_sheds_but_never_lies() {
        let mut cfg = ServiceCampaignConfig::quick(31);
        cfg.sessions = 8;
        cfg.rounds = 16;
        cfg.service.queue_capacity = 4;
        // Admission is sized by each shard's measured cost, so the
        // burst alone fits. A 200 ms stall of one shard per round from
        // the round before the burst (rounds 3–8) makes that shard's
        // next-round limit max(4, 250 ms × n / 200 ms) for the n epochs
        // it solved (the floor of 4 if it solved none) — 4 after the
        // 2-epoch pre-burst round — while the burst brings it 16: real
        // overload, so it must shed.
        cfg.runtime_faults = Some(
            RuntimeFaultPlan::new(5)
                .with(gps_faults::RuntimeFault::StallInjection {
                    start_frac: 3.0 / 16.0,
                    rounds: 6,
                    stall_ms: 200,
                })
                .with(gps_faults::RuntimeFault::BurstOverload {
                    start_frac: 0.25,
                    rounds: 6,
                    multiplier: 8,
                }),
        );
        let report = run_service_campaign(&cfg).expect("campaign");
        assert!(report.shed > 0, "{report}");
        assert_eq!(report.missed_integrity, 0, "{report}");
        // Everything admitted was either served or shed — attempts
        // bound the sum.
        let served = report.nominal
            + report.degraded
            + report.holdover
            + report.deadline_errors
            + report.no_fix;
        assert!(served + report.shed <= report.ingest_attempts, "{report}");
    }

    #[test]
    fn report_renders_the_slo_vocabulary() {
        let report = run_service_campaign(&ServiceCampaignConfig::quick(3)).expect("campaign");
        let text = report.to_string();
        for needle in ["availability", "p99", "shed", "restarts", "fleet digest"] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        let json = report.to_json();
        for needle in [
            "\"bench\": \"service\"",
            "availability_pct",
            "p99_latency_us",
            "missed_integrity",
            "fleet_digest",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
    }
}
