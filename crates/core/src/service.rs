//! The long-running positioning service: sharded sessions on the
//! thread pool, wrapped in deadlines, backpressure, and a crash-safe
//! journal.
//!
//! This is ROADMAP item 1's runtime layer. Where [`ParallelEngine`]
//! answers "solve this `Vec` of epochs fast", [`PositioningService`]
//! answers "keep answering, whatever happens":
//!
//! * **Sessions, sharded.** Each receiver id maps to one shard
//!   (`receiver % shards`); a shard owns its sessions and its queue
//!   behind one mutex, so one pool job per shard per round
//!   touches each lock once and receivers never contend across
//!   shards. Sessions idle for `idle_eviction_rounds` are evicted.
//! * **Deadlines.** Every queued epoch carries its enqueue timestamp;
//!   a worker that dequeues it past the deadline budget drops the
//!   measurements and routes the session through
//!   [`Session::expire_deadline`] — holdover while the budget lasts,
//!   a typed [`SolveError::DeadlineExceeded`] after — so a stalled
//!   shard degrades per-receiver instead of blocking the round.
//! * **Backpressure.** Admission is a time budget, not a slot count.
//!   Each shard job measures its service cost — drain wall time over
//!   epochs solved, journal included (an expired epoch skips the solve,
//!   so it is not counted; a drain that solves nothing resets the
//!   shard to cold) — and
//!   [`PositioningService::ingest`] admits while the queue holds fewer
//!   than `max(queue_capacity, deadline ÷ cost)` epochs, so once a
//!   shard is measured, a load it can serve within the deadline is not
//!   shed. `queue_capacity` is the whole limit before a shard's first
//!   drain and the floor after it. Past the limit the epoch belonging to the
//!   session with the *lowest* [`Session::shed_priority`] (worst
//!   Bayesian-DOP fix-quality score) is shed, counted in
//!   `service.shed_total`; picking it is O(log n) in queue depth.
//! * **Journal.** With a journal attached, every processed epoch
//!   appends one `GPSJRNL1` record — inputs, disposition, outcome
//!   bits, and the session digest after — so [`replay_journal`]
//!   can rebuild all session state after a SIGKILL and verify each
//!   recomputed outcome bit-for-bit against what the live run logged.
//! * **Chaos hooks.** [`PositioningService::set_chaos`] injects a
//!   stall or a panic into a specific shard's job in a specific round;
//!   with the pool's `inject_worker_exit` these drive the chaos
//!   campaign without any special-cased production code paths.
//!
//! A worker panic mid-round leaves the un-dequeued tail of that
//! shard's queue in place: the collector times out the missing
//! completion (`service.round_failures`), and the next round processes
//! the leftovers — usually as deadline expiries. Nothing is silently
//! lost; every epoch ends as a fix, a typed error, or a counted shed.
//!
//! [`ParallelEngine`]: crate::ParallelEngine

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gps_pool::{SupervisorConfig, ThreadPool};
use gps_telemetry::journal::{JournalReader, JournalWriter};
use gps_telemetry::{Counter, Gauge, Histogram};

use crate::error::SolveError;
use crate::measurement::Measurement;
use crate::resilient::ResilientFix;
use crate::session::Session;

/// Epochs a shard round drains per lock acquisition once its queue is
/// at least this deep (see [`run_shard_round`]).
const DRAIN_BATCH: usize = 8;

/// Service tuning. `Default` is sized for tests and smokes; the CLI
/// scales it up.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Pool worker threads.
    pub workers: usize,
    /// Session shards (defaults to `workers`).
    pub shards: usize,
    /// Per-shard admission limit before the shard's service cost is
    /// measured (its first drain), and the floor of the
    /// `deadline ÷ cost` limit after; ingest beyond the limit sheds.
    pub queue_capacity: usize,
    /// Per-epoch latency budget from ingest to dequeue.
    pub deadline: Duration,
    /// Sessions untouched for this many rounds are evicted.
    pub idle_eviction_rounds: u64,
    /// Journal fsync batch (records per `sync_data`).
    pub journal_fsync_every: usize,
    /// How long a round waits for its shard jobs before declaring the
    /// missing ones failed.
    pub round_timeout: Duration,
    /// Supervisor tuning for the underlying pool.
    pub supervisor: SupervisorConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            shards: 4,
            queue_capacity: 64,
            deadline: Duration::from_millis(50),
            idle_eviction_rounds: 64,
            journal_fsync_every: 32,
            round_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One receiver epoch submitted to the service.
#[derive(Debug, Clone)]
pub struct SessionEpoch {
    /// Receiver id (also the shard key).
    pub receiver: u64,
    /// Seconds since this receiver's previous epoch.
    pub dt_s: f64,
    /// The epoch's measurements.
    pub measurements: Vec<Measurement>,
}

/// What [`PositioningService::ingest`] did with an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestResult {
    /// Queued on its shard.
    Queued,
    /// Shed under backpressure; the named receiver's epoch was dropped
    /// (it may be the one just submitted).
    Shed {
        /// Receiver whose epoch was dropped.
        receiver: u64,
    },
}

/// How an epoch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Dequeued within budget and solved (or failed) normally.
    Solved,
    /// Budget expired before a solver ran; measurements dropped.
    DeadlineExpired,
}

impl Disposition {
    fn to_word(self) -> u64 {
        match self {
            Disposition::Solved => 0,
            Disposition::DeadlineExpired => 1,
        }
    }

    fn from_word(word: u64) -> Option<Self> {
        match word {
            0 => Some(Disposition::Solved),
            1 => Some(Disposition::DeadlineExpired),
            _ => None,
        }
    }
}

/// One epoch's outcome from a processing round.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Receiver the epoch belonged to.
    pub receiver: u64,
    /// The session's epoch sequence number.
    pub seq: u64,
    /// How the epoch was treated.
    pub disposition: Disposition,
    /// The session's fix or typed error.
    pub result: Result<ResilientFix, SolveError>,
    /// Ingest-to-outcome latency, microseconds.
    pub latency_us: u64,
}

/// Summary of one [`PositioningService::process_round`] call.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Per-epoch outcomes, sorted by (receiver, seq).
    pub outcomes: Vec<EpochOutcome>,
    /// Shard jobs that reported completion.
    pub completed_shards: usize,
    /// Shard jobs submitted this round.
    pub expected_shards: usize,
    /// Sessions evicted for idleness at the end of the round.
    pub evicted: usize,
}

/// Chaos injection for one (round, shard) job — exercised by the
/// chaos campaign, compiled unconditionally so the campaign tests the
/// *production* code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// Sleep this long before processing the shard (stall injection).
    Stall(Duration),
    /// Panic the shard job before it touches the queue (worker-panic
    /// storm; the pool catches it, the round counts the failure).
    Panic,
}

struct Queued {
    epoch: SessionEpoch,
    enqueued: Instant,
}

struct Shard {
    sessions: HashMap<u64, Session>,
    queue: ShardQueue,
    /// Wall ns per epoch of the shard job's last drain, journal
    /// included; `None` until the first drain.
    ns_per_epoch: Option<u64>,
}

/// Epochs a shard admits: as many as its measured cost serves within
/// the deadline, never fewer than `queue_capacity` — which is also the
/// whole limit while the cost is unmeasured.
fn admit_limit(config: &ServiceConfig, ns_per_epoch: Option<u64>) -> usize {
    let by_time = ns_per_epoch.map_or(0, |cost| {
        let deadline_ns = u64::try_from(config.deadline.as_nanos()).unwrap_or(u64::MAX);
        usize::try_from(deadline_ns / cost.max(1)).unwrap_or(usize::MAX)
    });
    config.queue_capacity.max(by_time)
}

/// Maps a shed priority to bits that sort like [`f64::total_cmp`], so
/// a `(key, ticket)` pair orders epochs lowest priority first, then
/// earliest queued.
fn priority_key(priority: f64) -> u64 {
    let bits = priority.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// A shard's FIFO of queued epochs plus the min-heap that picks its
/// shed victim.
///
/// Slot `i` holds ticket `head + i`; a shed epoch leaves a `None`
/// tombstone, so removal is O(1) and tickets stay positions. The heap
/// is built on the first shed after the shard job last dequeued and
/// kept current by later pushes. That is sound because all queued
/// epochs of a session share its priority and priorities change only
/// when the shard job processes a session — which it does right after
/// dequeuing, and dequeuing marks the heap stale. A shed therefore
/// costs O(log n), plus one O(n) rebuild per drain.
#[derive(Default)]
struct ShardQueue {
    slots: VecDeque<Option<Queued>>,
    head: u64,
    live: usize,
    /// `(priority_key, ticket)` of every live epoch once current.
    victims: BinaryHeap<Reverse<(u64, u64)>>,
    victims_current: bool,
}

impl ShardQueue {
    fn len(&self) -> usize {
        self.live
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn iter(&self) -> impl Iterator<Item = &Queued> {
        self.slots.iter().flatten()
    }

    fn push_back(&mut self, queued: Queued, priority: f64) {
        let ticket = self.head + self.slots.len() as u64;
        if self.victims_current {
            self.victims.push(Reverse((priority_key(priority), ticket)));
        }
        self.slots.push_back(Some(queued));
        self.live += 1;
    }

    fn pop_front(&mut self) -> Option<Queued> {
        self.victims_current = false;
        while let Some(slot) = self.slots.pop_front() {
            self.head += 1;
            if slot.is_some() {
                self.live -= 1;
                return slot;
            }
        }
        None
    }

    /// The [`priority_key`] of the queued epoch to shed first,
    /// rebuilding the heap from `priority_of(receiver)` if the shard
    /// job ran since the last shed.
    fn lowest(&mut self, priority_of: impl Fn(u64) -> f64) -> Option<u64> {
        if !self.victims_current {
            let mut ranks = std::mem::take(&mut self.victims).into_vec();
            ranks.clear();
            ranks.extend(
                self.slots
                    .iter()
                    .zip(self.head..)
                    .filter_map(|(slot, ticket)| {
                        slot.as_ref()
                            .map(|q| Reverse((priority_key(priority_of(q.epoch.receiver)), ticket)))
                    }),
            );
            self.victims = BinaryHeap::from(ranks);
            self.victims_current = true;
        }
        self.victims.peek().map(|Reverse((key, _))| *key)
    }

    /// Removes the epoch [`ShardQueue::lowest`] returned.
    fn remove_lowest(&mut self) -> Option<Queued> {
        let Reverse((_, ticket)) = self.victims.pop()?;
        let index = usize::try_from(ticket.checked_sub(self.head)?).ok()?;
        let dropped = self.slots.get_mut(index)?.take()?;
        self.live -= 1;
        // Compact once tombstones outnumber live epochs: O(n) after at
        // least n sheds. Tickets shift, so the heap goes stale.
        if self.slots.len() > 2 * self.live + 1 {
            self.slots.retain(Option::is_some);
            self.victims_current = false;
        }
        Some(dropped)
    }
}

struct ServiceMetrics {
    ingested: Counter,
    shed_total: Counter,
    deadline_expired: Counter,
    sessions_evicted: Counter,
    round_failures: Counter,
    journal_records: Counter,
    journal_bytes: Gauge,
    batch_drains: Counter,
    admit_limit: Gauge,
    latency_us: Histogram,
}

impl ServiceMetrics {
    fn new() -> Self {
        ServiceMetrics {
            ingested: gps_telemetry::counter("service.ingested"),
            shed_total: gps_telemetry::counter("service.shed_total"),
            deadline_expired: gps_telemetry::counter("service.deadline_expired"),
            sessions_evicted: gps_telemetry::counter("service.sessions_evicted"),
            round_failures: gps_telemetry::counter("service.round_failures"),
            journal_records: gps_telemetry::counter("service.journal_records"),
            journal_bytes: gps_telemetry::gauge("service.journal_bytes"),
            batch_drains: gps_telemetry::counter("service.batch_drains"),
            admit_limit: gps_telemetry::gauge("service.admit_limit"),
            latency_us: gps_telemetry::histogram("service.latency_us"),
        }
    }
}

/// The hardened fleet-scale positioning service. See the
/// [module docs](self) for the design.
pub struct PositioningService {
    pool: ThreadPool,
    shards: Vec<Arc<Mutex<Shard>>>,
    config: ServiceConfig,
    journal: Option<Arc<Mutex<JournalWriter>>>,
    metrics: Arc<ServiceMetrics>,
    chaos: Arc<Mutex<HashMap<(u64, usize), ChaosOp>>>,
    round: u64,
}

impl std::fmt::Debug for PositioningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PositioningService")
            .field("shards", &self.shards.len())
            .field("round", &self.round)
            .field("journaling", &self.journal.is_some())
            .finish()
    }
}

impl PositioningService {
    /// Builds the service: a supervised pool of `config.workers` and
    /// `config.shards` empty shards. No journal — attach one with
    /// [`PositioningService::with_journal`].
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        PositioningService {
            pool: ThreadPool::supervised(config.workers.max(1), config.supervisor),
            shards: (0..shards)
                .map(|_| {
                    Arc::new(Mutex::new(Shard {
                        sessions: HashMap::new(),
                        queue: ShardQueue::default(),
                        ns_per_epoch: None,
                    }))
                })
                .collect(),
            config,
            journal: None,
            metrics: Arc::new(ServiceMetrics::new()),
            chaos: Arc::new(Mutex::new(HashMap::new())),
            round: 0,
        }
    }

    /// Attaches a crash-safe journal at `path` (truncates any existing
    /// file).
    ///
    /// # Errors
    ///
    /// Propagates journal creation errors.
    pub fn with_journal(mut self, path: &Path) -> io::Result<Self> {
        let writer = JournalWriter::create(path, self.config.journal_fsync_every)?;
        self.journal = Some(Arc::new(Mutex::new(writer)));
        Ok(self)
    }

    /// The underlying pool (chaos campaigns use this to inject worker
    /// exits).
    #[must_use]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Rounds processed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Live session count across all shards.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).sessions.len())
            .sum()
    }

    /// Arms a chaos injection for shard `shard` in round `round`
    /// (rounds are 1-based: the next `process_round` is
    /// `self.round() + 1`).
    pub fn set_chaos(&self, round: u64, shard: usize, op: ChaosOp) {
        self.chaos
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((round, shard), op);
    }

    /// Admits one epoch, creating the receiver's session on first
    /// sight. Past the shard's [admission limit](self) the epoch
    /// belonging to the lowest-[`shed_priority`](Session::shed_priority)
    /// session is shed — possibly the incoming one.
    pub fn ingest(&self, epoch: SessionEpoch) -> IngestResult {
        self.metrics.ingested.inc();
        let shard_index = (epoch.receiver % self.shards.len() as u64) as usize;
        let Some(shard) = self.shards.get(shard_index) else {
            // Unreachable by construction (modulo bound), but sheds
            // rather than panics if it ever weren't.
            self.metrics.shed_total.inc();
            return IngestResult::Shed {
                receiver: epoch.receiver,
            };
        };
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        let incoming_priority = shard
            .sessions
            .entry(epoch.receiver)
            .or_insert_with(|| Session::new(epoch.receiver))
            .shed_priority();
        let queued = Queued {
            epoch,
            enqueued: Instant::now(),
        };
        if shard.queue.len() < admit_limit(&self.config, shard.ns_per_epoch) {
            shard.queue.push_back(queued, incoming_priority);
            return IngestResult::Queued;
        }
        // Backpressure: the lowest-priority queued epoch makes way if
        // it ranks below the incoming one.
        self.metrics.shed_total.inc();
        let sessions = &shard.sessions;
        let lowest = shard
            .queue
            .lowest(|receiver| sessions.get(&receiver).map_or(0.0, Session::shed_priority));
        if lowest.is_some_and(|key| key < priority_key(incoming_priority)) {
            if let Some(dropped) = shard.queue.remove_lowest() {
                shard.queue.push_back(queued, incoming_priority);
                return IngestResult::Shed {
                    receiver: dropped.epoch.receiver,
                };
            }
        }
        IngestResult::Shed {
            receiver: queued.epoch.receiver,
        }
    }

    /// Processes every shard's queue across the pool: one job per
    /// non-empty shard, collected with a round timeout so a dead or
    /// stalled worker costs `service.round_failures`, never a hang.
    pub fn process_round(&mut self) -> RoundResult {
        self.round += 1;
        let round = self.round;
        let (tx, rx) = mpsc::channel::<RoundMessage>();
        let mut expected = 0usize;
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let has_work = !shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .is_empty();
            if !has_work {
                continue;
            }
            expected += 1;
            let shard = Arc::clone(shard);
            let tx = tx.clone();
            let metrics = Arc::clone(&self.metrics);
            let journal = self.journal.clone();
            let chaos = self.chaos.lock().unwrap_or_else(|e| e.into_inner());
            let chaos_op = chaos.get(&(round, shard_index)).copied();
            drop(chaos);
            let config = self.config;
            self.pool.submit(move || {
                run_shard_round(
                    &shard,
                    round,
                    &config,
                    chaos_op,
                    journal.as_deref(),
                    &metrics,
                    &tx,
                );
            });
        }
        drop(tx);

        let mut outcomes = Vec::new();
        let mut completed = 0usize;
        let wait_until = Instant::now() + self.config.round_timeout;
        while completed < expected {
            let remaining = wait_until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match rx.recv_timeout(remaining) {
                Ok(RoundMessage::Outcome(outcome)) => outcomes.push(outcome),
                Ok(RoundMessage::ShardDone) => completed += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                // All senders gone without every Done: panicked job(s).
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        if completed < expected {
            self.metrics
                .round_failures
                .add((expected - completed) as u64);
        }
        outcomes.sort_by_key(|o| (o.receiver, o.seq));

        // Idle eviction: a session that hasn't absorbed an epoch for
        // `idle_eviction_rounds` releases its warm state.
        let mut evicted = 0usize;
        if round > self.config.idle_eviction_rounds {
            let horizon = round - self.config.idle_eviction_rounds;
            for shard in &self.shards {
                let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
                let queued: Vec<u64> = shard.queue.iter().map(|q| q.epoch.receiver).collect();
                let before = shard.sessions.len();
                shard
                    .sessions
                    .retain(|id, s| s.last_active_round() >= horizon || queued.contains(id));
                evicted += before - shard.sessions.len();
            }
        }
        if evicted > 0 {
            self.metrics.sessions_evicted.add(evicted as u64);
        }

        RoundResult {
            outcomes,
            completed_shards: completed,
            expected_shards: expected,
            evicted,
        }
    }

    /// Per-receiver outcome digests, sorted by receiver id.
    #[must_use]
    pub fn session_digests(&self) -> Vec<(u64, u64)> {
        let mut digests: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .sessions
                    .values()
                    .map(|s| (s.id(), s.digest()))
                    .collect::<Vec<_>>()
            })
            .collect();
        digests.sort_unstable();
        digests
    }

    /// Flushes the journal's outstanding fsync batch.
    ///
    /// # Errors
    ///
    /// Propagates the underlying sync error.
    pub fn sync_journal(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().unwrap_or_else(|e| e.into_inner()).sync()?;
        }
        Ok(())
    }
}

enum RoundMessage {
    Outcome(EpochOutcome),
    ShardDone,
}

/// One dequeued epoch, fully processed inside the shard lock and
/// carried out to the lock-free journaling/report phase of
/// [`run_shard_round`]'s batch drain.
struct DrainedEpoch {
    receiver: u64,
    seq: u64,
    disposition: Disposition,
    dt_s: f64,
    predicted_bias_m: f64,
    measurements: Vec<Measurement>,
    result: Result<ResilientFix, SolveError>,
    digest: u64,
    enqueued: Instant,
}

/// One shard's work for one round: drain the queue, route each epoch
/// by deadline, journal, and report, then record the round's wall time
/// per solved epoch as the shard's service cost (a chaos stall counts:
/// a stalled shard serves fewer epochs per deadline; a round that
/// solved nothing resets the shard to its cold-start limit). Runs
/// inside a pool job. With a shallow queue the lock is taken per epoch so
/// `ingest` interleaves cleanly; once the queue is at least
/// [`DRAIN_BATCH`] deep the
/// round drains that many epochs per lock acquisition instead —
/// latency is backlog-dominated at that point, so amortizing the lock
/// (and feeding the solvers back-to-back epochs) is pure win. Epoch
/// outcomes are identical either way: FIFO order and per-epoch session
/// processing are preserved, only the lock cadence changes.
fn run_shard_round(
    shard: &Mutex<Shard>,
    round: u64,
    config: &ServiceConfig,
    chaos: Option<ChaosOp>,
    journal: Option<&Mutex<JournalWriter>>,
    metrics: &ServiceMetrics,
    tx: &mpsc::Sender<RoundMessage>,
) {
    let started = Instant::now();
    let deadline = config.deadline;
    match chaos {
        Some(ChaosOp::Stall(pause)) => std::thread::sleep(pause),
        Some(ChaosOp::Panic) => {
            // A controlled "job crashed" for the chaos campaign —
            // resume_unwind skips the panic hook, so storms don't spam
            // stderr, but the pool's catch_unwind still counts it and
            // the round's collector still sees the missing completion.
            std::panic::resume_unwind(Box::new("chaos: injected shard panic"));
        }
        None => {}
    }
    // Reused batch scratch: epochs processed under one lock hold,
    // journaled and reported after it drops.
    let mut drained: Vec<DrainedEpoch> = Vec::with_capacity(DRAIN_BATCH);
    let mut drained_total = 0u64;
    let mut solved_total = 0u64;
    loop {
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let depth = guard.queue.len();
        if depth == 0 {
            if drained_total > 0 {
                // Per *solved* epoch: an expired epoch skips the solve,
                // so counting it would make overload look cheap.
                let cost = (solved_total > 0).then(|| {
                    let ns = started.elapsed().as_nanos() / u128::from(solved_total);
                    u64::try_from(ns).unwrap_or(u64::MAX).max(1)
                });
                guard.ns_per_epoch = cost;
                metrics.admit_limit.set(admit_limit(config, cost) as f64);
            }
            break;
        }
        // Deep queue → batch drain (see fn docs); shallow → one epoch
        // per lock so ingest interleaves.
        let batch = if depth >= DRAIN_BATCH {
            metrics.batch_drains.inc();
            DRAIN_BATCH
        } else {
            1
        };
        drained.clear();
        for _ in 0..batch {
            let Some(queued) = guard.queue.pop_front() else {
                break;
            };
            let Queued { epoch, enqueued } = queued;
            let waited = enqueued.elapsed();
            let session = guard
                .sessions
                .entry(epoch.receiver)
                .or_insert_with(|| Session::new(epoch.receiver));
            session.touch(round);
            let seq = session.seq();
            let predicted_bias_m = session.predicted_bias_m();
            let (disposition, result) = if waited > deadline {
                metrics.deadline_expired.inc();
                (
                    Disposition::DeadlineExpired,
                    session.expire_deadline(epoch.dt_s, deadline.as_micros() as u64),
                )
            } else {
                (
                    Disposition::Solved,
                    session.process(&epoch.measurements, epoch.dt_s),
                )
            };
            let digest = session.digest();
            drained.push(DrainedEpoch {
                receiver: epoch.receiver,
                seq,
                disposition,
                dt_s: epoch.dt_s,
                predicted_bias_m,
                measurements: epoch.measurements,
                result,
                digest,
                enqueued,
            });
        }
        drop(guard);

        drained_total += drained.len() as u64;
        solved_total += drained
            .iter()
            .filter(|e| e.disposition == Disposition::Solved)
            .count() as u64;
        for epoch in drained.drain(..) {
            if let Some(journal) = journal {
                let record = JournalRecord {
                    receiver: epoch.receiver,
                    seq: epoch.seq,
                    disposition: epoch.disposition,
                    dt_s: epoch.dt_s,
                    predicted_bias_m: epoch.predicted_bias_m,
                    measurements: epoch.measurements,
                    outcome: OutcomeBits::from_result(&epoch.result),
                    digest: epoch.digest,
                };
                let mut writer = journal.lock().unwrap_or_else(|e| e.into_inner());
                if writer.append(&record.encode()).is_ok() {
                    metrics.journal_records.inc();
                    metrics.journal_bytes.set(writer.bytes_written() as f64);
                }
            }

            let latency_us = epoch.enqueued.elapsed().as_micros() as u64;
            metrics.latency_us.record(latency_us as f64);
            let outcome = EpochOutcome {
                receiver: epoch.receiver,
                seq: epoch.seq,
                disposition: epoch.disposition,
                result: epoch.result,
                latency_us,
            };
            if tx.send(RoundMessage::Outcome(outcome)).is_err() {
                return; // collector gave up on this round
            }
        }
    }
    let _ = tx.send(RoundMessage::ShardDone);
}

/// The journaled outcome, reduced to comparable bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutcomeBits {
    /// 0 for an error, otherwise the `FixQuality` code.
    kind: u64,
    /// `SolveError::code` when `kind == 0`.
    err_code: u64,
    position_bits: [u64; 3],
}

impl OutcomeBits {
    fn from_result(result: &Result<ResilientFix, SolveError>) -> Self {
        match result {
            Ok(fix) => OutcomeBits {
                kind: u64::from(fix.quality.code()),
                err_code: 0,
                position_bits: [
                    fix.position.x.to_bits(),
                    fix.position.y.to_bits(),
                    fix.position.z.to_bits(),
                ],
            },
            Err(e) => OutcomeBits {
                kind: 0,
                err_code: u64::from(e.code()),
                position_bits: [0; 3],
            },
        }
    }
}

/// One journal record: everything needed to re-run the epoch plus
/// everything needed to verify the re-run matched.
struct JournalRecord {
    receiver: u64,
    seq: u64,
    disposition: Disposition,
    dt_s: f64,
    predicted_bias_m: f64,
    measurements: Vec<Measurement>,
    outcome: OutcomeBits,
    digest: u64,
}

impl JournalRecord {
    // lint: wire_format
    fn encode(&self) -> Vec<u64> {
        let mut words =
            Vec::with_capacity(self.measurements.len().saturating_mul(5).saturating_add(12));
        words.push(self.receiver);
        words.push(self.seq);
        words.push(self.disposition.to_word());
        words.push(self.dt_s.to_bits());
        words.push(self.predicted_bias_m.to_bits());
        words.push(self.measurements.len() as u64);
        for m in &self.measurements {
            words.push(m.position.x.to_bits());
            words.push(m.position.y.to_bits());
            words.push(m.position.z.to_bits());
            words.push(m.pseudorange.to_bits());
            // Elevation feeds solver weighting, so replay needs it;
            // NaN bits encode "unknown".
            words.push(m.elevation.unwrap_or(f64::NAN).to_bits());
        }
        words.push(self.outcome.kind);
        words.push(self.outcome.err_code);
        words.extend_from_slice(&self.outcome.position_bits);
        words.push(self.digest);
        words
    }

    // lint: wire_format
    fn decode(words: &[u64]) -> Option<Self> {
        let mut it = words.iter().copied();
        let receiver = it.next()?;
        let seq = it.next()?;
        let disposition = Disposition::from_word(it.next()?)?;
        let dt_s = f64::from_bits(it.next()?);
        let predicted_bias_m = f64::from_bits(it.next()?);
        let n = it.next()? as usize;
        // `n` comes off the wire: checked math so a hostile count
        // cannot overflow the expected-length comparison.
        let expected = n.checked_mul(5).and_then(|w| w.checked_add(12))?;
        if words.len() != expected {
            return None;
        }
        let mut measurements = Vec::with_capacity(n);
        for _ in 0..n {
            let x = f64::from_bits(it.next()?);
            let y = f64::from_bits(it.next()?);
            let z = f64::from_bits(it.next()?);
            let pr = f64::from_bits(it.next()?);
            let elevation = f64::from_bits(it.next()?);
            let mut m = Measurement::new(gps_geodesy::Ecef::new(x, y, z), pr);
            if elevation.is_finite() {
                m = m.with_elevation(elevation);
            }
            measurements.push(m);
        }
        let kind = it.next()?;
        let err_code = it.next()?;
        let position_bits = [it.next()?, it.next()?, it.next()?];
        let digest = it.next()?;
        Some(JournalRecord {
            receiver,
            seq,
            disposition,
            dt_s,
            predicted_bias_m,
            measurements,
            outcome: OutcomeBits {
                kind,
                err_code,
                position_bits,
            },
            digest,
        })
    }
}

/// Result of replaying a service journal.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Complete records decoded.
    pub records: usize,
    /// Whether the journal ended in a torn tail (SIGKILL mid-append).
    pub truncated: bool,
    /// Records the decoder skipped as structurally invalid.
    pub malformed: usize,
    /// Recomputed outcomes that differed from the journaled bits
    /// (position, quality, digest, or clock prediction).
    pub mismatches: usize,
    /// Per-receiver final digests after the rebuild, sorted by id.
    pub digests: Vec<(u64, u64)>,
}

impl ReplayReport {
    /// Bit-for-bit success: every record replayed to identical bits.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.mismatches == 0 && self.malformed == 0
    }
}

/// Rebuilds session state from a `GPSJRNL1` journal, re-running every
/// record through a fresh [`Session`] and verifying the recomputed
/// outcome bits, clock prediction, and digest chain against what the
/// live run journaled. Tolerates a torn tail (reported, not fatal).
/// Records stream from the file one at a time, so memory holds the
/// sessions, never the journal.
///
/// # Errors
///
/// Returns an error only for IO failures or a non-journal file.
pub fn replay_journal(path: &Path) -> io::Result<ReplayReport> {
    let mut reader = JournalReader::open(path)?;
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut malformed = 0usize;
    let mut mismatches = 0usize;
    while let Some(words) = reader.next_record()? {
        let Some(record) = JournalRecord::decode(words) else {
            malformed += 1;
            continue;
        };
        let session = sessions
            .entry(record.receiver)
            .or_insert_with(|| Session::new(record.receiver));
        let mut clean = record.seq == session.seq();
        let predicted = session.predicted_bias_m();
        let result = match record.disposition {
            Disposition::Solved => session.process(&record.measurements, record.dt_s),
            Disposition::DeadlineExpired => {
                // The journaled budget lives in the outcome's error
                // code only; reconstruct with a zero budget — the code
                // and digest are budget-independent.
                session.expire_deadline(record.dt_s, 0)
            }
        };
        clean &= predicted.to_bits() == record.predicted_bias_m.to_bits();
        clean &= OutcomeBits::from_result(&result) == record.outcome;
        clean &= session.digest() == record.digest;
        if !clean {
            mismatches += 1;
        }
    }
    let mut digests: Vec<(u64, u64)> = sessions.values().map(|s| (s.id(), s.digest())).collect();
    digests.sort_unstable();
    Ok(ReplayReport {
        records: usize::try_from(reader.records_read()).unwrap_or(usize::MAX),
        truncated: reader.truncated(),
        malformed,
        mismatches,
        digests,
    })
}

/// Collapses per-receiver digests into one fleet digest (order
/// normalized by sorting), for one-line parity checks between a live
/// run and its replay.
#[must_use]
pub fn fleet_digest(digests: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = digests.to_vec();
    sorted.sort_unstable();
    let words: Vec<u64> = sorted.iter().flat_map(|&(id, d)| [id, d]).collect();
    gps_telemetry::journal::fnv1a_words(0, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::FixQuality;
    use gps_geodesy::Ecef;

    const TRUTH: Ecef = Ecef {
        x: 6.371e6,
        y: 1.0e5,
        z: -2.0e5,
    };

    fn good_epoch(receiver: u64, bias_m: f64) -> SessionEpoch {
        let sats = [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ];
        SessionEpoch {
            receiver,
            dt_s: 1.0,
            measurements: sats
                .iter()
                .map(|&s| Measurement::new(s, s.distance_to(TRUTH) + bias_m))
                .collect(),
        }
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            shards: 2,
            queue_capacity: 8,
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn serves_a_fleet_round_with_fixes() {
        let mut service = PositioningService::new(quick_config());
        for receiver in 0..6u64 {
            assert_eq!(
                service.ingest(good_epoch(receiver, 10.0)),
                IngestResult::Queued
            );
        }
        let round = service.process_round();
        assert_eq!(round.expected_shards, 2);
        assert_eq!(round.completed_shards, 2);
        assert_eq!(round.outcomes.len(), 6);
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::Solved);
            let fix = outcome.result.as_ref().expect("fix");
            assert_eq!(fix.quality, FixQuality::Nominal);
            assert!(fix.position.distance_to(TRUTH) < 1.0);
        }
        assert_eq!(service.sessions(), 6);
    }

    #[test]
    fn zero_deadline_routes_every_epoch_to_expiry() {
        let mut config = quick_config();
        config.deadline = Duration::from_nanos(0);
        let mut service = PositioningService::new(config);
        // Warm each session so expiry has holdover to fall to.
        for receiver in 0..2u64 {
            let _ = service.ingest(good_epoch(receiver, 0.0));
        }
        // With a zero budget even the warmup expires — so the *first*
        // outcomes are deadline errors (no prior fix), and later ones
        // stay typed deadline errors since holdover never initializes.
        let round = service.process_round();
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::DeadlineExpired);
            assert!(matches!(
                outcome.result,
                Err(SolveError::DeadlineExceeded { .. })
            ));
        }
    }

    #[test]
    fn deadline_expiry_after_warmup_falls_to_holdover() {
        let mut config = quick_config();
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        let round = service.process_round();
        assert!(round.outcomes.iter().all(|o| o.result.is_ok()));
        // Second round: expire everything.
        config.deadline = Duration::from_nanos(0);
        service.config = config;
        let _ = service.ingest(good_epoch(0, 0.0));
        let round = service.process_round();
        let outcome = round.outcomes.first().expect("one outcome");
        assert_eq!(outcome.disposition, Disposition::DeadlineExpired);
        let fix = outcome.result.as_ref().expect("holdover fix");
        assert_eq!(fix.quality, FixQuality::Holdover);
    }

    #[test]
    fn full_queue_sheds_lowest_priority_first() {
        let mut config = quick_config();
        config.shards = 1;
        config.queue_capacity = 2;
        let mut service = PositioningService::new(config);
        // Establish quality tiers: receiver 0 nominal, receiver 1
        // fresh (never fixed → priority 0).
        let _ = service.ingest(good_epoch(0, 0.0));
        let round = service.process_round();
        assert!(round.outcomes.iter().all(|o| o.result.is_ok()));
        // Real overload: a measured cost of one deadline per epoch
        // puts the limit at its floor of 2.
        service.shards[0].lock().expect("shard").ns_per_epoch =
            Some(config.deadline.as_nanos() as u64);

        // Fill the queue: [fresh-1, nominal-0], then push another
        // nominal-0 epoch. The fresh receiver must be the victim.
        assert_eq!(service.ingest(good_epoch(1, 0.0)), IngestResult::Queued);
        assert_eq!(service.ingest(good_epoch(0, 0.0)), IngestResult::Queued);
        let shed = service.ingest(good_epoch(0, 0.0));
        assert_eq!(shed, IngestResult::Shed { receiver: 1 });

        // Now the queue holds two nominal-0 epochs; an incoming epoch
        // from a never-fixed receiver sheds itself.
        let shed = service.ingest(good_epoch(5, 0.0));
        assert_eq!(shed, IngestResult::Shed { receiver: 5 });
    }

    #[test]
    fn warm_shards_admit_a_clean_burst_past_queue_capacity() {
        // SLO: a load below measured capacity sheds nothing. One warm
        // round measures each shard's cost (tens of µs per epoch); a
        // 3 × queue_capacity burst per shard then fits the 5 s deadline
        // by orders of magnitude.
        let config = quick_config();
        let mut service = PositioningService::new(config);
        for receiver in 0..4u64 {
            let _ = service.ingest(good_epoch(receiver, 0.0));
        }
        let _ = service.process_round();
        let burst = 3 * config.queue_capacity * config.shards;
        for receiver in 0..burst as u64 {
            assert_eq!(
                service.ingest(good_epoch(receiver, 0.0)),
                IngestResult::Queued,
                "receiver {receiver} shed"
            );
        }
        let round = service.process_round();
        assert_eq!(round.outcomes.len(), burst);
        assert!(round
            .outcomes
            .iter()
            .all(|o| o.disposition == Disposition::Solved && o.result.is_ok()));
    }

    #[test]
    fn cpu_bound_overload_keeps_shedding_the_lowest_priority() {
        // Real CPU-bound overload, no chaos: every round offers six
        // times the shard's measured limit against a 5 ms deadline, and
        // the epochs arrive half a deadline before the round runs, so
        // the tail of a limit-deep queue expires. Four nominal
        // receivers lead each round; the rest are degraded (one
        // non-finite pseudorange, still a full solve). An expired epoch
        // skips the solve; if it counted as served, the limit would
        // climb towards the offered load round over round and shedding
        // by quality would turn into first-come expiry.
        let mut config = quick_config();
        config.shards = 1;
        config.deadline = Duration::from_millis(5);
        let mut service = PositioningService::new(config);
        let nominal = config.queue_capacity as u64 / 2;
        let degraded = |receiver| {
            let mut epoch = good_epoch(receiver, 0.0);
            epoch.measurements[5].pseudorange = f64::NAN;
            epoch
        };
        // Priorities change only inside the shard job, so between
        // rounds every victim must rank at or below every epoch still
        // queued.
        let offer = |service: &PositioningService, count: u64| {
            let mut victims = Vec::new();
            for i in 0..count {
                let epoch = if i < nominal {
                    good_epoch(i, 0.0)
                } else {
                    degraded(1_000 + i % 256)
                };
                if let IngestResult::Shed { receiver } = service.ingest(epoch) {
                    victims.push(receiver);
                }
            }
            let shard = service.shards[0].lock().expect("shard");
            let priority = |receiver| shard.sessions[&receiver].shed_priority();
            let kept = shard
                .queue
                .iter()
                .map(|q| priority(q.epoch.receiver))
                .fold(f64::INFINITY, f64::min);
            for &victim in &victims {
                assert!(
                    priority(victim) <= kept,
                    "shed {victim} over a lower priority"
                );
            }
            victims.len() as u64
        };
        // Warm rounds; the largest limit seen (cheapest round) sizes
        // the load, so a slow warm round cannot make it light.
        let mut warm_limit = 0;
        for _ in 0..3 {
            let _ = offer(&service, 256);
            let _ = service.process_round();
            let measured = service.shards[0].lock().expect("shard").ns_per_epoch;
            warm_limit = warm_limit.max(admit_limit(&config, measured) as u64);
        }
        let offered = 6 * warm_limit;
        for round in 0..10 {
            let shed = offer(&service, offered);
            std::thread::sleep(config.deadline / 2);
            let report = service.process_round();
            let expired = report
                .outcomes
                .iter()
                .filter(|o| o.disposition == Disposition::DeadlineExpired)
                .count() as u64;
            assert!(
                shed >= offered / 2,
                "round {round}: shed {shed} of {offered} (warm limit {warm_limit})"
            );
            assert!(
                expired <= offered / 3,
                "round {round}: {expired} of {offered} expired (warm limit {warm_limit})"
            );
        }
    }

    #[test]
    fn cold_shard_admits_exactly_queue_capacity() {
        // Shard 0 is measured, shard 1 never drained: shard 1 keeps the
        // slot limit exactly while shard 0 admits past it.
        let config = quick_config();
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        let _ = service.process_round();
        let cap = config.queue_capacity as u64;
        for i in 0..cap {
            assert_eq!(
                service.ingest(good_epoch(2 * i + 1, 0.0)),
                IngestResult::Queued
            );
        }
        let next = 2 * cap + 1;
        assert_eq!(
            service.ingest(good_epoch(next, 0.0)),
            IngestResult::Shed { receiver: next }
        );
        for i in 0..=cap {
            assert_eq!(service.ingest(good_epoch(2 * i, 0.0)), IngestResult::Queued);
        }
    }

    #[test]
    fn deep_queue_sheds_in_priority_then_fifo_order() {
        // A cold queue 512 deep of interleaved nominal (0..8) and
        // fresh (100..108) receivers, then 1 200 more ingests. Every
        // result must match a brute-force model: the earliest queued
        // epoch of the lowest tier makes way for a higher-tier
        // incoming epoch, otherwise the incoming epoch is shed.
        let mut config = quick_config();
        config.shards = 1;
        config.queue_capacity = 512;
        let mut service = PositioningService::new(config);
        for receiver in 0..8u64 {
            let _ = service.ingest(good_epoch(receiver, 0.0));
        }
        let _ = service.process_round();
        // Cold again: the warm round measured the shard, so restore the
        // slot limit for this test by forgetting the measurement.
        service.shards[0].lock().expect("shard").ns_per_epoch = None;

        let tier = |receiver: u64| u8::from(receiver < 100);
        let mut model: Vec<u64> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in 0..1_712u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let receiver = if state.is_multiple_of(3) {
                100 + state % 8
            } else {
                state % 8
            };
            let got = service.ingest(good_epoch(receiver, 0.0));
            let want = if model.len() < 512 {
                model.push(receiver);
                IngestResult::Queued
            } else {
                let (index, &victim) = model
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &r)| (tier(r), i))
                    .expect("full model");
                if tier(victim) < tier(receiver) {
                    model.remove(index);
                    model.push(receiver);
                    IngestResult::Shed { receiver: victim }
                } else {
                    IngestResult::Shed { receiver }
                }
            };
            assert_eq!(got, want, "ingest {i}");
        }
        let round = service.process_round();
        assert_eq!(round.outcomes.len(), model.len());
        let mut served: Vec<u64> = round.outcomes.iter().map(|o| o.receiver).collect();
        model.sort_unstable();
        served.sort_unstable();
        assert_eq!(served, model);
    }

    #[test]
    fn shard_queue_tombstones_and_compaction_keep_fifo_and_shed_order() {
        // Priority = receiver id, so every displacement is strictly
        // upward and tombstones pile up past the live count, forcing
        // compactions; a brute-force model checks every victim and the
        // final FIFO order.
        let queued = |receiver: u64| Queued {
            epoch: SessionEpoch {
                receiver,
                dt_s: 1.0,
                measurements: Vec::new(),
            },
            enqueued: Instant::now(),
        };
        let mut queue = ShardQueue::default();
        let mut model: Vec<u64> = Vec::new();
        for r in [40, 10, 30, 20, 35, 15, 25, 5] {
            queue.push_back(queued(r), r as f64);
            model.push(r);
        }
        for incoming in 41..400u64 {
            let lowest = queue.lowest(|r| r as f64).expect("non-empty");
            let (index, &want) = model
                .iter()
                .enumerate()
                .min_by_key(|&(_, &r)| r)
                .expect("model");
            assert_eq!(lowest, priority_key(want as f64));
            let dropped = queue.remove_lowest().expect("victim");
            assert_eq!(dropped.epoch.receiver, want, "incoming {incoming}");
            model.remove(index);
            queue.push_back(queued(incoming), incoming as f64);
            model.push(incoming);
            if incoming % 97 == 0 {
                // A drain in between marks the heap stale.
                let front = queue.pop_front().expect("front");
                assert_eq!(front.epoch.receiver, model.remove(0));
            }
            assert_eq!(queue.len(), model.len());
            assert!(queue.slots.len() <= 2 * queue.len() + 1);
        }
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_front())
            .map(|q| q.epoch.receiver)
            .collect();
        assert_eq!(order, model);
        assert!(queue.is_empty());
    }

    #[test]
    fn deep_queue_batch_drain_preserves_fifo_sessions() {
        // A queue deeper than DRAIN_BATCH triggers the batch drain path;
        // outcomes must be indistinguishable from per-epoch draining:
        // every epoch solved, per-receiver seqs strictly in order.
        let mut config = quick_config();
        config.shards = 1;
        config.queue_capacity = 2 * DRAIN_BATCH + 4;
        let mut service = PositioningService::new(config);
        let total = 2 * DRAIN_BATCH + 3; // odd tail exercises batch=1
        for i in 0..total as u64 {
            assert_eq!(service.ingest(good_epoch(i % 3, 5.0)), IngestResult::Queued);
        }
        let round = service.process_round();
        assert_eq!(round.completed_shards, 1);
        assert_eq!(round.outcomes.len(), total);
        let mut next_seq = [0u64; 3];
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::Solved);
            assert!(outcome.result.is_ok());
            let r = outcome.receiver as usize;
            assert_eq!(outcome.seq, next_seq[r], "per-receiver FIFO broken");
            next_seq[r] += 1;
        }
    }

    #[test]
    fn chaos_panic_fails_the_round_but_work_survives() {
        let mut config = quick_config();
        config.shards = 1;
        config.round_timeout = Duration::from_millis(500);
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        service.set_chaos(1, 0, ChaosOp::Panic);
        let round = service.process_round();
        assert_eq!(round.completed_shards, 0);
        assert_eq!(round.expected_shards, 1);
        assert!(round.outcomes.is_empty());
        // The queue kept the epoch; the next round serves it.
        let round = service.process_round();
        assert_eq!(round.outcomes.len(), 1);
        assert_eq!(round.completed_shards, 1);
    }

    #[test]
    fn journal_replay_is_bit_for_bit() {
        let path =
            std::env::temp_dir().join(format!("gps_service_journal_{}.bin", std::process::id()));
        let digests_live;
        {
            let mut service = PositioningService::new(quick_config())
                .with_journal(&path)
                .expect("journal");
            for round in 0..4 {
                for receiver in 0..5u64 {
                    let _ = service.ingest(good_epoch(receiver, 20.0 + round as f64));
                }
                let result = service.process_round();
                assert_eq!(result.outcomes.len(), 5);
            }
            service.sync_journal().expect("sync");
            digests_live = service.session_digests();
        }
        let report = replay_journal(&path).expect("replay");
        assert_eq!(report.records, 20);
        assert!(!report.truncated);
        assert!(report.verified(), "replay must match bit-for-bit");
        assert_eq!(report.digests, digests_live);
        assert_eq!(fleet_digest(&report.digests), fleet_digest(&digests_live));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_journal_replays_the_intact_prefix() {
        let path = std::env::temp_dir().join(format!(
            "gps_service_journal_torn_{}.bin",
            std::process::id()
        ));
        {
            let mut service = PositioningService::new(quick_config())
                .with_journal(&path)
                .expect("journal");
            for _ in 0..3 {
                for receiver in 0..4u64 {
                    let _ = service.ingest(good_epoch(receiver, 5.0));
                }
                let _ = service.process_round();
            }
            service.sync_journal().expect("sync");
        }
        // SIGKILL mid-append: chop the file mid-record.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 37]).expect("truncate");
        let report = replay_journal(&path).expect("replay");
        assert!(report.truncated, "torn tail must be reported");
        assert!(report.records < 12, "the torn record must be dropped");
        assert_eq!(report.mismatches, 0, "intact prefix must verify");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let mut config = quick_config();
        config.idle_eviction_rounds = 2;
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        let _ = service.ingest(good_epoch(1, 0.0));
        let _ = service.process_round();
        assert_eq!(service.sessions(), 2);
        // Keep receiver 0 active; let receiver 1 idle out.
        for _ in 0..4 {
            let _ = service.ingest(good_epoch(0, 0.0));
            let _ = service.process_round();
        }
        assert_eq!(service.sessions(), 1, "idle session must be evicted");
    }
}
