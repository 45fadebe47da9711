//! The repository benchmark: one workload per run, end-to-end metrics
//! from an untraced pass (`--trace 0`) or per-layer metrics from a
//! traced pass (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_gps --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! print every metric with its unit and sample count.

mod batch;
mod fleet;
mod inputs;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::Workload;
use report::Report;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("serial_engine_efficiency", "ratio"),
    ("theta_dlo", "%"),
    ("theta_dlg", "%"),
    ("theta_bancroft", "%"),
    ("eta_dlo", "%"),
    ("eta_dlg", "%"),
    ("availability", "ratio"),
    ("sustainable_epochs_per_s", "1/s"),
];

/// Per-layer metrics and units, reported by every workload with
/// `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("serial_fixes_per_s", "1/s"),
    ("parallel_fixes_per_s", "1/s"),
    ("parallel_speedup", "ratio"),
    ("replay_epochs_per_s", "1/s"),
    ("fix_latency_p50_us", "us"),
    ("fix_latency_p99_us", "us"),
    ("linalg.ols_into.ns", "ns"),
    ("linalg.ols_into.flops", "count"),
    ("linalg.gls_rank1_into.ns", "ns"),
    ("linalg.gls_rank1_into.flops", "count"),
    ("linalg.gls_into.ns", "ns"),
    ("linalg.gls_into.flops", "count"),
    ("linalg.cholesky.factor_in_place.ns", "ns"),
    ("linalg.cholesky.factor_in_place.flops", "count"),
    ("core.base.select.ns", "ns"),
    ("core.dlo.linearize_alloc.ns", "ns"),
    ("core.dlg.covariance_rank1.ns", "ns"),
    ("core.solver.nr.ns_per_fix", "ns"),
    ("core.solver.dlo.ns_per_fix", "ns"),
    ("core.solver.dlg.ns_per_fix", "ns"),
    ("core.solver.bancroft.ns_per_fix", "ns"),
    ("core.solver.nr.fail_ratio", "ratio"),
    ("core.solver.dlo.fail_ratio", "ratio"),
    ("core.solver.dlg.fail_ratio", "ratio"),
    ("core.solver.bancroft.fail_ratio", "ratio"),
    ("core.nr.iterations_mean", "count"),
    ("core.engine.run_epoch.ns", "ns"),
    ("core.engine.overhead_ns", "ns"),
    ("core.engine.timing_hooks_ns", "ns"),
    ("core.parallel.ns_per_epoch", "ns"),
    ("core.parallel.overhead_ns_per_epoch", "ns"),
    ("core.parallel.worker_utilization_min", "ratio"),
    ("core.parallel.worker_imbalance", "ratio"),
    ("pool.submitted", "count"),
    ("core.service.ingest.ns", "ns"),
    ("core.service.shed_ratio", "ratio"),
    ("core.service.deadline_expired_ratio", "ratio"),
    ("core.service.process_round.p50_ms", "ms"),
    ("core.service.process_round.p90_ms", "ms"),
    ("core.service.queue_to_outcome.p50_us", "us"),
    ("core.service.queue_to_outcome.p99_us", "us"),
    ("core.service.backlog_end", "count"),
    ("core.service.round_failures", "count"),
    ("core.service.batch_drains", "count"),
    ("core.service.generator_lag.p90_us", "us"),
    ("core.session.process.ns", "ns"),
    ("core.raim.ns", "ns"),
    ("core.resilient.nominal_ratio", "ratio"),
    ("core.resilient.degraded_ratio", "ratio"),
    ("core.resilient.holdover_ratio", "ratio"),
    ("telemetry.journal.append.ns", "ns"),
    ("telemetry.journal.sync.us", "us"),
    ("telemetry.journal.bytes_per_epoch", "bytes"),
    ("telemetry.journal.replay.ns_per_record", "ns"),
    ("core.service.journal_ns_per_epoch", "ns"),
    ("core.service.unaccounted_ns_per_epoch", "ns"),
    ("trace.linalg_self_share", "ratio"),
    ("trace.solver_self_share", "ratio"),
    ("trace.engine_overhead_share", "ratio"),
    ("trace.parallel_overhead_share", "ratio"),
    ("trace.span_cost_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Untraced runs alternate this many fleet ladders with batch slices,
/// so a slow stretch of the machine touches every metric a little
/// rather than one metric wholly.
const SEGMENTS: u32 = 3;

/// Journal replays per segment, spread over its batch slice.
const REPLAYS_PER_SEGMENT: u32 = 3;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Ticks per ladder step so a ladder lasts `share` of the run (the
/// reported step runs twice as long), with at least 25: enough rounds
/// for a p90 of round times.
fn ticks_per_step(seconds: f64, share: f64, steps: usize) -> usize {
    let ticks = seconds * share / ((steps + 1) as f64 * fleet::PERIOD.as_secs_f64());
    (ticks as usize).max(25)
}

fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::PaperGps => "the paper's regime: sub-µs stack-lane solves, so dispatch, merge and hooks are a large share",
        Workload::GnssWide => "heap lane at m = 24–40: O(m) linearization, covariance and GLS dominate; dispatch is a small share",
        Workload::FleetSync => "synchronized bursts with faults through the service: admission, shedding, RAIM, journal and replay",
    }
}

fn run(args: &Args) -> Result<Report, String> {
    gps_telemetry::set_detail(false);
    let workers = gps_pool::available_parallelism();
    let seconds = args.seconds as f64;
    let config = fleet::service_config(workers);
    let steps = args.workload.ladder_eighths().len();
    let ladder = fleet::Ladder::new(
        args.workload,
        &config,
        ticks_per_step(seconds, 0.5 / f64::from(SEGMENTS), steps),
    );
    let scratch = fleet::scratch_dir().join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let journal = |segment: u32| scratch.join(format!("journal-{segment}.bin"));

    // Set-up: inputs from the seed, the serial reference, engines and
    // pool warmed by one pass, and the journaled service.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        let inputs = inputs::generate(args.workload, args.seed, ladder.ticks_total());
        let reference = batch::Reference::compute(&inputs.batch);
        let rig = batch::BatchRig::new(&inputs.batch, workers);
        let service =
            fleet::new_service(workers, Some(&journal(0))).map_err(|e| format!("journal: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inputs, reference, rig, service));
    }
    let (inputs, reference, mut rig, service) = state.ok_or("no set-up ran")?;

    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers
    );
    println!("  why: {}", why(args.workload));
    println!(
        "  batch: {} epochs, mean m {:.1}; fleet: ladder {:?} sessions (slot limit {}), {} ticks/step, period {:?}",
        inputs.batch.len(),
        inputs.batch.mean_m(),
        ladder.steps,
        ladder.slot_limit,
        ladder.ticks_per_step,
        fleet::PERIOD
    );

    let mut report = Report::default();
    if args.trace {
        drop(service);
        // The absolute batch rates, untraced, as per-layer information.
        let mut rates = batch::Samples::default();
        let slice = Duration::from_secs_f64(seconds * 0.1);
        batch::measure_slice(
            &mut rig,
            &inputs.batch,
            &reference,
            slice,
            &mut rates,
            &mut report,
            0,
            &mut |_| {},
        );
        rates.report(&reference, &mut report);
        let (u1, t1, mut spans) = batch::traced(
            &mut rig,
            &inputs.batch,
            &reference,
            Duration::from_secs_f64(seconds * 0.3),
            &mut report,
        );
        let short = ladder.shortened(ticks_per_step(seconds, 0.2, steps));
        let (u2, t2, fleet_spans) =
            fleet::traced(workers, &scratch, &inputs.fleet, &short, &mut report)
                .map_err(|e| format!("fleet trace: {e}"))?;
        let untraced = (u1 + u2).as_secs_f64();
        let traced = (t1 + t2).as_secs_f64();
        report.exact(
            "bench.trace_overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
            2,
        );

        let base = spans.len();
        spans.extend(fleet_spans.into_iter().map(|s| trace::Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        print_self_times(&spans);
        let dump = fleet::scratch_dir().join(format!(
            "trace-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        match trace::dump(&spans, &dump) {
            Ok(()) => println!("  spans: {} written to {}", spans.len(), dump.display()),
            Err(e) => return Err(format!("writing {}: {e}", dump.display())),
        }
        report.select(PER_LAYER);
    } else {
        // Segments alternate a ladder with a batch slice; each ladder's
        // journal is replayed during the following slice.
        let mut batch_samples = batch::Samples::default();
        let mut fleet_samples = fleet::Samples::default();
        let mut service = Some(service);
        let slice = Duration::from_secs_f64(seconds * 0.5 / f64::from(SEGMENTS));
        for segment in 0..SEGMENTS {
            let mut live = match service.take() {
                Some(s) => s,
                None => fleet::new_service(workers, Some(&journal(segment)))
                    .map_err(|e| format!("journal: {e}"))?,
            };
            let run = fleet_samples.ladder(&mut live, &inputs.fleet, &ladder, &mut report);
            drop(live);
            let path = journal(segment);
            let replays = &mut fleet_samples.replay;
            batch::measure_slice(
                &mut rig,
                &inputs.batch,
                &reference,
                slice,
                &mut batch_samples,
                &mut report,
                REPLAYS_PER_SEGMENT,
                &mut |report| replays.extend(fleet::replay(&path, &run, report)),
            );
        }
        batch_samples.report(&reference, &mut report);
        fleet_samples.report(&ladder, &mut report);
        report.median("setup_s", &setup_s, "s");
        match peak_rss_mb() {
            Some(mb) => report.exact("peak_rss_mb", mb, "MB", 1),
            None => report.fail_gate("peak_rss", 1),
        }
        report.select(END_TO_END);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(report)
}

fn print_self_times(spans: &[trace::Span]) {
    let table = trace::layer_table(spans);
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::duration_ns)
        .sum();
    println!("  self time by layer ({} root ns):", roots);
    println!(
        "  {:<40} {:>9} {:>14} {:>14} {:>7}",
        "span", "calls", "self ns/call", "total ns/call", "share"
    );
    for (name, row) in &table {
        println!(
            "  {:<40} {:>9} {:>14.1} {:>14.1} {:>6.2}%",
            name,
            row.calls,
            row.self_ns_per_call(),
            row.total_ns_per_call(),
            100.0 * row.self_ns as f64 / roots.max(1) as f64
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload paper_gps|gnss_wide|fleet_sync --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{}", report.table());
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": …, "unit": …` pair of a `BENCHMARK.json` section.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at =
                        entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                    entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        assert_eq!(section(json, "end_to_end"), owned(END_TO_END));
        assert_eq!(section(json, "per_layer"), owned(PER_LAYER));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(report::valid_name(name), "{name}");
        }
        for workload in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
    }
}
