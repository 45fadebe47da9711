//! Cost of one shed as a function of shard queue depth.
//!
//! A one-shard service is filled to its admission limit (`depth`) with
//! epochs alternating between nominal receivers and never-fixed ones,
//! then offered `depth` more nominal epochs. The first half displaces
//! the never-fixed epochs (victim removed, incoming queued); the rest
//! shed themselves. The table prints ns per shed, best of `REPS`. A
//! victim search that scans the queue grows linearly with depth; an
//! indexed one stays flat.
//!
//! The warm-up round runs under a 200 ms stall against a 250 ms
//! deadline: the sessions get nominal fixes, and the measured cost
//! (≥ 25 ms per epoch) keeps the time budget below `depth`, so the
//! limit is exactly `queue_capacity = depth` on every build.
//!
//! ```text
//! cargo bench --offline -p gps-bench --bench service_shed
//! ```

use std::time::{Duration, Instant};

use gps_core::{
    ChaosOp, IngestResult, Measurement, PositioningService, ServiceConfig, SessionEpoch,
};
use gps_geodesy::Ecef;

const DEPTHS: [usize; 4] = [64, 512, 2_048, 8_192];
const REPS: usize = 3;
const NOMINAL: u64 = 8;

fn epoch(receiver: u64) -> SessionEpoch {
    let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
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
            .map(|&s| Measurement::new(s, s.distance_to(truth) + 10.0))
            .collect(),
    }
}

/// Nanoseconds per shed at `depth`, and how many sheds displaced a
/// queued epoch.
fn shed_ns(depth: usize) -> (f64, usize) {
    let mut service = PositioningService::new(ServiceConfig {
        workers: 1,
        shards: 1,
        queue_capacity: depth,
        deadline: Duration::from_millis(250),
        ..ServiceConfig::default()
    });
    service.set_chaos(1, 0, ChaosOp::Stall(Duration::from_millis(200)));
    for r in 0..NOMINAL {
        let _ = service.ingest(epoch(r));
    }
    let _ = service.process_round();
    for i in 0..depth as u64 {
        let r = if i % 2 == 0 {
            i % NOMINAL
        } else {
            100 + i % NOMINAL
        };
        assert_eq!(service.ingest(epoch(r)), IngestResult::Queued);
    }
    let offered: Vec<SessionEpoch> = (0..depth as u64).map(|i| epoch(i % NOMINAL)).collect();
    let mut displaced = 0;
    let start = Instant::now();
    for e in offered {
        let receiver = e.receiver;
        match service.ingest(e) {
            IngestResult::Shed { receiver: victim } if victim != receiver => displaced += 1,
            IngestResult::Shed { .. } => {}
            IngestResult::Queued => panic!("depth {depth}: a full queue admitted"),
        }
    }
    (start.elapsed().as_nanos() as f64 / depth as f64, displaced)
}

fn main() {
    println!("service_shed: ns per shed into a full one-shard queue (best of {REPS})");
    println!(
        "{:>7} {:>7} {:>10} {:>12}",
        "depth", "sheds", "displaced", "ns/shed"
    );
    for depth in DEPTHS {
        let runs: Vec<(f64, usize)> = (0..REPS).map(|_| shed_ns(depth)).collect();
        let best = runs.iter().map(|r| r.0).fold(f64::INFINITY, f64::min);
        println!("{depth:>7} {depth:>7} {:>10} {best:>12.0}", runs[0].1);
    }
}
