//! Golden result digests: every solver's output on a fixed input corpus,
//! hashed to the last bit, must match the committed constants.
//!
//! The corpus covers m = 4..=40 from two sources — generated GPS and
//! multi-GNSS observation streams (`gps-obs`) and seeded synthetic
//! epochs — plus hand-built degenerate, non-finite, overflowing and
//! too-few inputs. Per epoch the digest folds in the position, bias,
//! residual-RMS and iteration bits of a fix, or the full [`SolveError`]
//! value (pivots and payloads included) of a rejection.
//!
//! Each solver runs once with detail telemetry off and once with it on;
//! both must reproduce the same constant. A kernel rewrite that changes
//! one rounding step anywhere in the sweep fails here, naming the solver
//! and the digest it produced.

use std::sync::Mutex;

use gps_core::{
    Bancroft, BaseSelection, CovarianceModel, Dlg, Dlo, Epoch, GlsPath, Measurement, NewtonRaphson,
    Solution, SolveContext, SolveError, Solver, Weighting,
};
use gps_geodesy::wgs84::SPEED_OF_LIGHT;
use gps_geodesy::{Ecef, Enu, Geodetic, LocalFrame};
use gps_obs::{paper_stations, DatasetGenerator};
use gps_orbits::Constellation;
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

/// `gps_telemetry::set_detail` is process-global; the tests below take
/// this lock so the detail-on sweep never overlaps the detail-off sweep.
static DETAIL: Mutex<()> = Mutex::new(());

/// One input epoch: measurements plus the clock prediction handed in.
type Case = (Vec<Measurement>, f64);

/// The solver roster and each one's golden digest.
fn roster() -> Vec<(&'static str, Box<dyn Solver>, u64)> {
    let dlg = |model| Dlg::default().with_covariance_model(model);
    vec![
        (
            "NR",
            Box::new(NewtonRaphson::default()),
            0x3052_d6d4_f021_0f20,
        ),
        (
            "NR/elevation-weighted",
            Box::new(NewtonRaphson::default().with_weighting(Weighting::SinSquaredElevation)),
            0xc5a8_3790_f4f6_807e,
        ),
        ("DLO", Box::new(Dlo::default()), 0x05a6_5e3e_08cf_585c),
        (
            "DLO/highest-elevation",
            Box::new(Dlo::default().with_base_selection(BaseSelection::HighestElevation)),
            0x688e_b730_1a53_5728,
        ),
        (
            "DLG/full",
            Box::new(dlg(CovarianceModel::Full)),
            0xbb61_d52d_aed3_f521,
        ),
        (
            "DLG/diagonal",
            Box::new(dlg(CovarianceModel::DiagonalOnly)),
            0x8c25_aca8_b71f_13ed,
        ),
        (
            "DLG/identity",
            Box::new(dlg(CovarianceModel::Identity)),
            0x05a6_5e3e_08cf_585c,
        ),
        (
            "DLG/elevation",
            Box::new(dlg(CovarianceModel::ElevationScaled)),
            0xa8db_d224_197f_7959,
        ),
        (
            "DLG/elevation/highest-elevation",
            Box::new(
                dlg(CovarianceModel::ElevationScaled)
                    .with_base_selection(BaseSelection::HighestElevation),
            ),
            0xe703_c721_5a35_d4dc,
        ),
        (
            "DLG/dense-whitened",
            Box::new(Dlg::default().with_gls_path(GlsPath::DenseWhitened)),
            0x12c1_b635_bb41_a1f5,
        ),
        ("Bancroft", Box::new(Bancroft), 0x7a18_6b90_7623_529b),
    ]
}

/// FNV-1a over 64-bit words.
#[derive(Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        for byte in s.bytes() {
            self.word(u64::from(byte));
        }
        self.word(u64::MAX);
    }

    fn outcome(&mut self, result: &Result<Solution, SolveError>) {
        match result {
            Ok(fix) => {
                self.word(1);
                self.word(fix.position.x.to_bits());
                self.word(fix.position.y.to_bits());
                self.word(fix.position.z.to_bits());
                self.word(fix.receiver_bias_m.map_or(u64::MAX, f64::to_bits));
                self.word(fix.residual_rms.to_bits());
                self.word(fix.iterations as u64);
            }
            // `Debug` spells out the whole value: variant, pivot, counts
            // and payload floats (printed round-trip exact).
            Err(e) => {
                self.word(2);
                self.text(&format!("{e:?}"));
            }
        }
    }
}

fn with_elevations(meas: Vec<Measurement>, els: impl Fn(usize) -> f64) -> Vec<Measurement> {
    meas.into_iter()
        .enumerate()
        .map(|(k, m)| m.with_elevation(els(k)))
        .collect()
}

/// Generated observation streams: GPS-only at two paper stations and the
/// 118-SV multi-GNSS constellation, each epoch cut to every m from 4 up
/// to min(40, in view) by elevation rank.
fn generated_cases(out: &mut Vec<Case>) {
    let stations = paper_stations();
    let gps = [(0usize, 41u64), (2, 43)].map(|(idx, seed)| {
        DatasetGenerator::new(seed)
            .epoch_interval_s(300.0)
            .epoch_count(24)
            .elevation_mask_deg(5.0)
            .generate(&stations[idx])
    });
    let multi = DatasetGenerator::new(47)
        .epoch_interval_s(450.0)
        .epoch_count(16)
        .elevation_mask_deg(5.0)
        .constellation(Constellation::multi_gnss_nominal())
        .generate(&stations[1]);
    for data in gps.iter().chain([&multi]) {
        for epoch in data.epochs() {
            let predicted = epoch.truth().clock_bias * SPEED_OF_LIGHT + 1.5;
            let visible = epoch.observations().len().min(40);
            for m in 4..=visible {
                let meas = epoch
                    .take_satellites(m)
                    .iter()
                    .map(|o| {
                        Measurement::new(o.position, o.pseudorange).with_elevation(o.elevation)
                    })
                    .collect();
                out.push((meas, predicted));
            }
        }
    }
}

/// Seeded synthetic epochs at random receivers, satellites spread in
/// azimuth at 2.2e4 km, a few metres of noise, m = 4..=40.
fn synthetic_cases(out: &mut Vec<Case>) {
    let mut rng = StdRng::seed_from_u64(0x601D_E000);
    for m in 4..=40 {
        for _ in 0..10 {
            let receiver = Geodetic::from_deg(
                rng.gen_range(-70.0..70.0),
                rng.gen_range(-179.0..179.0),
                rng.gen_range(-100.0..9_000.0),
            )
            .to_ecef();
            let frame = LocalFrame::new(receiver);
            let bias = rng.gen_range(-1_000.0..1_000.0);
            let meas = (0..m)
                .map(|k| {
                    let el: f64 = rng.gen_range(5.0..88.0_f64).to_radians();
                    let az =
                        (k as f64 + rng.gen_range(0.0..1.0)) / m as f64 * std::f64::consts::TAU;
                    let range = rng.gen_range(2.0e7..2.6e7);
                    let sat = frame.to_ecef(Enu::new(
                        range * el.cos() * az.sin(),
                        range * el.cos() * az.cos(),
                        range * el.sin(),
                    ));
                    let noise = rng.gen_range(-4.0..4.0);
                    let meas = Measurement::new(sat, sat.distance_to(receiver) + bias + noise);
                    // Leave a third of the epochs unannotated so the
                    // elevation-scaled model sees its weight-1 fallback.
                    if m % 3 == 0 {
                        meas
                    } else {
                        meas.with_elevation(el)
                    }
                })
                .collect();
            out.push((meas, bias + rng.gen_range(-5.0..5.0)));
        }
    }
}

/// Inputs built to hit every rejection path and numeric edge.
fn edge_cases(out: &mut Vec<Case>) {
    let receiver = Ecef::new(6.371e6, 1.0e5, -2.0e5);
    let sats = [
        Ecef::new(2.0e7, 0.0, 1.7e7),
        Ecef::new(1.5e7, 1.8e7, 0.9e7),
        Ecef::new(1.6e7, -1.7e7, 1.0e7),
        Ecef::new(2.5e7, 0.4e7, -0.6e7),
        Ecef::new(1.9e7, 0.9e7, 1.6e7),
        Ecef::new(0.8e7, 1.4e7, 2.0e7),
        Ecef::new(1.2e7, -0.4e7, 2.2e7),
    ];
    let exact = |n: usize, bias: f64| -> Vec<Measurement> {
        sats.iter()
            .take(n)
            .map(|&s| Measurement::new(s, s.distance_to(receiver) + bias))
            .collect()
    };

    // Too few: 0..=3 satellites.
    for n in 0..=3 {
        out.push((exact(n, 0.0), 0.0));
    }
    // Clean, exactly consistent systems (m = 4 is the square case).
    for n in 4..=7 {
        out.push((exact(n, 250.0), 250.0));
        out.push((
            with_elevations(exact(n, 0.0), |k| 0.2 + 0.1 * k as f64),
            0.0,
        ));
    }
    // Non-finite inputs in each field, and a non-finite prediction.
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut m = exact(6, 0.0);
        m[2].pseudorange = poison;
        out.push((m, 0.0));
        let mut m = exact(6, 0.0);
        m[4].position = Ecef::new(poison, 1.0, 2.0);
        out.push((m, 0.0));
        out.push((exact(6, 0.0), poison));
    }
    // Overflow: finite inputs whose squares or differences are not.
    let mut m = exact(6, 0.0);
    m[3].position = Ecef::new(1.5e154, -1.5e154, 1.0e154);
    out.push((m, 0.0));
    let mut m = exact(6, 0.0);
    // |s|² overflows on one row while BᵀB stays finite and factorable:
    // Bancroft's second right-hand side is what fails.
    m[2].position = Ecef::new(0.95e154, 0.95e154, 0.0);
    m[3].position = Ecef::new(0.6e154, -0.6e154, 0.0);
    out.push((m, 0.0));
    let mut m = exact(6, 0.0);
    m[0].pseudorange = 1.0e200;
    out.push((m, 0.0));
    let mut m = exact(6, 0.0);
    m[5].position = Ecef::new(f64::MAX, 0.0, 0.0);
    m[1].position = Ecef::new(-f64::MAX, 0.0, 0.0);
    out.push((m, 0.0));
    out.push((exact(6, 0.0), 1.0e300));
    out.push((exact(6, 0.0), -f64::MAX));
    // Degenerate geometry: collapsed, collinear, duplicated, coplanar.
    let sat = Ecef::new(2.0e7, 1.0e6, 1.0e7);
    out.push((
        vec![Measurement::new(sat, sat.distance_to(receiver)); 6],
        0.0,
    ));
    out.push((
        (0..6)
            .map(|k| {
                let s = Ecef::new(2.0e7 + k as f64 * 1.0e6, 0.0, 0.0);
                Measurement::new(s, 1.5e7)
            })
            .collect(),
        0.0,
    ));
    let mut dup = exact(5, 0.0);
    dup[4] = dup[1];
    dup[3] = dup[0];
    out.push((dup, 0.0));
    out.push((
        (0..6)
            .map(|k| {
                let a = k as f64;
                let s = Ecef::new(2.0e7 * a.cos(), 2.0e7 * a.sin(), 1.0e7);
                Measurement::new(s, s.distance_to(receiver))
            })
            .collect(),
        0.0,
    ));
    // Degenerate covariance: zero and negative corrected ranges.
    let mut m = exact(6, 0.0);
    m[3].pseudorange = 0.0;
    out.push((m.clone(), 0.0));
    m[4].pseudorange = 0.0;
    out.push((m.clone(), 0.0));
    let mut m = exact(6, 0.0);
    m[0].pseudorange = 0.0;
    out.push((m, 0.0));
    let mut m = exact(6, 0.0);
    m[4].pseudorange = 2.0e-148;
    out.push((m, 0.0));
    let mut m = exact(6, 0.0);
    m[2].pseudorange = -2.0e7;
    out.push((m, 0.0));
    out.push((exact(6, 0.0), 2.3e7));
    // Tiny ranges and positions (the covariance scale floor), extreme
    // elevations (the clamp), and nonsense that has no real root.
    out.push((
        (0..5)
            .map(|k| {
                let a = k as f64;
                Measurement::new(Ecef::new(a.cos(), a.sin(), 0.3 * a), 0.5 + 0.1 * a)
            })
            .collect(),
        0.0,
    ));
    out.push((
        with_elevations(exact(7, 0.0), |k| {
            [-1.0, 0.0, 1e-9, 1.4, 1.58, 2.0, 0.05][k]
        }),
        0.0,
    ));
    let mut rng = StdRng::seed_from_u64(0xBAD_5EED);
    for m in [4usize, 5, 8, 13] {
        for _ in 0..4 {
            let meas = (0..m)
                .map(|_| {
                    let s = Ecef::new(
                        rng.gen_range(-3.0e7..3.0e7),
                        rng.gen_range(-3.0e7..3.0e7),
                        rng.gen_range(-3.0e7..3.0e7),
                    );
                    Measurement::new(s, rng.gen_range(-3.0e7..3.0e7))
                })
                .collect();
            out.push((meas, rng.gen_range(-1.0e7..1.0e7)));
        }
    }
}

fn corpus() -> Vec<Case> {
    let mut out = Vec::new();
    generated_cases(&mut out);
    synthetic_cases(&mut out);
    edge_cases(&mut out);
    out
}

fn digest(solver: &dyn Solver, cases: &[Case]) -> u64 {
    // One context for the whole sweep, as a long-running lane would hold.
    let mut ctx = SolveContext::new();
    let mut d = Digest::new();
    for (meas, predicted) in cases {
        d.word(meas.len() as u64);
        d.outcome(&solver.solve(&Epoch::new(meas, *predicted), &mut ctx));
    }
    d.0
}

#[test]
fn corpus_spans_every_satellite_count() {
    let cases = corpus();
    for m in 4..=40 {
        assert!(
            cases.iter().any(|(meas, _)| meas.len() == m),
            "no epoch with m = {m}"
        );
    }
    assert!(cases.len() > 1_000, "corpus shrank to {}", cases.len());
}

#[test]
fn solver_outputs_match_golden_digests() {
    let _serial = DETAIL.lock().unwrap_or_else(|e| e.into_inner());
    let cases = corpus();
    let mut mismatches = Vec::new();
    for (name, solver, golden) in roster() {
        let got = digest(solver.as_ref(), &cases);
        if got != golden {
            mismatches.push(format!("{name}: got {got:#018x}, golden {golden:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn detail_telemetry_does_not_change_solver_outputs() {
    let _serial = DETAIL.lock().unwrap_or_else(|e| e.into_inner());
    let cases = corpus();
    gps_telemetry::set_detail(true);
    let digests: Vec<_> = roster()
        .into_iter()
        .map(|(name, solver, golden)| (name, digest(solver.as_ref(), &cases), golden))
        .collect();
    gps_telemetry::set_detail(false);
    for (name, got, golden) in digests {
        assert_eq!(
            got, golden,
            "{name}: detail telemetry changed the output digest to {got:#018x}"
        );
    }
}
