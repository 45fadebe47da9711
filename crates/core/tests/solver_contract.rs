//! The context contract: a [`SolveContext`] that has served every epoch
//! shape before — larger and smaller, other solvers, failed solves —
//! must give **bit-for-bit** the answer of a fresh context, for every
//! solver and every m from 4 to 40. Same solutions to the last ULP, same
//! errors on the same inputs. NR (whose step kernel changes at
//! [`gps_linalg::STACK_M_CAP`]) and the dense-Ψ DLG keep buffers in the
//! context, so a stale entry would show here.
//!
//! Seeded xoshiro256++ loops (no proptest in the offline build).

use gps_core::{
    Bancroft, CovarianceModel, Dlg, Dlo, Epoch, GlsPath, Measurement, NewtonRaphson, Solution,
    SolveContext, SolveError, Solver,
};
use gps_geodesy::{Ecef, Geodetic};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

const CASES: usize = 48;

fn random_receiver(rng: &mut StdRng) -> Ecef {
    Geodetic::from_deg(
        rng.gen_range(-60.0..60.0),
        rng.gen_range(-179.0..179.0),
        rng.gen_range(-100.0..9_000.0),
    )
    .to_ecef()
}

fn random_epoch(rng: &mut StdRng, m: usize, bias: f64) -> Vec<Measurement> {
    let receiver = random_receiver(rng);
    let frame = gps_geodesy::LocalFrame::new(receiver);
    (0..m)
        .map(|k| {
            let jitter = rng.gen_range(0.0..1.0);
            let el: f64 = rng.gen_range(10.0..85.0).to_radians();
            let az = (k as f64 + jitter) / m as f64 * std::f64::consts::TAU;
            let range = 2.2e7;
            let enu = gps_geodesy::Enu::new(
                range * el.cos() * az.sin(),
                range * el.cos() * az.cos(),
                range * el.sin(),
            );
            let sat = frame.to_ecef(enu);
            let noise = rng.gen_range(-3.0..3.0);
            Measurement::new(sat, sat.distance_to(receiver) + bias + noise).with_elevation(el)
        })
        .collect()
}

/// Bit-level equality: `PartialEq` on f64 would accept `-0.0 == 0.0`
/// and reject `NaN == NaN`; the context contract is stronger than both.
fn assert_bits_eq(warm: &Result<Solution, SolveError>, fresh: &Result<Solution, SolveError>) {
    match (warm, fresh) {
        (Ok(s), Ok(h)) => {
            assert_eq!(s.position.x.to_bits(), h.position.x.to_bits());
            assert_eq!(s.position.y.to_bits(), h.position.y.to_bits());
            assert_eq!(s.position.z.to_bits(), h.position.z.to_bits());
            assert_eq!(
                s.receiver_bias_m.map(f64::to_bits),
                h.receiver_bias_m.map(f64::to_bits)
            );
            assert_eq!(s.iterations, h.iterations);
            assert_eq!(s.residual_rms.to_bits(), h.residual_rms.to_bits());
        }
        (Err(s), Err(h)) => assert_eq!(s, h),
        (w, f) => panic!("context history changed the outcome: warm {w:?} vs fresh {f:?}"),
    }
}

fn solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(NewtonRaphson::default()),
        Box::new(Dlo::default()),
        // Dlg::default() is the structured Sherman–Morrison path; the
        // dense-Ψ path and the non-default covariance shapes are
        // contract-bound too.
        Box::new(Dlg::default()),
        Box::new(Dlg::default().with_gls_path(GlsPath::DenseWhitened)),
        Box::new(Dlg::default().with_covariance_model(CovarianceModel::DiagonalOnly)),
        Box::new(Dlg::default().with_covariance_model(CovarianceModel::ElevationScaled)),
        Box::new(Bancroft),
    ]
}

/// Solves `epoch` on the shared warm context and on a fresh one.
fn assert_warm_matches_fresh(solver: &dyn Solver, epoch: &Epoch<'_>, warm: &mut SolveContext) {
    let reused = solver.solve(epoch, warm);
    let fresh = solver.solve(epoch, &mut SolveContext::new());
    assert_bits_eq(&reused, &fresh);
}

#[test]
fn warm_context_is_bit_identical_to_fresh_context() {
    // Shrink after the largest shapes, cross the NR kernel cap both
    // ways, and end on the multi-GNSS sizes.
    let cap = gps_linalg::STACK_M_CAP;
    let shapes = [40usize, 4, 5, 6, 8, 12, cap, cap + 1, 8, 24, 40];
    let mut warm = SolveContext::new();
    for solver in solvers() {
        let mut rng = StdRng::seed_from_u64(0x57AC_0001);
        for &m in &shapes {
            for _ in 0..CASES {
                let bias = rng.gen_range(-1000.0..1000.0);
                let predicted = rng.gen_range(-5.0..5.0) + bias;
                let meas = random_epoch(&mut rng, m, bias);
                assert_warm_matches_fresh(
                    solver.as_ref(),
                    &Epoch::new(&meas, predicted),
                    &mut warm,
                );
            }
        }
    }
}

#[test]
fn warm_context_agrees_on_degenerate_and_nonfinite_input() {
    let mut warm = SolveContext::new();
    for solver in solvers() {
        let mut rng = StdRng::seed_from_u64(0x57AC_0002);
        let big = random_epoch(&mut rng, 40, 0.0);
        assert_warm_matches_fresh(solver.as_ref(), &Epoch::new(&big, 0.0), &mut warm);

        // Too few satellites.
        let short = random_epoch(&mut rng, 3, 0.0);
        assert_warm_matches_fresh(solver.as_ref(), &Epoch::new(&short, 0.0), &mut warm);

        // A NaN pseudorange.
        let mut poisoned = random_epoch(&mut rng, 6, 0.0);
        poisoned[2].pseudorange = f64::NAN;
        assert_warm_matches_fresh(solver.as_ref(), &Epoch::new(&poisoned, 0.0), &mut warm);

        // All satellites collapsed to one point (singular geometry).
        let receiver = random_receiver(&mut rng);
        let sat = Ecef::new(2.0e7, 1.0e6, 1.0e7);
        let collapsed: Vec<Measurement> = (0..6)
            .map(|_| Measurement::new(sat, sat.distance_to(receiver)))
            .collect();
        assert_warm_matches_fresh(solver.as_ref(), &Epoch::new(&collapsed, 0.0), &mut warm);
    }
}
