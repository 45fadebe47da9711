//! The two-lane solver contract: for every solver and every epoch shape
//! under [`gps_linalg::STACK_M_CAP`], the const-generic stack lane must
//! be **bit-for-bit** identical to the heap lane — same solutions to the
//! last ULP, same errors on the same inputs. Above the cap both lanes
//! are the heap path and must agree trivially.
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
/// and reject `NaN == NaN`; the lane contract is stronger than both.
fn assert_bits_eq(stack: &Result<Solution, SolveError>, heap: &Result<Solution, SolveError>) {
    match (stack, heap) {
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
        (s, h) => panic!("lane divergence: stack {s:?} vs heap {h:?}"),
    }
}

fn solvers() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(NewtonRaphson::default()),
        Box::new(Dlo::default()),
        // Dlg::default() is the structured Sherman–Morrison lane; the two
        // dense GLS paths and the non-default covariance shapes are
        // contract-bound too (DenseExplicit has no stack mirror, so for
        // it the toggle must be a no-op on every shape).
        Box::new(Dlg::default()),
        Box::new(Dlg::default().with_gls_path(GlsPath::DenseWhitened)),
        Box::new(Dlg::default().with_gls_path(GlsPath::DenseExplicit)),
        Box::new(Dlg::default().with_covariance_model(CovarianceModel::DiagonalOnly)),
        Box::new(Dlg::default().with_covariance_model(CovarianceModel::ElevationScaled)),
        Box::new(Bancroft),
    ]
}

#[test]
fn stack_lane_is_bit_identical_to_heap_lane() {
    // m sweeps through the whole stack window and one shape above the
    // cap (both lanes = heap there; the toggle must still be a no-op).
    let shapes = [4usize, 5, 6, 8, 12, gps_linalg::STACK_M_CAP, 17];
    for solver in solvers() {
        let mut rng = StdRng::seed_from_u64(0x57AC_0001);
        let mut stack_ctx = SolveContext::new();
        let mut heap_ctx = SolveContext::new().with_stack_kernels(false);
        for &m in &shapes {
            for _ in 0..CASES {
                let bias = rng.gen_range(-1000.0..1000.0);
                let predicted = rng.gen_range(-5.0..5.0) + bias;
                let meas = random_epoch(&mut rng, m, bias);
                let epoch = Epoch::new(&meas, predicted);
                let stack = solver.solve(&epoch, &mut stack_ctx);
                let heap = solver.solve(&epoch, &mut heap_ctx);
                assert_bits_eq(&stack, &heap);
            }
        }
    }
}

#[test]
fn lanes_agree_on_degenerate_and_nonfinite_input() {
    for solver in solvers() {
        let mut stack_ctx = SolveContext::new();
        let mut heap_ctx = SolveContext::new().with_stack_kernels(false);

        // Too few satellites.
        let mut rng = StdRng::seed_from_u64(0x57AC_0002);
        let short = random_epoch(&mut rng, 3, 0.0);
        assert_bits_eq(
            &solver.solve(&Epoch::new(&short, 0.0), &mut stack_ctx),
            &solver.solve(&Epoch::new(&short, 0.0), &mut heap_ctx),
        );

        // A NaN pseudorange.
        let mut poisoned = random_epoch(&mut rng, 6, 0.0);
        poisoned[2].pseudorange = f64::NAN;
        assert_bits_eq(
            &solver.solve(&Epoch::new(&poisoned, 0.0), &mut stack_ctx),
            &solver.solve(&Epoch::new(&poisoned, 0.0), &mut heap_ctx),
        );

        // All satellites collapsed to one point (singular geometry).
        let receiver = random_receiver(&mut rng);
        let sat = Ecef::new(2.0e7, 1.0e6, 1.0e7);
        let collapsed: Vec<Measurement> = (0..6)
            .map(|_| Measurement::new(sat, sat.distance_to(receiver)))
            .collect();
        assert_bits_eq(
            &solver.solve(&Epoch::new(&collapsed, 0.0), &mut stack_ctx),
            &solver.solve(&Epoch::new(&collapsed, 0.0), &mut heap_ctx),
        );
    }
}
