use gps_geodesy::Ecef;
use gps_linalg::stack::{self, SMat, SVec};
use gps_linalg::{lstsq, Matrix, Vector, STACK_M_CAP};

use crate::instrument;
use crate::measurement::validate;
use crate::{BaseSelection, Measurement, Solution, SolveError};
use gps_telemetry::{Event, Level};

/// The directly linearized trilateration system `A·Xᵉ = Dᵉ` of the paper's
/// eq. 4-8, before any least-squares estimator is applied.
///
/// Shared by [`Dlo`] (OLS, eq. 4-12) and [`crate::Dlg`] (GLS, eq. 4-21);
/// exposed publicly so callers can inspect the geometry or plug in their
/// own estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSystem {
    /// The `(m−1) × 3` design matrix of eq. 4-9: row `j` is
    /// `(xⱼ − x₁, yⱼ − y₁, zⱼ − z₁)`.
    pub a: Matrix,
    /// The right-hand side of eq. 4-11.
    pub d: Vector,
    /// Which input measurement served as the base (index into the original
    /// slice).
    pub base_index: usize,
    /// Clock-corrected pseudoranges `ρᴱᵢ = ρᵉᵢ − ε̂ᴿ` (eq. 4-1), in input
    /// order. The DLG covariance (eq. 4-26) is built from these.
    pub corrected_ranges: Vec<f64>,
    /// Elevation annotations in input order (used by the elevation-scaled
    /// covariance variant; `None` where unannotated).
    pub elevations: Vec<Option<f64>>,
}

/// Builds the direct linearization of eq. 4-6/4-7: subtracts the base
/// equation from every other equation, eliminating the quadratic terms
/// `xᵉ² + yᵉ² + zᵉ²` because their coefficients are identical in every
/// equation.
///
/// `predicted_receiver_bias_m` is `ε̂ᴿ` (metres); it is subtracted from
/// every pseudorange first (eq. 4-1).
///
/// # Errors
///
/// * [`SolveError::TooFewSatellites`] for fewer than 4 measurements (the
///   paper requires `m > 3`).
/// * [`SolveError::NonFinite`] for NaN/∞ input.
pub fn linearize(
    measurements: &[Measurement],
    predicted_receiver_bias_m: f64,
    base: BaseSelection,
) -> Result<LinearSystem, SolveError> {
    let mut a = Matrix::default();
    let mut d = Vector::default();
    let mut corrected_ranges = Vec::new();
    let mut elevations = Vec::new();
    let base_index = linearize_into(
        measurements,
        predicted_receiver_bias_m,
        base,
        &mut a,
        &mut d,
        &mut corrected_ranges,
        &mut elevations,
    )?;
    Ok(LinearSystem {
        a,
        d,
        base_index,
        corrected_ranges,
        elevations,
    })
}

/// [`linearize`] with caller-provided buffers: fills `a`, `d`,
/// `corrected_ranges` and `elevations` in place (reusing their
/// capacity) and returns the selected base index. The hot path behind
/// both direct solvers' [`crate::Solver`] impls.
pub(crate) fn linearize_into(
    measurements: &[Measurement],
    predicted_receiver_bias_m: f64,
    base: BaseSelection,
    a: &mut Matrix,
    d: &mut Vector,
    corrected_ranges: &mut Vec<f64>,
    elevations: &mut Vec<Option<f64>>,
) -> Result<usize, SolveError> {
    validate(measurements, 4)?;
    if !predicted_receiver_bias_m.is_finite() {
        return Err(SolveError::NonFinite);
    }
    let base_index = base.select(measurements);
    let m = measurements.len();
    if gps_telemetry::detail() {
        instrument::base_index().record(base_index as f64);
    }

    corrected_ranges.clear();
    corrected_ranges.extend(
        measurements
            .iter()
            .map(|meas| meas.pseudorange - predicted_receiver_bias_m),
    );
    elevations.clear();
    elevations.extend(measurements.iter().map(|m| m.elevation));

    let s1 = measurements[base_index].position;
    let rho1 = corrected_ranges[base_index];
    let s1_norm_sq = s1.norm_squared();

    a.resize_zeroed(m - 1, 3);
    d.resize_zeroed(m - 1);
    let mut row = 0;
    for (j, meas) in measurements.iter().enumerate() {
        if j == base_index {
            continue;
        }
        let sj = meas.position;
        let rhoj = corrected_ranges[j];
        let r = a.row_mut(row);
        r[0] = sj.x - s1.x;
        r[1] = sj.y - s1.y;
        r[2] = sj.z - s1.z;
        d[row] = 0.5 * ((sj.norm_squared() - s1_norm_sq) - (rhoj * rhoj - rho1 * rho1));
        row += 1;
    }
    Ok(base_index)
}

/// The direct linearization gathered into stack storage: the fast-lane
/// counterpart of [`linearize_into`] for epochs under the
/// [`STACK_M_CAP`] satellite cap. `Copy`, a few hundred bytes, no heap
/// traffic at any point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackLinearization {
    /// The `(m−1) × 3` design matrix of eq. 4-9.
    pub(crate) a: SMat<STACK_M_CAP, 3>,
    /// The right-hand side of eq. 4-11.
    pub(crate) d: SVec<STACK_M_CAP>,
    /// Clock-corrected pseudoranges, input order (`m` active entries).
    pub(crate) corrected: [f64; STACK_M_CAP],
    /// Elevation annotations, input order (`m` active entries).
    pub(crate) elevations: [Option<f64>; STACK_M_CAP],
    /// Which input measurement served as the base.
    pub(crate) base_index: usize,
}

/// Stack mirror of [`linearize_into`]: identical validation order and
/// identical per-entry arithmetic, so the gathered system is bit-equal
/// to the heap one. Callers guarantee `measurements.len() ≤
/// STACK_M_CAP` (the lane dispatch does).
// lint: no_alloc
pub(crate) fn linearize_stack(
    measurements: &[Measurement],
    predicted_receiver_bias_m: f64,
    base: BaseSelection,
) -> Result<StackLinearization, SolveError> {
    validate(measurements, 4)?;
    if !predicted_receiver_bias_m.is_finite() {
        return Err(SolveError::NonFinite);
    }
    let base_index = base.select(measurements);
    let m = measurements.len();

    let mut sys = StackLinearization {
        a: SMat::zeroed(m - 1),
        d: SVec::zeroed(m - 1),
        corrected: [0.0; STACK_M_CAP],
        elevations: [None; STACK_M_CAP],
        base_index,
    };
    for (i, meas) in measurements.iter().enumerate() {
        sys.corrected[i] = meas.pseudorange - predicted_receiver_bias_m;
        sys.elevations[i] = meas.elevation;
    }

    let s1 = measurements[base_index].position;
    let rho1 = sys.corrected[base_index];
    let s1_norm_sq = s1.norm_squared();

    let mut row = 0;
    for (j, meas) in measurements.iter().enumerate() {
        if j == base_index {
            continue;
        }
        let sj = meas.position;
        let rhoj = sys.corrected[j];
        let r = sys.a.row_mut(row);
        r[0] = sj.x - s1.x;
        r[1] = sj.y - s1.y;
        r[2] = sj.z - s1.z;
        sys.d.as_mut_slice()[row] =
            0.5 * ((sj.norm_squared() - s1_norm_sq) - (rhoj * rhoj - rho1 * rho1));
        row += 1;
    }
    Ok(sys)
}

/// Stack mirror of [`residual_rms_scaled`]: same per-row operations on
/// the stack-resident system.
// lint: no_alloc
pub(crate) fn residual_rms_scaled_stack(
    a: &SMat<STACK_M_CAP, 3>,
    d: &SVec<STACK_M_CAP>,
    corrected_ranges: &[f64],
    base_index: usize,
    x: Ecef,
) -> f64 {
    let rows = a.rows();
    let mut sum = 0.0;
    for r in 0..rows {
        let row = a.row(r);
        let component = d.as_slice()[r] - (row[0] * x.x + row[1] * x.y + row[2] * x.z);
        let j = if r < base_index { r } else { r + 1 };
        let scale = corrected_ranges[j].abs().max(1.0);
        sum += (component / scale).powi(2);
    }
    (sum / rows as f64).sqrt()
}

/// RMS of the linear-system residual `A·x − d`, normalized to a
/// per-equation range-domain scale.
///
/// The raw residual lives in the squared-range domain of eq. 4-11
/// (`dⱼ` is built from `ρⱼ²`), so its magnitude scales with the
/// pseudoranges themselves: a δ-metre measurement error perturbs row `j`
/// by `∂dⱼ/∂ρⱼ·δ = −ρⱼ·δ`. Dividing each component by its row's
/// corrected range converts the residual back to equivalent metres of
/// pseudorange, making [`crate::Solution::residual_rms`] comparable
/// across NR, Bancroft and the direct methods — which is what RAIM
/// thresholds and validation gates assume.
/// Operates on the raw linearization buffers (row `r` of `a`/`d`
/// corresponds to input measurement `r` when `r < base_index`, else
/// `r + 1`) and performs no allocation.
pub(crate) fn residual_rms_scaled(
    a: &Matrix,
    d: &Vector,
    corrected_ranges: &[f64],
    base_index: usize,
    x: Ecef,
) -> f64 {
    let rows = a.rows();
    let mut sum = 0.0;
    for r in 0..rows {
        let row = a.row(r);
        let component = d[r] - (row[0] * x.x + row[1] * x.y + row[2] * x.z);
        let j = if r < base_index { r } else { r + 1 };
        let scale = corrected_ranges[j].abs().max(1.0);
        sum += (component / scale).powi(2);
    }
    (sum / rows as f64).sqrt()
}

/// Algorithm **DLO**: Direct Linearization with the Ordinary Least Squares
/// method (paper §4.5).
///
/// The three steps of the paper's pseudo-code:
///
/// 1. `ε̂ᴿ` is calculated externally (a clock-bias predictor, eq. 4-4) and
///    passed in;
/// 2. the pseudoranges are corrected (`ρᴱᵢ`, eq. 4-1) and the system is
///    linearized by base-equation subtraction ([`linearize`], eq. 4-8);
/// 3. the closed-form OLS solution `Xᵉ = (AᵀA)⁻¹AᵀDᵉ` (eq. 4-12) is
///    returned. **One shot — no iteration**, which is where the paper's
///    ~5× speedup over NR comes from.
///
/// # Example
///
/// See the crate-level example, which exercises exactly this type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dlo {
    base: BaseSelection,
}

impl Dlo {
    /// Creates a DLO solver with the paper's base choice (the first
    /// satellite as supplied).
    #[must_use]
    pub fn new() -> Self {
        Dlo::default()
    }

    /// Sets the base-satellite selection strategy (the paper's §6 first
    /// extension).
    #[must_use]
    pub fn with_base_selection(mut self, base: BaseSelection) -> Self {
        self.base = base;
        self
    }

    /// The configured base selection.
    #[must_use]
    pub fn base_selection(&self) -> BaseSelection {
        self.base
    }

    /// Stack-kernel fast lane: the same mathematics as the heap path in
    /// [`crate::Solver::solve`] with every intermediate on the stack.
    /// Bit-identical to the heap lane (pinned by `tests/solver_contract.rs`).
    // lint: no_alloc
    fn solve_stack(&self, epoch: &crate::Epoch<'_>) -> Result<Solution, SolveError> {
        let sys = linearize_stack(
            epoch.measurements,
            epoch.predicted_receiver_bias_m,
            self.base,
        )?;
        let step = stack::ols3(&sys.a, &sys.d)?;
        let position = Ecef::new(step[0], step[1], step[2]);
        let rms = residual_rms_scaled_stack(
            &sys.a,
            &sys.d,
            &sys.corrected[..epoch.len()],
            sys.base_index,
            position,
        );
        instrument::dlo_solves().inc();
        Ok(Solution::new(position, None, 1, rms))
    }
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for Dlo {
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        if crate::solver::stack_lane(ctx, epoch.len()) {
            return self.solve_stack(epoch);
        }
        let base_index = linearize_into(
            epoch.measurements,
            epoch.predicted_receiver_bias_m,
            self.base,
            &mut ctx.geometry,
            &mut ctx.rhs,
            &mut ctx.corrected_ranges,
            &mut ctx.elevations,
        )?;
        lstsq::ols_into(&ctx.geometry, &ctx.rhs, &mut ctx.lstsq, &mut ctx.step)?;
        let position = Ecef::new(ctx.step[0], ctx.step[1], ctx.step[2]);
        let rms = residual_rms_scaled(
            &ctx.geometry,
            &ctx.rhs,
            &ctx.corrected_ranges,
            base_index,
            position,
        );
        instrument::dlo_solves().inc();
        // The eigendecomposition behind the condition number costs more
        // than the solve itself (and allocates); only observe it when
        // detail is on.
        if gps_telemetry::detail() {
            if let Some(kappa) = instrument::design_condition_number(&ctx.geometry) {
                instrument::dlo_condition().record(kappa);
                if gps_telemetry::enabled(Level::Debug) {
                    Event::new(Level::Debug, "core.dlo", "solved")
                        .with("condition_number", kappa)
                        .with("base_index", base_index)
                        .with("residual_rms_m", rms)
                        .emit();
                }
            }
        }
        Ok(Solution::new(position, None, 1, rms))
    }

    fn name(&self) -> &'static str {
        "DLO"
    }

    fn min_satellites(&self) -> usize {
        4
    }

    fn clone_box(&self) -> Box<dyn crate::Solver> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PositionSolver;

    fn sats() -> Vec<Ecef> {
        vec![
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
            Ecef::new(1.2e7, -0.4e7, 2.2e7),
        ]
    }

    fn exact(truth: Ecef, bias: f64, n: usize) -> Vec<Measurement> {
        sats()
            .into_iter()
            .take(n)
            .map(|s| Measurement::new(s, s.distance_to(truth) + bias))
            .collect()
    }

    #[test]
    fn exact_recovery_no_bias() {
        let truth = Ecef::new(6.371e6, -2.0e5, 3.0e5);
        for n in 4..=7 {
            let fix = Dlo::new().solve(&exact(truth, 0.0, n), 0.0).unwrap();
            assert!(
                fix.position.distance_to(truth) < 1e-3,
                "n={n}: err {}",
                fix.position.distance_to(truth)
            );
            assert_eq!(fix.iterations, 1);
            assert!(fix.receiver_bias_m.is_none());
        }
    }

    #[test]
    fn exact_recovery_with_perfect_bias_prediction() {
        let truth = Ecef::new(3.6e6, -5.2e6, 6.0e5);
        let bias = 333.0;
        let meas = exact(truth, bias, 6);
        let fix = Dlo::new().solve(&meas, bias).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-3);
    }

    #[test]
    fn unpredicted_bias_degrades_solution() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let bias = 300.0;
        let meas = exact(truth, bias, 6);
        let with_prediction = Dlo::new().solve(&meas, bias).unwrap();
        let without = Dlo::new().solve(&meas, 0.0).unwrap();
        assert!(without.position.distance_to(truth) > with_prediction.position.distance_to(truth));
        // 300 m of uncorrected common bias leaks into the position at
        // roughly the same order of magnitude.
        assert!(without.position.distance_to(truth) > 50.0);
    }

    #[test]
    fn linearize_produces_expected_shapes() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0, 6);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        assert_eq!(sys.a.shape(), (5, 3));
        assert_eq!(sys.d.len(), 5);
        assert_eq!(sys.base_index, 0);
        assert_eq!(sys.corrected_ranges.len(), 6);
        // The true position satisfies the system exactly.
        // The D entries are ~10¹⁴ m², so machine-epsilon cancellation
        // leaves residuals of a few cm in range units; assert relative
        // smallness.
        let xv = Vector::from_slice(&[truth.x, truth.y, truth.z]);
        let r = lstsq::residual(&sys.a, &sys.d, &xv).unwrap();
        assert!(
            r.norm_inf() / sys.d.norm_inf() < 1e-13,
            "relative residual {}",
            r.norm_inf() / sys.d.norm_inf()
        );
    }

    #[test]
    fn base_selection_changes_base_row() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas: Vec<Measurement> = exact(truth, 0.0, 5)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(k as f64 * 0.1))
            .collect();
        let sys = linearize(&meas, 0.0, BaseSelection::HighestElevation).unwrap();
        assert_eq!(sys.base_index, 4);
        // Solution unchanged (exact data): any base works.
        let fix = Dlo::new()
            .with_base_selection(BaseSelection::HighestElevation)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(fix.position.distance_to(truth) < 1e-3);
    }

    #[test]
    fn rejects_too_few_and_non_finite() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        assert_eq!(
            Dlo::new().solve(&exact(truth, 0.0, 3), 0.0).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        );
        let meas = exact(truth, 0.0, 4);
        assert_eq!(
            Dlo::new().solve(&meas, f64::NAN).unwrap_err(),
            SolveError::NonFinite
        );
    }

    #[test]
    fn degenerate_geometry_detected() {
        // All satellites on a line through the base: A is rank-deficient.
        let meas: Vec<Measurement> = (0..5)
            .map(|k| {
                let s = Ecef::new(2.0e7 + k as f64 * 1.0e6, 0.0, 0.0);
                Measurement::new(s, 1.5e7)
            })
            .collect();
        assert!(matches!(
            Dlo::new().solve(&meas, 0.0).unwrap_err(),
            SolveError::DegenerateGeometry(_)
        ));
    }

    #[test]
    fn residual_rms_zero_for_exact_data() {
        let truth = Ecef::new(6.371e6, 1.0e5, 2.0e5);
        let fix = Dlo::new().solve(&exact(truth, 0.0, 7), 0.0).unwrap();
        assert!(fix.residual_rms < 1.0, "rms {}", fix.residual_rms);
    }

    #[test]
    fn trait_metadata() {
        let dlo = Dlo::new();
        assert_eq!(dlo.name(), "DLO");
        assert_eq!(dlo.min_satellites(), 4);
        assert_eq!(dlo.base_selection(), BaseSelection::First);
    }
}
