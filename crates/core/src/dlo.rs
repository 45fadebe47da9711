use gps_geodesy::Ecef;
use gps_linalg::stack::Normal3;
use gps_linalg::{Matrix, Vector};

use crate::instrument;
use crate::measurement::validate;
use crate::{BaseSelection, Measurement, Solution, SolveError};

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
    let diff = Differencing::new(measurements, predicted_receiver_bias_m, base)?;
    let mut a = Matrix::zeros(diff.len(), 3);
    let mut d = Vector::zeros(diff.len());
    for ((r, row), dr) in diff.rows().enumerate().zip(d.as_mut_slice()) {
        a.row_mut(r).copy_from_slice(&row.a);
        *dr = row.d;
    }
    Ok(LinearSystem {
        a,
        d,
        base_index: diff.base_index,
        corrected_ranges: measurements
            .iter()
            .map(|m| m.pseudorange - predicted_receiver_bias_m)
            .collect(),
        elevations: measurements.iter().map(|m| m.elevation).collect(),
    })
}

/// The direct linearization of eq. 4-8 read straight off the measurement
/// slice: the base is chosen and validated once, and each differenced
/// equation is formed on demand by [`Differencing::rows`], so a solver
/// can accumulate its normal equations in one pass and recompute the
/// rows for the residual instead of storing `A` and `Dᵉ`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Differencing<'a> {
    measurements: &'a [Measurement],
    bias: f64,
    /// Which input measurement serves as the base.
    pub(crate) base_index: usize,
    /// The base satellite's clock-corrected pseudorange `ρᴱ₁`.
    pub(crate) base_range: f64,
    /// The base satellite's elevation annotation.
    pub(crate) base_elevation: Option<f64>,
    s1: Ecef,
    s1_norm_sq: f64,
}

/// One differenced equation of eq. 4-8, with the satellite it came from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// Design row `sⱼ − s₁` (eq. 4-9).
    pub(crate) a: [f64; 3],
    /// Right-hand side `dⱼ` (eq. 4-11).
    pub(crate) d: f64,
    /// Clock-corrected pseudorange `ρᴱⱼ` (eq. 4-1).
    pub(crate) range: f64,
    /// Elevation annotation of satellite `j`.
    pub(crate) elevation: Option<f64>,
}

impl Row {
    /// Whether the row's design entries and right-hand side are finite
    /// (differences and squares of finite inputs can still overflow).
    pub(crate) fn is_finite(&self) -> bool {
        self.a.iter().all(|v| v.is_finite()) && self.d.is_finite()
    }
}

impl<'a> Differencing<'a> {
    /// Validates the epoch and selects the base satellite.
    ///
    /// # Errors
    ///
    /// As [`linearize`]: [`SolveError::TooFewSatellites`] below 4
    /// measurements, [`SolveError::NonFinite`] for a NaN/∞ measurement
    /// or prediction.
    pub(crate) fn new(
        measurements: &'a [Measurement],
        predicted_receiver_bias_m: f64,
        base: BaseSelection,
    ) -> Result<Self, SolveError> {
        validate(measurements, 4)?;
        if !predicted_receiver_bias_m.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let base_index = base.select(measurements);
        if gps_telemetry::detail() {
            instrument::base_index().record(base_index as f64);
        }
        let base_meas = measurements[base_index];
        let s1 = base_meas.position;
        Ok(Differencing {
            measurements,
            bias: predicted_receiver_bias_m,
            base_index,
            base_range: base_meas.pseudorange - predicted_receiver_bias_m,
            base_elevation: base_meas.elevation,
            s1,
            s1_norm_sq: s1.norm_squared(),
        })
    }

    /// Number of differenced equations, `m − 1`.
    pub(crate) fn len(&self) -> usize {
        self.measurements.len() - 1
    }

    /// The differenced equations in input order, base skipped. Row `r`
    /// comes from input measurement `r` when `r < base_index`, else
    /// `r + 1`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        let (s1, rho1) = (self.s1, self.base_range);
        self.measurements
            .iter()
            .enumerate()
            .filter(move |&(j, _)| j != self.base_index)
            .map(move |(_, meas)| {
                let sj = meas.position;
                let rhoj = meas.pseudorange - self.bias;
                Row {
                    a: [sj.x - s1.x, sj.y - s1.y, sj.z - s1.z],
                    d: 0.5 * ((sj.norm_squared() - self.s1_norm_sq) - (rhoj * rhoj - rho1 * rho1)),
                    range: rhoj,
                    elevation: meas.elevation,
                }
            })
    }

    /// RMS of the linear-system residual `A·x − d`, normalized to a
    /// per-equation range-domain scale.
    ///
    /// The raw residual lives in the squared-range domain of eq. 4-11
    /// (`dⱼ` is built from `ρⱼ²`), so its magnitude scales with the
    /// pseudoranges themselves: a δ-metre measurement error perturbs row
    /// `j` by `∂dⱼ/∂ρⱼ·δ = −ρⱼ·δ`. Dividing each component by its row's
    /// corrected range converts the residual back to equivalent metres
    /// of pseudorange, making [`crate::Solution::residual_rms`]
    /// comparable across NR, Bancroft and the direct methods — which is
    /// what RAIM thresholds and validation gates assume. The rows are
    /// recomputed, not stored.
    pub(crate) fn residual_rms(&self, x: Ecef) -> f64 {
        let mut sum = 0.0;
        for Row { a, d, range, .. } in self.rows() {
            let [ax, ay, az] = a;
            let component = d - (ax * x.x + ay * x.y + az * x.z);
            let scale = range.abs().max(1.0);
            sum += (component / scale).powi(2);
        }
        (sum / self.len() as f64).sqrt()
    }
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
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for Dlo {
    /// One pass over the differenced rows accumulates the 3×3 normal
    /// equations (eq. 4-12), a second recomputes them for the residual.
    /// Nothing is stored, so every satellite count runs this one path
    /// and the context goes unused.
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        _ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        let sys = Differencing::new(
            epoch.measurements,
            epoch.predicted_receiver_bias_m,
            self.base,
        )?;
        let mut normal = Normal3::default();
        let mut finite = true;
        for row in sys.rows() {
            finite &= row.is_finite();
            normal.add_row(row.a, row.d);
        }
        if !finite {
            return Err(SolveError::NonFinite);
        }
        let [x, y, z] = normal.solve_cramer()?;
        let position = Ecef::new(x, y, z);
        let rms = sys.residual_rms(position);
        instrument::dlo_solves().inc();
        if gps_telemetry::detail() {
            instrument::observe_direct_solve(
                instrument::dlo_condition(),
                "core.dlo",
                &normal,
                sys.base_index,
                rms,
            );
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
    use gps_linalg::lstsq;

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
