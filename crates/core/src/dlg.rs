use gps_geodesy::Ecef;
use gps_linalg::lstsq;
use gps_linalg::stack::{Normal3, Rank1Normal3};
use gps_linalg::Matrix;

use crate::dlo::{Differencing, LinearSystem};
use crate::instrument;
use crate::{BaseSelection, Solution, SolveError};

/// Which covariance structure DLG feeds to the general least-squares
/// estimator — the subject of the `ablation_gls_cov` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CovarianceModel {
    /// The paper's full matrix `Ψᵢⱼ = ρ₁² + δᵢⱼ·ρᵢ₊₁²` (eq. 4-26): every
    /// pair of differenced equations shares the base-satellite term, so
    /// all off-diagonals equal `ρ₁²`. Theorem 4.2 proves this makes GLS
    /// optimal.
    #[default]
    Full,
    /// Keep only the diagonal of Ψ — i.e. acknowledge unequal variances
    /// but ignore the correlation that Theorem 4.1 identifies.
    DiagonalOnly,
    /// The identity — reduces DLG to DLO exactly (useful as a consistency
    /// check and as the ablation baseline).
    Identity,
    /// The paper's Ψ with per-satellite variance factors from the
    /// elevation angle: `Ψᵢⱼ = w₁ρ₁² + δᵢⱼ·wᵢ₊₁ρᵢ₊₁²` where
    /// `wᵢ = 1 + (1/sin(elᵢ) − 1)` models the elevation-dependent error
    /// budget (atmosphere and multipath grow toward the horizon). A
    /// beyond-the-paper refinement: Theorem 4.2's derivation assumes equal
    /// variances (eq. 4-14); real budgets are not equal, and this variant
    /// feeds that structure to the GLS estimator. Measurements without
    /// elevation annotations get weight 1.
    ElevationScaled,
}

/// How DLG applies the inverse covariance `Ψ⁻¹` — the subject of the
/// structured-vs-dense sweep in the `ablation_gls_cov` benchmark.
///
/// Every [`CovarianceModel`] is rank-one-plus-diagonal
/// (`Ψ = ρ₁²·𝟙𝟙ᵀ + D`; the diagonal-only models just have a zero
/// rank-one weight), so the structured path applies to all of them. The
/// two variants are algebraically identical — they differ only in how
/// much arithmetic they spend per fix (`O(m)` vs `O(m³)`): solutions
/// agree to ULP-level rounding, and degenerate inputs produce the same
/// [`SolveError`] variants. (The ablation bench also evaluates eq. 4-21
/// with an explicit `Ψ⁻¹`, through the public [`crate::linearize`],
/// [`Dlg::covariance_matrix_into`] and `gps_linalg::lstsq::gls_into`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum GlsPath {
    /// Exploit the rank-one-plus-diagonal structure of Ψ via the
    /// Sherman–Morrison identity (`gps_linalg::lstsq::gls_rank1_into`):
    /// `O(m)` flops and scratch, no m×m matrix ever materialized or
    /// factored. The default — this is the paper's §6 "optimize the
    /// matrix operations" extension taken to its conclusion.
    #[default]
    Structured,
    /// Materialize the dense Ψ, factor it, and whiten each differenced
    /// row through the factor (`O(m³)`) — the paper's DLG as eq. 4-21
    /// and 4-26 write it, and what Figs 5.1/5.2 run.
    DenseWhitened,
}

/// Algorithm **DLG**: Direct Linearization with the General Least Squares
/// method (paper §4.4, 4.5).
///
/// DLG shares [`linearize`] with [`crate::Dlo`] but replaces OLS with GLS
/// (eq. 4-21):
///
/// `Xᵉ = (Aᵀ M⁻¹ A)⁻¹ Aᵀ M⁻¹ Dᵉ`
///
/// where `M = cov(Δβ)` (eq. 4-22). The need for GLS is the paper's
/// Theorem 4.1: subtracting the base equation injects the *same* base
/// error into every differenced equation, so the right-hand-side errors
/// are correlated (`cov(Δβᵢ, Δβⱼ) = ½σ²ρ₁² ≠ 0`) and the OLS optimality
/// condition (3-35) fails. Theorem 4.2 shows the covariance (eq. 4-25/4-26)
///
/// `Ψᵢⱼ = ρ₁² + δᵢⱼ·ρᵢ₊₁²`
///
/// is positive definite, so GLS with `M ∝ Ψ` is optimal. The true ranges
/// `ρᵢ` in Ψ are unknown; following the paper's own construction the
/// clock-corrected measured pseudoranges `ρᴱᵢ` stand in for them (the
/// relative error of that substitution is ~10⁻⁶).
///
/// # Example
///
/// ```
/// use gps_core::{Dlg, Measurement, PositionSolver};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let truth = Ecef::new(6.37e6, 1.0e4, -3.0e4);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(0.8e7, 1.4e7, 2.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth)))
///     .collect();
/// let fix = Dlg::default().solve(&meas, 0.0)?;
/// assert!(fix.position.distance_to(truth) < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dlg {
    base: BaseSelection,
    covariance: CovarianceModel,
    gls: GlsPath,
}

impl Dlg {
    /// Creates a DLG solver with the paper's defaults (first-satellite
    /// base, full Ψ covariance) on the structured `O(m)` GLS path.
    #[must_use]
    pub fn new() -> Self {
        Dlg::default()
    }

    /// Sets the base-satellite selection strategy.
    #[must_use]
    pub fn with_base_selection(mut self, base: BaseSelection) -> Self {
        self.base = base;
        self
    }

    /// Sets the covariance structure (ablation hook; the paper's algorithm
    /// is [`CovarianceModel::Full`]).
    #[must_use]
    pub fn with_covariance_model(mut self, covariance: CovarianceModel) -> Self {
        self.covariance = covariance;
        self
    }

    /// The configured covariance model.
    #[must_use]
    pub fn covariance_model(&self) -> CovarianceModel {
        self.covariance
    }

    /// Sets how the inverse covariance is applied (ablation hook; the
    /// default [`GlsPath::Structured`] is the fast path, the dense
    /// variants are kept as baselines).
    #[must_use]
    pub fn with_gls_path(mut self, gls: GlsPath) -> Self {
        self.gls = gls;
        self
    }

    /// The configured GLS application path.
    #[must_use]
    pub fn gls_path(&self) -> GlsPath {
        self.gls
    }

    /// Builds the covariance matrix `M ∝ Ψ` of eq. 4-26 for a linearized
    /// system (step 3 of the paper's DLG pseudo-code).
    ///
    /// Exposed for the GLS-covariance ablation and for tests.
    #[must_use]
    pub fn covariance_matrix(&self, sys: &LinearSystem) -> Matrix {
        let mut out = Matrix::default();
        self.covariance_matrix_into(sys, &mut out);
        out
    }

    /// [`Dlg::covariance_matrix`] with a caller-provided buffer: fills
    /// `out` in place without intermediate allocations (the
    /// zero-allocation arm of the linalg-path ablation bench).
    // lint: no_alloc
    pub fn covariance_matrix_into(&self, sys: &LinearSystem, out: &mut Matrix) {
        self.covariance_into(&sys.corrected_ranges, &sys.elevations, sys.base_index, out);
    }

    /// Core of [`Dlg::covariance_matrix_into`], operating on the raw
    /// linearization buffers: row `r` comes from input measurement `r`
    /// when `r < base_index`, else `r + 1` (the base row is differenced
    /// away).
    // lint: no_alloc
    fn covariance_into(
        &self,
        corrected_ranges: &[f64],
        elevations: &[Option<f64>],
        base_index: usize,
        out: &mut Matrix,
    ) {
        let psi = Psi::new(
            self.covariance,
            corrected_ranges[base_index],
            elevations[base_index],
        );
        let m1 = corrected_ranges.len() - 1;
        out.resize_zeroed(m1, m1);
        for (r, d) in psi
            .diagonal(corrected_ranges, elevations, base_index)
            .enumerate()
        {
            psi.fill_row(r, d, out.row_mut(r).iter_mut());
        }
    }

    /// The structured decomposition of the covariance:
    /// `Ψ = rank1·𝟙𝟙ᵀ + diag(d)`, returned as the rank-one weight plus
    /// the diagonal vector — the `(ρ₁², diag)` pair the Sherman–Morrison
    /// GLS kernel consumes directly, skipping the `O(m²)` matrix fill.
    ///
    /// Every [`CovarianceModel`] fits this shape (the diagonal-only models
    /// have `rank1 = 0`), and `rank1 + dᵣ` / `rank1` reproduce exactly the
    /// entries [`Dlg::covariance_matrix`] would write. Exposed for the
    /// GLS-path ablation and for tests.
    #[must_use]
    pub fn covariance_rank1(&self, sys: &LinearSystem) -> (f64, Vec<f64>) {
        let psi = Psi::new(
            self.covariance,
            sys.corrected_ranges[sys.base_index],
            sys.elevations[sys.base_index],
        );
        // The base is filtered out, so the iterator cannot size the Vec.
        let mut diag = Vec::with_capacity(sys.corrected_ranges.len() - 1);
        diag.extend(psi.diagonal(&sys.corrected_ranges, &sys.elevations, sys.base_index));
        (psi.rank1, diag)
    }

    /// The structured GLS normal equations `AᵀΨ⁻¹A x = AᵀΨ⁻¹Dᵉ`: one pass
    /// forms each differenced row with its Ψ diagonal entry and feeds the
    /// Sherman–Morrison accumulator; neither `A`, `Dᵉ` nor Ψ is stored.
    /// Errors follow the heap kernel's precedence: non-finite system,
    /// then non-finite ρ₁², then Ψ not positive definite.
    // lint: no_alloc
    fn structured_normal(&self, sys: &Differencing<'_>) -> Result<Normal3, SolveError> {
        let psi = Psi::new(self.covariance, sys.base_range, sys.base_elevation);
        let mut acc = Rank1Normal3::default();
        let mut finite = true;
        for row in sys.rows() {
            finite &= row.is_finite();
            acc.add_row(row.a, row.d, psi.diag(row.range, row.elevation));
        }
        if !finite {
            return Err(SolveError::NonFinite);
        }
        Ok(acc.finish(psi.rank1)?)
    }

    /// The dense-Ψ normal equations of eq. 4-21: one pass forms each
    /// differenced row `[aᵣ | dᵣ]` and its row of Ψ (eq. 4-26) in the
    /// context, then `lstsq::gls3_whitened` factors Ψ and whitens each
    /// row through the factor into the accumulator, with the error
    /// precedence of the dense `lstsq::gls_into`.
    // lint: no_alloc
    fn dense_normal(
        &self,
        sys: &Differencing<'_>,
        ctx: &mut crate::SolveContext,
    ) -> Result<Normal3, SolveError> {
        // Covariance-assembly time costs more to observe than the fill.
        let start = gps_telemetry::detail().then(std::time::Instant::now);
        let psi = Psi::new(self.covariance, sys.base_range, sys.base_elevation);
        let m1 = sys.len();
        ctx.covariance.resize_zeroed(m1, m1);
        ctx.whitened.clear();
        for (r, row) in sys.rows().enumerate() {
            let [x, y, z] = row.a;
            ctx.whitened.push([x, y, z, row.d]);
            let entries = ctx.covariance.row_mut(r).iter_mut();
            psi.fill_row(r, psi.diag(row.range, row.elevation), entries);
        }
        if let Some(start) = start {
            instrument::dlg_cov_assembly().record(start.elapsed().as_secs_f64() * 1e6);
        }
        Ok(lstsq::gls3_whitened(
            &mut ctx.covariance,
            &mut ctx.whitened,
        )?)
    }
}

/// Ψ's per-epoch constants under one [`CovarianceModel`], in the
/// structured form `Ψ = rank1·𝟙𝟙ᵀ + diag(d)` that every model fits.
#[derive(Debug, Clone, Copy)]
struct Psi {
    model: CovarianceModel,
    /// The rank-one weight (`0` for the diagonal-only models).
    rank1: f64,
    /// `ρ₁²` after scaling.
    rho1_scaled: f64,
    /// `1 / max(ρ₁², 1)`.
    scale: f64,
}

impl Psi {
    /// `rho1` is the base satellite's corrected range, `base_elevation`
    /// its elevation annotation.
    fn new(model: CovarianceModel, rho1: f64, base_elevation: Option<f64>) -> Self {
        let rho1_sq = rho1 * rho1;
        // Scale Ψ by the squared base range: GLS is scale-invariant, and
        // normalizing keeps the arithmetic well inside f64 range (raw
        // entries would be ~10¹⁴).
        let scale = 1.0 / rho1_sq.max(1.0);
        let rho1_scaled = rho1_sq * scale;
        let rank1 = match model {
            CovarianceModel::Full => rho1_scaled,
            CovarianceModel::DiagonalOnly | CovarianceModel::Identity => 0.0,
            CovarianceModel::ElevationScaled => elevation_weight(base_elevation) * rho1_scaled,
        };
        Psi {
            model,
            rank1,
            rho1_scaled,
            scale,
        }
    }

    /// The diagonal entry `dᵣ` of the differenced row of a satellite
    /// with corrected range `range` and elevation `elevation`.
    fn diag(&self, range: f64, elevation: Option<f64>) -> f64 {
        let other = range * range * self.scale;
        match self.model {
            CovarianceModel::Full => other,
            CovarianceModel::DiagonalOnly => self.rho1_scaled + other,
            CovarianceModel::Identity => 1.0,
            CovarianceModel::ElevationScaled => elevation_weight(elevation) * other,
        }
    }

    /// Writes row `r` of the dense Ψ: `rank1 + d` on the diagonal,
    /// `rank1` everywhere else.
    fn fill_row<'r>(&self, r: usize, d: f64, row: impl Iterator<Item = &'r mut f64>) {
        for (c, entry) in row.enumerate() {
            *entry = if r == c { self.rank1 + d } else { self.rank1 };
        }
    }

    /// Every diagonal entry, in differenced-row order, from the raw
    /// linearization buffers.
    fn diagonal<'s>(
        &'s self,
        corrected_ranges: &'s [f64],
        elevations: &'s [Option<f64>],
        base_index: usize,
    ) -> impl Iterator<Item = f64> + 's {
        corrected_ranges
            .iter()
            .zip(elevations)
            .enumerate()
            .filter(move |&(j, _)| j != base_index)
            .map(|(_, (&range, &elevation))| self.diag(range, elevation))
    }
}

/// Per-satellite variance weight from the elevation budget (the same
/// `1/sin(el)` shape as the receiver-noise model); unannotated
/// satellites weigh 1.
fn elevation_weight(elevation: Option<f64>) -> f64 {
    elevation.map_or(1.0, |e| {
        let clamped = e.clamp(3.0f64.to_radians(), std::f64::consts::FRAC_PI_2);
        1.0 / clamped.sin()
    })
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for Dlg {
    /// Both [`GlsPath`]s accumulate the differenced rows into 3×3 normal
    /// equations `AᵀΨ⁻¹A x = AᵀΨ⁻¹Dᵉ` and recompute the rows for the
    /// residual — one code path for every satellite count each. The
    /// structured path never touches the context; the dense path keeps
    /// the rows, Ψ and its factor there.
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        let sys = Differencing::new(
            epoch.measurements,
            epoch.predicted_receiver_bias_m,
            self.base,
        )?;
        let normal = match self.gls {
            GlsPath::Structured => self.structured_normal(&sys)?,
            GlsPath::DenseWhitened => self.dense_normal(&sys, ctx)?,
        };
        let [x, y, z] = normal.solve_cramer()?;
        let position = Ecef::new(x, y, z);
        let rms = sys.residual_rms(position);
        instrument::dlg_solves().inc();
        if gps_telemetry::detail() {
            instrument::observe_direct_solve(
                instrument::dlg_condition(),
                "core.dlg",
                &normal,
                sys.base_index,
                rms,
            );
        }
        Ok(Solution::new(position, None, 1, rms))
    }

    fn name(&self) -> &'static str {
        "DLG"
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
    use crate::dlo::linearize;
    use crate::{Dlo, Measurement, PositionSolver};

    fn sats() -> Vec<Ecef> {
        vec![
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
            Ecef::new(1.2e7, -0.4e7, 2.2e7),
            Ecef::new(2.2e7, 1.2e7, 0.2e7),
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
    fn exact_recovery_all_counts() {
        let truth = Ecef::new(6.371e6, -3.0e5, 1.0e5);
        for n in 4..=8 {
            let fix = Dlg::new().solve(&exact(truth, 0.0, n), 0.0).unwrap();
            assert!(
                fix.position.distance_to(truth) < 1e-2,
                "n={n}: err {}",
                fix.position.distance_to(truth)
            );
        }
    }

    #[test]
    fn identity_covariance_reduces_to_dlo() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0, 7);
        // Make the system inconsistent so the estimators actually differ.
        meas[1].pseudorange += 4.0;
        meas[5].pseudorange -= 6.0;
        let dlo = Dlo::new().solve(&meas, 0.0).unwrap();
        let dlg_id = Dlg::new()
            .with_covariance_model(CovarianceModel::Identity)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(
            dlg_id.position.distance_to(dlo.position) < 1e-6,
            "differ by {}",
            dlg_id.position.distance_to(dlo.position)
        );
        // Full covariance gives a *different* estimate on inconsistent data.
        let dlg_full = Dlg::new().solve(&meas, 0.0).unwrap();
        assert!(dlg_full.position.distance_to(dlo.position) > 1e-6);
    }

    #[test]
    fn covariance_matrix_structure() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0, 5);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let dlg = Dlg::new();
        let cov = dlg.covariance_matrix(&sys);
        assert_eq!(cov.shape(), (4, 4));
        // All off-diagonals identical (= scaled ρ₁²), diagonals strictly
        // larger.
        let off = cov[(0, 1)];
        for r in 0..4 {
            for c in 0..4 {
                if r == c {
                    assert!(cov[(r, c)] > off);
                } else {
                    assert!((cov[(r, c)] - off).abs() < 1e-12);
                }
            }
        }
        assert!(cov.is_symmetric(1e-12));
        // And positive definite, per Theorem 4.2.
        assert!(gps_linalg::Cholesky::new(&cov).is_ok());
    }

    #[test]
    fn diagonal_model_zeroes_off_diagonals() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0, 5);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let cov = Dlg::new()
            .with_covariance_model(CovarianceModel::DiagonalOnly)
            .covariance_matrix(&sys);
        assert_eq!(cov[(0, 1)], 0.0);
        assert!(cov[(0, 0)] > 0.0);
    }

    #[test]
    fn elevation_scaled_covariance_is_spd_and_solves() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas: Vec<Measurement> = exact(truth, 0.0, 7)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(0.15 + 0.12 * k as f64))
            .collect();
        let dlg = Dlg::new().with_covariance_model(CovarianceModel::ElevationScaled);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let cov = dlg.covariance_matrix(&sys);
        assert!(cov.is_symmetric(1e-12));
        assert!(gps_linalg::Cholesky::new(&cov).is_ok());
        // Lower-elevation satellites get larger variances.
        assert!(cov[(0, 0)] - cov[(0, 1)] > cov[(5, 5)] - cov[(5, 0)]);
        // Exact data still recovers exactly.
        let fix = dlg.solve(&meas, 0.0).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-2);
    }

    #[test]
    fn elevation_scaled_without_annotations_matches_full() {
        let truth = Ecef::new(6.371e6, 1.0e5, 0.0);
        let mut meas = exact(truth, 0.0, 6); // no elevations
        meas[2].pseudorange += 3.0;
        let full = Dlg::new().solve(&meas, 0.0).unwrap();
        let scaled = Dlg::new()
            .with_covariance_model(CovarianceModel::ElevationScaled)
            .solve(&meas, 0.0)
            .unwrap();
        // All weights collapse to 1 → same covariance up to the identical
        // structure, hence the same solution.
        assert!(full.position.distance_to(scaled.position) < 1e-6);
    }

    #[test]
    fn bias_prediction_applied() {
        let truth = Ecef::new(3.6e6, -5.2e6, 6.0e5);
        let bias = -275.0;
        let meas = exact(truth, bias, 6);
        let fix = Dlg::new().solve(&meas, bias).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-2);
    }

    #[test]
    fn gls_beats_ols_under_correlated_noise() {
        // Monte-Carlo check of Theorem 4.2: with errors matching the
        // paper's model (independent per-satellite pseudorange errors,
        // which become *correlated* after differencing), DLG's RMS
        // position error must not exceed DLO's.
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let base = exact(truth, 0.0, 8);
        let mut rms_dlo = 0.0;
        let mut rms_dlg = 0.0;
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            // xorshift for a cheap deterministic pseudo-gaussian (sum of 12
            // uniforms − 6).
            let mut s = 0.0;
            for _ in 0..12 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            s - 6.0
        };
        let trials = 400;
        for _ in 0..trials {
            let noisy: Vec<Measurement> = base
                .iter()
                .map(|m| Measurement::new(m.position, m.pseudorange + 3.0 * next()))
                .collect();
            let dlo = Dlo::new().solve(&noisy, 0.0).unwrap();
            let dlg = Dlg::new().solve(&noisy, 0.0).unwrap();
            rms_dlo += dlo.position.distance_to(truth).powi(2);
            rms_dlg += dlg.position.distance_to(truth).powi(2);
        }
        rms_dlo = (rms_dlo / f64::from(trials)).sqrt();
        rms_dlg = (rms_dlg / f64::from(trials)).sqrt();
        assert!(
            rms_dlg <= rms_dlo * 1.02,
            "DLG {rms_dlg} should not exceed DLO {rms_dlo}"
        );
    }

    #[test]
    fn rejects_too_few() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        assert_eq!(
            Dlg::new().solve(&exact(truth, 0.0, 3), 0.0).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        );
    }

    #[test]
    fn trait_metadata() {
        let dlg = Dlg::new();
        assert_eq!(dlg.name(), "DLG");
        assert_eq!(dlg.min_satellites(), 4);
        assert_eq!(dlg.covariance_model(), CovarianceModel::Full);
        assert_eq!(dlg.gls_path(), GlsPath::Structured);
        assert_eq!(
            dlg.with_gls_path(GlsPath::DenseWhitened).gls_path(),
            GlsPath::DenseWhitened
        );
    }

    /// Noisy (inconsistent) measurements so the GLS paths actually have
    /// residual structure to disagree on.
    fn noisy(truth: Ecef, n: usize) -> Vec<Measurement> {
        let mut meas = exact(truth, 13.0, n);
        for (k, m) in meas.iter_mut().enumerate() {
            // Deterministic ±few-metre perturbation, different per row.
            m.pseudorange += ((k * 7 + 3) % 11) as f64 - 5.0;
        }
        meas
    }

    #[test]
    fn structured_path_matches_dense_paths_all_models() {
        let truth = Ecef::new(6.371e6, -2.0e5, 3.0e5);
        for model in [
            CovarianceModel::Full,
            CovarianceModel::DiagonalOnly,
            CovarianceModel::Identity,
            CovarianceModel::ElevationScaled,
        ] {
            let meas = noisy(truth, 8);
            let fix = |path: GlsPath| {
                Dlg::new()
                    .with_covariance_model(model)
                    .with_gls_path(path)
                    .solve(&meas, 0.0)
                    .unwrap()
            };
            let structured = fix(GlsPath::Structured);
            let whitened = fix(GlsPath::DenseWhitened);
            // Eq. 4-21 literally: the explicit Ψ⁻¹ on linearize's system.
            let dlg = Dlg::new().with_covariance_model(model);
            let sys = linearize(&meas, 0.0, dlg.base).unwrap();
            let x =
                lstsq::gls_explicit_inverse(&sys.a, &sys.d, &dlg.covariance_matrix(&sys)).unwrap();
            let explicit = Ecef::new(x[0], x[1], x[2]);
            // Sherman–Morrison is algebraically exact; only association
            // order differs, so agreement is at far-sub-micrometre level.
            for dense in [whitened.position, explicit] {
                assert!(
                    structured.position.distance_to(dense) < 1e-6,
                    "{model:?}: paths diverged by {}",
                    structured.position.distance_to(dense)
                );
            }
            assert!((structured.residual_rms - whitened.residual_rms).abs() < 1e-9);
        }
    }

    /// The κ one solve records into `core.dlg.condition_number`. The
    /// histogram is process-global, so a concurrent test's DLG solve can
    /// land in the same window; retry until exactly one sample did.
    fn recorded_kappa(dlg: Dlg, meas: &[Measurement]) -> f64 {
        let histogram = instrument::dlg_condition();
        for _ in 0..1_000 {
            let before = histogram.snapshot("kappa");
            dlg.solve(meas, 0.0).unwrap();
            let after = histogram.snapshot("kappa");
            if after.count == before.count + 1 {
                return after.sum - before.sum;
            }
        }
        panic!("no quiet window to read the condition number in");
    }

    #[test]
    fn dense_and_structured_record_the_same_detail_condition_number() {
        let truth = Ecef::new(6.371e6, -2.0e5, 3.0e5);
        let meas: Vec<Measurement> = noisy(truth, 8)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(0.2 + 0.15 * k as f64))
            .collect();
        gps_telemetry::set_detail(true);
        let kappas: Vec<_> = [CovarianceModel::Full, CovarianceModel::ElevationScaled]
            .into_iter()
            .map(|model| {
                let dlg = Dlg::new().with_covariance_model(model);
                let structured = recorded_kappa(dlg.with_gls_path(GlsPath::Structured), &meas);
                let dense = recorded_kappa(dlg.with_gls_path(GlsPath::DenseWhitened), &meas);
                (model, structured, dense)
            })
            .collect();
        gps_telemetry::set_detail(false);
        for (model, structured, dense) in kappas {
            assert!(structured > 1.0, "{model:?}: κ {structured}");
            assert!(
                ((structured - dense) / structured).abs() < 1e-9,
                "{model:?}: structured κ {structured} vs dense κ {dense}"
            );
        }
    }

    #[test]
    fn covariance_rank1_reconstructs_dense_matrix_bitwise() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let meas = noisy(truth, 8);
        for model in [
            CovarianceModel::Full,
            CovarianceModel::DiagonalOnly,
            CovarianceModel::Identity,
            CovarianceModel::ElevationScaled,
        ] {
            let dlg = Dlg::new().with_covariance_model(model);
            let sys = linearize(&meas, 0.0, dlg.base).unwrap();
            let dense = dlg.covariance_matrix(&sys);
            let (rank1, diag) = dlg.covariance_rank1(&sys);
            let m1 = meas.len() - 1;
            assert_eq!(diag.len(), m1);
            for r in 0..m1 {
                for c in 0..m1 {
                    let rebuilt = if r == c { rank1 + diag[r] } else { rank1 };
                    assert_eq!(
                        dense[(r, c)].to_bits(),
                        rebuilt.to_bits(),
                        "{model:?}: entry ({r},{c}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_and_dense_error_identically_on_degenerate_ranges() {
        // Zero corrected ranges give zero covariance diagonal entries.
        // One zero leaves Ψ (barely) positive definite through the
        // rank-one term, but two make it genuinely singular: both lanes
        // must reject with the same degenerate-geometry taxonomy (the
        // dense Cholesky via NotPositiveDefinite, the structured lane via
        // its d ≤ 0 guard), not silently divide by zero.
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0, 6);
        meas[3].pseudorange = 0.0;
        meas[4].pseudorange = 0.0;
        for path in [GlsPath::Structured, GlsPath::DenseWhitened] {
            let err = Dlg::new().with_gls_path(path).solve(&meas, 0.0);
            assert!(
                matches!(err, Err(SolveError::DegenerateGeometry(_))),
                "{path:?}: expected degenerate-covariance rejection, got {err:?}"
            );
        }
    }
}
