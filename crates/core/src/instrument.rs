//! Telemetry instrumentation points for the solver pipeline.
//!
//! Every metric handle is cached in a `OnceLock`, so the solver hot
//! paths pay one registry lookup per process and afterwards only the
//! atomic record itself. Anything that costs real computation to
//! *observe* — design-matrix condition numbers, covariance-assembly
//! timing — is additionally gated on [`gps_telemetry::detail`], keeping
//! the paper's execution-time comparisons (θ, eq. 5-3) undistorted
//! unless the caller opts in.

use std::sync::OnceLock;

use gps_linalg::stack::Normal3;
use gps_telemetry::{Counter, Event, Histogram, Level};

macro_rules! cached_metric {
    ($fn_name:ident, Counter, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: OnceLock<Counter> = OnceLock::new();
            HANDLE.get_or_init(|| gps_telemetry::counter($name))
        }
    };
    ($fn_name:ident, Histogram, $name:literal) => {
        pub(crate) fn $fn_name() -> &'static Histogram {
            static HANDLE: OnceLock<Histogram> = OnceLock::new();
            HANDLE.get_or_init(|| gps_telemetry::histogram($name))
        }
    };
}

cached_metric!(nr_solves, Counter, "core.nr.solves");
cached_metric!(nr_nonconvergence, Counter, "core.nr.nonconvergence");
cached_metric!(nr_iterations, Histogram, "core.nr.iterations");
cached_metric!(nr_residual_rms, Histogram, "core.nr.residual_rms_m");
cached_metric!(dlo_solves, Counter, "core.dlo.solves");
cached_metric!(dlo_condition, Histogram, "core.dlo.condition_number");
cached_metric!(dlg_solves, Counter, "core.dlg.solves");
cached_metric!(dlg_condition, Histogram, "core.dlg.condition_number");
cached_metric!(dlg_cov_assembly, Histogram, "core.dlg.cov_assembly_us");
cached_metric!(base_index, Histogram, "core.base.selected_index");
cached_metric!(raim_exclusions, Counter, "core.raim.exclusions");
cached_metric!(resilient_nominal, Counter, "core.resilient.nominal");
cached_metric!(resilient_degraded, Counter, "core.resilient.degraded");
cached_metric!(resilient_holdover, Counter, "core.resilient.holdover");
cached_metric!(resilient_no_fix, Counter, "core.resilient.no_fix");
cached_metric!(
    resilient_gate_failures,
    Counter,
    "core.resilient.gate_failures"
);
cached_metric!(
    resilient_raim_retries,
    Counter,
    "core.resilient.raim_retries"
);
cached_metric!(
    resilient_accepted_rung,
    Histogram,
    "core.resilient.accepted_rung"
);

/// Counter for a [`crate::FixQuality`] by its canonical name, so the
/// ladder walk emits `core.resilient.{nominal,degraded,holdover,no_fix}`
/// from one generic call site instead of per-quality branches.
pub(crate) fn resilient_fix_quality(name: &'static str) -> &'static Counter {
    match name {
        "nominal" => resilient_nominal(),
        "degraded" => resilient_degraded(),
        "holdover" => resilient_holdover(),
        _ => resilient_no_fix(),
    }
}

/// 2-norm condition number of a design matrix `A` from the normal
/// matrix `G = AᵀWA` a direct solver already accumulated: `κ₂(W½A) =
/// √κ₂(G)`, from `G`'s eigenvalues by fixed-size 3×3 Jacobi
/// ([`Normal3::condition_number`]). `None` when `G` holds a NaN/∞.
pub(crate) fn normal_condition_number(normal: &Normal3) -> Option<f64> {
    normal.condition_number()
}

/// Detail observations of one DLO/DLG fix: the design's condition number
/// (from the normal matrix the solve accumulated) into `condition`, plus
/// a debug `solved` event under `target`. The eigenvalue sweeps cost
/// several times the 3-unknown solve itself (though they allocate
/// nothing), so callers gate this on [`gps_telemetry::detail`]; it only
/// reads what the solve produced.
pub(crate) fn observe_direct_solve(
    condition: &Histogram,
    target: &'static str,
    normal: &Normal3,
    base_index: usize,
    residual_rms_m: f64,
) {
    let Some(kappa) = normal_condition_number(normal) else {
        return;
    };
    condition.record(kappa);
    if gps_telemetry::enabled(Level::Debug) {
        Event::new(Level::Debug, target, "solved")
            .with("condition_number", kappa)
            .with("base_index", base_index)
            .with("residual_rms_m", residual_rms_m)
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_cached_and_live() {
        let a = nr_solves() as *const Counter;
        let b = nr_solves() as *const Counter;
        assert_eq!(a, b, "OnceLock must hand back the same handle");
        let before = nr_solves().value();
        nr_solves().inc();
        assert_eq!(nr_solves().value(), before + 1);
    }

    #[test]
    fn condition_number_matches_known_matrix() {
        // Diagonal design matrix: singular values are the entries.
        let mut normal = Normal3::default();
        for row in [
            [3.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ] {
            normal.add_row(row, 0.0);
        }
        let kappa = normal_condition_number(&normal).unwrap();
        assert!((kappa - 3.0).abs() < 1e-9, "kappa {kappa}");
    }
}
