//! GPS positioning algorithms — the primary contribution of
//! *Design and Analysis of a New GPS Algorithm* (ICDCS 2010).
//!
//! Given one epoch of satellite positions and pseudoranges
//! ([`Measurement`]), four solvers estimate the receiver position:
//!
//! * [`NewtonRaphson`] — the classic iterative baseline (paper §3.4):
//!   linearizes the pseudorange equations by first-order Taylor expansion
//!   around the current estimate, solves each step by **OLS**, and treats
//!   the receiver clock error `εᴿ` as a fourth unknown.
//! * [`Dlo`] — **D**irect **L**inearization + **O**LS (paper §4.3, 4.5):
//!   predicts `εᴿ` externally (eq. 4-1), removes the quadratic terms by
//!   subtracting a base equation from the rest (eq. 4-7/4-8), and solves
//!   the resulting `(m−1)×3` *linear* system in closed form by OLS
//!   (eq. 4-12). No iteration.
//! * [`Dlg`] — Direct Linearization + **G**LS (paper §4.4, 4.5): identical
//!   linearization, but uses general least squares with the correlated
//!   covariance `Ψᵢⱼ = ρ₁² + δᵢⱼ·ρᵢ₊₁²` (eq. 4-21/4-26), which Theorem 4.2
//!   shows is the optimal estimator for the differenced system.
//! * [`Bancroft`] — the classical algebraic closed-form solution
//!   (related work \[2\]), included as a second baseline.
//!
//! Supporting types: [`Solution`], [`SolveError`], [`BaseSelection`]
//! (the §6 "good satellite" extension), [`metrics`] (the paper's
//! evaluation metrics, eq. 5-1/5-2/5-3) and [`Dop`] (geometry quality).
//!
//! # Example
//!
//! ```
//! use gps_core::{Dlo, Measurement, PositionSolver};
//! use gps_geodesy::Ecef;
//!
//! # fn main() -> Result<(), gps_core::SolveError> {
//! // Four satellites at known positions, receiver at the origin-ish
//! // point `truth`, error-free pseudoranges:
//! let truth = Ecef::new(1_000.0, 2_000.0, 3_000.0);
//! let sats = [
//!     Ecef::new(2.0e7, 0.0, 1.0e7),
//!     Ecef::new(-1.5e7, 1.2e7, 1.4e7),
//!     Ecef::new(0.5e7, -2.2e7, 1.0e7),
//!     Ecef::new(0.0, 0.8e7, 2.4e7),
//! ];
//! let meas: Vec<Measurement> = sats
//!     .iter()
//!     .map(|&s| Measurement::new(s, s.distance_to(truth)))
//!     .collect();
//! let fix = Dlo::default().solve(&meas, 0.0)?;
//! assert!(fix.position.distance_to(truth) < 1e-3);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod bancroft;
mod base;
mod dlg;
mod dlo;
mod dop;
mod engine;
mod error;
mod hatch;
mod instrument;
mod kinematic;
mod measurement;
pub mod metrics;
mod nr;
mod parallel;
mod raim;
mod resilient;
pub mod sagnac;
mod service;
mod session;
mod solution;
mod solver;
mod trilateration;
mod velocity;

pub use bancroft::Bancroft;
pub use base::BaseSelection;
pub use dlg::{CovarianceModel, Dlg, GlsPath};
pub use dlo::{linearize, Dlo, LinearSystem};
pub use dop::Dop;
pub use engine::{Engine, Lane, LaneStats};
pub use error::SolveError;
pub use hatch::HatchFilter;
pub use kinematic::PvFilter;
pub use measurement::Measurement;
pub use nr::{NewtonRaphson, Weighting};
pub use parallel::{EpochJob, ParallelEngine, ParallelRun, WorkerLanes, WorkerReport};
pub use raim::{Raim, RaimSolution};
pub use resilient::{FixQuality, ResilientFix, ResilientSolver, ValidationGates};
pub use service::{
    fleet_digest, replay_journal, ChaosOp, Disposition, EpochOutcome, IngestResult,
    PositioningService, ReplayReport, RoundResult, ServiceConfig, SessionEpoch,
};
pub use session::Session;
pub use solution::Solution;
pub use solver::{Epoch, SolveContext, Solver};
pub use trilateration::{trilaterate3, TrilaterationRoots};
pub use velocity::{solve_velocity, RateMeasurement, VelocitySolution};

/// Common interface over the positioning algorithms, so harnesses and
/// benches can sweep `{NR, DLO, DLG, Bancroft}` uniformly.
///
/// This is the *simple* API: every call allocates its own scratch
/// buffers. It is derived automatically (via a blanket impl) from the
/// hot-path [`Solver`] trait, which threads a reusable [`SolveContext`]
/// instead — implement `Solver` once and both interfaces work.
pub trait PositionSolver {
    /// Estimates the receiver position from one epoch of measurements.
    ///
    /// `predicted_receiver_bias_m` is the externally predicted receiver
    /// range bias `ε̂ᴿ = c·Δt̂` in metres (paper eq. 4-4):
    ///
    /// * [`Dlo`]/[`Dlg`] subtract it from every pseudorange (eq. 4-1) —
    ///   their accuracy depends on its quality;
    /// * [`NewtonRaphson`] and [`Bancroft`] estimate the bias themselves
    ///   and only use the hint as an initial guess (NR) or ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if there are too few satellites, the
    /// geometry is degenerate, the input is non-finite, or (NR only) the
    /// iteration fails to converge.
    fn solve(
        &self,
        measurements: &[Measurement],
        predicted_receiver_bias_m: f64,
    ) -> Result<Solution, SolveError>;

    /// Short algorithm name for reports ("NR", "DLO", "DLG", "Bancroft").
    fn name(&self) -> &'static str;

    /// The minimum number of satellites this algorithm needs.
    fn min_satellites(&self) -> usize;
}
