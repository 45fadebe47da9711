//! Exact three-satellite trilateration with a known clock.
//!
//! The paper's related work (§2, ref. [30]) notes that "when precise
//! clock time can be acquired, only three satellites are needed to
//! calculate a position". The direct-linearization algorithms still need
//! four (differencing spends one equation), but the *original* three
//! sphere equations can be intersected exactly: two planes reduce the
//! problem to a line, and the quadratic along that line gives the two
//! geometric candidates (a circle-of-intersection pierced twice). The
//! physical root is the one near the Earth's surface — the same
//! disambiguation the paper invokes ("the physical meaning of the
//! equations usually results in only one solution", §3.1).

use gps_geodesy::wgs84::SEMI_MAJOR_AXIS;
use gps_geodesy::Ecef;

use crate::measurement::validate;
use crate::{Measurement, SolveError};

/// The two geometric intersection points of three range spheres, before
/// physical disambiguation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrilaterationRoots {
    /// The candidate closer to the Earth's surface.
    pub near_earth: Ecef,
    /// The mirror candidate.
    pub mirror: Ecef,
}

/// Solves the exact three-sphere intersection
/// `|x − sᵢ| = ρᵢ − ε̂ᴿ, i = 1..3` (clock-corrected ranges), returning
/// both geometric roots.
///
/// # Errors
///
/// * [`SolveError::TooFewSatellites`] with fewer than 3 measurements
///   (extra measurements beyond the first three are ignored).
/// * [`SolveError::NonFinite`] on NaN/∞ input.
/// * [`SolveError::DegenerateGeometry`] when the three satellites are
///   collinear (the two difference planes are parallel).
/// * [`SolveError::NoRealRoot`] when the spheres do not intersect
///   (inconsistent ranges — e.g. a badly wrong clock prediction).
///
/// # Example
///
/// ```
/// use gps_core::{trilaterate3, Measurement};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let truth = Ecef::new(6.37e6, 1.0e5, -2.0e5);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth)))
///     .collect();
/// let roots = trilaterate3(&meas, 0.0)?;
/// assert!(roots.near_earth.distance_to(truth) < 1e-3);
/// # Ok(())
/// # }
/// ```
// lint: no_alloc
pub fn trilaterate3(
    measurements: &[Measurement],
    predicted_receiver_bias_m: f64,
) -> Result<TrilaterationRoots, SolveError> {
    validate(measurements, 3)?;
    if !predicted_receiver_bias_m.is_finite() {
        return Err(SolveError::NonFinite);
    }
    let [m0, m1, m2, ..] = measurements else {
        return Err(SolveError::TooFewSatellites {
            got: measurements.len(),
            need: 3,
        });
    };
    let [s1, s2, s3] = [m0, m1, m2].map(|m| m.position);
    let rho = [m0, m1, m2].map(|m| m.pseudorange - predicted_receiver_bias_m);
    if rho.iter().any(|&r| r <= 0.0) {
        return Err(SolveError::NoRealRoot);
    }
    let [rho1, rho2, rho3] = rho;

    // Differencing spheres 2−1 and 3−1 yields two planes n·x = d (the
    // same algebra as the paper's eq. 4-7 with m = 3):
    let plane = |sj: Ecef, rhoj: f64| {
        let n = sj - s1;
        let d = 0.5 * ((sj.norm_squared() - s1.norm_squared()) - (rhoj * rhoj - rho1 * rho1));
        (n, d)
    };
    let (n1, d1) = plane(s2, rho2);
    let (n2, d2) = plane(s3, rho3);

    // Line of intersection: direction along n₁ × n₂.
    let dir = n1.cross(n2);
    let dir_norm = dir.norm();
    let scale = n1.norm() * n2.norm();
    if dir_norm <= 1e-10 * scale {
        return Err(SolveError::DegenerateGeometry(
            gps_linalg::LinalgError::Singular,
        ));
    }
    let dir = dir / dir_norm;

    // Point on the line: the solution of [n₁; n₂; dir] x = [d₁; d₂; 0]
    // (the third row is a gauge — any value pins one point), by the
    // triple-product form of Cramer's rule. The check above bounds the
    // determinant n₁·(n₂ × dir) = |n₁ × n₂| away from zero.
    let n2_x_dir = n2.cross(dir);
    let p0 = (n2_x_dir * d1 + dir.cross(n1) * d2) / n1.dot(n2_x_dir);

    // Intersect the line p0 + t·dir with sphere 1:
    // |p0 + t·dir − s₁|² = ρ₁².
    let w = p0 - s1;
    let b_half = w.dot(dir);
    let c = w.norm_squared() - rho1 * rho1;
    let disc = b_half * b_half - c;
    if disc < 0.0 {
        return Err(SolveError::NoRealRoot);
    }
    let sq = disc.sqrt();
    let r1 = p0 + dir * (-b_half + sq);
    let r2 = p0 + dir * (-b_half - sq);

    // Physical disambiguation: closer to the Earth's surface first.
    let surface_miss = |p: Ecef| (p.norm() - SEMI_MAJOR_AXIS).abs();
    if surface_miss(r1) <= surface_miss(r2) {
        Ok(TrilaterationRoots {
            near_earth: r1,
            mirror: r2,
        })
    } else {
        Ok(TrilaterationRoots {
            near_earth: r2,
            mirror: r1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sats() -> [Ecef; 3] {
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
        ]
    }

    fn exact(truth: Ecef, bias: f64) -> Vec<Measurement> {
        sats()
            .iter()
            .map(|&s| Measurement::new(s, s.distance_to(truth) + bias))
            .collect()
    }

    #[test]
    fn exact_recovery_various_receivers() {
        for truth in [
            Ecef::new(6.371e6, 0.0, 0.0),
            Ecef::new(3.6e6, -5.2e6, 6.0e5),
            Ecef::new(-2.3e6, -1.4e6, 5.7e6),
        ] {
            let roots = trilaterate3(&exact(truth, 0.0), 0.0).unwrap();
            assert!(
                roots.near_earth.distance_to(truth) < 1e-3,
                "err {}",
                roots.near_earth.distance_to(truth)
            );
            // The mirror root is a genuinely different point.
            assert!(roots.mirror.distance_to(truth) > 1e5);
        }
    }

    #[test]
    fn clock_prediction_is_applied() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let bias = 444.0;
        let roots = trilaterate3(&exact(truth, bias), bias).unwrap();
        assert!(roots.near_earth.distance_to(truth) < 1e-3);
    }

    #[test]
    fn both_roots_satisfy_all_spheres() {
        let truth = Ecef::new(6.371e6, -3.0e5, 2.0e5);
        let meas = exact(truth, 0.0);
        let roots = trilaterate3(&meas, 0.0).unwrap();
        for candidate in [roots.near_earth, roots.mirror] {
            for m in &meas {
                let err = (candidate.distance_to(m.position) - m.pseudorange).abs();
                assert!(err < 1e-3, "sphere residual {err}");
            }
        }
    }

    #[test]
    fn extra_measurements_ignored() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0);
        meas.push(Measurement::new(Ecef::new(1.0e7, 1.0e7, 2.0e7), 1.0)); // nonsense 4th
        let roots = trilaterate3(&meas, 0.0).unwrap();
        assert!(roots.near_earth.distance_to(truth) < 1e-3);
    }

    #[test]
    fn rejects_too_few_and_nonfinite() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0);
        assert_eq!(
            trilaterate3(&meas[..2], 0.0).unwrap_err(),
            SolveError::TooFewSatellites { got: 2, need: 3 }
        );
        assert_eq!(
            trilaterate3(&meas, f64::NAN).unwrap_err(),
            SolveError::NonFinite
        );
    }

    #[test]
    fn collinear_satellites_degenerate() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let line: Vec<Measurement> = (0..3)
            .map(|k| {
                let s = Ecef::new(2.0e7, k as f64 * 1.0e6, 0.0);
                Measurement::new(s, s.distance_to(truth))
            })
            .collect();
        assert!(matches!(
            trilaterate3(&line, 0.0).unwrap_err(),
            SolveError::DegenerateGeometry(_)
        ));
    }

    #[test]
    fn disjoint_spheres_no_real_root() {
        // Shrink all ranges so the spheres cannot meet.
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas: Vec<Measurement> = exact(truth, 0.0)
            .into_iter()
            .map(|m| Measurement::new(m.position, m.pseudorange * 0.5))
            .collect();
        assert_eq!(
            trilaterate3(&meas, 0.0).unwrap_err(),
            SolveError::NoRealRoot
        );
    }

    #[test]
    fn negative_corrected_range_rejected() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0);
        // An absurd clock prediction drives corrected ranges negative.
        assert_eq!(
            trilaterate3(&meas, 1.0e9).unwrap_err(),
            SolveError::NoRealRoot
        );
    }

    #[test]
    fn wrong_clock_prediction_biases_position() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let roots_good = trilaterate3(&exact(truth, 100.0), 100.0).unwrap();
        let roots_off = trilaterate3(&exact(truth, 100.0), 0.0).unwrap();
        assert!(roots_good.near_earth.distance_to(truth) < 1e-3);
        assert!(roots_off.near_earth.distance_to(truth) > 50.0);
    }
}
