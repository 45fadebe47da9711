use std::fmt;

use gps_geodesy::{Ecef, LocalFrame};
use gps_linalg::stack::{cholesky_back, cholesky_factor, cholesky_forward};
use gps_linalg::SMat;

use crate::{Measurement, SolveError};

/// Dilution-of-precision figures: how satellite geometry scales
/// measurement noise into solution noise.
///
/// Computed from the cofactor matrix `Q = (GᵀG)⁻¹` of the standard
/// position/time design matrix `G` (unit line-of-sight vectors plus the
/// clock column). The horizontal/vertical split uses a local ENU frame at
/// the receiver. GDOP is `√trace Q`; only the diagonal of `Q` is needed,
/// read off the Cholesky factor of the 4×4 Gram `GᵀG`.
///
/// # Example
///
/// ```
/// use gps_core::{Dop, Measurement};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let receiver = Ecef::new(6.37e6, 0.0, 0.0);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(0.8e7, 1.4e7, 2.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(receiver)))
///     .collect();
/// let dop = Dop::compute(&meas, receiver)?;
/// assert!(dop.gdop > 1.0 && dop.gdop < 10.0);
/// assert!(dop.pdop < dop.gdop);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dop {
    /// Geometric DOP (position + time).
    pub gdop: f64,
    /// Position DOP (3-D position only).
    pub pdop: f64,
    /// Horizontal DOP.
    pub hdop: f64,
    /// Vertical DOP.
    pub vdop: f64,
    /// Time DOP.
    pub tdop: f64,
}

impl Dop {
    /// Computes DOP for a satellite set as seen from `receiver`.
    ///
    /// # Errors
    ///
    /// * [`SolveError::TooFewSatellites`] with fewer than 4 satellites.
    /// * [`SolveError::DegenerateGeometry`] if `GᵀG` is not positive
    ///   definite (singular geometry).
    /// * [`SolveError::NonFinite`] for NaN/∞ positions.
    // lint: no_alloc
    pub fn compute(measurements: &[Measurement], receiver: Ecef) -> Result<Dop, SolveError> {
        crate::measurement::validate(measurements, 4)?;
        if !receiver.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let frame = LocalFrame::new(receiver);
        // Lower triangle of GᵀG, one design row at a time, in ENU + clock
        // so HDOP/VDOP read directly off Q.
        let mut gram = SMat::<4, 4>::zeroed(4);
        for meas in measurements {
            let enu = frame.to_enu(meas.position);
            let range = (enu.east * enu.east + enu.north * enu.north + enu.up * enu.up).sqrt();
            if range < 1.0 {
                return Err(SolveError::NonFinite);
            }
            let row = [enu.east / range, enu.north / range, enu.up / range, 1.0];
            for (i, &ri) in row.iter().enumerate() {
                for (gij, &rj) in gram.row_mut(i).iter_mut().zip(&row).take(i + 1) {
                    *gij += ri * rj;
                }
            }
        }
        cholesky_factor(&mut gram)?;
        // Qₖₖ = eₖᵀ (LLᵀ)⁻¹ eₖ: one forward/back solve per unit vector.
        let [qe, qn, qu, qt] = std::array::from_fn(|k| {
            let mut col: [f64; 4] = std::array::from_fn(|i| if i == k { 1.0 } else { 0.0 });
            cholesky_forward(&gram, &mut col);
            cholesky_back(&gram, &mut col);
            col.get(k).copied().unwrap_or(f64::NAN)
        });
        Ok(Dop {
            gdop: (qe + qn + qu + qt).sqrt(),
            pdop: (qe + qn + qu).sqrt(),
            hdop: (qe + qn).sqrt(),
            vdop: qu.sqrt(),
            tdop: qt.sqrt(),
        })
    }
}

impl fmt::Display for Dop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GDOP {:.2} PDOP {:.2} HDOP {:.2} VDOP {:.2} TDOP {:.2}",
            self.gdop, self.pdop, self.hdop, self.vdop, self.tdop
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn receiver() -> Ecef {
        Ecef::new(6.371e6, 0.0, 0.0)
    }

    fn spread_sats() -> Vec<Measurement> {
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
        .iter()
        .map(|&s| Measurement::new(s, s.distance_to(receiver())))
        .collect()
    }

    #[test]
    fn dop_consistency_relations() {
        let dop = Dop::compute(&spread_sats(), receiver()).unwrap();
        assert!(dop.pdop <= dop.gdop);
        assert!(dop.hdop <= dop.pdop);
        assert!(dop.vdop <= dop.pdop);
        // PDOP² = HDOP² + VDOP², GDOP² = PDOP² + TDOP².
        assert!((dop.pdop.powi(2) - dop.hdop.powi(2) - dop.vdop.powi(2)).abs() < 1e-9);
        assert!((dop.gdop.powi(2) - dop.pdop.powi(2) - dop.tdop.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn more_satellites_do_not_worsen_dop() {
        let all = spread_sats();
        let four = Dop::compute(&all[..4], receiver()).unwrap();
        let six = Dop::compute(&all, receiver()).unwrap();
        assert!(six.gdop <= four.gdop + 1e-9);
    }

    #[test]
    fn clustered_satellites_have_bad_dop() {
        // Satellites bunched within a small cone: geometry near-singular,
        // so GDOP is huge (or outright singular).
        let base = Ecef::new(2.0e7, 1.0e6, 1.7e7);
        let meas: Vec<Measurement> = (0..5)
            .map(|k| {
                let s = base + Ecef::new(0.0, k as f64 * 5.0e4, k as f64 * 3.0e4);
                Measurement::new(s, s.distance_to(receiver()))
            })
            .collect();
        match Dop::compute(&meas, receiver()) {
            Ok(dop) => {
                let spread = Dop::compute(&spread_sats(), receiver()).unwrap();
                assert!(dop.gdop > 5.0 * spread.gdop, "gdop {}", dop.gdop);
            }
            Err(SolveError::DegenerateGeometry(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    /// The stack path against the heap reference it replaced: the
    /// diagonal of `Cholesky::new(GᵀG)?.inverse()` on the same design.
    #[test]
    fn stack_path_matches_heap_inverse_on_random_geometries() {
        use gps_linalg::{Cholesky, Matrix};
        use gps_rng::rngs::StdRng;
        use gps_rng::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xD0_0F);
        let rx = receiver();
        let frame = LocalFrame::new(rx);
        for case in 0..200 {
            let m: usize = rng.gen_range(4..41);
            let meas: Vec<Measurement> = (0..m)
                .map(|_| {
                    let dir = Ecef::new(
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    );
                    let s = rx + dir * (2.0e7 / dir.norm().max(1e-3));
                    Measurement::new(s, s.distance_to(rx))
                })
                .collect();
            let g = Matrix::from_fn(m, 4, |r, c| {
                let enu = frame.to_enu(meas[r].position);
                let range = (enu.east * enu.east + enu.north * enu.north + enu.up * enu.up).sqrt();
                [enu.east / range, enu.north / range, enu.up / range, 1.0][c]
            });
            let q = Cholesky::new(&g.gram()).unwrap().inverse().unwrap();
            let (qe, qn, qu, qt) = (q[(0, 0)], q[(1, 1)], q[(2, 2)], q[(3, 3)]);
            let want = [
                (qe + qn + qu + qt).sqrt(),
                (qe + qn + qu).sqrt(),
                (qe + qn).sqrt(),
                qu.sqrt(),
                qt.sqrt(),
            ];
            let dop = Dop::compute(&meas, rx).unwrap();
            let got = [dop.gdop, dop.pdop, dop.hdop, dop.vdop, dop.tdop];
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() <= 1e-12 * w,
                    "case {case} (m = {m}): {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn rejects_too_few() {
        let meas = spread_sats();
        assert!(matches!(
            Dop::compute(&meas[..3], receiver()).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        ));
    }

    #[test]
    fn display_lists_all_figures() {
        let dop = Dop::compute(&spread_sats(), receiver()).unwrap();
        let text = dop.to_string();
        for label in ["GDOP", "PDOP", "HDOP", "VDOP", "TDOP"] {
            assert!(text.contains(label));
        }
    }
}
