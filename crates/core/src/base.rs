use gps_linalg::stack::Normal3;

use crate::Measurement;

/// Strategy for choosing the **base satellite** — the equation subtracted
/// from all others in the direct linearization (paper eq. 4-7 subtracts
/// "the first equation").
///
/// The paper notes in §6 that "the accuracy can be further improved if we
/// can identify a 'good' satellite to be used as the base to construct the
/// linear system. In the algorithm we propose in this paper, this
/// satellite is randomly chosen." These strategies implement that
/// extension; the `ablation_base_select` benchmark quantifies the
/// difference.
///
/// # Example
///
/// ```
/// use gps_core::{BaseSelection, Measurement};
/// use gps_geodesy::Ecef;
///
/// let ms = vec![
///     Measurement::new(Ecef::new(1.0, 0.0, 0.0), 1.0).with_elevation(0.2),
///     Measurement::new(Ecef::new(0.0, 1.0, 0.0), 1.0).with_elevation(0.9),
/// ];
/// assert_eq!(BaseSelection::First.select(&ms), 0);
/// assert_eq!(BaseSelection::HighestElevation.select(&ms), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BaseSelection {
    /// Use the first measurement as supplied — the paper's own choice
    /// (effectively random, since datasets carry no privileged order).
    #[default]
    First,
    /// Use the satellite with the highest elevation: smallest atmospheric
    /// and multipath error, hence the cleanest base equation.
    HighestElevation,
    /// Use the satellite with the lowest elevation — the adversarial
    /// choice, included so the ablation brackets the effect.
    LowestElevation,
    /// Use the satellite with the *shortest pseudorange* (closest to
    /// zenith geometrically) — an elevation-free proxy usable when
    /// elevations are not annotated.
    ShortestRange,
    /// Use the base that minimizes the spectral condition number of the
    /// resulting differenced design matrix `A` (eq. 4-9) — the
    /// geometry-optimal choice, at the cost of an `m`-fold eigenvalue
    /// scan per solve.
    BestConditioned,
}

/// Condition number of the `(m−1)×3` design matrix that results from
/// using measurement `base` as the base: each differenced row goes
/// straight into the normal equations `AᵀA`, whose eigenvalues give
/// `κ(A)` ([`Normal3::condition_number`]). Infinite for a non-finite
/// geometry.
// lint: no_alloc
fn base_condition(measurements: &[Measurement], base: usize) -> f64 {
    let Some(s1) = measurements.get(base).map(|m| m.position) else {
        return f64::INFINITY;
    };
    let mut normal = Normal3::default();
    for (j, m) in measurements.iter().enumerate() {
        if j != base {
            let d = m.position - s1;
            normal.add_row([d.x, d.y, d.z], 0.0);
        }
    }
    normal.condition_number().unwrap_or(f64::INFINITY)
}

impl BaseSelection {
    /// Returns the index of the base measurement under this strategy.
    ///
    /// Measurements without elevation annotation are treated as having
    /// elevation −∞ for [`BaseSelection::HighestElevation`] (and +∞ for
    /// [`BaseSelection::LowestElevation`]), so annotated satellites win.
    ///
    /// # Panics
    ///
    /// Panics if `measurements` is empty.
    #[must_use]
    pub fn select(&self, measurements: &[Measurement]) -> usize {
        assert!(!measurements.is_empty(), "no measurements to select from");
        match self {
            BaseSelection::First => 0,
            BaseSelection::HighestElevation => measurements
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    let ea = a.elevation.unwrap_or(f64::NEG_INFINITY);
                    let eb = b.elevation.unwrap_or(f64::NEG_INFINITY);
                    ea.total_cmp(&eb)
                })
                .map(|(i, _)| i)
                .unwrap_or(0),
            BaseSelection::LowestElevation => measurements
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ea = a.elevation.unwrap_or(f64::INFINITY);
                    let eb = b.elevation.unwrap_or(f64::INFINITY);
                    ea.total_cmp(&eb)
                })
                .map(|(i, _)| i)
                .unwrap_or(0),
            BaseSelection::ShortestRange => measurements
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.pseudorange.total_cmp(&b.pseudorange))
                .map(|(i, _)| i)
                .unwrap_or(0),
            BaseSelection::BestConditioned => {
                if measurements.len() < 4 {
                    // Fewer rows than unknowns: every base is singular;
                    // fall back to the first.
                    return 0;
                }
                // One κ per candidate; ties keep the first index.
                (0..measurements.len())
                    .map(|b| (b, base_condition(measurements, b)))
                    .min_by(|(_, ka), (_, kb)| ka.total_cmp(kb))
                    .map_or(0, |(b, _)| b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_geodesy::Ecef;

    fn meas(el: Option<f64>, range: f64) -> Measurement {
        let mut m = Measurement::new(Ecef::new(range, 0.0, 0.0), range);
        m.elevation = el;
        m
    }

    #[test]
    fn first_is_index_zero() {
        let ms = vec![meas(Some(0.1), 3.0), meas(Some(0.9), 2.0)];
        assert_eq!(BaseSelection::First.select(&ms), 0);
    }

    #[test]
    fn highest_and_lowest_elevation() {
        let ms = vec![
            meas(Some(0.3), 3.0),
            meas(Some(1.2), 2.0),
            meas(Some(0.7), 1.0),
        ];
        assert_eq!(BaseSelection::HighestElevation.select(&ms), 1);
        assert_eq!(BaseSelection::LowestElevation.select(&ms), 0);
    }

    #[test]
    fn missing_elevations_lose() {
        let ms = vec![meas(None, 3.0), meas(Some(0.1), 2.0)];
        assert_eq!(BaseSelection::HighestElevation.select(&ms), 1);
        assert_eq!(BaseSelection::LowestElevation.select(&ms), 1);
    }

    #[test]
    fn shortest_range() {
        let ms = vec![meas(None, 3.0), meas(None, 1.5), meas(None, 2.0)];
        assert_eq!(BaseSelection::ShortestRange.select(&ms), 1);
    }

    #[test]
    #[should_panic(expected = "no measurements")]
    fn empty_input_panics() {
        let _ = BaseSelection::First.select(&[]);
    }

    #[test]
    fn default_is_first() {
        assert_eq!(BaseSelection::default(), BaseSelection::First);
    }

    #[test]
    fn best_conditioned_picks_valid_index_and_beats_worst() {
        use gps_geodesy::Ecef;
        // Five satellites, well spread except one near-duplicate pair.
        let positions = [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ];
        let ms: Vec<Measurement> = positions
            .iter()
            .map(|&p| Measurement::new(p, 2.2e7))
            .collect();
        let idx = BaseSelection::BestConditioned.select(&ms);
        assert!(idx < ms.len());
        // Its condition is minimal among all candidate bases.
        let best = base_condition(&ms, idx);
        for cand in 0..ms.len() {
            assert!(best <= base_condition(&ms, cand) + 1e-9);
        }
    }

    #[test]
    fn best_conditioned_falls_back_below_four() {
        let ms = vec![meas(None, 1.0), meas(None, 2.0), meas(None, 3.0)];
        assert_eq!(BaseSelection::BestConditioned.select(&ms), 0);
    }
}
