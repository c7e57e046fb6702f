//! Per-route measurement time series.

use bti_physics::LogicLevel;
use serde::{Deserialize, Serialize};

use crate::analysis::{ols_slope, smooth_local_linear};

/// The Δps time series of one route under test — one point per
/// measurement phase, centered at the first measurement exactly as the
/// paper centers its plots at hour zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteSeries {
    /// Index of the route within its experiment.
    pub route_index: usize,
    /// The route group's nominal length, in picoseconds.
    pub target_ps: f64,
    /// The ground-truth burn value conditioned into this route (the
    /// attacker does *not* see this; classifiers work from the series).
    pub burn_value: LogicLevel,
    /// Measurement times, in hours.
    pub hours: Vec<f64>,
    /// Centered Δps values (first measurement subtracted).
    pub delta_ps: Vec<f64>,
}

impl RouteSeries {
    /// Builds a centered series from raw sensor readings.
    ///
    /// # Panics
    ///
    /// Panics if `hours` and `raw_delta_ps` differ in length or are empty.
    /// Fallible callers (campaign runners fed by faulty sensors) use the
    /// crate-internal `try_from_raw` instead.
    #[must_use]
    pub fn from_raw(
        route_index: usize,
        target_ps: f64,
        burn_value: LogicLevel,
        hours: Vec<f64>,
        raw_delta_ps: Vec<f64>,
    ) -> Self {
        assert_eq!(hours.len(), raw_delta_ps.len(), "series lengths differ");
        assert!(!hours.is_empty(), "series must not be empty");
        match Self::try_from_raw(route_index, target_ps, burn_value, hours, raw_delta_ps) {
            Ok(series) => series,
            // Unreachable: the asserts above are the only failure modes.
            Err(e) => panic!("series construction failed: {e}"),
        }
    }

    /// Non-panicking [`from_raw`](Self::from_raw).
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] for mismatched
    /// lengths or an empty series.
    fn try_from_raw(
        route_index: usize,
        target_ps: f64,
        burn_value: LogicLevel,
        hours: Vec<f64>,
        raw_delta_ps: Vec<f64>,
    ) -> Result<Self, crate::PentimentoError> {
        if hours.len() != raw_delta_ps.len() {
            return Err(crate::PentimentoError::InvalidConfig(format!(
                "series lengths differ: {} hours vs {} readings",
                hours.len(),
                raw_delta_ps.len()
            )));
        }
        let origin = *raw_delta_ps.first().ok_or_else(|| {
            crate::PentimentoError::InvalidConfig("series must not be empty".to_owned())
        })?;
        let mut delta_ps = raw_delta_ps;
        for v in &mut delta_ps {
            *v -= origin;
        }
        Ok(Self {
            route_index,
            target_ps,
            burn_value,
            hours,
            delta_ps,
        })
    }

    /// Gap-tolerant constructor for campaigns under measurement faults:
    /// readings of `None` (a dropped measurement phase) are skipped, and
    /// the series centers on the first reading that actually exists.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] when fewer than
    /// two readings survive — a slope needs two points.
    pub fn from_observations(
        route_index: usize,
        target_ps: f64,
        burn_value: LogicLevel,
        observations: &[(f64, Option<f64>)],
    ) -> Result<Self, crate::PentimentoError> {
        let mut hours = Vec::new();
        let mut raw = Vec::new();
        for &(h, reading) in observations {
            if let Some(v) = reading {
                hours.push(h);
                raw.push(v);
            }
        }
        if hours.len() < 2 {
            return Err(crate::PentimentoError::InvalidConfig(format!(
                "only {} of {} measurement phases produced a reading; a series needs two",
                hours.len(),
                observations.len()
            )));
        }
        Self::try_from_raw(route_index, target_ps, burn_value, hours, raw)
    }

    /// Number of measurement points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hours.len()
    }

    /// Whether the series has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hours.is_empty()
    }

    /// The final centered Δps reading.
    #[must_use]
    pub fn last_delta_ps(&self) -> f64 {
        *self.delta_ps.last().expect("series is never empty")
    }

    /// OLS slope of the series, in picoseconds per hour.
    #[must_use]
    pub fn slope_ps_per_hour(&self) -> f64 {
        ols_slope(&self.hours, &self.delta_ps)
    }

    /// The series smoothed by [`smooth_local_linear`] (the paper's
    /// plotting transform), with the given bandwidth in hours.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] for a bad
    /// bandwidth.
    pub fn smoothed(&self, bandwidth_hours: f64) -> Result<Vec<f64>, crate::PentimentoError> {
        smooth_local_linear(&self.hours, &self.delta_ps, bandwidth_hours)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> RouteSeries {
        RouteSeries::from_raw(
            0,
            1000.0,
            LogicLevel::One,
            (0..values.len()).map(|h| h as f64).collect(),
            values.to_vec(),
        )
    }

    #[test]
    fn centering_subtracts_first_point() {
        let s = series(&[5.0, 6.0, 7.0]);
        assert_eq!(s.delta_ps, vec![0.0, 1.0, 2.0]);
        assert_eq!(s.last_delta_ps(), 2.0);
    }

    #[test]
    fn slope_matches_ols() {
        let s = series(&[0.0, 2.0, 4.0, 6.0]);
        assert!((s.slope_ps_per_hour() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_preserves_length() {
        let s = series(&[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        let sm = s.smoothed(2.0).unwrap();
        assert_eq!(sm.len(), s.len());
        // Smoothed mid-values sit near the oscillation mean.
        assert!((sm[3] - 0.55).abs() < 0.4);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_lengths_panic() {
        let _ = RouteSeries::from_raw(0, 1.0, LogicLevel::One, vec![0.0], vec![0.0, 1.0]);
    }

    #[test]
    fn try_from_raw_reports_bad_inputs_instead_of_panicking() {
        assert!(
            RouteSeries::try_from_raw(0, 1.0, LogicLevel::One, vec![0.0], vec![0.0, 1.0]).is_err()
        );
        assert!(RouteSeries::try_from_raw(0, 1.0, LogicLevel::One, vec![], vec![]).is_err());
        let ok = RouteSeries::try_from_raw(0, 1.0, LogicLevel::One, vec![0.0, 1.0], vec![2.0, 3.0])
            .unwrap();
        assert_eq!(ok.delta_ps, vec![0.0, 1.0]);
    }

    #[test]
    fn observations_skip_gaps_and_center_on_first_present() {
        let obs = [
            (0.0, None), // dropped phase
            (1.0, Some(5.0)),
            (2.0, None),
            (3.0, Some(7.0)),
            (4.0, Some(8.0)),
        ];
        let s = RouteSeries::from_observations(0, 1000.0, LogicLevel::One, &obs).unwrap();
        assert_eq!(s.hours, vec![1.0, 3.0, 4.0]);
        assert_eq!(s.delta_ps, vec![0.0, 2.0, 3.0]);
        // Too many gaps: error, not a bogus single-point series.
        let sparse = [(0.0, Some(1.0)), (1.0, None), (2.0, None)];
        assert!(RouteSeries::from_observations(0, 1000.0, LogicLevel::One, &sparse).is_err());
    }
}
