//! Per-route measurement time series.

use bti_physics::LogicLevel;
use serde::{Deserialize, Serialize};

use crate::analysis::{median_in_place, ols_fit, ols_slope, KernelEstimator, KernelRegression};

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

    /// The kernel-regression-smoothed series (the paper's plotting
    /// transform), with the given bandwidth in hours.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] for a bad
    /// bandwidth.
    pub fn smoothed(&self, bandwidth_hours: f64) -> Result<Vec<f64>, crate::PentimentoError> {
        let kr = KernelRegression::fit(
            &self.hours,
            &self.delta_ps,
            bandwidth_hours,
            KernelEstimator::LocallyLinear,
        )?;
        Ok(kr.smooth())
    }

    /// Robust copy of the series with gross outliers rejected: points
    /// whose residual from the OLS trend line sits more than `k` MADs
    /// from the median residual are dropped (a metastability burst or a
    /// thermal transient produces exactly such isolated spikes).
    ///
    /// Series with fewer than four points, or whose residual MAD
    /// degenerates to zero, are returned unchanged; the result always
    /// keeps at least half the points, falling back to the original when
    /// rejection would be that aggressive.
    #[must_use]
    pub fn mad_filtered(&self, k: f64) -> Self {
        // Every pass-through case (too short, degenerate MAD, nothing
        // rejected, over-aggressive rejection) funnels into this one
        // clone.
        self.filtered_points(k).unwrap_or_else(|| self.clone())
    }

    /// The actually-filtered series, or `None` when the original should
    /// be returned unchanged.
    fn filtered_points(&self, k: f64) -> Option<Self> {
        let n = self.len();
        if n < 4 {
            return None;
        }
        // Fit slope AND intercept: forcing the trend through the first
        // point (the old `d - slope * (h - t0)` residual) lets one noisy
        // first sample bias every residual, masking real outliers and
        // inventing fake ones. A full line fit makes the rejection
        // invariant under constant shifts of the series.
        let (slope, intercept) = ols_fit(&self.hours, &self.delta_ps);
        let residual = |i: usize| self.delta_ps[i] - (intercept + slope * self.hours[i]);
        // One scratch buffer serves both medians; selection permutes it,
        // so per-index values are recomputed from the closures instead of
        // read back out of it.
        let mut scratch: Vec<f64> = (0..n).map(residual).collect();
        let med = median_in_place(&mut scratch);
        let offset = |i: usize| (residual(i) - med).abs();
        for (i, slot) in scratch.iter_mut().enumerate() {
            *slot = offset(i);
        }
        let mad = median_in_place(&mut scratch);
        if mad <= f64::EPSILON {
            return None;
        }
        let mut hours = Vec::with_capacity(n);
        let mut delta_ps = Vec::with_capacity(n);
        for i in 0..n {
            if offset(i) <= k * mad {
                hours.push(self.hours[i]);
                // Already centered: copy the kept values as-is rather
                // than re-centering on a possibly-outlying new first
                // point.
                delta_ps.push(self.delta_ps[i]);
            }
        }
        if hours.len() == n || hours.len() * 2 < n {
            return None;
        }
        Some(Self {
            route_index: self.route_index,
            target_ps: self.target_ps,
            burn_value: self.burn_value,
            hours,
            delta_ps,
        })
    }

    /// Restricts the series to measurements at or after `from_hour`,
    /// re-centering on the first kept point (what the Threat Model 2
    /// attacker sees: nothing before they get the board).
    ///
    /// # Errors
    ///
    /// Returns [`crate::PentimentoError::InvalidConfig`] when `from_hour`
    /// is later than every measurement (an empty window).
    pub fn try_window_from(&self, from_hour: f64) -> Result<Self, crate::PentimentoError> {
        let mut hours = Vec::new();
        let mut raw = Vec::new();
        for (&h, &d) in self.hours.iter().zip(&self.delta_ps) {
            if h >= from_hour {
                hours.push(h);
                raw.push(d);
            }
        }
        if hours.is_empty() {
            return Err(crate::PentimentoError::InvalidConfig(format!(
                "window from {from_hour} h is empty: the series ends at {} h",
                self.hours.last().copied().unwrap_or(f64::NEG_INFINITY)
            )));
        }
        Self::try_from_raw(
            self.route_index,
            self.target_ps,
            self.burn_value,
            hours,
            raw,
        )
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
    fn window_recenters() {
        let s = RouteSeries::from_raw(
            3,
            2000.0,
            LogicLevel::Zero,
            vec![0.0, 100.0, 200.0, 201.0, 202.0],
            vec![0.0, -5.0, -10.0, -9.5, -9.0],
        );
        let w = s.try_window_from(200.0).expect("window is non-empty");
        assert_eq!(w.hours, vec![200.0, 201.0, 202.0]);
        assert_eq!(w.delta_ps, vec![0.0, 0.5, 1.0]);
        assert_eq!(w.route_index, 3);
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

    #[test]
    fn mad_filter_drops_an_isolated_spike() {
        let mut values: Vec<f64> = (0..12).map(|h| 0.5 * h as f64).collect();
        values[8] += 40.0; // burst artifact
        let noisy = series(&values);
        // The spike wrecks the plain slope estimate...
        assert!((noisy.slope_ps_per_hour() - 0.5).abs() > 0.2);
        let cleaned = noisy.mad_filtered(5.0);
        assert_eq!(cleaned.len(), 11, "exactly the spike removed");
        assert!((cleaned.slope_ps_per_hour() - 0.5).abs() < 0.05);
    }

    #[test]
    fn mad_filter_keeps_clean_series_intact() {
        let s = series(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.mad_filtered(5.0), s);
        // Too short to filter: returned unchanged.
        let short = series(&[0.0, 9.0, 1.0]);
        assert_eq!(short.mad_filtered(5.0), short);
    }

    #[test]
    fn mad_filter_survives_a_noisy_first_sample() {
        // A spiked FIRST point used to anchor the no-intercept trend line,
        // biasing every residual; the full line fit rejects exactly it.
        let mut values: Vec<f64> = (0..12).map(|h| 0.5 * h as f64).collect();
        values[0] -= 40.0;
        let noisy = RouteSeries {
            route_index: 0,
            target_ps: 1000.0,
            burn_value: LogicLevel::One,
            hours: (0..12).map(f64::from).collect(),
            delta_ps: values,
        };
        let cleaned = noisy.mad_filtered(5.0);
        assert_eq!(cleaned.len(), 11, "exactly the first-point spike removed");
        assert!((cleaned.slope_ps_per_hour() - 0.5).abs() < 0.05);
    }

    #[test]
    fn mad_filter_rejection_is_shift_invariant() {
        let mut values: Vec<f64> = (0..12).map(|h| 0.5 * h as f64).collect();
        values[8] += 40.0;
        let base = series(&values);
        let shifted = RouteSeries {
            delta_ps: base.delta_ps.iter().map(|d| d + 123.0).collect(),
            ..base.clone()
        };
        assert_eq!(
            base.mad_filtered(5.0).hours,
            shifted.mad_filtered(5.0).hours
        );
    }

    #[test]
    fn empty_window_is_a_typed_error_not_a_panic() {
        let s = series(&[0.0, 1.0, 2.0]);
        let err = s.try_window_from(10.0).unwrap_err();
        assert!(matches!(err, crate::PentimentoError::InvalidConfig(_)));
        // In-range windows still work through the fallible path.
        let w = s.try_window_from(1.0).expect("window exists");
        assert_eq!(w.hours, vec![1.0, 2.0]);
        assert_eq!(w.delta_ps, vec![0.0, 1.0]);
    }
}
