//! Bit classifiers: turning Δps time series back into secret bits.

use bti_physics::{AgingArena, BtiModel, Celsius, Hours, LogicLevel};
use serde::{Deserialize, Serialize};

use crate::RouteSeries;

/// The outcome of a scored classification: a bit, or a refusal to guess.
///
/// Under fault injection a series can be too short, too noisy, or too
/// gap-ridden to carry a signal; a classifier that must answer anyway
/// turns silent data corruption into silent key corruption. `Abstain`
/// makes "I can't tell" an explicit, countable outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The route previously held logical 0.
    Zero,
    /// The route previously held logical 1.
    One,
    /// The evidence does not support either call.
    Abstain,
}

impl Verdict {
    /// Wraps a hard decision.
    #[must_use]
    fn from_level(level: LogicLevel) -> Self {
        match level {
            LogicLevel::Zero => Self::Zero,
            LogicLevel::One => Self::One,
        }
    }

    /// The decided level, if the classifier did not abstain.
    #[must_use]
    pub fn level(self) -> Option<LogicLevel> {
        match self {
            Self::Zero => Some(LogicLevel::Zero),
            Self::One => Some(LogicLevel::One),
            Self::Abstain => None,
        }
    }

    /// Whether the classifier refused to guess.
    #[must_use]
    pub fn is_abstain(self) -> bool {
        matches!(self, Self::Abstain)
    }

    /// Whether this verdict names `truth` (an abstention never does).
    #[must_use]
    #[cfg(test)]
    fn agrees_with(self, truth: LogicLevel) -> bool {
        self.level() == Some(truth)
    }
}

/// A scored classification: the verdict plus the strength of the
/// evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Classification {
    /// The decision (possibly an abstention).
    pub verdict: Verdict,
    /// Evidence strength in `[0, 1]`: 0 = coin flip, 1 = unambiguous.
    pub confidence: f64,
}

/// A rule that recovers the burn value of one route from its measured
/// series.
pub trait BitClassifier {
    /// Classifies one series into the bit it most likely held.
    fn classify(&self, series: &RouteSeries) -> LogicLevel;

    /// Classifies a batch.
    fn classify_all(&self, series: &[RouteSeries]) -> Vec<LogicLevel> {
        series.iter().map(|s| self.classify(s)).collect()
    }

    /// Scored classification: the verdict plus a confidence in `[0, 1]`,
    /// abstaining when the evidence is statistically indistinguishable
    /// from noise.
    ///
    /// The default implementation never abstains and reports full
    /// confidence — classifiers with a real evidence measure override it.
    fn classify_scored(&self, series: &RouteSeries) -> Classification {
        Classification {
            verdict: Verdict::from_level(self.classify(series)),
            confidence: 1.0,
        }
    }

    /// Scored classification of a batch.
    fn classify_all_scored(&self, series: &[RouteSeries]) -> Vec<Classification> {
        series.iter().map(|s| self.classify_scored(s)).collect()
    }
}

/// Slope, its standard error, and the derived confidence machinery shared
/// by the slope-based classifiers: the t-statistic of the slope against a
/// threshold, squashed into `[0, 1)`.
///
/// With fewer than three points (no residual degrees of freedom) or a
/// degenerate time axis the evidence is undefined and `None` is returned
/// — callers abstain.
fn slope_t_statistic(series: &RouteSeries, threshold: f64) -> Option<f64> {
    let n = series.len();
    if n < 3 {
        return None;
    }
    let xs = &series.hours;
    let ys = &series.delta_ps;
    let nf = n as f64;
    let x_mean = xs.iter().sum::<f64>() / nf;
    let y_mean = ys.iter().sum::<f64>() / nf;
    let sxx: f64 = xs.iter().map(|x| (x - x_mean).powi(2)).sum();
    if sxx <= f64::EPSILON {
        return None;
    }
    let slope = series.slope_ps_per_hour();
    let intercept = y_mean - slope * x_mean;
    let sse: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| (y - intercept - slope * x).powi(2))
        .sum();
    let se = (sse / (nf - 2.0) / sxx).sqrt();
    if se <= f64::EPSILON {
        // A perfectly straight line: infinitely strong evidence unless it
        // sits exactly on the threshold.
        return Some(if (slope - threshold).abs() <= f64::EPSILON {
            0.0
        } else {
            f64::INFINITY
        });
    }
    Some((slope - threshold).abs() / se)
}

/// Maps a t-statistic to a confidence in `[0, 1)`; abstain below
/// `ABSTAIN_T`.
fn confidence_from_t(t: f64) -> f64 {
    if t.is_infinite() {
        return 1.0;
    }
    t / (t + 2.0)
}

/// Slope t-statistics below this mean the sign of the slope is noise.
const ABSTAIN_T: f64 = 0.5;

/// Threat Model 1 classifier: the sign of the Δps drift during burn-in.
///
/// Burn-1 routes drift positive (PBTI slows falling edges); burn-0 routes
/// drift negative. The paper's Figures 6 and 7: "burn 0 (cyan) decreasing
/// immediately from hour zero and burn 1 (magenta) increasing".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DriftSlopeClassifier {
    /// Optional decision offset in ps/hour (0.0 = pure sign test).
    pub bias_ps_per_hour: f64,
}

impl DriftSlopeClassifier {
    /// A pure sign-of-slope classifier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl BitClassifier for DriftSlopeClassifier {
    fn classify(&self, series: &RouteSeries) -> LogicLevel {
        LogicLevel::from_bool(series.slope_ps_per_hour() > self.bias_ps_per_hour)
    }

    fn classify_scored(&self, series: &RouteSeries) -> Classification {
        match slope_t_statistic(series, self.bias_ps_per_hour) {
            Some(t) if t >= ABSTAIN_T => Classification {
                verdict: Verdict::from_level(self.classify(series)),
                confidence: confidence_from_t(t),
            },
            Some(t) => Classification {
                verdict: Verdict::Abstain,
                confidence: confidence_from_t(t),
            },
            None => Classification {
                verdict: Verdict::Abstain,
                confidence: 0.0,
            },
        }
    }
}

/// Threat Model 2 classifier: the recovery slope after the attacker
/// conditions everything to logical 0.
///
/// Routes that previously held 1 undergo fast PBTI recovery and drop
/// sharply; routes that held 0 continue their slow NBTI drift and stay
/// comparatively flat. The decision threshold is calibrated on the
/// *attacker's own* reference hardware model — no victim data needed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoverySlopeClassifier {
    /// Decision threshold in ps/hour *per picosecond of route length*;
    /// slopes below `threshold × target_ps` classify as a previous 1.
    pub threshold_per_ps: f64,
}

impl RecoverySlopeClassifier {
    /// Calibrates the threshold by simulating the attack scenario on a
    /// reference aging model: burn `burn_hours` at `burn_temperature`
    /// (the victim's hot, Arithmetic-Heavy die), then watch
    /// `window_hours` of recovery under logical 0 at `attack_temperature`
    /// (the attacker's cooler conditioning design), and place the
    /// threshold halfway between the expected burn-1 and burn-0 recovery
    /// slopes.
    ///
    /// `wear_estimate` is the attacker's guess of the victim device's
    /// fresh-stress sensitivity factor (≈0.1 for a years-old F1 board).
    /// The midpoint rule is robust to this guess being off by a factor of
    /// a few: the burn-1 slope dwarfs the burn-0 slope.
    #[must_use]
    pub fn calibrated(
        model: &BtiModel,
        burn_hours: f64,
        window_hours: f64,
        burn_temperature: Celsius,
        attack_temperature: Celsius,
        wear_estimate: f64,
    ) -> Self {
        let unit = 1_000.0; // reference route length, ps
        let slope_for = |level: LogicLevel| -> f64 {
            let mut route = burned_reference(model, level, burn_hours, burn_temperature);
            let delta =
                |route: &AgingArena| route.view_at(0).delta_ps_scaled(model, unit, wear_estimate);
            let start = delta(&route);
            let zero = LogicLevel::Zero.duty();
            route.advance_slot(0, model, Hours::new(window_hours), zero, attack_temperature);
            (delta(&route) - start) / window_hours
        };
        let s1 = slope_for(LogicLevel::One);
        let s0 = slope_for(LogicLevel::Zero);
        Self {
            threshold_per_ps: (s1 + s0) / 2.0 / unit,
        }
    }
}

/// The attacker's reference route for calibration: a one-slot arena
/// (slot 0) held at `level` for `burn_hours` at `burn_temperature`.
fn burned_reference(
    model: &BtiModel,
    level: LogicLevel,
    burn_hours: f64,
    burn_temperature: Celsius,
) -> AgingArena {
    let mut route = AgingArena::new(model);
    let slot = route.ensure(0);
    route.advance_slot(
        slot,
        model,
        Hours::new(burn_hours),
        level.duty(),
        burn_temperature,
    );
    route
}

impl BitClassifier for RecoverySlopeClassifier {
    fn classify(&self, series: &RouteSeries) -> LogicLevel {
        let threshold = self.threshold_per_ps * series.target_ps;
        LogicLevel::from_bool(series.slope_ps_per_hour() < threshold)
    }

    fn classify_scored(&self, series: &RouteSeries) -> Classification {
        let threshold = self.threshold_per_ps * series.target_ps;
        match slope_t_statistic(series, threshold) {
            Some(t) if t >= ABSTAIN_T => Classification {
                verdict: Verdict::from_level(self.classify(series)),
                confidence: confidence_from_t(t),
            },
            Some(t) => Classification {
                verdict: Verdict::Abstain,
                confidence: confidence_from_t(t),
            },
            None => Classification {
                verdict: Verdict::Abstain,
                confidence: 0.0,
            },
        }
    }
}

/// Threat Model 2 classifier using a **matched filter**: correlate the
/// observed recovery window against the *expected* burn-1 and burn-0
/// recovery templates (simulated from the attacker's reference model) and
/// pick the closer one.
///
/// A straight-line (OLS) fit is the optimal detector only when the signal
/// is a line; the true burn-1 recovery is a curved exponential-ish decay,
/// so matching against the real template squeezes a little more SNR out
/// of the same measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedFilterClassifier {
    /// Expected centered Δps template per picosecond of route length if
    /// the route previously held 1, one entry per observation hour.
    template_one_per_ps: Vec<f64>,
    /// The same for a previous 0.
    template_zero_per_ps: Vec<f64>,
}

impl MatchedFilterClassifier {
    /// Builds the templates by simulating the attack scenario on the
    /// reference model at hourly resolution over `window_hours`.
    #[must_use]
    pub fn calibrated(
        model: &BtiModel,
        burn_hours: f64,
        window_hours: usize,
        burn_temperature: Celsius,
        attack_temperature: Celsius,
        wear_estimate: f64,
    ) -> Self {
        let unit = 1_000.0;
        let template_for = |level: LogicLevel| -> Vec<f64> {
            let mut route = burned_reference(model, level, burn_hours, burn_temperature);
            let delta =
                |route: &AgingArena| route.view_at(0).delta_ps_scaled(model, unit, wear_estimate);
            let origin = delta(&route);
            let mut template = vec![0.0];
            for _ in 0..window_hours {
                let zero = LogicLevel::Zero.duty();
                route.advance_slot(0, model, Hours::new(1.0), zero, attack_temperature);
                template.push((delta(&route) - origin) / unit);
            }
            template
        };
        Self {
            template_one_per_ps: template_for(LogicLevel::One),
            template_zero_per_ps: template_for(LogicLevel::Zero),
        }
    }

    /// The burn-1 template (per ps of route length).
    #[must_use]
    pub fn template_one(&self) -> &[f64] {
        &self.template_one_per_ps
    }

    /// The burn-0 template (per ps of route length).
    #[must_use]
    pub fn template_zero(&self) -> &[f64] {
        &self.template_zero_per_ps
    }

    fn distance(series: &RouteSeries, template_per_ps: &[f64]) -> f64 {
        // Compare at matching sample positions: the series' hours are
        // offsets into the recovery window; interpolate the template.
        let interp = |t: f64| -> f64 {
            if template_per_ps.len() < 2 {
                return template_per_ps.first().copied().unwrap_or(0.0);
            }
            let max_idx = (template_per_ps.len() - 1) as f64;
            let pos = t.clamp(0.0, max_idx);
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            template_per_ps[lo] + (template_per_ps[hi] - template_per_ps[lo]) * frac
        };
        let t0 = series.hours.first().copied().unwrap_or(0.0);
        // Offset-invariant residual energy: the series is centered on its
        // first (noisy) sample, so fit the nuisance DC offset out before
        // scoring — otherwise one noisy anchor sample dominates the
        // distance and the filter loses to a plain slope fit.
        let residuals: Vec<f64> = series
            .hours
            .iter()
            .zip(&series.delta_ps)
            .map(|(&h, &d)| d - interp(h - t0) * series.target_ps)
            .collect();
        let mean = residuals.iter().sum::<f64>() / residuals.len().max(1) as f64;
        residuals.iter().map(|r| (r - mean).powi(2)).sum::<f64>()
    }
}

impl BitClassifier for MatchedFilterClassifier {
    fn classify(&self, series: &RouteSeries) -> LogicLevel {
        let d1 = Self::distance(series, &self.template_one_per_ps);
        let d0 = Self::distance(series, &self.template_zero_per_ps);
        LogicLevel::from_bool(d1 < d0)
    }

    fn classify_scored(&self, series: &RouteSeries) -> Classification {
        let d1 = Self::distance(series, &self.template_one_per_ps);
        let d0 = Self::distance(series, &self.template_zero_per_ps);
        let total = d0 + d1;
        if series.is_empty() || !total.is_finite() || total <= f64::EPSILON {
            return Classification {
                verdict: Verdict::Abstain,
                confidence: 0.0,
            };
        }
        // Relative residual-energy margin: 0 when the templates explain
        // the series equally badly, →1 when one fits far better.
        let margin = (d0 - d1).abs() / total;
        if margin < 0.02 {
            return Classification {
                verdict: Verdict::Abstain,
                confidence: margin,
            };
        }
        Classification {
            verdict: Verdict::from_level(LogicLevel::from_bool(d1 < d0)),
            confidence: margin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(target_ps: f64, truth: LogicLevel, deltas: &[f64]) -> RouteSeries {
        RouteSeries::from_raw(
            0,
            target_ps,
            truth,
            (0..deltas.len()).map(|h| h as f64).collect(),
            deltas.to_vec(),
        )
    }

    #[test]
    fn drift_classifier_follows_slope_sign() {
        let c = DriftSlopeClassifier::new();
        let up = series(1000.0, LogicLevel::One, &[0.0, 0.5, 1.0, 1.5]);
        let down = series(1000.0, LogicLevel::Zero, &[0.0, -0.5, -1.0, -1.5]);
        assert_eq!(c.classify(&up), LogicLevel::One);
        assert_eq!(c.classify(&down), LogicLevel::Zero);
    }

    #[test]
    fn recovery_classifier_threshold_is_negative() {
        // Both recovery slopes are ≤ 0 (everything is conditioned to 0);
        // the midpoint threshold must be negative and closer to 0 than the
        // full burn-1 recovery slope.
        let model = BtiModel::ultrascale_plus();
        let c = RecoverySlopeClassifier::calibrated(
            &model,
            200.0,
            25.0,
            Celsius::new(60.0),
            Celsius::new(60.0),
            1.0,
        );
        assert!(c.threshold_per_ps < 0.0, "threshold {}", c.threshold_per_ps);
    }

    #[test]
    fn recovery_classifier_separates_synthetic_slopes() {
        let model = BtiModel::ultrascale_plus();
        let c = RecoverySlopeClassifier::calibrated(
            &model,
            200.0,
            25.0,
            Celsius::new(60.0),
            Celsius::new(60.0),
            1.0,
        );
        // Burn-1 route: fast drop (≈ full recovery of ~10 ps over 25 h on
        // 10000 ps route); burn-0 route: nearly flat.
        let was_one = series(
            10_000.0,
            LogicLevel::One,
            &(0..25).map(|h| -0.35 * h as f64).collect::<Vec<_>>(),
        );
        let was_zero = series(
            10_000.0,
            LogicLevel::Zero,
            &(0..25).map(|h| -0.01 * h as f64).collect::<Vec<_>>(),
        );
        assert_eq!(c.classify(&was_one), LogicLevel::One);
        assert_eq!(c.classify(&was_zero), LogicLevel::Zero);
    }

    fn matched_filter() -> MatchedFilterClassifier {
        let model = BtiModel::ultrascale_plus();
        MatchedFilterClassifier::calibrated(
            &model,
            200.0,
            25,
            Celsius::new(60.0),
            Celsius::new(60.0),
            1.0,
        )
    }

    #[test]
    fn matched_filter_templates_have_the_right_shapes() {
        let mf = matched_filter();
        // Burn-1 template: strong downward recovery transient.
        let one = mf.template_one();
        assert_eq!(one.len(), 26);
        assert_eq!(one[0], 0.0);
        assert!(one[25] < -2e-4, "burn-1 template end {}", one[25]);
        // Burn-0 template: nearly flat continued drift.
        let zero = mf.template_zero();
        assert!(zero[25].abs() < 0.3 * one[25].abs());
    }

    #[test]
    fn matched_filter_separates_template_shaped_series() {
        let mf = matched_filter();
        let make = |template: &[f64]| {
            RouteSeries::from_raw(
                0,
                10_000.0,
                LogicLevel::One, // label irrelevant to the classifier
                (0..26).map(f64::from).collect(),
                template.iter().map(|v| v * 10_000.0).collect(),
            )
        };
        let was_one = make(mf.template_one());
        let was_zero = make(mf.template_zero());
        assert_eq!(mf.classify(&was_one), LogicLevel::One);
        assert_eq!(mf.classify(&was_zero), LogicLevel::Zero);
    }

    #[test]
    fn matched_filter_tolerates_sparse_sampling() {
        let mf = matched_filter();
        // Sample the burn-1 template every 5 hours only.
        let hours: Vec<f64> = (0..=5).map(|i| f64::from(i) * 5.0).collect();
        let deltas: Vec<f64> = hours
            .iter()
            .map(|&h| mf.template_one()[h as usize] * 10_000.0)
            .collect();
        let series = RouteSeries::from_raw(0, 10_000.0, LogicLevel::One, hours, deltas);
        assert_eq!(mf.classify(&series), LogicLevel::One);
    }

    #[test]
    fn scored_drift_classifier_is_confident_on_clean_trends() {
        let c = DriftSlopeClassifier::new();
        let clean = series(1000.0, LogicLevel::One, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let scored = c.classify_scored(&clean);
        assert_eq!(scored.verdict, Verdict::One);
        assert!(scored.confidence > 0.9, "confidence {}", scored.confidence);
        assert!(scored.verdict.agrees_with(LogicLevel::One));
    }

    #[test]
    fn scored_drift_classifier_abstains_on_noise() {
        let c = DriftSlopeClassifier::new();
        // Pure oscillation: slope indistinguishable from zero.
        let noise = series(
            1000.0,
            LogicLevel::One,
            &[0.0, 2.0, -2.0, 2.0, -2.0, 2.0, -2.0, 2.0],
        );
        let scored = c.classify_scored(&noise);
        assert!(scored.verdict.is_abstain());
        assert!(scored.confidence < 0.3, "confidence {}", scored.confidence);
        assert!(!scored.verdict.agrees_with(LogicLevel::One));
        assert_eq!(scored.verdict.level(), None);
    }

    #[test]
    fn scored_classifier_abstains_on_degenerate_series() {
        let c = DriftSlopeClassifier::new();
        let two_points = series(1000.0, LogicLevel::One, &[0.0, 1.0]);
        let scored = c.classify_scored(&two_points);
        assert!(scored.verdict.is_abstain());
        assert_eq!(scored.confidence, 0.0);
    }

    #[test]
    fn scored_recovery_classifier_separates_and_scores() {
        let model = BtiModel::ultrascale_plus();
        let c = RecoverySlopeClassifier::calibrated(
            &model,
            200.0,
            25.0,
            Celsius::new(60.0),
            Celsius::new(60.0),
            1.0,
        );
        let was_one = series(
            10_000.0,
            LogicLevel::One,
            &(0..25).map(|h| -0.35 * h as f64).collect::<Vec<_>>(),
        );
        let scored = c.classify_scored(&was_one);
        assert_eq!(scored.verdict, Verdict::One);
        assert!(scored.confidence > 0.9);
    }

    #[test]
    fn scored_matched_filter_reports_margin() {
        let mf = matched_filter();
        let make = |template: &[f64]| {
            RouteSeries::from_raw(
                0,
                10_000.0,
                LogicLevel::One,
                (0..26).map(f64::from).collect(),
                template.iter().map(|v| v * 10_000.0).collect(),
            )
        };
        let scored = mf.classify_scored(&make(mf.template_one()));
        assert_eq!(scored.verdict, Verdict::One);
        assert!(scored.confidence > 0.5, "margin {}", scored.confidence);
        // The midpoint of the two templates is equidistant from both:
        // the filter must abstain rather than flip a coin.
        let midpoint: Vec<f64> = mf
            .template_one()
            .iter()
            .zip(mf.template_zero())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        let ambiguous = mf.classify_scored(&make(&midpoint));
        assert!(ambiguous.verdict.is_abstain(), "{ambiguous:?}");
        assert!(ambiguous.confidence < 0.02, "{ambiguous:?}");
    }

    #[test]
    fn classify_all_scored_maps_batches() {
        let c = DriftSlopeClassifier::new();
        let batch = vec![
            series(1000.0, LogicLevel::One, &[0.0, 1.0, 2.0, 3.0]),
            series(1000.0, LogicLevel::Zero, &[0.0, -1.0, -2.0, -3.0]),
        ];
        let scored = c.classify_all_scored(&batch);
        assert_eq!(scored[0].verdict, Verdict::One);
        assert_eq!(scored[1].verdict, Verdict::Zero);
    }

    #[test]
    fn classify_all_maps_batches() {
        let c = DriftSlopeClassifier::new();
        let batch = vec![
            series(1000.0, LogicLevel::One, &[0.0, 1.0]),
            series(1000.0, LogicLevel::Zero, &[0.0, -1.0]),
        ];
        assert_eq!(
            c.classify_all(&batch),
            vec![LogicLevel::One, LogicLevel::Zero]
        );
    }
}
