//! Traces and measurement summaries.

use fpga_fabric::{TransitionKind, CARRY_ELEMENT_PS};
use serde::{Deserialize, Serialize};

use crate::capture::is_saturated;
use crate::{CaptureWord, TdcError};

/// One polarity's samples reduced to what every reader of a trace needs:
/// their count and distance sum, over all samples and over the `valid`
/// ones, which carried timing information (distance neither 0 nor the
/// chain length).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Tally {
    samples: usize,
    total: usize,
    valid: usize,
    valid_total: usize,
}

impl Tally {
    /// Counts one sample of `distance` bits on a `len`-element chain.
    #[inline]
    pub(crate) fn add(&mut self, distance: usize, len: usize) {
        self.samples += 1;
        self.total += distance;
        if !is_saturated(distance, len) {
            self.valid += 1;
            self.valid_total += distance;
        }
    }
}

/// One trace: a short burst of samples of both polarities at a single θ.
///
/// Each polarity is held as sums over its samples' propagation
/// distances, which is all the Hamming post-processing reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    theta_ps: f64,
    rising: Tally,
    falling: Tally,
}

impl Trace {
    /// Builds a trace from captured words, tallying their distances.
    ///
    /// # Panics
    ///
    /// Panics if a word's polarity is not the one it is filed under, or
    /// if the words differ in length.
    #[must_use]
    pub fn new(theta_ps: f64, rising: Vec<CaptureWord>, falling: Vec<CaptureWord>) -> Self {
        let len = rising
            .iter()
            .chain(&falling)
            .next()
            .map_or(0, CaptureWord::len);
        let tally = |kind, words: &[CaptureWord]| {
            let mut tally = Tally::default();
            for w in words {
                assert_eq!(w.kind(), kind, "a {kind} trace holds {kind} words");
                assert_eq!(w.len(), len, "a trace's words share one length");
                tally.add(w.propagation_distance(), len);
            }
            tally
        };
        Self::from_tallies(
            theta_ps,
            tally(TransitionKind::Rising, &rising),
            tally(TransitionKind::Falling, &falling),
        )
    }

    /// Wraps the tallies of samples already captured.
    pub(crate) fn from_tallies(theta_ps: f64, rising: Tally, falling: Tally) -> Self {
        Self {
            theta_ps,
            rising,
            falling,
        }
    }

    /// The phase offset this trace was captured at.
    #[must_use]
    pub fn theta_ps(&self) -> f64 {
        self.theta_ps
    }

    fn tally(&self, kind: TransitionKind) -> Tally {
        match kind {
            TransitionKind::Rising => self.rising,
            TransitionKind::Falling => self.falling,
        }
    }

    /// Mean propagation distance (in carry bits) of one polarity across
    /// the trace's samples.
    #[must_use]
    pub fn mean_distance(&self, kind: TransitionKind) -> f64 {
        let t = self.tally(kind);
        if t.samples == 0 {
            return 0.0;
        }
        // Distances are small integers, so an integer total converts to
        // the same f64 as summing the distances as floats.
        t.total as f64 / t.samples as f64
    }

    /// Whether either polarity saturated in a majority of samples —
    /// meaning θ is mistuned and the trace is unusable.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        TransitionKind::ALL.into_iter().any(|kind| {
            let t = self.tally(kind);
            (t.samples - t.valid) * 2 > t.samples
        })
    }

    /// Quorum distance: the mean propagation distance of one polarity
    /// over the trace's **non-saturated** samples only, together with the
    /// fraction of samples that were usable.
    ///
    /// Returns `None` when every sample of the polarity saturated (a
    /// full-trace dropout) — the caller must treat the trace as missing
    /// rather than silently reading a distance of zero.
    #[must_use]
    pub fn quorum_distance(&self, kind: TransitionKind) -> Option<(f64, f64)> {
        let t = self.tally(kind);
        if t.valid == 0 {
            return None;
        }
        let mean = t.valid_total as f64 / t.valid as f64;
        Some((mean, t.valid as f64 / t.samples as f64))
    }

    /// The fraction of this trace's samples (worst polarity) that carried
    /// timing information.
    #[must_use]
    pub fn valid_fraction(&self) -> f64 {
        TransitionKind::ALL
            .into_iter()
            .map(|kind| self.quorum_distance(kind).map_or(0.0, |(_, frac)| frac))
            .fold(1.0, f64::min)
    }

    /// This trace's Δps estimate: `(rising − falling distance) ×
    /// 2.8 ps/bit`.
    ///
    /// A *larger* propagation distance means the edge arrived *earlier*
    /// (shorter route delay), so fall−rise **delay** equals rise−fall
    /// **distance** converted to time.
    #[must_use]
    pub fn delta_ps(&self) -> f64 {
        (self.mean_distance(TransitionKind::Rising) - self.mean_distance(TransitionKind::Falling))
            * CARRY_ELEMENT_PS
    }
}

/// A full measurement: the aggregate of several traces captured while θ
/// steps downward from `θ_init` (the paper averages ten).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// The θ of the first trace (the calibrated θ_init).
    pub theta_init_ps: f64,
    /// Mean rising-edge propagation distance across traces, in bits.
    pub rise_distance_bits: f64,
    /// Mean falling-edge propagation distance across traces, in bits.
    pub fall_distance_bits: f64,
    /// The paper's observable: falling minus rising route delay, in
    /// picoseconds, averaged across traces.
    pub delta_ps: f64,
    /// Estimated absolute rising-edge route delay, in picoseconds.
    pub rise_delay_ps: f64,
    /// Estimated absolute falling-edge route delay, in picoseconds.
    pub fall_delay_ps: f64,
    /// Number of traces aggregated.
    pub trace_count: usize,
}

/// One trace reduced to what aggregation needs: its θ and the mean
/// propagation distance of each polarity, each computed once.
#[derive(Debug, Clone, Copy)]
struct TraceDistances {
    theta_ps: f64,
    rise: f64,
    fall: f64,
}

impl TraceDistances {
    fn delta_ps(&self) -> f64 {
        (self.rise - self.fall) * CARRY_ELEMENT_PS
    }
}

impl Measurement {
    /// Aggregates traces into a measurement.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[must_use]
    pub fn from_traces(traces: &[Trace]) -> Self {
        assert!(!traces.is_empty(), "a measurement needs at least one trace");
        let rows: Vec<TraceDistances> = traces
            .iter()
            .map(|t| TraceDistances {
                theta_ps: t.theta_ps(),
                rise: t.mean_distance(TransitionKind::Rising),
                fall: t.mean_distance(TransitionKind::Falling),
            })
            .collect();
        Self::aggregate(&rows)
    }

    /// Robust aggregation for hostile capture paths: per-sample quorum
    /// filtering inside each trace, then MAD outlier rejection across the
    /// surviving traces' Δps estimates.
    ///
    /// A trace survives stage one only if, for both polarities, at least
    /// `min_quorum` of its samples carried timing information (dropouts
    /// and saturated words are excluded from the mean rather than pulling
    /// it toward zero). Stage two drops traces whose Δps estimate sits
    /// more than 5 MADs from the median — a metastability burst wrecks a
    /// whole trace, and one wrecked trace must not shift the measurement.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::Dropout`] when fewer than half the input
    /// traces (and at least one) survive both stages.
    pub fn try_from_traces(traces: &[Trace], min_quorum: f64) -> Result<Self, TdcError> {
        let required = (traces.len() / 2).max(1);
        let usable: Vec<TraceDistances> = traces
            .iter()
            .filter_map(|t| {
                let (rise, rise_frac) = t.quorum_distance(TransitionKind::Rising)?;
                let (fall, fall_frac) = t.quorum_distance(TransitionKind::Falling)?;
                (rise_frac.min(fall_frac) >= min_quorum).then_some(TraceDistances {
                    theta_ps: t.theta_ps(),
                    rise,
                    fall,
                })
            })
            .collect();
        let deltas: Vec<f64> = usable.iter().map(TraceDistances::delta_ps).collect();
        let keep = mad_inlier_mask(&deltas, 5.0);
        let kept: Vec<TraceDistances> = usable
            .iter()
            .zip(&keep)
            .filter_map(|(u, &k)| k.then_some(*u))
            .collect();
        if kept.len() < required {
            return Err(TdcError::Dropout {
                usable_traces: kept.len(),
                required_traces: required,
            });
        }
        Ok(Self::aggregate(&kept))
    }

    /// Averages non-empty per-trace distances into a measurement. The
    /// absolute delay estimate is route delay = θ − distance·2.8 ps.
    fn aggregate(rows: &[TraceDistances]) -> Self {
        let n = rows.len() as f64;
        let mean = |f: fn(&TraceDistances) -> f64| rows.iter().map(f).sum::<f64>() / n;
        Self {
            theta_init_ps: rows[0].theta_ps,
            rise_distance_bits: mean(|r| r.rise),
            fall_distance_bits: mean(|r| r.fall),
            delta_ps: mean(TraceDistances::delta_ps),
            rise_delay_ps: mean(|r| r.theta_ps - r.rise * CARRY_ELEMENT_PS),
            fall_delay_ps: mean(|r| r.theta_ps - r.fall * CARRY_ELEMENT_PS),
            trace_count: rows.len(),
        }
    }
}

/// Marks which values sit within `k` MADs of the median (all of them when
/// the MAD degenerates to zero).
fn mad_inlier_mask(values: &[f64], k: f64) -> Vec<bool> {
    if values.is_empty() {
        return Vec::new();
    }
    // One scratch buffer carries both selection medians; it is permuted
    // by the selection, so the inlier test recomputes spreads from
    // `values` instead of reading the buffer back.
    let mut scratch = values.to_vec();
    let med = select_median(&mut scratch);
    for (slot, v) in scratch.iter_mut().zip(values) {
        *slot = (v - med).abs();
    }
    let mad = select_median(&mut scratch);
    if mad <= f64::EPSILON {
        return vec![true; values.len()];
    }
    values.iter().map(|v| (v - med).abs() <= k * mad).collect()
}

/// Median by in-place selection — O(n), permutes `values`. Equivalent to
/// sorting and averaging the middle: `select_nth_unstable_by` with
/// `total_cmp` places the true upper middle, and the even-length lower
/// middle is the maximum of the left partition.
fn select_median(values: &mut [f64]) -> f64 {
    let n = values.len();
    debug_assert!(n > 0, "caller screens the empty case");
    let mid = n / 2;
    let (left, upper, _) = values.select_nth_unstable_by(mid, f64::total_cmp);
    let upper = *upper;
    if !n.is_multiple_of(2) {
        upper
    } else {
        let lower = left
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .expect("even length ≥ 2 leaves a non-empty left partition");
        (lower + upper) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front_word(kind: TransitionKind, len: usize, front: usize) -> CaptureWord {
        let bits = (0..len)
            .map(|i| match kind {
                TransitionKind::Rising => i < front,
                TransitionKind::Falling => i >= front,
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    fn trace(theta: f64, rise_front: usize, fall_front: usize) -> Trace {
        Trace::new(
            theta,
            vec![front_word(TransitionKind::Rising, 64, rise_front); 4],
            vec![front_word(TransitionKind::Falling, 64, fall_front); 4],
        )
    }

    #[test]
    fn delta_sign_convention() {
        // Falling edge penetrated less far (22) than rising (39): the
        // falling edge is slower, so Δps = fall − rise delay is positive.
        let t = trace(500.0, 39, 22);
        assert!(t.delta_ps() > 0.0);
        assert!((t.delta_ps() - (39.0 - 22.0) * CARRY_ELEMENT_PS).abs() < 1e-9);
    }

    #[test]
    fn measurement_aggregates_means() {
        let traces = vec![trace(500.0, 40, 40), trace(497.2, 39, 39)];
        let m = Measurement::from_traces(&traces);
        assert!((m.rise_distance_bits - 39.5).abs() < 1e-9);
        assert!((m.delta_ps).abs() < 1e-9);
        assert_eq!(m.trace_count, 2);
        assert_eq!(m.theta_init_ps, 500.0);
    }

    #[test]
    fn absolute_delay_estimate() {
        // θ = 500, distance 40 bits → delay ≈ 500 − 112 = 388 ps.
        let m = Measurement::from_traces(&[trace(500.0, 40, 40)]);
        assert!((m.rise_delay_ps - (500.0 - 40.0 * CARRY_ELEMENT_PS)).abs() < 1e-9);
        assert!((m.rise_delay_ps - m.fall_delay_ps).abs() < 1e-9);
    }

    #[test]
    fn saturation_flag() {
        let good = trace(500.0, 30, 30);
        assert!(!good.is_saturated());
        let bad = trace(500.0, 0, 30);
        assert!(bad.is_saturated());
        let overrun = trace(500.0, 64, 64);
        assert!(overrun.is_saturated());
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_measurement_panics() {
        let _ = Measurement::from_traces(&[]);
    }

    #[test]
    fn quorum_distance_ignores_dropped_samples() {
        // 4 good samples at front 30 plus 2 dropouts (front 0).
        let mut rising = vec![front_word(TransitionKind::Rising, 64, 30); 4];
        rising.extend(vec![front_word(TransitionKind::Rising, 64, 0); 2]);
        let t = Trace::new(
            500.0,
            rising,
            vec![front_word(TransitionKind::Falling, 64, 30); 6],
        );
        // The plain mean is dragged toward zero by the dropouts...
        assert!(t.mean_distance(TransitionKind::Rising) < 21.0);
        // ...the quorum mean is not.
        let (dist, frac) = t.quorum_distance(TransitionKind::Rising).unwrap();
        assert!((dist - 30.0).abs() < 1e-9);
        assert!((frac - 4.0 / 6.0).abs() < 1e-9);
        assert!((t.valid_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn try_from_traces_rejects_burst_outlier() {
        // Four agreeing traces and one wrecked by a burst (Δ far off).
        let traces = vec![
            trace(500.0, 40, 30),
            trace(497.2, 39, 30),
            trace(494.4, 41, 30),
            trace(491.6, 40, 30),
            trace(488.8, 60, 10),
        ];
        let m = Measurement::try_from_traces(&traces, 0.5).unwrap();
        assert_eq!(m.trace_count, 4, "outlier dropped");
        assert!((m.delta_ps - 10.0 * CARRY_ELEMENT_PS).abs() < 1e-9);
    }

    #[test]
    fn try_from_traces_errors_when_quorum_collapses() {
        // Every trace fully saturated: nothing usable.
        let dead = Trace::new(
            500.0,
            vec![front_word(TransitionKind::Rising, 64, 0); 4],
            vec![front_word(TransitionKind::Falling, 64, 0); 4],
        );
        let err = Measurement::try_from_traces(&[dead.clone(), dead], 0.5).unwrap_err();
        assert!(matches!(
            err,
            TdcError::Dropout {
                usable_traces: 0,
                required_traces: 1
            }
        ));
        assert!(err.is_transient());
    }

    #[test]
    fn try_from_traces_matches_plain_aggregation_when_clean() {
        let traces = vec![trace(500.0, 40, 30), trace(497.2, 39, 29)];
        let robust = Measurement::try_from_traces(&traces, 0.5).unwrap();
        let plain = Measurement::from_traces(&traces);
        assert!((robust.delta_ps - plain.delta_ps).abs() < 1e-9);
        assert!((robust.rise_delay_ps - plain.rise_delay_ps).abs() < 1e-9);
        assert_eq!(robust.trace_count, plain.trace_count);
    }
}
