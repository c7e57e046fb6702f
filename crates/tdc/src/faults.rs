//! Measurement-level fault injection.
//!
//! Real TDC captures on rented hardware are not clean: readback DMA drops
//! words, carry elements come back stuck after partial reconfiguration,
//! and supply transients widen the metastable band for whole traces. A
//! [`SensorFaultPlan`] injects all three **deterministically**: every
//! decision is a pure hash of `(seed, θ, polarity, sample, element)`, so a
//! faulty capture replays bit-identically and never perturbs the sensor's
//! own noise RNG — a benign plan leaves the sensor byte-identical to one
//! with no plan at all.
//!
//! Each fault is stated on the register word but applied to the sample's
//! propagation distance, the one number a trace keeps: a dropout reads 0,
//! a flipped bit moves the distance by one, and a stuck element counts by
//! its fixed value instead of its captured one. The element-by-element
//! corruption of a `Vec<bool>` word stays in the tests as the oracle.
//!
//! The matching graceful-degradation machinery lives in
//! [`Measurement::try_from_traces`](crate::Measurement::try_from_traces)
//! (per-sample quorum + MAD outlier rejection across traces).

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

use crate::capture::Capture;

/// A seeded, deterministic description of how corrupted captures are.
///
/// All rates are probabilities in `[0, 1]`. The default
/// ([`SensorFaultPlan::none`]) injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Per-sample probability the captured word is lost (reads back as if
    /// the edge never entered the chain — a saturated, zero-distance
    /// word the quorum filter can reject).
    pub dropout_rate: f64,
    /// Per-element probability a carry element's capture register is
    /// stuck at a fixed value for the sensor's lifetime.
    pub stuck_element_rate: f64,
    /// Per-trace probability of a metastability burst: every bit within
    /// the burst half-width of the transition front may flip.
    pub metastability_burst_rate: f64,
    /// Half-width of a burst around the front, in carry elements.
    pub burst_half_width: usize,
}

impl Default for SensorFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl SensorFaultPlan {
    /// The clean sensor: nothing is ever corrupted.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout_rate: 0.0,
            stuck_element_rate: 0.0,
            metastability_burst_rate: 0.0,
            burst_half_width: 0,
        }
    }

    /// A hostile capture path with every fault at `intensity` and
    /// 4-element metastability bursts.
    #[must_use]
    pub fn noisy(seed: u64, intensity: f64) -> Self {
        let p = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            dropout_rate: p,
            stuck_element_rate: (p / 4.0).min(0.25),
            metastability_burst_rate: p,
            burst_half_width: 4,
        }
    }

    /// Whether any fault can ever fire under this plan.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.dropout_rate <= 0.0
            && self.stuck_element_rate <= 0.0
            && self.metastability_burst_rate <= 0.0
    }

    /// The stuck capture registers of a `len`-element chain, as
    /// `(element, reads_high)` in element order. They are a property of
    /// the element, not the sample: decided from `(seed, element)` alone.
    pub(crate) fn stuck_elements(&self, len: usize) -> Vec<(usize, bool)> {
        if self.stuck_element_rate <= 0.0 {
            return Vec::new();
        }
        (0..len)
            .filter_map(|j| {
                let roll = uniform_hash(self.seed ^ 0x5354_5543, j as u64);
                (roll < self.stuck_element_rate)
                    .then_some((j, roll < self.stuck_element_rate / 2.0))
            })
            .collect()
    }

    /// The corruption of one polarity's samples at θ on a `len`-element
    /// chain whose [`stuck_elements`](Self::stuck_elements) are `stuck`.
    /// The burst is decided here, once for the whole polarity.
    pub(crate) fn polarity<'a>(
        &'a self,
        theta_ps: f64,
        kind: TransitionKind,
        stuck: &'a [(usize, bool)],
        len: usize,
    ) -> PolarityFaults<'a> {
        let kind_tag = match kind {
            TransitionKind::Rising => 0x5249_5345,
            TransitionKind::Falling => 0x4641_4C4C,
        };
        let key = theta_ps.to_bits() ^ kind_tag;
        let burst = self.metastability_burst_rate > 0.0
            && self.burst_half_width > 0
            && uniform_hash(self.seed ^ 0x4255_5253, key) < self.metastability_burst_rate;
        PolarityFaults {
            plan: self,
            key,
            burst,
            rising: matches!(kind, TransitionKind::Rising),
            stuck,
            len,
        }
    }
}

/// [`SensorFaultPlan::polarity`]: the faults of one polarity of one
/// trace, applied sample by sample.
pub(crate) struct PolarityFaults<'a> {
    plan: &'a SensorFaultPlan,
    /// θ's bits xor the polarity's tag.
    key: u64,
    burst: bool,
    rising: bool,
    stuck: &'a [(usize, bool)],
    len: usize,
}

impl PolarityFaults<'_> {
    /// The distance sample number `sample` reads back once corrupted.
    #[inline]
    pub(crate) fn distance(&self, sample: usize, capture: Capture) -> usize {
        let plan = self.plan;
        let sample_key = self.key ^ (sample as u64).rotate_left(23);
        // Dropout: the word is lost and reads as "edge never arrived" —
        // all bits at their pre-transition value, a zero-distance word.
        if plan.dropout_rate > 0.0
            && uniform_hash(plan.seed ^ 0x4452_4F50, sample_key) < plan.dropout_rate
        {
            return 0;
        }
        // A burst flips bits around the clean front; each flip passes an
        // element the edge had not passed, or the reverse.
        let front = capture.distance;
        let hw = plan.burst_half_width;
        let flips = |j: usize| {
            self.burst
                && j.abs_diff(front) <= hw
                && uniform_hash(plan.seed ^ 0x4D45_5441, sample_key ^ (j as u64) << 17) < 0.5
        };
        let mut distance = front;
        if self.burst {
            let near =
                front.saturating_sub(hw)..front.saturating_add(hw).saturating_add(1).min(self.len);
            for j in near.filter(|&j| flips(j)) {
                if capture.passed(j) {
                    distance -= 1;
                } else {
                    distance += 1;
                }
            }
        }
        // A stuck register reads its fixed value whatever the edge or a
        // burst did: high is "passed" on a rising word, "not" on a falling.
        for &(j, reads_high) in self.stuck {
            let read = capture.passed(j) != flips(j);
            distance = distance + usize::from(reads_high == self.rising) - usize::from(read);
        }
        distance
    }
}

#[cfg(test)]
impl SensorFaultPlan {
    /// The element-by-element corruption of one `Vec<bool>` word, kept as
    /// the oracle the distance corruption is compared against.
    pub(crate) fn corrupt_bools(
        &self,
        theta_ps: f64,
        kind: TransitionKind,
        sample: usize,
        bits: &[bool],
    ) -> Vec<bool> {
        let theta_bits = theta_ps.to_bits();
        let kind_tag = match kind {
            TransitionKind::Rising => 0x5249_5345,
            TransitionKind::Falling => 0x4641_4C4C,
        };
        let sample_key = theta_bits ^ kind_tag ^ (sample as u64).rotate_left(23);
        if self.dropout_rate > 0.0
            && uniform_hash(self.seed ^ 0x44524F50, sample_key) < self.dropout_rate
        {
            let idle = matches!(kind, TransitionKind::Falling);
            return vec![idle; bits.len()];
        }
        let burst = self.metastability_burst_rate > 0.0
            && uniform_hash(self.seed ^ 0x4255_5253, theta_bits ^ kind_tag)
                < self.metastability_burst_rate;
        let front = match kind {
            TransitionKind::Rising => bits.iter().filter(|&&b| b).count(),
            TransitionKind::Falling => bits.iter().filter(|&&b| !b).count(),
        };
        bits.iter()
            .enumerate()
            .map(|(j, &b)| {
                if self.stuck_element_rate > 0.0 {
                    let roll = uniform_hash(self.seed ^ 0x5354_5543, j as u64);
                    if roll < self.stuck_element_rate {
                        return roll < self.stuck_element_rate / 2.0;
                    }
                }
                if burst
                    && self.burst_half_width > 0
                    && j.abs_diff(front) <= self.burst_half_width
                    && uniform_hash(self.seed ^ 0x4D45_5441, sample_key ^ (j as u64) << 17) < 0.5
                {
                    return !b;
                }
                b
            })
            .collect()
    }
}

/// SplitMix64-style hash of `(seed, key)` mapped to `[0, 1)`.
fn uniform_hash(seed: u64, key: u64) -> f64 {
    let mut z = seed
        .wrapping_add(key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::MAX_BAND;
    use crate::CaptureWord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The distances `captures`, of `kind` on a `len`-element chain, read
    /// back under `plan` at θ.
    fn corrupt(
        plan: &SensorFaultPlan,
        theta_ps: f64,
        kind: TransitionKind,
        len: usize,
        captures: &[Capture],
    ) -> Vec<usize> {
        let stuck = plan.stuck_elements(len);
        let faults = plan.polarity(theta_ps, kind, &stuck, len);
        captures
            .iter()
            .enumerate()
            .map(|(sample, &capture)| faults.distance(sample, capture))
            .collect()
    }

    /// A capture of `settled` elements and then `band`.
    fn capture_of(settled: usize, band: u64) -> Capture {
        let distance = settled + band.count_ones() as usize;
        Capture {
            settled,
            band,
            distance,
        }
    }

    /// Eight clean samples on a 64-element chain with the front at 30.
    fn clean() -> Vec<Capture> {
        vec![capture_of(30, 0); 8]
    }

    #[test]
    fn benign_plan_is_identity() {
        for kind in TransitionKind::ALL {
            let got = corrupt(&SensorFaultPlan::none(), 500.0, kind, 64, &clean());
            assert_eq!(got, vec![30; 8]);
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = SensorFaultPlan::noisy(9, 0.3);
        for kind in TransitionKind::ALL {
            assert_eq!(
                corrupt(&plan, 500.0, kind, 64, &clean()),
                corrupt(&plan, 500.0, kind, 64, &clean())
            );
        }
    }

    #[test]
    fn dropout_produces_zero_distance_words() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.dropout_rate = 1.0;
        for kind in TransitionKind::ALL {
            assert_eq!(corrupt(&plan, 500.0, kind, 64, &clean()), vec![0; 8]);
        }
    }

    #[test]
    fn stuck_elements_are_consistent_across_samples() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.stuck_element_rate = 0.2;
        assert!(
            !plan.stuck_elements(64).is_empty(),
            "at 20% some of 64 elements must stick"
        );
        for kind in TransitionKind::ALL {
            let got = corrupt(&plan, 500.0, kind, 64, &clean());
            assert!(
                got.iter().all(|&d| d == got[0]),
                "same stuck pattern everywhere"
            );
            assert_ne!(got[0], 30, "{kind:?}: the stuck elements move the front");
        }
    }

    /// With only bursts enabled, a burst flips at most the `2·hw + 1`
    /// bits around the clean front, so the distance moves by at most that
    /// much, and a certain burst moves some sample.
    #[test]
    fn bursts_move_the_distance_by_at_most_their_width() {
        let mut rng = StdRng::seed_from_u64(11);
        for hw in [1, 3, 8] {
            let mut plan = SensorFaultPlan::none();
            plan.seed = 11;
            plan.metastability_burst_rate = 1.0;
            plan.burst_half_width = hw;
            for kind in TransitionKind::ALL {
                let captures: Vec<Capture> =
                    (0..16).map(|_| random_capture(&mut rng, 64)).collect();
                let got = corrupt(&plan, 500.0, kind, 64, &captures);
                for (d, c) in got.iter().zip(&captures) {
                    assert!(d.abs_diff(c.distance) <= 2 * hw + 1, "{kind:?} hw {hw}");
                }
                assert!(got.iter().zip(&captures).any(|(&d, c)| d != c.distance));
            }
        }
    }

    #[test]
    fn moderate_faults_leave_quorum_of_clean_samples() {
        let plan = SensorFaultPlan::noisy(3, 0.2);
        let usable = corrupt(&plan, 500.0, TransitionKind::Rising, 64, &clean())
            .iter()
            .filter(|&&d| d != 0 && d != 64)
            .count();
        assert!(usable >= 4, "{usable}/8 usable");
    }

    /// A capture of a `len`-element chain whose front lands anywhere in
    /// it, with a metastable band of up to 64 elements after the prefix.
    fn random_capture(rng: &mut StdRng, len: usize) -> Capture {
        let settled = rng.gen_range(0..=len);
        let band_len = rng.gen_range(0..=(len - settled).min(MAX_BAND));
        let mask = u64::MAX.checked_shr((MAX_BAND - band_len) as u32);
        capture_of(settled, rng.gen::<u64>() & mask.unwrap_or(0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A capture's word has the capture's distance, and the distance
        /// corruption under a noisy plan equals the Hamming distance of
        /// the `Vec<bool>` reference's corrupted word, for both
        /// polarities, on chains on both sides of 64 elements, bands up
        /// to 64 elements and bursts wide enough to span the chain.
        #[test]
        fn corruption_matches_bool_reference(
            len in 1usize..=130,
            samples in 1usize..=20,
            intensity in prop_oneof![Just(1.0), 0.0f64..1.0],
            burst_half_width in prop_oneof![Just(4), 0usize..80],
            theta_ps in 0.0f64..20_000.0,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut plan = SensorFaultPlan::noisy(seed, intensity);
            plan.burst_half_width = burst_half_width;
            for kind in TransitionKind::ALL {
                let captures: Vec<Capture> =
                    (0..samples).map(|_| random_capture(&mut rng, len)).collect();
                let got = corrupt(&plan, theta_ps, kind, len, &captures);
                prop_assert_eq!(got.len(), captures.len());
                for (i, (&distance, capture)) in got.iter().zip(&captures).enumerate() {
                    let word = capture.word(kind, len);
                    prop_assert_eq!(word.propagation_distance(), capture.distance);
                    let bits = word.bits();
                    let want = plan.corrupt_bools(theta_ps, kind, i, &bits);
                    let want = CaptureWord::new(kind, want).propagation_distance();
                    prop_assert_eq!(distance, want, "{:?} sample {}", kind, i);
                }
            }
        }
    }
}
