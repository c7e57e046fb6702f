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
//! The matching graceful-degradation machinery lives in
//! [`Measurement::try_from_traces`](crate::Measurement::try_from_traces)
//! (per-sample quorum + MAD outlier rejection across traces).

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

use crate::capture::{flip_bit, hamming_distance, set_bits, stride};

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

    /// The stuck capture registers of a `len`-element chain. They are a
    /// property of the element, not the sample: decided from `(seed,
    /// element)` alone.
    pub(crate) fn stuck_masks(&self, len: usize) -> StuckMasks {
        if self.stuck_element_rate <= 0.0 {
            return StuckMasks::default();
        }
        let mut masks = StuckMasks {
            stuck: vec![0; stride(len)],
            high: vec![0; stride(len)],
        };
        for j in 0..len {
            let roll = uniform_hash(self.seed ^ 0x5354_5543, j as u64);
            if roll < self.stuck_element_rate {
                flip_bit(&mut masks.stuck, j);
                if roll < self.stuck_element_rate / 2.0 {
                    flip_bit(&mut masks.high, j);
                }
            }
        }
        masks
    }

    /// Corrupts one polarity's samples in place, `packed` holding them in
    /// capture order, [`stride`]`(len)` words each, and `stuck` being
    /// [`stuck_masks`](Self::stuck_masks)`(len)`. Pure in its inputs.
    pub(crate) fn corrupt_samples(
        &self,
        theta_ps: f64,
        kind: TransitionKind,
        len: usize,
        stuck: &StuckMasks,
        packed: &mut [u64],
    ) {
        let theta_bits = theta_ps.to_bits();
        let kind_tag = match kind {
            TransitionKind::Rising => 0x5249_5345,
            TransitionKind::Falling => 0x4641_4C4C,
        };
        let burst = self.metastability_burst_rate > 0.0
            && self.burst_half_width > 0
            && uniform_hash(self.seed ^ 0x4255_5253, theta_bits ^ kind_tag)
                < self.metastability_burst_rate;
        for (sample, word) in packed.chunks_exact_mut(stride(len)).enumerate() {
            let sample_key = theta_bits ^ kind_tag ^ (sample as u64).rotate_left(23);
            // Dropout: the word is lost and reads as "edge never
            // arrived" — all bits at their pre-transition value, a
            // zero-distance word.
            if self.dropout_rate > 0.0
                && uniform_hash(self.seed ^ 0x44524F50, sample_key) < self.dropout_rate
            {
                word.fill(0);
                if kind == TransitionKind::Falling {
                    set_bits(word, 0..len);
                }
                continue;
            }
            // The front is read before any bit moves, and each flip
            // depends only on its own bit, so no copy is needed.
            if burst {
                let front = hamming_distance(kind, word, len);
                let hw = self.burst_half_width;
                let near =
                    front.saturating_sub(hw)..front.saturating_add(hw).saturating_add(1).min(len);
                for j in near {
                    let key = sample_key ^ (j as u64) << 17;
                    if uniform_hash(self.seed ^ 0x4D45_5441, key) < 0.5 {
                        flip_bit(word, j);
                    }
                }
            }
            for ((w, &s), &h) in word.iter_mut().zip(&stuck.stuck).zip(&stuck.high) {
                *w = (*w & !s) | h;
            }
        }
    }
}

/// Which elements of a chain a plan sticks (`stuck`), and which of those
/// read high (`high`), as packed masks one [`stride`] long; both are
/// empty when the plan sticks nothing.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct StuckMasks {
    stuck: Vec<u64>,
    high: Vec<u64>,
}

#[cfg(test)]
impl SensorFaultPlan {
    /// The word-at-a-time corruption of one `Vec<bool>` sample, kept as
    /// the oracle the packed path is compared against.
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
    use crate::CaptureWord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn front_word(kind: TransitionKind, len: usize, front: usize) -> CaptureWord {
        let bits = (0..len)
            .map(|i| match kind {
                TransitionKind::Rising => i < front,
                TransitionKind::Falling => i >= front,
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    /// Packs words into one polarity's sample buffer.
    fn pack(words: &[CaptureWord]) -> Vec<u64> {
        let mut packed = Vec::new();
        for w in words {
            let mut word = vec![0; stride(w.len())];
            for (j, _) in w.bits().iter().enumerate().filter(|&(_, &b)| b) {
                flip_bit(&mut word, j);
            }
            packed.extend(word);
        }
        packed
    }

    /// `words`, all of `kind` and `len` elements, corrupted by `plan` at θ.
    fn corrupt(
        plan: &SensorFaultPlan,
        theta_ps: f64,
        kind: TransitionKind,
        len: usize,
        words: &[CaptureWord],
    ) -> Vec<CaptureWord> {
        let mut packed = pack(words);
        plan.corrupt_samples(theta_ps, kind, len, &plan.stuck_masks(len), &mut packed);
        packed
            .chunks_exact(stride(len))
            .map(|w| CaptureWord::from_packed(kind, len, w.to_vec()))
            .collect()
    }

    /// Eight clean 64-element samples of `kind` with the front at 30.
    fn clean(kind: TransitionKind) -> Vec<CaptureWord> {
        vec![front_word(kind, 64, 30); 8]
    }

    #[test]
    fn benign_plan_is_identity() {
        for kind in TransitionKind::ALL {
            let got = corrupt(&SensorFaultPlan::none(), 500.0, kind, 64, &clean(kind));
            assert_eq!(got, clean(kind));
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = SensorFaultPlan::noisy(9, 0.3);
        for kind in TransitionKind::ALL {
            assert_eq!(
                corrupt(&plan, 500.0, kind, 64, &clean(kind)),
                corrupt(&plan, 500.0, kind, 64, &clean(kind))
            );
        }
    }

    #[test]
    fn dropout_produces_zero_distance_words() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.dropout_rate = 1.0;
        for kind in TransitionKind::ALL {
            for w in corrupt(&plan, 500.0, kind, 64, &clean(kind)) {
                assert_eq!(w.propagation_distance(), 0);
                assert!(w.is_saturated());
            }
        }
    }

    #[test]
    fn stuck_elements_are_consistent_across_samples() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 5;
        plan.stuck_element_rate = 0.2;
        let kind = TransitionKind::Rising;
        let words = corrupt(&plan, 500.0, kind, 64, &clean(kind));
        for w in &words[1..] {
            assert_eq!(w.bits(), words[0].bits(), "same stuck pattern everywhere");
        }
        assert_ne!(
            words[0].bits(),
            front_word(kind, 64, 30).bits(),
            "at 20% some of 64 elements must stick"
        );
    }

    #[test]
    fn bursts_only_disturb_near_the_front() {
        let mut plan = SensorFaultPlan::none();
        plan.seed = 11;
        plan.metastability_burst_rate = 1.0;
        plan.burst_half_width = 3;
        let kind = TransitionKind::Rising;
        for w in corrupt(&plan, 500.0, kind, 64, &clean(kind)) {
            for (j, &b) in w.bits().iter().enumerate() {
                let clean = j < 30;
                if j.abs_diff(30) > 3 {
                    assert_eq!(b, clean, "bit {j} outside the burst must be clean");
                }
            }
        }
    }

    #[test]
    fn moderate_faults_leave_quorum_of_clean_samples() {
        let plan = SensorFaultPlan::noisy(3, 0.2);
        let kind = TransitionKind::Rising;
        let clean = corrupt(&plan, 500.0, kind, 64, &clean(kind))
            .iter()
            .filter(|w| !w.is_saturated())
            .count();
        assert!(clean >= 4, "{clean}/8 usable");
    }

    /// `len`-element words whose fronts land anywhere in the chain, with
    /// metastable bubbles scattered around them.
    fn random_bools(rng: &mut StdRng, kind: TransitionKind, len: usize) -> Vec<bool> {
        let front = rng.gen_range(0..=len);
        (0..len)
            .map(|i| {
                let passed = if i.abs_diff(front) <= 2 {
                    rng.gen_bool(0.5)
                } else {
                    i < front
                };
                match kind {
                    TransitionKind::Rising => passed,
                    TransitionKind::Falling => !passed,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `corrupt_samples` under a noisy plan equals the `Vec<bool>`
        /// reference word for word, for both polarities, on chains on both
        /// sides of the 64-bit boundary and bursts wide enough to span
        /// words.
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
                let raw: Vec<Vec<bool>> =
                    (0..samples).map(|_| random_bools(&mut rng, kind, len)).collect();
                let words: Vec<CaptureWord> =
                    raw.iter().map(|b| CaptureWord::new(kind, b.clone())).collect();
                let got = corrupt(&plan, theta_ps, kind, len, &words);
                prop_assert_eq!(got.len(), raw.len());
                for (i, (word, bits)) in got.iter().zip(&raw).enumerate() {
                    let want = plan.corrupt_bools(theta_ps, kind, i, bits);
                    prop_assert_eq!(word.bits(), &want[..], "{:?} sample {}", kind, i);
                }
            }
        }
    }
}
