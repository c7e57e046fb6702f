//! Captured carry-chain snapshots and their Hamming post-processing.
//!
//! The capture kernel keeps a sample as a [`Capture`]: the prefix of
//! elements the edge settled past, plus the outcomes of the metastable
//! band after it, one bit per element. Every element past the band
//! settled short, so these fix the whole register word, and its binary
//! Hamming distance is `settled + band.count_ones()` for both polarities.
//! Trace capture and fault corruption work on that distance alone;
//! [`CaptureWord`] spells the word out as bits for callers that read them.

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

/// Most metastable elements one capture scores: the band is one `u64`.
pub(crate) const MAX_BAND: usize = 64;

/// One sample as the capture kernel returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Capture {
    /// Elements `0..settled` the edge settled past.
    pub(crate) settled: usize,
    /// Bit `i` is set where the edge passed element `settled + i` of the
    /// metastable band.
    pub(crate) band: u64,
    /// The propagation distance, `settled + band.count_ones()`, counted
    /// while the band is scored: without a `popcnt` instruction in the
    /// baseline x86-64 target, the popcount costs about 1 ns a sample.
    pub(crate) distance: usize,
}

impl Capture {
    /// Whether the edge passed element `j`.
    #[inline]
    pub(crate) fn passed(self, j: usize) -> bool {
        match j.checked_sub(self.settled) {
            None => true,
            Some(i) => i < MAX_BAND && self.band >> i & 1 == 1,
        }
    }

    /// The register word of a `len`-element chain: a bit is set where
    /// the edge passed (rising) or did not (falling).
    pub(crate) fn word(self, kind: TransitionKind, len: usize) -> CaptureWord {
        let set_if_passed = matches!(kind, TransitionKind::Rising);
        let bits = (0..len).map(|j| self.passed(j) == set_if_passed).collect();
        CaptureWord::new(kind, bits)
    }
}

/// Whether a distance carries no timing information: the edge never
/// entered the chain (0) or overran all of it (`len`).
pub(crate) fn is_saturated(distance: usize, len: usize) -> bool {
    distance == 0 || distance == len
}

/// One snapshot of the capture registers: the chain state at the moment
/// the capture clock fired.
///
/// Post-processing follows the paper exactly: the *binary Hamming
/// distance* of the word from all-zeros for rising transitions, and from
/// all-ones for falling transitions, yields the propagation distance in
/// carry bits (Figure 3's example produces the sequence 39, 22, 38, 22).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaptureWord {
    kind: TransitionKind,
    bits: Vec<bool>,
}

impl CaptureWord {
    /// Wraps a captured register word, chain entry first.
    #[must_use]
    pub fn new(kind: TransitionKind, bits: Vec<bool>) -> Self {
        Self { kind, bits }
    }

    /// The transition polarity this capture observed.
    #[must_use]
    pub fn kind(&self) -> TransitionKind {
        self.kind
    }

    /// The raw register bits, chain entry first.
    #[must_use]
    pub fn bits(&self) -> Vec<bool> {
        self.bits.clone()
    }

    /// Chain length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the word is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The propagation distance in carry bits: Hamming distance from
    /// all-zeros (rising) or all-ones (falling).
    #[must_use]
    pub fn propagation_distance(&self) -> usize {
        let set_if_passed = matches!(self.kind, TransitionKind::Rising);
        self.bits.iter().filter(|&&b| b == set_if_passed).count()
    }

    /// Whether the edge overran the whole chain (distance == length) or
    /// never entered it (distance == 0) — either way the sample carries no
    /// timing information and θ must be retuned.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        is_saturated(self.propagation_distance(), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_from_str(kind: TransitionKind, s: &str) -> CaptureWord {
        CaptureWord::new(kind, s.chars().map(|c| c == '1').collect())
    }

    #[test]
    fn rising_distance_counts_ones() {
        let w = word_from_str(TransitionKind::Rising, "11110000");
        assert_eq!(w.propagation_distance(), 4);
    }

    #[test]
    fn falling_distance_counts_zeros() {
        let w = word_from_str(TransitionKind::Falling, "00011111");
        assert_eq!(w.propagation_distance(), 3);
    }

    #[test]
    fn metastable_bubbles_still_count() {
        // Figure 3: "some metastability between the two points" — a bubble
        // near the front simply adds to the count like the paper's
        // Hamming-distance definition does.
        let w = word_from_str(TransitionKind::Rising, "11101000");
        assert_eq!(w.propagation_distance(), 4);
    }

    #[test]
    fn paper_figure3_hamming_sequence() {
        // Reconstruct the four captures of Figure 3's example: rising to
        // 39 and 38 bits, falling to 22 bits (twice), on a 64-bit chain.
        let rising0 = CaptureWord::new(TransitionKind::Rising, (0..64).map(|i| i < 39).collect());
        let falling0 =
            CaptureWord::new(TransitionKind::Falling, (0..64).map(|i| i >= 22).collect());
        let rising1 = CaptureWord::new(TransitionKind::Rising, (0..64).map(|i| i < 38).collect());
        let falling1 =
            CaptureWord::new(TransitionKind::Falling, (0..64).map(|i| i >= 22).collect());
        let seq: Vec<usize> = [rising0, falling0, rising1, falling1]
            .iter()
            .map(CaptureWord::propagation_distance)
            .collect();
        assert_eq!(seq, vec![39, 22, 38, 22]);
    }

    #[test]
    fn saturation_detection() {
        assert!(word_from_str(TransitionKind::Rising, "0000").is_saturated());
        assert!(word_from_str(TransitionKind::Rising, "1111").is_saturated());
        assert!(!word_from_str(TransitionKind::Rising, "1100").is_saturated());
        assert!(word_from_str(TransitionKind::Falling, "1111").is_saturated());
    }
}
