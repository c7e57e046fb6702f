//! Captured carry-chain snapshots and their Hamming post-processing.
//!
//! Captures are packed: chain element `j` is bit `j % 64` of word
//! `j / 64`, and every bit at or past the chain length is zero. A capture
//! of `len` elements takes [`stride(len)`](stride) words, so a faulty
//! trace holds all of one polarity's samples in a single `Vec<u64>`, and
//! the Hamming distance is a popcount.

use std::ops::Range;

use fpga_fabric::TransitionKind;
use serde::{Deserialize, Serialize};

/// Words one packed capture of `len` elements occupies (one for an empty
/// chain, so samples stay countable).
#[inline]
pub(crate) fn stride(len: usize) -> usize {
    len.div_ceil(64).max(1)
}

/// The binary Hamming distance of a packed capture from all-zeros
/// (rising) or all-ones (falling): the one implementation, shared by
/// [`CaptureWord`] and the fault path of trace capture.
pub(crate) fn hamming_distance(kind: TransitionKind, words: &[u64], len: usize) -> usize {
    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    match kind {
        TransitionKind::Rising => ones,
        TransitionKind::Falling => len - ones,
    }
}

/// Whether a distance carries no timing information: the edge never
/// entered the chain (0) or overran all of it (`len`).
pub(crate) fn is_saturated(distance: usize, len: usize) -> bool {
    distance == 0 || distance == len
}

/// Sets bits `range` of a packed capture, a word at a time.
#[inline]
pub(crate) fn set_bits(words: &mut [u64], range: Range<usize>) {
    let mut lo = range.start;
    while lo < range.end {
        let (word, start) = (lo / 64, lo % 64);
        let end = (range.end - word * 64).min(64);
        words[word] |= (u64::MAX >> (64 - (end - start))) << start;
        lo = word * 64 + end;
    }
}

/// Flips bit `j` of a packed capture.
#[inline]
pub(crate) fn flip_bit(words: &mut [u64], j: usize) {
    words[j / 64] ^= 1 << (j % 64);
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
    len: usize,
    words: Vec<u64>,
}

impl CaptureWord {
    /// Wraps a captured register word, chain entry first.
    #[must_use]
    pub fn new(kind: TransitionKind, bits: Vec<bool>) -> Self {
        let mut words = vec![0; stride(bits.len())];
        for (j, _) in bits.iter().enumerate().filter(|&(_, &b)| b) {
            flip_bit(&mut words, j);
        }
        Self::from_packed(kind, bits.len(), words)
    }

    /// Wraps one packed capture of `len` elements.
    pub(crate) fn from_packed(kind: TransitionKind, len: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), stride(len), "one stride of words");
        Self { kind, len, words }
    }

    /// The transition polarity this capture observed.
    #[must_use]
    pub fn kind(&self) -> TransitionKind {
        self.kind
    }

    /// The raw register bits, chain entry first.
    #[must_use]
    pub fn bits(&self) -> Vec<bool> {
        (0..self.len)
            .map(|j| self.words[j / 64] >> (j % 64) & 1 == 1)
            .collect()
    }

    /// Chain length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the word is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The propagation distance in carry bits: Hamming distance from
    /// all-zeros (rising) or all-ones (falling).
    #[must_use]
    pub fn propagation_distance(&self) -> usize {
        hamming_distance(self.kind, &self.words, self.len)
    }

    /// Whether the edge overran the whole chain (distance == length) or
    /// never entered it (distance == 0) — either way the sample carries no
    /// timing information and θ must be retuned.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        is_saturated(self.propagation_distance(), self.len)
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

    #[test]
    fn set_bits_matches_bit_by_bit_across_word_boundaries() {
        for len in [1, 63, 64, 65, 128, 130] {
            for lo in 0..=len {
                for hi in lo..=len {
                    let mut packed = vec![0; stride(len)];
                    set_bits(&mut packed, lo..hi);
                    let want: Vec<bool> = (0..len).map(|j| (lo..hi).contains(&j)).collect();
                    let word = CaptureWord::from_packed(TransitionKind::Rising, len, packed);
                    assert_eq!(word.bits(), want, "len {len}, {lo}..{hi}");
                    assert_eq!(word, CaptureWord::new(TransitionKind::Rising, want));
                }
            }
        }
    }
}
