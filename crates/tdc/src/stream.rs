//! Deterministic per-stream RNG seed derivation.
//!
//! The parallel sweep engine replaces the drivers' single shared `StdRng`
//! with one independent stream per `(route index, phase)` pair, so a
//! measurement's random draws no longer depend on which other routes were
//! measured before it — or on which thread measured it. Each stream seed
//! is derived from the campaign's master seed with a SplitMix64-style
//! finalizer over the pair, which decorrelates neighbouring indices and
//! phases while staying pure arithmetic (no global state, no ordering).
//!
//! [`crate::TdcArray`] is the one caller that applies these seeds to
//! sensors, so every read path draws the same streams by construction:
//!
//! * calibration of sensor `i` draws from
//!   `stream_seed(master, i, STREAM_CALIBRATE)`;
//! * the `p`-th recorded measurement phase (`p = 0` for the hour-zero
//!   baseline) of sensor `i` draws from
//!   `stream_seed(master, i, STREAM_MEASURE + p)`.

/// Phase tag for calibration draws.
pub(crate) const STREAM_CALIBRATE: u64 = 0x0001_0000_0000;

/// Base phase tag for measurement draws; add the measurement phase number
/// (the count of previously recorded phases, so the hour-zero baseline is
/// phase `STREAM_MEASURE + 0`).
pub(crate) const STREAM_MEASURE: u64 = 0x0002_0000_0000;

/// Derives the seed of the `(index, phase)` RNG stream from a master seed.
///
/// Pure arithmetic over the three inputs: the result is independent of
/// call order, thread count, and scheduling, which is what makes parallel
/// runs bit-identical to serial ones. Distinct `(index, phase)` pairs map
/// to well-separated seeds via a SplitMix64 finalizer.
#[must_use]
pub fn stream_seed(master_seed: u64, index: u64, phase: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(phase.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_seeds_are_distinct_across_indices_and_phases() {
        let mut seen = HashSet::new();
        for index in 0..64 {
            for phase in 0..256 {
                assert!(
                    seen.insert(stream_seed(42, index, STREAM_MEASURE + phase)),
                    "collision at index {index}, phase {phase}"
                );
                assert!(seen.insert(stream_seed(42, index, STREAM_CALIBRATE + phase)));
            }
        }
    }

    #[test]
    fn stream_seed_is_a_pure_function() {
        assert_eq!(stream_seed(7, 3, 11), stream_seed(7, 3, 11));
        assert_ne!(stream_seed(7, 3, 11), stream_seed(8, 3, 11));
        assert_ne!(stream_seed(7, 3, 11), stream_seed(7, 4, 11));
        assert_ne!(stream_seed(7, 3, 11), stream_seed(7, 3, 12));
    }
}
