//! Carry-chain resources: the TDC's delay line.
//!
//! The paper's sensor builds its delay line from the fast look-ahead CARRY
//! primitives of Xilinx devices: a vertical column of identical elements,
//! each adding ≈ 2.8 ps (the UltraScale+ bit-to-time conversion constant
//! used in Section 5.2). Real chains are not perfectly uniform — per-element
//! process variation is what forces the sensor to average ten traces at
//! different θ offsets.

use serde::{Deserialize, Serialize};

use crate::{FabricError, TileCoord, VariationModel};

/// Nominal per-element carry delay on UltraScale+ parts, in picoseconds.
///
/// This is the `2.8 ps / bit` constant the paper uses to convert Hamming
/// distances into time.
pub const CARRY_ELEMENT_PS: f64 = 2.8;

/// A placed carry chain: `length` elements rising from `base` in one
/// column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarryChain {
    base: TileCoord,
    element_delays_ps: Vec<f64>,
    /// `cumulative_ps[i]` is the delay from chain entry to the input of
    /// element `i`; one extra entry holds the total.
    cumulative_ps: Vec<f64>,
}

impl CarryChain {
    /// Places a chain of `length` elements at column `base.col` starting
    /// at row `base.row`, drawing per-element variation from `variation`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CarryChainTooLong`] if the chain would leave
    /// the grid (`rows` tall).
    pub fn place(
        base: TileCoord,
        length: usize,
        rows: u16,
        variation: &VariationModel,
    ) -> Result<Self, FabricError> {
        // Eight carry elements fit per tile (CARRY8); the chain occupies
        // ceil(length / 8) rows above `base`.
        let tiles_needed = length.div_ceil(8);
        let available = usize::from(rows.saturating_sub(base.row));
        if tiles_needed > available {
            return Err(FabricError::CarryChainTooLong {
                requested: length,
                available: available * 8,
            });
        }
        let element_delays_ps: Vec<f64> = (0..length)
            .map(|i| {
                // Namespace carry elements away from wire indices in the
                // variation stream.
                let key = 0x4343_0000_0000_0000
                    | (u64::from(base.col) << 32)
                    | (u64::from(base.row) << 16)
                    | i as u64;
                CARRY_ELEMENT_PS * variation.factor(key)
            })
            .collect();
        let mut cumulative_ps = Vec::with_capacity(length + 1);
        let mut acc = 0.0;
        cumulative_ps.push(0.0);
        for &d in &element_delays_ps {
            acc += d;
            cumulative_ps.push(acc);
        }
        Ok(Self {
            base,
            element_delays_ps,
            cumulative_ps,
        })
    }

    /// The tile anchoring the bottom of the chain.
    #[must_use]
    pub fn base(&self) -> TileCoord {
        self.base
    }

    /// Number of delay elements (and capture registers).
    #[must_use]
    pub fn len(&self) -> usize {
        self.element_delays_ps.len()
    }

    /// Whether the chain has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.element_delays_ps.is_empty()
    }

    /// Per-element delays, in picoseconds, bottom to top.
    #[must_use]
    pub fn element_delays_ps(&self) -> &[f64] {
        &self.element_delays_ps
    }

    /// Cumulative delay from chain entry to the *input* of element `i`.
    ///
    /// `prefix_delay_ps(0) == 0`; `prefix_delay_ps(len())` is the delay
    /// through the whole chain.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    #[must_use]
    pub fn prefix_delay_ps(&self, i: usize) -> f64 {
        assert!(i <= self.len(), "element index out of range");
        self.cumulative_ps[i]
    }

    /// All cumulative delays: entry `i` is
    /// [`prefix_delay_ps(i)`](Self::prefix_delay_ps), so the slice has
    /// `len() + 1` entries and ends with the total. Element delays are
    /// strictly positive, so the slice strictly increases.
    #[must_use]
    pub fn cumulative_ps(&self) -> &[f64] {
        &self.cumulative_ps
    }

    /// Total delay through the chain.
    #[must_use]
    pub fn total_delay_ps(&self) -> f64 {
        self.prefix_delay_ps(self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variation() -> VariationModel {
        VariationModel::new(42, 0.03)
    }

    #[test]
    fn chain_has_requested_length() {
        let c = CarryChain::place(TileCoord::new(5, 5), 64, 100, &variation()).unwrap();
        assert_eq!(c.len(), 64);
        assert!(!c.is_empty());
        assert_eq!(c.base(), TileCoord::new(5, 5));
    }

    #[test]
    fn element_delays_cluster_around_nominal() {
        let c = CarryChain::place(TileCoord::new(5, 5), 256, 100, &variation()).unwrap();
        let mean = c.total_delay_ps() / c.len() as f64;
        assert!((mean - CARRY_ELEMENT_PS).abs() < 0.1, "mean = {mean}");
        for &d in c.element_delays_ps() {
            assert!(d > 0.0);
        }
    }

    #[test]
    fn prefix_delays_are_monotone() {
        let c = CarryChain::place(TileCoord::new(0, 0), 64, 100, &variation()).unwrap();
        let mut prev = -1.0;
        for i in 0..=c.len() {
            let p = c.prefix_delay_ps(i);
            assert!(p > prev);
            assert_eq!(c.cumulative_ps()[i], p);
            prev = p;
        }
        assert_eq!(c.cumulative_ps().len(), c.len() + 1);
    }

    #[test]
    fn chain_that_leaves_grid_is_rejected() {
        let err = CarryChain::place(TileCoord::new(5, 98), 64, 100, &variation()).unwrap_err();
        assert!(matches!(err, FabricError::CarryChainTooLong { .. }));
    }

    #[test]
    fn same_placement_same_silicon() {
        let a = CarryChain::place(TileCoord::new(3, 3), 64, 100, &variation()).unwrap();
        let b = CarryChain::place(TileCoord::new(3, 3), 64, 100, &variation()).unwrap();
        assert_eq!(a, b);
        let c = CarryChain::place(TileCoord::new(4, 3), 64, 100, &variation()).unwrap();
        assert_ne!(a, c);
    }
}
