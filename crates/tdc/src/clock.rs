//! The programmable clock generator (Figure 3's first block).
//!
//! Real TDCs derive their launch and capture clocks from an MMCM whose
//! phase shift is programmed in *discrete steps* — a fraction of the VCO
//! period, not an arbitrary real number. The sensor can therefore only
//! realize θ values on a grid, and calibration must land on the nearest
//! achievable setting. On UltraScale+ parts the fine-phase step is
//! 1/56th of the VCO period; at a typical 1.4 GHz VCO that is ≈ 12.76 ps
//! of coarse step, interpolated further by the tunable launch path — we
//! model the *effective* θ resolution the paper's sensor achieves.

use serde::{Deserialize, Serialize};

use crate::TdcError;

/// A launch/capture clock pair with a quantized phase offset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockGenerator {
    /// Clock period of both domains, in picoseconds.
    period_ps: f64,
    /// Phase-shift quantum, in picoseconds.
    step_ps: f64,
}

impl ClockGenerator {
    /// Creates a generator with the given period and phase quantum.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] when either parameter is not
    /// positive, or the step exceeds the period.
    pub fn new(period_ps: f64, step_ps: f64) -> Result<Self, TdcError> {
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(period_ps) || !period_ps.is_finite() {
            return Err(TdcError::InvalidConfig("clock period must be positive"));
        }
        if !positive(step_ps) || !step_ps.is_finite() || step_ps > period_ps {
            return Err(TdcError::InvalidConfig(
                "phase step must be positive and no larger than the period",
            ));
        }
        Ok(Self { period_ps, step_ps })
    }

    /// The paper's sensor configuration: a 100 MHz measurement clock
    /// (10 ns period — long enough for a 10 000 ps route plus the chain)
    /// with sub-carry-bit phase resolution (1.4 ps: half the 2.8 ps bit).
    #[must_use]
    pub fn ultrascale_plus() -> Self {
        Self::new(10_000.0 * 2.0, 1.4).expect("built-in configuration is valid")
    }

    /// Quantizes an arbitrary θ request to the nearest setting on this
    /// generator's phase grid — the θ the sensor actually realizes.
    #[must_use]
    pub fn quantize(&self, theta_ps: f64) -> f64 {
        (theta_ps / self.step_ps).round() * self.step_ps
    }
}

impl Default for ClockGenerator {
    fn default() -> Self {
        Self::ultrascale_plus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programming_quantizes_to_the_grid() {
        let clk = ClockGenerator::new(20_000.0, 1.4).unwrap();
        let realized = clk.quantize(5_000.3);
        assert!((realized - 5_000.3).abs() <= 0.7, "realized {realized}");
        assert!((realized / 1.4 - (realized / 1.4).round()).abs() < 1e-9);
        assert_eq!(realized, 3_572.0 * 1.4);
    }

    #[test]
    fn paper_preset_resolves_half_a_carry_bit() {
        let clk = ClockGenerator::ultrascale_plus();
        assert!(clk.step_ps <= fpga_fabric::CARRY_ELEMENT_PS / 2.0 + 1e-9);
        assert!(clk.period_ps >= 10_000.0 + 64.0 * fpga_fabric::CARRY_ELEMENT_PS);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ClockGenerator::new(0.0, 1.0).is_err());
        assert!(ClockGenerator::new(10.0, 0.0).is_err());
        assert!(ClockGenerator::new(10.0, 11.0).is_err());
    }

    #[test]
    fn quantize_matches_program() {
        let clk = ClockGenerator::new(1_000.0, 2.8).unwrap();
        // 333 / 2.8 = 118.93 rounds to setting 119.
        assert_eq!(clk.quantize(333.0), 119.0 * 2.8);
        assert_eq!(clk.quantize(0.0), 0.0);
    }
}
