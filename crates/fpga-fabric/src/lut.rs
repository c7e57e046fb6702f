//! LUT configuration-SRAM imprints: the resource the paper *ruled out*.
//!
//! Zick et al. (FPL '14) recovered previous user data from the SRAM cells
//! that hold LUT configuration bits — but needed a 922-hour burn-in and
//! femtosecond-level timing precision from an off-chip oscillator. The
//! paper explains why that resource is useless to a cloud attacker: the
//! imprint on an SRAM cell's output buffer is roughly two orders of
//! magnitude smaller than on a programmable route, and on-chip TDCs
//! resolve ~10 ps per bit, not femtoseconds (Section 7).
//!
//! This module makes the comparison executable: a [`LutConfigCell`] ages
//! exactly like a route does, but its observable is a single ~25 ps
//! buffer rather than thousands of picoseconds of routing — so its
//! imprint lands in the tens of femtoseconds, far below the cloud
//! sensor's noise floor and readable only by Zick-style lab equipment.

use bti_physics::{AgingArena, BtiModel, Celsius, Hours, LogicLevel, WireAging};
use serde::{Deserialize, Serialize};

use crate::TileCoord;

/// Nominal delay of a LUT SRAM cell's output buffer, in picoseconds.
pub const LUT_BUFFER_DELAY_PS: f64 = 25.0;

/// Additional sensitivity derating of SRAM output buffers relative to
/// route transistors: config cells are minimum-size devices driving tiny
/// local loads, so their measurable delay contribution is further
/// suppressed.
pub const LUT_BUFFER_SENSITIVITY_SCALE: f64 = 0.25;

/// One LUT configuration bit's SRAM cell, with its analog aging state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LutConfigCell {
    location: TileCoord,
    bit_index: u8,
    /// One slot: the cell's output buffer.
    aging: AgingArena,
}

impl LutConfigCell {
    /// Creates a fresh config cell at `location`, bit `bit_index`.
    #[must_use]
    pub fn new(model: &BtiModel, location: TileCoord, bit_index: u8) -> Self {
        let mut aging = AgingArena::new(model);
        aging.ensure(0);
        Self {
            location,
            bit_index,
            aging,
        }
    }

    /// The tile holding this LUT.
    #[must_use]
    pub fn location(&self) -> TileCoord {
        self.location
    }

    /// Holds a configuration value in the cell for `dt` (what happens for
    /// the whole time a bitstream is loaded).
    pub fn hold(&mut self, model: &BtiModel, value: LogicLevel, dt: Hours, temperature: Celsius) {
        self.aging
            .advance_slot(0, model, dt, value.duty(), temperature);
    }

    /// The cell's Δps imprint observable through its output buffer, with
    /// a device wear factor — *tens of femtoseconds* after a full burn-in.
    #[must_use]
    pub fn imprint_ps(&self, model: &BtiModel, wear: f64) -> f64 {
        self.aging().delta_ps_scaled(
            model,
            LUT_BUFFER_DELAY_PS,
            wear * LUT_BUFFER_SENSITIVITY_SCALE,
        )
    }

    /// Access to the raw aging state (for lab-grade analysis).
    #[must_use]
    pub fn aging(&self) -> WireAging<'_> {
        self.aging.view_at(0)
    }
}

/// A Zick-style lab instrument: femtosecond-precision timing built around
/// an off-chip reference oscillator. `resolution_ps` is the smallest
/// reliably detectable Δps (their setup: ~0.001 ps). Cloud TDCs resolve
/// about 0.1 ps after heavy averaging.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionInstrument {
    /// Detection floor, in picoseconds.
    pub resolution_ps: f64,
}

impl PrecisionInstrument {
    /// Zick et al.'s off-chip-referenced lab setup (femtosecond class).
    #[must_use]
    pub fn zick_lab() -> Self {
        Self {
            resolution_ps: 0.001,
        }
    }

    /// The best an on-chip cloud TDC achieves after averaging.
    #[must_use]
    pub fn cloud_tdc_floor() -> Self {
        Self { resolution_ps: 0.1 }
    }

    /// Whether this instrument can classify the given imprint.
    #[must_use]
    pub fn can_detect(&self, imprint_ps: f64) -> bool {
        imprint_ps.abs() >= self.resolution_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burned_cell(value: LogicLevel, hours: f64) -> (BtiModel, LutConfigCell) {
        let model = BtiModel::ultrascale_plus();
        let mut cell = LutConfigCell::new(&model, TileCoord::new(3, 3), 7);
        cell.hold(&model, value, Hours::new(hours), Celsius::new(60.0));
        (model, cell)
    }

    #[test]
    fn lut_imprints_are_femtosecond_scale() {
        // Even Zick's 922-hour burn-in leaves only tens of femtoseconds on
        // the buffer.
        let (model, cell) = burned_cell(LogicLevel::One, 922.0);
        let imprint = cell.imprint_ps(&model, 1.0);
        assert!(imprint > 0.0);
        assert!(
            imprint < 0.02,
            "LUT imprint should be tens of fs, got {imprint} ps"
        );
    }

    #[test]
    fn cloud_tdc_cannot_read_lut_cells() {
        let (model, cell) = burned_cell(LogicLevel::One, 922.0);
        let imprint = cell.imprint_ps(&model, 1.0);
        assert!(!PrecisionInstrument::cloud_tdc_floor().can_detect(imprint));
    }

    #[test]
    fn zick_lab_instrument_can() {
        let (model, cell) = burned_cell(LogicLevel::One, 922.0);
        let imprint = cell.imprint_ps(&model, 1.0);
        assert!(PrecisionInstrument::zick_lab().can_detect(imprint));
    }

    #[test]
    fn imprint_sign_still_encodes_the_bit() {
        let (model, one) = burned_cell(LogicLevel::One, 500.0);
        let (_, zero) = burned_cell(LogicLevel::Zero, 500.0);
        assert!(one.imprint_ps(&model, 1.0) > 0.0);
        assert!(zero.imprint_ps(&model, 1.0) < 0.0);
    }

    #[test]
    fn routes_beat_luts_by_orders_of_magnitude() {
        // The paper's resource-selection argument in one assertion: the
        // same burn leaves a ~100x larger imprint on a 1000 ps route than
        // on a LUT cell.
        let model = BtiModel::ultrascale_plus();
        let mut route = AgingArena::new(&model);
        let slot = route.ensure(0);
        route.advance_slot(
            slot,
            &model,
            Hours::new(200.0),
            LogicLevel::One.duty(),
            Celsius::new(60.0),
        );
        let route_imprint = route.view_at(slot).delta_ps_scaled(&model, 1_000.0, 1.0);
        let (_, cell) = burned_cell(LogicLevel::One, 200.0);
        let lut_imprint = cell.imprint_ps(&model, 1.0);
        assert!(
            route_imprint / lut_imprint > 100.0,
            "route {route_imprint} ps vs LUT {lut_imprint} ps"
        );
    }

    #[test]
    fn accessors_round_trip() {
        let model = BtiModel::ultrascale_plus();
        let cell = LutConfigCell::new(&model, TileCoord::new(9, 4), 31);
        assert_eq!(cell.location(), TileCoord::new(9, 4));
        assert_eq!(cell.bit_index, 31);
        assert_eq!(cell.aging().stress_hours(), Hours::ZERO);
    }
}
