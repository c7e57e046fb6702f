//! Bit-level goldens for every single-resource aging user: the
//! classifier calibrations, the Figure 2 inverter and the LUT-SRAM cell.
//!
//! The pinned values are `f64::to_bits()` patterns, so any change to the
//! aging store that moves a single ulp (the CET weight normalisation,
//! the per-bin update order, the level read-out sum) fails here before
//! it can shift a CSV or trace.

use bti_physics::{BtiModel, Celsius, Hours, Inverter, LogicLevel};
use fpga_fabric::{FpgaDevice, LutConfigCell, TileCoord};
use pentimento::{
    MatchedFilterClassifier, RecoverySlopeClassifier, ARITHMETIC_HEAVY_WATTS, CONDITION_WATTS,
};

/// 64-bit FNV-1a over the bit patterns of `values`.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The Threat Model 2 driver's calibration inputs: a cloud device's burn
/// and attack die temperatures and its wear factor.
fn tm2_conditions() -> (BtiModel, Celsius, Celsius, f64) {
    let device = FpgaDevice::aws_f1(7, Hours::new(3.0 * 8_760.0));
    (
        device.bti_model().clone(),
        device.thermal().die_temperature(ARITHMETIC_HEAVY_WATTS),
        device.thermal().die_temperature(CONDITION_WATTS),
        device.wear_factor(),
    )
}

#[test]
fn recovery_slope_threshold_is_pinned() {
    let (model, burn, attack, wear) = tm2_conditions();
    let c = RecoverySlopeClassifier::calibrated(&model, 200.0, 25.0, burn, attack, wear);
    assert_eq!(c.threshold_per_ps.to_bits(), 13_740_348_352_684_215_810);
}

#[test]
fn matched_filter_templates_are_pinned() {
    let (model, burn, attack, wear) = tm2_conditions();
    let c = MatchedFilterClassifier::calibrated(&model, 200.0, 25, burn, attack, wear);
    assert_eq!(c.template_one().len(), 26);
    assert_eq!(digest(c.template_one()), 2_818_356_028_882_029_014);
    assert_eq!(digest(c.template_zero()), 17_293_253_932_677_732_385);
}

#[test]
fn inverter_delta_is_pinned() {
    let model = BtiModel::ultrascale_plus();
    let mut one = Inverter::new(&model, 25.0);
    let mut zero = Inverter::new(&model, 25.0);
    let t = Celsius::new(60.0);
    let mut deltas = Vec::new();
    for _ in 0..8 {
        one.hold_input(&model, LogicLevel::One, Hours::new(25.0), t);
        zero.hold_input(&model, LogicLevel::Zero, Hours::new(25.0), t);
        deltas.push(one.delta_ps(&model));
        deltas.push(zero.delta_ps(&model));
    }
    assert_eq!(one.delta_ps(&model).to_bits(), 4_582_976_748_534_251_520);
    assert_eq!(digest(&deltas), 13_312_345_785_834_036_716);
}

#[test]
fn lut_cell_imprint_is_pinned() {
    let model = BtiModel::ultrascale_plus();
    let imprints: Vec<f64> = [100.0, 200.0, 500.0, 922.0]
        .iter()
        .flat_map(|&hours| {
            [LogicLevel::One, LogicLevel::Zero].map(|level| {
                let mut cell = LutConfigCell::new(&model, TileCoord::new(5, 5), 0);
                cell.hold(&model, level, Hours::new(hours), Celsius::new(60.0));
                cell.imprint_ps(&model, 1.0)
            })
        })
        .collect();
    assert_eq!(imprints[6].to_bits(), 4_575_301_738_915_598_780);
    assert_eq!(digest(&imprints), 15_656_306_387_474_264_420);
}
