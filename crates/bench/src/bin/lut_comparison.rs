//! Regenerates the Section 7 resource-selection argument against Zick et
//! al.'s LUT-SRAM target: config-cell imprints are femtosecond-scale and
//! invisible to on-chip cloud sensors, while programmable-routing imprints
//! of the same burn are two-plus orders of magnitude larger.

use bench::{exit_by, ShapeReport};
use bti_physics::{AgingArena, BtiModel, Celsius, Hours, LogicLevel};
use fpga_fabric::{LutConfigCell, PrecisionInstrument, TileCoord};

fn main() {
    let model = BtiModel::ultrascale_plus();
    let t60 = Celsius::new(60.0);

    println!("Section 7: why the paper targets routing, not LUT SRAM cells\n");
    println!(
        "{:>8} | {:>16} {:>16} | {:>12} {:>12}",
        "burn h", "LUT imprint ps", "1000ps route ps", "cloud TDC?", "Zick lab?"
    );

    let mut last_ratio = 0.0;
    let mut lut_922 = 0.0;
    for hours in [100.0, 200.0, 500.0, 922.0] {
        let mut cell = LutConfigCell::new(&model, TileCoord::new(5, 5), 0);
        cell.hold(&model, LogicLevel::One, Hours::new(hours), t60);
        let lut_imprint = cell.imprint_ps(&model, 1.0);

        let mut route = AgingArena::new(&model);
        let slot = route.ensure(0);
        route.advance_slot(slot, &model, Hours::new(hours), LogicLevel::One.duty(), t60);
        let route_imprint = route.view_at(slot).delta_ps_scaled(&model, 1_000.0, 1.0);

        let cloud = PrecisionInstrument::cloud_tdc_floor();
        let lab = PrecisionInstrument::zick_lab();
        println!(
            "{hours:>8.0} | {lut_imprint:>16.5} {route_imprint:>16.3} | {:>12} {:>12}",
            if cloud.can_detect(lut_imprint) {
                "yes"
            } else {
                "NO"
            },
            if lab.can_detect(lut_imprint) {
                "yes"
            } else {
                "NO"
            },
        );
        last_ratio = route_imprint / lut_imprint;
        if (hours - 922.0).abs() < 1.0 {
            lut_922 = lut_imprint;
        }
    }

    let mut report = ShapeReport::new();
    report.check(
        "routing imprints exceed LUT-SRAM imprints by >100x at every burn length",
        last_ratio > 100.0,
        format!("ratio {last_ratio:.0}x"),
    );
    report.check(
        "even Zick's 922 h burn leaves a LUT imprint below the cloud TDC floor",
        !PrecisionInstrument::cloud_tdc_floor().can_detect(lut_922),
        format!("{lut_922:.5} ps vs 0.1 ps floor"),
    );
    report.check(
        "a femtosecond-class lab instrument (off-chip oscillator) can still read it",
        PrecisionInstrument::zick_lab().can_detect(lut_922),
        format!("{lut_922:.5} ps vs 0.001 ps floor"),
    );
    exit_by(report.finish());
}
