//! Regenerates **Figure 3**'s capture semantics: raw TDC capture words
//! for rising and falling transitions, their metastable fronts, and the
//! binary-Hamming-distance post-processing (the paper's example sequence
//! is 39, 22, 38, 22 on a 64-element chain).

use bench::{exit_by, ShapeReport};
use fpga_fabric::{FpgaDevice, RouteRequest, TileCoord, TransitionKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc::{TdcConfig, TdcSensor};

fn word_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn main() {
    let device = FpgaDevice::zcu102_new(42);
    let route = device
        .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 2_000.0))
        .expect("routable");
    let mut sensor = TdcSensor::place(&device, route, TdcConfig::lab()).expect("sensor placement");
    let mut rng = StdRng::seed_from_u64(42);
    let theta = sensor.calibrate(&device, &mut rng).expect("calibrates");

    println!("Figure 3: TDC capture words at theta_init = {theta:.1} ps (64-element chain)\n");
    let mut distances = Vec::new();
    for i in 0..2 {
        for kind in [TransitionKind::Rising, TransitionKind::Falling] {
            let word = sensor.capture_sample(&device, theta, kind, &mut rng);
            let d = word.propagation_distance();
            println!(
                "{kind:>7} transition {i}: {}  -> Hamming distance {d}",
                word_to_string(&word.bits())
            );
            distances.push((kind, d));
        }
    }

    println!(
        "\nHamming sequence: {:?}",
        distances.iter().map(|(_, d)| *d).collect::<Vec<_>>()
    );

    let mut report = ShapeReport::new();
    report.check(
        "rising and falling fronts land mid-chain after calibration",
        distances.iter().all(|&(_, d)| d > 6 && d < 58),
        format!("{distances:?}"),
    );
    let rising: Vec<usize> = distances
        .iter()
        .filter(|(k, _)| *k == TransitionKind::Rising)
        .map(|&(_, d)| d)
        .collect();
    report.check(
        "repeated captures of the same polarity vary by at most a few bits (jitter + metastability)",
        rising.windows(2).all(|w| w[0].abs_diff(w[1]) <= 6),
        format!("rising distances {rising:?}"),
    );
    // The chain is non-uniform silicon: element delays spread around
    // 2.8 ps/bit, which is why the measurement phase sweeps theta.
    let chain = sensor.chain();
    let spread = chain
        .element_delays_ps()
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &d| {
            (lo.min(d), hi.max(d))
        });
    println!(
        "carry-chain element delays: {:.2}..{:.2} ps (nominal {} ps/bit)",
        spread.0,
        spread.1,
        fpga_fabric::CARRY_ELEMENT_PS
    );
    report.check(
        "carry elements average ~2.8 ps with per-element variation",
        spread.0 > 2.0 && spread.1 < 3.6 && spread.1 > spread.0,
        format!("{:.2}..{:.2} ps", spread.0, spread.1),
    );
    exit_by(report.finish());
}
