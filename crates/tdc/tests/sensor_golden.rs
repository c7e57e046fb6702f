//! Golden pin of the sensing path: the exact bits of θ_init from
//! calibration and of every `Measurement` field from the plain and the
//! robust read, across route lengths, sensor profiles and device ages.
//!
//! Any change to the capture loop, its RNG draw order or the Hamming
//! aggregation that moves a single bit fails here. Regenerate the table
//! only for a change that is meant to alter sensor output.

use bti_physics::{DutyCycle, Hours};
use fpga_fabric::{FpgaDevice, RouteRequest, TileCoord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc::{Measurement, SensorFaultPlan, TdcConfig, TdcSensor};

/// Bits of θ_init, then `measure`'s fields, then `measure_robust`'s.
type Pin = [u64; 15];

fn measurement_bits(m: &Measurement) -> [u64; 7] {
    [
        m.theta_init_ps.to_bits(),
        m.rise_distance_bits.to_bits(),
        m.fall_distance_bits.to_bits(),
        m.delta_ps.to_bits(),
        m.rise_delay_ps.to_bits(),
        m.fall_delay_ps.to_bits(),
        m.trace_count as u64,
    ]
}

fn pin(target_ps: f64, config: TdcConfig, conditioned: bool, seed: u64) -> Pin {
    let mut device = FpgaDevice::zcu102_new(seed);
    let route = device
        .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), target_ps))
        .expect("routable");
    if conditioned {
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
    }
    let mut sensor = TdcSensor::place(&device, route, config).expect("places");
    let mut rng = StdRng::seed_from_u64(seed);
    let theta = sensor.calibrate(&device, &mut rng).expect("calibrates");
    let plain = sensor.measure(&device, &mut rng).expect("measures");
    sensor.set_fault_plan(SensorFaultPlan::noisy(seed, 0.15));
    let robust = sensor
        .measure_robust(&device, 0.5, &mut rng)
        .expect("robust read survives");
    let mut out = [0; 15];
    out[0] = theta.to_bits();
    out[1..8].copy_from_slice(&measurement_bits(&plain));
    out[8..].copy_from_slice(&measurement_bits(&robust));
    out
}

fn cases() -> Vec<(f64, &'static str, bool)> {
    let mut cases = Vec::new();
    for target in [1_000.0, 5_000.0, 10_000.0] {
        for profile in ["lab", "cloud"] {
            for conditioned in [false, true] {
                cases.push((target, profile, conditioned));
            }
        }
    }
    cases
}

#[rustfmt::skip]
const EXPECTED: [Pin; 12] = [
    [0x409025e306e5c326, 0x409024cccccccccd, 0x4035d4cccccccccd, 0x4035eb3333333333, 0xbfcf5c28f5c28f5b, 0x408dfbc7ae147ae2, 0x408df9d1eb851eb8, 0x000000000000000a, 0x409024cccccccccd, 0x40371a52fa84fda4, 0x40331b3f0945e9b4, 0x4026613c7a2e0945, 0x408ddb9034bf07ac, 0x408e351526a7bfd0, 0x0000000000000009],
    [0x40907d8503209a40, 0x40907e6666666666, 0x403329999999999a, 0x403291999999999a, 0x3ffa99999999999a, 0x408eeac28f5c28f5, 0x408ef80f5c28f5c2, 0x000000000000000a, 0x40907e6666666666, 0x403552e0ece4ea3c, 0x4031d02982982983, 0x4023a8cfece1040e, 0x408eba591e78c51b, 0x408f08fc5e2c492b, 0x000000000000000a],
    [0x409026437ad6c97d, 0x409024cccccccccd, 0x40405d999999999a, 0x4040473333333333, 0x3fdf5c28f5c28f5a, 0x408d079eb851eb85, 0x408d0b8a3d70a3d6, 0x000000000000000a, 0x409024cccccccccd, 0x40406b90f90f90f9, 0x40405a14a14a14a2, 0x3fd87ae147ae1461, 0x408d052d079d46a2, 0x408d083c63c63c65, 0x000000000000000a],
    [0x40901d7457d3a887, 0x40901f3333333333, 0x403d0ccccccccccd, 0x403c9ccccccccccd, 0x3ff399999999999a, 0x408d4ee147ae147a, 0x408d58ae147ae146, 0x000000000000000a, 0x40901f3333333333, 0x403dea0b0716d7d5, 0x403a8ee1bae87b53, 0x4022cb4daa9d3930, 0x408d3b856f613383, 0x408d86b2a60ba868, 0x000000000000000a],
    [0x40b3d3a974f02b9f, 0x40b3d30000000000, 0x404101999999999a, 0x4041000000000000, 0x3fa1eb851eb851ee, 0x40b3672a3d70a3d7, 0x40b3673333333333, 0x000000000000000a, 0x40b3d30000000000, 0x4040125d009386e5, 0x404118bd2441f9a7, 0xc016f5365276d75e, 0x40b36c65f72ff90c, 0x40b366a8a99b5b56, 0x000000000000000a],
    [0x40b3d43949f1cc50, 0x40b3d46666666666, 0x403acccccccccccd, 0x40390ccccccccccd, 0x401399999999999a, 0x40b37cc28f5c28f5, 0x40b381a8f5c28f5b, 0x000000000000000a, 0x40b3d46666666666, 0x403a5f4a74a74a73, 0x4038c4ce68d3eefe, 0x4011f56d513f339a, 0x40b37df52f862b96, 0x40b382728ada7b62, 0x000000000000000a],
    [0x40b37eab8b5cfe20, 0x40b37f0000000000, 0x40327e6666666666, 0x403274cccccccccd, 0x3fbae147ae147ae0, 0x40b33e9e147ae148, 0x40b33eb8f5c28f5b, 0x000000000000000a, 0x40b37f0000000000, 0x40341f480e1a7b42, 0x403235b4280f4dc2, 0x40156b4543b063ff, 0x40b33a0ecfd882a6, 0x40b33f69a1296ec0, 0x000000000000000a],
    [0x40b4297cd66e9003, 0x40b429cccccccccc, 0x4038b66666666666, 0x4036e00000000000, 0x4014947ae147ae14, 0x40b3d80147ae147a, 0x40b3dd2666666666, 0x000000000000000a, 0x40b429cccccccccc, 0x40375648fe297c30, 0x4037d8e9600a5dbe, 0xbff6dc1120f44543, 0x40b3dbdb339ebf0a, 0x40b3da6d728cafc6, 0x000000000000000a],
    [0x40c3bd73bc08a168, 0x40c3bd4ccccccccc, 0x40360e6666666666, 0x40360b3333333333, 0x3fa1eb851eb851ea, 0x40c3981f0a3d70a4, 0x40c39823851eb852, 0x000000000000000a, 0x40c3bd4ccccccccc, 0x403725a930aef851, 0x4035f89ad67a3470, 0x400a57a7e49df07e, 0x40c3969813223e3d, 0x40c3983d8da0881c, 0x000000000000000a],
    [0x40c3c39d2a8f339c, 0x40c3c39999999999, 0x403c3e6666666666, 0x4038866666666666, 0x4024d33333333333, 0x40c395c23d70a3d6, 0x40c39af70a3d70a3, 0x000000000000000a, 0x40c3c39999999999, 0x403b70823b56e8a2, 0x40395a9b2c06888e, 0x40175bb5785100de, 0x40c396e27ce01fed, 0x40c399cdf38f2a0e, 0x000000000000000a],
    [0x40c3bfa76f873826, 0x40c3bf6666666666, 0x403301999999999a, 0x40338b3333333333, 0xbff8147ae147ae14, 0x40c39e7dc28f5c2a, 0x40c39dbd1eb851ea, 0x000000000000000a, 0x40c3bf6666666666, 0x40346bcaa7b87239, 0x403366fc89622fbc, 0x4006d2090df29e04, 0x40c39c82b11530f9, 0x40c39defd1a61022, 0x000000000000000a],
    [0x40c3a1fc9865ec12, 0x40c3a20000000000, 0x4036466666666666, 0x4032b1999999999a, 0x40240e147ae147ae, 0x40c37c83d70a3d70, 0x40c381875c28f5c2, 0x000000000000000a, 0x40c3a20000000000, 0x4037f5addaddadda, 0x403260512ef7020e, 0x402f446d5c3ef546, 0x40c37a280c9a6340, 0x40c381f927f172fd, 0x000000000000000a],
];

#[test]
fn sensing_path_is_bit_identical_to_the_pinned_outputs() {
    let actual: Vec<Pin> = cases()
        .into_iter()
        .enumerate()
        .map(|(i, (target, profile, conditioned))| {
            let config = match profile {
                "lab" => TdcConfig::lab(),
                _ => TdcConfig::cloud(),
            };
            pin(target, config, conditioned, 40 + i as u64)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|p| {
            let row: Vec<String> = p.iter().map(|b| format!("0x{b:016x}")).collect();
            format!("    [{}],\n", row.join(", "))
        })
        .collect();
    for (i, (case, (got, want))) in cases().iter().zip(actual.iter().zip(&EXPECTED)).enumerate() {
        assert_eq!(
            got, want,
            "case {i} {case:?} moved; current table:\n{table}"
        );
    }
    assert_eq!(actual.len(), EXPECTED.len(), "current table:\n{table}");
}
