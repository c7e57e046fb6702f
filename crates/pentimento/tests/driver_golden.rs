//! Bit-level goldens for the two threat-model entry points,
//! `threat_model1::run` and `threat_model2::run`.
//!
//! Each case folds the outcome's `series` (route index, target, burn
//! value, every hour and Δps as `f64::to_bits()`), `recovered` and
//! `truth` into one FNV-1a digest. Any change to the attack protocol that
//! moves a reading by one ulp, reorders an RNG draw or flips a verdict
//! fails here before it can shift a CSV.

use bti_physics::LogicLevel;
use cloud::{Provider, ProviderConfig};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{MeasurementMode, RouteSeries};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn levels(&mut self, levels: &[LogicLevel]) {
        self.word(levels.len() as u64);
        for &level in levels {
            self.word(u64::from(level.as_bool()));
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

fn digest(series: &[RouteSeries], recovered: &[LogicLevel], truth: &[LogicLevel]) -> u64 {
    let mut h = Fnv::new();
    h.word(series.len() as u64);
    for s in series {
        h.word(s.route_index as u64);
        h.word(s.target_ps.to_bits());
        h.word(u64::from(s.burn_value.as_bool()));
        h.floats(&s.hours);
        h.floats(&s.delta_ps);
    }
    h.levels(recovered);
    h.levels(truth);
    h.0
}

fn tm1_config(mode: MeasurementMode) -> ThreatModel1Config {
    match mode {
        MeasurementMode::Oracle => ThreatModel1Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 60,
            measure_every: 10,
            mode,
            seed: 11,
            measurement_repeats: 1,
        },
        MeasurementMode::Tdc => ThreatModel1Config {
            route_lengths_ps: vec![2_000.0, 10_000.0],
            routes_per_length: 2,
            burn_hours: 30,
            measure_every: 3,
            mode,
            seed: 21,
            measurement_repeats: 2,
        },
    }
}

fn tm2_config(mode: MeasurementMode) -> ThreatModel2Config {
    match mode {
        MeasurementMode::Oracle => ThreatModel2Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            victim_hours: 100,
            attack_hours: 25,
            condition_level: LogicLevel::Zero,
            mode,
            seed: 13,
            measurement_repeats: 1,
            victim_hold_and_recover_hours: 0,
        },
        MeasurementMode::Tdc => ThreatModel2Config {
            route_lengths_ps: vec![2_000.0, 10_000.0],
            routes_per_length: 2,
            victim_hours: 80,
            attack_hours: 10,
            condition_level: LogicLevel::Zero,
            mode,
            seed: 23,
            measurement_repeats: 2,
            victim_hold_and_recover_hours: 0,
        },
    }
}

fn tm1_digest(pool: u32, provider_seed: u64, config: &ThreatModel1Config) -> u64 {
    let mut provider = Provider::new(ProviderConfig::aws_f1_like(pool, provider_seed));
    let outcome = threat_model1::run(&mut provider, config).expect("attack completes");
    digest(&outcome.series, &outcome.recovered, &outcome.truth)
}

fn tm2_digest(pool: u32, provider_seed: u64, config: &ThreatModel2Config) -> u64 {
    let mut provider = Provider::new(ProviderConfig::aws_f1_like(pool, provider_seed));
    let outcome = threat_model2::run(&mut provider, config).expect("attack completes");
    assert!(outcome.reacquired_victim_device);
    digest(&outcome.series, &outcome.recovered, &outcome.truth)
}

#[test]
fn tm1_oracle_outcome_is_pinned() {
    let d = tm1_digest(2, 1, &tm1_config(MeasurementMode::Oracle));
    assert_eq!(d, 0x45be_7833_9d08_8df5, "digest {d:#018x}");
}

#[test]
fn tm1_tdc_outcome_is_pinned() {
    let d = tm1_digest(1, 2, &tm1_config(MeasurementMode::Tdc));
    assert_eq!(d, 0x72f6_e88c_efb1_029b, "digest {d:#018x}");
}

#[test]
fn tm2_oracle_outcome_is_pinned() {
    let d = tm2_digest(3, 5, &tm2_config(MeasurementMode::Oracle));
    assert_eq!(d, 0x3a14_2224_883a_be0d, "digest {d:#018x}");
}

#[test]
fn tm2_oracle_hold_and_recover_outcome_is_pinned() {
    let mut config = tm2_config(MeasurementMode::Oracle);
    config.victim_hold_and_recover_hours = 40;
    let d = tm2_digest(2, 7, &config);
    assert_eq!(d, 0xb0dd_1b9e_868e_c80d, "digest {d:#018x}");
}

#[test]
fn tm2_tdc_outcome_is_pinned() {
    let d = tm2_digest(2, 6, &tm2_config(MeasurementMode::Tdc));
    assert_eq!(d, 0x88ba_494e_981d_940c, "digest {d:#018x}");
}
