//! `attack_tdc`: Threat Model 1 (200 h conditioning, hourly reads), then
//! Threat Model 2 (200 h victim, 25 h recovery watch), both through the
//! full TDC pipeline on aged `aws_f1_like` devices with 4 route lengths ×
//! 8 routes and the repeats of the `attack_accuracy` sweep.
//!
//! The untraced pass calls the library's attack functions. The traced pass
//! runs the same two attacks through code in this file that calls `Provider`,
//! `Skeleton::place`, the `TdcArray` streamed batches and the classifiers
//! in the library's order, timing each layer; its outcomes must be
//! bit-identical to `threat_model1::run` / `threat_model2::run`.

use std::time::Instant;

use bti_physics::{Hours, LogicLevel};
use cloud::{Provider, ProviderConfig, TenantId};
use obs::Recorder;
use pentimento::threat_model1::{self, ThreatModel1Config, ThreatModel1Outcome};
use pentimento::threat_model2::{self, ThreatModel2Config, ThreatModel2Outcome};
use pentimento::{
    build_condition_design, build_target_design, BitClassifier, DriftSlopeClassifier,
    MeasurementMode, PentimentoError, RecoveryMetrics, RecoverySlopeClassifier, RouteGroupSpec,
    RouteSeries, Skeleton, ARITHMETIC_HEAVY_WATTS, CONDITION_WATTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdc::{TdcArray, TdcConfig};

use crate::measure::{
    fnv1a_extend, route_delay_probe, samples_per_read, Busy, Layers, Pass, FNV_OFFSET,
};

const LENGTHS: [f64; 4] = [1_000.0, 2_000.0, 5_000.0, 10_000.0];
const ROUTES_PER_LENGTH: usize = 8;
const TM1_BURN_HOURS: usize = 200;
const TM2_VICTIM_HOURS: usize = 200;
const TM2_ATTACK_HOURS: usize = 25;

/// TM1 at the `attack_accuracy` 200 h point; `--seed 200` reproduces that
/// sweep's cell exactly.
fn tm1_config(seed: u64) -> ThreatModel1Config {
    ThreatModel1Config {
        route_lengths_ps: LENGTHS.to_vec(),
        routes_per_length: ROUTES_PER_LENGTH,
        burn_hours: TM1_BURN_HOURS,
        measure_every: 1,
        mode: MeasurementMode::Tdc,
        seed: seed.wrapping_add(500),
        measurement_repeats: 4,
    }
}

/// TM2 at the `attack_accuracy` 200 h victim point (`--seed 200` again
/// reproduces that cell).
fn tm2_config(seed: u64) -> ThreatModel2Config {
    ThreatModel2Config {
        route_lengths_ps: LENGTHS.to_vec(),
        routes_per_length: ROUTES_PER_LENGTH,
        victim_hours: TM2_VICTIM_HOURS,
        attack_hours: TM2_ATTACK_HOURS,
        condition_level: LogicLevel::Zero,
        mode: MeasurementMode::Tdc,
        seed: seed.wrapping_add(900),
        measurement_repeats: 8,
        victim_hold_and_recover_hours: 0,
    }
}

/// Builds the two providers.
pub fn setup(seed: u64) -> (Provider, Provider) {
    let tm1 = Provider::new(ProviderConfig::aws_f1_like(1, tm1_config(seed).seed));
    let tm2 = Provider::new(ProviderConfig::aws_f1_like(2, tm2_config(seed).seed));
    (tm1, tm2)
}

fn record_pass(
    body_s: f64,
    tm1_s: f64,
    tm1: &ThreatModel1Outcome,
    tm2: &ThreatModel2Outcome,
) -> Pass {
    let routes = (LENGTHS.len() * ROUTES_PER_LENGTH) as f64;
    let tm1_hours = TM1_BURN_HOURS as f64;
    let tm2_hours = (TM2_VICTIM_HOURS + TM2_ATTACK_HOURS) as f64;
    let mut pass = Pass {
        body_s,
        route_hours: routes * (tm1_hours + tm2_hours),
        attempted: 2,
        steps_ms: vec![tm1_s * 1e3 / tm1_hours, (body_s - tm1_s) * 1e3 / tm2_hours],
        ..Pass::default()
    };
    pass.score(&tm1.series, &tm1.recovered);
    pass.score(&tm2.series, &tm2.recovered);
    // The full outcomes (truth and scores too) are the identity the
    // traced pass must reproduce: FNV-1a over their `Debug` rendering.
    pass.digest = fnv1a_extend(FNV_OFFSET, format!("{:?}", (tm1, tm2)).as_bytes());
    pass
}

/// One untraced pass through `threat_model1::run` and `threat_model2::run`.
pub fn pass(seed: u64) -> Result<Pass, PentimentoError> {
    let (mut p1, mut p2) = setup(seed);
    let body = Instant::now();
    let tm1 = threat_model1::run(&mut p1, &tm1_config(seed))?;
    let tm1_s = body.elapsed().as_secs_f64();
    let tm2 = threat_model2::run(&mut p2, &tm2_config(seed))?;
    let body_s = body.elapsed().as_secs_f64();
    Ok(record_pass(body_s, tm1_s, &tm1, &tm2))
}

/// One traced pass through this file's re-implementation, filling `layers`.
pub fn pass_traced(seed: u64, layers: &mut Layers) -> Result<Pass, PentimentoError> {
    let recorder = Recorder::new();
    let (mut p1, mut p2) = setup(seed);
    let body = Instant::now();
    let (tm1, tm1_device) = traced_tm1(&mut p1, &tm1_config(seed), &recorder, layers)?;
    let tm1_s = body.elapsed().as_secs_f64();
    let tm2 = traced_tm2(&mut p2, &tm2_config(seed), &recorder, layers)?;
    let body_s = body.elapsed().as_secs_f64();

    layers.tdc_sensor_reads = recorder.counter("tdc.sensor_reads");
    layers.tdc_samples = layers.tdc_sensor_reads * samples_per_read();
    let cache = p1.decay_cache_stats().combined(p2.decay_cache_stats());
    layers.cache_hits = cache.hits;
    layers.cache_misses = cache.misses;
    layers.arena_bytes_peak = p1
        .peak_aging_memory_bytes()
        .max(p2.peak_aging_memory_bytes()) as u64;
    let points = |series: &[RouteSeries]| series.iter().map(|s| s.hours.len() as u64).sum::<u64>();
    layers.points_recorded = points(&tm1.series) + points(&tm2.series);
    layers.points_attempted = layers.points_recorded;
    // Layer probe on the workload's own routes and aged TM1 device.
    let device = p1.device_by_id(tm1_device)?;
    let skeleton = Skeleton::place(device, &specs(&tm1_config(seed).route_lengths_ps))?;
    let routes: Vec<_> = skeleton.routes().cloned().collect();
    layers.route_delay_ns_per_call = route_delay_probe(device, &routes);
    Ok(record_pass(body_s, tm1_s, &tm1, &tm2))
}

fn specs(lengths: &[f64]) -> Vec<RouteGroupSpec> {
    lengths
        .iter()
        .map(|&target_ps| RouteGroupSpec {
            target_ps,
            count: ROUTES_PER_LENGTH,
        })
        .collect()
}

fn series_of(
    skeleton: &Skeleton,
    truth: &[LogicLevel],
    hours: &[f64],
    readings: &[Vec<f64>],
) -> Vec<RouteSeries> {
    skeleton
        .entries()
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            RouteSeries::from_raw(
                i,
                entry.target_ps,
                truth[i],
                hours.to_vec(),
                readings[i].clone(),
            )
        })
        .collect()
}

/// One streamed measurement phase, timed into the `tdc` layer.
fn measure(
    sensors: &TdcArray,
    device: &fpga_fabric::FpgaDevice,
    repeats: usize,
    master_seed: u64,
    phase: u64,
    recorder: &Recorder,
    busy: &mut Busy,
) -> Result<Vec<f64>, PentimentoError> {
    Ok(busy.time(|| {
        sensors.measure_deltas_streamed_observed(
            device,
            repeats,
            master_seed,
            phase,
            Some(recorder),
        )
    })?)
}

/// `threat_model1::run`, step for step, with each layer timed. Also
/// returns the attacked device, for the post-run fabric probe.
fn traced_tm1(
    provider: &mut Provider,
    config: &ThreatModel1Config,
    recorder: &Recorder,
    layers: &mut Layers,
) -> Result<(ThreatModel1Outcome, cloud::DeviceId), PentimentoError> {
    let master_seed = config.seed ^ 0x7EA5_E77E;
    let mut rng = StdRng::seed_from_u64(master_seed);
    let attacker = TenantId::new("attacker");
    let session = provider.rent(attacker.clone())?;
    let device_id = session.device_id();
    let specs = specs(&config.route_lengths_ps);
    let device = provider.device(&session)?;
    let skeleton = layers
        .skeleton_place
        .time(|| Skeleton::place(device, &specs))?;
    let truth: Vec<LogicLevel> = (0..skeleton.len())
        .map(|_| LogicLevel::from_bool(rng.gen()))
        .collect();
    let afi = provider.marketplace_mut().publish(
        TenantId::new("vendor"),
        build_target_design(&skeleton, &truth),
        true,
    );
    if provider.marketplace().get(afi)?.inspect(&attacker).is_ok() {
        return Err(PentimentoError::InvalidConfig(
            "marketplace seal broken".to_owned(),
        ));
    }
    let device = provider.device(&session)?;
    let mut sensors = TdcArray::place(
        device,
        skeleton.entries().iter().map(|e| e.route.clone()),
        TdcConfig::cloud(),
    )?;
    layers
        .tdc_calibrate
        .time(|| sensors.calibrate_all_streamed_observed(device, master_seed, Some(recorder)))?;

    let repeats = config.measurement_repeats.max(1);
    let mut hours = vec![0.0];
    let first = measure(
        &sensors,
        device,
        repeats,
        master_seed,
        0,
        recorder,
        &mut layers.tdc_measure,
    )?;
    let mut readings: Vec<Vec<f64>> = first.into_iter().map(|v| vec![v]).collect();
    provider.load_afi(&session, afi)?;
    for hour in 1..=config.burn_hours {
        layers
            .advance_time
            .time(|| provider.advance_time(Hours::new(1.0)));
        if hour % config.measure_every == 0 {
            let phase = hours.len() as u64;
            hours.push(hour as f64);
            let device = provider.device(&session)?;
            let measured = measure(
                &sensors,
                device,
                repeats,
                master_seed,
                phase,
                recorder,
                &mut layers.tdc_measure,
            )?;
            for (per_route, value) in readings.iter_mut().zip(measured) {
                per_route.push(value);
            }
        }
    }
    provider.unload(&session)?;
    provider.release(session)?;

    let series = series_of(&skeleton, &truth, &hours, &readings);
    let recovered = layers
        .classify
        .time(|| DriftSlopeClassifier::new().classify_all(&series));
    let metrics = RecoveryMetrics::score(&series, &recovered);
    let outcome = ThreatModel1Outcome {
        series,
        recovered,
        truth,
        metrics,
    };
    Ok((outcome, device_id))
}

/// `threat_model2::run`, step for step, with each layer timed.
fn traced_tm2(
    provider: &mut Provider,
    config: &ThreatModel2Config,
    recorder: &Recorder,
    layers: &mut Layers,
) -> Result<ThreatModel2Outcome, PentimentoError> {
    let master_seed = config.seed ^ 0x0DD_B175;
    let mut rng = StdRng::seed_from_u64(master_seed);
    let specs = specs(&config.route_lengths_ps);

    let victim_session = provider.rent(TenantId::new("victim"))?;
    let victim_device = victim_session.device_id();
    let device = provider.device(&victim_session)?;
    let skeleton = layers
        .skeleton_place
        .time(|| Skeleton::place(device, &specs))?;
    let truth: Vec<LogicLevel> = (0..skeleton.len())
        .map(|_| LogicLevel::from_bool(rng.gen()))
        .collect();
    provider.load_design(&victim_session, build_target_design(&skeleton, &truth))?;
    let attacker = TenantId::new("attacker");
    let squatted = provider.rent_all(attacker.clone()).unwrap_or_default();
    layers
        .advance_time
        .time(|| provider.advance_time(Hours::new(config.victim_hours as f64)));
    provider.unload(&victim_session)?;
    provider.release(victim_session)?;

    let session = provider.rent(attacker)?;
    let reacquired = session.device_id() == victim_device;
    for s in squatted {
        provider.release(s)?;
    }
    if !reacquired {
        return Err(PentimentoError::VictimDeviceLost);
    }

    let device = provider.device(&session)?;
    let mut sensors = TdcArray::place(
        device,
        skeleton.entries().iter().map(|e| e.route.clone()),
        TdcConfig::cloud(),
    )?;
    layers
        .tdc_calibrate
        .time(|| sensors.calibrate_all_streamed_observed(device, master_seed, Some(recorder)))?;

    let repeats = config.measurement_repeats.max(1);
    let epoch = provider.now().value();
    let mut hours = vec![0.0];
    let first = measure(
        &sensors,
        device,
        repeats,
        master_seed,
        0,
        recorder,
        &mut layers.tdc_measure,
    )?;
    let mut readings: Vec<Vec<f64>> = first.into_iter().map(|v| vec![v]).collect();
    provider.load_design(
        &session,
        build_condition_design(&skeleton, config.condition_level),
    )?;
    for _ in 0..config.attack_hours {
        layers
            .advance_time
            .time(|| provider.advance_time(Hours::new(1.0)));
        let phase = hours.len() as u64;
        hours.push(provider.now().value() - epoch);
        let device = provider.device(&session)?;
        let measured = measure(
            &sensors,
            device,
            repeats,
            master_seed,
            phase,
            recorder,
            &mut layers.tdc_measure,
        )?;
        for (per_route, value) in readings.iter_mut().zip(measured) {
            per_route.push(value);
        }
    }
    provider.unload(&session)?;
    provider.release(session)?;

    let series = series_of(&skeleton, &truth, &hours, &readings);
    let reference = provider.device_by_id(victim_device)?;
    let recovered = layers.classify.time(|| {
        let classifier = RecoverySlopeClassifier::calibrated(
            reference.bti_model(),
            config.victim_hours as f64,
            config.attack_hours as f64,
            reference.thermal().die_temperature(ARITHMETIC_HEAVY_WATTS),
            reference.thermal().die_temperature(CONDITION_WATTS),
            reference.wear_factor(),
        );
        classifier.classify_all(&series)
    });
    let metrics = RecoveryMetrics::score(&series, &recovered);
    Ok(ThreatModel2Outcome {
        series,
        recovered,
        truth,
        metrics,
        reacquired_victim_device: reacquired,
    })
}
