//! `campaign_hostile`: one TM1 and one TM2 `pentimento::Campaign` through
//! TDC under `FaultPlan::hostile` and `SensorFaultPlan::noisy` at rate
//! 0.08, each driven by `Campaign::step` with `checkpoint()` then
//! `resume()` every 4 h through the fleet's envelope store. It loads the
//! layers of `attack_tdc` and the fleet's checkpoint path in a different
//! way: the robust quorum/MAD read path, reacquisition with fingerprint
//! checks, and the checkpoint read path next to the write path.

use std::sync::Arc;
use std::time::Instant;

use bti_physics::LogicLevel;
use cloud::{FaultPlan, Provider, ProviderConfig};
use fleet::CheckpointStore;
use obs::Recorder;
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::threat_model2::ThreatModel2Config;
use pentimento::{
    Campaign, CampaignConfig, CampaignOutcome, MeasurementMode, Mission, RouteGroupSpec, Skeleton,
};
use tdc::SensorFaultPlan;

use crate::measure::{
    dir_bytes, median, route_delay_probe, samples_per_read, Busy, Layers, Pass, ScratchDir,
};

const FAULT_RATE: f64 = 0.08;
const WEATHER_SEED: u64 = 7;
const LENGTHS: [f64; 2] = [5_000.0, 10_000.0];
const ROUTES_PER_LENGTH: usize = 8;
const TM1_BURN_HOURS: usize = 48;
const TM2_VICTIM_HOURS: usize = 200;
const TM2_ATTACK_HOURS: usize = 25;
const TM1_REPEATS: u64 = 2;
const TM2_REPEATS: u64 = 4;
const CHECKPOINT_EVERY_HOURS: usize = 4;
/// Per campaign, in `missions` order: store id, measurement phases (the
/// hour-0 read plus one per stepped hour) and repeats per phase.
const CAMPAIGNS: [(&str, u64, u64); 2] = [
    ("tm1", 1 + TM1_BURN_HOURS as u64, TM1_REPEATS),
    ("tm2", 1 + TM2_ATTACK_HOURS as u64, TM2_REPEATS),
];

fn missions(seed: u64) -> [Mission; 2] {
    [
        Mission::ThreatModel1(ThreatModel1Config {
            route_lengths_ps: LENGTHS.to_vec(),
            routes_per_length: ROUTES_PER_LENGTH,
            burn_hours: TM1_BURN_HOURS,
            measure_every: 1,
            mode: MeasurementMode::Tdc,
            seed: seed.wrapping_add(4_100),
            measurement_repeats: TM1_REPEATS as usize,
        }),
        Mission::ThreatModel2(ThreatModel2Config {
            route_lengths_ps: LENGTHS.to_vec(),
            routes_per_length: ROUTES_PER_LENGTH,
            victim_hours: TM2_VICTIM_HOURS,
            attack_hours: TM2_ATTACK_HOURS,
            condition_level: LogicLevel::Zero,
            mode: MeasurementMode::Tdc,
            seed: seed.wrapping_add(4_200),
            measurement_repeats: TM2_REPEATS as usize,
            victim_hold_and_recover_hours: 0,
        }),
    ]
}

/// The hostile weather is one fixed fault stream, so every seed meets the
/// same preemptions, scrubs, swaps and sensor faults and `--seed` varies
/// the devices, secrets and sensor noise. (Letting the seed pick the
/// weather too makes accuracy a lottery: one badly timed thermal
/// transient flips a whole campaign's bits.)
fn hostile_config() -> CampaignConfig {
    CampaignConfig {
        fault_plan: FaultPlan::hostile(WEATHER_SEED, FAULT_RATE),
        sensor_faults: SensorFaultPlan::noisy(WEATHER_SEED, FAULT_RATE),
        ..CampaignConfig::default()
    }
}

/// Builds both campaigns, each on its own two-board provider.
pub fn setup(seed: u64, recorder: Option<&Arc<Recorder>>) -> Result<Vec<Campaign>, String> {
    missions(seed)
        .into_iter()
        .enumerate()
        .map(|(index, mission)| {
            let stream = seed.wrapping_mul(2).wrapping_add(index as u64);
            Campaign::new_observed(
                Provider::new(ProviderConfig::aws_f1_like(2, stream)),
                mission,
                hostile_config(),
                recorder.cloned(),
            )
            .map_err(|e| format!("campaign {index} setup: {e}"))
        })
        .collect()
}

/// The checkpoint path of a supervised restart, taken every 4 h: seal the
/// campaign, commit the envelope to the fleet's `CheckpointStore` (write,
/// fsync, rename), scan for the newest valid generation, and resume from
/// the snapshot that envelope seals.
struct CheckpointPath {
    store: CheckpointStore,
    checkpoint: Busy,
    resume: Busy,
    store_io: Busy,
    commit_ms: Vec<f64>,
    scan_ms: Vec<f64>,
}

impl CheckpointPath {
    fn new(root: &ScratchDir) -> Result<Self, String> {
        Ok(Self {
            store: CheckpointStore::open(root.path()).map_err(|e| format!("store: {e}"))?,
            checkpoint: Busy::default(),
            resume: Busy::default(),
            store_io: Busy::default(),
            commit_ms: Vec::new(),
            scan_ms: Vec::new(),
        })
    }

    fn cycle(
        &mut self,
        id: &str,
        generation: u64,
        campaign: &Campaign,
    ) -> Result<Campaign, String> {
        let sealed = self.checkpoint.time(|| campaign.checkpoint());
        let started = Instant::now();
        let landed = self
            .store_io
            .time(|| self.store.commit_batch(&[(id, generation, &sealed)]));
        self.commit_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Some(Err(e)) = landed.into_iter().next() {
            return Err(format!("commit {id}: {e}"));
        }
        let started = Instant::now();
        let (envelope, _) = self
            .store_io
            .time(|| self.store.latest_good(id))
            .map_err(|e| format!("scan {id}: {e}"))?;
        self.scan_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if envelope.generation != generation || envelope.state_checksum != sealed.state_checksum() {
            return Err(format!(
                "{id}: the store's newest envelope does not seal generation {generation}"
            ));
        }
        self.resume
            .time(|| Campaign::resume(sealed))
            .map_err(|e| format!("resume {id}: {e}"))
    }
}

/// Steps `campaign` to completion through the checkpoint path on its
/// cadence, then classifies. Returns the outcome and the final campaign
/// image. A step sample is one `Campaign::step` call, plus the checkpoint
/// cycle on the hours that take one.
fn drive(
    id: &str,
    mut campaign: Campaign,
    steps_ms: &mut Vec<f64>,
    path: &mut CheckpointPath,
) -> Result<(CampaignOutcome, Campaign), String> {
    let mut generation = 0;
    loop {
        let started = Instant::now();
        let more = campaign.step().map_err(|e| format!("step: {e}"))?;
        if more && campaign.hour().is_multiple_of(CHECKPOINT_EVERY_HOURS) {
            campaign = path.cycle(id, generation, &campaign)?;
            generation += 1;
        }
        steps_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if !more {
            break;
        }
    }
    let outcome = campaign.run().map_err(|e| format!("classify: {e}"))?;
    Ok((outcome, campaign))
}

/// One pass over both campaigns. With `layers`, the campaigns carry a
/// recorder and the layer figures are filled in after the run.
pub fn pass(seed: u64, layers: Option<&mut Layers>) -> Result<Pass, String> {
    let recorder = layers.is_some().then(|| Arc::new(Recorder::new()));
    let campaigns = setup(seed, recorder.as_ref())?;
    let mut pass = Pass {
        // The TM2 victim epoch runs inside `Campaign::new`, so only the
        // attack-window hours are stepped in the timed body.
        route_hours: (LENGTHS.len() * ROUTES_PER_LENGTH) as f64
            * (TM1_BURN_HOURS + TM2_ATTACK_HOURS) as f64,
        attempted: campaigns.len(),
        ..Pass::default()
    };
    let store = ScratchDir::new("hostile");
    let mut path = CheckpointPath::new(&store)?;
    let body = Instant::now();
    let mut finished = Vec::new();
    for (campaign, (id, phases, repeats)) in campaigns.into_iter().zip(CAMPAIGNS) {
        match drive(id, campaign, &mut pass.steps_ms, &mut path) {
            Ok((outcome, campaign)) => {
                pass.score(&outcome.series, &outcome.recovered);
                finished.push((outcome, campaign, phases, repeats));
            }
            Err(e) => {
                eprintln!("campaign_hostile: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.body_s = body.elapsed().as_secs_f64();

    if let Some(layers) = layers {
        layers.checkpoint = path.checkpoint;
        layers.resume = path.resume;
        layers.store_io = path.store_io;
        layers.checkpoints = path.commit_ms.len() as u64;
        layers.store_commit_batch_ms = median(&path.commit_ms);
        layers.store_latest_good_ms = median(&path.scan_ms);
        layers.store_bytes = dir_bytes(store.path());
        let routes = (LENGTHS.len() * ROUTES_PER_LENGTH) as u64;
        // The reads happen inside `Campaign::step`, so they are counted,
        // not timed: every repeat of every point plus every retried read.
        // A repeat that exhausts its retry budget has all its reads counted
        // as retries, so it is taken off once: exactly for dropped points
        // (every repeat exhausted). A degraded point (some repeats
        // exhausted) keeps one read too many per exhausted repeat, so with
        // `degraded_points > 0` the count is an upper bound.
        for (outcome, campaign, phases, repeats) in &finished {
            let stats = outcome.stats;
            layers.points_attempted += routes * phases;
            layers.tdc_sensor_reads += routes * phases * repeats
                + u64::from(stats.measurement_retries)
                - stats.dropped_points as u64 * repeats;
            if stats.degraded_points > 0 {
                eprintln!(
                    "campaign_hostile: {} degraded points; tdc.sensor_reads is an upper bound",
                    stats.degraded_points
                );
            }
            layers.retries += u64::from(stats.rent_retries + stats.measurement_retries);
            layers.reacquisitions += u64::from(stats.reacquisitions);
            layers.points_recorded += outcome
                .series
                .iter()
                .map(|s| s.hours.len() as u64)
                .sum::<u64>();
            let cache = campaign.provider().decay_cache_stats();
            layers.cache_hits += cache.hits;
            layers.cache_misses += cache.misses;
            layers.arena_bytes_peak = layers
                .arena_bytes_peak
                .max(campaign.provider().peak_aging_memory_bytes() as u64);
        }
        // Fabric probe on the TM1 campaign's own routes and aged device.
        if let Some((_, campaign, _, _)) = finished.first() {
            let device = campaign
                .provider()
                .device_by_id(campaign.victim_device())
                .map_err(|e| e.to_string())?;
            let specs: Vec<RouteGroupSpec> = LENGTHS
                .iter()
                .map(|&target_ps| RouteGroupSpec {
                    target_ps,
                    count: ROUTES_PER_LENGTH,
                })
                .collect();
            let skeleton = Skeleton::place(device, &specs).map_err(|e| e.to_string())?;
            let routes: Vec<_> = skeleton.routes().cloned().collect();
            layers.route_delay_ns_per_call = route_delay_probe(device, &routes);
        }
        layers.tdc_samples = layers.tdc_sensor_reads * samples_per_read();
    }
    Ok(pass)
}
