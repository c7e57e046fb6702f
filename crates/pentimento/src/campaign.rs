//! Resilient, resumable attack campaigns against a hostile cloud.
//!
//! A [`Campaign`] is the one implementation of both attack protocols:
//! Threat Model 1 (rent the sealed AFI, condition and measure, classify
//! from the drift slope) and Threat Model 2 (squat on the pool, take the
//! victim's board back, classify from the recovery slope). The
//! threat-model entry points [`crate::threat_model1::run`] and
//! [`crate::threat_model2::run`] are benign campaigns: no injected
//! faults, default retry budget. A real multi-hundred-hour campaign
//! also meets preempted sessions, capacity blips, spurious scrubs, and
//! sensor dropouts, so the runner:
//!
//! * classifies every failure as **transient or fatal**
//!   ([`PentimentoError::is_transient`]) and retries transients under an
//!   exponential backoff with deterministic jitter;
//! * survives **preemption** by re-renting until a physical
//!   [`DeviceFingerprint`] (per-route silicon delays, process variation)
//!   confirms the same board came back, squatting on impostors so the
//!   allocator cannot hand them out again;
//! * reloads the attack design after **spurious scrubs** — the analog
//!   imprint under attack survives a scrub by construction;
//! * records per-route samples **gap-tolerantly** (a measurement whose
//!   retry budget runs dry drops one sample, not the campaign);
//! * supports **checkpoint/resume** ([`Campaign::checkpoint`],
//!   [`Campaign::resume`]) that continues bit-identically: the RNG
//!   stream, provider state, and fault-draw counters all travel with the
//!   checkpoint.
//!
//! Measurement and calibration randomness comes from **counter-based
//! per-route streams** ([`tdc::stream_seed`]) rather than one sequential
//! generator, so the per-phase fan-out over routes is bit-identical at
//! every thread count and independent of scheduling order. The phase
//! index is derived from the number of recorded measurements, so resumed
//! campaigns replay the same streams with no extra checkpoint state.
//! (Switching to derived streams was a one-time, documented golden-value
//! change: absolute readings differ from the pre-stream implementation,
//! but every fault-transparency and resume-identity invariant is
//! unchanged.)
//!
//! Faults are armed only once the attack window opens (the victim's burn
//! epoch and the attacker's calibration stay deterministic), so accuracy
//! degradation in a sweep isolates attack-phase resilience. Backoff time
//! is *wall-clock only*: waiting out a capacity blip never advances
//! simulated hours, so a recovered campaign conditions the same
//! device-hours as an unluckier one.

use std::sync::Arc;

use bti_physics::{Hours, LogicLevel};
use cloud::{CloudError, DeviceId, FaultKind, FaultPlan, Provider, Session, TenantId};
use fpga_fabric::FpgaDevice;
use obs::{CampaignEvent, EventKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tdc::{stream_seed, SensorFaultPlan, TdcConfig, TdcSensor, STREAM_CALIBRATE, STREAM_MEASURE};

use crate::classify::{
    BitClassifier, Classification, DriftSlopeClassifier, RecoverySlopeClassifier,
};
use crate::designs::{build_condition_design, build_target_design};
use crate::metrics::RecoveryMetrics;
use crate::threat_model1::ThreatModel1Config;
use crate::threat_model2::ThreatModel2Config;
use crate::{MeasurementMode, PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

/// First-retry wait, in seconds.
const BASE_BACKOFF_S: f64 = 0.5;
/// Ceiling on any single wait, in seconds.
const MAX_BACKOFF_S: f64 = 64.0;
/// Seed of the backoff jitter stream.
const JITTER_SEED: u64 = 0x00C0_FFEE;
/// Per-route delay slack for fingerprint matching, in ps. Aging moves a
/// route by well under a picosecond over a campaign; distinct silicon
/// differs by tens to hundreds.
const FINGERPRINT_TOLERANCE_PS: f64 = 10.0;
/// Minimum fraction of usable samples per trace for the robust
/// aggregation path (engaged only under hostile sensor faults).
const ROBUST_MIN_QUORUM: f64 = 0.5;

/// The wait before retry number `attempt` (1-based), for the campaign's
/// `draw`-th backoff overall: exponential growth, capped, with jitter in
/// `[0.5, 1.5)` of the nominal value.
///
/// The jitter is drawn deterministically from [`JITTER_SEED`] and the
/// draw counter, so replaying a campaign replays its waits. The
/// accumulated wait is *simulated wall-clock* bookkeeping
/// ([`CampaignStats::backoff_seconds`]) — it never advances provider
/// hours.
fn backoff_s(attempt: u32, draw: u64) -> f64 {
    let exponent = attempt.saturating_sub(1).min(32);
    let nominal = BASE_BACKOFF_S * f64::from(1u32 << exponent.min(20));
    let jitter = 0.5 + uniform01(JITTER_SEED, draw);
    (nominal * jitter).min(MAX_BACKOFF_S)
}

/// SplitMix64-derived uniform draw in `[0, 1)` — deterministic jitter.
fn uniform01(seed: u64, counter: u64) -> f64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Rolling FNV-1a accumulator used to seal checkpoints. Every value is
/// folded in as little-endian bytes; variable-length sequences are
/// length-prefixed so `[a, b] ++ [c]` and `[a] ++ [b, c]` hash apart.
struct StateDigest {
    hash: u64,
}

impl StateDigest {
    fn new() -> Self {
        Self {
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Which attack the campaign drives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mission {
    /// Threat Model 1: drift extraction from a rented sealed AFI.
    ThreatModel1(ThreatModel1Config),
    /// Threat Model 2: recovery-slope extraction after the victim left.
    ThreatModel2(ThreatModel2Config),
}

impl Mission {
    fn tag(&self) -> &'static str {
        match self {
            Self::ThreatModel1(_) => "tm1",
            Self::ThreatModel2(_) => "tm2",
        }
    }

    fn seed(&self) -> u64 {
        // Master seed of the per-(route, phase) derived sensor streams;
        // the secret is drawn serially from a generator seeded with it.
        match self {
            Self::ThreatModel1(c) => c.seed ^ 0x7EA5_E77E,
            Self::ThreatModel2(c) => c.seed ^ 0x0DD_B175,
        }
    }

    fn specs(&self) -> Vec<RouteGroupSpec> {
        let (lengths, count) = match self {
            Self::ThreatModel1(c) => (&c.route_lengths_ps, c.routes_per_length),
            Self::ThreatModel2(c) => (&c.route_lengths_ps, c.routes_per_length),
        };
        lengths
            .iter()
            .map(|&target_ps| RouteGroupSpec { target_ps, count })
            .collect()
    }

    fn mode(&self) -> MeasurementMode {
        match self {
            Self::ThreatModel1(c) => c.mode,
            Self::ThreatModel2(c) => c.mode,
        }
    }

    fn measurement_repeats(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.measurement_repeats.max(1),
            Self::ThreatModel2(c) => c.measurement_repeats.max(1),
        }
    }

    fn attack_hours(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.burn_hours,
            Self::ThreatModel2(c) => c.attack_hours,
        }
    }

    fn measure_every(&self) -> usize {
        match self {
            Self::ThreatModel1(c) => c.measure_every.max(1),
            Self::ThreatModel2(_) => 1,
        }
    }
}

/// Hostile-environment knobs and recovery tuning for one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Attempts per operation before a transient error escalates to
    /// [`PentimentoError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Cloud-level fault plan, armed when the attack window opens.
    /// Scheduled fault times are interpreted as **hours into the attack
    /// window** and rebased onto provider time at arming.
    pub fault_plan: FaultPlan,
    /// Sensor-level fault plan, installed on every placed sensor when the
    /// attack window opens (calibration stays clean).
    pub sensor_faults: SensorFaultPlan,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            fault_plan: FaultPlan::none(),
            sensor_faults: SensorFaultPlan::none(),
        }
    }
}

/// What the resilience machinery did during a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Transient `rent` failures retried.
    pub rent_retries: u32,
    /// Transient measurement failures retried.
    pub measurement_retries: u32,
    /// Preemptions survived by reacquiring the fingerprinted board.
    pub reacquisitions: u32,
    /// Wrong boards rented, squatted, and returned during reacquisition.
    pub impostors_rejected: u32,
    /// Attack-design reloads after spurious scrubs.
    pub scrub_reloads: u32,
    /// Route-hours recorded from a partial set of repeats.
    pub degraded_points: usize,
    /// Route-hours abandoned after the retry budget ran dry.
    pub dropped_points: usize,
    /// Total simulated wall-clock backoff, in seconds (never advances
    /// provider hours).
    pub backoff_seconds: f64,
    /// Routes the scored classifier abstained on.
    pub abstained: usize,
    /// Scored verdicts whose confidence statistic came back non-finite
    /// (degenerate series); they are kept as abstain-grade evidence but
    /// counted here so a sweep can see the drop.
    pub non_finite_statistics: usize,
    /// Faults of any kind the provider's ledger recorded.
    pub faults_injected: usize,
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Per-route measurement series (gap-tolerant: dropped samples are
    /// simply absent).
    pub series: Vec<RouteSeries>,
    /// Hard-decision recovered bits.
    pub recovered: Vec<LogicLevel>,
    /// Scored verdicts with confidence, including abstentions.
    pub scored: Vec<Classification>,
    /// Ground-truth secret.
    pub truth: Vec<LogicLevel>,
    /// Attack quality of the hard decisions.
    pub metrics: RecoveryMetrics,
    /// What the resilience machinery did.
    pub stats: CampaignStats,
}

/// A physical device fingerprint: the per-route silicon delays of the
/// skeleton, which process variation makes unique per die and aging moves
/// by well under a picosecond over a campaign.
///
/// Device *identifiers* are a simulation artifact a real cloud does not
/// expose across leases; matching delays against a tolerance is what an
/// actual attacker can do (the paper's device-fingerprinting observation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFingerprint {
    route_rise_ps: Vec<f64>,
}

impl DeviceFingerprint {
    /// Reads the fingerprint of `device` over the skeleton's routes.
    #[must_use]
    pub fn capture(device: &FpgaDevice, skeleton: &Skeleton) -> Self {
        Self {
            route_rise_ps: skeleton
                .routes()
                .map(|r| device.route_delay(r).rise_ps)
                .collect(),
        }
    }

    /// Whether `device` carries this fingerprint: every route's delay
    /// within `FINGERPRINT_TOLERANCE_PS` (10 ps) of the captured one.
    #[must_use]
    pub fn matches(&self, device: &FpgaDevice, skeleton: &Skeleton) -> bool {
        let observed = Self::capture(device, skeleton);
        observed.route_rise_ps.len() == self.route_rise_ps.len()
            && observed
                .route_rise_ps
                .iter()
                .zip(&self.route_rise_ps)
                .all(|(a, b)| (a - b).abs() <= FINGERPRINT_TOLERANCE_PS)
    }

    /// A compact digest (FNV-1a over 25 ps-quantized delays) for
    /// manifests and logs. Coarse quantization makes the digest stable
    /// under campaign-scale aging; verification always uses
    /// [`matches`](Self::matches), never digest equality.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for &ps in &self.route_rise_ps {
            let bucket = (ps / 25.0).round() as i64;
            for byte in bucket.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

/// What to reload onto the device after a scrub or reacquisition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum AttackDesign {
    /// Threat Model 1 conditions via the sealed marketplace AFI.
    Afi(cloud::AfiId),
    /// Threat Model 2 conditions every route to a level.
    Condition(LogicLevel),
}

/// The mutable mid-campaign state a checkpoint must carry.
#[derive(Debug, Clone)]
struct RunState {
    session: Option<Session>,
    skeleton: Skeleton,
    truth: Vec<LogicLevel>,
    sensors: Vec<TdcSensor>,
    hours_log: Vec<f64>,
    readings: Vec<Vec<Option<f64>>>,
    /// Completed attack-window hours.
    hour: usize,
    attack_design: AttackDesign,
    victim_device: DeviceId,
    fingerprint: DeviceFingerprint,
}

/// A resilient, resumable attack campaign. Owns the provider so that a
/// checkpoint captures the *entire* world — fleet aging, ledger, fault
/// counters — and resume replays bit-identically.
#[derive(Debug, Clone)]
pub struct Campaign {
    provider: Provider,
    mission: Mission,
    config: CampaignConfig,
    rng: StdRng,
    run: RunState,
    stats: CampaignStats,
    backoff_draws: u64,
    armed: bool,
    /// Optional telemetry sink, shared with the provider. Every campaign
    /// emission happens on a serial code path (the setup prologue, the
    /// route-ordered merge in `record`, finalize), so traces are
    /// deterministic at every thread-pool width; see `obs`'s crate docs
    /// for the contract.
    recorder: Option<Arc<Recorder>>,
}

/// A point-in-time snapshot of a campaign plus two integrity seals.
///
/// The snapshot is clone-based (the simulation lives in memory). It is
/// sealed twice: a dense FNV-1a checksum folded over a fixed list of
/// state fields ([`Campaign::state_checksum`]) that any single-field
/// mutation invalidates, and a human-readable JSON manifest
/// ([`Campaign::manifest_json`]) summarizing the headline fields.
/// [`Campaign::resume`] recomputes both and rejects any checkpoint whose
/// seals no longer describe its state with
/// [`PentimentoError::CheckpointCorrupt`].
#[derive(Debug, Clone)]
pub struct CampaignCheckpoint {
    campaign: Campaign,
    manifest: String,
    checksum: u64,
}

impl CampaignCheckpoint {
    /// The integrity manifest this checkpoint was sealed with.
    #[must_use]
    pub fn manifest(&self) -> &str {
        &self.manifest
    }

    /// The state checksum this checkpoint was sealed with. Durable
    /// stores persist this alongside the manifest so a recovery scan can
    /// verify a restored snapshot against the envelope it was filed
    /// under.
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        self.checksum
    }

    /// Completed attack-window hours at the instant the snapshot was
    /// taken (store bookkeeping: generation pruning, progress reports).
    #[must_use]
    pub fn hour(&self) -> usize {
        self.campaign.hour()
    }
}

impl Campaign {
    /// Sets up a campaign: runs the mission's deterministic prologue
    /// (vendor/victim epoch, skeleton, calibration, baseline measurement)
    /// on a *clean* provider, then arms the hostile fault plans for the
    /// attack window.
    ///
    /// # Errors
    ///
    /// Propagates setup failures; transient rent failures are retried
    /// under the budget and escalate to
    /// [`PentimentoError::RetriesExhausted`].
    pub fn new(
        provider: Provider,
        mission: Mission,
        config: CampaignConfig,
    ) -> Result<Self, PentimentoError> {
        Self::new_observed(provider, mission, config, None)
    }

    /// [`Campaign::new`] with a telemetry recorder attached from the very
    /// first rent, so the setup prologue's session and cache events are
    /// captured too. The recorder is shared with the provider; results
    /// are bit-identical with or without one.
    ///
    /// # Errors
    ///
    /// As [`Campaign::new`].
    pub fn new_observed(
        mut provider: Provider,
        mission: Mission,
        config: CampaignConfig,
        recorder: Option<Arc<Recorder>>,
    ) -> Result<Self, PentimentoError> {
        provider.set_recorder(recorder.clone());
        let rng = StdRng::seed_from_u64(mission.seed());
        let mut campaign = Self {
            recorder,
            provider,
            mission,
            config,
            rng,
            run: RunState {
                session: None,
                skeleton: Skeleton::empty(),
                truth: Vec::new(),
                sensors: Vec::new(),
                hours_log: Vec::new(),
                readings: Vec::new(),
                hour: 0,
                attack_design: AttackDesign::Condition(LogicLevel::Zero),
                victim_device: DeviceId(0),
                fingerprint: DeviceFingerprint {
                    route_rise_ps: Vec::new(),
                },
            },
            stats: CampaignStats::default(),
            backoff_draws: 0,
            armed: false,
        };
        campaign.setup()?;
        campaign.arm();
        Ok(campaign)
    }

    /// The mission-specific deterministic prologue: the vendor or victim
    /// epoch, the skeleton and secret, sensor calibration and the
    /// baseline measurement, then the attack design is loaded.
    fn setup(&mut self) -> Result<(), PentimentoError> {
        match self.mission.clone() {
            Mission::ThreatModel1(cfg) => self.setup_tm1(&cfg),
            Mission::ThreatModel2(cfg) => self.setup_tm2(&cfg),
        }
    }

    fn setup_tm1(&mut self, cfg: &ThreatModel1Config) -> Result<(), PentimentoError> {
        self.note_phase("setup:tm1");
        let attacker = TenantId::new("attacker");
        let session = self.rent_with_retries(&attacker)?;

        let specs = self.mission.specs();
        let skeleton = Skeleton::place(self.provider.device(&session)?, &specs)?;
        let truth: Vec<LogicLevel> = (0..skeleton.len())
            .map(|_| LogicLevel::from_bool(self.rng.gen()))
            .collect();
        let vendor = TenantId::new("vendor");
        let afi = self.provider.marketplace_mut().publish(
            vendor,
            build_target_design(&skeleton, &truth),
            true,
        );
        if self
            .provider
            .marketplace()
            .get(afi)?
            .inspect(&attacker)
            .is_ok()
        {
            return Err(PentimentoError::InvalidConfig(
                "marketplace seal broken: the attack must not read the AFI".to_owned(),
            ));
        }

        let sensors = if cfg.mode == MeasurementMode::Tdc {
            self.place_and_calibrate(&session, &skeleton)?
        } else {
            Vec::new()
        };

        let fingerprint = DeviceFingerprint::capture(self.provider.device(&session)?, &skeleton);
        self.note_fingerprint(session.device_id(), "capture");
        self.run = RunState {
            victim_device: session.device_id(),
            session: Some(session),
            readings: vec![Vec::new(); skeleton.len()],
            skeleton,
            truth,
            sensors,
            hours_log: Vec::new(),
            hour: 0,
            attack_design: AttackDesign::Afi(afi),
            fingerprint,
        };

        // Pre-burn baseline (clean epoch), then load the sealed AFI.
        self.record(0.0)?;
        let session = self.current_session()?;
        self.provider.load_afi(&session, afi)?;
        Ok(())
    }

    fn setup_tm2(&mut self, cfg: &ThreatModel2Config) -> Result<(), PentimentoError> {
        self.note_phase("setup:tm2");
        let specs = self.mission.specs();

        // --- Victim epoch (unobserved; always fault-free). --------------
        let victim = TenantId::new("victim");
        let victim_session = self.rent_with_retries(&victim)?;
        let victim_device = victim_session.device_id();
        let skeleton = Skeleton::place(self.provider.device(&victim_session)?, &specs)?;
        let truth: Vec<LogicLevel> = (0..skeleton.len())
            .map(|_| LogicLevel::from_bool(self.rng.gen()))
            .collect();
        self.provider
            .load_design(&victim_session, build_target_design(&skeleton, &truth))?;

        let attacker = TenantId::new("attacker");
        let squatted = self.provider.rent_all(attacker.clone()).unwrap_or_default();

        self.provider
            .advance_time(Hours::new(cfg.victim_hours as f64));

        if cfg.victim_hold_and_recover_hours > 0 {
            self.provider.unload(&victim_session)?;
            let mut scrubber = fpga_fabric::Design::new("victim-scrubber");
            scrubber.set_power_watts(crate::designs::CONDITION_WATTS);
            for (i, entry) in skeleton.entries().iter().enumerate() {
                scrubber.add_net(
                    format!("toggle[{i}]"),
                    fpga_fabric::NetActivity::Duty(bti_physics::DutyCycle::BALANCED),
                    Some(entry.route.clone()),
                );
            }
            self.provider.load_design(&victim_session, scrubber)?;
            self.provider
                .advance_time(Hours::new(cfg.victim_hold_and_recover_hours as f64));
        }

        self.provider.unload(&victim_session)?;
        self.provider.release(victim_session)?; // scrub happens here

        // --- Flash attack: reacquire the victim's exact board. -----------
        // The attacker has no pre-victim fingerprint, so this first
        // reacquisition leans on the squat (every other board is held);
        // the fingerprint captured here guards all later reacquisitions.
        let mut impostors: Vec<Session> = Vec::new();
        let mut reacquired = None;
        for _ in 0..self.config.max_attempts {
            let session = self.rent_with_retries(&attacker)?;
            if session.device_id() == victim_device {
                reacquired = Some(session);
                break;
            }
            self.stats.impostors_rejected += 1;
            impostors.push(session);
        }
        for s in impostors {
            release_best_effort(&mut self.provider, s);
        }
        for s in squatted {
            release_best_effort(&mut self.provider, s);
        }
        let session = reacquired.ok_or(PentimentoError::VictimDeviceLost)?;

        let sensors = if cfg.mode == MeasurementMode::Tdc {
            self.place_and_calibrate(&session, &skeleton)?
        } else {
            Vec::new()
        };

        let fingerprint = DeviceFingerprint::capture(self.provider.device(&session)?, &skeleton);
        self.note_fingerprint(victim_device, "capture");
        self.run = RunState {
            victim_device,
            session: Some(session),
            readings: vec![Vec::new(); skeleton.len()],
            skeleton,
            truth,
            sensors,
            hours_log: Vec::new(),
            hour: 0,
            attack_design: AttackDesign::Condition(cfg.condition_level),
            fingerprint,
        };

        self.record(0.0)?;
        let session = self.current_session()?;
        self.load_attack_design(&session)?;
        Ok(())
    }

    /// Arms the hostile fault plans for the attack window. Scheduled
    /// fault times rebase from "hours into the attack" onto provider
    /// time.
    fn arm(&mut self) {
        let mut plan = self.config.fault_plan.clone();
        let epoch = self.provider.now();
        for fault in &mut plan.schedule {
            fault.at = Hours::new(fault.at.value() + epoch.value());
        }
        self.provider.set_fault_plan(plan);
        for sensor in &mut self.run.sensors {
            sensor.set_fault_plan(self.config.sensor_faults.clone());
        }
        self.armed = true;
        self.note_phase("arm");
    }

    /// Emits a `FingerprintVerified` event keyed at the current provider
    /// time.
    fn note_fingerprint(&self, device: DeviceId, what: &str) {
        if let Some(r) = self.obs() {
            r.event(
                CampaignEvent::new(EventKind::FingerprintVerified, self.provider.now().value())
                    .value(f64::from(device.0))
                    .detail(what),
            );
        }
    }

    /// Places one sensor per skeleton route, then calibrates them in
    /// parallel from per-sensor derived streams
    /// (`stream_seed(mission_seed, i, STREAM_CALIBRATE)`) — the streams
    /// of [`tdc::TdcArray::calibrate_all_streamed`], bit-identical at
    /// every thread count. The fan-out is timed as one
    /// `tdc.calibrate_batch` span.
    fn place_and_calibrate(
        &self,
        session: &Session,
        skeleton: &Skeleton,
    ) -> Result<Vec<TdcSensor>, PentimentoError> {
        let device = self.provider.device(session)?;
        let mut sensors = Vec::with_capacity(skeleton.len());
        for entry in skeleton.entries() {
            sensors.push(TdcSensor::place(
                device,
                entry.route.clone(),
                TdcConfig::cloud(),
            )?);
        }
        let master = self.mission.seed();
        let _span = self.obs().map(|r| r.span("tdc.calibrate_batch"));
        sensors
            .par_iter_mut()
            .enumerate()
            .map(|(i, sensor)| {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(master, i as u64, STREAM_CALIBRATE));
                sensor.calibrate(device, &mut rng)
            })
            .collect::<Result<Vec<f64>, tdc::TdcError>>()?;
        Ok(sensors)
    }

    /// Completed attack-window hours so far.
    #[must_use]
    pub fn hour(&self) -> usize {
        self.run.hour
    }

    /// Whether every attack-window hour has elapsed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.run.hour >= self.mission.attack_hours()
    }

    /// Resilience counters so far.
    #[must_use]
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// Attaches (or detaches) a telemetry recorder mid-campaign, sharing
    /// it with the provider. Results are bit-identical either way.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.provider.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The attached telemetry recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    fn obs(&self) -> Option<&Recorder> {
        self.recorder.as_deref()
    }

    /// Emits a `PhaseTransition` event keyed at the current provider time.
    fn note_phase(&self, name: &str) {
        if let Some(r) = self.obs() {
            r.event(
                CampaignEvent::new(EventKind::PhaseTransition, self.provider.now().value())
                    .detail(name),
            );
        }
    }

    /// The provider (ledger and fleet introspection).
    #[must_use]
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// Ends the campaign and hands back its provider, aged by every hour
    /// the campaign ran.
    #[must_use]
    pub fn into_provider(self) -> Provider {
        self.provider
    }

    /// The device the victim's secret is imprinted on — the identity a
    /// fleet supervisor names in its quarantine records.
    #[must_use]
    pub fn victim_device(&self) -> DeviceId {
        self.run.victim_device
    }

    /// Advances one attack-window hour: step the world, repair whatever
    /// the hostile cloud broke, and take the hour's measurements.
    ///
    /// The step is pinned to one hour because fault injection and
    /// checkpointing are defined on hour boundaries; each hour's aging is
    /// nevertheless a single closed-form phase advance through the
    /// fleet's shared decay caches, so stepping costs no per-wire `exp`
    /// work.
    ///
    /// Returns `Ok(true)` while more hours remain.
    ///
    /// # Errors
    ///
    /// Fatal (non-transient) failures and exhausted retry budgets.
    pub fn step(&mut self) -> Result<bool, PentimentoError> {
        let total = self.mission.attack_hours();
        if self.run.hour >= total {
            return Ok(false);
        }
        self.provider.advance_time(Hours::new(1.0));
        self.run.hour += 1;
        // Faults fire at the end of `advance_time`; repairing before any
        // further time passes means a survived fault costs zero
        // conditioning hours (the transparency the proptests pin down).
        self.ensure_session()?;
        if self.run.hour.is_multiple_of(self.mission.measure_every()) {
            self.record(self.run.hour as f64)?;
        }
        Ok(self.run.hour < total)
    }

    /// Runs every remaining hour, then classifies.
    ///
    /// # Errors
    ///
    /// Fatal failures from stepping or series construction.
    pub fn run(&mut self) -> Result<CampaignOutcome, PentimentoError> {
        while self.step()? {}
        self.finalize()
    }

    /// Releases the lease and turns the recorded series into verdicts.
    fn finalize(&mut self) -> Result<CampaignOutcome, PentimentoError> {
        self.note_phase("classify");
        if let Some(session) = self.run.session.take() {
            // A preemption on the very last step may have revoked the
            // lease already; that is not a campaign failure.
            match self.provider.unload(&session) {
                Ok(_) | Err(CloudError::SessionRevoked) => {}
                Err(e) => return Err(e.into()),
            }
            match self.provider.release(session) {
                Ok(()) | Err(CloudError::SessionRevoked) => {}
                Err(e) => return Err(e.into()),
            }
        }

        let mut series = Vec::with_capacity(self.run.skeleton.len());
        for (i, entry) in self.run.skeleton.entries().iter().enumerate() {
            let observations: Vec<(f64, Option<f64>)> = self
                .run
                .hours_log
                .iter()
                .copied()
                .zip(self.run.readings[i].iter().copied())
                .collect();
            series.push(RouteSeries::from_observations(
                i,
                entry.target_ps,
                self.run.truth[i],
                &observations,
            )?);
        }

        let (recovered, scored) = match &self.mission {
            Mission::ThreatModel1(_) => {
                let classifier = DriftSlopeClassifier::new();
                (
                    classifier.classify_all(&series),
                    classifier.classify_all_scored(&series),
                )
            }
            Mission::ThreatModel2(cfg) => {
                let reference = self.provider.device_by_id(self.run.victim_device)?;
                let burn_temp = reference
                    .thermal()
                    .die_temperature(crate::designs::ARITHMETIC_HEAVY_WATTS);
                let attack_temp = reference
                    .thermal()
                    .die_temperature(crate::designs::CONDITION_WATTS);
                let classifier = RecoverySlopeClassifier::calibrated(
                    reference.bti_model(),
                    cfg.victim_hours as f64,
                    cfg.attack_hours as f64,
                    burn_temp,
                    attack_temp,
                    reference.wear_factor(),
                );
                (
                    classifier.classify_all(&series),
                    classifier.classify_all_scored(&series),
                )
            }
        };
        self.stats.abstained = scored.iter().filter(|c| c.verdict.is_abstain()).count();
        self.stats.non_finite_statistics =
            scored.iter().filter(|c| !c.confidence.is_finite()).count();
        self.stats.faults_injected = self.provider.ledger().faults().len();
        if let Some(r) = self.obs() {
            let at = self.provider.now().value();
            for (route, classified) in scored.iter().enumerate() {
                if classified.verdict.is_abstain() {
                    r.event(
                        CampaignEvent::new(EventKind::Abstain, at)
                            .route(route as u64)
                            .value(classified.confidence),
                    );
                }
            }
            r.incr("campaign.abstained", self.stats.abstained as u64);
            r.incr("campaign.routes_classified", scored.len() as u64);
        }
        let metrics = RecoveryMetrics::score(&series, &recovered);
        Ok(CampaignOutcome {
            series,
            recovered,
            scored,
            truth: self.run.truth.clone(),
            metrics,
            stats: self.stats,
        })
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// The hand-rolled JSON manifest describing this campaign's position:
    /// the integrity seal a checkpoint carries.
    #[must_use]
    pub fn manifest_json(&self) -> String {
        format!(
            concat!(
                "{{\"version\":1,\"mission\":\"{}\",\"hour\":{},",
                "\"measurements\":{},\"routes\":{},\"fingerprint\":\"{:#018x}\"}}"
            ),
            self.mission.tag(),
            self.run.hour,
            self.run.hours_log.len(),
            self.run.skeleton.len(),
            self.run.fingerprint.digest(),
        )
    }

    /// A checksum over the campaign state: every field that determines
    /// future behaviour — measurements, truth, RNG stream position,
    /// fault-draw counters, provider clock — folded through FNV-1a in a
    /// fixed canonical order. Nothing is serialized; the fold reads the
    /// fields in place.
    ///
    /// Unlike [`manifest_json`](Self::manifest_json) (a human-readable
    /// summary of a handful of headline fields), the checksum covers the
    /// state densely: flipping a single reading bit, rewinding the RNG,
    /// or dropping one recorded hour all change it. [`resume`](Self::resume)
    /// recomputes it and rejects any checkpoint whose sealed value no
    /// longer matches.
    #[must_use]
    pub fn state_checksum(&self) -> u64 {
        let mut d = StateDigest::new();
        // Mission identity and position.
        d.str(self.mission.tag());
        d.u64(self.mission.seed());
        d.u64(self.mission.attack_hours() as u64);
        d.u64(self.run.hour as u64);
        // Recorded evidence: hours log and the gap-tolerant readings.
        d.u64(self.run.hours_log.len() as u64);
        for &h in &self.run.hours_log {
            d.f64(h);
        }
        d.u64(self.run.readings.len() as u64);
        for route in &self.run.readings {
            d.u64(route.len() as u64);
            for reading in route {
                match reading {
                    Some(v) => {
                        d.u64(1);
                        d.f64(*v);
                    }
                    None => d.u64(0),
                }
            }
        }
        // Ground truth and physical identity.
        d.u64(self.run.truth.len() as u64);
        for &bit in &self.run.truth {
            d.u64(match bit {
                LogicLevel::One => 1,
                LogicLevel::Zero => 0,
            });
        }
        d.u64(u64::from(self.run.victim_device.0));
        d.u64(self.run.fingerprint.digest());
        match self.run.attack_design {
            AttackDesign::Afi(id) => {
                d.u64(1);
                d.u64(id.0);
            }
            AttackDesign::Condition(level) => {
                d.u64(2);
                d.u64(match level {
                    LogicLevel::One => 1,
                    LogicLevel::Zero => 0,
                });
            }
        }
        d.u64(u64::from(self.run.session.is_some()));
        // Resilience counters.
        d.u64(u64::from(self.stats.rent_retries));
        d.u64(u64::from(self.stats.measurement_retries));
        d.u64(u64::from(self.stats.reacquisitions));
        d.u64(u64::from(self.stats.impostors_rejected));
        d.u64(u64::from(self.stats.scrub_reloads));
        d.u64(self.stats.degraded_points as u64);
        d.u64(self.stats.dropped_points as u64);
        d.f64(self.stats.backoff_seconds);
        d.u64(self.stats.abstained as u64);
        d.u64(self.stats.non_finite_statistics as u64);
        d.u64(self.stats.faults_injected as u64);
        // Randomness and fault-injection position: the exact RNG state
        // and per-kind draw counters that make resume bit-identical.
        for word in self.rng.state() {
            d.u64(word);
        }
        d.u64(self.backoff_draws);
        d.u64(u64::from(self.armed));
        d.f64(self.provider.now().value());
        let faults = self.provider.fault_state();
        for kind in FaultKind::ALL {
            d.u64(faults.draws_consumed(kind));
        }
        d.u64(faults.schedule_fired() as u64);
        d.u64(self.provider.ledger().faults().len() as u64);
        d.hash
    }

    /// Snapshots the whole campaign — provider, RNG stream, fault
    /// counters, readings — sealed with [`manifest_json`](Self::manifest_json).
    #[must_use]
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        if let Some(r) = self.obs() {
            r.event(
                CampaignEvent::new(EventKind::CheckpointWrite, self.provider.now().value())
                    .value(self.run.hours_log.len() as f64)
                    .detail(self.mission.tag()),
            );
            r.incr("campaign.checkpoints", 1);
        }
        CampaignCheckpoint {
            campaign: self.clone(),
            manifest: self.manifest_json(),
            checksum: self.state_checksum(),
        }
    }

    /// Rebuilds a campaign from a checkpoint, validating both seals
    /// against the snapshotted state first: the dense state checksum,
    /// then the headline manifest.
    ///
    /// A resumed campaign continues **bit-identically**: stepping it
    /// produces the same fault stream, the same measurements, and the
    /// same classified bits as the campaign it was taken from.
    ///
    /// # Errors
    ///
    /// [`PentimentoError::CheckpointCorrupt`] when either seal no longer
    /// matches the state (tampering, truncation, version skew).
    pub fn resume(checkpoint: CampaignCheckpoint) -> Result<Self, PentimentoError> {
        let actual = checkpoint.campaign.state_checksum();
        if checkpoint.checksum != actual {
            return Err(PentimentoError::CheckpointCorrupt(format!(
                "state checksum mismatch: sealed {:#018x} but state hashes to {actual:#018x}",
                checkpoint.checksum
            )));
        }
        let expected = checkpoint.campaign.manifest_json();
        if checkpoint.manifest != expected {
            return Err(PentimentoError::CheckpointCorrupt(format!(
                "manifest mismatch: sealed {} but state describes {expected}",
                checkpoint.manifest
            )));
        }
        Ok(checkpoint.campaign)
    }

    // ------------------------------------------------------------------
    // Recovery machinery
    // ------------------------------------------------------------------

    fn current_session(&self) -> Result<Session, PentimentoError> {
        self.run
            .session
            .clone()
            .ok_or(PentimentoError::VictimDeviceLost)
    }

    /// Verifies the lease still stands and the attack design is still
    /// loaded, repairing both if the hostile cloud intervened.
    fn ensure_session(&mut self) -> Result<(), PentimentoError> {
        let session = match &self.run.session {
            Some(s) => s.clone(),
            None => return self.reacquire(),
        };
        match self.provider.device(&session) {
            Ok(device) => {
                if device.loaded_design().is_none() {
                    // Spurious scrub: the lease survived, the design did
                    // not. The analog imprint is untouched — reload.
                    self.stats.scrub_reloads += 1;
                    self.load_attack_design(&session)?;
                }
                Ok(())
            }
            Err(CloudError::SessionRevoked) => {
                self.run.session = None;
                self.reacquire()
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Wins the device back after a preemption: rent, fingerprint, and
    /// squat on impostors until the right silicon comes home.
    fn reacquire(&mut self) -> Result<(), PentimentoError> {
        let tenant = TenantId::new("attacker");
        let mut impostors: Vec<Session> = Vec::new();
        let mut outcome: Result<Session, PentimentoError> = Err(PentimentoError::VictimDeviceLost);
        for attempt in 1..=self.config.max_attempts {
            match self.provider.rent(tenant.clone()) {
                Ok(session) => {
                    let device = self.provider.device(&session)?;
                    if self.run.fingerprint.matches(device, &self.run.skeleton) {
                        outcome = Ok(session);
                        break;
                    }
                    self.stats.impostors_rejected += 1;
                    impostors.push(session);
                    self.note_backoff(attempt);
                }
                Err(e) if e.is_transient() => {
                    self.stats.rent_retries += 1;
                    self.note_backoff(attempt);
                }
                Err(e) => {
                    outcome = Err(e.into());
                    break;
                }
            }
        }
        for s in impostors {
            release_best_effort(&mut self.provider, s);
        }
        match outcome {
            Ok(session) => {
                self.stats.reacquisitions += 1;
                self.note_fingerprint(session.device_id(), "reacquire");
                self.load_attack_design(&session)?;
                self.run.session = Some(session);
                Ok(())
            }
            Err(e) if e.is_transient() => Err(PentimentoError::RetriesExhausted {
                operation: "reacquire device",
                attempts: self.config.max_attempts,
                last: Box::new(e),
            }),
            Err(e) => Err(e),
        }
    }

    fn load_attack_design(&mut self, session: &Session) -> Result<(), PentimentoError> {
        match self.run.attack_design {
            AttackDesign::Afi(afi) => self.provider.load_afi(session, afi)?,
            AttackDesign::Condition(level) => {
                let design = build_condition_design(&self.run.skeleton, level);
                self.provider.load_design(session, design)?;
            }
        }
        Ok(())
    }

    fn rent_with_retries(&mut self, tenant: &TenantId) -> Result<Session, PentimentoError> {
        let mut last = PentimentoError::Cloud(CloudError::CapacityExhausted);
        for attempt in 1..=self.config.max_attempts {
            match self.provider.rent(tenant.clone()) {
                Ok(session) => return Ok(session),
                Err(e) if e.is_transient() => {
                    self.stats.rent_retries += 1;
                    last = e.into();
                    self.note_backoff(attempt);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(PentimentoError::RetriesExhausted {
            operation: "rent",
            attempts: self.config.max_attempts,
            last: Box::new(last),
        })
    }

    fn note_backoff(&mut self, attempt: u32) {
        let wait = backoff_s(attempt, self.backoff_draws);
        self.backoff_draws += 1;
        self.stats.backoff_seconds += wait;
        if let Some(r) = self.obs() {
            let at = self.provider.now().value();
            r.event(
                CampaignEvent::new(EventKind::Retry, at)
                    .value(f64::from(attempt))
                    .detail("session"),
            );
            r.event(
                CampaignEvent::new(EventKind::Backoff, at)
                    .value(wait)
                    .detail("session"),
            );
            r.incr("campaign.session_retries", 1);
        }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Takes one measurement phase: every route, `measurement_repeats`
    /// sensor reads each, gap-tolerantly, fanned across worker threads.
    ///
    /// Each route draws from its own
    /// `stream_seed(mission_seed, route, STREAM_MEASURE + phase)` stream
    /// (the phase index is the count of measurements already recorded),
    /// the streams of [`tdc::TdcArray::measure_deltas_streamed`], so every
    /// path is independent of scheduling order. Results merge serially in
    /// route order, so stats accumulate and the first fatal error on the
    /// lowest-indexed route wins deterministically. The fan-out is timed
    /// as one `tdc.measure_batch` span, and the merge counts every sensor
    /// read (usable repeats plus retried ones) into `tdc.sensor_reads` and
    /// its capture samples into `tdc.samples`.
    fn record(&mut self, hour: f64) -> Result<(), PentimentoError> {
        let session = self.current_session()?;
        let phase = self.run.hours_log.len() as u64;
        self.run.hours_log.push(hour);
        if let Some(r) = self.obs() {
            r.event(
                CampaignEvent::new(EventKind::PhaseTransition, hour)
                    .value(phase as f64)
                    .detail("measure"),
            );
            r.incr("campaign.measurement_phases", 1);
        }
        match self.mission.mode() {
            MeasurementMode::Oracle => {
                let device = self.provider.device(&session)?;
                let values = crate::experiment::oracle_deltas(device, &self.run.skeleton);
                for (per_route, value) in self.run.readings.iter_mut().zip(values) {
                    per_route.push(Some(value));
                }
            }
            MeasurementMode::Tdc => {
                let repeats = self.mission.measurement_repeats();
                // The robust (quorum + MAD) aggregation path is engaged
                // exactly when the sensor fault model is: on clean traces
                // the plain estimator is the attacker's optimum.
                let robust = self.armed && !self.config.sensor_faults.is_benign();
                let master = self.mission.seed();
                let max_attempts = self.config.max_attempts;
                let device = self.provider.device(&session)?;
                let span = self.obs().map(|r| r.span("tdc.measure_batch"));
                let points: Vec<Result<RoutePoint, PentimentoError>> = self
                    .run
                    .sensors
                    .par_iter()
                    .enumerate()
                    .map(|(i, sensor)| {
                        measure_route(
                            device,
                            sensor,
                            i,
                            phase,
                            master,
                            repeats,
                            robust,
                            max_attempts,
                        )
                    })
                    .collect();
                drop(span);
                let mut sensor_reads = 0;
                let mut samples = 0;
                for (i, point) in points.into_iter().enumerate() {
                    let point = point?;
                    let reads = point.got as u64 + u64::from(point.retries);
                    let per_read = self.run.sensors[i].config().samples_per_measurement();
                    sensor_reads += reads;
                    samples += reads * per_read as u64;
                    self.stats.measurement_retries += point.retries;
                    self.stats.backoff_seconds += point.backoff_s;
                    if point.got == 0 {
                        self.stats.dropped_points += 1;
                    } else if point.got < repeats {
                        self.stats.degraded_points += 1;
                    }
                    // Telemetry is emitted here, in the serial
                    // route-ordered merge — never from the parallel
                    // workers — so event keys are pure data and the trace
                    // is width-invariant.
                    if let Some(r) = self.obs() {
                        let route = i as u64;
                        if point.retries > 0 {
                            r.event(
                                CampaignEvent::new(EventKind::Retry, hour)
                                    .route(route)
                                    .value(f64::from(point.retries))
                                    .detail("measure"),
                            );
                            r.incr("campaign.measurement_retries", u64::from(point.retries));
                        }
                        if point.backoff_s > 0.0 {
                            r.event(
                                CampaignEvent::new(EventKind::Backoff, hour)
                                    .route(route)
                                    .value(point.backoff_s)
                                    .detail("measure"),
                            );
                        }
                        if point.quorum_failures > 0 {
                            r.event(
                                CampaignEvent::new(EventKind::QuorumFailure, hour)
                                    .route(route)
                                    .value(f64::from(point.quorum_failures)),
                            );
                            r.incr("campaign.quorum_failures", u64::from(point.quorum_failures));
                        }
                        if point.got == 0 {
                            r.incr("campaign.dropped_points", 1);
                        } else if point.got < repeats {
                            r.incr("campaign.degraded_points", 1);
                        }
                    }
                    self.run.readings[i].push(point.value);
                }
                if let Some(r) = self.obs() {
                    r.incr("tdc.sensor_reads", sensor_reads);
                    r.incr("tdc.samples", samples);
                }
            }
        }
        Ok(())
    }
}

/// One route's measurement for one phase, plus the retry bookkeeping the
/// serial merge folds into [`CampaignStats`].
struct RoutePoint {
    /// Mean of the usable repeats, or `None` when every repeat dropped.
    value: Option<f64>,
    /// Usable repeats out of `measurement_repeats`.
    got: usize,
    /// Transient measurement failures retried on this route.
    retries: u32,
    /// How many of those retries were robust-quorum failures
    /// ([`tdc::TdcError::Dropout`]) rather than other transient faults.
    quorum_failures: u32,
    /// Simulated backoff this route's retries accrued, in seconds.
    backoff_s: f64,
}

/// Measures one route for one phase under the retry budget. A repeat
/// whose budget runs dry on transient errors is dropped (the gap-tolerant
/// series absorbs it); fatal errors propagate.
///
/// All randomness — sensor reads *and* backoff jitter — comes from
/// per-(route, phase) derived streams, so the result is a pure function
/// of its arguments and identical no matter which worker thread runs it.
#[allow(clippy::too_many_arguments)]
fn measure_route(
    device: &FpgaDevice,
    sensor: &TdcSensor,
    route: usize,
    phase: u64,
    master_seed: u64,
    repeats: usize,
    robust: bool,
    max_attempts: u32,
) -> Result<RoutePoint, PentimentoError> {
    let mut rng = StdRng::seed_from_u64(stream_seed(
        master_seed,
        route as u64,
        STREAM_MEASURE + phase,
    ));
    let mut point = RoutePoint {
        value: None,
        got: 0,
        retries: 0,
        quorum_failures: 0,
        backoff_s: 0.0,
    };
    // Repeats and retries read the same device state: walk the route once
    // for all of them.
    let delay = device.route_delay(sensor.route());
    let mut acc = 0.0;
    for _ in 0..repeats {
        let mut sample = None;
        for attempt in 1..=max_attempts {
            let result = if robust {
                sensor.measure_robust_at(delay, ROBUST_MIN_QUORUM, &mut rng)
            } else {
                sensor.measure_at(delay, &mut rng)
            };
            match result {
                Ok(measurement) => {
                    sample = Some(measurement.delta_ps);
                    break;
                }
                Err(e) if e.is_transient() => {
                    if matches!(e, tdc::TdcError::Dropout { .. }) {
                        point.quorum_failures += 1;
                    }
                    // Jitter draws index a per-(route, phase, retry)
                    // stream instead of a shared campaign counter, so
                    // the wait bookkeeping cannot depend on scheduling.
                    let draw = stream_seed(route as u64, phase, u64::from(point.retries));
                    point.retries += 1;
                    point.backoff_s += backoff_s(attempt, draw);
                }
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(delta) = sample {
            acc += delta;
            point.got += 1;
        }
    }
    if point.got > 0 {
        point.value = Some(acc / point.got as f64);
    }
    Ok(point)
}

fn release_best_effort(provider: &mut Provider, session: Session) {
    // A session the hostile cloud already revoked has nothing to release.
    match provider.release(session) {
        Ok(()) | Err(CloudError::SessionRevoked) => {}
        Err(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud::{FaultKind, ProviderConfig};

    fn tm1_config() -> ThreatModel1Config {
        ThreatModel1Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 60,
            measure_every: 10,
            mode: MeasurementMode::Oracle,
            seed: 11,
            measurement_repeats: 1,
        }
    }

    fn tm2_config() -> ThreatModel2Config {
        ThreatModel2Config {
            route_lengths_ps: vec![5_000.0, 10_000.0],
            routes_per_length: 4,
            victim_hours: 100,
            attack_hours: 25,
            condition_level: LogicLevel::Zero,
            mode: MeasurementMode::Oracle,
            seed: 13,
            measurement_repeats: 1,
            victim_hold_and_recover_hours: 0,
        }
    }

    #[test]
    fn tm1_campaign_survives_a_scheduled_preemption_transparently() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            Campaign::new(
                provider,
                Mission::ThreatModel1(tm1_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        assert_eq!(benign.stats.faults_injected, 0);

        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let config = CampaignConfig {
            fault_plan: FaultPlan::none().with_scheduled(Hours::new(25.0), FaultKind::Preemption),
            ..CampaignConfig::default()
        };
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.reacquisitions, 1);
        assert_eq!(outcome.stats.faults_injected, 1);
        assert_eq!(
            outcome.series, benign.series,
            "a repaired preemption must cost zero conditioning"
        );
        assert_eq!(outcome.recovered, benign.recovered);
    }

    #[test]
    fn tm1_campaign_reloads_after_a_spurious_scrub() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            Campaign::new(
                provider,
                Mission::ThreatModel1(tm1_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };

        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let config = CampaignConfig {
            fault_plan: FaultPlan::none().with_scheduled(Hours::new(7.0), FaultKind::SpuriousScrub),
            ..CampaignConfig::default()
        };
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.scrub_reloads, 1);
        assert_eq!(outcome.series, benign.series);
    }

    #[test]
    fn tm2_campaign_reacquires_the_victim_board_by_fingerprint() {
        let benign = {
            let provider = Provider::new(ProviderConfig::aws_f1_like(3, 5));
            Campaign::new(
                provider,
                Mission::ThreatModel2(tm2_config()),
                CampaignConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap()
        };

        let provider = Provider::new(ProviderConfig::aws_f1_like(3, 5));
        let config = CampaignConfig {
            fault_plan: FaultPlan::none().with_scheduled(Hours::new(10.0), FaultKind::Preemption),
            ..CampaignConfig::default()
        };
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel2(tm2_config()), config).unwrap();
        let outcome = campaign.run().unwrap();

        assert_eq!(outcome.stats.reacquisitions, 1);
        assert_eq!(outcome.series, benign.series);
        assert_eq!(outcome.recovered, benign.recovered);
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let build = || {
            let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
            let config = CampaignConfig {
                // A preemption *after* the checkpoint proves the fault
                // stream replays across resume.
                fault_plan: FaultPlan::none()
                    .with_scheduled(Hours::new(40.0), FaultKind::Preemption),
                ..CampaignConfig::default()
            };
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap()
        };

        let mut uninterrupted = build();
        let reference = uninterrupted.run().unwrap();

        let mut interrupted = build();
        for _ in 0..20 {
            interrupted.step().unwrap();
        }
        let checkpoint = interrupted.checkpoint();
        drop(interrupted); // the original "process" dies here

        let mut resumed = Campaign::resume(checkpoint).unwrap();
        let outcome = resumed.run().unwrap();

        assert_eq!(outcome.series, reference.series);
        assert_eq!(outcome.recovered, reference.recovered);
        assert_eq!(outcome.stats.reacquisitions, reference.stats.reacquisitions);
    }

    #[test]
    fn tampered_checkpoint_is_rejected() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        let mut checkpoint = campaign.checkpoint();
        checkpoint.manifest = checkpoint.manifest.replace("\"hour\":0", "\"hour\":5");
        let err = Campaign::resume(checkpoint).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(_)),
            "{err}"
        );
        assert!(!err.is_transient());
    }

    /// A checkpoint whose *state* was mutated after sealing — a flipped
    /// reading, a rewound RNG — fails the dense checksum even though the
    /// headline manifest (mission, hour, counts) still matches.
    #[test]
    fn tampered_checkpoint_state_is_rejected_by_the_checksum() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        for _ in 0..3 {
            campaign.step().unwrap();
        }
        let mut checkpoint = campaign.checkpoint();

        // Flip one recorded reading: invisible to the manifest (the
        // measurement *count* is unchanged) but fatal to the checksum.
        let tampered = checkpoint.campaign.run.readings[0][0].map(|v| v + 0.25);
        checkpoint.campaign.run.readings[0][0] = tampered;
        assert_eq!(
            checkpoint.manifest,
            checkpoint.campaign.manifest_json(),
            "the tamper must be invisible to the manifest for this test \
             to prove the checksum adds protection"
        );
        let err = Campaign::resume(checkpoint.clone()).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
        assert!(!err.is_transient());

        // Rewinding the RNG stream is equally invisible to the manifest
        // and equally fatal: replaying stale randomness would silently
        // fork the campaign from its fault-free twin.
        let mut rewound = campaign.checkpoint();
        rewound.campaign.rng = StdRng::seed_from_u64(0);
        let err = Campaign::resume(rewound).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    /// A checkpoint truncated mid-flight — recorded hours lost — fails
    /// both seals; the checksum catches it even when the manifest is
    /// regenerated to match the truncated state.
    #[test]
    fn truncated_checkpoint_state_is_rejected() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 1));
        let mut campaign = Campaign::new(
            provider,
            Mission::ThreatModel1(tm1_config()),
            CampaignConfig::default(),
        )
        .unwrap();
        for _ in 0..6 {
            campaign.step().unwrap();
        }
        let mut checkpoint = campaign.checkpoint();

        // Drop the newest recorded hour, as a torn write would.
        checkpoint.campaign.run.hours_log.pop();
        for route in &mut checkpoint.campaign.run.readings {
            route.pop();
        }
        let err = Campaign::resume(checkpoint.clone()).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(_)),
            "{err}"
        );

        // Even an attacker who regenerates the manifest to describe the
        // truncated state cannot clear the sealed checksum.
        checkpoint.manifest = checkpoint.campaign.manifest_json();
        let err = Campaign::resume(checkpoint).unwrap_err();
        assert!(
            matches!(err, PentimentoError::CheckpointCorrupt(ref m) if m.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn exhausted_reacquisition_budget_is_a_typed_fatal_error() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(1, 1));
        // Preempt early, then make every rent fail: recovery cannot win.
        let mut fault_plan =
            FaultPlan::none().with_scheduled(Hours::new(2.0), FaultKind::Preemption);
        fault_plan.seed = 5;
        fault_plan.rent_failure_rate = 1.0;
        let config = CampaignConfig {
            max_attempts: 3,
            fault_plan,
            ..CampaignConfig::default()
        };
        let mut campaign =
            Campaign::new(provider, Mission::ThreatModel1(tm1_config()), config).unwrap();
        let err = campaign.run().unwrap_err();
        match err {
            PentimentoError::RetriesExhausted {
                operation,
                attempts,
                ref last,
            } => {
                assert_eq!(operation, "reacquire device");
                assert_eq!(attempts, 3);
                assert!(last.is_transient());
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(
            !err.is_transient(),
            "an exhausted budget must not be retried"
        );
        assert!(campaign.stats().rent_retries >= 2);
        assert!(campaign.stats().backoff_seconds > 0.0);
    }

    #[test]
    fn fingerprints_distinguish_fleet_devices() {
        let provider = Provider::new(ProviderConfig::aws_f1_like(2, 9));
        let specs = [RouteGroupSpec {
            target_ps: 5_000.0,
            count: 4,
        }];
        let a = provider.device_by_id(DeviceId(0)).unwrap();
        let b = provider.device_by_id(DeviceId(1)).unwrap();
        let skeleton = Skeleton::place(a, &specs).unwrap();
        let fp = DeviceFingerprint::capture(a, &skeleton);
        assert!(fp.matches(a, &skeleton));
        assert!(!fp.matches(b, &skeleton), "distinct silicon must differ");
        assert_ne!(
            fp.digest(),
            DeviceFingerprint::capture(b, &skeleton).digest()
        );
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        assert_eq!(backoff_s(1, 0), backoff_s(1, 0));
        // Jitter keeps every wait within [0.5, 1.5) of nominal.
        for attempt in 1..=6 {
            let wait = backoff_s(attempt, u64::from(attempt));
            let nominal = BASE_BACKOFF_S * f64::from(1u32 << (attempt - 1));
            assert!(wait >= 0.5 * nominal.min(MAX_BACKOFF_S));
            assert!(wait <= MAX_BACKOFF_S);
        }
        // Deep attempts saturate at the cap instead of overflowing.
        assert_eq!(backoff_s(40, 1), MAX_BACKOFF_S);
    }
}
