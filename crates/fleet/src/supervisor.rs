//! The crash-safe fleet supervisor.
//!
//! A [`Supervisor`] drives N concurrent [`Campaign`]s to completion
//! under injected process-level chaos, deterministically. Each tick is
//! one serial pass over the unresolved slots in slot-index order,
//! followed by one batched checkpoint commit. Every source of scheduling
//! state is per-slot:
//!
//! * chaos draws come from the slot's own [`ChaosCursor`] — counter-based
//!   `(seed, campaign, action)` streams, so the draw sequence per
//!   campaign is a pure function of the plan;
//! * telemetry rides the shared [`Recorder`], whose trace is
//!   content-sorted and whose counters merge as sums;
//! * report counters (float sums!), quarantine-ledger appends and
//!   checkpoint commits all happen in slot-index order.
//!
//! Campaigns still fan their per-route work out on the rayon pool, so
//! every fleet artifact is identical at every thread width.
//!
//! Per tick and per live slot the supervisor:
//!
//! 1. steps the campaign one hour (or finalizes it when complete);
//! 2. captures a CRC-sealed checkpoint *intent* on the configured
//!    cadence, drawing its chaos sabotage at capture; once every slot
//!    has ticked, all intents land as **one batched commit**
//!    ([`CheckpointStore::commit_batch`]: write + fsync every temp, then
//!    rename them all) instead of a per-campaign fsync;
//! 3. consults the slot's [`ChaosCursor`] — the campaign may be killed
//!    (its process image dropped on the floor) and its newest envelope
//!    may be corrupted or truncated once the batch has landed;
//! 4. recovers dead campaigns under a restart budget with deterministic
//!    exponential backoff, resuming from the newest checkpoint generation
//!    that survives full validation (rolling back over torn ones).
//!    Recovery replays the slot's own copy of the spec's campaign to the
//!    sealed hour and checks the envelope's seals.
//!
//! Each slot counts its consecutive failures: transient step and
//! finalize errors, and restore errors other than
//! [`StoreError::NoValidGeneration`]. Only a step that reaches an hour
//! the slot has never reached before resets the count, so a restore, or
//! a replayed hour, is not progress; the third failure without progress
//! trips the slot, which fails with [`FleetError::CircuitOpen`].
//!
//! Every terminal failure is a typed [`FleetError`] paired with a
//! [`QuarantineRecord`]; the chaos suite asserts there is no third
//! outcome. A scheduler invariant violation (a step dispatched to a
//! dead slot, a slot unresolved at drain) quarantines that slot with
//! [`FleetError::SchedulerInvariant`] instead of panicking the fleet —
//! the supervisor's steady-state paths contain no `expect`/`unwrap`.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use obs::{CampaignEvent, EventKind, FlightRecorder, Recorder};
use obs_analyze::indicators::FLEET_TICK_HISTOGRAM;
use pentimento::{Campaign, CampaignCheckpoint, CampaignOutcome, PentimentoError};

use crate::chaos::{ChaosAction, ChaosCursor, ChaosPlan};
use crate::error::{FleetError, StoreError};
use crate::quarantine::{QuarantineLedger, QuarantineReason, QuarantineRecord};
use crate::store::CheckpointStore;

/// Supervisor-level restarts per campaign before
/// [`FleetError::RestartBudgetExhausted`].
pub(crate) const MAX_RESTARTS: u32 = 6;
/// Consecutive failures that trip a slot with [`FleetError::CircuitOpen`].
const FAILURE_THRESHOLD: u32 = 3;
/// Supervisor ticks per campaign before [`FleetError::DeadlineExceeded`]
/// — the live-lock backstop.
const DEADLINE_TICKS: u64 = 10_000;
/// First-restart backoff, in accounted (never slept) seconds.
const BACKOFF_BASE_S: f64 = 1.0;
/// Ceiling on any single restart backoff, in seconds.
const BACKOFF_MAX_S: f64 = 60.0;
/// Events retained in each slot's [`FlightRecorder`] ring. The last N
/// events a campaign emitted are sealed to `flight/<id>.jsonl` when it
/// is quarantined.
const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// Supervisor tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Commit a checkpoint generation every this many completed
    /// attack-window hours (clamped to at least 1).
    pub checkpoint_every_hours: usize,
    /// Checkpoint generations retained per campaign (older ones are
    /// pruned from the store; clamped to at least 1 — the store itself
    /// refuses `retain = 0` with [`StoreError::InvalidRetention`]).
    pub retain_generations: usize,
    /// Directory flight dumps are sealed into; `None` uses
    /// `<store root>/flight`.
    pub flight_dir: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            checkpoint_every_hours: 8,
            retain_generations: 3,
            flight_dir: None,
        }
    }
}

/// One campaign entry in a fleet: a stable id (the checkpoint store
/// directory name) plus the freshly built campaign.
///
/// The campaign is also the recipe recovery replays: a restarted
/// supervisor must be handed the same specs, because survivors in the
/// store are matched to them by id.
///
/// Session-weather chaos (delayed and stolen sessions) is configured at
/// build time: construct the campaign with
/// `CampaignConfig::fault_plan = plan.session_weather(index)` so the
/// chaos-free reference run can impose the identical weather.
#[derive(Debug)]
pub struct CampaignSpec {
    /// Store-directory-safe identifier, unique within the fleet.
    pub id: String,
    /// The campaign to supervise.
    pub campaign: Campaign,
}

/// How one campaign ended.
#[derive(Debug, Clone)]
pub enum CampaignResult {
    /// Ran to completion; the outcome is bit-identical to an
    /// unsupervised run of the same campaign under the same weather.
    Completed(Box<CampaignOutcome>),
    /// Failed terminally with a typed error; a matching quarantine
    /// record exists in the report's ledger.
    Failed(FleetError),
}

impl CampaignResult {
    /// The outcome, when completed.
    #[must_use]
    pub fn outcome(&self) -> Option<&CampaignOutcome> {
        match self {
            Self::Completed(outcome) => Some(outcome),
            Self::Failed(_) => None,
        }
    }

    /// The typed error, when failed.
    #[must_use]
    pub fn error(&self) -> Option<&FleetError> {
        match self {
            Self::Completed(_) => None,
            Self::Failed(error) => Some(error),
        }
    }
}

/// What a fleet run did, campaign by campaign plus chaos accounting.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-campaign results, in spec order.
    pub results: Vec<(String, CampaignResult)>,
    /// The quarantine audit trail.
    pub quarantine: QuarantineLedger,
    /// Process kills the chaos schedule injected.
    pub kills_injected: u64,
    /// Envelope byte-flips the chaos schedule injected.
    pub corruptions_injected: u64,
    /// Envelope truncations the chaos schedule injected.
    pub truncations_injected: u64,
    /// Supervisor-level restarts performed.
    pub restarts: u64,
    /// Torn generations rolled past during recoveries.
    pub rollbacks: u64,
    /// Deterministic backoff accounted across restarts, in seconds
    /// (never slept: bookkeeping only, like the campaign layer).
    pub backoff_seconds: f64,
    /// Supervisor ticks the run took.
    pub ticks: u64,
    /// Peak per-device aging-arena footprint observed across completed
    /// campaigns, in bytes. Arenas are append-only, so the value read at
    /// campaign completion is that campaign's peak; the report keeps the
    /// fleet-wide maximum. Deterministic at every thread width.
    pub arena_bytes_per_device: usize,
}

impl FleetReport {
    /// Campaigns that completed.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|(_, r)| matches!(r, CampaignResult::Completed(_)))
            .count()
    }

    /// Campaigns that failed terminally.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Whether every failed campaign has at least one quarantine record
    /// naming it — the invariant the chaos suite asserts.
    #[must_use]
    pub fn failures_all_quarantined(&self) -> bool {
        self.results.iter().all(|(id, result)| {
            result.error().is_none() || self.quarantine.for_campaign(id).next().is_some()
        })
    }
}

/// Per-campaign supervision state: campaign image, chaos cursor,
/// failure count and flight ring.
struct Slot {
    id: String,
    /// The spec's freshly built campaign, kept as the recipe a restore
    /// replays to the sealed hour.
    origin: Campaign,
    /// The live "process image"; `None` while dead awaiting recovery.
    campaign: Option<Campaign>,
    /// Next generation number to commit.
    generation: u64,
    restarts: u32,
    ticks: u64,
    /// Failures since a step last reached a new hour;
    /// [`FAILURE_THRESHOLD`] trips the slot.
    consecutive_failures: u32,
    /// The highest hour a step of this slot has reached. A replayed step
    /// below it is not progress, so it leaves the failure count alone.
    high_water_hour: usize,
    device: cloud::DeviceId,
    /// This slot's slice of the chaos schedule.
    chaos: ChaosCursor,
    result: Option<CampaignResult>,
    last_error: Option<PentimentoError>,
    /// Peak per-device aging-arena bytes, read from the provider at
    /// campaign completion (arenas are append-only, so that is the peak).
    arena_bytes: usize,
    /// The last N supervisor events touching this slot, sealed to a
    /// `flight/<id>.jsonl` artifact if the campaign is quarantined.
    flight: FlightRecorder,
}

/// A checkpoint a slot captured during its tick, for the tick's batch
/// commit to land: the batch writes the envelope, then applies any chaos
/// sabotage the slot's cursor drew against it.
struct CommitIntent {
    generation: u64,
    checkpoint: CampaignCheckpoint,
    /// Chaos damage to inflict on the freshly committed envelope:
    /// `(action, corruption byte offset)` — the offset is meaningful
    /// only for [`ChaosAction::Corrupt`].
    sabotage: Option<(ChaosAction, u64)>,
}

/// The fleet supervisor. See the module docs for the control loop.
#[derive(Debug)]
pub struct Supervisor {
    config: FleetConfig,
    store: CheckpointStore,
    recorder: Option<Arc<Recorder>>,
    /// Wall-clock tick durations of the most recent [`run`](Self::run),
    /// in seconds. Diagnostics only — never part of any report or
    /// determinism comparison.
    tick_latencies_s: Vec<f64>,
    /// Flight-dump bodies sealed during the most recent run, keyed by
    /// campaign id — the in-memory mirror of `flight/<id>.jsonl`, so
    /// determinism harnesses can compare dumps without racing scratch
    /// directory cleanup.
    flight_dumps: BTreeMap<String, String>,
}

impl Supervisor {
    /// Opens a supervisor over a (possibly pre-existing) checkpoint
    /// store rooted at `store_root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the store root cannot be created.
    pub fn new(store_root: impl AsRef<Path>, config: FleetConfig) -> Result<Self, StoreError> {
        Ok(Self {
            config,
            store: CheckpointStore::open(store_root.as_ref().to_path_buf())?,
            recorder: None,
            tick_latencies_s: Vec::new(),
            flight_dumps: BTreeMap::new(),
        })
    }

    /// Attaches (or detaches) the shared telemetry recorder.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.recorder = recorder;
    }

    /// Wall-clock duration of every supervisor tick in the most recent
    /// [`run`](Self::run), in seconds — the `fleet_scaling` bench's p99
    /// source. Nondeterministic by nature; kept out of [`FleetReport`]
    /// so identity comparisons never see it.
    #[must_use]
    pub fn last_tick_latencies_s(&self) -> &[f64] {
        &self.tick_latencies_s
    }

    /// Flight-dump bodies sealed during the most recent run, keyed by
    /// campaign id — byte-identical to the `flight/<id>.jsonl` files.
    #[must_use]
    pub fn flight_dumps(&self) -> &BTreeMap<String, String> {
        &self.flight_dumps
    }

    /// The directory flight dumps are sealed into.
    #[must_use]
    pub fn flight_dir(&self) -> PathBuf {
        self.config
            .flight_dir
            .clone()
            .unwrap_or_else(|| self.store.root().join("flight"))
    }

    /// Emits a fleet-level event to the shared recorder.
    fn emit(&self, kind: EventKind, at: f64, value: f64, detail: &str) {
        if let Some(r) = &self.recorder {
            r.event(CampaignEvent::new(kind, at).value(value).detail(detail));
        }
    }

    /// Emits an event about one slot to the shared recorder and into the
    /// slot's flight ring.
    fn record(&self, flight: &mut FlightRecorder, event: CampaignEvent) {
        if let Some(r) = &self.recorder {
            r.event(event.clone());
        }
        flight.push(event);
    }

    /// [`record`](Self::record)s a slot event stamped with the slot's
    /// tick and detailed with its id.
    fn slot_event(&self, slot: &mut Slot, kind: EventKind, value: f64) {
        let event = CampaignEvent::new(kind, slot.ticks as f64)
            .value(value)
            .detail(&slot.id);
        self.record(&mut slot.flight, event);
    }

    fn incr(&self, counter: &'static str) {
        if let Some(r) = &self.recorder {
            r.incr(counter, 1);
        }
    }

    /// Captures a commit intent: the sealed checkpoint plus whatever
    /// sabotage the slot's chaos cursor drew against it, drawn in the
    /// order truncate → corrupt → offset.
    fn capture_intent(
        campaign: &Campaign,
        generation: u64,
        chaos: &mut ChaosCursor,
    ) -> CommitIntent {
        let checkpoint = campaign.checkpoint();
        let sabotage = match chaos.corrupt_commit() {
            Some(ChaosAction::Truncate) => Some((ChaosAction::Truncate, 0)),
            Some(ChaosAction::Corrupt) => {
                let offset = chaos.corruption_offset();
                Some((ChaosAction::Corrupt, offset))
            }
            Some(ChaosAction::Kill) | None => None,
        };
        CommitIntent {
            generation,
            checkpoint,
            sabotage,
        }
    }

    /// Lands everything that follows a successful envelope commit:
    /// chaos sabotage against the fresh envelope, and generation
    /// pruning.
    fn commit_aftermath(
        &mut self,
        id: &str,
        intent: CommitIntent,
        report: &mut FleetReport,
    ) -> Result<(), StoreError> {
        match intent.sabotage {
            Some((ChaosAction::Truncate, _)) => {
                self.store.truncate(id, intent.generation, 0.5)?;
                report.truncations_injected += 1;
                self.incr("fleet.chaos.truncations");
            }
            Some((ChaosAction::Corrupt, offset)) => {
                self.store.corrupt_byte(id, intent.generation, offset)?;
                report.corruptions_injected += 1;
                self.incr("fleet.chaos.corruptions");
            }
            Some((ChaosAction::Kill, _)) | None => {}
        }
        self.store
            .prune(id, self.config.retain_generations.max(1))?;
        Ok(())
    }

    fn quarantine(&mut self, slot: &mut Slot, reason: QuarantineReason, report: &mut FleetReport) {
        let record = QuarantineRecord {
            campaign: slot.id.clone(),
            device: slot.device,
            at_tick: slot.ticks,
            reason,
            consecutive_failures: slot.consecutive_failures,
        };
        let event = CampaignEvent::new(EventKind::Quarantine, slot.ticks as f64)
            .value(f64::from(slot.device.0))
            .detail(record.reason.tag());
        self.record(&mut slot.flight, event);
        self.incr("fleet.quarantines");
        report.quarantine.push(record);
    }

    fn fail(
        &mut self,
        slot: &mut Slot,
        error: FleetError,
        reason: QuarantineReason,
        report: &mut FleetReport,
    ) {
        self.quarantine(slot, reason, report);
        self.dump_flight(slot);
        slot.campaign = None;
        slot.result = Some(CampaignResult::Failed(error));
    }

    /// A scheduler invariant was violated serving this slot: isolate the
    /// slot with a typed error instead of panicking the fleet.
    fn invariant_violation(
        &mut self,
        slot: &mut Slot,
        invariant: &'static str,
        report: &mut FleetReport,
    ) {
        let error = FleetError::SchedulerInvariant {
            id: slot.id.clone(),
            invariant,
        };
        self.fail(slot, error, QuarantineReason::SchedulerInvariant, report);
    }

    /// The slot reached [`FAILURE_THRESHOLD`]: emit, quarantine, and
    /// fail the campaign with the typed circuit error.
    fn trip(&mut self, slot: &mut Slot, report: &mut FleetReport) {
        self.slot_event(slot, EventKind::CircuitOpen, f64::from(slot.device.0));
        self.incr("fleet.circuit_open");
        let error = FleetError::CircuitOpen {
            id: slot.id.clone(),
            device: slot.device,
            consecutive_failures: slot.consecutive_failures,
        };
        self.fail(slot, error, QuarantineReason::BreakerTripped, report);
    }

    /// Counts one recoverable failure: the campaign dies awaiting
    /// recovery, and the [`FAILURE_THRESHOLD`]th failure since a step
    /// last reached a new hour trips the slot.
    fn count_failure(&mut self, slot: &mut Slot, error: PentimentoError, report: &mut FleetReport) {
        slot.last_error = Some(error);
        slot.campaign = None;
        slot.consecutive_failures += 1;
        if slot.consecutive_failures >= FAILURE_THRESHOLD {
            self.trip(slot, report);
        }
    }

    /// Restores `slot`'s campaign from the newest checkpoint generation
    /// that survives full validation: replays a clone of the slot's
    /// origin to the envelope's hour, then requires the replayed state
    /// to reproduce both sealed values. Reads the store only.
    fn restore(&self, slot: &Slot) -> Result<(Campaign, u64, u64), StoreError> {
        let (envelope, skipped) = self.store.latest_good(&slot.id)?;
        let mismatch = |reason: String| StoreError::SnapshotMismatch {
            campaign: slot.id.clone(),
            generation: envelope.generation,
            reason,
        };
        let mut campaign = slot.origin.clone();
        // The provider advances its cache-report watermark only while a
        // recorder is attached: replay into a throwaway one, so the
        // next live hour reports no catch-up cache delta.
        let recorder = campaign.recorder().cloned();
        if recorder.is_some() {
            campaign.set_recorder(Some(Arc::default()));
        }
        while (campaign.hour() as u64) < envelope.hour && !campaign.is_complete() {
            campaign
                .step()
                .map_err(|e| mismatch(format!("replay failed: {e}")))?;
            self.incr("fleet.replay_hours");
        }
        campaign.set_recorder(recorder);
        if campaign.state_checksum() != envelope.state_checksum {
            return Err(mismatch(format!(
                "replayed checksum {:#018x} vs sealed {:#018x}",
                campaign.state_checksum(),
                envelope.state_checksum
            )));
        }
        if campaign.manifest_json() != envelope.manifest {
            return Err(mismatch(
                "replayed manifest disagrees with the sealed envelope".to_owned(),
            ));
        }
        Ok((campaign, envelope.generation, skipped as u64))
    }

    /// One recovery attempt for a dead slot: restart budget, backoff
    /// accounting, then restore-from-store.
    fn recover_slot(&mut self, slot: &mut Slot, report: &mut FleetReport) {
        if slot.restarts >= MAX_RESTARTS {
            let error = FleetError::RestartBudgetExhausted {
                id: slot.id.clone(),
                restarts: slot.restarts,
                last: slot
                    .last_error
                    .clone()
                    .unwrap_or(PentimentoError::VictimDeviceLost),
            };
            self.fail(
                slot,
                error,
                QuarantineReason::RestartBudgetExhausted,
                report,
            );
            return;
        }
        slot.restarts += 1;
        report.restarts += 1;
        self.incr("fleet.restarts");
        let backoff = (BACKOFF_BASE_S * 2f64.powi(slot.restarts.saturating_sub(1).min(30) as i32))
            .min(BACKOFF_MAX_S);
        report.backoff_seconds += backoff;
        self.slot_event(slot, EventKind::Backoff, backoff);

        match self.restore(slot) {
            Ok((campaign, generation, rollbacks)) => {
                report.rollbacks += rollbacks;
                if rollbacks > 0 {
                    self.incr("fleet.rollbacks");
                }
                self.slot_event(slot, EventKind::RecoveryScan, generation as f64);
                self.incr("fleet.recovery_scans");
                slot.generation = generation + 1;
                slot.campaign = Some(campaign);
            }
            Err(error @ StoreError::NoValidGeneration { .. }) => {
                // Nothing left to roll back to: terminal, regardless of
                // budgets.
                let error = FleetError::Store {
                    id: slot.id.clone(),
                    source: error,
                };
                self.fail(slot, error, QuarantineReason::StoreUnrecoverable, report);
            }
            Err(source) => {
                let error = PentimentoError::CheckpointCorrupt(source.to_string());
                self.count_failure(slot, error, report);
            }
        }
    }

    /// Steps a live slot one hour, consulting the slot's chaos cursor;
    /// returns the checkpoint intent captured on the cadence, if any.
    fn step_slot(&mut self, slot: &mut Slot, report: &mut FleetReport) -> Option<CommitIntent> {
        let Some(campaign) = slot.campaign.as_mut() else {
            self.invariant_violation(
                slot,
                "step dispatched to a slot with no live campaign",
                report,
            );
            return None;
        };
        if campaign.is_complete() {
            // `run` on a complete campaign skips straight to finalize.
            match campaign.run() {
                Ok(outcome) => {
                    slot.arena_bytes = campaign.provider().peak_aging_memory_bytes();
                    slot.result = Some(CampaignResult::Completed(Box::new(outcome)));
                    slot.campaign = None;
                }
                Err(e)
                    if e.is_transient()
                        || matches!(e, PentimentoError::RetriesExhausted { .. }) =>
                {
                    self.count_failure(slot, e, report); // recover and re-finalize
                }
                Err(e) => {
                    let error = FleetError::Campaign {
                        id: slot.id.clone(),
                        source: e,
                    };
                    self.fail(slot, error, QuarantineReason::FatalError, report);
                }
            }
            return None;
        }
        match campaign.step() {
            Ok(_) => {
                let hour = campaign.hour();
                if hour > slot.high_water_hour {
                    slot.high_water_hour = hour;
                    slot.consecutive_failures = 0;
                }
                let cadence = self.config.checkpoint_every_hours.max(1);
                let mut intent = None;
                if hour.is_multiple_of(cadence) || campaign.is_complete() {
                    intent = Some(Self::capture_intent(
                        campaign,
                        slot.generation,
                        &mut slot.chaos,
                    ));
                    slot.generation += 1;
                }
                if slot.chaos.kill_now(hour) {
                    report.kills_injected += 1;
                    self.incr("fleet.chaos.kills");
                    slot.campaign = None; // the process image dies here
                }
                intent
            }
            Err(e) if e.is_transient() || matches!(e, PentimentoError::RetriesExhausted { .. }) => {
                self.count_failure(slot, e, report);
                None
            }
            Err(e) => {
                let error = FleetError::Campaign {
                    id: slot.id.clone(),
                    source: e,
                };
                self.fail(slot, error, QuarantineReason::FatalError, report);
                None
            }
        }
    }

    /// Advances one unresolved slot by one tick; returns the checkpoint
    /// intent it captured for the tick's batch commit, if any.
    fn tick_slot(&mut self, slot: &mut Slot, report: &mut FleetReport) -> Option<CommitIntent> {
        slot.ticks += 1;
        if slot.ticks > DEADLINE_TICKS {
            let error = FleetError::DeadlineExceeded {
                id: slot.id.clone(),
                ticks: slot.ticks as usize,
            };
            self.fail(slot, error, QuarantineReason::DeadlineExceeded, report);
            None
        } else if slot.campaign.is_none() {
            self.recover_slot(slot, report);
            None
        } else {
            self.step_slot(slot, report)
        }
    }

    /// Seals the slot's flight ring to `<flight dir>/<id>.jsonl` with
    /// the store's own write-temp → fsync → rename idiom, and mirrors
    /// the body in memory for determinism harnesses. I/O failure only
    /// costs the artifact (`fleet.flight_dump_failures` counts it) —
    /// the black box must never take the fleet down with it.
    fn dump_flight(&mut self, slot: &Slot) {
        let body = slot.flight.jsonl();
        let events = slot.flight.len();
        let dir = self.flight_dir();
        let path = dir.join(format!("{}.jsonl", slot.id));
        let sealed = (|| -> std::io::Result<()> {
            fs::create_dir_all(&dir)?;
            let tmp = path.with_extension("jsonl.tmp");
            let mut file = File::create(&tmp)?;
            file.write_all(body.as_bytes())?;
            file.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        if sealed.is_err() {
            self.incr("fleet.flight_dump_failures");
        }
        self.flight_dumps.insert(slot.id.clone(), body);
        self.emit(
            EventKind::FlightDump,
            slot.ticks as f64,
            events as f64,
            &slot.id,
        );
        self.incr("fleet.flight_dumps");
    }

    /// Converts drained slots into the report's result rows. A slot
    /// without a result cannot happen (the tick loop only exits when
    /// every slot resolved) — but a drain must never panic, so an
    /// unresolved slot is quarantined with a typed invariant error.
    fn drain_slots(&mut self, slots: Vec<Slot>, report: &mut FleetReport) {
        report.results.reserve(slots.len());
        for mut slot in slots {
            report.arena_bytes_per_device = report.arena_bytes_per_device.max(slot.arena_bytes);
            let result = match slot.result.take() {
                Some(result) => result,
                None => {
                    let error = FleetError::SchedulerInvariant {
                        id: slot.id.clone(),
                        invariant: "slot left unresolved at fleet drain",
                    };
                    self.quarantine(&mut slot, QuarantineReason::SchedulerInvariant, report);
                    self.dump_flight(&slot);
                    CampaignResult::Failed(error)
                }
            };
            report.results.push((slot.id, result));
        }
    }

    /// Runs a fleet to completion under `chaos`. Deterministic: the same
    /// specs and plan produce the same report, quarantine ledger, and
    /// telemetry at every thread width.
    pub fn run(&mut self, specs: Vec<CampaignSpec>, chaos: ChaosPlan) -> FleetReport {
        let mut report = FleetReport::default();
        self.tick_latencies_s.clear();
        self.flight_dumps.clear();

        // Startup crash-recovery scan: every campaign directory already
        // in the store is a survivor of a previous incarnation.
        let survivors = self.store.campaigns();
        self.emit(
            EventKind::RecoveryScan,
            0.0,
            survivors.len() as f64,
            "fleet startup",
        );
        self.incr("fleet.recovery_scans");

        let mut slots: Vec<Slot> = Vec::with_capacity(specs.len());
        for (index, spec) in specs.into_iter().enumerate() {
            let device = spec.campaign.victim_device();
            let mut slot = Slot {
                id: spec.id,
                origin: spec.campaign,
                campaign: None,
                generation: 0,
                restarts: 0,
                ticks: 0,
                consecutive_failures: 0,
                high_water_hour: 0,
                device,
                chaos: ChaosCursor::new(&chaos, index),
                result: None,
                last_error: None,
                arena_bytes: 0,
                flight: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            };
            let started = if survivors.contains(&slot.id) {
                // Resume the survivor by replaying the spec's campaign
                // to its newest good generation.
                self.restore(&slot)
                    .map(|(campaign, generation, rollbacks)| {
                        report.rollbacks += rollbacks;
                        self.emit(EventKind::RecoveryScan, 0.0, generation as f64, &slot.id);
                        self.incr("fleet.recovery_scans");
                        slot.generation = generation + 1;
                        slot.campaign = Some(campaign);
                    })
            } else {
                // Fresh campaign: seal generation 0 before the first
                // tick so a kill at any hour has a recovery point. Setup
                // is serial, so commits land immediately in spec order.
                let intent = Self::capture_intent(&slot.origin, slot.generation, &mut slot.chaos);
                slot.campaign = Some(slot.origin.clone());
                slot.generation += 1;
                self.store
                    .commit(&slot.id, intent.generation, &intent.checkpoint)
                    .and_then(|_| self.commit_aftermath(&slot.id, intent, &mut report))
            };
            if let Err(source) = started {
                let error = FleetError::Store {
                    id: slot.id.clone(),
                    source,
                };
                self.fail(
                    &mut slot,
                    error,
                    QuarantineReason::StoreUnrecoverable,
                    &mut report,
                );
            }
            slots.push(slot);
        }

        // The tick loop: every unresolved slot advances in slot-index
        // order, then the tick's checkpoint intents land as one batch.
        while slots.iter().any(|slot| slot.result.is_none()) {
            report.ticks += 1;
            let live = slots.iter().filter(|slot| slot.result.is_none()).count();
            self.emit(
                EventKind::SchedulerTick,
                report.ticks as f64,
                live as f64,
                "fleet",
            );
            self.incr("fleet.scheduler_ticks");
            let tick_started = Instant::now();

            let mut intents: Vec<(usize, CommitIntent)> = Vec::new();
            for (index, slot) in slots.iter_mut().enumerate() {
                if slot.result.is_some() {
                    continue;
                }
                if let Some(intent) = self.tick_slot(slot, &mut report) {
                    intents.push((index, intent));
                }
            }

            // Land the whole batch — one two-phase write+fsync/rename
            // pass — then apply sabotage and pruning per campaign, still
            // in slot-index order.
            if !intents.is_empty() {
                self.emit(
                    EventKind::CommitBatch,
                    report.ticks as f64,
                    intents.len() as f64,
                    "fleet",
                );
                self.incr("fleet.commit_batches");
                let outcomes = {
                    let items: Vec<(&str, u64, &CampaignCheckpoint)> = intents
                        .iter()
                        .map(|(index, intent)| {
                            (
                                slots[*index].id.as_str(),
                                intent.generation,
                                &intent.checkpoint,
                            )
                        })
                        .collect();
                    self.store.commit_batch(&items)
                };
                for ((index, intent), outcome) in intents.into_iter().zip(outcomes) {
                    let id = slots[index].id.clone();
                    let landed =
                        outcome.and_then(|_| self.commit_aftermath(&id, intent, &mut report));
                    if let Err(source) = landed {
                        let error = FleetError::Store { id, source };
                        self.fail(
                            &mut slots[index],
                            error,
                            QuarantineReason::StoreUnrecoverable,
                            &mut report,
                        );
                    }
                }
            }

            let elapsed = tick_started.elapsed().as_secs_f64();
            if let Some(r) = &self.recorder {
                r.observe(FLEET_TICK_HISTOGRAM, elapsed * 1000.0);
            }
            self.tick_latencies_s.push(elapsed);
        }

        self.drain_slots(slots, &mut report);
        report
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use cloud::{Provider, ProviderConfig};
    use pentimento::threat_model1::ThreatModel1Config;
    use pentimento::{CampaignConfig, MeasurementMode, Mission};

    use super::*;

    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fleet-sched-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn small_campaign(seed: u64) -> Campaign {
        let tm1 = ThreatModel1Config {
            route_lengths_ps: vec![600.0],
            routes_per_length: 4,
            burn_hours: 12,
            measure_every: 4,
            mode: MeasurementMode::Oracle,
            seed,
            measurement_repeats: 1,
        };
        Campaign::new(
            Provider::new(ProviderConfig::aws_f1_like(2, seed)),
            Mission::ThreatModel1(tm1),
            CampaignConfig::default(),
        )
        .expect("campaign builds")
    }

    /// A dead slot (no live campaign image) whose recipe is the seed-`seed`
    /// campaign. Stepping it violates the scheduler's invariants.
    fn dead_slot(id: &str, seed: u64) -> Slot {
        Slot {
            id: id.to_owned(),
            origin: small_campaign(seed),
            campaign: None,
            generation: 0,
            restarts: 0,
            ticks: 0,
            consecutive_failures: 0,
            high_water_hour: 0,
            device: cloud::DeviceId(0),
            chaos: ChaosCursor::new(&ChaosPlan::none(), 0),
            result: None,
            last_error: None,
            arena_bytes: 0,
            flight: FlightRecorder::new(8),
        }
    }

    #[test]
    fn step_on_a_poisoned_slot_quarantines_typed_instead_of_panicking() {
        let scratch = Scratch::new();
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let mut report = FleetReport::default();
        let mut slot = dead_slot("c0", 1);

        // A step dispatched to a dead slot must isolate the slot, not
        // panic the fleet.
        supervisor.step_slot(&mut slot, &mut report);

        assert!(matches!(
            slot.result,
            Some(CampaignResult::Failed(
                FleetError::SchedulerInvariant { .. }
            ))
        ));
        let record = report.quarantine.records().first().expect("quarantined");
        assert_eq!(record.reason, QuarantineReason::SchedulerInvariant);
        assert_eq!(record.campaign, "c0");
        // The quarantine seals the slot's flight dump in the same call.
        assert!(supervisor.flight_dumps().contains_key("c0"));
    }

    #[test]
    fn draining_an_unresolved_slot_quarantines_typed_instead_of_panicking() {
        let scratch = Scratch::new();
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let mut report = FleetReport::default();

        // An unresolved slot at drain must resolve typed, not panic.
        supervisor.drain_slots(vec![dead_slot("c9", 1)], &mut report);

        assert_eq!(report.failed(), 1);
        let error = report.results[0].1.error().expect("typed failure");
        assert!(matches!(error, FleetError::SchedulerInvariant { .. }));
        assert_eq!(error.tag(), "scheduler_invariant");
        assert!(report.failures_all_quarantined());
        assert_eq!(
            report.quarantine.records()[0].reason,
            QuarantineReason::SchedulerInvariant
        );
    }

    #[test]
    fn three_failed_restores_in_a_row_trip_the_slot() {
        let scratch = Scratch::new();
        let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).unwrap();
        let recorder = Arc::new(Recorder::new());
        supervisor.set_recorder(Some(recorder.clone()));
        let mut report = FleetReport::default();
        // The store holds a seed-1 generation under the id, but the slot's
        // recipe is the seed-2 campaign: no replay reproduces the seals.
        supervisor
            .store
            .commit("c0", 0, &small_campaign(1).checkpoint())
            .unwrap();
        let mut slot = dead_slot("c0", 2);
        assert!(matches!(
            supervisor.restore(&slot),
            Err(StoreError::SnapshotMismatch { .. })
        ));

        for failures in 1..FAILURE_THRESHOLD {
            supervisor.recover_slot(&mut slot, &mut report);
            assert!(slot.result.is_none(), "failure {failures} must not trip");
            assert_eq!(slot.consecutive_failures, failures);
            assert!(matches!(
                slot.last_error,
                Some(PentimentoError::CheckpointCorrupt(_))
            ));
        }
        supervisor.recover_slot(&mut slot, &mut report);

        assert_eq!(report.restarts, 3);
        assert!(
            matches!(
                slot.result,
                Some(CampaignResult::Failed(FleetError::CircuitOpen {
                    consecutive_failures: 3,
                    ..
                }))
            ),
            "{:?}",
            slot.result
        );
        let [record] = report.quarantine.records() else {
            panic!("one quarantine record: {:?}", report.quarantine);
        };
        assert_eq!(record.reason, QuarantineReason::BreakerTripped);
        assert_eq!(record.consecutive_failures, 3);
        assert!(supervisor.flight_dumps()["c0"].contains("\"kind\":\"circuit_open\""));
        let trace = recorder.trace_jsonl();
        assert_eq!(trace.matches("\"kind\":\"circuit_open\"").count(), 1);
        assert_eq!(recorder.counter("fleet.circuit_open"), 1);
    }
}
