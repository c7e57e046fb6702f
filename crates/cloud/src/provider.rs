//! The cloud provider: device pool, leases, scrubbing, and time.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use bti_physics::{CacheStats, Celsius, Hours};
use fpga_fabric::{check_design, Design, FpgaDevice, ThermalModel};
use obs::{CampaignEvent, EventKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::ledger::FaultRecord;
use crate::{
    AfiId, CloudError, FaultKind, FaultPlan, FaultState, Marketplace, RentalLedger, Session,
    TenantId,
};

/// Identifier of a physical device in the provider's fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fpga-{:04}", self.0)
    }
}

/// Minimum prior service age of fleet devices, in hours (two years).
const MIN_DEVICE_AGE_HOURS: f64 = 2.0 * 365.0 * 24.0;
/// Maximum prior service age of fleet devices, in hours (four years).
const MAX_DEVICE_AGE_HOURS: f64 = 4.0 * 365.0 * 24.0;
/// Power budget enforced by the platform DRC, in watts (AWS F1: 85).
const POWER_LIMIT_WATTS: f64 = 85.0;

/// Fleet configuration. Every region is AWS-F1-like: devices aged two to
/// four years and an 85 W power limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderConfig {
    /// Number of devices in the region.
    pub pool_size: u32,
    /// Base RNG seed: device silicon and ages derive from it.
    pub seed: u64,
    /// Launch-rate control (Section 8.2 mitigation): how long a returned
    /// device is quarantined before it can be rented again.
    pub quarantine: Hours,
}

impl ProviderConfig {
    /// An AWS-F1-like region with no quarantine (the vulnerable default
    /// the paper attacks).
    #[must_use]
    pub fn aws_f1_like(pool_size: u32, seed: u64) -> Self {
        Self {
            pool_size,
            seed,
            quarantine: Hours::ZERO,
        }
    }

    /// The same region with the launch-rate-control mitigation enabled.
    #[must_use]
    pub fn with_quarantine(mut self, quarantine: Hours) -> Self {
        self.quarantine = quarantine;
        self
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum SlotState {
    Free { released_at: Option<Hours> },
    Rented { session_id: u64 },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Slot {
    device: FpgaDevice,
    state: SlotState,
}

/// The cloud provider: owns the fleet, leases devices, scrubs on release,
/// and advances global time.
///
/// Time is global: [`advance_time`](Provider::advance_time) runs every
/// rented device's loaded design and lets every idle device relax, which
/// is what makes quarantine an effective mitigation.
#[derive(Debug, Clone)]
pub struct Provider {
    config: ProviderConfig,
    slots: HashMap<DeviceId, Slot>,
    marketplace: Marketplace,
    ledger: RentalLedger,
    now: Hours,
    next_session: u64,
    fault_plan: FaultPlan,
    fault_state: FaultState,
    /// Scheduled rent-time faults that came due while time advanced and
    /// are waiting for the next `rent` call to consume them.
    pending_rent_faults: Vec<FaultKind>,
    /// Optional telemetry sink. Every emission happens on the serial
    /// `&mut self` paths, so events carry deterministic keys and an
    /// attached recorder can never perturb results.
    recorder: Option<Arc<Recorder>>,
    /// Fleet-wide decay-cache counters already reported to the recorder;
    /// each `advance_time` emits only the delta since this snapshot.
    cache_seen: CacheStats,
}

/// Emits a `FaultInjected` event alongside a ledger record. A free
/// function on purpose: callers hold field borrows of `Provider`, so this
/// must touch only the recorder handle.
fn note_fault(recorder: &Option<Arc<Recorder>>, record: &FaultRecord) {
    let Some(r) = recorder else { return };
    let mut event = CampaignEvent::new(EventKind::FaultInjected, record.at.value())
        .detail(record.kind.to_string());
    if let Some(device) = record.device {
        event = event.value(f64::from(device.0));
    }
    r.event(event);
    r.incr(&format!("cloud.faults.{}", record.kind), 1);
}

impl Provider {
    /// Builds a fleet according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if `pool_size` is zero.
    #[must_use]
    pub fn new(config: ProviderConfig) -> Self {
        assert!(
            config.pool_size > 0,
            "invalid provider configuration: fleet must contain devices"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let slots = (0..config.pool_size)
            .map(|i| {
                let age = rng.gen_range(MIN_DEVICE_AGE_HOURS..MAX_DEVICE_AGE_HOURS);
                let seed = config
                    .seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(u64::from(i));
                (
                    DeviceId(i),
                    Slot {
                        device: FpgaDevice::aws_f1(seed, Hours::new(age)),
                        state: SlotState::Free { released_at: None },
                    },
                )
            })
            .collect();
        Self {
            config,
            slots,
            marketplace: Marketplace::new(),
            ledger: RentalLedger::new(),
            now: Hours::ZERO,
            next_session: 0,
            fault_plan: FaultPlan::none(),
            fault_state: FaultState::new(),
            pending_rent_faults: Vec::new(),
            recorder: None,
            cache_seen: CacheStats::default(),
        }
    }

    /// Attaches (or detaches) a telemetry recorder. Pure observability:
    /// simulation results are bit-identical with or without one.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.recorder = recorder;
    }

    /// The attached telemetry recorder, if any.
    #[must_use]
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Fleet-wide decay-cache counters, summed over every device.
    #[must_use]
    pub fn decay_cache_stats(&self) -> CacheStats {
        self.slots
            .values()
            .fold(CacheStats::default(), |acc, slot| {
                acc.combined(slot.device.decay_cache_stats())
            })
    }

    /// Heap footprint of the largest per-device aging arena in the
    /// region, in bytes. The arena only ever grows (slots are
    /// append-only), so the end-of-campaign maximum is the campaign's
    /// peak resident aging memory per device.
    #[must_use]
    pub fn peak_aging_memory_bytes(&self) -> usize {
        self.slots
            .values()
            .map(|slot| slot.device.aging_memory_bytes())
            .max()
            .unwrap_or(0)
    }

    /// Reports the decay-cache activity since the last report as
    /// `CacheHit`/`CacheMiss` events keyed at the current sim time.
    fn note_cache_activity(&mut self) {
        let Some(recorder) = self.recorder.clone() else {
            return;
        };
        let total = self.decay_cache_stats();
        let delta = total.since(self.cache_seen);
        self.cache_seen = total;
        let at = self.now.value();
        if delta.hits > 0 {
            recorder.event(CampaignEvent::new(EventKind::CacheHit, at).value(delta.hits as f64));
            recorder.incr("cache.hits", delta.hits);
        }
        if delta.misses > 0 {
            recorder.event(CampaignEvent::new(EventKind::CacheMiss, at).value(delta.misses as f64));
            recorder.incr("cache.misses", delta.misses);
        }
        recorder.incr("cache.resets", delta.resets);
    }

    /// Installs a hostile-cloud [`FaultPlan`], resetting any draw counters
    /// from a previous plan. The default plan injects nothing.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
        self.fault_state = FaultState::new();
        self.pending_rent_faults.clear();
    }

    /// The active fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The fault draw counters (for introspection and tests).
    #[must_use]
    pub fn fault_state(&self) -> &FaultState {
        &self.fault_state
    }

    /// The fleet configuration.
    #[must_use]
    pub fn config(&self) -> &ProviderConfig {
        &self.config
    }

    /// Global wall-clock time since the provider was created.
    #[must_use]
    pub fn now(&self) -> Hours {
        self.now
    }

    /// The marketplace catalog.
    #[must_use]
    pub fn marketplace(&self) -> &Marketplace {
        &self.marketplace
    }

    /// Mutable marketplace access (publishing).
    pub fn marketplace_mut(&mut self) -> &mut Marketplace {
        &mut self.marketplace
    }

    fn is_rentable(&self, slot: &Slot) -> bool {
        match slot.state {
            SlotState::Free { released_at } => match released_at {
                None => true,
                Some(t) => (self.now - t).value() >= self.config.quarantine.value(),
            },
            SlotState::Rented { .. } => false,
        }
    }

    /// Leases one device.
    ///
    /// Under a hostile [`FaultPlan`] this call may fail transiently
    /// ([`CloudError::TransientCapacity`]) or hand back a *different* free
    /// device than the deterministic lowest-id choice (a device swap) —
    /// both recorded in the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::CapacityExhausted`] if nothing is rentable
    /// (either everything is leased or returned boards are quarantined),
    /// or [`CloudError::TransientCapacity`] for an injected rent failure.
    pub fn rent(&mut self, tenant: TenantId) -> Result<Session, CloudError> {
        let forced_fail = self.take_pending(FaultKind::RentFailure);
        if forced_fail
            || self
                .fault_state
                .draw(&self.fault_plan, FaultKind::RentFailure, 1.0)
        {
            let record = FaultRecord {
                at: self.now,
                kind: FaultKind::RentFailure,
                device: None,
                session_id: None,
                scheduled: forced_fail,
            };
            note_fault(&self.recorder, &record);
            self.ledger.record_fault(record);
            return Err(CloudError::TransientCapacity);
        }
        let mut ids: Vec<DeviceId> = self
            .slots
            .iter()
            .filter(|(_, s)| self.is_rentable(s))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        if ids.is_empty() {
            return Err(CloudError::CapacityExhausted);
        }
        // A device swap needs somewhere to swap to; with one free device
        // the allocator has no choice and the fault cannot fire.
        let mut pick = 0;
        if ids.len() > 1 {
            let forced_swap = self.take_pending(FaultKind::DeviceSwap);
            if forced_swap
                || self
                    .fault_state
                    .draw(&self.fault_plan, FaultKind::DeviceSwap, 1.0)
            {
                pick = 1;
                let record = FaultRecord {
                    at: self.now,
                    kind: FaultKind::DeviceSwap,
                    device: Some(ids[1]),
                    session_id: None,
                    scheduled: forced_swap,
                };
                note_fault(&self.recorder, &record);
                self.ledger.record_fault(record);
            }
        }
        let id = ids[pick];
        let session = Session::new(self.next_session, tenant.clone(), id);
        self.next_session += 1;
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.state = SlotState::Rented {
                session_id: session.id(),
            };
        }
        if let Some(r) = &self.recorder {
            r.event(
                CampaignEvent::new(EventKind::SessionAcquired, self.now.value())
                    .value(f64::from(id.0))
                    .detail(tenant.as_str()),
            );
            r.incr("cloud.sessions_acquired", 1);
        }
        self.ledger.record_rent(id, session.id(), tenant, self.now);
        Ok(session)
    }

    /// Consumes one pending scheduled rent-time fault of `kind`, if any.
    fn take_pending(&mut self, kind: FaultKind) -> bool {
        match self.pending_rent_faults.iter().position(|&k| k == kind) {
            Some(i) => {
                self.pending_rent_faults.remove(i);
                true
            }
            None => false,
        }
    }

    /// The flash attack: leases *every* rentable device at once, so a
    /// device released by the victim afterwards must come back through
    /// the attacker's hands (Assumption 2).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::CapacityExhausted`] if nothing is rentable,
    /// or [`CloudError::TransientCapacity`] if an injected rent failure
    /// stopped the flood before it captured anything (retry in that case;
    /// a partial flood is returned as a success).
    pub fn rent_all(&mut self, tenant: TenantId) -> Result<Vec<Session>, CloudError> {
        let mut sessions = Vec::new();
        loop {
            match self.rent(tenant.clone()) {
                Ok(s) => sessions.push(s),
                Err(e) => {
                    if sessions.is_empty() {
                        return Err(e);
                    }
                    break;
                }
            }
        }
        Ok(sessions)
    }

    /// Releases a lease: the device is **scrubbed** (all digital state
    /// cleared — the AWS guarantee) and returned to the pool, subject to
    /// quarantine.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::SessionRevoked`] if the session no longer
    /// owns its device.
    pub fn release(&mut self, session: Session) -> Result<(), CloudError> {
        let now = self.now;
        let slot = self.owned_slot_mut(&session)?;
        slot.device.wipe();
        slot.state = SlotState::Free {
            released_at: Some(now),
        };
        if let Some(r) = &self.recorder {
            r.event(
                CampaignEvent::new(EventKind::SessionReleased, now.value())
                    .value(f64::from(session.device_id().0)),
            );
            r.incr("cloud.sessions_released", 1);
        }
        self.ledger.record_release(session.id(), now);
        Ok(())
    }

    /// The provider's allocation ledger (oldest record first).
    #[must_use]
    pub fn ledger(&self) -> &RentalLedger {
        &self.ledger
    }

    /// Loads a tenant's own design onto the session's device, enforcing
    /// the platform DRC.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::DesignRejected`] for DRC violations (this is
    /// what stops ring-oscillator sensors), [`CloudError::SessionRevoked`]
    /// for a stale session, or a fabric error from loading.
    pub fn load_design(&mut self, session: &Session, design: Design) -> Result<(), CloudError> {
        let violations = check_design(&design, POWER_LIMIT_WATTS);
        if !violations.is_empty() {
            return Err(CloudError::DesignRejected(violations));
        }
        let slot = self.owned_slot_mut(session)?;
        slot.device.load_design(design)?;
        Ok(())
    }

    /// Loads a marketplace AFI onto the session's device. The renter never
    /// sees the design internals; the platform moves the sealed image.
    ///
    /// # Errors
    ///
    /// As [`load_design`](Self::load_design), plus
    /// [`CloudError::UnknownAfi`].
    pub fn load_afi(&mut self, session: &Session, afi: AfiId) -> Result<(), CloudError> {
        // The catalog holds binaries: disassemble against the session's
        // device (a bitstream built for an incompatible grid fails here),
        // then re-run the rule checks — publishers can lie.
        let bitstream = self.marketplace.get(afi)?.bitstream_for_loading().clone();
        let device = self.device(session)?;
        let design = bitstream.disassemble(|id| device.wire_segment(id))?;
        self.load_design(session, design)
    }

    /// Unloads the session's design (the tenant keeps running the
    /// instance).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::SessionRevoked`] for a stale session.
    pub fn unload(&mut self, session: &Session) -> Result<Option<Design>, CloudError> {
        let slot = self.owned_slot_mut(session)?;
        Ok(slot.device.unload_design())
    }

    /// Mutable access to the design loaded under a session (a tenant
    /// changing runtime-held values, e.g. loading a key at runtime).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::SessionRevoked`] for a stale session.
    pub fn loaded_design_mut(
        &mut self,
        session: &Session,
    ) -> Result<Option<&mut Design>, CloudError> {
        let slot = self.owned_slot_mut(session)?;
        Ok(slot.device.loaded_design_mut())
    }

    /// Advances global time: every rented device runs its loaded design;
    /// every idle device relaxes.
    ///
    /// Under a hostile [`FaultPlan`] this is also where per-device-hour
    /// faults fire. Devices are visited in id order so the fault stream is
    /// independent of hash-map iteration. Thermal transients perturb a
    /// device's ambient *during* the step; preemptions and spurious scrubs
    /// are decided *after* the step's physics, so a tenant who recovers
    /// before the next step loses no conditioning time — the property the
    /// resilience proptests pin down.
    pub fn advance_time(&mut self, dt: Hours) {
        if self.fault_plan.is_benign() {
            for slot in self.slots.values_mut() {
                slot.device.run_for(dt);
            }
            self.now += dt;
            self.note_cache_activity();
            return;
        }
        let end = self.now + dt;
        // Scheduled faults due within this step: session-level kinds are
        // applied to the lowest-id rented devices below; rent-time kinds
        // arm a pending fault the next `rent` call consumes.
        let mut forced = [0usize; 3]; // preemption, scrub, thermal
        for fault in self.fault_state.due_scheduled(&self.fault_plan, end) {
            match fault.kind {
                FaultKind::Preemption => forced[0] += 1,
                FaultKind::SpuriousScrub => forced[1] += 1,
                FaultKind::ThermalTransient => forced[2] += 1,
                FaultKind::RentFailure | FaultKind::DeviceSwap => {
                    self.pending_rent_faults.push(fault.kind);
                }
            }
        }
        let mut ids: Vec<DeviceId> = self.slots.keys().copied().collect();
        ids.sort_unstable();
        let scale = dt.value();
        for id in ids {
            let Some(slot) = self.slots.get_mut(&id) else {
                continue;
            };
            let rented_session = match slot.state {
                SlotState::Rented { session_id } => Some(session_id),
                SlotState::Free { .. } => None,
            };
            // Thermal transient: this step runs with a hotter ambient.
            let mut thermal_scheduled = false;
            let thermal = rented_session.is_some() && {
                if forced[2] > 0 {
                    forced[2] -= 1;
                    thermal_scheduled = true;
                    true
                } else {
                    self.fault_state
                        .draw(&self.fault_plan, FaultKind::ThermalTransient, scale)
                }
            };
            if thermal {
                let original = *slot.device.thermal();
                let hot = ThermalModel::new(
                    Celsius::new(original.ambient().value() + self.fault_plan.thermal_amplitude_c),
                    original.theta_ja(),
                )
                .with_time_constant_hours(original.time_constant_hours());
                slot.device.set_thermal(hot);
                slot.device.run_for(dt);
                slot.device.set_thermal(original);
                let record = FaultRecord {
                    at: end,
                    kind: FaultKind::ThermalTransient,
                    device: Some(id),
                    session_id: rented_session,
                    scheduled: thermal_scheduled,
                };
                note_fault(&self.recorder, &record);
                self.ledger.record_fault(record);
            } else {
                slot.device.run_for(dt);
            }
            // End-of-step session faults: the step's conditioning already
            // happened, so these are trajectory-preserving when repaired.
            let Some(session_id) = rented_session else {
                continue;
            };
            let preempt_scheduled = forced[0] > 0;
            if preempt_scheduled
                || self
                    .fault_state
                    .draw(&self.fault_plan, FaultKind::Preemption, scale)
            {
                if preempt_scheduled {
                    forced[0] -= 1;
                }
                slot.device.wipe();
                slot.state = SlotState::Free {
                    released_at: Some(end),
                };
                self.ledger.record_release(session_id, end);
                let record = FaultRecord {
                    at: end,
                    kind: FaultKind::Preemption,
                    device: Some(id),
                    session_id: Some(session_id),
                    scheduled: preempt_scheduled,
                };
                note_fault(&self.recorder, &record);
                self.ledger.record_fault(record);
                continue;
            }
            let scrub_scheduled = forced[1] > 0;
            if scrub_scheduled
                || self
                    .fault_state
                    .draw(&self.fault_plan, FaultKind::SpuriousScrub, scale)
            {
                if scrub_scheduled {
                    forced[1] -= 1;
                }
                slot.device.wipe();
                let record = FaultRecord {
                    at: end,
                    kind: FaultKind::SpuriousScrub,
                    device: Some(id),
                    session_id: Some(session_id),
                    scheduled: scrub_scheduled,
                };
                note_fault(&self.recorder, &record);
                self.ledger.record_fault(record);
            }
        }
        self.now = end;
        self.note_cache_activity();
    }

    /// Read access to the physical device behind a session.
    ///
    /// This is the simulation boundary for on-chip sensors: a real tenant
    /// interacts with the silicon only through their loaded design (the
    /// TDC), which is exactly what the `tdc` crate models against this
    /// reference.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::SessionRevoked`] for a stale session.
    pub fn device(&self, session: &Session) -> Result<&FpgaDevice, CloudError> {
        let slot = self
            .slots
            .get(&session.device_id())
            .ok_or(CloudError::UnknownDevice(session.device_id()))?;
        match slot.state {
            SlotState::Rented { session_id } if session_id == session.id() => Ok(&slot.device),
            _ => Err(CloudError::SessionRevoked),
        }
    }

    /// Omniscient device access by id — for experiment harnesses and
    /// tests, *not* part of the tenant-facing surface.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownDevice`] for an unknown id.
    pub fn device_by_id(&self, id: DeviceId) -> Result<&FpgaDevice, CloudError> {
        self.slots
            .get(&id)
            .map(|s| &s.device)
            .ok_or(CloudError::UnknownDevice(id))
    }

    fn owned_slot_mut(&mut self, session: &Session) -> Result<&mut Slot, CloudError> {
        let slot = self
            .slots
            .get_mut(&session.device_id())
            .ok_or(CloudError::UnknownDevice(session.device_id()))?;
        match slot.state {
            SlotState::Rented { session_id } if session_id == session.id() => Ok(slot),
            _ => Err(CloudError::SessionRevoked),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_fabric::{CellKind, NetActivity};

    fn provider(n: u32) -> Provider {
        Provider::new(ProviderConfig::aws_f1_like(n, 7))
    }

    #[test]
    fn rent_release_cycle_scrubs_digital_state() {
        let mut p = provider(2);
        let t = TenantId::new("victim");
        let s = p.rent(t).unwrap();
        p.load_design(&s, Design::new("secret")).unwrap();
        let id = s.device_id();
        p.release(s).unwrap();
        assert!(p.device_by_id(id).unwrap().loaded_design().is_none());
    }

    #[test]
    fn capacity_exhaustion() {
        let mut p = provider(2);
        let a = p.rent(TenantId::new("a")).unwrap();
        let _b = p.rent(TenantId::new("b")).unwrap();
        assert!(matches!(
            p.rent(TenantId::new("c")),
            Err(CloudError::CapacityExhausted)
        ));
        p.release(a).unwrap();
        assert!(p.rent(TenantId::new("c")).is_ok());
    }

    #[test]
    fn flash_attack_recaptures_victim_device() {
        let mut p = provider(4);
        let victim = p.rent(TenantId::new("victim")).unwrap();
        let victim_device = victim.device_id();
        // Attacker grabs the rest of the region.
        let held = p.rent_all(TenantId::new("attacker")).unwrap();
        assert_eq!(held.len(), 3);
        // Victim leaves; the only free device is theirs.
        p.release(victim).unwrap();
        let s = p.rent(TenantId::new("attacker")).unwrap();
        assert_eq!(s.device_id(), victim_device);
    }

    #[test]
    fn ring_oscillator_design_is_rejected() {
        let mut p = provider(1);
        let s = p.rent(TenantId::new("attacker")).unwrap();
        let mut ro = Design::new("ro");
        let n = ro.add_net("loop", NetActivity::Dynamic, None);
        ro.add_cell("inv", CellKind::Lut, None, vec![n], Some(n));
        assert!(matches!(
            p.load_design(&s, ro),
            Err(CloudError::DesignRejected(_))
        ));
    }

    #[test]
    fn over_power_design_is_rejected() {
        let mut p = provider(1);
        let s = p.rent(TenantId::new("t")).unwrap();
        let mut hot = Design::new("hot");
        hot.set_power_watts(100.0);
        assert!(matches!(
            p.load_design(&s, hot),
            Err(CloudError::DesignRejected(_))
        ));
    }

    #[test]
    fn stale_session_is_revoked() {
        let mut p = provider(1);
        let s = p.rent(TenantId::new("t")).unwrap();
        let stale = s.clone();
        p.release(s).unwrap();
        assert!(matches!(p.device(&stale), Err(CloudError::SessionRevoked)));
        assert!(matches!(
            p.load_design(&stale, Design::new("x")),
            Err(CloudError::SessionRevoked)
        ));
    }

    #[test]
    fn quarantine_withholds_returned_devices() {
        let cfg = ProviderConfig::aws_f1_like(1, 3).with_quarantine(Hours::new(72.0));
        let mut p = Provider::new(cfg);
        let s = p.rent(TenantId::new("victim")).unwrap();
        p.release(s).unwrap();
        assert!(matches!(
            p.rent(TenantId::new("attacker")),
            Err(CloudError::CapacityExhausted)
        ));
        p.advance_time(Hours::new(73.0));
        assert!(p.rent(TenantId::new("attacker")).is_ok());
    }

    #[test]
    fn marketplace_afi_loads_without_exposing_design() {
        let mut p = provider(1);
        let vendor = TenantId::new("vendor");
        let afi = p.marketplace_mut().publish(vendor, Design::new("ip"), true);
        let s = p.rent(TenantId::new("renter")).unwrap();
        p.load_afi(&s, afi).unwrap();
        assert!(p.device(&s).unwrap().loaded_design().is_some());
        // The renter still cannot inspect the AFI source.
        assert!(p
            .marketplace()
            .get(afi)
            .unwrap()
            .inspect(&TenantId::new("renter"))
            .is_err());
    }

    #[test]
    fn advance_time_moves_the_clock_everywhere() {
        let mut p = provider(2);
        p.advance_time(Hours::new(5.0));
        assert_eq!(p.now(), Hours::new(5.0));
        assert_eq!(
            p.device_by_id(DeviceId(0)).unwrap().clock(),
            Hours::new(5.0)
        );
        assert_eq!(
            p.device_by_id(DeviceId(1)).unwrap().clock(),
            Hours::new(5.0)
        );
    }

    #[test]
    fn ledger_tracks_the_attack_timeline() {
        let mut p = provider(1);
        let victim = p.rent(TenantId::new("victim")).unwrap();
        let victim_session = victim.id();
        let device = victim.device_id();
        p.advance_time(Hours::new(150.0));
        p.release(victim).unwrap();
        let attacker = p.rent(TenantId::new("attacker")).unwrap();
        let prev = p
            .ledger()
            .previous_tenant(device, attacker.id())
            .expect("victim lease recorded");
        assert_eq!(prev.session_id, victim_session);
        assert_eq!(prev.tenant.as_str(), "victim");
        assert_eq!(prev.duration(), Some(Hours::new(150.0)));
        assert_eq!(p.ledger().device_utilization(device), Hours::new(150.0));
    }

    #[test]
    fn benign_fault_plan_changes_nothing() {
        let mut faulty = provider(3);
        faulty.set_fault_plan(FaultPlan::none());
        let mut plain = provider(3);
        let s1 = faulty.rent(TenantId::new("t")).unwrap();
        let s2 = plain.rent(TenantId::new("t")).unwrap();
        assert_eq!(s1.device_id(), s2.device_id());
        faulty.advance_time(Hours::new(10.0));
        plain.advance_time(Hours::new(10.0));
        assert_eq!(
            faulty.device_by_id(DeviceId(0)).unwrap().die_temperature(),
            plain.device_by_id(DeviceId(0)).unwrap().die_temperature()
        );
        assert!(faulty.ledger().faults().is_empty());
    }

    #[test]
    fn injected_rent_failures_are_transient_and_recorded() {
        let mut p = provider(2);
        let mut plan = FaultPlan::none();
        plan.seed = 9;
        plan.rent_failure_rate = 1.0;
        p.set_fault_plan(plan);
        let err = p.rent(TenantId::new("t")).unwrap_err();
        assert_eq!(err, CloudError::TransientCapacity);
        assert!(err.is_transient());
        assert_eq!(p.ledger().fault_count(FaultKind::RentFailure), 1);
    }

    #[test]
    fn device_swap_hands_back_second_choice() {
        let mut p = provider(3);
        let mut plan = FaultPlan::none();
        plan.seed = 4;
        plan.device_swap_rate = 1.0;
        p.set_fault_plan(plan);
        let s = p.rent(TenantId::new("t")).unwrap();
        assert_eq!(s.device_id(), DeviceId(1), "lowest id skipped");
        assert_eq!(p.ledger().fault_count(FaultKind::DeviceSwap), 1);
    }

    #[test]
    fn swap_cannot_fire_with_one_free_device() {
        let mut p = provider(1);
        let mut plan = FaultPlan::none();
        plan.seed = 4;
        plan.device_swap_rate = 1.0;
        p.set_fault_plan(plan);
        let s = p.rent(TenantId::new("t")).unwrap();
        assert_eq!(s.device_id(), DeviceId(0));
        assert!(p.ledger().faults().is_empty());
    }

    #[test]
    fn scheduled_preemption_revokes_the_session_after_the_step() {
        let mut p = provider(2);
        p.set_fault_plan(FaultPlan::none().with_scheduled(Hours::new(5.0), FaultKind::Preemption));
        let s = p.rent(TenantId::new("victim")).unwrap();
        p.advance_time(Hours::new(4.0));
        assert!(p.device(&s).is_ok(), "not due yet");
        p.advance_time(Hours::new(2.0));
        assert!(matches!(p.device(&s), Err(CloudError::SessionRevoked)));
        let faults = p.ledger().faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Preemption);
        assert!(faults[0].scheduled);
        assert_eq!(faults[0].session_id, Some(s.id()));
        // The lease shows as released in the rental history too.
        assert_eq!(p.ledger().records()[0].released_at, Some(Hours::new(6.0)));
    }

    #[test]
    fn preemption_preserves_the_steps_conditioning() {
        // A preempted step still ages the design's wires for the full dt:
        // the fault is decided after the physics.
        let mut hostile = provider(1);
        hostile.set_fault_plan(
            FaultPlan::none().with_scheduled(Hours::new(0.5), FaultKind::Preemption),
        );
        let mut benign = provider(1);
        for p in [&mut hostile, &mut benign] {
            let s = p.rent(TenantId::new("t")).unwrap();
            p.load_design(&s, Design::new("d")).unwrap();
            p.advance_time(Hours::new(10.0));
        }
        let a = hostile.device_by_id(DeviceId(0)).unwrap();
        let b = benign.device_by_id(DeviceId(0)).unwrap();
        assert_eq!(a.clock(), b.clock());
        assert_eq!(a.aged_wire_count(), b.aged_wire_count());
    }

    #[test]
    fn spurious_scrub_wipes_but_keeps_the_lease() {
        let mut p = provider(1);
        p.set_fault_plan(
            FaultPlan::none().with_scheduled(Hours::new(1.0), FaultKind::SpuriousScrub),
        );
        let s = p.rent(TenantId::new("t")).unwrap();
        p.load_design(&s, Design::new("d")).unwrap();
        p.advance_time(Hours::new(2.0));
        assert!(p.device(&s).is_ok(), "lease survives");
        assert!(
            p.device(&s).unwrap().loaded_design().is_none(),
            "design gone"
        );
        assert_eq!(p.ledger().fault_count(FaultKind::SpuriousScrub), 1);
    }

    #[test]
    fn scheduled_rent_failure_arms_on_advance_and_fires_on_rent() {
        let mut p = provider(2);
        p.set_fault_plan(FaultPlan::none().with_scheduled(Hours::new(1.0), FaultKind::RentFailure));
        p.advance_time(Hours::new(2.0));
        assert_eq!(
            p.rent(TenantId::new("t")).unwrap_err(),
            CloudError::TransientCapacity
        );
        // One-shot: the retry succeeds.
        assert!(p.rent(TenantId::new("t")).is_ok());
    }

    #[test]
    fn thermal_transient_heats_exactly_one_step() {
        let mut p = provider(1);
        let mut plan =
            FaultPlan::none().with_scheduled(Hours::new(1.5), FaultKind::ThermalTransient);
        plan.thermal_amplitude_c = 10.0;
        p.set_fault_plan(plan);
        let s = p.rent(TenantId::new("t")).unwrap();
        p.load_design(&s, Design::new("idle")).unwrap();
        // Settle to the design's own steady state before the fault fires.
        p.advance_time(Hours::new(1.0));
        let baseline = p.device(&s).unwrap().die_temperature();
        p.advance_time(Hours::new(1.0));
        let hot = p.device(&s).unwrap().die_temperature();
        assert!(hot.value() > baseline.value() + 8.0, "{baseline} -> {hot}");
        // The thermal model itself was restored: the next step cools back.
        p.advance_time(Hours::new(1.0));
        let cooled = p.device(&s).unwrap().die_temperature();
        assert!(cooled.value() < baseline.value() + 1.0, "{cooled}");
        assert_eq!(p.ledger().fault_count(FaultKind::ThermalTransient), 1);
    }

    #[test]
    fn probabilistic_faults_replay_identically() {
        let run = || {
            let mut p = provider(4);
            p.set_fault_plan(FaultPlan::hostile(77, 0.2));
            let mut events = Vec::new();
            let mut session = None;
            for _ in 0..30 {
                if session.is_none() {
                    match p.rent(TenantId::new("t")) {
                        Ok(s) => session = Some(s),
                        Err(e) => events.push(format!("rent-err:{e}")),
                    }
                }
                p.advance_time(Hours::new(1.0));
                if let Some(s) = &session {
                    if p.device(s).is_err() {
                        events.push(format!("lost@{}", p.now().value()));
                        session = None;
                    }
                }
            }
            let faults: Vec<String> = p
                .ledger()
                .faults()
                .iter()
                .map(|f| format!("{}@{}", f.kind, f.at.value()))
                .collect();
            (events, faults)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorder_sees_sessions_faults_and_cache_activity() {
        let mut p = provider(2);
        let recorder = Arc::new(Recorder::new());
        p.set_recorder(Some(recorder.clone()));
        p.set_fault_plan(FaultPlan::none().with_scheduled(Hours::new(1.0), FaultKind::RentFailure));
        let s = p.rent(TenantId::new("attacker")).unwrap();
        p.load_design(&s, Design::new("d")).unwrap();
        p.advance_time(Hours::new(2.0));
        assert_eq!(
            p.rent(TenantId::new("late")).unwrap_err(),
            CloudError::TransientCapacity
        );
        p.release(s).unwrap();
        assert_eq!(recorder.counter("cloud.sessions_acquired"), 1);
        assert_eq!(recorder.counter("cloud.sessions_released"), 1);
        assert_eq!(recorder.counter("cloud.faults.rent_failure"), 1);
        assert!(
            recorder.counter("cache.misses") > 0,
            "first step derives kernels"
        );
        let kinds: Vec<EventKind> = recorder.kind_counts().into_iter().map(|(k, _)| k).collect();
        assert!(kinds.contains(&EventKind::SessionAcquired));
        assert!(kinds.contains(&EventKind::SessionReleased));
        assert!(kinds.contains(&EventKind::FaultInjected));
        assert!(kinds.contains(&EventKind::CacheMiss));
    }

    #[test]
    fn attached_recorder_never_perturbs_results() {
        let run = |observe: bool| {
            let mut p = provider(2);
            if observe {
                p.set_recorder(Some(Arc::new(Recorder::new())));
            }
            let mut plan = FaultPlan::none();
            plan.seed = 13;
            plan.thermal_transient_rate_per_hour = 0.1;
            plan.spurious_scrub_rate_per_hour = 0.05;
            plan.thermal_amplitude_c = 8.0;
            p.set_fault_plan(plan);
            let s = p.rent(TenantId::new("t")).unwrap();
            p.load_design(&s, Design::new("d")).unwrap();
            p.advance_time(Hours::new(20.0));
            (
                p.device_by_id(DeviceId(0)).unwrap().die_temperature(),
                p.ledger().faults().len(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fleet_devices_have_distinct_ages_and_silicon() {
        let p = provider(4);
        let ages: Vec<f64> = (0..4)
            .map(|i| p.device_by_id(DeviceId(i)).unwrap().service_age().value())
            .collect();
        assert!(ages.windows(2).any(|w| (w[0] - w[1]).abs() > 1.0));
        for &a in &ages {
            assert!((2.0 * 8760.0..=4.0 * 8760.0).contains(&a));
        }
    }

    #[test]
    #[should_panic(expected = "fleet must contain devices")]
    fn an_empty_pool_is_rejected() {
        let _ = Provider::new(ProviderConfig::aws_f1_like(0, 1));
    }
}
