//! The provider's rental ledger.
//!
//! Providers keep allocation records; attackers keep their own. The
//! paper's Assumption 2 (reacquiring the victim's board) rests on being
//! able to correlate *when* a device was returned with *when* you got
//! yours — cloud-cartography work the paper cites. The ledger records
//! every lease and release so experiments can reason about those
//! timelines, and so the quarantine mitigation has an auditable trail.

use bti_physics::Hours;
use serde::{Deserialize, Serialize};

use crate::{DeviceId, FaultKind, TenantId};

/// One allocation event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RentalRecord {
    /// The device concerned.
    pub device: DeviceId,
    /// The session id of the lease.
    pub session_id: u64,
    /// Who held it.
    pub tenant: TenantId,
    /// When the lease began (provider clock).
    pub rented_at: Hours,
    /// When it was released; `None` while active.
    pub released_at: Option<Hours>,
}

impl RentalRecord {
    /// Lease duration, if the lease has ended.
    #[must_use]
    pub fn duration(&self) -> Option<Hours> {
        self.released_at.map(|end| end - self.rented_at)
    }
}

/// One injected fault, as witnessed by the provider.
///
/// Hostile-cloud experiments need an auditable trail of exactly what
/// adversity a campaign survived; the provider records every injected
/// fault here alongside the rental history it perturbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Provider time at which the fault took effect.
    pub at: Hours,
    /// What kind of fault fired.
    pub kind: FaultKind,
    /// The device concerned, when the fault targets one.
    pub device: Option<DeviceId>,
    /// The session concerned, when the fault hit a live lease.
    pub session_id: Option<u64>,
    /// `true` for an explicitly scheduled fault, `false` for a
    /// probabilistic draw.
    pub scheduled: bool,
}

/// Append-only allocation history.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RentalLedger {
    records: Vec<RentalRecord>,
    faults: Vec<FaultRecord>,
}

impl RentalLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a new lease.
    pub fn record_rent(&mut self, device: DeviceId, session_id: u64, tenant: TenantId, now: Hours) {
        self.records.push(RentalRecord {
            device,
            session_id,
            tenant,
            rented_at: now,
            released_at: None,
        });
    }

    /// Marks a lease as released.
    pub fn record_release(&mut self, session_id: u64, now: Hours) {
        if let Some(r) = self
            .records
            .iter_mut()
            .rev()
            .find(|r| r.session_id == session_id && r.released_at.is_none())
        {
            r.released_at = Some(now);
        }
    }

    /// Records an injected fault.
    pub fn record_fault(&mut self, record: FaultRecord) {
        self.faults.push(record);
    }

    /// All injected faults, oldest first.
    #[must_use]
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// Number of injected faults of one kind.
    #[must_use]
    pub fn fault_count(&self, kind: FaultKind) -> usize {
        self.faults.iter().filter(|f| f.kind == kind).count()
    }

    /// All records, oldest first.
    #[must_use]
    pub fn records(&self) -> &[RentalRecord] {
        &self.records
    }

    /// The history of one device, oldest first.
    pub fn device_history(&self, device: DeviceId) -> impl Iterator<Item = &RentalRecord> {
        self.records.iter().filter(move |r| r.device == device)
    }

    /// The tenant who held `device` immediately before `session_id` — the
    /// record the pentimento attacker is, physically, reading.
    #[must_use]
    pub fn previous_tenant(&self, device: DeviceId, session_id: u64) -> Option<&RentalRecord> {
        let mine = self
            .records
            .iter()
            .find(|r| r.session_id == session_id && r.device == device)?;
        self.records
            .iter()
            .filter(|r| {
                r.device == device
                    && r.session_id != session_id
                    && r.released_at.is_some_and(|end| end <= mine.rented_at)
            })
            .max_by(|a, b| {
                // Both are Some by the filter above; compare totally so a
                // NaN timestamp can never panic an attack harness.
                let a = a.released_at.map_or(f64::NEG_INFINITY, |t| t.value());
                let b = b.released_at.map_or(f64::NEG_INFINITY, |t| t.value());
                a.total_cmp(&b)
            })
    }

    /// Total hours the device has been leased (excluding open leases).
    #[must_use]
    pub fn device_utilization(&self, device: DeviceId) -> Hours {
        self.device_history(device)
            .filter_map(RentalRecord::duration)
            .fold(Hours::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> RentalLedger {
        let mut l = RentalLedger::new();
        l.record_rent(DeviceId(0), 1, TenantId::new("victim"), Hours::new(0.0));
        l.record_release(1, Hours::new(200.0));
        l.record_rent(DeviceId(0), 2, TenantId::new("attacker"), Hours::new(200.0));
        l.record_rent(DeviceId(1), 3, TenantId::new("bystander"), Hours::new(10.0));
        l
    }

    #[test]
    fn previous_tenant_is_the_victim() {
        let l = ledger();
        let prev = l.previous_tenant(DeviceId(0), 2).expect("history exists");
        assert_eq!(prev.tenant.as_str(), "victim");
        assert_eq!(prev.duration(), Some(Hours::new(200.0)));
    }

    #[test]
    fn no_previous_tenant_for_first_lease() {
        let l = ledger();
        assert!(l.previous_tenant(DeviceId(1), 3).is_none());
        assert!(l.previous_tenant(DeviceId(9), 99).is_none());
    }

    #[test]
    fn utilization_counts_closed_leases_only() {
        let l = ledger();
        assert_eq!(l.device_utilization(DeviceId(0)), Hours::new(200.0));
        assert_eq!(l.device_utilization(DeviceId(1)), Hours::ZERO);
    }

    #[test]
    fn fault_records_accumulate_and_filter() {
        let mut l = ledger();
        l.record_fault(FaultRecord {
            at: Hours::new(50.0),
            kind: FaultKind::Preemption,
            device: Some(DeviceId(0)),
            session_id: Some(1),
            scheduled: false,
        });
        l.record_fault(FaultRecord {
            at: Hours::new(60.0),
            kind: FaultKind::RentFailure,
            device: None,
            session_id: None,
            scheduled: true,
        });
        assert_eq!(l.faults().len(), 2);
        assert_eq!(l.fault_count(FaultKind::Preemption), 1);
        assert_eq!(l.fault_count(FaultKind::SpuriousScrub), 0);
        assert!(l.faults()[1].scheduled);
    }

    #[test]
    fn device_history_filters() {
        let l = ledger();
        assert_eq!(l.device_history(DeviceId(0)).count(), 2);
        assert_eq!(l.device_history(DeviceId(1)).count(), 1);
        assert_eq!(l.records().len(), 3);
    }
}
