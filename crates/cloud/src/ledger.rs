//! The provider's rental ledger.
//!
//! Providers keep allocation records; attackers keep their own. The
//! paper's Assumption 2 (reacquiring the victim's board) rests on being
//! able to correlate *when* a device was returned with *when* you got
//! yours — cloud-cartography work the paper cites. The ledger records
//! every lease and release so experiments can reason about those
//! timelines, and so the quarantine mitigation has an auditable trail.

use std::sync::Mutex;

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

/// Default stripe count for [`FaultFunnel`] — comfortably above the
/// rayon lane widths the schedulers run at, so concurrent recorders
/// rarely contend on the same lock.
const DEFAULT_FAULT_STRIPES: usize = 8;

/// A thread-safe, **lock-striped** funnel for fault records produced on
/// worker threads.
///
/// [`RentalLedger`] is plain serializable state with `&mut` recording —
/// the right shape for checkpoints, the wrong one for a parallel sweep.
/// Workers `record` into a funnel through `&self`; instead of one global
/// mutex (the single drain-point bottleneck the sharded fleet scheduler
/// would serialize on), records hash by *content* onto one of N
/// independently locked stripes. The owner then
/// [`drain_into`](Self::drain_into) the ledger at a serial point: the
/// stripes are drained in index order, concatenated, and sorted by the
/// deterministic campaign-order comparator (time, device, session,
/// kind) — so the merged ledger is byte-identical no matter how many
/// stripes exist or which thread recorded first.
#[derive(Debug)]
pub struct FaultFunnel {
    stripes: Vec<Mutex<Vec<FaultRecord>>>,
}

impl Default for FaultFunnel {
    fn default() -> Self {
        Self::with_stripes(DEFAULT_FAULT_STRIPES)
    }
}

impl FaultFunnel {
    /// Creates an empty funnel with the default stripe count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty funnel with `stripes` independent locks
    /// (clamped to at least 1). Stripe count never affects the drained
    /// ledger — only contention.
    #[must_use]
    pub fn with_stripes(stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The stripe a record hashes onto. Pure function of the record's
    /// content (never of thread identity or arrival order), so the
    /// assignment replays identically across runs — though nothing
    /// observable depends on it: `drain_into` re-sorts globally.
    fn stripe_for(&self, record: &FaultRecord) -> usize {
        let mut x = record.at.value().to_bits();
        x ^= u64::from(fault_rank(record.kind)) << 56;
        x ^= u64::from(record.device.map_or(u32::MAX, |d| d.0));
        x ^= record.session_id.unwrap_or(u64::MAX).rotate_left(17);
        // SplitMix64 finalizer: avalanche the mixed content bits.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % self.stripes.len() as u64) as usize
    }

    /// Locks one stripe, recovering from poison. A poisoned mutex means
    /// some worker panicked mid-record; the buffered records are plain
    /// data that are never left half-written (a `Vec::push` either
    /// happened or did not), so the audit trail keeps accepting and
    /// serving records instead of cascading the panic — the same policy
    /// as `obs::Recorder`. Poison is per-stripe: a dead worker cannot
    /// even block the other stripes.
    fn lock(&self, stripe: usize) -> std::sync::MutexGuard<'_, Vec<FaultRecord>> {
        self.stripes[stripe]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a fault from any thread.
    pub fn record(&self, record: FaultRecord) {
        let stripe = self.stripe_for(&record);
        self.lock(stripe).push(record);
    }

    /// Number of records waiting to be drained, across all stripes.
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.stripes.len()).map(|s| self.lock(s).len()).sum()
    }

    /// Whether the funnel holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves every buffered record into `ledger`, in a deterministic
    /// order independent of stripe layout and of which thread recorded
    /// first: stripes drain in index order, then the concatenation is
    /// sorted by the campaign-order comparator.
    pub fn drain_into(&self, ledger: &mut RentalLedger) {
        let mut pending = Vec::new();
        for stripe in 0..self.stripes.len() {
            pending.append(&mut std::mem::take(&mut *self.lock(stripe)));
        }
        pending.sort_by(|a, b| {
            a.at.value()
                .total_cmp(&b.at.value())
                .then_with(|| a.device.map(|d| d.0).cmp(&b.device.map(|d| d.0)))
                .then_with(|| a.session_id.cmp(&b.session_id))
                .then_with(|| fault_rank(a.kind).cmp(&fault_rank(b.kind)))
        });
        for record in pending {
            ledger.record_fault(record);
        }
    }
}

/// A total order over fault kinds for deterministic tie-breaking.
fn fault_rank(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::RentFailure => 0,
        FaultKind::Preemption => 1,
        FaultKind::DeviceSwap => 2,
        FaultKind::SpuriousScrub => 3,
        FaultKind::ThermalTransient => 4,
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

    fn fault_at(at: f64, kind: FaultKind, device: u32) -> FaultRecord {
        FaultRecord {
            at: Hours::new(at),
            kind,
            device: Some(DeviceId(device)),
            session_id: Some(u64::from(device)),
            scheduled: false,
        }
    }

    #[test]
    fn funnel_drains_in_deterministic_order_regardless_of_arrival() {
        // Two arrival orders for the same set of records...
        let forward = FaultFunnel::new();
        let backward = FaultFunnel::new();
        let records = [
            fault_at(3.0, FaultKind::Preemption, 0),
            fault_at(1.0, FaultKind::SpuriousScrub, 2),
            fault_at(1.0, FaultKind::RentFailure, 1),
            fault_at(1.0, FaultKind::RentFailure, 0),
        ];
        for r in &records {
            forward.record(r.clone());
        }
        for r in records.iter().rev() {
            backward.record(r.clone());
        }
        assert_eq!(forward.len(), 4);
        assert!(!forward.is_empty());

        // ...drain into byte-identical ledgers.
        let mut a = RentalLedger::new();
        let mut b = RentalLedger::new();
        forward.drain_into(&mut a);
        backward.drain_into(&mut b);
        assert_eq!(a, b);
        assert!(forward.is_empty(), "drain must empty the funnel");

        let hours: Vec<f64> = a.faults().iter().map(|f| f.at.value()).collect();
        assert_eq!(hours, vec![1.0, 1.0, 1.0, 3.0]);
        assert_eq!(a.faults()[0].device, Some(DeviceId(0)));
        assert_eq!(a.faults()[1].device, Some(DeviceId(1)));
    }

    #[test]
    fn funnel_accepts_records_from_worker_threads() {
        let funnel = FaultFunnel::new();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let funnel = &funnel;
                scope.spawn(move || {
                    funnel.record(fault_at(t as f64, FaultKind::Preemption, t));
                });
            }
        });
        let mut ledger = RentalLedger::new();
        funnel.drain_into(&mut ledger);
        let hours: Vec<f64> = ledger.faults().iter().map(|f| f.at.value()).collect();
        assert_eq!(hours, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn device_history_filters() {
        let l = ledger();
        assert_eq!(l.device_history(DeviceId(0)).count(), 2);
        assert_eq!(l.device_history(DeviceId(1)).count(), 1);
        assert_eq!(l.records().len(), 3);
    }

    #[test]
    fn funnel_survives_a_poisoned_lock() {
        // A worker that panics while holding a stripe lock poisons that
        // mutex; the audit trail must keep accepting and draining records
        // afterwards instead of cascading the panic into the supervisor.
        // One stripe, so the poisoned lock is provably the one reused.
        let funnel = FaultFunnel::with_stripes(1);
        funnel.record(fault_at(1.0, FaultKind::Preemption, 0));
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = funnel.lock(0);
            panic!("worker died mid-record");
        }));
        assert!(poison.is_err(), "the panic must have fired");
        funnel.record(fault_at(2.0, FaultKind::RentFailure, 1));
        assert_eq!(funnel.len(), 2);
        let mut ledger = RentalLedger::new();
        funnel.drain_into(&mut ledger);
        assert_eq!(ledger.faults().len(), 2);
    }

    #[test]
    fn stripe_count_never_changes_the_drained_ledger() {
        // The same records, pushed from racing worker threads into
        // funnels of every stripe width, must drain into byte-identical
        // ledgers — the merge order is campaign order, not stripe order.
        let records: Vec<FaultRecord> = (0..32u32)
            .map(|i| {
                fault_at(
                    f64::from(i % 7),
                    match i % 3 {
                        0 => FaultKind::Preemption,
                        1 => FaultKind::RentFailure,
                        _ => FaultKind::SpuriousScrub,
                    },
                    i % 5,
                )
            })
            .collect();
        let drain = |stripes: usize| {
            let funnel = FaultFunnel::with_stripes(stripes);
            std::thread::scope(|scope| {
                for chunk in records.chunks(8) {
                    let funnel = &funnel;
                    scope.spawn(move || {
                        for r in chunk {
                            funnel.record(r.clone());
                        }
                    });
                }
            });
            assert_eq!(funnel.len(), records.len());
            let mut ledger = RentalLedger::new();
            funnel.drain_into(&mut ledger);
            ledger
        };
        let reference = drain(1);
        for stripes in [2, 4, 8, 13] {
            assert_eq!(drain(stripes), reference, "stripes={stripes}");
        }
    }
}
