//! The quarantine ledger: the fleet's append-only audit trail.
//!
//! Every terminal campaign failure appends one immutable
//! [`QuarantineRecord`] naming the campaign, its device and the reason;
//! the chaos suite checks every typed failure against the ledger.

use cloud::DeviceId;

/// Why a quarantine record was appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The campaign failed three times without reaching a new hour.
    BreakerTripped,
    /// The campaign's restart budget ran out.
    RestartBudgetExhausted,
    /// The campaign's deadline budget ran out.
    DeadlineExceeded,
    /// Every stored checkpoint generation was torn.
    StoreUnrecoverable,
    /// The campaign died with a fatal, non-retryable error.
    FatalError,
    /// The scheduler violated one of its own invariants serving this
    /// slot; the slot was isolated instead of panicking the fleet.
    SchedulerInvariant,
}

impl QuarantineReason {
    /// Stable snake_case tag for reports and telemetry details.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::BreakerTripped => "breaker_tripped",
            Self::RestartBudgetExhausted => "restart_budget_exhausted",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::StoreUnrecoverable => "store_unrecoverable",
            Self::FatalError => "fatal_error",
            Self::SchedulerInvariant => "scheduler_invariant",
        }
    }
}

/// One immutable quarantine entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// The campaign being quarantined.
    pub campaign: String,
    /// The device the campaign was bound to.
    pub device: DeviceId,
    /// Supervisor tick the record was appended at.
    pub at_tick: u64,
    /// Why.
    pub reason: QuarantineReason,
    /// Consecutive failures the campaign had counted at quarantine time.
    pub consecutive_failures: u32,
}

/// Append-only quarantine audit trail.
#[derive(Debug, Clone, Default)]
pub struct QuarantineLedger {
    records: Vec<QuarantineRecord>,
}

impl QuarantineLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record. Records are never mutated or removed.
    pub fn push(&mut self, record: QuarantineRecord) {
        self.records.push(record);
    }

    /// All records, in append order.
    #[must_use]
    pub fn records(&self) -> &[QuarantineRecord] {
        &self.records
    }

    /// The records naming `campaign`.
    pub fn for_campaign<'a>(
        &'a self,
        campaign: &'a str,
    ) -> impl Iterator<Item = &'a QuarantineRecord> {
        self.records.iter().filter(move |r| r.campaign == campaign)
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ledger is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_append_only_and_filterable() {
        let mut ledger = QuarantineLedger::new();
        assert!(ledger.is_empty());
        ledger.push(QuarantineRecord {
            campaign: "c0".to_owned(),
            device: DeviceId(1),
            at_tick: 10,
            reason: QuarantineReason::BreakerTripped,
            consecutive_failures: 3,
        });
        ledger.push(QuarantineRecord {
            campaign: "c1".to_owned(),
            device: DeviceId(2),
            at_tick: 11,
            reason: QuarantineReason::StoreUnrecoverable,
            consecutive_failures: 0,
        });
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.for_campaign("c0").count(), 1);
        assert_eq!(
            ledger.for_campaign("c1").next().unwrap().reason.tag(),
            "store_unrecoverable"
        );
    }
}
