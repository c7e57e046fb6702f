//! Per-device circuit breakers and the quarantine ledger.
//!
//! A breaker guards one `(campaign, device)` pair. Repeated failures
//! trip it **open**; an open breaker refuses restarts for a cooldown
//! measured in supervisor ticks, then transitions to **half-open** and
//! admits exactly one probe. A successful probe closes the breaker; a
//! failed one re-opens it with a fresh cooldown. Tripping appends an
//! immutable record to the [`QuarantineLedger`], the audit trail the
//! chaos suite checks every typed failure against.
//!
//! Everything here is plain deterministic state — no clocks, no
//! randomness — so breaker trajectories replay identically across runs
//! and thread widths.

use cloud::DeviceId;

/// Consecutive failures that trip a breaker open.
const FAILURE_THRESHOLD: u32 = 3;
/// Supervisor ticks an open breaker waits before admitting a probe.
const COOLDOWN_TICKS: u32 = 4;

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: requests flow.
    #[default]
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe is admitted.
    HalfOpen,
}

/// One `(campaign, device)` breaker.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_remaining: u32,
}

impl CircuitBreaker {
    /// A closed breaker with zero recorded failures.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current position.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive failures recorded since the last success.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether a request (a restart attempt) may proceed right now.
    #[must_use]
    pub fn allows(&self) -> bool {
        !matches!(self.state, BreakerState::Open)
    }

    /// Records a success. A half-open probe succeeding closes the
    /// breaker; returns `true` exactly when that close transition fires
    /// (the caller emits `circuit_close`).
    pub fn on_success(&mut self) -> bool {
        let closing = matches!(self.state, BreakerState::HalfOpen);
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.cooldown_remaining = 0;
        closing
    }

    /// Records a failure. Returns `true` exactly when this failure trips
    /// the breaker open — from closed via the threshold, or from a
    /// failed half-open probe (the caller emits `circuit_open`).
    pub fn on_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        match self.state {
            BreakerState::Closed => {
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.state = BreakerState::Open;
                    self.cooldown_remaining = COOLDOWN_TICKS;
                    return true;
                }
                false
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.cooldown_remaining = COOLDOWN_TICKS;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Advances one supervisor tick. An open breaker whose cooldown runs
    /// out moves to half-open; returns `true` on that transition.
    pub fn tick(&mut self) -> bool {
        if let BreakerState::Open = self.state {
            self.cooldown_remaining = self.cooldown_remaining.saturating_sub(1);
            if self.cooldown_remaining == 0 {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }
}

/// Why a quarantine record was appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The device's breaker tripped open.
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
    /// Consecutive failures on the device at quarantine time.
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

    /// Fails a fresh breaker until it trips open.
    fn tripped() -> CircuitBreaker {
        let mut breaker = CircuitBreaker::new();
        for _ in 1..FAILURE_THRESHOLD {
            assert!(!breaker.on_failure());
        }
        assert!(breaker.on_failure());
        breaker
    }

    #[test]
    fn breaker_trips_at_the_threshold_and_only_then() {
        assert_eq!(FAILURE_THRESHOLD, 3);
        let mut breaker = CircuitBreaker::new();
        assert!(breaker.allows());
        assert!(!breaker.on_failure());
        assert!(!breaker.on_failure());
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.on_failure(), "third failure trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allows());
        assert!(
            !breaker.on_failure(),
            "failures while open do not re-trip (no duplicate circuit_open events)"
        );
    }

    #[test]
    fn cooldown_admits_one_probe_and_success_closes() {
        assert_eq!(COOLDOWN_TICKS, 4);
        let mut breaker = tripped();
        for _ in 1..COOLDOWN_TICKS {
            assert!(!breaker.tick(), "cooldown still running");
            assert!(!breaker.allows());
        }
        assert!(breaker.tick(), "cooldown elapsed: half-open");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.allows());
        assert!(breaker.on_success(), "successful probe closes");
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.consecutive_failures(), 0);
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_cooldown() {
        let mut breaker = tripped();
        for _ in 0..COOLDOWN_TICKS {
            breaker.tick();
        }
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.on_failure(), "failed probe re-trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        for _ in 1..COOLDOWN_TICKS {
            assert!(!breaker.tick(), "the cooldown starts over");
        }
        assert!(breaker.tick(), "and cools down again");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn closed_breaker_success_does_not_claim_a_close_transition() {
        let mut breaker = CircuitBreaker::new();
        assert!(!breaker.on_success(), "no circuit_close without a trip");
    }

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
