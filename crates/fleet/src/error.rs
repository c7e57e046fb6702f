//! Error types for the fleet supervisor and its checkpoint store.
//!
//! Everything here is `Clone + PartialEq` so supervision reports can be
//! compared byte-for-byte across chaos replays; raw `std::io::Error`
//! values (neither `Clone` nor `PartialEq`) are flattened to their
//! [`std::io::ErrorKind`] plus message at the boundary.

use std::error::Error;
use std::fmt;
use std::io;

use cloud::DeviceId;
use pentimento::PentimentoError;

/// Failures of the durable checkpoint store.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing (`"create"`, `"write"`, `"rename"`, ...).
        op: &'static str,
        /// The path it was doing it to.
        path: String,
        /// Flattened [`io::Error`] kind.
        kind: io::ErrorKind,
        /// Flattened [`io::Error`] message.
        message: String,
    },
    /// An envelope file failed validation: bad magic, version skew, torn
    /// payload, or CRC mismatch. Recovery treats the generation as lost
    /// and rolls back; the variant carries why for the quarantine ledger.
    CorruptEnvelope {
        /// The offending file.
        path: String,
        /// What check failed.
        reason: String,
    },
    /// The recovery scan found no generation that passes validation for
    /// this campaign — every checkpoint is torn or missing.
    NoValidGeneration {
        /// The campaign whose history is unrecoverable.
        campaign: String,
    },
    /// Replaying the campaign's spec to the sealed hour did not
    /// reproduce the envelope's seals (checksum or manifest drift, or
    /// the replay itself failed): the spec is not the recipe the
    /// envelope was committed from.
    SnapshotMismatch {
        /// The campaign being recovered.
        campaign: String,
        /// The generation that failed cross-validation.
        generation: u64,
        /// What disagreed.
        reason: String,
    },
    /// A caller asked [`crate::CheckpointStore::prune`] to retain zero
    /// generations. Pruning everything would erase the rollback chain a
    /// live campaign depends on, so the store refuses outright instead
    /// of silently clamping — callers that want "keep as few as
    /// possible" must say `retain = 1` explicitly.
    InvalidRetention {
        /// The rejected retention count (always `0` today).
        retain: usize,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: &io::Error) -> Self {
        Self::Io {
            op,
            path: path.display().to_string(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io {
                op, path, message, ..
            } => write!(f, "checkpoint store {op} on {path} failed: {message}"),
            Self::CorruptEnvelope { path, reason } => {
                write!(f, "checkpoint envelope {path} is corrupt: {reason}")
            }
            Self::NoValidGeneration { campaign } => {
                write!(
                    f,
                    "no valid checkpoint generation survives for campaign {campaign}"
                )
            }
            Self::SnapshotMismatch {
                campaign,
                generation,
                reason,
            } => write!(
                f,
                "replay of campaign {campaign} to generation {generation} \
                 disagrees with its sealed envelope: {reason}"
            ),
            Self::InvalidRetention { retain } => write!(
                f,
                "prune retention of {retain} is invalid: at least one \
                 checkpoint generation must be retained"
            ),
        }
    }
}

impl Error for StoreError {}

/// Failures of the fleet supervisor. Every terminal campaign failure is
/// one of these — the chaos suite asserts a campaign either completes
/// bit-identically or fails with a typed `FleetError` plus a quarantine
/// record, never anything untyped.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FleetError {
    /// A campaign died with a fatal (non-transient) error the supervisor
    /// does not retry.
    Campaign {
        /// The campaign that failed.
        id: String,
        /// The underlying typed error.
        source: PentimentoError,
    },
    /// A campaign exhausted its supervisor-level restart budget.
    RestartBudgetExhausted {
        /// The campaign that failed.
        id: String,
        /// Restarts consumed (equals the restart budget).
        restarts: u32,
        /// The error that triggered the final restart attempt.
        last: PentimentoError,
    },
    /// A campaign exceeded its deadline budget in supervisor ticks
    /// without completing — stuck in a crash/recover loop.
    DeadlineExceeded {
        /// The campaign that failed.
        id: String,
        /// Ticks consumed (equals the configured budget).
        ticks: usize,
    },
    /// The checkpoint store failed while serving a campaign.
    Store {
        /// The campaign being served.
        id: String,
        /// The underlying store error.
        source: StoreError,
    },
    /// The campaign failed three times (transient errors or failed
    /// restores) without a step reaching a new hour, and was quarantined.
    CircuitOpen {
        /// The campaign that tripped.
        id: String,
        /// The device the campaign was bound to.
        device: DeviceId,
        /// Consecutive failures at the moment of the trip.
        consecutive_failures: u32,
    },
    /// The scheduler violated one of its own invariants while serving
    /// this slot — e.g. a step dispatched to a slot with no live
    /// campaign, or a slot left unresolved at fleet drain. The slot is
    /// quarantined with this typed error instead of panicking the whole
    /// fleet: one poisoned slot must never take down the other N−1.
    SchedulerInvariant {
        /// The campaign whose slot hit the violation.
        id: String,
        /// Which invariant was violated.
        invariant: &'static str,
    },
}

impl FleetError {
    /// The campaign id the failure is attributed to.
    #[must_use]
    #[cfg(test)]
    fn campaign_id(&self) -> &str {
        match self {
            Self::Campaign { id, .. }
            | Self::RestartBudgetExhausted { id, .. }
            | Self::DeadlineExceeded { id, .. }
            | Self::Store { id, .. }
            | Self::CircuitOpen { id, .. }
            | Self::SchedulerInvariant { id, .. } => id,
        }
    }

    /// A stable snake_case tag for reports and BENCH artifacts.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Self::Campaign { .. } => "campaign_fatal",
            Self::RestartBudgetExhausted { .. } => "restart_budget_exhausted",
            Self::DeadlineExceeded { .. } => "deadline_exceeded",
            Self::Store { .. } => "store",
            Self::CircuitOpen { .. } => "circuit_open",
            Self::SchedulerInvariant { .. } => "scheduler_invariant",
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Campaign { id, source } => {
                write!(f, "campaign {id} failed fatally: {source}")
            }
            Self::RestartBudgetExhausted { id, restarts, last } => write!(
                f,
                "campaign {id} exhausted its restart budget after {restarts} restarts \
                 (last error: {last})"
            ),
            Self::DeadlineExceeded { id, ticks } => {
                write!(
                    f,
                    "campaign {id} exceeded its deadline budget of {ticks} ticks"
                )
            }
            Self::Store { id, source } => {
                write!(f, "checkpoint store failed for campaign {id}: {source}")
            }
            Self::CircuitOpen {
                id,
                device,
                consecutive_failures,
            } => write!(
                f,
                "campaign {id} on {device} tripped after {consecutive_failures} \
                 consecutive failures; quarantined"
            ),
            Self::SchedulerInvariant { id, invariant } => write!(
                f,
                "scheduler invariant violated for campaign {id}: {invariant}; \
                 slot quarantined"
            ),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Campaign { source, .. } | Self::RestartBudgetExhausted { last: source, .. } => {
                Some(source)
            }
            Self::Store { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_comparable() {
        fn assert_traits<T: Error + Send + Sync + Clone + PartialEq + 'static>() {}
        assert_traits::<StoreError>();
        assert_traits::<FleetError>();
    }

    #[test]
    fn fleet_errors_carry_campaign_attribution_and_stable_tags() {
        let e = FleetError::DeadlineExceeded {
            id: "c3".to_owned(),
            ticks: 500,
        };
        assert_eq!(e.campaign_id(), "c3");
        assert_eq!(e.tag(), "deadline_exceeded");
        assert!(e.to_string().contains("c3"), "{e}");

        let e = FleetError::CircuitOpen {
            id: "c1".to_owned(),
            device: DeviceId(4),
            consecutive_failures: 3,
        };
        assert_eq!(e.tag(), "circuit_open");
        assert!(e.to_string().contains("quarantined"), "{e}");

        let e = FleetError::SchedulerInvariant {
            id: "c7".to_owned(),
            invariant: "step dispatched without a live campaign",
        };
        assert_eq!(e.campaign_id(), "c7");
        assert_eq!(e.tag(), "scheduler_invariant");
        assert!(e.to_string().contains("slot quarantined"), "{e}");
    }

    #[test]
    fn invalid_retention_is_typed_and_self_describing() {
        let e = StoreError::InvalidRetention { retain: 0 };
        assert!(e.to_string().contains("at least one"), "{e}");
        assert_eq!(e, StoreError::InvalidRetention { retain: 0 });
    }
}
