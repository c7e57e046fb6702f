//! Hostile-cloud fault injection.
//!
//! The paper's headline experiments are 200+ hour campaigns on rented
//! hardware, where the real enemy is operational: rentals fail, sessions
//! get preempted, devices get swapped on reacquisition, platforms scrub
//! spuriously, and cooling hiccups perturb the die. This module provides a
//! **seeded, deterministic** [`FaultPlan`] the [`Provider`] consults at
//! every decision point, so campaigns can be tested under adversity and
//! every run replays bit-identically from its seed.
//!
//! Two injection mechanisms compose:
//!
//! * **Probabilistic rates** — per-event probabilities drawn from a
//!   counter-indexed hash of the plan seed (never from shared RNG state),
//!   so one subsystem's draws cannot perturb another's.
//! * **A schedule** — explicit `(time, kind)` entries that fire exactly
//!   once when provider time reaches them, for reproducible worst-case
//!   scenarios ("preempt the attacker at hour 57").
//!
//! Every injected fault is recorded in the provider's
//! [`RentalLedger`](crate::RentalLedger) with its time, kind, and the
//! device/session concerned, so experiments have an auditable trail of
//! exactly what adversity they survived.
//!
//! [`Provider`]: crate::Provider

use std::fmt;

use bti_physics::Hours;
use serde::{Deserialize, Serialize};

/// The kinds of operational faults a hostile cloud injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// A rent call fails transiently (no capacity *for you*, right now).
    RentFailure,
    /// A rented session is forcibly released mid-campaign; the device is
    /// scrubbed and returned to the pool.
    Preemption,
    /// A rent call succeeds but hands back a *different* free device than
    /// the one the deterministic allocator would have chosen — what
    /// reacquisition-after-release looks like when the fleet is busy.
    DeviceSwap,
    /// The platform scrubs a rented device's digital state mid-lease
    /// (maintenance gone wrong); the lease itself survives.
    SpuriousScrub,
    /// A cooling transient: one device's ambient runs hot for one time
    /// step, perturbing its aging trajectory.
    ThermalTransient,
}

impl FaultKind {
    /// Every fault kind, in a stable order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::RentFailure,
        FaultKind::Preemption,
        FaultKind::DeviceSwap,
        FaultKind::SpuriousScrub,
        FaultKind::ThermalTransient,
    ];

    /// A stable machine-readable name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::RentFailure => "rent_failure",
            Self::Preemption => "preemption",
            Self::DeviceSwap => "device_swap",
            Self::SpuriousScrub => "spurious_scrub",
            Self::ThermalTransient => "thermal_transient",
        }
    }

    /// Whether repairing this fault within the same time step leaves the
    /// device's aging trajectory identical to a fault-free run.
    ///
    /// Rent failures and device swaps cost no simulated time; preemption
    /// and spurious scrubs are decided *after* a step's physics, so a
    /// tenant who re-rents / reloads before the next step loses nothing.
    /// A thermal transient, by contrast, genuinely perturbs the die.
    #[must_use]
    #[cfg(test)]
    fn is_trajectory_preserving(self) -> bool {
        !matches!(self, Self::ThermalTransient)
    }

    fn tag(self) -> u64 {
        match self {
            Self::RentFailure => 0x52454E54,
            Self::Preemption => 0x50524545,
            Self::DeviceSwap => 0x53574150,
            Self::SpuriousScrub => 0x53435242,
            Self::ThermalTransient => 0x54454D50,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One explicitly scheduled fault: fires exactly once when provider time
/// reaches `at`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFault {
    /// Provider time at (or after) which the fault fires.
    pub at: Hours,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded, deterministic description of how hostile the cloud is.
///
/// The default plan ([`FaultPlan::none`]) injects nothing, reproducing the
/// infallible provider earlier revisions assumed. All rates are
/// probabilities in `[0, 1]`: per *call* for [`FaultKind::RentFailure`]
/// and [`FaultKind::DeviceSwap`], per *rented-device hour* for the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed all probabilistic decisions derive from.
    pub seed: u64,
    /// Probability a `rent` call fails transiently.
    pub rent_failure_rate: f64,
    /// Probability a successful `rent` hands back a swapped device.
    pub device_swap_rate: f64,
    /// Per-hour probability a rented session is preempted.
    pub preemption_rate_per_hour: f64,
    /// Per-hour probability a rented device is spuriously scrubbed.
    pub spurious_scrub_rate_per_hour: f64,
    /// Per-hour probability of a thermal transient on a rented device.
    pub thermal_transient_rate_per_hour: f64,
    /// Ambient excursion applied during a thermal transient, in °C.
    pub thermal_amplitude_c: f64,
    /// Explicit one-shot faults, in firing order.
    pub schedule: Vec<ScheduledFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The benign cloud: nothing ever fails.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            rent_failure_rate: 0.0,
            device_swap_rate: 0.0,
            preemption_rate_per_hour: 0.0,
            spurious_scrub_rate_per_hour: 0.0,
            thermal_transient_rate_per_hour: 0.0,
            thermal_amplitude_c: 0.0,
            schedule: Vec::new(),
        }
    }

    /// A hostile cloud with every probabilistic fault at `intensity`
    /// (rent failures and swaps at 3× — they are cheap to retry), and
    /// 8 °C thermal excursions.
    #[must_use]
    pub fn hostile(seed: u64, intensity: f64) -> Self {
        let p = intensity.clamp(0.0, 1.0);
        Self {
            seed,
            rent_failure_rate: (3.0 * p).min(0.9),
            device_swap_rate: (3.0 * p).min(0.9),
            preemption_rate_per_hour: p,
            spurious_scrub_rate_per_hour: p,
            thermal_transient_rate_per_hour: p,
            thermal_amplitude_c: 8.0,
            schedule: Vec::new(),
        }
    }

    /// A hostile cloud restricted to **trajectory-preserving** faults
    /// (every kind but thermal transients, which perturb the die): with
    /// sufficient retry budget, a campaign under this plan must classify
    /// the same bits as a fault-free run of the same seed.
    #[must_use]
    pub fn transient_only(seed: u64, intensity: f64) -> Self {
        let mut plan = Self::hostile(seed, intensity);
        plan.thermal_transient_rate_per_hour = 0.0;
        plan.thermal_amplitude_c = 0.0;
        plan
    }

    /// Adds a one-shot scheduled fault.
    #[must_use]
    pub fn with_scheduled(mut self, at: Hours, kind: FaultKind) -> Self {
        self.schedule.push(ScheduledFault { at, kind });
        self.schedule
            .sort_by(|a, b| a.at.value().total_cmp(&b.at.value()));
        self
    }

    /// Whether any fault can ever fire under this plan.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.rent_failure_rate <= 0.0
            && self.device_swap_rate <= 0.0
            && self.preemption_rate_per_hour <= 0.0
            && self.spurious_scrub_rate_per_hour <= 0.0
            && self.thermal_transient_rate_per_hour <= 0.0
            && self.schedule.is_empty()
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::RentFailure => self.rent_failure_rate,
            FaultKind::Preemption => self.preemption_rate_per_hour,
            FaultKind::DeviceSwap => self.device_swap_rate,
            FaultKind::SpuriousScrub => self.spurious_scrub_rate_per_hour,
            FaultKind::ThermalTransient => self.thermal_transient_rate_per_hour,
        }
    }
}

/// Per-kind draw counters: the provider-side state that makes
/// probabilistic injection deterministic and replayable.
///
/// Decision `n` for kind `k` is a pure function of `(plan.seed, k, n)`, so
/// subsystems cannot perturb each other's streams and a cloned provider
/// (a checkpoint) resumes the exact same fault sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultState {
    draws: [u64; 5],
    schedule_cursor: usize,
}

impl FaultState {
    /// Fresh state: no draws consumed, schedule untouched.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of probabilistic draws consumed for `kind`.
    #[must_use]
    pub fn draws_consumed(&self, kind: FaultKind) -> u64 {
        self.draws[Self::index(kind)]
    }

    /// How many scheduled faults have fired.
    #[must_use]
    pub fn schedule_fired(&self) -> usize {
        self.schedule_cursor
    }

    fn index(kind: FaultKind) -> usize {
        match kind {
            FaultKind::RentFailure => 0,
            FaultKind::Preemption => 1,
            FaultKind::DeviceSwap => 2,
            FaultKind::SpuriousScrub => 3,
            FaultKind::ThermalTransient => 4,
        }
    }

    /// Draws one decision for `kind` under `plan`: `true` means inject.
    ///
    /// `scale` multiplies the plan rate (e.g. step length in hours for
    /// per-hour rates). Draw counters advance only when the effective
    /// rate is positive, so a benign plan consumes nothing and stays
    /// byte-identical to having no plan at all.
    pub fn draw(&mut self, plan: &FaultPlan, kind: FaultKind, scale: f64) -> bool {
        let rate = (plan.rate(kind) * scale).clamp(0.0, 1.0);
        if rate <= 0.0 {
            return false;
        }
        let idx = Self::index(kind);
        let n = self.draws[idx];
        self.draws[idx] += 1;
        uniform_hash(plan.seed ^ kind.tag().rotate_left(17), n) < rate
    }

    /// Pops every scheduled fault due at or before `now`, in order.
    pub fn due_scheduled(&mut self, plan: &FaultPlan, now: Hours) -> Vec<ScheduledFault> {
        let mut fired = Vec::new();
        while let Some(entry) = plan.schedule.get(self.schedule_cursor) {
            if entry.at.value() <= now.value() {
                fired.push(entry.clone());
                self.schedule_cursor += 1;
            } else {
                break;
            }
        }
        fired
    }
}

/// SplitMix64-style counter hash mapped to `[0, 1)`.
fn uniform_hash(seed: u64, counter: u64) -> f64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_never_fires_and_consumes_nothing() {
        let plan = FaultPlan::none();
        let mut state = FaultState::new();
        for kind in FaultKind::ALL {
            for _ in 0..100 {
                assert!(!state.draw(&plan, kind, 1.0));
            }
            assert_eq!(state.draws_consumed(kind), 0);
        }
        assert!(plan.is_benign());
    }

    #[test]
    fn draws_are_deterministic_and_replayable() {
        let plan = FaultPlan::hostile(42, 0.3);
        let mut a = FaultState::new();
        let mut b = FaultState::new();
        let seq_a: Vec<bool> = (0..200)
            .map(|_| a.draw(&plan, FaultKind::Preemption, 1.0))
            .collect();
        let seq_b: Vec<bool> = (0..200)
            .map(|_| b.draw(&plan, FaultKind::Preemption, 1.0))
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&x| x), "some preemptions fire at 30%");
        assert!(!seq_a.iter().all(|&x| x), "not all fire");
    }

    #[test]
    fn kinds_have_independent_streams() {
        let plan = FaultPlan::hostile(7, 0.5);
        // Interleaving draws of one kind must not change another kind's
        // sequence.
        let mut pure = FaultState::new();
        let expected: Vec<bool> = (0..50)
            .map(|_| pure.draw(&plan, FaultKind::SpuriousScrub, 1.0))
            .collect();
        let mut mixed = FaultState::new();
        let got: Vec<bool> = (0..50)
            .map(|_| {
                let _ = mixed.draw(&plan, FaultKind::RentFailure, 1.0);
                let _ = mixed.draw(&plan, FaultKind::DeviceSwap, 1.0);
                mixed.draw(&plan, FaultKind::SpuriousScrub, 1.0)
            })
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn rates_are_respected_statistically() {
        let plan = FaultPlan::hostile(11, 0.2);
        let mut state = FaultState::new();
        let hits = (0..10_000)
            .filter(|_| state.draw(&plan, FaultKind::Preemption, 1.0))
            .count();
        assert!((1_500..2_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn schedule_fires_once_in_order() {
        let plan = FaultPlan::none()
            .with_scheduled(Hours::new(10.0), FaultKind::Preemption)
            .with_scheduled(Hours::new(5.0), FaultKind::SpuriousScrub);
        let mut state = FaultState::new();
        assert!(state.due_scheduled(&plan, Hours::new(4.9)).is_empty());
        let first = state.due_scheduled(&plan, Hours::new(5.0));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].kind, FaultKind::SpuriousScrub);
        let second = state.due_scheduled(&plan, Hours::new(50.0));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].kind, FaultKind::Preemption);
        assert!(state.due_scheduled(&plan, Hours::new(100.0)).is_empty());
        assert_eq!(state.schedule_fired(), 2);
    }

    #[test]
    fn transient_only_plans_preserve_trajectories() {
        let plan = FaultPlan::transient_only(3, 0.4);
        assert_eq!(plan.thermal_transient_rate_per_hour, 0.0);
        assert!(!plan.is_benign());
        for kind in FaultKind::ALL {
            if plan.rate(kind) > 0.0 {
                assert!(kind.is_trajectory_preserving(), "{kind} must preserve");
            }
        }
    }

    #[test]
    fn scale_modulates_per_hour_rates() {
        let plan = FaultPlan::hostile(5, 0.01);
        let mut state = FaultState::new();
        let hits_small = (0..5_000)
            .filter(|_| state.draw(&plan, FaultKind::Preemption, 0.1))
            .count();
        let mut state = FaultState::new();
        let hits_large = (0..5_000)
            .filter(|_| state.draw(&plan, FaultKind::Preemption, 10.0))
            .count();
        assert!(hits_large > hits_small * 5, "{hits_large} vs {hits_small}");
    }
}
