//! Deterministic process-level chaos.
//!
//! The chaos harness perturbs a supervised fleet the way an unreliable
//! host would — killing campaigns mid-phase, corrupting or truncating
//! checkpoint files, souring a campaign's session weather — but every
//! perturbation is drawn from **counter-based RNG streams** keyed by
//! `(seed, campaign, action)`, the same discipline the cloud fault
//! injector and the per-route measurement streams use. Two runs with the
//! same plan make identical draws in an identical order regardless of
//! wall-clock, thread width, or how often anything is logged, so a chaos
//! schedule is a *replayable artifact*: the suite can run a cell twice
//! and demand byte-identical reports.

use cloud::FaultPlan;

/// SplitMix64-style counter hash onto `[0, 1)` — the same mixer the
/// campaign layer uses for its deterministic jitter.
fn uniform01(seed: u64, counter: u64) -> f64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The chaos actions the supervisor consults the schedule about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosAction {
    /// Kill the campaign's in-flight process image after this hour: the
    /// live [`pentimento::Campaign`] is dropped, and only what the
    /// checkpoint tiers preserved survives.
    Kill,
    /// Flip one byte of the newest committed checkpoint envelope.
    Corrupt,
    /// Truncate the newest committed checkpoint envelope.
    Truncate,
}

impl ChaosAction {
    /// Stream-separation constant folded into the per-action seed.
    fn salt(self) -> u64 {
        match self {
            Self::Kill => 0x4B49_4C4C,
            Self::Corrupt => 0x4352_5054,
            Self::Truncate => 0x5452_4E43,
        }
    }
}

/// A deterministic chaos schedule for one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Master seed; all per-campaign, per-action streams derive from it.
    pub seed: u64,
    /// Per-hour probability a campaign's process is killed after the
    /// hour completes.
    pub kill_rate_per_hour: f64,
    /// Per-commit probability the newest envelope gets one byte flipped.
    pub corrupt_rate_per_checkpoint: f64,
    /// Per-commit probability the newest envelope is truncated.
    pub truncate_rate_per_checkpoint: f64,
    /// Session weather: transient rent-failure probability woven into
    /// each campaign's cloud fault plan (delayed sessions).
    pub rent_failure_rate: f64,
    /// Session weather: per-hour preemption probability woven into each
    /// campaign's cloud fault plan (stolen sessions).
    pub preemption_rate_per_hour: f64,
    /// Guaranteed kills: `(campaign_index, hour)` pairs fired exactly
    /// once, on top of the random stream.
    pub scheduled_kills: Vec<(usize, usize)>,
}

impl ChaosPlan {
    /// No chaos at all: the supervisor degenerates to running each
    /// campaign to completion.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            kill_rate_per_hour: 0.0,
            corrupt_rate_per_checkpoint: 0.0,
            truncate_rate_per_checkpoint: 0.0,
            rent_failure_rate: 0.0,
            preemption_rate_per_hour: 0.0,
            scheduled_kills: Vec::new(),
        }
    }

    /// Whether this plan perturbs anything.
    #[must_use]
    pub fn is_benign(&self) -> bool {
        self.kill_rate_per_hour == 0.0
            && self.corrupt_rate_per_checkpoint == 0.0
            && self.truncate_rate_per_checkpoint == 0.0
            && self.rent_failure_rate == 0.0
            && self.preemption_rate_per_hour == 0.0
            && self.scheduled_kills.is_empty()
    }

    /// The cloud-level fault weather this plan imposes on campaign
    /// `index`: the session delays (transient rent failures) and steals
    /// (preemptions) ride the existing trajectory-preserving fault
    /// machinery, seeded per campaign so fleets don't share streams.
    ///
    /// This is *weather*, not process chaos: a chaos-free reference run
    /// of the same campaign under the same weather plan produces the
    /// byte-identical outcome the suite compares against.
    #[must_use]
    pub fn session_weather(&self, index: usize) -> FaultPlan {
        let mut plan = FaultPlan::none();
        plan.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64)
            ^ 0x5745_4154;
        plan.rent_failure_rate = self.rent_failure_rate;
        plan.preemption_rate_per_hour = self.preemption_rate_per_hour;
        plan
    }
}

/// One campaign's replayable draw state over a chaos schedule: per-action
/// counters over the plan's `(seed, campaign, action)` streams, plus the
/// campaign's scheduled kills not yet fired.
///
/// Every supervisor slot owns its campaign's cursor, and consulting it
/// is the slot's only source of chaos randomness. Because the streams
/// are keyed by campaign, a campaign's draws never depend on the order
/// slots are served in.
#[derive(Debug, Clone)]
pub struct ChaosCursor {
    seed: u64,
    index: usize,
    kill_rate: f64,
    corrupt_rate: f64,
    truncate_rate: f64,
    counters: [u64; 3],
    /// This campaign's scheduled kill hours, ascending, not yet fired.
    pending_kill_hours: Vec<usize>,
}

impl ChaosCursor {
    /// Campaign `index`'s cursor over `plan`.
    #[must_use]
    pub fn new(plan: &ChaosPlan, index: usize) -> Self {
        let mut pending_kill_hours: Vec<usize> = plan
            .scheduled_kills
            .iter()
            .filter(|&&(campaign, _)| campaign == index)
            .map(|&(_, hour)| hour)
            .collect();
        pending_kill_hours.sort_unstable();
        Self {
            seed: plan.seed,
            index,
            kill_rate: plan.kill_rate_per_hour,
            corrupt_rate: plan.corrupt_rate_per_checkpoint,
            truncate_rate: plan.truncate_rate_per_checkpoint,
            counters: [0; 3],
            pending_kill_hours,
        }
    }

    fn stream_seed(&self, action: ChaosAction) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((self.index as u64) << 8)
            ^ action.salt()
    }

    fn draw(&mut self, action: ChaosAction, rate: f64) -> bool {
        let slot = match action {
            ChaosAction::Kill => 0,
            ChaosAction::Corrupt => 1,
            ChaosAction::Truncate => 2,
        };
        let counter = self.counters[slot];
        self.counters[slot] += 1;
        rate > 0.0 && uniform01(self.stream_seed(action), counter) < rate
    }

    /// Draws consumed so far for `action` — the replay witness the
    /// tests compare.
    #[cfg(test)]
    fn draws_consumed(&self, action: ChaosAction) -> u64 {
        match action {
            ChaosAction::Kill => self.counters[0],
            ChaosAction::Corrupt => self.counters[1],
            ChaosAction::Truncate => self.counters[2],
        }
    }

    /// Whether this campaign is killed after completing `hour`. The
    /// random stream advances one draw per call either way; scheduled
    /// kills fire exactly once, on top of it.
    pub fn kill_now(&mut self, hour: usize) -> bool {
        let drawn = self.draw(ChaosAction::Kill, self.kill_rate);
        if let Some(at) = self.pending_kill_hours.iter().position(|&h| h == hour) {
            self.pending_kill_hours.remove(at);
            return true;
        }
        drawn
    }

    /// Whether the checkpoint just committed for this campaign gets
    /// corrupted, and how. Truncation is consulted first so a plan with
    /// both rates still makes one deterministic choice per commit.
    pub fn corrupt_commit(&mut self) -> Option<ChaosAction> {
        if self.draw(ChaosAction::Truncate, self.truncate_rate) {
            return Some(ChaosAction::Truncate);
        }
        if self.draw(ChaosAction::Corrupt, self.corrupt_rate) {
            return Some(ChaosAction::Corrupt);
        }
        None
    }

    /// A deterministic byte offset for an injected corruption (the store
    /// reduces it modulo the file length).
    pub fn corruption_offset(&mut self) -> u64 {
        let counter = self.counters[1];
        self.counters[1] += 1;
        // Re-hash the corrupt stream at a shifted counter to pick bytes.
        (uniform01(self.stream_seed(ChaosAction::Corrupt), counter) * 4096.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile_plan() -> ChaosPlan {
        ChaosPlan {
            seed: 99,
            kill_rate_per_hour: 0.25,
            corrupt_rate_per_checkpoint: 0.5,
            truncate_rate_per_checkpoint: 0.1,
            rent_failure_rate: 0.2,
            preemption_rate_per_hour: 0.05,
            scheduled_kills: vec![(1, 6), (0, 3)],
        }
    }

    /// One cursor per campaign of a `campaigns`-member fleet.
    fn cursors(plan: &ChaosPlan, campaigns: usize) -> Vec<ChaosCursor> {
        (0..campaigns)
            .map(|index| ChaosCursor::new(plan, index))
            .collect()
    }

    #[test]
    fn identical_plans_replay_identical_chaos() {
        let mut a = cursors(&hostile_plan(), 3);
        let mut b = cursors(&hostile_plan(), 3);
        for hour in 0..50 {
            for campaign in 0..3 {
                assert_eq!(a[campaign].kill_now(hour), b[campaign].kill_now(hour));
                assert_eq!(a[campaign].corrupt_commit(), b[campaign].corrupt_commit());
            }
        }
        for campaign in 0..3 {
            for action in [
                ChaosAction::Kill,
                ChaosAction::Corrupt,
                ChaosAction::Truncate,
            ] {
                assert_eq!(
                    a[campaign].draws_consumed(action),
                    b[campaign].draws_consumed(action)
                );
            }
        }
    }

    #[test]
    fn campaigns_draw_from_independent_streams() {
        let mut plan = ChaosPlan::none();
        plan.seed = 7;
        plan.kill_rate_per_hour = 0.5;
        let mut fleet = cursors(&plan, 2);
        let a: Vec<bool> = (0..64).map(|h| fleet[0].kill_now(h)).collect();
        let b: Vec<bool> = (0..64).map(|h| fleet[1].kill_now(h)).collect();
        assert_ne!(a, b, "two campaigns must not share a kill stream");
    }

    #[test]
    fn benign_plan_draws_nothing_but_still_advances_counters() {
        let mut cursor = ChaosCursor::new(&ChaosPlan::none(), 0);
        assert!(ChaosPlan::none().is_benign());
        assert!(!hostile_plan().is_benign());
        for hour in 0..20 {
            assert!(!cursor.kill_now(hour));
            assert!(cursor.corrupt_commit().is_none());
        }
        assert_eq!(cursor.draws_consumed(ChaosAction::Kill), 20);
    }

    #[test]
    fn cursor_scheduled_kills_fire_exactly_once_each() {
        let mut plan = ChaosPlan::none();
        plan.scheduled_kills = vec![(0, 3), (1, 6), (0, 8)];
        let mut fired = Vec::new();
        for campaign in 0..2 {
            let mut cursor = ChaosCursor::new(&plan, campaign);
            for hour in 0..10 {
                if cursor.kill_now(hour) {
                    fired.push((campaign, hour));
                }
            }
        }
        assert_eq!(fired, vec![(0, 3), (0, 8), (1, 6)]);
    }

    #[test]
    fn session_weather_is_per_campaign_and_trajectory_preserving_in_shape() {
        let plan = hostile_plan();
        let w0 = plan.session_weather(0);
        let w1 = plan.session_weather(1);
        assert_ne!(w0.seed, w1.seed, "weather streams must not collide");
        assert_eq!(w0.rent_failure_rate, plan.rent_failure_rate);
        assert_eq!(w0.preemption_rate_per_hour, plan.preemption_rate_per_hour);
        // Weather never includes the non-trajectory-preserving kinds.
        assert_eq!(w0.device_swap_rate, 0.0);
        assert_eq!(w0.spurious_scrub_rate_per_hour, 0.0);
        assert_eq!(w0.thermal_transient_rate_per_hour, 0.0);
    }
}
