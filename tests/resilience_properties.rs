//! Resilience invariants of the hostile-cloud campaign runner, checked
//! over randomized fault plans (ISSUE 1, satellite: proptest coverage).
//!
//! Two properties:
//!
//! 1. **Transient transparency** — any all-transient [`FaultPlan`]
//!    (preemptions, spurious scrubs, rent failures, device swaps; no
//!    thermal transients) plus a sufficient retry budget yields exactly
//!    the classified bits — and the byte-identical series — of the
//!    fault-free `threat_model{1,2}::run` with the same seed. Repairs cost the
//!    attacker wall-clock only, never simulated conditioning time.
//! 2. **Resumability** — checkpointing a campaign at an arbitrary hour
//!    and resuming the snapshot reproduces the uninterrupted run
//!    bit-for-bit, even with probabilistic faults and sensor glitches
//!    still scheduled ahead of the checkpoint.
//! 3. **Supervised crash-transparency** (ISSUE 6) — a fleet supervisor
//!    killing campaigns at arbitrary hours and resuming them from the
//!    checkpoint store reproduces the unsupervised outcomes bit-for-bit,
//!    at every worker-pool width.
//! 4. **Fleet width-invariance** — a supervised fleet under arbitrary
//!    chaos weather (random kill hours on two campaigns, random
//!    kill/corruption/rent-failure rates) plus flash-attack contention
//!    produces bit-identical outcomes, traces, and quarantine ledgers at
//!    widths 1, 2, and 4 — even when the chaos makes campaigns fail, the
//!    *failures* replay identically.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cloud::{FaultPlan, Provider, ProviderConfig};
use fleet::{CampaignSpec, ChaosPlan, FleetConfig, Supervisor};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{Campaign, CampaignConfig, Mission};
use proptest::prelude::*;
use tdc::SensorFaultPlan;

fn tm1_config(seed: u64) -> ThreatModel1Config {
    ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 4,
        burn_hours: 40,
        measure_every: 5,
        mode: pentimento::MeasurementMode::Oracle,
        seed,
        measurement_repeats: 1,
    }
}

fn tm2_config(seed: u64) -> ThreatModel2Config {
    ThreatModel2Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 4,
        victim_hours: 100,
        attack_hours: 25,
        condition_level: bti_physics::LogicLevel::Zero,
        mode: pentimento::MeasurementMode::Oracle,
        seed,
        measurement_repeats: 1,
        victim_hold_and_recover_hours: 0,
    }
}

/// A retry budget comfortably above what the bounded fault intensities
/// below can consume ("sufficient" in the property statement).
fn generous_config(fault_plan: FaultPlan) -> CampaignConfig {
    CampaignConfig {
        max_attempts: 12,
        fault_plan,
        ..CampaignConfig::default()
    }
}

/// A unique scratch directory for one fleet store, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "resilience-fleet-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f` on a worker pool of exactly `n` threads.
fn at_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
        .install(f)
}

/// A short campaign for the fleet property: small enough that each
/// proptest case runs four full fleets, hostile enough (session weather
/// from the chaos plan) that recovery is non-trivial.
fn fleet_campaign(seed: u64, weather: &ChaosPlan, index: usize) -> Campaign {
    let tm1 = ThreatModel1Config {
        route_lengths_ps: vec![5_000.0],
        routes_per_length: 4,
        burn_hours: 20,
        measure_every: 4,
        mode: pentimento::MeasurementMode::Oracle,
        seed,
        measurement_repeats: 1,
    };
    let config = CampaignConfig {
        fault_plan: weather.session_weather(index),
        ..CampaignConfig::default()
    };
    Campaign::new(
        Provider::new(ProviderConfig::aws_f1_like(2, seed)),
        Mission::ThreatModel1(tm1),
        config,
    )
    .expect("campaign builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property (1) for Threat Model 1: transient cloud faults with
    /// retries are invisible in the recovered bits.
    #[test]
    fn transient_faults_are_bit_transparent_tm1(
        seed in 0u64..40,
        intensity in 0.0f64..0.05,
    ) {
        let mut driver_provider = Provider::new(ProviderConfig::aws_f1_like(3, seed));
        let fault_free = threat_model1::run(&mut driver_provider, &tm1_config(seed))
            .expect("fault-free driver");

        let provider = Provider::new(ProviderConfig::aws_f1_like(3, seed));
        let config = generous_config(FaultPlan::transient_only(seed ^ 0xFA11, intensity));
        let outcome = Campaign::new(provider, Mission::ThreatModel1(tm1_config(seed)), config)
            .and_then(|mut c| c.run())
            .expect("transient faults must be survivable with budget to spare");

        prop_assert_eq!(&outcome.recovered, &fault_free.recovered);
        prop_assert_eq!(&outcome.series, &fault_free.series);
    }

    /// Property (1) for Threat Model 2: the flash-attack campaign also
    /// recovers the fault-free bits under transient weather.
    #[test]
    fn transient_faults_are_bit_transparent_tm2(
        seed in 0u64..40,
        intensity in 0.0f64..0.05,
    ) {
        let mut driver_provider = Provider::new(ProviderConfig::aws_f1_like(2, seed));
        let fault_free = threat_model2::run(&mut driver_provider, &tm2_config(seed))
            .expect("fault-free driver");

        let provider = Provider::new(ProviderConfig::aws_f1_like(2, seed));
        let config = generous_config(FaultPlan::transient_only(seed ^ 0xFA11, intensity));
        let outcome = Campaign::new(provider, Mission::ThreatModel2(tm2_config(seed)), config)
            .and_then(|mut c| c.run())
            .expect("transient faults must be survivable with budget to spare");

        prop_assert_eq!(&outcome.recovered, &fault_free.recovered);
        prop_assert_eq!(&outcome.series, &fault_free.series);
    }

    /// Property (2): checkpoint → resume at any hour equals the
    /// uninterrupted run, bit-for-bit, under a fully hostile plan
    /// (thermal transients and sensor glitches included).
    #[test]
    fn checkpoint_resume_is_bit_identical(
        seed in 0u64..40,
        intensity in 0.0f64..0.04,
        checkpoint_after in 1usize..35,
    ) {
        let build = || {
            let provider = Provider::new(ProviderConfig::aws_f1_like(3, seed));
            let mut config = generous_config(FaultPlan::hostile(seed ^ 0xC0DE, intensity));
            config.sensor_faults = SensorFaultPlan::noisy(seed ^ 0xC0DE, intensity);
            Campaign::new(provider, Mission::ThreatModel1(tm1_config(seed)), config)
        };

        let reference = build().and_then(|mut c| c.run());
        let resumed = build().and_then(|mut campaign| {
            for _ in 0..checkpoint_after {
                campaign.step()?;
            }
            let checkpoint = campaign.checkpoint();
            drop(campaign); // the original "process" dies here
            Campaign::resume(checkpoint)
        })
        .and_then(|mut c| c.run());

        // Hostile plans may legitimately exhaust a budget; determinism
        // then demands the *same* failure, not just any failure.
        match (reference, resumed) {
            (Ok(reference), Ok(resumed)) => {
                prop_assert_eq!(&resumed.recovered, &reference.recovered);
                prop_assert_eq!(&resumed.series, &reference.series);
                prop_assert_eq!(resumed.stats.faults_injected, reference.stats.faults_injected);
            }
            (Err(reference), Err(resumed)) => {
                prop_assert_eq!(resumed.to_string(), reference.to_string());
            }
            (reference, resumed) => {
                prop_assert!(
                    false,
                    "one run failed, the other did not: uninterrupted {reference:?}, \
                     resumed {resumed:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property (3): a supervised fleet whose campaigns are killed at
    /// arbitrary hours — with mild random session weather on top —
    /// completes every campaign bit-identically to its unsupervised
    /// reference, and does so at every worker-pool width.
    #[test]
    fn fleet_kills_at_arbitrary_hours_resume_bit_identically(
        seed in 0u64..20,
        kill_a in 1usize..19,
        kill_b in 1usize..19,
        rent_failure_rate in 0.0f64..0.1,
    ) {
        let mut plan = ChaosPlan::none();
        plan.seed = seed ^ 0xF1EE7;
        plan.scheduled_kills = vec![(0, kill_a), (1, kill_b)];
        plan.rent_failure_rate = rent_failure_rate;

        let references: Vec<_> = (0..2)
            .map(|i| {
                fleet_campaign(seed + i as u64, &plan, i)
                    .run()
                    .expect("reference completes")
            })
            .collect();

        for width in [1usize, 2, 4] {
            let report = at_width(width, || {
                let scratch = Scratch::new();
                let config = FleetConfig {
                    checkpoint_every_hours: 4,
                    ..FleetConfig::default()
                };
                let mut supervisor =
                    Supervisor::new(&scratch.0, config).expect("store opens");
                let specs = (0..2)
                    .map(|i| CampaignSpec {
                        id: format!("c{i}"),
                        campaign: fleet_campaign(seed + i as u64, &plan, i),
                    })
                    .collect();
                supervisor.run(specs, plan.clone())
            });

            prop_assert_eq!(
                report.completed(),
                2,
                "kills at hours {}/{} must not lose campaigns (width {})",
                kill_a,
                kill_b,
                width
            );
            prop_assert_eq!(report.kills_injected, 2);
            for ((_, result), reference) in report.results.iter().zip(&references) {
                let outcome = result.outcome().expect("completed");
                prop_assert_eq!(&outcome.series, &reference.series);
                prop_assert_eq!(&outcome.recovered, &reference.recovered);
                prop_assert_eq!(&outcome.truth, &reference.truth);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property (4): under *arbitrary* chaos weather — scheduled kills at
    /// random hours on campaigns 1 and 2, plus random stochastic kill,
    /// envelope-corruption, and rent-failure rates — every observable of
    /// the supervisor is bit-identical at widths 1, 2, and 4: per-campaign
    /// outcomes *or typed failures*, the full telemetry trace, the
    /// counters, and the quarantine ledger.
    #[test]
    fn sharded_fleet_under_random_chaos_is_width_invariant(
        seed in 0u64..20,
        kill_a in 1usize..19,
        kill_b in 1usize..19,
        kill_rate in 0.0f64..0.04,
        corrupt_rate in 0.0f64..0.4,
        rent_failure_rate in 0.0f64..0.1,
    ) {
        use std::sync::Arc;

        let mut plan = ChaosPlan::none();
        plan.seed = seed ^ 0x5AAD;
        // Campaigns 1 and 2 die at independent random hours, so one
        // slot's kill or resume can share a tick with the other's step
        // and checkpoint.
        plan.scheduled_kills = vec![(1, kill_a), (2, kill_b)];
        plan.kill_rate_per_hour = kill_rate;
        plan.corrupt_rate_per_checkpoint = corrupt_rate;
        plan.rent_failure_rate = rent_failure_rate;

        let run = |width: usize| {
            at_width(width, || {
                let scratch = Scratch::new();
                let config = FleetConfig {
                    checkpoint_every_hours: 4,
                    ..FleetConfig::default()
                };
                let recorder = Arc::new(obs::Recorder::new());
                let mut supervisor =
                    Supervisor::new(&scratch.0, config).expect("store opens");
                supervisor.set_recorder(Some(Arc::clone(&recorder)));
                let specs = (0..4usize)
                    .map(|i| {
                        let mut campaign = fleet_campaign(seed + i as u64, &plan, i);
                        campaign.set_recorder(Some(Arc::clone(&recorder)));
                        CampaignSpec {
                            id: format!("c{i}"),
                            campaign,
                        }
                    })
                    .collect();
                let report = supervisor.run(specs, plan.clone());
                let digest = report
                    .results
                    .iter()
                    .map(|(id, result)| match result.outcome() {
                        Some(outcome) => (id.clone(), Some(outcome.series.clone()), None),
                        None => {
                            (id.clone(), None, result.error().map(fleet::FleetError::tag))
                        }
                    })
                    .collect::<Vec<_>>();
                (
                    digest,
                    report.kills_injected,
                    report.corruptions_injected,
                    report.truncations_injected,
                    report.restarts,
                    report.rollbacks,
                    report.ticks,
                    format!("{:?}", report.quarantine),
                    recorder.trace_jsonl(),
                    recorder.counters(),
                )
            })
        };

        let serial = run(1);
        prop_assert!(serial.1 >= 2, "both scheduled kills must fire");
        for width in [2usize, 4] {
            let parallel = run(width);
            prop_assert_eq!(
                &serial,
                &parallel,
                "fleet must be observable-identical at width {}",
                width
            );
        }
    }
}
