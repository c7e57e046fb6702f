//! Serial ≡ parallel golden tests for the deterministic sweep engine.
//!
//! Every measurement and calibration draw comes from a counter-based
//! per-route stream (`tdc::stream_seed`), so the same experiment must be
//! byte-identical at every worker-pool width — and a checkpoint taken
//! under one width must resume bit-identically under another.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bti_physics::{Hours, LogicLevel};
use cloud::{FaultKind, FaultPlan, Provider, ProviderConfig};
use fleet::{CampaignResult, CampaignSpec, ChaosPlan, FleetConfig, Supervisor};
use pentimento::threat_model1::{self, ThreatModel1Config};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{
    Campaign, CampaignConfig, LabExperiment, LabExperimentConfig, MeasurementMode, Mission,
    RouteSeries,
};
use tdc::SensorFaultPlan;

/// Runs `f` on a worker pool of exactly `n` threads.
fn at_width<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("pool builds")
        .install(f)
}

#[test]
fn lab_experiment_is_identical_at_every_pool_width() {
    let config = LabExperimentConfig {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 2,
        burn_hours: 20,
        recovery_hours: 10,
        measure_every: 5,
        mode: MeasurementMode::Tdc,
        seed: 77,
    };
    let run = |width: usize| {
        let config = config.clone();
        at_width(width, move || {
            LabExperiment::new(config)
                .expect("experiment builds")
                .run()
                .expect("experiment runs")
        })
    };
    let serial = run(1);
    for width in [2, 4, 8] {
        let parallel = run(width);
        assert_eq!(
            serial.series, parallel.series,
            "lab series must be byte-identical at width {width}"
        );
    }
}

#[test]
fn tm1_driver_is_identical_at_every_pool_width() {
    let config = ThreatModel1Config {
        route_lengths_ps: vec![5_000.0],
        routes_per_length: 2,
        burn_hours: 20,
        measure_every: 2,
        mode: MeasurementMode::Tdc,
        seed: 78,
        measurement_repeats: 2,
    };
    let run = |width: usize| {
        let config = config.clone();
        at_width(width, move || {
            let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, 78));
            threat_model1::run(&mut provider, &config).expect("attack completes")
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.series, parallel.series);
    assert_eq!(serial.recovered, parallel.recovered);
    assert_eq!(serial.truth, parallel.truth);
}

#[test]
fn tm2_driver_is_identical_at_every_pool_width() {
    let config = ThreatModel2Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 2,
        victim_hours: 60,
        attack_hours: 10,
        condition_level: LogicLevel::Zero,
        mode: MeasurementMode::Tdc,
        seed: 79,
        measurement_repeats: 2,
        victim_hold_and_recover_hours: 0,
    };
    let run = |width: usize| {
        let config = config.clone();
        at_width(width, move || {
            let mut provider = Provider::new(ProviderConfig::aws_f1_like(2, 79));
            threat_model2::run(&mut provider, &config).expect("attack completes")
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.series, parallel.series);
    assert_eq!(serial.recovered, parallel.recovered);
}

fn hostile_tm1_campaign() -> Campaign {
    let config = ThreatModel1Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 2,
        burn_hours: 30,
        measure_every: 3,
        mode: MeasurementMode::Tdc,
        seed: 80,
        measurement_repeats: 2,
    };
    let campaign_config = CampaignConfig {
        fault_plan: FaultPlan::hostile(80, 0.02)
            .with_scheduled(Hours::new(12.0), FaultKind::Preemption),
        sensor_faults: SensorFaultPlan::noisy(80, 0.02),
        ..CampaignConfig::default()
    };
    Campaign::new(
        Provider::new(ProviderConfig::aws_f1_like(2, 80)),
        Mission::ThreatModel1(config),
        campaign_config,
    )
    .expect("campaign builds")
}

#[test]
fn hostile_campaign_is_identical_at_every_pool_width_including_stats() {
    let serial = at_width(1, || hostile_tm1_campaign().run().expect("completes"));
    let parallel = at_width(4, || hostile_tm1_campaign().run().expect("completes"));
    assert_eq!(serial.series, parallel.series);
    assert_eq!(serial.recovered, parallel.recovered);
    // The retry/backoff bookkeeping merges in route order, so even the
    // stats — including the f64 backoff total — are bit-identical.
    assert_eq!(serial.stats, parallel.stats);
}

#[test]
fn hostile_campaign_trace_is_identical_at_every_pool_width() {
    // One recorder per width; the campaign, its provider, and the sensor
    // layer all drain into it. Equal result bytes are not enough here —
    // the *telemetry* must be width-invariant too: every event is emitted
    // from serial merge points keyed by simulation content, and the trace
    // serializer sorts by that content key.
    let run = |width: usize| {
        at_width(width, || {
            let recorder = Arc::new(obs::Recorder::new());
            let mut campaign = hostile_tm1_campaign();
            campaign.set_recorder(Some(Arc::clone(&recorder)));
            let outcome = campaign.run().expect("completes");
            (outcome, recorder.trace_jsonl(), recorder.counters())
        })
    };
    let (serial_outcome, serial_trace, serial_counters) = run(1);
    assert!(
        !serial_trace.is_empty(),
        "a hostile campaign must emit events"
    );
    for width in [2, 4] {
        let (outcome, trace, counters) = run(width);
        assert_eq!(
            serial_outcome.series, outcome.series,
            "series must stay byte-identical with a recorder attached at width {width}"
        );
        assert_eq!(serial_outcome.stats, outcome.stats);
        assert_eq!(
            serial_trace, trace,
            "event trace must be byte-identical at width {width}"
        );
        assert_eq!(
            serial_counters, counters,
            "counters must agree at width {width}"
        );
    }

    // Attaching the recorder must not perturb the simulation at all:
    // the untraced run of the same campaign produces the same outcome.
    let untraced = at_width(1, || hostile_tm1_campaign().run().expect("completes"));
    assert_eq!(untraced.series, serial_outcome.series);
    assert_eq!(untraced.stats, serial_outcome.stats);
}

#[test]
fn hostile_campaign_trace_diffs_empty_across_pool_widths() {
    // The determinism contract is byte-identical traces: a repeat run and
    // every wider pool must reproduce width 1's trace byte for byte, and
    // the consumption path (strict parse) must accept it.
    let traced = |width: usize| {
        at_width(width, || {
            let recorder = Arc::new(obs::Recorder::new());
            let mut campaign = hostile_tm1_campaign();
            campaign.set_recorder(Some(Arc::clone(&recorder)));
            campaign.run().expect("completes");
            recorder.trace_jsonl()
        })
    };
    let serial = traced(1);
    let events = obs_analyze::parse_trace(&serial).expect("serial trace parses");
    assert!(!events.is_empty(), "hostile campaign must emit events");
    for width in [1, 2, 4] {
        assert_eq!(
            traced(width),
            serial,
            "width-{width} trace must equal the first width-1 trace byte for byte"
        );
    }
}

/// A unique scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "parallel-fleet-{}-{}",
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

/// Everything observable about one supervised fleet run.
#[derive(Debug, PartialEq)]
struct FleetObservation {
    /// Per campaign: its id, then its outcome's series or its error tag.
    results: Vec<(String, Result<Vec<RouteSeries>, &'static str>)>,
    completed: usize,
    kills: u64,
    corruptions: u64,
    restarts: u64,
    rollbacks: u64,
    quarantine: String,
    trace: String,
    counters: Vec<(String, u64)>,
}

/// Supervises `campaigns` TM1 campaigns under `plan` on a pool of
/// exactly `width` threads. Campaign `i` is seeded `seed + i`, burns
/// `burn_hours` under the plan's session weather, and checkpoints every
/// 4 h. One shared recorder drains both the supervisor events (tick
/// axis) and the campaign events (hour axis).
fn observe_fleet(
    width: usize,
    plan: &ChaosPlan,
    campaigns: usize,
    seed: u64,
    burn_hours: usize,
) -> FleetObservation {
    at_width(width, || {
        let scratch = Scratch::new();
        let recorder = Arc::new(obs::Recorder::new());
        let config = FleetConfig {
            checkpoint_every_hours: 4,
            ..FleetConfig::default()
        };
        let mut supervisor = Supervisor::new(&scratch.0, config).expect("store opens");
        supervisor.set_recorder(Some(Arc::clone(&recorder)));
        let specs = (0..campaigns)
            .map(|i| {
                let seed = seed + i as u64;
                let tm1 = ThreatModel1Config {
                    route_lengths_ps: vec![5_000.0],
                    routes_per_length: 2,
                    burn_hours,
                    measure_every: 4,
                    mode: MeasurementMode::Oracle,
                    seed,
                    measurement_repeats: 1,
                };
                let campaign_config = CampaignConfig {
                    fault_plan: plan.session_weather(i),
                    ..CampaignConfig::default()
                };
                let mut campaign = Campaign::new(
                    Provider::new(ProviderConfig::aws_f1_like(2, seed)),
                    Mission::ThreatModel1(tm1),
                    campaign_config,
                )
                .expect("campaign builds");
                campaign.set_recorder(Some(Arc::clone(&recorder)));
                CampaignSpec {
                    id: format!("c{i}"),
                    campaign,
                }
            })
            .collect();
        let report = supervisor.run(specs, plan.clone());
        FleetObservation {
            results: report
                .results
                .iter()
                .map(|(id, result)| {
                    let observed = match result {
                        CampaignResult::Completed(outcome) => Ok(outcome.series.clone()),
                        CampaignResult::Failed(error) => Err(error.tag()),
                    };
                    (id.clone(), observed)
                })
                .collect(),
            completed: report.completed(),
            kills: report.kills_injected,
            corruptions: report.corruptions_injected,
            restarts: report.restarts,
            rollbacks: report.rollbacks,
            quarantine: format!("{:?}", report.quarantine),
            trace: recorder.trace_jsonl(),
            counters: recorder.counters(),
        }
    })
}

#[test]
fn supervised_fleet_trace_is_identical_at_every_pool_width() {
    // A supervised fleet under process chaos — kills mid-phase, bit-rot
    // on every third envelope. The whole bundle must be byte-identical
    // at every width: outcome bytes, chaos accounting, quarantine
    // ledger, and the trace.
    let mut plan = ChaosPlan::none();
    plan.seed = 81;
    plan.scheduled_kills = vec![(0, 7), (1, 13)];
    plan.corrupt_rate_per_checkpoint = 0.33;
    let serial = observe_fleet(1, &plan, 2, 81, 20);
    assert!(serial.kills >= 2, "both scheduled kills must fire");
    assert!(
        !serial.trace.is_empty(),
        "a supervised fleet must emit events"
    );
    for width in [2, 4] {
        assert_eq!(
            serial,
            observe_fleet(width, &plan, 2, 81, 20),
            "supervised fleet must be observable-identical at width {width}"
        );
    }
}

#[test]
fn kill_only_fleet_is_identical_at_every_pool_width() {
    // A 4-campaign fleet, campaign `i` seeded `83 + i`, under kills alone:
    // campaign 1 dies twice and campaign 2 once, and each resumes by
    // replay while its neighbours keep stepping. Those campaigns' route
    // sweeps still fan out on the pool, so the kills, resumes and the
    // report must not depend on its width.
    let mut plan = ChaosPlan::none();
    plan.seed = 83;
    plan.scheduled_kills = vec![(1, 5), (2, 9), (1, 13)];
    let serial = observe_fleet(1, &plan, 4, 83, 16);
    assert_eq!(serial.completed, 4, "all campaigns must survive the kills");
    assert_eq!(serial.kills, 3, "all three scheduled kills must fire");
    for width in [2, 4] {
        assert_eq!(
            serial,
            observe_fleet(width, &plan, 4, 83, 16),
            "kill-only fleet must be observable-identical at width {width}"
        );
    }
}

#[test]
fn checkpoint_under_one_width_resumes_identically_under_another() {
    let reference = at_width(1, || hostile_tm1_campaign().run().expect("completes"));

    // Step half the campaign on a 4-wide pool, checkpoint, then resume
    // and finish serially: the per-route streams make the pool width
    // invisible to the result.
    let checkpoint = at_width(4, || {
        let mut campaign = hostile_tm1_campaign();
        for _ in 0..15 {
            campaign.step().expect("steps");
        }
        campaign.checkpoint()
    });
    let resumed = at_width(1, || {
        Campaign::resume(checkpoint)
            .expect("manifest validates")
            .run()
            .expect("completes")
    });
    assert_eq!(resumed.series, reference.series);
    assert_eq!(resumed.recovered, reference.recovered);
    assert_eq!(resumed.stats, reference.stats);
}
