//! Width sweep for the fleet supervisor.
//!
//! Runs one ≥64-campaign fleet at increasing rayon pool widths and
//! proves the supervisor's headline claim: outcomes, telemetry traces,
//! and quarantine ledgers are byte-identical at every width swept. The
//! supervisor ticks its slots serially; the pool width reaches only the
//! campaigns' own per-route fan-out.
//!
//! Throughput (campaigns/sec) and p99 supervisor-tick latency are
//! reported per width; they are the one deliberately nondeterministic
//! output and are informational.
//!
//! Flags: `--smoke` trims the width sweep for CI (the fleet stays at
//! full size); `--threads N` caps the widest pool (default 4);
//! `--trace/--metrics PATH` drain one run's telemetry into artifacts.
//!
//! Artifact: `BENCH_fleet.json`. `identical` is gated by this bin's exit
//! code (a `false` fails the run on any hardware); `campaigns_per_sec` is
//! informational.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::{exit_by, save_artifact, threads_from_args, ObsSink, ShapeReport};
use cloud::{Provider, ProviderConfig};
use fleet::{CampaignSpec, ChaosPlan, FleetConfig, FleetReport, Supervisor};
use obs::Recorder;
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};

/// Fleet size: fixed at the acceptance floor even under `--smoke`, so CI
/// always proves the claim at scale.
const FLEET_SIZE: usize = 64;

/// A unique scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fleet-scaling-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Scheduled kills on every fourth campaign, at staggered hours — chaos
/// that is always survivable (no envelope damage), so completion itself
/// is part of the gate.
fn chaos_plan() -> ChaosPlan {
    let mut plan = ChaosPlan::none();
    plan.seed = 7;
    plan.scheduled_kills = (0..FLEET_SIZE)
        .filter(|index| index % 4 == 0)
        .map(|index| (index, 3 + (index / 4) % 5))
        .collect();
    plan
}

/// Builds the fleet: campaign `index` is seeded `900 + index`.
fn specs(plan: &ChaosPlan, recorder: Option<&Arc<Recorder>>) -> Vec<CampaignSpec> {
    (0..FLEET_SIZE)
        .map(|index| {
            let seed = 900 + index as u64;
            let tm1 = ThreatModel1Config {
                route_lengths_ps: vec![600.0],
                routes_per_length: 2,
                burn_hours: 10,
                measure_every: 5,
                mode: MeasurementMode::Oracle,
                seed,
                measurement_repeats: 1,
            };
            let config = CampaignConfig {
                fault_plan: plan.session_weather(index),
                ..CampaignConfig::default()
            };
            let mut campaign = Campaign::new(
                Provider::new(ProviderConfig::aws_f1_like(2, seed)),
                Mission::ThreatModel1(tm1),
                config,
            )
            .expect("campaign builds");
            campaign.set_recorder(recorder.map(Arc::clone));
            CampaignSpec {
                id: format!("c{index:02}"),
                campaign,
            }
        })
        .collect()
}

/// A compact, comparable digest of everything a fleet run observed.
fn run_digest(report: &FleetReport, trace: &str) -> String {
    let results: Vec<String> = report
        .results
        .iter()
        .map(|(id, result)| match result.outcome() {
            Some(outcome) => format!("{id}:ok:{}", outcome.metrics.accuracy),
            None => format!("{id}:err:{}", result.error().expect("failed").tag()),
        })
        .collect();
    format!(
        "results=[{}] kills={} corruptions={} truncations={} restarts={} rollbacks={} \
         quarantine={:?} ticks={} trace_bytes={}",
        results.join(","),
        report.kills_injected,
        report.corruptions_injected,
        report.truncations_injected,
        report.restarts,
        report.rollbacks,
        report
            .quarantine
            .records()
            .iter()
            .map(|q| format!("{}/{}", q.campaign, q.reason.tag()))
            .collect::<Vec<_>>(),
        report.ticks,
        trace.len()
    )
}

struct RunResult {
    report: FleetReport,
    trace: String,
    elapsed_s: f64,
    p99_tick_ms: f64,
}

fn p99_ms(latencies_s: &[f64]) -> f64 {
    if latencies_s.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies_s.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[index] * 1_000.0
}

fn run_once(plan: &ChaosPlan, recorder: Option<&Arc<Recorder>>) -> RunResult {
    let scratch = Scratch::new();
    let config = FleetConfig {
        checkpoint_every_hours: 4,
        ..FleetConfig::default()
    };
    let mut supervisor = Supervisor::new(&scratch.0, config).expect("store opens");
    let effective = recorder
        .cloned()
        .unwrap_or_else(|| Arc::new(Recorder::new()));
    supervisor.set_recorder(Some(Arc::clone(&effective)));
    let started = Instant::now();
    let report = supervisor.run(specs(plan, Some(&effective)), plan.clone());
    let elapsed_s = started.elapsed().as_secs_f64();
    let p99_tick_ms = p99_ms(supervisor.last_tick_latencies_s());
    RunResult {
        report,
        trace: effective.trace_jsonl(),
        elapsed_s,
        p99_tick_ms,
    }
}

fn run_at_width(plan: &ChaosPlan, width: usize) -> RunResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("thread pool")
        .install(|| run_once(plan, None))
}

struct Row {
    threads: usize,
    identical: bool,
    completed: usize,
    failed: usize,
    kills: u64,
    campaigns_per_sec: f64,
    p99_tick_ms: f64,
    arena_bytes_per_device: usize,
}

/// Runs the fleet at each width and folds each width into a
/// [`Row`]. Deterministic apart from the two wall-clock timing fields.
fn compute_sweep(widths: &[usize], plan: &ChaosPlan) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut base: Option<(String, String)> = None; // (digest, trace) at width 1
    for &width in widths {
        let run = run_at_width(plan, width);
        let digest = run_digest(&run.report, &run.trace);
        let identical = match &base {
            None => {
                base = Some((digest, run.trace.clone()));
                true
            }
            Some((base_digest, base_trace)) => digest == *base_digest && run.trace == *base_trace,
        };

        let completed = run.report.completed();
        let campaigns_per_sec = if run.elapsed_s > 0.0 {
            completed as f64 / run.elapsed_s
        } else {
            0.0
        };
        rows.push(Row {
            threads: width,
            identical,
            completed,
            failed: run.report.failed(),
            kills: run.report.kills_injected,
            campaigns_per_sec,
            p99_tick_ms: run.p99_tick_ms,
            arena_bytes_per_device: run.report.arena_bytes_per_device,
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let max_threads = threads_from_args().unwrap_or(4).max(1);
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut widths = vec![1usize];
    let mut w = 2;
    while w <= max_threads && (!smoke || widths.len() < 2) {
        widths.push(w);
        w *= 2;
    }

    let sink = ObsSink::from_args();
    let sink_recorder = sink.as_ref().map(ObsSink::recorder);
    println!(
        "Fleet scaling: {FLEET_SIZE} campaigns, widths {widths:?}, \
         {hardware_threads} hardware thread(s)"
    );

    let plan = chaos_plan();
    let expected_kills = plan.scheduled_kills.len() as u64;

    let mut report = ShapeReport::new();
    let rows = compute_sweep(&widths, &plan);

    let mut all_identical = true;
    let mut all_complete = true;
    for r in &rows {
        all_identical &= r.identical;
        all_complete &= r.completed == FLEET_SIZE && r.kills == expected_kills;
        println!(
            "  threads {}: {} completed / {} failed, kills {}, \
             {:.1} campaigns/sec, p99 tick {:.3} ms, arena {} KiB/device, \
             identical {}",
            r.threads,
            r.completed,
            r.failed,
            r.kills,
            r.campaigns_per_sec,
            r.p99_tick_ms,
            r.arena_bytes_per_device / 1024,
            r.identical
        );
    }

    report.check(
        "fleet outcomes, traces, and quarantine ledgers are bit-identical across widths",
        all_identical,
        format!("widths {widths:?}"),
    );
    report.check(
        format!("all {FLEET_SIZE} campaigns complete under {expected_kills} scheduled kills"),
        all_complete,
        format!(
            "completed {:?}",
            rows.iter().map(|r| r.completed).collect::<Vec<_>>()
        ),
    );
    // The SoA aging arena is append-only, so the completion-time read is
    // each campaign's peak; the figure must be nonzero and width-invariant
    // (arena growth is per-campaign work, untouched by the pool width).
    report.check(
        "peak arena bytes-per-device is nonzero and identical across widths",
        rows.first().is_some_and(|first| {
            first.arena_bytes_per_device > 0
                && rows
                    .iter()
                    .all(|r| r.arena_bytes_per_device == first.arena_bytes_per_device)
        }),
        format!(
            "bytes {:?}",
            rows.iter()
                .map(|r| r.arena_bytes_per_device)
                .collect::<Vec<_>>()
        ),
    );

    // One more run feeding the shared obs sink, so the emitted trace
    // carries the scheduler_tick/commit_batch event stream CI validates.
    if let Some(rec) = &sink_recorder {
        let _ = run_once(&plan, Some(rec));
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"threads\":{},\"identical\":{},",
                    "\"campaigns\":{},\"completed\":{},\"failed\":{},",
                    "\"campaigns_per_sec\":{},\"p99_tick_ms\":{},",
                    "\"arena_bytes_per_device\":{}}}"
                ),
                r.threads,
                r.identical,
                FLEET_SIZE,
                r.completed,
                r.failed,
                obs::json_f64(r.campaigns_per_sec),
                obs::json_f64(r.p99_tick_ms),
                r.arena_bytes_per_device
            )
        })
        .collect();
    let json = format!(
        "{{\"workload\":\"fleet_scaling\",\"smoke\":{},\"fleet_size\":{},\"rows\":[{}]}}",
        smoke,
        FLEET_SIZE,
        json_rows.join(",")
    );
    if let Ok(path) = save_artifact("BENCH_fleet.json", &json) {
        println!("wrote {}", path.display());
    }
    if let Some(sink) = &sink {
        report.check(
            "observability artifacts written",
            sink.finish().is_ok(),
            "trace/metrics flags",
        );
    }
    exit_by(report.finish());
}
