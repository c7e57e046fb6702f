//! Chaos matrix for the crash-safe fleet supervisor.
//!
//! Sweeps a matrix of deterministic chaos schedules — process kills at
//! scheduled and random hours, checkpoint-envelope bit-rot and
//! truncation, hostile session weather, and a kill-9-shaped torn-store
//! crash — over small supervised fleets, asserting the crate's headline
//! invariant in every cell:
//!
//! * every campaign either **completes bit-identically** to an
//!   unsupervised reference run under the same session weather, or
//!   **fails with a typed `FleetError` plus a quarantine record** —
//!   there is no third outcome;
//! * the whole cell is **deterministic**: re-running it replays the
//!   same kills, the same recoveries, the same quarantine ledger, and a
//!   byte-identical telemetry trace;
//! * determinism holds **across rayon thread widths** (the supervisor
//!   is serial; per-route parallelism inside a campaign step is already
//!   width-stable), checked by trace and outcome equality at every
//!   width swept.
//!
//! Flags: `--smoke` shrinks the matrix for CI; `--threads N` caps the
//! widest pool swept (default 4); `--trace/--metrics PATH` drain the
//! supervisor + campaign telemetry of one run per cell into artifacts;
//! `--flight-dir DIR` seals every quarantined campaign's flight-recorder
//! dump under `DIR/<cell>/<campaign>.jsonl` (the default is each run's
//! scratch store, which is removed on drop). Dump *bodies* are part of
//! every cell digest regardless of the flag, so width-invariance and
//! replay determinism of the flight recorder are always gated.
//!
//! Artifact: `BENCH_chaos.json` (per-cell identity verdicts and chaos
//! accounting; `bit_identical`/`gate_passed` are gated by this bin's
//! exit code).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bench::{
    exit_by, fnv1a, path_from_args, save_artifact, threads_from_args, ObsSink, ShapeReport,
};
use cloud::{Provider, ProviderConfig};
use fleet::{CampaignSpec, ChaosPlan, FleetConfig, FleetReport, Supervisor};
use obs::Recorder;
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::{Campaign, CampaignConfig, CampaignOutcome, MeasurementMode, Mission};

/// A unique scratch store root, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chaos-suite-{}-{}",
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

/// One cell of the chaos matrix.
struct Cell {
    name: &'static str,
    fleet_size: usize,
    plan: ChaosPlan,
    config: FleetConfig,
    /// Whether the cell's chaos is survivable by construction, so every
    /// campaign completing is part of the gate. Cells with envelope
    /// corruption can deterministically exhaust their rollback headroom;
    /// there only the typed-failure-plus-quarantine invariant gates.
    expect_all_complete: bool,
    /// Whether the cell must produce at least one typed failure (the
    /// doomed cell proves the failure path is exercised, not vacuous).
    expect_failure: bool,
}

fn fleet_config(checkpoint_every: usize) -> FleetConfig {
    FleetConfig {
        checkpoint_every_hours: checkpoint_every,
        ..FleetConfig::default()
    }
}

fn matrix(smoke: bool, flight_dir: Option<&PathBuf>) -> Vec<Cell> {
    let mut cells = matrix_cells(smoke);
    // One stable per-cell flight directory when the flag asks for dumps
    // to survive the scratch stores; campaign ids repeat across cells,
    // so each cell gets its own subdirectory.
    if let Some(dir) = flight_dir {
        for cell in &mut cells {
            cell.config.flight_dir = Some(dir.join(cell.name));
        }
    }
    cells
}

fn matrix_cells(smoke: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    cells.push(Cell {
        name: "benign",
        fleet_size: if smoke { 2 } else { 3 },
        plan: ChaosPlan::none(),
        config: fleet_config(6),
        expect_all_complete: true,
        expect_failure: false,
    });
    let mut scheduled = ChaosPlan::none();
    scheduled.seed = 41;
    scheduled.scheduled_kills = if smoke {
        vec![(0, 5), (1, 11)]
    } else {
        vec![(0, 5), (1, 11), (2, 17), (0, 21)]
    };
    cells.push(Cell {
        name: "scheduled_kills",
        fleet_size: if smoke { 2 } else { 3 },
        plan: scheduled,
        config: fleet_config(6),
        expect_all_complete: true,
        expect_failure: false,
    });
    if !smoke {
        let mut random = ChaosPlan::none();
        random.seed = 101;
        random.kill_rate_per_hour = 0.05;
        cells.push(Cell {
            name: "random_kills",
            fleet_size: 3,
            plan: random,
            config: fleet_config(6),
            expect_all_complete: true,
            expect_failure: false,
        });
        let mut bitrot = ChaosPlan::none();
        bitrot.seed = 77;
        bitrot.scheduled_kills = vec![(0, 9), (1, 15), (2, 19)];
        bitrot.corrupt_rate_per_checkpoint = 0.4;
        cells.push(Cell {
            name: "kills_bitrot",
            fleet_size: 3,
            plan: bitrot,
            config: fleet_config(6),
            expect_all_complete: false,
            expect_failure: false,
        });
        let mut weather = ChaosPlan::none();
        weather.seed = 55;
        weather.scheduled_kills = vec![(1, 13)];
        weather.rent_failure_rate = 0.25;
        weather.preemption_rate_per_hour = 0.015;
        cells.push(Cell {
            name: "hostile_weather",
            fleet_size: 3,
            plan: weather,
            config: fleet_config(6),
            expect_all_complete: false,
            expect_failure: false,
        });
    }
    let mut torn = ChaosPlan::none();
    torn.seed = 63;
    torn.scheduled_kills = vec![(0, 9), (1, 13)];
    torn.truncate_rate_per_checkpoint = 0.4;
    cells.push(Cell {
        name: "kills_torn",
        fleet_size: 2,
        plan: torn,
        config: fleet_config(if smoke { 4 } else { 6 }),
        expect_all_complete: false,
        expect_failure: false,
    });
    // Doomed: every envelope is corrupted the instant it lands and there
    // is no rollback headroom, so the kill must end in a typed failure
    // with a quarantine record — the invariant's other half.
    let mut doomed = ChaosPlan::none();
    doomed.seed = 90;
    doomed.scheduled_kills = vec![(0, 7)];
    doomed.corrupt_rate_per_checkpoint = 1.0;
    cells.push(Cell {
        name: "doomed",
        fleet_size: 1,
        plan: doomed,
        config: FleetConfig {
            checkpoint_every_hours: 4,
            retain_generations: 1,
            ..FleetConfig::default()
        },
        expect_all_complete: false,
        expect_failure: true,
    });
    cells
}

fn campaign(seed: u64, plan: &ChaosPlan, index: usize, burn_hours: usize) -> Campaign {
    let tm1 = ThreatModel1Config {
        route_lengths_ps: vec![600.0, 1_200.0],
        routes_per_length: 4,
        burn_hours,
        measure_every: 4,
        mode: MeasurementMode::Oracle,
        seed,
        measurement_repeats: 1,
    };
    let config = CampaignConfig {
        fault_plan: plan.session_weather(index),
        ..CampaignConfig::default()
    };
    Campaign::new(
        Provider::new(ProviderConfig::aws_f1_like(2, seed)),
        Mission::ThreatModel1(tm1),
        config,
    )
    .expect("campaign builds")
}

fn specs(cell: &Cell, burn_hours: usize, recorder: Option<&Arc<Recorder>>) -> Vec<CampaignSpec> {
    (0..cell.fleet_size)
        .map(|i| {
            let mut c = campaign(500 + i as u64, &cell.plan, i, burn_hours);
            c.set_recorder(recorder.map(Arc::clone));
            CampaignSpec {
                id: format!("c{i}"),
                campaign: c,
            }
        })
        .collect()
}

/// The unsupervised reference outcomes: same campaigns, same session
/// weather, no supervisor and no process chaos.
fn references(cell: &Cell, burn_hours: usize) -> Vec<CampaignOutcome> {
    (0..cell.fleet_size)
        .map(|i| {
            campaign(500 + i as u64, &cell.plan, i, burn_hours)
                .run()
                .expect("reference completes")
        })
        .collect()
}

/// A compact, comparable digest of everything a run observed. The
/// flight entries are `(campaign, fnv1a(dump body))`, so flight-dump
/// byte drift across widths or replays breaks digest equality.
fn run_digest(report: &FleetReport, trace: &str, flights: &[(String, u64)]) -> String {
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
         quarantine={:?} ticks={} trace_bytes={} flight={:?}",
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
        trace.len(),
        flights
            .iter()
            .map(|(id, hash)| format!("{id}:{hash:016x}"))
            .collect::<Vec<_>>(),
    )
}

struct CellRun {
    report: FleetReport,
    trace: String,
    /// `(campaign, fnv1a(dump body))` per sealed flight dump.
    flights: Vec<(String, u64)>,
}

fn run_once(cell: &Cell, burn_hours: usize, recorder: Option<&Arc<Recorder>>) -> CellRun {
    let scratch = Scratch::new();
    let mut supervisor = Supervisor::new(&scratch.0, cell.config.clone()).expect("store opens");
    let effective = recorder
        .cloned()
        .unwrap_or_else(|| Arc::new(Recorder::new()));
    supervisor.set_recorder(Some(Arc::clone(&effective)));
    let report = supervisor.run(specs(cell, burn_hours, Some(&effective)), cell.plan.clone());
    let flights = supervisor
        .flight_dumps()
        .iter()
        .map(|(id, body)| (id.clone(), fnv1a(body.as_bytes())))
        .collect();
    CellRun {
        report,
        trace: effective.trace_jsonl(),
        flights,
    }
}

fn run_at_width(cell: &Cell, burn_hours: usize, width: usize) -> CellRun {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("thread pool")
        .install(|| run_once(cell, burn_hours, None))
}

struct CellRow {
    name: &'static str,
    bit_identical: bool,
    gate_passed: bool,
    completed: usize,
    failed: usize,
    kills: u64,
    restarts: u64,
    rollbacks: u64,
    corruptions: u64,
    truncations: u64,
    quarantined: usize,
}

fn claim_for(name: &str) -> &str {
    match name {
        "benign" => "benign fleet completes bit-identically at every width",
        "scheduled_kills" => "scheduled mid-phase kills recover bit-identically",
        "random_kills" => "random kills recover bit-identically",
        "kills_bitrot" => "envelope bit-rot rolls back or fails typed+quarantined",
        "hostile_weather" => "kills under hostile session weather stay bit-identical",
        "kills_torn" => "torn envelopes roll back or fail typed+quarantined",
        "doomed" => "unrecoverable store fails typed with a quarantine record",
        "torn_store_kill9" => {
            "kill-9 mid-commit recovers from the last good generation bit-identically"
        }
        other => other,
    }
}

/// Computes one matrix cell end to end — references, width sweep,
/// determinism replay, invariant evaluation — and returns the row plus
/// the shape check's observed string.
fn compute_cell(cell: &Cell, burn_hours: usize, widths: &[usize]) -> (CellRow, String) {
    let refs = references(cell, burn_hours);

    // Width sweep: the whole fleet run must be observable-identical at
    // every pool width.
    let runs: Vec<CellRun> = widths
        .iter()
        .map(|&w| run_at_width(cell, burn_hours, w))
        .collect();
    let base = &runs[0];
    let base_report = &base.report;
    let base_digest = run_digest(base_report, &base.trace, &base.flights);
    let width_identical = runs.iter().all(|run| {
        run.trace == base.trace && run_digest(&run.report, &run.trace, &run.flights) == base_digest
    });

    // Determinism: replaying the cell at the base width is byte-identical.
    let replay = run_at_width(cell, burn_hours, widths[0]);
    let deterministic = run_digest(&replay.report, &replay.trace, &replay.flights) == base_digest;

    // The invariant: completed-bit-identical or typed-error-plus-quarantine.
    let mut bit_identical = true;
    let mut typed_and_quarantined = true;
    for (index, (id, result)) in base_report.results.iter().enumerate() {
        match result.outcome() {
            Some(outcome) => {
                let reference = &refs[index];
                bit_identical &= outcome.series == reference.series
                    && outcome.recovered == reference.recovered
                    && outcome.truth == reference.truth;
            }
            None => {
                typed_and_quarantined &= base_report.quarantine.for_campaign(id).next().is_some();
            }
        }
    }
    bit_identical &= width_identical;

    // The observability half of the invariant: every quarantined
    // campaign sealed a flight dump (its last-N event black box).
    let flight_covered = base_report
        .quarantine
        .records()
        .iter()
        .all(|q| base.flights.iter().any(|(id, _)| *id == q.campaign));

    let completed = base_report.completed();
    let failed = base_report.failed();
    let mut gate = bit_identical && typed_and_quarantined && deterministic && flight_covered;
    gate &= base_report.failures_all_quarantined();
    if cell.expect_all_complete {
        gate &= failed == 0;
    }
    if cell.expect_failure {
        gate &= failed > 0;
    }

    let observed = format!(
        "{completed} completed / {failed} failed, kills {}, rollbacks {}, \
         deterministic {deterministic}, widths {widths:?} identical {width_identical}, \
         flight dumps {} (covered {flight_covered})",
        base_report.kills_injected,
        base_report.rollbacks,
        base.flights.len()
    );

    (
        CellRow {
            name: cell.name,
            bit_identical,
            gate_passed: gate,
            completed,
            failed,
            kills: base_report.kills_injected,
            restarts: base_report.restarts,
            rollbacks: base_report.rollbacks,
            corruptions: base_report.corruptions_injected,
            truncations: base_report.truncations_injected,
            quarantined: base_report.quarantine.len(),
        },
        observed,
    )
}

/// Runs one matrix cell, records its shape check, and, when
/// `--trace`/`--metrics` asks for it, feeds one more run into the sink.
fn run_cell(
    cell: &Cell,
    burn_hours: usize,
    widths: &[usize],
    report: &mut ShapeReport,
    sink_recorder: Option<&Arc<Recorder>>,
) -> CellRow {
    let (row, observed) = compute_cell(cell, burn_hours, widths);
    report.check(claim_for(cell.name), row.gate_passed, observed);

    // One more run feeding the shared obs sink, so the emitted trace
    // artifact carries every cell's supervisor events.
    if let Some(rec) = sink_recorder {
        let _ = run_once(cell, burn_hours, Some(rec));
    }
    row
}

/// The kill-9 torn-store scenario: a supervisor dies *during* a commit
/// (leftover `.tmp`) having also torn its newest committed generation;
/// the next incarnation's recovery scan must roll back to the last good
/// generation and still finish bit-identically.
fn compute_torn_store_kill9(burn_hours: usize) -> (CellRow, String) {
    let scratch = Scratch::new();
    let plan = ChaosPlan::none();
    let reference = references(
        &Cell {
            name: "torn_store_kill9",
            fleet_size: 1,
            plan: plan.clone(),
            config: fleet_config(4),
            expect_all_complete: true,
            expect_failure: false,
        },
        burn_hours,
    )
    .remove(0);

    // First incarnation: checkpoint at hours 0, 4, and 8, then die mid
    // commit of generation 3 — after tearing generation 2 the way a
    // power cut mid-writeback would.
    let mut live = campaign(500, &plan, 0, burn_hours);
    let store = fleet::CheckpointStore::open(&scratch.0).expect("store opens");
    for generation in 0..3u64 {
        store
            .commit("c0", generation, &live.checkpoint())
            .expect("commit succeeds");
        for _ in 0..4 {
            live.step().expect("step succeeds");
        }
    }
    store
        .interrupt_commit("c0", 3, &live.checkpoint())
        .expect("partial tmp lands");
    store.truncate("c0", 2, 0.5).expect("tear generation 2");
    drop(live); // kill -9

    // Second incarnation, sharing only the disk and the spec: recovery
    // scan → roll back over generation 2 → replay the spec to generation
    // 1 (hour 4) → bit-identical completion.
    let mut second = Supervisor::new(&scratch.0, fleet_config(4)).expect("store reopens");
    let fleet_report = second.run(
        vec![CampaignSpec {
            id: "c0".to_owned(),
            campaign: campaign(500, &plan, 0, burn_hours),
        }],
        plan.clone(),
    );
    let outcome = fleet_report.results[0].1.outcome();
    let identical =
        outcome.is_some_and(|o| o.series == reference.series && o.recovered == reference.recovered);
    let rolled_back = fleet_report.rollbacks >= 1;
    let gate = identical && rolled_back && fleet_report.completed() == 1;
    let observed = format!(
        "rollbacks {}, completed {}",
        fleet_report.rollbacks,
        fleet_report.completed()
    );
    (
        CellRow {
            name: "torn_store_kill9",
            bit_identical: identical,
            gate_passed: gate,
            completed: fleet_report.completed(),
            failed: fleet_report.failed(),
            kills: 1,
            restarts: fleet_report.restarts,
            rollbacks: fleet_report.rollbacks,
            corruptions: 0,
            truncations: 1,
            quarantined: fleet_report.quarantine.len(),
        },
        observed,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let max_threads = threads_from_args().unwrap_or(4).max(1);
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let burn_hours = if smoke { 16 } else { 24 };
    let mut widths = vec![1usize];
    let mut w = 2;
    while w <= max_threads && (!smoke || widths.len() < 2) {
        widths.push(w);
        w *= 2;
    }

    let sink = ObsSink::from_args();
    let sink_recorder = sink.as_ref().map(ObsSink::recorder);
    let flight_dir = path_from_args("flight-dir");
    let cells = matrix(smoke, flight_dir.as_ref());
    println!(
        "Chaos suite: {} matrix cell(s) + torn-store kill-9, {burn_hours}h campaigns, \
         widths {widths:?}, {hardware_threads} hardware thread(s)",
        cells.len()
    );

    let mut report = ShapeReport::new();
    let mut rows = Vec::new();
    for cell in &cells {
        let row = run_cell(
            cell,
            burn_hours,
            &widths,
            &mut report,
            sink_recorder.as_ref(),
        );
        println!(
            "  {:<16} completed {} / failed {}, kills {}, restarts {}, rollbacks {}, \
             quarantined {}, bit_identical {}, gate {}",
            row.name,
            row.completed,
            row.failed,
            row.kills,
            row.restarts,
            row.rollbacks,
            row.quarantined,
            row.bit_identical,
            row.gate_passed
        );
        rows.push(row);
    }
    let (row, observed) = compute_torn_store_kill9(burn_hours);
    report.check(claim_for(row.name), row.gate_passed, observed);
    println!(
        "  {:<16} completed {} / failed {}, rollbacks {}, bit_identical {}, gate {}",
        row.name, row.completed, row.failed, row.rollbacks, row.bit_identical, row.gate_passed
    );
    rows.push(row);

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"kernel\":\"{}\",\"bit_identical\":{},\"gate_passed\":{},",
                    "\"completed\":{},\"failed\":{},\"kills\":{},\"restarts\":{},",
                    "\"rollbacks\":{},\"corruptions\":{},\"truncations\":{},\"quarantined\":{}}}"
                ),
                r.name,
                r.bit_identical,
                r.gate_passed,
                r.completed,
                r.failed,
                r.kills,
                r.restarts,
                r.rollbacks,
                r.corruptions,
                r.truncations,
                r.quarantined
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"workload\":\"fleet_chaos_matrix\",\"smoke\":{},",
            "\"burn_hours\":{},\"rows\":[{}]}}"
        ),
        smoke,
        burn_hours,
        json_rows.join(",")
    );
    if let Ok(path) = save_artifact("BENCH_chaos.json", &json) {
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
