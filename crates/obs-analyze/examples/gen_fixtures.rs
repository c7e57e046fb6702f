//! Regenerates the checked-in telemetry fixtures under `tests/fixtures/`
//! at the repository root:
//!
//! * `mini_trace.jsonl` — a small hand-designed campaign trace emitted
//!   through the real `obs::Recorder` (so ordering and float formatting
//!   are exactly what production produces), exercising phases, a retry
//!   storm, backoff, cache traffic, a quorum failure, an abstain, the
//!   fleet-supervisor kinds (circuit open, quarantine, recovery scan),
//!   and an escaped-quote detail string.
//! * `mini_metrics.json` — the matching metrics snapshot, with two
//!   deterministic `span_seconds.*` histograms.
//! * `mini_trace.indicators.md` — the golden Markdown indicator report
//!   for the pair, byte-compared by `tests/obs_report_golden.rs`.
//!
//! Run with: `cargo run -q -p obs-analyze --example gen_fixtures`
//! (only needed when the trace schema or report format changes; commit
//! the regenerated files and review the diff).

use std::fs;
use std::path::PathBuf;

use obs::{CampaignEvent, EventKind, Recorder};
use obs_analyze::indicators::compute;
use obs_analyze::parse::{parse_metrics, parse_trace};

fn main() {
    let r = Recorder::new();

    // Setup phase: acquire two sessions.
    r.event(CampaignEvent::new(EventKind::PhaseTransition, 0.0).detail("tm1:setup"));
    r.event(
        CampaignEvent::new(EventKind::SessionAcquired, 0.0)
            .value(3.0)
            .detail("attacker"),
    );
    r.event(
        CampaignEvent::new(EventKind::SessionAcquired, 0.0)
            .value(4.0)
            .detail("victim"),
    );

    // First measurement phase: a mild retry on route 0, a storm (6
    // retries) plus backoff on route 1, and some decay-cache traffic.
    r.event(CampaignEvent::new(EventKind::PhaseTransition, 1.0).detail("measure"));
    r.event(
        CampaignEvent::new(EventKind::CacheMiss, 1.0)
            .value(4.0)
            .detail("decay"),
    );
    r.event(
        CampaignEvent::new(EventKind::Retry, 1.0)
            .route(0)
            .value(2.0)
            .detail("measure"),
    );
    r.event(
        CampaignEvent::new(EventKind::Retry, 1.0)
            .route(1)
            .value(6.0)
            .detail("measure"),
    );
    r.event(
        CampaignEvent::new(EventKind::Backoff, 1.0)
            .route(1)
            .value(0.75)
            .detail("measure"),
    );

    // Second measurement phase: cache warm, one quorum failure.
    r.event(
        CampaignEvent::new(EventKind::PhaseTransition, 2.0)
            .value(1.0)
            .detail("measure"),
    );
    r.event(
        CampaignEvent::new(EventKind::CacheHit, 2.0)
            .value(12.0)
            .detail("decay"),
    );
    r.event(
        CampaignEvent::new(EventKind::QuorumFailure, 2.0)
            .route(0)
            .value(1.0)
            .detail("measure"),
    );

    // A supervised-fleet interlude: device 2's slot trips and is
    // quarantined, then a recovery scan finds one good generation.
    r.event(
        CampaignEvent::new(EventKind::CircuitOpen, 2.5)
            .value(2.0)
            .detail("device 2"),
    );
    r.event(
        CampaignEvent::new(EventKind::Quarantine, 2.5)
            .value(2.0)
            .detail("breaker open"),
    );
    r.event(
        CampaignEvent::new(EventKind::RecoveryScan, 2.75)
            .value(1.0)
            .detail("fleet startup"),
    );

    // Wrap-up: a checkpoint whose label needs JSON escaping, and one
    // low-confidence abstain.
    r.event(
        CampaignEvent::new(EventKind::CheckpointWrite, 3.0)
            .value(1.0)
            .detail("ckpt \"final\""),
    );
    r.event(
        CampaignEvent::new(EventKind::Abstain, 3.0)
            .route(1)
            .value(0.4)
            .detail("low confidence"),
    );

    // Deterministic span samples (fixtures must be byte-stable, so these
    // are fixed values, not wall-clock measurements).
    for v in [0.0011, 0.0012, 0.0040, 0.0041, 0.0900] {
        r.observe("span_seconds.measure_batch", v);
    }
    for v in [0.5, 0.6] {
        r.observe("span_seconds.burn_interval", v);
    }
    r.incr("faults_injected", 2);

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    fs::create_dir_all(&dir).expect("fixtures dir");

    let trace = r.trace_jsonl();
    let metrics = r.metrics_json();
    fs::write(dir.join("mini_trace.jsonl"), &trace).expect("write trace");
    fs::write(dir.join("mini_metrics.json"), &metrics).expect("write metrics");

    // Round-trip through the strict parser before rendering the golden
    // report, exactly as the golden test will.
    let events = parse_trace(&trace).expect("fixture trace parses");
    let snapshot = parse_metrics(&metrics).expect("fixture metrics parse");
    let report = compute(&events, Some(&snapshot)).to_markdown();
    fs::write(dir.join("mini_trace.indicators.md"), &report).expect("write golden report");

    println!("regenerated fixtures in {}", dir.display());
}
