//! Golden tests for the telemetry consumption layer: the checked-in
//! mini-trace fixture must produce byte-identical reports, and the
//! regression sentinel must hold its gate policy against the real
//! checked-in BENCH baseline bundle.
//!
//! If the indicator format changes intentionally, regenerate with
//! `cargo run -q -p obs-analyze --example gen_fixtures` and commit the
//! diff.

use std::fs;
use std::path::PathBuf;

use obs_analyze::indicators::{compute, IndicatorConfig};
use obs_analyze::parse::{cross_check, first_order_violation, parse_metrics, parse_trace};
use obs_analyze::sentinel::{evaluate, parse_baseline, parse_bench, GateStatus};
use obs_analyze::Value;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn mini_trace_fixture_round_trips_and_validates() {
    let trace = fixture("mini_trace.jsonl");
    let events = parse_trace(&trace).expect("fixture trace parses strictly");
    assert_eq!(events.len(), 17);
    assert_eq!(
        first_order_violation(&events),
        None,
        "fixture must be in canonical Recorder order"
    );
    let reemitted: String = events.iter().map(|e| e.json() + "\n").collect();
    assert_eq!(reemitted, trace, "re-encoding must reproduce the bytes");

    let metrics = parse_metrics(&fixture("mini_metrics.json")).expect("fixture metrics parse");
    assert_eq!(metrics.schema_version, obs::METRICS_SCHEMA_VERSION);
    cross_check(&events, &metrics).expect("trace and metrics must agree");
}

#[test]
fn indicator_markdown_report_is_byte_identical_to_golden() {
    let events = parse_trace(&fixture("mini_trace.jsonl")).expect("parses");
    let metrics = parse_metrics(&fixture("mini_metrics.json")).expect("parses");
    let report = compute(&events, Some(&metrics), &IndicatorConfig::default());
    assert_eq!(
        report.to_markdown(),
        fixture("mini_trace.indicators.md"),
        "indicators --md drifted from the golden report; if intentional, \
         regenerate with `cargo run -q -p obs-analyze --example gen_fixtures`"
    );
    // The JSON rendering is deterministic too (golden-free: two computes
    // must agree byte-for-byte).
    let again = compute(&events, Some(&metrics), &IndicatorConfig::default());
    assert_eq!(report.to_json(), again.to_json());
}

#[test]
fn sentinel_accepts_checked_in_baseline_against_itself() {
    let bundle_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_obs_baseline.json");
    let bundle = fs::read_to_string(&bundle_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", bundle_path.display()));
    let docs = parse_baseline(&bundle).expect("checked-in baseline parses");
    assert_eq!(
        docs.keys().collect::<Vec<_>>(),
        ["BENCH_chaos.json", "BENCH_fleet.json"],
        "baseline must track exactly the chaos and fleet BENCH artifacts"
    );
    let snaps = docs
        .iter()
        .map(|(name, doc)| (name.clone(), parse_bench(doc).expect("bench parses")))
        .collect();
    let report = evaluate(&snaps, &snaps);
    assert_eq!(
        report.regressions(),
        0,
        "the baseline must not regress against itself: {}",
        report.to_json()
    );
    assert!(
        report
            .gates
            .iter()
            .any(|g| g.status == GateStatus::Pass && g.field == "identical"),
        "the determinism claim must be among the evaluated gates"
    );
}

#[test]
fn sentinel_flags_synthetic_regression_in_checked_in_baseline() {
    let bundle = fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/BENCH_obs_baseline.json"),
    )
    .expect("baseline readable");
    let docs = parse_baseline(&bundle).expect("parses");
    let base = docs
        .iter()
        .map(|(name, doc)| (name.clone(), parse_bench(doc).expect("bench parses")))
        .collect();
    // Synthetically lose the parallel-determinism claim in the current
    // artifacts: the sentinel must exit the build.
    let regressed_bundle = bundle.replace("\"identical\":true", "\"identical\":false");
    assert_ne!(regressed_bundle, bundle, "fixture must contain the claim");
    let regressed = parse_baseline(&regressed_bundle)
        .expect("parses")
        .iter()
        .map(|(name, doc)| (name.clone(), parse_bench(doc).expect("bench parses")))
        .collect();
    let report = evaluate(&base, &regressed);
    assert!(
        report.regressions() > 0,
        "lost identity claim must regress: {}",
        report.to_json()
    );
    assert!(report
        .gates
        .iter()
        .any(|g| g.status == GateStatus::Regression && g.field == "identical"));
}

#[test]
fn baseline_bundle_embeds_artifacts_byte_faithfully() {
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bundle =
        fs::read_to_string(repo.join("results/BENCH_obs_baseline.json")).expect("baseline");
    let docs = parse_baseline(&bundle).expect("parses");
    for (name, doc) in &docs {
        // The raw-preserving JSON layer re-serializes every embedded
        // artifact with its original number spellings intact, so the
        // bundle never silently reformats the lineage it snapshots.
        let reparsed = Value::parse(&doc.to_json()).expect("re-parses");
        assert_eq!(reparsed.to_json(), doc.to_json(), "{name} drifted");
    }
}
