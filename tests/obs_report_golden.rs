//! Golden tests for the telemetry consumption layer: the checked-in
//! mini-trace fixture must parse strictly and produce byte-identical
//! reports.
//!
//! If the indicator format changes intentionally, regenerate with
//! `cargo run -q -p obs-analyze --example gen_fixtures` and commit the
//! diff.

use std::fs;
use std::path::PathBuf;

use obs_analyze::indicators::compute;
use obs_analyze::parse::{cross_check, first_order_violation, parse_metrics, parse_trace};

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
    assert_eq!(events.len(), 16);
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
    let report = compute(&events, Some(&metrics));
    assert_eq!(
        report.to_markdown(),
        fixture("mini_trace.indicators.md"),
        "indicators --md drifted from the golden report; if intentional, \
         regenerate with `cargo run -q -p obs-analyze --example gen_fixtures`"
    );
    // The JSON rendering is deterministic too (golden-free: two computes
    // must agree byte-for-byte).
    let again = compute(&events, Some(&metrics));
    assert_eq!(report.to_json(), again.to_json());
}
