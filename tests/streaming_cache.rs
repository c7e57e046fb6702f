//! Streaming/batch twin parity for the trace indicators (DESIGN.md §15).
//!
//! Batch `compute` folds a stable-sorted copy of the trace through the
//! streaming engine's accumulator, so the two derivations agree by
//! construction; these tests check the whole path end to end: for
//! arbitrary Recorder traces — fed line by line or re-chunked at
//! arbitrary byte boundaries, including mid-UTF-8 — the streamed
//! [`Indicators`] must be *byte-identical* to the batch `compute` in
//! both JSON and Markdown renderings.

use std::fs;
use std::path::PathBuf;

use obs::{CampaignEvent, EventKind, Recorder};
use obs_analyze::indicators::{compute, IndicatorConfig};
use obs_analyze::parse::{parse_metrics, parse_trace};
use obs_analyze::StreamingIndicators;
use proptest::prelude::*;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Renders an arbitrary event set the way every real artifact is made:
/// through a Recorder drain, which emits canonical content order.
fn trace_of(events: Vec<CampaignEvent>) -> String {
    let r = Recorder::new();
    for e in events {
        r.event(e);
    }
    r.trace_jsonl()
}

/// One arbitrary event. Values stay finite: `json_f64` renders
/// non-finite as `null`, so a NaN would not round-trip through the
/// artifact bytes and the canonical order of the *reparsed* trace could
/// differ from the Recorder's — the contract only covers what
/// `trace_jsonl()` can actually write.
fn arb_event() -> impl Strategy<Value = CampaignEvent> {
    (
        0usize..EventKind::ALL.len(),
        0.0f64..400.0,
        (any::<bool>(), 0u64..24),
        -16.0f64..64.0,
        prop_oneof![
            Just(String::new()),
            Just("measure".to_owned()),
            Just("tm1:burn".to_owned()),
            Just("result_cache:attack_tm1_burn50".to_owned()),
            // Multi-byte UTF-8 and JSON-escaped content: chunk splits
            // must survive landing inside `é`/`😀`/U+2028, and details
            // must survive the quote/backslash escaping round-trip.
            Just("é😀\u{2028}\"\\ tab\there".to_owned()),
        ],
    )
        .prop_map(|(kind, at, (has_route, route), value, detail)| {
            let mut event = CampaignEvent::new(EventKind::ALL[kind], at)
                .value(value)
                .detail(detail);
            if has_route {
                event = event.route(route);
            }
            event
        })
}

fn streamed_lines(trace: &str, config: &IndicatorConfig) -> obs_analyze::indicators::Indicators {
    let mut engine = StreamingIndicators::new(config);
    for line in trace.lines() {
        engine
            .push_line(line)
            .expect("canonical trace line accepted");
    }
    engine.finish(None).expect("terminated stream finishes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Line-by-line streaming equals batch on arbitrary Recorder
    /// traces — the struct, the JSON bytes, and the Markdown bytes.
    #[test]
    fn streaming_equals_batch_line_by_line(
        events in proptest::collection::vec(arb_event(), 0..60),
        threshold in 1.0f64..40.0,
    ) {
        let trace = trace_of(events);
        let config = IndicatorConfig { retry_storm_threshold: threshold };
        let batch = compute(&parse_trace(&trace).expect("parses"), None, &config);
        let streamed = streamed_lines(&trace, &config);
        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(streamed.to_json(), batch.to_json());
        prop_assert_eq!(streamed.to_markdown(), batch.to_markdown());
    }

    /// Chunk boundaries are invisible: re-chunking the same bytes at an
    /// arbitrary stride (splitting lines and multi-byte UTF-8 sequences
    /// alike) produces the identical report.
    #[test]
    fn streaming_is_chunk_boundary_invariant(
        events in proptest::collection::vec(arb_event(), 1..40),
        stride in 1usize..23,
    ) {
        let trace = trace_of(events);
        let config = IndicatorConfig::default();
        let batch = compute(&parse_trace(&trace).expect("parses"), None, &config);
        let mut engine = StreamingIndicators::new(&config);
        for chunk in trace.as_bytes().chunks(stride) {
            engine.push_chunk(chunk).expect("chunk accepted");
        }
        let streamed = engine.finish(None).expect("finishes");
        prop_assert_eq!(&streamed, &batch);
        prop_assert_eq!(streamed.to_json(), batch.to_json());
    }

    /// Dropping the final newline must always be rejected by `finish`,
    /// with the error positioned on the truncated line.
    #[test]
    fn truncated_tail_is_always_rejected(
        events in proptest::collection::vec(arb_event(), 1..20),
    ) {
        let trace = trace_of(events);
        let truncated = &trace[..trace.len() - 1];
        let mut engine = StreamingIndicators::new(&IndicatorConfig::default());
        engine.push_chunk(truncated.as_bytes()).expect("whole lines accepted");
        let err = engine.finish(None).expect_err("truncation must fail loudly");
        prop_assert_eq!(err.line, truncated.lines().count());
    }
}

/// Golden parity: on the checked-in fixture (trace + metrics snapshot),
/// the streaming engine must reproduce the batch Markdown golden file
/// byte-for-byte, spans included.
#[test]
fn streaming_matches_golden_fixture_with_metrics() {
    let trace = fixture("mini_trace.jsonl");
    let metrics = parse_metrics(&fixture("mini_metrics.json")).expect("fixture metrics parse");
    let config = IndicatorConfig::default();
    let batch = compute(
        &parse_trace(&trace).expect("parses"),
        Some(&metrics),
        &config,
    );
    let mut engine = StreamingIndicators::new(&config);
    engine
        .push_chunk(trace.as_bytes())
        .expect("fixture accepted");
    let streamed = engine.finish(Some(&metrics)).expect("finishes");
    assert_eq!(streamed, batch);
    assert_eq!(
        streamed.to_markdown(),
        fixture("mini_trace.indicators.md"),
        "streaming -md drifted from the golden report"
    );
    assert_eq!(streamed.to_json(), batch.to_json());
}

#[test]
fn blank_and_out_of_order_lines_carry_line_numbers() {
    let config = IndicatorConfig::default();
    let mut engine = StreamingIndicators::new(&config);
    engine
        .push_line(&CampaignEvent::new(EventKind::Retry, 5.0).value(2.0).json())
        .expect("first line accepted");
    let blank = engine.push_line("   ").expect_err("blank line rejected");
    assert_eq!(blank.line, 2);

    let mut engine = StreamingIndicators::new(&config);
    engine
        .push_line(&CampaignEvent::new(EventKind::Retry, 5.0).json())
        .expect("accepted");
    let out_of_order = engine
        .push_line(&CampaignEvent::new(EventKind::Retry, 1.0).json())
        .expect_err("regressing `at` breaks canonical order");
    assert_eq!(out_of_order.line, 2);
    assert!(
        out_of_order.message.contains("canonical event order"),
        "{out_of_order}"
    );
}
