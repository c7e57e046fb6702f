//! Property tests for the producer/consumer round-trip contract: every
//! artifact the `obs` Recorder can emit must parse back through
//! `obs-analyze` losslessly — including details exercising the whole
//! RFC 8259 escaping surface (quotes, backslashes, control characters,
//! non-ASCII) and non-finite numeric payloads.

use obs::{CampaignEvent, EventKind, Recorder};
use obs_analyze::parse::{cross_check, first_order_violation, parse_metrics, parse_trace};
use proptest::prelude::*;

fn kind_from(index: u8) -> EventKind {
    EventKind::ALL[index as usize % EventKind::ALL.len()]
}

/// Byte palette deliberately centered on JSON's danger zone: `"`, `\`,
/// every C0 control character, DEL, and a few multi-byte code points.
fn detail_from(palette: &[u16]) -> String {
    palette
        .iter()
        .map(|&sel| match sel % 40 {
            0 => '"',
            1 => '\\',
            2 => '\u{8}',
            3 => '\u{c}',
            4 => '\n',
            5 => '\r',
            6 => '\t',
            7..=14 => char::from_u32(u32::from(sel % 32)).unwrap_or('?'),
            15 => '\u{7f}',
            16 => 'é',
            17 => '😀',
            18 => '\u{2028}',
            _ => char::from_u32(u32::from(b'a') + u32::from(sel % 26)).unwrap_or('z'),
        })
        .collect()
}

fn value_from(class: u8, magnitude: u8) -> f64 {
    match class {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -f64::from(magnitude) * 0.125,
        4 => f64::from(magnitude) * 1e-12,
        5 => f64::from(magnitude) * 1e9,
        _ => f64::from(magnitude),
    }
}

fn events_from(raw: Vec<(u8, u8, u8, u8, u8, Vec<u16>)>) -> Vec<CampaignEvent> {
    raw.into_iter()
        .map(|(at, kind, route, class, magnitude, palette)| {
            let mut e = CampaignEvent::new(kind_from(kind), f64::from(at) * 0.25)
                .value(value_from(class % 7, magnitude))
                .detail(detail_from(&palette));
            if route > 0 {
                e = e.route(u64::from(route) - 1);
            }
            e
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every trace the Recorder emits parses back strictly, in Recorder
    /// order, and re-encoding the parsed events reproduces the emitted
    /// bytes exactly. This is the producer/consumer contract CI's
    /// `obs_report validate` step relies on.
    #[test]
    fn every_emitted_trace_line_round_trips(
        raw in proptest::collection::vec(
            (0u8..100, 0u8..16, 0u8..5, 0u8..7, 0u8..250,
             proptest::collection::vec(0u16..80, 0..12)),
            0..40,
        ),
    ) {
        let r = Recorder::new();
        for e in events_from(raw) {
            r.event(e);
        }
        let trace = r.trace_jsonl();
        let parsed = parse_trace(&trace).expect("emitted trace must parse");
        prop_assert!(first_order_violation(&parsed).is_none(),
            "Recorder output must already be in canonical order");
        let reemitted: String = parsed.iter().map(|e| e.json() + "\n").collect();
        prop_assert_eq!(reemitted, trace, "re-encoding must be byte-identical");

        let metrics = parse_metrics(&r.metrics_json()).expect("emitted metrics must parse");
        prop_assert_eq!(cross_check(&parsed, &metrics), Ok(()),
            "trace and metrics must agree on event counts");
    }
}
