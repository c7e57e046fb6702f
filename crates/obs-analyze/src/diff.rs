//! Semantic trace diff: compares two campaign runs as *multisets of
//! events* under the Recorder's canonical content order, instead of
//! diffing trace bytes. Two runs that did the same campaign work produce
//! an empty diff even if the files were written by different pool widths
//! or interleavings; a run that retried more, abstained elsewhere, or
//! lost a checkpoint shows up as added/removed events plus per-kind and
//! per-indicator deltas.
//!
//! The diff itself is deterministic: events are ordered by
//! [`CampaignEvent::cmp_key`], maps are `BTreeMap`s, and floats render
//! via [`obs::json_f64`], so `to_json` is byte-identical for identical
//! inputs.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::{json_f64, CampaignEvent, EventKind};

use crate::indicators::{compute, IndicatorConfig, Indicators};
use crate::parse::MetricsSnapshot;

/// Schema version of the diff report JSON. Version 2 dropped v1's
/// `alert_deltas` object.
pub const DIFF_SCHEMA_VERSION: u32 = 2;

/// One scalar indicator that moved between base and candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorDelta {
    /// Indicator name (matches the indicator-report JSON field paths).
    pub name: &'static str,
    /// Value in the base run.
    pub base: f64,
    /// Value in the candidate run.
    pub candidate: f64,
}

/// The full semantic difference between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Event count in the base trace.
    pub base_events: u64,
    /// Event count in the candidate trace.
    pub candidate_events: u64,
    /// Events present in the candidate but not the base (multiset
    /// difference, in canonical order).
    pub added: Vec<CampaignEvent>,
    /// Events present in the base but not the candidate.
    pub removed: Vec<CampaignEvent>,
    /// Per-kind count change (candidate − base); zero entries omitted.
    pub kind_deltas: BTreeMap<EventKind, i64>,
    /// Counter changes from the metrics snapshots (candidate − base);
    /// empty unless both snapshots were supplied. Zero entries omitted.
    pub counter_deltas: BTreeMap<String, i64>,
    /// Scalar indicators that moved.
    pub indicator_deltas: Vec<IndicatorDelta>,
}

/// Compares two parsed traces (and optionally their metrics snapshots,
/// which contribute counter deltas). Input order does not matter: both
/// sides are sorted by the canonical content key first.
#[must_use]
pub fn diff(
    base: &[CampaignEvent],
    candidate: &[CampaignEvent],
    base_metrics: Option<&MetricsSnapshot>,
    candidate_metrics: Option<&MetricsSnapshot>,
) -> TraceDiff {
    let mut b: Vec<&CampaignEvent> = base.iter().collect();
    let mut c: Vec<&CampaignEvent> = candidate.iter().collect();
    b.sort_by(|x, y| x.cmp_key(y));
    c.sort_by(|x, y| x.cmp_key(y));

    // Two-pointer multiset difference over the shared total order. A tie
    // consumes one event from each side (multiplicity-aware), so k extra
    // copies of the same event on one side yield exactly k entries.
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < b.len() && j < c.len() {
        match b[i].cmp_key(c[j]) {
            Ordering::Equal => {
                i += 1;
                j += 1;
            }
            Ordering::Less => {
                removed.push(b[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                added.push(c[j].clone());
                j += 1;
            }
        }
    }
    removed.extend(b[i..].iter().map(|e| (*e).clone()));
    added.extend(c[j..].iter().map(|e| (*e).clone()));

    let mut kind_deltas: BTreeMap<EventKind, i64> = BTreeMap::new();
    for e in &added {
        *kind_deltas.entry(e.kind).or_insert(0) += 1;
    }
    for e in &removed {
        *kind_deltas.entry(e.kind).or_insert(0) -= 1;
    }
    kind_deltas.retain(|_, delta| *delta != 0);

    let mut counter_deltas: BTreeMap<String, i64> = BTreeMap::new();
    if let (Some(bm), Some(cm)) = (base_metrics, candidate_metrics) {
        for (name, &bv) in &bm.counters {
            let cv = cm.counters.get(name).copied().unwrap_or(0);
            let delta = cv as i64 - bv as i64;
            if delta != 0 {
                counter_deltas.insert(name.clone(), delta);
            }
        }
        for (name, &cv) in &cm.counters {
            if !bm.counters.contains_key(name) && cv != 0 {
                counter_deltas.insert(name.clone(), cv as i64);
            }
        }
    }

    let config = IndicatorConfig::default();
    let bi = compute(base, None, &config);
    let ci = compute(candidate, None, &config);
    let indicator_deltas = scalar_deltas(&bi, &ci);

    TraceDiff {
        base_events: base.len() as u64,
        candidate_events: candidate.len() as u64,
        added,
        removed,
        kind_deltas,
        counter_deltas,
        indicator_deltas,
    }
}

fn scalar_deltas(base: &Indicators, cand: &Indicators) -> Vec<IndicatorDelta> {
    let pairs: [(&'static str, f64, f64); 9] = [
        (
            "routes_observed",
            base.routes_observed as f64,
            cand.routes_observed as f64,
        ),
        ("retry.total", base.retry_total, cand.retry_total),
        (
            "backoff.events",
            base.backoff_events as f64,
            cand.backoff_events as f64,
        ),
        (
            "backoff.seconds_total",
            base.backoff_seconds_total,
            cand.backoff_seconds_total,
        ),
        ("cache.hits", base.cache_hits, cand.cache_hits),
        ("cache.misses", base.cache_misses, cand.cache_misses),
        ("abstain.events", base.abstains as f64, cand.abstains as f64),
        (
            "quorum.failures",
            base.quorum_failures,
            cand.quorum_failures,
        ),
        (
            "quorum.measure_phases",
            base.measure_phases as f64,
            cand.measure_phases as f64,
        ),
    ];
    pairs
        .into_iter()
        .filter(|(_, b, c)| b.to_bits() != c.to_bits())
        .map(|(name, base, candidate)| IndicatorDelta {
            name,
            base,
            candidate,
        })
        .collect()
}

impl TraceDiff {
    /// True when the two runs are semantically identical: same event
    /// multiset and (when metrics were supplied) same counters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.counter_deltas.is_empty()
    }

    /// The diff as one line of deterministic JSON (schema documented in
    /// EXPERIMENTS.md).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{DIFF_SCHEMA_VERSION},\"empty\":{},\"base_events\":{},\"candidate_events\":{},\"added\":[",
            self.is_empty(),
            self.base_events,
            self.candidate_events,
        );
        for (n, e) in self.added.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&e.json());
        }
        out.push_str("],\"removed\":[");
        for (n, e) in self.removed.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(&e.json());
        }
        out.push_str("],\"kind_deltas\":{");
        for (n, (kind, delta)) in self.kind_deltas.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{delta}", kind.as_str());
        }
        out.push_str("},\"counter_deltas\":{");
        for (n, (name, delta)) in self.counter_deltas.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{delta}", obs::escape_json(name));
        }
        out.push_str("},\"indicator_deltas\":[");
        for (n, d) in self.indicator_deltas.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"base\":{},\"candidate\":{}}}",
                d.name,
                json_f64(d.base),
                json_f64(d.candidate),
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, at: f64) -> CampaignEvent {
        CampaignEvent::new(kind, at)
    }

    fn base_run() -> Vec<CampaignEvent> {
        vec![
            event(EventKind::PhaseTransition, 0.0).detail("measure"),
            event(EventKind::Retry, 1.0)
                .route(3)
                .value(1.0)
                .detail("measure"),
            event(EventKind::CacheHit, 2.0).value(5.0),
            event(EventKind::CacheHit, 2.0).value(5.0),
        ]
    }

    #[test]
    fn identical_runs_diff_empty_regardless_of_order() {
        let base = base_run();
        let mut shuffled = base_run();
        shuffled.reverse();
        let d = diff(&base, &shuffled, None, None);
        assert!(d.is_empty(), "non-empty diff: {}", d.to_json());
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert!(d.kind_deltas.is_empty() && d.indicator_deltas.is_empty());
    }

    #[test]
    fn multiset_semantics_catch_duplicate_count_changes() {
        let base = base_run();
        let mut cand = base_run();
        cand.pop(); // one fewer copy of the duplicated CacheHit
        let d = diff(&base, &cand, None, None);
        assert!(!d.is_empty());
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.removed[0].kind, EventKind::CacheHit);
        assert_eq!(d.kind_deltas[&EventKind::CacheHit], -1);
        assert!(d
            .indicator_deltas
            .iter()
            .any(|x| x.name == "cache.hits" && x.base == 10.0 && x.candidate == 5.0));
    }

    #[test]
    fn added_and_removed_events_are_attributed() {
        let base = base_run();
        let mut cand = base_run();
        cand[1] = event(EventKind::Retry, 1.0)
            .route(4)
            .value(1.0)
            .detail("measure");
        let d = diff(&base, &cand, None, None);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.added[0].route, Some(4));
        assert_eq!(d.removed[0].route, Some(3));
        // Same kind on both sides: the per-kind delta cancels out, and
        // since both runs still observe exactly one route with the same
        // total retries, no scalar indicator moves — only the event
        // lists pinpoint *which* route changed.
        assert!(d.kind_deltas.is_empty());
        assert!(d.indicator_deltas.is_empty());
    }

    #[test]
    fn counter_deltas_require_both_metrics_snapshots() {
        let rb = obs::Recorder::new();
        rb.incr("faults_injected", 2);
        let rc = obs::Recorder::new();
        rc.incr("faults_injected", 5);
        rc.incr("checkpoints_written", 1);
        let bm = crate::parse::parse_metrics(&rb.metrics_json()).expect("base");
        let cm = crate::parse::parse_metrics(&rc.metrics_json()).expect("cand");
        let with = diff(&[], &[], Some(&bm), Some(&cm));
        assert_eq!(with.counter_deltas["faults_injected"], 3);
        assert_eq!(with.counter_deltas["checkpoints_written"], 1);
        assert!(!with.is_empty(), "counter drift counts as a difference");
        let without = diff(&[], &[], Some(&bm), None);
        assert!(without.counter_deltas.is_empty());
        assert!(without.is_empty());
    }

    #[test]
    fn diff_json_is_deterministic() {
        let base = base_run();
        let cand = base_run();
        let a = diff(&base, &cand, None, None).to_json();
        let b = diff(&base, &cand, None, None).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema_version\":2,\"empty\":true,"));
    }
}
