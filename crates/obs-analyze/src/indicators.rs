//! Derived health indicators over a parsed trace: the questions a
//! multi-hour TM2 campaign operator actually asks — did retries storm,
//! how long did we sit in backoff, did the decay cache stop hitting, how
//! often did the classifier abstain — answered deterministically from
//! the content-ordered event log, plus wall-clock span percentiles when
//! a metrics snapshot is supplied.
//!
//! Determinism contract: every field derived from the trace is a pure
//! function of the event multiset, and both renderers (`to_json`,
//! `to_markdown`) iterate `BTreeMap`s and format floats with
//! [`obs::json_f64`]'s shortest-roundtrip rule — identical inputs yield
//! byte-identical reports. Span percentiles come from the metrics
//! snapshot's histogram buckets and inherit *its* determinism: the same
//! file always reports the same percentiles, but two runs of the same
//! workload time differently.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use obs::{json_f64, CampaignEvent, EventKind};

use crate::parse::MetricsSnapshot;

/// Schema version of the indicator report JSON.
pub const INDICATORS_SCHEMA_VERSION: u32 = 1;

/// A `(phase, route)` cell whose summed retry count exceeds this is
/// flagged as a retry storm. A healthy campaign retries a handful of
/// times per route per phase at most; five in one cell means the backoff
/// loop is spinning against a persistent failure.
pub const RETRY_STORM_THRESHOLD: f64 = 5.0;

/// One `(phase, route)` retry-accumulation cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RetryCellKey {
    /// Label of the enclosing phase (detail of the last `PhaseTransition`
    /// at or before the retry; `"(pre)"` before any transition).
    pub phase: String,
    /// Route the retries concern (`None` = campaign-wide).
    pub route: Option<u64>,
}

/// Wall-clock percentiles for one span histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of recorded spans.
    pub count: u64,
    /// Total wall seconds.
    pub seconds_total: f64,
    /// Bucketed p50 estimate (seconds).
    pub p50: f64,
    /// Bucketed p90 estimate (seconds).
    pub p90: f64,
    /// Bucketed p99 estimate (seconds).
    pub p99: f64,
}

/// The full indicator set derived from one run's artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Indicators {
    /// Total events in the trace.
    pub events: u64,
    /// Event count per kind — every kind, zeros included, rank order.
    pub kind_counts: BTreeMap<EventKind, u64>,
    /// Distinct route indices observed anywhere in the trace.
    pub routes_observed: u64,
    /// Summed `value` of all `Retry` events (the emitters put the retry
    /// count / attempt number there).
    pub retry_total: f64,
    /// Retries accumulated per `(phase, route)` cell.
    pub retry_cells: BTreeMap<RetryCellKey, f64>,
    /// Cells exceeding [`RETRY_STORM_THRESHOLD`].
    pub retry_storms: Vec<(RetryCellKey, f64)>,
    /// Number of `Backoff` events.
    pub backoff_events: u64,
    /// Summed simulated backoff seconds.
    pub backoff_seconds_total: f64,
    /// Summed cache-hit deltas.
    pub cache_hits: f64,
    /// Summed cache-miss deltas.
    pub cache_misses: f64,
    /// `hits / (hits + misses)`, when any cache traffic was seen.
    pub cache_hit_ratio: Option<f64>,
    /// Number of `Abstain` events.
    pub abstains: u64,
    /// `abstains / routes_observed`, when any route was seen.
    pub abstain_rate_per_route: Option<f64>,
    /// Summed quorum-failure counts.
    pub quorum_failures: f64,
    /// Number of measurement phases (`PhaseTransition` with detail
    /// `measure`).
    pub measure_phases: u64,
    /// `quorum_failures / measure_phases`, when any measurement ran.
    pub quorum_failures_per_measure_phase: Option<f64>,
    /// Events attributed to each phase label (a `PhaseTransition` opens
    /// its phase and is counted inside it).
    pub phase_events: BTreeMap<String, u64>,
    /// Span percentiles, present only when a metrics snapshot was given.
    pub spans: BTreeMap<String, SpanStats>,
}

/// Phase label assigned to events recorded before any `PhaseTransition`.
pub const PRE_PHASE: &str = "(pre)";

/// Name of the metrics-only histogram the fleet supervisor fills with
/// per-tick scheduler latencies, in **milliseconds**. Surfaced in the
/// spans table alongside the `span_seconds.*` histograms (its stats are
/// ms where theirs are seconds — the name carries the unit).
pub const FLEET_TICK_HISTOGRAM: &str = "fleet.tick_ms";

/// Extracts the spans table from a metrics snapshot: every
/// `span_seconds.*` histogram (stats in seconds) plus the fleet
/// scheduler's [`FLEET_TICK_HISTOGRAM`] (stats in milliseconds).
fn spans_from_metrics(metrics: &MetricsSnapshot) -> BTreeMap<String, SpanStats> {
    let mut spans = BTreeMap::new();
    for (name, hist) in &metrics.histograms {
        let short = match name.strip_prefix("span_seconds.") {
            Some(short) => short,
            None if name == FLEET_TICK_HISTOGRAM => name.as_str(),
            None => continue,
        };
        let q = |q: f64| hist.quantile(q).unwrap_or(0.0);
        spans.insert(
            short.to_owned(),
            SpanStats {
                count: hist.count,
                seconds_total: hist.sum,
                p50: q(0.50),
                p90: q(0.90),
                p99: q(0.99),
            },
        );
    }
    spans
}

/// Derives the indicator set from a trace (and optionally the matching
/// metrics snapshot, which contributes the wall-clock span percentiles).
/// The events may be in any order; derivation stable-sorts a copy by the
/// canonical content key, so attribution matches the Recorder's total
/// order, then folds each event through one accumulator.
#[must_use]
pub fn compute(events: &[CampaignEvent], metrics: Option<&MetricsSnapshot>) -> Indicators {
    let mut sorted: Vec<&CampaignEvent> = events.iter().collect();
    sorted.sort_by(|a, b| a.cmp_key(b));
    let mut acc = Accumulator::new();
    for event in sorted {
        acc.accumulate(event);
    }
    acc.report(metrics)
}

/// The indicator fold: per-`(phase, route)` retry cells, kind and phase
/// counters, cache and quorum tallies. Events must arrive in canonical
/// content order, which [`compute`] guarantees by sorting first, so
/// every floating-point sum is accumulated in one fixed order.
struct Accumulator {
    events: u64,
    kind_counts: BTreeMap<EventKind, u64>,
    routes: BTreeSet<u64>,
    retry_total: f64,
    retry_cells: BTreeMap<RetryCellKey, f64>,
    backoff_events: u64,
    backoff_seconds_total: f64,
    cache_hits: f64,
    cache_misses: f64,
    abstains: u64,
    quorum_failures: f64,
    measure_phases: u64,
    phase_events: BTreeMap<String, u64>,
    current_phase: String,
}

impl Accumulator {
    fn new() -> Self {
        Self {
            events: 0,
            // Every kind listed, zeros included.
            kind_counts: EventKind::ALL.into_iter().map(|k| (k, 0)).collect(),
            routes: BTreeSet::new(),
            retry_total: 0.0,
            retry_cells: BTreeMap::new(),
            backoff_events: 0,
            backoff_seconds_total: 0.0,
            cache_hits: 0.0,
            cache_misses: 0.0,
            abstains: 0,
            quorum_failures: 0.0,
            measure_phases: 0,
            phase_events: BTreeMap::new(),
            current_phase: PRE_PHASE.to_owned(),
        }
    }

    fn accumulate(&mut self, event: &CampaignEvent) {
        if event.kind == EventKind::PhaseTransition {
            self.current_phase = if event.detail.is_empty() {
                PRE_PHASE.to_owned()
            } else {
                event.detail.clone()
            };
            if event.detail == "measure" {
                self.measure_phases += 1;
            }
        }
        *self.kind_counts.entry(event.kind).or_insert(0) += 1;
        *self
            .phase_events
            .entry(self.current_phase.clone())
            .or_insert(0) += 1;
        if let Some(route) = event.route {
            self.routes.insert(route);
        }
        match event.kind {
            EventKind::Retry => {
                self.retry_total += event.value;
                let key = RetryCellKey {
                    phase: self.current_phase.clone(),
                    route: event.route,
                };
                *self.retry_cells.entry(key).or_insert(0.0) += event.value;
            }
            EventKind::Backoff => {
                self.backoff_events += 1;
                self.backoff_seconds_total += event.value;
            }
            EventKind::CacheHit => self.cache_hits += event.value,
            EventKind::CacheMiss => self.cache_misses += event.value,
            EventKind::Abstain => self.abstains += 1,
            EventKind::QuorumFailure => self.quorum_failures += event.value,
            _ => {}
        }
        self.events += 1;
    }

    fn report(self, metrics: Option<&MetricsSnapshot>) -> Indicators {
        let retry_storms: Vec<(RetryCellKey, f64)> = self
            .retry_cells
            .iter()
            .filter(|&(_, &total)| total > RETRY_STORM_THRESHOLD)
            .map(|(key, &total)| (key.clone(), total))
            .collect();
        let cache_traffic = self.cache_hits + self.cache_misses;
        let spans = metrics.map(spans_from_metrics).unwrap_or_default();
        Indicators {
            events: self.events,
            kind_counts: self.kind_counts,
            routes_observed: self.routes.len() as u64,
            retry_total: self.retry_total,
            retry_cells: self.retry_cells,
            retry_storms,
            backoff_events: self.backoff_events,
            backoff_seconds_total: self.backoff_seconds_total,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            cache_hit_ratio: (cache_traffic > 0.0).then(|| self.cache_hits / cache_traffic),
            abstains: self.abstains,
            abstain_rate_per_route: (!self.routes.is_empty())
                .then(|| self.abstains as f64 / self.routes.len() as f64),
            quorum_failures: self.quorum_failures,
            measure_phases: self.measure_phases,
            quorum_failures_per_measure_phase: (self.measure_phases > 0)
                .then(|| self.quorum_failures / self.measure_phases as f64),
            phase_events: self.phase_events,
            spans,
        }
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), json_f64)
}

impl Indicators {
    /// Whether any storm cell fired.
    #[must_use]
    pub fn has_retry_storm(&self) -> bool {
        !self.retry_storms.is_empty()
    }

    /// The report as one line of deterministic JSON (schema documented in
    /// EXPERIMENTS.md).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{INDICATORS_SCHEMA_VERSION},\"events\":{},\"kinds\":{{",
            self.events
        );
        for (n, (kind, count)) in self.kind_counts.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{count}", kind.as_str());
        }
        let _ = write!(
            out,
            "}},\"routes_observed\":{},\"retry\":{{\"total\":{},\"storm_threshold\":{},\"storms\":[",
            self.routes_observed,
            json_f64(self.retry_total),
            json_f64(RETRY_STORM_THRESHOLD),
        );
        for (n, (key, total)) in self.retry_storms.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"phase\":\"{}\",\"route\":{},\"retries\":{}}}",
                obs::escape_json(&key.phase),
                key.route
                    .map_or_else(|| "null".to_owned(), |r| r.to_string()),
                json_f64(*total),
            );
        }
        let _ = write!(
            out,
            "]}},\"backoff\":{{\"events\":{},\"seconds_total\":{}}},\"cache\":{{\"hits\":{},\"misses\":{},\"hit_ratio\":{}}},\"abstain\":{{\"events\":{},\"rate_per_route\":{}}},\"quorum\":{{\"failures\":{},\"measure_phases\":{},\"failures_per_measure_phase\":{}}},\"phases\":{{",
            self.backoff_events,
            json_f64(self.backoff_seconds_total),
            json_f64(self.cache_hits),
            json_f64(self.cache_misses),
            json_opt(self.cache_hit_ratio),
            self.abstains,
            json_opt(self.abstain_rate_per_route),
            json_f64(self.quorum_failures),
            self.measure_phases,
            json_opt(self.quorum_failures_per_measure_phase),
        );
        for (n, (phase, count)) in self.phase_events.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{count}", obs::escape_json(phase));
        }
        out.push_str("},\"spans\":{");
        for (n, (name, s)) in self.spans.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"seconds_total\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                obs::escape_json(name),
                s.count,
                json_f64(s.seconds_total),
                json_f64(s.p50),
                json_f64(s.p90),
                json_f64(s.p99),
            );
        }
        out.push_str("}}");
        out
    }

    /// The report as deterministic Markdown (golden-tested byte-for-byte
    /// against the checked-in mini-trace fixture).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("# Campaign health indicators\n\n");
        let _ = writeln!(out, "- events: {}", self.events);
        let _ = writeln!(out, "- routes observed: {}", self.routes_observed);
        let _ = writeln!(
            out,
            "- retry storm: {}",
            if self.has_retry_storm() { "YES" } else { "no" }
        );
        out.push_str("\n## Event kinds\n\n| kind | count |\n|---|---:|\n");
        for (kind, count) in &self.kind_counts {
            let _ = writeln!(out, "| {} | {count} |", kind.as_str());
        }
        out.push_str("\n## Retries & backoff\n\n");
        let _ = writeln!(
            out,
            "- retries (summed counts): {}",
            json_f64(self.retry_total)
        );
        let _ = writeln!(out, "- backoff events: {}", self.backoff_events);
        let _ = writeln!(
            out,
            "- backoff seconds (simulated): {}",
            json_f64(self.backoff_seconds_total)
        );
        let _ = writeln!(
            out,
            "- storm threshold: > {} retries per (phase, route)",
            json_f64(RETRY_STORM_THRESHOLD)
        );
        if self.retry_storms.is_empty() {
            out.push_str("- storms: none\n");
        } else {
            out.push_str("\n| phase | route | retries |\n|---|---|---:|\n");
            for (key, total) in &self.retry_storms {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} |",
                    key.phase,
                    key.route.map_or_else(|| "-".to_owned(), |r| r.to_string()),
                    json_f64(*total),
                );
            }
        }
        out.push_str("\n## Cache\n\n");
        let _ = writeln!(out, "- hits: {}", json_f64(self.cache_hits));
        let _ = writeln!(out, "- misses: {}", json_f64(self.cache_misses));
        let _ = writeln!(
            out,
            "- hit ratio: {}",
            self.cache_hit_ratio
                .map_or_else(|| "n/a".to_owned(), json_f64)
        );
        out.push_str("\n## Robustness\n\n");
        let _ = writeln!(out, "- abstains: {}", self.abstains);
        let _ = writeln!(
            out,
            "- abstain rate per route: {}",
            self.abstain_rate_per_route
                .map_or_else(|| "n/a".to_owned(), json_f64)
        );
        let _ = writeln!(out, "- quorum failures: {}", json_f64(self.quorum_failures));
        let _ = writeln!(out, "- measurement phases: {}", self.measure_phases);
        let _ = writeln!(
            out,
            "- quorum failures per measurement phase: {}",
            self.quorum_failures_per_measure_phase
                .map_or_else(|| "n/a".to_owned(), json_f64)
        );
        out.push_str("\n## Events per phase\n\n| phase | events |\n|---|---:|\n");
        for (phase, count) in &self.phase_events {
            let _ = writeln!(out, "| {phase} | {count} |");
        }
        if !self.spans.is_empty() {
            out.push_str(
                "\n## Spans (wall clock, from metrics)\n\n| span | n | total s | p50 | p90 | p99 |\n|---|---:|---:|---:|---:|---:|\n",
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    out,
                    "| {name} | {} | {} | {} | {} | {} |",
                    s.count,
                    json_f64(s.seconds_total),
                    json_f64(s.p50),
                    json_f64(s.p90),
                    json_f64(s.p99),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, at: f64) -> CampaignEvent {
        CampaignEvent::new(kind, at)
    }

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            event(EventKind::PhaseTransition, 0.0).detail("tm1:setup"),
            event(EventKind::SessionAcquired, 0.0)
                .value(7.0)
                .detail("attacker"),
            event(EventKind::PhaseTransition, 1.0)
                .value(0.0)
                .detail("measure"),
            event(EventKind::Retry, 1.0)
                .route(0)
                .value(2.0)
                .detail("measure"),
            event(EventKind::Retry, 1.0)
                .route(1)
                .value(6.0)
                .detail("measure"),
            event(EventKind::Backoff, 1.0)
                .route(1)
                .value(0.75)
                .detail("measure"),
            event(EventKind::CacheMiss, 1.0).value(4.0),
            event(EventKind::CacheHit, 2.0).value(12.0),
            event(EventKind::PhaseTransition, 2.0)
                .value(1.0)
                .detail("measure"),
            event(EventKind::QuorumFailure, 2.0).route(0).value(1.0),
            event(EventKind::Abstain, 3.0).route(1).value(0.4),
        ]
    }

    #[test]
    fn indicators_are_computed_and_storms_flagged() {
        let ind = compute(&sample_events(), None);
        assert_eq!(ind.events, 11);
        assert_eq!(ind.routes_observed, 2);
        assert_eq!(ind.retry_total, 8.0);
        assert_eq!(ind.backoff_seconds_total, 0.75);
        assert_eq!(ind.cache_hit_ratio, Some(0.75));
        assert_eq!(ind.abstains, 1);
        assert_eq!(ind.abstain_rate_per_route, Some(0.5));
        assert_eq!(ind.measure_phases, 2);
        assert_eq!(ind.quorum_failures_per_measure_phase, Some(0.5));
        // Only route 1's measure cell (6 retries) exceeds the default 5.
        assert_eq!(ind.retry_storms.len(), 1);
        assert_eq!(ind.retry_storms[0].0.route, Some(1));
        assert_eq!(ind.retry_storms[0].0.phase, "measure");
        assert!(ind.has_retry_storm());
        // Phase attribution: setup phase holds the transition + session.
        assert_eq!(ind.phase_events["tm1:setup"], 2);
        assert_eq!(ind.phase_events["measure"], 9);
    }

    #[test]
    fn reports_are_deterministic_under_event_reordering() {
        let forward = sample_events();
        let mut reversed = sample_events();
        reversed.reverse();
        let a = compute(&forward, None);
        let b = compute(&reversed, None);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_markdown(), b.to_markdown());
    }

    #[test]
    fn empty_trace_yields_empty_but_valid_reports() {
        let ind = compute(&[], None);
        assert_eq!(ind.events, 0);
        assert_eq!(ind.cache_hit_ratio, None);
        assert_eq!(ind.abstain_rate_per_route, None);
        assert!(ind.to_json().contains("\"hit_ratio\":null"));
        assert!(ind.to_markdown().contains("- hit ratio: n/a"));
        assert_eq!(
            ind.kind_counts.len(),
            EventKind::ALL.len(),
            "all kinds listed, zeros included"
        );
    }

    #[test]
    fn span_percentiles_come_from_metrics_only() {
        let r = obs::Recorder::new();
        for v in [0.001, 0.002, 0.004, 0.5] {
            r.observe("span_seconds.measure_batch", v);
        }
        r.observe("not_a_span", 1.0);
        let metrics = crate::parse::parse_metrics(&r.metrics_json()).expect("parses");
        let ind = compute(&[], Some(&metrics));
        assert_eq!(ind.spans.len(), 1);
        let s = &ind.spans["measure_batch"];
        assert!(!ind.spans.contains_key("not_a_span"));
        assert_eq!(s.count, 4);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= 0.5);
        let without = compute(&[], None);
        assert!(without.spans.is_empty());
    }

    #[test]
    fn fleet_tick_histogram_is_surfaced_in_the_spans_table() {
        let r = obs::Recorder::new();
        for v in [1.5, 2.0, 2.5, 40.0] {
            r.observe(FLEET_TICK_HISTOGRAM, v);
        }
        let metrics = crate::parse::parse_metrics(&r.metrics_json()).expect("parses");
        let ind = compute(&[], Some(&metrics));
        let s = &ind.spans[FLEET_TICK_HISTOGRAM];
        assert_eq!(s.count, 4);
        assert_eq!(s.seconds_total, 46.0, "stats carry the source unit (ms)");
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(ind.to_json().contains("\"fleet.tick_ms\""));
        assert!(ind.to_markdown().contains("fleet.tick_ms"));
    }
}
