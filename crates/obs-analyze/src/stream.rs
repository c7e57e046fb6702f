//! The indicator accumulator, fed incrementally.
//!
//! [`StreamingIndicators`] consumes a JSONL trace one chunk, line, or
//! event at a time and maintains every indicator accumulator — the
//! per-`(phase, route)` retry cells, the kind and phase counters, cache
//! and quorum tallies — incrementally, in O(distinct cells) memory. It
//! never materializes the event `Vec`, so fleet-scale traces stream
//! through a fixed-size buffer.
//!
//! It is also the only accumulator: batch [`crate::indicators::compute`]
//! is a stable sort followed by folding each event through the same
//! code, so streaming and batch reports agree by construction. The
//! property tests in `tests/streaming_cache.rs` still check that end to
//! end on arbitrary traces.
//!
//! Determinism contract (DESIGN.md §15): the input must already be in
//! the Recorder's canonical content order (`CampaignEvent::cmp_key`
//! non-decreasing — every artifact `trace_jsonl()` writes is). Batch
//! `compute` *stable-sorts* its input first; for an already-sorted
//! trace that sort is the identity permutation, so the streaming engine
//! accumulates in exactly the same event order and every floating-point
//! sum is bit-identical. An out-of-order line is rejected with a
//! line-numbered [`ParseError`] rather than silently reordered, and a
//! final partial (unterminated) line is rejected by [`finish`] instead
//! of being silently dropped.
//!
//! [`finish`]: StreamingIndicators::finish

use std::collections::{BTreeMap, BTreeSet};

use obs::{CampaignEvent, EventKind};

use crate::indicators::{spans_from_metrics, IndicatorConfig, Indicators, RetryCellKey, PRE_PHASE};
use crate::parse::{parse_trace_line, MetricsSnapshot, ParseError};

/// Incremental indicator state machine; see the module docs for the
/// contract. Feed bytes with [`push_chunk`], whole lines with
/// [`push_line`], then call [`finish`].
///
/// [`push_chunk`]: StreamingIndicators::push_chunk
/// [`push_line`]: StreamingIndicators::push_line
/// [`finish`]: StreamingIndicators::finish
#[derive(Debug)]
pub struct StreamingIndicators {
    retry_storm_threshold: f64,
    /// Bytes of the current incomplete line (chunk boundaries may fall
    /// anywhere, including inside a multi-byte UTF-8 sequence).
    pending: Vec<u8>,
    /// Complete lines consumed so far (1-based error positions).
    lines: usize,
    /// The previous event, for canonical-order enforcement.
    last: Option<CampaignEvent>,
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

impl StreamingIndicators {
    /// An empty engine with the given derivation tunables.
    #[must_use]
    pub fn new(config: &IndicatorConfig) -> Self {
        Self {
            retry_storm_threshold: config.retry_storm_threshold,
            pending: Vec::new(),
            lines: 0,
            last: None,
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

    /// Complete lines consumed so far.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// Feeds an arbitrary byte chunk: every `\n`-terminated line inside
    /// it is parsed and folded in; a trailing partial line is buffered
    /// until the next chunk (or rejected by [`finish`](Self::finish) if
    /// the input ends there). Chunk boundaries may fall anywhere.
    ///
    /// # Errors
    ///
    /// The first malformed, non-UTF-8, blank, or out-of-order line, with
    /// its 1-based position in the stream.
    pub fn push_chunk(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        let mut rest = chunk;
        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(pos);
            rest = &tail[1..];
            if self.pending.is_empty() {
                self.push_line_bytes(head)?;
            } else {
                self.pending.extend_from_slice(head);
                let line = std::mem::take(&mut self.pending);
                self.push_line_bytes(&line)?;
            }
        }
        self.pending.extend_from_slice(rest);
        Ok(())
    }

    fn push_line_bytes(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        let line = std::str::from_utf8(bytes).map_err(|e| {
            ParseError::at(
                self.lines + 1,
                e.valid_up_to() + 1,
                "trace line is not valid UTF-8",
            )
        })?;
        self.push_line(line)
    }

    /// Feeds one complete line (without its terminating newline).
    ///
    /// # Errors
    ///
    /// A schema violation positioned on this line, or an order violation
    /// when the line's event sorts before its predecessor under the
    /// Recorder's canonical content order.
    pub fn push_line(&mut self, line: &str) -> Result<(), ParseError> {
        let line_no = self.lines + 1;
        self.lines = line_no;
        if line.trim().is_empty() {
            return Err(ParseError::at(line_no, 1, "blank line in trace"));
        }
        let event = parse_trace_line(line).map_err(|e| e.on_jsonl_line(line_no))?;
        if !self.ingest(event) {
            return Err(ParseError::at(
                line_no,
                1,
                "breaks the Recorder's canonical event order (streaming derivation \
                 requires a trace_jsonl()-sorted input)",
            ));
        }
        Ok(())
    }

    /// Folds one event in; `false` means it violated canonical order
    /// (state for the event was not accumulated).
    fn ingest(&mut self, event: CampaignEvent) -> bool {
        if let Some(last) = &self.last {
            if last.cmp_key(&event) == std::cmp::Ordering::Greater {
                return false;
            }
        }
        self.accumulate(&event);
        self.last = Some(event);
        true
    }

    /// Folds one event into the indicator accumulators, trusting the
    /// caller for canonical order (batch `compute` sorts first).
    pub(crate) fn accumulate(&mut self, event: &CampaignEvent) {
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

    /// Seals the stream and assembles the [`Indicators`] report,
    /// optionally folding in span percentiles from a metrics snapshot.
    ///
    /// # Errors
    ///
    /// A line-numbered [`ParseError`] when the input ended inside an
    /// unterminated (newline-less) final line — a truncated artifact
    /// must fail loudly, not silently drop its tail.
    pub fn finish(self, metrics: Option<&MetricsSnapshot>) -> Result<Indicators, ParseError> {
        if !self.pending.is_empty() {
            return Err(ParseError::at(
                self.lines + 1,
                1,
                "unterminated final trace line (missing trailing newline; artifact truncated?)",
            ));
        }
        Ok(self.report(metrics))
    }

    /// Assembles the [`Indicators`] report from the accumulators.
    pub(crate) fn report(self, metrics: Option<&MetricsSnapshot>) -> Indicators {
        let retry_storms: Vec<(RetryCellKey, f64)> = self
            .retry_cells
            .iter()
            .filter(|&(_, &total)| total > self.retry_storm_threshold)
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
            retry_storm_threshold: self.retry_storm_threshold,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indicators::compute;
    use crate::parse::parse_trace;

    fn sample_trace() -> String {
        let r = obs::Recorder::new();
        r.event(CampaignEvent::new(EventKind::PhaseTransition, 0.0).detail("tm1:setup"));
        r.event(
            CampaignEvent::new(EventKind::PhaseTransition, 1.0)
                .value(0.0)
                .detail("measure"),
        );
        r.event(
            CampaignEvent::new(EventKind::Retry, 1.0)
                .route(1)
                .value(6.0)
                .detail("measure"),
        );
        r.event(CampaignEvent::new(EventKind::CacheMiss, 1.0).value(4.0));
        r.event(CampaignEvent::new(EventKind::CacheHit, 2.0).value(12.0));
        r.event(
            CampaignEvent::new(EventKind::Abstain, 3.0)
                .route(1)
                .value(0.4),
        );
        r.trace_jsonl()
    }

    #[test]
    fn streaming_matches_batch_on_a_recorder_trace() {
        let trace = sample_trace();
        let config = IndicatorConfig::default();
        let batch = compute(&parse_trace(&trace).expect("parses"), None, &config);
        let mut engine = StreamingIndicators::new(&config);
        for line in trace.lines() {
            engine.push_line(line).expect("line accepted");
        }
        let streamed = engine.finish(None).expect("finishes");
        assert_eq!(streamed, batch);
        assert_eq!(streamed.to_json(), batch.to_json());
        assert_eq!(streamed.to_markdown(), batch.to_markdown());
    }

    #[test]
    fn chunked_feed_is_boundary_invariant() {
        let trace = sample_trace();
        let config = IndicatorConfig::default();
        let mut whole = StreamingIndicators::new(&config);
        whole.push_chunk(trace.as_bytes()).expect("accepted");
        let whole = whole.finish(None).expect("finishes");
        // One byte at a time splits every line and every UTF-8 sequence.
        let mut tiny = StreamingIndicators::new(&config);
        for byte in trace.as_bytes() {
            tiny.push_chunk(&[*byte]).expect("accepted");
        }
        assert_eq!(tiny.finish(None).expect("finishes"), whole);
    }

    #[test]
    fn unterminated_final_line_is_rejected_with_its_line_number() {
        let trace = sample_trace();
        let truncated = &trace[..trace.len() - 1]; // drop the final newline
        let mut engine = StreamingIndicators::new(&IndicatorConfig::default());
        engine.push_chunk(truncated.as_bytes()).expect("accepted");
        let err = engine.finish(None).expect_err("must reject");
        assert_eq!(err.line, truncated.lines().count());
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn out_of_order_lines_are_rejected() {
        let trace = sample_trace();
        let mut lines: Vec<&str> = trace.lines().collect();
        let last = lines.len() - 1;
        lines.swap(0, last);
        let mut engine = StreamingIndicators::new(&IndicatorConfig::default());
        let mut result = Ok(());
        for line in lines {
            result = engine.push_line(line);
            if result.is_err() {
                break;
            }
        }
        let err = result.expect_err("must reject");
        assert!(err.message.contains("canonical event order"), "{err}");
    }
}
