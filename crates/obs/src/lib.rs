//! Campaign observability: counters, histograms, span timers, and a
//! structured event log with a *deterministic* drain order.
//!
//! The attack pipeline is deliberately bit-identical across thread-pool
//! widths (see `tests/parallel_determinism.rs` at the workspace root), and
//! its telemetry must be too — otherwise a trace diff between a serial and
//! a parallel run would drown real regressions in interleaving noise. The
//! [`Recorder`] therefore follows an ordered-merge discipline: ingestion
//! is thread-safe and order-free, and every read side (trace lines,
//! metric snapshots, the summary table) sorts by a total, value-derived
//! key before presenting anything. Two runs that record the same
//! *multiset* of events produce byte-identical traces, no matter how
//! their worker threads interleaved.
//!
//! Determinism contract, in detail:
//!
//! * [`CampaignEvent`]s are ordered by `(at, route, kind, value, detail)`
//!   with `f64::total_cmp` — a total order on event *content*, never on
//!   arrival time.
//! * Counters and histograms drain in name order (`BTreeMap`).
//! * Wall-clock durations (from [`Span`] timers) are nondeterministic by
//!   nature, so they flow **only** into the metrics snapshot, never into
//!   the event log: trace files stay comparable bit-for-bit, metrics files
//!   carry the timing detail.
//!
//! The crate is std-only (no dependencies, matching the workspace's
//! vendored-stub policy) and hand-rolls its JSON the same way
//! `pentimento::Campaign::manifest_json` does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Schema version stamped into every [`Recorder::metrics_json`] snapshot.
///
/// Version history:
///
/// * **1** — the PR-4 shape: `counters`, `histograms`, `events`,
///   `event_kinds` (no `schema_version` key; consumers must treat a
///   missing key as version 1).
/// * **2** — adds the explicit `schema_version` key itself.
/// * **3** — the fleet-supervisor kinds (`circuit_open`, `circuit_close`,
///   `quarantine`, `recovery_scan`) may now appear in `event_kinds`;
///   version-2 parsers would reject them as unknown, so their arrival is
///   a schema bump even though the object shape is unchanged.
/// * **4** — the fleet-scheduler kinds (`scheduler_tick`,
///   `commit_batch`) may now appear in `event_kinds`; same reasoning as
///   the version-3 bump.
/// * **5** — the observability-loop kinds (`alert_raised`,
///   `alert_cleared`, `flight_dump`, `health_snapshot`) may now appear
///   in `event_kinds`; same reasoning as the version-3 bump.
/// * **6** — retires `alert_raised`, `alert_cleared` and
///   `health_snapshot` along with the alert engine and the fleet
///   dashboard. A version-5 artifact that names one of them in
///   `event_kinds` is rejected as an unknown kind, not silently read;
///   a version-5 artifact without them still parses.
/// * **7** — retires `circuit_close` along with the fleet breaker's
///   cooldown and half-open probe, which no run could reach. A
///   version-6 artifact that names it in `event_kinds` is rejected as an
///   unknown kind, not silently read; a version-6 artifact without it
///   still parses.
///
/// The analysis layer (`obs-analyze`) accepts version N and N−1, so a
/// schema bump here must keep one generation of old artifacts readable.
pub const METRICS_SCHEMA_VERSION: u32 = 7;

/// Schema version of the JSONL trace line shape (the five-key
/// `at`/`kind`/`route`/`value`/`detail` object emitted by
/// [`CampaignEvent::json`]). Trace lines carry no version key — the shape
/// itself is the contract, pinned by the strict parser in `obs-analyze` —
/// so this constant exists for consumers to report what they implement.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Counter incremented by [`Recorder::observe`] whenever a non-finite
/// sample (NaN, ±∞) is dropped instead of being ingested into a
/// histogram. Mirrors the `roc_curve_counted` convention: degenerate
/// inputs are counted, never silently folded into totals.
pub const NON_FINITE_DROPPED_COUNTER: &str = "histogram_non_finite_dropped";

/// Every kind of structured event the campaign stack can emit.
///
/// The discriminant order is part of the determinism contract: events that
/// tie on `(at, route)` sort by this enum's declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A pipeline stage boundary (setup, arm, measure, classify, ...).
    PhaseTransition,
    /// A cloud rental session was acquired.
    SessionAcquired,
    /// A cloud rental session was released.
    SessionReleased,
    /// A device fingerprint was captured or matched during reacquisition.
    FingerprintVerified,
    /// A transient failure triggered another attempt.
    Retry,
    /// A retry slept for a deterministic jittered backoff.
    Backoff,
    /// The provider injected a fault (scheduled or stochastic).
    FaultInjected,
    /// A robust measurement lost too many traces to reach quorum.
    QuorumFailure,
    /// A classifier declined to call a bit.
    Abstain,
    /// A campaign checkpoint manifest was sealed.
    CheckpointWrite,
    /// Decay-cache lookups served from a memoized kernel.
    CacheHit,
    /// Decay-cache lookups that had to derive a fresh kernel.
    CacheMiss,
    /// A fleet supervisor slot failed three times in a row and tripped.
    CircuitOpen,
    /// A device (or campaign) was quarantined by the fleet supervisor.
    Quarantine,
    /// The fleet supervisor scanned its checkpoint store on startup.
    RecoveryScan,
    /// The fleet supervisor started a tick (value = live slots).
    SchedulerTick,
    /// The fleet supervisor landed a tick's batched checkpoint commit
    /// (value = checkpoints in the batch).
    CommitBatch,
    /// A flight-recorder ring buffer was sealed to a post-mortem
    /// artifact (value = events in the dump, detail = campaign id).
    FlightDump,
}

impl EventKind {
    /// All kinds, in rank order.
    pub const ALL: [EventKind; 18] = [
        EventKind::PhaseTransition,
        EventKind::SessionAcquired,
        EventKind::SessionReleased,
        EventKind::FingerprintVerified,
        EventKind::Retry,
        EventKind::Backoff,
        EventKind::FaultInjected,
        EventKind::QuorumFailure,
        EventKind::Abstain,
        EventKind::CheckpointWrite,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::CircuitOpen,
        EventKind::Quarantine,
        EventKind::RecoveryScan,
        EventKind::SchedulerTick,
        EventKind::CommitBatch,
        EventKind::FlightDump,
    ];

    /// Stable wire name used in JSONL traces and the summary table.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::PhaseTransition => "phase_transition",
            EventKind::SessionAcquired => "session_acquired",
            EventKind::SessionReleased => "session_released",
            EventKind::FingerprintVerified => "fingerprint_verified",
            EventKind::Retry => "retry",
            EventKind::Backoff => "backoff",
            EventKind::FaultInjected => "fault_injected",
            EventKind::QuorumFailure => "quorum_failure",
            EventKind::Abstain => "abstain",
            EventKind::CheckpointWrite => "checkpoint_write",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CircuitOpen => "circuit_open",
            EventKind::Quarantine => "quarantine",
            EventKind::RecoveryScan => "recovery_scan",
            EventKind::SchedulerTick => "scheduler_tick",
            EventKind::CommitBatch => "commit_batch",
            EventKind::FlightDump => "flight_dump",
        }
    }
}

/// Error returned when a string is not one of the 18 wire names in
/// [`EventKind::as_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEventKindError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseEventKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown event kind {:?}", self.input)
    }
}

impl std::error::Error for ParseEventKindError {}

impl std::str::FromStr for EventKind {
    type Err = ParseEventKindError;

    /// Inverse of [`EventKind::as_str`]: the single source of truth for
    /// the snake_case wire names, so trace consumers (`obs-analyze`)
    /// cannot drift from the emitter.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EventKind::ALL
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| ParseEventKindError {
                input: s.to_owned(),
            })
    }
}

/// One structured event. The fields *are* the sort key: events carry no
/// arrival timestamp, so identical content is interchangeable and the
/// drained order is a pure function of the recorded multiset.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEvent {
    /// Campaign-time coordinate (hours into the attack, or a phase index)
    /// — the major sort key. Must be deterministic; never wall-clock.
    pub at: f64,
    /// Route index the event concerns, if any (`None` sorts first).
    pub route: Option<u64>,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific magnitude (retry count, backoff seconds, cache-hit
    /// delta, device id, ...). `0.0` when meaningless.
    pub value: f64,
    /// Free-form label (phase name, fault kind, operation).
    pub detail: String,
}

impl CampaignEvent {
    /// A minimal event of `kind` at campaign time `at`.
    #[must_use]
    pub fn new(kind: EventKind, at: f64) -> Self {
        Self {
            at,
            route: None,
            kind,
            value: 0.0,
            detail: String::new(),
        }
    }

    /// Tags the event with a route index.
    #[must_use]
    pub fn route(mut self, route: u64) -> Self {
        self.route = Some(route);
        self
    }

    /// Attaches a magnitude.
    #[must_use]
    pub fn value(mut self, value: f64) -> Self {
        self.value = value;
        self
    }

    /// Attaches a label.
    #[must_use]
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// The total content order used by every drain.
    #[must_use]
    pub fn cmp_key(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.route.cmp(&other.route))
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.value.total_cmp(&other.value))
            .then_with(|| self.detail.cmp(&other.detail))
    }

    /// One JSONL trace line (no trailing newline).
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"at\":");
        out.push_str(&json_f64(self.at));
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"route\":");
        match self.route {
            Some(r) => {
                let _ = write!(out, "{r}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"value\":");
        out.push_str(&json_f64(self.value));
        out.push_str(",\"detail\":\"");
        out.push_str(&escape_json(&self.detail));
        out.push_str("\"}");
        out
    }
}

/// Formats an `f64` as a JSON value; non-finite values become `null`
/// (JSON has no NaN/Inf). Rust's shortest-roundtrip `Display` is
/// deterministic, so equal bit patterns always print identically.
/// Public so the analysis layer emits numbers byte-identically to the
/// recorder.
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in a JSON string literal per RFC 8259:
/// `"` and `\` get a backslash escape, the common control characters use
/// their short forms, and every other control character (U+0000–U+001F)
/// becomes a `\u00XX` escape. Everything else — including non-ASCII —
/// passes through verbatim. Public so the analysis layer's reports quote
/// details exactly the way the recorder does.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Log-scaled histogram: power-of-two buckets over `2^-24 .. 2^39`, with
/// exact count/sum/min/max alongside. Good enough resolution for both
/// sub-microsecond span timings and multi-hour backoff totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest observation (`f64::NEG_INFINITY` when empty).
    pub max: f64,
    buckets: [u64; Histogram::BUCKETS],
}

impl Histogram {
    const BUCKETS: usize = 64;
    /// Bucket 0 holds everything `<= 2^-24`; bucket `i` holds
    /// `(2^(i-25), 2^(i-24)]`.
    const OFFSET: i32 = 24;

    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; Self::BUCKETS],
        }
    }

    fn bucket_index(v: f64) -> usize {
        // NaN and non-positive values (incomparable or <= 0) land in
        // bucket 0, as do non-finite positives.
        if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !v.is_finite() {
            return 0;
        }
        let exp = v.log2().ceil() as i32 + Self::OFFSET;
        exp.clamp(0, Self::BUCKETS as i32 - 1) as usize
    }

    /// Ingests one sample. Non-finite samples (NaN, ±∞) are dropped —
    /// a single Inf would poison `sum` and `max` forever, and NaN would
    /// make `min`/`max` order-dependent. Returns whether the sample was
    /// ingested so callers can count the drops.
    fn observe(&mut self, v: f64) -> bool {
        if !v.is_finite() {
            return false;
        }
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buckets[Self::bucket_index(v)] += 1;
        true
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    #[must_use]
    fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    fn json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{}",
            self.count,
            json_f64(self.sum)
        );
        if self.count > 0 {
            let _ = write!(
                out,
                ",\"min\":{},\"max\":{}",
                json_f64(self.min),
                json_f64(self.max)
            );
        }
        out.push_str(",\"buckets\":{");
        for (n, (i, c)) in self.nonzero_buckets().into_iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{i}\":{c}");
        }
        out.push_str("}}");
        out
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<CampaignEvent>,
}

/// Thread-safe telemetry sink with deterministic read sides.
///
/// Attach one (behind an `Arc`) to a `Campaign` or `Provider`; workers
/// record through shared references, the owner drains sorted snapshots.
/// Recording is cheap (one short mutex hold), and a stack with no
/// recorder attached pays only an `Option` check.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex means a panic mid-record; telemetry is
        // side-band, so keep serving the data we have.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `by` to the monotonic counter `name` (created at zero).
    pub fn incr(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut inner = self.lock();
        *inner.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of counter `name` (zero if never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// Records one observation into histogram `name`. Non-finite samples
    /// are dropped and tallied in the
    /// [`NON_FINITE_DROPPED_COUNTER`] counter instead of silently
    /// polluting the bucket totals.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        if !value.is_finite() {
            // Checked before the entry lookup so a stream of pure noise
            // never materializes an empty histogram in the snapshot.
            *inner
                .counters
                .entry(NON_FINITE_DROPPED_COUNTER.to_owned())
                .or_insert(0) += 1;
            return;
        }
        let ingested = inner
            .histograms
            .entry(name.to_owned())
            .or_default()
            .observe(value);
        debug_assert!(ingested, "finite samples always ingest");
    }

    /// Snapshot of histogram `name`, if any value was ever observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Appends a structured event. Arrival order is irrelevant — reads
    /// sort by [`CampaignEvent::cmp_key`].
    pub fn event(&self, event: CampaignEvent) {
        self.lock().events.push(event);
    }

    /// Number of events recorded so far.
    #[must_use]
    fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// All events in the canonical content order (non-draining).
    #[must_use]
    fn events_sorted(&self) -> Vec<CampaignEvent> {
        let mut events = self.lock().events.clone();
        events.sort_by(CampaignEvent::cmp_key);
        events
    }

    /// Count of events per kind, in rank order (zero-count kinds omitted).
    #[must_use]
    pub fn kind_counts(&self) -> Vec<(EventKind, u64)> {
        let mut counts = BTreeMap::new();
        for event in self.lock().events.iter() {
            *counts.entry(event.kind).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    /// Starts a wall-clock span; the guard records into histogram
    /// `span_seconds.<name>` on drop. Durations reach only the metrics
    /// snapshot, never the event log (see the determinism contract).
    #[must_use]
    pub fn span(&self, name: &str) -> Span<'_> {
        self.incr(&format!("span.{name}.started"), 1);
        Span {
            recorder: self,
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// The full trace as JSON Lines: one event object per line, in
    /// canonical order, trailing newline included. Byte-identical across
    /// thread-pool widths for deterministic pipelines.
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events_sorted() {
            out.push_str(&event.json());
            out.push('\n');
        }
        out
    }

    /// The metrics snapshot as one JSON object with keys
    /// `schema_version` ([`METRICS_SCHEMA_VERSION`]), `counters`,
    /// `histograms`, `events`, and `event_kinds`.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let inner = self.lock();
        let mut out = format!("{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"counters\":{{");
        for (n, (name, value)) in inner.counters.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (n, (name, hist)) in inner.histograms.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(name), hist.json());
        }
        let total = inner.events.len();
        let mut kind_counts: BTreeMap<EventKind, u64> = BTreeMap::new();
        for event in inner.events.iter() {
            *kind_counts.entry(event.kind).or_insert(0) += 1;
        }
        drop(inner);
        let _ = write!(out, "}},\"events\":{total},\"event_kinds\":{{");
        for (n, (kind, count)) in kind_counts.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{count}", kind.as_str());
        }
        out.push_str("}}");
        out
    }

    /// Human-readable summary for end-of-campaign printing.
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut out = String::from("=== observability summary ===\n");
        let kinds = self.kind_counts();
        let _ = writeln!(out, "events: {}", self.event_count());
        for (kind, count) in &kinds {
            let _ = writeln!(out, "  {:<22} {count:>8}", kind.as_str());
        }
        let counters = self.counters();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &counters {
                let _ = writeln!(out, "  {name:<38} {value:>10}");
            }
        }
        let inner = self.lock();
        let spans: Vec<(String, Histogram)> = inner
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("span_seconds."))
            .map(|(name, hist)| (name.clone(), hist.clone()))
            .collect();
        drop(inner);
        if !spans.is_empty() {
            out.push_str("spans (wall seconds):\n");
            for (name, hist) in &spans {
                let short = name.trim_start_matches("span_seconds.");
                let _ = writeln!(
                    out,
                    "  {short:<28} n={:<7} total={:.6}",
                    hist.count, hist.sum
                );
            }
        }
        out
    }
}

/// RAII wall-clock span; see [`Recorder::span`].
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a Recorder,
    name: String,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.recorder
            .observe(&format!("span_seconds.{}", self.name), elapsed);
        self.recorder
            .incr(&format!("span.{}.finished", self.name), 1);
    }
}

/// Bounded ring buffer of the last-N [`CampaignEvent`]s one campaign
/// emitted — the fleet supervisor's black box. Memory is O(capacity)
/// regardless of campaign length: once full, each push evicts the
/// oldest event. Drains follow the same content-sorted discipline as
/// [`Recorder::trace_jsonl`], so a sealed flight dump is itself a valid
/// canonical-order trace (`obs_report validate` passes on it) and is
/// byte-identical across thread-pool widths whenever the retained
/// multiset is.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    /// Ring storage; `head` is the index the next push overwrites.
    ring: Vec<CampaignEvent>,
    head: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// An empty recorder retaining at most `capacity` events (clamped to
    /// at least 1 — a zero-capacity black box records nothing and would
    /// make every post-mortem empty by construction).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
        }
    }

    /// The retention bound this recorder was built with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events ever pushed, including evicted ones — the dump
    /// header's "N of M" context.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Records one event, evicting the oldest when full.
    pub fn push(&mut self, event: CampaignEvent) {
        self.recorded += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(event);
            return;
        }
        self.ring[self.head] = event;
        self.head = (self.head + 1) % self.capacity;
    }

    /// The retained events in canonical content order (non-draining).
    #[must_use]
    fn events_sorted(&self) -> Vec<CampaignEvent> {
        let mut events = self.ring.clone();
        events.sort_by(CampaignEvent::cmp_key);
        events
    }

    /// The retained window as JSON Lines in canonical order — the
    /// sealed flight-dump artifact body. Same line shape as
    /// [`Recorder::trace_jsonl`], so the strict trace parser accepts it.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events_sorted() {
            out.push_str(&event.json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_name_ordered() {
        let r = Recorder::new();
        r.incr("b.second", 2);
        r.incr("a.first", 1);
        r.incr("b.second", 3);
        r.incr("a.first", 0); // no-op, must not create churn
        assert_eq!(r.counter("a.first"), 1);
        assert_eq!(r.counter("b.second"), 5);
        assert_eq!(r.counter("absent"), 0);
        let names: Vec<String> = r.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first".to_owned(), "b.second".to_owned()]);
    }

    #[test]
    fn event_drain_order_is_content_not_arrival() {
        let forward = Recorder::new();
        let reverse = Recorder::new();
        let events = vec![
            CampaignEvent::new(EventKind::Retry, 2.0)
                .route(1)
                .value(1.0),
            CampaignEvent::new(EventKind::Backoff, 2.0)
                .route(1)
                .value(0.75),
            CampaignEvent::new(EventKind::SessionAcquired, 0.0).detail("attacker"),
            CampaignEvent::new(EventKind::CacheMiss, 1.0).value(4.0),
        ];
        for e in &events {
            forward.event(e.clone());
        }
        for e in events.iter().rev() {
            reverse.event(e.clone());
        }
        assert_eq!(forward.trace_jsonl(), reverse.trace_jsonl());
        assert_eq!(forward.events_sorted()[0].kind, EventKind::SessionAcquired);
    }

    #[test]
    fn kind_ties_break_by_declaration_rank() {
        let r = Recorder::new();
        r.event(CampaignEvent::new(EventKind::Backoff, 1.0).route(0));
        r.event(CampaignEvent::new(EventKind::Retry, 1.0).route(0));
        let sorted = r.events_sorted();
        assert_eq!(sorted[0].kind, EventKind::Retry);
        assert_eq!(sorted[1].kind, EventKind::Backoff);
    }

    #[test]
    fn trace_lines_are_valid_shapes_and_escape_details() {
        let r = Recorder::new();
        r.event(
            CampaignEvent::new(EventKind::FaultInjected, 12.5)
                .value(3.0)
                .detail("kind=\"preemption\"\n"),
        );
        let trace = r.trace_jsonl();
        assert_eq!(trace.lines().count(), 1);
        let line = trace.lines().next().unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"fault_injected\""));
        assert!(line.contains("\\\"preemption\\\"\\n"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let e = CampaignEvent::new(EventKind::Abstain, 0.0).value(f64::NAN);
        assert!(e.json().contains("\"value\":null"));
    }

    #[test]
    fn span_records_wall_time_into_metrics_only() {
        let r = Recorder::new();
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        assert_eq!(r.counter("span.outer.started"), 1);
        assert_eq!(r.counter("span.outer.finished"), 1);
        assert_eq!(r.counter("span.inner.finished"), 1);
        let hist = r.histogram("span_seconds.outer").expect("span observed");
        assert_eq!(hist.count, 1);
        assert!(hist.sum >= 0.0);
        assert!(r.trace_jsonl().is_empty(), "spans never reach the trace");
        assert!(r.metrics_json().contains("span_seconds.outer"));
    }

    #[test]
    fn histogram_buckets_cover_extremes() {
        let mut h = Histogram::new();
        for v in [0.0, -3.0, 1e-30, 1e-6, 0.5, 1.0, 7.0, 1e12] {
            assert!(h.observe(v));
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.max, 1e12);
        assert_eq!(h.min, -3.0);
        let total: u64 = h.nonzero_buckets().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 8, "every observation lands in exactly one bucket");
    }

    #[test]
    fn non_finite_samples_are_dropped_and_counted() {
        let r = Recorder::new();
        r.observe("h", 1.0);
        r.observe("h", f64::NAN);
        r.observe("h", f64::INFINITY);
        r.observe("h", f64::NEG_INFINITY);
        r.observe("h", 2.0);
        let hist = r.histogram("h").expect("finite samples ingested");
        assert_eq!(hist.count, 2, "non-finite samples never reach the buckets");
        assert_eq!(hist.sum, 3.0);
        assert_eq!(hist.min, 1.0);
        assert_eq!(hist.max, 2.0);
        assert_eq!(r.counter(NON_FINITE_DROPPED_COUNTER), 3);
    }

    #[test]
    fn event_kind_wire_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(kind.as_str().parse::<EventKind>(), Ok(kind));
        }
        assert!("phase-transition".parse::<EventKind>().is_err());
        assert!("".parse::<EventKind>().is_err());
    }

    #[test]
    fn metrics_json_carries_schema_version() {
        let r = Recorder::new();
        assert!(r
            .metrics_json()
            .starts_with(&format!("{{\"schema_version\":{METRICS_SCHEMA_VERSION},")));
    }

    #[test]
    fn metrics_json_has_required_keys() {
        let r = Recorder::new();
        r.incr("cloud.sessions_acquired", 1);
        r.observe("span_seconds.x", 0.25);
        r.event(CampaignEvent::new(EventKind::CacheHit, 1.0).value(10.0));
        let json = r.metrics_json();
        for key in [
            "\"counters\"",
            "\"histograms\"",
            "\"events\":1",
            "\"event_kinds\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"cache_hit\":1"));
    }

    #[test]
    fn flight_recorder_keeps_only_the_last_n_events() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for i in 0..5 {
            fr.push(CampaignEvent::new(EventKind::Retry, f64::from(i)).value(1.0));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.capacity(), 3);
        assert_eq!(fr.recorded(), 5);
        let ats: Vec<f64> = fr.events_sorted().iter().map(|e| e.at).collect();
        assert_eq!(ats, vec![2.0, 3.0, 4.0], "oldest two were evicted");
    }

    #[test]
    fn flight_recorder_drain_is_content_sorted_like_trace_jsonl() {
        let mut forward = FlightRecorder::new(8);
        let mut reverse = FlightRecorder::new(8);
        let events = vec![
            CampaignEvent::new(EventKind::Backoff, 2.0).value(0.5),
            CampaignEvent::new(EventKind::Retry, 2.0).value(1.0),
            CampaignEvent::new(EventKind::Quarantine, 3.0).detail("deadline_exceeded"),
        ];
        for e in &events {
            forward.push(e.clone());
        }
        for e in events.iter().rev() {
            reverse.push(e.clone());
        }
        assert_eq!(forward.jsonl(), reverse.jsonl());
        assert_eq!(forward.jsonl().lines().count(), 3);
        assert_eq!(forward.events_sorted()[0].kind, EventKind::Retry);
    }

    #[test]
    fn flight_recorder_zero_capacity_clamps_to_one() {
        let mut fr = FlightRecorder::new(0);
        fr.push(CampaignEvent::new(EventKind::Retry, 1.0));
        fr.push(CampaignEvent::new(EventKind::Retry, 2.0));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.events_sorted()[0].at, 2.0);
    }

    #[test]
    fn summary_table_lists_kinds_counters_and_spans() {
        let r = Recorder::new();
        r.event(CampaignEvent::new(EventKind::Retry, 1.0));
        r.incr("campaign.rent_retries", 2);
        drop(r.span("measure"));
        let table = r.summary_table();
        assert!(table.contains("retry"));
        assert!(table.contains("campaign.rent_retries"));
        assert!(table.contains("measure"));
    }
}
