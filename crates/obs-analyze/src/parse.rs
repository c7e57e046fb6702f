//! Strict typed parsers for the two PR-4 artifact schemas: the JSONL
//! event trace and the metrics snapshot (see EXPERIMENTS.md, "Campaign
//! observability"). Round-tripping is the correctness contract: a parsed
//! trace event is an [`obs::CampaignEvent`], and `event.json()` of the
//! parsed value reproduces the source line byte-for-byte.

use std::collections::BTreeMap;
use std::fmt;

use obs::{CampaignEvent, EventKind, METRICS_SCHEMA_VERSION};

use crate::json::{JsonError, Member, Value};

/// A typed-parse failure with its position in the source artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line in the artifact.
    pub line: usize,
    /// 1-based byte column within that line.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<JsonError> for ParseError {
    fn from(e: JsonError) -> Self {
        Self {
            line: e.line,
            column: e.column,
            message: e.message,
        }
    }
}

impl ParseError {
    pub(crate) fn at(line: usize, column: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            column,
            message: message.into(),
        }
    }

    /// Shifts a single-line error to `line` in a multi-line artifact
    /// (JSONL values are parsed one line at a time, so the inner parser
    /// always reports line 1).
    pub(crate) fn on_jsonl_line(mut self, line: usize) -> Self {
        self.line = line;
        self
    }
}

/// JSON `null` decodes to NaN: the emitter serializes every non-finite
/// `f64` as `null`, and NaN is the canonical non-finite value whose
/// `total_cmp` position the Recorder's sort already defines.
fn f64_or_null(v: &Value, m: &Member) -> Result<f64, ParseError> {
    match v {
        Value::Null => Ok(f64::NAN),
        Value::Number(n) => Ok(n.as_f64()),
        other => Err(ParseError::at(
            m.line,
            m.column,
            format!(
                "`{}` must be a number or null, found {}",
                m.key,
                other.type_name()
            ),
        )),
    }
}

/// Parses one trace line into a [`CampaignEvent`].
///
/// Strictness: the object must contain exactly the five schema keys
/// (`at`, `kind`, `route`, `value`, `detail`) — any order, no extras, no
/// omissions — with `kind` one of the 18 wire names and `route` a
/// non-negative integer or null.
///
/// # Errors
///
/// Returns the first lexical or schema violation, positioned at line 1.
pub fn parse_trace_line(line: &str) -> Result<CampaignEvent, ParseError> {
    let value = Value::parse(line)?;
    let Some(members) = value.as_object() else {
        return Err(ParseError::at(
            1,
            1,
            format!("trace line must be an object, found {}", value.type_name()),
        ));
    };
    let mut at: Option<f64> = None;
    let mut kind: Option<EventKind> = None;
    let mut route: Option<Option<u64>> = None;
    let mut val: Option<f64> = None;
    let mut detail: Option<String> = None;
    for m in members {
        match m.key.as_str() {
            "at" => at = Some(f64_or_null(&m.value, m)?),
            "value" => val = Some(f64_or_null(&m.value, m)?),
            "kind" => {
                let s = m.value.as_str().ok_or_else(|| {
                    ParseError::at(
                        m.line,
                        m.column,
                        format!("`kind` must be a string, found {}", m.value.type_name()),
                    )
                })?;
                kind = Some(
                    s.parse::<EventKind>()
                        .map_err(|e| ParseError::at(m.line, m.column, e.to_string()))?,
                );
            }
            "route" => {
                route = Some(match &m.value {
                    Value::Null => None,
                    Value::Number(n) => Some(n.as_u64().ok_or_else(|| {
                        ParseError::at(
                            m.line,
                            m.column,
                            format!("`route` must be a non-negative integer, found {}", n.raw()),
                        )
                    })?),
                    other => {
                        return Err(ParseError::at(
                            m.line,
                            m.column,
                            format!(
                                "`route` must be an integer or null, found {}",
                                other.type_name()
                            ),
                        ))
                    }
                });
            }
            "detail" => {
                detail = Some(
                    m.value
                        .as_str()
                        .ok_or_else(|| {
                            ParseError::at(
                                m.line,
                                m.column,
                                format!("`detail` must be a string, found {}", m.value.type_name()),
                            )
                        })?
                        .to_owned(),
                );
            }
            other => {
                return Err(ParseError::at(
                    m.line,
                    m.column,
                    format!("unknown trace key `{other}`"),
                ))
            }
        }
    }
    let missing = |name: &str| ParseError::at(1, 1, format!("trace line missing key `{name}`"));
    Ok(CampaignEvent {
        at: at.ok_or_else(|| missing("at"))?,
        route: route.ok_or_else(|| missing("route"))?,
        kind: kind.ok_or_else(|| missing("kind"))?,
        value: val.ok_or_else(|| missing("value"))?,
        detail: detail.ok_or_else(|| missing("detail"))?,
    })
}

/// Parses a whole JSONL trace, in file order. Blank lines are rejected —
/// the Recorder never emits them, so one appearing means truncation or
/// concatenation damage.
///
/// # Errors
///
/// Returns the first failing line with its 1-based position.
pub fn parse_trace(src: &str) -> Result<Vec<CampaignEvent>, ParseError> {
    let mut events = Vec::new();
    for (index, line) in src.lines().enumerate() {
        let line_no = index + 1;
        if line.trim().is_empty() {
            return Err(ParseError::at(line_no, 1, "blank line in trace"));
        }
        events.push(parse_trace_line(line).map_err(|e| e.on_jsonl_line(line_no))?);
    }
    Ok(events)
}

/// Index of the first event that violates the Recorder's canonical
/// content order (`CampaignEvent::cmp_key` non-decreasing), if any.
/// Every artifact the Recorder writes is sorted; an unsorted trace was
/// not produced by `trace_jsonl()`.
#[must_use]
pub fn first_order_violation(events: &[CampaignEvent]) -> Option<usize> {
    events
        .windows(2)
        .position(|w| w[0].cmp_key(&w[1]) == std::cmp::Ordering::Greater)
        .map(|i| i + 1)
}

/// One histogram from the metrics snapshot: exact count/sum/min/max plus
/// the sparse power-of-two bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of ingested observations.
    pub count: u64,
    /// Sum of ingested observations.
    pub sum: f64,
    /// Smallest observation (absent when the histogram is empty).
    pub min: Option<f64>,
    /// Largest observation (absent when the histogram is empty).
    pub max: Option<f64>,
    /// Non-empty buckets: index → count. Bucket 0 holds everything
    /// `<= 2^-24`; bucket `i` holds `(2^(i-25), 2^(i-24)]`.
    pub buckets: BTreeMap<u32, u64>,
}

impl HistogramSnapshot {
    /// Upper bound of bucket `i`, mirroring `obs::Histogram`'s layout.
    #[must_use]
    fn bucket_upper_bound(index: u32) -> f64 {
        2f64.powi(index as i32 - 24)
    }

    /// Quantile estimate from the bucket counts: the upper bound of the
    /// first bucket whose cumulative count reaches `q` of the total,
    /// clamped into the exact `[min, max]` envelope. `None` when empty
    /// or `q` is outside `(0, 1]`.
    ///
    /// This is a bucketed estimate (buckets are powers of two), but it is
    /// a *deterministic* function of the snapshot — two identical
    /// artifacts always report identical percentiles.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (&index, &bucket_count) in &self.buckets {
            cumulative += bucket_count;
            if cumulative >= target {
                let mut v = Self::bucket_upper_bound(index);
                if let Some(max) = self.max {
                    v = v.min(max);
                }
                if let Some(min) = self.min {
                    v = v.max(min);
                }
                return Some(v);
            }
        }
        self.max
    }
}

/// The typed metrics snapshot (`Recorder::metrics_json`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Declared schema version (1 when the key is absent — the PR-4
    /// artifacts predate the key).
    pub schema_version: u32,
    /// Monotonic counters, name-ordered.
    pub counters: BTreeMap<String, u64>,
    /// Histograms, name-ordered.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Total number of recorded events.
    pub events: u64,
    /// Event count per kind (kinds with zero events omitted by the
    /// emitter).
    pub event_kinds: BTreeMap<EventKind, u64>,
}

fn expect_u64(m: &Member, what: &str) -> Result<u64, ParseError> {
    m.value
        .as_number()
        .and_then(crate::json::Number::as_u64)
        .ok_or_else(|| {
            ParseError::at(
                m.line,
                m.column,
                format!("{what} `{}` must be a non-negative integer", m.key),
            )
        })
}

fn expect_f64(m: &Member, what: &str) -> Result<f64, ParseError> {
    m.value
        .as_number()
        .map(crate::json::Number::as_f64)
        .ok_or_else(|| {
            ParseError::at(
                m.line,
                m.column,
                format!("{what} `{}` must be a number", m.key),
            )
        })
}

fn expect_object<'a>(m: &'a Member, what: &str) -> Result<&'a [Member], ParseError> {
    m.value.as_object().ok_or_else(|| {
        ParseError::at(
            m.line,
            m.column,
            format!("{what} `{}` must be an object", m.key),
        )
    })
}

fn parse_histogram(m: &Member) -> Result<HistogramSnapshot, ParseError> {
    let members = expect_object(m, "histogram")?;
    let mut count = None;
    let mut sum = None;
    let mut min = None;
    let mut max = None;
    let mut buckets = BTreeMap::new();
    for field in members {
        match field.key.as_str() {
            "count" => count = Some(expect_u64(field, "histogram field")?),
            "sum" => sum = Some(expect_f64(field, "histogram field")?),
            "min" => min = Some(expect_f64(field, "histogram field")?),
            "max" => max = Some(expect_f64(field, "histogram field")?),
            "buckets" => {
                for bucket in expect_object(field, "histogram field")? {
                    let index: u32 = bucket.key.parse().map_err(|_| {
                        ParseError::at(
                            bucket.line,
                            bucket.column,
                            format!("bucket index `{}` must be an integer", bucket.key),
                        )
                    })?;
                    buckets.insert(index, expect_u64(bucket, "bucket count")?);
                }
            }
            other => {
                return Err(ParseError::at(
                    field.line,
                    field.column,
                    format!("unknown histogram key `{other}`"),
                ))
            }
        }
    }
    let snapshot = HistogramSnapshot {
        count: count
            .ok_or_else(|| ParseError::at(m.line, m.column, "histogram missing `count`"))?,
        sum: sum.ok_or_else(|| ParseError::at(m.line, m.column, "histogram missing `sum`"))?,
        min,
        max,
        buckets,
    };
    let bucket_total: u64 = snapshot.buckets.values().sum();
    if bucket_total != snapshot.count {
        return Err(ParseError::at(
            m.line,
            m.column,
            format!(
                "histogram bucket counts sum to {bucket_total} but `count` is {}",
                snapshot.count
            ),
        ));
    }
    Ok(snapshot)
}

/// Parses a metrics JSON snapshot.
///
/// Schema compatibility rule: the parser accepts schema version
/// [`METRICS_SCHEMA_VERSION`] and the one before it (a missing
/// `schema_version` key *is* version 1); anything else is an error, so a
/// future incompatible bump fails loudly instead of being misread.
///
/// # Errors
///
/// Returns the first lexical or schema violation with its position.
pub fn parse_metrics(src: &str) -> Result<MetricsSnapshot, ParseError> {
    let value = Value::parse(src)?;
    let Some(members) = value.as_object() else {
        return Err(ParseError::at(
            1,
            1,
            format!("metrics must be an object, found {}", value.type_name()),
        ));
    };
    let mut schema_version: Option<u32> = None;
    let mut counters = BTreeMap::new();
    let mut histograms = BTreeMap::new();
    let mut events = None;
    let mut event_kinds = BTreeMap::new();
    let mut saw = [false; 4];
    for m in members {
        match m.key.as_str() {
            "schema_version" => {
                let v = expect_u64(m, "field")?;
                schema_version = Some(u32::try_from(v).map_err(|_| {
                    ParseError::at(m.line, m.column, format!("schema_version {v} out of range"))
                })?);
            }
            "counters" => {
                saw[0] = true;
                for c in expect_object(m, "field")? {
                    counters.insert(c.key.clone(), expect_u64(c, "counter")?);
                }
            }
            "histograms" => {
                saw[1] = true;
                for h in expect_object(m, "field")? {
                    histograms.insert(h.key.clone(), parse_histogram(h)?);
                }
            }
            "events" => {
                saw[2] = true;
                events = Some(expect_u64(m, "field")?);
            }
            "event_kinds" => {
                saw[3] = true;
                for k in expect_object(m, "field")? {
                    let kind: EventKind = k.key.parse().map_err(|_| {
                        ParseError::at(
                            k.line,
                            k.column,
                            format!("unknown event kind `{}` in event_kinds", k.key),
                        )
                    })?;
                    event_kinds.insert(kind, expect_u64(k, "event kind count")?);
                }
            }
            other => {
                return Err(ParseError::at(
                    m.line,
                    m.column,
                    format!("unknown metrics key `{other}`"),
                ))
            }
        }
    }
    // A missing key *is* version 1 (the PR-4 artifacts predate the key),
    // not version N−1: once N reaches 3, key-less artifacts fall out of
    // the support window and must be rejected like any other stale
    // version.
    let schema_version = schema_version.unwrap_or(1);
    if schema_version != METRICS_SCHEMA_VERSION && schema_version != METRICS_SCHEMA_VERSION - 1 {
        return Err(ParseError::at(
            1,
            1,
            format!(
                "unsupported metrics schema_version {schema_version} (this parser accepts {} and {})",
                METRICS_SCHEMA_VERSION,
                METRICS_SCHEMA_VERSION - 1
            ),
        ));
    }
    for (present, name) in saw
        .iter()
        .zip(["counters", "histograms", "events", "event_kinds"])
    {
        if !present {
            return Err(ParseError::at(
                1,
                1,
                format!("metrics missing key `{name}`"),
            ));
        }
    }
    Ok(MetricsSnapshot {
        schema_version,
        counters,
        histograms,
        events: events.expect("checked above"),
        event_kinds,
    })
}

/// Cross-checks a parsed trace against a metrics snapshot taken from the
/// same recorder: total event count and per-kind counts must agree.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn cross_check(events: &[CampaignEvent], metrics: &MetricsSnapshot) -> Result<(), String> {
    if metrics.events != events.len() as u64 {
        return Err(format!(
            "metrics declare {} events but trace has {}",
            metrics.events,
            events.len()
        ));
    }
    let mut counts: BTreeMap<EventKind, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind).or_insert(0) += 1;
    }
    if counts != metrics.event_kinds {
        return Err(format!(
            "per-kind counts disagree: trace {counts:?}, metrics {:?}",
            metrics.event_kinds
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_output_round_trips_byte_for_byte() {
        let r = obs::Recorder::new();
        r.event(
            CampaignEvent::new(EventKind::Retry, 12.0)
                .route(3)
                .value(2.0)
                .detail("measure"),
        );
        r.event(CampaignEvent::new(EventKind::Abstain, 30.0).value(f64::NAN));
        r.event(CampaignEvent::new(EventKind::FaultInjected, 1.5).detail("kind=\"x\"\n"));
        let trace = r.trace_jsonl();
        let events = parse_trace(&trace).expect("recorder output parses");
        let reemitted: String = events.iter().map(|e| e.json() + "\n").collect();
        assert_eq!(reemitted, trace);
        assert_eq!(first_order_violation(&events), None);

        let metrics = parse_metrics(&r.metrics_json()).expect("metrics parse");
        assert_eq!(metrics.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!(metrics.events, 3);
        cross_check(&events, &metrics).expect("consistent artifacts");
    }

    #[test]
    fn strictness_rejects_malformed_lines_with_positions() {
        // Unknown key.
        let err = parse_trace(
            "{\"at\":1,\"kind\":\"retry\",\"route\":null,\"value\":0,\"detail\":\"\",\"x\":1}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown trace key"), "{err}");
        // Missing key.
        let err =
            parse_trace("{\"at\":1,\"kind\":\"retry\",\"route\":null,\"value\":0}\n").unwrap_err();
        assert!(err.message.contains("missing key `detail`"), "{err}");
        // Bad kind.
        let err = parse_trace(
            "{\"at\":1,\"kind\":\"retries\",\"route\":null,\"value\":0,\"detail\":\"\"}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
        // Negative route.
        let err =
            parse_trace("{\"at\":1,\"kind\":\"retry\",\"route\":-2,\"value\":0,\"detail\":\"\"}\n")
                .unwrap_err();
        assert!(err.message.contains("non-negative"), "{err}");
        // Error on the right line of a multi-line trace.
        let good = "{\"at\":1,\"kind\":\"retry\",\"route\":null,\"value\":0,\"detail\":\"\"}";
        let err = parse_trace(&format!("{good}\nnot json\n")).unwrap_err();
        assert_eq!(err.line, 2);
        // A blank line (whitespace only) is rejected on its own line.
        let err = parse_trace(&format!("{good}\n{good}\n   \n{good}\n")).unwrap_err();
        assert_eq!((err.line, err.column), (3, 1));
        assert!(err.message.contains("blank line in trace"), "{err}");
    }

    #[test]
    fn order_violations_are_located() {
        let a = CampaignEvent::new(EventKind::Retry, 2.0);
        let b = CampaignEvent::new(EventKind::Retry, 1.0);
        assert_eq!(first_order_violation(&[b.clone(), a.clone()]), None);
        assert_eq!(first_order_violation(&[a, b]), Some(1));
        assert_eq!(first_order_violation(&[]), None);
    }

    #[test]
    fn metrics_schema_version_rule_accepts_n_and_n_minus_1() {
        // A missing key is literal version 1, which left the N/N−1
        // support window when N reached 3: key-less PR-4 artifacts must
        // now be rejected loudly, not silently misread.
        let v1 = r#"{"counters":{},"histograms":{},"events":0,"event_kinds":{}}"#;
        assert!(parse_metrics(v1)
            .unwrap_err()
            .message
            .contains("unsupported"));
        let versioned = |v: u32| {
            format!(
                "{{\"schema_version\":{v},\"counters\":{{}},\"histograms\":{{}},\"events\":0,\"event_kinds\":{{}}}}"
            )
        };
        assert_eq!(
            parse_metrics(&versioned(METRICS_SCHEMA_VERSION - 1))
                .expect("N-1 accepted")
                .schema_version,
            METRICS_SCHEMA_VERSION - 1
        );
        assert_eq!(
            parse_metrics(&versioned(METRICS_SCHEMA_VERSION))
                .expect("N accepted")
                .schema_version,
            METRICS_SCHEMA_VERSION
        );
        assert!(parse_metrics(&versioned(METRICS_SCHEMA_VERSION + 1))
            .unwrap_err()
            .message
            .contains("unsupported"));
        // Version 7 retired `circuit_close`. A version-6 (N−1) artifact
        // that names it is rejected as an unknown kind rather than
        // silently read; one without it still parses.
        let v6_with = |kinds: &str| {
            format!(
                "{{\"schema_version\":6,\"counters\":{{}},\"histograms\":{{}},\"events\":1,\"event_kinds\":{{{kinds}}}}}"
            )
        };
        let err = parse_metrics(&v6_with("\"circuit_close\":1")).unwrap_err();
        assert!(
            err.message
                .contains("unknown event kind `circuit_close` in event_kinds"),
            "{err}"
        );
        assert_eq!(
            parse_metrics(&v6_with("\"circuit_open\":1"))
                .expect("v6 without the retired kind accepted")
                .event_kinds[&EventKind::CircuitOpen],
            1
        );
        let err = parse_trace_line(
            "{\"at\":1,\"kind\":\"circuit_close\",\"route\":null,\"value\":0,\"detail\":\"\"}",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
    }

    #[test]
    fn supervisor_event_kinds_parse_in_traces_and_metrics() {
        // The fleet-supervisor kinds introduced with metrics schema
        // version 3 and still emitted must round-trip through both
        // artifact parsers.
        for kind in [
            EventKind::CircuitOpen,
            EventKind::Quarantine,
            EventKind::RecoveryScan,
        ] {
            let line = CampaignEvent::new(kind, 4.0)
                .value(1.0)
                .detail("dev")
                .json();
            let parsed = parse_trace_line(&line).expect("supervisor kind parses");
            assert_eq!(parsed.kind, kind);
        }
        let src = format!(
            "{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"counters\":{{}},\"histograms\":{{}},\
             \"events\":2,\"event_kinds\":{{\"circuit_open\":1,\"recovery_scan\":1}}}}"
        );
        let metrics = parse_metrics(&src).expect("supervisor kinds accepted");
        assert_eq!(metrics.event_kinds[&EventKind::CircuitOpen], 1);
        assert_eq!(metrics.event_kinds[&EventKind::RecoveryScan], 1);
    }

    #[test]
    fn histogram_bucket_sums_are_validated_and_quantiles_deterministic() {
        let src = format!(
            "{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"counters\":{{}},\"histograms\":\
             {{\"h\":{{\"count\":4,\"sum\":2.0,\"min\":0.1,\"max\":1.0,\
             \"buckets\":{{\"21\":2,\"24\":2}}}}}},\"events\":0,\"event_kinds\":{{}}}}"
        );
        let m = parse_metrics(&src).expect("parses");
        let h = &m.histograms["h"];
        // Bucket 21 upper bound 2^-3, bucket 24 upper bound 1.0.
        assert_eq!(h.quantile(0.5), Some(0.125));
        assert_eq!(h.quantile(0.99), Some(1.0));
        assert_eq!(h.quantile(0.0), None);

        let bad = format!(
            "{{\"schema_version\":{METRICS_SCHEMA_VERSION},\"counters\":{{}},\"histograms\":\
             {{\"h\":{{\"count\":3,\"sum\":2.0,\"buckets\":{{\"21\":2}}}}}},\
             \"events\":0,\"event_kinds\":{{}}}}"
        );
        assert!(parse_metrics(&bad).unwrap_err().message.contains("sum to"));
    }
}
