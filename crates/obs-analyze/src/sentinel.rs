//! Regression sentinel over the `results/BENCH_*.json` lineage: reads a
//! checked-in baseline bundle plus the current BENCH artifacts and
//! evaluates tolerance-banded gates, mirroring the policy the bench bins
//! already apply at generation time:
//!
//! * **Identity/equivalence booleans** (`identical`, `bit_identical`,
//!   `gate_passed`, ...) gate *unconditionally* — they encode
//!   determinism and numerical-equivalence claims that hold on any
//!   hardware, so a `true → false` flip is always a regression.
//! * **Timing fields** (`speedup`, `routes_per_sec`, `campaigns_per_sec`)
//!   gate only when both
//!   snapshots were taken on real parallel hardware (≥ 4 hardware
//!   threads) with matching smoke flags; elsewhere they are reported as
//!   informational, exactly like the generation-time gates print
//!   `gate_active: false` on small containers.
//! * **`max_rel_error`** is banded: the candidate may not exceed
//!   `max(base × 10, 1e-9)` — one order of magnitude of numerical head
//!   room above the recorded baseline, floored so an exactly-zero
//!   baseline doesn't demand bit-identity forever.
//!
//! Everything here is pure evaluation over parsed [`Value`]s; file IO
//! lives in the `obs_report` bin so the policy stays unit-testable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::json_f64;

use crate::json::Value;
use crate::parse::ParseError;

/// Schema version of the baseline bundle and sentinel report JSON.
pub const SENTINEL_SCHEMA_VERSION: u32 = 1;

/// Hardware threads both snapshots need before timing gates arm.
pub const TIMING_GATE_MIN_HW_THREADS: u64 = 4;

/// Allowed fractional slowdown on armed timing gates (20%).
pub const TIMING_TOLERANCE: f64 = 0.20;

/// Multiplicative head room on `max_rel_error` above the baseline.
pub const REL_ERROR_BAND: f64 = 10.0;

/// Absolute floor for the `max_rel_error` band.
pub const REL_ERROR_FLOOR: f64 = 1e-9;

/// One benchmark row, flattened into typed field maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRow {
    /// Boolean fields (identity / gate claims).
    pub bools: BTreeMap<String, bool>,
    /// Numeric fields (timings, errors, counts).
    pub numbers: BTreeMap<String, f64>,
}

/// One parsed BENCH artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSnapshot {
    /// The artifact's `smoke` flag, when present.
    pub smoke: Option<bool>,
    /// The artifact's `hardware_threads`, when present.
    pub hardware_threads: Option<u64>,
    /// Top-level numeric fields (e.g. `serial_seconds`, `seed`).
    pub top_numbers: BTreeMap<String, f64>,
    /// Rows keyed by their stable identity (`kernel` name or
    /// `threads=N`).
    pub rows: BTreeMap<String, BenchRow>,
}

/// Parses one BENCH artifact document into a snapshot. Unknown fields
/// are kept (the sentinel is lineage-generic); only the shape is
/// validated.
pub fn parse_bench(doc: &Value) -> Result<BenchSnapshot, String> {
    let members = doc
        .as_object()
        .ok_or_else(|| "BENCH artifact must be a JSON object".to_owned())?;
    let mut snap = BenchSnapshot::default();
    for m in members {
        match (m.key.as_str(), &m.value) {
            ("smoke", Value::Bool(b)) => snap.smoke = Some(*b),
            ("hardware_threads", Value::Number(n)) => {
                snap.hardware_threads = Some(n.as_u64().ok_or_else(|| {
                    format!(
                        "hardware_threads must be a non-negative integer, got {}",
                        n.raw()
                    )
                })?);
            }
            ("rows", Value::Array(rows)) => {
                for (index, row) in rows.iter().enumerate() {
                    let (key, parsed) = parse_row(row, index)?;
                    if snap.rows.insert(key.clone(), parsed).is_some() {
                        return Err(format!("duplicate row key {key:?}"));
                    }
                }
            }
            (key, Value::Number(n)) => {
                snap.top_numbers.insert(key.to_owned(), n.as_f64());
            }
            // Strings (workload names) and anything else don't gate.
            _ => {}
        }
    }
    Ok(snap)
}

fn parse_row(row: &Value, index: usize) -> Result<(String, BenchRow), String> {
    let members = row
        .as_object()
        .ok_or_else(|| format!("row {index} must be a JSON object"))?;
    let mut parsed = BenchRow::default();
    let mut key = None;
    for m in members {
        match (m.key.as_str(), &m.value) {
            ("kernel", Value::String(name)) => key = Some(name.clone()),
            ("threads", Value::Number(n)) => {
                key = key.or_else(|| Some(format!("threads={}", n.raw())));
                parsed.numbers.insert("threads".to_owned(), n.as_f64());
            }
            (field, Value::Bool(b)) => {
                parsed.bools.insert(field.to_owned(), *b);
            }
            (field, Value::Number(n)) => {
                parsed.numbers.insert(field.to_owned(), n.as_f64());
            }
            _ => {}
        }
    }
    Ok((key.unwrap_or_else(|| format!("row{index}")), parsed))
}

/// Gate verdicts, ordered worst-first so reports sort regressions to the
/// top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateStatus {
    /// Tolerance band violated — the sentinel exits non-zero.
    Regression,
    /// Compared but not armed on this hardware/configuration.
    Informational,
    /// Within tolerance.
    Pass,
}

impl GateStatus {
    /// Wire name used in the JSON report.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            GateStatus::Regression => "regression",
            GateStatus::Informational => "informational",
            GateStatus::Pass => "pass",
        }
    }
}

/// One evaluated gate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gate {
    /// Verdict (first so `Ord` sorts regressions to the top).
    pub status: GateStatus,
    /// BENCH artifact name (baseline-bundle key, e.g.
    /// `BENCH_chaos.json`).
    pub source: String,
    /// Row key within the artifact (`kernel` name or `threads=N`).
    pub row: String,
    /// Field the gate compared.
    pub field: String,
    /// Baseline value, already rendered as a JSON scalar.
    pub base: String,
    /// Candidate value, already rendered as a JSON scalar.
    pub candidate: String,
    /// Human-readable reason for the verdict.
    pub note: String,
}

/// The full sentinel evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SentinelReport {
    /// Every evaluated gate, regressions first.
    pub gates: Vec<Gate>,
}

impl SentinelReport {
    /// Number of failed gates.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| g.status == GateStatus::Regression)
            .count()
    }

    /// The report as one line of deterministic JSON (schema documented
    /// in EXPERIMENTS.md).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{SENTINEL_SCHEMA_VERSION},\"regressions\":{},\"gates\":[",
            self.regressions()
        );
        for (n, g) in self.gates.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"status\":\"{}\",\"source\":\"{}\",\"row\":\"{}\",\"field\":\"{}\",\"base\":{},\"candidate\":{},\"note\":\"{}\"}}",
                g.status.as_str(),
                obs::escape_json(&g.source),
                obs::escape_json(&g.row),
                obs::escape_json(&g.field),
                g.base,
                g.candidate,
                obs::escape_json(&g.note),
            );
        }
        out.push_str("]}");
        out
    }
}

enum FieldClass {
    Identity,
    Timing,
    ErrorBand,
    Info,
}

fn classify(field: &str) -> FieldClass {
    match field {
        "identical" | "bit_identical" | "gate_passed" | "equivalent" => FieldClass::Identity,
        "speedup" | "routes_per_sec" | "campaigns_per_sec" => FieldClass::Timing,
        "max_rel_error" => FieldClass::ErrorBand,
        _ => FieldClass::Info,
    }
}

/// Evaluates every baseline source against the matching current
/// snapshot. Sources present only in `current` are ignored (a new
/// benchmark has no baseline yet); sources missing from `current` fail
/// unconditionally — the artifact lineage must not silently shrink.
#[must_use]
pub fn evaluate(
    base: &BTreeMap<String, BenchSnapshot>,
    current: &BTreeMap<String, BenchSnapshot>,
) -> SentinelReport {
    let mut gates = Vec::new();
    for (source, b) in base {
        match current.get(source) {
            None => gates.push(Gate {
                status: GateStatus::Regression,
                source: source.clone(),
                row: String::new(),
                field: String::new(),
                base: "null".to_owned(),
                candidate: "null".to_owned(),
                note: "BENCH artifact present in baseline but missing from current results"
                    .to_owned(),
            }),
            Some(c) => evaluate_source(source, b, c, &mut gates),
        }
    }
    gates.sort();
    SentinelReport { gates }
}

fn evaluate_source(source: &str, base: &BenchSnapshot, cand: &BenchSnapshot, out: &mut Vec<Gate>) {
    let smoke_eq = base.smoke == cand.smoke;
    let hw_armed = base.hardware_threads.unwrap_or(0) >= TIMING_GATE_MIN_HW_THREADS
        && cand.hardware_threads.unwrap_or(0) >= TIMING_GATE_MIN_HW_THREADS;
    if !smoke_eq {
        out.push(Gate {
            status: GateStatus::Informational,
            source: source.to_owned(),
            row: String::new(),
            field: "smoke".to_owned(),
            base: render_opt_bool(base.smoke),
            candidate: render_opt_bool(cand.smoke),
            note: "smoke flags differ; rows compared informationally only".to_owned(),
        });
    }
    for (row_key, base_row) in &base.rows {
        let Some(cand_row) = cand.rows.get(row_key) else {
            out.push(Gate {
                status: if smoke_eq {
                    GateStatus::Regression
                } else {
                    GateStatus::Informational
                },
                source: source.to_owned(),
                row: row_key.clone(),
                field: String::new(),
                base: "null".to_owned(),
                candidate: "null".to_owned(),
                note: "row present in baseline but missing from current artifact".to_owned(),
            });
            continue;
        };
        evaluate_row(source, row_key, base_row, cand_row, smoke_eq, hw_armed, out);
    }
}

#[allow(clippy::too_many_arguments)]
fn evaluate_row(
    source: &str,
    row_key: &str,
    base: &BenchRow,
    cand: &BenchRow,
    smoke_eq: bool,
    hw_armed: bool,
    out: &mut Vec<Gate>,
) {
    let gate = |status, field: &str, b: String, c: String, note: String| Gate {
        status,
        source: source.to_owned(),
        row: row_key.to_owned(),
        field: field.to_owned(),
        base: b,
        candidate: c,
        note,
    };
    for (field, &bv) in &base.bools {
        if !matches!(classify(field), FieldClass::Identity) {
            continue;
        }
        match cand.bools.get(field) {
            None => out.push(gate(
                if smoke_eq {
                    GateStatus::Regression
                } else {
                    GateStatus::Informational
                },
                field,
                bv.to_string(),
                "null".to_owned(),
                "identity field missing from current row".to_owned(),
            )),
            Some(&cv) if bv && !cv => out.push(gate(
                GateStatus::Regression,
                field,
                "true".to_owned(),
                "false".to_owned(),
                "identity/equivalence claim lost (unconditional gate)".to_owned(),
            )),
            Some(&cv) => out.push(gate(
                GateStatus::Pass,
                field,
                bv.to_string(),
                cv.to_string(),
                "identity/equivalence claim holds".to_owned(),
            )),
        }
    }
    for (field, &bv) in &base.numbers {
        let Some(&cv) = cand.numbers.get(field) else {
            continue;
        };
        match classify(field) {
            FieldClass::Timing => {
                if hw_armed && smoke_eq {
                    let floor = bv * (1.0 - TIMING_TOLERANCE);
                    if cv < floor {
                        out.push(gate(
                            GateStatus::Regression,
                            field,
                            json_f64(bv),
                            json_f64(cv),
                            format!(
                                "timing regressed beyond {}% tolerance (floor {})",
                                (TIMING_TOLERANCE * 100.0) as u32,
                                json_f64(floor)
                            ),
                        ));
                    } else {
                        out.push(gate(
                            GateStatus::Pass,
                            field,
                            json_f64(bv),
                            json_f64(cv),
                            "within timing tolerance".to_owned(),
                        ));
                    }
                } else {
                    out.push(gate(
                        GateStatus::Informational,
                        field,
                        json_f64(bv),
                        json_f64(cv),
                        format!(
                            "timing gate not armed (needs >= {TIMING_GATE_MIN_HW_THREADS} hardware threads on both sides and matching smoke flags)"
                        ),
                    ));
                }
            }
            FieldClass::ErrorBand => {
                let band = (bv * REL_ERROR_BAND).max(REL_ERROR_FLOOR);
                if cv > band {
                    out.push(gate(
                        GateStatus::Regression,
                        field,
                        json_f64(bv),
                        json_f64(cv),
                        format!("numerical error above band {}", json_f64(band)),
                    ));
                } else {
                    out.push(gate(
                        GateStatus::Pass,
                        field,
                        json_f64(bv),
                        json_f64(cv),
                        "within numerical-error band".to_owned(),
                    ));
                }
            }
            FieldClass::Identity | FieldClass::Info => {}
        }
    }
}

fn render_opt_bool(v: Option<bool>) -> String {
    v.map_or_else(|| "null".to_owned(), |b| b.to_string())
}

/// Serializes a baseline bundle: file name → verbatim artifact document
/// (re-emitted byte-faithfully by the raw-preserving JSON layer).
pub fn baseline_json(sources: &BTreeMap<String, Value>) -> String {
    let mut out = format!("{{\"schema_version\":{SENTINEL_SCHEMA_VERSION},\"sources\":{{");
    for (n, (name, doc)) in sources.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", obs::escape_json(name), doc.to_json());
    }
    out.push_str("}}\n");
    out
}

/// Parses a baseline bundle back into per-source documents.
pub fn parse_baseline(src: &str) -> Result<BTreeMap<String, Value>, ParseError> {
    let doc = Value::parse(src).map_err(ParseError::from)?;
    let members = doc
        .as_object()
        .ok_or_else(|| ParseError::at(1, 1, "baseline bundle must be a JSON object"))?;
    let mut version = None;
    let mut sources = BTreeMap::new();
    for m in members {
        match (m.key.as_str(), &m.value) {
            ("schema_version", Value::Number(n)) => version = n.as_u64(),
            ("sources", Value::Object(entries)) => {
                for e in entries {
                    sources.insert(e.key.clone(), e.value.clone());
                }
            }
            _ => {
                return Err(ParseError::at(
                    m.line,
                    m.column,
                    format!("unexpected baseline key {:?}", m.key),
                ))
            }
        }
    }
    match version {
        Some(v) if u32::try_from(v) == Ok(SENTINEL_SCHEMA_VERSION) => Ok(sources),
        Some(v) => Err(ParseError::at(
            1,
            1,
            format!("unsupported baseline schema_version {v} (expected {SENTINEL_SCHEMA_VERSION})"),
        )),
        None => Err(ParseError::at(
            1,
            1,
            "baseline bundle missing schema_version",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &str = r#"{"smoke":true,"seed":550,"hardware_threads":1,"rows":[
        {"kernel":"phase_advance","reference_seconds":1.0,"fast_seconds":0.2,"speedup":5.0,
         "max_rel_error":1.9e-15,"bit_identical":false,"gate_active":false,"gate_passed":true}]}"#;

    fn snapshot(src: &str) -> BenchSnapshot {
        parse_bench(&Value::parse(src).expect("json")).expect("bench")
    }

    fn bundle(name: &str, src: &str) -> BTreeMap<String, BenchSnapshot> {
        let mut m = BTreeMap::new();
        m.insert(name.to_owned(), snapshot(src));
        m
    }

    #[test]
    fn bench_rows_are_keyed_by_kernel_or_threads() {
        let snap = snapshot(KERNELS);
        assert_eq!(snap.smoke, Some(true));
        assert_eq!(snap.hardware_threads, Some(1));
        assert!(snap.rows.contains_key("phase_advance"));
        let par = snapshot(
            r#"{"hardware_threads":8,"rows":[{"threads":2,"speedup":1.7,"identical":true}]}"#,
        );
        assert!(par.rows.contains_key("threads=2"));
    }

    #[test]
    fn identity_flip_regresses_unconditionally() {
        let base = bundle("BENCH_chaos.json", KERNELS);
        let regressed = KERNELS.replace("\"gate_passed\":true", "\"gate_passed\":false");
        let report = evaluate(&base, &bundle("BENCH_chaos.json", &regressed));
        assert_eq!(report.regressions(), 1, "{}", report.to_json());
        assert_eq!(report.gates[0].field, "gate_passed");
        assert_eq!(report.gates[0].status, GateStatus::Regression);
    }

    #[test]
    fn timing_gates_stay_informational_on_small_hardware() {
        let base = bundle("BENCH_chaos.json", KERNELS);
        // 10x slower, but hardware_threads=1 on both sides: not armed.
        let slower = KERNELS.replace("\"speedup\":5.0", "\"speedup\":0.5");
        let report = evaluate(&base, &bundle("BENCH_chaos.json", &slower));
        assert_eq!(report.regressions(), 0, "{}", report.to_json());
        assert!(report
            .gates
            .iter()
            .any(|g| g.field == "speedup" && g.status == GateStatus::Informational));
    }

    #[test]
    fn timing_gates_arm_on_real_hardware() {
        let fast = KERNELS.replace("\"hardware_threads\":1", "\"hardware_threads\":8");
        let slow = fast.replace("\"speedup\":5.0", "\"speedup\":3.0");
        let report = evaluate(&bundle("k", &fast), &bundle("k", &slow));
        assert_eq!(report.regressions(), 1, "{}", report.to_json());
        let ok = fast.replace("\"speedup\":5.0", "\"speedup\":4.5");
        let report = evaluate(&bundle("k", &fast), &bundle("k", &ok));
        assert_eq!(report.regressions(), 0, "within 20% tolerance");
    }

    #[test]
    fn rel_error_band_allows_headroom_but_not_blowups() {
        let base = bundle("k", KERNELS);
        let drift = KERNELS.replace("1.9e-15", "1.5e-14");
        assert_eq!(evaluate(&base, &bundle("k", &drift)).regressions(), 0);
        let blowup = KERNELS.replace("1.9e-15", "1e-3");
        assert_eq!(evaluate(&base, &bundle("k", &blowup)).regressions(), 1);
        // Zero baseline: the 1e-9 floor still allows tiny noise.
        let zero = KERNELS.replace("1.9e-15", "0e0");
        let tiny = KERNELS.replace("1.9e-15", "1e-10");
        assert_eq!(
            evaluate(&bundle("k", &zero), &bundle("k", &tiny)).regressions(),
            0
        );
    }

    #[test]
    fn missing_sources_and_rows_regress_when_comparable() {
        let base = bundle("BENCH_chaos.json", KERNELS);
        let report = evaluate(&base, &BTreeMap::new());
        assert_eq!(report.regressions(), 1);
        let no_rows = r#"{"smoke":true,"hardware_threads":1,"rows":[]}"#;
        let report = evaluate(&base, &bundle("BENCH_chaos.json", no_rows));
        assert_eq!(report.regressions(), 1);
        // Smoke mismatch downgrades the missing row to informational.
        let full = r#"{"smoke":false,"hardware_threads":1,"rows":[]}"#;
        let report = evaluate(&base, &bundle("BENCH_chaos.json", full));
        assert_eq!(report.regressions(), 0, "{}", report.to_json());
    }

    #[test]
    fn baseline_bundle_round_trips() {
        let mut sources = BTreeMap::new();
        sources.insert(
            "BENCH_chaos.json".to_owned(),
            Value::parse(KERNELS).expect("json"),
        );
        let bundle = baseline_json(&sources);
        let back = parse_baseline(&bundle).expect("parses");
        assert_eq!(back.len(), 1);
        assert_eq!(
            back["BENCH_chaos.json"].to_json(),
            sources["BENCH_chaos.json"].to_json(),
            "verbatim document preserved"
        );
        assert!(parse_baseline("{\"schema_version\":99,\"sources\":{}}").is_err());
    }
}
