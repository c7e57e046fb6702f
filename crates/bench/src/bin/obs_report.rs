//! `obs_report` — CLI front end for the `obs-analyze` telemetry layer.
//!
//! Subcommands (see EXPERIMENTS.md for the full reference):
//!
//! * `validate <trace> [metrics]` — strict-parse a trace (and optionally
//!   its metrics snapshot), verify canonical event order and
//!   trace/metrics agreement. Exit 1 with `line, column` positions on
//!   any violation. Replaces CI's old ad-hoc `python3` validation.
//! * `indicators <trace> [--metrics m.json] [--json|--md] [--stream]` —
//!   derived health indicators; byte-deterministic in both renderings.
//!   `--stream` feeds the trace through [`StreamingIndicators`] in
//!   fixed-size chunks (bounded memory, no event `Vec`); the rendering
//!   is byte-identical to the batch path by the DESIGN.md §15 contract.
//! * `diff <base> <cand>` — semantic multiset diff of two traces (event
//!   multisets, counters, and indicators). Exit 0
//!   when the runs are semantically identical, 1 otherwise.
//! * `sentinel --baseline b.json [--current f.json ...] [--write-baseline]`
//!   — BENCH regression gates. A missing baseline is written from the
//!   current artifacts and exits 0 (CI soft-fails on first run);
//!   otherwise exit 1 when any gate regresses.

use std::collections::BTreeMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use obs_analyze::diff::diff;
use obs_analyze::indicators::{compute, IndicatorConfig, Indicators};
use obs_analyze::json::Value;
use obs_analyze::parse::{
    cross_check, first_order_violation, parse_metrics, parse_trace, MetricsSnapshot,
};
use obs_analyze::sentinel::{
    baseline_json, evaluate, parse_baseline, parse_bench, BenchSnapshot, GateStatus,
};
use obs_analyze::stream::StreamingIndicators;

/// BENCH artifacts the sentinel tracks when no `--current` is given.
const DEFAULT_BENCH_SOURCES: [&str; 2] = ["results/BENCH_chaos.json", "results/BENCH_fleet.json"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("indicators") => cmd_indicators(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("sentinel") => cmd_sentinel(&args[1..]),
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
        None => Err(USAGE.to_owned()),
    };
    match code {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: obs_report <subcommand>\n  \
    validate <trace.jsonl> [metrics.json]\n  \
    indicators <trace.jsonl> [--metrics metrics.json] [--json|--md] [--stream]\n  \
    diff <base.jsonl> <candidate.jsonl>\n  \
    sentinel --baseline <bundle.json> [--current <BENCH.json>]... [--write-baseline]";

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_trace(path: &str) -> Result<Vec<obs::CampaignEvent>, String> {
    parse_trace(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn load_metrics(path: &str) -> Result<MetricsSnapshot, String> {
    parse_metrics(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, String> {
    let [trace_path, rest @ ..] = args else {
        return Err(format!("validate needs a trace path\n{USAGE}"));
    };
    let events = load_trace(trace_path)?;
    if let Some(index) = first_order_violation(&events) {
        return Err(format!(
            "{trace_path}: line {} breaks the Recorder's canonical event order",
            index + 1
        ));
    }
    println!("{trace_path}: {} events, canonical order", events.len());
    if let Some(metrics_path) = rest.first() {
        let metrics = load_metrics(metrics_path)?;
        cross_check(&events, &metrics).map_err(|e| format!("{metrics_path}: {e}"))?;
        println!(
            "{metrics_path}: schema_version {}, consistent with trace",
            metrics.schema_version
        );
    }
    println!("OK");
    Ok(ExitCode::SUCCESS)
}

/// Streams a trace file through [`StreamingIndicators`] in fixed-size
/// chunks. Peak memory is one chunk plus the engine's per-(phase,route)
/// cells — the full-trace `String` and event `Vec` of the batch path
/// never exist here.
fn stream_indicators(
    trace_path: &str,
    metrics: Option<&MetricsSnapshot>,
) -> Result<Indicators, String> {
    let mut file =
        fs::File::open(trace_path).map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let mut engine = StreamingIndicators::new(&IndicatorConfig::default());
    let mut chunk = [0u8; 8192];
    loop {
        let n = file
            .read(&mut chunk)
            .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
        if n == 0 {
            break;
        }
        engine
            .push_chunk(&chunk[..n])
            .map_err(|e| format!("{trace_path}: {e}"))?;
    }
    engine
        .finish(metrics)
        .map_err(|e| format!("{trace_path}: {e}"))
}

fn cmd_indicators(args: &[String]) -> Result<ExitCode, String> {
    let mut trace_path = None;
    let mut metrics_path: Option<String> = None;
    let mut markdown = false;
    let mut streaming = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => markdown = false,
            "--md" => markdown = true,
            "--stream" => streaming = true,
            "--metrics" => {
                metrics_path = Some(
                    it.next()
                        .ok_or_else(|| "--metrics needs a path".to_owned())?
                        .clone(),
                );
            }
            other => match other.strip_prefix("--metrics=") {
                Some(v) => metrics_path = Some(v.to_owned()),
                None if trace_path.is_none() => trace_path = Some(other.to_owned()),
                None => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
            },
        }
    }
    let trace_path = trace_path.ok_or_else(|| format!("indicators needs a trace path\n{USAGE}"))?;
    let metrics = metrics_path.as_deref().map(load_metrics).transpose()?;
    let ind = if streaming {
        stream_indicators(&trace_path, metrics.as_ref())?
    } else {
        let events = load_trace(&trace_path)?;
        compute(&events, metrics.as_ref(), &IndicatorConfig::default())
    };
    if markdown {
        print!("{}", ind.to_markdown());
    } else {
        println!("{}", ind.to_json());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, cand_path] = args else {
        return Err(format!("diff needs exactly two trace paths\n{USAGE}"));
    };
    let base = load_trace(base_path)?;
    let cand = load_trace(cand_path)?;
    let d = diff(&base, &cand, None, None);
    println!("{}", d.to_json());
    Ok(if d.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_bench_sources(
    paths: &[String],
) -> Result<BTreeMap<String, (Value, BenchSnapshot)>, String> {
    let mut out = BTreeMap::new();
    for path in paths {
        let doc = Value::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        let snap = parse_bench(&doc).map_err(|e| format!("{path}: {e}"))?;
        let name = Path::new(path)
            .file_name()
            .map_or_else(|| path.clone(), |n| n.to_string_lossy().into_owned());
        out.insert(name, (doc, snap));
    }
    Ok(out)
}

fn cmd_sentinel(args: &[String]) -> Result<ExitCode, String> {
    let mut baseline_path: Option<String> = None;
    let mut currents: Vec<String> = Vec::new();
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                baseline_path = Some(
                    it.next()
                        .ok_or_else(|| "--baseline needs a path".to_owned())?
                        .clone(),
                );
            }
            "--current" => currents.push(
                it.next()
                    .ok_or_else(|| "--current needs a path".to_owned())?
                    .clone(),
            ),
            "--write-baseline" => write_baseline = true,
            other => match (
                other.strip_prefix("--baseline="),
                other.strip_prefix("--current="),
            ) {
                (Some(v), _) => baseline_path = Some(v.to_owned()),
                (None, Some(v)) => currents.push(v.to_owned()),
                (None, None) => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
            },
        }
    }
    let baseline_path =
        baseline_path.ok_or_else(|| format!("sentinel needs --baseline\n{USAGE}"))?;
    if currents.is_empty() {
        currents = DEFAULT_BENCH_SOURCES
            .iter()
            .filter(|p| Path::new(p).exists())
            .map(|p| (*p).to_owned())
            .collect();
        if currents.is_empty() {
            return Err(format!(
                "no --current artifacts given and none of the defaults exist ({})",
                DEFAULT_BENCH_SOURCES.join(", ")
            ));
        }
    }
    let current = load_bench_sources(&currents)?;

    if write_baseline || !PathBuf::from(&baseline_path).exists() {
        let docs: BTreeMap<String, Value> = current
            .iter()
            .map(|(name, (doc, _))| (name.clone(), doc.clone()))
            .collect();
        fs::write(&baseline_path, baseline_json(&docs))
            .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
        println!(
            "sentinel: wrote baseline {baseline_path} from {} artifact(s); nothing to compare yet",
            docs.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let base_docs =
        parse_baseline(&read(&baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let mut base = BTreeMap::new();
    for (name, doc) in &base_docs {
        base.insert(
            name.clone(),
            parse_bench(doc).map_err(|e| format!("{baseline_path}: {name}: {e}"))?,
        );
    }
    let current_snaps: BTreeMap<String, BenchSnapshot> = current
        .into_iter()
        .map(|(name, (_, snap))| (name, snap))
        .collect();
    let report = evaluate(&base, &current_snaps);
    println!("{}", report.to_json());
    for gate in &report.gates {
        if gate.status != GateStatus::Pass {
            println!(
                "[{}] {} {} {}: base {}, current {} — {}",
                gate.status.as_str(),
                gate.source,
                gate.row,
                gate.field,
                gate.base,
                gate.candidate,
                gate.note
            );
        }
    }
    let regressions = report.regressions();
    println!(
        "sentinel: {} gate(s), {} regression(s)",
        report.gates.len(),
        regressions
    );
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
