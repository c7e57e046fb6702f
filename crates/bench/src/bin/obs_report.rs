//! `obs_report` — CLI front end for the `obs-analyze` telemetry layer.
//!
//! Subcommands (see EXPERIMENTS.md for the full reference):
//!
//! * `validate <trace> [metrics]` — strict-parse a trace (and optionally
//!   its metrics snapshot), verify canonical event order and
//!   trace/metrics agreement. Exit 1 with `line, column` positions on
//!   any violation. Replaces CI's old ad-hoc `python3` validation.
//! * `indicators <trace> [--metrics m.json] [--json|--md]` — derived
//!   health indicators; byte-deterministic in both renderings.

use std::fs;
use std::process::ExitCode;

use obs_analyze::indicators::compute;
use obs_analyze::parse::{
    cross_check, first_order_violation, parse_metrics, parse_trace, MetricsSnapshot,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("validate") => cmd_validate(&args[1..]),
        Some("indicators") => cmd_indicators(&args[1..]),
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
    indicators <trace.jsonl> [--metrics metrics.json] [--json|--md]";

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

fn cmd_indicators(args: &[String]) -> Result<ExitCode, String> {
    let mut trace_path = None;
    let mut metrics_path: Option<String> = None;
    let mut markdown = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => markdown = false,
            "--md" => markdown = true,
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
    let events = load_trace(&trace_path)?;
    let ind = compute(&events, metrics.as_ref());
    if markdown {
        print!("{}", ind.to_markdown());
    } else {
        println!("{}", ind.to_json());
    }
    Ok(ExitCode::SUCCESS)
}
