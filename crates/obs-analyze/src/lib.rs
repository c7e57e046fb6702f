//! Consumption layer for campaign telemetry.
//!
//! The `obs` crate *produces* deterministic artifacts — a content-ordered
//! JSONL event trace and a metrics snapshot — but until now nothing in
//! the workspace could read them back: CI validated traces with an
//! ad-hoc `python3` fallback and nobody compared two runs except by
//! `diff(1)` on bytes. This crate closes the loop with six pillars:
//!
//! 1. [`json`] / [`parse`] — a strict, position-reporting JSON layer and
//!    typed decoders. A parsed trace line is an [`obs::CampaignEvent`]
//!    and re-encoding it reproduces the source bytes; metrics snapshots
//!    enforce the `schema_version` N / N−1 compatibility rule.
//! 2. [`indicators`] — derived health indicators (retry storms, backoff
//!    totals, cache hit ratio, abstain and quorum-failure rates,
//!    per-phase event counts, span percentiles) with byte-deterministic
//!    JSON and Markdown renderings.
//! 3. [`diff`](mod@diff) — semantic trace diffs: runs compared as event
//!    multisets under the Recorder's canonical order, so serial and
//!    parallel runs of the same campaign diff empty and real behavioural
//!    drift shows up as added/removed events plus counter and indicator
//!    deltas.
//! 4. [`sentinel`] — a regression sentinel over the `results/BENCH_*`
//!    lineage with tolerance-banded gates: identity claims gate
//!    unconditionally, timing gates arm only on real parallel hardware,
//!    numerical error is banded with head room.
//! 5. [`stream`] — the bounded-memory indicator accumulator behind
//!    [`indicators::compute`]: [`StreamingIndicators`] consumes the
//!    trace line by line (arbitrary chunk boundaries) and produces the
//!    byte-identical [`Indicators`] value, so fleet-scale traces never
//!    have to fit in memory.
//! 6. [`alerts`] — rule-based online anomaly detection driven off the
//!    streaming engine: retry storms, abstain/quorum-rate spikes,
//!    cache collapse, and breaker flapping, each threshold crossing
//!    logged as a deterministic firing/clearing [`alerts::AlertEdge`]
//!    with byte-stable JSON and Markdown renderings.
//!
//! Like `obs` itself the crate is std-only: the workspace vendors
//! offline dependency stubs, so anything that must run everywhere (CI,
//! bench bins, tests) cannot drag real dependencies in.
//!
//! The `bench` crate's `obs_report` binary is the CLI front end; see
//! EXPERIMENTS.md for the subcommand and schema reference and DESIGN.md
//! §11 for the determinism contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod diff;
pub mod indicators;
pub mod json;
pub mod parse;
pub mod sentinel;
pub mod stream;

pub use alerts::{compute_alerts, AlertConfig, AlertEdge, AlertEngine, AlertKind, AlertLog};
pub use diff::{diff, TraceDiff};
pub use indicators::{compute as compute_indicators, IndicatorConfig, Indicators};
pub use json::{JsonError, Value};
pub use parse::{
    cross_check, first_order_violation, parse_metrics, parse_trace, parse_trace_line,
    MetricsSnapshot, ParseError,
};
pub use sentinel::{evaluate, parse_bench, BenchSnapshot, GateStatus, SentinelReport};
pub use stream::StreamingIndicators;
