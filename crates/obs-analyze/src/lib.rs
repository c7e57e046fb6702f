//! Consumption layer for campaign telemetry.
//!
//! The `obs` crate *produces* deterministic artifacts — a content-ordered
//! JSONL event trace and a metrics snapshot. This crate reads them back
//! with two pillars:
//!
//! 1. [`json`] / [`parse`] — a strict, position-reporting JSON layer and
//!    typed decoders. A parsed trace line is an [`obs::CampaignEvent`]
//!    and re-encoding it reproduces the source bytes; metrics snapshots
//!    enforce the `schema_version` N / N−1 compatibility rule.
//! 2. [`indicators`] — derived health indicators (retry storms, backoff
//!    totals, cache hit ratio, abstain and quorum-failure rates,
//!    per-phase event counts, span percentiles) with byte-deterministic
//!    JSON and Markdown renderings.
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

pub mod indicators;
pub mod json;
pub mod parse;

pub use indicators::{compute as compute_indicators, Indicators};
pub use json::{JsonError, Value};
pub use parse::{
    cross_check, first_order_violation, parse_metrics, parse_trace, parse_trace_line,
    MetricsSnapshot, ParseError,
};
