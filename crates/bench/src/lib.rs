//! Shared harness code for the reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index) and prints the same rows or
//! series the paper reports, followed by explicit `PASS`/`FAIL` shape
//! checks. CSV artifacts land in `results/`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use bti_physics::LogicLevel;
use obs::Recorder;
use pentimento::analysis::mean;
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::{MeasurementMode, RouteSeries};

/// A named boolean expectation about the regenerated data.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: String,
    /// Whether the reproduction observed it.
    pub passed: bool,
    /// The observed quantity, for the report.
    pub observed: String,
}

/// Collects and prints shape checks, returning process-exit success.
#[derive(Debug, Default)]
pub struct ShapeReport {
    checks: Vec<ShapeCheck>,
}

impl ShapeReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check.
    pub fn check(&mut self, claim: impl Into<String>, passed: bool, observed: impl Into<String>) {
        self.checks.push(ShapeCheck {
            claim: claim.into(),
            passed,
            observed: observed.into(),
        });
    }

    /// Prints all checks and returns `true` when everything passed.
    pub fn finish(&self) -> bool {
        println!("\n=== shape checks ===");
        let mut ok = true;
        for c in &self.checks {
            let status = if c.passed { "PASS" } else { "FAIL" };
            println!("[{status}] {} (observed: {})", c.claim, c.observed);
            ok &= c.passed;
        }
        println!(
            "{}/{} checks passed",
            self.checks.iter().filter(|c| c.passed).count(),
            self.checks.len()
        );
        ok
    }
}

/// A route series selected for a class mean carried no measurements, so
/// the nearest-hour lookup is undefined. Carries the offending route so
/// a sweep can attribute the failure to one cell instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySeriesError {
    /// `RouteSeries::route_index` of the measurement-free series.
    pub route_index: usize,
}

impl std::fmt::Display for EmptySeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "route {} has an empty measurement series; nearest-hour mean is undefined",
            self.route_index
        )
    }
}

impl std::error::Error for EmptySeriesError {}

/// Mean Δps of one (length, burn) class at the measurement nearest `hour`.
///
/// # Errors
///
/// Returns [`EmptySeriesError`] naming the first route in the class
/// whose series holds no measurements (previously a panic).
pub fn class_mean_at_hour(
    series: &[RouteSeries],
    target_ps: f64,
    burn: LogicLevel,
    hour: f64,
) -> Result<f64, EmptySeriesError> {
    let mut v = Vec::new();
    for s in series
        .iter()
        .filter(|s| s.target_ps == target_ps && s.burn_value == burn)
    {
        let idx = s
            .hours
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - hour).abs().total_cmp(&(*b - hour).abs()))
            .map(|(i, _)| i)
            .ok_or(EmptySeriesError {
                route_index: s.route_index,
            })?;
        v.push(s.delta_ps[idx]);
    }
    Ok(mean(&v))
}

/// Writes an artifact into `results/` under the current directory
/// (created on demand), returning its path. Run the bins from the
/// repository root to refresh the checked-in artifacts.
pub fn save_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, contents)?;
    Ok(path)
}

/// Exit with status 1 when shape checks failed (so CI catches drift).
pub fn exit_by(ok: bool) -> ! {
    std::process::exit(i32::from(!ok))
}

/// Whether `--smoke` was passed on the process command line.
#[must_use]
pub fn smoke_from_args() -> bool {
    std::env::args().skip(1).any(|a| a == "--smoke")
}

/// The TM1 sweep point `attack_accuracy --smoke` runs: one 50 h burn
/// point, four routes per length, two repeats. CI checks its rows
/// against the checked-in `results/attack_accuracy.csv` byte for byte.
#[must_use]
pub fn tm1_end_to_end_config(seed: u64) -> ThreatModel1Config {
    ThreatModel1Config {
        route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
        routes_per_length: 4,
        burn_hours: 50,
        measure_every: 1,
        mode: MeasurementMode::Tdc,
        seed,
        measurement_repeats: 2,
    }
}

/// Parses a `--threads N` (or `--threads=N`) worker-count override from
/// `args`. Returns `None` when absent or malformed.
#[must_use]
fn threads_from<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix("--threads=") {
            return v.parse().ok();
        }
    }
    None
}

/// Parses `--threads` from the process command line.
#[must_use]
pub fn threads_from_args() -> Option<usize> {
    threads_from(std::env::args().skip(1))
}

/// Parses a `--NAME PATH` flag from the process command line.
#[must_use]
pub fn path_from_args(name: &str) -> Option<PathBuf> {
    path_value_from(std::env::args().skip(1), name)
}

/// Parses a `--NAME PATH` (or `--NAME=PATH`) flag value from `args`.
/// Returns `None` when the flag is absent or has no value.
fn path_value_from<I: IntoIterator<Item = String>>(args: I, name: &str) -> Option<PathBuf> {
    let long = format!("--{name}");
    let assigned = format!("--{name}=");
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == long {
            return args.next().map(PathBuf::from);
        }
        if let Some(v) = arg.strip_prefix(&assigned) {
            return Some(PathBuf::from(v));
        }
    }
    None
}

/// The observability sink a bench binary drains into when `--trace` or
/// `--metrics` was passed: one shared [`Recorder`] plus the output paths.
///
/// Attaching the recorder never perturbs the simulation — events carry
/// only values already computed on the untraced path, and the trace's
/// ordered drain makes the JSONL byte-identical at every thread width.
/// Wall-clock span durations go only into the metrics JSON, which is the
/// one deliberately nondeterministic artifact.
#[derive(Debug)]
pub struct ObsSink {
    recorder: Arc<Recorder>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
}

impl ObsSink {
    /// Builds the sink from the process command line: `Some` when
    /// `--trace PATH` and/or `--metrics PATH` was passed (either `=` or
    /// space-separated spelling), `None` when neither flag is present.
    #[must_use]
    pub fn from_args() -> Option<Self> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let trace = path_value_from(args.iter().cloned(), "trace");
        let metrics = path_value_from(args.iter().cloned(), "metrics");
        if trace.is_none() && metrics.is_none() {
            return None;
        }
        Some(Self {
            recorder: Arc::new(Recorder::new()),
            trace,
            metrics,
        })
    }

    /// The shared recorder, for attaching to providers and campaigns.
    #[must_use]
    pub fn recorder(&self) -> Arc<Recorder> {
        Arc::clone(&self.recorder)
    }

    /// Writes the requested artifacts and prints the human-readable
    /// summary table. Returns the first I/O error, after attempting both
    /// writes.
    ///
    /// When a trace was requested, also drops the derived health
    /// indicators next to it (`<trace>.indicators.json`, one line of
    /// deterministic JSON) and prints the headline indicators — the
    /// emitted trace is round-tripped through the `obs-analyze` strict
    /// parser on the way, so every traced bench run doubles as a
    /// producer/consumer contract check.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures writing any artifact.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut first_err = None;
        if let Some(path) = &self.trace {
            let trace = self.recorder.trace_jsonl();
            match fs::write(path, &trace) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => first_err = first_err.or(Some(e)),
            }
            match obs_analyze::parse_trace(&trace) {
                Ok(events) => {
                    let ind = obs_analyze::compute_indicators(&events, None);
                    let mut ind_path = path.as_os_str().to_owned();
                    ind_path.push(".indicators.json");
                    let ind_path = PathBuf::from(ind_path);
                    match fs::write(&ind_path, ind.to_json() + "\n") {
                        Ok(()) => println!("wrote {}", ind_path.display()),
                        Err(e) => first_err = first_err.or(Some(e)),
                    }
                    println!(
                        "indicators: {} events, retry storm: {}, cache hit ratio: {}",
                        ind.events,
                        if ind.has_retry_storm() { "YES" } else { "no" },
                        ind.cache_hit_ratio
                            .map_or_else(|| "n/a".to_owned(), obs::json_f64),
                    );
                }
                Err(e) => {
                    // A trace the consumer cannot parse is a contract
                    // violation, not an I/O hiccup — surface it loudly.
                    first_err = first_err.or(Some(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("emitted trace failed strict re-parse: {e}"),
                    )));
                }
            }
        }
        if let Some(path) = &self.metrics {
            match fs::write(path, self.recorder.metrics_json()) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        println!("\n{}", self.recorder.summary_table());
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// FNV-1a-64 over `bytes`: the cheap content digest behind the
/// `fault_tolerance` outcome digests and the `chaos_suite` flight-dump
/// digests.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Runs `f` inside a worker pool sized by the command line's `--threads`
/// flag, or on the default pool when the flag is absent. The sweep
/// engine's per-route RNG streams make the result bit-identical either
/// way — the flag only changes wall-clock.
pub fn run_with_thread_arg<R>(f: impl FnOnce() -> R) -> R {
    match threads_from_args() {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n.max(1))
            .build()
            .expect("thread pool")
            .install(f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(target: f64, burn: LogicLevel, last: f64) -> RouteSeries {
        RouteSeries::from_raw(0, target, burn, vec![0.0, 1.0], vec![0.0, last])
    }

    #[test]
    fn class_means_filter_correctly() {
        let all = vec![
            series(1000.0, LogicLevel::One, 2.0),
            series(1000.0, LogicLevel::One, 4.0),
            series(1000.0, LogicLevel::Zero, -2.0),
            series(2000.0, LogicLevel::One, 8.0),
        ];
        assert_eq!(
            class_mean_at_hour(&all, 1000.0, LogicLevel::Zero, 1.0),
            Ok(-2.0)
        );
    }

    #[test]
    fn class_mean_at_hour_survives_nan_hours() {
        let mut s = series(1000.0, LogicLevel::One, 2.0);
        s.hours[0] = f64::NAN;
        // total_cmp sorts the NaN distance last instead of panicking.
        assert_eq!(
            class_mean_at_hour(&[s], 1000.0, LogicLevel::One, 1.0),
            Ok(2.0)
        );
    }

    #[test]
    fn class_mean_at_hour_reports_empty_series_instead_of_panicking() {
        // Regression: an empty measurement series used to hit
        // `.expect("series non-empty")` and abort the whole sweep.
        // `from_raw` refuses to build one, so construct the degenerate
        // value the way a faulty campaign could leave it: fields direct.
        let empty = RouteSeries {
            route_index: 7,
            target_ps: 1000.0,
            burn_value: LogicLevel::One,
            hours: vec![],
            delta_ps: vec![],
        };
        let err = class_mean_at_hour(&[empty], 1000.0, LogicLevel::One, 1.0)
            .expect_err("empty series must be a typed error");
        assert_eq!(err, EmptySeriesError { route_index: 7 });
        assert!(err.to_string().contains("route 7"), "{err}");
        // An empty *class* (nothing matches the filter) is fine — the
        // mean of zero values is 0.0 by `mean`'s contract, not an error.
        let lone = series(2000.0, LogicLevel::One, 1.0);
        assert_eq!(
            class_mean_at_hour(&[lone], 1000.0, LogicLevel::One, 1.0),
            Ok(0.0)
        );
    }

    #[test]
    fn threads_flag_parses_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(threads_from(args(&["--threads", "4"])), Some(4));
        assert_eq!(threads_from(args(&["--smoke", "--threads=2"])), Some(2));
        assert_eq!(threads_from(args(&["--threads"])), None);
        assert_eq!(threads_from(args(&["--threads", "zero"])), None);
        assert_eq!(threads_from(args(&[])), None);
    }

    #[test]
    fn trace_and_metrics_flags_parse_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            path_value_from(args(&["--trace", "out.jsonl"]), "trace"),
            Some(PathBuf::from("out.jsonl"))
        );
        assert_eq!(
            path_value_from(args(&["--smoke", "--metrics=m.json"]), "metrics"),
            Some(PathBuf::from("m.json"))
        );
        assert_eq!(path_value_from(args(&["--trace"]), "trace"), None);
        assert_eq!(path_value_from(args(&["--metrics", "m"]), "trace"), None);
        assert_eq!(path_value_from(args(&[]), "trace"), None);
    }

    #[test]
    fn fnv1a_matches_the_standard_64_bit_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn shape_report_tracks_failures() {
        let mut r = ShapeReport::new();
        r.check("a", true, "1");
        assert!(r.finish());
        r.check("b", false, "2");
        assert!(!r.finish());
    }
}
