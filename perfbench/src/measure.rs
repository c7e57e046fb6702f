//! Shared measurement plumbing: pass records, busy-time accumulators,
//! order statistics, content digests and the result line.

use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bti_physics::LogicLevel;
use fpga_fabric::{FpgaDevice, Route};
use pentimento::RouteSeries;

/// What one pass of a workload's timed body produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds of the timed body.
    pub body_s: f64,
    /// Simulated route-hours the body conditioned.
    pub route_hours: f64,
    /// Campaigns (threat-model runs) that completed.
    pub campaigns: usize,
    /// Operations attempted and failed (campaigns, output checks).
    pub attempted: usize,
    pub failed: usize,
    /// Secret bits attacked and recovered correctly.
    pub bits: usize,
    pub correct: usize,
    /// Host milliseconds per simulated-hour step.
    pub steps_ms: Vec<f64>,
    /// FNV-1a digest of every campaign's `(series, recovered)`.
    pub digest: u64,
}

impl Pass {
    /// Scores one campaign's recovered bits into the pass totals.
    pub fn score(&mut self, series: &[RouteSeries], recovered: &[LogicLevel]) {
        self.bits += recovered.len();
        self.correct += series
            .iter()
            .zip(recovered)
            .filter(|(s, r)| s.burn_value == **r)
            .count();
        self.campaigns += 1;
        self.digest = fnv1a_fold(self.digest, outcome_digest(series, recovered));
    }
}

/// Busy time and call count of one layer, timed around calls the
/// benchmark itself makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub s: f64,
    pub calls: u64,
}

impl Busy {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.s += started.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }
}

/// Per-layer metrics of one traced pass. A layer the workload reaches only
/// inside a library call (or not at all) reads zero.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub tdc_calibrate: Busy,
    pub tdc_measure: Busy,
    pub tdc_sensor_reads: u64,
    pub tdc_samples: u64,
    pub route_delay_ns_per_call: f64,
    pub advance_time: Busy,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub arena_bytes_peak: u64,
    pub skeleton_place: Busy,
    pub classify: Busy,
    pub checkpoint: Busy,
    pub resume: Busy,
    pub retries: u64,
    pub reacquisitions: u64,
    pub points_attempted: u64,
    pub points_recorded: u64,
    pub checkpoints: u64,
    pub store_bytes: u64,
    /// Envelope-store calls made inside the timed body.
    pub store_io: Busy,
    pub store_commit_batch_ms: f64,
    pub store_latest_good_ms: f64,
    pub trace_overhead_frac: f64,
    /// Traced wall time not covered by the busy times above.
    pub unattributed_frac: f64,
}

impl Layers {
    /// Host seconds covered by the layer busy times.
    pub fn busy_s(&self) -> f64 {
        self.tdc_calibrate.s
            + self.tdc_measure.s
            + self.advance_time.s
            + self.skeleton_place.s
            + self.classify.s
            + self.checkpoint.s
            + self.resume.s
            + self.store_io.s
    }

    /// Every per-layer metric as `(name, value, unit)`, in table order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let us_per_sample = if self.tdc_samples > 0 {
            self.tdc_measure.s * 1e6 / self.tdc_samples as f64
        } else {
            0.0
        };
        let recorded_ratio = if self.points_attempted > 0 {
            self.points_recorded as f64 / self.points_attempted as f64
        } else {
            0.0
        };
        vec![
            ("tdc.calibrate.s", self.tdc_calibrate.s, "s"),
            (
                "tdc.calibrate.calls",
                self.tdc_calibrate.calls as f64,
                "count",
            ),
            ("tdc.measure.s", self.tdc_measure.s, "s"),
            ("tdc.measure.calls", self.tdc_measure.calls as f64, "count"),
            ("tdc.sensor_reads", self.tdc_sensor_reads as f64, "count"),
            ("tdc.samples", self.tdc_samples as f64, "count"),
            ("tdc.measure.us_per_sample", us_per_sample, "us"),
            (
                "fabric.route_delay.ns_per_call",
                self.route_delay_ns_per_call,
                "ns",
            ),
            ("cloud.advance_time.s", self.advance_time.s, "s"),
            (
                "cloud.advance_time.calls",
                self.advance_time.calls as f64,
                "count",
            ),
            ("physics.decay_cache.hits", self.cache_hits as f64, "count"),
            (
                "physics.decay_cache.misses",
                self.cache_misses as f64,
                "count",
            ),
            (
                "physics.arena_bytes_peak",
                self.arena_bytes_peak as f64,
                "B",
            ),
            ("pentimento.skeleton_place.s", self.skeleton_place.s, "s"),
            ("pentimento.classify.s", self.classify.s, "s"),
            ("pentimento.checkpoint.s", self.checkpoint.s, "s"),
            ("pentimento.resume.s", self.resume.s, "s"),
            ("pentimento.retries", self.retries as f64, "count"),
            (
                "pentimento.reacquisitions",
                self.reacquisitions as f64,
                "count",
            ),
            ("pentimento.points_recorded_ratio", recorded_ratio, "frac"),
            ("fleet.checkpoints", self.checkpoints as f64, "count"),
            ("fleet.store.bytes", self.store_bytes as f64, "B"),
            (
                "fleet.store.commit_batch_ms",
                self.store_commit_batch_ms,
                "ms",
            ),
            (
                "fleet.store.latest_good_ms",
                self.store_latest_good_ms,
                "ms",
            ),
            ("obs.trace_overhead_frac", self.trace_overhead_frac, "frac"),
            ("obs.unattributed_frac", self.unattributed_frac, "frac"),
        ]
    }

    /// The deterministic work counters: exact functions of the workload,
    /// seed and code, at every thread count.
    pub fn work_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("tdc.calibrate.calls", self.tdc_calibrate.calls),
            ("tdc.measure.calls", self.tdc_measure.calls),
            ("tdc.sensor_reads", self.tdc_sensor_reads),
            ("tdc.samples", self.tdc_samples),
            ("cloud.advance_time.calls", self.advance_time.calls),
            ("physics.decay_cache.hits", self.cache_hits),
            ("physics.decay_cache.misses", self.cache_misses),
            ("physics.arena_bytes_peak", self.arena_bytes_peak),
            ("pentimento.retries", self.retries),
            ("pentimento.reacquisitions", self.reacquisitions),
            ("pentimento.points_recorded", self.points_recorded),
            ("fleet.checkpoints", self.checkpoints),
            ("fleet.store.bytes", self.store_bytes),
        ]
    }
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Folds a 64-bit value into a running FNV-1a digest.
pub fn fnv1a_fold(hash: u64, value: u64) -> u64 {
    fnv1a_extend(hash, &value.to_le_bytes())
}

/// Exact content digest of a campaign's behavioural outcome: FNV-1a over
/// the `Debug` rendering of `(series, recovered)`. `Debug` prints floats
/// shortest-roundtrip, so equal digests mean bit-equal outcomes.
pub fn outcome_digest(series: &[RouteSeries], recovered: &[LogicLevel]) -> u64 {
    fnv1a_extend(FNV_OFFSET, format!("{:?}", (series, recovered)).as_bytes())
}

/// Capture samples in one sensor read: every trace of a measurement,
/// both edge polarities.
pub fn samples_per_read() -> u64 {
    let config = tdc::TdcConfig::cloud();
    (config.traces_per_measurement * config.samples_per_trace * 2) as u64
}

/// Host nanoseconds per `FpgaDevice::route_delay` call over `routes`,
/// swept for at least 50 ms so the figure is not dominated by the clock.
pub fn route_delay_probe(device: &FpgaDevice, routes: &[Route]) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed() < Duration::from_millis(50) {
        for route in routes {
            black_box(device.route_delay(black_box(route)));
            calls += 1;
        }
    }
    started.elapsed().as_secs_f64() * 1e9 / calls.max(1) as f64
}

/// A private directory under `.perfbench-tmp/` in the working directory,
/// removed (with the parent, once empty) on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(SCRATCH_ROOT).join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Commit the removal now, so its journal work is not billed to
        // whatever is timed next.
        if let Ok(root) = fs::File::open(SCRATCH_ROOT) {
            let _ = root.sync_all();
        }
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}

const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (n, (name, value, unit)) in metrics.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            obs::json_f64(value)
        );
    }
    out.push_str("}}");
    out
}
