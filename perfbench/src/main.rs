//! The repository benchmark: two workloads that drive the library crates
//! through their public functions, timed end to end (`--trace 0`) or
//! layer by layer (`--trace 1`).
//!
//! ```text
//! perfbench --workload <attack_tdc|campaign_hostile> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --self-test [--workload <name>] [--seed <n>]
//! ```
//!
//! Every run checks its outputs (pinned digests, traced ≡ library) and
//! prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md for
//! the metric table and what each workload loads.

mod attack;
mod hostile;
mod measure;
mod pins;
mod provenance;

use std::process::ExitCode;
use std::time::Instant;

use measure::{median, peak_rss_mb, percentile, result_line, Layers, Pass};

/// Worker threads of every measured run (the host has 2 CPUs).
const THREADS: usize = 2;

/// `setup_s` is the fastest batch mean in a `SETUP_WINDOW_S` window. A batch
/// repeats the set-up under one clock until it has taken `SETUP_BATCH_S`,
/// so a set-up of a few microseconds is timed over many repeats. The
/// fastest, not the median, because the shared host slows the
/// allocation-heavy set-up by up to ~1.8× in stretches of 2–7 s: replayed
/// over a 60 s trace of batch means, ten-run sets of the median of a 5 s
/// window spread 0.23 (IQR/median), of the fastest in 2 s 0.14, and of the
/// fastest in 5 s 0.04.
const SETUP_WINDOW_S: f64 = 5.0;
const SETUP_BATCH_S: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    AttackTdc,
    CampaignHostile,
}

impl Workload {
    const ALL: [Workload; 2] = [Self::AttackTdc, Self::CampaignHostile];

    fn name(self) -> &'static str {
        match self {
            Self::AttackTdc => "attack_tdc",
            Self::CampaignHostile => "campaign_hostile",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One untraced pass of the timed body.
    fn pass(self, seed: u64) -> Result<Pass, String> {
        match self {
            Self::AttackTdc => attack::pass(seed).map_err(|e| e.to_string()),
            Self::CampaignHostile => hostile::pass(seed, None),
        }
    }

    /// One traced pass, filling `layers`.
    fn traced(self, seed: u64, layers: &mut Layers) -> Result<Pass, String> {
        match self {
            Self::AttackTdc => attack::pass_traced(seed, layers).map_err(|e| e.to_string()),
            Self::CampaignHostile => hostile::pass(seed, Some(layers)),
        }
    }

    /// One set-up, built and dropped.
    fn setup(self, seed: u64) -> Result<(), String> {
        match self {
            Self::AttackTdc => drop(attack::setup(seed)),
            Self::CampaignHostile => drop(hostile::setup(seed, None)?),
        }
        Ok(())
    }

    /// Host seconds per set-up: the fastest batch mean in the window.
    fn setup_s(self, seed: u64) -> Result<f64, String> {
        let window = Instant::now();
        let mut fastest = f64::INFINITY;
        while window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
            let started = Instant::now();
            let mut setups = 0u32;
            while setups == 0 || started.elapsed().as_secs_f64() < SETUP_BATCH_S {
                self.setup(seed)?;
                setups += 1;
            }
            fastest = fastest.min(started.elapsed().as_secs_f64() / f64::from(setups));
        }
        Ok(fastest)
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && args.workload.is_none() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(&args);
    }
    let workload = args.workload.expect("checked in parse_args");
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("the vendored pool never fails to build");
    match pool.install(|| run(workload, &args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Output checks shared by both modes: every pass reproduces the first,
/// the first matches its pin (when the seed has one), and every
/// operation completed.
struct Checks {
    digest: Option<u64>,
    ok: bool,
}

impl Checks {
    fn new() -> Self {
        Self {
            digest: None,
            ok: true,
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.ok = false;
    }

    fn pass(&mut self, workload: Workload, seed: u64, pass: &Pass) {
        if pass.failed > 0 {
            self.fail(format!(
                "{} of {} operations failed",
                pass.failed, pass.attempted
            ));
        }
        match self.digest {
            None => {
                self.digest = Some(pass.digest);
                if let Some(pinned) = pins::pinned(workload.name(), seed) {
                    if pinned != pass.digest {
                        self.fail(format!(
                            "digest {:#018x} differs from the pinned {pinned:#018x}",
                            pass.digest
                        ));
                    }
                }
            }
            Some(first) if first != pass.digest => self.fail(format!(
                "pass digest {:#018x} differs from the first pass {first:#018x}",
                pass.digest
            )),
            Some(_) => {}
        }
    }
}

/// One measured run; returns the result line.
fn run(workload: Workload, args: &Args) -> Result<String, String> {
    let seed = args.seed;
    let mut checks = Checks::new();
    // Timed first, on a fresh heap, and outside the measuring window. A
    // traced run reports no end-to-end metrics, so it skips this.
    let setup_s = if args.trace {
        0.0
    } else {
        workload.setup_s(seed)?
    };

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut layers = Layers::default();
    loop {
        let round = Instant::now();
        let pass = workload.pass(seed)?;
        eprintln!("pass {}: body {:.4} s", passes.len() + 1, pass.body_s);
        checks.pass(workload, seed, &pass);
        passes.push(pass);
        if args.trace {
            let mut fresh = Layers::default();
            let pass = workload.traced(seed, &mut fresh)?;
            checks.pass(workload, seed, &pass);
            traced.push(pass);
            layers = fresh;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let round_s = round.elapsed().as_secs_f64();
        // Stop before a round that would overrun the window; at least
        // one round always runs.
        if elapsed + round_s > args.seconds {
            break;
        }
    }

    let attempted: usize = passes.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: usize = passes.iter().chain(&traced).map(|p| p.failed).sum();
    let first = &passes[0];

    provenance::print(
        workload.name(),
        args,
        passes.len() + traced.len(),
        first.digest,
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let untraced_wall = median(&passes.iter().map(|p| p.body_s).collect::<Vec<_>>());
        let traced_wall = median(&traced.iter().map(|p| p.body_s).collect::<Vec<_>>());
        layers.trace_overhead_frac = traced_wall / untraced_wall - 1.0;
        let last_traced = traced.last().map_or(traced_wall, |p| p.body_s);
        layers.unattributed_frac = 1.0 - layers.busy_s() / last_traced;
        layers.metrics()
    } else {
        let body_s: f64 = passes.iter().map(|p| p.body_s).sum();
        let steps: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.steps_ms.iter().copied())
            .collect();
        vec![
            ("setup_s", setup_s, "s"),
            (
                "wall_s",
                median(&passes.iter().map(|p| p.body_s).collect::<Vec<_>>()),
                "s",
            ),
            (
                "route_hours_per_s",
                passes.iter().map(|p| p.route_hours).sum::<f64>() / body_s,
                "route-h/s",
            ),
            (
                "campaigns_per_s",
                passes.iter().map(|p| p.campaigns).sum::<usize>() as f64 / body_s,
                "1/s",
            ),
            (
                "accuracy",
                first.correct as f64 / first.bits.max(1) as f64,
                "frac",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("step_ms_p50", percentile(&steps, 50.0), "ms"),
            ("step_ms_p95", percentile(&steps, 95.0), "ms"),
        ]
    };
    Ok(result_line(
        checks.ok && failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

/// Asserts that the deterministic work counters and the outcome digest
/// repeat exactly across two traced runs at two threads and one at one
/// thread.
fn self_test(args: &Args) -> ExitCode {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in workloads {
        let mut runs = Vec::new();
        for threads in [2, 2, 1] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the vendored pool never fails to build");
            let mut layers = Layers::default();
            match pool.install(|| workload.traced(args.seed, &mut layers)) {
                Ok(pass) => runs.push((threads, pass.digest, layers.work_counters())),
                Err(e) => {
                    eprintln!("{}: {e}", workload.name());
                    ok = false;
                }
            }
        }
        let Some((_, digest, counters)) = runs.first().cloned() else {
            continue;
        };
        for (threads, other_digest, other) in &runs[1..] {
            if *other_digest != digest {
                println!(
                    "FAIL {} digest at {threads} thread(s): {other_digest:#018x} vs {digest:#018x}",
                    workload.name()
                );
                ok = false;
            }
            for ((name, a), (_, b)) in counters.iter().zip(other) {
                if a != b {
                    println!(
                        "FAIL {} {name} at {threads} thread(s): {b} vs {a}",
                        workload.name()
                    );
                    ok = false;
                }
            }
        }
        println!("{} digest {digest:#018x}", workload.name());
        for (name, value) in &counters {
            println!("  {name:<28} {value}");
        }
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
