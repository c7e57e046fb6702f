//! Analytic fast-path kernels: reference vs. optimized wall-clock and
//! equivalence on the paper-shaped workloads that dominate runtime.
//!
//! Three kernel families got closed-form / banded / selection rewrites:
//!
//! 1. **Phase advance** — `AgingArena::advance_slot` evaluates each
//!    trap bin's first-order occupancy ODE analytically over an entire
//!    constant-condition phase (one `exp` per bin per phase) instead of
//!    hour-stepping `TrapBin::advance`. Composition of exponentials
//!    differs in rounding, so the check is a <= 1e-9 relative tolerance
//!    on occupancy levels.
//! 2. **Banded local regression** — `KernelRegression::smooth` truncates
//!    the Gaussian kernel at +-8 sigma over a sliding window
//!    (O(n*w) vs. the O(n^2) `smooth_dense` reference). Dropped weights
//!    are <= exp(-32), so the check is again <= 1e-9 relative.
//! 3. **Selection median** — `median_in_place` uses
//!    `select_nth_unstable_by` (O(n)) and must be *bit-identical* to the
//!    sort-based `median_sorted` reference.
//!
//! A fourth row times the shared end-to-end TM1 sweep (the exact
//! `attack_accuracy --smoke` workload) with the device layer's reference
//! kernels against the cached closed-form path; those two campaigns must
//! be byte-identical.
//!
//! A fifth row times the **whole-device phase sweep**: the
//! structure-of-arrays `AgingArena::advance_phase_all` batched path
//! against a per-wire `TrapBin::advance` loop on identical stress
//! histories, with per-wire bit-identity as the unconditional check.
//!
//! Equivalence checks are **unconditional** — they gate CI in `--smoke`
//! mode too. Speedup thresholds (phase advance 5x, smoother 3x, device
//! sweep 10x) are hardware-gated like `parallel_scaling`: skipped in
//! smoke mode, informational on hosts with < 4 hardware threads,
//! enforced otherwise. Measured numbers are recorded in
//! `BENCH_kernels.json` regardless.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use bench::{exit_by, save_artifact, smoke_from_args, tm1_end_to_end_config, ObsSink, ShapeReport};
use bti_physics::{AgingArena, BtiModel, Celsius, DutyCycle, Hours, LogicLevel, Polarity, TrapBin};
use cloud::{Provider, ProviderConfig};
use fpga_fabric::{Design, FpgaDevice, NetActivity, TileCoord, WireId};
use pentimento::analysis::{median_in_place, median_sorted, KernelEstimator, KernelRegression};
use pentimento::{Campaign, CampaignConfig, Mission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 550;

/// The paper's lab operating temperature.
fn temp() -> Celsius {
    Celsius::new(60.0)
}

/// One reference-vs-fast measurement, serialized into the artifact.
struct Row {
    kernel: &'static str,
    reference_seconds: f64,
    fast_seconds: f64,
    max_rel_error: f64,
    bit_identical: bool,
    gate: Option<f64>,
    gate_active: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_seconds / self.fast_seconds.max(1e-9)
    }

    fn gate_passed(&self) -> bool {
        self.gate
            .is_none_or(|threshold| !self.gate_active || self.speedup() >= threshold)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"kernel\":\"{}\",\"reference_seconds\":{:.6},",
                "\"fast_seconds\":{:.6},\"speedup\":{:.3},",
                "\"max_rel_error\":{:e},\"bit_identical\":{},",
                "\"gate_active\":{},\"gate_passed\":{}}}"
            ),
            self.kernel,
            self.reference_seconds,
            self.fast_seconds,
            self.speedup(),
            self.max_rel_error,
            self.bit_identical,
            self.gate_active,
            self.gate_passed(),
        )
    }
}

/// One wire's CET bins per polarity (NBTI, PBTI), as the model builds them.
type WireBins = [Vec<TrapBin>; 2];

/// The physics oracle: steps every bin of `wire` once through
/// `TrapBin::advance` at `duty`, or relaxes it (no capture) on `None`.
fn oracle_step(model: &BtiModel, wire: &mut WireBins, dt: Hours, duty: Option<DutyCycle>) {
    for (polarity, bins) in Polarity::ALL.into_iter().zip(wire) {
        let (cap, emi) = model.acceleration(polarity, temp());
        for b in bins {
            match duty {
                Some(d) => b.advance(dt, d.stress_share(polarity), cap, emi),
                None => b.advance(dt, 0.0, 1.0, emi),
            }
        }
    }
}

/// Normalized threshold-voltage shift of one polarity of `wire`.
fn oracle_level(wire: &WireBins, polarity: Polarity) -> f64 {
    let bins = &wire[usize::from(polarity == Polarity::Pbti)];
    bins.iter().map(|b| b.weight * b.occupancy).sum()
}

fn rel_err(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Multi-phase burn/recover schedule shaped like the paper's Figure 6
/// lifecycle: a long burn, a long complement phase, then a mixed tail.
fn phase_schedule(smoke: bool, state_index: usize) -> Vec<(usize, DutyCycle)> {
    let scale = if smoke { 10 } else { 1 };
    let tail = DutyCycle::new(0.25 * (state_index % 5) as f64).expect("valid duty");
    vec![
        (200 / scale, DutyCycle::ALWAYS_ONE),
        (100 / scale, DutyCycle::ALWAYS_ZERO),
        (50 / scale, tail),
    ]
}

/// Hour-stepped reference vs. closed-form phase advance over a fleet of
/// wire aging histories.
fn bench_phase_advance(smoke: bool) -> Row {
    let model = BtiModel::ultrascale_plus();
    let states = if smoke { 16 } else { 96 };

    let start = Instant::now();
    let reference: Vec<WireBins> = (0..states)
        .map(|i| {
            let mut wire = Polarity::ALL.map(|p| model.fresh_bins(p));
            for (hours, duty) in phase_schedule(smoke, i) {
                for _ in 0..hours {
                    oracle_step(&model, &mut wire, Hours::new(1.0), Some(duty));
                }
            }
            wire
        })
        .collect();
    let reference_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut fast = AgingArena::new(&model);
    for i in 0..states {
        let slot = fast.ensure(i as u64);
        for (hours, duty) in phase_schedule(smoke, i) {
            fast.advance_slot(slot, &model, Hours::new(hours as f64), duty, temp());
        }
    }
    let fast_seconds = start.elapsed().as_secs_f64();

    let max_rel_error = reference
        .iter()
        .enumerate()
        .flat_map(|(slot, r)| {
            let f = fast.view_at(slot);
            Polarity::ALL
                .into_iter()
                .map(move |p| rel_err(oracle_level(r, p), f.level(p)))
        })
        .fold(0.0_f64, f64::max);

    Row {
        kernel: "phase_advance",
        reference_seconds,
        fast_seconds,
        max_rel_error,
        bit_identical: false,
        gate: Some(5.0),
        gate_active: false,
    }
}

/// Fig6-shaped drift series: slow saturating trend plus sensor noise.
fn drift_series(n: usize, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&h| 10.0 * (1.0 - (-h / 40.0).exp()) + rng.gen_range(-0.5..0.5))
        .collect();
    (x, y)
}

/// Dense O(n^2) vs. banded local regression on fig6-shaped series.
fn bench_smoother(smoke: bool) -> Row {
    let (n, series) = if smoke { (401, 4) } else { (2_001, 8) };
    let mut rng = StdRng::seed_from_u64(SEED);
    let data: Vec<(Vec<f64>, Vec<f64>)> = (0..series).map(|_| drift_series(n, &mut rng)).collect();
    let bandwidth = 4.0;

    let start = Instant::now();
    let reference: Vec<Vec<f64>> = data
        .iter()
        .map(|(x, y)| {
            KernelRegression::fit(x, y, bandwidth, KernelEstimator::LocallyLinear)
                .expect("fits")
                .smooth_dense()
        })
        .collect();
    let reference_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let fast: Vec<Vec<f64>> = data
        .iter()
        .map(|(x, y)| {
            KernelRegression::fit(x, y, bandwidth, KernelEstimator::LocallyLinear)
                .expect("fits")
                .smooth()
        })
        .collect();
    let fast_seconds = start.elapsed().as_secs_f64();

    let max_rel_error = reference
        .iter()
        .flatten()
        .zip(fast.iter().flatten())
        .map(|(&r, &f)| rel_err(r, f))
        .fold(0.0_f64, f64::max);

    Row {
        kernel: "smoother",
        reference_seconds,
        fast_seconds,
        max_rel_error,
        bit_identical: false,
        gate: Some(3.0),
        gate_active: false,
    }
}

/// Sort-based vs. selection-based median on odd and even lengths.
fn bench_median(smoke: bool) -> Row {
    let (len, repeats) = if smoke { (2_000, 40) } else { (10_000, 200) };
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    let even: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect();
    let odd: Vec<f64> = (0..len + 1).map(|_| rng.gen_range(-100.0..100.0)).collect();

    let start = Instant::now();
    let mut ref_sum = 0.0;
    for _ in 0..repeats {
        ref_sum += median_sorted(&even) + median_sorted(&odd);
    }
    let reference_seconds = start.elapsed().as_secs_f64();

    let mut scratch = vec![0.0; len + 1];
    let start = Instant::now();
    let mut fast_sum = 0.0;
    for _ in 0..repeats {
        scratch[..len].copy_from_slice(&even);
        fast_sum += median_in_place(&mut scratch[..len]);
        scratch.copy_from_slice(&odd);
        fast_sum += median_in_place(&mut scratch);
    }
    let fast_seconds = start.elapsed().as_secs_f64();

    let mut scratch_even = even.clone();
    let mut scratch_odd = odd.clone();
    let bit_identical = median_sorted(&even).to_bits()
        == median_in_place(&mut scratch_even).to_bits()
        && median_sorted(&odd).to_bits() == median_in_place(&mut scratch_odd).to_bits()
        && ref_sum.to_bits() == fast_sum.to_bits();

    Row {
        kernel: "median",
        reference_seconds,
        fast_seconds,
        max_rel_error: 0.0,
        bit_identical,
        gate: None,
        gate_active: false,
    }
}

/// Whole-device phase advance: the structure-of-arrays
/// `AgingArena::advance_phase_all` batched sweep against the pre-arena
/// layout — per-wire bins in a `HashMap`, each stepped through its own
/// `TrapBin::advance` loop (one `exp` per bin per *wire* per phase).
/// Half the routed columns carry a
/// loaded design's nets at mixed duties; the other half were
/// conditioned once and relax, so every sweep exercises two kernel
/// groups and the relax path. Every wire's occupancies and odometer
/// must match bit-for-bit across the two layouts (unconditional); the
/// 10x device-level speedup gate is hardware-gated like the other
/// throughput gates.
fn bench_device_sweep(smoke: bool) -> Row {
    let (columns, steps, reps) = if smoke { (24u16, 4, 1) } else { (80u16, 96, 3) };
    let model = BtiModel::ultrascale_plus();
    let dt = Hours::new(1.0);
    let burn = Hours::new(24.0);

    // Shared skeleton: long column routes across the ZCU102 grid. The
    // lab-oven device sits at exactly 60 C with a zero-power design, so
    // the hash-map leg can replay the same temperature; the per-wire
    // bit-identity check below would catch any divergence.
    let mut dev = FpgaDevice::zcu102_new(SEED);
    let mut used = HashSet::new();
    let mut routes = Vec::new();
    for c in 0..columns {
        let route = dev
            .route_between_avoiding(TileCoord::new(2 + c, 2), TileCoord::new(2 + c, 90), &used)
            .expect("column route fits the ZCU102 grid");
        used.extend(route.wire_ids());
        routes.push(route);
    }
    let net_duty = |i: usize| {
        if i.is_multiple_of(4) {
            LogicLevel::One
        } else {
            LogicLevel::Zero
        }
    };

    // Fast leg: the arena-backed device, driven through `run_for`. Zero
    // design power keeps the lab-oven die pinned at exactly 60 C so the
    // hash-map leg can replay the same conditions.
    let mut design = Design::new("device-sweep");
    design.set_power_watts(0.0);
    for (i, route) in routes.iter().enumerate() {
        if i % 2 == 0 {
            design.add_net(
                format!("n{i}"),
                NetActivity::Static(net_duty(i)),
                Some(route.clone()),
            );
        } else {
            // Burned before the design loads: these wires relax during
            // the timed sweep.
            dev.condition_route(route, DutyCycle::ALWAYS_ONE, burn);
        }
    }
    dev.load_design(design).expect("design validates");
    // Min-of-`reps` timing: each rep advances the same device another
    // `steps` phases (the physics keeps evolving; the cost per step does
    // not depend on the state), so the minimum is a noise-robust
    // estimate and both legs still end at the same simulated hour.
    let mut fast_seconds = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..steps {
            dev.run_for(dt);
        }
        fast_seconds = fast_seconds.min(start.elapsed().as_secs_f64());
    }

    // Reference leg: the per-wire loop over heap-allocated bins (plus
    // each wire's odometer), stepped exactly the way the replaced
    // `run_for` implementation did — rebuild the driven set, walk each
    // net's route through the hash map, then relax the complement, every
    // step.
    let mut states: HashMap<WireId, (f64, WireBins)> = HashMap::new();
    let fresh = || (0.0, Polarity::ALL.map(|p| model.fresh_bins(p)));
    let step = |state: &mut (f64, WireBins), dt: Hours, duty: Option<DutyCycle>| {
        oracle_step(&model, &mut state.1, dt, duty);
        state.0 += dt.value();
    };
    for (i, route) in routes.iter().enumerate() {
        if i % 2 != 0 {
            for seg in route.segments() {
                let state = states.entry(seg.id).or_insert_with(fresh);
                step(state, burn, Some(DutyCycle::ALWAYS_ONE));
            }
        }
    }
    let mut reference_seconds = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..steps {
            let mut driven: HashSet<WireId> = HashSet::new();
            for (i, route) in routes.iter().enumerate() {
                if i % 2 == 0 {
                    for seg in route.segments() {
                        driven.insert(seg.id);
                    }
                }
            }
            for (i, route) in routes.iter().enumerate() {
                if i % 2 == 0 {
                    let duty = net_duty(i).duty();
                    for seg in route.segments() {
                        let state = states.entry(seg.id).or_insert_with(fresh);
                        step(state, dt, Some(duty));
                    }
                }
            }
            for (id, state) in &mut states {
                if !driven.contains(id) {
                    step(state, dt, None);
                }
            }
        }
        reference_seconds = reference_seconds.min(start.elapsed().as_secs_f64());
    }

    let mut bit_identical = states.len() == dev.aged_wire_count();
    for (id, (hours, wire)) in &states {
        let Some(view) = dev.wire_aging(*id) else {
            bit_identical = false;
            break;
        };
        bit_identical &= view.stress_hours().value().to_bits() == hours.to_bits();
        for (polarity, bins) in Polarity::ALL.into_iter().zip(wire) {
            let arena = view.occupancy(polarity);
            bit_identical &= arena.len() == bins.len()
                && arena
                    .iter()
                    .zip(bins)
                    .all(|(a, b)| a.to_bits() == b.occupancy.to_bits());
        }
    }

    Row {
        kernel: "device_phase_sweep",
        reference_seconds,
        fast_seconds,
        max_rel_error: 0.0,
        bit_identical,
        gate: Some(10.0),
        gate_active: false,
    }
}

/// The shared `attack_accuracy --smoke` TM1 sweep, reference device
/// kernels vs. the cached closed-form path. Byte-identity is the
/// contract; the wall-clock row shows what the cache buys end to end.
/// Both legs run traced or both untraced, so the comparison stays fair.
fn bench_end_to_end(sink: Option<&ObsSink>) -> Row {
    let config = tm1_end_to_end_config(SEED);
    let rec = sink.map(ObsSink::recorder);
    let run = |provider: Provider| {
        let mission = Mission::ThreatModel1(config.clone());
        Campaign::new_observed(provider, mission, CampaignConfig::default(), rec.clone())
            .and_then(|mut campaign| campaign.run())
            .expect("attack completes")
    };

    let start = Instant::now();
    let mut provider = Provider::new(ProviderConfig::aws_f1_like(1, SEED));
    provider.set_reference_kernels(true);
    let reference = run(provider);
    let reference_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let fast = run(Provider::new(ProviderConfig::aws_f1_like(1, SEED)));
    let fast_seconds = start.elapsed().as_secs_f64();

    let bit_identical = reference.series == fast.series
        && reference.recovered == fast.recovered
        && reference.truth == fast.truth;

    Row {
        kernel: "attack_accuracy_smoke_tm1",
        reference_seconds,
        fast_seconds,
        max_rel_error: 0.0,
        bit_identical,
        gate: None,
        gate_active: false,
    }
}

fn main() {
    let smoke = smoke_from_args();
    let sink = ObsSink::from_args();
    let hardware_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let gates_active = !smoke && hardware_threads >= 4;

    println!(
        "Kernel fast-path bench (smoke: {smoke}, {hardware_threads} hardware thread(s), speedup gates {})",
        if gates_active { "enforced" } else { "informational" },
    );

    let mut rows = vec![
        bench_phase_advance(smoke),
        bench_smoother(smoke),
        bench_median(smoke),
        bench_end_to_end(sink.as_ref()),
        bench_device_sweep(smoke),
    ];
    for row in &mut rows {
        row.gate_active = gates_active && row.gate.is_some();
    }

    let mut report = ShapeReport::new();
    for row in &rows {
        println!(
            "  {:<26} reference {:.3} s, fast {:.3} s, speedup x{:.2}, max rel err {:.2e}, bit-identical {}",
            row.kernel,
            row.reference_seconds,
            row.fast_seconds,
            row.speedup(),
            row.max_rel_error,
            row.bit_identical,
        );
    }

    // Equivalence: unconditional, smoke mode included.
    let phase = &rows[0];
    report.check(
        "closed-form phase advance matches hour-stepping within 1e-9",
        phase.max_rel_error <= 1e-9,
        format!("max rel err {:.2e}", phase.max_rel_error),
    );
    let smoother = &rows[1];
    report.check(
        "banded smoother matches the dense reference within 1e-9",
        smoother.max_rel_error <= 1e-9,
        format!("max rel err {:.2e}", smoother.max_rel_error),
    );
    let median = &rows[2];
    report.check(
        "selection median is bit-identical to the sort median",
        median.bit_identical,
        format!("speedup x{:.2}", median.speedup()),
    );
    let end_to_end = &rows[3];
    report.check(
        "TM1 campaign is byte-identical on reference and cached kernels",
        end_to_end.bit_identical,
        format!("speedup x{:.2}", end_to_end.speedup()),
    );
    let device_sweep = &rows[4];
    report.check(
        "whole-device arena sweep is bit-identical to the per-wire loop",
        device_sweep.bit_identical,
        format!("speedup x{:.2}", device_sweep.speedup()),
    );

    // Speedup: recorded always, enforced only on real hardware outside
    // smoke mode (a shared 1-core CI container cannot time kernels
    // reliably, and equivalence is the part that must never regress).
    if smoke {
        println!("  (smoke mode: speedup gates skipped)");
    } else if gates_active {
        report.check(
            "closed-form phase advance is >= 5x faster than hour-stepping",
            rows[0].gate_passed(),
            format!("x{:.2}", rows[0].speedup()),
        );
        report.check(
            "banded smoother is >= 3x faster than the dense reference",
            rows[1].gate_passed(),
            format!("x{:.2}", rows[1].speedup()),
        );
        report.check(
            "whole-device arena sweep is >= 10x faster than the per-wire loop",
            rows[4].gate_passed(),
            format!("x{:.2}", rows[4].speedup()),
        );
    } else {
        report.check(
            "speedups recorded (host has < 4 hardware threads; not gated)",
            true,
            format!(
                "phase x{:.2}, smoother x{:.2}, device sweep x{:.2}",
                rows[0].speedup(),
                rows[1].speedup(),
                rows[4].speedup()
            ),
        );
    }

    let json = format!(
        "{{\"smoke\":{},\"seed\":{},\"hardware_threads\":{},\"rows\":[{}]}}",
        smoke,
        SEED,
        hardware_threads,
        rows.iter().map(Row::json).collect::<Vec<_>>().join(","),
    );
    if let Ok(path) = save_artifact("BENCH_kernels.json", &json) {
        println!("wrote {}", path.display());
    }
    if let Some(sink) = &sink {
        report.check(
            "observability artifacts written",
            sink.finish().is_ok(),
            "trace/metrics flags",
        );
    }
    exit_by(report.finish());
}
