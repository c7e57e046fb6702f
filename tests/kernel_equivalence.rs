//! Equivalence properties of the analytic fast-path kernels (ISSUE 3):
//! the optimized kernels must be interchangeable with their reference
//! implementations everywhere the simulator uses them.
//!
//! Two families, two contracts:
//!
//! 1. **Closed-form phase advance** — `AgingArena::advance_slot` over a
//!    random piecewise-constant phase schedule tracks hour-by-hour
//!    `TrapBin::advance` stepping (the physics oracle) to <= 1e-9
//!    relative (the two compose the same exponentials in different
//!    order, so bit-identity is impossible — but a *single* phase must
//!    be bit-identical to a single `TrapBin::advance` call of the same
//!    duration, which is what the device layer's kernel cache relies
//!    on).
//! 2. **Smoother locality** — the dense local-linear smoother, re-run on
//!    only the samples within +-8 bandwidths of a point, reproduces that
//!    point's value to <= 1e-9 relative on random sorted grids: weights
//!    beyond the band are at most `exp(-32)` of the peak, so a banded
//!    evaluation would change nothing measurable.
//!
//! A third family: the structure-of-arrays [`AgingArena`] batched
//! sweep (`advance_phase_all`) must be *bit-identical* to stepping every
//! wire's bins one at a time through `TrapBin::advance`, across random
//! wire counts, mixed duties, saturating occupancies and interleaved
//! relax phases.

use bti_physics::{AgingArena, BtiModel, Celsius, DecayCache, DutyCycle, Hours, Polarity, TrapBin};
use pentimento::analysis::smooth_local_linear;
use proptest::prelude::*;

/// Duty cycles biased toward the paper's static-burn endpoints but
/// covering the whole interior.
fn duty_fraction() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(0.5), 0.0f64..1.0]
}

/// A random piecewise-constant schedule: 1–4 phases of 1–60 h each.
fn phase_schedule() -> impl Strategy<Value = Vec<(usize, f64)>> {
    proptest::collection::vec((1usize..60, duty_fraction()), 1..4)
}

/// One phase of a device history: its duration and a per-wire
/// assignment — `Some(duty)` driven, `None` relaxing.
type HistoryPhase = (f64, Vec<Option<f64>>);

/// A random whole-device history: a wire count plus 1–4 phases
/// (zero-length phases exercise the `Δt = 0` early-return path; long
/// ones saturate occupancies onto the clamp boundary).
fn device_history() -> impl Strategy<Value = (usize, Vec<HistoryPhase>)> {
    (1usize..16).prop_flat_map(|wires| {
        (
            Just(wires),
            proptest::collection::vec(
                (
                    prop_oneof![Just(0.0), 0.5f64..48.0, Just(400.0)],
                    proptest::collection::vec(
                        (any::<bool>(), duty_fraction())
                            .prop_map(|(driven, f)| driven.then_some(f)),
                        wires..wires + 1,
                    ),
                ),
                1..5,
            ),
        )
    })
}

/// One wire's CET bins per polarity (NBTI, PBTI), as the model builds them.
type WireBins = [Vec<TrapBin>; 2];

fn fresh_wire(model: &BtiModel) -> WireBins {
    Polarity::ALL.map(|p| model.fresh_bins(p))
}

/// The physics oracle: steps every bin of `wire` once through
/// `TrapBin::advance` at `duty`, or relaxes it (no capture) on `None`.
fn oracle_step(
    model: &BtiModel,
    wire: &mut WireBins,
    dt: Hours,
    duty: Option<DutyCycle>,
    temp: Celsius,
) {
    for (polarity, bins) in Polarity::ALL.into_iter().zip(wire) {
        let (cap, emi) = model.acceleration(polarity, temp);
        for b in bins {
            match duty {
                Some(d) => b.advance(dt, d.stress_share(polarity), cap, emi),
                None => b.advance(dt, 0.0, 1.0, emi),
            }
        }
    }
}

/// Normalized threshold-voltage shift of one polarity's bins.
fn level(bins: &[TrapBin]) -> f64 {
    bins.iter().map(|b| b.weight * b.occupancy).sum()
}

/// Max relative disagreement between two occupancy levels.
fn rel_err(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Strictly increasing measurement grid with random gaps, plus matching
/// noisy-drift observations.
fn sorted_series(len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(0.05f64..3.0, len..len + 1),
        proptest::collection::vec(-1.0f64..1.0, len..len + 1),
    )
        .prop_map(|(gaps, noise)| {
            let mut x = Vec::with_capacity(gaps.len());
            let mut acc = 0.0;
            for g in gaps {
                acc += g;
                x.push(acc);
            }
            let y = x
                .iter()
                .zip(noise)
                .map(|(&h, n)| 5.0 * (1.0 - (-h / 20.0).exp()) + n)
                .collect();
            (x, y)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (1) Schedule equivalence: one closed-form advance per phase
    /// tracks hour-stepping through the same schedule to <= 1e-9.
    #[test]
    fn phase_advance_tracks_hour_stepping(
        schedule in phase_schedule(),
        temp_c in 40.0f64..80.0,
    ) {
        let model = BtiModel::ultrascale_plus();
        let temp = Celsius::new(temp_c);
        let mut stepped = fresh_wire(&model);
        let mut phased = AgingArena::new(&model);
        let slot = phased.ensure(0);
        let mut hours_total = 0.0;
        for &(hours, frac) in &schedule {
            let duty = DutyCycle::new(frac).expect("fraction in [0, 1]");
            for _ in 0..hours {
                oracle_step(&model, &mut stepped, Hours::new(1.0), Some(duty), temp);
                hours_total += 1.0;
            }
            phased.advance_slot(slot, &model, Hours::new(hours as f64), duty, temp);
        }
        prop_assert_eq!(hours_total, phased.view_at(slot).stress_hours().value());
        for (polarity, bins) in Polarity::ALL.into_iter().zip(&stepped) {
            let (r, f) = (level(bins), phased.view_at(slot).level(polarity));
            prop_assert!(
                rel_err(r, f) <= 1e-9,
                "{polarity:?}: stepped {r} vs phased {f} (rel {})",
                rel_err(r, f)
            );
        }
    }

    /// (1b) Single-phase bit-identity: over one constant-condition
    /// stretch the closed form IS the reference update, bit for bit —
    /// on a fresh wire and on an arbitrarily pre-aged one.
    #[test]
    fn single_phase_is_bit_identical_to_advance(
        prefix in phase_schedule(),
        hours in 1.0f64..400.0,
        frac in duty_fraction(),
        temp_c in 40.0f64..80.0,
    ) {
        let model = BtiModel::ultrascale_plus();
        let temp = Celsius::new(temp_c);
        let mut reference = fresh_wire(&model);
        let mut fast = AgingArena::new(&model);
        let slot = fast.ensure(0);
        for &(h, f) in &prefix {
            let duty = DutyCycle::new(f).expect("fraction in [0, 1]");
            // Identical aging history on both sides.
            oracle_step(&model, &mut reference, Hours::new(h as f64), Some(duty), temp);
            fast.advance_slot(slot, &model, Hours::new(h as f64), duty, temp);
        }
        let duty = DutyCycle::new(frac).expect("fraction in [0, 1]");
        oracle_step(&model, &mut reference, Hours::new(hours), Some(duty), temp);
        let mut cache = DecayCache::new(&model);
        let kernel = cache.conditioned(&model, Hours::new(hours), duty, temp);
        fast.apply_kernel(slot, kernel, Hours::new(hours));
        for (polarity, bins) in Polarity::ALL.into_iter().zip(&reference) {
            let occ = fast.view_at(slot).occupancy(polarity).to_vec();
            for (r, f) in bins.iter().zip(occ) {
                prop_assert_eq!(r.occupancy.to_bits(), f.to_bits());
            }
        }
    }

    /// (2) Smoother locality on random sorted grids. Small bandwidths
    /// make nearly every band truncate at +-8 sigma; large ones keep
    /// every band (including the boundary bands, which are narrower
    /// than 8 sigma) whole — both must agree with the dense smoother.
    #[test]
    fn banded_smoother_matches_dense(
        (x, y) in (20usize..120).prop_flat_map(sorted_series),
        bandwidth in prop_oneof![0.1f64..1.0, 20.0f64..200.0],
    ) {
        let dense = smooth_local_linear(&x, &y, bandwidth).expect("valid series");
        prop_assert_eq!(dense.len(), x.len());
        let radius = 8.0 * bandwidth;
        for (i, &d) in dense.iter().enumerate() {
            let lo = x.partition_point(|&h| h < x[i] - radius);
            let hi = x.partition_point(|&h| h <= x[i] + radius);
            let band = smooth_local_linear(&x[lo..hi], &y[lo..hi], bandwidth)
                .expect("band holds x[i]");
            let b = band[i - lo];
            prop_assert!(
                rel_err(d, b) <= 1e-9,
                "index {i}: dense {d} vs banded {b} (bw {bandwidth})"
            );
        }
    }

    /// (3) Whole-device arena sweep: across random populations, mixed
    /// duties (including the saturating 0/1 endpoints that park
    /// occupancies on the clamp boundary), zero-length phases and
    /// interleaved relax phases, the batched `advance_phase_all` must
    /// match per-wire `TrapBin::advance` stepping bit for bit — every
    /// occupancy, every level read-out and every odometer.
    #[test]
    fn arena_sweep_is_bit_identical_to_per_bank_advance(
        (wires, phases) in device_history(),
        temp_c in 40.0f64..80.0,
    ) {
        let model = BtiModel::ultrascale_plus();
        let temp = Celsius::new(temp_c);
        let mut cache = DecayCache::new(&model);
        let mut arena = AgingArena::new(&model);
        // Descending keys: slot order differs from key order.
        let keys: Vec<u64> = (0..wires as u64).rev().map(|i| i * 7 + 3).collect();
        for &k in &keys {
            arena.ensure(k);
        }
        let mut shadow: Vec<WireBins> = (0..wires).map(|_| fresh_wire(&model)).collect();
        let mut hours_total = 0.0;
        for (dt_hours, assignment) in &phases {
            let dt = Hours::new(*dt_hours);
            let driven: Vec<(usize, DutyCycle)> = assignment
                .iter()
                .enumerate()
                .filter_map(|(i, frac)| {
                    frac.map(|f| {
                        let slot = arena.slot_of(keys[i]).expect("wire inserted");
                        (slot, DutyCycle::new(f).expect("fraction in [0, 1]"))
                    })
                })
                .collect();
            arena.advance_phase_all(&model, &mut cache, dt, temp, &driven);
            for (wire, frac) in shadow.iter_mut().zip(assignment) {
                let duty = frac.map(|f| DutyCycle::new(f).expect("fraction in [0, 1]"));
                oracle_step(&model, wire, dt, duty, temp);
            }
            hours_total += dt_hours;
        }
        for (i, &k) in keys.iter().enumerate() {
            let view = arena.wire(k).expect("wire inserted");
            prop_assert_eq!(view.stress_hours().value().to_bits(), f64::to_bits(hours_total));
            for (polarity, bins) in Polarity::ALL.into_iter().zip(&shadow[i]) {
                let occ = view.occupancy(polarity);
                prop_assert_eq!(occ.len(), bins.len());
                for (a, b) in occ.iter().zip(bins) {
                    prop_assert_eq!(a.to_bits(), b.occupancy.to_bits());
                }
                prop_assert_eq!(view.level(polarity).to_bits(), level(bins).to_bits());
            }
        }
    }
}
