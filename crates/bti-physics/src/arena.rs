//! Structure-of-arrays aging storage: the crate's one aging store.
//!
//! Every resource governed by one [`BtiModel`] shares the *same* CET
//! time-constant grid ([`BtiModel::fresh_bins`]) — only the occupancies
//! (and a lifetime odometer) differ per resource. A device has tens of
//! thousands of aged wires; an inverter, a LUT cell or a classifier's
//! reference route has one. Storing a full [`TrapBin`] struct per bin per
//! resource would make a device-level phase advance a pointer-chasing
//! loop over tiny heap objects, and per-device memory proportional to the
//! whole struct rather than to the one `f64` that actually varies.
//!
//! [`AgingArena`] therefore stores aging structure-of-arrays:
//!
//! * the static bin structure (`tau_capture`, `tau_emission`, `weight`,
//!   and the per-polarity offset table) is stored **once** per arena, in
//!   bank order — NBTI bins first, then PBTI bins — as contiguous
//!   per-field arrays;
//! * the mutable state is one dense `occupancy` array, `stride` values
//!   per wire (`stride = nbti_bins + pbti_bins`), plus one
//!   `stress_hours` odometer per wire;
//! * wires are addressed by an opaque `u64` key (the fabric layer passes
//!   `WireId` bits) through a hash index for O(1) lookup, with a
//!   key-sorted slot order for deterministic iteration.
//!
//! The tau grids are log-spaced but stored as raw values, not logs: the
//! reference arithmetic ([`TrapBin::advance`]) divides by `τ` directly,
//! and round-tripping through `exp(ln τ)` would cost the bit-identity
//! contract that every fast path in this crate honors.
//!
//! [`AgingArena::advance_phase_all`] is the batched sweep: it groups the
//! driven wires of one constant-condition phase by duty cycle, derives
//! each group's [`PhaseKernel`] once through the shared [`DecayCache`],
//! and applies it across the contiguous occupancy slices in a tight loop
//! — two flops per bin, no pointer chasing, no per-wire `exp`. Single
//! resources step through the uncached per-wire path instead
//! ([`AgingArena::advance_slot`], [`AgingArena::relax_slot`]). Both paths
//! replicate [`TrapBin::advance`] expression-for-expression (including
//! the no-clamp early returns for `Δt = 0` and all-zero rates), so either
//! is **bit-identical** to stepping each wire's bins through
//! `TrapBin::advance`, the physics oracle; `tests/kernel_equivalence.rs`
//! pins that down.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::{
    BinKernel, BtiModel, Celsius, DecayCache, DutyCycle, Hours, PhaseKernel, Polarity, TrapBin,
};

/// Dense, device-wide BTI aging storage: every bin of every aged wire in
/// contiguous per-field arrays, plus a shared copy of the bin structure.
///
/// `arena.rs`'s module docs describe the layout. Wires enter the arena on
/// first stress ([`ensure`](AgingArena::ensure)) in factory-fresh state
/// and are never removed — exactly the lifecycle the old per-wire map
/// had, minus the per-wire heap objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingArena {
    /// Bins per wire in the NBTI bank (bank order: NBTI bins first).
    nbti_len: usize,
    /// Bins per wire in the PBTI bank (offset `nbti_len` in each slice).
    pbti_len: usize,
    /// Capture time constants, hours; `len == stride`.
    tau_capture: Vec<f64>,
    /// Emission time constants, hours (`INFINITY` = permanent bin).
    tau_emission: Vec<f64>,
    /// Normalized bin weights; `len == stride`.
    weight: Vec<f64>,
    /// Occupancies, slot-major: wire `s` owns
    /// `occupancy[s * stride .. (s + 1) * stride]`.
    occupancy: Vec<f64>,
    /// Per-wire lifetime odometer, in hours.
    stress_hours: Vec<f64>,
    /// Slot → wire key, in insertion order.
    keys: Vec<u64>,
    /// Wire key → slot.
    index: HashMap<u64, u32>,
    /// Slots in ascending-key order: the stable iteration order that
    /// makes device-level digests deterministic by construction.
    sorted: Vec<u32>,
}

impl AgingArena {
    /// Creates an empty arena for wires governed by `model`.
    ///
    /// The bin structure (tau grids, weights, per-polarity offsets) is
    /// captured from the model's fresh CET bins once, here; every wire
    /// that ever enters the arena shares it.
    #[must_use]
    pub fn new(model: &BtiModel) -> Self {
        let nbti = model.fresh_bins(Polarity::Nbti);
        let pbti = model.fresh_bins(Polarity::Pbti);
        let bins = || nbti.iter().chain(&pbti);
        Self {
            nbti_len: nbti.len(),
            pbti_len: pbti.len(),
            tau_capture: bins().map(|b| b.tau_capture.value()).collect(),
            tau_emission: bins().map(|b| b.tau_emission.value()).collect(),
            weight: bins().map(|b| b.weight).collect(),
            occupancy: Vec::new(),
            stress_hours: Vec::new(),
            keys: Vec::new(),
            index: HashMap::new(),
            sorted: Vec::new(),
        }
    }

    /// Occupancy values stored per wire (NBTI bins + PBTI bins).
    #[must_use]
    fn stride(&self) -> usize {
        self.nbti_len + self.pbti_len
    }

    /// Number of wires carrying aging state.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no wire has ever been stressed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The slot of `key`, if that wire has entered the arena.
    #[must_use]
    pub fn slot_of(&self, key: u64) -> Option<usize> {
        self.index.get(&key).map(|&s| s as usize)
    }

    /// The slot of `key`, inserting a factory-fresh wire on first use.
    pub fn ensure(&mut self, key: u64) -> usize {
        if let Some(&slot) = self.index.get(&key) {
            return slot as usize;
        }
        let slot = u32::try_from(self.keys.len()).expect("arena slot count exceeds u32");
        self.occupancy
            .resize(self.occupancy.len() + self.stride(), 0.0);
        self.stress_hours.push(0.0);
        self.keys.push(key);
        self.index.insert(key, slot);
        let at = self
            .sorted
            .partition_point(|&s| self.keys[s as usize] < key);
        self.sorted.insert(at, slot);
        slot as usize
    }

    /// Read-only view of one wire's aging, if it was ever stressed.
    #[must_use]
    pub fn wire(&self, key: u64) -> Option<WireAging<'_>> {
        self.slot_of(key).map(|slot| self.view_at(slot))
    }

    /// Read-only view of the wire in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[must_use]
    pub fn view_at(&self, slot: usize) -> WireAging<'_> {
        let stride = self.stride();
        WireAging {
            nbti_len: self.nbti_len,
            weight: &self.weight,
            occupancy: &self.occupancy[slot * stride..(slot + 1) * stride],
            stress_hours: Hours::new(self.stress_hours[slot]),
        }
    }

    /// All aged wires as `(key, view)` pairs in ascending-key order —
    /// the one sanctioned iteration order, so that every digest or dump
    /// built on it is deterministic regardless of stress history.
    #[cfg(test)]
    fn iter_sorted(&self) -> impl Iterator<Item = (u64, WireAging<'_>)> + '_ {
        self.sorted
            .iter()
            .map(move |&s| (self.keys[s as usize], self.view_at(s as usize)))
    }

    /// Applies one memoized phase kernel to one wire — the building
    /// block of route conditioning outside the whole-device sweep.
    ///
    /// `dt` must be the phase length the kernel was built for; it feeds
    /// only the lifetime odometer.
    ///
    /// # Panics
    ///
    /// Panics if the kernel table width does not match the arena's bin
    /// structure — silently truncating would corrupt the physics.
    pub fn apply_kernel(&mut self, slot: usize, kernel: &PhaseKernel, dt: Hours) {
        self.check_kernel_width(kernel);
        let stride = self.stride();
        let occ = &mut self.occupancy[slot * stride..(slot + 1) * stride];
        apply_banks(occ, self.nbti_len, kernel);
        self.stress_hours[slot] += dt.value();
    }

    /// Panics unless the kernel table matches this arena's bin structure
    /// — silently truncating would corrupt the physics.
    fn check_kernel_width(&self, kernel: &PhaseKernel) {
        assert_eq!(
            kernel.nbti().len(),
            self.nbti_len,
            "kernel table width must match the arena's NBTI bin count"
        );
        assert_eq!(
            kernel.pbti().len(),
            self.pbti_len,
            "kernel table width must match the arena's PBTI bin count"
        );
    }

    /// Applies one kernel across many slots — the tight inner sweep of
    /// [`advance_phase_all`](AgingArena::advance_phase_all).
    ///
    /// The width check is hoisted out of the loop; each slot is then a
    /// straight zip of its contiguous occupancy slice against the kernel
    /// tables. A conditioned kernel has every bin active (any nonzero
    /// capture rate activates a bin), so that case is detected once and
    /// runs without the per-bin `active` branch — the same
    /// [`BinKernel::apply`] expression either way, so the sweep stays
    /// bit-identical to the one-bin-at-a-time path. Relax kernels keep
    /// the branchy form (permanent bins stay inactive there).
    fn apply_kernel_to_slots(
        &mut self,
        kernel: &PhaseKernel,
        dt: Hours,
        slots: impl Iterator<Item = usize>,
    ) {
        self.check_kernel_width(kernel);
        let stride = self.stride();
        let all_active = kernel.nbti().iter().chain(kernel.pbti()).all(|k| k.active);
        for slot in slots {
            let occ = &mut self.occupancy[slot * stride..(slot + 1) * stride];
            if all_active {
                let (nbti, pbti) = occ.split_at_mut(self.nbti_len);
                for (o, k) in nbti.iter_mut().zip(kernel.nbti()) {
                    *o = (k.equilibrium + (*o - k.equilibrium) * k.decay).clamp(0.0, 1.0);
                }
                for (o, k) in pbti.iter_mut().zip(kernel.pbti()) {
                    *o = (k.equilibrium + (*o - k.equilibrium) * k.decay).clamp(0.0, 1.0);
                }
            } else {
                apply_banks(occ, self.nbti_len, kernel);
            }
            self.stress_hours[slot] += dt.value();
        }
    }

    /// Conditions one wire for `dt` at `duty`: derives this wire's bin
    /// kernels from scratch (one `exp` per bin, no cache) and applies
    /// them — bit-identical to stepping each bin once through
    /// [`TrapBin::advance`]. The path of single resources.
    pub fn advance_slot(
        &mut self,
        slot: usize,
        model: &BtiModel,
        dt: Hours,
        duty: DutyCycle,
        temperature: Celsius,
    ) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let (nc, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (pc, pe) = model.acceleration(Polarity::Pbti, temperature);
        let n_share = duty.stress_share(Polarity::Nbti);
        let p_share = duty.stress_share(Polarity::Pbti);
        self.advance_slot_raw(slot, dt, (n_share, nc, ne), (p_share, pc, pe));
    }

    /// Relaxes one wire for `dt` with the resource completely unstressed
    /// (an unconfigured wire on a wiped device): traps only emit, nothing
    /// captures.
    pub fn relax_slot(&mut self, slot: usize, model: &BtiModel, dt: Hours, temperature: Celsius) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let (_, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (_, pe) = model.acceleration(Polarity::Pbti, temperature);
        self.advance_slot_raw(slot, dt, (0.0, 1.0, ne), (0.0, 1.0, pe));
    }

    /// Shared per-wire core: per-bin [`BinKernel::for_bin`] with
    /// explicit `(share, capture_accel, emission_accel)` per polarity.
    fn advance_slot_raw(
        &mut self,
        slot: usize,
        dt: Hours,
        nbti: (f64, f64, f64),
        pbti: (f64, f64, f64),
    ) {
        let stride = self.stride();
        let base = slot * stride;
        for j in 0..stride {
            let (share, cap, emi) = if j < self.nbti_len { nbti } else { pbti };
            let bin = TrapBin {
                tau_capture: Hours::new(self.tau_capture[j]),
                tau_emission: Hours::new(self.tau_emission[j]),
                weight: self.weight[j],
                occupancy: self.occupancy[base + j],
            };
            let kernel = BinKernel::for_bin(&bin, dt, share, cap, emi);
            self.occupancy[base + j] = kernel.apply(self.occupancy[base + j]);
        }
        self.stress_hours[slot] += dt.value();
    }

    /// Pre-groups one phase's driven wires into a reusable [`PhasePlan`]:
    /// driven slots grouped by the duty cycle's exact bit pattern (a
    /// `BTreeMap`, so group order is deterministic) plus the complement
    /// list of relaxing slots.
    ///
    /// Each driven slot must appear at most once (the fabric layer
    /// guarantees this — a validated design never routes two nets over
    /// one wire). The plan stays valid while the arena population and
    /// the driven set are unchanged; callers check
    /// [`PhasePlan::is_current`] and rebuild when wires enter the arena.
    #[must_use]
    pub fn plan_phase(&self, driven: &[(usize, DutyCycle)]) -> PhasePlan {
        let mut groups: BTreeMap<u64, (DutyCycle, Vec<usize>)> = BTreeMap::new();
        for &(slot, duty) in driven {
            groups
                .entry(duty.fraction_at_one().to_bits())
                .or_insert_with(|| (duty, Vec::new()))
                .1
                .push(slot);
        }
        let mut is_driven = vec![false; self.len()];
        for &(slot, _) in driven {
            is_driven[slot] = true;
        }
        PhasePlan {
            groups: groups.into_values().collect(),
            undriven: is_driven
                .iter()
                .enumerate()
                .filter_map(|(slot, &driven)| (!driven).then_some(slot))
                .collect(),
            arena_len: self.len(),
        }
    }

    /// The whole-device batched phase sweep over a pre-grouped plan:
    ///
    /// 1. derives one [`PhaseKernel`] per duty group — and one relax
    ///    kernel — through `cache`, keyed by `(Δt, duty, temperature,
    ///    relax)`;
    /// 2. applies each kernel across its slots' contiguous occupancy
    ///    slices, two flops per bin.
    ///
    /// Bit-identical to conditioning/relaxing every wire individually
    /// with the same conditions, in any order: per-wire updates are
    /// independent and the kernels replicate the reference arithmetic
    /// exactly, clamp-skipping early returns included.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built against a different arena population
    /// (see [`PhasePlan::is_current`]).
    pub fn advance_phase_planned(
        &mut self,
        model: &BtiModel,
        cache: &mut DecayCache,
        dt: Hours,
        temperature: Celsius,
        plan: &PhasePlan,
    ) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        assert!(
            plan.is_current(self),
            "phase plan is stale: it was built for a different arena population"
        );
        for (duty, slots) in &plan.groups {
            let kernel = cache.conditioned(model, dt, *duty, temperature).clone();
            self.apply_kernel_to_slots(&kernel, dt, slots.iter().copied());
        }
        // Derived unconditionally (not just when undriven wires exist):
        // the relax kernel for a phase's conditions is part of the sweep's
        // cache telemetry contract, and skipping it would make hit/miss
        // counts depend on which wires happen to be aged.
        let kernel = cache.relaxed(model, dt, temperature).clone();
        self.apply_kernel_to_slots(&kernel, dt, plan.undriven.iter().copied());
    }

    /// One-shot form of the batched sweep: builds the [`PhasePlan`] for
    /// `driven` and applies it. Steady-state callers (the fabric layer's
    /// `run_for`) keep the plan across steps instead.
    pub fn advance_phase_all(
        &mut self,
        model: &BtiModel,
        cache: &mut DecayCache,
        dt: Hours,
        temperature: Celsius,
        driven: &[(usize, DutyCycle)],
    ) {
        let plan = self.plan_phase(driven);
        self.advance_phase_planned(model, cache, dt, temperature, &plan);
    }

    /// The per-wire oracle for
    /// [`advance_phase_all`](AgingArena::advance_phase_all): every wire
    /// derives its bin kernels from scratch, one `exp` per bin per wire.
    /// The batched sweep must match it bit for bit.
    #[cfg(test)]
    fn advance_phase_all_reference(
        &mut self,
        model: &BtiModel,
        dt: Hours,
        temperature: Celsius,
        driven: &[(usize, DutyCycle)],
    ) {
        assert!(dt.value() >= 0.0, "aging duration must be non-negative");
        let mut is_driven = vec![false; self.len()];
        for &(slot, duty) in driven {
            is_driven[slot] = true;
            self.advance_slot(slot, model, dt, duty, temperature);
        }
        for (slot, &driven) in is_driven.iter().enumerate() {
            if !driven {
                self.relax_slot(slot, model, dt, temperature);
            }
        }
    }

    /// Logical heap footprint of the arena, in bytes: array *lengths*
    /// (not allocator capacities), so the number is deterministic for a
    /// given stress history and safe to gate in benches.
    ///
    /// Dominated by `stride + 2` f64 per wire (occupancies plus the
    /// odometer, plus the key/index entries) — the shared bin-structure
    /// tables are counted once, not per wire.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let f64s = self.tau_capture.len()
            + self.tau_emission.len()
            + self.weight.len()
            + self.occupancy.len()
            + self.stress_hours.len();
        f64s * size_of::<f64>()
            + self.keys.len() * size_of::<u64>()
            + self.index.len() * (size_of::<u64>() + size_of::<u32>())
            + self.sorted.len() * size_of::<u32>()
    }

    /// FNV-1a digest of the full aging state in ascending-key order:
    /// keys, odometers, and occupancy bit patterns. Deterministic by
    /// construction — the hazard the old per-wire hash map invited.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.mix(self.keys.len() as u64);
        let stride = self.stride();
        for &slot in &self.sorted {
            let s = slot as usize;
            h.mix(self.keys[s]);
            h.mix(self.stress_hours[s].to_bits());
            for &occ in &self.occupancy[s * stride..(s + 1) * stride] {
                h.mix(occ.to_bits());
            }
        }
        h.finish()
    }
}

/// A pre-grouped whole-device phase: driven slots bucketed by duty (in
/// deterministic ascending-duty-bits order) plus the complement list of
/// relaxing slots, as built by [`AgingArena::plan_phase`].
///
/// Grouping is O(population) per sweep; a steady-state caller stepping
/// the same design over and over pays it once and replays the plan via
/// [`AgingArena::advance_phase_planned`]. The plan is pinned to the
/// population it was built against — wires entering the arena invalidate
/// it ([`is_current`](PhasePlan::is_current) turns false) because the
/// newcomers belong on the relax list.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Driven slots grouped by duty, ascending duty-bits order.
    groups: Vec<(DutyCycle, Vec<usize>)>,
    /// Every other slot: these wires relax during the phase.
    undriven: Vec<usize>,
    /// The arena population the plan was built against.
    arena_len: usize,
}

impl PhasePlan {
    /// Whether the plan still matches `arena`'s population. Slots are
    /// append-only, so an equal length means an identical population.
    #[must_use]
    pub fn is_current(&self, arena: &AgingArena) -> bool {
        self.arena_len == arena.len()
    }
}

/// Applies a phase kernel to one wire's occupancy slice (NBTI bins
/// first, then PBTI — the arena's bank order).
fn apply_banks(occ: &mut [f64], nbti_len: usize, kernel: &PhaseKernel) {
    let (nbti, pbti) = occ.split_at_mut(nbti_len);
    for (o, k) in nbti.iter_mut().zip(kernel.nbti()) {
        *o = k.apply(*o);
    }
    for (o, k) in pbti.iter_mut().zip(kernel.pbti()) {
        *o = k.apply(*o);
    }
}

/// 64-bit FNV-1a over `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Borrowed read-out view of one wire's aging inside an [`AgingArena`].
///
/// A view, not a copy: readout paths (delay queries, fingerprinting)
/// run per-segment in hot loops, and materializing per-wire bins per
/// query would reintroduce exactly the allocations the arena removes.
/// The view carries only two slice borrows and the odometer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireAging<'a> {
    nbti_len: usize,
    /// Shared normalized weights, bank order (length = stride).
    weight: &'a [f64],
    /// This wire's occupancies, bank order (length = stride).
    occupancy: &'a [f64],
    stress_hours: Hours,
}

impl WireAging<'_> {
    /// Normalized threshold-voltage shift of one polarity in `[0, 1]`:
    /// the left-to-right sum of `weight × occupancy` over its bins.
    #[must_use]
    pub fn level(&self, polarity: Polarity) -> f64 {
        let (w, o) = match polarity {
            Polarity::Nbti => (
                &self.weight[..self.nbti_len],
                &self.occupancy[..self.nbti_len],
            ),
            Polarity::Pbti => (
                &self.weight[self.nbti_len..],
                &self.occupancy[self.nbti_len..],
            ),
        };
        w.iter().zip(o).map(|(w, o)| w * o).sum()
    }

    /// This wire's occupancies for one polarity, in bin order.
    #[must_use]
    pub fn occupancy(&self, polarity: Polarity) -> &[f64] {
        match polarity {
            Polarity::Nbti => &self.occupancy[..self.nbti_len],
            Polarity::Pbti => &self.occupancy[self.nbti_len..],
        }
    }

    /// Added *rising*-transition delay through a route of nominal length
    /// `route_ps`, scaled by `wear` (NBTI / PMOS damage).
    #[must_use]
    pub fn rise_shift_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        model.delay_shift_ps(Polarity::Nbti, self.level(Polarity::Nbti), route_ps, wear)
    }

    /// Added *falling*-transition delay through a route of nominal
    /// length `route_ps`, scaled by `wear` (PBTI / NMOS damage).
    #[must_use]
    pub fn fall_shift_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        model.delay_shift_ps(Polarity::Pbti, self.level(Polarity::Pbti), route_ps, wear)
    }

    /// The paper's `Δps` observable with a device wear factor: falling
    /// minus rising delay shift.
    #[must_use]
    pub fn delta_ps_scaled(&self, model: &BtiModel, route_ps: f64, wear: f64) -> f64 {
        self.fall_shift_ps_scaled(model, route_ps, wear)
            - self.rise_shift_ps_scaled(model, route_ps, wear)
    }

    /// Total hours of simulated lifetime this wire has experienced.
    #[must_use]
    pub fn stress_hours(&self) -> Hours {
        self.stress_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicLevel;

    fn model() -> BtiModel {
        BtiModel::ultrascale_plus()
    }

    /// The physics oracle: one wire's fresh bins per polarity, stepped
    /// through [`TrapBin::advance`]; `None` relaxes (no capture).
    fn oracle_step(
        m: &BtiModel,
        bins: &mut [Vec<TrapBin>; 2],
        dt: Hours,
        duty: Option<DutyCycle>,
        t: Celsius,
    ) {
        for (polarity, bins) in Polarity::ALL.into_iter().zip(bins) {
            let (cap, emi) = m.acceleration(polarity, t);
            for b in bins {
                match duty {
                    Some(d) => b.advance(dt, d.stress_share(polarity), cap, emi),
                    None => b.advance(dt, 0.0, 1.0, emi),
                }
            }
        }
    }

    fn fresh_oracle(m: &BtiModel) -> [Vec<TrapBin>; 2] {
        Polarity::ALL.map(|p| m.fresh_bins(p))
    }

    fn assert_matches_oracle(view: WireAging<'_>, oracle: &[Vec<TrapBin>; 2]) {
        for (polarity, bins) in Polarity::ALL.into_iter().zip(oracle) {
            let occ: Vec<f64> = bins.iter().map(|b| b.occupancy).collect();
            assert_eq!(view.occupancy(polarity), &occ[..]);
            let level: f64 = bins.iter().map(|b| b.weight * b.occupancy).sum();
            assert_eq!(
                view.level(polarity).to_bits(),
                level.to_bits(),
                "level read-out must match the weighted bin sum bitwise"
            );
        }
    }

    /// A one-slot arena after `hours` of static `level` at 60 °C.
    fn burned(m: &BtiModel, level: LogicLevel, hours: f64) -> AgingArena {
        let mut arena = AgingArena::new(m);
        let slot = arena.ensure(0);
        arena.advance_slot(slot, m, Hours::new(hours), level.duty(), t60());
        arena
    }

    fn t60() -> Celsius {
        Celsius::new(60.0)
    }

    fn delta(arena: &AgingArena, m: &BtiModel, route_ps: f64) -> f64 {
        arena.view_at(0).delta_ps_scaled(m, route_ps, 1.0)
    }

    #[test]
    fn fresh_wire_is_factory_fresh() {
        let m = model();
        let mut arena = AgingArena::new(&m);
        let slot = arena.ensure(42);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.ensure(42), slot, "ensure is idempotent");
        assert_matches_oracle(arena.view_at(slot), &fresh_oracle(&m));
        assert_eq!(arena.view_at(slot).stress_hours(), Hours::ZERO);
        assert_eq!(delta(&arena, &m, 10_000.0), 0.0);
    }

    #[test]
    fn batched_sweep_matches_the_bin_oracle_bitwise() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        let mut arena = AgingArena::new(&m);
        let keys = [7u64, 3, 11, 5];
        for &k in &keys {
            arena.ensure(k);
        }
        let mut shadow: Vec<[Vec<TrapBin>; 2]> = keys.iter().map(|_| fresh_oracle(&m)).collect();
        let t = Celsius::new(61.25);
        // Wires 0/1 driven at distinct duties, 2/3 relaxing.
        let quarter = DutyCycle::new(0.25).unwrap();
        let driven = [(0usize, DutyCycle::ALWAYS_ONE), (1usize, quarter)];
        let duties = [Some(DutyCycle::ALWAYS_ONE), Some(quarter), None, None];
        for _ in 0..24 {
            arena.advance_phase_all(&m, &mut cache, Hours::new(1.0), t, &driven);
            for (bins, duty) in shadow.iter_mut().zip(duties) {
                oracle_step(&m, bins, Hours::new(1.0), duty, t);
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            let view = arena.wire(k).unwrap();
            assert_eq!(view.stress_hours(), Hours::new(24.0));
            assert_matches_oracle(view, &shadow[i]);
        }
    }

    #[test]
    fn per_wire_path_matches_the_bin_oracle_bitwise() {
        let m = model();
        let mut arena = AgingArena::new(&m);
        let slot = arena.ensure(9);
        let mut oracle = fresh_oracle(&m);
        let t = Celsius::new(66.5);
        for (hours, duty) in [
            (200.0, Some(DutyCycle::ALWAYS_ONE)),
            (0.0, Some(DutyCycle::BALANCED)),
            (13.0, None),
            (40.0, Some(DutyCycle::ALWAYS_ZERO)),
        ] {
            let dt = Hours::new(hours);
            match duty {
                Some(d) => arena.advance_slot(slot, &m, dt, d, t),
                None => arena.relax_slot(slot, &m, dt, t),
            }
            oracle_step(&m, &mut oracle, dt, duty, t);
            assert_matches_oracle(arena.view_at(slot), &oracle);
        }
        assert_eq!(arena.view_at(slot).stress_hours(), Hours::new(253.0));
    }

    #[test]
    fn burn_sign_encodes_the_held_value() {
        let m = model();
        let one = burned(&m, LogicLevel::One, 200.0);
        let zero = burned(&m, LogicLevel::Zero, 200.0);
        assert!(delta(&one, &m, 10_000.0) > 0.0);
        assert!(delta(&zero, &m, 10_000.0) < 0.0);
        let view = one.view_at(0);
        assert!(view.level(Polarity::Pbti) > view.level(Polarity::Nbti));
    }

    #[test]
    fn opposite_duty_does_not_stress() {
        let m = model();
        let arena = burned(&m, LogicLevel::Zero, 500.0);
        assert_eq!(arena.view_at(0).level(Polarity::Pbti), 0.0);
    }

    #[test]
    fn stress_grows_sublinearly_like_log_time() {
        let m = model();
        let mut arena = burned(&m, LogicLevel::One, 0.0);
        let mut previous = 0.0;
        let mut increments = Vec::new();
        for _ in 0..8 {
            arena.advance_slot(0, &m, Hours::new(25.0), DutyCycle::ALWAYS_ONE, t60());
            let level = arena.view_at(0).level(Polarity::Pbti);
            increments.push(level - previous);
            previous = level;
        }
        // Later equal-length stress intervals add less than earlier ones.
        assert!(increments.first().unwrap() > increments.last().unwrap());
        assert!(increments.iter().all(|&inc| inc >= 0.0));
    }

    #[test]
    fn recovery_leaves_permanent_component() {
        let m = model();
        let mut arena = burned(&m, LogicLevel::One, 200.0);
        let peak = arena.view_at(0).level(Polarity::Pbti);
        arena.advance_slot(0, &m, Hours::new(1e6), DutyCycle::ALWAYS_ZERO, t60());
        let bins = m.fresh_bins(Polarity::Pbti);
        let occ = arena.view_at(0).occupancy(Polarity::Pbti).to_vec();
        let permanent: f64 = bins
            .iter()
            .zip(&occ)
            .filter(|(b, _)| b.is_permanent())
            .map(|(b, o)| b.weight * o)
            .sum();
        let level = arena.view_at(0).level(Polarity::Pbti);
        assert!(permanent > 0.0);
        assert!((level - permanent).abs() < 1e-9);
        assert!(level < peak);
    }

    #[test]
    fn magnitude_200h_matches_paper_figure6() {
        // Figure 6 (new ZCU102 at 60 C, 200 h): 1000 ps -> ~1-2 ps,
        // 2000 ps -> ~2-3 ps, 5000 ps -> ~5-6 ps, 10000 ps -> ~10-11 ps.
        let m = model();
        let one = burned(&m, LogicLevel::One, 200.0);
        let zero = burned(&m, LogicLevel::Zero, 200.0);
        for (len, lo, hi) in [
            (1_000.0, 0.8, 2.2),
            (2_000.0, 1.8, 3.2),
            (5_000.0, 4.5, 6.5),
            (10_000.0, 9.0, 12.0),
        ] {
            let up = delta(&one, &m, len);
            let down = -delta(&zero, &m, len);
            assert!(up > lo && up < hi, "burn-1 {len} ps: Δps = {up}");
            assert!(down > lo && down < hi, "burn-0 {len} ps: Δps = {down}");
        }
    }

    #[test]
    fn burn_one_recovery_crosses_zero_between_30_and_50_hours() {
        // Experiment 1: burn-1 routes return to the pre-burn state 30-50 h
        // after the value is complemented.
        let m = model();
        let mut arena = burned(&m, LogicLevel::One, 200.0);
        let crossing = (1..=80).find(|_| {
            arena.advance_slot(0, &m, Hours::new(1.0), DutyCycle::ALWAYS_ZERO, t60());
            delta(&arena, &m, 10_000.0) <= 0.0
        });
        let crossing = crossing.expect("burn-1 recovery must cross zero within 80 h");
        assert!(
            (25..=55).contains(&crossing),
            "crossing at {crossing} h, expected 30-50 h"
        );
    }

    #[test]
    fn burn_zero_recovery_takes_over_200_hours() {
        // Experiment 1: burn-0 routes recover, but take > 200 h.
        let m = model();
        let mut arena = burned(&m, LogicLevel::Zero, 200.0);
        arena.advance_slot(0, &m, Hours::new(200.0), DutyCycle::ALWAYS_ONE, t60());
        let at_400 = delta(&arena, &m, 10_000.0);
        assert!(
            at_400 < 0.0,
            "burn-0 routes must not have fully recovered after 200 h: {at_400}"
        );
        // ... but they do keep recovering (elastic, non-permanent).
        arena.advance_slot(0, &m, Hours::new(200.0), DutyCycle::ALWAYS_ONE, t60());
        assert!(delta(&arena, &m, 10_000.0) > at_400);
    }

    #[test]
    fn recovery_slope_separates_previous_bits() {
        // Experiment 3: attacker holds everything at 0. Routes that held 1
        // drop fast (PBTI emission); routes that held 0 stay flat.
        let m = model();
        let slope = |burn: LogicLevel| {
            let mut arena = burned(&m, burn, 200.0);
            let start = delta(&arena, &m, 10_000.0);
            arena.advance_slot(0, &m, Hours::new(25.0), DutyCycle::ALWAYS_ZERO, t60());
            delta(&arena, &m, 10_000.0) - start
        };
        let (slope1, slope0) = (slope(LogicLevel::One), slope(LogicLevel::Zero));
        assert!(slope1 < 0.0);
        assert!(
            slope1.abs() > 5.0 * slope0.abs(),
            "burn-1 slope {slope1} should dwarf burn-0 slope {slope0}"
        );
    }

    #[test]
    fn balanced_duty_leaves_little_net_signal() {
        // Section 8 mitigation: periodically inverting the data (duty 0.5)
        // suppresses the recoverable imprint.
        let m = model();
        let mut balanced = burned(&m, LogicLevel::One, 0.0);
        balanced.advance_slot(0, &m, Hours::new(200.0), DutyCycle::BALANCED, t60());
        let residual = delta(&balanced, &m, 10_000.0).abs();
        let full = delta(&burned(&m, LogicLevel::One, 200.0), &m, 10_000.0);
        assert!(
            residual < 0.2 * full.abs(),
            "residual {residual} vs full burn {full}"
        );
    }

    #[test]
    fn higher_temperature_accelerates_burn_in() {
        let m = model();
        let at = |celsius: f64| {
            let mut arena = burned(&m, LogicLevel::One, 0.0);
            arena.advance_slot(
                0,
                &m,
                Hours::new(50.0),
                DutyCycle::ALWAYS_ONE,
                Celsius::new(celsius),
            );
            delta(&arena, &m, 10_000.0)
        };
        assert!(at(80.0) > at(40.0));
    }

    #[test]
    fn wear_scales_delta_down() {
        let m = model();
        let arena = burned(&m, LogicLevel::One, 200.0);
        let new_dev = arena.view_at(0).delta_ps_scaled(&m, 10_000.0, 1.0);
        let old_dev = arena.view_at(0).delta_ps_scaled(&m, 10_000.0, 0.1);
        assert!((old_dev - 0.1 * new_dev).abs() < 1e-9);
    }

    #[test]
    fn reference_sweep_is_bit_identical_to_batched() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        let mut fast = AgingArena::new(&m);
        let mut reference = AgingArena::new(&m);
        for k in 0..16u64 {
            fast.ensure(k);
            reference.ensure(k);
        }
        let driven: Vec<(usize, DutyCycle)> = (0..8)
            .map(|s| {
                let duty = if s % 2 == 0 {
                    DutyCycle::ALWAYS_ONE
                } else {
                    DutyCycle::ALWAYS_ZERO
                };
                (s, duty)
            })
            .collect();
        let t = Celsius::new(58.0);
        for step in 0..12 {
            let dt = Hours::new(1.0 + f64::from(step % 3));
            fast.advance_phase_all(&m, &mut cache, dt, t, &driven);
            reference.advance_phase_all_reference(&m, dt, t, &driven);
        }
        assert_eq!(fast, reference);
        assert_eq!(fast.digest(), reference.digest());
    }

    #[test]
    fn sorted_iteration_is_key_ordered_regardless_of_insertion() {
        let m = model();
        let mut arena = AgingArena::new(&m);
        for k in [9u64, 2, 14, 0, 7] {
            arena.ensure(k);
        }
        let order: Vec<u64> = arena.iter_sorted().map(|(k, _)| k).collect();
        assert_eq!(order, vec![0, 2, 7, 9, 14]);
    }

    #[test]
    fn digest_is_insertion_order_independent() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        let build = |keys: &[u64]| {
            let mut arena = AgingArena::new(&m);
            for &k in keys {
                arena.ensure(k);
            }
            arena
        };
        let mut a = build(&[1, 2, 3]);
        let mut b = build(&[3, 1, 2]);
        // Drive the same *keys* (different slots) identically.
        let drive = |arena: &mut AgingArena, cache: &mut DecayCache| {
            let driven: Vec<(usize, DutyCycle)> = [1u64, 3]
                .iter()
                .map(|&k| (arena.slot_of(k).unwrap(), DutyCycle::ALWAYS_ONE))
                .collect();
            arena.advance_phase_all(&m, cache, Hours::new(5.0), Celsius::new(60.0), &driven);
        };
        drive(&mut a, &mut cache);
        drive(&mut b, &mut cache);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn memory_bytes_tracks_population() {
        let m = model();
        let mut arena = AgingArena::new(&m);
        let empty = arena.memory_bytes();
        arena.ensure(1);
        let one = arena.memory_bytes();
        arena.ensure(2);
        let two = arena.memory_bytes();
        assert!(one > empty);
        assert_eq!(two - one, one - empty, "linear per-wire growth");
    }

    #[test]
    #[should_panic(expected = "kernel table width")]
    fn mismatched_kernel_width_is_rejected() {
        let m = model();
        let mut arena = AgingArena::new(&m);
        let slot = arena.ensure(1);
        let bins = [TrapBin::new(Hours::new(1.0), Hours::new(1.0), 1.0)];
        let kernel = PhaseKernel::conditioned(
            &m,
            &bins,
            &bins,
            Hours::new(1.0),
            DutyCycle::BALANCED,
            Celsius::new(60.0),
        );
        arena.apply_kernel(slot, &kernel, Hours::new(1.0));
    }
}
