//! Closed-form phase-advance kernels and the shared decay-factor cache.
//!
//! Every CET bin obeys a first-order linear ODE with constant coefficients
//! while the stress conditions (duty, temperature) are constant:
//!
//! ```text
//! dp/dt = r_c (1 − p) − r_e p
//!   ⇒ p(t₀ + Δt) = eq + (p(t₀) − eq) · exp(−(r_c + r_e) Δt),
//!     eq = r_c / (r_c + r_e)
//! ```
//!
//! [`TrapBin::advance`] already evaluates this closed form for one call —
//! the cost of hour-stepped simulation comes from *callers* re-deriving
//! `eq` and the `exp` every hour for every wire, even though both depend
//! only on the phase conditions, never on the wire. This module factors
//! that per-condition work out:
//!
//! * [`BinKernel`] is the `(eq, decay)` pair for one bin — computed once,
//!   then applied to any number of occupancies with two flops each.
//! * [`PhaseKernel`] is the full per-polarity kernel table for one
//!   `(Δt, duty, temperature)` phase, including the Arrhenius factors.
//! * [`DecayCache`] memoizes phase kernels across routes and hours: every
//!   wire of a device shares the same bin time constants, so the kernel
//!   for a given condition tuple is computed once per device and reused
//!   for the whole sweep.
//!
//! The kernels replicate the reference arithmetic of [`TrapBin::advance`]
//! expression-for-expression (including its no-clamp early returns for
//! `Δt = 0` and all-zero rates), so the fast path is **bit-identical** to
//! the reference path — the property tests in `tests/kernel_equivalence.rs`
//! and this module's unit tests pin that down.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{BtiModel, Celsius, DutyCycle, Hours, Polarity, TrapBin};

/// Closed-form update coefficients for one CET bin over one
/// constant-condition phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinKernel {
    /// The occupancy the bin approaches under these conditions,
    /// `r_c / (r_c + r_e)`.
    pub equilibrium: f64,
    /// Exponential approach factor `exp(−(r_c + r_e) · Δt)`.
    pub decay: f64,
    /// `false` reproduces [`TrapBin::advance`]'s early returns (`Δt = 0`
    /// or no active rates): the occupancy is left untouched, *without*
    /// clamping.
    pub active: bool,
}

impl BinKernel {
    /// The do-nothing kernel (`Δt = 0`, or a permanent bin in pure
    /// recovery).
    pub const IDENTITY: Self = Self {
        equilibrium: 0.0,
        decay: 1.0,
        active: false,
    };

    /// Derives the kernel for `bin` under a stress share and Arrhenius
    /// factors — the same inputs, in the same expressions, as
    /// [`TrapBin::advance`].
    #[must_use]
    pub fn for_bin(
        bin: &TrapBin,
        dt: Hours,
        stress_share: f64,
        capture_accel: f64,
        emission_accel: f64,
    ) -> Self {
        debug_assert!((0.0..=1.0).contains(&stress_share));
        debug_assert!(dt.value() >= 0.0);
        if dt.value() == 0.0 {
            return Self::IDENTITY;
        }
        let r_c = stress_share * capture_accel / bin.tau_capture.value();
        let r_e = if bin.is_permanent() {
            0.0
        } else {
            (1.0 - stress_share) * emission_accel / bin.tau_emission.value()
        };
        let total = r_c + r_e;
        if total <= 0.0 {
            return Self::IDENTITY;
        }
        Self {
            equilibrium: r_c / total,
            decay: (-total * dt.value()).exp(),
            active: true,
        }
    }

    /// Applies the kernel to one occupancy, mirroring the reference
    /// update (including the clamp, and its absence on inactive kernels).
    #[inline]
    #[must_use]
    pub fn apply(&self, occupancy: f64) -> f64 {
        if !self.active {
            return occupancy;
        }
        let next = self.equilibrium + (occupancy - self.equilibrium) * self.decay;
        next.clamp(0.0, 1.0)
    }
}

/// The full kernel table for one constant-condition phase: one
/// [`BinKernel`] per bin, for both polarities, with Arrhenius
/// acceleration already folded in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseKernel {
    nbti: Vec<BinKernel>,
    pbti: Vec<BinKernel>,
}

impl PhaseKernel {
    /// Builds the kernel for an *actively conditioned* phase at `duty`.
    ///
    /// `nbti_bins` / `pbti_bins` supply the bin time-constant structure
    /// (occupancies are ignored); every resource of the same model
    /// shares that structure, which is what makes the kernel reusable
    /// across wires.
    #[must_use]
    pub fn conditioned(
        model: &BtiModel,
        nbti_bins: &[TrapBin],
        pbti_bins: &[TrapBin],
        dt: Hours,
        duty: DutyCycle,
        temperature: Celsius,
    ) -> Self {
        let (nc, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (pc, pe) = model.acceleration(Polarity::Pbti, temperature);
        let n_share = duty.stress_share(Polarity::Nbti);
        let p_share = duty.stress_share(Polarity::Pbti);
        Self {
            nbti: nbti_bins
                .iter()
                .map(|b| BinKernel::for_bin(b, dt, n_share, nc, ne))
                .collect(),
            pbti: pbti_bins
                .iter()
                .map(|b| BinKernel::for_bin(b, dt, p_share, pc, pe))
                .collect(),
        }
    }

    /// Builds the kernel for an *undriven* phase: traps only emit,
    /// nothing captures — the closed form of
    /// [`crate::AgingArena::relax_slot`].
    ///
    /// With a zero stress share the capture rate is exactly zero, so the
    /// unit capture acceleration passed here is multiplied away.
    #[must_use]
    pub fn relaxed(
        model: &BtiModel,
        nbti_bins: &[TrapBin],
        pbti_bins: &[TrapBin],
        dt: Hours,
        temperature: Celsius,
    ) -> Self {
        let (_, ne) = model.acceleration(Polarity::Nbti, temperature);
        let (_, pe) = model.acceleration(Polarity::Pbti, temperature);
        Self {
            nbti: nbti_bins
                .iter()
                .map(|b| BinKernel::for_bin(b, dt, 0.0, 1.0, ne))
                .collect(),
            pbti: pbti_bins
                .iter()
                .map(|b| BinKernel::for_bin(b, dt, 0.0, 1.0, pe))
                .collect(),
        }
    }

    /// The NBTI bank's kernels, bin-by-bin.
    #[must_use]
    pub fn nbti(&self) -> &[BinKernel] {
        &self.nbti
    }

    /// The PBTI bank's kernels, bin-by-bin.
    #[must_use]
    pub fn pbti(&self) -> &[BinKernel] {
        &self.pbti
    }
}

/// Key of one memoized phase: the exact bit patterns of the condition
/// tuple, so cache hits imply bit-identical kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PhaseKey {
    dt_bits: u64,
    duty_bits: u64,
    temp_bits: u64,
    relax: bool,
}

/// How many distinct condition tuples a cache retains before it resets.
///
/// Steady campaigns see a handful of keys (the die temperature converges
/// bitwise within a few steps); the bound only guards against a
/// pathological caller sweeping unbounded unique temperatures.
const DECAY_CACHE_CAPACITY: usize = 4096;

/// Lifetime hit/miss/reset counters for one [`DecayCache`].
///
/// Pure telemetry: the counters never influence which kernel a lookup
/// returns, so two runs that differ only in whether anyone *reads* the
/// stats stay bit-identical. They are excluded from serialization for the
/// same reason checkpointed caches may be dropped wholesale — observability
/// state is not simulation state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a memoized kernel.
    pub hits: u64,
    /// Lookups that derived (and inserted) a fresh kernel.
    pub misses: u64,
    /// Times the cache filled to its capacity bound (4096 distinct
    /// tuples) and was cleared to make room — previously an invisible
    /// cliff.
    pub resets: u64,
}

impl CacheStats {
    /// Element-wise sum, for aggregating a fleet of device caches.
    #[must_use]
    pub fn combined(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            resets: self.resets + other.resets,
        }
    }

    /// Element-wise difference vs an `earlier` snapshot of the *same*
    /// monotonic counters (saturating, so a cache swapped for a fresh one
    /// reads as zero delta rather than underflowing).
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            resets: self.resets.saturating_sub(earlier.resets),
        }
    }
}

/// Memoizes [`PhaseKernel`]s per `(Δt, duty, temperature)` so the
/// Arrhenius factors and per-bin `exp` tables are computed once per
/// condition and shared across every wire and route of a device.
///
/// The cache holds only pure derived values: cloning, dropping, or
/// clearing it never changes results, so snapshot/resume flows that skip
/// it are safe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecayCache {
    nbti_proto: Vec<TrapBin>,
    pbti_proto: Vec<TrapBin>,
    map: HashMap<PhaseKey, PhaseKernel>,
    #[serde(skip)]
    stats: CacheStats,
}

impl DecayCache {
    /// Creates an empty cache for devices governed by `model`.
    #[must_use]
    pub fn new(model: &BtiModel) -> Self {
        Self {
            nbti_proto: model.fresh_bins(Polarity::Nbti),
            pbti_proto: model.fresh_bins(Polarity::Pbti),
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Lifetime hit/miss/reset counters (see [`CacheStats`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized condition tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no kernel has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The kernel for an actively conditioned phase, computed on first
    /// use and shared afterwards.
    pub fn conditioned(
        &mut self,
        model: &BtiModel,
        dt: Hours,
        duty: DutyCycle,
        temperature: Celsius,
    ) -> &PhaseKernel {
        let key = PhaseKey {
            dt_bits: dt.value().to_bits(),
            duty_bits: duty.fraction_at_one().to_bits(),
            temp_bits: temperature.value().to_bits(),
            relax: false,
        };
        let hit = self.map.contains_key(&key);
        if !hit && self.map.len() >= DECAY_CACHE_CAPACITY {
            self.map.clear();
            self.stats.resets += 1;
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        let Self {
            nbti_proto,
            pbti_proto,
            map,
            ..
        } = self;
        map.entry(key).or_insert_with(|| {
            PhaseKernel::conditioned(model, nbti_proto, pbti_proto, dt, duty, temperature)
        })
    }

    /// The kernel for an undriven (relaxing) phase.
    pub fn relaxed(&mut self, model: &BtiModel, dt: Hours, temperature: Celsius) -> &PhaseKernel {
        let key = PhaseKey {
            dt_bits: dt.value().to_bits(),
            duty_bits: 0,
            temp_bits: temperature.value().to_bits(),
            relax: true,
        };
        let hit = self.map.contains_key(&key);
        if !hit && self.map.len() >= DECAY_CACHE_CAPACITY {
            self.map.clear();
            self.stats.resets += 1;
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        let Self {
            nbti_proto,
            pbti_proto,
            map,
            ..
        } = self;
        map.entry(key)
            .or_insert_with(|| PhaseKernel::relaxed(model, nbti_proto, pbti_proto, dt, temperature))
    }
}

impl Default for DecayCache {
    /// A cache for the paper-calibrated UltraScale+ model.
    fn default() -> Self {
        Self::new(&BtiModel::ultrascale_plus())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgingArena, LogicLevel};

    fn model() -> BtiModel {
        BtiModel::ultrascale_plus()
    }

    #[test]
    fn kernel_apply_is_bit_identical_to_bin_advance() {
        let m = model();
        for polarity in Polarity::ALL {
            let mut bins = m.fresh_bins(polarity);
            // Distinct occupancies across the grid.
            for b in &mut bins {
                b.advance(Hours::new(17.0), 0.5, 1.3, 0.9);
            }
            for b in &bins {
                let k = BinKernel::for_bin(b, Hours::new(13.0), 0.7, 1.1, 0.8);
                let mut reference = *b;
                reference.advance(Hours::new(13.0), 0.7, 1.1, 0.8);
                assert_eq!(
                    k.apply(b.occupancy).to_bits(),
                    reference.occupancy.to_bits(),
                    "kernel apply must match TrapBin::advance bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn identity_kernel_skips_the_clamp_like_the_reference() {
        // The reference early-returns without clamping; a value outside
        // [0, 1] must survive an inactive kernel untouched.
        let k = BinKernel::IDENTITY;
        assert_eq!(k.apply(1.5), 1.5);
        assert_eq!(k.apply(-0.25), -0.25);
    }

    #[test]
    fn zero_dt_yields_identity() {
        let m = model();
        let bins = m.fresh_bins(Polarity::Pbti);
        let k = BinKernel::for_bin(&bins[0], Hours::ZERO, 1.0, 1.0, 1.0);
        assert!(!k.active);
    }

    #[test]
    fn permanent_bin_relaxation_is_identity() {
        let m = model();
        let bins = m.fresh_bins(Polarity::Nbti);
        let permanent = bins
            .iter()
            .find(|b| b.is_permanent())
            .expect("NBTI grid has a permanent bin");
        let k = BinKernel::for_bin(permanent, Hours::new(1000.0), 0.0, 1.0, 1.0);
        assert!(!k.active, "no capture, no emission: nothing to integrate");
    }

    /// Two fresh one-wire arenas side by side: slot 0 of each.
    fn twin_arenas(m: &BtiModel) -> (AgingArena, AgingArena) {
        let mut arena = AgingArena::new(m);
        arena.ensure(0);
        (arena.clone(), arena)
    }

    #[test]
    fn cached_kernels_match_the_per_wire_path_bitwise() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        let (mut fast, mut reference) = twin_arenas(&m);
        let t = Celsius::new(67.5);
        let dt = Hours::new(1.0);
        for _ in 0..48 {
            let kernel = cache.conditioned(&m, dt, LogicLevel::One.duty(), t);
            fast.apply_kernel(0, kernel, dt);
            reference.advance_slot(0, &m, dt, LogicLevel::One.duty(), t);
        }
        assert_eq!(fast, reference);
        assert_eq!(cache.len(), 1, "one condition tuple, one kernel");
        for _ in 0..24 {
            let kernel = cache.relaxed(&m, dt, t);
            fast.apply_kernel(0, kernel, dt);
            reference.relax_slot(0, &m, dt, t);
        }
        assert_eq!(fast, reference);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn phase_advance_tracks_hour_stepping_within_tolerance() {
        // Composing n closed-form hourly updates equals one closed-form
        // phase update exactly in ℝ; in f64 the exp compositions differ
        // by a few ulps per step, so the contract is ≤ 1e-9 relative.
        let m = model();
        let (mut phase, mut hourly) = twin_arenas(&m);
        let t = Celsius::new(60.0);
        phase.advance_slot(0, &m, Hours::new(200.0), DutyCycle::ALWAYS_ONE, t);
        for _ in 0..200 {
            hourly.advance_slot(0, &m, Hours::new(1.0), DutyCycle::ALWAYS_ONE, t);
        }
        let a = phase.view_at(0).level(Polarity::Pbti);
        let b = hourly.view_at(0).level(Polarity::Pbti);
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "phase {a} vs hourly {b}"
        );
    }

    #[test]
    fn cache_capacity_bound_resets_instead_of_growing() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        for i in 0..(DECAY_CACHE_CAPACITY + 10) {
            let t = Celsius::new(40.0 + i as f64 * 1e-6);
            let _ = cache.conditioned(&m, Hours::new(1.0), DutyCycle::BALANCED, t);
        }
        assert!(cache.len() <= DECAY_CACHE_CAPACITY);
        assert!(!cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.resets, 1, "one pass over the bound, one reset");
        assert_eq!(stats.misses, (DECAY_CACHE_CAPACITY + 10) as u64);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn cache_stats_count_hits_misses_and_aggregate() {
        let m = model();
        let mut cache = DecayCache::new(&m);
        let t = Celsius::new(55.0);
        for _ in 0..5 {
            let _ = cache.conditioned(&m, Hours::new(1.0), DutyCycle::BALANCED, t);
        }
        let _ = cache.relaxed(&m, Hours::new(1.0), t);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "one conditioned key, one relaxed key");
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.resets, 0);
        let doubled = stats.combined(stats);
        assert_eq!(doubled.hits, 8);
        assert_eq!(stats.since(CacheStats::default()), stats);
        assert_eq!(CacheStats::default().since(stats), CacheStats::default());
    }

    #[test]
    fn beyond_capacity_sweep_stays_bit_identical_to_reference() {
        // Regression for the capacity cliff: a campaign-style sweep over
        // more distinct condition tuples than the cache can hold must
        // produce exactly the kernels the uncached reference derives —
        // the reset is a performance event, never a results event — and
        // the new counters must make the cliff visible.
        let m = model();
        let mut cache = DecayCache::new(&m);
        let (mut fast, mut reference) = twin_arenas(&m);
        let distinct = DECAY_CACHE_CAPACITY + 64;
        for i in 0..distinct {
            let t = Celsius::new(40.0 + i as f64 * 1e-7);
            let dt = Hours::new(1.0);
            let kernel = cache.conditioned(&m, dt, DutyCycle::ALWAYS_ONE, t);
            fast.apply_kernel(0, kernel, dt);
            reference.advance_slot(0, &m, dt, DutyCycle::ALWAYS_ONE, t);
        }
        assert_eq!(fast, reference, "reset must not perturb results");
        let stats = cache.stats();
        assert_eq!(stats.misses, distinct as u64, "every tuple distinct");
        assert!(stats.resets >= 1, "sweep crossed the capacity bound");
    }
}
