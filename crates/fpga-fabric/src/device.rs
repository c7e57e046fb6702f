//! The FPGA device: silicon identity, analog aging, and loaded designs.

use std::collections::HashSet;

use bti_physics::{
    AgingArena, BtiModel, Celsius, DecayCache, DutyCycle, Hours, PhasePlan, WearModel,
};
use serde::{Deserialize, Serialize};

use crate::router::{route_direct, route_serpentine, Topology};
use crate::{
    CarryChain, Design, FabricError, Route, RouteDelay, RouteRequest, ThermalModel, TileCoord,
    VariationModel, WireId, WireSegment,
};

/// Which physical product a device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceProfile {
    /// A Zynq UltraScale+ ZCU102 development board (the paper's lab
    /// device).
    Zcu102,
    /// A Virtex UltraScale+ VU9P as deployed in AWS F1 instances.
    AwsF1Vu9p,
}

impl DeviceProfile {
    /// Grid size `(cols, rows)` of this product.
    #[must_use]
    pub fn grid(self) -> (u16, u16) {
        match self {
            Self::Zcu102 => (96, 96),
            Self::AwsF1Vu9p => (160, 120),
        }
    }
}

/// One physical FPGA: a grid of programmable routing with per-wire analog
/// aging, a process-variation fingerprint, a thermal environment, and at
/// most one loaded design.
///
/// The central property (the paper's thesis): [`FpgaDevice::wipe`] clears
/// the loaded design — all *digital* state — while the per-wire aging in
/// the device's [`AgingArena`] survives. Whoever routes through the same
/// wires next can read the imprint.
///
/// Aging is stored structure-of-arrays: one contiguous [`AgingArena`]
/// holds every bin of every aged wire, indexed by [`WireId`], so a
/// whole-device phase advance is a handful of batched kernel sweeps
/// instead of a pointer-chasing loop over per-wire heap objects.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FpgaDevice {
    profile: DeviceProfile,
    topo: Topology,
    model: BtiModel,
    wear: WearModel,
    variation: VariationModel,
    thermal: ThermalModel,
    die_temp: Celsius,
    service_age: Hours,
    clock: Hours,
    aging: AgingArena,
    loaded: Option<Design>,
    /// Memoized phase kernels shared by every wire at the same
    /// conditions. Pure derived values — never serialized, and a resumed
    /// device simply rebuilds them on first use.
    #[serde(skip)]
    decay_cache: DecayCache,
    /// Memoized sweep inputs for the loaded design: the `(arena slot,
    /// duty)` conditioning list plus its pre-grouped [`PhasePlan`].
    /// Rebuilding them costs one arena lookup per routed segment per
    /// step, which would dominate the batched sweep; the design's nets
    /// and routes are immutable while loaded, so both are pure derived
    /// data — cleared on any design change, re-planned when new wires
    /// enter the arena, never serialized.
    #[serde(skip)]
    driven_cache: Option<SweepCache>,
}

/// See [`FpgaDevice::driven_cache`].
#[derive(Debug, Clone)]
struct SweepCache {
    driven: Vec<(usize, DutyCycle)>,
    plan: PhasePlan,
}

impl FpgaDevice {
    /// Creates a device with explicit parameters.
    #[must_use]
    pub fn new(
        profile: DeviceProfile,
        seed: u64,
        service_age: Hours,
        thermal: ThermalModel,
    ) -> Self {
        let (cols, rows) = profile.grid();
        let model = BtiModel::ultrascale_plus();
        Self {
            profile,
            topo: Topology::new(cols, rows),
            decay_cache: DecayCache::new(&model),
            aging: AgingArena::new(&model),
            model,
            wear: WearModel::default(),
            variation: VariationModel::new(seed, 0.03),
            die_temp: thermal.die_temperature(0.0),
            thermal,
            service_age,
            clock: Hours::ZERO,
            loaded: None,
            driven_cache: None,
        }
    }

    /// A factory-new ZCU102 sitting in a 60 °C lab oven (Experiment 1).
    #[must_use]
    pub fn zcu102_new(seed: u64) -> Self {
        Self::new(
            DeviceProfile::Zcu102,
            seed,
            Hours::ZERO,
            ThermalModel::lab_oven(Celsius::new(60.0)),
        )
    }

    /// An AWS F1 device with `service_age` of prior datacenter use
    /// (Experiments 2 and 3 ran in eu-west-2, where devices had seen up to
    /// four years of service).
    #[must_use]
    pub fn aws_f1(seed: u64, service_age: Hours) -> Self {
        Self::new(
            DeviceProfile::AwsF1Vu9p,
            seed,
            service_age,
            ThermalModel::datacenter(),
        )
    }

    /// The product this device models.
    #[must_use]
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> u16 {
        self.topo.cols
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> u16 {
        self.topo.rows
    }

    /// Total prior service time (drives the wear factor).
    #[must_use]
    pub fn service_age(&self) -> Hours {
        self.service_age
    }

    /// Simulation clock: hours elapsed since this `FpgaDevice` value was
    /// created.
    #[must_use]
    pub fn clock(&self) -> Hours {
        self.clock
    }

    /// The BTI model governing this device's transistors.
    #[must_use]
    pub fn bti_model(&self) -> &BtiModel {
        &self.model
    }

    /// The silicon-identity variation model.
    #[must_use]
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The device's thermal environment.
    #[must_use]
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Replaces the thermal environment (a cloud scheduler moving the
    /// board, an oven setpoint change).
    pub fn set_thermal(&mut self, thermal: ThermalModel) {
        self.thermal = thermal;
    }

    /// The die temperature *right now*. Thermal state is transient: it
    /// approaches the steady state for the loaded design's power draw
    /// with a ~2-minute time constant as the simulation runs.
    #[must_use]
    pub fn die_temperature(&self) -> Celsius {
        self.die_temp
    }

    /// Fresh-stress sensitivity factor from accumulated wear: 1.0 for a
    /// new board, ≈0.1 for a four-year-old cloud device.
    #[must_use]
    pub fn wear_factor(&self) -> f64 {
        self.wear.sensitivity_factor(self.service_age)
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Routes a serpentine of the requested nominal delay, avoiding no
    /// pre-existing wires.
    ///
    /// Deterministic: the same request on the same device yields the same
    /// physical wires — this is how the attacker reconstructs the victim's
    /// skeleton (Assumption 1).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::Unroutable`] when the target cannot be met
    /// within tolerance, or [`FabricError::OutOfGrid`] for a bad start.
    pub fn route_with_target_delay(&self, request: &RouteRequest) -> Result<Route, FabricError> {
        self.route_with_target_delay_avoiding(request, &HashSet::new())
    }

    /// Like [`route_with_target_delay`](Self::route_with_target_delay) but
    /// avoiding wires already claimed by other routes of the same design.
    pub fn route_with_target_delay_avoiding(
        &self,
        request: &RouteRequest,
        used: &HashSet<WireId>,
    ) -> Result<Route, FabricError> {
        route_serpentine(self.topo, request, used)
    }

    /// Routes directly between two tiles (ordinary design routing).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::OutOfGrid`] or [`FabricError::Unroutable`].
    pub fn route_between(&self, from: TileCoord, to: TileCoord) -> Result<Route, FabricError> {
        route_direct(self.topo, from, to, &HashSet::new())
    }

    /// Places a carry chain (the TDC delay line) on this device's silicon.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CarryChainTooLong`] if it does not fit.
    pub fn carry_chain(&self, base: TileCoord, length: usize) -> Result<CarryChain, FabricError> {
        CarryChain::place(base, length, self.topo.rows, &self.variation)
    }

    /// Decodes a wire id on this device.
    #[must_use]
    pub fn wire_segment(&self, id: WireId) -> Option<WireSegment> {
        self.topo.decode(id)
    }

    // ------------------------------------------------------------------
    // Design lifecycle
    // ------------------------------------------------------------------

    /// Loads a design (programs the bitstream).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::MalformedDesign`] or
    /// [`FabricError::WireOccupied`] from [`Design::validate`], or
    /// [`FabricError::WireOccupied`] if a design is already loaded.
    pub fn load_design(&mut self, design: Design) -> Result<(), FabricError> {
        if self.loaded.is_some() {
            return Err(FabricError::MalformedDesign(
                "a design is already loaded; wipe or unload first".to_owned(),
            ));
        }
        design.validate()?;
        self.loaded = Some(design);
        self.driven_cache = None;
        Ok(())
    }

    /// Removes the loaded design and returns it (the tenant keeps their
    /// bitstream).
    pub fn unload_design(&mut self) -> Option<Design> {
        self.driven_cache = None;
        self.loaded.take()
    }

    /// The currently loaded design, if any.
    #[must_use]
    pub fn loaded_design(&self) -> Option<&Design> {
        self.loaded.as_ref()
    }

    /// Mutable access to the loaded design (a running tenant changing the
    /// values it holds at runtime).
    pub fn loaded_design_mut(&mut self) -> Option<&mut Design> {
        // The caller may change net activities or routes through this
        // borrow, so the memoized conditioning list is stale.
        self.driven_cache = None;
        self.loaded.as_mut()
    }

    /// The provider's scrub: clears **all digital state** — configuration,
    /// held values, everything a logical read-back could see.
    ///
    /// Analog wire aging is physics, not state; it survives. This method
    /// is intentionally the same as unloading and discarding the design.
    pub fn wipe(&mut self) {
        self.loaded = None;
        self.driven_cache = None;
    }

    /// Runs the device for `dt` of wall-clock time.
    ///
    /// Every routed net of the loaded design stresses its wires according
    /// to its activity, at the current die temperature. Wires *not* driven
    /// by the loaded design (including every wire on a wiped, idle device)
    /// **relax**: their traps emit and the imprint fades — which is why the
    /// paper's provider-side mitigation of holding returned devices out of
    /// the pool works.
    pub fn run_for(&mut self, dt: Hours) {
        assert!(dt.value() >= 0.0, "time must move forward");
        let watts = self.loaded.as_ref().map_or(0.0, Design::power_watts);
        // Integrate aging at the time-averaged die temperature of this
        // step, then advance the thermal state.
        let temperature = self
            .thermal
            .average_over_step(self.die_temp, watts, dt.value());
        self.die_temp = self.thermal.step(self.die_temp, watts, dt.value());
        // One batched arena sweep covers the whole device: the loaded
        // design's routed nets condition their wires at the net's duty,
        // every other aged wire relaxes. A validated design never routes
        // two nets over one wire, so each slot appears at most once.
        let cache = match self.driven_cache.take() {
            // Wires that entered the arena since the plan was built (a
            // harness conditioning routes between steps) belong on its
            // relax list: re-plan over the cached driven list.
            Some(mut cached) => {
                if !cached.plan.is_current(&self.aging) {
                    cached.plan = self.aging.plan_phase(&cached.driven);
                }
                cached
            }
            None => {
                let mut driven: Vec<(usize, DutyCycle)> = Vec::new();
                if let Some(design) = &self.loaded {
                    for net in design.nets() {
                        if let Some(route) = &net.route {
                            let duty = net.activity.duty();
                            for seg in route.segments() {
                                let slot = self.aging.ensure(u64::from(seg.id.0));
                                driven.push((slot, duty));
                            }
                        }
                    }
                }
                let plan = self.aging.plan_phase(&driven);
                SweepCache { driven, plan }
            }
        };
        self.aging.advance_phase_planned(
            &self.model,
            &mut self.decay_cache,
            dt,
            temperature,
            &cache.plan,
        );
        self.driven_cache = Some(cache);
        self.clock += dt;
        self.service_age += dt;
    }

    /// Low-level conditioning: stresses one route's wires directly at the
    /// current die temperature (used by harnesses that bypass designs).
    pub fn condition_route(&mut self, route: &Route, duty: DutyCycle, dt: Hours) {
        let temperature = self.die_temperature();
        self.condition_route_at(route, duty, dt, temperature);
    }

    /// Low-level conditioning at an explicit temperature.
    pub fn condition_route_at(
        &mut self,
        route: &Route,
        duty: DutyCycle,
        dt: Hours,
        temperature: Celsius,
    ) {
        let kernel = self
            .decay_cache
            .conditioned(&self.model, dt, duty, temperature)
            .clone();
        for seg in route.segments() {
            let slot = self.aging.ensure(u64::from(seg.id.0));
            self.aging.apply_kernel(slot, &kernel, dt);
        }
    }

    /// Lifetime hit/miss/reset counters of this device's decay cache.
    #[must_use]
    pub fn decay_cache_stats(&self) -> bti_physics::CacheStats {
        self.decay_cache.stats()
    }

    // ------------------------------------------------------------------
    // Delay queries (what a sensor can observe)
    // ------------------------------------------------------------------

    /// The aged, variation-adjusted delays of one wire segment.
    #[must_use]
    fn wire_delay(&self, seg: &WireSegment) -> RouteDelay {
        let base = seg.nominal_delay_ps() * self.variation.factor(u64::from(seg.id.0));
        let wear = self.wear_factor();
        let (rise_shift, fall_shift) = match self.aging.wire(u64::from(seg.id.0)) {
            Some(view) => (
                view.rise_shift_ps_scaled(&self.model, seg.nominal_delay_ps(), wear),
                view.fall_shift_ps_scaled(&self.model, seg.nominal_delay_ps(), wear),
            ),
            None => (0.0, 0.0),
        };
        RouteDelay {
            rise_ps: base + rise_shift,
            fall_ps: base + fall_shift,
        }
    }

    /// The aged delays of a whole route.
    #[must_use]
    pub fn route_delay(&self, route: &Route) -> RouteDelay {
        let mut total = RouteDelay::default();
        for seg in route.segments() {
            let d = self.wire_delay(seg);
            total.rise_ps += d.rise_ps;
            total.fall_ps += d.fall_ps;
        }
        total
    }

    /// The paper's Δps for a route: falling minus rising aged delay.
    ///
    /// This is the *true* analog value; real attackers only see it through
    /// the TDC's quantization and noise (the `tdc` crate).
    #[must_use]
    pub fn route_delta_ps(&self, route: &Route) -> f64 {
        self.route_delay(route).delta_ps()
    }

    /// Inspects the aging of one wire, if it was ever stressed.
    ///
    /// Returns a borrowed arena view — readout paths are hot loops, and
    /// copying a full per-wire state out per query would reintroduce the
    /// allocations the arena removes.
    #[must_use]
    #[cfg(test)]
    fn wire_aging(&self, id: WireId) -> Option<bti_physics::WireAging<'_>> {
        self.aging.wire(u64::from(id.0))
    }

    /// Number of wires carrying any aging state.
    #[must_use]
    pub fn aged_wire_count(&self) -> usize {
        self.aging.len()
    }

    /// Order-stable FNV digest of the device's full aging state (keys,
    /// odometers, occupancy bit patterns, in [`WireId`] order).
    #[must_use]
    #[cfg(test)]
    fn aging_digest(&self) -> u64 {
        self.aging.digest()
    }

    /// Logical bytes held by this device's aging arena (array lengths,
    /// not allocator capacities, so the number is deterministic).
    #[must_use]
    pub fn aging_memory_bytes(&self) -> usize {
        self.aging.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetActivity;
    use bti_physics::LogicLevel;

    fn request(target: f64) -> RouteRequest {
        RouteRequest::new(TileCoord::new(4, 4), target)
    }

    #[test]
    fn conditioning_creates_measurable_imprint() {
        let mut dev = FpgaDevice::zcu102_new(1);
        let route = dev.route_with_target_delay(&request(10_000.0)).unwrap();
        assert_eq!(dev.route_delta_ps(&route), 0.0);
        dev.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let delta = dev.route_delta_ps(&route);
        assert!(delta > 9.0 && delta < 12.0, "Δps = {delta}");
    }

    #[test]
    fn wipe_clears_design_but_not_aging() {
        let mut dev = FpgaDevice::zcu102_new(2);
        let route = dev.route_with_target_delay(&request(5_000.0)).unwrap();
        let mut design = Design::new("victim");
        design.add_net(
            "secret",
            NetActivity::Static(LogicLevel::One),
            Some(route.clone()),
        );
        dev.load_design(design).unwrap();
        dev.run_for(Hours::new(200.0));
        dev.wipe();
        assert!(dev.loaded_design().is_none(), "digital state gone");
        assert!(dev.route_delta_ps(&route) > 4.0, "analog state survives");
    }

    #[test]
    fn aged_cloud_device_responds_weakly() {
        let four_years = Hours::new(4.0 * 365.0 * 24.0);
        let mut new_dev = FpgaDevice::zcu102_new(3);
        let mut old_dev = FpgaDevice::aws_f1(3, four_years);
        // Same skeleton request works on both (old grid is larger).
        let r_new = new_dev.route_with_target_delay(&request(10_000.0)).unwrap();
        let r_old = old_dev.route_with_target_delay(&request(10_000.0)).unwrap();
        new_dev.condition_route_at(
            &r_new,
            DutyCycle::ALWAYS_ONE,
            Hours::new(200.0),
            Celsius::new(60.0),
        );
        old_dev.condition_route_at(
            &r_old,
            DutyCycle::ALWAYS_ONE,
            Hours::new(200.0),
            Celsius::new(60.0),
        );
        let ratio = old_dev.route_delta_ps(&r_old) / new_dev.route_delta_ps(&r_new);
        assert!(ratio > 0.05 && ratio < 0.2, "wear ratio = {ratio}");
    }

    #[test]
    fn run_for_uses_design_activity() {
        let mut dev = FpgaDevice::zcu102_new(4);
        let mut used = HashSet::new();
        let r1 = dev
            .route_with_target_delay_avoiding(&request(2_000.0), &used)
            .unwrap();
        used.extend(r1.wire_ids());
        let r0 = dev
            .route_with_target_delay_avoiding(
                &RouteRequest::new(TileCoord::new(4, 40), 2_000.0),
                &used,
            )
            .unwrap();
        let mut design = Design::new("two-bits");
        design.add_net(
            "bit1",
            NetActivity::Static(LogicLevel::One),
            Some(r1.clone()),
        );
        design.add_net(
            "bit0",
            NetActivity::Static(LogicLevel::Zero),
            Some(r0.clone()),
        );
        dev.load_design(design).unwrap();
        dev.run_for(Hours::new(100.0));
        assert!(dev.route_delta_ps(&r1) > 0.5);
        assert!(dev.route_delta_ps(&r0) < -0.5);
        assert_eq!(dev.clock(), Hours::new(100.0));
    }

    #[test]
    fn double_load_is_rejected() {
        let mut dev = FpgaDevice::zcu102_new(5);
        dev.load_design(Design::new("a")).unwrap();
        assert!(dev.load_design(Design::new("b")).is_err());
        dev.wipe();
        assert!(dev.load_design(Design::new("b")).is_ok());
    }

    #[test]
    fn conflicting_routes_in_one_design_rejected() {
        let mut dev = FpgaDevice::zcu102_new(6);
        let route = dev.route_with_target_delay(&request(1_000.0)).unwrap();
        let mut design = Design::new("conflict");
        design.add_net("a", NetActivity::Dynamic, Some(route.clone()));
        design.add_net("b", NetActivity::Dynamic, Some(route));
        assert!(matches!(
            dev.load_design(design),
            Err(FabricError::WireOccupied(_))
        ));
    }

    #[test]
    fn route_delay_includes_variation() {
        let dev = FpgaDevice::zcu102_new(7);
        let route = dev.route_with_target_delay(&request(5_000.0)).unwrap();
        let d = dev.route_delay(&route);
        // Fresh device: rise == fall, both within a few percent of nominal.
        assert_eq!(d.rise_ps, d.fall_ps);
        let rel = (d.rise_ps - route.nominal_ps()).abs() / route.nominal_ps();
        assert!(rel < 0.05, "relative deviation {rel}");
        assert!(d.rise_ps != route.nominal_ps(), "variation must show up");
    }

    #[test]
    fn same_seed_same_silicon_different_seed_different() {
        let dev_a = FpgaDevice::zcu102_new(8);
        let dev_b = FpgaDevice::zcu102_new(8);
        let dev_c = FpgaDevice::zcu102_new(9);
        let route = dev_a.route_with_target_delay(&request(5_000.0)).unwrap();
        assert_eq!(dev_a.route_delay(&route), dev_b.route_delay(&route));
        assert_ne!(dev_a.route_delay(&route), dev_c.route_delay(&route));
    }

    #[test]
    fn dsp_heavy_design_heats_the_die() {
        let mut dev = FpgaDevice::aws_f1(10, Hours::ZERO);
        let idle = dev.die_temperature();
        let mut hot = Design::new("arith-heavy");
        hot.set_power_watts(63.0);
        dev.load_design(hot).unwrap();
        // Heating is transient: immediately after loading the die is still
        // cool; ten minutes later it is hot.
        assert!(dev.die_temperature().value() < idle.value() + 1.0);
        dev.run_for(Hours::new(10.0 / 60.0));
        assert!(dev.die_temperature().value() > idle.value() + 20.0);
        // And it cools back off within minutes of a wipe.
        dev.wipe();
        dev.run_for(Hours::new(10.0 / 60.0));
        assert!(dev.die_temperature().value() < idle.value() + 1.0);
    }

    #[test]
    fn idle_device_relaxes_imprints() {
        let mut dev = FpgaDevice::zcu102_new(12);
        let route = dev.route_with_target_delay(&request(10_000.0)).unwrap();
        dev.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let burned = dev.route_delta_ps(&route);
        // Device sits wiped and idle in the pool: the burn-1 (PBTI)
        // imprint fades substantially within a couple hundred hours.
        dev.run_for(Hours::new(200.0));
        let faded = dev.route_delta_ps(&route);
        assert!(faded < 0.5 * burned, "imprint {burned} -> {faded}");
        assert!(faded > 0.0, "relaxation never overshoots");
    }

    #[test]
    fn reference_and_cached_kernels_age_bit_identically() {
        let mut dev = FpgaDevice::zcu102_new(13);
        let route = dev.route_with_target_delay(&request(10_000.0)).unwrap();
        let activity = NetActivity::Static(LogicLevel::One);
        let mut design = Design::new("bit");
        design.add_net("n", activity, Some(route.clone()));
        let watts = design.power_watts();
        dev.load_design(design).unwrap();
        // The per-wire reference: its own arena, every wire stepped one at
        // a time from scratch kernels at the die temperature `run_for`
        // integrates over.
        let model = dev.bti_model().clone();
        let thermal = *dev.thermal();
        let mut reference = AgingArena::new(&model);
        let slots: Vec<usize> = route
            .segments()
            .iter()
            .map(|seg| reference.ensure(u64::from(seg.id.0)))
            .collect();
        let mut die = dev.die_temperature();
        let dt = Hours::new(1.0);
        let mut step = |watts: f64, duty: Option<DutyCycle>| {
            let temperature = thermal.average_over_step(die, watts, dt.value());
            die = thermal.step(die, watts, dt.value());
            for &slot in &slots {
                match duty {
                    Some(duty) => reference.advance_slot(slot, &model, dt, duty, temperature),
                    None => reference.relax_slot(slot, &model, dt, temperature),
                }
            }
        };
        // Stress (with a thermal transient), then wipe and relax.
        for _ in 0..30 {
            dev.run_for(dt);
            step(watts, Some(activity.duty()));
        }
        dev.wipe();
        for _ in 0..20 {
            dev.run_for(dt);
            step(0.0, None);
        }
        assert_eq!(
            dev.aging_digest(),
            reference.digest(),
            "cached kernels must reproduce the per-wire reference exactly"
        );
        for seg in route.segments() {
            assert_eq!(dev.wire_aging(seg.id), reference.wire(u64::from(seg.id.0)));
        }
    }

    #[test]
    fn unrouted_nets_age_nothing() {
        let mut dev = FpgaDevice::zcu102_new(11);
        let mut design = Design::new("logical-only");
        design.add_net("n", NetActivity::Static(LogicLevel::One), None);
        dev.load_design(design).unwrap();
        dev.run_for(Hours::new(50.0));
        assert_eq!(dev.aged_wire_count(), 0);
    }
}
