//! The sensor proper: placement, calibration, and measurement.

use fpga_fabric::{
    CarryChain, FpgaDevice, Route, RouteDelay, TileCoord, TransitionKind, CARRY_ELEMENT_PS,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::capture::{hamming_distance, set_bits, stride};
use crate::faults::StuckMasks;
use crate::measurement::Tally;
use crate::util::{box_muller, box_muller_bracket, gaussian_uniforms};
use crate::{
    CaptureWord, ClockGenerator, Measurement, SensorFaultPlan, TdcConfig, TdcError, Trace,
};

/// A placed TDC sensor: one route under test feeding one carry chain.
///
/// The sensor is created against a device (which fixes the carry chain's
/// silicon), calibrated to find `θ_init`, and then read repeatedly. The
/// paper's measure design instantiates an array of these, one per route.
///
/// Calibration and measurement take `&FpgaDevice` — sensing never mutates
/// the device; only running designs ([`FpgaDevice::run_for`]) ages wires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdcSensor {
    route: Route,
    chain: CarryChain,
    config: TdcConfig,
    clock: ClockGenerator,
    theta_init_ps: Option<f64>,
    #[serde(default)]
    faults: SensorFaultPlan,
    /// `faults`' stuck elements on this chain, derived when the plan is
    /// installed rather than on every trace.
    #[serde(default)]
    stuck: StuckMasks,
}

impl TdcSensor {
    /// Places a sensor whose route under test is `route`.
    ///
    /// The carry chain is placed in the column band just past the route's
    /// end — the region the paper's target design deliberately leaves
    /// uninitialized so the measure design can claim it.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::InvalidConfig`] for a bad configuration or
    /// [`TdcError::Placement`] if the chain does not fit the device.
    pub fn place(device: &FpgaDevice, route: Route, config: TdcConfig) -> Result<Self, TdcError> {
        config.validate()?;
        let anchor = route.end().unwrap_or(TileCoord::new(0, 0));
        // Anchor the chain at the bottom of the column next to the route's
        // end, so chains for different routes occupy different silicon.
        let base = TileCoord::new(anchor.col.min(device.cols() - 2), 0);
        let chain = device.carry_chain(base, config.chain_length)?;
        // The clock generator must span the route, the chain, and the
        // calibration headroom; phase resolves at half a carry bit.
        let period = route.nominal_ps() * 2.0 + chain.total_delay_ps() + 1_000.0;
        let clock = ClockGenerator::new(period, config.theta_step_ps / 2.0)?;
        Ok(Self {
            route,
            chain,
            config,
            clock,
            theta_init_ps: None,
            faults: SensorFaultPlan::none(),
            stuck: StuckMasks::default(),
        })
    }

    /// Installs a measurement-fault plan (see [`SensorFaultPlan`]). The
    /// default plan corrupts nothing; a benign plan leaves every capture
    /// byte-identical to a sensor with no plan at all.
    pub fn set_fault_plan(&mut self, plan: SensorFaultPlan) {
        self.stuck = plan.stuck_masks(self.chain.len());
        self.faults = plan;
    }

    /// The active measurement-fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> &SensorFaultPlan {
        &self.faults
    }

    /// The route under test.
    #[must_use]
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// The sensor's carry chain.
    #[must_use]
    pub fn chain(&self) -> &CarryChain {
        &self.chain
    }

    /// The sensor configuration.
    #[must_use]
    pub fn config(&self) -> &TdcConfig {
        &self.config
    }

    /// The calibrated θ_init, if calibration has run.
    #[must_use]
    pub fn theta_init_ps(&self) -> Option<f64> {
        self.theta_init_ps
    }

    /// The sensor's programmable clock generator.
    #[must_use]
    pub fn clock(&self) -> &ClockGenerator {
        &self.clock
    }

    /// Adopts a θ_init obtained elsewhere — e.g. calibrated on a different
    /// board of the same type, which is how the Threat Model 2 attacker
    /// starts without ever measuring the victim device pre-burn
    /// (Experiment 3: "θ_init is consistent across all FPGAs of the same
    /// type"). A non-finite θ is stored as given; measuring with it then
    /// returns [`TdcError::InvalidConfig`].
    pub fn set_theta_init_ps(&mut self, theta_ps: f64) {
        self.theta_init_ps = Some(theta_ps);
    }

    /// Captures a single sample: launches one `kind` edge with the capture
    /// clock offset by `theta_ps` and snapshots the chain.
    ///
    /// Walks the whole route on every call; the trace and measurement
    /// paths walk it once and reuse the delay for every sample.
    ///
    /// # Panics
    ///
    /// Panics if `theta_ps` is NaN and the metastable window is non-zero:
    /// every element then lands in the metastable band with an undefined
    /// resolution probability.
    #[must_use]
    pub fn capture_sample<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let route_delay = device.route_delay(&self.route).for_transition(kind);
        self.capture_at(route_delay, theta_ps, kind, rng)
    }

    /// One sample against a route delay already read off the device.
    fn capture_at<R: Rng + ?Sized>(
        &self,
        route_delay_ps: f64,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let len = self.chain.len();
        let mut word = vec![0; stride(len)];
        self.capture_into::<true, R>(route_delay_ps, theta_ps, kind, rng, &mut word);
        CaptureWord::from_packed(kind, len, word)
    }

    /// Captures one sample and returns its propagation distance, `settled`
    /// plus the metastable elements the edge passed. A rising word sets
    /// exactly those bits and a falling word the rest, whose `len −
    /// popcount` is the same sum. Only with `PACK` is the word written,
    /// into `word`: one [`stride`] of words, zero on entry.
    ///
    /// The capture margin `front_time − passed_at(i)` never increases
    /// along the chain (its cumulative delays strictly increase), so the
    /// elements the edge settled past form a prefix and the ones it
    /// settled short of form a suffix. The prefix end is found by a walk
    /// from the nominal front `front_time / CARRY_ELEMENT_PS`: up while
    /// the settled predicate holds, then down while it fails at the
    /// element before, which by monotonicity stops at the same boundary a
    /// bisection finds. The metastable elements after it are scored in
    /// index order until the first one the edge settled short of, so the
    /// word and the RNG draws match an element-by-element scan exactly.
    /// Settled runs are written as word masks; only metastable bits are
    /// set one at a time.
    ///
    /// Every decision is monotone in the front, so each is made on a
    /// [`Front`] bracket and takes the exact jitter only where the
    /// bracket's two ends disagree.
    fn capture_into<const PACK: bool, R: Rng + ?Sized>(
        &self,
        route_delay_ps: f64,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
        word: &mut [u64],
    ) -> usize {
        let mut front = Front::draw(rng, theta_ps, self.config.jitter_sigma_ps, route_delay_ps);
        let w = self.config.metastable_window_ps;
        // Element `i` is passed once the edge clears its output.
        let passed_at = &self.chain.cumulative_ps()[1..];
        let len = passed_at.len();
        let settles = |p: f64| move |front_time: f64| front_time - p > w / 2.0;
        // A NaN or negative hint casts to 0 and an overlong one clamps;
        // a NaN front then settles nothing.
        let mut settled = ((front.lo / CARRY_ELEMENT_PS) as usize).min(len);
        while settled < len && front.decide(settles(passed_at[settled])) {
            settled += 1;
        }
        while settled > 0 && !front.decide(settles(passed_at[settled - 1])) {
            settled -= 1;
        }
        // A bit is set where the edge passed (rising) or did not (falling).
        let set_if_passed = matches!(kind, TransitionKind::Rising);
        if PACK && set_if_passed {
            set_bits(word, 0..settled);
        }
        let mut reached = settled;
        let mut passes = 0;
        for &p in &passed_at[settled..] {
            // The scan's own `< −w/2` test, so that even a NaN margin
            // lands in the metastable band exactly as it did there.
            if front.decide(|front_time| front_time - p < -w / 2.0) {
                break;
            }
            let transition_passed = if w > 0.0 {
                // Metastable: resolves with probability linear in the
                // capture margin.
                let prob = |front_time: f64| (0.5 + (front_time - p) / w).clamp(0.0, 1.0);
                if front.exact {
                    rng.gen_bool(prob(front.lo))
                } else {
                    // `gen_bool(p)` is `gen() < p`: the same one draw.
                    let u: f64 = rng.gen();
                    front.decide(|front_time| u < prob(front_time))
                }
            } else {
                front.decide(|front_time| front_time - p >= 0.0)
            };
            // Branch-free: the outcome is a coin flip no predictor learns.
            passes += usize::from(transition_passed);
            if PACK {
                word[reached / 64] ^=
                    u64::from(transition_passed == set_if_passed) << (reached % 64);
            }
            reached += 1;
        }
        if PACK && !set_if_passed {
            set_bits(word, reached..len);
        }
        settled + passes
    }

    /// Captures one trace (both polarities, `samples_per_trace` each) at a
    /// fixed θ, walking the route once for the whole trace.
    ///
    /// # Panics
    ///
    /// As [`capture_sample`](Self::capture_sample), for a NaN `theta_ps`.
    #[must_use]
    pub fn capture_trace<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        theta_ps: f64,
        rng: &mut R,
    ) -> Trace {
        self.capture_trace_at(device.route_delay(&self.route), theta_ps, rng)
    }

    /// One trace against a route delay already read off the device. Under
    /// a benign fault plan no bit is ever read, so capture only counts;
    /// otherwise a polarity's samples are packed into one buffer,
    /// corrupted in place and then tallied.
    fn capture_trace_at<R: Rng + ?Sized>(
        &self,
        delay: RouteDelay,
        theta_ps: f64,
        rng: &mut R,
    ) -> Trace {
        // The clock generator can only realize phases on its grid.
        let theta_ps = self.clock.quantize(theta_ps);
        let len = self.chain.len();
        let samples = self.config.samples_per_trace;
        let tally = |kind, rng: &mut R| {
            let delay = delay.for_transition(kind);
            let mut tally = Tally::default();
            if self.faults.is_benign() {
                for _ in 0..samples {
                    let d = self.capture_into::<false, R>(delay, theta_ps, kind, rng, &mut []);
                    tally.add(d, len);
                }
            } else {
                let stride = stride(len);
                let mut packed = vec![0; samples * stride];
                for word in packed.chunks_exact_mut(stride) {
                    self.capture_into::<true, R>(delay, theta_ps, kind, rng, word);
                }
                self.faults
                    .corrupt_samples(theta_ps, kind, len, &self.stuck, &mut packed);
                for word in packed.chunks_exact(stride) {
                    tally.add(hamming_distance(kind, word, len), len);
                }
            }
            tally
        };
        let rising = tally(TransitionKind::Rising, rng);
        Trace::from_tallies(theta_ps, rising, tally(TransitionKind::Falling, rng))
    }

    /// The stored θ_init, checked usable: a non-finite one would put every
    /// element in the metastable band and panic inside the capture.
    fn usable_theta_init(&self) -> Result<f64, TdcError> {
        let theta_init = self.theta_init_ps.ok_or(TdcError::NotCalibrated)?;
        if !theta_init.is_finite() {
            return Err(TdcError::InvalidConfig("theta_init must be finite"));
        }
        Ok(theta_init)
    }

    /// The traces of one measurement against a route delay already read
    /// off the device: θ steps down from θ_init.
    fn capture_measurement<R: Rng + ?Sized>(
        &self,
        delay: RouteDelay,
        rng: &mut R,
    ) -> Result<Vec<Trace>, TdcError> {
        let theta_init = self.usable_theta_init()?;
        Ok((0..self.config.traces_per_measurement)
            .map(|i| {
                let theta = theta_init - i as f64 * self.config.theta_step_ps;
                self.capture_trace_at(delay, theta, rng)
            })
            .collect())
    }

    /// Calibration phase: sweeps θ downward until both transition fronts
    /// sit inside the carry chain, then stores that θ_init (Section 5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::CalibrationFailed`] if no θ lands the fronts.
    pub fn calibrate<R: Rng + ?Sized>(
        &mut self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<f64, TdcError> {
        // Start with the capture well after the edge has flooded the chain
        // and walk θ down until the fronts appear mid-chain. A coarse
        // sweep (half a chain per step) finds the neighbourhood fast; a
        // fine sweep then lands inside the target window.
        let delay = device.route_delay(&self.route);
        let chain_total = self.chain.total_delay_ps();
        let start = self.route.nominal_ps() * 1.25 + chain_total + 100.0;
        let len = self.chain.len() as f64;
        let lo = 0.35 * len;
        let hi = 0.70 * len;
        let mut attempts = 0usize;

        let coarse_step = (chain_total / 2.0).max(self.config.theta_step_ps);
        let mut theta = start;
        let coarse_limit = (start / coarse_step).ceil() as usize + 1;
        loop {
            let trace = self.capture_trace_at(delay, theta, rng);
            attempts += 1;
            let rise = trace.mean_distance(TransitionKind::Rising);
            let fall = trace.mean_distance(TransitionKind::Falling);
            if rise <= hi && fall <= hi {
                break;
            }
            theta -= coarse_step;
            if attempts > coarse_limit || theta <= 0.0 {
                return Err(TdcError::CalibrationFailed { attempts });
            }
        }
        // The fronts may have dropped below the window; walk θ back up in
        // fine steps until both sit inside [lo, hi].
        let fine_step = self.config.theta_step_ps;
        let fine_limit = (2.0 * coarse_step / fine_step).ceil() as usize + 4;
        for _ in 0..fine_limit {
            let trace = self.capture_trace_at(delay, theta, rng);
            attempts += 1;
            let rise = trace.mean_distance(TransitionKind::Rising);
            let fall = trace.mean_distance(TransitionKind::Falling);
            if rise >= lo && rise <= hi && fall >= lo && fall <= hi {
                self.theta_init_ps = Some(theta);
                return Ok(theta);
            }
            if rise < lo || fall < lo {
                theta += fine_step;
            } else {
                theta -= fine_step;
            }
        }
        Err(TdcError::CalibrationFailed { attempts })
    }

    /// Measurement phase: ten traces at θ stepping down from θ_init, then
    /// Hamming post-processing into a [`Measurement`] (Section 5.2).
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::NotCalibrated`] if neither
    /// [`calibrate`](Self::calibrate) nor
    /// [`set_theta_init_ps`](Self::set_theta_init_ps) has run, or
    /// [`TdcError::InvalidConfig`] if the stored θ_init is not finite.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        self.measure_at(device.route_delay(&self.route), rng)
    }

    /// [`measure`](Self::measure) against `delay`, this sensor's route
    /// delay already read off the device. BTI moves a route's delay over
    /// hours, not within a measurement, so a caller that reads one route
    /// many times in a row can walk it once for all of them.
    ///
    /// # Errors
    ///
    /// As [`measure`](Self::measure).
    pub fn measure_at<R: Rng + ?Sized>(
        &self,
        delay: RouteDelay,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        let traces = self.capture_measurement(delay, rng)?;
        Ok(Measurement::from_traces(&traces))
    }

    /// Robust measurement for hostile capture paths: like
    /// [`measure`](Self::measure) but aggregated with per-sample quorum
    /// filtering and MAD outlier rejection
    /// ([`Measurement::try_from_traces`]), so dropouts and metastability
    /// bursts degrade the estimate gracefully instead of biasing it.
    ///
    /// `min_quorum` is the fraction of samples a trace must keep to
    /// count; 0.5 is a sensible default.
    ///
    /// # Errors
    ///
    /// Returns [`TdcError::NotCalibrated`] without a θ_init,
    /// [`TdcError::InvalidConfig`] with a non-finite one, or
    /// [`TdcError::Dropout`] when too few traces survive filtering.
    pub fn measure_robust<R: Rng + ?Sized>(
        &self,
        device: &FpgaDevice,
        min_quorum: f64,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        self.measure_robust_at(device.route_delay(&self.route), min_quorum, rng)
    }

    /// [`measure_robust`](Self::measure_robust) against a route delay
    /// already read off the device, as [`measure_at`](Self::measure_at).
    ///
    /// # Errors
    ///
    /// As [`measure_robust`](Self::measure_robust).
    pub fn measure_robust_at<R: Rng + ?Sized>(
        &self,
        delay: RouteDelay,
        min_quorum: f64,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        let traces = self.capture_measurement(delay, rng)?;
        Measurement::try_from_traces(&traces, min_quorum)
    }

    /// Measures, retuning θ first if the stored θ_init saturates (the
    /// attacker's recovery when a borrowed θ_init misses on this
    /// particular die).
    ///
    /// # Errors
    ///
    /// Propagates [`TdcError::NotCalibrated`], [`TdcError::InvalidConfig`]
    /// for a non-finite θ_init, or calibration failure.
    pub fn measure_with_retune<R: Rng + ?Sized>(
        &mut self,
        device: &FpgaDevice,
        rng: &mut R,
    ) -> Result<Measurement, TdcError> {
        let theta_init = self.usable_theta_init()?;
        let probe = self.capture_trace(device, theta_init, rng);
        if probe.is_saturated() {
            self.calibrate(device, rng)?;
        }
        self.measure(device, rng)
    }
}

/// The capture front `θ + jitter − route delay` of one sample, held as a
/// certified bracket `lo ≤ front ≤ hi` from
/// [`box_muller_bracket`](crate::util::box_muller_bracket) until a
/// decision needs the exact value.
///
/// Adding a constant and scaling by `jitter_sigma_ps ≥ 0` are monotone
/// under rounding, so the bracket on the Gaussian carries over to the
/// front, and a predicate monotone in the front that agrees at `lo` and
/// `hi` agrees at the exact front. The uniforms are kept, so the exact
/// front is computed from the same draws: no RNG rewind, and the draw
/// count is unchanged.
struct Front {
    lo: f64,
    hi: f64,
    /// `lo == hi ==` the exact front: every decision is taken on it.
    exact: bool,
    u1: f64,
    u2: f64,
    theta_ps: f64,
    sigma_ps: f64,
    route_delay_ps: f64,
}

impl Front {
    /// Forced inline: a trace holds two instantiations of the walk, and
    /// outlined, this returns the `Front` through memory.
    #[inline(always)]
    fn draw<R: Rng + ?Sized>(
        rng: &mut R,
        theta_ps: f64,
        sigma_ps: f64,
        route_delay_ps: f64,
    ) -> Self {
        let (u1, u2) = gaussian_uniforms(rng);
        let mut front = Self {
            lo: f64::NAN,
            hi: f64::NAN,
            exact: false,
            u1,
            u2,
            theta_ps,
            sigma_ps,
            route_delay_ps,
        };
        let at = |g: f64| theta_ps + g * sigma_ps - route_delay_ps;
        match box_muller_bracket(u1, u2).map(|(lo, hi)| (at(lo), at(hi))) {
            Some((lo, hi)) if lo.is_finite() && hi.is_finite() => {
                front.lo = lo;
                front.hi = hi;
            }
            // A non-finite front (a NaN θ, say) is decided exactly, so a
            // metastable element reaches `gen_bool` and panics as it
            // always has.
            _ => front.resolve(),
        }
        front
    }

    /// Replaces the bracket by the exact front. Inlinable across crates,
    /// so no instantiation passes `&mut Front` out of line.
    #[inline]
    fn resolve(&mut self) {
        let front_time = exact_front(
            self.u1,
            self.u2,
            self.theta_ps,
            self.sigma_ps,
            self.route_delay_ps,
        );
        self.lo = front_time;
        self.hi = front_time;
        self.exact = true;
    }

    /// `decision(front)` for a `decision` monotone in the front.
    fn decide(&mut self, decision: impl Fn(f64) -> bool) -> bool {
        let at_lo = decision(self.lo);
        if at_lo == decision(self.hi) {
            return at_lo;
        }
        self.resolve();
        decision(self.lo)
    }
}

/// The exact front, `θ + box_muller(u1, u2)·σ − delay`. Out of line and
/// cold, so the capture loop carries none of `ln` and `cos`: forced
/// inline, it slowed the bracketed capture by 10–20 %. It takes and
/// returns plain values so that [`Front`] never has its address taken and
/// stays in registers.
#[cold]
#[inline(never)]
fn exact_front(u1: f64, u2: f64, theta_ps: f64, sigma_ps: f64, route_delay_ps: f64) -> f64 {
    #[cfg(test)]
    tests::EXACT_FRONTS.with(|n| n.set(n.get() + 1));
    let jitter = box_muller(u1, u2) * sigma_ps;
    theta_ps + jitter - route_delay_ps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::gaussian;
    use bti_physics::{DutyCycle, Hours};
    use fpga_fabric::RouteRequest;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    std::thread_local! {
        /// Samples on this thread whose front was computed exactly.
        pub(super) static EXACT_FRONTS: Cell<u64> = const { Cell::new(0) };
    }

    fn setup(target: f64, seed: u64) -> (FpgaDevice, TdcSensor, StdRng) {
        let device = FpgaDevice::zcu102_new(seed);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), target))
            .unwrap();
        let sensor = TdcSensor::place(&device, route, TdcConfig::lab()).unwrap();
        (device, sensor, StdRng::seed_from_u64(seed))
    }

    /// The element-by-element capture the bisection replaced: every
    /// element's margin is tested in index order.
    fn capture_scan<R: Rng + ?Sized>(
        sensor: &TdcSensor,
        route_delay_ps: f64,
        theta_ps: f64,
        kind: TransitionKind,
        rng: &mut R,
    ) -> CaptureWord {
        let jitter = gaussian(rng) * sensor.config.jitter_sigma_ps;
        let front_time = theta_ps + jitter - route_delay_ps;
        let w = sensor.config.metastable_window_ps;
        let bits = (0..sensor.chain.len())
            .map(|i| {
                let passed_at = sensor.chain.prefix_delay_ps(i + 1);
                let margin = front_time - passed_at;
                let transition_passed = if margin > w / 2.0 {
                    true
                } else if margin < -w / 2.0 {
                    false
                } else if w > 0.0 {
                    rng.gen_bool((0.5 + margin / w).clamp(0.0, 1.0))
                } else {
                    margin >= 0.0
                };
                match kind {
                    TransitionKind::Rising => transition_passed,
                    TransitionKind::Falling => !transition_passed,
                }
            })
            .collect();
        CaptureWord::new(kind, bits)
    }

    /// The trace capture before packing, word for word: every sample a
    /// fresh `Vec<bool>` from the element scan, corrupted by the
    /// `Vec<bool>` fault reference. Returns the quantized θ and the raw
    /// rising and falling words.
    fn capture_trace_reference<R: Rng + ?Sized>(
        sensor: &TdcSensor,
        delay: RouteDelay,
        theta_ps: f64,
        rng: &mut R,
    ) -> (f64, [Vec<Vec<bool>>; 2]) {
        let theta_ps = sensor.clock.quantize(theta_ps);
        let words = TransitionKind::ALL.map(|kind| {
            let route_delay = delay.for_transition(kind);
            (0..sensor.config.samples_per_trace)
                .map(|i| {
                    let word = capture_scan(sensor, route_delay, theta_ps, kind, rng);
                    sensor.faults.corrupt_bools(theta_ps, kind, i, &word.bits())
                })
                .collect::<Vec<_>>()
        });
        (theta_ps, words)
    }

    /// Hamming distance counted one `bool` at a time.
    fn bool_distance(kind: TransitionKind, bits: &[bool]) -> usize {
        bits.iter()
            .filter(|&&b| b == matches!(kind, TransitionKind::Rising))
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Bisected capture equals the scan: same words, and the RNG left
        /// in the same state after every sample. Fronts land before,
        /// inside and past chains on both sides of 64 elements; "snapped"
        /// cases put the front exactly on an element boundary or a window
        /// edge with no jitter, where the `>`/`<` ties decide.
        #[test]
        fn bisected_capture_matches_element_scan(
            window_ps in prop_oneof![Just(0.0), Just(0.5), Just(1.5), Just(10.0)],
            chain_length in 1usize..=130,
            front_frac in 0.0f64..1.0,
            (jitter_sigma_ps, snapped) in prop_oneof![
                (0.0f64..8.0).prop_map(|j| (j, false)),
                Just((0.0, true)),
            ],
            window_offset in prop_oneof![Just(-0.5), Just(0.0), Just(0.5)],
            seed in 0u64..1_000_000,
        ) {
            let device = FpgaDevice::zcu102_new(seed % 7);
            let route = device
                .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 1_000.0))
                .unwrap();
            let config = TdcConfig {
                chain_length,
                jitter_sigma_ps,
                metastable_window_ps: window_ps,
                ..TdcConfig::lab()
            };
            let sensor = TdcSensor::place(&device, route, config).unwrap();
            let route_delay = device.route_delay(sensor.route());
            let cumulative = sensor.chain().cumulative_ps();
            let total = sensor.chain().total_delay_ps();
            let front = if snapped {
                let k = ((front_frac * cumulative.len() as f64) as usize).min(chain_length);
                cumulative[k] + window_offset * window_ps
            } else {
                front_frac * (total + 2.0 * window_ps + 40.0) - window_ps - 20.0
            };
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut scan_rng = fast_rng.clone();
            for kind in [TransitionKind::Rising, TransitionKind::Falling] {
                let delay = route_delay.for_transition(kind);
                let theta = front + delay;
                for _ in 0..4 {
                    let fast = sensor.capture_at(delay, theta, kind, &mut fast_rng);
                    let scan = capture_scan(&sensor, delay, theta, kind, &mut scan_rng);
                    prop_assert_eq!(&fast, &scan);
                    prop_assert_eq!(fast_rng.state(), scan_rng.state());
                }
                // The zero-delay form makes the front exactly `front`, so
                // snapped cases hit their ties bit for bit.
                let fast = sensor.capture_at(0.0, front, kind, &mut fast_rng);
                let scan = capture_scan(&sensor, 0.0, front, kind, &mut scan_rng);
                prop_assert_eq!(&fast, &scan);
                prop_assert_eq!(fast_rng.state(), scan_rng.state());
            }
        }

        /// A whole trace from the public `capture_trace`, both polarities
        /// after fault corruption, summarises exactly as the `Vec<bool>`
        /// scan corrupted by the `Vec<bool>` fault reference, and leaves
        /// the RNG in the same state. Chains run on both sides of the
        /// 64-bit word boundary.
        #[test]
        fn trace_summaries_match_bool_reference(
            cloud in any::<bool>(),
            noisy in any::<bool>(),
            chain_length in 1usize..=130,
            front_frac in 0.0f64..1.0,
            seed in 0u64..1_000_000,
        ) {
            let device = FpgaDevice::zcu102_new(seed % 7);
            let route = device
                .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 1_000.0))
                .unwrap();
            let profile = if cloud { TdcConfig::cloud() } else { TdcConfig::lab() };
            let config = TdcConfig { chain_length, ..profile };
            let mut sensor = TdcSensor::place(&device, route, config).unwrap();
            if noisy {
                sensor.set_fault_plan(SensorFaultPlan::noisy(seed, 0.15));
            }
            let delay = device.route_delay(sensor.route());
            let total = sensor.chain().total_delay_ps();
            let theta = delay.rise_ps + front_frac * (total + 40.0) - 20.0;
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let mut ref_rng = fast_rng.clone();
            let trace = sensor.capture_trace(&device, theta, &mut fast_rng);
            let (ref_theta, [rising, falling]) =
                capture_trace_reference(&sensor, delay, theta, &mut ref_rng);
            prop_assert_eq!(fast_rng.state(), ref_rng.state());
            prop_assert_eq!(trace.theta_ps().to_bits(), ref_theta.to_bits());
            let mut majority_saturated = false;
            let polarities = [
                (TransitionKind::Rising, rising),
                (TransitionKind::Falling, falling),
            ];
            for (kind, raw) in polarities {
                let distances: Vec<usize> = raw.iter().map(|b| bool_distance(kind, b)).collect();
                let n = distances.len() as f64;
                let mean = distances.iter().map(|&d| d as f64).sum::<f64>() / n;
                prop_assert_eq!(trace.mean_distance(kind).to_bits(), mean.to_bits());
                let valid: Vec<usize> = distances
                    .iter()
                    .copied()
                    .filter(|&d| d != 0 && d != chain_length)
                    .collect();
                let quorum = (!valid.is_empty()).then(|| {
                    (
                        valid.iter().sum::<usize>() as f64 / valid.len() as f64,
                        valid.len() as f64 / n,
                    )
                });
                prop_assert_eq!(trace.quorum_distance(kind), quorum);
                majority_saturated |= (distances.len() - valid.len()) * 2 > distances.len();
            }
            prop_assert_eq!(trace.is_saturated(), majority_saturated);
        }
    }

    /// The counting and the packing capture are one walk: for every
    /// sample they return the same distance, equal to the packed word's
    /// Hamming distance, and leave the RNG in the same state. Fronts
    /// sweep past both ends of chains on both sides of 64 elements.
    #[test]
    fn counting_capture_matches_packing() {
        let device = FpgaDevice::zcu102_new(3);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 1_000.0))
            .unwrap();
        for chain_length in [1, 63, 64, 65, 130] {
            for metastable_window_ps in [0.0, 1.5, 10.0] {
                let config = TdcConfig {
                    chain_length,
                    metastable_window_ps,
                    ..TdcConfig::cloud()
                };
                let sensor = TdcSensor::place(&device, route.clone(), config).unwrap();
                let total = sensor.chain().total_delay_ps();
                let mut count_rng = StdRng::seed_from_u64(chain_length as u64);
                let mut pack_rng = count_rng.clone();
                for kind in TransitionKind::ALL {
                    for step in 0..=200 {
                        let front = f64::from(step) / 200.0 * (total + 40.0) - 20.0;
                        let mut word = vec![0; stride(chain_length)];
                        let counted = sensor.capture_into::<false, _>(
                            0.0,
                            front,
                            kind,
                            &mut count_rng,
                            &mut [],
                        );
                        let packed = sensor.capture_into::<true, _>(
                            0.0,
                            front,
                            kind,
                            &mut pack_rng,
                            &mut word,
                        );
                        assert_eq!(counted, packed);
                        assert_eq!(counted, hamming_distance(kind, &word, chain_length));
                        assert_eq!(count_rng.state(), pack_rng.state());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn capture_sample_panics_on_nan_theta() {
        let (device, sensor, mut rng) = setup(1_000.0, 3);
        let _ = sensor.capture_sample(&device, f64::NAN, TransitionKind::Rising, &mut rng);
    }

    /// The jitter bracket decides most cloud samples alone: the exact
    /// Box–Muller draw runs for fewer than 15 % of them.
    #[test]
    fn cloud_capture_rarely_needs_the_exact_jitter() {
        let device = FpgaDevice::zcu102_new(11);
        let route = device
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 5_000.0))
            .unwrap();
        let mut sensor = TdcSensor::place(&device, route, TdcConfig::cloud()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        sensor.calibrate(&device, &mut rng).unwrap();
        let before = EXACT_FRONTS.with(Cell::get);
        let reads = 50;
        for _ in 0..reads {
            sensor.measure(&device, &mut rng).unwrap();
        }
        let exact = EXACT_FRONTS.with(Cell::get) - before;
        let samples = reads * sensor.config().samples_per_measurement();
        let share = exact as f64 / samples as f64;
        assert!(share > 0.0 && share < 0.15, "{exact} of {samples} exact");
    }

    #[test]
    fn calibration_lands_fronts_mid_chain() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 1);
        let theta = sensor.calibrate(&device, &mut rng).unwrap();
        assert_eq!(sensor.theta_init_ps(), Some(theta));
        let m = sensor.measure(&device, &mut rng).unwrap();
        let len = sensor.config().chain_length as f64;
        assert!(m.rise_distance_bits > 0.1 * len && m.rise_distance_bits < 0.9 * len);
        assert!(m.fall_distance_bits > 0.1 * len && m.fall_distance_bits < 0.9 * len);
    }

    #[test]
    fn fresh_route_reads_near_zero_delta() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 2);
        sensor.calibrate(&device, &mut rng).unwrap();
        let m = sensor.measure(&device, &mut rng).unwrap();
        assert!(m.delta_ps.abs() < 1.0, "Δps = {}", m.delta_ps);
    }

    #[test]
    fn measurement_requires_calibration() {
        let (device, sensor, mut rng) = setup(1_000.0, 3);
        assert_eq!(
            sensor.measure(&device, &mut rng).unwrap_err(),
            TdcError::NotCalibrated
        );
    }

    #[test]
    fn non_finite_theta_init_is_a_typed_error_not_a_panic() {
        let (device, mut sensor, mut rng) = setup(1_000.0, 3);
        for theta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            sensor.set_theta_init_ps(theta);
            let errors = [
                sensor.measure(&device, &mut rng).unwrap_err(),
                sensor.measure_robust(&device, 0.5, &mut rng).unwrap_err(),
                sensor.measure_with_retune(&device, &mut rng).unwrap_err(),
            ];
            for err in errors {
                assert_eq!(err, TdcError::InvalidConfig("theta_init must be finite"));
                assert!(!err.is_transient());
            }
        }
    }

    #[test]
    fn sensor_reads_burned_in_imprint() {
        let (mut device, mut sensor, mut rng) = setup(10_000.0, 4);
        sensor.calibrate(&device, &mut rng).unwrap();
        let before = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let after = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        // True imprint is ~+9.4 ps; the sensor must see most of it.
        assert!(after - before > 6.0, "sensor saw {} -> {}", before, after);
    }

    #[test]
    fn absolute_delay_estimate_is_close() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 5);
        sensor.calibrate(&device, &mut rng).unwrap();
        let m = sensor.measure(&device, &mut rng).unwrap();
        let truth = device.route_delay(sensor.route()).rise_ps;
        assert!(
            (m.rise_delay_ps - truth).abs() < 25.0,
            "estimate {} vs truth {truth}",
            m.rise_delay_ps
        );
    }

    #[test]
    fn borrowed_theta_init_from_sibling_device_works_with_retune() {
        // Calibrate on one board, measure on another of the same type —
        // the Threat Model 2 starting condition.
        let (reference, mut ref_sensor, mut rng) = setup(5_000.0, 6);
        let theta = ref_sensor.calibrate(&reference, &mut rng).unwrap();

        let victim = FpgaDevice::zcu102_new(777); // different silicon
        let route = victim
            .route_with_target_delay(&RouteRequest::new(TileCoord::new(4, 4), 5_000.0))
            .unwrap();
        let mut sensor = TdcSensor::place(&victim, route, TdcConfig::lab()).unwrap();
        sensor.set_theta_init_ps(theta);
        let m = sensor.measure_with_retune(&victim, &mut rng).unwrap();
        assert!(m.delta_ps.abs() < 1.5);
    }

    #[test]
    fn averaging_resolves_sub_bit_changes() {
        // The carry quantum is 2.8 ps; jitter dithering plus 160-sample
        // averaging must resolve a ~1 ps shift.
        let (mut device, mut sensor, mut rng) = setup(1_000.0, 8);
        sensor.calibrate(&device, &mut rng).unwrap();
        let reads_before: Vec<f64> = (0..5)
            .map(|_| sensor.measure(&device, &mut rng).unwrap().delta_ps)
            .collect();
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let truth = device.route_delta_ps(&route);
        assert!(truth > 0.8 && truth < 1.6, "truth = {truth}");
        let reads_after: Vec<f64> = (0..5)
            .map(|_| sensor.measure(&device, &mut rng).unwrap().delta_ps)
            .collect();
        let mean_before = reads_before.iter().sum::<f64>() / 5.0;
        let mean_after = reads_after.iter().sum::<f64>() / 5.0;
        assert!(
            mean_after - mean_before > 0.5,
            "before {mean_before}, after {mean_after}"
        );
    }

    #[test]
    fn benign_fault_plan_is_byte_identical() {
        let (device, mut a, mut rng_a) = setup(5_000.0, 20);
        let (_, mut b, mut rng_b) = setup(5_000.0, 20);
        b.set_fault_plan(SensorFaultPlan::none());
        a.calibrate(&device, &mut rng_a).unwrap();
        b.calibrate(&device, &mut rng_b).unwrap();
        let ma = a.measure(&device, &mut rng_a).unwrap();
        let mb = b.measure(&device, &mut rng_b).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn robust_measurement_survives_moderate_faults() {
        let (mut device, mut sensor, mut rng) = setup(10_000.0, 21);
        sensor.calibrate(&device, &mut rng).unwrap();
        let route = sensor.route().clone();
        device.condition_route(&route, DutyCycle::ALWAYS_ONE, Hours::new(200.0));
        let clean = sensor.measure(&device, &mut rng).unwrap().delta_ps;
        sensor.set_fault_plan(SensorFaultPlan::noisy(5, 0.15));
        let faulty = sensor.measure_robust(&device, 0.3, &mut rng).unwrap();
        assert!(
            (faulty.delta_ps - clean).abs() < 2.5,
            "clean {clean}, robust-under-faults {}",
            faulty.delta_ps
        );
        assert!(
            faulty.trace_count >= 5,
            "kept {} traces",
            faulty.trace_count
        );
    }

    #[test]
    fn total_dropout_is_a_transient_error() {
        let (device, mut sensor, mut rng) = setup(5_000.0, 22);
        sensor.calibrate(&device, &mut rng).unwrap();
        let mut plan = SensorFaultPlan::none();
        plan.seed = 6;
        plan.dropout_rate = 1.0;
        sensor.set_fault_plan(plan);
        let err = sensor.measure_robust(&device, 0.5, &mut rng).unwrap_err();
        assert!(matches!(err, TdcError::Dropout { .. }));
        assert!(err.is_transient());
    }

    #[test]
    fn sensor_is_nondestructive() {
        let (device, mut sensor, mut rng) = setup(2_000.0, 9);
        sensor.calibrate(&device, &mut rng).unwrap();
        let before = device.route_delta_ps(sensor.route());
        let _ = sensor.measure(&device, &mut rng).unwrap();
        assert_eq!(device.route_delta_ps(sensor.route()), before);
    }
}
