//! A single defect-trap population bin of the capture–emission time map.

use serde::{Deserialize, Serialize};

use crate::Hours;

/// One bin of a discretized capture–emission time (CET) map.
///
/// A bin lumps together the defect traps of a transistor population whose
/// capture time constant is near `tau_capture` and whose emission time
/// constant is near `tau_emission`. `occupancy` is the fraction of those
/// traps currently charged; the bin contributes
/// `weight × occupancy` to the normalized threshold-voltage shift.
///
/// Bins with an infinite emission time constant model the *permanent*
/// component of BTI — the part of burn-in that never recovers, which the
/// paper observes as burn-0 routes failing to fully return to baseline
/// even after 200 hours of complemented stress.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrapBin {
    /// Capture (stress) time constant, in hours, at the reference temperature.
    pub tau_capture: Hours,
    /// Emission (recovery) time constant, in hours, at the reference
    /// temperature. `f64::INFINITY` marks a permanent trap population.
    pub tau_emission: Hours,
    /// This bin's share of its polarity's total trap population. Weights
    /// across one polarity's CET grid sum to 1.
    pub weight: f64,
    /// Fraction of this bin's traps currently charged, in `[0, 1]`.
    pub occupancy: f64,
}

impl TrapBin {
    /// Creates an empty (fully recovered) bin.
    ///
    /// # Panics
    ///
    /// Panics if `tau_capture` is non-positive, `tau_emission` is
    /// non-positive, or `weight` is negative or non-finite.
    #[must_use]
    pub fn new(tau_capture: Hours, tau_emission: Hours, weight: f64) -> Self {
        assert!(
            tau_capture.value() > 0.0,
            "capture time constant must be positive"
        );
        assert!(
            tau_emission.value() > 0.0,
            "emission time constant must be positive"
        );
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be finite and non-negative"
        );
        Self {
            tau_capture,
            tau_emission,
            weight,
            occupancy: 0.0,
        }
    }

    /// Returns `true` when this bin's traps never emit (permanent damage).
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        self.tau_emission.value().is_infinite()
    }

    /// Advances the bin by `dt` under a stress share `stress_share`
    /// (fraction of the interval during which this bin's polarity is
    /// stressed), with Arrhenius factors `capture_accel` and
    /// `emission_accel` applied to the respective rates.
    ///
    /// In the fast-toggling limit the occupancy obeys
    /// `dp/dt = r_c (1 − p) − r_e p` with `r_c = s·A_c/τ_c` and
    /// `r_e = (1−s)·A_e/τ_e`, which integrates to an exponential approach
    /// toward the equilibrium `r_c / (r_c + r_e)`. Static stress
    /// (`s = 1`) and pure recovery (`s = 0`) are the exact special cases.
    pub fn advance(
        &mut self,
        dt: Hours,
        stress_share: f64,
        capture_accel: f64,
        emission_accel: f64,
    ) {
        debug_assert!((0.0..=1.0).contains(&stress_share));
        debug_assert!(dt.value() >= 0.0);
        if dt.value() == 0.0 {
            return;
        }
        let r_c = stress_share * capture_accel / self.tau_capture.value();
        let r_e = if self.is_permanent() {
            0.0
        } else {
            (1.0 - stress_share) * emission_accel / self.tau_emission.value()
        };
        let total = r_c + r_e;
        if total <= 0.0 {
            return;
        }
        let equilibrium = r_c / total;
        let decay = (-total * dt.value()).exp();
        self.occupancy = equilibrium + (self.occupancy - equilibrium) * decay;
        // Numerical safety: keep occupancy inside its physical range.
        self.occupancy = self.occupancy.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bin(tau_c: f64, tau_e: f64) -> TrapBin {
        TrapBin::new(Hours::new(tau_c), Hours::new(tau_e), 1.0)
    }

    #[test]
    fn stress_fills_toward_one() {
        let mut b = bin(10.0, 100.0);
        b.advance(Hours::new(10.0), 1.0, 1.0, 1.0);
        let after_one_tau = b.occupancy;
        assert!((after_one_tau - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
        b.advance(Hours::new(1000.0), 1.0, 1.0, 1.0);
        assert!(b.occupancy > 0.999);
    }

    #[test]
    fn recovery_decays_toward_zero() {
        let mut b = bin(10.0, 20.0);
        b.occupancy = 0.8;
        b.advance(Hours::new(20.0), 0.0, 1.0, 1.0);
        assert!((b.occupancy - 0.8 * (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn permanent_bin_never_recovers() {
        let mut b = TrapBin::new(Hours::new(10.0), Hours::new(f64::INFINITY), 1.0);
        b.occupancy = 0.5;
        b.advance(Hours::new(10_000.0), 0.0, 1.0, 1.0);
        assert_eq!(b.occupancy, 0.5);
        assert!(b.is_permanent());
    }

    #[test]
    fn duty_half_reaches_intermediate_equilibrium() {
        let mut b = bin(10.0, 10.0);
        b.advance(Hours::new(10_000.0), 0.5, 1.0, 1.0);
        assert!(
            (b.occupancy - 0.5).abs() < 1e-6,
            "occupancy = {}",
            b.occupancy
        );
    }

    #[test]
    fn acceleration_speeds_capture() {
        let mut slow = bin(100.0, 1e6);
        let mut fast = bin(100.0, 1e6);
        slow.advance(Hours::new(10.0), 1.0, 1.0, 1.0);
        fast.advance(Hours::new(10.0), 1.0, 4.0, 1.0);
        assert!(fast.occupancy > slow.occupancy);
    }

    #[test]
    fn zero_duration_is_identity() {
        let mut b = bin(5.0, 5.0);
        b.occupancy = 0.3;
        b.advance(Hours::ZERO, 1.0, 1.0, 1.0);
        assert_eq!(b.occupancy, 0.3);
    }

    #[test]
    #[should_panic(expected = "capture time constant")]
    fn zero_tau_rejected() {
        let _ = TrapBin::new(Hours::ZERO, Hours::new(1.0), 1.0);
    }
}
