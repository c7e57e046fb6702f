//! The calibrated BTI model: per-polarity kinetics and delay sensitivity.

use serde::{Deserialize, Serialize};

use crate::{arrhenius_acceleration, BtiError, Celsius, Hours, Polarity, TrapBin};

/// Kinetic and sensitivity parameters for one BTI polarity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolarityParams {
    /// Number of recoverable trap bins in the CET discretization.
    pub bin_count: usize,
    /// Capture time-constant range `(min, max)` in hours at the reference
    /// temperature.
    pub tau_capture_range: (f64, f64),
    /// Emission time-constant range `(min, max)` in hours at the reference
    /// temperature.
    pub tau_emission_range: (f64, f64),
    /// Fraction of the trap population that never recovers.
    pub permanent_fraction: f64,
    /// Delay sensitivity: picoseconds of added transition delay per
    /// picosecond of nominal route length, per unit of normalized
    /// threshold-voltage shift.
    pub sensitivity: f64,
    /// Arrhenius activation energy of trap capture, in eV.
    pub ea_capture: f64,
    /// Arrhenius activation energy of trap emission, in eV.
    pub ea_emission: f64,
}

impl PolarityParams {
    fn validate(&self, which: &'static str) -> Result<(), BtiError> {
        let checks: [(&'static str, f64, bool); 4] = [
            ("sensitivity", self.sensitivity, self.sensitivity > 0.0),
            ("ea_capture", self.ea_capture, self.ea_capture >= 0.0),
            ("ea_emission", self.ea_emission, self.ea_emission >= 0.0),
            (
                "permanent_fraction",
                self.permanent_fraction,
                (0.0..1.0).contains(&self.permanent_fraction),
            ),
        ];
        for (name, value, ok) in checks {
            if !ok || !value.is_finite() {
                // `which` is implicit in the error context; parameter names
                // are unique enough for diagnosis.
                let _ = which;
                return Err(BtiError::InvalidParameter {
                    name,
                    value,
                    constraint: "must be finite and within its physical range",
                });
            }
        }
        Ok(())
    }
}

/// A fully parameterized BTI aging model.
///
/// The model owns the calibration constants; per-resource dynamic state
/// lives in an [`crate::AgingArena`]. Construct the paper-calibrated
/// UltraScale+ model with [`BtiModel::ultrascale_plus`], or customize one
/// through [`BtiModel::builder`].
///
/// # Example
///
/// ```
/// use bti_physics::{BtiModel, Celsius};
///
/// let model = BtiModel::builder()
///     .reference_temperature(Celsius::new(60.0))
///     .build()
///     .expect("default parameters are valid");
/// assert!(model.nbti().sensitivity > model.pbti().sensitivity,
///         "NBTI effects are typically larger than PBTI");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BtiModel {
    nbti: PolarityParams,
    pbti: PolarityParams,
    reference_temperature: Celsius,
}

impl BtiModel {
    /// The paper-calibrated model for 16 nm FinFET UltraScale+ parts.
    ///
    /// Constants are phenomenological fits to the measurements in the
    /// paper's Figures 6–8 (see crate docs and DESIGN.md for targets).
    #[must_use]
    pub fn ultrascale_plus() -> Self {
        Self::builder()
            .build()
            .expect("built-in calibration must be valid")
    }

    /// Starts building a model from the UltraScale+ defaults.
    #[must_use]
    pub fn builder() -> BtiModelBuilder {
        BtiModelBuilder::default()
    }

    /// Parameters of the NBTI (PMOS, logical-0-stress) polarity.
    #[must_use]
    pub fn nbti(&self) -> &PolarityParams {
        &self.nbti
    }

    /// Parameters of the PBTI (NMOS, logical-1-stress) polarity.
    #[must_use]
    pub fn pbti(&self) -> &PolarityParams {
        &self.pbti
    }

    /// Parameters for the requested polarity.
    #[must_use]
    pub fn params(&self, polarity: Polarity) -> &PolarityParams {
        match polarity {
            Polarity::Nbti => &self.nbti,
            Polarity::Pbti => &self.pbti,
        }
    }

    /// The temperature at which the time constants are specified.
    #[must_use]
    pub fn reference_temperature(&self) -> Celsius {
        self.reference_temperature
    }

    /// The factory-fresh CET bins of one polarity, all occupancies zero:
    /// the capture–emission time grid every resource governed by this
    /// model shares.
    ///
    /// The grid has `bin_count` bins whose capture and emission time
    /// constants are log-spaced over the polarity's tau ranges, paired
    /// rank-by-rank (the fastest-capturing traps are also the
    /// fastest-emitting — the usual diagonal correlation of measured CET
    /// maps), plus one never-emitting bin holding `permanent_fraction` of
    /// the population when that fraction is nonzero. Weights sum to 1.
    ///
    /// # Panics
    ///
    /// Does not panic: model construction already validated the
    /// parameters.
    #[must_use]
    pub fn fresh_bins(&self, polarity: Polarity) -> Vec<TrapBin> {
        cet_bins(self.params(polarity)).expect("validated parameters always build a CET grid")
    }

    /// Arrhenius acceleration factors `(capture, emission)` for a polarity
    /// at temperature `t`.
    #[must_use]
    pub fn acceleration(&self, polarity: Polarity, t: Celsius) -> (f64, f64) {
        let p = self.params(polarity);
        (
            arrhenius_acceleration(t, self.reference_temperature, p.ea_capture),
            arrhenius_acceleration(t, self.reference_temperature, p.ea_emission),
        )
    }

    /// Converts a normalized trap level into a transition-delay shift (in
    /// picoseconds) for a route of nominal length `route_ps`, scaled by a
    /// device wear factor (see [`crate::WearModel`]).
    #[must_use]
    pub fn delay_shift_ps(
        &self,
        polarity: Polarity,
        level: f64,
        route_ps: f64,
        wear_factor: f64,
    ) -> f64 {
        self.params(polarity).sensitivity * level * route_ps * wear_factor
    }
}

impl Default for BtiModel {
    /// The UltraScale+ calibration.
    fn default() -> Self {
        Self::ultrascale_plus()
    }
}

/// Builds and validates one polarity's CET grid (see
/// [`BtiModel::fresh_bins`]); `p` must already have passed
/// [`PolarityParams::validate`], which bounds `permanent_fraction`. The
/// weights are divided by their sum, so they add up to 1 whatever
/// rounding the per-bin shares carried.
///
/// # Errors
///
/// Returns [`BtiError::InvalidParameter`] when a tau bound is
/// non-positive or a range is inverted, or [`BtiError::EmptyCetGrid`]
/// when the bin count is zero.
fn cet_bins(p: &PolarityParams) -> Result<Vec<TrapBin>, BtiError> {
    fn check(name: &'static str, value: f64) -> Result<(), BtiError> {
        if value > 0.0 && value.is_finite() {
            Ok(())
        } else {
            Err(BtiError::InvalidParameter {
                name,
                value,
                constraint: "must be positive and finite",
            })
        }
    }
    let n = p.bin_count;
    let (tau_c_range, tau_e_range) = (p.tau_capture_range, p.tau_emission_range);
    if n == 0 {
        return Err(BtiError::EmptyCetGrid);
    }
    check("tau_c_min", tau_c_range.0)?;
    check("tau_c_max", tau_c_range.1)?;
    check("tau_e_min", tau_e_range.0)?;
    check("tau_e_max", tau_e_range.1)?;
    if tau_c_range.0 > tau_c_range.1 || tau_e_range.0 > tau_e_range.1 {
        return Err(BtiError::InvalidParameter {
            name: "tau_range",
            value: tau_c_range.0,
            constraint: "range minimum must not exceed maximum",
        });
    }

    let recoverable_weight = (1.0 - p.permanent_fraction) / n as f64;
    let mut bins = Vec::with_capacity(n + 1);
    for i in 0..n {
        let frac = if n == 1 {
            0.5
        } else {
            i as f64 / (n - 1) as f64
        };
        let tau_c = log_interp(tau_c_range.0, tau_c_range.1, frac);
        let tau_e = log_interp(tau_e_range.0, tau_e_range.1, frac);
        bins.push(TrapBin::new(
            Hours::new(tau_c),
            Hours::new(tau_e),
            recoverable_weight,
        ));
    }
    if p.permanent_fraction > 0.0 {
        // Permanent traps capture on the same (mid-range, geometric mean)
        // timescale but never emit.
        let tau_c = (tau_c_range.0 * tau_c_range.1).sqrt();
        bins.push(TrapBin {
            tau_capture: Hours::new(tau_c),
            tau_emission: Hours::new(f64::INFINITY),
            weight: p.permanent_fraction,
            occupancy: 0.0,
        });
    }
    let total: f64 = bins.iter().map(|b| b.weight).sum();
    for b in &mut bins {
        b.weight /= total;
    }
    Ok(bins)
}

fn log_interp(lo: f64, hi: f64, frac: f64) -> f64 {
    (lo.ln() + (hi.ln() - lo.ln()) * frac).exp()
}

/// Builder for [`BtiModel`] (C-BUILDER). Defaults to the UltraScale+
/// calibration; override individual knobs for ablation studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BtiModelBuilder {
    nbti: PolarityParams,
    pbti: PolarityParams,
    reference_temperature: Celsius,
}

impl Default for BtiModelBuilder {
    fn default() -> Self {
        Self {
            // NBTI: larger effect, slower onset, very slow recovery with a
            // sizable permanent component — burn-0 routes need > 200 h to
            // return to baseline (paper, Experiment 1).
            nbti: PolarityParams {
                bin_count: 12,
                tau_capture_range: (15.0, 5000.0),
                tau_emission_range: (600.0, 60_000.0),
                permanent_fraction: 0.15,
                sensitivity: 2.15e-3,
                ea_capture: 0.55,
                ea_emission: 0.50,
            },
            // PBTI: smaller effect, fast onset, fast recovery — burn-1
            // routes return to baseline within 30–50 h (paper, Exp. 1),
            // which is the signal Threat Model 2 exploits.
            pbti: PolarityParams {
                bin_count: 12,
                tau_capture_range: (2.0, 800.0),
                tau_emission_range: (15.0, 300.0),
                permanent_fraction: 0.03,
                sensitivity: 1.25e-3,
                ea_capture: 0.45,
                ea_emission: 0.50,
            },
            reference_temperature: Celsius::new(60.0),
        }
    }
}

impl BtiModelBuilder {
    /// Overrides the NBTI polarity parameters.
    pub fn nbti(&mut self, params: PolarityParams) -> &mut Self {
        self.nbti = params;
        self
    }

    /// Overrides the PBTI polarity parameters.
    pub fn pbti(&mut self, params: PolarityParams) -> &mut Self {
        self.pbti = params;
        self
    }

    /// Sets the reference temperature of the kinetic constants.
    pub fn reference_temperature(&mut self, t: Celsius) -> &mut Self {
        self.reference_temperature = t;
        self
    }

    /// Validates the parameters and builds the model.
    ///
    /// # Errors
    ///
    /// Returns [`BtiError::InvalidParameter`] when any parameter is out of
    /// range, or [`BtiError::EmptyCetGrid`] when a bin count is zero.
    pub fn build(&self) -> Result<BtiModel, BtiError> {
        self.nbti.validate("nbti")?;
        self.pbti.validate("pbti")?;
        // Grid construction validates the bin counts and tau ranges.
        cet_bins(&self.nbti)?;
        cet_bins(&self.pbti)?;
        Ok(BtiModel {
            nbti: self.nbti,
            pbti: self.pbti,
            reference_temperature: self.reference_temperature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_builds() {
        let m = BtiModel::ultrascale_plus();
        assert_eq!(m.reference_temperature(), Celsius::new(60.0));
        assert_eq!(m, BtiModel::default());
    }

    #[test]
    fn acceleration_is_unity_at_reference() {
        let m = BtiModel::ultrascale_plus();
        for polarity in Polarity::ALL {
            let (c, e) = m.acceleration(polarity, Celsius::new(60.0));
            assert!((c - 1.0).abs() < 1e-12);
            assert!((e - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn delay_shift_scales_linearly() {
        let m = BtiModel::ultrascale_plus();
        let a = m.delay_shift_ps(Polarity::Pbti, 0.5, 1000.0, 1.0);
        let b = m.delay_shift_ps(Polarity::Pbti, 0.5, 2000.0, 1.0);
        let c = m.delay_shift_ps(Polarity::Pbti, 0.5, 1000.0, 0.5);
        assert!((b - 2.0 * a).abs() < 1e-12);
        assert!((c - 0.5 * a).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_sensitivity() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().nbti();
        p.sensitivity = -1.0;
        let err = b.nbti(p).build().unwrap_err();
        assert!(matches!(
            err,
            BtiError::InvalidParameter {
                name: "sensitivity",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_zero_bins() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().pbti();
        p.bin_count = 0;
        assert_eq!(b.pbti(p).build().unwrap_err(), BtiError::EmptyCetGrid);
    }

    #[test]
    fn fresh_bins_are_empty_and_normalized() {
        let m = BtiModel::ultrascale_plus();
        for polarity in Polarity::ALL {
            let bins = m.fresh_bins(polarity);
            assert_eq!(bins.len(), m.params(polarity).bin_count + 1);
            assert!(bins.iter().all(|b| b.occupancy == 0.0));
            let total: f64 = bins.iter().map(|b| b.weight).sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert_eq!(bins.iter().filter(|b| b.is_permanent()).count(), 1);
        }
    }

    #[test]
    fn builder_rejects_inverted_tau_range() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().nbti();
        p.tau_capture_range = (100.0, 1.0);
        assert!(matches!(
            b.nbti(p).build().unwrap_err(),
            BtiError::InvalidParameter {
                name: "tau_range",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_non_positive_tau() {
        let mut b = BtiModel::builder();
        let mut p = *BtiModel::ultrascale_plus().pbti();
        p.tau_emission_range = (0.0, 10.0);
        assert!(matches!(
            b.pbti(p).build().unwrap_err(),
            BtiError::InvalidParameter {
                name: "tau_e_min",
                ..
            }
        ));
    }
}
