//! The experiment machinery of Section 5.2: Calibration, Condition,
//! Measurement — and the lab-bench runner used for Experiment 1.

use bti_physics::LogicLevel;
use fpga_fabric::FpgaDevice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tdc::{TdcArray, TdcConfig};

use crate::designs::build_target_design;
use crate::{PentimentoError, RouteGroupSpec, RouteSeries, Skeleton};

/// Reads every skeleton route's analog Δps directly (the oracle mode),
/// fanned across worker threads. Pure reads of shared state: the result
/// is identical at every thread count.
pub(crate) fn oracle_deltas(device: &FpgaDevice, skeleton: &Skeleton) -> Vec<f64> {
    skeleton
        .routes()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|route| device.route_delta_ps(route))
        .collect()
}

/// The three experimental phases of Section 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Finding θ_init for every sensor (runs once, hour 0).
    Calibration,
    /// Applying burn values to the routes under test (the long phase).
    Condition,
    /// Reading every TDC (the paper's measurement takes under a minute —
    /// negligible aging; we model it as instantaneous).
    Measurement,
}

/// How the harness reads route delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasurementMode {
    /// Through the full TDC pipeline: quantization, jitter, metastability,
    /// trace averaging. What a real attacker gets.
    Tdc,
    /// Directly from the device's analog state, noiseless. An omniscient
    /// view for fast tests and for separating sensor effects from physics
    /// effects in ablations.
    Oracle,
}

/// Configuration of a lab experiment (Experiment 1: new ZCU102 in a
/// 60 °C oven).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabExperimentConfig {
    /// Route-length groups, in picoseconds (paper: 1000/2000/5000/10000).
    pub route_lengths_ps: Vec<f64>,
    /// Routes per group (paper: 16).
    pub routes_per_length: usize,
    /// Burn-in period length, in hours (paper: 200).
    pub burn_hours: usize,
    /// Recovery period length, in hours (paper: 200, conditioned with the
    /// complement values).
    pub recovery_hours: usize,
    /// Hours between measurements (paper: 1).
    pub measure_every: usize,
    /// Sensor pipeline or omniscient readings.
    pub mode: MeasurementMode,
    /// Seed for the burn values and sensor noise.
    pub seed: u64,
}

impl LabExperimentConfig {
    /// The paper's Experiment 1 configuration (hourly measurement over
    /// 200 h burn + 200 h recovery, 4×16 routes, full TDC pipeline).
    #[must_use]
    pub fn paper_experiment1(seed: u64) -> Self {
        Self {
            route_lengths_ps: vec![1_000.0, 2_000.0, 5_000.0, 10_000.0],
            routes_per_length: 16,
            burn_hours: 200,
            recovery_hours: 200,
            measure_every: 1,
            mode: MeasurementMode::Tdc,
            seed,
        }
    }

    fn validate(&self) -> Result<(), PentimentoError> {
        if self.route_lengths_ps.is_empty() || self.routes_per_length == 0 {
            return Err(PentimentoError::InvalidConfig(
                "need at least one route".to_owned(),
            ));
        }
        if self.measure_every == 0 {
            return Err(PentimentoError::InvalidConfig(
                "measure_every must be at least 1 hour".to_owned(),
            ));
        }
        if self.burn_hours == 0 {
            return Err(PentimentoError::InvalidConfig(
                "burn period must be non-empty".to_owned(),
            ));
        }
        Ok(())
    }

    fn specs(&self) -> Vec<RouteGroupSpec> {
        self.route_lengths_ps
            .iter()
            .map(|&target_ps| RouteGroupSpec {
                target_ps,
                count: self.routes_per_length,
            })
            .collect()
    }
}

/// The result of an experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// One centered Δps series per route, in skeleton order.
    pub series: Vec<RouteSeries>,
    /// The ground-truth burn values `X` (order matches `series`).
    pub values: Vec<LogicLevel>,
}

/// Experiment 1's lab bench: a factory-new ZCU102 in a temperature
/// controlled oven, fully under the experimenter's control.
#[derive(Debug)]
pub struct LabExperiment {
    config: LabExperimentConfig,
    device: FpgaDevice,
    skeleton: Skeleton,
    values: Vec<LogicLevel>,
    sensors: TdcArray,
    /// Master seed for the per-(route, phase) derived RNG streams; see
    /// [`tdc::stream_seed`]. Burn values are drawn serially from a
    /// generator seeded with this value.
    master_seed: u64,
}

impl LabExperiment {
    /// Places the skeleton and sensors on a fresh ZCU102 and draws the
    /// random burn values `X`.
    ///
    /// # Errors
    ///
    /// Returns configuration, routing, or sensor-placement errors.
    pub fn new(config: LabExperimentConfig) -> Result<Self, PentimentoError> {
        config.validate()?;
        let device = FpgaDevice::zcu102_new(config.seed);
        let skeleton = Skeleton::place(&device, &config.specs())?;
        let master_seed = config.seed ^ 0x5EED_F00D;
        let mut rng = StdRng::seed_from_u64(master_seed);
        let values: Vec<LogicLevel> = (0..skeleton.len())
            .map(|_| LogicLevel::from_bool(rng.gen()))
            .collect();
        let sensors = match config.mode {
            MeasurementMode::Tdc => TdcArray::place(
                &device,
                skeleton.entries().iter().map(|e| e.route.clone()),
                TdcConfig::lab(),
            )?,
            MeasurementMode::Oracle => TdcArray::default(),
        };
        Ok(Self {
            config,
            device,
            skeleton,
            values,
            sensors,
            master_seed,
        })
    }

    /// The device under test (omniscient view).
    #[must_use]
    pub fn device(&self) -> &FpgaDevice {
        &self.device
    }

    /// The skeleton of routes under test.
    #[must_use]
    pub fn skeleton(&self) -> &Skeleton {
        &self.skeleton
    }

    /// The ground-truth burn values.
    #[must_use]
    pub fn values(&self) -> &[LogicLevel] {
        &self.values
    }

    /// One measurement phase: reads every route in parallel. `phase` is
    /// the number of previously recorded phases (0 for the hour-zero
    /// baseline); it selects the per-route RNG streams, so readings do
    /// not depend on thread count or on what was measured before.
    fn measure_all(&self, phase: u64) -> Result<Vec<f64>, PentimentoError> {
        match self.config.mode {
            MeasurementMode::Oracle => Ok(oracle_deltas(&self.device, &self.skeleton)),
            MeasurementMode::Tdc => Ok(self.sensors.measure_deltas_streamed_observed(
                &self.device,
                1,
                self.master_seed,
                phase,
                None,
            )?),
        }
    }

    /// Runs the full experiment: Calibration at hour 0, then the burn-in
    /// period conditioned with `X`, then the recovery period conditioned
    /// with `X̄`, measuring every `measure_every` hours.
    ///
    /// # Errors
    ///
    /// Propagates sensor and fabric failures.
    pub fn run(&mut self) -> Result<ExperimentOutcome, PentimentoError> {
        // Phase: Calibration (hour 0), fanned across worker threads with
        // one derived RNG stream per sensor.
        if self.config.mode == MeasurementMode::Tdc {
            self.sensors
                .calibrate_all_streamed_observed(&self.device, self.master_seed, None)?;
        }

        let mut hours_log: Vec<f64> = Vec::new();
        let mut readings: Vec<Vec<f64>> = vec![Vec::new(); self.skeleton.len()];
        let record =
            |hour: f64, this: &mut Self, readings: &mut Vec<Vec<f64>>, log: &mut Vec<f64>| {
                let measured = this.measure_all(log.len() as u64)?;
                log.push(hour);
                for (per_route, value) in readings.iter_mut().zip(measured) {
                    per_route.push(value);
                }
                Ok::<(), PentimentoError>(())
            };

        // Hour 0 baseline measurement before any conditioning.
        record(0.0, self, &mut readings, &mut hours_log)?;

        // Burn-in period: Condition with X, Measurement every interval.
        // Conditions are constant for the whole stretch between two
        // measurements, so each stretch is a single closed-form phase
        // advance rather than `measure_every` hourly steps.
        let burn = build_target_design(&self.skeleton, &self.values);
        self.device.load_design(burn)?;
        let mut hour = 0;
        while hour < self.config.burn_hours {
            let chunk = self.config.measure_every.min(self.config.burn_hours - hour);
            self.device.run_for(bti_physics::Hours::new(chunk as f64));
            hour += chunk;
            if hour.is_multiple_of(self.config.measure_every) {
                record(hour as f64, self, &mut readings, &mut hours_log)?;
            }
        }
        self.device.unload_design();

        // Recovery period: Condition with the complement X̄.
        if self.config.recovery_hours > 0 {
            let complement: Vec<LogicLevel> = self.values.iter().map(|&v| !v).collect();
            let recover = build_target_design(&self.skeleton, &complement);
            self.device.load_design(recover)?;
            let mut hour = 0;
            while hour < self.config.recovery_hours {
                let chunk = self
                    .config
                    .measure_every
                    .min(self.config.recovery_hours - hour);
                self.device.run_for(bti_physics::Hours::new(chunk as f64));
                hour += chunk;
                if hour.is_multiple_of(self.config.measure_every) {
                    record(
                        (self.config.burn_hours + hour) as f64,
                        self,
                        &mut readings,
                        &mut hours_log,
                    )?;
                }
            }
            self.device.unload_design();
        }

        let series = self
            .skeleton
            .entries()
            .iter()
            .enumerate()
            .map(|(i, entry)| {
                RouteSeries::from_raw(
                    i,
                    entry.target_ps,
                    self.values[i],
                    hours_log.clone(),
                    readings[i].clone(),
                )
            })
            .collect();
        Ok(ExperimentOutcome {
            series,
            values: self.values.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{BitClassifier, DriftSlopeClassifier};
    use crate::metrics::accuracy;

    fn quick_config(mode: MeasurementMode) -> LabExperimentConfig {
        LabExperimentConfig {
            route_lengths_ps: vec![2_000.0, 10_000.0],
            routes_per_length: 4,
            burn_hours: 60,
            recovery_hours: 0,
            measure_every: 10,
            mode,
            seed: 5,
        }
    }

    #[test]
    fn oracle_burn_in_separates_bits_perfectly() {
        let mut exp = LabExperiment::new(quick_config(MeasurementMode::Oracle)).unwrap();
        let outcome = exp.run().unwrap();
        assert_eq!(outcome.series.len(), 8);
        let classifier = DriftSlopeClassifier::new();
        let recovered = classifier.classify_all(&outcome.series);
        assert_eq!(accuracy(&recovered, &outcome.values), 1.0);
    }

    #[test]
    fn burn_magnitude_scales_with_length() {
        let mut exp = LabExperiment::new(quick_config(MeasurementMode::Oracle)).unwrap();
        let outcome = exp.run().unwrap();
        let mean_mag = |target: f64| {
            let v: Vec<f64> = outcome
                .series
                .iter()
                .filter(|s| s.target_ps == target)
                .map(|s| s.last_delta_ps().abs())
                .collect();
            crate::analysis::mean(&v)
        };
        assert!(mean_mag(10_000.0) > 3.0 * mean_mag(2_000.0));
    }

    #[test]
    fn tdc_mode_also_recovers_bits() {
        let mut cfg = quick_config(MeasurementMode::Tdc);
        cfg.route_lengths_ps = vec![10_000.0];
        cfg.burn_hours = 40;
        let mut exp = LabExperiment::new(cfg).unwrap();
        let outcome = exp.run().unwrap();
        let recovered = DriftSlopeClassifier::new().classify_all(&outcome.series);
        assert_eq!(accuracy(&recovered, &outcome.values), 1.0);
    }

    #[test]
    fn recovery_period_reverses_burn_one_routes() {
        let mut cfg = quick_config(MeasurementMode::Oracle);
        cfg.route_lengths_ps = vec![10_000.0];
        cfg.burn_hours = 100;
        cfg.recovery_hours = 100;
        let mut exp = LabExperiment::new(cfg).unwrap();
        let outcome = exp.run().unwrap();
        for s in outcome
            .series
            .iter()
            .filter(|s| s.burn_value == LogicLevel::One)
        {
            let peak = s.delta_ps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                s.last_delta_ps() < 0.4 * peak,
                "burn-1 route should have recovered most of its peak"
            );
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        for bad in [
            LabExperimentConfig {
                route_lengths_ps: vec![],
                ..quick_config(MeasurementMode::Oracle)
            },
            LabExperimentConfig {
                measure_every: 0,
                ..quick_config(MeasurementMode::Oracle)
            },
            LabExperimentConfig {
                burn_hours: 0,
                ..quick_config(MeasurementMode::Oracle)
            },
        ] {
            assert!(LabExperiment::new(bad).is_err());
        }
    }

    #[test]
    fn series_start_centered_at_zero() {
        let mut exp = LabExperiment::new(quick_config(MeasurementMode::Oracle)).unwrap();
        let outcome = exp.run().unwrap();
        for s in &outcome.series {
            assert_eq!(s.delta_ps[0], 0.0);
            assert_eq!(s.hours[0], 0.0);
        }
    }
}
