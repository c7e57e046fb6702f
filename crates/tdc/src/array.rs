//! Sensor arrays: the measure design's bank of TDCs, one per route.
//!
//! The paper's measure design (Figure 5) instantiates an array of TDCs —
//! one per route under test — and drives them through identical
//! calibration and measurement procedures. [`TdcArray`] packages that
//! pattern: place against a set of routes, calibrate all, and read all
//! (optionally averaging repeated measurements, since a measurement costs
//! seconds while the condition phase costs an hour).

use fpga_fabric::{FpgaDevice, Route};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::stream::{stream_seed, STREAM_CALIBRATE, STREAM_MEASURE};
use crate::{TdcConfig, TdcError, TdcSensor};

/// A bank of TDC sensors sharing one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdcArray {
    sensors: Vec<TdcSensor>,
}

impl TdcArray {
    /// Places one sensor per route.
    ///
    /// # Errors
    ///
    /// Returns the first placement failure.
    pub fn place<I>(device: &FpgaDevice, routes: I, config: TdcConfig) -> Result<Self, TdcError>
    where
        I: IntoIterator<Item = Route>,
    {
        let sensors = routes
            .into_iter()
            .map(|route| TdcSensor::place(device, route, config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { sensors })
    }

    /// Number of sensors in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether the bank is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// The individual sensors.
    #[must_use]
    pub fn sensors(&self) -> &[TdcSensor] {
        &self.sensors
    }

    /// Calibration phase for the whole bank, fanned across worker threads
    /// with one derived RNG stream per sensor: sensor `i` draws from
    /// `stream_seed(master_seed, i, STREAM_CALIBRATE)`, so the result is
    /// bit-identical at every thread count and independent of scheduling
    /// order: no sensor's draws depend on another's.
    ///
    /// # Errors
    ///
    /// Returns the calibration failure of the lowest-indexed failing
    /// sensor.
    pub fn calibrate_all_streamed(
        &mut self,
        device: &FpgaDevice,
        master_seed: u64,
    ) -> Result<Vec<f64>, TdcError> {
        self.calibrate_all_streamed_observed(device, master_seed, None)
    }

    /// [`TdcArray::calibrate_all_streamed`] with an optional telemetry
    /// recorder: the batch is timed as one `tdc.calibrate_batch` span and,
    /// when it succeeds, counted per sensor. Only aggregate counters are
    /// recorded (never per-worker events), so an attached recorder cannot
    /// leak thread interleavings into a trace.
    ///
    /// # Errors
    ///
    /// As [`TdcArray::calibrate_all_streamed`].
    pub fn calibrate_all_streamed_observed(
        &mut self,
        device: &FpgaDevice,
        master_seed: u64,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<f64>, TdcError> {
        let _span = recorder.map(|r| r.span("tdc.calibrate_batch"));
        let count = self.sensors.len() as u64;
        let result: Result<Vec<f64>, TdcError> = self
            .sensors
            .par_iter_mut()
            .enumerate()
            .map(|(i, sensor)| {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(master_seed, i as u64, STREAM_CALIBRATE));
                sensor.calibrate(device, &mut rng)
            })
            .collect();
        if let (Some(r), Ok(_)) = (recorder, &result) {
            r.incr("tdc.calibrations", count);
        }
        result
    }

    /// Batched read: measures the whole bank in one call, fanned across
    /// worker threads, averaging `repeats` reads per sensor — the
    /// averaging trick the attack drivers use to push the noise floor
    /// below weak cloud imprints. Sensor `i`
    /// at measurement phase `phase` (0 for the hour-zero baseline) draws
    /// from its own stream `stream_seed(master_seed, i, STREAM_MEASURE +
    /// phase)`, so the returned deltas are bit-identical at every thread
    /// count and independent of which routes were measured before.
    ///
    /// # Errors
    ///
    /// Returns the failure of the lowest-indexed failing sensor (e.g. an
    /// uncalibrated one); `repeats` of zero is rejected.
    pub fn measure_deltas_streamed(
        &self,
        device: &FpgaDevice,
        repeats: usize,
        master_seed: u64,
        phase: u64,
    ) -> Result<Vec<f64>, TdcError> {
        self.measure_deltas_streamed_observed(device, repeats, master_seed, phase, None)
    }

    /// [`TdcArray::measure_deltas_streamed`] with an optional telemetry
    /// recorder: the batch is timed as one `tdc.measure_batch` span, and a
    /// successful batch grows the batch, read and `tdc.samples` counters
    /// by its totals. Only
    /// aggregate counters are recorded (never per-worker events), so an
    /// attached recorder cannot leak thread interleavings into a trace.
    ///
    /// # Errors
    ///
    /// As [`TdcArray::measure_deltas_streamed`].
    pub fn measure_deltas_streamed_observed(
        &self,
        device: &FpgaDevice,
        repeats: usize,
        master_seed: u64,
        phase: u64,
        recorder: Option<&Recorder>,
    ) -> Result<Vec<f64>, TdcError> {
        if repeats == 0 {
            return Err(TdcError::InvalidConfig("repeats must be at least 1"));
        }
        let _span = recorder.map(|r| r.span("tdc.measure_batch"));
        let result: Result<Vec<f64>, TdcError> = self
            .sensors
            .par_iter()
            .enumerate()
            .map(|(i, sensor)| {
                let mut rng = StdRng::seed_from_u64(stream_seed(
                    master_seed,
                    i as u64,
                    STREAM_MEASURE + phase,
                ));
                // The route's delay cannot move between repeats: walk it
                // once for all of them.
                let delay = device.route_delay(sensor.route());
                let mut acc = 0.0;
                for _ in 0..repeats {
                    acc += sensor.measure_at(delay, &mut rng)?.delta_ps;
                }
                Ok(acc / repeats as f64)
            })
            .collect();
        if let (Some(r), Ok(_)) = (recorder, &result) {
            let samples: usize = self
                .sensors
                .iter()
                .map(|s| s.config().samples_per_measurement() * repeats)
                .sum();
            r.incr("tdc.batched_reads", 1);
            r.incr("tdc.sensor_reads", (self.sensors.len() * repeats) as u64);
            r.incr("tdc.samples", samples as u64);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bti_physics::{DutyCycle, Hours};
    use fpga_fabric::{RouteRequest, TileCoord};
    use std::collections::HashSet;

    fn routes(device: &FpgaDevice, n: usize) -> Vec<Route> {
        let mut used = HashSet::new();
        (0..n)
            .map(|i| {
                let req = RouteRequest::new(TileCoord::new(4, 4 + 8 * i as u16), 5_000.0);
                let r = device
                    .route_with_target_delay_avoiding(&req, &used)
                    .expect("routable");
                used.extend(r.wire_ids());
                r
            })
            .collect()
    }

    #[test]
    fn bank_calibrates_and_measures() {
        let device = FpgaDevice::zcu102_new(81);
        let mut array =
            TdcArray::place(&device, routes(&device, 4), TdcConfig::lab()).expect("places");
        assert_eq!(array.len(), 4);
        let thetas = array
            .calibrate_all_streamed(&device, 81)
            .expect("calibrates");
        assert_eq!(thetas.len(), 4);
        let deltas = array
            .measure_deltas_streamed(&device, 1, 81, 0)
            .expect("measures");
        for delta in deltas {
            assert!(delta.abs() < 1.5);
        }
    }

    #[test]
    fn uncalibrated_bank_cannot_measure() {
        let device = FpgaDevice::zcu102_new(80);
        let array = TdcArray::place(&device, routes(&device, 2), TdcConfig::lab()).expect("places");
        assert_eq!(
            array.measure_deltas_streamed(&device, 1, 80, 0),
            Err(TdcError::NotCalibrated)
        );
        // A failed batch did no reads, so an attached recorder counts none.
        let recorder = Recorder::new();
        assert_eq!(
            array.measure_deltas_streamed_observed(&device, 3, 80, 0, Some(&recorder)),
            Err(TdcError::NotCalibrated)
        );
        for counter in [
            "tdc.calibrations",
            "tdc.batched_reads",
            "tdc.sensor_reads",
            "tdc.samples",
        ] {
            assert_eq!(recorder.counter(counter), 0, "{counter}");
        }
    }

    #[test]
    fn averaging_tightens_readings() {
        let device = FpgaDevice::zcu102_new(82);
        let mut array =
            TdcArray::place(&device, routes(&device, 2), TdcConfig::cloud()).expect("places");
        array
            .calibrate_all_streamed(&device, 82)
            .expect("calibrates");
        // Each phase is a fresh noise draw of the same (unaged) routes.
        let spread = |repeats: usize| {
            let reads: Vec<f64> = (0..20)
                .map(|phase| {
                    array
                        .measure_deltas_streamed(&device, repeats, 82, phase)
                        .expect("measures")[0]
                })
                .collect();
            let mean = reads.iter().sum::<f64>() / reads.len() as f64;
            (reads.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / reads.len() as f64).sqrt()
        };
        let single = spread(1);
        let averaged = spread(8);
        assert!(averaged < 0.6 * single, "{averaged} vs {single}");
    }

    #[test]
    fn bank_sees_burned_routes() {
        let mut device = FpgaDevice::zcu102_new(85);
        let rs = routes(&device, 2);
        let mut array = TdcArray::place(&device, rs.clone(), TdcConfig::lab()).expect("places");
        array
            .calibrate_all_streamed(&device, 85)
            .expect("calibrates");
        device.condition_route(&rs[0], DutyCycle::ALWAYS_ONE, Hours::new(150.0));
        device.condition_route(&rs[1], DutyCycle::ALWAYS_ZERO, Hours::new(150.0));
        let deltas = array
            .measure_deltas_streamed(&device, 4, 85, 1)
            .expect("measures");
        assert!(deltas[0] > 2.0, "burn-1 route: {}", deltas[0]);
        assert!(deltas[1] < -2.0, "burn-0 route: {}", deltas[1]);
    }

    #[test]
    fn empty_bank_is_fine() {
        let device = FpgaDevice::zcu102_new(86);
        let array = TdcArray::place(&device, Vec::new(), TdcConfig::lab()).expect("places");
        assert!(array.is_empty());
    }

    #[test]
    fn zero_repeats_rejected() {
        let device = FpgaDevice::zcu102_new(87);
        let array = TdcArray::place(&device, routes(&device, 1), TdcConfig::lab()).expect("places");
        assert!(array.measure_deltas_streamed(&device, 0, 87, 0).is_err());
    }

    #[test]
    fn streamed_reads_are_identical_at_every_thread_count() {
        let device = FpgaDevice::zcu102_new(88);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool builds")
                .install(|| {
                    let mut array =
                        TdcArray::place(&device, routes(&device, 6), TdcConfig::cloud())
                            .expect("places");
                    let thetas = array
                        .calibrate_all_streamed(&device, 88)
                        .expect("calibrates");
                    let deltas: Vec<Vec<f64>> = (0..4)
                        .map(|phase| {
                            array
                                .measure_deltas_streamed(&device, 3, 88, phase)
                                .expect("measures")
                        })
                        .collect();
                    (thetas, deltas)
                })
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), serial, "thread count {threads} diverges");
        }
    }

    #[test]
    fn observed_reads_match_unobserved_and_count_batches() {
        let device = FpgaDevice::zcu102_new(90);
        let recorder = Recorder::new();
        let mut plain = TdcArray::place(&device, routes(&device, 3), TdcConfig::cloud()).unwrap();
        let mut observed = plain.clone();
        let a = plain.calibrate_all_streamed(&device, 90).unwrap();
        let b = observed
            .calibrate_all_streamed_observed(&device, 90, Some(&recorder))
            .unwrap();
        assert_eq!(a, b, "telemetry must not perturb calibration");
        let x = plain.measure_deltas_streamed(&device, 2, 90, 1).unwrap();
        let y = observed
            .measure_deltas_streamed_observed(&device, 2, 90, 1, Some(&recorder))
            .unwrap();
        assert_eq!(x, y, "telemetry must not perturb measurement");
        assert_eq!(recorder.counter("tdc.calibrations"), 3);
        assert_eq!(recorder.counter("tdc.batched_reads"), 1);
        assert_eq!(recorder.counter("tdc.sensor_reads"), 6);
        // Every read is one measurement of the cloud profile's samples.
        assert_eq!(
            recorder.counter("tdc.samples"),
            6 * TdcConfig::cloud().samples_per_measurement() as u64
        );
        assert_eq!(recorder.counter("span.tdc.measure_batch.finished"), 1);
        assert!(
            recorder.trace_jsonl().is_empty(),
            "counters only, no events"
        );
    }

    #[test]
    fn streamed_reads_do_not_depend_on_phase_order() {
        let device = FpgaDevice::zcu102_new(89);
        let mut array =
            TdcArray::place(&device, routes(&device, 3), TdcConfig::cloud()).expect("places");
        array
            .calibrate_all_streamed(&device, 89)
            .expect("calibrates");
        let forward: Vec<Vec<f64>> = (0..3)
            .map(|p| {
                array
                    .measure_deltas_streamed(&device, 2, 89, p)
                    .expect("ok")
            })
            .collect();
        let backward: Vec<Vec<f64>> = (0..3)
            .rev()
            .map(|p| {
                array
                    .measure_deltas_streamed(&device, 2, 89, p)
                    .expect("ok")
            })
            .collect();
        assert_eq!(forward[0], backward[2]);
        assert_eq!(forward[2], backward[0]);
        // Distinct phases see distinct noise draws.
        assert_ne!(forward[0], forward[1]);
    }
}
