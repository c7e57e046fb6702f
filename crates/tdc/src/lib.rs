//! Tunable dual-polarity time-to-digital converter (TDC) simulation.
//!
//! This crate reproduces the sensor of the paper's Section 4 (adapted from
//! Drewes et al., FPGA '23): the instrument that turns sub-picosecond BTI
//! delay drifts into attacker-readable numbers, using nothing but
//! DRC-legal FPGA structures.
//!
//! # How the sensor works
//!
//! 1. A **programmable clock generator** produces a launch clock and a
//!    capture clock of identical frequency, offset by a runtime-tunable
//!    phase `θ`.
//! 2. A **transition generator** launches a rising (0→1) or falling (1→0)
//!    edge into the **route under test** — the physical wires that held
//!    the victim's secret.
//! 3. The edge then enters a **carry chain** of nominally identical delay
//!    elements (≈ 2.8 ps each on UltraScale+).
//! 4. At time `θ` the **capture registers** snapshot the chain. The number
//!    of elements the edge has passed — the *binary Hamming distance* of
//!    the captured word from all-zeros (rising) or all-ones (falling) —
//!    measures how far it travelled, and therefore how long the route
//!    under test delayed it.
//!
//! Because rising edges are slowed by NBTI (PMOS damage) and falling edges
//! by PBTI (NMOS damage), the *difference* between the two polarities'
//! propagation distances isolates the BTI imprint while cancelling
//! common-mode effects (temperature, voltage, chain variation).
//!
//! # Example
//!
//! ```
//! use fpga_fabric::{FpgaDevice, RouteRequest, TileCoord};
//! use rand::SeedableRng;
//! use tdc::{TdcConfig, TdcSensor};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let device = FpgaDevice::zcu102_new(7);
//! let route = device.route_with_target_delay(
//!     &RouteRequest::new(TileCoord::new(4, 4), 5_000.0))?;
//! let mut sensor = TdcSensor::place(&device, route, TdcConfig::lab())?;
//! sensor.calibrate(&device, &mut rng)?;
//! let m = sensor.measure(&device, &mut rng)?;
//! // A fresh route shows (nearly) no polarity asymmetry.
//! assert!(m.delta_ps.abs() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod capture;
mod clock;
mod config;
mod error;
mod faults;
mod measurement;
mod sensor;
mod stream;
mod util;

pub use array::TdcArray;
pub use capture::CaptureWord;
pub use clock::ClockGenerator;
pub use config::TdcConfig;
pub use error::TdcError;
pub use faults::SensorFaultPlan;
pub use measurement::{Measurement, Trace};
pub use sensor::TdcSensor;
pub use stream::{stream_seed, STREAM_CALIBRATE, STREAM_MEASURE};
