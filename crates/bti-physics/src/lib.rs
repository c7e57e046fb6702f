//! Bias temperature instability (BTI) transistor-aging models.
//!
//! This crate is the physics substrate of the Pentimento reproduction. It
//! models how CMOS transistors inside an FPGA degrade when they hold static
//! logic values ("burn-in") and how that degradation partially reverts when
//! the stress is removed ("recovery") — the effects the paper measures with a
//! time-to-digital converter to recover secrets from cloud FPGAs.
//!
//! # Model
//!
//! Two polarities of degradation exist, as in the paper's Section 3:
//!
//! * **NBTI** stresses PMOS transistors while a node holds logical **0** and
//!   slows *rising* transitions.
//! * **PBTI** stresses NMOS transistors while a node holds logical **1** and
//!   slows *falling* transitions.
//!
//! Each stressed resource carries a set of [`TrapBin`]s per polarity: a
//! discretized *capture–emission time map* (Grasser-style empirical BTI
//! model) with log-spaced capture and emission time constants, built by
//! [`BtiModel::fresh_bins`]. Occupancy rises exponentially toward
//! saturation under stress and decays exponentially during recovery, with
//! Arrhenius temperature acceleration on both rates. A few bins have
//! infinite emission time constants and model the *permanent* component of
//! BTI. Every resource of a model shares the same grid, so all aging state
//! lives in one store, the [`AgingArena`]: one slot per resource, holding
//! only the occupancies and a lifetime odometer.
//!
//! The observable used throughout the paper is the difference between
//! falling and rising propagation delay of a route:
//!
//! ```text
//! Δps(t) = fall_delay(t) − rise_delay(t) − (the same at t₀)
//!        ∝ route_length · (PBTI level − NBTI level)
//! ```
//!
//! so a route burned at 1 drifts positive and a route burned at 0 drifts
//! negative, exactly the cyan/magenta split of the paper's Figures 6–8.
//!
//! # Calibration
//!
//! The paper publishes no analytic aging law, only measurements. The default
//! parameter set ([`BtiModel::ultrascale_plus`]) is a phenomenological fit to
//! the paper's reported numbers and is pinned by this crate's test-suite:
//!
//! * |Δps| after 200 h of burn-in on a new device at 60 °C is ≈ 0.105 % of
//!   the route length (1–2 ps at 1000 ps … 10–11 ps at 10000 ps);
//! * burn-1 routes return to baseline 30–50 h after the stress value is
//!   complemented; burn-0 routes need more than 200 h;
//! * a device with ~4 years of prior wear responds ≈ 10× more weakly.
//!
//! # Example
//!
//! ```
//! use bti_physics::{AgingArena, BtiModel, Celsius, DutyCycle, Hours};
//!
//! let model = BtiModel::ultrascale_plus();
//! let mut arena = AgingArena::new(&model);
//! let route = arena.ensure(0);
//!
//! // Hold logical 1 on the route for 200 hours at 60 C (full burn-in).
//! let (burn, t60) = (DutyCycle::ALWAYS_ONE, Celsius::new(60.0));
//! arena.advance_slot(route, &model, Hours::new(200.0), burn, t60);
//!
//! // The imprint: falling transitions through a 10000 ps route are now slower.
//! let delta = arena.view_at(route).delta_ps_scaled(&model, 10_000.0, 1.0);
//! assert!(delta > 9.0 && delta < 12.0, "Δps = {delta}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bin;
mod error;
mod inverter;
mod model;
mod phase;
mod polarity;
mod temperature;
mod units;
mod wear;

pub use arena::{AgingArena, PhasePlan, WireAging};
pub use bin::TrapBin;
pub use error::BtiError;
pub use inverter::Inverter;
pub use model::{BtiModel, BtiModelBuilder, PolarityParams};
pub use phase::{BinKernel, CacheStats, DecayCache, PhaseKernel};
pub use polarity::{DutyCycle, LogicLevel, Polarity};
pub use temperature::{arrhenius_acceleration, arrhenius_acceleration_kelvin, BOLTZMANN_EV_PER_K};
pub use units::{Celsius, Hours, Kelvin, Picoseconds};
pub use wear::WearModel;
