//! Umbrella crate for the Pentimento reproduction workspace.
//!
//! This crate re-exports every subsystem so that the repository-level
//! examples and integration tests can exercise the whole stack through one
//! dependency. Library users should normally depend on the individual
//! crates ([`pentimento`], [`fpga_fabric`], [`tdc`], …) directly.
//!
//! # Quickstart
//!
//! ```
//! use pentimento_repro::bti_physics::{AgingArena, BtiModel, Celsius, Hours, LogicLevel};
//!
//! let model = BtiModel::ultrascale_plus();
//! let mut arena = AgingArena::new(&model);
//! let route = arena.ensure(0);
//! let burn = LogicLevel::One.duty();
//! arena.advance_slot(route, &model, Hours::new(200.0), burn, Celsius::new(60.0));
//! assert!(arena.view_at(route).delta_ps_scaled(&model, 10_000.0, 1.0) > 9.0);
//! ```

#![forbid(unsafe_code)]

pub use baselines;
pub use bti_physics;
pub use cloud;
pub use fpga_fabric;
pub use opentitan;
pub use pentimento;
pub use tdc;
