//! `pentimento` — the core library of the Pentimento reproduction.
//!
//! This crate implements the paper's primary contribution: recovering
//! "FPGA pentimenti" — secret data that a prior user's design burned into
//! a cloud FPGA's transistors through bias temperature instability — using
//! a time-to-digital converter programmed onto the same device later.
//!
//! Built on the substrates in this workspace ([`bti_physics`] aging,
//! [`fpga_fabric`] devices, [`tdc`] sensing, [`cloud`] platform), it
//! provides:
//!
//! * **Experiment machinery** (Section 5.2): the calibration / condition /
//!   measurement phase loop, the paper's 4×16-route layouts
//!   ([`Skeleton`]), target and measure design builders, and runners for
//!   the lab bench ([`LabExperiment`]) and the cloud.
//! * **Threat models** (Section 2): [`threat_model1`] extracts Type A
//!   design data from a rented marketplace AFI; [`threat_model2`] recovers
//!   Type B user data from a device the victim already relinquished.
//! * **Classifiers**: drift-slope classification for Threat Model 1,
//!   recovery-slope classification for Threat Model 2, calibrated from an
//!   attacker-side reference model.
//! * **Analysis**: the kernel regression the paper smooths its figures
//!   with, ordinary least squares, and separation metrics.
//! * **Mitigations** (Section 8): periodic inversion, route shortening,
//!   hold-and-recover, wear leveling, and provider quarantine — each
//!   implemented and measurable.
//! * **Reporting**: CSV series and ASCII plots for the figure harness.
//!
//! # Quickstart: recover a burned-in bit
//!
//! ```
//! use bti_physics::{Hours, LogicLevel};
//! use pentimento::{LabExperiment, LabExperimentConfig, MeasurementMode};
//!
//! let config = LabExperimentConfig {
//!     route_lengths_ps: vec![5_000.0],
//!     routes_per_length: 4,
//!     burn_hours: 50,
//!     recovery_hours: 0,
//!     measure_every: 10,
//!     mode: MeasurementMode::Oracle,
//!     seed: 7,
//! };
//! let mut exp = LabExperiment::new(config)?;
//! let outcome = exp.run()?;
//! // Every burned bit is recoverable from the drift direction.
//! for series in &outcome.series {
//!     let drift = series.last_delta_ps();
//!     assert_eq!(drift > 0.0, series.burn_value == LogicLevel::One);
//! }
//! # let _ = Hours::ZERO;
//! # Ok::<(), pentimento::PentimentoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod audit;
pub mod campaign;
mod classify;
pub mod covert;
mod designs;
mod error;
mod experiment;
mod metrics;
mod mitigations;
mod report;
mod series;
mod skeleton;
pub mod threat_model1;
pub mod threat_model2;

pub use campaign::{
    Campaign, CampaignCheckpoint, CampaignConfig, CampaignOutcome, CampaignStats,
    DeviceFingerprint, Mission,
};
pub use classify::{
    BitClassifier, Classification, DriftSlopeClassifier, MatchedFilterClassifier,
    RecoverySlopeClassifier, Verdict,
};
pub use designs::{
    build_condition_design, build_measure_design, build_target_design, ARITHMETIC_HEAVY_WATTS,
    CONDITION_WATTS,
};
pub use error::PentimentoError;
pub use experiment::{
    ExperimentOutcome, LabExperiment, LabExperimentConfig, MeasurementMode, Phase,
};
pub use metrics::{
    accuracy, bit_error_rate, roc_auc, roc_curve, roc_curve_counted, separation_dprime,
    RecoveryMetrics, RocPoint,
};
pub use mitigations::{evaluate_mitigation, Mitigation, MitigationReport};
pub use report::{ascii_chart, series_to_csv, AsciiChartConfig};
pub use series::RouteSeries;
pub use skeleton::{RouteGroupSpec, Skeleton, SkeletonEntry};
