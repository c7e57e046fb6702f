//! Design auditing: the Section 8.1 "verification tools" idea, built.
//!
//! > "Verification tools could analyze the design or bitstream for
//! > sensitive data residing on long routes. … Providing a more precise
//! > measure of protection (e.g., vulnerability metric) enables even
//! > stronger hardware security verification."
//!
//! [`audit_design`] takes any [`fpga_fabric::Design`], a list of nets the
//! designer labels sensitive, and an attack scenario, and reports per-net
//! exposure: the route length, the expected |Δps| imprint, and a verdict
//! against the attacker's sensing floor.

use std::fmt;

use bti_physics::{AgingArena, BtiModel, Celsius, Hours, LogicLevel};
use fpga_fabric::{Design, NetActivity};
use serde::{Deserialize, Serialize};

use crate::PentimentoError;

/// The attack scenario an audit assumes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditScenario {
    /// How long the design is expected to run while holding its secrets.
    pub exposure_hours: f64,
    /// Die temperature during that exposure.
    pub temperature: Celsius,
    /// Assumed device wear factor (1.0 = factory new; ≈0.1 = an aged
    /// cloud board — auditing against 1.0 is the conservative choice).
    pub wear_factor: f64,
    /// The attacker's sensing floor: the smallest |Δps| their measurement
    /// pipeline can classify, in picoseconds.
    pub sensing_floor_ps: f64,
}

impl AuditScenario {
    /// The conservative default: 200 h on a new device at 60 °C against
    /// an attacker who resolves 0.3 ps after averaging.
    #[must_use]
    pub fn conservative() -> Self {
        Self {
            exposure_hours: 200.0,
            temperature: Celsius::new(60.0),
            wear_factor: 1.0,
            sensing_floor_ps: 0.3,
        }
    }

    /// A realistic aged-cloud scenario (Experiment 2 conditions).
    #[must_use]
    #[cfg(test)]
    fn aged_cloud() -> Self {
        Self {
            exposure_hours: 200.0,
            temperature: Celsius::new(70.0),
            wear_factor: 0.1,
            sensing_floor_ps: 0.3,
        }
    }
}

/// Exposure verdict for one sensitive net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Exposure {
    /// The expected imprint clears the attacker's sensing floor.
    Exposed,
    /// Within 3 dB of the floor: one process corner away from exposed.
    Marginal,
    /// Well below the floor under this scenario.
    Safe,
}

impl fmt::Display for Exposure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Exposed => f.write_str("EXPOSED"),
            Self::Marginal => f.write_str("marginal"),
            Self::Safe => f.write_str("safe"),
        }
    }
}

/// One audited net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetAudit {
    /// The net's name in the design.
    pub net_name: String,
    /// Net index within the design.
    pub net_index: usize,
    /// Nominal route length, in picoseconds (0 for unrouted nets).
    pub route_ps: f64,
    /// Expected |Δps| imprint after the scenario's exposure.
    pub expected_imprint_ps: f64,
    /// Verdict against the scenario's sensing floor.
    pub exposure: Exposure,
    /// Whether the net's activity makes it imprintable at all (statically
    /// held nets are; balanced/dynamic nets are not).
    pub imprintable: bool,
}

/// The full audit report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignAuditReport {
    /// Name of the audited design.
    pub design_name: String,
    /// The scenario assumed.
    pub scenario: AuditScenario,
    /// Per-net findings, most exposed first.
    pub nets: Vec<NetAudit>,
}

impl DesignAuditReport {
    /// Number of nets with an [`Exposure::Exposed`] verdict.
    #[must_use]
    pub fn exposed_count(&self) -> usize {
        self.nets
            .iter()
            .filter(|n| n.exposure == Exposure::Exposed)
            .count()
    }

    /// The design-level vulnerability metric: the fraction of sensitive
    /// nets whose imprint clears the attacker's floor.
    #[must_use]
    pub fn vulnerability(&self) -> f64 {
        if self.nets.is_empty() {
            return 0.0;
        }
        self.exposed_count() as f64 / self.nets.len() as f64
    }
}

/// Audits `design` for pentimento exposure of the nets listed in
/// `sensitive_nets` (indices into the design's net table).
///
/// # Errors
///
/// Returns [`PentimentoError::InvalidConfig`] when a net index is out of
/// range or the scenario parameters are not physical.
pub fn audit_design(
    design: &Design,
    sensitive_nets: &[usize],
    scenario: AuditScenario,
) -> Result<DesignAuditReport, PentimentoError> {
    let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
    if !positive(scenario.exposure_hours)
        || !positive(scenario.wear_factor)
        || !positive(scenario.sensing_floor_ps)
    {
        return Err(PentimentoError::InvalidConfig(
            "audit scenario parameters must be positive".to_owned(),
        ));
    }
    let model = BtiModel::ultrascale_plus();
    // One reference burn per polarity is enough: the imprint scales
    // linearly in route length and wear.
    let imprint_per_ps = |level: LogicLevel| -> f64 {
        let mut route = AgingArena::new(&model);
        let slot = route.ensure(0);
        route.advance_slot(
            slot,
            &model,
            Hours::new(scenario.exposure_hours),
            level.duty(),
            scenario.temperature,
        );
        route
            .view_at(slot)
            .delta_ps_scaled(&model, 1.0, scenario.wear_factor)
            .abs()
    };
    let per_ps = [
        imprint_per_ps(LogicLevel::Zero),
        imprint_per_ps(LogicLevel::One),
    ];

    let mut nets = Vec::with_capacity(sensitive_nets.len());
    for &index in sensitive_nets {
        let net = design.nets().get(index).ok_or_else(|| {
            PentimentoError::InvalidConfig(format!("net index {index} out of range"))
        })?;
        let route_ps = net.route.as_ref().map_or(0.0, |r| r.nominal_ps());
        let (imprintable, expected_imprint_ps) = match net.activity {
            NetActivity::Static(level) => (true, per_ps[usize::from(level.as_bool())] * route_ps),
            // Balanced or dynamic nets leave (almost) no differential
            // imprint; audit them as the worst case of their residual.
            NetActivity::Duty(d) => {
                let skew = (d.fraction_at_one() - 0.5).abs() * 2.0;
                (skew > 0.1, per_ps[1] * route_ps * skew)
            }
            NetActivity::Dynamic => (false, 0.0),
        };
        let exposure = if !imprintable || expected_imprint_ps < scenario.sensing_floor_ps / 2.0 {
            Exposure::Safe
        } else if expected_imprint_ps < scenario.sensing_floor_ps {
            Exposure::Marginal
        } else {
            Exposure::Exposed
        };
        nets.push(NetAudit {
            net_name: net.name.clone(),
            net_index: index,
            route_ps,
            expected_imprint_ps,
            exposure,
            imprintable,
        });
    }
    nets.sort_by(|a, b| {
        b.expected_imprint_ps
            .partial_cmp(&a.expected_imprint_ps)
            .expect("imprints are finite")
    });
    Ok(DesignAuditReport {
        design_name: design.name().to_owned(),
        scenario,
        nets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_target_design, RouteGroupSpec, Skeleton};
    use fpga_fabric::FpgaDevice;

    fn audited_design() -> (Design, Vec<usize>) {
        let device = FpgaDevice::zcu102_new(91);
        let skeleton = Skeleton::place(
            &device,
            &[
                RouteGroupSpec {
                    target_ps: 10_000.0,
                    count: 1,
                },
                RouteGroupSpec {
                    target_ps: 90.0,
                    count: 1,
                },
            ],
        )
        .expect("fits");
        let design = build_target_design(&skeleton, &[LogicLevel::One, LogicLevel::Zero]);
        (design, vec![0, 1])
    }

    #[test]
    fn long_static_nets_are_exposed_short_ones_safe() {
        let (design, nets) = audited_design();
        let report = audit_design(&design, &nets, AuditScenario::conservative()).unwrap();
        assert_eq!(report.nets.len(), 2);
        // Sorted most-exposed first.
        assert!(report.nets[0].route_ps > report.nets[1].route_ps);
        assert_eq!(report.nets[0].exposure, Exposure::Exposed);
        assert_eq!(report.nets[1].exposure, Exposure::Safe);
        assert!((report.vulnerability() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aged_cloud_scenario_is_more_forgiving() {
        let (design, nets) = audited_design();
        let new_dev = audit_design(&design, &nets, AuditScenario::conservative()).unwrap();
        let aged = audit_design(&design, &nets, AuditScenario::aged_cloud()).unwrap();
        assert!(aged.nets[0].expected_imprint_ps < 0.2 * new_dev.nets[0].expected_imprint_ps);
    }

    #[test]
    fn dynamic_nets_are_safe() {
        let mut design = Design::new("d");
        design.add_net("bus", NetActivity::Dynamic, None);
        let report = audit_design(&design, &[0], AuditScenario::conservative()).unwrap();
        assert_eq!(report.nets[0].exposure, Exposure::Safe);
        assert!(!report.nets[0].imprintable);
    }

    #[test]
    fn bad_inputs_rejected() {
        let (design, _) = audited_design();
        assert!(audit_design(&design, &[9_999], AuditScenario::conservative()).is_err());
        let mut bad = AuditScenario::conservative();
        bad.exposure_hours = 0.0;
        assert!(audit_design(&design, &[0], bad).is_err());
    }
}
