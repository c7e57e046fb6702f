//! Netlists: cells, nets, and the designs a tenant loads onto a device.
//!
//! A [`Design`] is the digital artifact a user ships to the cloud (the
//! paper's AFI): placed cells, routed nets, and the logic values or
//! activity each net carries. Secrets enter the picture as
//! [`NetActivity::Static`] values — netlist constants (Type A data) or
//! runtime-loaded values (Type B data) that sit unchanged on routes and
//! burn in.

use bti_physics::{DutyCycle, LogicLevel};
use serde::{Deserialize, Serialize};

use crate::{FabricError, Route, TileCoord, WireId};

/// The logic activity a net exhibits while its design runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetActivity {
    /// The net statically holds one logic level (a secret bit, a netlist
    /// constant). This is what creates an exploitable pentimento.
    Static(LogicLevel),
    /// The net spends the given fraction of time at logical 1 (used by
    /// mitigations such as periodic inversion).
    Duty(DutyCycle),
    /// The net toggles with data. Modeled as a balanced duty cycle, which
    /// leaves almost no differential imprint.
    Dynamic,
}

impl NetActivity {
    /// The effective duty cycle of this activity.
    #[must_use]
    pub fn duty(self) -> DutyCycle {
        match self {
            Self::Static(level) => level.duty(),
            Self::Duty(d) => d,
            Self::Dynamic => DutyCycle::BALANCED,
        }
    }
}

/// The kind of a placed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// A clocked storage element. Breaks combinational cycles.
    Register,
    /// A look-up table (combinational).
    Lut,
    /// A CARRY8 fast-carry element (combinational).
    Carry8,
    /// A DSP multiply-accumulate block (the paper's "Arithmetic Heavy"
    /// filler that heats the die).
    DspMac,
    /// The TDC's transition generator (clocked).
    TransitionGenerator,
    /// A programmable clock generator (MMCM-like, clocked).
    ClockGenerator,
}

impl CellKind {
    /// Whether a cycle through this cell is a combinational loop.
    ///
    /// Cloud design rule checks reject combinational cycles because they
    /// form ring oscillators (Section 7: why RO sensors are banned while
    /// the TDC passes).
    #[must_use]
    pub fn is_combinational(self) -> bool {
        matches!(self, Self::Lut | Self::Carry8)
    }
}

/// A placed cell instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Instance name.
    pub name: String,
    /// What the cell is.
    pub kind: CellKind,
    /// Where it is placed, if placed.
    pub location: Option<TileCoord>,
    /// Indices of the nets feeding this cell.
    pub inputs: Vec<usize>,
    /// Index of the net this cell drives, if any.
    pub output: Option<usize>,
}

/// A routed net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// The activity the net exhibits at runtime.
    pub activity: NetActivity,
    /// The physical route, if routed. Unrouted nets exist only logically
    /// and age nothing.
    pub route: Option<Route>,
}

/// A complete design: the digital image loaded onto an FPGA.
///
/// # Example
///
/// ```
/// use bti_physics::LogicLevel;
/// use fpga_fabric::{Design, NetActivity};
///
/// let mut design = Design::new("victim-afi");
/// design.set_power_watts(63.0);
/// let key_bit = design.add_net("key[0]", NetActivity::Static(LogicLevel::One), None);
/// assert_eq!(design.nets().len(), 1);
/// assert_eq!(key_bit, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Design {
    name: String,
    power_watts: f64,
    cells: Vec<Cell>,
    nets: Vec<Net>,
}

impl Design {
    /// Creates an empty design.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            power_watts: 5.0,
            cells: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// The design's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total power the design dissipates while running, in watts.
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        self.power_watts
    }

    /// Sets the design's running power (AWS caps F1 designs at 85 W; the
    /// paper's target design draws 63 W).
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn set_power_watts(&mut self, watts: f64) {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "power must be finite and non-negative"
        );
        self.power_watts = watts;
    }

    /// Adds a net and returns its index.
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        activity: NetActivity,
        route: Option<Route>,
    ) -> usize {
        self.nets.push(Net {
            name: name.into(),
            activity,
            route,
        });
        self.nets.len() - 1
    }

    /// Adds a cell and returns its index.
    ///
    /// `inputs` and `output` refer to net indices returned by
    /// [`add_net`](Design::add_net).
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        kind: CellKind,
        location: Option<TileCoord>,
        inputs: Vec<usize>,
        output: Option<usize>,
    ) -> usize {
        self.cells.push(Cell {
            name: name.into(),
            kind,
            location,
            inputs,
            output,
        });
        self.cells.len() - 1
    }

    /// The design's nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The design's cells.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Every physical wire used by any routed net.
    pub fn used_wires(&self) -> impl Iterator<Item = WireId> + '_ {
        self.nets
            .iter()
            .filter_map(|n| n.route.as_ref())
            .flat_map(|r| r.wire_ids())
    }

    /// Validates internal consistency: cell pin references must name
    /// existing nets, and no two nets may claim the same physical wire.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::MalformedDesign`] on a dangling net
    /// reference or [`FabricError::WireOccupied`] on a wire conflict.
    pub fn validate(&self) -> Result<(), FabricError> {
        for cell in &self.cells {
            for &n in cell.inputs.iter().chain(cell.output.iter()) {
                if n >= self.nets.len() {
                    return Err(FabricError::MalformedDesign(format!(
                        "cell {} references missing net {n}",
                        cell.name
                    )));
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        for net in &self.nets {
            if let Some(route) = &net.route {
                for w in route.wire_ids() {
                    if !seen.insert(w) {
                        return Err(FabricError::WireOccupied(w));
                    }
                }
            }
        }
        Ok(())
    }

    /// The cell driving net `net_index`, if any.
    #[must_use]
    pub fn driver_of(&self, net_index: usize) -> Option<usize> {
        self.cells.iter().position(|c| c.output == Some(net_index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_duty_mapping() {
        assert_eq!(
            NetActivity::Static(LogicLevel::One).duty(),
            DutyCycle::ALWAYS_ONE
        );
        assert_eq!(NetActivity::Dynamic.duty(), DutyCycle::BALANCED);
        let d = DutyCycle::new(0.25).unwrap();
        assert_eq!(NetActivity::Duty(d).duty(), d);
    }

    #[test]
    fn dangling_net_reference_is_rejected() {
        let mut d = Design::new("bad");
        d.add_cell("lut0", CellKind::Lut, None, vec![3], None);
        assert!(matches!(d.validate(), Err(FabricError::MalformedDesign(_))));
    }

    #[test]
    fn driver_lookup() {
        let mut d = Design::new("x");
        let n = d.add_net("n", NetActivity::Dynamic, None);
        let c = d.add_cell("lut", CellKind::Lut, None, vec![], Some(n));
        assert_eq!(d.driver_of(n), Some(c));
        assert_eq!(d.driver_of(99), None);
    }

    #[test]
    fn registers_break_combinational_chains() {
        assert!(!CellKind::Register.is_combinational());
        assert!(CellKind::Lut.is_combinational());
        assert!(CellKind::Carry8.is_combinational());
        assert!(!CellKind::TransitionGenerator.is_combinational());
    }

    #[test]
    #[should_panic(expected = "power")]
    fn negative_power_rejected() {
        let mut d = Design::new("x");
        d.set_power_watts(-1.0);
    }
}
