//! Logic levels, BTI polarities, and stress duty cycles.

use std::fmt;
use std::ops::Not;

use serde::{Deserialize, Serialize};

/// A static logic level held on an FPGA resource.
///
/// Holding [`LogicLevel::Zero`] stresses PMOS transistors (NBTI); holding
/// [`LogicLevel::One`] stresses NMOS transistors (PBTI) — Figure 2 of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LogicLevel {
    /// Logical 0 / GND ("red" in the paper's target design figure).
    Zero,
    /// Logical 1 / VCC ("green" in the paper's target design figure).
    One,
}

impl LogicLevel {
    /// Converts a boolean (`true` = 1) into a logic level.
    #[must_use]
    pub fn from_bool(bit: bool) -> Self {
        if bit {
            Self::One
        } else {
            Self::Zero
        }
    }

    /// Returns `true` when the level is logical 1.
    #[must_use]
    pub fn as_bool(self) -> bool {
        matches!(self, Self::One)
    }

    /// The duty cycle corresponding to holding this level statically.
    #[must_use]
    pub fn duty(self) -> DutyCycle {
        match self {
            Self::Zero => DutyCycle::ALWAYS_ZERO,
            Self::One => DutyCycle::ALWAYS_ONE,
        }
    }
}

impl Not for LogicLevel {
    type Output = Self;

    /// The complement, used when the paper switches burn value `X` to `X̄`.
    fn not(self) -> Self {
        match self {
            Self::Zero => Self::One,
            Self::One => Self::Zero,
        }
    }
}

impl From<bool> for LogicLevel {
    fn from(bit: bool) -> Self {
        Self::from_bool(bit)
    }
}

impl fmt::Display for LogicLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero => f.write_str("0"),
            Self::One => f.write_str("1"),
        }
    }
}

/// The two polarities of bias temperature instability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// Negative BTI: PMOS degradation under logical 0; slows rising edges.
    Nbti,
    /// Positive BTI: NMOS degradation under logical 1; slows falling edges.
    Pbti,
}

impl Polarity {
    /// Both polarities, in a fixed order.
    pub const ALL: [Self; 2] = [Self::Nbti, Self::Pbti];
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Nbti => f.write_str("NBTI"),
            Self::Pbti => f.write_str("PBTI"),
        }
    }
}

/// The fraction of time a node spends at logical 1 over an interval.
///
/// A statically held 1 is duty 1.0; a statically held 0 is duty 0.0; a
/// node that is periodically inverted (the paper's Section 8 user
/// mitigation) has duty 0.5. The aging kinetics treat intermediate duty
/// cycles in the fast-toggling limit: capture and emission rates are
/// scaled by the time share of stress vs. relief.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct DutyCycle(f64);

impl DutyCycle {
    /// Node statically held at logical 0 (pure NBTI stress).
    pub const ALWAYS_ZERO: Self = Self(0.0);
    /// Node statically held at logical 1 (pure PBTI stress).
    pub const ALWAYS_ONE: Self = Self(1.0);
    /// Node spending equal time at both levels (inversion mitigation).
    pub const BALANCED: Self = Self(0.5);

    /// Creates a duty cycle.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BtiError::InvalidDutyCycle`] when `fraction_at_one`
    /// is outside `[0, 1]` or not finite.
    pub fn new(fraction_at_one: f64) -> Result<Self, crate::BtiError> {
        if !(0.0..=1.0).contains(&fraction_at_one) || !fraction_at_one.is_finite() {
            return Err(crate::BtiError::InvalidDutyCycle(fraction_at_one));
        }
        Ok(Self(fraction_at_one))
    }

    /// Fraction of time spent at logical 1.
    #[must_use]
    pub fn fraction_at_one(self) -> f64 {
        self.0
    }

    /// Fraction of time spent at logical 0.
    #[must_use]
    fn fraction_at_zero(self) -> f64 {
        1.0 - self.0
    }

    /// Fraction of time this duty stresses the given polarity.
    #[must_use]
    pub fn stress_share(self, polarity: Polarity) -> f64 {
        match polarity {
            Polarity::Nbti => self.fraction_at_zero(),
            Polarity::Pbti => self.fraction_at_one(),
        }
    }
}

impl From<LogicLevel> for DutyCycle {
    fn from(level: LogicLevel) -> Self {
        level.duty()
    }
}

impl fmt::Display for DutyCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "duty {:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_matches_paper_x_bar() {
        assert_eq!(!LogicLevel::One, LogicLevel::Zero);
        assert_eq!(!LogicLevel::Zero, LogicLevel::One);
    }

    #[test]
    fn duty_shares_sum_to_one() {
        let d = DutyCycle::new(0.3).unwrap();
        let total = d.stress_share(Polarity::Nbti) + d.stress_share(Polarity::Pbti);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn static_levels_map_to_extreme_duties() {
        assert_eq!(LogicLevel::One.duty(), DutyCycle::ALWAYS_ONE);
        assert_eq!(LogicLevel::Zero.duty(), DutyCycle::ALWAYS_ZERO);
        assert_eq!(DutyCycle::ALWAYS_ONE.stress_share(Polarity::Pbti), 1.0);
        assert_eq!(DutyCycle::ALWAYS_ONE.stress_share(Polarity::Nbti), 0.0);
    }

    #[test]
    fn invalid_duty_rejected() {
        assert!(DutyCycle::new(-0.1).is_err());
        assert!(DutyCycle::new(1.1).is_err());
        assert!(DutyCycle::new(f64::NAN).is_err());
        assert!(DutyCycle::new(0.5).is_ok());
    }

    #[test]
    fn bool_round_trip() {
        assert!(LogicLevel::from_bool(true).as_bool());
        assert!(!LogicLevel::from_bool(false).as_bool());
        assert_eq!(LogicLevel::from(true), LogicLevel::One);
    }
}
