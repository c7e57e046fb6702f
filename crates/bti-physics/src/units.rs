//! Strongly-typed physical quantities used throughout the simulation.
//!
//! Newtypes keep picoseconds, hours and temperatures from being confused
//! with one another (C-NEWTYPE). All wrap `f64` and are `Copy`.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

macro_rules! quantity {
    ($(#[$doc:meta])* $name:ident, $unit:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from a raw value.
            ///
            /// # Panics
            ///
            /// Panics if `value` is NaN; quantities must always be ordered.
            #[must_use]
            pub fn new(value: f64) -> Self {
                assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                Self(value)
            }

            /// Returns the raw `f64` value in this quantity's unit.
            #[must_use]
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of the quantity.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl From<f64> for $name {
            fn from(value: f64) -> Self {
                Self::new(value)
            }
        }
    };
}

quantity!(
    /// A signal delay or delay change, in picoseconds.
    ///
    /// The paper reports all route lengths and all BTI drifts in
    /// picoseconds; the TDC converts carry-chain bits to time at
    /// 2.8 ps per bit on UltraScale+ parts.
    Picoseconds,
    "ps"
);

quantity!(
    /// A span of wall-clock experiment time, in hours.
    ///
    /// Burn-in and recovery periods in the paper run for hundreds of
    /// hours; measurement phases take well under a minute.
    Hours,
    "h"
);

quantity!(
    /// A temperature in degrees Celsius.
    Celsius,
    "°C"
);

quantity!(
    /// An absolute temperature in Kelvin.
    Kelvin,
    "K"
);

impl Celsius {
    /// Converts the temperature to Kelvin.
    #[must_use]
    pub fn to_kelvin(self) -> Kelvin {
        Kelvin::new(self.value() + 273.15)
    }
}

impl Kelvin {
    /// Converts the absolute temperature to degrees Celsius.
    #[must_use]
    pub fn to_celsius(self) -> Celsius {
        Celsius::new(self.value() - 273.15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_f64() {
        let a = Picoseconds::new(10.0);
        let b = Picoseconds::new(4.0);
        assert_eq!((a + b).value(), 14.0);
        assert_eq!((a - b).value(), 6.0);
        assert_eq!((a * 2.0).value(), 20.0);
        assert_eq!((a / 2.0).value(), 5.0);
        assert_eq!(a / b, 2.5);
        assert_eq!((-a).value(), -10.0);
    }

    #[test]
    fn celsius_kelvin_round_trip() {
        let t = Celsius::new(60.0);
        let k = t.to_kelvin();
        assert!((k.value() - 333.15).abs() < 1e-9);
        assert!((k.to_celsius().value() - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_rejected() {
        let _ = Hours::new(f64::NAN);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Picoseconds::new(2.8).to_string(), "2.8 ps");
        assert_eq!(Celsius::new(60.0).to_string(), "60 °C");
    }

    #[test]
    fn min_max_abs() {
        let a = Hours::new(-3.0);
        assert_eq!(a.abs().value(), 3.0);
        assert_eq!(a.min(Hours::ZERO).value(), -3.0);
        assert_eq!(a.max(Hours::ZERO).value(), 0.0);
    }
}
