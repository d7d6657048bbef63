//! Strongly typed physical quantities used throughout the workspace.
//!
//! All quantities are stored internally in SI base units (`f64`), but the
//! newtypes prevent mixing incompatible dimensions and provide the obvious
//! cross-dimension arithmetic (`Power * Seconds = Energy`, and so on).
//!
//! ```
//! use tech45::units::{Energy, Power, Seconds};
//!
//! let p = Power::from_milliwatts(2.0);
//! let t = Seconds::new(3.0);
//! let e: Energy = p * t;
//! assert!((e.as_millijoules() - 6.0).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Generates a newtype wrapper around `f64` with the shared arithmetic that
/// every scalar physical quantity needs (addition, subtraction, scalar
/// multiplication/division, comparison helpers, summing).
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// Creates a quantity from a raw SI value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Zero of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw SI value.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps this quantity into `[lo, hi]`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Absolute value.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` when the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns `true` if this quantity is (numerically) zero or below.
            #[must_use]
            pub fn is_non_positive(self) -> bool {
                self.0 <= 0.0
            }

            /// Dimensionless ratio `self / other`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `other` is zero.
            #[must_use]
            pub fn ratio(self, other: Self) -> f64 {
                debug_assert!(other.0 != 0.0, "ratio denominator is zero");
                self.0 / other.0
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

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6e} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// An amount of energy, stored in joules.
    Energy,
    "J"
);
quantity!(
    /// A power level, stored in watts.
    Power,
    "W"
);
quantity!(
    /// A duration, stored in seconds.
    Seconds,
    "s"
);
quantity!(
    /// An electric potential, stored in volts.
    Voltage,
    "V"
);
quantity!(
    /// A capacitance, stored in farads.
    Capacitance,
    "F"
);

/// Attojoules per joule: the pinned scale of the fixed-point energy unit
/// [`EnergyFx`].  1 aJ = 1e-18 J resolves the paper's 25 mJ capacitor to
/// 2.5e16 quanta — finer than one f64 ulp at that magnitude (≈ 3.5 aJ), so
/// the quantisation error of a conversion is below what the old float
/// representation could even express.
pub const ATTOJOULES_PER_JOULE: f64 = 1e18;

/// An exact fixed-point amount of energy, stored as a signed integer count
/// of attojoules (1 aJ = 1e-18 J).
///
/// Unlike [`Energy`] (an `f64` of joules), addition here is *associative*:
/// `k` identical per-tick adds equal one `k · x` multiply-add bit for bit,
/// which is what lets the simulators collapse quiescent stretches to closed
/// form without renegotiating determinism per call site.  The i128 range
/// (±1.7e38 aJ ≈ ±1.7e20 J) is ~14 orders of magnitude above any
/// accumulator this workspace can produce, so overflow is structurally
/// unreachable (see DESIGN.md "Exact integer accumulators").
///
/// ```
/// use tech45::units::{Energy, EnergyFx};
///
/// let e = Energy::from_millijoules(25.0).to_fx();
/// assert_eq!(e.attojoules(), 25_000_000_000_000_000);
/// assert_eq!(e + e - e, e);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EnergyFx(i128);

impl EnergyFx {
    /// Zero energy.
    pub const ZERO: Self = Self(0);

    /// Creates a fixed-point energy from a raw attojoule count.
    #[must_use]
    pub const fn from_attojoules(aj: i128) -> Self {
        Self(aj)
    }

    /// The raw attojoule count.
    #[must_use]
    pub const fn attojoules(self) -> i128 {
        self.0
    }

    /// Quantises a floating-point [`Energy`] to the nearest attojoule.
    ///
    /// The maximum quantisation error is 0.5 aJ (5e-19 J).  Non-finite
    /// inputs follow Rust's saturating float→int cast: ±∞ pins to the i128
    /// range ends and NaN maps to zero.
    #[must_use]
    #[inline]
    pub fn from_energy(energy: Energy) -> Self {
        // Semantically this is `scaled.round() as i128`, but that form costs
        // a libm call plus a software f64→i128 conversion (`__fixdfti`) per
        // tick, which dominates the scalar simulation loop.  The ranges
        // below reproduce the same bits through hardware i64 conversions:
        //
        // * |scaled| < 2^53 — the fractional part is exact after removing
        //   the truncated integer part, so round-half-away-from-zero is one
        //   explicit adjustment;
        // * 2^53 ≤ |scaled| < 2^63 — every f64 here is an integer (the
        //   spacing is ≥ 2 aJ), so rounding is the identity and truncation
        //   converts exactly;
        // * everything else (±∞, NaN, beyond i64) — the original saturating
        //   form, off the hot path.
        let scaled = energy.value() * ATTOJOULES_PER_JOULE;
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        const I64_EDGE: f64 = 9.223_372_036_854_776e18; // 2^63
        if scaled.abs() < EXACT {
            let t = scaled as i64;
            let f = scaled - t as f64;
            let adj = i64::from(f >= 0.5) - i64::from(f <= -0.5);
            Self(i128::from(t + adj))
        } else if scaled.abs() < I64_EDGE {
            Self(i128::from(scaled as i64))
        } else {
            Self(scaled.round() as i128)
        }
    }

    /// Converts back to a floating-point [`Energy`] (rounds to the nearest
    /// representable f64; exact below 2^53 aJ ≈ 9 mJ).
    #[must_use]
    pub fn to_energy(self) -> Energy {
        Energy::new(self.0 as f64 / ATTOJOULES_PER_JOULE)
    }

    /// This energy in joules (via the same rounding as [`Self::to_energy`]).
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.0 as f64 / ATTOJOULES_PER_JOULE
    }

    /// This energy in millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.0 as f64 / 1e15
    }

    /// The larger of two energies.
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// The smaller of two energies.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// Clamps this energy into `[lo, hi]`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// Absolute value.
    #[must_use]
    pub fn abs(self) -> Self {
        Self(self.0.abs())
    }

    /// Whether this energy is zero or below.
    #[must_use]
    pub const fn is_non_positive(self) -> bool {
        self.0 <= 0
    }
}

impl Add for EnergyFx {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for EnergyFx {
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for EnergyFx {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl SubAssign for EnergyFx {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 -= rhs.0;
    }
}

impl Neg for EnergyFx {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl Mul<i128> for EnergyFx {
    type Output = Self;
    fn mul(self, rhs: i128) -> Self {
        Self(self.0 * rhs)
    }
}

impl Sum for EnergyFx {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|q| q.0).sum())
    }
}

impl fmt::Display for EnergyFx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} aJ", self.0)
    }
}

impl Energy {
    /// Quantises this energy to the nearest attojoule (see [`EnergyFx`]).
    #[must_use]
    pub fn to_fx(self) -> EnergyFx {
        EnergyFx::from_energy(self)
    }

    /// Creates an energy expressed in millijoules.
    #[must_use]
    pub const fn from_millijoules(mj: f64) -> Self {
        Self::new(mj * 1e-3)
    }

    /// Creates an energy expressed in microjoules.
    #[must_use]
    pub const fn from_microjoules(uj: f64) -> Self {
        Self::new(uj * 1e-6)
    }

    /// Creates an energy expressed in picojoules.
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Self {
        Self::new(pj * 1e-12)
    }

    /// Creates an energy expressed in femtojoules.
    #[must_use]
    pub fn from_femtojoules(fj: f64) -> Self {
        Self::new(fj * 1e-15)
    }

    /// This energy in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.value()
    }

    /// This energy in millijoules.
    #[must_use]
    pub fn as_millijoules(self) -> f64 {
        self.value() * 1e3
    }
}

impl Power {
    /// Creates a power expressed in milliwatts.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Creates a power expressed in microwatts.
    #[must_use]
    pub const fn from_microwatts(uw: f64) -> Self {
        Self::new(uw * 1e-6)
    }

    /// Creates a power expressed in nanowatts.
    #[must_use]
    pub const fn from_nanowatts(nw: f64) -> Self {
        Self::new(nw * 1e-9)
    }

    /// This power in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.value()
    }

    /// This power in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.value() * 1e3
    }

    /// This power in microwatts.
    #[must_use]
    pub fn as_microwatts(self) -> f64 {
        self.value() * 1e6
    }
}

impl Seconds {
    /// Creates a duration expressed in milliseconds.
    #[must_use]
    pub const fn from_millis(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Creates a duration expressed in microseconds.
    #[must_use]
    pub const fn from_micros(us: f64) -> Self {
        Self::new(us * 1e-6)
    }

    /// Creates a duration expressed in nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Creates a duration expressed in picoseconds.
    #[must_use]
    pub const fn from_picos(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }

    /// This duration in seconds.
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.value()
    }
}

impl Voltage {
    /// This voltage in volts.
    #[must_use]
    pub fn as_volts(self) -> f64 {
        self.value()
    }
}

impl Capacitance {
    /// This capacitance in farads.
    #[must_use]
    pub fn as_farads(self) -> f64 {
        self.value()
    }
}

// --- cross-dimension arithmetic ---------------------------------------------

impl Mul<Seconds> for Power {
    type Output = Energy;
    fn mul(self, rhs: Seconds) -> Energy {
        Energy::new(self.value() * rhs.value())
    }
}

impl Mul<Power> for Seconds {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<Seconds> for Energy {
    type Output = Power;
    fn div(self, rhs: Seconds) -> Power {
        Power::new(self.value() / rhs.value())
    }
}

impl Div<Power> for Energy {
    type Output = Seconds;
    fn div(self, rhs: Power) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

/// Energy stored on a capacitor charged to `v`: `E = C · V² / 2`.
///
/// ```
/// use tech45::units::{Capacitance, Voltage, capacitor_energy};
/// let e = capacitor_energy(Capacitance::new(2.0e-3), Voltage::new(5.0));
/// assert!((e.as_millijoules() - 25.0).abs() < 1e-9);
/// ```
#[must_use]
pub fn capacitor_energy(c: Capacitance, v: Voltage) -> Energy {
    Energy::new(0.5 * c.as_farads() * v.as_volts() * v.as_volts())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_conversions_round_trip() {
        let e = Energy::from_millijoules(25.0);
        assert!((e.as_joules() - 0.025).abs() < 1e-15);
        assert!((e.as_millijoules() - 25.0).abs() < 1e-12);
        let pj = Energy::from_picojoules(3.0);
        assert!((pj.as_joules() - 3.0e-12).abs() < 1e-21);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_milliwatts(10.0) * Seconds::new(2.0);
        assert!((e.as_millijoules() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn energy_divided_by_time_is_power() {
        let p = Energy::from_millijoules(9.0) / Seconds::new(3.0);
        assert!((p.as_milliwatts() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn energy_divided_by_power_is_time() {
        let t = Energy::from_millijoules(4.0) / Power::from_milliwatts(2.0);
        assert!((t.as_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacitor_matches_paper_parameters() {
        // 2 mF at 5 V stores exactly the paper's E_MAX = 25 mJ.
        let e = capacitor_energy(Capacitance::new(2.0e-3), Voltage::new(5.0));
        assert!((e.as_millijoules() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Energy::from_millijoules(1.0);
        let b = Energy::from_millijoules(2.0);
        assert!(a < b);
        assert_eq!((a + b).as_millijoules().round(), 3.0);
        assert_eq!((b - a).as_millijoules().round(), 1.0);
        assert_eq!(b.max(a), b);
        assert_eq!(b.min(a), a);
        assert!((b.ratio(a) - 2.0).abs() < 1e-12);
        let mut c = a;
        c += b;
        assert!((c.as_millijoules() - 3.0).abs() < 1e-12);
        c -= a;
        assert!((c.as_millijoules() - 2.0).abs() < 1e-12);
        assert!((-a).value() < 0.0);
    }

    #[test]
    fn sum_of_quantities() {
        let total: Energy = (1..=4).map(|i| Energy::from_millijoules(f64::from(i))).sum();
        assert!((total.as_millijoules() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn clamp_pins_to_the_bounds() {
        let a = Power::from_milliwatts(0.0);
        let b = Power::from_milliwatts(10.0);
        let clamped = Power::from_milliwatts(42.0).clamp(a, b);
        assert!((clamped.as_milliwatts() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_unit() {
        assert!(format!("{}", Energy::from_millijoules(1.0)).contains('J'));
        assert!(format!("{}", Power::from_milliwatts(1.0)).contains('W'));
        assert!(format!("{}", Seconds::new(1.0)).contains('s'));
    }
}
