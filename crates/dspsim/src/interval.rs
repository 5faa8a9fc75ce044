//! Closed non-negative intervals: the abstract domain the steady-state
//! model in [`crate::analytical`] is lifted to.
//!
//! Every quantity of the model is non-negative, and on non-negative
//! operands each arithmetic operation is monotone in each argument. So
//! the interval operations pair endpoints: increasing operands contribute
//! their endpoint of the same side, decreasing ones (a subtrahend, a
//! divisor) the opposite side. An expression written once against
//! [`crate::analytical::Num`] therefore evaluates, at `Interval`, to
//! exactly the point expression at the lower inputs and at the upper
//! inputs, operation for operation, which is what keeps the brackets'
//! endpoints bitwise-comparable to the solver.

use std::ops::{Add, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A closed non-negative interval `[lo, hi]`, `hi = ∞` allowed.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    pub const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(
            lo <= hi || lo.is_nan() || hi.is_nan(),
            "inverted interval [{lo}, {hi}]"
        );
        Interval { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Self {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Multiply by a non-negative scalar.
    pub fn scale(self, k: f64) -> Self {
        debug_assert!(k >= 0.0);
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }

    /// Whether `v` lies inside, up to a relative slack of `1e-9` (room for
    /// rounding when a point computed along another path is checked
    /// against a bracket).
    pub fn contains(self, v: f64) -> bool {
        let lo = self.lo - self.lo.abs() * 1e-9 - 1e-12;
        let hi = self.hi + self.hi.abs() * 1e-9 + 1e-12;
        v >= lo && v <= hi
    }

    /// A meaningful (non-vacuous, non-inverted) interval: no NaN
    /// endpoints, `0 ≤ lo ≤ hi`. `hi = ∞` is allowed (count windows at
    /// rate 0 never fire).
    pub fn is_wellformed(self) -> bool {
        !self.lo.is_nan() && !self.hi.is_nan() && self.lo >= 0.0 && self.lo <= self.hi
    }

    pub fn width(self) -> f64 {
        self.hi - self.lo
    }
}

impl Add for Interval {
    type Output = Interval;

    fn add(self, other: Interval) -> Interval {
        Interval::new(self.lo + other.lo, self.hi + other.hi)
    }
}

impl Sub for Interval {
    type Output = Interval;

    fn sub(self, other: Interval) -> Interval {
        Interval::new(self.lo - other.hi, self.hi - other.lo)
    }
}

impl Mul for Interval {
    type Output = Interval;

    /// Product of non-negative intervals.
    fn mul(self, other: Interval) -> Interval {
        Interval::new(self.lo * other.lo, self.hi * other.hi)
    }
}

impl Div for Interval {
    type Output = Interval;

    /// Quotient of non-negative intervals (the divisor's upper endpoint
    /// gives the lower quotient).
    fn div(self, other: Interval) -> Interval {
        Interval::new(self.lo / other.hi, self.hi / other.lo)
    }
}

impl Add<f64> for Interval {
    type Output = Interval;

    fn add(self, c: f64) -> Interval {
        Interval::new(self.lo + c, self.hi + c)
    }
}

impl Sub<f64> for Interval {
    type Output = Interval;

    fn sub(self, c: f64) -> Interval {
        Interval::new(self.lo - c, self.hi - c)
    }
}

impl Mul<f64> for Interval {
    type Output = Interval;

    /// Multiply by a non-negative scalar.
    fn mul(self, c: f64) -> Interval {
        self.scale(c)
    }
}

impl Div<f64> for Interval {
    type Output = Interval;

    /// Divide by a positive scalar.
    fn div(self, c: f64) -> Interval {
        Interval::new(self.lo / c, self.hi / c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let a = Interval::new(1.0, 2.0);
        assert!(a.contains(1.0) && a.contains(2.0) && a.contains(1.5));
        assert!(!a.contains(0.5) && !a.contains(2.5));
        assert!(a.is_wellformed());
        assert!(!Interval { lo: 2.0, hi: 1.0 }.is_wellformed());
        assert!(!Interval {
            lo: f64::NAN,
            hi: 1.0
        }
        .is_wellformed());
        assert!(Interval::new(0.0, f64::INFINITY).is_wellformed());
        assert_eq!(a.hull(Interval::point(3.0)), Interval::new(1.0, 3.0));
        assert_eq!(a + a, Interval::new(2.0, 4.0));
        assert_eq!(a.scale(2.0), Interval::new(2.0, 4.0));
        assert_eq!(a.width(), 1.0);
    }

    #[test]
    fn operations_pair_endpoints_by_monotonicity() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(4.0, 8.0);
        assert_eq!(b - a, Interval::new(2.0, 7.0));
        assert_eq!(a * b, Interval::new(4.0, 16.0));
        assert_eq!(b / a, Interval::new(2.0, 8.0));
        assert_eq!(
            a / Interval::new(1.0, f64::INFINITY),
            Interval::new(0.0, 2.0)
        );
        assert_eq!(a + 1.0, Interval::new(2.0, 3.0));
        assert_eq!(b / 4.0, Interval::new(1.0, 2.0));
    }
}
