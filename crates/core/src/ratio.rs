//! Exact non-negative rational arithmetic for costs and competitive ratios.
//!
//! Measured total costs are `u128` bin-tick counts; the paper's bounds are
//! rational functions of integer parameters (µ, k). Representing both as
//! reduced `u128/u128` rationals lets tests assert *exact* equality between
//! measured ratios and closed forms — no floating-point tolerance anywhere in
//! the reproduction path.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Sub};
use serde::{Deserialize, Serialize};

/// A non-negative rational number `num / den`, kept in lowest terms.
///
/// ```
/// use dbp_core::ratio::Ratio;
/// let measured = Ratio::new(80_000, 17_000); // cost / OPT in bin-ticks
/// let formula = Ratio::new(8, 1) * Ratio::from_int(10) / Ratio::from_int(17);
/// assert_eq!(measured, formula); // exact — no float tolerance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: u128,
    den: u128,
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

const fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Create `num / den` in lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: u128, den: u128) -> Ratio {
        assert!(den != 0, "Ratio::new: zero denominator");
        if num == 0 {
            return Ratio::ZERO;
        }
        let g = gcd(num, den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    #[inline]
    /// The ratio `v / 1`.
    pub fn from_int(v: u128) -> Ratio {
        Ratio { num: v, den: 1 }
    }

    #[inline]
    /// Numerator in lowest terms.
    pub fn numerator(self) -> u128 {
        self.num
    }

    #[inline]
    /// Denominator in lowest terms.
    pub fn denominator(self) -> u128 {
        self.den
    }

    #[inline]
    /// Whether the ratio is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether the ratio is an integer.
    #[inline]
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Lossy conversion for reporting.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Reciprocal.
    ///
    /// # Panics
    /// Panics if the ratio is zero.
    pub fn recip(self) -> Ratio {
        assert!(self.num != 0, "Ratio::recip of zero");
        Ratio {
            num: self.den,
            den: self.num,
        }
    }

    /// Checked subtraction: `None` if `self < rhs`.
    pub fn checked_sub(self, rhs: Ratio) -> Option<Ratio> {
        if self < rhs {
            return None;
        }
        Some(self - rhs)
    }

    /// The smaller of two ratios.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two ratios.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Ceiling of the rational.
    pub fn ceil(self) -> u128 {
        self.num.div_ceil(self.den)
    }

    /// Floor of the rational.
    pub fn floor(self) -> u128 {
        self.num / self.den
    }

    fn mul_checked(a: u128, b: u128, what: &str) -> u128 {
        a.checked_mul(b)
            .unwrap_or_else(|| panic!("Ratio arithmetic overflow in {what}: {a} * {b}"))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Cross-multiplication on reduced forms. Our magnitudes (costs up to
        // ~1e20 bin-ticks) are far below the u128 overflow threshold after
        // reduction; overflow panics loudly rather than corrupting results.
        let lhs = Ratio::mul_checked(self.num, other.den, "cmp");
        let rhs = Ratio::mul_checked(other.num, self.den, "cmp");
        lhs.cmp(&rhs)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        let num = Ratio::mul_checked(self.num, rhs.den, "add")
            .checked_add(Ratio::mul_checked(rhs.num, self.den, "add"))
            .expect("Ratio add overflow");
        Ratio::new(num, Ratio::mul_checked(self.den, rhs.den, "add"))
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        let lhs = Ratio::mul_checked(self.num, rhs.den, "sub");
        let sub = Ratio::mul_checked(rhs.num, self.den, "sub");
        let num = lhs
            .checked_sub(sub)
            .expect("Ratio subtraction would be negative");
        Ratio::new(num, Ratio::mul_checked(self.den, rhs.den, "sub"))
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num.max(1), rhs.den);
        let g2 = gcd(rhs.num.max(1), self.den);
        let num = Ratio::mul_checked(self.num / g1.max(1), rhs.num / g2.max(1), "mul");
        let den = Ratio::mul_checked(self.den / g2.max(1), rhs.den / g1.max(1), "mul");
        Ratio::new(num, den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    // a/b = a * (1/b) is the intended arithmetic, not a typo.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

impl From<u64> for Ratio {
    fn from(v: u64) -> Ratio {
        Ratio::from_int(v as u128)
    }
}

impl From<u128> for Ratio {
    fn from(v: u128) -> Ratio {
        Ratio::from_int(v)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Ratio::new(6, 8);
        assert_eq!(r.numerator(), 3);
        assert_eq!(r.denominator(), 4);
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a + b, Ratio::new(1, 2));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 18));
        assert_eq!(a / b, Ratio::from_int(2));
        assert_eq!((a / b).recip(), Ratio::new(1, 2));
    }

    #[test]
    fn ordering_via_cross_multiplication() {
        assert!(Ratio::new(2, 3) < Ratio::new(3, 4));
        assert!(Ratio::new(5, 1) > Ratio::new(9, 2));
        assert_eq!(Ratio::new(10, 4), Ratio::new(5, 2));
        assert_eq!(Ratio::new(1, 2).max(Ratio::new(2, 3)), Ratio::new(2, 3));
        assert_eq!(Ratio::new(1, 2).min(Ratio::new(2, 3)), Ratio::new(1, 2));
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(8, 2).ceil(), 4);
        assert_eq!(Ratio::from_int(0).ceil(), 0);
    }

    #[test]
    fn checked_sub_refuses_negative() {
        assert_eq!(Ratio::new(1, 3).checked_sub(Ratio::new(1, 2)), None);
        assert_eq!(
            Ratio::new(1, 2).checked_sub(Ratio::new(1, 3)),
            Some(Ratio::new(1, 6))
        );
    }

    #[test]
    fn paper_bound_expressible() {
        // 8/7 µ + 55/7 at µ = 10 is 135/7.
        let mu = Ratio::from_int(10);
        let bound = Ratio::new(8, 7) * mu + Ratio::new(55, 7);
        assert_eq!(bound, Ratio::new(135, 7));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }
}
