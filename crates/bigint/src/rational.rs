//! Exact rational numbers.
//!
//! [`Rational`] is an always-normalized fraction: the denominator is
//! strictly positive and `gcd(|num|, den) = 1`. Used by the rational
//! Gaussian elimination path in `ccmx-linalg` (the oracle, and E14's
//! baseline against fraction-free Bareiss elimination).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::gcd::gcd;
use crate::{Integer, Natural};

/// An exact rational number `num / den` with `den > 0` and the fraction in
/// lowest terms.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: Integer,
    den: Natural,
}

impl Rational {
    /// The value 0.
    pub fn zero() -> Self {
        Rational {
            num: Integer::zero(),
            den: Natural::one(),
        }
    }

    /// The value 1.
    pub fn one() -> Self {
        Rational {
            num: Integer::one(),
            den: Natural::one(),
        }
    }

    /// Build `num / den`, normalizing. Panics if `den` is zero.
    pub fn new(num: Integer, den: Integer) -> Self {
        assert!(!den.is_zero(), "Rational with zero denominator");
        let num = if den.is_negative() { -num } else { num };
        let den = den.magnitude().clone();
        Self::normalized(num, den)
    }

    fn normalized(num: Integer, den: Natural) -> Self {
        debug_assert!(!den.is_zero());
        if num.is_zero() {
            return Rational::zero();
        }
        let g = gcd(num.magnitude(), &den);
        if g.is_one() {
            Rational { num, den }
        } else {
            Rational {
                num: Integer::from_sign_magnitude(num.sign(), num.magnitude() / &g),
                den: &den / &g,
            }
        }
    }

    /// Numerator (sign-carrying).
    pub fn numerator(&self) -> &Integer {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denominator(&self) -> &Natural {
        &self.den
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Is this one?
    pub fn is_one(&self) -> bool {
        self.num.is_one() && self.den.is_one()
    }

    /// Is this an integer?
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Is this strictly negative?
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational {
            num: Integer::from_sign_magnitude(self.num.sign(), self.den.clone()),
            den: self.num.magnitude().clone(),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Convert to [`Integer`] if the denominator is 1.
    pub fn to_integer(&self) -> Option<Integer> {
        self.is_integer().then(|| self.num.clone())
    }

    /// Approximate `f64` value (reporting only).
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / Integer::from(self.den.clone()).to_f64()
    }
}

impl From<Integer> for Rational {
    fn from(i: Integer) -> Self {
        Rational {
            num: i,
            den: Natural::one(),
        }
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::from(Integer::from(v))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  <=>  a*d vs c*b  (b, d > 0)
        let lhs = &self.num * &Integer::from(other.den.clone());
        let rhs = &other.num * &Integer::from(self.den.clone());
        lhs.cmp(&rhs)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn add_impl(a: &Rational, b: &Rational) -> Rational {
    let num = &(&a.num * &Integer::from(b.den.clone())) + &(&b.num * &Integer::from(a.den.clone()));
    let den = &a.den * &b.den;
    Rational::normalized(num, den)
}

fn mul_impl(a: &Rational, b: &Rational) -> Rational {
    Rational::normalized(&a.num * &b.num, &a.den * &b.den)
}

impl<'b> Add<&'b Rational> for &Rational {
    type Output = Rational;
    fn add(self, rhs: &'b Rational) -> Rational {
        add_impl(self, rhs)
    }
}
impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        add_impl(&self, &rhs)
    }
}
impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = add_impl(self, rhs);
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}
impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl<'b> Sub<&'b Rational> for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &'b Rational) -> Rational {
        add_impl(self, &-rhs)
    }
}
impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        add_impl(&self, &-rhs)
    }
}
impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = add_impl(self, &-rhs);
    }
}

impl<'b> Mul<&'b Rational> for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &'b Rational) -> Rational {
        mul_impl(self, rhs)
    }
}
impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        mul_impl(&self, &rhs)
    }
}
impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = mul_impl(self, rhs);
    }
}

impl<'b> Div<&'b Rational> for &Rational {
    type Output = Rational;
    fn div(self, rhs: &'b Rational) -> Rational {
        mul_impl(self, &rhs.recip())
    }
}
impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        mul_impl(&self, &rhs.recip())
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(Integer::from(n), Integer::from(d))
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 7), Rational::zero());
        assert_eq!(r(6, 3).to_integer().unwrap(), Integer::from(2i64));
        assert!(!r(-3, 6).denominator().is_zero());
        assert!(r(-1, 2).is_negative());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn field_ops() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(2, 3) / r(4, 9), r(3, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
        assert_eq!(r(-1, 2).recip(), r(-2, 1));
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = Rational::zero().recip();
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(-1, 2) < Rational::zero());
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-4, 2).to_string(), "-2");
        assert_eq!(Rational::zero().to_string(), "0");
    }

    #[test]
    fn exactness_of_long_chains() {
        // sum_{i=1..n} 1/(i(i+1)) = n/(n+1), telescoping — a classic test
        // that floating point fails and exact rationals pass.
        let mut sum = Rational::zero();
        let n = 50i64;
        for i in 1..=n {
            sum += &r(1, i * (i + 1));
        }
        assert_eq!(sum, r(n, n + 1));
    }

    #[test]
    fn to_f64_sane() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r(-7, 2).to_f64() + 3.5).abs() < 1e-12);
    }
}
