//! The interpreter's numeric tower: machine integer -> bignum -> real ->
//! complex, with automatic promotion.
//!
//! Machine-integer overflow *promotes to arbitrary precision* instead of
//! failing — this is the interpreter behavior the compiled code's soft
//! failure mode (F2) falls back to.

use std::cmp::Ordering;
use wolfram_expr::{BigInt, Expr, ExprKind};

/// A number in the interpreter's tower.
#[derive(Debug, Clone, PartialEq)]
pub enum Num {
    /// Machine integer.
    Int(i64),
    /// Arbitrary-precision integer.
    Big(BigInt),
    /// Machine real.
    Real(f64),
    /// Machine complex.
    Complex(f64, f64),
}

impl Num {
    /// Extracts a number from a literal expression.
    pub fn from_expr(e: &Expr) -> Option<Num> {
        match e.kind() {
            ExprKind::Integer(v) => Some(Num::Int(*v)),
            ExprKind::BigInteger(b) => Some(Num::Big((**b).clone())),
            ExprKind::Real(v) => Some(Num::Real(*v)),
            ExprKind::Complex(re, im) => Some(Num::Complex(*re, *im)),
            _ => None,
        }
    }

    /// Converts back to an expression, demoting bignums that fit and
    /// complex numbers with zero imaginary part arising from real math.
    pub fn into_expr(self) -> Expr {
        match self {
            Num::Int(v) => Expr::int(v),
            Num::Big(b) => Expr::big(b),
            Num::Real(v) => Expr::real(v),
            Num::Complex(re, im) => {
                if im == 0.0 {
                    Expr::real(re)
                } else {
                    Expr::complex(re, im)
                }
            }
        }
    }

    /// Real-part approximation.
    pub fn to_f64(&self) -> f64 {
        match self {
            Num::Int(v) => *v as f64,
            Num::Big(b) => b.to_f64(),
            Num::Real(v) => *v,
            Num::Complex(re, _) => *re,
        }
    }

    /// As a complex pair.
    pub fn to_complex(&self) -> (f64, f64) {
        match self {
            Num::Complex(re, im) => (*re, *im),
            other => (other.to_f64(), 0.0),
        }
    }

    /// Whether this is an (arbitrary-size) integer.
    pub fn is_integer(&self) -> bool {
        matches!(self, Num::Int(_) | Num::Big(_))
    }

    fn big(&self) -> BigInt {
        match self {
            Num::Int(v) => BigInt::from(*v),
            Num::Big(b) => b.clone(),
            _ => unreachable!("big() on non-integer"),
        }
    }

    /// Is exactly zero.
    pub fn is_zero(&self) -> bool {
        match self {
            Num::Int(v) => *v == 0,
            Num::Big(b) => b.is_zero(),
            Num::Real(v) => *v == 0.0,
            Num::Complex(re, im) => *re == 0.0 && *im == 0.0,
        }
    }

    /// Addition with automatic promotion (overflow -> bignum).
    pub fn add(&self, rhs: &Num) -> Num {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => match a.checked_add(*b) {
                Some(v) => Num::Int(v),
                None => Num::Big(&BigInt::from(*a) + &BigInt::from(*b)).normalize(),
            },
            (a, b) if a.is_integer() && b.is_integer() => Num::Big(&a.big() + &b.big()).normalize(),
            (Num::Complex(..), _) | (_, Num::Complex(..)) => {
                let (ar, ai) = self.to_complex();
                let (br, bi) = rhs.to_complex();
                Num::Complex(ar + br, ai + bi)
            }
            _ => Num::Real(self.to_f64() + rhs.to_f64()),
        }
    }

    /// Subtraction with automatic promotion.
    pub fn sub(&self, rhs: &Num) -> Num {
        self.add(&rhs.neg())
    }

    /// Negation.
    pub fn neg(&self) -> Num {
        match self {
            Num::Int(v) => match v.checked_neg() {
                Some(n) => Num::Int(n),
                None => Num::Big(BigInt::from(*v).neg()),
            },
            Num::Big(b) => Num::Big(b.neg()).normalize(),
            Num::Real(v) => Num::Real(-v),
            Num::Complex(re, im) => Num::Complex(-re, -im),
        }
    }

    /// Multiplication with automatic promotion.
    pub fn mul(&self, rhs: &Num) -> Num {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => match a.checked_mul(*b) {
                Some(v) => Num::Int(v),
                None => Num::Big(&BigInt::from(*a) * &BigInt::from(*b)).normalize(),
            },
            (a, b) if a.is_integer() && b.is_integer() => Num::Big(&a.big() * &b.big()).normalize(),
            (Num::Complex(..), _) | (_, Num::Complex(..)) => {
                let (ar, ai) = self.to_complex();
                let (br, bi) = rhs.to_complex();
                Num::Complex(ar * br - ai * bi, ar * bi + ai * br)
            }
            _ => Num::Real(self.to_f64() * rhs.to_f64()),
        }
    }

    /// Division. Integer division yields an integer when exact, otherwise a
    /// real (this reproduction has no `Rational`; see DESIGN.md §6).
    /// Division by exact zero yields `None` (the caller decides whether
    /// that is `Indeterminate` or an error).
    pub fn div(&self, rhs: &Num) -> Option<Num> {
        if rhs.is_zero() {
            return None;
        }
        Some(match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => {
                if a % b == 0 {
                    Num::Int(a / b)
                } else {
                    Num::Real(*a as f64 / *b as f64)
                }
            }
            (Num::Complex(..), _) | (_, Num::Complex(..)) => {
                let (ar, ai) = self.to_complex();
                let (br, bi) = rhs.to_complex();
                let d = br * br + bi * bi;
                Num::Complex((ar * br + ai * bi) / d, (ai * br - ar * bi) / d)
            }
            _ => Num::Real(self.to_f64() / rhs.to_f64()),
        })
    }

    /// Exponentiation: integer bases with non-negative integer exponents
    /// stay exact (promoting to bignum), everything else goes through
    /// floating point (complex via repeated multiplication for integer
    /// exponents, polar form otherwise).
    pub fn pow(&self, rhs: &Num) -> Num {
        match (self, rhs) {
            (a, Num::Int(e)) if a.is_integer() && *e >= 0 => {
                if let (Num::Int(base), true) = (a, *e <= u32::MAX as i64) {
                    if let Some(v) = base.checked_pow(*e as u32) {
                        return Num::Int(v);
                    }
                }
                Num::Big(a.big().pow(*e as u32)).normalize()
            }
            (Num::Complex(..), Num::Int(e)) => {
                let mut acc = (1.0f64, 0.0f64);
                let (br, bi) = self.to_complex();
                for _ in 0..e.unsigned_abs() {
                    acc = (acc.0 * br - acc.1 * bi, acc.0 * bi + acc.1 * br);
                }
                if *e < 0 {
                    let d = acc.0 * acc.0 + acc.1 * acc.1;
                    acc = (acc.0 / d, -acc.1 / d);
                }
                Num::Complex(acc.0, acc.1)
            }
            (Num::Complex(..), _) | (_, Num::Complex(..)) => {
                // Principal value via polar form.
                let (br, bi) = self.to_complex();
                let (er, ei) = rhs.to_complex();
                let r = br.hypot(bi);
                let theta = bi.atan2(br);
                let ln_r = r.ln();
                let new_ln_r = er * ln_r - ei * theta;
                let new_theta = er * theta + ei * ln_r;
                let mag = new_ln_r.exp();
                Num::Complex(mag * new_theta.cos(), mag * new_theta.sin())
            }
            _ => Num::Real(self.to_f64().powf(rhs.to_f64())),
        }
    }

    /// Numeric comparison. Complex numbers are unordered (`None`) unless
    /// equal.
    pub fn compare(&self, rhs: &Num) -> Option<Ordering> {
        match (self, rhs) {
            (Num::Int(a), Num::Int(b)) => Some(a.cmp(b)),
            (a, b) if a.is_integer() && b.is_integer() => Some(a.big().cmp(&b.big())),
            (Num::Complex(ar, ai), _) => {
                let (br, bi) = rhs.to_complex();
                (*ar == br && *ai == bi).then_some(Ordering::Equal)
            }
            (_, Num::Complex(br, bi)) => {
                let (ar, ai) = self.to_complex();
                (ar == *br && ai == *bi).then_some(Ordering::Equal)
            }
            _ => self.to_f64().partial_cmp(&rhs.to_f64()),
        }
    }

    /// Demotes a bignum back to machine range when it fits.
    fn normalize(self) -> Num {
        match self {
            Num::Big(b) => match b.to_i64() {
                Some(v) => Num::Int(v),
                None => Num::Big(b),
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_promotes() {
        let a = Num::Int(i64::MAX);
        let sum = a.add(&Num::Int(1));
        assert!(matches!(sum, Num::Big(_)));
        assert_eq!(sum.into_expr().to_full_form(), "9223372036854775808");
        let prod = Num::Int(i64::MAX).mul(&Num::Int(2));
        assert!(matches!(prod, Num::Big(_)));
    }

    #[test]
    fn big_demotes_when_small() {
        let big = Num::Big(BigInt::from(1i64 << 40));
        let zero = Num::Int(0);
        assert_eq!(big.add(&zero), Num::Int(1 << 40));
    }

    #[test]
    fn mixed_promotion() {
        assert_eq!(Num::Int(1).add(&Num::Real(0.5)), Num::Real(1.5));
        assert_eq!(
            Num::Int(2).mul(&Num::Complex(0.0, 1.0)),
            Num::Complex(0.0, 2.0)
        );
    }

    #[test]
    fn division_rules() {
        assert_eq!(Num::Int(6).div(&Num::Int(3)), Some(Num::Int(2)));
        assert_eq!(Num::Int(7).div(&Num::Int(2)), Some(Num::Real(3.5)));
        assert_eq!(Num::Int(1).div(&Num::Int(0)), None);
        let z = Num::Complex(1.0, 0.0).div(&Num::Complex(0.0, 1.0)).unwrap();
        assert_eq!(z, Num::Complex(0.0, -1.0));
    }

    #[test]
    fn powers() {
        assert_eq!(Num::Int(2).pow(&Num::Int(10)), Num::Int(1024));
        assert!(matches!(Num::Int(10).pow(&Num::Int(30)), Num::Big(_)));
        assert_eq!(Num::Real(4.0).pow(&Num::Real(0.5)), Num::Real(2.0));
        // i^2 = -1
        assert_eq!(
            Num::Complex(0.0, 1.0).pow(&Num::Int(2)),
            Num::Complex(-1.0, 0.0)
        );
        // Negative integer exponent on integer base -> real.
        assert_eq!(Num::Int(2).pow(&Num::Int(-1)), Num::Real(0.5));
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(Num::Int(1).compare(&Num::Int(2)), Some(Less));
        assert_eq!(Num::Real(2.0).compare(&Num::Int(2)), Some(Equal));
        assert_eq!(Num::Complex(1.0, 1.0).compare(&Num::Int(1)), None);
        assert_eq!(Num::Complex(2.0, 0.0).compare(&Num::Int(2)), Some(Equal));
        let big = Num::Int(i64::MAX).add(&Num::Int(1));
        assert_eq!(big.compare(&Num::Int(5)), Some(Greater));
    }

    #[test]
    fn expr_roundtrip() {
        for src in ["5", "-3", "2.5", "Complex[1., 2.]"] {
            let e = wolfram_expr::parse(src).unwrap();
            // Complex literal parses as a normal expr; build the atom here.
            let e = if src.starts_with("Complex") {
                Expr::complex(1.0, 2.0)
            } else {
                e
            };
            let n = Num::from_expr(&e).unwrap();
            assert_eq!(n.into_expr(), e);
        }
    }
}
