//! Checked machine arithmetic.
//!
//! "All machine numerical operations are checked for errors by the compiler
//! runtime" (§4.5). Overflow and division by zero surface as numeric
//! [`RuntimeError`]s, which the compiled-function wrapper converts into a
//! soft fallback to the interpreter.

use crate::error::RuntimeError;

/// `a + b` with overflow detection.
#[inline]
pub fn add_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    a.checked_add(b).ok_or(RuntimeError::IntegerOverflow)
}

/// `a - b` with overflow detection.
#[inline]
pub fn sub_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    a.checked_sub(b).ok_or(RuntimeError::IntegerOverflow)
}

/// `a * b` with overflow detection.
#[inline]
pub fn mul_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    a.checked_mul(b).ok_or(RuntimeError::IntegerOverflow)
}

/// Wolfram `Quotient[m, n]` = `Floor[m/n]`, with zero/overflow detection.
/// Pairs with the divisor-sign [`mod_i64`] so that
/// `m == n*Quotient[m, n] + Mod[m, n]` holds for all `n != 0`.
#[inline]
pub fn quotient_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    if b == 0 {
        return Err(RuntimeError::DivideByZero);
    }
    let q = a.checked_div(b).ok_or(RuntimeError::IntegerOverflow)?;
    let r = a.wrapping_rem(b);
    Ok(if r != 0 && (r < 0) != (b < 0) {
        q - 1
    } else {
        q
    })
}

/// Wolfram `Quotient` with a real operand: still `Floor[m/n]`, and still
/// an *integer* result (`Quotient[5.3, 2]` is `2`, not `2.`). Quotients
/// outside the machine-integer range are a numeric overflow, matching the
/// integer path's behaviour.
#[inline]
pub fn quotient_f64(a: f64, b: f64) -> Result<i64, RuntimeError> {
    if b == 0.0 {
        return Err(RuntimeError::DivideByZero);
    }
    let q = (a / b).floor();
    // `q < 2^63` (exclusive): i64::MAX as f64 rounds up to 2^63, which
    // would saturate on the cast.
    if q.is_finite() && q >= i64::MIN as f64 && q < i64::MAX as f64 {
        Ok(q as i64)
    } else {
        Err(RuntimeError::IntegerOverflow)
    }
}

/// Wolfram `Mod`: result has the sign of the divisor.
#[inline]
pub fn mod_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    if b == 0 {
        return Err(RuntimeError::DivideByZero);
    }
    let r = a.wrapping_rem(b);
    Ok(if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    })
}

/// Integer power with overflow detection. A negative exponent leaves the
/// integer domain (the interpreter evaluates `2^-1` as the real `0.5`), so
/// it surfaces as a *numeric* error: hosted compiled code soft-fails back
/// to the interpreter and agrees with it instead of hard-erroring.
#[inline]
pub fn pow_i64(base: i64, exp: i64) -> Result<i64, RuntimeError> {
    if exp < 0 {
        return Err(RuntimeError::NumericDomain(
            "integer Power with negative exponent".into(),
        ));
    }
    let exp = u32::try_from(exp).map_err(|_| RuntimeError::IntegerOverflow)?;
    base.checked_pow(exp).ok_or(RuntimeError::IntegerOverflow)
}

/// Wolfram `BitShiftLeft[x, n]`: a negative count shifts right, flooring
/// like an arithmetic shift. A bit shifted past the sign is an overflow
/// (the interpreter's answer is a big integer).
#[inline]
pub fn shl_i64(x: i64, n: i64) -> Result<i64, RuntimeError> {
    if n < 0 {
        return Ok(x >> n.unsigned_abs().min(63));
    }
    match u32::try_from(n) {
        Ok(n) if n < 64 && (x << n) >> n == x => Ok(x << n),
        _ if x == 0 => Ok(0),
        _ => Err(RuntimeError::IntegerOverflow),
    }
}

/// Wolfram `BitShiftRight[x, n]`, which is `BitShiftLeft[x, -n]`.
#[inline]
pub fn shr_i64(x: i64, n: i64) -> Result<i64, RuntimeError> {
    shl_i64(x, n.saturating_neg())
}

/// The non-negative `GCD[a, b]`; `GCD[-2^63, 0]` is 2^63, an overflow.
pub fn gcd_i64(a: i64, b: i64) -> Result<i64, RuntimeError> {
    i64::try_from(gcd_u64(a.unsigned_abs(), b.unsigned_abs()))
        .map_err(|_| RuntimeError::IntegerOverflow)
}

/// Euclid's algorithm on magnitudes.
pub fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Wolfram `PowerMod[a, b, m]`, which is `Mod[a^b, m]`: the result takes
/// the modulus's sign, and a negative exponent raises the modular inverse
/// of `a`. `None` where Wolfram leaves the call unevaluated: a zero
/// modulus, or a negative exponent of an `a` that shares a factor with `m`.
#[inline]
pub fn power_mod_i64(a: i64, b: i64, m: i64) -> Option<i64> {
    if m == 0 {
        return None;
    }
    // Unsigned throughout: PrimeQ's Miller-Rabin runs this loop.
    let n = u128::from(m.unsigned_abs());
    let mut base = u128::from(a.unsigned_abs()) % n;
    if a < 0 && base != 0 {
        base = n - base;
    }
    if b < 0 {
        base = mod_inverse(base, n)?;
    }
    let mut exp = b.unsigned_abs();
    let mut acc = 1 % n;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % n;
        }
        base = base * base % n;
        exp >>= 1;
    }
    // `0 <= acc < n <= 2^63`.
    Some(if m < 0 && acc != 0 {
        -((n - acc) as i64)
    } else {
        acc as i64
    })
}

/// The inverse of `a` modulo `n` by extended Euclid, if they are coprime.
fn mod_inverse(a: u128, n: u128) -> Option<u128> {
    // `t * a ≡ r (mod n)` throughout.
    let (mut r, mut r1) = (n as i128, a as i128);
    let (mut t, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r / r1;
        (r, r1) = (r1, r - q * r1);
        (t, t1) = (t1, t - q * t1);
    }
    (r == 1).then(|| t.rem_euclid(n as i128) as u128)
}

/// Unary negation with overflow detection (`-i64::MIN` overflows).
#[inline]
pub fn neg_i64(a: i64) -> Result<i64, RuntimeError> {
    a.checked_neg().ok_or(RuntimeError::IntegerOverflow)
}

/// Absolute value with overflow detection.
#[inline]
pub fn abs_i64(a: i64) -> Result<i64, RuntimeError> {
    a.checked_abs().ok_or(RuntimeError::IntegerOverflow)
}

/// Resolves a Wolfram `Part` index (1-based, negative counts from the end)
/// to a 0-based offset.
///
/// This is the predicated access the paper describes: "since Wolfram
/// Language's supports negative indexing, all array accesses must be
/// predicated at runtime".
///
/// # Errors
///
/// [`RuntimeError::PartOutOfRange`] when the index is 0 or outside the
/// array.
#[inline]
pub fn resolve_part_index(index: i64, length: usize) -> Result<usize, RuntimeError> {
    let err = || RuntimeError::PartOutOfRange { index, length };
    if index > 0 {
        let ix = (index - 1) as usize;
        if ix < length {
            Ok(ix)
        } else {
            Err(err())
        }
    } else if index < 0 {
        let back = (-index) as usize;
        if back <= length {
            Ok(length - back)
        } else {
            Err(err())
        }
    } else {
        Err(err())
    }
}

/// Complex multiplication.
#[inline]
pub fn mul_complex(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Complex division.
#[inline]
pub fn div_complex(a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
    let d = b.0 * b.0 + b.1 * b.1;
    ((a.0 * b.0 + a.1 * b.1) / d, (a.1 * b.0 - a.0 * b.1) / d)
}

/// Complex absolute value.
#[inline]
pub fn abs_complex(a: (f64, f64)) -> f64 {
    a.0.hypot(a.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_detected() {
        assert_eq!(add_i64(1, 2), Ok(3));
        assert_eq!(add_i64(i64::MAX, 1), Err(RuntimeError::IntegerOverflow));
        assert_eq!(sub_i64(i64::MIN, 1), Err(RuntimeError::IntegerOverflow));
        assert_eq!(
            mul_i64(i64::MAX / 2 + 1, 2),
            Err(RuntimeError::IntegerOverflow)
        );
        assert_eq!(neg_i64(i64::MIN), Err(RuntimeError::IntegerOverflow));
        assert_eq!(abs_i64(i64::MIN), Err(RuntimeError::IntegerOverflow));
    }

    #[test]
    fn division() {
        assert_eq!(quotient_i64(7, 2), Ok(3));
        assert_eq!(quotient_i64(7, 0), Err(RuntimeError::DivideByZero));
        assert_eq!(mod_i64(7, 3), Ok(1));
        assert_eq!(mod_i64(-7, 3), Ok(2)); // Wolfram Mod takes divisor's sign
        assert_eq!(mod_i64(5, 0), Err(RuntimeError::DivideByZero));
    }

    #[test]
    fn powers() {
        assert_eq!(pow_i64(2, 10), Ok(1024));
        assert_eq!(pow_i64(10, 19), Err(RuntimeError::IntegerOverflow));
        // Negative exponents are a *numeric* (soft) failure: hosted engines
        // fall back to the interpreter's real-valued answer.
        assert!(matches!(
            pow_i64(2, -1),
            Err(RuntimeError::NumericDomain(_))
        ));
        assert!(pow_i64(2, -1).unwrap_err().is_numeric());
        assert_eq!(pow_i64(0, 0), Ok(1));
    }

    #[test]
    fn shifts() {
        assert_eq!(shl_i64(3, 4), Ok(48));
        assert_eq!(shl_i64(-1, 63), Ok(i64::MIN));
        assert_eq!(shl_i64(3, 62), Err(RuntimeError::IntegerOverflow));
        assert_eq!(shl_i64(1, 64), Err(RuntimeError::IntegerOverflow));
        assert_eq!(shl_i64(0, i64::MAX), Ok(0));
        // A negative count reverses the direction.
        assert_eq!(shl_i64(5, -1), Ok(2));
        assert_eq!(shl_i64(-5, -1), Ok(-3));
        assert_eq!(shl_i64(-5, i64::MIN), Ok(-1));
        assert_eq!(shr_i64(5, -1), Ok(10));
        assert_eq!(shr_i64(12, 2), Ok(3));
        assert_eq!(shr_i64(7, 200), Ok(0));
        assert_eq!(shr_i64(1, i64::MIN), Err(RuntimeError::IntegerOverflow));
    }

    #[test]
    fn gcds() {
        assert_eq!(gcd_i64(12, -18), Ok(6));
        assert_eq!(gcd_i64(0, 0), Ok(0));
        assert_eq!(gcd_i64(i64::MIN, 6), Ok(2));
        assert_eq!(gcd_i64(i64::MIN, 0), Err(RuntimeError::IntegerOverflow));
    }

    #[test]
    fn power_mods() {
        assert_eq!(power_mod_i64(3, 4, 7), Some(4));
        assert_eq!(power_mod_i64(2, 10, 1000), Some(24));
        // Large values route through i128 without overflow.
        assert_eq!(power_mod_i64(1_000_000_007, 2, 1_000_000_009), Some(4));
        // The modular inverse: 3 * 5 = 15 = 1 (mod 7).
        assert_eq!(power_mod_i64(3, -1, 7), Some(5));
        assert_eq!(power_mod_i64(3, -2, 7), Some(4));
        assert_eq!(power_mod_i64(2, -1, 4), None);
        // The result takes the modulus's sign, as Mod[81, -7] = -3.
        assert_eq!(power_mod_i64(3, 4, -7), Some(-3));
        assert_eq!(power_mod_i64(7, 1, -7), Some(0));
        assert_eq!(power_mod_i64(-2, 3, 5), Some(2));
        assert_eq!(power_mod_i64(3, 4, 0), None);
        assert_eq!(power_mod_i64(5, 0, 1), Some(0));
        // 2^63 - 1 is -1 modulo 2^63, and an odd power keeps it.
        assert_eq!(power_mod_i64(i64::MAX, i64::MAX, i64::MIN), Some(-1));
    }

    #[test]
    fn part_indices() {
        assert_eq!(resolve_part_index(1, 3), Ok(0));
        assert_eq!(resolve_part_index(3, 3), Ok(2));
        assert_eq!(resolve_part_index(-1, 3), Ok(2));
        assert_eq!(resolve_part_index(-3, 3), Ok(0));
        assert!(resolve_part_index(0, 3).is_err());
        assert!(resolve_part_index(4, 3).is_err());
        assert!(resolve_part_index(-4, 3).is_err());
        assert!(resolve_part_index(1, 0).is_err());
    }

    #[test]
    fn complex_ops() {
        assert_eq!(mul_complex((0.0, 1.0), (0.0, 1.0)), (-1.0, 0.0));
        let (re, im) = div_complex((1.0, 0.0), (0.0, 1.0));
        assert!((re - 0.0).abs() < 1e-15 && (im + 1.0).abs() < 1e-15);
        assert_eq!(abs_complex((3.0, 4.0)), 5.0);
    }
}
