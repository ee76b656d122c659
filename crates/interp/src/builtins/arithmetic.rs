//! Numeric builtins, comparisons, logic, and predicates.
//!
//! Arithmetic on machine integers promotes to bignum on overflow (F2).
//! Partially-symbolic arithmetic folds the numeric part and keeps the rest
//! symbolic (`Plus[1, 2, x]` -> `Plus[3, x]`).

use super::{attr, done, reg, type_err, BuiltinDef, INERT};
use crate::eval::{EvalError, Interpreter};
use crate::numeric::Num;
use std::cmp::Ordering;
use std::collections::HashMap;
use wolfram_expr::{Expr, ExprKind};

pub(crate) fn register(m: &mut HashMap<&'static str, BuiltinDef>) {
    reg(m, "Plus", attr::listable(), plus);
    reg(m, "Times", attr::listable(), times);
    reg(m, "Subtract", attr::listable(), subtract);
    reg(m, "Divide", attr::listable(), divide);
    reg(m, "Minus", attr::listable(), minus);
    reg(m, "Power", attr::listable(), power);
    reg(m, "Mod", attr::listable(), mod_builtin);
    reg(m, "Quotient", attr::listable(), quotient);
    reg(m, "Abs", attr::listable(), abs);
    reg(m, "Sign", attr::listable(), sign);
    reg(m, "Min", attr::none(), |i, a, d| {
        min_max(i, a, d, Ordering::Less)
    });
    reg(m, "Max", attr::none(), |i, a, d| {
        min_max(i, a, d, Ordering::Greater)
    });
    reg(m, "Floor", attr::listable(), |i, a, d| {
        rounding(i, a, d, f64::floor)
    });
    reg(m, "Ceiling", attr::listable(), |i, a, d| {
        rounding(i, a, d, f64::ceil)
    });
    reg(m, "Round", attr::listable(), |i, a, d| {
        rounding(i, a, d, round_half_even)
    });
    reg(m, "Sqrt", attr::listable(), sqrt);
    reg(m, "Exp", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::exp, "Exp")
    });
    reg(m, "Log", attr::listable(), log);
    reg(m, "Sin", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::sin, "Sin")
    });
    reg(m, "Cos", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::cos, "Cos")
    });
    reg(m, "Tan", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::tan, "Tan")
    });
    reg(m, "ArcSin", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::asin, "ArcSin")
    });
    reg(m, "ArcCos", attr::listable(), |i, a, d| {
        unary_real(i, a, d, f64::acos, "ArcCos")
    });
    reg(m, "ArcTan", attr::listable(), arctan);
    reg(m, "Re", attr::listable(), re);
    reg(m, "Im", attr::listable(), im);
    reg(m, "Conjugate", attr::listable(), conjugate);
    reg(m, "Complex", attr::none(), complex);
    reg(m, "N", attr::none(), n_builtin);
    // Comparisons & logic.
    reg(m, "SameQ", attr::none(), same_q);
    reg(m, "UnsameQ", attr::none(), unsame_q);
    reg(m, "Equal", attr::none(), |i, a, d| {
        compare_chain(i, a, d, &[Ordering::Equal])
    });
    reg(m, "Unequal", attr::none(), unequal);
    reg(m, "Less", attr::none(), |i, a, d| {
        compare_chain(i, a, d, &[Ordering::Less])
    });
    reg(m, "Greater", attr::none(), |i, a, d| {
        compare_chain(i, a, d, &[Ordering::Greater])
    });
    reg(m, "LessEqual", attr::none(), |i, a, d| {
        compare_chain(i, a, d, &[Ordering::Less, Ordering::Equal])
    });
    reg(m, "GreaterEqual", attr::none(), |i, a, d| {
        compare_chain(i, a, d, &[Ordering::Greater, Ordering::Equal])
    });
    reg(m, "Not", attr::none(), not);
    reg(m, "And", attr::hold_all(), and);
    reg(m, "Or", attr::hold_all(), or);
    // Predicates.
    reg(m, "TrueQ", attr::none(), |_, a, _| {
        done(Expr::bool(a.len() == 1 && a[0].is_true()))
    });
    reg(m, "IntegerQ", attr::none(), |_, a, _| {
        done(Expr::bool(
            a.len() == 1 && matches!(a[0].kind(), ExprKind::Integer(_) | ExprKind::BigInteger(_)),
        ))
    });
    reg(m, "EvenQ", attr::none(), |_, a, _| {
        done(Expr::bool(
            a.len() == 1 && a[0].as_i64().is_some_and(|v| v % 2 == 0),
        ))
    });
    reg(m, "OddQ", attr::none(), |_, a, _| {
        done(Expr::bool(
            a.len() == 1 && a[0].as_i64().is_some_and(|v| v % 2 != 0),
        ))
    });
    reg(m, "NumberQ", attr::none(), |_, a, _| {
        done(Expr::bool(a.len() == 1 && Num::from_expr(&a[0]).is_some()))
    });
    reg(m, "NumericQ", attr::none(), numeric_q);
    reg(m, "StringQ", attr::none(), |_, a, _| {
        done(Expr::bool(a.len() == 1 && a[0].as_str().is_some()))
    });
    reg(m, "ListQ", attr::none(), |_, a, _| {
        done(Expr::bool(a.len() == 1 && a[0].has_head("List")))
    });
    reg(m, "AtomQ", attr::none(), |_, a, _| {
        done(Expr::bool(a.len() == 1 && a[0].is_atom()))
    });
    reg(m, "Positive", attr::listable(), |_, a, _| {
        sign_pred(a, |o| o == Ordering::Greater)
    });
    reg(m, "Negative", attr::listable(), |_, a, _| {
        sign_pred(a, |o| o == Ordering::Less)
    });
    reg(m, "NonNegative", attr::listable(), |_, a, _| {
        sign_pred(a, |o| o != Ordering::Less)
    });
    reg(m, "PrimeQ", attr::listable(), prime_q);
    reg(m, "Factorial", attr::listable(), factorial);
    reg(m, "GCD", attr::listable(), gcd_builtin);
    reg(m, "PowerMod", attr::listable(), power_mod);
    reg(m, "BitAnd", attr::listable(), |_, a, _| {
        bit_fold(a, -1, |x, y| x & y)
    });
    reg(m, "BitOr", attr::listable(), |_, a, _| {
        bit_fold(a, 0, |x, y| x | y)
    });
    reg(m, "BitXor", attr::listable(), |_, a, _| {
        bit_fold(a, 0, |x, y| x ^ y)
    });
    reg(m, "BitShiftLeft", attr::listable(), |_, a, _| {
        bit_shift(a, 1)
    });
    reg(m, "BitShiftRight", attr::listable(), |_, a, _| {
        bit_shift(a, -1)
    });
    reg(m, "LCM", attr::listable(), lcm_builtin);
    reg(m, "IntegerDigits", attr::none(), integer_digits);
    reg(m, "FromDigits", attr::none(), from_digits);
    reg(m, "Boole", attr::listable(), |_, a, _| match a {
        [e] if e.is_true() => done(Expr::int(1)),
        [e] if e.is_false() => done(Expr::int(0)),
        _ => INERT,
    });
}

/// Folds an n-ary numeric operation over literal arguments, keeping
/// symbolic arguments in place.
fn nary_fold(
    args: &[Expr],
    identity: Num,
    head: &str,
    f: impl Fn(&Num, &Num) -> Num,
) -> Result<Option<Expr>, EvalError> {
    let mut acc = identity.clone();
    let mut symbolic: Vec<Expr> = Vec::new();
    let mut folded_any = false;
    for a in args {
        match Num::from_expr(a) {
            Some(n) => {
                acc = f(&acc, &n);
                folded_any = true;
            }
            None => symbolic.push(a.clone()),
        }
    }
    if symbolic.is_empty() {
        return done(acc.into_expr());
    }
    if !folded_any || args.len() == symbolic.len() {
        // Nothing folded: stay as-is (but collapse singleton applications).
        if symbolic.len() == 1 && args.len() == 1 {
            return done(symbolic.pop().expect("len checked"));
        }
        return INERT;
    }
    // Partial fold: numeric part first unless it is the identity, then the
    // symbolic part in canonical order (Plus and Times are Orderless).
    symbolic.sort_by(super::lists::canonical_order);
    let mut new_args = Vec::with_capacity(symbolic.len() + 1);
    if acc != identity {
        new_args.push(acc.into_expr());
    }
    new_args.extend(symbolic);
    if new_args.len() == 1 {
        return done(new_args.pop().expect("len checked"));
    }
    done(Expr::call(head, new_args))
}

/// Flattens nested applications of a Flat head (`Plus[1, Plus[2, x]]` ->
/// `Plus[1, 2, x]`).
fn flatten_flat(head: &str, args: &[Expr]) -> Vec<Expr> {
    let mut out = Vec::with_capacity(args.len());
    for a in args {
        if a.has_head(head) {
            out.extend(a.args().iter().cloned());
        } else {
            out.push(a.clone());
        }
    }
    out
}

fn plus(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    if args.len() == 1 {
        return done(args[0].clone());
    }
    let mut flat = flatten_flat("Plus", args);
    // Collect like terms: x + x -> 2 x (after sorting, duplicates adjoin).
    flat.sort_by(super::lists::canonical_order);
    let mut collected: Vec<Expr> = Vec::with_capacity(flat.len());
    let mut run_len = 1usize;
    for ix in 1..=flat.len() {
        if ix < flat.len() && flat[ix] == flat[ix - 1] && Num::from_expr(&flat[ix]).is_none() {
            run_len += 1;
            continue;
        }
        let term = flat[ix - 1].clone();
        if run_len > 1 {
            collected.push(Expr::call("Times", [Expr::int(run_len as i64), term]));
        } else {
            collected.push(term);
        }
        run_len = 1;
    }
    nary_fold(&collected, Num::Int(0), "Plus", Num::add)
}

fn times(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    if args.len() == 1 {
        return done(args[0].clone());
    }
    let flat = flatten_flat("Times", args);
    // Times[0, ...] short-circuits even with symbolic arguments, but an
    // inexact factor makes the zero inexact: `0*1.5` is `0.` while `0*x`
    // stays the exact integer 0 (Wolfram precision-contagion semantics).
    // A non-finite real factor disables the shortcut: `0*Infinity` is
    // IEEE's `0. * inf = NaN`, not zero. The inexact zero also keeps the
    // IEEE sign product (`-1.5*0` is `-0.`), so reciprocal powers of it
    // agree with compiled real code on the branch of infinity.
    if flat.iter().any(|a| a.as_i64() == Some(0))
        && !flat
            .iter()
            .any(|a| matches!(a.kind(), ExprKind::Real(r) if !r.is_finite()))
    {
        if flat.iter().any(|a| matches!(a.kind(), ExprKind::Real(_))) {
            let negative = flat
                .iter()
                .filter(|a| match a.kind() {
                    ExprKind::Real(r) => r.is_sign_negative(),
                    ExprKind::BigInteger(b) => b.is_negative(),
                    _ => a.as_i64().is_some_and(|v| v < 0),
                })
                .count()
                % 2
                == 1;
            return done(Expr::real(if negative { -0.0 } else { 0.0 }));
        }
        return done(Expr::int(0));
    }
    nary_fold(&flat, Num::Int(1), "Times", Num::mul)
}

fn subtract(i: &mut Interpreter, args: &[Expr], d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b] = args else { return INERT };
    match (Num::from_expr(a), Num::from_expr(b)) {
        (Some(x), Some(y)) => done(x.sub(&y).into_expr()),
        _ => i
            .eval_depth(
                &Expr::call(
                    "Plus",
                    [a.clone(), Expr::call("Times", [Expr::int(-1), b.clone()])],
                ),
                d + 1,
            )
            .map(Some),
    }
}

fn minus(i: &mut Interpreter, args: &[Expr], d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(x) => done(x.neg().into_expr()),
        None => i
            .eval_depth(&Expr::call("Times", [Expr::int(-1), a.clone()]), d + 1)
            .map(Some),
    }
}

fn divide(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b] = args else { return INERT };
    match (Num::from_expr(a), Num::from_expr(b)) {
        (Some(x), Some(y)) => match x.div(&y) {
            Some(v) => done(v.into_expr()),
            None => Err(wolfram_runtime::RuntimeError::DivideByZero.into()),
        },
        _ => INERT,
    }
}

fn power(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b] = args else { return INERT };
    // Symbolic simplifications used by the differentiation rules.
    if b.as_i64() == Some(1) {
        return done(a.clone());
    }
    if b.as_i64() == Some(0) {
        return done(Expr::int(1));
    }
    match (Num::from_expr(a), Num::from_expr(b)) {
        (Some(x), Some(y)) => done(x.pow(&y).into_expr()),
        _ => INERT,
    }
}

fn mod_builtin(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b] = args else { return INERT };
    // Exact bignum remainder (Mod[2^100, p] must not round-trip floats).
    if let (ExprKind::BigInteger(big), Some(m)) = (a.kind(), b.as_i64()) {
        if m > 0 {
            let r = big.rem_u64(m as u64) as i64;
            let r = if big.is_negative() && r != 0 {
                m - r
            } else {
                r
            };
            return done(Expr::int(r));
        }
    }
    match (a.as_i64(), b.as_i64()) {
        (Some(x), Some(y)) => wolfram_runtime::checked::mod_i64(x, y)
            .map(|v| Some(Expr::int(v)))
            .map_err(EvalError::from),
        _ => match (Num::from_expr(a), Num::from_expr(b)) {
            (Some(x), Some(y)) if !y.is_zero() => {
                let (xf, yf) = (x.to_f64(), y.to_f64());
                done(Expr::real(xf - yf * (xf / yf).floor()))
            }
            _ => INERT,
        },
    }
}

fn quotient(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b] = args else { return INERT };
    match (a.as_i64(), b.as_i64()) {
        (Some(x), Some(y)) => {
            if y == 0 {
                return Err(wolfram_runtime::RuntimeError::DivideByZero.into());
            }
            if x == i64::MIN && y == -1 {
                return Err(wolfram_runtime::RuntimeError::IntegerOverflow.into());
            }
            // Exact floor division: Quotient[m, n] = Floor[m/n].
            let (q, r) = (x / y, x % y);
            done(Expr::int(if r != 0 && (r < 0) != (y < 0) {
                q - 1
            } else {
                q
            }))
        }
        _ => match (Num::from_expr(a), Num::from_expr(b)) {
            // Real operands: still an integer result (Quotient[5.3, 2]
            // is 2, not 2.) — shared with the compiled engines through
            // `checked::quotient_f64`. Bignums stay exact (inert here),
            // complexes have no floor.
            (Some(x @ (Num::Int(_) | Num::Real(_))), Some(y @ (Num::Int(_) | Num::Real(_)))) => {
                wolfram_runtime::checked::quotient_f64(x.to_f64(), y.to_f64())
                    .map(|v| Some(Expr::int(v)))
                    .map_err(EvalError::from)
            }
            _ => INERT,
        },
    }
}

fn abs(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Int(v)) => done(match v.checked_abs() {
            Some(x) => Expr::int(x),
            None => Expr::big(wolfram_expr::BigInt::from(v).neg()),
        }),
        Some(Num::Big(b)) => done(Expr::big(if b.is_negative() { b.neg() } else { b })),
        Some(Num::Real(v)) => done(Expr::real(v.abs())),
        Some(Num::Complex(re, im)) => done(Expr::real(re.hypot(im))),
        None => INERT,
    }
}

fn sign(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(n) => match n.compare(&Num::Int(0)) {
            Some(Ordering::Less) => done(Expr::int(-1)),
            Some(Ordering::Equal) => done(Expr::int(0)),
            Some(Ordering::Greater) => done(Expr::int(1)),
            None => INERT,
        },
        None => INERT,
    }
}

fn min_max(
    _i: &mut Interpreter,
    args: &[Expr],
    _d: usize,
    keep: Ordering,
) -> Result<Option<Expr>, EvalError> {
    // Min/Max flatten lists.
    let mut flat = Vec::new();
    for a in args {
        if a.has_head("List") {
            flat.extend(a.args().iter().cloned());
        } else {
            flat.push(a.clone());
        }
    }
    let nums: Option<Vec<Num>> = flat.iter().map(Num::from_expr).collect();
    let Some(nums) = nums else { return INERT };
    let mut best: Option<Num> = None;
    for n in nums {
        best = Some(match best {
            None => n,
            Some(b) => match n.compare(&b) {
                Some(o) if o == keep => n,
                Some(_) => b,
                None => return INERT,
            },
        });
    }
    match best {
        Some(b) => done(b.into_expr()),
        None => INERT,
    }
}

fn round_half_even(v: f64) -> f64 {
    let r = v.round();
    if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
        r - v.signum()
    } else {
        r
    }
}

fn rounding(
    _i: &mut Interpreter,
    args: &[Expr],
    _d: usize,
    f: impl Fn(f64) -> f64,
) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Int(v)) => done(Expr::int(v)),
        Some(Num::Big(b)) => done(Expr::big(b)),
        Some(Num::Real(v)) => done(Expr::int(f(v) as i64)),
        _ => INERT,
    }
}

fn sqrt(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Int(v)) if v >= 0 => {
            let r = (v as f64).sqrt().round() as i64;
            if r * r == v {
                done(Expr::int(r))
            } else {
                INERT
            }
        }
        Some(Num::Real(v)) if v >= 0.0 => done(Expr::real(v.sqrt())),
        Some(Num::Real(v)) => done(Expr::complex(0.0, (-v).sqrt())),
        _ => INERT,
    }
}

fn log(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    match args {
        [a] => {
            if a.as_i64() == Some(1) {
                return done(Expr::int(0));
            }
            if a.is_symbol("E") {
                return done(Expr::int(1));
            }
            match Num::from_expr(a) {
                Some(Num::Real(v)) if v > 0.0 => done(Expr::real(v.ln())),
                _ => INERT,
            }
        }
        [base, a] => match (Num::from_expr(base), Num::from_expr(a)) {
            (Some(b), Some(x)) => done(Expr::real(x.to_f64().log(b.to_f64()))),
            _ => INERT,
        },
        _ => INERT,
    }
}

/// Real-valued unary math: evaluates on `Real` arguments, keeps integers
/// and symbols symbolic (except the exact zero cases below).
fn unary_real(
    _i: &mut Interpreter,
    args: &[Expr],
    _d: usize,
    f: impl Fn(f64) -> f64,
    name: &str,
) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    if a.as_i64() == Some(0) {
        // Sin[0] -> 0, Cos[0] -> 1, Exp[0] -> 1, Tan[0] -> 0, ...
        return done(
            Expr::real(f(0.0))
                .as_f64()
                .map(|v| {
                    if v == v.trunc() {
                        Expr::int(v as i64)
                    } else {
                        Expr::real(v)
                    }
                })
                .expect("real literal"),
        );
    }
    match a.kind() {
        ExprKind::Real(v) => done(Expr::real(f(*v))),
        _ => {
            let _ = name;
            INERT
        }
    }
}

fn arctan(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    match args {
        [a] => match a.kind() {
            ExprKind::Real(v) => done(Expr::real(v.atan())),
            ExprKind::Integer(0) => done(Expr::int(0)),
            _ => INERT,
        },
        [x, y] => match (Num::from_expr(x), Num::from_expr(y)) {
            (Some(a), Some(b)) => done(Expr::real(b.to_f64().atan2(a.to_f64()))),
            _ => INERT,
        },
        _ => INERT,
    }
}

fn re(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Complex(re, _)) => done(Expr::real(re)),
        Some(n) => done(n.into_expr()),
        None => INERT,
    }
}

fn im(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Complex(_, im)) => done(Expr::real(im)),
        Some(_) => done(Expr::int(0)),
        None => INERT,
    }
}

fn conjugate(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a) {
        Some(Num::Complex(re, im)) => done(Expr::complex(re, -im)),
        Some(n) => done(n.into_expr()),
        None => INERT,
    }
}

/// `N`: numericize constants and exact numbers, then re-evaluate.
fn n_builtin(i: &mut Interpreter, args: &[Expr], depth: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    let numericized = numericize(a);
    i.eval_depth(&numericized, depth + 1).map(Some)
}

/// Replaces exact numbers and known constants by machine reals, bottom-up.
pub(crate) fn numericize(e: &Expr) -> Expr {
    e.map_bottom_up(&mut |node| match node.kind() {
        ExprKind::Integer(v) => Expr::real(*v as f64),
        ExprKind::BigInteger(b) => Expr::real(b.to_f64()),
        ExprKind::Symbol(s) => match s.name() {
            "Pi" => Expr::real(std::f64::consts::PI),
            "E" => Expr::real(std::f64::consts::E),
            "Degree" => Expr::real(std::f64::consts::PI / 180.0),
            "I" => Expr::complex(0.0, 1.0),
            "GoldenRatio" => Expr::real((1.0 + 5.0f64.sqrt()) / 2.0),
            _ => node,
        },
        _ => node,
    })
}

fn same_q(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    done(Expr::bool(args.windows(2).all(|w| w[0] == w[1])))
}

fn unsame_q(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    // UnsameQ is pairwise-distinct.
    for (ix, a) in args.iter().enumerate() {
        for b in &args[ix + 1..] {
            if a == b {
                return done(Expr::bool(false));
            }
        }
    }
    done(Expr::bool(true))
}

/// Decides equality of two (possibly symbolic) expressions: `Some(bool)` if
/// decidable, `None` otherwise.
pub(crate) fn decide_equal(a: &Expr, b: &Expr) -> Option<bool> {
    if let (Some(x), Some(y)) = (Num::from_expr(a), Num::from_expr(b)) {
        return Some(x.compare(&y) == Some(Ordering::Equal));
    }
    match (a.kind(), b.kind()) {
        (ExprKind::Str(x), ExprKind::Str(y)) => Some(x == y),
        _ => {
            if a == b {
                // Identical expressions are equal even when symbolic.
                Some(true)
            } else if a.is_atom()
                && b.is_atom()
                && a.as_symbol().is_none()
                && b.as_symbol().is_none()
            {
                Some(false)
            } else {
                None
            }
        }
    }
}

fn compare_chain(
    _i: &mut Interpreter,
    args: &[Expr],
    _d: usize,
    allowed: &[Ordering],
) -> Result<Option<Expr>, EvalError> {
    if args.len() < 2 {
        return done(Expr::bool(true));
    }
    let equality_only = allowed == [Ordering::Equal];
    for w in args.windows(2) {
        if equality_only {
            match decide_equal(&w[0], &w[1]) {
                Some(true) => continue,
                Some(false) => return done(Expr::bool(false)),
                None => return INERT,
            }
        }
        match (Num::from_expr(&w[0]), Num::from_expr(&w[1])) {
            (Some(x), Some(y)) => match x.compare(&y) {
                Some(o) if allowed.contains(&o) => continue,
                Some(_) => return done(Expr::bool(false)),
                None => return INERT,
            },
            _ => match (w[0].as_str(), w[1].as_str()) {
                (Some(x), Some(y)) => {
                    let o = x.cmp(y);
                    if allowed.contains(&o) {
                        continue;
                    }
                    return done(Expr::bool(false));
                }
                _ => return INERT,
            },
        }
    }
    done(Expr::bool(true))
}

fn unequal(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    for (ix, a) in args.iter().enumerate() {
        for b in &args[ix + 1..] {
            match decide_equal(a, b) {
                Some(true) => return done(Expr::bool(false)),
                Some(false) => {}
                None => return INERT,
            }
        }
    }
    done(Expr::bool(true))
}

fn not(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    if a.is_true() {
        done(Expr::bool(false))
    } else if a.is_false() {
        done(Expr::bool(true))
    } else {
        INERT
    }
}

fn and(i: &mut Interpreter, args: &[Expr], depth: usize) -> Result<Option<Expr>, EvalError> {
    let mut residual = Vec::new();
    for a in args {
        let v = i.eval_depth(a, depth + 1)?;
        if v.is_false() {
            return done(Expr::bool(false));
        }
        if !v.is_true() {
            residual.push(v);
        }
    }
    match residual.len() {
        0 => done(Expr::bool(true)),
        1 => done(residual.pop().expect("len checked")),
        _ => done(Expr::call("And", residual)),
    }
}

fn or(i: &mut Interpreter, args: &[Expr], depth: usize) -> Result<Option<Expr>, EvalError> {
    let mut residual = Vec::new();
    for a in args {
        let v = i.eval_depth(a, depth + 1)?;
        if v.is_true() {
            return done(Expr::bool(true));
        }
        if !v.is_false() {
            residual.push(v);
        }
    }
    match residual.len() {
        0 => done(Expr::bool(false)),
        1 => done(residual.pop().expect("len checked")),
        _ => done(Expr::call("Or", residual)),
    }
}

fn numeric_q(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else {
        return type_err("NumericQ expects one argument");
    };
    let numeric = Num::from_expr(a).is_some()
        || matches!(
            a.as_symbol()
                .as_ref()
                .map(|s| s.name().to_owned())
                .as_deref(),
            Some("Pi") | Some("E") | Some("Degree") | Some("GoldenRatio")
        );
    done(Expr::bool(numeric))
}

fn sign_pred(args: &[Expr], ok: impl Fn(Ordering) -> bool) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match Num::from_expr(a).and_then(|n| n.compare(&Num::Int(0))) {
        Some(o) => done(Expr::bool(ok(o))),
        None => INERT,
    }
}

fn factorial(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    let Some(n) = a.as_i64() else { return INERT };
    if n < 0 {
        return INERT; // ComplexInfinity territory: stays symbolic here
    }
    // Arbitrary precision: Factorial never overflows in the interpreter.
    let mut acc = wolfram_expr::BigInt::one();
    for k in 2..=n {
        acc = &acc * &wolfram_expr::BigInt::from(k);
    }
    done(Expr::big(acc))
}

fn gcd_builtin(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    // On magnitudes: `GCD[-2^63, 0]` is 2^63, one past the machine range.
    let mut acc = 0u64;
    for a in args {
        let Some(v) = a.as_i64() else { return INERT };
        acc = wolfram_runtime::checked::gcd_u64(acc, v.unsigned_abs());
    }
    done(match i64::try_from(acc) {
        Ok(v) => Expr::int(v),
        Err(_) => Expr::big(wolfram_expr::BigInt::from(acc)),
    })
}

fn power_mod(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a, b, m] = args else { return INERT };
    match (a.as_i64(), b.as_i64(), m.as_i64()) {
        (Some(a), Some(b), Some(m)) => match wolfram_runtime::checked::power_mod_i64(a, b, m) {
            Some(v) => done(Expr::int(v)),
            None => INERT,
        },
        _ => INERT,
    }
}

/// `BitAnd`, `BitOr` and `BitXor` of machine integers (two's complement).
fn bit_fold(
    args: &[Expr],
    identity: i64,
    f: fn(i64, i64) -> i64,
) -> Result<Option<Expr>, EvalError> {
    let mut acc = identity;
    for a in args {
        let Some(v) = a.as_i64() else { return INERT };
        acc = f(acc, v);
    }
    done(Expr::int(acc))
}

/// `BitShiftLeft[x, n]` (`left` = 1) and `BitShiftRight[x, n]` (`left` =
/// -1), exact: a negative count shifts the other way, a right shift floors,
/// and a left shift past the machine range is a big integer.
fn bit_shift(args: &[Expr], left: i64) -> Result<Option<Expr>, EvalError> {
    let [x, n] = args else { return INERT };
    let (Some(x), Some(n)) = (x.as_i64(), n.as_i64()) else {
        return INERT;
    };
    let k = i128::from(n) * i128::from(left);
    if k <= 0 {
        return done(Expr::int(x >> (-k).min(63)));
    }
    match i64::try_from(k) {
        Ok(k) if k <= i64::from(u32::MAX) => {
            done(Num::Int(x).mul(&Num::Int(2).pow(&Num::Int(k))).into_expr())
        }
        _ if x == 0 => done(Expr::int(0)),
        _ => INERT,
    }
}

/// `Complex[x, y]` of reals: the machine complex number (exact integer
/// parts have no complex atom here and stay symbolic).
fn complex(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [x, y] = args else { return INERT };
    match (Num::from_expr(x), Num::from_expr(y)) {
        (Some(x @ (Num::Int(_) | Num::Real(_))), Some(y @ (Num::Int(_) | Num::Real(_))))
            if matches!(x, Num::Real(_)) || matches!(y, Num::Real(_)) =>
        {
            done(Expr::complex(x.to_f64(), y.to_f64()))
        }
        _ => INERT,
    }
}

fn lcm_builtin(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let mut acc = 1i64;
    for a in args {
        let Some(v) = a.as_i64() else { return INERT };
        if v == 0 {
            return done(Expr::int(0));
        }
        let g = wolfram_runtime::checked::gcd_i64(acc, v)?;
        acc = match (acc / g).checked_mul(v.abs()) {
            Some(x) => x,
            None => return Err(wolfram_runtime::RuntimeError::IntegerOverflow.into()),
        };
    }
    done(Expr::int(acc))
}

fn integer_digits(
    _i: &mut Interpreter,
    args: &[Expr],
    _d: usize,
) -> Result<Option<Expr>, EvalError> {
    let (n, base) = match args {
        [n] => (n, 10i64),
        [n, b] => match b.as_i64() {
            Some(b) if b >= 2 => (n, b),
            _ => return INERT,
        },
        _ => return INERT,
    };
    let Some(mut v) = n.as_i64() else {
        return INERT;
    };
    v = v.abs();
    if v == 0 {
        return done(Expr::list([Expr::int(0)]));
    }
    let mut digits = Vec::new();
    while v > 0 {
        digits.push(Expr::int(v % base));
        v /= base;
    }
    digits.reverse();
    done(Expr::list(digits))
}

fn from_digits(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let (digits, base) = match args {
        [d] => (d, 10i64),
        [d, b] => match b.as_i64() {
            Some(b) if b >= 2 => (d, b),
            _ => return INERT,
        },
        _ => return INERT,
    };
    if !digits.has_head("List") {
        return INERT;
    }
    let mut acc = 0i64;
    for d in digits.args() {
        let Some(d) = d.as_i64() else { return INERT };
        acc = wolfram_runtime::checked::mul_i64(acc, base)
            .and_then(|x| wolfram_runtime::checked::add_i64(x, d))
            .map_err(EvalError::from)?;
    }
    done(Expr::int(acc))
}

/// Deterministic Miller–Rabin for `u64` (the PrimeQ benchmark's algorithm,
/// §6: "the Rabin-Miller primality test").
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

fn prime_q(_i: &mut Interpreter, args: &[Expr], _d: usize) -> Result<Option<Expr>, EvalError> {
    let [a] = args else { return INERT };
    match a.as_i64() {
        Some(v) => done(Expr::bool(is_prime_u64(v.unsigned_abs()))),
        None => INERT,
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::Interpreter;

    fn ev(src: &str) -> String {
        Interpreter::new().eval_src(src).unwrap().to_full_form()
    }

    #[test]
    fn basic_arithmetic() {
        assert_eq!(ev("1 + 2*3"), "7");
        assert_eq!(ev("10 - 4"), "6");
        assert_eq!(ev("7/2"), "3.5");
        assert_eq!(ev("6/3"), "2");
        assert_eq!(ev("2^10"), "1024");
        assert_eq!(ev("Mod[-7, 3]"), "2");
        assert_eq!(ev("Quotient[7, 2]"), "3");
    }

    #[test]
    fn overflow_promotes_to_bignum() {
        // The interpreter silently switches to arbitrary precision (F2).
        assert_eq!(ev("2^100"), "1267650600228229401496703205376");
        assert_eq!(ev("9223372036854775807 + 1"), "9223372036854775808");
    }

    #[test]
    fn partial_symbolic_folding() {
        assert_eq!(ev("1 + x + 2"), "Plus[3, x]");
        assert_eq!(ev("2 * x * 3"), "Times[6, x]");
        assert_eq!(ev("x + 0 + 0"), "x");
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("1 < 2"), "True");
        assert_eq!(ev("1 < 2 < 3"), "True");
        assert_eq!(ev("1 < 2 < 2"), "False");
        assert_eq!(ev("2.0 == 2"), "True");
        assert_eq!(ev("\"a\" == \"a\""), "True");
        assert_eq!(ev("x == x"), "True");
        assert_eq!(ev("x == y"), "Equal[x, y]");
        assert_eq!(ev("True && False"), "False");
        assert_eq!(ev("False || True"), "True");
        assert_eq!(ev("!True"), "False");
        assert_eq!(ev("1 != 2"), "True");
        assert_eq!(ev("x === x"), "True");
        assert_eq!(ev("x =!= y"), "True");
    }

    #[test]
    fn short_circuit_and() {
        // The second operand must not be evaluated.
        assert_eq!(ev("False && (x = 1; True)"), "False");
        assert_eq!(ev("x"), "x"); // x was never set (fresh interpreter)
    }

    #[test]
    fn math_functions() {
        assert_eq!(ev("Abs[-5]"), "5");
        assert_eq!(ev("Sqrt[16]"), "4");
        assert_eq!(ev("Sqrt[2.0]"), ev("1.4142135623730951"));
        assert_eq!(ev("Sqrt[2]"), "Sqrt[2]"); // stays symbolic
        assert_eq!(ev("Exp[0]"), "1");
        assert_eq!(ev("Log[1]"), "0");
        assert_eq!(ev("Sign[-9]"), "-1");
        // Abs of a complex literal built through N[..] of 3 + 4 I.
        let v = Interpreter::new()
            .eval_src("Abs[N[3 + 4*I]]")
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(v, 5.0);
    }

    #[test]
    fn numeric_n() {
        assert_eq!(ev("N[Pi]"), format!("{}", std::f64::consts::PI));
        assert_eq!(ev("N[1/3]"), ev("0.3333333333333333"));
        assert_eq!(ev("N[2*Pi]"), ev("6.283185307179586"));
    }

    #[test]
    fn primes() {
        use super::is_prime_u64;
        let primes: Vec<u64> = (0..30).filter(|&n| is_prime_u64(n)).collect();
        assert_eq!(primes, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert!(is_prime_u64(1_000_003));
        assert!(!is_prime_u64(1_000_001)); // 101 * 9901
        assert!(is_prime_u64(2_147_483_647)); // Mersenne prime 2^31-1
        assert_eq!(ev("PrimeQ[97]"), "True");
        assert_eq!(ev("PrimeQ[98]"), "False");
    }

    #[test]
    fn trig_on_reals_only() {
        assert_eq!(ev("Sin[0]"), "0");
        assert_eq!(ev("Cos[0]"), "1");
        assert_eq!(ev("Sin[x]"), "Sin[x]");
        assert_eq!(ev("Sin[1]"), "Sin[1]");
        let v = Interpreter::new()
            .eval_src("Sin[1.0]")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((v - 1.0f64.sin()).abs() < 1e-15);
    }

    #[test]
    fn min_max_flatten() {
        assert_eq!(ev("Min[3, 1, 2]"), "1");
        assert_eq!(ev("Max[{3, 1}, 5]"), "5");
        assert_eq!(ev("Min[2.5, 2]"), "2");
    }

    #[test]
    fn number_theory() {
        assert_eq!(ev("Factorial[5]"), "120");
        assert_eq!(ev("Factorial[0]"), "1");
        // Factorial exceeds machine range without complaint (bignum).
        assert_eq!(ev("Factorial[25]"), "15511210043330985984000000");
        assert_eq!(ev("GCD[12, 18]"), "6");
        assert_eq!(ev("GCD[12, 18, 8]"), "2");
        assert_eq!(ev("GCD[0, 7]"), "7");
        assert_eq!(ev("LCM[4, 6]"), "12");
        assert_eq!(ev("LCM[3, 0]"), "0");
        assert_eq!(ev("IntegerDigits[1234]"), "List[1, 2, 3, 4]");
        assert_eq!(ev("IntegerDigits[10, 2]"), "List[1, 0, 1, 0]");
        assert_eq!(ev("FromDigits[{1, 2, 3, 4}]"), "1234");
        assert_eq!(ev("FromDigits[{1, 0, 1, 0}, 2]"), "10");
        assert_eq!(ev("FromDigits[{0}]"), "0");
        assert_eq!(ev("IntegerDigits[0]"), "List[0]");
        assert_eq!(
            ev("GCD[-9223372036854775807 - 1, 0]"),
            "9223372036854775808"
        );
        assert_eq!(ev("PowerMod[3, 4, 7]"), "4");
        assert_eq!(ev("PowerMod[3, -1, 7]"), "5");
        assert_eq!(ev("PowerMod[3, 4, -7]"), "-3");
        assert_eq!(ev("PowerMod[2, -1, 4]"), "PowerMod[2, -1, 4]");
    }

    #[test]
    fn bit_operations() {
        assert_eq!(ev("BitAnd[12, 10]"), "8");
        assert_eq!(ev("BitOr[12, 10, 1]"), "15");
        assert_eq!(ev("BitXor[12, 10]"), "6");
        assert_eq!(ev("BitAnd[-1, 6]"), "6");
        assert_eq!(ev("BitShiftLeft[12, 2]"), "48");
        assert_eq!(ev("BitShiftLeft[3, 62]"), "13835058055282163712");
        assert_eq!(ev("BitShiftLeft[5, -1]"), "2");
        assert_eq!(ev("BitShiftRight[5, -1]"), "10");
        assert_eq!(ev("BitShiftRight[-5, 1]"), "-3");
        assert_eq!(ev("BitShiftRight[7, 100]"), "0");
    }

    #[test]
    fn complex_from_parts() {
        assert_eq!(
            Interpreter::new().eval_src("Complex[3., 4]").unwrap(),
            wolfram_expr::Expr::complex(3.0, 4.0)
        );
        assert_eq!(ev("Complex[3, 4]"), "Complex[3, 4]");
    }

    #[test]
    fn rounding() {
        assert_eq!(ev("Floor[2.7]"), "2");
        assert_eq!(ev("Ceiling[2.1]"), "3");
        assert_eq!(ev("Round[2.5]"), "2"); // banker's rounding
        assert_eq!(ev("Round[3.5]"), "4");
        assert_eq!(ev("Floor[5]"), "5");
    }
}
