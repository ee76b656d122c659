//! Pins the native register machine's `Quotient`/`Mod`/`Power` semantics
//! on negative operands to the interpreter's answer, at the `RegOp` level
//! (the full `Function[...]` pipeline lives in `wolfram-compiler-core`;
//! these tests isolate the machine's arithmetic itself).

use wolfram_codegen::machine::{FltOp, IntOp};
use wolfram_codegen::{ArgVal, Bank, Machine, NativeFunc, NativeProgram, RegOp, Slot};
use wolfram_expr::parse;
use wolfram_interp::Interpreter;
use wolfram_runtime::{RuntimeError, Value};

/// A one-function program: `op(arg0, arg1)` over the given bank.
fn binprog(code: Vec<RegOp>, bank: Bank) -> NativeProgram {
    NativeProgram {
        parallel: None,
        funcs: vec![NativeFunc {
            name: "Main".into(),
            code,
            n_int: 3,
            n_flt: 3,
            n_cpx: 0,
            n_val: 0,
            params: vec![Slot::new(bank, 0), Slot::new(bank, 1)],
            elision: Default::default(),
        }],
    }
}

fn run_int(op: IntOp, x: i64, y: i64) -> Result<i64, RuntimeError> {
    let prog = binprog(
        vec![
            RegOp::IntBin {
                op,
                d: 2,
                a: 0,
                b: 1,
            },
            RegOp::Ret {
                s: Slot::new(Bank::I, 2),
            },
        ],
        Bank::I,
    );
    match Machine::standalone().call(&prog, 0, [Ok(ArgVal::I(x)), Ok(ArgVal::I(y))], None)? {
        ArgVal::I(v) => Ok(v),
        other => panic!("integer op returned {other:?}"),
    }
}

fn run_flt(op: FltOp, x: f64, y: f64) -> Result<f64, RuntimeError> {
    let prog = binprog(
        vec![
            RegOp::FltBin {
                op,
                d: 2,
                a: 0,
                b: 1,
            },
            RegOp::Ret {
                s: Slot::new(Bank::F, 2),
            },
        ],
        Bank::F,
    );
    match Machine::standalone().call(&prog, 0, [Ok(ArgVal::F(x)), Ok(ArgVal::F(y))], None)? {
        ArgVal::F(v) => Ok(v),
        other => panic!("real op returned {other:?}"),
    }
}

/// The interpreter's answer for `head[x, y]`.
fn oracle(head: &str, x: &Value, y: &Value) -> Value {
    let mut i = Interpreter::new();
    let e = parse(&format!(
        "{head}[{}, {}]",
        x.to_expr().to_input_form(),
        y.to_expr().to_input_form()
    ))
    .unwrap();
    Value::from_expr(&i.eval(&e).unwrap())
}

#[test]
fn quotient_floors_toward_negative_infinity() {
    for &(x, y) in &[
        (7i64, 2i64),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (0, 3),
        (1, i64::MAX),
        (i64::MIN, 2),
        (i64::MIN + 1, -1),
    ] {
        let want = oracle("Quotient", &Value::I64(x), &Value::I64(y));
        assert_eq!(
            Value::I64(run_int(IntOp::Quot, x, y).unwrap()),
            want,
            "Quotient[{x}, {y}]"
        );
    }
}

#[test]
fn quotient_is_exact_above_2_to_53() {
    // The old f64 round-trip lost the low bits of large operands; the
    // interpreter (and `checked::quotient_i64`) never did.
    let big = (1i64 << 62) + 1;
    assert_eq!(run_int(IntOp::Quot, big, 1).unwrap(), big);
    assert_eq!(
        Value::I64(run_int(IntOp::Quot, big, 1).unwrap()),
        oracle("Quotient", &Value::I64(big), &Value::I64(1))
    );
    // i64::MIN / -1 must overflow, not saturate to i64::MAX.
    assert_eq!(
        run_int(IntOp::Quot, i64::MIN, -1),
        Err(RuntimeError::IntegerOverflow)
    );
}

#[test]
fn mod_takes_divisor_sign() {
    for &(x, y) in &[
        (7i64, 3i64),
        (-7, 3),
        (7, -3),
        (-7, -3),
        (0, 5),
        (i64::MIN, 3),
    ] {
        let want = oracle("Mod", &Value::I64(x), &Value::I64(y));
        assert_eq!(
            Value::I64(run_int(IntOp::Mod, x, y).unwrap()),
            want,
            "Mod[{x}, {y}]"
        );
    }
    assert_eq!(run_int(IntOp::Mod, 5, 0), Err(RuntimeError::DivideByZero));
    assert_eq!(run_int(IntOp::Quot, 5, 0), Err(RuntimeError::DivideByZero));
}

#[test]
fn integer_power_negative_exponent_is_a_soft_failure() {
    // The machine's integer bank cannot hold 2^-1 = 0.5; the error must be
    // *numeric* so the hosted wrapper reverts to the interpreter instead
    // of hard-erroring (a divergence the fuzzer caught on its first run).
    let err = run_int(IntOp::Pow, 2, -1).unwrap_err();
    assert!(matches!(err, RuntimeError::NumericDomain(_)), "{err:?}");
    assert!(
        err.is_numeric(),
        "negative exponent must trigger the interpreter fallback"
    );
}

#[test]
fn real_mod_matches_interpreter() {
    for &(x, y) in &[(7.5f64, 2.0f64), (-7.5, 2.0), (7.5, -2.0), (-7.5, -2.5)] {
        let want = oracle("Mod", &Value::F64(x), &Value::F64(y));
        assert_eq!(
            Value::F64(run_flt(FltOp::Mod, x, y).unwrap()),
            want,
            "Mod[{x}, {y}]"
        );
    }
}
