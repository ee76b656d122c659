//! Property-based tests (proptest) over the core data structures and the
//! headline invariant: *compiled code agrees with the interpreter*.

use proptest::prelude::*;
use wolfram_language_compiler::compiler::Compiler;
use wolfram_language_compiler::expr::{parse, BigInt, Expr};
use wolfram_language_compiler::interp::Interpreter;
use wolfram_language_compiler::runtime::{Tensor, TensorData, Value};

// ---------------------------------------------------------------------
// Expression parse/print round-trips.
// ---------------------------------------------------------------------

/// A generator of well-formed expressions.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Expr::int),
        (-1.0e15..1.0e15f64).prop_map(Expr::real),
        "[a-z][a-zA-Z0-9]{0,6}".prop_map(|s| Expr::sym(&s)),
        "[ -~&&[^\"\\\\]]{0,12}".prop_map(Expr::string),
    ];
    leaf.prop_recursive(4, 64, 5, |inner| {
        ("[A-Z][a-zA-Z0-9]{0,6}", prop::collection::vec(inner, 0..5))
            .prop_map(|(head, args)| Expr::call(&head, args))
    })
}

proptest! {
    #[test]
    fn full_form_round_trips(e in arb_expr()) {
        let printed = e.to_full_form();
        let reparsed = parse(&printed).expect("FullForm must reparse");
        prop_assert_eq!(reparsed, e);
    }

    #[test]
    fn input_form_preserves_value_for_arithmetic(a in -10_000i64..10_000, b in -10_000i64..10_000, c in 1i64..100) {
        // InputForm of arithmetic expressions evaluates identically.
        let e = parse(&format!("({a} + {b}) * {c} - {a}")).unwrap();
        let printed = e.to_input_form();
        let reparsed = parse(&printed).expect("InputForm must reparse");
        let mut i1 = Interpreter::new();
        let mut i2 = Interpreter::new();
        prop_assert_eq!(i1.eval(&e).unwrap(), i2.eval(&reparsed).unwrap());
    }
}

// ---------------------------------------------------------------------
// BigInt arithmetic against i128 ground truth.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn bigint_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let sum = &BigInt::from(a) + &BigInt::from(b);
        prop_assert_eq!(sum.to_string(), (a as i128 + b as i128).to_string());
    }

    #[test]
    fn bigint_mul_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let prod = &BigInt::from(a) * &BigInt::from(b);
        prop_assert_eq!(prod.to_string(), (a as i128 * b as i128).to_string());
    }

    #[test]
    fn bigint_sub_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        let diff = &BigInt::from(a) - &BigInt::from(b);
        prop_assert_eq!(diff.to_string(), (a as i128 - b as i128).to_string());
    }

    #[test]
    fn bigint_parse_display_roundtrip(digits in "-?[1-9][0-9]{0,38}") {
        let v = BigInt::parse(&digits).expect("parseable");
        prop_assert_eq!(v.to_string(), digits);
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i64>(), b in any::<i64>()) {
        prop_assert_eq!(BigInt::from(a).cmp(&BigInt::from(b)), (a as i128).cmp(&(b as i128)));
    }
}

// ---------------------------------------------------------------------
// Tensor copy-on-write invariants (F5).
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn tensor_cow_never_disturbs_aliases(
        data in prop::collection::vec(any::<i64>(), 1..32),
        writes in prop::collection::vec((0usize..32, any::<i64>()), 0..16),
    ) {
        let original = Tensor::from_i64(data.clone());
        let alias = original.clone();
        let mut working = original.clone();
        let mut expected = data.clone();
        for (ix, v) in writes {
            let ix = ix % data.len();
            working.set_i64(ix, v).unwrap();
            expected[ix] = v;
        }
        prop_assert_eq!(alias.as_i64().unwrap(), data.as_slice());
        prop_assert_eq!(working.as_i64().unwrap(), expected.as_slice());
    }
}

// ---------------------------------------------------------------------
// The headline property: FunctionCompile agrees with the interpreter on
// randomly generated integer arithmetic programs.
// ---------------------------------------------------------------------

/// Generates arithmetic source over variables `x` and `y` that is total
/// (no division) and overflow-free for small inputs.
fn arb_int_arith() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-20i64..20).prop_map(|v| v.to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("Min[{a}, {b}]")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("Max[{a}, {b}]")),
            inner.clone().prop_map(|a| format!("Abs[{a}]")),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, t, f)| { format!("If[{c} < {t}, {t}, {f}]") }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn compiled_matches_interpreter_on_arithmetic(
        body in arb_int_arith(),
        x in -50i64..50,
        y in -50i64..50,
    ) {
        let src = format!(
            "Function[{{Typed[x, \"MachineInteger\"], Typed[y, \"MachineInteger\"]}}, {body}]"
        );
        let compiler = Compiler::default();
        let cf = compiler.function_compile_src(&src).expect("compiles");
        let compiled = cf.call(&[Value::I64(x), Value::I64(y)]).expect("runs");

        let mut interp = Interpreter::new();
        let f = parse(&src).unwrap();
        let call = Expr::normal(f, vec![Expr::int(x), Expr::int(y)]);
        let interpreted = interp.eval(&call).expect("interprets");
        prop_assert_eq!(compiled.to_expr(), interpreted, "program: {}", body);
    }

    #[test]
    fn compiled_loops_match_interpreter(
        n in 0i64..40,
        step in 1i64..5,
        bias in -3i64..4,
    ) {
        let src = format!(
            "Function[{{Typed[n, \"MachineInteger\"]}}, \
             Module[{{s = 0, i = 0}}, While[i < n, s = s + i*{step} + {bias}; i = i + 1]; s]]"
        );
        let compiler = Compiler::default();
        let cf = compiler.function_compile_src(&src).expect("compiles");
        let compiled = cf.call(&[Value::I64(n)]).expect("runs");
        let mut interp = Interpreter::new();
        let f = parse(&src).unwrap();
        let call = Expr::normal(f, vec![Expr::int(n)]);
        let interpreted = interp.eval(&call).expect("interprets");
        prop_assert_eq!(compiled.to_expr(), interpreted);
    }

    #[test]
    fn compiled_matches_bytecode_on_arithmetic(
        body in arb_int_arith(),
        x in -50i64..50,
        y in -50i64..50,
    ) {
        // All three execution engines agree.
        let src = format!(
            "Function[{{Typed[x, \"MachineInteger\"], Typed[y, \"MachineInteger\"]}}, {body}]"
        );
        let cf = Compiler::default().function_compile_src(&src).expect("compiles");
        let compiled = cf.call(&[Value::I64(x), Value::I64(y)]).expect("runs");
        let bc = wolfram_language_compiler::bytecode::BytecodeCompiler::new()
            .compile(
                &[
                    wolfram_language_compiler::bytecode::ArgSpec::int("x"),
                    wolfram_language_compiler::bytecode::ArgSpec::int("y"),
                ],
                &parse(&body).unwrap(),
            )
            .expect("bytecode compiles");
        let vm = bc.run(&[Value::I64(x), Value::I64(y)]).expect("vm runs");
        prop_assert_eq!(compiled, vm, "program: {}", body);
    }
}

// ---------------------------------------------------------------------
// Type-system properties.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn unification_is_symmetric_on_atomics(
        a in prop::sample::select(vec!["Integer64", "Real64", "Boolean", "String"]),
        b in prop::sample::select(vec!["Integer64", "Real64", "Boolean", "String"]),
    ) {
        use wolfram_language_compiler::types::{unify, Subst, Type};
        let (ta, tb) = (Type::atomic(a), Type::atomic(b));
        let mut s1 = Subst::new();
        let mut s2 = Subst::new();
        prop_assert_eq!(
            unify(&ta, &tb, &mut s1).is_ok(),
            unify(&tb, &ta, &mut s2).is_ok()
        );
    }

    #[test]
    fn promotion_is_antisymmetric(
        a in prop::sample::select(vec!["Integer8", "Integer32", "Integer64", "Real64", "ComplexReal64"]),
        b in prop::sample::select(vec!["Integer8", "Integer32", "Integer64", "Real64", "ComplexReal64"]),
    ) {
        use wolfram_language_compiler::types::{subst::promotion_cost, Type};
        let (ta, tb) = (Type::atomic(a), Type::atomic(b));
        let up = promotion_cost(&ta, &tb);
        let down = promotion_cost(&tb, &ta);
        if a == b {
            prop_assert_eq!(up, Some(0));
        } else {
            // At most one direction exists.
            prop_assert!(up.is_none() || down.is_none());
        }
    }
}

// ---------------------------------------------------------------------
// Compiled higher-order functions and broadcasts vs the interpreter.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compiled `Fold[Function[{a, k}, ...], 0, Range[n]]` (lambda typed
    /// purely through Fold's signature) agrees with the interpreter.
    #[test]
    fn compiled_fold_over_range_matches_interpreter(n in 0i64..60, c in -5i64..6) {
        let src = format!(
            "Function[{{Typed[n, \"MachineInteger\"]}}, \
             Fold[Function[{{acc, k}}, acc + ({c})*k], 0, Range[n]]]"
        );
        let cf = Compiler::default().function_compile_src(&src).unwrap();
        let got = cf.call(&[Value::I64(n)]).unwrap().expect_i64().unwrap();
        let want = Interpreter::new()
            .eval_src(&format!(
                "Fold[Function[{{acc, k}}, acc + ({c})*k], 0, Range[{n}]]"
            ))
            .unwrap()
            .as_i64()
            .unwrap();
        prop_assert_eq!(got, want);
    }

    /// Compiled `Total`/`Map` over a real vector agree with the
    /// interpreter (element order and promotion included).
    #[test]
    fn compiled_total_map_matches_interpreter(
        xs in prop::collection::vec(-100.0f64..100.0, 1..24),
        m in -4i64..5,
    ) {
        let cf = Compiler::default()
            .function_compile_src(&format!(
                "Function[{{Typed[v, \"Tensor\"[\"Real64\", 1]]}}, \
                 Total[Map[Function[{{x}}, x*({m}) + 1.0], v]]]"
            ))
            .unwrap();
        let got = cf
            .call(&[Value::Tensor(Tensor::from_f64(xs.clone()))])
            .unwrap()
            .expect_f64()
            .unwrap();
        let want: f64 = xs.iter().map(|x| x * m as f64 + 1.0).sum();
        prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()), "{got} vs {want}");
    }

    /// Tensor (+) scalar broadcast is element-wise and matches both
    /// operand orders.
    #[test]
    fn compiled_broadcast_matches_elementwise(
        xs in prop::collection::vec(-1_000.0f64..1_000.0, 1..16),
        k in -50i64..50,
    ) {
        let tv = || Value::Tensor(Tensor::from_f64(xs.clone()));
        for (src, f) in [
            (
                format!("Function[{{Typed[v, \"Tensor\"[\"Real64\", 1]]}}, v + ({k})]"),
                Box::new(|x: f64| x + k as f64) as Box<dyn Fn(f64) -> f64>,
            ),
            (
                format!("Function[{{Typed[v, \"Tensor\"[\"Real64\", 1]]}}, ({k}) - v]"),
                Box::new(|x: f64| k as f64 - x),
            ),
            (
                format!("Function[{{Typed[v, \"Tensor\"[\"Real64\", 1]]}}, v*({k})]"),
                Box::new(|x: f64| x * k as f64),
            ),
        ] {
            let cf = Compiler::default().function_compile_src(&src).unwrap();
            let out = cf.call(&[tv()]).unwrap();
            let out = out.expect_tensor().unwrap();
            let got = out.as_f64().unwrap();
            for (g, x) in got.iter().zip(&xs) {
                prop_assert!((g - f(*x)).abs() < 1e-12, "{src}: {g} vs {}", f(*x));
            }
        }
    }

    /// Integer broadcasts overflow-check like scalar arithmetic: no
    /// silent wrapping.
    #[test]
    fn integer_broadcast_checks_overflow(k in 2i64..1_000) {
        let cf = Compiler::default()
            .function_compile_src(
                "Function[{Typed[v, \"Tensor\"[\"Integer64\", 1]], \
                  Typed[k, \"MachineInteger\"]}, v*k]",
            )
            .unwrap();
        let near_max = Tensor::from_i64(vec![1, i64::MAX / 2 + 1]);
        let res = cf.call(&[Value::Tensor(near_max), Value::I64(k)]);
        prop_assert!(res.is_err(), "expected IntegerOverflow, got {res:?}");
        // In-range stays exact.
        let small = Tensor::from_i64(vec![-3, 0, 7]);
        let out = cf.call(&[Value::Tensor(small), Value::I64(k)]).unwrap();
        let out = out.expect_tensor().unwrap();
        prop_assert_eq!(out.as_i64().unwrap(), &[-3 * k, 0, 7 * k][..]);
    }
}

// ---------------------------------------------------------------------
// Range-check elision is sound: the elided build computes what the fully
// checked one does, errors included.
// ---------------------------------------------------------------------

/// `i` counts up from `start` while it is below `n + k` or
/// `Length[t] + k` (`<` or `<=`); each iteration reads `t[[i + c]]` into a
/// sum or stores `i + c` there in a copy of `t`.
fn counted_loop_src(
    start: i64,
    on_length: bool,
    k: i64,
    strict: bool,
    c: i64,
    store: bool,
) -> String {
    let bound = if on_length { "Length[t]" } else { "n" };
    let cmp = if strict { "<" } else { "<=" };
    let (body, result) = if store {
        (format!("u[[i + ({c})]] = i + ({c})"), "u")
    } else {
        (format!("s = s + t[[i + ({c})]] + i"), "s")
    };
    format!(
        "Function[{{Typed[t, \"Tensor\"[\"Integer64\", 1]], Typed[n, \"MachineInteger\"]}}, \
         Module[{{i = {start}, s = 0, u = t}}, \
          While[i {cmp} {bound} + ({k}), {body}; i = i + 1]; {result}]]"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn range_elision_agrees_with_the_checked_build_on_counted_loops(
        start in -3i64..3,
        on_length in 0u8..2,
        k in -2i64..3,
        strict in 0u8..2,
        c in -2i64..3,
        store in 0u8..2,
        len in 0i64..6,
        n in -1i64..7,
    ) {
        use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
        let src = counted_loop_src(start, on_length == 1, k, strict == 1, c, store == 1);
        let mut checked = CompilerOptions::default();
        Ablation::RangeElision.apply(&mut checked);
        // A wrong proof may surface as a panic of the unchecked op's slice
        // index: an outcome like any other, so that the case is reported.
        let outcome = |options: CompilerOptions| {
            let cf = Compiler::new(options).function_compile_src(&src).expect("compiles");
            let args = [
                Value::Tensor(Tensor::from_i64((1..=len).map(|x| 10 * x).collect())),
                Value::I64(n),
            ];
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cf.call(&args)))
                .map(|r| r.map(|v| v.to_expr()).map_err(|e| e.to_string()))
                .map_err(|_| "panicked")
        };
        prop_assert_eq!(
            outcome(CompilerOptions::default()),
            outcome(checked),
            "program: {} on a length-{} tensor and n = {}",
            src,
            len,
            n
        );
    }
}

/// `y >= MIN` bounds `y` by nothing `i64` does not: `y - 1` at `y = MIN`
/// overflows with elision on as with it off.
#[test]
fn a_guard_at_i64_min_keeps_the_decrement_checked() {
    use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
    for guard in [
        "y >= -9223372036854775807 - 1",
        "-9223372036854775807 - 1 <= y",
    ] {
        let src = format!("Function[{{Typed[y, \"MachineInteger\"]}}, If[{guard}, y - 1, 0]]");
        for elide in [true, false] {
            let mut options = CompilerOptions::default();
            if !elide {
                Ablation::RangeElision.apply(&mut options);
            }
            let cf = Compiler::new(options)
                .function_compile_src(&src)
                .expect("compiles");
            let res = cf.call(&[Value::I64(i64::MIN)]);
            assert!(res.is_err(), "{guard} with elision {elide}: {res:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Calls through a closure chosen at run time: the default compile
// resolves them to direct calls and inlines them, `Ablation::Inlining`
// keeps `call.value`, and the interpreter is the reference.
// ---------------------------------------------------------------------

/// The comparators a drawn program picks among; the last adds before it
/// compares, so `i64::MAX` in the list overflows inside it.
const COMPARATORS: [&str; 4] = ["a < b", "a > b", "a <= b", "a + 1 < b"];

/// An insertion sort of `v` with the comparator `If` picks by `w` out of
/// two or three of [`COMPARATORS`] (a comparator drawn twice is two
/// lambdas).
fn closure_sort_src(picks: &[usize]) -> String {
    let lambda = |k: usize| {
        format!(
            "Function[{{Typed[a, \"MachineInteger\"], Typed[b, \"MachineInteger\"]}}, {}]",
            COMPARATORS[k]
        )
    };
    let choice = match picks {
        [x, y] => format!("If[w == 0, {}, {}]", lambda(*x), lambda(*y)),
        [x, y, z] => format!(
            "If[w == 0, {}, If[w == 1, {}, {}]]",
            lambda(*x),
            lambda(*y),
            lambda(*z)
        ),
        _ => unreachable!("two or three comparators"),
    };
    format!(
        "Function[{{Typed[v, \"Tensor\"[\"Integer64\", 1]], Typed[w, \"MachineInteger\"]}}, \
         Module[{{cmp = {choice}, arr = v, i = 2, j, t}}, \
          While[i <= Length[arr], \
           j = i; \
           While[j > 1 && cmp[arr[[j]], arr[[j - 1]]], \
            t = arr[[j]]; arr[[j]] = arr[[j - 1]]; arr[[j - 1]] = t; j = j - 1]; \
           i = i + 1]; \
          arr]]"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn closure_calls_agree_with_and_without_inlining_and_with_the_interpreter(
        picks in prop::collection::vec(0usize..4, 2..4),
        xs in prop::collection::vec(
            prop_oneof![-3i64..4, Just(i64::MIN), Just(i64::MAX)],
            0..12,
        ),
        w in 0i64..3,
    ) {
        use std::{cell::RefCell, rc::Rc};
        use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
        use wolfram_language_compiler::runtime::memory;
        let src = closure_sort_src(&picks);
        let mut indirect = CompilerOptions::default();
        Ablation::Inlining.apply(&mut indirect);
        let args = [Value::Tensor(Tensor::from_i64(xs.clone())), Value::I64(w)];
        let outcome = |options: CompilerOptions| {
            let cf = Compiler::new(options).function_compile_src(&src).expect("compiles");
            let before = memory::stats();
            let got = cf.call(&args).map(|v| v.to_expr()).map_err(|e| e.tag().to_owned());
            let after = memory::stats();
            (got, after.acquires - before.acquires, after.releases - before.releases)
        };
        let (direct, acquired, released) = outcome(CompilerOptions::default());
        prop_assert_eq!(acquired, released, "default compile of {}", src);
        let (by_value, acquired, released) = outcome(indirect);
        prop_assert_eq!(acquired, released, "call.value compile of {}", src);
        prop_assert_eq!(&direct, &by_value, "program: {} on {:?}, w = {}", src, xs, w);
        // The interpreter's integers do not overflow: where the compiled
        // sort raises, the hosted compile reverts to it (F2).
        let call = Expr::normal(
            parse(&src).unwrap(),
            args.iter().map(Value::to_expr).collect::<Vec<_>>(),
        );
        let interpreted = Interpreter::new().eval(&call).expect("interprets");
        match &direct {
            Ok(value) => prop_assert_eq!(value, &interpreted, "program: {}", src),
            Err(tag) => prop_assert_eq!(tag.as_str(), "IntegerOverflow"),
        }
        let hosted = Compiler::default()
            .function_compile_src(&src)
            .expect("compiles")
            .hosted(Rc::new(RefCell::new(Interpreter::new())));
        prop_assert_eq!(hosted.call(&args).unwrap().to_expr(), interpreted);
    }
}

// ---------------------------------------------------------------------
// Scatter-add loops: the default compile plans them, `Ablation::Vectorize`
// keeps them scalar, and the interpreter is the reference.
// ---------------------------------------------------------------------

/// `t[[data[[i]] + off]] += addend` over a `len`-bin tensor of `init`s.
fn scatter_add_src(len: usize, init: i64, off: i64, addend: &str) -> String {
    format!(
        "Function[{{Typed[data, \"Tensor\"[\"Integer64\", 1]]}}, \
         Module[{{t = ConstantArray[{init}, {len}], i = 1, n = Length[data], b}}, \
          While[i <= n, b = data[[i]] + ({off}); t[[b]] = t[[b]] + {addend}; i = i + 1]; \
          t]]"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scatter_add_loops_agree_with_scalar_loops_and_the_interpreter(
        len in 1usize..300,
        init in prop_oneof![Just(0i64), -3i64..4, Just(i64::MAX - 600)],
        off in -2i64..3,
        addend in 0usize..4,
        data in prop::collection::vec(
            (0u16..2000, -320i64..321).prop_map(|(r, x)| if r == 0 { i64::MAX } else { x }),
            0..1400,
        ),
        fold in 0u8..2,
    ) {
        use wolfram_language_compiler::codegen::RegOp;
        use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
        use wolfram_language_compiler::runtime::memory;
        let addend = ["1", "data[[i]]", "(data[[i]] - 2)", "(data[[i]] * data[[i]])"][addend];
        let src = scatter_add_src(len, init, off, addend);
        let mut scalar = CompilerOptions::default();
        Ablation::Vectorize.apply(&mut scalar);
        // Half the draws fold the data into the bins, so most elements
        // count and long batches run to the end.
        let data: Vec<i64> = if fold == 1 {
            let m = len as i64;
            data.iter().map(|&x| if x == i64::MAX { x } else { x % m }).collect()
        } else {
            data
        };
        let args = [Value::Tensor(Tensor::from_i64(data.clone()))];
        let outcome = |options: CompilerOptions| {
            let planted = options.loop_vectorize;
            let cf = Compiler::new(options).function_compile_src(&src).expect("compiles");
            let ops = cf.program.funcs.iter().flat_map(|f| &f.code);
            let plans = ops.filter(|op| matches!(op, RegOp::VecLoop { .. })).count();
            prop_assert_eq!(plans, usize::from(planted), "program: {}", src);
            let before = memory::stats();
            let got = cf.call(&args).map(|v| v.to_expr()).map_err(|e| e.to_string());
            let after = memory::stats();
            prop_assert_eq!(after.acquires - before.acquires, after.releases - before.releases);
            Ok((got, after.tensor_copies - before.tensor_copies))
        };
        let planted = outcome(CompilerOptions::default())?;
        prop_assert_eq!(&planted, &outcome(scalar)?, "program: {} on {:?}", src, data);
        // The interpreter's integers do not overflow and its Part does not
        // raise: compare where the compiled loop finishes.
        if let Ok(value) = &planted.0 {
            let call = Expr::normal(
                parse(&src).unwrap(),
                args.iter().map(Value::to_expr).collect::<Vec<_>>(),
            );
            let interpreted = Interpreter::new().eval(&call).expect("interprets");
            prop_assert_eq!(value, &interpreted, "program: {}", src);
        }
    }
}

// ---------------------------------------------------------------------
// Fold loops: a chain over one carried integer. The default compile plans
// it, `Ablation::Vectorize` keeps it scalar, and the interpreter is the
// reference.
// ---------------------------------------------------------------------

/// `h = chain(h, d[[i]])` for `i = 1..=Length[d]`, returning `h`. Each
/// step is `(op, rhs, swap)`: `BitXor`, `+`, `−`, `×` or `Mod` (by the
/// constant `rhs` picks) of the chain so far and `rhs` (the element, a
/// constant or the parameter `k`), the chain on the right when `swap`.
fn fold_src(init: i64, steps: &[(u8, usize, bool)]) -> String {
    const RHS: [&str; 6] = ["d[[i]]", "3", "-5", "1000", "16777619", "k"];
    const MODULI: [i64; 6] = [1 << 32, 1, -8, 1_000_003, 1 << 62, 7];
    let mut e = "h".to_owned();
    for &(op, rhs, swap) in steps {
        let y = RHS[rhs];
        let (a, b) = if swap {
            (y, e.as_str())
        } else {
            (e.as_str(), y)
        };
        e = match op {
            0 => format!("BitXor[{a}, {b}]"),
            1 => format!("({a} + {b})"),
            2 => format!("({a} - {b})"),
            3 => format!("({a} * {b})"),
            _ => format!("Mod[{e}, {}]", MODULI[rhs]),
        };
    }
    format!(
        "Function[{{Typed[d, \"Tensor\"[\"Integer64\", 1]], Typed[k, \"MachineInteger\"]}}, \
         Module[{{h = {init}, i = 1, n = Length[d]}}, \
          While[i <= n, h = {e}; i = i + 1]; \
          h]]"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fold_loops_agree_with_scalar_loops_and_the_interpreter(
        init in prop_oneof![Just(0i64), Just(2_166_136_261), -5i64..6],
        steps in prop::collection::vec((0u8..5, 0usize..6, any::<bool>()), 1..5),
        k in prop_oneof![-3i64..4, Just(i64::MAX)],
        data in prop::collection::vec(
            (0u16..3000, -300i64..301).prop_map(|(r, x)| match r {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => x,
            }),
            8..3000,
        ),
    ) {
        use wolfram_language_compiler::codegen::RegOp;
        use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
        let src = fold_src(init, &steps);
        let mut scalar = CompilerOptions::default();
        Ablation::Vectorize.apply(&mut scalar);
        let args = [Value::Tensor(Tensor::from_i64(data.clone())), Value::I64(k)];
        let outcome = |options: CompilerOptions| {
            let planted = options.loop_vectorize;
            let cf = Compiler::new(options).function_compile_src(&src).expect("compiles");
            let ops = cf.program.funcs.iter().flat_map(|f| &f.code);
            let plans = ops.filter(|op| matches!(op, RegOp::VecLoop { .. })).count();
            prop_assert_eq!(plans, usize::from(planted), "program: {}", src);
            Ok(cf.call(&args).map(|v| v.to_expr()).map_err(|e| e.to_string()))
        };
        let planted = outcome(CompilerOptions::default())?;
        prop_assert_eq!(&planted, &outcome(scalar)?, "program: {} on {:?}", src, data);
        // The interpreter's integers do not overflow: compare where the
        // compiled loop finishes.
        if let Ok(value) = &planted {
            let call = Expr::normal(
                parse(&src).unwrap(),
                args.iter().map(Value::to_expr).collect::<Vec<_>>(),
            );
            let interpreted = Interpreter::new().eval(&call).expect("interprets");
            prop_assert_eq!(value, &interpreted, "program: {}", src);
        }
    }
}

// ---------------------------------------------------------------------
// Map loops: a straight-line real stencil stored at an affine index. The
// default compile plans it, `Ablation::Vectorize` keeps it scalar, and the
// interpreter is the reference.
// ---------------------------------------------------------------------

/// One operand of a stencil body, `(kind, offset, pick)`: `a[[i + o]]`,
/// `a[[2 i + o]]` (a strided load), `m[[r, i + o]]` (along a row of `m`),
/// a real constant or the parameter `p`.
fn stencil_leaf((kind, o, pick): (u8, i64, usize)) -> String {
    const CONSTANTS: [&str; 4] = ["0.5", "-1.25", "3.", "p"];
    match kind {
        0 => format!("a[[i + ({o})]]"),
        1 => format!("a[[2*i + ({o})]]"),
        2 => format!("m[[{}, i + ({o})]]", pick % 3 + 1),
        _ => CONSTANTS[pick % 4].to_owned(),
    }
}

/// `out[[i]] = e` for `i = 2..=n + 1`, or `out[[i, 2]] = e` into an
/// `(n + 2) × 3` matrix (a strided store) when `strided`. `e` combines the
/// leaves left to right by `+`, `−` or `×`, or divides by a nonzero
/// constant (the leaf then unused).
fn map_src(leaves: &[(u8, i64, usize)], ops: &[u8], strided: bool) -> String {
    const DIVISORS: [&str; 3] = ["2.", "-4.", "0.5"];
    let mut e = stencil_leaf(leaves[0]);
    for (&op, &leaf) in ops.iter().zip(&leaves[1..]) {
        let y = stencil_leaf(leaf);
        e = match op {
            0 => format!("({e} + {y})"),
            1 => format!("({e} - {y})"),
            2 => format!("({e} * {y})"),
            _ => format!("({e} / {})", DIVISORS[leaf.2 % 3]),
        };
    }
    let (out, store) = if strided {
        ("ConstantArray[0., {n + 2, 3}]", "out[[i, 2]]")
    } else {
        ("ConstantArray[0., n + 2]", "out[[i]]")
    };
    format!(
        "Function[{{Typed[a, \"Tensor\"[\"Real64\", 1]], Typed[m, \"Tensor\"[\"Real64\", 2]], \
          Typed[p, \"Real64\"], Typed[n, \"MachineInteger\"]}}, \
         Module[{{out = {out}, i = 2, k = n + 1}}, \
          While[i <= k, {store} = {e}; i = i + 1]; \
          out]]"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_loops_agree_with_scalar_loops_and_the_interpreter(
        leaves in prop::collection::vec((0u8..4, -1i64..2, 0usize..12), 1..5),
        ops in prop::collection::vec(0u8..4, 4),
        strided in any::<bool>(),
        // Trip counts from 0 to past two blocks (1,024 elements each), a
        // third of them around a block's end.
        n in prop_oneof![0usize..40, 0usize..40, 1020usize..1030, 2045usize..2055],
        short in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use wolfram_language_compiler::codegen::RegOp;
        use wolfram_language_compiler::compiler::{Ablation, CompilerOptions};
        let src = map_src(&leaves, &ops, strided);
        let mut scalar = CompilerOptions::default();
        Ablation::Vectorize.apply(&mut scalar);
        // Dyadic values: every sum, difference, product and quotient the
        // bodies compute is exact, so the interpreter's order of operations
        // cannot change a bit.
        let mut state = seed;
        let mut draw = |len: usize| -> Vec<f64> {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((state >> 33) % 1601) as f64 / 8.0 - 100.0
                })
                .collect()
        };
        let tensor = |shape: Vec<usize>, data: Vec<f64>| {
            Value::Tensor(Tensor::with_shape(shape, TensorData::F64(data)).unwrap())
        };
        // A short `m` faults on the last element a `+ 1` offset reads.
        let cols = n + 2 - usize::from(short);
        let args = [
            tensor(vec![2 * n + 4], draw(2 * n + 4)),
            tensor(vec![3, cols], draw(3 * cols)),
            Value::F64(draw(1)[0]),
            Value::I64(n as i64),
        ];
        let outcome = |options: CompilerOptions| {
            let planted = options.loop_vectorize;
            let cf = Compiler::new(options).function_compile_src(&src).expect("compiles");
            let ops = cf.program.funcs.iter().flat_map(|f| &f.code);
            let plans = ops.filter(|op| matches!(op, RegOp::VecLoop { .. })).count();
            prop_assert_eq!(plans, usize::from(planted), "program: {}", src);
            Ok(cf.call(&args).map_err(|e| e.to_string()))
        };
        let bits = |r: &Result<Value, String>| {
            r.as_ref().map(|v| {
                let t = v.expect_tensor().expect("a tensor");
                (t.shape().to_vec(), t.as_f64().expect("reals").iter().map(|x| x.to_bits()).collect::<Vec<_>>())
            }).map_err(Clone::clone)
        };
        let planted = outcome(CompilerOptions::default())?;
        prop_assert_eq!(bits(&planted), bits(&outcome(scalar)?), "program: {} at n = {}", src, n);
        if let Ok(value) = &planted {
            let call = Expr::normal(
                parse(&src).unwrap(),
                args.iter().map(Value::to_expr).collect::<Vec<_>>(),
            );
            let interpreted = Interpreter::new().eval(&call).expect("interprets");
            prop_assert_eq!(&value.to_expr(), &interpreted, "program: {}", src);
        }
    }
}

// ---------------------------------------------------------------------
// Stream records: the direct reader and writer against the expression
// tree they bypass.
// ---------------------------------------------------------------------

use proptest::prelude::prop::sample::select;
use wolfram_language_compiler::runtime::RuntimeError;
use wolfram_language_compiler::stream::{parse_record, render_result};

/// A record read through the expression tree: the expression reader,
/// `Value::from_expr`, then the split into one argument per parameter.
fn parse_record_via_expr(line: &str, arity: usize) -> Result<Vec<Value>, String> {
    let expr = parse(line).map_err(|e| e.to_string())?;
    if arity == 1 {
        return Ok(vec![Value::from_expr(&expr)]);
    }
    if !expr.has_head("List") || expr.args().len() != arity {
        return Err(format!(
            "expected a {arity}-element argument list, got {}",
            line.trim()
        ));
    }
    Ok(expr.args().iter().map(Value::from_expr).collect())
}

/// Equal values, reals compared by their bits: `-0.` is not `0.`.
fn same_bits(a: &Value, b: &Value) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Tensor(x), Value::Tensor(y)) => {
            x.shape() == y.shape()
                && match (x.data(), y.data()) {
                    (TensorData::F64(p), TensorData::F64(q)) => bits(p) == bits(q),
                    (p, q) => p == q,
                }
        }
        _ => a == b,
    }
}

fn reads_like_the_expression_reader(line: &str, arity: usize) -> Result<(), TestCaseError> {
    match (
        parse_record(line, arity),
        parse_record_via_expr(line, arity),
    ) {
        (Ok(direct), Ok(tree)) => prop_assert!(
            direct.len() == tree.len() && direct.iter().zip(&tree).all(|(a, b)| same_bits(a, b)),
            "{:?} at arity {}: {:?}, through the tree {:?}",
            line,
            arity,
            direct,
            tree
        ),
        (Err(direct), Err(tree)) => prop_assert_eq!(direct, tree, "{:?} at arity {}", line, arity),
        (direct, tree) => prop_assert!(
            false,
            "{:?} at arity {}: {:?}, through the tree {:?}",
            line,
            arity,
            direct,
            tree
        ),
    }
    Ok(())
}

/// Number literals of the record grammar and their near misses.
fn arb_number_text() -> impl Strategy<Value = String> {
    let fixed = select(vec![
        "0",
        "-0",
        "007",
        "-007",
        "123456789012345678",
        "-123456789012345678",
        "1234567890123456789",
        "9223372036854775807",
        "-9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "99999999999999999999",
        "3.",
        "-0.",
        "-3.",
        "0.1000000000000000055511151231257827",
        "1.5*^3",
        "2*^-1",
        "1.*^300",
        "5.*^-324",
        "1*^",
        "+3",
        "1.2.3",
        "--1",
        "1..2",
        "1e5",
        ".5",
        "- 3",
        "-{1}",
        "Infinity",
        "x",
    ])
    .prop_map(String::from);
    prop_oneof![
        fixed,
        any::<i64>().prop_map(|v| v.to_string()),
        any::<f64>().prop_map(|x| format!("{x:?}")),
        (-1.0e3..1.0e3f64).prop_map(|x| format!("{x:.3}")),
        "-?[0-9]{1,20}",
        "-?[0-9]{1,20}\\.[0-9]{0,20}",
    ]
}

/// A number with spaces, or now and then a tab, around it.
fn arb_spaced_number() -> impl Strategy<Value = String> {
    let space = || select(vec!["", "", "", " ", "  ", "\t"]);
    (space(), arb_number_text(), space()).prop_map(|(a, n, b)| format!("{a}{n}{b}"))
}

fn braced(items: Vec<String>) -> String {
    format!("{{{}}}", items.join(","))
}

/// Record lines: numbers; empty, rank-1 and rank-2 lists, rectangular,
/// ragged and mixed; lists of two or three arguments; malformed text;
/// arbitrary strings.
fn arb_record_line() -> BoxedStrategy<String> {
    let vector = prop::collection::vec(arb_spaced_number(), 0..5).prop_map(braced);
    let matrix = (1usize..4, prop::collection::vec(arb_spaced_number(), 1..4))
        .prop_map(|(rows, row)| braced(vec![braced(row); rows]));
    let ragged = prop::collection::vec(prop::collection::vec(arb_spaced_number(), 1..4), 1..4)
        .prop_map(|rows| braced(rows.into_iter().map(braced).collect()));
    let nested = arb_spaced_number().prop_recursive(3, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(braced)
    });
    let arguments = prop::collection::vec(
        prop_oneof![arb_spaced_number(), vector.clone(), matrix.clone()],
        2..4,
    )
    .prop_map(|args| args.join(", "))
    .prop_map(|args| format!("{{{args}}}"));
    let malformed = select(vec![
        "{1,,2}",
        "1.2.3",
        "--1",
        "{1, 2",
        "{1, 2}}",
        "{}",
        "{{}}",
        "{{}, {}}",
        "{1,}",
        "{,1}",
        "{1 2}",
        "{{1, 2}, {3}}",
        "{{1, 2}, {3}, {4, 5, 6}}",
        "{1, {2}}",
        "{{1}, 2}",
        "+3",
        " 4 ",
        "",
        " ",
        "{\"s\", 1}",
        "{1, 2}[[1]]",
        "-{1, 2}",
        "{-1, -2.}",
    ])
    .prop_map(String::from);
    prop_oneof![
        arb_spaced_number(),
        vector,
        matrix,
        ragged,
        nested,
        arguments,
        malformed,
        "[ -~]{0,16}",
        "[-0-9.,{} *^+\t]{0,16}",
        "[0-9{}, é]{0,10}",
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn record_reader_matches_the_expression_reader(line in arb_record_line(), arity in 0usize..4) {
        reads_like_the_expression_reader(&line, arity)?;
    }

    #[test]
    fn record_writer_matches_input_form(bits in any::<u64>(), v in any::<i64>(), x in any::<f64>()) {
        for value in [Value::F64(f64::from_bits(bits)), Value::I64(v), Value::F64(x)] {
            prop_assert_eq!(
                render_result(&Ok(value.clone())),
                format!("ok {}", value.to_expr().to_input_form())
            );
        }
    }
}

#[test]
fn record_reader_edge_lines() {
    let lines = [
        "0",
        "-0",
        "007",
        "123456789012345678",
        "1234567890123456789",
        "9223372036854775807",
        "-9223372036854775807",
        "-9223372036854775808",
        "3.",
        "-0.",
        "0.1000000000000000055511151231257827",
        "1.5*^3",
        "+3",
        "  4  ",
        "\t5",
        "{}",
        "{1, 2, 3}",
        "{{1, 2}, {3, 4}}",
        "{{1., 2}, {3, 4}}",
        "{{1}, {2, 3}}",
        "{{1, 2}, {3}, {4, 5, 6}}",
        "{1, 2., 3}",
        "{3, 4.5}",
        "{{1, 2}, 3}",
        "{1,,2}",
        "1.2.3",
        "--1",
        "{1, 2",
    ];
    for line in lines {
        for arity in 0..4 {
            if let Err(e) = reads_like_the_expression_reader(line, arity) {
                panic!("{e:?}");
            }
        }
    }
}

#[test]
fn record_reader_does_not_recurse_on_depth() {
    let depth = 100_000;
    let line = format!("{}1{}", "{".repeat(depth), "}".repeat(depth));
    let record = parse_record(&line, 1).expect("a deep rectangular list reads");
    let tensor = record[0].expect_tensor().expect("a tensor");
    assert_eq!(tensor.shape(), vec![1; depth].as_slice());
}

#[test]
fn record_writer_edge_values() {
    let mut values: Vec<Value> = [i64::MIN, i64::MAX, 0, -1].map(Value::I64).to_vec();
    values.extend(
        [
            0.0,
            -0.0,
            1e15 - 1.0,
            1e15,
            1e15 + 1.0,
            -(1e15 - 1.0),
            -1e15,
            -(1e15 + 1.0),
            0.1,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]
        .map(Value::F64),
    );
    values.push(Value::Tensor(
        Tensor::with_shape(vec![2, 2], TensorData::F64(vec![1.0, -0.0, 0.5, 1e20])).unwrap(),
    ));
    values.push(Value::Str(std::sync::Arc::new("a \"b\"".to_owned())));
    values.push(Value::Bool(true));
    for v in values {
        assert_eq!(
            render_result(&Ok(v.clone())),
            format!("ok {}", v.to_expr().to_input_form())
        );
    }
    let e = RuntimeError::PartOutOfRange {
        index: 5,
        length: 3,
    };
    assert_eq!(render_result(&Err(e.clone())), format!("err {e}"));
}
