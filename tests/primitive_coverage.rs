//! Every primitive of the table is exercised end to end.
//!
//! Each row is a typed one-line `Function` with arguments. It is compiled
//! to TWIR (to collect the primitives the optimised code still calls),
//! compiled to the native machine, run there, and compared with the
//! interpreter under the differential fuzzer's equivalence relation. After
//! the last row the collected primitives must be exactly `Prim::ALL`: a
//! primitive added to the table without a row here fails this test, and
//! so does one whose row stops reaching it.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use wolfram_difftest::oracle::values_equivalent;
use wolfram_ir::{Callee, Instr};
use wolfram_language_compiler::compiler::Compiler;
use wolfram_language_compiler::expr::{parse, Expr};
use wolfram_language_compiler::interp::Interpreter;
use wolfram_language_compiler::runtime::Value;
use wolfram_types::Prim;

const INT: &str = "Typed[i, \"MachineInteger\"]";
const INT2: &str = "Typed[i, \"MachineInteger\"], Typed[j, \"MachineInteger\"]";
const REAL: &str = "Typed[x, \"Real64\"]";
const REAL2: &str = "Typed[x, \"Real64\"], Typed[y, \"Real64\"]";
const INTS: &str = "Typed[v, \"Tensor\"[\"Integer64\", 1]]";
const REALS: &str = "Typed[v, \"Tensor\"[\"Real64\", 1]]";
const REALS2: &str = "Typed[v, \"Tensor\"[\"Real64\", 1]], Typed[w, \"Tensor\"[\"Real64\", 1]]";
const MATRIX: &str = "Typed[m, \"Tensor\"[\"Real64\", 2]]";
const STRING: &str = "Typed[s, \"String\"]";
const COMPLEX: &str = "Typed[z, \"ComplexReal64\"]";
const EXPR: &str = "Typed[e, \"Expression\"]";

/// `(parameters, body, arguments)`.
const ROWS: &[(&str, &str, &str)] = &[
    // Scalar arithmetic at Integer64, Real64 and ComplexReal64.
    (INT2, "i + j", "3, 4"),
    (INT2, "Subtract[i, j]", "3, 4"),
    (INT2, "i * j", "3, 4"),
    (REAL2, "Divide[x, y]", "3., 4."),
    (COMPLEX, "z * z + z - z / z", "N[3 + 4*I]"),
    (INT2, "i^j", "3, 4"),
    (COMPLEX, "z^3", "N[3 + 4*I]"),
    (INT2, "Mod[i, j]", "-7, 3"),
    (INT2, "Quotient[i, j]", "-7, 3"),
    (REAL, "Minus[x]", "2.5"),
    (COMPLEX, "Minus[z]", "N[3 + 4*I]"),
    (INT, "Abs[i]", "-3"),
    (REAL, "Sign[x]", "-2.5"),
    (INT2, "Min[i, j] + Max[i, j]", "3, 4"),
    (REAL, "Floor[x] + Ceiling[x] + Round[x]", "2.25"),
    (INT, "N[i]", "3"),
    (REAL2, "ArcTan[x, y]", "3., 4."),
    // Comparisons, one row per member, and logic.
    (
        INT2,
        "Boole[i < j] + 2*Boole[i <= j] + 4*Boole[i > j]",
        "3, 4",
    ),
    (
        INT2,
        "Boole[i >= j] + 2*Boole[i == j] + 4*Boole[i != j]",
        "3, 4",
    ),
    (COMPLEX, "Boole[z == z] + 2*Boole[z != z]", "N[3 + 4*I]"),
    (INT2, "Not[i < j]", "3, 4"),
    // Elementary functions.
    (REAL, "Sin[x] + Cos[x] + Tan[x] + Exp[x] + Log[x]", "0.5"),
    (REAL, "ArcTan[x] + ArcSin[x] + ArcCos[x]", "0.5"),
    // Bit operations and number theory.
    (INT2, "BitAnd[i, j] + BitOr[i, j] + BitXor[i, j]", "12, 10"),
    (INT2, "BitShiftLeft[i, j] + BitShiftRight[i, j]", "12, 2"),
    (INT2, "GCD[i, j] + Factorial[j]", "12, 10"),
    (INT2, "PowerMod[i, j, 7]", "3, 4"),
    // Past the machine range: the native call raises and the interpreter
    // answers exactly.
    (INT2, "BitShiftLeft[i, j]", "3, 62"),
    (INT, "GCD[i - 1, 0]", "-9223372036854775807"),
    // A negative count shifts the other way.
    (INT2, "BitShiftLeft[i, j]", "5, -1"),
    (INT2, "BitShiftRight[i, j]", "5, -1"),
    // A negative exponent is the modular inverse; the result takes the
    // modulus's sign.
    (INT2, "PowerMod[i, j, 7]", "3, -1"),
    (INT2, "PowerMod[i, 4, j]", "3, -7"),
    // Complex numbers.
    (REAL2, "Complex[x, y]", "3., 4."),
    (COMPLEX, "Re[z] + Im[z] + Abs[z]", "N[3 + 4*I]"),
    (COMPLEX, "Conjugate[z]", "N[3 + 4*I]"),
    // Tensors: access, update, construction, products, elementwise.
    (INTS, "Length[v] + v[[2]]", "{5, 6, 7}"),
    (MATRIX, "m[[2, 1]]", "{{1., 2.}, {3., 4.}}"),
    (INTS, "Module[{w = v}, w[[2]] = 9; w]", "{5, 6, 7}"),
    (
        MATRIX,
        "Module[{w = m}, w[[2, 1]] = 9.; w]",
        "{{1., 2.}, {3., 4.}}",
    ),
    (REALS, "NestList[Function[{t}, t + t], v, 2]", "{1., 2.}"),
    (INT, "ConstantArray[7, i]", "3"),
    // A mixed list resolves at Real64: the integer immediates widen.
    (REAL, "{1, x, 3}", "2.5"),
    (REALS2, "Dot[v, w]", "{1., 2.}, {3., 4.}"),
    (MATRIX, "Dot[m, m]", "{{1., 2.}, {3., 4.}}"),
    (MATRIX, "Dot[m, {5., 6.}]", "{{1., 2.}, {3., 4.}}"),
    (REALS2, "(v + w) * v - w", "{1., 2.}, {3., 4.}"),
    (REALS2, "Subtract[v, w]", "{1., 2.}, {3., 4.}"),
    (REALS, "(v + 1.) * 2.", "{1., 2.}"),
    (REALS, "Subtract[v, 1.]", "{1., 2.}"),
    (REALS, "1. + 2. * v", "{1., 2.}"),
    (REALS, "Subtract[1., v]", "{1., 2.}"),
    // Strings.
    (STRING, "StringLength[StringJoin[s, s]]", "\"héllo\""),
    (STRING, "FromCharacterCode[ToCharacterCode[s]]", "\"hello\""),
    // Character codes are code points, not UTF-8 bytes.
    (STRING, "ToCharacterCode[s]", "\"héllo\""),
    (STRING, "FromCharacterCode[ToCharacterCode[s]]", "\"héllo\""),
    // Random numbers: only the range is comparable.
    (REAL, "Module[{r = RandomReal[]}, 0. <= r && r < x]", "1."),
    (
        REAL,
        "Module[{r = RandomReal[{x, 3.}]}, x <= r && r <= 3.]",
        "2.",
    ),
    // Symbolic arithmetic on boxed expressions, normalized by the host.
    (EXPR, "(e + e) * e - e", "a"),
    (EXPR, "e^e", "a"),
    (EXPR, "Sin[Cos[Tan[Exp[Log[e]]]]]", "a"),
    (EXPR, "ArcTan[ArcSin[ArcCos[Abs[e]]]]", "a"),
];

fn primitives_of(compiler: &Compiler, f: &Expr) -> HashSet<Prim> {
    let pm = compiler.compile_to_twir(f, None).expect("row compiles");
    pm.functions
        .iter()
        .flat_map(|f| f.instrs())
        .filter_map(|i| match i {
            Instr::Call {
                callee: Callee::Primitive { prim, .. },
                ..
            } => Some(*prim),
            _ => None,
        })
        .collect()
}

#[test]
fn every_primitive_runs_natively_and_agrees_with_the_interpreter() {
    let compiler = Compiler::default();
    let mut reached = HashSet::new();
    for (params, body, args) in ROWS {
        let src = format!("Function[{{{params}}}, {body}]");
        let f = parse(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
        let mut oracle = Interpreter::new();
        let args = oracle
            .eval_src(&format!("{{{args}}}"))
            .expect("arguments evaluate")
            .args()
            .to_vec();
        reached.extend(primitives_of(&compiler, &f));

        let engine = Rc::new(RefCell::new(Interpreter::new()));
        let compiled = compiler
            .function_compile(&f)
            .unwrap_or_else(|e| panic!("{src}: {e}"))
            .hosted(engine);
        let values: Vec<Value> = args.iter().map(Value::from_expr).collect();
        let native = compiled
            .call(&values)
            .unwrap_or_else(|e| panic!("{src}: native: {e:?}"));
        let interpreted = oracle
            .eval(&Expr::normal(f.clone(), args))
            .unwrap_or_else(|e| panic!("{src}: interpreter: {e:?}"));
        assert!(
            values_equivalent(&native, &Value::from_expr(&interpreted)),
            "{src}: native {} vs interpreter {}",
            native.to_expr().to_input_form(),
            interpreted.to_input_form()
        );
    }
    let missing: Vec<&str> = Prim::ALL
        .iter()
        .filter(|p| !reached.contains(p))
        .map(|p| p.name())
        .collect();
    assert!(missing.is_empty(), "no row reaches {missing:?}");
}
