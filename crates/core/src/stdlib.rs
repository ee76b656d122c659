//! The default builtin type environment (§4.4): polymorphic, qualified
//! declarations for the compiled function vocabulary, mapped onto runtime
//! primitives or Wolfram-source implementations.

use wolfram_expr::parse;
use wolfram_types::{Cmp, Elementary, ExprHead, FunctionImpl, Prim, Type, TypeEnvironment};

fn scheme(src: &str) -> Type {
    Type::from_expr(&parse(src).expect("stdlib scheme source")).expect("stdlib scheme")
}

fn prim(env: &mut TypeEnvironment, name: &str, spec: &str, prim: Prim) {
    env.declare_function(name, scheme(spec), FunctionImpl::Primitive(prim));
}

fn source(env: &mut TypeEnvironment, name: &str, spec: &str, body_src: &str, inline: bool) {
    let body = parse(body_src).expect("stdlib source body");
    env.declare_function(name, scheme(spec), FunctionImpl::Source(body));
    if inline {
        env.set_inline_always(name);
    }
}

/// Builds the default builtin type environment. Approximately 60 function
/// names across arithmetic, comparison, tensor, string, complex, symbolic,
/// and random functionality areas (the production compiler's ~2000
/// functions over 31 areas scale down to the areas this reproduction
/// exercises).
#[allow(clippy::too_many_lines)]
pub fn builtin_type_environment() -> TypeEnvironment {
    let mut env = TypeEnvironment::new();

    // ---- scalar arithmetic (Number-polymorphic) ----
    for (name, scalar, tensor, symbolic) in [
        ("Plus", Prim::Plus, Prim::TensorPlus, Prim::ExprPlus),
        (
            "Subtract",
            Prim::Subtract,
            Prim::TensorSubtract,
            Prim::ExprSubtract,
        ),
        ("Times", Prim::Times, Prim::TensorTimes, Prim::ExprTimes),
    ] {
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, {\"a\", \"a\"} -> \"a\"]",
            scalar,
        );
        // Element-wise tensor overload (rank polymorphic).
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\", \"n\"}, {Element[\"a\", \"Number\"]}, \
             {\"Tensor\"[\"a\", \"n\"], \"Tensor\"[\"a\", \"n\"]} -> \"Tensor\"[\"a\", \"n\"]]",
            tensor,
        );
        // Symbolic overload (F8).
        prim(
            &mut env,
            name,
            "{\"Expression\", \"Expression\"} -> \"Expression\"",
            symbolic,
        );
    }
    prim(
        &mut env,
        "Divide",
        "{\"Real64\", \"Real64\"} -> \"Real64\"",
        Prim::Divide,
    );
    prim(
        &mut env,
        "Divide",
        "{\"ComplexReal64\", \"ComplexReal64\"} -> \"ComplexReal64\"",
        Prim::Divide,
    );
    prim(
        &mut env,
        "Power",
        "{\"Integer64\", \"Integer64\"} -> \"Integer64\"",
        Prim::Power,
    );
    prim(
        &mut env,
        "Power",
        "{\"Real64\", \"Real64\"} -> \"Real64\"",
        Prim::Power,
    );
    // Without this overload `x^n` with real base and integer exponent
    // resolves via ComplexReal64 promotion, and the result *type* (complex
    // with zero imaginary part) diverges from the interpreter's real.
    prim(
        &mut env,
        "Power",
        "{\"Real64\", \"Integer64\"} -> \"Real64\"",
        Prim::Power,
    );
    prim(
        &mut env,
        "Power",
        "{\"ComplexReal64\", \"Integer64\"} -> \"ComplexReal64\"",
        Prim::Power,
    );
    prim(
        &mut env,
        "Power",
        "{\"Expression\", \"Expression\"} -> \"Expression\"",
        Prim::ExprPower,
    );
    prim(
        &mut env,
        "Minus",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, {\"a\"} -> \"a\"]",
        Prim::Minus,
    );
    prim(
        &mut env,
        "Abs",
        "{\"Integer64\"} -> \"Integer64\"",
        Prim::Abs,
    );
    prim(&mut env, "Abs", "{\"Real64\"} -> \"Real64\"", Prim::Abs);
    prim(
        &mut env,
        "Abs",
        "{\"ComplexReal64\"} -> \"Real64\"",
        Prim::ComplexAbs,
    );
    prim(
        &mut env,
        "Sign",
        "{\"Integer64\"} -> \"Integer64\"",
        Prim::Sign,
    );
    prim(&mut env, "Sign", "{\"Real64\"} -> \"Real64\"", Prim::Sign);
    prim(
        &mut env,
        "Mod",
        "{\"Integer64\", \"Integer64\"} -> \"Integer64\"",
        Prim::Mod,
    );
    prim(
        &mut env,
        "Mod",
        "{\"Real64\", \"Real64\"} -> \"Real64\"",
        Prim::Mod,
    );
    prim(
        &mut env,
        "Quotient",
        "{\"Integer64\", \"Integer64\"} -> \"Integer64\"",
        Prim::Quotient,
    );
    // The paper's §4.4 Min declaration, verbatim shape.
    for (name, p) in [("Min", Prim::Min), ("Max", Prim::Max)] {
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"a\"]",
            p,
        );
    }

    // ---- comparisons and logic ----
    for (name, p) in [
        ("Less", Prim::Compare(Cmp::Less)),
        ("LessEqual", Prim::Compare(Cmp::LessEqual)),
        ("Greater", Prim::Compare(Cmp::Greater)),
        ("GreaterEqual", Prim::Compare(Cmp::GreaterEqual)),
    ] {
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"Boolean\"]",
            p,
        );
    }
    for (name, p) in [
        ("Equal", Prim::Compare(Cmp::Equal)),
        ("Unequal", Prim::Compare(Cmp::Unequal)),
        ("SameQ", Prim::Compare(Cmp::Equal)),
        ("UnsameQ", Prim::Compare(Cmp::Unequal)),
    ] {
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\"}, {Element[\"a\", \"Equatable\"]}, {\"a\", \"a\"} -> \"Boolean\"]",
            p,
        );
        prim(
            &mut env,
            name,
            "{\"ComplexReal64\", \"ComplexReal64\"} -> \"Boolean\"",
            p,
        );
    }
    prim(&mut env, "Not", "{\"Boolean\"} -> \"Boolean\"", Prim::Not);
    prim(
        &mut env,
        "Boole",
        "{\"Boolean\"} -> \"Integer64\"",
        Prim::Boole,
    );

    // ---- elementary functions ----
    for f in Elementary::ALL {
        prim(
            &mut env,
            f.head(),
            "{\"Real64\"} -> \"Real64\"",
            Prim::Elementary(*f),
        );
    }
    prim(
        &mut env,
        "ArcTan",
        "{\"Real64\", \"Real64\"} -> \"Real64\"",
        Prim::ArcTan2,
    );
    // Symbolic overloads (F8): elementary functions of a boxed Expression
    // stay symbolic, normalized by the hosting engine.
    for head in ExprHead::ALL {
        prim(
            &mut env,
            head.head(),
            "{\"Expression\"} -> \"Expression\"",
            Prim::ExprUnary(*head),
        );
    }
    for (name, p) in [
        ("Floor", Prim::Floor),
        ("Ceiling", Prim::Ceiling),
        ("Round", Prim::Round),
    ] {
        prim(&mut env, name, "{\"Real64\"} -> \"Integer64\"", p);
        prim(&mut env, name, "{\"Integer64\"} -> \"Integer64\"", p);
    }
    prim(
        &mut env,
        "N",
        "{\"Integer64\"} -> \"Real64\"",
        Prim::Convert,
    );
    prim(&mut env, "N", "{\"Real64\"} -> \"Real64\"", Prim::Convert);

    // ---- bit operations and number theory ----
    for (name, p) in [
        ("BitAnd", Prim::BitAnd),
        ("BitOr", Prim::BitOr),
        ("BitXor", Prim::BitXor),
        ("BitShiftLeft", Prim::BitShiftLeft),
        ("BitShiftRight", Prim::BitShiftRight),
    ] {
        prim(
            &mut env,
            name,
            "{\"Integer64\", \"Integer64\"} -> \"Integer64\"",
            p,
        );
    }
    prim(
        &mut env,
        "GCD",
        "{\"Integer64\", \"Integer64\"} -> \"Integer64\"",
        Prim::Gcd,
    );
    // Factorial overflows machine integers at 21! — the canonical soft-
    // failure (F2) demo after cfib.
    prim(
        &mut env,
        "Factorial",
        "{\"Integer64\"} -> \"Integer64\"",
        Prim::Factorial,
    );
    prim(
        &mut env,
        "PowerMod",
        "{\"Integer64\", \"Integer64\", \"Integer64\"} -> \"Integer64\"",
        Prim::PowerMod,
    );
    // EvenQ/OddQ as *source* implementations: instantiated and inlined by
    // function resolution (exercises FunctionImpl::Source end to end).
    source(
        &mut env,
        "EvenQ",
        "{\"Integer64\"} -> \"Boolean\"",
        "Function[{n}, Mod[n, 2] == 0]",
        true,
    );
    source(
        &mut env,
        "OddQ",
        "{\"Integer64\"} -> \"Boolean\"",
        "Function[{n}, Mod[n, 2] == 1]",
        true,
    );

    // ---- complex numbers ----
    prim(
        &mut env,
        "Complex",
        "{\"Real64\", \"Real64\"} -> \"ComplexReal64\"",
        Prim::ComplexConstruct,
    );
    prim(
        &mut env,
        "Re",
        "{\"ComplexReal64\"} -> \"Real64\"",
        Prim::ComplexRe,
    );
    prim(
        &mut env,
        "Im",
        "{\"ComplexReal64\"} -> \"Real64\"",
        Prim::ComplexIm,
    );
    prim(&mut env, "Re", "{\"Real64\"} -> \"Real64\"", Prim::Convert);
    prim(
        &mut env,
        "Conjugate",
        "{\"ComplexReal64\"} -> \"ComplexReal64\"",
        Prim::ComplexConjugate,
    );

    // ---- tensors ----
    prim(
        &mut env,
        "Length",
        "TypeForAll[{\"a\", \"n\"}, {\"Tensor\"[\"a\", \"n\"]} -> \"Integer64\"]",
        Prim::TensorLength,
    );
    prim(
        &mut env,
        "Part",
        "TypeForAll[{\"a\"}, {\"Tensor\"[\"a\", 1], \"Integer64\"} -> \"a\"]",
        Prim::TensorPart1,
    );
    prim(
        &mut env,
        "Part",
        "TypeForAll[{\"a\"}, {\"Tensor\"[\"a\", 2], \"Integer64\", \"Integer64\"} -> \"a\"]",
        Prim::TensorPart2,
    );
    prim(
        &mut env,
        "Part$Set",
        "TypeForAll[{\"a\"}, {\"Tensor\"[\"a\", 1], \"Integer64\", \"a\"} -> \"Tensor\"[\"a\", 1]]",
        Prim::TensorSet1,
    );
    prim(
        &mut env,
        "Part$Set",
        "TypeForAll[{\"a\"}, {\"Tensor\"[\"a\", 2], \"Integer64\", \"Integer64\", \"a\"} \
         -> \"Tensor\"[\"a\", 2]]",
        Prim::TensorSet2,
    );
    prim(
        &mut env,
        "ConstantArray",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, {\"a\", \"Integer64\"} -> \
         \"Tensor\"[\"a\", 1]]",
        Prim::TensorFill1,
    );
    prim(
        &mut env,
        "ConstantArray",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, \
         {\"a\", \"Integer64\", \"Integer64\"} -> \"Tensor\"[\"a\", 2]]",
        Prim::TensorFill2,
    );
    for arity in 1..=8usize {
        let params: Vec<String> = (0..arity).map(|_| "\"a\"".to_owned()).collect();
        let spec = format!(
            "TypeForAll[{{\"a\"}}, {{Element[\"a\", \"Number\"]}}, {{{}}} -> \"Tensor\"[\"a\", 1]]",
            params.join(", ")
        );
        prim(&mut env, "List", &spec, Prim::ListConstruct);
    }
    prim(
        &mut env,
        "Dot",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, \
         {\"Tensor\"[\"a\", 1], \"Tensor\"[\"a\", 1]} -> \"a\"]",
        Prim::DotVector,
    );
    prim(
        &mut env,
        "Dot",
        "{\"Tensor\"[\"Real64\", 2], \"Tensor\"[\"Real64\", 2]} -> \"Tensor\"[\"Real64\", 2]",
        Prim::DotMatrix,
    );
    prim(
        &mut env,
        "Dot",
        "{\"Tensor\"[\"Real64\", 2], \"Tensor\"[\"Real64\", 1]} -> \"Tensor\"[\"Real64\", 1]",
        Prim::DotMatrixVector,
    );

    // Tensor (+) scalar broadcast (Listable arithmetic against a scalar;
    // the scalar promotes to the element type by the usual cost rules).
    for (name, tensor_scalar, scalar_tensor) in [
        ("Plus", Prim::TensorScalarPlus, Prim::ScalarTensorPlus),
        (
            "Subtract",
            Prim::TensorScalarSubtract,
            Prim::ScalarTensorSubtract,
        ),
        ("Times", Prim::TensorScalarTimes, Prim::ScalarTensorTimes),
    ] {
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\", \"n\"}, {Element[\"a\", \"Number\"]}, \
             {\"Tensor\"[\"a\", \"n\"], \"a\"} -> \"Tensor\"[\"a\", \"n\"]]",
            tensor_scalar,
        );
        prim(
            &mut env,
            name,
            "TypeForAll[{\"a\", \"n\"}, {Element[\"a\", \"Number\"]}, \
             {\"a\", \"Tensor\"[\"a\", \"n\"]} -> \"Tensor\"[\"a\", \"n\"]]",
            scalar_tensor,
        );
    }
    prim(
        &mut env,
        "Native`SetRow",
        "TypeForAll[{\"a\"}, {\"Tensor\"[\"a\", 2], \"Integer64\", \"Tensor\"[\"a\", 1]} \
         -> \"Tensor\"[\"a\", 2]]",
        Prim::TensorSetRow,
    );
    // NestList over rank-1 tensors: a *source* implementation building the
    // rank-2 result row by row (the random-walk benchmark's workhorse).
    source(
        &mut env,
        "NestList",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, \
         {{\"Tensor\"[\"a\", 1]} -> \"Tensor\"[\"a\", 1], \"Tensor\"[\"a\", 1], \"Integer64\"} \
         -> \"Tensor\"[\"a\", 2]]",
        "Function[{f, x, n}, \
         Module[{cols, out, cur, i}, \
           cols = Length[x]; \
           out = ConstantArray[Part[x, 1], n + 1, cols]; \
           out = Native`SetRow[out, 1, x]; \
           cur = x; i = 1; \
           While[i <= n, cur = f[cur]; out = Native`SetRow[out, i + 1, cur]; i = i + 1]; \
           out]]",
        false,
    );

    // Range/Total/Map/Fold as *source* implementations over rank-1
    // tensors: instantiated per monomorphic type by function resolution
    // (untyped lambdas passed to them are typed through the closure's
    // arrow constraint).
    source(
        &mut env,
        "Range",
        "{\"Integer64\"} -> \"Tensor\"[\"Integer64\", 1]",
        "Function[{n}, \
         Module[{out, i}, \
           out = ConstantArray[0, n]; i = 1; \
           While[i <= n, out[[i]] = i; i = i + 1]; \
           out]]",
        false,
    );
    source(
        &mut env,
        "Total",
        "TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, \
         {\"Tensor\"[\"a\", 1]} -> \"a\"]",
        "Function[{v}, \
         Module[{acc, i, n}, \
           n = Length[v]; acc = Part[v, 1]; i = 2; \
           While[i <= n, acc = acc + Part[v, i]; i = i + 1]; \
           acc]]",
        false,
    );
    source(
        &mut env,
        "Map",
        "TypeForAll[{\"a\", \"b\"}, \
         {Element[\"a\", \"Number\"], Element[\"b\", \"Number\"]}, \
         {{\"a\"} -> \"b\", \"Tensor\"[\"a\", 1]} -> \"Tensor\"[\"b\", 1]]",
        "Function[{f, v}, \
         Module[{out, i, n}, \
           n = Length[v]; \
           out = ConstantArray[f[Part[v, 1]], n]; i = 2; \
           While[i <= n, out[[i]] = f[Part[v, i]]; i = i + 1]; \
           out]]",
        false,
    );
    source(
        &mut env,
        "Nest",
        "TypeForAll[{\"a\"}, {{\"a\"} -> \"a\", \"a\", \"Integer64\"} -> \"a\"]",
        "Function[{f, x, n}, \
         Module[{cur, i}, \
           cur = x; i = 1; \
           While[i <= n, cur = f[cur]; i = i + 1]; \
           cur]]",
        false,
    );
    source(
        &mut env,
        "Fold",
        "TypeForAll[{\"a\", \"b\"}, \
         {{\"a\", \"b\"} -> \"a\", \"a\", \"Tensor\"[\"b\", 1]} -> \"a\"]",
        "Function[{f, x, v}, \
         Module[{acc, i, n}, \
           acc = x; i = 1; n = Length[v]; \
           While[i <= n, acc = f[acc, Part[v, i]]; i = i + 1]; \
           acc]]",
        false,
    );

    // ---- strings (L1 territory: the new compiler's headline win) ----
    prim(
        &mut env,
        "StringLength",
        "{\"String\"} -> \"Integer64\"",
        Prim::StringLength,
    );
    prim(
        &mut env,
        "ToCharacterCode",
        "{\"String\"} -> \"Tensor\"[\"Integer64\", 1]",
        Prim::StringToCodes,
    );
    prim(
        &mut env,
        "FromCharacterCode",
        "{\"Tensor\"[\"Integer64\", 1]} -> \"String\"",
        Prim::StringFromCodes,
    );
    prim(
        &mut env,
        "StringJoin",
        "{\"String\", \"String\"} -> \"String\"",
        Prim::StringJoin,
    );

    // ---- random numbers ----
    prim(&mut env, "RandomReal", "{} -> \"Real64\"", Prim::RandomUnit);
    prim(
        &mut env,
        "Native`RandomRange",
        "{\"Real64\", \"Real64\"} -> \"Real64\"",
        Prim::RandomRange,
    );

    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_populates() {
        let env = builtin_type_environment();
        assert!(
            env.function_count() >= 40,
            "{} functions",
            env.function_count()
        );
        assert!(env.is_declared("Plus"));
        assert!(env.is_declared("Part$Set"));
        assert!(env.is_declared("Native`RandomRange"));
        assert!(!env.is_declared("NoSuchFunction"));
    }

    #[test]
    fn plus_resolves_across_types() {
        let env = builtin_type_environment();
        let r = env
            .resolve_call("Plus", &[Type::integer64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.ret, Type::integer64());
        let r = env
            .resolve_call("Plus", &[Type::real64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.ret, Type::real64());
        let r = env
            .resolve_call("Plus", &[Type::complex(), Type::complex()])
            .unwrap();
        assert_eq!(r.ret, Type::complex());
        // Tensor element-wise.
        let tv = Type::tensor(Type::real64(), 1);
        let r = env.resolve_call("Plus", &[tv.clone(), tv.clone()]).unwrap();
        assert_eq!(r.ret, tv);
        // Symbolic.
        let r = env
            .resolve_call("Plus", &[Type::expression(), Type::expression()])
            .unwrap();
        assert_eq!(r.ret, Type::expression());
    }

    #[test]
    fn min_rejects_complex() {
        // "integer and reals, but not complex" (§4.4).
        let env = builtin_type_environment();
        assert!(env
            .resolve_call("Min", &[Type::integer64(), Type::integer64()])
            .is_ok());
        assert!(env
            .resolve_call("Min", &[Type::complex(), Type::complex()])
            .is_err());
    }

    #[test]
    fn part_by_rank() {
        let env = builtin_type_environment();
        let v1 = Type::tensor(Type::integer64(), 1);
        let v2 = Type::tensor(Type::real64(), 2);
        let r = env.resolve_call("Part", &[v1, Type::integer64()]).unwrap();
        assert_eq!(r.ret, Type::integer64());
        let r = env
            .resolve_call("Part", &[v2, Type::integer64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.ret, Type::real64());
    }

    #[test]
    fn source_impls_carried() {
        let env = builtin_type_environment();
        let r = env.resolve_call("EvenQ", &[Type::integer64()]).unwrap();
        assert!(matches!(r.implementation, FunctionImpl::Source(_)));
        assert!(r.inline_always);
    }

    #[test]
    fn list_arities() {
        let env = builtin_type_environment();
        let r = env
            .resolve_call("List", &[Type::real64(), Type::real64()])
            .unwrap();
        assert_eq!(r.ret, Type::tensor(Type::real64(), 1));
        // Mixed int/real joins at Real64.
        let r = env
            .resolve_call("List", &[Type::integer64(), Type::real64()])
            .unwrap();
        assert_eq!(r.ret, Type::tensor(Type::real64(), 1));
    }

    #[test]
    fn the_environment_declares_exactly_the_primitive_table() {
        let env = builtin_type_environment();
        let mut declared = std::collections::HashSet::new();
        for name in env.function_names() {
            for def in env.lookup(&name) {
                if let FunctionImpl::Primitive(p) = def.implementation {
                    declared.insert(p);
                }
            }
        }
        let all: std::collections::HashSet<Prim> = Prim::ALL.iter().copied().collect();
        assert_eq!(declared, all);
    }
}
