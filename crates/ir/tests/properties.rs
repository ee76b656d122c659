//! Property tests on the WIR substrate: the constant evaluator against
//! wide-integer references, SSA construction on randomized CFG shapes, and
//! pass-pipeline invariants (verification, idempotence, monotone DCE).

use proptest::prelude::*;
use std::collections::HashSet;
use wolfram_ir::builder::FunctionBuilder;
use wolfram_ir::module::{Callee, Constant, Function, Instr, Operand};
use wolfram_ir::passes::{fold, run_pass, run_pipeline};
use wolfram_ir::verify::verify_function;
use wolfram_ir::CompilerOptions;
use wolfram_types::{Cmp, Prim, Type};

// ---------------------------------------------------------------------
// Constant evaluator: folding must agree with checked arithmetic and
// never fold an overflow (that would hide the F2 soft-failure path).
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn const_plus_matches_i128_or_declines(a in any::<i64>(), b in any::<i64>()) {
        let wide = a as i128 + b as i128;
        match fold(Prim::Plus, &[Constant::I64(a), Constant::I64(b)]) {
            Some(Constant::I64(v)) => prop_assert_eq!(v as i128, wide),
            Some(other) => prop_assert!(false, "unexpected fold {other:?}"),
            None => prop_assert!(i64::try_from(wide).is_err(), "must fold in range"),
        }
    }

    #[test]
    fn const_times_matches_i128_or_declines(a in any::<i64>(), b in any::<i64>()) {
        let wide = a as i128 * b as i128;
        match fold(Prim::Times, &[Constant::I64(a), Constant::I64(b)]) {
            Some(Constant::I64(v)) => prop_assert_eq!(v as i128, wide),
            Some(other) => prop_assert!(false, "unexpected fold {other:?}"),
            None => prop_assert!(i64::try_from(wide).is_err()),
        }
    }

    /// Quotient/Mod folds obey the Wolfram division identity.
    #[test]
    fn const_quotient_mod_identity(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0 && !(a == i64::MIN && b == -1));
        let args = [Constant::I64(a), Constant::I64(b)];
        let Some(Constant::I64(q)) = fold(Prim::Quotient, &args) else {
            return Err(TestCaseError::fail("Quotient must fold"));
        };
        let Some(Constant::I64(r)) = fold(Prim::Mod, &args) else {
            return Err(TestCaseError::fail("Mod must fold"));
        };
        prop_assert_eq!((b as i128) * (q as i128) + r as i128, a as i128);
    }

    /// Division by zero and overflow never fold (they must surface at
    /// run time, where the engine can soft-fail).
    #[test]
    fn const_folding_never_hides_exceptions(a in any::<i64>()) {
        prop_assert!(fold(Prim::Quotient, &[Constant::I64(a), Constant::I64(0)]).is_none());
        prop_assert!(fold(Prim::Mod, &[Constant::I64(a), Constant::I64(0)]).is_none());
        prop_assert!(fold(Prim::Plus, &[Constant::I64(i64::MAX), Constant::I64(1)]).is_none());
    }

    #[test]
    fn const_comparisons_are_coherent(a in any::<i64>(), b in any::<i64>()) {
        let args = [Constant::I64(a), Constant::I64(b)];
        let compare = |c| match fold(Prim::Compare(c), &args) {
            Some(Constant::Bool(v)) => Ok(v),
            other => Err(TestCaseError::fail(format!("{c:?} folded to {other:?}"))),
        };
        prop_assert_eq!(compare(Cmp::Less)?, a < b);
        prop_assert_eq!(compare(Cmp::Greater)?, a > b);
        prop_assert_eq!(compare(Cmp::Equal)?, a == b);
        // Trichotomy through the folds themselves.
        let hits = [compare(Cmp::Less)?, compare(Cmp::Greater)?, compare(Cmp::Equal)?]
            .iter()
            .filter(|x| **x)
            .count();
        prop_assert_eq!(hits, 1);
    }
}

// ---------------------------------------------------------------------
// SSA construction on randomized CFG shapes.
// ---------------------------------------------------------------------

/// Builds `f(n) = x` where `x` flows through a random chain of
/// if-diamonds; each diamond optionally redefines `x` on each arm.
/// Returns the function plus the interpretation of its result given a
/// vector of branch decisions.
fn diamond_chain(writes: &[(bool, bool)]) -> Function {
    let mut b = FunctionBuilder::new("chain", 1);
    let arg = b.func.fresh_var();
    b.push(Instr::LoadArgument { dst: arg, index: 0 });
    b.write_var("x", Constant::I64(0));
    for (i, &(write_then, write_else)) in writes.iter().enumerate() {
        let then_b = b.create_block(&format!("then{i}"));
        let else_b = b.create_block(&format!("else{i}"));
        let join = b.create_block(&format!("join{i}"));
        b.branch(arg, then_b, else_b);
        b.seal_block(then_b);
        b.seal_block(else_b);

        b.switch_to(then_b);
        if write_then {
            b.write_var("x", Constant::I64((2 * i + 1) as i64));
        }
        b.jump(join);

        b.switch_to(else_b);
        if write_else {
            b.write_var("x", Constant::I64((2 * i + 2) as i64));
        }
        b.jump(join);

        b.seal_block(join);
        b.switch_to(join);
    }
    let x = b.read_var("x").unwrap();
    let out = b.call(
        Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
        vec![x, Constant::I64(0).into()],
    );
    b.ret(out);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_diamond_chains_verify(writes in prop::collection::vec(any::<(bool, bool)>(), 0..8)) {
        let f = diamond_chain(&writes);
        verify_function(&f).unwrap();
        // Phis are created lazily, exactly at the joins that are read:
        // a diamond's join is read unless a *later* diamond overwrites x
        // on both arms before any intervening read (then it is dead).
        let mut alive = true;
        let mut expect = 0usize;
        for &(t, e) in writes.iter().rev() {
            if alive {
                expect += 1;
            }
            if t && e {
                alive = false;
            }
        }
        let phis = f.instrs().filter(|i| matches!(i, Instr::Phi { .. })).count();
        prop_assert_eq!(phis, expect, "writes {:?}", writes);
    }

    #[test]
    fn pipeline_preserves_verification(writes in prop::collection::vec(any::<(bool, bool)>(), 0..8)) {
        let mut f = diamond_chain(&writes);
        let phis_before = f.instrs().filter(|i| matches!(i, Instr::Phi { .. })).count();
        run_pipeline(&mut f, &CompilerOptions::default(), None).unwrap();
        verify_function(&f).unwrap();
        // The optimizer never invents phis, and it clears the trivial ones
        // the builder left behind.
        let phis_after = f.instrs().filter(|i| matches!(i, Instr::Phi { .. })).count();
        prop_assert!(phis_after <= phis_before, "{phis_after} > {phis_before}");
        // Only live, genuinely-merging diamonds may keep a phi.
        let mut alive = true;
        let mut required = 0usize;
        for &(t, e) in writes.iter().rev() {
            if alive && (t != e || (t && e)) {
                required += 1;
            }
            if t && e {
                alive = false;
            }
        }
        prop_assert!(phis_after <= required, "trivial phi survived: {phis_after} > {required}");
    }

    /// Running the full pipeline a second time reaches a fixed point: the
    /// instruction count must not change.
    #[test]
    fn pipeline_is_idempotent(writes in prop::collection::vec(any::<(bool, bool)>(), 0..8)) {
        let mut f = diamond_chain(&writes);
        let opts = CompilerOptions { memory_management: false, ..CompilerOptions::default() };
        run_pipeline(&mut f, &opts, None).unwrap();
        let after_first = f.instr_count();
        run_pipeline(&mut f, &opts, None).unwrap();
        prop_assert_eq!(f.instr_count(), after_first);
    }

    /// DCE only removes instructions; it never adds any.
    #[test]
    fn dce_is_monotone(writes in prop::collection::vec(any::<(bool, bool)>(), 0..8)) {
        let mut f = diamond_chain(&writes);
        let before = f.instr_count();
        run_pass("dce", &mut f).unwrap();
        prop_assert!(f.instr_count() <= before);
        verify_function(&f).unwrap();
    }

    /// SSA invariant after any single pass: each variable is defined once.
    #[test]
    fn single_assignment_holds_after_each_pass(
        writes in prop::collection::vec(any::<(bool, bool)>(), 0..6),
        pass in prop::sample::select(vec![
            "constant-fold", "cse", "copy-propagation", "dce", "simplify-cfg",
        ]),
    ) {
        let mut f = diamond_chain(&writes);
        run_pass(pass, &mut f).unwrap();
        let mut defs = HashSet::new();
        for instr in f.instrs() {
            if let Some(d) = instr.def() {
                prop_assert!(defs.insert(d), "{d:?} defined twice after {pass}");
            }
        }
        verify_function(&f).unwrap();
    }
}

// ---------------------------------------------------------------------
// Operand/constant plumbing.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn constant_operands_round_trip(a in any::<i64>()) {
        let op: Operand = Constant::I64(a).into();
        match &op {
            Operand::Const(Constant::I64(v)) => prop_assert_eq!(*v, a),
            other => prop_assert!(false, "unexpected operand {other:?}"),
        }
    }
}
