//! The TWIR type verifier: checks every instruction's operand and result
//! types against the inferred variable annotations and callee signatures.
//!
//! The checker is deliberately partial — it verifies exactly the facts the
//! IR records and stays silent where a type is unknown (untyped WIR, or
//! the inference default `Void` that `infer` assigns to dead leftovers),
//! so it can run after *every* pass of the pipeline, typed or not.

use crate::diag::Diagnostic;
use std::collections::HashMap;
use wolfram_ir::{BlockId, Callee, Function, Instr, Operand, ProgramModule};
use wolfram_types::{mangle, Type};

/// Parameter and return types per (mangled) function name, harvested from
/// the module before the pass pipeline mutates bodies. `None` entries mean
/// the type never became known.
#[derive(Debug, Clone, Default)]
pub struct Signatures {
    map: HashMap<String, (Vec<Option<Type>>, Option<Type>)>,
}

impl Signatures {
    /// Signature of a function, if harvested.
    pub fn get(&self, name: &str) -> Option<&(Vec<Option<Type>>, Option<Type>)> {
        self.map.get(name)
    }
}

/// Harvests [`Signatures`] from a program module: parameter types come
/// from each function's `LoadArgument` annotations, return types from
/// `return_type`.
pub fn module_signatures(pm: &ProgramModule) -> Signatures {
    let mut map = HashMap::new();
    for f in &pm.functions {
        let mut params: Vec<Option<Type>> = vec![None; f.arity];
        for i in f.instrs() {
            if let Instr::LoadArgument { dst, index } = i {
                if let (Some(slot), Some(t)) = (params.get_mut(*index), f.var_type(*dst)) {
                    *slot = Some(t.clone());
                }
            }
        }
        map.insert(f.name.clone(), (params, f.return_type.clone()));
    }
    Signatures { map }
}

/// A type usable for checking: concrete and not the `Void` that inference
/// assigns to dead leftovers.
fn known(t: Option<&Type>) -> Option<&Type> {
    t.filter(|t| t.is_concrete() && **t != Type::void())
}

/// Position in the numeric tower, for types the backend widens
/// implicitly (an `I64` immediate in a `Real64` slot becomes `LdcF`).
fn numeric_rank(t: &Type) -> Option<u8> {
    match t {
        Type::Atomic(n) => match &**n {
            "Integer64" => Some(0),
            "Real64" => Some(1),
            "ComplexReal64" => Some(2),
            _ => None,
        },
        _ => None,
    }
}

/// Whether a value of type `got` may be passed where `want` is expected.
/// `Expression` is a top type in argument position (the runtime boxes any
/// value into a symbolic expression at the call boundary), and numeric
/// types widen along the tower `Integer64 <= Real64 <= ComplexReal64`.
fn arg_compatible(want: &Type, got: &Type) -> bool {
    if want == got || *want == Type::expression() {
        return true;
    }
    matches!(
        (numeric_rank(want), numeric_rank(got)),
        (Some(w), Some(g)) if g <= w
    )
}

/// Checks one function. `sigs` resolves `Callee::Function` targets; pass
/// an empty default when checking a lone function.
pub fn check(f: &Function, sigs: &Signatures) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let op_ty = |o: &Operand| -> Option<Type> {
        match o {
            Operand::Var(v) => known(f.var_type(*v)).cloned(),
            Operand::Const(c) => known(Some(&c.ty())).cloned(),
        }
    };
    let mut mismatch = |b: BlockId, ix: usize, what: String| {
        out.push(Diagnostic::error("type-mismatch", f, what).at(b, Some(ix)));
    };
    for b in f.block_ids() {
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            match i {
                Instr::LoadConst { dst, value } => {
                    if let Some(dt) = known(f.var_type(*dst)) {
                        let vt = value.ty();
                        if *dt != vt {
                            mismatch(
                                b,
                                ix,
                                format!("constant of type {vt} loaded into %{}: {dt}", dst.0),
                            );
                        }
                    }
                }
                Instr::Copy { dst, src } => {
                    if let (Some(dt), Some(st)) = (known(f.var_type(*dst)), known(f.var_type(*src)))
                    {
                        if dt != st {
                            mismatch(
                                b,
                                ix,
                                format!("copy from %{}: {st} into %{}: {dt}", src.0, dst.0),
                            );
                        }
                    }
                }
                Instr::Phi { dst, incoming } => {
                    if let Some(dt) = known(f.var_type(*dst)).cloned() {
                        for (p, o) in incoming {
                            if let Some(ot) = op_ty(o) {
                                if ot != dt {
                                    mismatch(
                                        b,
                                        ix,
                                        format!(
                                            "phi %{}: {dt} receives {ot} from block {}",
                                            dst.0,
                                            p.0 + 1
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
                Instr::Branch { cond, .. } => {
                    if let Some(ct) = op_ty(cond) {
                        if ct != Type::boolean() {
                            mismatch(
                                b,
                                ix,
                                format!("branch condition has type {ct}, expected Boolean"),
                            );
                        }
                    }
                }
                Instr::Return { value } => {
                    if let (Some(rt), Some(vt)) = (known(f.return_type.as_ref()), op_ty(value)) {
                        if *rt != vt {
                            mismatch(b, ix, format!("return of {vt} from a function typed {rt}"));
                        }
                    }
                }
                Instr::MakeClosure { dst, .. } => {
                    if let Some(dt) = known(f.var_type(*dst)) {
                        if !matches!(dt, Type::Arrow { .. }) {
                            mismatch(b, ix, format!("closure bound to non-function type {dt}"));
                        }
                    }
                }
                Instr::Call { dst, callee, args } => match callee {
                    Callee::Primitive { prim, params } => {
                        let name = || mangle(prim.name(), params);
                        if params.len() != args.len() {
                            mismatch(
                                b,
                                ix,
                                format!(
                                    "primitive `{}` specialized for {} arguments, called with {}",
                                    name(),
                                    params.len(),
                                    args.len()
                                ),
                            );
                        } else {
                            for (k, (want, arg)) in params.iter().zip(args).enumerate() {
                                if let Some(got) = op_ty(arg) {
                                    if !arg_compatible(want, &got) {
                                        mismatch(
                                            b,
                                            ix,
                                            format!(
                                                "argument {} of `{}` has type {got}, expected {want}",
                                                k + 1,
                                                name()
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    Callee::Function { name, .. } => {
                        if let Some((params, ret)) = sigs.get(name) {
                            if params.len() != args.len() {
                                mismatch(
                                    b,
                                    ix,
                                    format!(
                                        "`{name}` takes {} arguments, called with {}",
                                        params.len(),
                                        args.len()
                                    ),
                                );
                            } else {
                                for (k, (want, arg)) in params.iter().zip(args).enumerate() {
                                    if let (Some(want), Some(got)) =
                                        (known(want.as_ref()), op_ty(arg))
                                    {
                                        if !arg_compatible(want, &got) {
                                            mismatch(
                                                b,
                                                ix,
                                                format!(
                                                    "argument {} of `{name}` has type {got}, expected {want}",
                                                    k + 1
                                                ),
                                            );
                                        }
                                    }
                                }
                            }
                            if let (Some(rt), Some(dt)) =
                                (known(ret.as_ref()), known(f.var_type(*dst)))
                            {
                                if rt != dt {
                                    mismatch(
                                        b,
                                        ix,
                                        format!("`{name}` returns {rt}, bound to %{}: {dt}", dst.0),
                                    );
                                }
                            }
                        }
                    }
                    Callee::Value(v) => {
                        if let Some(vt) = known(f.var_type(*v)) {
                            if let Type::Arrow { params, ret } = vt {
                                if params.len() != args.len() {
                                    mismatch(
                                        b,
                                        ix,
                                        format!(
                                            "function value %{} takes {} arguments, called with {}",
                                            v.0,
                                            params.len(),
                                            args.len()
                                        ),
                                    );
                                } else {
                                    for (k, (want, arg)) in params.iter().zip(args).enumerate() {
                                        if let (Some(want), Some(got)) =
                                            (known(Some(want)), op_ty(arg))
                                        {
                                            if !arg_compatible(want, &got) {
                                                mismatch(
                                                    b,
                                                    ix,
                                                    format!(
                                                        "argument {} of %{} has type {got}, expected {want}",
                                                        k + 1,
                                                        v.0
                                                    ),
                                                );
                                            }
                                        }
                                    }
                                }
                                if let (Some(rt), Some(dt)) =
                                    (known(Some(ret)), known(f.var_type(*dst)))
                                {
                                    if rt != dt {
                                        mismatch(
                                            b,
                                            ix,
                                            format!(
                                                "indirect call returns {rt}, bound to %{}: {dt}",
                                                dst.0
                                            ),
                                        );
                                    }
                                }
                            } else {
                                mismatch(
                                    b,
                                    ix,
                                    format!("call through non-function %{}: {vt}", v.0),
                                );
                            }
                        }
                    }
                    // Builtins and kernel escapes are the untyped stage;
                    // nothing is recorded to check against.
                    Callee::Builtin(_) | Callee::Kernel(_) => {}
                },
                Instr::LoadArgument { .. }
                | Instr::AbortCheck
                | Instr::MemoryAcquire { .. }
                | Instr::MemoryRelease { .. }
                | Instr::Jump { .. } => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_ir::{Constant, VarId};
    use wolfram_types::Prim;

    /// `%1 = Call prim$params [%0, ...consts]` with `%0` typed `arg0`.
    fn call_of(prim: Prim, params: &[Type], arg0: Type, consts: &[Constant]) -> Function {
        let mut f = Function::new("f", 1);
        let mut args = vec![VarId(0).into()];
        args.extend(consts.iter().cloned().map(Into::into));
        f.blocks.push(wolfram_ir::module::Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadArgument {
                    dst: VarId(0),
                    index: 0,
                },
                Instr::Call {
                    dst: VarId(1),
                    callee: Callee::primitive(prim, params),
                    args,
                },
                Instr::Return {
                    value: VarId(1).into(),
                },
            ],
        });
        f.var_types.insert(VarId(0), arg0);
        f
    }

    #[test]
    fn primitive_operands_are_checked_against_the_resolved_parameters() {
        let (int, real) = (Type::integer64(), Type::real64());
        let ints = Type::tensor(Type::integer64(), 1);
        let messages = |f: &Function| -> Vec<String> {
            check(f, &Signatures::default())
                .into_iter()
                .map(|d| d.message)
                .collect()
        };
        // Scalars: exact, widened along the numeric tower, and narrowed.
        let plus = [int.clone(), int.clone()];
        let one = [Constant::I64(1)];
        assert!(messages(&call_of(Prim::Plus, &plus, int.clone(), &one)).is_empty());
        let real_plus = [real.clone(), real.clone()];
        assert!(messages(&call_of(Prim::Plus, &real_plus, int.clone(), &one)).is_empty());
        assert_eq!(
            messages(&call_of(Prim::Plus, &plus, real.clone(), &one)),
            ["argument 1 of `checked_binary_plus$Integer64$Integer64` has type Real64, expected Integer64"]
        );
        // Tensor parameters compare element type and rank.
        let part = [ints.clone(), int.clone()];
        assert!(messages(&call_of(Prim::TensorPart1, &part, ints, &one)).is_empty());
        let reals = Type::tensor(Type::real64(), 1);
        assert_eq!(
            messages(&call_of(Prim::TensorPart1, &part, reals, &one)).len(),
            1
        );
        // Arity, including the primitive of no parameters.
        assert_eq!(
            messages(&call_of(Prim::Plus, &plus, int.clone(), &[])),
            ["primitive `checked_binary_plus$Integer64$Integer64` specialized for 2 arguments, called with 1"]
        );
        assert_eq!(
            messages(&call_of(Prim::RandomUnit, &[], int, &[])),
            ["primitive `random_unit` specialized for 0 arguments, called with 1"]
        );
    }

    #[test]
    fn flags_bad_constant_load() {
        let mut f = Function::new("f", 0);
        f.blocks.push(wolfram_ir::module::Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(1),
                },
                Instr::Return {
                    value: VarId(0).into(),
                },
            ],
        });
        f.var_types.insert(VarId(0), Type::real64());
        let diags = check(&f, &Signatures::default());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "type-mismatch");
    }

    #[test]
    fn clean_function_has_no_findings() {
        let mut f = Function::new("f", 0);
        f.blocks.push(wolfram_ir::module::Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(1),
                },
                Instr::Return {
                    value: VarId(0).into(),
                },
            ],
        });
        f.var_types.insert(VarId(0), Type::integer64());
        f.return_type = Some(Type::integer64());
        assert!(check(&f, &Signatures::default()).is_empty());
    }
}
