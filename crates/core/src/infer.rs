//! Type inference over WIR (§4.4): constraint generation in a traversal of
//! the IR, then the constraint-graph solve, producing a TWIR.
//!
//! "It is enough to specify the input type arguments to a function. The
//! types of all other variables within the function are inferred."

use std::collections::HashMap;
use wolfram_ir::module::{Callee, Constant, Instr, Operand, VarId};
use wolfram_ir::{FuncId, ProgramModule};
use wolfram_types::env::ResolvedCall;
use wolfram_types::{solve, Constraint, SolveError, Subst, Type, TypeEnvironment, TypeVar};

/// The inference result: variable types are written into the module; call
/// resolutions are keyed by (function, site).
#[derive(Debug)]
pub struct Inference {
    /// Chosen overloads per call site (see [`site_key`]).
    pub calls: HashMap<usize, ResolvedCall>,
}

/// Encodes a stable call-site key: function index and the running
/// instruction number within it.
pub fn site_key(func: usize, instr_counter: usize) -> usize {
    func * 1_000_000 + instr_counter
}

/// Infers types for every function in the module (jointly — lifted lambdas
/// constrain and are constrained by their use sites).
///
/// # Errors
///
/// Propagates [`SolveError`]s (mismatches, unresolvable sites,
/// ambiguities).
pub fn infer(pm: &mut ProgramModule, env: &TypeEnvironment) -> Result<Inference, SolveError> {
    // Global type-variable space: per-function offsets, plus one return
    // variable per function at the end.
    let mut offsets = Vec::with_capacity(pm.functions.len());
    let mut next = 0u32;
    for f in &pm.functions {
        offsets.push(next);
        next += f.next_var;
    }
    let ret_base = next;
    let tv = |fix: usize, v: VarId| -> Type { Type::Var(TypeVar(offsets[fix] + v.0)) };
    let ret_var = |fix: usize| -> Type { Type::Var(TypeVar(ret_base + fix as u32)) };

    // Parameter variables per function (for closure/self-call signatures).
    let mut param_vars: Vec<Vec<VarId>> = Vec::new();
    for f in &pm.functions {
        let mut params = vec![VarId(0); f.arity];
        for i in f.instrs() {
            if let Instr::LoadArgument { dst, index } = i {
                params[*index] = *dst;
            }
        }
        param_vars.push(params);
    }
    let func_by_name: HashMap<String, usize> = pm
        .functions
        .iter()
        .enumerate()
        .map(|(ix, f)| (f.name.clone(), ix))
        .collect();

    let mut subst = Subst::new();
    subst.reserve(ret_base + pm.functions.len() as u32);
    let mut constraints: Vec<Constraint> = Vec::new();

    let operand_ty = |fix: usize, o: &Operand, subst: &mut Subst| -> Type {
        match o {
            Operand::Var(v) => tv(fix, *v),
            Operand::Const(Constant::Null) => subst.fresh(),
            Operand::Const(c) => c.ty(),
        }
    };

    for (fix, f) in pm.functions.iter().enumerate() {
        // Pre-annotated variables (Typed parameters and expressions).
        for (v, ty) in &f.var_types {
            constraints.push(Constraint::Equality {
                a: tv(fix, *v),
                b: ty.clone(),
                origin: format!("{}: annotation on %{}", f.name, v.0),
            });
        }
        let mut counter = 0usize;
        for b in f.block_ids() {
            for i in &f.block(b).instrs {
                counter += 1;
                let origin = |what: &str| format!("{}: {what}", f.name);
                match i {
                    Instr::LoadConst { dst, value } => {
                        let ty = match value {
                            Constant::Null => subst.fresh(),
                            other => other.ty(),
                        };
                        constraints.push(Constraint::Equality {
                            a: tv(fix, *dst),
                            b: ty,
                            origin: origin("constant"),
                        });
                    }
                    Instr::Copy { dst, src } => {
                        constraints.push(Constraint::Equality {
                            a: tv(fix, *dst),
                            b: tv(fix, *src),
                            origin: origin("copy"),
                        });
                    }
                    Instr::Phi { dst, incoming } => {
                        for (_, o) in incoming {
                            constraints.push(Constraint::Equality {
                                a: tv(fix, *dst),
                                b: operand_ty(fix, o, &mut subst),
                                origin: origin("phi"),
                            });
                        }
                    }
                    Instr::Call { dst, callee, args } => {
                        let arg_tys: Vec<Type> = args
                            .iter()
                            .map(|a| operand_ty(fix, a, &mut subst))
                            .collect();
                        match callee {
                            Callee::Builtin(name) => {
                                constraints.push(Constraint::Call {
                                    site: site_key(fix, counter),
                                    name: name.to_string(),
                                    args: arg_tys,
                                    ret: tv(fix, *dst),
                                    origin: origin(&format!(
                                        "call to {name} ({})",
                                        f.provenance
                                            .get(dst)
                                            .map(|e| e.to_input_form())
                                            .unwrap_or_default()
                                    )),
                                });
                            }
                            Callee::Value(v) => {
                                constraints.push(Constraint::Equality {
                                    a: tv(fix, *v),
                                    b: Type::arrow(arg_tys, tv(fix, *dst)),
                                    origin: origin("indirect call"),
                                });
                            }
                            Callee::Function { func, .. } => {
                                let callee_ix = func.0 as usize;
                                for (arg_ty, pv) in arg_tys.iter().zip(&param_vars[callee_ix]) {
                                    constraints.push(Constraint::Equality {
                                        a: arg_ty.clone(),
                                        b: tv(callee_ix, *pv),
                                        origin: origin("recursive call argument"),
                                    });
                                }
                                constraints.push(Constraint::Equality {
                                    a: tv(fix, *dst),
                                    b: ret_var(callee_ix),
                                    origin: origin("recursive call result"),
                                });
                            }
                            Callee::Kernel(_) => {
                                constraints.push(Constraint::Equality {
                                    a: tv(fix, *dst),
                                    b: Type::expression(),
                                    origin: origin("kernel escape"),
                                });
                                // Kernel arguments box anything: leave the
                                // argument types unconstrained but pin any
                                // that stay free to Expression afterwards.
                            }
                            Callee::Primitive { .. } => {
                                // Pre-resolved calls appear only after
                                // resolution; nothing to infer.
                            }
                        }
                    }
                    Instr::MakeClosure {
                        dst,
                        func,
                        captures,
                    } => {
                        let Some(&callee_ix) = func_by_name.get(&**func) else {
                            continue;
                        };
                        let n_caps = captures.len();
                        for (cap, pv) in captures.iter().zip(&param_vars[callee_ix]) {
                            constraints.push(Constraint::Equality {
                                a: operand_ty(fix, cap, &mut subst),
                                b: tv(callee_ix, *pv),
                                origin: origin("closure capture"),
                            });
                        }
                        let visible: Vec<Type> = param_vars[callee_ix][n_caps..]
                            .iter()
                            .map(|pv| tv(callee_ix, *pv))
                            .collect();
                        constraints.push(Constraint::Equality {
                            a: tv(fix, *dst),
                            b: Type::arrow(visible, ret_var(callee_ix)),
                            origin: origin("closure type"),
                        });
                    }
                    Instr::Branch { cond, .. } => {
                        constraints.push(Constraint::Equality {
                            a: operand_ty(fix, cond, &mut subst),
                            b: Type::boolean(),
                            origin: origin("branch condition"),
                        });
                    }
                    Instr::Return { value } => {
                        constraints.push(Constraint::Equality {
                            a: ret_var(fix),
                            b: operand_ty(fix, value, &mut subst),
                            origin: origin("return"),
                        });
                    }
                    _ => {}
                }
            }
        }
    }

    let solution = solve(constraints, env, subst)?;

    // Write the inferred types back: the WIR becomes a TWIR (§4.5).
    for (fix, f) in pm.functions.iter_mut().enumerate() {
        let mut types: HashMap<VarId, Type> = HashMap::new();
        for b in 0..f.blocks.len() {
            for i in &f.blocks[b].instrs {
                if let Some(d) = i.def() {
                    let resolved = solution.subst.apply(&tv(fix, d));
                    // Unused leftovers (dead Nulls) default to Void.
                    let resolved = if resolved.is_concrete() {
                        resolved
                    } else {
                        Type::void()
                    };
                    types.insert(d, resolved);
                }
            }
        }
        f.var_types = types;
        let ret = solution.subst.apply(&ret_var(fix));
        f.return_type = Some(if ret.is_concrete() { ret } else { Type::void() });
    }
    Ok(Inference {
        calls: solution.calls,
    })
}

/// Recomputes the site keys in the same order the constraint generator
/// used, yielding `(site, block index, instruction index)` triples for a
/// function. Resolution walks this to rewrite calls in place.
pub fn sites_of(pm: &ProgramModule, func: FuncId) -> Vec<(usize, usize, usize)> {
    let f = pm.function(func);
    let mut out = Vec::new();
    let mut counter = 0usize;
    for (bix, block) in f.blocks.iter().enumerate() {
        for (iix, _) in block.instrs.iter().enumerate() {
            counter += 1;
            out.push((site_key(func.0 as usize, counter), bix, iix));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::analyze;
    use crate::macros::MacroEnvironment;
    use crate::pipeline::CompilerOptions;

    fn typed_module(src: &str) -> ProgramModule {
        let macros = MacroEnvironment::builtin();
        let expanded = macros.expand(
            &wolfram_expr::parse(src).unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, None, &env).unwrap();
        infer(&mut pm, &env).unwrap();
        pm
    }

    #[test]
    fn add_one_types() {
        let pm = typed_module("Function[{Typed[n, \"MachineInteger\"]}, n + 1]");
        let main = pm.main();
        assert!(main.is_fully_typed(), "{}", main.to_text());
        assert_eq!(main.return_type, Some(Type::integer64()));
    }

    #[test]
    fn promotion_in_mixed_arithmetic() {
        let pm = typed_module("Function[{Typed[x, \"Real64\"]}, x + 1]");
        assert_eq!(pm.main().return_type, Some(Type::real64()));
    }

    #[test]
    fn loop_types_flow_through_phis() {
        let pm = typed_module(
            "Function[{Typed[n, \"MachineInteger\"]}, \
             Module[{i = 0, s = 0.0}, While[i < n, s = s + 1.5; i = i + 1]; s]]",
        );
        let main = pm.main();
        assert_eq!(main.return_type, Some(Type::real64()));
        assert!(main.is_fully_typed(), "{}", main.to_text());
    }

    #[test]
    fn comparisons_are_boolean() {
        let pm = typed_module("Function[{Typed[x, \"MachineInteger\"]}, x < 3]");
        assert_eq!(pm.main().return_type, Some(Type::boolean()));
    }

    #[test]
    fn tensor_parts() {
        let pm = typed_module("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[1]] + v[[2]]]");
        assert_eq!(pm.main().return_type, Some(Type::real64()));
    }

    #[test]
    fn closure_param_types_inferred_from_use() {
        // The lambda's x is inferred Integer64 from the call f[2] and the
        // capture k.
        let pm = typed_module(
            "Function[{Typed[k, \"MachineInteger\"]}, \
             Module[{f = Function[{x}, x + k]}, f[2]]]",
        );
        assert_eq!(pm.main().return_type, Some(Type::integer64()));
        let lambda = &pm.functions[1];
        assert!(lambda.is_fully_typed(), "{}", lambda.to_text());
        assert_eq!(lambda.return_type, Some(Type::integer64()));
    }

    #[test]
    fn recursion_closes_types() {
        let macros = MacroEnvironment::builtin();
        let src = "Function[{Typed[n, \"MachineInteger\"]}, If[n < 1, 1, cfib[n-1] + cfib[n-2]]]";
        let expanded = macros.expand(
            &wolfram_expr::parse(src).unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, Some("cfib"), &env).unwrap();
        infer(&mut pm, &env).unwrap();
        assert_eq!(pm.main().return_type, Some(Type::integer64()));
    }

    #[test]
    fn missing_annotation_reports_unresolved() {
        let macros = MacroEnvironment::builtin();
        let expanded = macros.expand(
            &wolfram_expr::parse("Function[{n}, n + 1]").unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, None, &env).unwrap();
        assert!(infer(&mut pm, &env).is_err());
    }

    #[test]
    fn type_mismatch_reported() {
        let macros = MacroEnvironment::builtin();
        let expanded = macros.expand(
            &wolfram_expr::parse("Function[{Typed[x, \"Real64\"]}, StringLength[x]]").unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, None, &env).unwrap();
        let err = infer(&mut pm, &env).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("Sin") || msg.contains("String"), "{msg}");
    }

    #[test]
    fn string_functions_type() {
        let pm = typed_module("Function[{Typed[s, \"String\"]}, StringLength[s]]");
        assert_eq!(pm.main().return_type, Some(Type::integer64()));
    }

    #[test]
    fn symbolic_expression_functions() {
        // §4.5: compiled symbolic computation.
        let pm =
            typed_module("Function[{Typed[a, \"Expression\"], Typed[b, \"Expression\"]}, a + b]");
        assert_eq!(pm.main().return_type, Some(Type::expression()));
    }

    #[test]
    fn kernel_escape_is_expression() {
        let pm = typed_module("Function[{Typed[x, \"MachineInteger\"]}, Unsupported[x]]");
        assert_eq!(pm.main().return_type, Some(Type::expression()));
    }
}
