//! Function resolution (§4.5): "For each call instruction, a lookup into
//! the type environment is performed. ... If a function has a monomorphic
//! implementation, then it is inserted into the TWIR. If the function
//! exists polymorphically ..., then it is instantiated with the appropriate
//! type, the function is inserted into the TWIR, and the call instruction
//! is rewritten to the mangled name of the function. A function is inlined
//! at this stage if it has been marked by users to be forcibly inlined."

use crate::infer::{infer, sites_of, Inference};
use std::sync::Arc;
use wolfram_ir::module::{Block, BlockId, Callee, Function, InlineValue, Instr, Operand, VarId};
use wolfram_ir::{FuncId, ProgramModule};
use wolfram_types::{mangle, FunctionImpl, SolveError, Type, TypeEnvironment};

pub use wolfram_ir::options::InlinePolicy;

/// Resolution failure.
#[derive(Debug)]
pub enum ResolveFail {
    /// Inference failed on an instantiated implementation.
    Infer(SolveError),
    /// An instantiated source implementation could not be processed.
    Source(String),
}

impl std::fmt::Display for ResolveFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveFail::Infer(e) => write!(f, "{e}"),
            ResolveFail::Source(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ResolveFail {}

/// Resolves every `Callee::Builtin` call in the module using the inference
/// results, instantiating source implementations on demand, then applies
/// the inlining policy. Iterates inference/resolution until no new
/// instantiations appear.
///
/// # Errors
///
/// See [`ResolveFail`].
pub fn resolve_module(
    pm: &mut ProgramModule,
    env: &TypeEnvironment,
    first: Inference,
    policy: InlinePolicy,
) -> Result<(), ResolveFail> {
    let mut inference = first;
    for _round in 0..16 {
        let added = resolve_pass(pm, env, &inference)?;
        if added == 0 {
            break;
        }
        inference = infer(pm, env).map_err(ResolveFail::Infer)?;
    }
    if policy != InlinePolicy::Never {
        inline_pass(pm, policy);
    }
    // Mark triviality for the dump header.
    for f in &mut pm.functions {
        f.info.is_trivial = f.blocks.len() == 1 && f.instr_count() <= 6;
    }
    Ok(())
}

/// One rewrite pass. Returns the number of newly instantiated functions.
fn resolve_pass(
    pm: &mut ProgramModule,
    env: &TypeEnvironment,
    inference: &Inference,
) -> Result<usize, ResolveFail> {
    let mut added = 0usize;
    let mut func_ix = 0usize;
    while func_ix < pm.functions.len() {
        let sites = sites_of(pm, FuncId(func_ix as u32));
        for (site, bix, iix) in sites {
            let Some(resolved) = inference.calls.get(&site) else {
                continue;
            };
            let instr = pm.functions[func_ix].blocks[bix].instrs[iix].clone();
            let Instr::Call {
                dst,
                callee: Callee::Builtin(name),
                args,
            } = instr
            else {
                continue;
            };
            let new_callee = match &resolved.implementation {
                FunctionImpl::Primitive(prim) => Callee::primitive(*prim, &resolved.params),
                FunctionImpl::Kernel => Callee::Kernel(Arc::from(&*name)),
                FunctionImpl::Source(body) => {
                    let mangled = mangle(&name, &resolved.params);
                    let func = match pm.find(&mangled) {
                        Some(id) => id,
                        None => {
                            let id = instantiate_source(
                                pm,
                                env,
                                &mangled,
                                body,
                                &resolved.params,
                                resolved.inline_always,
                            )?;
                            added += 1;
                            id
                        }
                    };
                    Callee::Function {
                        name: Arc::from(mangled.as_str()),
                        func,
                    }
                }
            };
            pm.functions[func_ix].blocks[bix].instrs[iix] = Instr::Call {
                dst,
                callee: new_callee,
                args,
            };
        }
        func_ix += 1;
    }
    Ok(added)
}

/// Compiles a Wolfram-source implementation at concrete parameter types and
/// appends it to the module under its mangled name.
fn instantiate_source(
    pm: &mut ProgramModule,
    env: &TypeEnvironment,
    mangled: &str,
    body: &wolfram_expr::Expr,
    params: &[Type],
    inline_always: bool,
) -> Result<FuncId, ResolveFail> {
    let bound = crate::binding::analyze(body)
        .map_err(|e| ResolveFail::Source(format!("source impl {mangled}: {e}")))?;
    if bound.params.len() != params.len() {
        return Err(ResolveFail::Source(format!(
            "source impl {mangled}: arity mismatch ({} vs {})",
            bound.params.len(),
            params.len()
        )));
    }
    // Pin the instantiated parameter types.
    let typed_params: Vec<(String, Option<Type>)> = bound
        .params
        .iter()
        .zip(params)
        .map(|((name, _), ty)| (name.clone(), Some(ty.clone())))
        .collect();
    let typed = crate::binding::BoundFunction {
        params: typed_params,
        body: bound.body,
        escaped: bound.escaped,
    };
    let sub = crate::lower::lower(&typed, None, env)
        .map_err(|e| ResolveFail::Source(format!("source impl {mangled}: {e}")))?;
    if sub.functions.len() != 1 {
        return Err(ResolveFail::Source(format!(
            "source impl {mangled}: nested lambdas in stdlib sources are unsupported"
        )));
    }
    let mut f = sub.functions.into_iter().next().expect("one function");
    f.name = mangled.to_owned();
    f.info.inline_value = if inline_always {
        InlineValue::Always
    } else {
        InlineValue::Automatic
    };
    Ok(pm.add_function(f))
}

// ---------------------------------------------------------------------
// Inlining.
// ---------------------------------------------------------------------

fn should_inline(
    caller_ix: usize,
    callee_ix: usize,
    callee: &Function,
    policy: InlinePolicy,
) -> bool {
    if caller_ix == callee_ix || is_recursive(callee, callee_ix) {
        return false;
    }
    match policy {
        InlinePolicy::Never => false,
        InlinePolicy::Always => true,
        InlinePolicy::Automatic => {
            callee.info.inline_value == InlineValue::Always
                || (callee.blocks.len() == 1 && callee.instr_count() <= 12)
        }
    }
}

fn is_recursive(f: &Function, own_ix: usize) -> bool {
    f.instrs().any(|i| {
        matches!(i, Instr::Call { callee: Callee::Function { func, .. }, .. }
            if func.0 as usize == own_ix)
    })
}

fn inline_pass(pm: &mut ProgramModule, policy: InlinePolicy) {
    for caller_ix in 0..pm.functions.len() {
        let mut budget = 64usize;
        'retry: while budget > 0 {
            budget -= 1;
            let caller = &pm.functions[caller_ix];
            for bix in 0..caller.blocks.len() {
                for iix in 0..caller.blocks[bix].instrs.len() {
                    if let Instr::Call {
                        callee: Callee::Function { func, .. },
                        ..
                    } = &caller.blocks[bix].instrs[iix]
                    {
                        let callee_ix = func.0 as usize;
                        let callee = &pm.functions[callee_ix];
                        if should_inline(caller_ix, callee_ix, callee, policy) {
                            let callee = callee.clone();
                            inline_one(&mut pm.functions[caller_ix], bix, iix, &callee);
                            continue 'retry;
                        }
                    }
                }
            }
            break;
        }
    }
}

/// Splices `callee` into `caller` at the call site `(bix, iix)`.
fn inline_one(caller: &mut Function, bix: usize, iix: usize, callee: &Function) {
    let var_off = caller.next_var;
    caller.next_var += callee.next_var;
    let block_off = caller.blocks.len() as u32;
    let remap_var = |v: VarId| VarId(v.0 + var_off);
    let remap_block = |b: BlockId| BlockId(b.0 + block_off);
    let cont_block = BlockId(block_off + callee.blocks.len() as u32);

    // Take the call instruction and the tail of the block.
    let tail: Vec<Instr> = caller.blocks[bix].instrs.split_off(iix + 1);
    let call = caller.blocks[bix].instrs.pop().expect("call instruction");
    let Instr::Call { dst, args, .. } = call else {
        unreachable!("inline target is a call")
    };

    // Argument binding: map parameter index -> operand.
    let mut returns: Vec<(BlockId, Operand)> = Vec::new();
    let mut new_blocks: Vec<Block> = Vec::new();
    for (cbix, cblock) in callee.blocks.iter().enumerate() {
        let mut instrs = Vec::with_capacity(cblock.instrs.len());
        for ci in &cblock.instrs {
            let mut ni = ci.clone();
            // Remap uses and defs.
            ni.map_uses(&mut |v| remap_var(v));
            match &mut ni {
                Instr::LoadArgument { dst, index } => {
                    let new_dst = remap_var(*dst);
                    let op = args[*index].clone();
                    instrs.push(match op {
                        Operand::Var(src) => Instr::Copy { dst: new_dst, src },
                        Operand::Const(c) => Instr::LoadConst {
                            dst: new_dst,
                            value: c,
                        },
                    });
                    continue;
                }
                Instr::Return { value } => {
                    returns.push((BlockId(block_off + cbix as u32), value.clone()));
                    instrs.push(Instr::Jump { target: cont_block });
                    continue;
                }
                Instr::LoadConst { dst, .. }
                | Instr::Copy { dst, .. }
                | Instr::Call { dst, .. }
                | Instr::MakeClosure { dst, .. }
                | Instr::Phi { dst, .. } => *dst = remap_var(*dst),
                Instr::MemoryAcquire { var } | Instr::MemoryRelease { var } => {
                    // map_uses already remapped these.
                    let _ = var;
                }
                _ => {}
            }
            match &mut ni {
                Instr::Jump { target } => *target = remap_block(*target),
                Instr::Branch {
                    then_block,
                    else_block,
                    ..
                } => {
                    *then_block = remap_block(*then_block);
                    *else_block = remap_block(*else_block);
                }
                Instr::Phi { incoming, .. } => {
                    for (p, _) in incoming.iter_mut() {
                        *p = remap_block(*p);
                    }
                }
                _ => {}
            }
            instrs.push(ni);
        }
        new_blocks.push(Block {
            label: format!("inline-{}-{}", callee.name, cblock.label),
            instrs,
        });
    }

    // Carry inferred types and provenance across.
    for (v, t) in &callee.var_types {
        caller.var_types.insert(remap_var(*v), t.clone());
    }
    for (v, e) in &callee.provenance {
        caller.provenance.insert(remap_var(*v), e.clone());
    }

    // The call block now jumps into the inlined entry.
    caller.blocks[bix].instrs.push(Instr::Jump {
        target: remap_block(callee.entry),
    });

    caller.blocks.extend(new_blocks);

    // Continuation block: receive the return value, then the original tail.
    let mut cont_instrs = Vec::with_capacity(tail.len() + 1);
    match returns.len() {
        0 => {
            // Callee never returns (infinite loop): keep a placeholder def
            // so uses of dst stay defined; the block is unreachable.
            cont_instrs.push(Instr::LoadConst {
                dst,
                value: wolfram_ir::Constant::Null,
            });
        }
        1 => {
            let (_, op) = returns.into_iter().next().expect("one return");
            cont_instrs.push(match op {
                Operand::Var(src) => Instr::Copy { dst, src },
                Operand::Const(c) => Instr::LoadConst { dst, value: c },
            });
        }
        _ => {
            cont_instrs.push(Instr::Phi {
                dst,
                incoming: returns,
            });
        }
    }
    cont_instrs.extend(tail);
    caller.blocks.push(Block {
        label: "inline-cont".into(),
        instrs: cont_instrs,
    });

    // Phis that named the split block as predecessor now come from cont.
    let old_pred = BlockId(bix as u32);
    for b in 0..caller.blocks.len() {
        if b == bix {
            continue;
        }
        for i in caller.blocks[b].instrs.iter_mut() {
            if let Instr::Phi { incoming, .. } = i {
                for (p, _) in incoming.iter_mut() {
                    if *p == old_pred {
                        *p = cont_block;
                    }
                }
            }
        }
    }
}

/// Counts remaining unresolved builtin calls (should be zero post-resolve).
pub fn unresolved_builtins(pm: &ProgramModule) -> usize {
    pm.functions
        .iter()
        .flat_map(Function::instrs)
        .filter(|i| {
            matches!(
                i,
                Instr::Call {
                    callee: Callee::Builtin(_),
                    ..
                }
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::analyze;
    use crate::macros::MacroEnvironment;
    use crate::pipeline::CompilerOptions;

    fn resolved(src: &str, policy: InlinePolicy) -> ProgramModule {
        let macros = MacroEnvironment::builtin();
        let expanded = macros.expand(
            &wolfram_expr::parse(src).unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, None, &env).unwrap();
        let inference = infer(&mut pm, &env).unwrap();
        resolve_module(&mut pm, &env, inference, policy).unwrap();
        for f in &pm.functions {
            wolfram_ir::verify_function(f).unwrap_or_else(|e| panic!("{e}\n{}", f.to_text()));
        }
        pm
    }

    #[test]
    fn primitive_mangling() {
        let pm = resolved(
            "Function[{Typed[n, \"MachineInteger\"]}, n + 1]",
            InlinePolicy::Automatic,
        );
        let text = pm.main().to_text();
        assert!(
            text.contains("checked_binary_plus$Integer64$Integer64"),
            "{text}"
        );
        assert_eq!(unresolved_builtins(&pm), 0);
    }

    #[test]
    fn real_overload_selected() {
        let pm = resolved(
            "Function[{Typed[x, \"Real64\"]}, x + 1]",
            InlinePolicy::Automatic,
        );
        let text = pm.main().to_text();
        assert!(text.contains("checked_binary_plus$Real64$Real64"), "{text}");
    }

    #[test]
    fn source_impl_instantiated_and_inlined() {
        // EvenQ is a source implementation marked inline-always.
        let pm = resolved(
            "Function[{Typed[n, \"MachineInteger\"]}, EvenQ[n]]",
            InlinePolicy::Automatic,
        );
        let text = pm.main().to_text();
        // Inlined: the Mod primitive appears directly in Main.
        assert!(text.contains("checked_binary_mod"), "{text}");
        assert!(!text.contains("Call EvenQ$"), "{text}");
    }

    #[test]
    fn inline_never_keeps_calls() {
        let pm = resolved(
            "Function[{Typed[n, \"MachineInteger\"]}, EvenQ[n]]",
            InlinePolicy::Never,
        );
        let text = pm.main().to_text();
        assert!(text.contains("Call EvenQ$Integer64"), "{text}");
        // The instantiation exists as its own function module.
        assert!(pm.find("EvenQ$Integer64").is_some());
    }

    #[test]
    fn recursive_functions_not_inlined() {
        let macros = MacroEnvironment::builtin();
        let src = "Function[{Typed[n, \"MachineInteger\"]}, If[n < 1, 1, cfib[n-1] + cfib[n-2]]]";
        let expanded = macros.expand(
            &wolfram_expr::parse(src).unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let env = crate::stdlib::builtin_type_environment();
        let mut pm = crate::lower::lower(&bound, Some("cfib"), &env).unwrap();
        let inference = infer(&mut pm, &env).unwrap();
        resolve_module(&mut pm, &env, inference, InlinePolicy::Always).unwrap();
        let text = pm.main().to_text();
        assert!(text.contains("Call Main"), "self calls stay: {text}");
    }

    #[test]
    fn two_instantiations_of_same_source() {
        let env = {
            let mut env = crate::stdlib::builtin_type_environment();
            // A polymorphic source Min (the paper's §4.4 example).
            env.declare_function(
                "MyMin",
                Type::from_expr(
                    &wolfram_expr::parse(
                        "TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"a\"]",
                    )
                    .unwrap(),
                )
                .unwrap(),
                FunctionImpl::Source(
                    wolfram_expr::parse("Function[{e1, e2}, If[e1 < e2, e1, e2]]").unwrap(),
                ),
            );
            env
        };
        let macros = MacroEnvironment::builtin();
        let src = "Function[{Typed[i, \"MachineInteger\"], Typed[x, \"Real64\"]}, \
                   MyMin[i, 2] + Floor[MyMin[x, 1.5]]]";
        let expanded = macros.expand(
            &wolfram_expr::parse(src).unwrap(),
            &CompilerOptions::default(),
        );
        let bound = analyze(&expanded).unwrap();
        let mut pm = crate::lower::lower(&bound, None, &env).unwrap();
        let inference = infer(&mut pm, &env).unwrap();
        resolve_module(&mut pm, &env, inference, InlinePolicy::Never).unwrap();
        assert!(
            pm.find("MyMin$Integer64$Integer64").is_some(),
            "int instantiation"
        );
        assert!(
            pm.find("MyMin$Real64$Real64").is_some(),
            "real instantiation"
        );
    }
}
