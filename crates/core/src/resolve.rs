//! Function resolution (§4.5): "For each call instruction, a lookup into
//! the type environment is performed. ... If a function has a monomorphic
//! implementation, then it is inserted into the TWIR. If the function
//! exists polymorphically ..., then it is instantiated with the appropriate
//! type, the function is inserted into the TWIR, and the call instruction
//! is rewritten to the mangled name of the function. A function is inlined
//! at this stage if it has been marked by users to be forcibly inlined."

use crate::infer::{infer, sites_of, Inference};
use std::collections::HashMap;
use std::sync::Arc;
use wolfram_ir::module::{Block, BlockId, Callee, Function, InlineValue, Instr, Operand, VarId};
use wolfram_ir::{Constant, FuncId, ProgramModule};
use wolfram_types::{mangle, Cmp, FunctionImpl, Prim, SolveError, Type, TypeEnvironment};

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
/// results, instantiating source implementations on demand, then (unless
/// the policy is `Never`) resolves calls through closure values to the
/// functions they hold and applies the inlining policy. Iterates
/// inference/resolution until no new instantiations appear.
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
        defunctionalize(pm);
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
// Defunctionalization.
// ---------------------------------------------------------------------

/// A function a closure value can hold: its name and index.
type Target = (Arc<str>, FuncId);

/// The closure value an indirect call goes through.
fn indirect(i: &Instr) -> Option<VarId> {
    match i {
        Instr::Call {
            callee: Callee::Value(v),
            ..
        } => Some(*v),
        _ => None,
    }
}

/// Resolves calls through closure values to the functions they hold, so
/// that the inliner reaches them. A call of `%v` is rewritten when every
/// definition reaching `%v` through `Copy` and `Phi` is a capture-free
/// `MakeClosure` of a function whose signature is the closure's type, and
/// there are at most four. One target makes the call direct. Several get a
/// tag mirroring the closure through the same copies and phis (`Bool` when
/// the function's calls reach two targets, else `I64`), and the call
/// branches on it to a direct call per target. A closure reached through
/// an argument, a tensor, a call result or a constant (the `Null` of
/// `Which`'s closing `True` test, which constant folding deletes only
/// later) leaves the call indirect, and a closure put to any other use than
/// a call stays.
fn defunctionalize(pm: &mut ProgramModule) {
    let mut sigs = None;
    for fix in 0..pm.functions.len() {
        let f = &pm.functions[fix];
        if !f.instrs().any(|i| indirect(i).is_some()) {
            continue;
        }
        let sigs = sigs.get_or_insert_with(|| wolfram_analyze::module_signatures(pm));
        let defs: HashMap<VarId, &Instr> = f.instrs().filter_map(|i| Some((i.def()?, i))).collect();
        // The functions a call through `v` reaches, and the variables on
        // the way.
        let reaching = |v: VarId| {
            let (mut targets, mut web, mut stack) = (Vec::new(), Vec::new(), vec![v]);
            while let Some(w) = stack.pop() {
                if web.contains(&w) {
                    continue;
                }
                web.push(w);
                match defs.get(&w)? {
                    Instr::Copy { src, .. } => stack.push(*src),
                    Instr::Phi { incoming, .. } => {
                        for (_, op) in incoming {
                            stack.push(op.as_var()?);
                        }
                    }
                    Instr::MakeClosure { func, captures, .. } if captures.is_empty() => {
                        let (params, ret) = sigs.get(func)?;
                        let params = params.iter().cloned().collect::<Option<_>>()?;
                        if f.var_type(w) != Some(&Type::arrow(params, ret.clone()?)) {
                            return None;
                        }
                        let target: Target = (func.clone(), pm.find(func)?);
                        if !targets.contains(&target) {
                            targets.push(target);
                        }
                    }
                    _ => return None,
                }
            }
            (targets.len() <= 4).then_some((targets, web))
        };
        let mut plans = Vec::new();
        for (bix, block) in f.blocks.iter().enumerate() {
            for (iix, i) in block.instrs.iter().enumerate() {
                let reached = indirect(i).and_then(&reaching);
                plans.extend(reached.map(|(targets, web)| (bix, iix, targets, web)));
            }
        }
        let f = &mut pm.functions[fix];
        // One numbering of the targets of the calls with several, and a tag
        // per closure variable that reaches one.
        let (mut order, mut tags) = (Vec::new(), HashMap::new());
        for (_, _, targets, web) in plans.iter().filter(|p| p.2.len() > 1) {
            order.extend(targets.iter().cloned());
            for w in web {
                tags.entry(*w).or_insert_with(|| f.fresh_var());
            }
        }
        order.sort_by_key(|(_, func): &Target| func.0);
        order.dedup();
        let position = |name: &Arc<str>| order.iter().position(|(o, _)| o == name);
        let tag_of = |name: &Arc<str>| match position(name).expect("a tagged target") {
            k if order.len() == 2 => Constant::Bool(k == 0),
            k => Constant::I64(k as i64),
        };
        // Back to front: splitting a block moves no call before it.
        for (bix, iix, mut targets, _) in plans.into_iter().rev() {
            let tag = indirect(&f.blocks[bix].instrs[iix]).and_then(|v| tags.get(&v).copied());
            targets.sort_by_key(|(name, _)| position(name));
            let mut at = (bix, iix);
            while targets.len() > 1 {
                let target = targets.remove(0);
                at = peel(f, at, tag.expect("a tag"), tag_of(&target.0), target);
            }
            if let Instr::Call { callee, .. } = &mut f.blocks[at.0].instrs[at.1] {
                let (name, func) = targets.remove(0);
                *callee = Callee::Function { name, func };
            }
        }
        for block in &mut f.blocks {
            for i in std::mem::take(&mut block.instrs) {
                let mirror = i.def().and_then(|d| tags.get(&d)).map(|&tag| {
                    let mut m = i.clone();
                    m.map_uses(&mut |v| tags[&v]);
                    match &mut m {
                        Instr::MakeClosure { func, .. } => Instr::LoadConst {
                            dst: tag,
                            value: tag_of(func),
                        },
                        Instr::Copy { dst, .. } | Instr::Phi { dst, .. } => {
                            *dst = tag;
                            m
                        }
                        _ => unreachable!("closures reach a call through copies and phis"),
                    }
                });
                block.instrs.push(i);
                block.instrs.extend(mirror);
            }
        }
        for &t in tags.values() {
            f.var_types.insert(t, tag_of(&order[0].0).ty());
        }
    }
}

/// Splits the indirect call at `at` in two: its block ends in a branch on
/// whether `tag` is `value` to a direct call of `target` or to the indirect
/// call, and a join takes the rest of the block. Returns where the
/// indirect call is now.
fn peel(
    f: &mut Function,
    at: (usize, usize),
    tag: VarId,
    value: Constant,
    target: Target,
) -> (usize, usize) {
    let base = f.blocks.len() as u32;
    let (join, direct, rest) = (BlockId(base), BlockId(base + 1), BlockId(base + 2));
    let (call, tail) = split_after(f, at, join);
    let Instr::Call { dst, callee, args } = call else {
        unreachable!("a call")
    };
    let cond = match value {
        Constant::I64(_) => {
            let i64s = [Type::integer64(), Type::integer64()];
            let callee = Callee::primitive(Prim::Compare(Cmp::Equal), &i64s);
            let (dst, args) = (f.fresh_var(), vec![tag.into(), value.into()]);
            f.var_types.insert(dst, Type::boolean());
            f.blocks[at.0]
                .instrs
                .push(Instr::Call { dst, callee, args });
            dst
        }
        _ => tag,
    };
    f.blocks[at.0].instrs.push(Instr::Branch {
        cond: cond.into(),
        then_block: direct,
        else_block: rest,
    });
    let (r0, r1) = (f.fresh_var(), f.fresh_var());
    if let Some(t) = f.var_type(dst).cloned() {
        f.var_types.extend([(r0, t.clone()), (r1, t)]);
    }
    let incoming = vec![(direct, r0.into()), (rest, r1.into())];
    let instrs = std::iter::once(Instr::Phi { dst, incoming }).chain(tail);
    f.blocks.push(Block {
        label: "call-join".into(),
        instrs: instrs.collect(),
    });
    let (name, func) = target;
    let arms = [
        (format!("call-{name}"), r0, Callee::Function { name, func }),
        ("call-rest".into(), r1, callee),
    ];
    for (label, dst, callee) in arms {
        let args = args.clone();
        let instrs = vec![
            Instr::Call { dst, callee, args },
            Instr::Jump { target: join },
        ];
        f.blocks.push(Block { label, instrs });
    }
    (rest.0 as usize, 0)
}

/// Takes the instruction at `(bix, iix)` and the rest of its block out of
/// the block; the phis of the block's successors see `to` as the
/// predecessor in its place.
fn split_after(f: &mut Function, (bix, iix): (usize, usize), to: BlockId) -> (Instr, Vec<Instr>) {
    let tail = f.blocks[bix].instrs.split_off(iix + 1);
    let at = f.blocks[bix].instrs.pop().expect("an instruction");
    for s in tail.last().map(Instr::successors).unwrap_or_default() {
        for i in &mut f.block_mut(s).instrs {
            if let Instr::Phi { incoming, .. } = i {
                for (p, _) in incoming.iter_mut().filter(|(p, _)| p.0 as usize == bix) {
                    *p = to;
                }
            }
        }
    }
    (at, tail)
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
    let (call, tail) = split_after(caller, (bix, iix), cont_block);
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
}

/// Drops the functions nothing reachable from the entry references — by a
/// direct call or a `MakeClosure` — and renumbers the `FuncId`s of the
/// calls that remain. A lambda every call of which was resolved and
/// inlined is one, once the entry's passes have deleted its closure.
/// Returns the number dropped.
pub fn drop_unreachable(pm: &mut ProgramModule) -> usize {
    let mut reached = vec![false; pm.functions.len()];
    let mut stack = vec![0];
    while let Some(fix) = stack.pop() {
        if std::mem::replace(&mut reached[fix], true) {
            continue;
        }
        for i in pm.functions[fix].instrs() {
            let target = match i {
                Instr::Call {
                    callee: Callee::Function { func, .. },
                    ..
                } => Some(func.0 as usize),
                Instr::MakeClosure { func, .. } => pm.find(func).map(|f| f.0 as usize),
                _ => None,
            };
            stack.extend(target.filter(|&t| !reached[t]));
        }
    }
    let dropped = reached.iter().filter(|&&r| !r).count();
    if dropped == 0 {
        return 0;
    }
    let mut renumbered = Vec::with_capacity(reached.len());
    let mut next = 0;
    for &r in &reached {
        renumbered.push(FuncId(next));
        next += u32::from(r);
    }
    let mut keep = reached.iter();
    pm.functions
        .retain(|_| *keep.next().expect("one flag per function"));
    for block in pm.functions.iter_mut().flat_map(|f| &mut f.blocks) {
        for i in &mut block.instrs {
            if let Instr::Call {
                callee: Callee::Function { func, .. },
                ..
            } = i
            {
                *func = renumbered[func.0 as usize];
            }
        }
    }
    dropped
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

    /// Calls through a closure value left in the module.
    fn indirect_calls(pm: &ProgramModule) -> usize {
        pm.functions
            .iter()
            .flat_map(Function::instrs)
            .filter(|i| {
                matches!(
                    i,
                    Instr::Call {
                        callee: Callee::Value(_),
                        ..
                    }
                )
            })
            .count()
    }

    fn twir(src: &str, policy: InlinePolicy) -> ProgramModule {
        let options = CompilerOptions {
            inline_policy: policy,
            ..CompilerOptions::default()
        };
        let f = wolfram_expr::parse(src).unwrap();
        crate::Compiler::new(options)
            .compile_to_twir(&f, None)
            .unwrap()
    }

    /// The default compile and the `Never` (call-by-value) compile of `src`
    /// agree on `args`; returns the default's result.
    fn run_both(src: &str, args: &[Value]) -> Value {
        let f = wolfram_expr::parse(src).unwrap();
        let mut never = CompilerOptions::default();
        crate::Ablation::Inlining.apply(&mut never);
        let default = crate::Compiler::default().function_compile(&f).unwrap();
        let indirect = crate::Compiler::new(never).function_compile(&f).unwrap();
        let got = default.call(args).unwrap();
        assert_eq!(indirect.call(args).unwrap(), got, "{src} on {args:?}");
        got
    }

    use wolfram_runtime::Value;

    #[test]
    fn a_direct_closure_call_becomes_a_function_call() {
        let mut pm = resolved(
            "Function[{Typed[n, \"MachineInteger\"]}, \
             Module[{f = Function[{Typed[x, \"MachineInteger\"]}, x + 1]}, f[n]]]",
            InlinePolicy::Never,
        );
        assert_eq!(indirect_calls(&pm), 1);
        defunctionalize(&mut pm);
        assert_eq!(indirect_calls(&pm), 0);
        let text = pm.main().to_text();
        assert!(text.contains("Call Main`lambda1 [%"), "{text}");
    }

    #[test]
    fn qsort_calls_its_comparator_directly_unless_inlining_is_off() {
        let src = wolfram_bench::programs::QSORT_SRC;
        assert_eq!(indirect_calls(&twir(src, InlinePolicy::Never)), 4);
        let pm = twir(src, InlinePolicy::Automatic);
        assert_eq!(indirect_calls(&pm), 0, "{}", pm.main().to_text());
        // The tag picks the lambda `ascending` chose.
        let list: Vec<i64> = (0..64).map(|k| (k * 37) % 64).collect();
        for (ascending, sorted) in [
            (true, (0..64).collect::<Vec<_>>()),
            (false, (0..64).rev().collect()),
        ] {
            let args = [
                Value::Tensor(wolfram_runtime::Tensor::from_i64(list.clone())),
                Value::Bool(ascending),
            ];
            assert_eq!(
                run_both(src, &args),
                Value::Tensor(wolfram_runtime::Tensor::from_i64(sorted))
            );
        }
        // Both lambdas are inlined, and their closures are dead.
        let text = pm.main().to_text();
        assert!(
            !text.contains("MakeClosure") && !text.contains("Call Main`lambda"),
            "{text}"
        );
    }

    #[test]
    fn a_closure_with_a_capture_stays_indirect() {
        let src = "Function[{Typed[n, \"MachineInteger\"]}, \
                   Module[{f = Function[{Typed[x, \"MachineInteger\"]}, x + n]}, f[1]]]";
        assert_eq!(indirect_calls(&twir(src, InlinePolicy::Automatic)), 1);
        assert_eq!(run_both(src, &[Value::I64(41)]), Value::I64(42));
    }

    #[test]
    fn a_closure_called_and_returned_is_still_a_working_value() {
        // `g[n]` is resolved; `g` and `h` are also returned, and `f[n]`
        // calls through an argument, so both stay closures.
        let src = "Function[{Typed[f, {\"MachineInteger\"} -> \"MachineInteger\"], \
                    Typed[n, \"MachineInteger\"]}, \
                   Module[{g = Function[{Typed[k, \"MachineInteger\"]}, 2*k + 1], \
                           h = Function[{Typed[k, \"MachineInteger\"]}, k - 1]}, \
                    If[f[n] == g[n], h, g]]]";
        let pm = twir(src, InlinePolicy::Automatic);
        assert_eq!(indirect_calls(&pm), 1, "{}", pm.main().to_text());
        let cf = crate::Compiler::default()
            .function_compile_src(src)
            .unwrap();
        let closure = |name: &str| {
            let index = cf
                .program
                .funcs
                .iter()
                .position(|f| f.name == name)
                .unwrap();
            Value::Function(Arc::new(wolfram_runtime::FunctionValue {
                name: Arc::from(name),
                index,
                captures: Vec::new(),
            }))
        };
        let (g, h) = (closure("Main`lambda1"), closure("Main`lambda2"));
        // h(3) = 2 is not g(3) = 7: the call returns g, which is then
        // called through `f` and matches.
        let returned = cf.call(&[h.clone(), Value::I64(3)]).unwrap();
        assert_eq!(returned, g);
        assert_eq!(cf.call(&[returned, Value::I64(3)]).unwrap(), h);
    }

    #[test]
    fn a_closure_reassigned_in_a_loop_dispatches_to_each_iterations_target() {
        // Three lifted lambdas reach `f[i]` (the first `x + 1` and its
        // second copy are distinct functions): an `I64` tag.
        let src = "Function[{Typed[n, \"MachineInteger\"]}, \
                   Module[{f = Function[{Typed[x, \"MachineInteger\"]}, x + 1], s = 0, i = 0}, \
                    While[i < n, \
                     s = 3*s + f[i]; \
                     f = If[Mod[i, 3] == 0, \
                      Function[{Typed[x, \"MachineInteger\"]}, 2*x], \
                      Function[{Typed[x, \"MachineInteger\"]}, x + 1]]; \
                     i = i + 1]; \
                    s]]";
        assert_eq!(indirect_calls(&twir(src, InlinePolicy::Automatic)), 0);
        let (mut s, mut doubling) = (0i64, false);
        for i in 0..12i64 {
            s = 3 * s + if doubling { 2 * i } else { i + 1 };
            doubling = i % 3 == 0;
        }
        assert_eq!(run_both(src, &[Value::I64(12)]), Value::I64(s));
    }

    #[test]
    fn a_which_over_three_lambdas_stays_indirect_and_nested_ifs_dispatch() {
        // `Which`'s closing `True` test still has its `Null` branch when
        // resolution runs (constant folding comes later), so a `Null`
        // reaches the call and it stays indirect. The same choice as
        // nested `If`s reaches three closures and dispatches on a tag.
        let lambdas = [
            "Function[{Typed[y, \"MachineInteger\"]}, y + 1]",
            "Function[{Typed[y, \"MachineInteger\"]}, 2*y]",
            "Function[{Typed[y, \"MachineInteger\"]}, y*y]",
        ];
        let choose = |pick: String| {
            format!(
                "Function[{{Typed[k, \"MachineInteger\"], Typed[x, \"MachineInteger\"]}}, \
                 Module[{{f = {pick}}}, f[x]]]"
            )
        };
        let [a, b, c] = lambdas;
        let which = choose(format!("Which[k == 0, {a}, k == 1, {b}, True, {c}]"));
        let ifs = choose(format!("If[k == 0, {a}, If[k == 1, {b}, {c}]]"));
        for (src, indirect) in [(which, 1), (ifs, 0)] {
            assert_eq!(
                indirect_calls(&twir(&src, InlinePolicy::Automatic)),
                indirect
            );
            for (k, want) in [(0, 8), (1, 14), (2, 49), (-1, 49)] {
                assert_eq!(
                    run_both(&src, &[Value::I64(k), Value::I64(7)]),
                    Value::I64(want)
                );
            }
        }
    }
}
