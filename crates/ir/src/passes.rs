//! IR passes (§4.3, §4.5).
//!
//! "Optimizations on the control flow graph (dead-branch deletion, basic
//! block fusion, etc.) ... are safe to perform on the WIR"; "Traditional
//! compiler optimizations such as: sparse conditional constant propagation,
//! common subexpression elimination, dead code elimination, etc. are ...
//! safe to perform on the TWIR". Each pass has a name ([`run_pass`]);
//! [`run_pipeline`] runs them in order under the [`CompilerOptions`] that
//! `FunctionCompile` was given (§4.7): the optimization level, abort and
//! memory-management insertion, and the verification level.

use crate::analysis::{liveness, natural_loops, Cfg, Dominators};
use crate::module::{Block, BlockId, Callee, ConstKey, Constant, Function, Instr, Operand, VarId};
use crate::options::{CompilerOptions, VerifyLevel};
use crate::verify::{verify_function, VerifyError};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_runtime::{checked, RuntimeError};
use wolfram_types::{Cmp, Elementary, Prim, Type};

/// A semantic checker injected into the pipeline at `VerifyLevel::Full`.
/// Lives behind a function pointer because `wolfram-ir` cannot depend on
/// the analyzer crate (it depends on us).
pub type FullVerifier = Arc<dyn Fn(&Function) -> Result<(), VerifyError>>;

/// The optimizing passes, in pipeline order.
pub const OPT_PASSES: &[&str] = &[
    "constant-fold",
    "cse",
    "copy-propagation",
    "dce",
    "simplify-cfg",
];

/// Runs a single pass by name. Returns whether anything changed — exactly:
/// [`run_pipeline`] verifies the function again only after a `true`.
///
/// # Errors
///
/// An unknown pass name.
pub fn run_pass(name: &str, f: &mut Function) -> Result<bool, VerifyError> {
    let changed = match name {
        "constant-fold" => constant_fold(f),
        "cse" => cse(f),
        "copy-propagation" => copy_propagation(f),
        "dce" => dce(f),
        "simplify-cfg" => simplify_cfg(f),
        "abort-insertion" => abort_insertion(f),
        "memory-management" => memory_management(f),
        other => return Err(VerifyError(format!("unknown pass `{other}`"))),
    };
    Ok(changed)
}

/// What one [`run_pipeline`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineReport {
    /// Names of the passes that changed the function, in order: one entry
    /// per fixpoint round in which a pass changed it.
    pub ran: Vec<String>,
    /// Passes executed, whether or not they changed anything.
    pub steps: usize,
    /// Verifications performed: the incoming function, then the result of
    /// each pass that changed it (zero at `VerifyLevel::Off`).
    pub verifications: usize,
    /// Time spent in those verifications, out of the call's total.
    pub verify_time: Duration,
}

/// Runs the standard pipeline (optimizations to fixpoint, then abort and
/// memory-management insertion) as `opts` asks. At `VerifyLevel::Full`,
/// `full_check` runs after the SSA linter.
///
/// Each distinct state of the function is verified once: the incoming
/// function, then the result of every pass that reports a change. A pass
/// that reports none left an already verified function, which is why a
/// pass must never mutate and answer `false`.
///
/// # Errors
///
/// Propagates linter failures, anchored to the pipeline's entry or to the
/// pass whose result failed.
pub fn run_pipeline(
    f: &mut Function,
    opts: &CompilerOptions,
    full_check: Option<&FullVerifier>,
) -> Result<PipelineReport, VerifyError> {
    let mut report = PipelineReport::default();
    let verify = |f: &Function, at: std::fmt::Arguments, report: &mut PipelineReport| {
        if opts.verify == VerifyLevel::Off {
            return Ok(());
        }
        let start = Instant::now();
        let mut result = verify_function(f);
        if let (Ok(()), VerifyLevel::Full, Some(check)) = (&result, opts.verify, full_check) {
            result = check(f);
        }
        report.verifications += 1;
        report.verify_time += start.elapsed();
        result.map_err(|e| VerifyError(format!("function `{}`, {at}: {}", f.name, e.0)))
    };
    let step =
        |name: &str, f: &mut Function, report: &mut PipelineReport| -> Result<(), VerifyError> {
            report.steps += 1;
            if run_pass(name, f)? {
                report.ran.push(name.to_owned());
                verify(f, format_args!("after pass `{name}`"), report)?;
            }
            Ok(())
        };
    verify(f, format_args!("on entry to the pipeline"), &mut report)?;
    if opts.optimization_level > 0 {
        for _round in 0..3 {
            let before = report.ran.len();
            for name in OPT_PASSES {
                step(name, f, &mut report)?;
            }
            if report.ran.len() == before {
                break;
            }
        }
    }
    if opts.abort_handling && f.info.abort_handling {
        step("abort-insertion", f, &mut report)?;
    }
    if opts.memory_management {
        step("memory-management", f, &mut report)?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Constant folding + dead-branch deletion (SCCP-flavored).
// ---------------------------------------------------------------------

/// Evaluates a call of `prim` over constant arguments, for the rows whose
/// value is the same at compile time as at run time. Folding never hides a
/// runtime error: an integer operation that would raise (overflow,
/// division by zero) and a non-finite elementary result give `None`, so
/// the call stays and the soft-failure path (F2) still happens at run time.
pub fn fold(prim: Prim, args: &[Constant]) -> Option<Constant> {
    use checked::{abs_i64, add_i64, mod_i64, mul_i64, neg_i64, pow_i64, quotient_i64, sub_i64};
    use Constant as C;
    let i2 = || match args {
        [C::I64(a), C::I64(b)] => Some((*a, *b)),
        _ => None,
    };
    let f2 = || match args {
        [C::F64(a), C::F64(b)] => Some((*a, *b)),
        [C::I64(a), C::F64(b)] => Some((*a as f64, *b)),
        [C::F64(a), C::I64(b)] => Some((*a, *b as f64)),
        _ => None,
    };
    let num2 = |fi: fn(i64, i64) -> Option<i64>, ff: fn(f64, f64) -> f64| {
        if let Some((a, b)) = i2() {
            return fi(a, b).map(C::I64);
        }
        f2().map(|(a, b)| C::F64(ff(a, b)))
    };
    let int2 = |fi: fn(i64, i64) -> Result<i64, RuntimeError>| {
        i2().and_then(|(a, b)| fi(a, b).ok()).map(C::I64)
    };
    let cmp = |ok: fn(Ordering) -> bool| -> Option<Constant> {
        if let Some((a, b)) = i2() {
            return Some(C::Bool(ok(a.cmp(&b))));
        }
        let (a, b) = f2()?;
        a.partial_cmp(&b).map(|o| C::Bool(ok(o)))
    };
    match prim {
        Prim::Plus => num2(|a, b| add_i64(a, b).ok(), |a, b| a + b),
        Prim::Subtract => num2(|a, b| sub_i64(a, b).ok(), |a, b| a - b),
        Prim::Times => num2(|a, b| mul_i64(a, b).ok(), |a, b| a * b),
        Prim::Quotient => int2(quotient_i64),
        Prim::Mod => int2(mod_i64),
        Prim::Divide => {
            let (a, b) = f2()?;
            (b != 0.0).then(|| C::F64(a / b))
        }
        Prim::Power => match args {
            [C::I64(_), C::I64(_)] => int2(pow_i64),
            _ => f2().map(|(a, b)| C::F64(a.powf(b))),
        },
        Prim::Minus => match args {
            [C::I64(a)] => neg_i64(*a).ok().map(C::I64),
            [C::F64(a)] => Some(C::F64(-a)),
            _ => None,
        },
        Prim::Abs => match args {
            [C::I64(a)] => abs_i64(*a).ok().map(C::I64),
            [C::F64(a)] => Some(C::F64(a.abs())),
            _ => None,
        },
        Prim::Min => num2(|a, b| Some(a.min(b)), f64::min),
        Prim::Max => num2(|a, b| Some(a.max(b)), f64::max),
        Prim::Not => match args {
            [C::Bool(b)] => Some(C::Bool(!b)),
            _ => None,
        },
        Prim::Compare(c) => cmp(match c {
            Cmp::Less => Ordering::is_lt,
            Cmp::LessEqual => Ordering::is_le,
            Cmp::Greater => Ordering::is_gt,
            Cmp::GreaterEqual => Ordering::is_ge,
            Cmp::Equal => Ordering::is_eq,
            Cmp::Unequal => Ordering::is_ne,
        }),
        Prim::Elementary(e) => {
            let [C::F64(a)] = args else { return None };
            let v = match e {
                Elementary::Sin => a.sin(),
                Elementary::Cos => a.cos(),
                Elementary::Tan => a.tan(),
                Elementary::Exp => a.exp(),
                Elementary::Log => a.ln(),
                Elementary::ArcTan | Elementary::ArcSin | Elementary::ArcCos => return None,
            };
            v.is_finite().then_some(C::F64(v))
        }
        Prim::StringLength => match args {
            [C::Str(s)] => Some(C::I64(s.chars().count() as i64)),
            _ => None,
        },
        _ => None,
    }
}

/// Folds constants through calls and branches; dead branches become jumps.
fn constant_fold(f: &mut Function) -> bool {
    let mut changed = false;
    // Known constants per variable.
    let mut consts: HashMap<VarId, Constant> = HashMap::new();
    for b in f.block_ids() {
        for i in &f.block(b).instrs {
            if let Instr::LoadConst { dst, value } = i {
                consts.insert(*dst, value.clone());
            }
        }
    }
    // Iterate to a local fixed point.
    loop {
        let mut local_change = false;
        for b in 0..f.blocks.len() {
            let block = &mut f.blocks[b];
            for i in block.instrs.iter_mut() {
                // Forward constants into operands.
                let forward = |o: &mut Operand| {
                    if let Operand::Var(v) = o {
                        if let Some(c) = consts.get(v) {
                            *o = Operand::Const(c.clone());
                            return true;
                        }
                    }
                    false
                };
                match i {
                    Instr::Call { args, .. } => {
                        for a in args.iter_mut() {
                            local_change |= forward(a);
                        }
                    }
                    Instr::Branch { cond, .. } => {
                        local_change |= forward(cond);
                    }
                    Instr::Return { value } => {
                        local_change |= forward(value);
                    }
                    Instr::Phi { incoming, .. } => {
                        for (_, o) in incoming.iter_mut() {
                            local_change |= forward(o);
                        }
                    }
                    Instr::MakeClosure { captures, .. } => {
                        for c in captures.iter_mut() {
                            local_change |= forward(c);
                        }
                    }
                    Instr::Copy { dst, src } => {
                        if let Some(c) = consts.get(src).cloned() {
                            consts.insert(*dst, c.clone());
                            *i = Instr::LoadConst {
                                dst: *dst,
                                value: c,
                            };
                            local_change = true;
                        }
                    }
                    _ => {}
                }
                // Fold primitive calls whose arguments are all constants.
                if let Instr::Call {
                    dst,
                    callee: Callee::Primitive { prim, .. },
                    args,
                } = i
                {
                    let const_args: Option<Vec<Constant>> =
                        args.iter().map(|a| a.as_const().cloned()).collect();
                    if let Some(c) = const_args.and_then(|a| fold(*prim, &a)) {
                        consts.insert(*dst, c.clone());
                        *i = Instr::LoadConst {
                            dst: *dst,
                            value: c,
                        };
                        local_change = true;
                    }
                }
                // Phi with all-identical constant incoming.
                if let Instr::Phi { dst, incoming } = i {
                    if let Some(first) = incoming.first().and_then(|(_, o)| o.as_const()) {
                        let first = first.clone();
                        if !incoming.is_empty()
                            && incoming.iter().all(|(_, o)| o.as_const() == Some(&first))
                        {
                            consts.insert(*dst, first.clone());
                            *i = Instr::LoadConst {
                                dst: *dst,
                                value: first,
                            };
                            local_change = true;
                        }
                    }
                }
            }
            // Dead-branch deletion.
            if let Some(Instr::Branch {
                cond: Operand::Const(c),
                then_block,
                else_block,
            }) = block.instrs.last().cloned()
            {
                let taken = match c {
                    Constant::Bool(true) => Some(then_block),
                    Constant::Bool(false) => Some(else_block),
                    _ => None,
                };
                if let Some(t) = taken {
                    *block.instrs.last_mut().expect("terminator") = Instr::Jump { target: t };
                    local_change = true;
                }
            }
        }
        changed |= local_change;
        if !local_change {
            break;
        }
    }
    if changed {
        prune_phis(f);
    }
    changed
}

/// Recomputes predecessor sets and prunes phi incoming lists accordingly;
/// single-entry phis degrade to copies.
pub fn prune_phis(f: &mut Function) {
    let cfg = Cfg::new(f);
    let reachable: HashSet<BlockId> = cfg.rpo.iter().copied().collect();
    for b in f.block_ids().collect::<Vec<_>>() {
        let preds: HashSet<BlockId> = cfg.preds[b.0 as usize]
            .iter()
            .copied()
            .filter(|p| reachable.contains(p))
            .collect();
        let block = f.block_mut(b);
        for i in block.instrs.iter_mut() {
            if let Instr::Phi { dst, incoming } = i {
                incoming.retain(|(p, _)| preds.contains(p));
                if incoming.len() == 1 {
                    let (_, op) = incoming.pop().expect("len checked");
                    *i = match op {
                        Operand::Var(src) => Instr::Copy { dst: *dst, src },
                        Operand::Const(c) => Instr::LoadConst {
                            dst: *dst,
                            value: c,
                        },
                    };
                }
            }
        }
        // Copies may now sit between phis; that is fine for the verifier
        // (phis must only be a prefix — reorder to keep phis first).
        let (phis, rest): (Vec<Instr>, Vec<Instr>) = block
            .instrs
            .drain(..)
            .partition(|i| matches!(i, Instr::Phi { .. }));
        block.instrs = phis;
        block.instrs.extend(rest);
    }
}

// ---------------------------------------------------------------------
// Common subexpression elimination (dominator-scoped).
// ---------------------------------------------------------------------

fn cse(f: &mut Function) -> bool {
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    // Dominator-tree preorder.
    let mut children: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for &b in &cfg.rpo {
        if b != f.entry {
            if let Some(p) = dom.idom(b) {
                children.entry(p).or_default().push(b);
            }
        }
    }
    let mut changed = false;
    let mut available: HashMap<InstrKey, VarId> = HashMap::new();
    let mut replaced: HashMap<VarId, VarId> = HashMap::new();
    fn visit(
        b: BlockId,
        f: &mut Function,
        children: &HashMap<BlockId, Vec<BlockId>>,
        available: &mut HashMap<InstrKey, VarId>,
        replaced: &mut HashMap<VarId, VarId>,
        changed: &mut bool,
    ) {
        let mut added = Vec::new();
        for ix in 0..f.block(b).instrs.len() {
            let mut instr = f.block(b).instrs[ix].clone();
            instr.map_uses(&mut |v| *replaced.get(&v).unwrap_or(&v));
            if instr.is_pure() && !matches!(instr, Instr::Phi { .. }) {
                if let (Some(dst), Some(key)) = (instr.def(), instr_key(&instr)) {
                    if let Some(&prev) = available.get(&key) {
                        replaced.insert(dst, prev);
                        f.block_mut(b).instrs[ix] = Instr::Copy { dst, src: prev };
                        *changed = true;
                        continue;
                    }
                    available.insert(key.clone(), dst);
                    added.push(key);
                }
            }
            f.block_mut(b).instrs[ix] = instr;
        }
        for &c in children.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
            visit(c, f, children, available, replaced, changed);
        }
        for key in added {
            available.remove(&key);
        }
    }
    let entry = f.entry;
    visit(
        entry,
        f,
        &children,
        &mut available,
        &mut replaced,
        &mut changed,
    );
    // Apply replacements everywhere (uses in blocks not visited via the
    // original defs, e.g. phis).
    if !replaced.is_empty() {
        for b in 0..f.blocks.len() {
            for i in f.blocks[b].instrs.iter_mut() {
                i.map_uses(&mut |v| *replaced.get(&v).unwrap_or(&v));
            }
        }
    }
    changed
}

/// What CSE merges on: the callee and operands (`Ok` a variable, `Err` a
/// constant) of a pure call, or the constant a load produces.
#[derive(Clone, PartialEq, Eq, Hash)]
enum InstrKey {
    Call(Callee, Vec<Result<VarId, ConstKey>>),
    Const(ConstKey),
}

fn instr_key(i: &Instr) -> Option<InstrKey> {
    match i {
        Instr::Call { callee, args, .. } => {
            let args = args
                .iter()
                .map(|a| match a {
                    Operand::Var(v) => Ok(*v),
                    Operand::Const(c) => Err(ConstKey(c.clone())),
                })
                .collect();
            Some(InstrKey::Call(callee.clone(), args))
        }
        Instr::LoadConst { value, .. } => Some(InstrKey::Const(ConstKey(value.clone()))),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Copy propagation.
// ---------------------------------------------------------------------

/// Replaces *trivial* phis (all non-self incoming operands identical) with
/// copies/constant loads, to a fixed point. The direct-to-SSA builder
/// leaves these behind for values merely threaded through loops.
fn trivial_phis(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        // Resolution maps for this round: copy chains and constant loads,
        // so phi *webs* (phis referencing each other through copies)
        // collapse over successive rounds.
        let mut copy_of: HashMap<VarId, VarId> = HashMap::new();
        let mut const_of: HashMap<VarId, Constant> = HashMap::new();
        for i in f.instrs() {
            match i {
                Instr::Copy { dst, src } => {
                    copy_of.insert(*dst, *src);
                }
                Instr::LoadConst { dst, value } => {
                    const_of.insert(*dst, value.clone());
                }
                _ => {}
            }
        }
        let resolve = |o: &Operand| -> Operand {
            let mut v = match o {
                Operand::Var(v) => *v,
                c => return c.clone(),
            };
            let mut guard = 0;
            while let Some(&next) = copy_of.get(&v) {
                v = next;
                guard += 1;
                if guard > copy_of.len() {
                    break;
                }
            }
            match const_of.get(&v) {
                Some(c) => Operand::Const(c.clone()),
                None => Operand::Var(v),
            }
        };
        let mut local = false;
        for b in 0..f.blocks.len() {
            for ix in 0..f.blocks[b].instrs.len() {
                let Instr::Phi { dst, incoming } = &f.blocks[b].instrs[ix] else {
                    continue;
                };
                let dst = *dst;
                let mut unique: Option<Operand> = None;
                let mut trivial = true;
                for (_, op) in incoming {
                    let op = resolve(op);
                    if op.as_var() == Some(dst) {
                        continue; // self-reference through the backedge
                    }
                    match &unique {
                        None => unique = Some(op),
                        Some(u) if *u == op => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if !trivial {
                    continue;
                }
                let Some(op) = unique else { continue };
                f.blocks[b].instrs[ix] = match op {
                    Operand::Var(src) => Instr::Copy { dst, src },
                    Operand::Const(c) => Instr::LoadConst { dst, value: c },
                };
                local = true;
            }
            if local {
                // Keep phis as a prefix after replacement.
                let (phis, rest): (Vec<Instr>, Vec<Instr>) = f.blocks[b]
                    .instrs
                    .drain(..)
                    .partition(|i| matches!(i, Instr::Phi { .. }));
                f.blocks[b].instrs = phis;
                f.blocks[b].instrs.extend(rest);
            }
        }
        changed |= local;
        if !local {
            return changed;
        }
    }
}

/// Propagates `Copy` chains. `Copy` at this level is SSA plumbing — real
/// value copies required by mutability semantics (F5) are explicit
/// `tensor_copy` primitive calls, which this pass never touches (the
/// paper's "not generally valid to perform copy propagation" restriction).
fn copy_propagation(f: &mut Function) -> bool {
    let changed_phis = trivial_phis(f);
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    for i in f.instrs() {
        if let Instr::Copy { dst, src } = i {
            map.insert(*dst, *src);
        }
    }
    if map.is_empty() {
        return changed_phis;
    }
    let resolve = |mut v: VarId| {
        let mut guard = 0;
        while let Some(&next) = map.get(&v) {
            v = next;
            guard += 1;
            if guard > map.len() {
                break;
            }
        }
        v
    };
    let mut changed = changed_phis;
    for b in 0..f.blocks.len() {
        for i in f.blocks[b].instrs.iter_mut() {
            let before = i.clone();
            i.map_uses(&mut |v| resolve(v));
            changed |= *i != before;
        }
    }
    changed
}

// ---------------------------------------------------------------------
// Dead code elimination.
// ---------------------------------------------------------------------

fn dce(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let mut used: HashSet<VarId> = HashSet::new();
        for i in f.instrs() {
            for u in i.uses() {
                used.insert(u);
            }
        }
        let mut removed = false;
        for b in 0..f.blocks.len() {
            let before = f.blocks[b].instrs.len();
            f.blocks[b].instrs.retain(|i| {
                // LoadArgument defines the function's ABI (parameter slots
                // and types) and is kept even when unused.
                // `is_removable`, not `is_pure`: trapping-but-pure calls
                // (checked arithmetic, Part) must survive so dead code
                // still raises exactly the errors the interpreter raises.
                let dead = i.is_removable()
                    && !matches!(i, Instr::LoadArgument { .. })
                    && i.def().is_some_and(|d| !used.contains(&d));
                !dead
            });
            removed |= f.blocks[b].instrs.len() != before;
        }
        changed |= removed;
        if !removed {
            return changed;
        }
    }
}

// ---------------------------------------------------------------------
// CFG simplification: unreachable-block removal + basic-block fusion.
// ---------------------------------------------------------------------

fn simplify_cfg(f: &mut Function) -> bool {
    let mut changed = false;
    // Remove unreachable blocks (replace with empty tombstones to keep ids
    // stable, then prune phis).
    let cfg = Cfg::new(f);
    let reachable: HashSet<BlockId> = cfg.rpo.iter().copied().collect();
    for b in f.block_ids().collect::<Vec<_>>() {
        if !reachable.contains(&b) && !f.block(b).instrs.is_empty() {
            f.block_mut(b).instrs.clear();
            f.block_mut(b).label = "unreachable".into();
            changed = true;
        }
    }
    if changed {
        prune_phis(f);
    }
    // Block fusion: a Jump-only edge from A to B where B has exactly one
    // predecessor merges B into A.
    loop {
        let cfg = Cfg::new(f);
        let mut fused = false;
        for &a in &cfg.rpo {
            let Some(Instr::Jump { target: b }) = f.block(a).terminator().cloned() else {
                continue;
            };
            if b == a || cfg.preds[b.0 as usize].len() != 1 {
                continue;
            }
            // Phis in b with a single predecessor have been pruned already;
            // any remaining phi blocks fusion.
            if f.block(b)
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::Phi { .. }))
            {
                continue;
            }
            let mut moved = std::mem::take(&mut f.block_mut(b).instrs);
            let ablock = f.block_mut(a);
            ablock.instrs.pop(); // drop the Jump
            ablock.instrs.append(&mut moved);
            // Phi incomings in b's successors must now name a.
            let succs: Vec<BlockId> = f
                .block(a)
                .terminator()
                .map(|t| t.successors())
                .unwrap_or_default();
            for s in succs {
                for i in f.block_mut(s).instrs.iter_mut() {
                    if let Instr::Phi { incoming, .. } = i {
                        for (p, _) in incoming.iter_mut() {
                            if *p == b {
                                *p = a;
                            }
                        }
                    }
                }
            }
            fused = true;
            changed = true;
            break; // CFG changed; recompute
        }
        if !fused {
            break;
        }
    }
    changed
}

// ---------------------------------------------------------------------
// Abort-check insertion (§4.5).
// ---------------------------------------------------------------------

/// "The compiler performs analysis to compute the loops and then inserts
/// an abort check at the head of each loop. ... The compiler also inserts
/// an abort check in each function's prologue."
fn abort_insertion(f: &mut Function) -> bool {
    if f.instrs().any(|i| matches!(i, Instr::AbortCheck)) {
        return false; // already instrumented
    }
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    let loops = natural_loops(&cfg, &dom);
    let mut targets: Vec<BlockId> = vec![f.entry];
    for l in &loops {
        if !targets.contains(&l.header) {
            targets.push(l.header);
        }
    }
    for b in targets {
        let block = f.block_mut(b);
        let after_phis = block
            .instrs
            .iter()
            .take_while(|i| matches!(i, Instr::Phi { .. }))
            .count();
        block.instrs.insert(after_phis, Instr::AbortCheck);
    }
    true
}

// ---------------------------------------------------------------------
// Memory management insertion (§4.5).
// ---------------------------------------------------------------------

/// Whether values of this type are reference counted (F7).
pub fn is_managed_type(t: &Type) -> bool {
    match t {
        Type::Atomic(name) => matches!(&**name, "String" | "Expression"),
        Type::Constructor { name, .. } => &**name == "Tensor",
        Type::Arrow { .. } => true, // function values carry captures
        _ => false,
    }
}

/// "The compiler computes the live intervals of each variable in the TWIR.
/// For each variable, a MemoryAcquire call instruction is placed at the
/// head of each interval, and MemoryRelease is placed at the tail. Both
/// ... are noop for unmanaged objects."
///
/// Placement is per-path balanced: a `MemoryAcquire` right after the def
/// and a `MemoryRelease` on the *death frontier* — after the last use in
/// the block where the value dies, or on each CFG edge leading into a
/// block where it is no longer live (splitting critical edges when the
/// value survives along a sibling edge). Every execution path from the
/// def crosses the frontier exactly once, so the refcount-balance checker
/// in `wolfram-analyze` can prove acquire/release pairing path-by-path —
/// the previous interval-endpoint bracketing leaked on diamonds and
/// over-released across loop back-edges.
fn memory_management(f: &mut Function) -> bool {
    if f.instrs().any(|i| matches!(i, Instr::MemoryAcquire { .. })) {
        return false;
    }
    let cfg = Cfg::new(f);
    let live = liveness(f, &cfg);
    let reachable: HashSet<BlockId> = cfg.rpo.iter().copied().collect();

    // Managed defs in reachable blocks: (var, def block, def index).
    let mut managed: Vec<(VarId, BlockId, usize)> = Vec::new();
    for &b in &cfg.rpo {
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            if let Some(v) = i.def() {
                if f.var_type(v).is_some_and(is_managed_type) {
                    managed.push((v, b, ix));
                }
            }
        }
    }
    if managed.is_empty() {
        return false;
    }
    managed.sort_by_key(|&(v, _, _)| v);

    let live_in = |b: BlockId, v: VarId| live.live_in.get(&b).is_some_and(|s| s.contains(&v));
    let live_out = |b: BlockId, v: VarId| live.live_out.get(&b).is_some_and(|s| s.contains(&v));

    // Planned insertions. `after` keys on the pre-insertion instruction
    // index; `at_head` lands after the phi prefix; `before_term` sits just
    // before the terminator; `on_edge` releases are materialized last,
    // either promoted to the successor's head (all-preds case) or given a
    // split block.
    let mut after: HashMap<(BlockId, usize), Vec<Instr>> = HashMap::new();
    let mut at_head: HashMap<BlockId, Vec<Instr>> = HashMap::new();
    let mut before_term: HashMap<BlockId, Vec<Instr>> = HashMap::new();
    let mut on_edge: HashMap<(BlockId, BlockId), Vec<VarId>> = HashMap::new();

    for &(v, db, dix) in &managed {
        // Acquire right after the def; phi-defined values acquire after
        // the phi prefix so verification of phi placement still holds.
        let def_is_phi = matches!(f.block(db).instrs[dix], Instr::Phi { .. });
        let acquire = Instr::MemoryAcquire { var: v };
        if def_is_phi {
            at_head.entry(db).or_default().push(acquire);
        } else {
            after.entry((db, dix)).or_default().push(acquire);
        }

        // Release on the death frontier: walk every reachable block where
        // the value is present (its def block or any block it enters).
        for &b in &cfg.rpo {
            if b != db && !live_in(b, v) {
                continue;
            }
            if live_out(b, v) {
                // Survives the block; dies on some outgoing edges.
                let mut succs: Vec<BlockId> = cfg.succs[b.0 as usize]
                    .iter()
                    .copied()
                    .filter(|s| reachable.contains(s))
                    .collect();
                succs.sort_unstable();
                succs.dedup();
                let dead: Vec<BlockId> =
                    succs.iter().copied().filter(|&s| !live_in(s, v)).collect();
                if dead.is_empty() {
                    continue;
                }
                if dead.len() == succs.len() {
                    // live_out but dead into every successor: the value's
                    // last reads are the terminator operand and/or phi
                    // operands on the outgoing edges — release just before
                    // the terminator, after those conceptual reads.
                    before_term
                        .entry(b)
                        .or_default()
                        .push(Instr::MemoryRelease { var: v });
                } else {
                    for s in dead {
                        on_edge.entry((b, s)).or_default().push(v);
                    }
                }
            } else {
                // Dies inside this block: release after the last use.
                let block = f.block(b);
                let last_use = block.instrs.iter().rposition(|i| i.uses().contains(&v));
                match last_use {
                    Some(ix) if block.instrs[ix].is_terminator() => {
                        before_term
                            .entry(b)
                            .or_default()
                            .push(Instr::MemoryRelease { var: v });
                    }
                    Some(ix) => {
                        after
                            .entry((b, ix))
                            .or_default()
                            .push(Instr::MemoryRelease { var: v });
                    }
                    None => {
                        // Defined but never used: release immediately
                        // after the acquire (b == db here).
                        let slot = if def_is_phi {
                            at_head.entry(db).or_default()
                        } else {
                            after.entry((db, dix)).or_default()
                        };
                        slot.push(Instr::MemoryRelease { var: v });
                    }
                }
            }
        }
    }

    // Edge releases: if a successor receives the release on *every*
    // reachable incoming edge, put it at the successor's head instead of
    // splitting; otherwise split each recorded edge.
    let mut splits: Vec<(BlockId, BlockId, Vec<VarId>)> = Vec::new();
    {
        let mut by_target: HashMap<(BlockId, VarId), Vec<BlockId>> = HashMap::new();
        let mut edge_keys: Vec<(BlockId, BlockId)> = on_edge.keys().copied().collect();
        edge_keys.sort_unstable();
        for (p, s) in edge_keys {
            for &v in &on_edge[&(p, s)] {
                by_target.entry((s, v)).or_default().push(p);
            }
        }
        let mut split_vars: HashMap<(BlockId, BlockId), Vec<VarId>> = HashMap::new();
        let mut targets: Vec<(BlockId, VarId)> = by_target.keys().copied().collect();
        targets.sort_unstable();
        for (s, v) in targets {
            let mut preds = by_target[&(s, v)].clone();
            preds.sort_unstable();
            preds.dedup();
            let mut all_preds: Vec<BlockId> = cfg.preds[s.0 as usize]
                .iter()
                .copied()
                .filter(|p| reachable.contains(p))
                .collect();
            all_preds.sort_unstable();
            all_preds.dedup();
            if preds == all_preds {
                at_head
                    .entry(s)
                    .or_default()
                    .push(Instr::MemoryRelease { var: v });
            } else {
                for p in preds {
                    split_vars.entry((p, s)).or_default().push(v);
                }
            }
        }
        let mut split_keys: Vec<(BlockId, BlockId)> = split_vars.keys().copied().collect();
        split_keys.sort_unstable();
        for (p, s) in split_keys {
            splits.push((p, s, split_vars.remove(&(p, s)).expect("key listed")));
        }
    }

    // Apply in-block insertions by rebuilding each touched block.
    let touched: HashSet<BlockId> = after
        .keys()
        .map(|&(b, _)| b)
        .chain(at_head.keys().copied())
        .chain(before_term.keys().copied())
        .collect();
    for b in touched {
        let old = std::mem::take(&mut f.block_mut(b).instrs);
        let phi_prefix = old
            .iter()
            .take_while(|i| matches!(i, Instr::Phi { .. }))
            .count();
        let mut new = Vec::with_capacity(old.len() + 4);
        for (ix, i) in old.into_iter().enumerate() {
            if ix == phi_prefix {
                if let Some(head) = at_head.remove(&b) {
                    new.extend(head);
                }
            }
            if i.is_terminator() {
                if let Some(pre) = before_term.remove(&b) {
                    new.extend(pre);
                }
            }
            let post = after.remove(&(b, ix));
            new.push(i);
            if let Some(post) = post {
                new.extend(post);
            }
        }
        // Phi-only degenerate case (unreachable in practice: every block
        // ends in a terminator, so the loop body always runs past the
        // prefix).
        if let Some(head) = at_head.remove(&b) {
            new.extend(head);
        }
        f.block_mut(b).instrs = new;
    }

    // Split edges: insert a release block between p and s.
    for (p, s, vars) in splits {
        let nb = BlockId(f.blocks.len() as u32);
        let mut instrs: Vec<Instr> = vars
            .into_iter()
            .map(|v| Instr::MemoryRelease { var: v })
            .collect();
        instrs.push(Instr::Jump { target: s });
        f.blocks.push(Block {
            label: format!("release.{}.{}", p.0, s.0),
            instrs,
        });
        // Retarget p's terminator edge(s) into s.
        match f.block_mut(p).instrs.last_mut() {
            Some(Instr::Jump { target }) if *target == s => *target = nb,
            Some(Instr::Branch {
                then_block,
                else_block,
                ..
            }) => {
                if *then_block == s {
                    *then_block = nb;
                }
                if *else_block == s {
                    *else_block = nb;
                }
            }
            _ => {}
        }
        // Phi incoming predecessors in s must now name the split block.
        for i in f.block_mut(s).instrs.iter_mut() {
            let Instr::Phi { incoming, .. } = i else {
                break;
            };
            for (pred, _) in incoming.iter_mut() {
                if *pred == p {
                    *pred = nb;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use std::sync::Arc;

    /// `prim` resolved at two machine integers.
    fn int2(prim: Prim) -> Callee {
        Callee::primitive(prim, &[Type::integer64(), Type::integer64()])
    }

    /// if (1 < 2) return 10 else return 20 — folds to return 10.
    fn branchy() -> Function {
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.call(
            int2(Prim::Compare(Cmp::Less)),
            vec![Constant::I64(1).into(), Constant::I64(2).into()],
        );
        let t = b.create_block("then");
        let e = b.create_block("else");
        b.branch(c, t, e);
        b.seal_block(t);
        b.seal_block(e);
        b.switch_to(t);
        b.ret(Constant::I64(10));
        b.switch_to(e);
        b.ret(Constant::I64(20));
        b.finish()
    }

    #[test]
    fn fold_and_dead_branch() {
        let mut f = branchy();
        assert!(constant_fold(&mut f));
        verify_function(&f).unwrap();
        // The branch became a jump to `then`.
        assert!(matches!(
            f.block(BlockId(0)).terminator(),
            Some(Instr::Jump { target }) if *target == BlockId(1)
        ));
        assert!(simplify_cfg(&mut f));
        verify_function(&f).unwrap();
        // After fusion the entry returns the constant directly.
        // DCE may or may not fire depending on what simplify_cfg left behind.
        let _ = dce(&mut f);
        assert!(matches!(
            f.block(f.entry).terminator(),
            Some(Instr::Return {
                value: Operand::Const(Constant::I64(10))
            })
        ));
    }

    #[test]
    fn fold_does_not_hide_overflow() {
        let mut b = FunctionBuilder::new("f", 0);
        let v = b.call(
            int2(Prim::Plus),
            vec![Constant::I64(i64::MAX).into(), Constant::I64(1).into()],
        );
        b.ret(v);
        let mut f = b.finish();
        constant_fold(&mut f);
        // Still a call: the overflow must occur at run time (F2).
        assert!(f.instrs().any(|i| matches!(i, Instr::Call { .. })));
    }

    #[test]
    fn an_unresolved_call_is_neither_folded_nor_removed() {
        let mut b = FunctionBuilder::new("f", 0);
        let _dead = b.call(
            Callee::Builtin(Arc::from("Plus")),
            vec![Constant::I64(1).into(), Constant::I64(2).into()],
        );
        b.ret(Constant::Null);
        let mut f = b.finish();
        assert!(!constant_fold(&mut f));
        assert!(!dce(&mut f));
    }

    #[test]
    fn cse_deduplicates() {
        let mut b = FunctionBuilder::new("f", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let x = b.call(int2(Prim::Times), vec![arg.into(), arg.into()]);
        let y = b.call(int2(Prim::Times), vec![arg.into(), arg.into()]);
        let sum = b.call(int2(Prim::Plus), vec![x.into(), y.into()]);
        b.ret(sum);
        let mut f = b.finish();
        assert!(cse(&mut f));
        copy_propagation(&mut f); // uses already rewritten by cse
        assert!(dce(&mut f));
        verify_function(&f).unwrap();
        let times_count = f
            .instrs()
            .filter(|i| matches!(i, Instr::Call { callee, .. } if *callee == int2(Prim::Times)))
            .count();
        assert_eq!(times_count, 1);
        let _ = y;
    }

    /// Whether CSE merges a load of `a` with a later load of `b`.
    fn cse_merges(a: Constant, b: Constant) -> bool {
        let mut bld = FunctionBuilder::new("f", 0);
        let (x, y) = (bld.func.fresh_var(), bld.func.fresh_var());
        bld.push(Instr::LoadConst { dst: x, value: a });
        bld.push(Instr::LoadConst { dst: y, value: b });
        bld.ret(y);
        cse(&mut bld.finish())
    }

    #[test]
    fn cse_merges_constants_only_when_identical_to_the_bit() {
        use wolfram_expr::Expr;
        let table: Arc<[i64]> = (0..16_384).collect();
        let mut last = table.to_vec();
        *last.last_mut().unwrap() += 1;
        // An equal copy, not the same allocation.
        let copy = Constant::I64Array(table.to_vec().into());
        assert!(cse_merges(Constant::I64Array(table.clone()), copy));
        // Same length and prefix: the hash agrees, equality must not.
        assert!(!cse_merges(
            Constant::I64Array(table),
            Constant::I64Array(last.into())
        ));
        assert!(cse_merges(Constant::F64(-0.0), Constant::F64(-0.0)));
        assert!(!cse_merges(Constant::F64(0.0), Constant::F64(-0.0)));
        let list = |x: f64| Constant::Expr(Expr::list(vec![Expr::int(1), Expr::real(x)]));
        assert!(cse_merges(list(0.5), list(0.5)));
        assert!(!cse_merges(
            Constant::Expr(Expr::real(0.0)),
            Constant::Expr(Expr::real(-0.0))
        ));
        assert!(!cse_merges(list(0.0), list(-0.0)));
        // Unequal whatever the hashes: `Expr`'s own `==` has `0. == -0.`.
        assert!(ConstKey(list(0.0)) != ConstKey(list(-0.0)));
    }

    #[test]
    fn a_coercion_is_merged_when_repeated_and_removed_when_dead() {
        let convert = || Callee::primitive(Prim::Convert, &[Type::integer64()]);
        let mut b = FunctionBuilder::new("f", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let x = b.call(convert(), vec![arg.into()]);
        let y = b.call(convert(), vec![arg.into()]);
        let _dead = b.call(convert(), vec![x.into()]);
        let sum = b.call(
            Callee::primitive(Prim::Plus, &[Type::real64(), Type::real64()]),
            vec![x.into(), y.into()],
        );
        b.ret(sum);
        let mut f = b.finish();
        assert!(cse(&mut f));
        copy_propagation(&mut f);
        assert!(dce(&mut f));
        verify_function(&f).unwrap();
        let converts = f
            .instrs()
            .filter(|i| matches!(i, Instr::Call { callee, .. } if *callee == convert()))
            .count();
        assert_eq!(converts, 1, "{}", f.to_text());
    }

    #[test]
    fn dce_keeps_impure() {
        let mut b = FunctionBuilder::new("f", 0);
        let _unused = b.call(
            int2(Prim::Min),
            vec![Constant::I64(1).into(), Constant::I64(2).into()],
        );
        // Pure but partial: checked Plus may overflow-trap, so a dead
        // instance must survive for interpreter-identical error behavior.
        let _trapping = b.call(
            int2(Prim::Plus),
            vec![Constant::I64(1).into(), Constant::I64(2).into()],
        );
        let _effect = b.call(
            Callee::Kernel(Arc::from("Print")),
            vec![Constant::I64(1).into()],
        );
        b.ret(Constant::Null);
        let mut f = b.finish();
        assert!(dce(&mut f));
        verify_function(&f).unwrap();
        // The total Min went away; the trapping Plus and the kernel call
        // stayed.
        assert_eq!(
            f.instrs()
                .filter(|i| matches!(i, Instr::Call { .. }))
                .count(),
            2
        );
    }

    /// Builds a counting loop for abort/liveness tests.
    fn loop_fn() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: n, index: 0 });
        b.write_var("i", Constant::I64(0));
        let header = b.create_block("head");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.jump(header);
        b.switch_to(header);
        let i0 = b.read_var("i").unwrap();
        let c = b.call(int2(Prim::Compare(Cmp::Less)), vec![i0, n.into()]);
        b.branch(c, body, exit);
        b.seal_block(body);
        b.switch_to(body);
        let i1 = b.read_var("i").unwrap();
        let inc = b.call(int2(Prim::Plus), vec![i1, Constant::I64(1).into()]);
        b.write_var("i", inc);
        b.jump(header);
        b.seal_block(header);
        b.seal_block(exit);
        b.switch_to(exit);
        let out = b.read_var("i").unwrap();
        b.ret(out);
        b.finish()
    }

    #[test]
    fn abort_checks_at_prologue_and_loop_head() {
        let mut f = loop_fn();
        assert!(abort_insertion(&mut f));
        verify_function(&f).unwrap();
        let has_check = |b: u32| {
            f.block(BlockId(b))
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::AbortCheck))
        };
        assert!(has_check(0), "prologue check");
        assert!(has_check(1), "loop header check");
        assert!(!has_check(2), "no check in plain body");
        // Idempotent.
        assert!(!abort_insertion(&mut f));
    }

    #[test]
    fn abort_check_lands_after_phis() {
        let mut f = loop_fn();
        abort_insertion(&mut f);
        let header = f.block(BlockId(1));
        let phi_count = header
            .instrs
            .iter()
            .take_while(|i| matches!(i, Instr::Phi { .. }))
            .count();
        assert!(matches!(header.instrs[phi_count], Instr::AbortCheck));
    }

    #[test]
    fn memory_management_brackets_managed_vars() {
        let mut b = FunctionBuilder::new("f", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let len = b.call(
            Callee::primitive(Prim::StringLength, &[Type::string()]),
            vec![arg.into()],
        );
        b.ret(len);
        let mut f = b.finish();
        f.var_types.insert(arg, Type::string());
        f.var_types.insert(len, Type::integer64());
        assert!(memory_management(&mut f));
        verify_function(&f).unwrap();
        let acq = f
            .instrs()
            .filter(|i| matches!(i, Instr::MemoryAcquire { .. }))
            .count();
        let rel = f
            .instrs()
            .filter(|i| matches!(i, Instr::MemoryRelease { .. }))
            .count();
        assert_eq!(acq, 1);
        assert_eq!(rel, 1);
        // Unmanaged i64 got no bracketing: exactly one pair total.
    }

    #[test]
    fn pipeline_runs_and_reports() {
        let mut f = branchy();
        let report = run_pipeline(&mut f, &CompilerOptions::default(), None).unwrap();
        assert!(report.ran.iter().any(|p| p == "constant-fold"));
        assert!(report.ran.iter().any(|p| p == "abort-insertion"));
        // One verification of the incoming function, one per changing pass.
        assert_eq!(report.verifications, 1 + report.ran.len());
        assert!(report.steps > report.ran.len(), "{report:?}");
        verify_function(&f).unwrap();
        // Nothing is verified at `Off`, and the same passes run.
        let opts = CompilerOptions {
            verify: VerifyLevel::Off,
            ..CompilerOptions::default()
        };
        let report2 = run_pipeline(&mut branchy(), &opts, None).unwrap();
        assert_eq!(report2.verifications, 0);
        assert_eq!(report2.ran, report.ran);
    }

    /// A semantic checker that rejects whatever `broken` holds of: a
    /// stand-in for "this state of the function is wrong".
    fn rejecting(broken: fn(&Function) -> bool) -> FullVerifier {
        Arc::new(move |f: &Function| {
            if broken(f) {
                Err(VerifyError("rejected".into()))
            } else {
                Ok(())
            }
        })
    }

    fn run_rejecting(f: &mut Function, broken: fn(&Function) -> bool) -> VerifyError {
        run_pipeline(f, &CompilerOptions::default(), Some(&rejecting(broken))).unwrap_err()
    }

    #[test]
    fn a_bad_incoming_function_is_blamed_on_the_entry_not_on_a_pass() {
        let err = run_rejecting(&mut branchy(), |_| true);
        assert!(
            err.0
                .contains("function `f`, on entry to the pipeline: rejected"),
            "{err}"
        );
        // The SSA linter alone catches a malformed incoming function too.
        let mut f = branchy();
        f.blocks[0].instrs.pop();
        let err = run_pipeline(&mut f, &CompilerOptions::default(), None).unwrap_err();
        assert!(err.0.contains("on entry to the pipeline"), "{err}");
    }

    #[test]
    fn a_pass_whose_result_is_bad_is_reported_under_its_own_name() {
        // The incoming function and everything the optimising passes make
        // of it are fine; what abort-insertion produces is not.
        let has_abort_check = |f: &Function| f.instrs().any(|i| matches!(i, Instr::AbortCheck));
        let err = run_rejecting(&mut branchy(), has_abort_check);
        assert!(
            err.0
                .contains("function `f`, after pass `abort-insertion`: rejected"),
            "{err}"
        );
    }

    #[test]
    fn managed_type_classification() {
        assert!(is_managed_type(&Type::string()));
        assert!(is_managed_type(&Type::expression()));
        assert!(is_managed_type(&Type::tensor(Type::real64(), 1)));
        assert!(!is_managed_type(&Type::integer64()));
        assert!(!is_managed_type(&Type::boolean()));
    }
}
