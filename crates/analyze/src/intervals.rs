//! Range facts over TWIR from one walk down the dominator tree.
//!
//! The analysis proves two kinds of checks redundant and owns one lint:
//!
//! 1. **Check elision.** [`analyze_ranges`] exports a [`FnRangeFacts`]
//!    side table keyed by `(block, instr)` naming every Part access whose
//!    bounds check is proved redundant and every checked integer
//!    plus/subtract/times that provably cannot overflow. Codegen consumes
//!    the table to emit unchecked register ops.
//! 2. **Linting.** [`part_bounds`] owns the `part-out-of-bounds`
//!    diagnostic: a constant index outside a list of known length, on a
//!    block the entry reaches.
//!
//! # Facts
//!
//! Every fact is a difference constraint `a <= b + k` between two
//! [`Term`]s: an integer SSA variable, the length of one axis of a tensor
//! root, its negation, or zero (which carries the numeric bounds). A query
//! follows facts from one term towards another for a bounded number of
//! steps and keeps the least offset it finds: there is no lattice, no join
//! and no fixpoint.
//!
//! The walk visits the blocks in dominator-tree order and keeps one stack
//! of facts. A fact is pushed where it starts to hold and popped when the
//! walk leaves the dominator subtree it was pushed in, so a query sees
//! exactly the facts of the definitions, branch edges and checks that
//! dominate it:
//!
//! - **At a definition**: `x = y ± const` and copies; `n = Length[t]`;
//!   fill and constant-array lengths; the numeric range of a constant, of
//!   `Mod` by a positive constant and of `BitAnd` with a nonnegative one;
//!   and for an induction phi `i = φ(init, i + k)` with constant steps,
//!   `i >= init` when every step is nonnegative (`i <= init` when every
//!   one is nonpositive).
//! - **On a branch edge** into a block whose only predecessor is the
//!   branch: the comparison (through `Not`) the edge implies.
//! - **After a checked Part or Set**, for each index: `-Len <= idx <=
//!   Len`, whatever its sign, and the `(root, axis, idx)` triple as valid,
//!   which proves a later access with the same index on the same root.
//!
//! Tensor versions share a *root*: a copy, a `TensorSet*`, an elementwise
//! tensor arithmetic result and a phi whose inputs are all such updates of
//! one root (through other phis too) have the root's lengths, so a check
//! on one version proves accesses on another.
//!
//! Facts relate SSA values, and a definition's operands cannot be
//! redefined between it and any point it dominates, so a fact pushed at a
//! definition, edge or check holds throughout its dominator subtree.
//!
//! No axis is longer than [`MAX_LEN`] `= 2^60`: an element takes at least
//! 8 bytes and an allocation at most `isize::MAX`. That bound is what lets
//! `idx + 1` be proved overflow-free from `idx <= Length[t]` alone.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};

use wolfram_ir::analysis::{Cfg, Dominators};
use wolfram_ir::{BlockId, Callee, Constant, Function, Instr, Operand, ProgramModule, VarId};
use wolfram_types::{Cmp, Prim, Type};

use crate::diag::Diagnostic;

/// No tensor axis can be longer than this (allocation bound, see module
/// docs): elements are at least 8 bytes and `Vec` caps at `isize::MAX`.
pub const MAX_LEN: i64 = 1 << 60;

/// How many facts one query may chain.
const DEPTH: u8 = 5;

/// A side of a difference constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Term {
    /// The constant zero: `x <= Zero + k` is a numeric upper bound.
    Zero,
    /// The value of an integer SSA variable.
    Var(VarId),
    /// `Length` of a tensor root along an axis.
    Len(VarId, u8),
    /// `-Length` of a tensor root along an axis (negative Part indices).
    NegLen(VarId, u8),
}

/// A term plus a constant.
type Affine = (Term, i64);

fn const_int(c: &Constant) -> Option<i64> {
    match c {
        Constant::I64(k) => Some(*k),
        Constant::Bool(b) => Some(i64::from(*b)),
        _ => None,
    }
}

fn const_len(c: &Constant) -> Option<i64> {
    match c {
        Constant::I64Array(a) => Some(a.len() as i64),
        Constant::F64Array(a) => Some(a.len() as i64),
        _ => None,
    }
}

fn affine(op: &Operand) -> Option<Affine> {
    match op {
        Operand::Var(v) => Some((Term::Var(*v), 0)),
        Operand::Const(c) => const_int(c).map(|k| (Term::Zero, k)),
    }
}

fn is_integer64(t: &Type) -> bool {
    matches!(t, Type::Atomic(n) if &**n == "Integer64")
}

/// `k` as the offset of a fact `a <= b + k`. Below `i64::MIN` it clamps
/// up, which only weakens the fact; above `i64::MAX` there is no fact,
/// since clamping it down would strengthen it.
fn offset(k: i128) -> Option<i64> {
    i64::try_from(k.max(i128::from(i64::MIN))).ok()
}

/// The facts in scope at the walk's current point.
#[derive(Default)]
struct Facts {
    /// `up[a]` holds `(b, k)` for each fact `a <= b + k` with `a` not zero.
    up: HashMap<Term, Vec<(Term, i64)>>,
    /// `down[b]` holds `(a, k)` for each fact `a <= b + k`.
    down: HashMap<Term, Vec<(Term, i64)>>,
    /// Every pushed fact's two sides, in push order, for popping.
    log: Vec<(Term, Term)>,
    /// `(root, axis, index)` triples a dominating check validated.
    valid: Vec<(VarId, u8, VarId)>,
    /// Query steps taken, the analysis's cost.
    steps: Cell<u64>,
}

impl Facts {
    /// Pushes `a <= b + k`, unless a fact as strong is already in scope:
    /// that one was pushed earlier, so it stays in scope at least as long.
    fn le(&mut self, (a, ka): Affine, (b, kb): Affine, k: i64) {
        let Some(off) = offset(i128::from(kb) + i128::from(k) - i128::from(ka)) else {
            return;
        };
        let down = self.down.entry(b).or_default();
        if a == b || down.iter().any(|&(x, j)| x == a && j <= off) {
            return;
        }
        down.push((a, off));
        if a != Term::Zero {
            self.up.entry(a).or_default().push((b, off));
        }
        self.log.push((a, b));
    }

    fn eq(&mut self, a: Affine, b: Affine) {
        self.le(a, b, 0);
        self.le(b, a, 0);
    }

    /// Pushes `lo <= x <= hi`.
    fn range(&mut self, x: Affine, lo: i64, hi: i64) {
        self.le((Term::Zero, lo), x, 0);
        self.le(x, (Term::Zero, hi), 0);
    }

    fn mark(&self) -> (usize, usize) {
        (self.log.len(), self.valid.len())
    }

    /// Pops every fact pushed since `mark`.
    fn pop_to(&mut self, (log, valid): (usize, usize)) {
        for (a, b) in self.log.drain(log..).rev() {
            if a != Term::Zero {
                self.up.get_mut(&a).and_then(Vec::pop);
            }
            self.down.get_mut(&b).and_then(Vec::pop);
        }
        self.valid.truncate(valid);
    }

    /// The least `k` found with `x <= to + k`, following facts upward
    /// (`up`), or with `to <= x + k`, following them downward.
    fn reach(&self, up: bool, x: Term, to: Term, depth: u8) -> Option<i64> {
        self.steps.set(self.steps.get() + 1);
        if x == to {
            return Some(0);
        }
        // Every variable is an `i64`: `x <= i64::MAX` bounds what a fact
        // like `i <= n - 1` leaves of `i + 1`. (The matching lower bound,
        // `x >= i64::MIN`, has no `i64` offset.)
        let mut best = match (up, x, to) {
            (true, Term::Var(_), Term::Zero) => Some(i64::MAX),
            (true, Term::Len(..), Term::Zero) | (false, Term::NegLen(..), Term::Zero) => {
                Some(MAX_LEN)
            }
            (true, Term::NegLen(..), Term::Zero) | (false, Term::Len(..), Term::Zero) => Some(0),
            _ => None,
        };
        if depth > 0 {
            let next = if up { &self.up } else { &self.down };
            for &(y, k) in next.get(&x).into_iter().flatten() {
                let r = self.reach(up, y, to, depth - 1);
                if let Some(s) = r.and_then(|r| offset(i128::from(k) + i128::from(r))) {
                    best = Some(best.unwrap_or(i64::MAX).min(s));
                }
            }
        }
        best
    }

    /// Numeric upper bound (`i64::MAX` when unknown).
    fn hi(&self, (x, c): Affine) -> i64 {
        self.reach(true, x, Term::Zero, DEPTH)
            .map_or(i64::MAX, |k| k.saturating_add(c))
    }

    /// Numeric lower bound (`i64::MIN` when unknown).
    fn lo(&self, (x, c): Affine) -> i64 {
        self.reach(false, x, Term::Zero, DEPTH)
            .map_or(i64::MIN, |k| c.saturating_sub(k))
    }

    /// Whether `a <= b` follows from the facts: along a chain of facts
    /// from `a` to `b`, or from their numeric bounds.
    fn proves_le(&self, a: Affine, b: Affine) -> bool {
        self.reach(true, a.0, b.0, DEPTH)
            .is_some_and(|k| i128::from(k) + i128::from(a.1) <= i128::from(b.1))
            || self.hi(a) <= self.lo(b)
    }
}

/// What the walk reads off the function before it starts: each
/// variable's definition and block, whether it is an integer (or
/// boolean), and its tensor root.
struct Prepass<'f> {
    defs: Vec<Option<(BlockId, &'f Instr)>>,
    int: Vec<bool>,
    roots: Vec<VarId>,
}

impl<'f> Prepass<'f> {
    fn of(f: &'f Function, cfg: &Cfg) -> Self {
        // Hand-built functions need not keep `next_var` up to date.
        let n = f
            .instrs()
            .filter_map(Instr::def)
            .chain(f.var_types.keys().copied())
            .map(|v| v.0 + 1)
            .max()
            .unwrap_or(0)
            .max(f.next_var) as usize;
        let mut p = Prepass {
            defs: vec![None; n],
            int: vec![false; n],
            roots: (0..n as u32).map(VarId).collect(),
        };
        let (i64_ty, bool_ty) = (Type::integer64(), Type::boolean());
        for (v, t) in &f.var_types {
            p.int[v.0 as usize] = *t == i64_ty || *t == bool_ty;
        }
        for &b in &cfg.rpo {
            for i in &f.block(b).instrs {
                if let Some(d) = i.def() {
                    p.defs[d.0 as usize] = Some((b, i));
                }
            }
        }
        // Reverse postorder puts a definition before every use but a
        // phi's, which `phi_root` chases by hand.
        for &b in &cfg.rpo {
            for i in &f.block(b).instrs {
                let Some(d) = i.def() else { continue };
                let root = match i {
                    Instr::Phi { .. } => p.phi_root(d),
                    _ => p.source(i).map_or(d, |s| p.root(s)),
                };
                p.roots[d.0 as usize] = root;
            }
        }
        p
    }

    fn def(&self, v: VarId) -> Option<&'f Instr> {
        self.defs
            .get(v.0 as usize)
            .copied()
            .flatten()
            .map(|(_, i)| i)
    }

    fn is_int(&self, v: VarId) -> bool {
        self.int.get(v.0 as usize).copied().unwrap_or(false)
    }

    fn root(&self, t: VarId) -> VarId {
        self.roots.get(t.0 as usize).copied().unwrap_or(t)
    }

    /// The tensor whose lengths a definition has: the copied or updated
    /// tensor, or the first tensor operand of elementwise arithmetic.
    fn source(&self, i: &Instr) -> Option<VarId> {
        match i {
            Instr::Copy { src, .. } => Some(*src),
            Instr::Call {
                callee: Callee::Primitive { prim, .. },
                args,
                ..
            } => match prim {
                Prim::TensorSet1 | Prim::TensorSet2 | Prim::TensorSetRow => {
                    args.first().and_then(Operand::as_var)
                }
                Prim::TensorPlus | Prim::TensorSubtract | Prim::TensorTimes => {
                    args.iter().find_map(Operand::as_var)
                }
                _ => None,
            },
            _ => None,
        }
    }

    /// The one root every input of `phi` comes from, following updates
    /// through other phis (a nested loop's) and back to `phi` itself; the
    /// phi is its own root otherwise.
    fn phi_root(&self, phi: VarId) -> VarId {
        let (mut seen, mut todo, mut found) = (vec![phi], vec![phi], None);
        while let Some(p) = todo.pop() {
            let Some(Instr::Phi { incoming, .. }) = self.def(p) else {
                return phi;
            };
            for (_, op) in incoming {
                let Some(mut v) = op.as_var() else {
                    return phi;
                };
                while let Some(s) = self.def(v).and_then(|i| self.source(i)) {
                    v = s;
                }
                if seen.contains(&v) {
                    continue;
                }
                if matches!(self.def(v), Some(Instr::Phi { .. })) {
                    seen.push(v);
                    todo.push(v);
                } else if *found.get_or_insert(v) != v {
                    return phi;
                }
            }
        }
        found.map_or(phi, |r| self.root(r))
    }

    /// The least and greatest `k` with `op = v + k`, through copies,
    /// constant steps and phis of such.
    fn steps_from(&self, v: VarId, op: &Operand, depth: u8) -> Option<(i64, i64)> {
        let x = op.as_var()?;
        if x == v {
            return Some((0, 0));
        }
        if depth == 0 {
            return None;
        }
        match self.def(x)? {
            Instr::Phi { incoming, .. } => incoming.iter().try_fold(None, |acc, (_, op)| {
                let (lo, hi) = self.steps_from(v, op, depth - 1)?;
                Some(Some(acc.map_or((lo, hi), |(l, h): (i64, i64)| {
                    (l.min(lo), h.max(hi))
                })))
            })?,
            i => {
                let (y, k) = self.offset_def(i)?;
                let (lo, hi) = self.steps_from(v, &Operand::Var(y), depth - 1)?;
                Some((lo.checked_add(k)?, hi.checked_add(k)?))
            }
        }
    }

    /// `(y, k)` when the instruction defines `y + k`.
    fn offset_def(&self, i: &Instr) -> Option<(VarId, i64)> {
        match i {
            Instr::Copy { src, .. } if self.is_int(*src) => Some((*src, 0)),
            Instr::Call {
                callee: Callee::Primitive { prim, params },
                args,
                ..
            } if params.first().is_some_and(is_integer64) && args.len() == 2 => {
                match (prim, &args[0], args[1].as_const()) {
                    (Prim::Plus, Operand::Var(y), Some(Constant::I64(k))) => Some((*y, *k)),
                    (Prim::Subtract, Operand::Var(y), Some(Constant::I64(k))) => {
                        Some((*y, k.checked_neg()?))
                    }
                    (Prim::Plus, Operand::Const(Constant::I64(k)), _) => {
                        Some((args[1].as_var()?, *k))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

/// Per-function elision facts, keyed by `(block, instruction index)`.
#[derive(Debug, Clone, Default)]
pub struct FnRangeFacts {
    /// Part/set sites whose every index is proved in bounds.
    pub proved_parts: HashSet<(BlockId, usize)>,
    /// Checked integer plus/subtract/times sites proved overflow-free.
    pub proved_arith: HashSet<(BlockId, usize)>,
    /// Total Part-style bounds-checked sites seen.
    pub parts_total: u32,
    /// Sites in `proved_parts`.
    pub parts_proved: u32,
    /// Total checked plus/subtract/times sites seen.
    pub arith_total: u32,
    /// Sites in `proved_arith`.
    pub arith_proved: u32,
}

/// Module-wide elision facts, keyed by function name.
#[derive(Debug, Clone, Default)]
pub struct RangeFacts {
    /// Facts per function.
    pub functions: HashMap<String, FnRangeFacts>,
}

/// The `(argument, axis)` pairs a Part or Set site checks; the tensor is
/// argument 0.
fn checked_indices(prim: Prim, nargs: usize) -> &'static [(usize, u8)] {
    match (prim, nargs) {
        (Prim::TensorPart1, 2) | (Prim::TensorSet1 | Prim::TensorSetRow, 3) => &[(1, 0)],
        (Prim::TensorPart2, 3) | (Prim::TensorSet2, 4) => &[(1, 0), (2, 1)],
        _ => &[],
    }
}

/// The walk's state: the prepass, the facts in scope, and the results.
struct Walk<'f> {
    f: &'f Function,
    pre: Prepass<'f>,
    dom: Dominators,
    facts: Facts,
    out: FnRangeFacts,
    diags: Vec<Diagnostic>,
}

impl Walk<'_> {
    fn len(&self, t: VarId, axis: u8) -> Term {
        Term::Len(self.pre.root(t), axis)
    }

    /// An integer constant or integer variable operand.
    fn int_operand(&self, op: &Operand) -> Option<Affine> {
        affine(op).filter(|_| op.as_var().is_none_or(|v| self.pre.is_int(v)))
    }

    /// Counts, proves and assumes every instruction of `b`, after the
    /// facts of the edge into it; `false` when that edge cannot be taken.
    fn visit(&mut self, cfg: &Cfg, b: BlockId) -> bool {
        if b != self.f.entry && !self.enter(cfg, b) {
            return false;
        }
        let f = self.f;
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            self.inspect((b, ix), i);
            self.assume(b, i);
        }
        true
    }

    /// The length of a tensor operand's axis and its negation: terms of
    /// its root, or constants for a constant array.
    fn lens(&self, t: &Operand, axis: u8) -> Option<(Affine, Affine)> {
        match t {
            Operand::Var(t) => {
                let root = self.pre.root(*t);
                Some(((Term::Len(root, axis), 0), (Term::NegLen(root, axis), 0)))
            }
            Operand::Const(c) => const_len(c).map(|n| ((Term::Zero, n), (Term::Zero, -n))),
        }
    }

    /// Whether `t[[.., idx, ..]]` along `axis` is provably valid: either
    /// `1 <= idx <= len`, or `-len <= idx <= -1`, or a dominating check
    /// validated this very index on this root.
    fn proves_index(&self, t: &Operand, idx: &Operand, axis: u8) -> bool {
        let (Some(i), Some((len, neg))) = (affine(idx), self.lens(t, axis)) else {
            return false;
        };
        let fs = &self.facts;
        (fs.lo(i) >= 1 && fs.proves_le(i, len))
            || (fs.hi(i) <= -1
                && (fs.proves_le(neg, i) || i128::from(fs.lo(i)) >= -i128::from(fs.lo(len))))
            || matches!((t, idx), (Operand::Var(t), Operand::Var(v))
                if fs.valid.contains(&(self.pre.root(*t), axis, *v)))
    }

    /// What a successful check of `t[[.., idx, ..]]` along `axis` leaves:
    /// `-len <= idx <= len` whatever the index's sign, and the index
    /// itself as valid for the root.
    fn assume_index(&mut self, t: &Operand, idx: &Operand, axis: u8) {
        let (Some(i), Some((len, neg))) = (affine(idx), self.lens(t, axis)) else {
            return;
        };
        self.facts.le(i, len, 0);
        self.facts.le(neg, i, 0);
        if let (Operand::Var(t), Operand::Var(v)) = (t, idx) {
            let root = self.pre.root(*t);
            self.facts.valid.push((root, axis, *v));
        }
    }

    /// `part-out-of-bounds` when both the index and the length are known.
    fn part_lint(&mut self, t: &Operand, idx: &Operand, (b, ix): (BlockId, usize)) {
        let (Some(i), Some((l, _))) = (affine(idx), self.lens(t, 0)) else {
            return;
        };
        let fs = &self.facts;
        let (k, len) = (fs.lo(i), fs.lo(l));
        let known = k == fs.hi(i) && len == fs.hi(l);
        if known && (k == 0 || k > len || k < -len) {
            self.diags.push(
                Diagnostic::warning(
                    "part-out-of-bounds",
                    self.f,
                    format!("Part index {k} is out of range for a list of length {len}"),
                )
                .at(b, Some(ix)),
            );
        }
    }

    /// Counts and tries to prove the checks of one instruction.
    fn inspect(&mut self, site: (BlockId, usize), i: &Instr) {
        let Instr::Call { callee, args, .. } = i else {
            return;
        };
        let (prim, params) = match callee {
            Callee::Builtin(n) if &**n == "Part" && args.len() == 2 => {
                return self.part_lint(&args[0], &args[1], site);
            }
            Callee::Primitive { prim, params } => (*prim, params),
            _ => return,
        };
        let checks = checked_indices(prim, args.len());
        if !checks.is_empty() {
            self.out.parts_total += 1;
            if checks
                .iter()
                .all(|&(arg, axis)| self.proves_index(&args[0], &args[arg], axis))
            {
                self.out.proved_parts.insert(site);
                self.out.parts_proved += 1;
            }
            if prim == Prim::TensorPart1 {
                self.part_lint(&args[0], &args[1], site);
            }
            return;
        }
        if !matches!(prim, Prim::Plus | Prim::Subtract | Prim::Times)
            || !params.first().is_some_and(is_integer64)
        {
            return;
        }
        let [Some(a), Some(b)] = [0, 1].map(|ix| args.get(ix).and_then(|o| self.int_operand(o)))
        else {
            return;
        };
        self.out.arith_total += 1;
        let fs = &self.facts;
        let (alo, ahi) = (i128::from(fs.lo(a)), i128::from(fs.hi(a)));
        let (blo, bhi) = (i128::from(fs.lo(b)), i128::from(fs.hi(b)));
        let (lo, hi) = match prim {
            Prim::Plus => (alo + blo, ahi + bhi),
            Prim::Subtract => (alo - bhi, ahi - blo),
            _ => {
                let c = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
                (*c.iter().min().unwrap(), *c.iter().max().unwrap())
            }
        };
        if lo >= i128::from(i64::MIN) && hi <= i128::from(i64::MAX) {
            self.out.proved_arith.insert(site);
            self.out.arith_proved += 1;
        }
    }

    /// Pushes the facts an instruction establishes from its own point on.
    fn assume(&mut self, b: BlockId, i: &Instr) {
        match i {
            Instr::LoadConst { dst, value } => {
                if let Some(k) = const_int(value) {
                    self.facts.range((Term::Var(*dst), 0), k, k);
                } else if let Some(n) = const_len(value) {
                    self.len_is(*dst, 0, (Term::Zero, n));
                }
            }
            Instr::Copy { dst, .. } => {
                if let Some((y, k)) = self.pre.offset_def(i) {
                    self.facts.eq((Term::Var(*dst), 0), (Term::Var(y), k));
                }
            }
            Instr::Phi { dst, incoming } => self.induction(b, *dst, incoming),
            Instr::Call {
                dst,
                callee: Callee::Builtin(n),
                args,
            } if &**n == "List" => self.len_is(*dst, 0, (Term::Zero, args.len() as i64)),
            Instr::Call {
                dst,
                callee: Callee::Primitive { prim, params },
                args,
            } => {
                let int = params.first().is_some_and(is_integer64);
                let d = (Term::Var(*dst), 0);
                if let Some((y, k)) = self.pre.offset_def(i) {
                    self.facts.eq(d, (Term::Var(y), k));
                }
                let nonneg = |o: &Operand| match o.as_const() {
                    Some(&Constant::I64(c @ 0..)) => Some(c),
                    _ => None,
                };
                match (prim, &args[..]) {
                    // Flooring mod takes the divisor's sign.
                    (Prim::Mod, [_, m]) if int => {
                        if let Some(m @ 1..) = nonneg(m) {
                            self.facts.range(d, 0, m - 1);
                        }
                    }
                    (Prim::BitAnd, [x, y]) if int => {
                        if let Some(c) = nonneg(x).or_else(|| nonneg(y)) {
                            self.facts.range(d, 0, c);
                        }
                    }
                    (Prim::TensorLength, [t]) => {
                        if let Some((len, _)) = self.lens(t, 0) {
                            self.facts.eq(d, len);
                        }
                    }
                    (Prim::TensorFill1, [_, n]) => self.fill(*dst, &[n]),
                    (Prim::TensorFill2, [_, n, m]) => self.fill(*dst, &[n, m]),
                    (Prim::ListConstruct, _) => {
                        self.len_is(*dst, 0, (Term::Zero, args.len() as i64));
                    }
                    _ => {
                        for &(arg, axis) in checked_indices(*prim, args.len()) {
                            self.assume_index(&args[0], &args[arg], axis);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn len_is(&mut self, t: VarId, axis: u8, n: Affine) {
        let l = (self.len(t, axis), 0);
        self.facts.eq(l, n);
    }

    /// A fill's length along each axis is `max(count, 0)`.
    fn fill(&mut self, dst: VarId, counts: &[&Operand]) {
        for (axis, count) in (0u8..).zip(counts) {
            let Some(n) = affine(count) else { continue };
            let l = (self.len(dst, axis), 0);
            self.facts.le(n, l, 0);
            if self.facts.lo(n) >= 0 {
                self.facts.le(l, n, 0);
            }
        }
    }

    /// `i = φ(init, i + k, ..)`: `i >= init` when every step is
    /// nonnegative, `i <= init` when every step is nonpositive. `init`
    /// must be defined above the loop, so that it holds one value while
    /// `i` is live.
    fn induction(&mut self, b: BlockId, i: VarId, incoming: &[(BlockId, Operand)]) {
        if !self.pre.is_int(i) {
            return;
        }
        let (mut init, mut up, mut down) = (None, true, true);
        for (_, op) in incoming {
            match self.pre.steps_from(i, op, 4) {
                Some((lo, hi)) => {
                    up &= lo >= 0;
                    down &= hi <= 0;
                }
                None if init.is_none() || init == Some(op) => init = Some(op),
                None => return,
            }
        }
        let Some(init) = init else { return };
        let above = match init.as_var() {
            Some(v) => self
                .pre
                .defs
                .get(v.0 as usize)
                .copied()
                .flatten()
                .is_some_and(|(db, _)| db != b && self.dom.dominates(db, b)),
            None => true,
        };
        let Some(x) = affine(init).filter(|_| above) else {
            return;
        };
        if up {
            self.facts.le(x, (Term::Var(i), 0), 0);
        }
        if down {
            self.facts.le((Term::Var(i), 0), x, 0);
        }
    }

    /// Pushes what the branch into `b` implies, when `b`'s only
    /// predecessor is the branch. `false` when the edge cannot be taken.
    fn enter(&mut self, cfg: &Cfg, b: BlockId) -> bool {
        let [p] = cfg.preds[b.0 as usize][..] else {
            return true;
        };
        let Some(Instr::Branch {
            cond,
            then_block,
            else_block,
        }) = self.f.block(p).instrs.last()
        else {
            return true;
        };
        if then_block == else_block {
            return true;
        }
        let truth = b == *then_block;
        match cond {
            Operand::Const(Constant::Bool(c)) => *c == truth,
            Operand::Var(v) => {
                self.refine(*v, truth, 4);
                true
            }
            Operand::Const(_) => true,
        }
    }

    /// Pushes what `v == truth` says about a comparison it names.
    fn refine(&mut self, v: VarId, truth: bool, depth: u8) {
        let Some(Instr::Call {
            callee: Callee::Primitive { prim, .. },
            args,
            ..
        }) = self.pre.def(v)
        else {
            return;
        };
        match (prim, &args[..]) {
            (Prim::Not, [Operand::Var(u)]) if depth > 0 => self.refine(*u, !truth, depth - 1),
            (Prim::Compare(cmp), [x, y]) => {
                let (Some(x), Some(y)) = (self.int_operand(x), self.int_operand(y)) else {
                    return;
                };
                // The comparison on this edge, as `a <= b + k`.
                let (a, b, k) = match (cmp, truth) {
                    (Cmp::Less, true) | (Cmp::GreaterEqual, false) => (x, y, -1),
                    (Cmp::LessEqual, true) | (Cmp::Greater, false) => (x, y, 0),
                    (Cmp::Greater, true) | (Cmp::LessEqual, false) => (y, x, -1),
                    (Cmp::GreaterEqual, true) | (Cmp::Less, false) => (y, x, 0),
                    (Cmp::Equal, true) | (Cmp::Unequal, false) => return self.facts.eq(x, y),
                    (Cmp::Equal | Cmp::Unequal, _) => return,
                };
                self.facts.le(a, b, k);
            }
            _ => {}
        }
    }
}

/// The walk's facts and diagnostics, and the query steps it took.
fn run(f: &Function) -> (FnRangeFacts, Vec<Diagnostic>, u64) {
    if f.blocks.is_empty() {
        return Default::default();
    }
    let cfg = Cfg::new(f);
    let dom = Dominators::new(f, &cfg);
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for &b in cfg.rpo.iter().skip(1) {
        if let Some(d) = dom.idom(b) {
            children[d.0 as usize].push(b);
        }
    }
    let mut w = Walk {
        f,
        pre: Prepass::of(f, &cfg),
        dom,
        facts: Facts::default(),
        out: FnRangeFacts::default(),
        diags: Vec::new(),
    };
    // Depth first down the dominator tree: a frame is a visited block, the
    // next of its children to visit, and the facts to pop back to once its
    // subtree is done. A block an infeasible edge leads into is skipped
    // with everything it dominates.
    let mut stack = Vec::new();
    let mut next = Some(f.entry);
    loop {
        if let Some(b) = next.take() {
            let mark = w.facts.mark();
            if w.visit(&cfg, b) {
                stack.push((b, 0, mark));
            } else {
                w.facts.pop_to(mark);
            }
        }
        let Some((b, child, mark)) = stack.last_mut() else {
            break;
        };
        match children[b.0 as usize].get(*child) {
            Some(&c) => {
                *child += 1;
                next = Some(c);
            }
            None => {
                let mark = *mark;
                stack.pop();
                w.facts.pop_to(mark);
            }
        }
    }
    (w.out, w.diags, w.facts.steps.get())
}

/// Runs the range analysis and returns the elision facts.
pub fn analyze_ranges(f: &Function) -> FnRangeFacts {
    run(f).0
}

/// Runs the range analysis over every function of a module.
pub fn analyze_module_ranges(pm: &ProgramModule) -> RangeFacts {
    RangeFacts {
        functions: pm
            .functions
            .iter()
            .map(|f| (f.name.clone(), analyze_ranges(f)))
            .collect(),
    }
}

/// `part-out-of-bounds`: warns when a Part index is a known constant
/// outside a list of known length, on a block the entry reaches.
pub fn part_bounds(f: &Function) -> Vec<Diagnostic> {
    run(f).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wolfram_ir::module::Block;

    fn prim(prim: Prim, params: &[Type]) -> Callee {
        Callee::primitive(prim, params)
    }

    fn ity() -> Type {
        Type::integer64()
    }

    fn bty() -> Type {
        Type::boolean()
    }

    fn tty() -> Type {
        Type::tensor(Type::integer64(), 1)
    }

    #[test]
    fn constant_part_out_of_range_is_flagged() {
        // Moved from lints.rs when the lint folded into the interval
        // analysis: the diagnostic code and message are stable.
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64Array(Arc::from([1i64, 2, 3].as_slice())),
                },
                Instr::Call {
                    dst: VarId(1),
                    callee: Callee::Builtin(Arc::from("Part")),
                    args: vec![VarId(0).into(), Constant::I64(4).into()],
                },
                Instr::Return {
                    value: VarId(1).into(),
                },
            ],
        });
        let diags = part_bounds(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "part-out-of-bounds");
        assert!(diags[0]
            .message
            .contains("Part index 4 is out of range for a list of length 3"));
        // In-range (positive and negative) indices stay quiet.
        let Instr::Call { args, .. } = &mut f.blocks[0].instrs[1] else {
            unreachable!()
        };
        args[1] = Constant::I64(-3).into();
        assert!(part_bounds(&f).is_empty());
    }

    #[test]
    fn length_flows_through_copies_and_flags_twir_parts() {
        let mut f = Function::new("f", 0);
        f.var_types.insert(VarId(0), tty());
        f.var_types.insert(VarId(1), tty());
        f.var_types.insert(VarId(2), ity());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64Array(Arc::from([1i64, 2, 3].as_slice())),
                },
                Instr::Copy {
                    dst: VarId(1),
                    src: VarId(0),
                },
                Instr::Call {
                    dst: VarId(2),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(1).into(), Constant::I64(5).into()],
                },
                Instr::Return {
                    value: VarId(2).into(),
                },
            ],
        });
        let diags = part_bounds(&f);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "part-out-of-bounds");
    }

    #[test]
    fn unreachable_part_stays_quiet() {
        // The old constant-only lint was block-insensitive; the interval
        // analysis only reports reachable accesses.
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        f.blocks.push(Block {
            label: "orphan".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64Array(Arc::from([1i64].as_slice())),
                },
                Instr::Call {
                    dst: VarId(1),
                    callee: Callee::Builtin(Arc::from("Part")),
                    args: vec![VarId(0).into(), Constant::I64(9).into()],
                },
                Instr::Return {
                    value: VarId(1).into(),
                },
            ],
        });
        assert!(part_bounds(&f).is_empty());
    }

    /// `t = fill(0, 100); i = 1; while i <= 100 { t[[i]]; i = i + 1 }`:
    /// the induction phi gives `i >= 1`, the loop test `i <= 100`, and the
    /// fill's constant count the length.
    #[test]
    fn counted_loop_proves_against_a_constant_fill() {
        let mut f = Function::new("f", 0);
        for v in [0u32, 1, 3, 4, 6, 8] {
            f.var_types.insert(VarId(v), ity());
        }
        f.var_types.insert(VarId(2), tty());
        f.var_types.insert(VarId(5), bty());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(0),
                },
                Instr::LoadConst {
                    dst: VarId(1),
                    value: Constant::I64(100),
                },
                Instr::Call {
                    dst: VarId(2),
                    callee: prim(Prim::TensorFill1, &[ity(), ity()]),
                    args: vec![VarId(0).into(), VarId(1).into()],
                },
                Instr::LoadConst {
                    dst: VarId(3),
                    value: Constant::I64(1),
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "head".into(),
            instrs: vec![
                Instr::Phi {
                    dst: VarId(4),
                    incoming: vec![(BlockId(0), VarId(3).into()), (BlockId(2), VarId(8).into())],
                },
                Instr::Call {
                    dst: VarId(5),
                    callee: prim(Prim::Compare(Cmp::LessEqual), &[ity(), ity()]),
                    args: vec![VarId(4).into(), Constant::I64(100).into()],
                },
                Instr::Branch {
                    cond: VarId(5).into(),
                    then_block: BlockId(2),
                    else_block: BlockId(3),
                },
            ],
        });
        f.blocks.push(Block {
            label: "body".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(6),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(2).into(), VarId(4).into()],
                },
                Instr::Call {
                    dst: VarId(8),
                    callee: prim(Prim::Plus, &[ity(), ity()]),
                    args: vec![VarId(4).into(), Constant::I64(1).into()],
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "exit".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 1);
        assert_eq!(facts.parts_proved, 1, "{facts:?}");
        assert!(facts.proved_parts.contains(&(BlockId(2), 0)));
        // `i + 1` with `i <= 100` provably cannot overflow.
        assert_eq!(facts.arith_total, 1);
        assert_eq!(facts.arith_proved, 1, "{facts:?}");
    }

    /// Data-dependent bound: `n = Length[t]; i = 1; while i <= n { t[[i]] }`
    #[test]
    fn length_bounded_loop_proves_symbolically() {
        let mut f = Function::new("f", 1);
        f.var_types.insert(VarId(0), tty());
        for v in [1u32, 2, 3, 5, 6] {
            f.var_types.insert(VarId(v), ity());
        }
        f.var_types.insert(VarId(4), bty());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadArgument {
                    dst: VarId(0),
                    index: 0,
                },
                Instr::Call {
                    dst: VarId(1),
                    callee: prim(Prim::TensorLength, &[tty()]),
                    args: vec![VarId(0).into()],
                },
                Instr::LoadConst {
                    dst: VarId(2),
                    value: Constant::I64(1),
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "head".into(),
            instrs: vec![
                Instr::Phi {
                    dst: VarId(3),
                    incoming: vec![(BlockId(0), VarId(2).into()), (BlockId(2), VarId(6).into())],
                },
                Instr::Call {
                    dst: VarId(4),
                    callee: prim(Prim::Compare(Cmp::LessEqual), &[ity(), ity()]),
                    args: vec![VarId(3).into(), VarId(1).into()],
                },
                Instr::Branch {
                    cond: VarId(4).into(),
                    then_block: BlockId(2),
                    else_block: BlockId(3),
                },
            ],
        });
        f.blocks.push(Block {
            label: "body".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(5),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(0).into(), VarId(3).into()],
                },
                Instr::Call {
                    dst: VarId(6),
                    callee: prim(Prim::Plus, &[ity(), ity()]),
                    args: vec![VarId(3).into(), Constant::I64(1).into()],
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "exit".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 1);
        assert_eq!(facts.parts_proved, 1, "{facts:?}");
        // `i <= Length[t] <= 2^60`, so `i + 1` cannot overflow either.
        assert_eq!(facts.arith_proved, 1, "{facts:?}");
    }

    /// A dominating check proves a repeated access with an index of
    /// unknown sign: it records the `(root, axis, index)` triple as valid.
    #[test]
    fn dominating_check_proves_negative_index_reaccess() {
        let mut f = Function::new("f", 2);
        f.var_types.insert(VarId(0), tty());
        for v in [1u32, 2, 3] {
            f.var_types.insert(VarId(v), ity());
        }
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadArgument {
                    dst: VarId(0),
                    index: 0,
                },
                Instr::LoadArgument {
                    dst: VarId(1),
                    index: 1,
                },
                Instr::Call {
                    dst: VarId(2),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(0).into(), VarId(1).into()],
                },
                Instr::Call {
                    dst: VarId(3),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(0).into(), VarId(1).into()],
                },
                Instr::Return {
                    value: VarId(3).into(),
                },
            ],
        });
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 2);
        assert_eq!(facts.parts_proved, 1, "{facts:?}");
        assert!(facts.proved_parts.contains(&(BlockId(0), 3)));
        assert!(!facts.proved_parts.contains(&(BlockId(0), 2)));
    }

    /// `If[1 <= i && i <= n]` (as nested branches) bounds `i` below the
    /// true edges; the guarded `fill(n)[[i]]` proves, the unguarded
    /// access, whose block two edges reach, does not.
    #[test]
    fn branch_refinement_narrows_true_edge_only() {
        let mut f = Function::new("f", 2);
        for v in [0u32, 1, 5, 8] {
            f.var_types.insert(VarId(v), ity());
        }
        f.var_types.insert(VarId(2), bty());
        f.var_types.insert(VarId(3), bty());
        f.var_types.insert(VarId(4), tty());
        f.var_types.insert(VarId(6), tty());
        f.var_types.insert(VarId(7), ity());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadArgument {
                    dst: VarId(0),
                    index: 0,
                },
                Instr::LoadArgument {
                    dst: VarId(1),
                    index: 1,
                },
                Instr::Call {
                    dst: VarId(2),
                    callee: prim(Prim::Compare(Cmp::GreaterEqual), &[ity(), ity()]),
                    args: vec![VarId(0).into(), Constant::I64(1).into()],
                },
                Instr::Branch {
                    cond: VarId(2).into(),
                    then_block: BlockId(1),
                    else_block: BlockId(3),
                },
            ],
        });
        f.blocks.push(Block {
            label: "guard2".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(3),
                    callee: prim(Prim::Compare(Cmp::LessEqual), &[ity(), ity()]),
                    args: vec![VarId(0).into(), VarId(1).into()],
                },
                Instr::Branch {
                    cond: VarId(3).into(),
                    then_block: BlockId(2),
                    else_block: BlockId(3),
                },
            ],
        });
        f.blocks.push(Block {
            label: "guarded".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(4),
                    callee: prim(Prim::TensorFill1, &[ity(), ity()]),
                    args: vec![Constant::I64(0).into(), VarId(1).into()],
                },
                Instr::Call {
                    dst: VarId(5),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(4).into(), VarId(0).into()],
                },
                Instr::Return {
                    value: VarId(5).into(),
                },
            ],
        });
        f.blocks.push(Block {
            label: "unguarded".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(6),
                    callee: prim(Prim::TensorFill1, &[ity(), ity()]),
                    args: vec![Constant::I64(0).into(), VarId(1).into()],
                },
                Instr::Call {
                    dst: VarId(7),
                    callee: prim(Prim::TensorPart1, &[tty(), ity()]),
                    args: vec![VarId(6).into(), VarId(0).into()],
                },
                Instr::Return {
                    value: VarId(7).into(),
                },
            ],
        });
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 2);
        assert_eq!(facts.parts_proved, 1, "{facts:?}");
        assert!(facts.proved_parts.contains(&(BlockId(2), 1)));
    }

    /// Both comparands move (`i` up by 3, `n` down by 1): neither phi
    /// bounds the other, and the sites are still counted.
    #[test]
    fn data_dependent_loop_terminates() {
        let mut f = Function::new("f", 1);
        for v in [0u32, 1, 2, 4, 5, 6] {
            f.var_types.insert(VarId(v), ity());
        }
        f.var_types.insert(VarId(3), bty());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadArgument {
                    dst: VarId(0),
                    index: 0,
                },
                Instr::LoadConst {
                    dst: VarId(1),
                    value: Constant::I64(0),
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "head".into(),
            instrs: vec![
                Instr::Phi {
                    dst: VarId(2),
                    incoming: vec![(BlockId(0), VarId(1).into()), (BlockId(2), VarId(5).into())],
                },
                Instr::Phi {
                    dst: VarId(4),
                    incoming: vec![(BlockId(0), VarId(0).into()), (BlockId(2), VarId(6).into())],
                },
                Instr::Call {
                    dst: VarId(3),
                    callee: prim(Prim::Compare(Cmp::Less), &[ity(), ity()]),
                    args: vec![VarId(2).into(), VarId(4).into()],
                },
                Instr::Branch {
                    cond: VarId(3).into(),
                    then_block: BlockId(2),
                    else_block: BlockId(3),
                },
            ],
        });
        f.blocks.push(Block {
            label: "body".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(5),
                    callee: prim(Prim::Plus, &[ity(), ity()]),
                    args: vec![VarId(2).into(), Constant::I64(3).into()],
                },
                Instr::Call {
                    dst: VarId(6),
                    callee: prim(Prim::Subtract, &[ity(), ity()]),
                    args: vec![VarId(4).into(), Constant::I64(1).into()],
                },
                Instr::Jump { target: BlockId(1) },
            ],
        });
        f.blocks.push(Block {
            label: "exit".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 0);
        assert_eq!(facts.arith_total, 2);
        // `n - 1` cannot overflow, since `n > i >= 0`; nothing bounds `i`
        // above (`n <= n0` for an argument `n0`), so `i + 3` stays checked.
        assert_eq!(facts.arith_proved, 1, "{facts:?}");
        assert!(facts.proved_arith.contains(&(BlockId(2), 1)));
    }

    #[test]
    fn quotient_on_infeasible_refined_path_does_not_panic() {
        // Regression (found by the differential fuzzer): `b >= 1` on a
        // constant-zero `b` is contradictory on the (infeasible) true
        // edge, and an interval transfer once fed the empty range straight
        // into `div_euclid` — divide by zero.
        let mut f = Function::new("f", 0);
        f.var_types.insert(VarId(0), ity());
        f.var_types.insert(VarId(1), ity());
        f.var_types.insert(VarId(2), bty());
        f.var_types.insert(VarId(3), ity());
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(10),
                },
                Instr::LoadConst {
                    dst: VarId(1),
                    value: Constant::I64(0),
                },
                Instr::Call {
                    dst: VarId(2),
                    callee: prim(Prim::Compare(Cmp::GreaterEqual), &[ity(), ity()]),
                    args: vec![VarId(1).into(), Constant::I64(1).into()],
                },
                Instr::Branch {
                    cond: VarId(2).into(),
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
            ],
        });
        f.blocks.push(Block {
            label: "divide".into(),
            instrs: vec![
                Instr::Call {
                    dst: VarId(3),
                    callee: prim(Prim::Quotient, &[ity(), ity()]),
                    args: vec![VarId(0).into(), VarId(1).into()],
                },
                Instr::Return {
                    value: VarId(3).into(),
                },
            ],
        });
        f.blocks.push(Block {
            label: "exit".into(),
            instrs: vec![Instr::Return {
                value: Constant::I64(0).into(),
            }],
        });
        // Completing without panicking is the assertion.
        let _ = analyze_ranges(&f);
    }

    /// `Main` of a paper program, compiled with default options.
    fn paper_main(src: &str) -> Function {
        let func = wolfram_expr::parse(src).unwrap();
        let pm = wolfram_compiler_core::Compiler::default()
            .compile_to_twir(&func, None)
            .unwrap();
        pm.functions.into_iter().find(|f| f.name == "Main").unwrap()
    }

    fn sorted(sites: &HashSet<(BlockId, usize)>) -> Vec<(u32, usize)> {
        let mut v: Vec<(u32, usize)> = sites.iter().map(|&(b, ix)| (b.0, ix)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn the_proofs_that_pay_are_kept_site_for_site() {
        // FNV1a and Histogram are the kernels elision speeds up. FNV1a:
        // `codes[[i]]` and `i + 1` in its counted loop. Histogram:
        // `data[[i]]`, the `bins[[b]]` store after its load (the triple),
        // and `i + 1`; `bins[[b]]`'s load and the two `+ 1`s on data stay
        // checked.
        use wolfram_bench::programs;
        for (name, src, parts, arith) in [
            (
                "FNV1a",
                programs::FNV1A_SRC,
                (1, vec![(2, 0)]),
                (2, vec![(2, 4)]),
            ),
            (
                "Histogram",
                programs::HISTOGRAM_SRC,
                (3, vec![(2, 0), (2, 4)]),
                (3, vec![(2, 7)]),
            ),
        ] {
            let facts = analyze_ranges(&paper_main(src));
            let got = (
                (facts.parts_total, sorted(&facts.proved_parts)),
                (facts.arith_total, sorted(&facts.proved_arith)),
            );
            assert_eq!(got, (parts, arith), "{name}");
            assert_eq!(facts.parts_proved as usize, got.0 .1.len());
            assert_eq!(facts.arith_proved as usize, got.1 .1.len());
        }
    }

    /// `y >= MIN`, either way round, and a constant `MIN` leave `y` no
    /// lower bound above `MIN`, so `y - 1` stays checked: `0 <= y + 2^63`
    /// has no `i64` offset and is no fact, rather than `0 <= y + i64::MAX`.
    #[test]
    fn a_bound_at_i64_min_proves_no_decrement() {
        let min = || Operand::from(Constant::I64(i64::MIN));
        let y = || Operand::from(VarId(0));
        let arg = Instr::LoadArgument {
            dst: VarId(0),
            index: 0,
        };
        let konst = Instr::LoadConst {
            dst: VarId(0),
            value: Constant::I64(i64::MIN),
        };
        for (case, (def, cmp, lhs, rhs)) in [
            (arg.clone(), Cmp::GreaterEqual, y(), min()),
            (arg, Cmp::LessEqual, min(), y()),
            (konst, Cmp::LessEqual, y(), Constant::I64(0).into()),
        ]
        .into_iter()
        .enumerate()
        {
            let mut f = Function::new("f", 1);
            f.var_types.insert(VarId(0), ity());
            f.var_types.insert(VarId(1), bty());
            f.var_types.insert(VarId(2), ity());
            f.blocks.push(Block {
                label: "start".into(),
                instrs: vec![
                    def,
                    Instr::Call {
                        dst: VarId(1),
                        callee: prim(Prim::Compare(cmp), &[ity(), ity()]),
                        args: vec![lhs, rhs],
                    },
                    Instr::Branch {
                        cond: VarId(1).into(),
                        then_block: BlockId(1),
                        else_block: BlockId(2),
                    },
                ],
            });
            f.blocks.push(Block {
                label: "decrement".into(),
                instrs: vec![
                    Instr::Call {
                        dst: VarId(2),
                        callee: prim(Prim::Subtract, &[ity(), ity()]),
                        args: vec![y(), Constant::I64(1).into()],
                    },
                    Instr::Return {
                        value: VarId(2).into(),
                    },
                ],
            });
            f.blocks.push(Block {
                label: "exit".into(),
                instrs: vec![Instr::Return {
                    value: Constant::I64(0).into(),
                }],
            });
            let facts = analyze_ranges(&f);
            assert_eq!(
                (facts.arith_total, facts.arith_proved),
                (1, 0),
                "case {case}"
            );
        }
    }

    #[test]
    fn query_steps_stay_pinned_on_the_largest_paper_functions() {
        // A count, not a timer: the steps every query of the walk takes.
        // A fact as strong as one in scope is not pushed again, so checks
        // that repeat an index and copies of a `Length` add no paths.
        use wolfram_bench::{programs, workloads};
        let primeq = programs::primeq_src(&workloads::prime_seed_table());
        for (name, src, pinned) in [
            ("QSort", programs::QSORT_SRC, 2397),
            ("PrimeQ", primeq.as_str(), 91),
        ] {
            assert_eq!(run(&paper_main(src)).2, pinned, "{name}");
        }
    }

    /// Offsets that leave `i64`: one past `i64::MAX` on a chain of facts
    /// is no bound at all, and `MIN <= x` gives no lower bound above `MIN`.
    #[test]
    fn offsets_past_i64_max_are_no_facts() {
        let [x, y, z] = [0, 1, 2].map(|v| Term::Var(VarId(v)));
        let mut fs = Facts::default();
        fs.le((x, 0), (y, 0), i64::MAX);
        fs.le((y, 0), (z, 0), 1);
        assert!(!fs.proves_le((x, 0), (z, i64::MAX)));
        assert!(fs.proves_le((y, 0), (z, 1)));
        fs.le((Term::Zero, i64::MIN), (x, 0), 0);
        assert_eq!(fs.lo((x, 0)), i64::MIN);
    }
}
