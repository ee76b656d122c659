//! Forward interval (range) analysis over TWIR.
//!
//! Per-variable integer intervals `[lo, hi]` with widening/narrowing for
//! loop termination, symbolic tensor-length facts that flow through the
//! CFG, phis, copies and `Length` calls, and branch-condition refinement
//! on comparisons — built on the lattice worklist solver in
//! [`crate::dataflow`] via its per-edge `transfer_edge` hook.
//!
//! The analysis has two clients:
//!
//! 1. **Check elision.** [`analyze_ranges`] exports a [`FnRangeFacts`]
//!    side table keyed by `(block, instr)` naming every Part access whose
//!    bounds check is proved redundant and every checked integer
//!    plus/subtract/times that provably cannot overflow. Codegen consumes
//!    the table to emit unchecked register ops.
//! 2. **Linting.** [`part_bounds`] owns the `part-out-of-bounds`
//!    diagnostic (formerly a constant-only peephole in `lints.rs`), now
//!    flow-sensitive: lengths propagate through copies, phis and fills,
//!    and unreachable blocks stay quiet.
//!
//! # Domain
//!
//! An [`Ival`] couples a numeric interval with up to [`MAX_SYMS`]
//! symbolic bounds per side: `hi_syms` entries `(s, k)` assert
//! `v <= s + k` and `lo_syms` entries assert `v >= s + k`, where a
//! [`Sym`] is another SSA variable, the length of a tensor's axis, or
//! the *negated* length (for negative Part indices). A `nz` bit records
//! "provably nonzero" — established by a dominating successful Part
//! check, whose post-state is `idx ∈ [-len, -1] ∪ [1, len]`.
//!
//! Tensor shapes live beside the intervals: per-variable [`AxisLen`]
//! rows hold a numeric length interval plus exact-equality symbols, so
//! every SSA version of a functionally-updated tensor shares a root
//! length symbol and dominating checks on one version prove accesses on
//! later versions.
//!
//! # Soundness of the numeric cap
//!
//! Every tensor element occupies at least 8 bytes (`I64`/`F64`; complex
//! is 16), and a `Vec` allocation cannot exceed `isize::MAX` bytes, so
//! no axis length can exceed [`MAX_LEN`] `= 2^60`. This global bound is
//! what lets `idx + 1` be proved overflow-free from `idx <= Length[t]`
//! alone.
//!
//! # Termination
//!
//! Joins count disagreement (`grows`); past [`GROW_LIMIT`] the numeric
//! endpoints snap outward to a fixed threshold ladder, giving finite
//! ascending chains. Symbolic sets only shrink at joins (set
//! intersection). After the fixpoint, two narrowing rounds re-apply the
//! transfer without widening to recover precision the snap overshot.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use wolfram_ir::analysis::Cfg;
use wolfram_ir::{BlockId, Callee, Constant, Function, Instr, Operand, ProgramModule, VarId};
use wolfram_types::{Cmp, Prim, Type};

use crate::dataflow::{flow_in, solve, Analysis, Direction, Lattice};
use crate::diag::Diagnostic;

/// No tensor axis can be longer than this (allocation bound, see module
/// docs): elements are at least 8 bytes and `Vec` caps at `isize::MAX`.
pub const MAX_LEN: i64 = 1 << 60;

/// Sentinel for an unknown upper bound (+infinity).
const POS_INF: i64 = i64::MAX;
/// Sentinel for an unknown lower bound (-infinity).
const NEG_INF: i64 = i64::MIN;

/// Joins tolerated before numeric endpoints snap to the threshold ladder.
const GROW_LIMIT: u8 = 3;
/// Maximum symbolic bounds tracked per interval side.
const MAX_SYMS: usize = 6;
/// Maximum exact-equality symbols tracked per tensor axis.
const MAX_EQ: usize = 3;
/// Symbolic offsets beyond this are dropped (keeps the sym space finite).
const MAX_SYM_OFF: i64 = 64;

/// Widening ladder: snapped endpoints land on one of these.
const THRESHOLDS: [i64; 19] = [
    -MAX_LEN,
    -(1 << 31),
    -65536,
    -4096,
    -256,
    -16,
    -2,
    -1,
    0,
    1,
    2,
    12,
    16,
    256,
    4096,
    16384,
    65536,
    1 << 31,
    MAX_LEN,
];

fn snap_hi(v: i64) -> i64 {
    for &t in &THRESHOLDS {
        if v <= t {
            return t;
        }
    }
    POS_INF
}

fn snap_lo(v: i64) -> i64 {
    for &t in THRESHOLDS.iter().rev() {
        if v >= t {
            return t;
        }
    }
    NEG_INF
}

fn clamp128(v: i128) -> i64 {
    v.clamp(NEG_INF as i128, POS_INF as i128) as i64
}

/// `a + b` on lower bounds: -infinity absorbs.
fn add_lo(a: i64, b: i64) -> i64 {
    if a == NEG_INF || b == NEG_INF {
        NEG_INF
    } else {
        clamp128(a as i128 + b as i128)
    }
}

/// `a + b` on upper bounds: +infinity absorbs.
fn add_hi(a: i64, b: i64) -> i64 {
    if a == POS_INF || b == POS_INF {
        POS_INF
    } else {
        clamp128(a as i128 + b as i128)
    }
}

/// A symbolic bound: another SSA variable's value, a tensor axis length,
/// or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// The value of an integer SSA variable.
    Var(VarId),
    /// `Length` of the given tensor variable along the given axis.
    Len(VarId, u8),
    /// `-Length` of the given tensor variable along the given axis
    /// (lower bounds for negative Part indices).
    NegLen(VarId, u8),
}

/// An integer interval with symbolic bounds and a nonzero bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ival {
    /// Numeric lower bound (`i64::MIN` = unknown).
    pub lo: i64,
    /// Numeric upper bound (`i64::MAX` = unknown).
    pub hi: i64,
    /// Entries `(s, k)` assert `v >= s + k`.
    lo_syms: Vec<(Sym, i64)>,
    /// Entries `(s, k)` assert `v <= s + k`.
    hi_syms: Vec<(Sym, i64)>,
    /// Provably `v != 0` (beyond what `lo`/`hi` show).
    nz: bool,
    /// Join-disagreement counter driving widening.
    grows: u8,
}

impl Ival {
    fn top() -> Ival {
        Ival {
            lo: NEG_INF,
            hi: POS_INF,
            lo_syms: Vec::new(),
            hi_syms: Vec::new(),
            nz: false,
            grows: 0,
        }
    }

    fn exact(k: i64) -> Ival {
        Ival {
            lo: k,
            hi: k,
            nz: k != 0,
            ..Ival::top()
        }
    }

    fn range(lo: i64, hi: i64) -> Ival {
        Ival {
            lo,
            hi,
            ..Ival::top()
        }
    }

    fn singleton(&self) -> Option<i64> {
        (self.lo == self.hi && self.lo != NEG_INF && self.lo != POS_INF).then_some(self.lo)
    }

    fn is_nonzero(&self) -> bool {
        self.nz || self.lo >= 1 || self.hi <= -1
    }

    fn add_hi_sym(&mut self, s: Sym, off: i64) {
        if !(-MAX_SYM_OFF..=MAX_SYM_OFF).contains(&off) {
            return;
        }
        if let Some(e) = self.hi_syms.iter_mut().find(|(s2, _)| *s2 == s) {
            e.1 = e.1.min(off);
        } else if self.hi_syms.len() < MAX_SYMS {
            self.hi_syms.push((s, off));
            self.hi_syms.sort_unstable();
        }
    }

    fn add_lo_sym(&mut self, s: Sym, off: i64) {
        if !(-MAX_SYM_OFF..=MAX_SYM_OFF).contains(&off) {
            return;
        }
        if let Some(e) = self.lo_syms.iter_mut().find(|(s2, _)| *s2 == s) {
            e.1 = e.1.max(off);
        } else if self.lo_syms.len() < MAX_SYMS {
            self.lo_syms.push((s, off));
            self.lo_syms.sort_unstable();
        }
    }

    fn add(&self, o: &Ival) -> Ival {
        Ival {
            lo: add_lo(self.lo, o.lo),
            hi: add_hi(self.hi, o.hi),
            ..Ival::top()
        }
    }

    fn sub(&self, o: &Ival) -> Ival {
        Ival {
            lo: if self.lo == NEG_INF || o.hi == POS_INF {
                NEG_INF
            } else {
                clamp128(self.lo as i128 - o.hi as i128)
            },
            hi: if self.hi == POS_INF || o.lo == NEG_INF {
                POS_INF
            } else {
                clamp128(self.hi as i128 - o.lo as i128)
            },
            ..Ival::top()
        }
    }

    fn mul(&self, o: &Ival) -> Ival {
        let finite = self.lo != NEG_INF && self.hi != POS_INF && o.lo != NEG_INF && o.hi != POS_INF;
        let mut r = if finite {
            let c = [
                self.lo as i128 * o.lo as i128,
                self.lo as i128 * o.hi as i128,
                self.hi as i128 * o.lo as i128,
                self.hi as i128 * o.hi as i128,
            ];
            Ival::range(
                clamp128(*c.iter().min().unwrap()),
                clamp128(*c.iter().max().unwrap()),
            )
        } else {
            Ival::top()
        };
        // A product is zero iff a factor is zero.
        r.nz = self.is_nonzero() && o.is_nonzero();
        r
    }

    fn neg(&self) -> Ival {
        let mut r = Ival::range(
            if self.hi == POS_INF {
                NEG_INF
            } else {
                clamp128(-(self.hi as i128))
            },
            if self.lo == NEG_INF {
                POS_INF
            } else {
                clamp128(-(self.lo as i128))
            },
        );
        r.nz = self.is_nonzero();
        r
    }

    fn abs(&self) -> Ival {
        let (alo, ahi) = (self.lo.unsigned_abs(), self.hi.unsigned_abs());
        let hi = if self.lo == NEG_INF || self.hi == POS_INF {
            POS_INF
        } else {
            clamp128(alo.max(ahi) as i128)
        };
        let straddles_zero = self.lo <= 0 && self.hi >= 0;
        let lo = if straddles_zero || self.lo == NEG_INF || self.hi == POS_INF {
            0
        } else {
            clamp128(alo.min(ahi) as i128)
        };
        let mut r = Ival::range(lo, hi);
        r.nz = self.is_nonzero();
        r
    }

    /// In-place join; returns whether `self` changed. Widens (grows
    /// counter + threshold snap) when `widen` is set; narrowing passes use
    /// the plain hull.
    fn join_with(&mut self, o: &Ival, widen: bool) -> bool {
        let grew = self.lo != o.lo || self.hi != o.hi;
        let mut lo = self.lo.min(o.lo);
        let mut hi = self.hi.max(o.hi);
        let mut grows = self.grows.max(o.grows);
        if widen && grew {
            grows = (grows + 1).min(GROW_LIMIT + 1);
            if grows > GROW_LIMIT {
                lo = snap_lo(lo);
                hi = snap_hi(hi);
            }
        }
        let nz = self.nz && o.nz;
        let mut changed = (lo, hi, grows, nz) != (self.lo, self.hi, self.grows, self.nz);
        self.lo = lo;
        self.hi = hi;
        self.grows = grows;
        self.nz = nz;
        changed |= isect_syms(&mut self.hi_syms, &o.hi_syms, true);
        changed |= isect_syms(&mut self.lo_syms, &o.lo_syms, false);
        changed
    }

    /// In-place meet (used by narrowing and branch refinement).
    fn meet(&mut self, o: &Ival) {
        self.lo = self.lo.max(o.lo);
        self.hi = self.hi.min(o.hi);
        for &(s, k) in &o.hi_syms {
            self.add_hi_sym(s, k);
        }
        for &(s, k) in &o.lo_syms {
            self.add_lo_sym(s, k);
        }
        self.nz |= o.nz;
        self.grows = self.grows.min(o.grows);
    }
}

/// Narrows `a` to its intersection with `b`, keeping the weaker offset
/// per shared symbol (max for upper bounds, min for lower bounds), and
/// returns whether `a` changed. Bound sets hold each symbol once, sorted
/// by symbol, so dropping entries and moving offsets keeps them sorted.
fn isect_syms(a: &mut Vec<(Sym, i64)>, b: &[(Sym, i64)], upper: bool) -> bool {
    let mut changed = false;
    a.retain_mut(|(s, k)| {
        let Some(&(_, k2)) = b.iter().find(|(s2, _)| s2 == s) else {
            changed = true;
            return false;
        };
        let weaker = if upper { (*k).max(k2) } else { (*k).min(k2) };
        changed |= weaker != *k;
        *k = weaker;
        true
    });
    changed
}

/// One tensor axis: a numeric length interval plus exact-equality
/// symbols (`eq` entries equal the length exactly; `Sym::Var` entries
/// are only trusted where the variable is provably nonnegative, because
/// fills clamp negative counts to zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisLen {
    /// Guaranteed minimum length.
    pub lo: i64,
    /// Guaranteed maximum length.
    pub hi: i64,
    /// Symbols exactly equal to this length.
    eq: Vec<Sym>,
}

impl AxisLen {
    fn unknown() -> AxisLen {
        AxisLen {
            lo: 0,
            hi: MAX_LEN,
            eq: Vec::new(),
        }
    }

    fn known(n: i64) -> AxisLen {
        let n = n.clamp(0, MAX_LEN);
        AxisLen {
            lo: n,
            hi: n,
            eq: Vec::new(),
        }
    }

    fn add_eq(&mut self, s: Sym) {
        if !self.eq.contains(&s) && self.eq.len() < MAX_EQ {
            self.eq.push(s);
            self.eq.sort_unstable();
        }
    }

    /// In-place join; returns whether `self` changed.
    fn join(&mut self, o: &AxisLen) -> bool {
        let before = (self.lo, self.hi, self.eq.len());
        if self.lo != o.lo {
            self.lo = snap_lo(self.lo.min(o.lo)).max(0);
        }
        if self.hi != o.hi {
            self.hi = snap_hi(self.hi.max(o.hi)).min(MAX_LEN);
        }
        self.eq.retain(|s| o.eq.contains(s));
        before != (self.lo, self.hi, self.eq.len())
    }

    fn meet(&mut self, o: &AxisLen) {
        self.lo = self.lo.max(o.lo);
        self.hi = self.hi.min(o.hi);
        for &s in &o.eq {
            self.add_eq(s);
        }
    }
}

/// The per-program-point fact: reachability, variable intervals, and
/// tensor shapes, both indexed by variable number. `None` entries are top
/// (no information); the bottom element is unreachable and holds no
/// tables at all, every reachable fact one slot per variable of the
/// function.
///
/// Slots are shared: a copy of a fact costs a pointer per variable, and a
/// fact refined along an edge or moved through a block shares every
/// variable it leaves alone with its source, which is also what lets a
/// join or a comparison pass over them by pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    reachable: bool,
    vars: Vec<Option<Rc<Ival>>>,
    dims: Vec<Option<Rc<Vec<AxisLen>>>>,
}

impl Env {
    fn var(&self, v: VarId) -> Option<&Ival> {
        self.vars.get(v.0 as usize)?.as_deref()
    }

    fn var_or_top(&mut self, v: VarId) -> &mut Ival {
        Rc::make_mut(self.vars[v.0 as usize].get_or_insert_with(|| Rc::new(Ival::top())))
    }

    fn set_var(&mut self, v: VarId, iv: Ival) {
        self.vars[v.0 as usize] = Some(Rc::new(iv));
    }

    fn dims(&self, v: VarId) -> Option<&Vec<AxisLen>> {
        self.dims.get(v.0 as usize)?.as_deref()
    }

    fn set_dims(&mut self, v: VarId, d: Vec<AxisLen>) {
        self.dims[v.0 as usize] = Some(Rc::new(d));
    }

    /// Drops everything known about `v` (it is being redefined).
    fn forget(&mut self, v: VarId) {
        self.vars[v.0 as usize] = None;
        self.dims[v.0 as usize] = None;
    }

    fn join_impl(&mut self, o: &Env, widen: bool) -> bool {
        if !o.reachable {
            return false;
        }
        if !self.reachable {
            *self = o.clone();
            return true;
        }
        let mut changed = false;
        for (mine, theirs) in self.vars.iter_mut().zip(&o.vars) {
            match (mine.as_mut(), theirs) {
                // Joining a value with itself changes nothing, widening
                // included: only disagreeing endpoints count as growth.
                (Some(iv), Some(oiv)) if iv == oiv => {}
                (Some(iv), Some(oiv)) => changed |= Rc::make_mut(iv).join_with(oiv, widen),
                (Some(_), None) => {
                    *mine = None;
                    changed = true;
                }
                (None, _) => {}
            }
        }
        for (mine, theirs) in self.dims.iter_mut().zip(&o.dims) {
            match (mine.as_mut(), theirs) {
                (Some(d), Some(od)) if d == od => {}
                (Some(d), Some(od)) if d.len() == od.len() => {
                    for (ax, oax) in Rc::make_mut(d).iter_mut().zip(od.iter()) {
                        changed |= ax.join(oax);
                    }
                }
                (Some(_), _) => {
                    *mine = None;
                    changed = true;
                }
                (None, _) => {}
            }
        }
        changed
    }

    fn meet(&mut self, o: &Env) {
        if !o.reachable {
            *self = Env::bottom();
            return;
        }
        if !self.reachable {
            return;
        }
        for (mine, theirs) in self.vars.iter_mut().zip(&o.vars) {
            match (mine.as_mut(), theirs) {
                (Some(iv), Some(ov)) if iv == ov => {}
                (Some(iv), Some(ov)) => Rc::make_mut(iv).meet(ov),
                (None, Some(ov)) => *mine = Some(ov.clone()),
                (_, None) => {}
            }
        }
        for (mine, theirs) in self.dims.iter_mut().zip(&o.dims) {
            match (mine.as_mut(), theirs) {
                (Some(d), Some(od)) if d == od => {}
                (Some(d), Some(od)) => {
                    if d.len() == od.len() {
                        for (ax, oax) in Rc::make_mut(d).iter_mut().zip(od.iter()) {
                            ax.meet(oax);
                        }
                    }
                }
                (None, Some(od)) => *mine = Some(od.clone()),
                (_, None) => {}
            }
        }
    }
}

impl Lattice for Env {
    fn bottom() -> Env {
        Env {
            reachable: false,
            vars: Vec::new(),
            dims: Vec::new(),
        }
    }

    fn join(&mut self, other: &Env) -> bool {
        self.join_impl(other, true)
    }
}

fn is_integer64(t: &Type) -> bool {
    matches!(t, Type::Atomic(n) if &**n == "Integer64")
}

/// What a variable's type annotation means to the analysis.
#[derive(Debug, Clone, Copy, Default)]
struct Kind {
    is_i64: bool,
    is_bool: bool,
    /// The rank, for tensors of rank 1 to 8.
    rank: Option<u8>,
}

/// The [`Kind`] of every variable of a function, indexed by variable
/// number and worked out once per analysis: the transfer functions ask
/// per operand, per instruction, per block transfer. A variable without an
/// annotation (all of them, in untyped WIR) is of no kind.
struct Kinds(Vec<Kind>);

impl Kinds {
    fn of(f: &Function) -> Kinds {
        // Hand-built functions need not keep `next_var` up to date.
        let mentioned = f
            .instrs()
            .flat_map(|i| i.def().into_iter().chain(i.uses()))
            .chain(f.var_types.keys().copied())
            .map(|v| v.0 + 1)
            .max();
        let mut kinds = vec![Kind::default(); f.next_var.max(mentioned.unwrap_or(0)) as usize];
        let (i64_ty, bool_ty) = (Type::integer64(), Type::boolean());
        for (v, t) in &f.var_types {
            kinds[v.0 as usize] = Kind {
                is_i64: *t == i64_ty,
                is_bool: *t == bool_ty,
                rank: match t {
                    Type::Constructor { name, args } if &**name == "Tensor" => match args.get(1) {
                        Some(Type::Literal(r)) if (1..=8).contains(r) => Some(*r as u8),
                        _ => None,
                    },
                    _ => None,
                },
            };
        }
        Kinds(kinds)
    }

    fn kind(&self, v: VarId) -> Kind {
        self.0.get(v.0 as usize).copied().unwrap_or_default()
    }

    fn is_i64(&self, v: VarId) -> bool {
        self.kind(v).is_i64
    }

    fn int_like(&self, v: VarId) -> bool {
        let k = self.kind(v);
        k.is_i64 || k.is_bool
    }

    fn int_operand(&self, op: &Operand) -> bool {
        match op {
            Operand::Const(Constant::I64(_)) | Operand::Const(Constant::Bool(_)) => true,
            Operand::Var(v) => self.int_like(*v),
            _ => false,
        }
    }

    fn tensor_rank(&self, v: VarId) -> Option<usize> {
        self.kind(v).rank.map(usize::from)
    }
}

fn eval(env: &Env, op: &Operand) -> Ival {
    match op {
        Operand::Const(Constant::I64(k)) => Ival::exact(*k),
        Operand::Const(Constant::Bool(b)) => Ival::exact(*b as i64),
        Operand::Var(v) => env.var(*v).cloned().unwrap_or_else(Ival::top),
        _ => Ival::top(),
    }
}

/// Everything known about one axis of a Part target at a program point.
struct AxisFacts {
    /// Guaranteed minimum length.
    min_len: i64,
    /// Guaranteed maximum length (never above [`MAX_LEN`]).
    max_len: i64,
    /// Symbols equal to (or exceeding) the length: proof targets for
    /// upper bounds, assume facts after a successful check.
    up: Vec<Sym>,
    /// Symbols equal to the negated length.
    down: Vec<Sym>,
}

fn axis_facts(env: &Env, t_op: &Operand, axis: usize) -> AxisFacts {
    match t_op {
        Operand::Const(Constant::I64Array(a)) => AxisFacts {
            min_len: a.len() as i64,
            max_len: a.len() as i64,
            up: Vec::new(),
            down: Vec::new(),
        },
        Operand::Const(Constant::F64Array(a)) => AxisFacts {
            min_len: a.len() as i64,
            max_len: a.len() as i64,
            up: Vec::new(),
            down: Vec::new(),
        },
        Operand::Var(t) => {
            let mut up = vec![Sym::Len(*t, axis as u8)];
            let mut down = vec![Sym::NegLen(*t, axis as u8)];
            let (mut min_len, mut max_len) = (0, MAX_LEN);
            if let Some(ax) = env.dims(*t).and_then(|d| d.get(axis)) {
                min_len = ax.lo.clamp(0, MAX_LEN);
                max_len = ax.hi.clamp(0, MAX_LEN);
                for s in &ax.eq {
                    match s {
                        Sym::Len(u, k) => {
                            if up.len() < MAX_SYMS {
                                up.push(*s);
                                down.push(Sym::NegLen(*u, *k));
                            }
                        }
                        // A fill's length is max(n, 0): the count symbol
                        // equals the length only where n >= 0.
                        Sym::Var(h) => {
                            if up.len() < MAX_SYMS && env.var(*h).is_some_and(|iv| iv.lo >= 0) {
                                up.push(*s);
                            }
                        }
                        Sym::NegLen(..) => {}
                    }
                }
            }
            AxisFacts {
                min_len,
                max_len,
                up,
                down,
            }
        }
        _ => AxisFacts {
            min_len: 0,
            max_len: MAX_LEN,
            up: Vec::new(),
            down: Vec::new(),
        },
    }
}

/// Transitive `v <= target + slack` proof through upper symbolic bounds.
fn sym_le(env: &Env, syms: &[(Sym, i64)], targets: &[Sym], slack: i64, depth: u8) -> bool {
    for (s, off) in syms {
        let total = slack.saturating_add(*off);
        if total <= 0 && targets.contains(s) {
            return true;
        }
        if depth > 0 {
            if let Sym::Var(u) = s {
                if let Some(uiv) = env.var(*u) {
                    if sym_le(env, &uiv.hi_syms, targets, total, depth - 1) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Transitive `v >= target + slack` proof through lower symbolic bounds.
fn sym_ge(env: &Env, syms: &[(Sym, i64)], targets: &[Sym], slack: i64, depth: u8) -> bool {
    for (s, off) in syms {
        let total = slack.saturating_add(*off);
        if total >= 0 && targets.contains(s) {
            return true;
        }
        if depth > 0 {
            if let Sym::Var(u) = s {
                if let Some(uiv) = env.var(*u) {
                    if sym_ge(env, &uiv.lo_syms, targets, total, depth - 1) {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Numeric upper bound improved through symbolic bounds (`Len` symbols
/// are capped at [`MAX_LEN`] by the allocation bound).
fn resolve_hi(env: &Env, iv: &Ival, depth: u8) -> i64 {
    let mut hi = iv.hi;
    for (s, off) in &iv.hi_syms {
        let b = match s {
            Sym::Len(..) => MAX_LEN,
            Sym::Var(u) if depth > 0 => env
                .var(*u)
                .map_or(POS_INF, |uiv| resolve_hi(env, uiv, depth - 1)),
            _ => POS_INF,
        };
        hi = hi.min(add_hi(b, *off));
    }
    hi
}

/// Numeric lower bound improved through symbolic bounds.
fn resolve_lo(env: &Env, iv: &Ival, depth: u8) -> i64 {
    let mut lo = iv.lo;
    for (s, off) in &iv.lo_syms {
        let b = match s {
            Sym::NegLen(..) => -MAX_LEN,
            Sym::Var(u) if depth > 0 => env
                .var(*u)
                .map_or(NEG_INF, |uiv| resolve_lo(env, uiv, depth - 1)),
            _ => NEG_INF,
        };
        lo = lo.max(add_lo(b, *off));
    }
    lo
}

/// Whether the index is provably valid for the axis: either
/// `1 <= idx <= len`, or `idx != 0 && -len <= idx <= len` (the machine's
/// unchecked ops resolve the sign but skip the range validation).
fn prove_index(env: &Env, t_op: &Operand, idx: &Operand, axis: usize) -> bool {
    let iv = eval(env, idx);
    let facts = axis_facts(env, t_op, axis);
    let lo = resolve_lo(env, &iv, 2);
    let hi_ok =
        resolve_hi(env, &iv, 2) <= facts.min_len || sym_le(env, &iv.hi_syms, &facts.up, 0, 3);
    if lo >= 1 && hi_ok {
        return true;
    }
    let lo_ok = lo >= -facts.min_len || sym_ge(env, &iv.lo_syms, &facts.down, 0, 3);
    iv.is_nonzero() && (hi_ok || iv.hi <= -1) && lo_ok
}

/// Post-state of a successful bounds check on `idx`:
/// `idx ∈ [-len, -1] ∪ [1, len]`. Also back-propagates to variables in
/// exact affine relation with the index (`idx == j + k` when `(j, k)`
/// appears on both symbolic sides), which is what lets `img[[i, j+1]]`
/// prove once any *other* `j+1` temp has been checked.
fn assume_in_bounds(env: &mut Env, kinds: &Kinds, t_op: &Operand, checks: &[(&Operand, usize)]) {
    for (idx, axis) in checks {
        let Some(v) = idx.as_var() else { continue };
        if !kinds.is_i64(v) {
            continue;
        }
        let facts = axis_facts(env, t_op, *axis);
        let rel: Vec<(VarId, i64)> = env
            .var(v)
            .map(|iv| {
                iv.hi_syms
                    .iter()
                    .filter(|e| iv.lo_syms.contains(e))
                    .filter_map(|(s, k)| match s {
                        Sym::Var(j) if *j != v => Some((*j, *k)),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        {
            let e = env.var_or_top(v);
            e.hi = e.hi.min(facts.max_len);
            e.lo = e.lo.max(-facts.max_len);
            e.nz = true;
            for &s in &facts.up {
                e.add_hi_sym(s, 0);
            }
            for &s in &facts.down {
                e.add_lo_sym(s, 0);
            }
        }
        // v == j + k  =>  j = v - k ∈ [-len - k, len - k].
        for (j, k) in rel {
            let e = env.var_or_top(j);
            e.hi = e.hi.min(facts.max_len.saturating_sub(k));
            e.lo = e.lo.max((-facts.max_len).saturating_sub(k));
            for &s in &facts.up {
                e.add_hi_sym(s, -k);
            }
            for &s in &facts.down {
                e.add_lo_sym(s, -k);
            }
        }
    }
}

/// Copies `src`'s axis rows onto `dst`, extending each with `src`'s own
/// length symbol so all SSA versions of a functionally-updated tensor
/// share proof targets.
fn set_dims_from(env: &mut Env, kinds: &Kinds, dst: VarId, src_op: &Operand) {
    match src_op {
        Operand::Var(s) => {
            let rank = kinds.tensor_rank(*s).or_else(|| env.dims(*s).map(Vec::len));
            let Some(rank) = rank else { return };
            let mut d = env
                .dims(*s)
                .cloned()
                .unwrap_or_else(|| vec![AxisLen::unknown(); rank]);
            for (i, ax) in d.iter_mut().enumerate() {
                ax.add_eq(Sym::Len(*s, i as u8));
            }
            env.set_dims(dst, d);
        }
        Operand::Const(Constant::I64Array(a)) => {
            env.set_dims(dst, vec![AxisLen::known(a.len() as i64)]);
        }
        Operand::Const(Constant::F64Array(a)) => {
            env.set_dims(dst, vec![AxisLen::known(a.len() as i64)]);
        }
        _ => {}
    }
}

/// Axis row for a fill count operand: numeric `clamp(n, 0, MAX_LEN)`
/// plus the count symbol (validated against `n >= 0` at proof time).
fn axis_from_count(env: &Env, kinds: &Kinds, op: &Operand) -> AxisLen {
    let iv = eval(env, op);
    let mut ax = AxisLen {
        lo: iv.lo.clamp(0, MAX_LEN),
        hi: iv.hi.clamp(0, MAX_LEN),
        eq: Vec::new(),
    };
    if let Some(v) = op.as_var() {
        if kinds.is_i64(v) {
            ax.add_eq(Sym::Var(v));
        }
    }
    ax
}

fn transfer_instr(kinds: &Kinds, env: &mut Env, i: &Instr) {
    match i {
        Instr::LoadArgument { dst, .. } => {
            env.forget(*dst);
            if let Some(rank) = kinds.tensor_rank(*dst) {
                env.set_dims(*dst, vec![AxisLen::unknown(); rank]);
            }
        }
        Instr::LoadConst { dst, value } => {
            env.forget(*dst);
            match value {
                Constant::I64(k) => env.set_var(*dst, Ival::exact(*k)),
                Constant::Bool(b) => env.set_var(*dst, Ival::exact(*b as i64)),
                Constant::I64Array(a) => env.set_dims(*dst, vec![AxisLen::known(a.len() as i64)]),
                Constant::F64Array(a) => env.set_dims(*dst, vec![AxisLen::known(a.len() as i64)]),
                _ => {}
            }
        }
        Instr::Copy { dst, src } => {
            env.forget(*dst);
            if kinds.int_like(*src) || kinds.int_like(*dst) {
                let mut iv = env.var(*src).cloned().unwrap_or_else(Ival::top);
                iv.add_hi_sym(Sym::Var(*src), 0);
                iv.add_lo_sym(Sym::Var(*src), 0);
                env.set_var(*dst, iv);
            }
            set_dims_from(env, kinds, *dst, &Operand::Var(*src));
        }
        // Phis are handled per-edge in `transfer_edge`.
        Instr::Phi { .. } => {}
        Instr::MakeClosure { dst, .. } => env.forget(*dst),
        Instr::Call { dst, callee, args } => transfer_call(kinds, env, *dst, callee, args),
        Instr::AbortCheck
        | Instr::MemoryAcquire { .. }
        | Instr::MemoryRelease { .. }
        | Instr::Jump { .. }
        | Instr::Branch { .. }
        | Instr::Return { .. } => {}
    }
}

fn transfer_call(kinds: &Kinds, env: &mut Env, dst: VarId, callee: &Callee, args: &[Operand]) {
    env.forget(dst);
    // Results inherit the widening counter of their operands: a
    // loop-carried `i + 1` must re-enter the header join with `i`'s
    // accumulated counter, or the counter restarts at zero every
    // iteration and the interval climbs one step at a time instead of
    // snapping to a threshold.
    let carried = args
        .iter()
        .filter_map(Operand::as_var)
        .filter_map(|v| env.var(v))
        .map(|iv| iv.grows)
        .max()
        .unwrap_or(0);
    match callee {
        Callee::Primitive { prim, params } => {
            // `None`: an overload or an operand count that carries no fact.
            let _ = transfer_primitive(kinds, env, dst, *prim, params, args);
        }
        Callee::Builtin(n) if &**n == "List" => {
            env.set_dims(dst, vec![AxisLen::known(args.len() as i64)]);
            return;
        }
        _ => {
            if let Some(rank) = kinds.tensor_rank(dst) {
                env.set_dims(dst, vec![AxisLen::unknown(); rank]);
            }
            return;
        }
    }
    if carried > 0 {
        if let Some(iv) = &mut env.vars[dst.0 as usize] {
            let iv = Rc::make_mut(iv);
            iv.grows = iv.grows.max(carried);
        }
    }
    if env.dims(dst).is_none() {
        if let Some(rank) = kinds.tensor_rank(dst) {
            env.set_dims(dst, vec![AxisLen::unknown(); rank]);
        }
    }
}

/// What a call of `prim`, resolved at `params`, says about its result and
/// operands. Every primitive has an arm, so one added to the table does
/// not compile until its transfer is decided here. Overloaded arithmetic
/// is tracked at its `Integer64` instance only.
#[allow(clippy::too_many_lines)]
fn transfer_primitive(
    kinds: &Kinds,
    env: &mut Env,
    dst: VarId,
    prim: Prim,
    params: &[Type],
    args: &[Operand],
) -> Option<()> {
    let arg = |i: usize| args.get(i);
    // The operand intervals of the `Integer64` instance of a scalar
    // primitive.
    let int = params.first().is_some_and(is_integer64);
    let int1 = |env: &Env| match (int, arg(0)) {
        (true, Some(x)) => Some(eval(env, x)),
        _ => None,
    };
    let int2 = |env: &Env| match (int, arg(0), arg(1)) {
        (true, Some(x), Some(y)) => Some((eval(env, x), eval(env, y))),
        _ => None,
    };
    // var ± const keeps an exact affine relation: shift the var's
    // symbolic bounds and record the relation itself.
    let shift = |r: &mut Ival, iv: &Ival, v: Option<VarId>, k: i64| {
        for &(s, o) in &iv.hi_syms {
            r.add_hi_sym(s, o.saturating_add(k));
        }
        for &(s, o) in &iv.lo_syms {
            r.add_lo_sym(s, o.saturating_add(k));
        }
        if let Some(v) = v {
            if kinds.is_i64(v) {
                r.add_hi_sym(Sym::Var(v), k);
                r.add_lo_sym(Sym::Var(v), k);
            }
        }
    };
    match prim {
        Prim::Plus => {
            let (a, b) = int2(env)?;
            let mut r = a.add(&b);
            if let Some(k) = b.singleton() {
                shift(&mut r, &a, args[0].as_var(), k);
            } else if let Some(k) = a.singleton() {
                shift(&mut r, &b, args[1].as_var(), k);
            }
            env.set_var(dst, r);
        }
        Prim::Subtract => {
            let (a, b) = int2(env)?;
            let mut r = a.sub(&b);
            if let Some(k) = b.singleton() {
                shift(&mut r, &a, args[0].as_var(), -k);
            }
            env.set_var(dst, r);
        }
        Prim::Times => {
            let (a, b) = int2(env)?;
            env.set_var(dst, a.mul(&b));
        }
        Prim::Quotient => {
            let (a, b) = int2(env)?;
            // `b.hi >= b.lo` rejects inconsistent (empty) intervals that
            // branch refinement can produce along infeasible paths, where
            // `b.lo >= 1` alone would still let `b.hi` be zero.
            if b.lo >= 1 && b.hi >= b.lo && b.hi != POS_INF && a.lo != NEG_INF && a.hi != POS_INF {
                let c = [
                    a.lo.div_euclid(b.lo),
                    a.lo.div_euclid(b.hi),
                    a.hi.div_euclid(b.lo),
                    a.hi.div_euclid(b.hi),
                ];
                env.set_var(
                    dst,
                    Ival::range(*c.iter().min().unwrap(), *c.iter().max().unwrap()),
                );
            } else if b.lo >= 1 && a.lo >= 0 {
                env.set_var(dst, Ival::range(0, a.hi));
            }
        }
        Prim::Mod => {
            // Flooring mod: the result takes the divisor's sign.
            if !int {
                return None;
            }
            let b = eval(env, arg(1)?);
            if b.lo >= 1 {
                let hi = if b.hi == POS_INF { POS_INF } else { b.hi - 1 };
                env.set_var(dst, Ival::range(0, hi));
            }
        }
        Prim::Minus => {
            let r = int1(env)?.neg();
            env.set_var(dst, r);
        }
        Prim::Abs => {
            let r = int1(env)?.abs();
            env.set_var(dst, r);
        }
        Prim::Min => {
            let (a, b) = int2(env)?;
            let mut r = Ival::range(a.lo.min(b.lo), a.hi.min(b.hi));
            // min(a, b) inherits every upper bound of either input.
            for &(s, k) in a.hi_syms.iter().chain(&b.hi_syms) {
                r.add_hi_sym(s, k);
            }
            r.nz = false;
            env.set_var(dst, r);
        }
        Prim::Max => {
            let (a, b) = int2(env)?;
            let mut r = Ival::range(a.lo.max(b.lo), a.hi.max(b.hi));
            for &(s, k) in a.lo_syms.iter().chain(&b.lo_syms) {
                r.add_lo_sym(s, k);
            }
            r.nz = false;
            env.set_var(dst, r);
        }
        Prim::Gcd => {
            let (a, b) = int2(env)?;
            env.set_var(dst, Ival::range(0, a.abs().hi.max(b.abs().hi)));
        }
        Prim::BitAnd => {
            let (a, b) = int2(env)?;
            if a.lo >= 0 && b.lo >= 0 {
                env.set_var(dst, Ival::range(0, a.hi.min(b.hi)));
            }
        }
        Prim::BitOr | Prim::BitXor => {
            let (a, b) = int2(env)?;
            if a.lo >= 0 && b.lo >= 0 {
                let m = a.hi.max(b.hi);
                let hi = if !(0..(1 << 62)).contains(&m) {
                    POS_INF
                } else {
                    ((m as u64 + 1).next_power_of_two() - 1) as i64
                };
                env.set_var(dst, Ival::range(0, hi));
            }
        }
        Prim::BitShiftRight => {
            let (a, b) = int2(env)?;
            if a.lo >= 0 && b.lo >= 0 {
                env.set_var(dst, Ival::range(0, a.hi));
            }
        }
        Prim::Not | Prim::Boole | Prim::Compare(_) => env.set_var(dst, Ival::range(0, 1)),
        Prim::Sign => {
            if int {
                env.set_var(dst, Ival::range(-1, 1));
            }
        }
        Prim::PowerMod => {
            let m = eval(env, arg(2)?);
            if m.lo >= 1 {
                let hi = if m.hi == POS_INF { POS_INF } else { m.hi - 1 };
                env.set_var(dst, Ival::range(0, hi));
            }
        }
        Prim::TensorLength => {
            let mut r = Ival::range(0, MAX_LEN);
            match arg(0)? {
                Operand::Var(t) => {
                    if let Some(ax) = env.dims(*t).and_then(|d| d.first()) {
                        r.lo = r.lo.max(ax.lo);
                        r.hi = r.hi.min(ax.hi);
                        let eq = ax.eq.clone();
                        for s in eq {
                            match s {
                                Sym::Len(..) => {
                                    r.add_hi_sym(s, 0);
                                    r.add_lo_sym(s, 0);
                                }
                                Sym::Var(h) => {
                                    if env.var(h).is_some_and(|iv| iv.lo >= 0) {
                                        r.add_hi_sym(s, 0);
                                        r.add_lo_sym(s, 0);
                                    }
                                }
                                Sym::NegLen(..) => {}
                            }
                        }
                    }
                    r.add_hi_sym(Sym::Len(*t, 0), 0);
                    r.add_lo_sym(Sym::Len(*t, 0), 0);
                }
                Operand::Const(Constant::I64Array(a)) => r = Ival::exact(a.len() as i64),
                Operand::Const(Constant::F64Array(a)) => r = Ival::exact(a.len() as i64),
                _ => {}
            }
            env.set_var(dst, r);
        }
        Prim::StringLength => env.set_var(dst, Ival::range(0, POS_INF)),
        Prim::TensorPart1 => {
            assume_in_bounds(env, kinds, arg(0)?, &[(arg(1)?, 0)]);
        }
        Prim::TensorPart2 => {
            assume_in_bounds(env, kinds, arg(0)?, &[(arg(1)?, 0), (arg(2)?, 1)]);
        }
        Prim::TensorSet1 | Prim::TensorSetRow => {
            let (t, i, _) = (arg(0)?, arg(1)?, arg(2)?);
            set_dims_from(env, kinds, dst, t);
            assume_in_bounds(env, kinds, t, &[(i, 0)]);
        }
        Prim::TensorSet2 => {
            let (t, i, j, _) = (arg(0)?, arg(1)?, arg(2)?, arg(3)?);
            set_dims_from(env, kinds, dst, t);
            assume_in_bounds(env, kinds, t, &[(i, 0), (j, 1)]);
        }
        Prim::TensorFill1 => {
            let ax = axis_from_count(env, kinds, arg(1)?);
            env.set_dims(dst, vec![ax]);
        }
        Prim::TensorFill2 => {
            let ax1 = axis_from_count(env, kinds, arg(1)?);
            let ax2 = axis_from_count(env, kinds, arg(2)?);
            env.set_dims(dst, vec![ax1, ax2]);
        }
        Prim::ListConstruct => {
            env.set_dims(dst, vec![AxisLen::known(args.len() as i64)]);
        }
        Prim::TensorPlus | Prim::TensorSubtract | Prim::TensorTimes => {
            // Elementwise: the result shares every input's lengths.
            let shaped = args
                .iter()
                .find(|a| a.as_var().is_some_and(|v| env.dims(v).is_some()))?;
            set_dims_from(env, kinds, dst, shaped);
        }
        // No integer or length fact: real, complex, string and symbolic
        // results, integers of unbounded range, and tensors whose lengths
        // the operands do not determine (the caller gives those unknown
        // axes of the result's rank).
        Prim::Divide
        | Prim::Power
        | Prim::Floor
        | Prim::Ceiling
        | Prim::Round
        | Prim::Convert
        | Prim::ArcTan2
        | Prim::Elementary(_)
        | Prim::BitShiftLeft
        | Prim::Factorial
        | Prim::ComplexConstruct
        | Prim::ComplexRe
        | Prim::ComplexIm
        | Prim::ComplexConjugate
        | Prim::ComplexAbs
        | Prim::DotVector
        | Prim::DotMatrix
        | Prim::DotMatrixVector
        | Prim::TensorScalarPlus
        | Prim::TensorScalarSubtract
        | Prim::TensorScalarTimes
        | Prim::ScalarTensorPlus
        | Prim::ScalarTensorSubtract
        | Prim::ScalarTensorTimes
        | Prim::StringToCodes
        | Prim::StringFromCodes
        | Prim::StringJoin
        | Prim::RandomUnit
        | Prim::RandomRange
        | Prim::ExprPlus
        | Prim::ExprSubtract
        | Prim::ExprTimes
        | Prim::ExprPower
        | Prim::ExprUnary(_) => {}
    }
    Some(())
}

fn negate(c: Cmp) -> Cmp {
    match c {
        Cmp::Less => Cmp::GreaterEqual,
        Cmp::LessEqual => Cmp::Greater,
        Cmp::Greater => Cmp::LessEqual,
        Cmp::GreaterEqual => Cmp::Less,
        Cmp::Equal => Cmp::Unequal,
        Cmp::Unequal => Cmp::Equal,
    }
}

/// The interval dataflow problem: a prepass over variable kinds,
/// condition definitions and phi-carrying blocks, plus the block/edge
/// transfer functions.
struct Ranges {
    kinds: Kinds,
    cmps: HashMap<VarId, (Cmp, Operand, Operand)>,
    nots: HashMap<VarId, VarId>,
    /// Whether each block holds a phi (indexed by block number).
    has_phis: Vec<bool>,
}

impl Ranges {
    fn prepass(f: &Function) -> Ranges {
        let kinds = Kinds::of(f);
        let mut r = Ranges {
            cmps: HashMap::new(),
            nots: HashMap::new(),
            has_phis: f
                .blocks
                .iter()
                .map(|b| b.instrs.iter().any(|i| matches!(i, Instr::Phi { .. })))
                .collect(),
            kinds,
        };
        let kinds = &r.kinds;
        for i in f.instrs() {
            let Instr::Call {
                dst,
                callee: Callee::Primitive { prim, .. },
                args,
            } = i
            else {
                continue;
            };
            match (prim, &args[..]) {
                (Prim::Compare(cmp), [x, y]) if kinds.int_operand(x) && kinds.int_operand(y) => {
                    r.cmps.insert(*dst, (*cmp, x.clone(), y.clone()));
                }
                (Prim::Not, [Operand::Var(v)]) => {
                    r.nots.insert(*dst, *v);
                }
                _ => {}
            }
        }
        r
    }

    fn refine_var(&self, env: &mut Env, v: VarId, truth: bool, depth: u8) {
        env.set_var(v, Ival::exact(truth as i64));
        if depth == 0 {
            return;
        }
        if let Some(&inner) = self.nots.get(&v) {
            self.refine_var(env, inner, !truth, depth - 1);
        }
        if let Some((kind, l, r)) = self.cmps.get(&v) {
            apply_cmp(&self.kinds, env, *kind, l, r, truth);
        }
    }
}

/// Establishes `x <= y + off` in `env`.
fn bound_le(env: &mut Env, kinds: &Kinds, x: &Operand, y: &Operand, off: i64) {
    let yiv = eval(env, y);
    match x.as_var() {
        Some(xv) if kinds.is_i64(xv) => {
            let hi = add_hi(yiv.hi, off);
            let hi_syms = yiv.hi_syms.clone();
            let e = env.var_or_top(xv);
            e.hi = e.hi.min(hi);
            if let Some(yv) = y.as_var() {
                if kinds.is_i64(yv) {
                    e.add_hi_sym(Sym::Var(yv), off);
                }
            }
            for (s, k) in hi_syms {
                e.add_hi_sym(s, k.saturating_add(off));
            }
        }
        _ => {
            // const <= y + off  =>  y >= const - off.
            if let (Some(Constant::I64(k)), Some(yv)) = (x.as_const(), y.as_var()) {
                if kinds.is_i64(yv) {
                    let lo = k.saturating_sub(off);
                    let e = env.var_or_top(yv);
                    e.lo = e.lo.max(lo);
                }
            }
        }
    }
}

/// Establishes `x >= y + off` in `env`.
fn bound_ge(env: &mut Env, kinds: &Kinds, x: &Operand, y: &Operand, off: i64) {
    let yiv = eval(env, y);
    match x.as_var() {
        Some(xv) if kinds.is_i64(xv) => {
            let lo = add_lo(yiv.lo, off);
            let lo_syms = yiv.lo_syms.clone();
            let e = env.var_or_top(xv);
            e.lo = e.lo.max(lo);
            if let Some(yv) = y.as_var() {
                if kinds.is_i64(yv) {
                    e.add_lo_sym(Sym::Var(yv), off);
                }
            }
            for (s, k) in lo_syms {
                e.add_lo_sym(s, k.saturating_add(off));
            }
        }
        _ => {
            // const >= y + off  =>  y <= const - off.
            if let (Some(Constant::I64(k)), Some(yv)) = (x.as_const(), y.as_var()) {
                if kinds.is_i64(yv) {
                    let hi = k.saturating_sub(off);
                    let e = env.var_or_top(yv);
                    e.hi = e.hi.min(hi);
                }
            }
        }
    }
}

/// Trims an endpoint equal to a known-excluded value.
fn exclude(env: &mut Env, kinds: &Kinds, x: &Operand, y: &Operand) {
    let Some(k) = eval(env, y).singleton() else {
        return;
    };
    let Some(xv) = x.as_var() else { return };
    if !kinds.is_i64(xv) {
        return;
    }
    let e = env.var_or_top(xv);
    if k == 0 {
        e.nz = true;
    }
    if e.lo == k {
        e.lo = e.lo.saturating_add(1);
    }
    if e.hi == k {
        e.hi = e.hi.saturating_sub(1);
    }
}

fn apply_cmp(kinds: &Kinds, env: &mut Env, kind: Cmp, l: &Operand, r: &Operand, truth: bool) {
    let kind = if truth { kind } else { negate(kind) };
    match kind {
        Cmp::Less => {
            bound_le(env, kinds, l, r, -1);
            bound_ge(env, kinds, r, l, 1);
        }
        Cmp::LessEqual => {
            bound_le(env, kinds, l, r, 0);
            bound_ge(env, kinds, r, l, 0);
        }
        Cmp::Greater => {
            bound_ge(env, kinds, l, r, 1);
            bound_le(env, kinds, r, l, -1);
        }
        Cmp::GreaterEqual => {
            bound_ge(env, kinds, l, r, 0);
            bound_le(env, kinds, r, l, 0);
        }
        Cmp::Equal => {
            bound_le(env, kinds, l, r, 0);
            bound_ge(env, kinds, l, r, 0);
            bound_le(env, kinds, r, l, 0);
            bound_ge(env, kinds, r, l, 0);
        }
        Cmp::Unequal => {
            exclude(env, kinds, l, r);
            exclude(env, kinds, r, l);
        }
    }
}

impl Analysis for Ranges {
    type Fact = Env;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary(&self, _f: &Function) -> Env {
        let n = self.kinds.0.len();
        Env {
            reachable: true,
            vars: vec![None; n],
            dims: vec![None; n],
        }
    }

    fn transfer_block(&self, f: &Function, b: BlockId, fact: &mut Env) {
        if !fact.reachable {
            return;
        }
        for i in &f.block(b).instrs {
            transfer_instr(&self.kinds, fact, i);
        }
    }

    fn transfer_edge(&self, f: &Function, from: BlockId, to: BlockId, fact: &Env) -> Option<Env> {
        if !fact.reachable {
            return None;
        }
        // The branch condition and its value on this edge.
        let taken = match f.block(from).instrs.last() {
            Some(Instr::Branch {
                cond,
                then_block,
                else_block,
            }) if then_block != else_block => {
                if to == *then_block {
                    Some((cond, true))
                } else if to == *else_block {
                    Some((cond, false))
                } else {
                    None
                }
            }
            _ => None,
        };
        let has_phis = self.has_phis[to.0 as usize];
        let mut fact = match taken {
            Some((Operand::Const(Constant::Bool(b)), truth)) if *b != truth => {
                return Some(Env::bottom());
            }
            Some((Operand::Var(v), truth)) => {
                let mut fact = fact.clone();
                self.refine_var(&mut fact, *v, truth, 4);
                fact
            }
            _ if has_phis => fact.clone(),
            _ => return None,
        };
        if !has_phis {
            return Some(fact);
        }
        // Parallel per-edge phi assignment: evaluate every incoming
        // operand in the predecessor's (refined) environment first,
        // then write all destinations.
        let kinds = &self.kinds;
        let mut writes = Vec::new();
        for instr in &f.block(to).instrs {
            let Instr::Phi { dst, incoming } = instr else {
                continue;
            };
            for (p, op) in incoming {
                if *p != from {
                    continue;
                }
                let iv = kinds.int_like(*dst).then(|| {
                    let mut iv = eval(&fact, op);
                    if let Some(src) = op.as_var() {
                        if kinds.int_like(src) {
                            iv.add_hi_sym(Sym::Var(src), 0);
                            iv.add_lo_sym(Sym::Var(src), 0);
                        }
                    }
                    iv
                });
                let dims = match op {
                    Operand::Var(s) => kinds.tensor_rank(*s).map(|rank| {
                        let mut d = fact
                            .dims(*s)
                            .cloned()
                            .unwrap_or_else(|| vec![AxisLen::unknown(); rank]);
                        for (i, ax) in d.iter_mut().enumerate() {
                            ax.add_eq(Sym::Len(*s, i as u8));
                        }
                        d
                    }),
                    Operand::Const(Constant::I64Array(a)) => {
                        Some(vec![AxisLen::known(a.len() as i64)])
                    }
                    Operand::Const(Constant::F64Array(a)) => {
                        Some(vec![AxisLen::known(a.len() as i64)])
                    }
                    _ => None,
                };
                writes.push((*dst, iv, dims));
            }
        }
        for (dst, iv, dims) in writes {
            fact.vars[dst.0 as usize] = iv.map(Rc::new);
            fact.dims[dst.0 as usize] = dims.map(Rc::new);
        }
        Some(fact)
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

fn part_lint(
    env: &Env,
    f: &Function,
    t_op: &Operand,
    idx: &Operand,
    (b, ix): (BlockId, usize),
    diags: &mut Vec<Diagnostic>,
) {
    let k = match idx {
        Operand::Const(Constant::I64(k)) => *k,
        Operand::Var(v) => match env.var(*v).and_then(Ival::singleton) {
            Some(k) => k,
            None => return,
        },
        _ => return,
    };
    let len = {
        let facts = axis_facts(env, t_op, 0);
        if facts.min_len != facts.max_len {
            return;
        }
        facts.min_len
    };
    if k == 0 || k > len || k < -len {
        diags.push(
            Diagnostic::warning(
                "part-out-of-bounds",
                f,
                format!("Part index {k} is out of range for a list of length {len}"),
            )
            .at(b, Some(ix)),
        );
    }
}

fn inspect(
    f: &Function,
    kinds: &Kinds,
    env: &Env,
    site: (BlockId, usize),
    instr: &Instr,
    facts: &mut FnRangeFacts,
    diags: &mut Vec<Diagnostic>,
) {
    let Instr::Call { callee, args, .. } = instr else {
        return;
    };
    match callee {
        Callee::Builtin(n) if &**n == "Part" && args.len() == 2 => {
            part_lint(env, f, &args[0], &args[1], site, diags);
        }
        Callee::Primitive { prim, params } => {
            let sites: &[(usize, usize)] = match prim {
                Prim::TensorPart1 if args.len() == 2 => &[(1, 0)],
                Prim::TensorPart2 if args.len() == 3 => &[(1, 0), (2, 1)],
                Prim::TensorSet1 | Prim::TensorSetRow if args.len() == 3 => &[(1, 0)],
                Prim::TensorSet2 if args.len() == 4 => &[(1, 0), (2, 1)],
                _ => &[],
            };
            if !sites.is_empty() {
                facts.parts_total += 1;
                if sites
                    .iter()
                    .all(|&(arg, axis)| prove_index(env, &args[0], &args[arg], axis))
                {
                    facts.proved_parts.insert(site);
                    facts.parts_proved += 1;
                }
                if *prim == Prim::TensorPart1 {
                    part_lint(env, f, &args[0], &args[1], site, diags);
                }
                return;
            }
            if matches!(prim, Prim::Plus | Prim::Subtract | Prim::Times)
                && args.len() == 2
                && params.first().is_some_and(is_integer64)
                && args.iter().all(|a| kinds.int_operand(a))
            {
                facts.arith_total += 1;
                let a = eval(env, &args[0]);
                let bi = eval(env, &args[1]);
                let (alo, ahi) = (
                    resolve_lo(env, &a, 2) as i128,
                    resolve_hi(env, &a, 2) as i128,
                );
                let (blo, bhi) = (
                    resolve_lo(env, &bi, 2) as i128,
                    resolve_hi(env, &bi, 2) as i128,
                );
                let (lo, hi) = match prim {
                    Prim::Plus => (alo + blo, ahi + bhi),
                    Prim::Subtract => (alo - bhi, ahi - blo),
                    _ => {
                        let c = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
                        (*c.iter().min().unwrap(), *c.iter().max().unwrap())
                    }
                };
                if lo >= i64::MIN as i128 && hi <= i64::MAX as i128 {
                    facts.proved_arith.insert(site);
                    facts.arith_proved += 1;
                }
            }
        }
        _ => {}
    }
}

fn run(f: &Function) -> (FnRangeFacts, Vec<Diagnostic>) {
    let mut facts = FnRangeFacts::default();
    let mut diags = Vec::new();
    if f.blocks.is_empty() {
        return (facts, diags);
    }
    let cfg = Cfg::new(f);
    let ranges = Ranges::prepass(f);
    let mut res = solve(&ranges, f, &cfg);
    // Narrowing: re-apply the edge-refined transfer without widening.
    // `x ⊓ F(x)` stays above the least fixpoint, so two rounds are sound
    // and recover most of what the threshold snap overshot.
    for _ in 0..2 {
        let mut changed = false;
        for &b in &cfg.rpo {
            let ix = b.0 as usize;
            let fresh = flow_in(&ranges, f, &cfg, b, &res.on_exit, |acc, along| {
                acc.join_impl(along, false);
            });
            let entry = res.on_entry[ix].get_or_insert_with(Env::bottom);
            let mut narrowed = entry.clone();
            narrowed.meet(&fresh);
            // The stored exit is the transfer of the stored entry.
            if narrowed == *entry {
                continue;
            }
            let mut exit = narrowed.clone();
            ranges.transfer_block(f, b, &mut exit);
            *entry = narrowed;
            res.on_exit[ix] = Some(exit);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    for &b in &cfg.rpo {
        let Some(entry) = res.entry(b) else {
            continue;
        };
        if !entry.reachable {
            continue;
        }
        let mut env = entry.clone();
        for (ix, instr) in f.block(b).instrs.iter().enumerate() {
            inspect(
                f,
                &ranges.kinds,
                &env,
                (b, ix),
                instr,
                &mut facts,
                &mut diags,
            );
            transfer_instr(&ranges.kinds, &mut env, instr);
        }
    }
    (facts, diags)
}

/// Runs the interval analysis and returns the elision facts.
pub fn analyze_ranges(f: &Function) -> FnRangeFacts {
    run(f).0
}

/// Runs the interval analysis over every function of a module.
pub fn analyze_module_ranges(pm: &ProgramModule) -> RangeFacts {
    RangeFacts {
        functions: pm
            .functions
            .iter()
            .map(|f| (f.name.clone(), analyze_ranges(f)))
            .collect(),
    }
}

/// Flow-sensitive `part-out-of-bounds` lint: warns when a Part index is
/// a known constant provably outside a known-length list on a reachable
/// path.
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

    /// `t = fill(0, 100); i = 1; while i <= 100 { t[[i]]; i = i + 1 }`
    #[test]
    fn counted_loop_widens_terminates_and_proves() {
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
    /// unknown sign: the post-state is `k ∈ [-len, -1] ∪ [1, len]`.
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

    /// `If[1 <= i && i <= n]` (as nested branches) narrows `i` on the
    /// true edges; the guarded `fill(n)[[i]]` proves, the unguarded
    /// access on the else path does not.
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

    /// Widening terminates even when both comparands move.
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
        // Completing at all is the assertion: the widening ladder must
        // bring the two moving endpoints to a fixpoint.
        let facts = analyze_ranges(&f);
        assert_eq!(facts.parts_total, 0);
        assert_eq!(facts.arith_total, 2);
    }

    #[test]
    fn quotient_on_infeasible_refined_path_does_not_panic() {
        // Regression (found by the differential fuzzer): refining `b >= 1`
        // on a constant-zero `b` yields the inconsistent interval [1, 0]
        // on the (infeasible) true edge, and the quotient transfer used to
        // feed its hi endpoint straight into `div_euclid` — divide by zero.
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

    #[test]
    fn the_solver_transfers_only_blocks_whose_inputs_moved() {
        // A count, not a timer. Re-transferring every block on every sweep
        // until one changes nothing took 1,725 block transfers on QSort
        // (69 sweeps of 25 blocks: one per ladder step per loop-carried
        // variable) and 555 on PrimeQ.
        use wolfram_bench::{programs, workloads};
        let primeq = programs::primeq_src(&workloads::prime_seed_table());
        for (name, src, bound) in [
            ("QSort", programs::QSORT_SRC, 600),
            ("PrimeQ", primeq.as_str(), 500),
        ] {
            let f = paper_main(src);
            let cfg = Cfg::new(&f);
            let transfers = solve(&Ranges::prepass(&f), &f, &cfg).transfers;
            assert!(
                (cfg.rpo.len()..=bound).contains(&transfers),
                "{name}: {transfers} block transfers, bound {bound}"
            );
        }
    }
}
