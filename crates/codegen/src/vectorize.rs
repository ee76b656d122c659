//! Counted-loop vectorizer: batched execution of scalar loops.
//!
//! Scans fused native code for innermost counted loops of three shapes and
//! plants a [`RegOp::VecLoop`] superinstruction in front of the loop
//! header (the compiler runs this pass right after fusion on every
//! compile, unless its `loop_vectorize` option is off):
//!
//! - a straight-line dense `f64` tensor map (Blur's stencil row, Listable
//!   inner loops);
//! - an `i64` scatter-add `t[[k]] = t[[k]] + v` whose index `k` is
//!   computed from loaded data (Histogram's `bins[[b]] = bins[[b]] + 1`);
//! - an `i64` fold `h = f(h, …)` of one loop-carried register and no store
//!   (FNV1a's `h = Mod[BitXor[h, bytes[[i]]] * 16777619, 2^32]`).
//!
//! At run time the VecLoop executes all but the final iteration as one
//! batch, on the calling thread, then falls through to the untouched
//! scalar loop for the last iteration and the exit test. When a precheck
//! fails the VecLoop is a no-op and the scalar loop runs exactly as before.
//! [`plan_loops`] reports each loop's verdict: its plan, or the
//! [`Refusal`] that names why it stays scalar.
//!
//! One executor runs all three shapes: columns, then a sink. At batch
//! entry every node resolves to a column: one value shared by every
//! element (a constant, a loop invariant, a load at a fixed index), a
//! borrowed contiguous run of an input, or a scratch column that a step (a
//! strided gather, or an op on earlier columns — the `f64` ones through
//! the SIMD kernels) fills per 1,024-element block. Then one block loop
//! fills each block's columns up to the first element a checked op fails,
//! and hands that valid prefix to the shape's sink: the map writes the
//! root column at its affine address, the scatter-add resolves each index
//! and adds, and the fold runs its chain per element. A sink returns how
//! many elements it committed, and the batch stops at the first block it
//! does not commit whole.
//!
//! # Soundness
//!
//! The planner refuses by default. A loop is batched only when every
//! instruction in it is on a short whitelist — the ops counted loops
//! lowered from source actually hold: affine integer `+ − ×` and `Neg`,
//! `LdcI`/`MovI`; `LdcF`/`MovF` and real `+ − × /`; `f64` and `i64`
//! `TenPart1/2` loads; checked integer `+ − ×`, `BitXor` and `Mod` by a
//! nonzero constant on loaded values or a fold's carried value, with loop
//! invariants (read once at batch entry) for the other operand; one
//! `TenSet1/2` store; and `AbortCheck`. Anything else (calls, boxing, value
//! moves, refcount ops, compares, casts, unary math, complex elements)
//! refuses the whole loop. On the whitelist the batch is observationally
//! identical to the scalar iterations it replaces:
//!
//! - **Loop-carried scalars.** Any register (int or float) that is read
//!   before its first write in the iteration and also written by the
//!   body — other than the induction variable — refuses the loop, even
//!   when its value never reaches the store: the batch replays no
//!   per-iteration scalar updates, so a running accumulator next to the
//!   store (`s = s + x[[j]]`) would otherwise exit the loop holding only
//!   the tail iteration's update. The tail iteration recomputes every
//!   register the body writes from invariants, loads and the advanced
//!   induction variable, so it leaves each as the last scalar iteration
//!   would.
//! - **The fold.** The one exception: a body with no store whose only
//!   loop-carried register is an integer. The planner re-runs the
//!   iteration with that register's entry value as a node, and the
//!   register's value at the end of the iteration is the plan's root. The
//!   chain is linear: each node that depends on the carried value takes it
//!   through exactly one operand, and with every node live (below) those
//!   nodes form one path, so the value feeds nothing but its own chain —
//!   no index, no second use. At run time the nodes that do not depend on
//!   it are columns as in the scatter-add; the chain is resolved per block
//!   into links, each with the carried value on the left (a commutative op
//!   swapped, `x − h` its own link) and a column on the right, and runs
//!   once per element. The batch writes the result back
//!   before the tail iteration runs, so the tail continues from the value
//!   the scalar iterations would have carried. Induction-variable nodes
//!   are not planned: `s = s + i*i` stays refused as `LoopCarried`.
//! - **Errors.** Abort polls aside, a whitelisted op raises only through
//!   one of the conditions below, and every value the body computes feeds
//!   the store, its index or the fold's result (a dead one refuses the
//!   loop, so no check goes untested). A batch never commits an iteration where the scalar loop
//!   would have raised.
//! - **Integer overflow, affine.** A checked integer result that is an
//!   affine function of the induction variable and loop invariants has
//!   its value over the whole batch range endpoint-checked in `i128` at
//!   run time (linear ⇒ endpoints suffice), falling back to the scalar
//!   loop — which raises at exactly the right iteration — on overflow.
//! - **Integer overflow, data-dependent.** A checked `+ − ×` on a loaded
//!   or carried value (and the scatter-add's sum) is tested per element:
//!   its value comes from data, so no endpoint test can prove it.
//! - **Part bounds.** Affine load/store indices are range-checked against
//!   the tensor shape at both endpoints (1-based, negative or out-of-range
//!   indices fall back to the scalar path and its error). The
//!   scatter-add's data-dependent index is resolved per element by the
//!   scalar op's own rule (`resolve_part_index`: negative indices count
//!   from the end, 0 and out-of-range indices fail).
//! - **Commit up to the fault.** A per-element check cannot be made at
//!   batch entry. The scatter-add and the fold therefore stop at the first
//!   element whose overflow or bounds check fails: they commit every
//!   element before it (the fold writes back the value carried *into*
//!   it), set the induction variable to it and return, so the scalar loop
//!   re-runs that element and raises the exact error at the exact
//!   position. The `f64` map keeps its entry prechecks.
//! - **Division.** A divisor (real `/`, integer `Mod`) must be a nonzero
//!   constant; a register or zero divisor refuses the loop. `Mod` by a
//!   positive power of two `2^k` runs as `x & (2^k − 1)`: under floored
//!   `Mod` the result lies in `[0, 2^k)` and differs from `x` by a multiple
//!   of `2^k`, which is exactly the low `k` bits of `x` in two's
//!   complement, for every `i64` including negative ones. Any other
//!   divisor runs through the scalar op's own `mod_i64`.
//! - **Copy-on-write.** Inputs are `Arc`-cloned first, then the output
//!   tensor takes `data_mut()`: it copies iff the storage is shared at
//!   batch entry — the same condition the scalar loop's first store sees.
//!   A sink takes it only once the first element is known to commit, as
//!   the scalar store would (the map's prechecks already guarantee that
//!   element); a fold writes no tensor. Loads
//!   never read the output object but for the scatter-add's `t[[k]]` at
//!   the store's own index (plan-time refusal), which reads the elements
//!   in iteration order, so the batch writes the same bytes the scalar
//!   iterations would.
//! - **Values and refcounts.** The body writes no value register and
//!   holds no refcount op, so every value slot and the acquire/release
//!   counters end the batch as the scalar iterations would leave them; the
//!   only scalar registers the batch writes are the induction variable
//!   and a fold's carried register.
//! - **Aborts.** The batch polls the abort flag once per 1,024-element
//!   block instead of per iteration — a documented relaxation; an abort
//!   mid-batch unwinds like any other error.
//!
//! The only observable difference, documented in DESIGN.md, is the abort
//! polling granularity.

use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;
use std::sync::Arc;

use crate::machine::{
    splice, Bank, ElemKind, FltOp, IntOp, IntUnOp, NativeFunc, NativeProgram, RegOp, Slot,
};
use wolfram_runtime::checked::{mod_i64, resolve_part_index};
use wolfram_runtime::simd::{self, SimdOp};
use wolfram_runtime::{AbortSignal, RuntimeError, Tensor, TensorData, Value};

/// Smallest batch (iterations beyond the tail) worth vectorizing.
const VEC_MIN: i128 = 8;

/// Elements evaluated per scratch block; the batch polls the abort signal
/// once per block.
const BLOCK: usize = 1024;

// ---------------------------------------------------------------------------
// Plan representation (embedded in `RegOp::VecLoop`).
// ---------------------------------------------------------------------------

/// An affine form `c + Σ coef·Init(reg)` over the entry values of integer
/// registers. In a plan the only register the body writes that a form may
/// name is the induction variable, which holds its entry value plus `k` at
/// iteration `k` of the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Constant term.
    pub c: i64,
    /// Integer registers with coefficients, sorted by register, none zero.
    pub terms: Vec<(u32, i64)>,
}

impl Affine {
    fn konst(c: i64) -> Self {
        Affine {
            c,
            terms: Vec::new(),
        }
    }

    fn reg(r: u32) -> Self {
        Affine {
            c: 0,
            terms: vec![(r, 1)],
        }
    }

    /// The coefficient of register `r`.
    fn coef(&self, r: u32) -> i64 {
        self.terms.iter().find(|t| t.0 == r).map_or(0, |t| t.1)
    }

    /// `self + other`, or `self − other` when `negate`.
    fn add(&self, other: &Affine, negate: bool) -> Option<Affine> {
        let op = if negate {
            i64::checked_sub
        } else {
            i64::checked_add
        };
        let mut terms = self.terms.clone();
        for &(r, co) in &other.terms {
            match terms.binary_search_by_key(&r, |t| t.0) {
                Ok(i) => terms[i].1 = op(terms[i].1, co)?,
                Err(i) => terms.insert(i, (r, op(0, co)?)),
            }
        }
        terms.retain(|t| t.1 != 0);
        let c = op(self.c, other.c)?;
        Some(Affine { c, terms })
    }

    fn scale(&self, k: i64) -> Option<Affine> {
        let c = self.c.checked_mul(k)?;
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(r, co) in &self.terms {
            let co = co.checked_mul(k)?;
            if co != 0 {
                terms.push((r, co));
            }
        }
        Some(Affine { c, terms })
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.c)
    }

    /// Is exactly `Init(r) + 1` (the induction-variable step)?
    fn is_incr_of(&self, r: u32) -> bool {
        self.c == 1 && self.terms == [(r, 1)]
    }

    /// Evaluates at iteration `k` of a batch whose induction variable is
    /// register `iv`, in `i128`. Each product of two `i64` fits `i128`,
    /// but a multi-term sum can still wrap, so every step is checked;
    /// `None` means the precheck using this value must fail and the batch
    /// falls back to the scalar loop.
    fn eval(&self, ints: &[i64], iv: u32, k: i128) -> Option<i128> {
        let mut acc = i128::from(self.c);
        for &(r, co) in &self.terms {
            let x = i128::from(ints[r as usize]) + if r == iv { k } else { 0 };
            acc = acc.checked_add(i128::from(co).checked_mul(x)?)?;
        }
        Some(acc)
    }
}

/// One value in the batched dataflow graph. A plan's nodes are all `f64`
/// (under a map) or all `i64` (under a scatter-add or a fold). The planner
/// builds them over symbolic indices `I` and lowers those to [`Affine`].
#[derive(Debug, Clone, PartialEq)]
pub enum VecNode<I = Affine> {
    /// Literal constant.
    Const(f64),
    /// Loop-invariant float register (read at batch entry).
    Reg(u32),
    /// Tensor element load — `f64` in a map, `i64` otherwise; `row` is
    /// `None` for rank-1 tensors. Indices are 1-based affine forms,
    /// bounds-checked at batch entry.
    Load {
        /// Value slot holding the tensor (never the output object).
        slot: u32,
        /// Row index (rank-2 only).
        row: Option<I>,
        /// Column (or sole) index.
        col: I,
    },
    /// Elementwise binary op over two earlier nodes.
    Bin {
        /// The operation.
        op: SimdOp,
        /// Left operand node index.
        l: u32,
        /// Right operand node index.
        r: u32,
    },
    /// Loop-invariant integer, affine in registers the body does not write
    /// (read at batch entry); a constant has no terms.
    Int(Affine),
    /// Integer op of two earlier nodes: checked `+ − ×` (tested per
    /// element), `BitXor`, or `Mod` by a nonzero constant
    /// [`VecNode::Int`] on the right.
    IntBin {
        /// The operation: `Add`, `Sub`, `Mul`, `BitXor` or `Mod`.
        op: IntOp,
        /// Left operand node index.
        l: u32,
        /// Right operand node index.
        r: u32,
    },
    /// A fold's carried register at the start of an iteration.
    Carried,
}

/// What each iteration produces from the plan's root node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOut {
    /// `out[[row, col]] = root` at affine indices, endpoint-checked at
    /// batch entry: an `f64` map.
    Map {
        /// Value slot holding the output tensor.
        slot: u32,
        /// Required rank (1 or 2).
        rank: u32,
        /// Row index affine (rank-2 only).
        row: Option<Affine>,
        /// Column (or sole) index affine.
        col: Affine,
    },
    /// `out[[k]] = out[[k]] + root` into a rank-1 tensor, with `k` the
    /// value of node `index`: an `i64` scatter-add, its index resolved
    /// and its sum checked per element.
    AddAt {
        /// Value slot holding the output tensor.
        slot: u32,
        /// The node computing `k`.
        index: u32,
    },
    /// `reg = root`, where the chain from [`VecNode::Carried`] to `root`
    /// reads `reg`'s previous value: an `i64` fold, written back at the
    /// end of the batch.
    Fold {
        /// The carried integer register.
        reg: u32,
    },
}

/// Everything the VecLoop executor needs, computed once at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct VecPlan {
    /// Induction-variable integer register.
    pub iv: u32,
    /// Loop-bound integer register (invariant).
    pub bound: u32,
    /// Whether the header compare is `Le` (`Lt` otherwise).
    pub inclusive: bool,
    /// What the loop body produces: a store or the carried register.
    pub out: PlanOut,
    /// Dataflow nodes in topological order.
    pub nodes: Vec<VecNode>,
    /// Node index producing the stored element (the addend of a
    /// scatter-add, the carried register's next value in a fold).
    pub root: u32,
    /// Affine results of checked integer ops; each endpoint must fit
    /// `i64` over the batch range or the batch falls back.
    pub int_checks: Vec<Affine>,
}

impl VecPlan {
    /// Every register the batch reads or writes, with its bank (for
    /// [`RegOp::regs`]).
    pub(crate) fn regs(&self) -> Vec<Slot> {
        let mut regs = vec![Slot::new(Bank::I, self.iv), Slot::new(Bank::I, self.bound)];
        let mut affines: Vec<&Affine> = self.int_checks.iter().collect();
        for n in &self.nodes {
            match n {
                VecNode::Reg(r) => regs.push(Slot::new(Bank::F, *r)),
                VecNode::Int(a) => affines.push(a),
                VecNode::Load { slot, row, col } => {
                    regs.push(Slot::new(Bank::V, *slot));
                    affines.extend(row.iter().chain([col]));
                }
                _ => {}
            }
        }
        match &self.out {
            PlanOut::Map { slot, row, col, .. } => {
                regs.push(Slot::new(Bank::V, *slot));
                affines.extend(row.iter().chain([col]));
            }
            PlanOut::AddAt { slot, .. } => regs.push(Slot::new(Bank::V, *slot)),
            PlanOut::Fold { reg } => regs.push(Slot::new(Bank::I, *reg)),
        }
        let terms = affines.into_iter().flat_map(|a| &a.terms);
        regs.extend(terms.map(|&(r, _)| Slot::new(Bank::I, r)));
        regs
    }
}

/// Why the planner leaves a loop scalar: one variant per refusal site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Not a counted loop: the header is not `iv < bound` (or `<=`), its
    /// exit lands in the body, or an iteration does not step `iv` by one
    /// under an invariant bound.
    NotCounted,
    /// The body branches, or code outside it jumps in.
    Branches,
    /// An op (its mnemonic) off the whitelist, or in a shape the plans do
    /// not batch.
    Op(&'static str),
    /// A register (bank and index) other than the induction variable
    /// carries its value from one iteration into the next.
    LoopCarried(Bank, u32),
    /// The body stores no element.
    NoStore,
    /// The body stores more than one element.
    SecondStore,
    /// A value the body computes feeds no store, so its checks would go
    /// untested.
    DeadLoad,
    /// A load reads the output object, other than the scatter-add's
    /// `t[[k]]` at the store's own index.
    ReadsOutput,
    /// An index computed from loaded data, other than a scatter-add's.
    DataIndex,
    /// The loop overlaps one planned before it.
    Nested,
}

// ---------------------------------------------------------------------------
// Plan-time symbolic execution.
// ---------------------------------------------------------------------------

/// Symbolic value of a register.
#[derive(Debug, Clone, PartialEq)]
enum Sym {
    /// An integer affine in the entry values of integer registers.
    Aff(Affine),
    /// The value of node `n`: loaded data, or computed from it or from a
    /// fold's carried register (every float value is a node).
    Node(usize),
}

/// A dataflow node at plan time: its indices are symbolic.
type SymNode = VecNode<Sym>;

/// A load or store address: value slot, rank, row (rank 2) and column.
type SymAddr = (u32, u32, Option<Sym>, Sym);

/// The body's one store.
#[derive(Debug, Clone)]
struct SymStore {
    addr: SymAddr,
    /// The node it stores.
    value: usize,
    mnemonic: &'static str,
}

#[derive(Default)]
struct Planner {
    /// The induction variable.
    iv: u32,
    /// Each register's value so far in the iteration.
    regs: HashMap<Slot, Sym>,
    written: HashSet<Slot>,
    /// Registers read before their first write in the iteration: their
    /// entry value is live into the body, so writing them makes the
    /// register loop-carried.
    first_read: HashSet<Slot>,
    nodes: Vec<SymNode>,
    store: Option<SymStore>,
    int_checks: Vec<Affine>,
    /// The first integer op off the whitelist. It does not stop the scan,
    /// so that the loop-carried test can name the more basic reason.
    deferred: Option<Refusal>,
}

impl Planner {
    /// A planner for the loop of induction variable `iv`; with `fold`, its
    /// integer register `fold` holds the fold's [`SymNode::Carried`], node 0.
    fn new(iv: u32, fold: Option<u32>) -> Self {
        let mut pl = Planner {
            iv,
            ..Planner::default()
        };
        if let Some(r) = fold {
            let n = pl.push(SymNode::Carried);
            pl.regs.insert(Slot::new(Bank::I, r), Sym::Node(n));
        }
        pl
    }

    fn rd(&mut self, s: Slot) -> Option<Sym> {
        if !self.written.contains(&s) {
            self.first_read.insert(s);
        }
        self.regs.get(&s).cloned()
    }

    fn rd_i(&mut self, r: u32) -> Sym {
        let s = self.rd(Slot::new(Bank::I, r));
        s.unwrap_or_else(|| Sym::Aff(Affine::reg(r)))
    }

    fn rd_f(&mut self, r: u32) -> usize {
        let s = Slot::new(Bank::F, r);
        if let Some(Sym::Node(n)) = self.rd(s) {
            return n;
        }
        let n = self.push(SymNode::Reg(r));
        self.regs.insert(s, Sym::Node(n));
        n
    }

    fn wr(&mut self, bank: Bank, r: u32, v: Sym) {
        let s = Slot::new(bank, r);
        self.regs.insert(s, v);
        self.written.insert(s);
    }

    fn push(&mut self, n: SymNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Integer binary op: affine when both operands are (its result
    /// endpoint-checked), a node when either comes from data or the
    /// carried register: checked `+ − ×`, `BitXor`, or `Mod` by a nonzero
    /// constant. Any other op (`None`) refuses the loop.
    fn int_bin_sym(&mut self, op: IntOp, x: &Sym, y: &Sym) -> Option<Sym> {
        use IntOp::*;
        if let (Sym::Aff(x), Sym::Aff(y)) = (x, y) {
            let out = match op {
                Add | AddU => x.add(y, false)?,
                Sub | SubU => x.add(y, true)?,
                Mul | MulU => match (x.as_const(), y.as_const()) {
                    (_, Some(k)) => x.scale(k)?,
                    (Some(k), None) => y.scale(k)?,
                    (None, None) => return None,
                },
                _ => return None,
            };
            self.int_checks.push(out.clone());
            return Some(Sym::Aff(out));
        }
        let op = match op {
            Add | AddU => Add,
            Sub | SubU => Sub,
            Mul | MulU => Mul,
            BitXor => BitXor,
            Mod if matches!(y, Sym::Aff(a) if a.as_const().is_some_and(|c| c != 0)) => Mod,
            _ => return None,
        };
        let (l, r) = (self.int_node(x)?, self.int_node(y)?);
        let (l, r) = (l as u32, r as u32);
        Some(Sym::Node(self.push(SymNode::IntBin { op, l, r })))
    }

    /// An operand of a data-dependent op as a node: an affine value free
    /// of the induction variable is an invariant the batch reads once at
    /// entry; one that moves with it refuses (no column of the induction
    /// variable is planned).
    fn int_node(&mut self, x: &Sym) -> Option<usize> {
        match x {
            Sym::Node(n) => Some(*n),
            Sym::Aff(a) if a.coef(self.iv) == 0 => Some(self.push(SymNode::Int(a.clone()))),
            Sym::Aff(_) => None,
        }
    }

    /// [`Self::int_bin_sym`] into `d`; an op it refuses is deferred, and
    /// `d` gets a stand-in node so the scan goes on.
    fn int_bin(&mut self, op: IntOp, d: u32, x: &Sym, y: &Sym, refuse: Refusal) {
        let out = self.int_bin_sym(op, x, y).unwrap_or_else(|| {
            self.deferred.get_or_insert(refuse);
            Sym::Node(self.push(SymNode::Int(Affine::konst(0))))
        });
        self.wr(Bank::I, d, out);
    }

    /// Real `+ − ×`, and `/` by a nonzero constant: the scalar `Div`
    /// raises on a zero divisor, which the batch cannot test per element.
    /// Anything else (`None`) refuses the loop.
    fn flt_bin_sym(&mut self, op: FltOp, l: usize, r: usize) -> Option<usize> {
        let op = match op {
            FltOp::Add => SimdOp::Add,
            FltOp::Sub => SimdOp::Sub,
            FltOp::Mul => SimdOp::Mul,
            FltOp::Div if matches!(self.nodes[r], SymNode::Const(c) if c != 0.0) => SimdOp::Div,
            _ => return None,
        };
        let (l, r) = (l as u32, r as u32);
        Some(self.push(SymNode::Bin { op, l, r }))
    }

    /// The address of an element access; `j` is the column of a rank-2
    /// access.
    fn addr_sym(&mut self, t: u32, i: u32, j: Option<u32>) -> SymAddr {
        let first = self.rd_i(i);
        match j {
            None => (t, 1, None, first),
            Some(j) => (t, 2, Some(first), self.rd_i(j)),
        }
    }

    /// An `f64` or `i64` element load into `d`; a complex one (`None`)
    /// refuses.
    fn load_sym(&mut self, kind: ElemKind, d: u32, addr: SymAddr) -> Option<()> {
        let bank = match kind {
            ElemKind::F64 => Bank::F,
            ElemKind::I64 => Bank::I,
            ElemKind::C64 => return None,
        };
        let (slot, _, row, col) = addr;
        let n = self.push(SymNode::Load { slot, row, col });
        self.wr(bank, d, Sym::Node(n));
        Some(())
    }

    /// The body's one store: `f64` at an affine address, or `i64` at a
    /// data-dependent rank-1 index (a scatter-add candidate).
    fn store_sym(
        &mut self,
        kind: ElemKind,
        addr: SymAddr,
        v: u32,
        mnemonic: &'static str,
    ) -> Result<(), Refusal> {
        if self.store.is_some() {
            return Err(Refusal::SecondStore);
        }
        let value = match (kind, &addr) {
            (ElemKind::F64, (_, _, None | Some(Sym::Aff(_)), Sym::Aff(_))) => self.rd_f(v),
            (ElemKind::F64, _) => return Err(Refusal::DataIndex),
            (ElemKind::I64, (_, 1, None, Sym::Node(_))) => {
                let x = self.rd_i(v);
                self.int_node(&x).ok_or(Refusal::Op(mnemonic))?
            }
            _ => return Err(Refusal::Op(mnemonic)),
        };
        self.store = Some(SymStore {
            addr,
            value,
            mnemonic,
        });
        Ok(())
    }

    /// Symbolically executes one body op — a superinstruction as the
    /// primitives it is made of.
    fn step(&mut self, op: &RegOp) -> Result<(), Refusal> {
        op.parts().iter().try_for_each(|p| self.step_primitive(p))
    }

    fn step_primitive(&mut self, op: &RegOp) -> Result<(), Refusal> {
        let refuse = Refusal::Op(op.mnemonic());
        match op {
            RegOp::LdcI { d, v } => self.wr(Bank::I, *d, Sym::Aff(Affine::konst(*v))),
            RegOp::MovI { d, s } => {
                let f = self.rd_i(*s);
                self.wr(Bank::I, *d, f);
            }
            RegOp::IntBin { op, d, a, b } => {
                let (x, y) = (self.rd_i(*a), self.rd_i(*b));
                self.int_bin(*op, *d, &x, &y, refuse);
            }
            RegOp::IntBinImm { op, d, a, imm } => {
                let x = self.rd_i(*a);
                let imm = Sym::Aff(Affine::konst(*imm));
                self.int_bin(*op, *d, &x, &imm, refuse);
            }
            RegOp::IntUn {
                op: IntUnOp::Neg,
                d,
                s,
            } => {
                let Sym::Aff(x) = self.rd_i(*s) else {
                    return Err(refuse);
                };
                let out = x.scale(-1).ok_or(refuse)?;
                self.int_checks.push(out.clone());
                self.wr(Bank::I, *d, Sym::Aff(out));
            }
            RegOp::LdcF { d, v } => {
                let n = self.push(SymNode::Const(*v));
                self.wr(Bank::F, *d, Sym::Node(n));
            }
            RegOp::MovF { d, s } => {
                let n = self.rd_f(*s);
                self.wr(Bank::F, *d, Sym::Node(n));
            }
            RegOp::FltBin { op, d, a, b } => {
                let (l, r) = (self.rd_f(*a), self.rd_f(*b));
                let n = self.flt_bin_sym(*op, l, r).ok_or(refuse)?;
                self.wr(Bank::F, *d, Sym::Node(n));
            }
            RegOp::FltBinImm { op, d, a, imm } => {
                let l = self.rd_f(*a);
                let r = self.push(SymNode::Const(*imm));
                let n = self.flt_bin_sym(*op, l, r).ok_or(refuse)?;
                self.wr(Bank::F, *d, Sym::Node(n));
            }
            // Checked or not, a plan tests every index.
            RegOp::TenPart1 { kind, d, t, i, .. } => {
                let addr = self.addr_sym(*t, *i, None);
                self.load_sym(*kind, *d, addr).ok_or(refuse)?;
            }
            RegOp::TenPart2 {
                kind, d, t, i, j, ..
            } => {
                let addr = self.addr_sym(*t, *i, Some(*j));
                self.load_sym(*kind, *d, addr).ok_or(refuse)?;
            }
            RegOp::TenSet1 { kind, t, i, v, .. } => {
                let addr = self.addr_sym(*t, *i, None);
                self.store_sym(*kind, addr, *v, op.mnemonic())?;
            }
            RegOp::TenSet2 {
                kind, t, i, j, v, ..
            } => {
                let addr = self.addr_sym(*t, *i, Some(*j));
                self.store_sym(*kind, addr, *v, op.mnemonic())?;
            }
            // The batch polls the abort flag once per block instead.
            RegOp::AbortCheck => {}
            // Anything else refuses.
            _ => return Err(refuse),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Loop discovery and plan construction.
// ---------------------------------------------------------------------------

/// The back-edge target of an op that ends in an unconditional jump.
fn latch_target(op: &RegOp) -> Option<usize> {
    match op.parts().last() {
        Some(RegOp::Jmp { pc }) => Some(*pc as usize),
        _ => None,
    }
}

/// Header compare shape: induction variable, bound, inclusivity, the
/// condition register it writes, the exit target and the body start.
struct Header {
    iv: u32,
    bound: u32,
    inclusive: bool,
    cond: u32,
    exit: usize,
    body: usize,
}

/// A counted-loop header is one dispatch made of: optional abort poll,
/// `cond = iv < bound` (or `<=`), `brz cond` to the exit, `jmp` to the body.
fn header_compare(op: &RegOp) -> Option<Header> {
    let parts = op.parts();
    let parts = match &parts[..] {
        [RegOp::AbortCheck, rest @ ..] => rest,
        all => all,
    };
    let [RegOp::IntBin { op, d, a, b }, RegOp::Brz { c, pc: exit }, RegOp::Jmp { pc: body }] =
        parts
    else {
        return None;
    };
    let inclusive = match op {
        IntOp::Lt => false,
        IntOp::Le => true,
        _ => return None,
    };
    (c == d).then_some(Header {
        iv: *a,
        bound: *b,
        inclusive,
        cond: *d,
        exit: *exit as usize,
        body: *body as usize,
    })
}

/// The node indices of an address's data-dependent indices.
fn index_nodes<'a>(row: &'a Option<Sym>, col: &'a Sym) -> impl Iterator<Item = usize> + 'a {
    [row.as_ref(), Some(col)]
        .into_iter()
        .filter_map(|ix| match ix {
            Some(Sym::Node(n)) => Some(*n),
            _ => None,
        })
}

/// Tries to plan the loop `[l, latch]`; `edges` lists every `(pc, target)`
/// branch edge of the function.
fn try_plan(
    code: &[RegOp],
    edges: &[(usize, usize)],
    l: usize,
    latch: usize,
) -> Result<VecPlan, Refusal> {
    let h = header_compare(&code[l]).ok_or(Refusal::NotCounted)?;
    // The iterated body starts at the compare's taken edge (the not-taken
    // exit path — often the *outer* loop's latch — sits between the compare
    // and the body). The exit edge must not re-enter the header or land in
    // the body.
    let bt = h.body;
    if bt <= l || bt > latch || h.exit == l || (bt..=latch).contains(&h.exit) {
        return Err(Refusal::NotCounted);
    }
    // Straight-line body: no op inside branches, and no op anywhere else
    // jumps into the iterated region.
    for &(p, t) in edges {
        let from_body = (bt..latch).contains(&p);
        let into_region = p != l && p != latch && (bt..=latch).contains(&t);
        if from_body || into_region {
            return Err(Refusal::Branches);
        }
    }
    let pl = iterate(code, &h, latch, Planner::new(h.iv, None))?;
    // Loop-carried scalars: a register read before its first write in the
    // iteration consumes the previous iteration's value, and the batch
    // replays no per-iteration updates but the induction variable's and a
    // fold's. Refuse any other regardless of whether the value feeds the
    // store — code after the loop may read the register (e.g. a running
    // accumulator `s = s + x[[j]]` next to the store), and the tail
    // iteration alone would leave it at entry-value + one update: a silent
    // wrong answer. Integer registers sort first.
    let mut carried: Vec<Slot> = pl.written.intersection(&pl.first_read).copied().collect();
    carried.retain(|&s| s != Slot::new(Bank::I, h.iv));
    carried.sort_unstable();
    match carried[..] {
        [] => build(&pl, &h, None),
        // A fold: the one carried register, beside no store and no carried
        // float, re-run with its entry value as the chain's start.
        [Slot { bank: Bank::I, ix }, ref rest @ ..] => {
            let why = Refusal::LoopCarried(Bank::I, ix);
            if !rest.is_empty() || pl.store.is_some() {
                return Err(why);
            }
            let pl = iterate(code, &h, latch, Planner::new(h.iv, Some(ix))).map_err(|_| why)?;
            build(&pl, &h, Some(ix)).map_err(|_| why)
        }
        [Slot { bank, ix }, ..] => Err(Refusal::LoopCarried(bank, ix)),
    }
}

/// Symbolic execution of one full iteration of the loop `h` heads into
/// `pl`: the taken compare, the body, and the latch's non-jump writes. A
/// refusal names the first op refused in program order.
fn iterate(code: &[RegOp], h: &Header, latch: usize, mut pl: Planner) -> Result<Planner, Refusal> {
    pl.wr(Bank::I, h.cond, Sym::Aff(Affine::konst(1))); // taken: condition true
    let first = |pl: &Planner, why: Refusal| pl.deferred.unwrap_or(why);
    for op in &code[h.body..latch] {
        pl.step(op).map_err(|why| first(&pl, why))?;
    }
    // The latch: integer phi moves and immediate steps, then the back-edge.
    let latch_parts = code[latch].parts();
    let Some((RegOp::Jmp { .. }, updates)) = latch_parts.split_last() else {
        return Err(Refusal::NotCounted);
    };
    for p in updates {
        if !matches!(p, RegOp::MovI { .. } | RegOp::IntBinImm { .. }) {
            return Err(first(&pl, Refusal::Op(p.mnemonic())));
        }
        pl.step_primitive(p).map_err(|why| first(&pl, why))?;
    }
    // The induction variable must step by exactly one per iteration, and
    // the bound must be invariant.
    let steps_by_one = matches!(pl.rd_i(h.iv), Sym::Aff(a) if a.is_incr_of(h.iv));
    if !steps_by_one || pl.written.contains(&Slot::new(Bank::I, h.bound)) {
        return Err(Refusal::NotCounted);
    }
    Ok(pl)
}

/// Lowers an iteration `pl` to a plan: the fold of register `fold`, whose
/// entry value is `pl`'s node 0, or else the body's one store. An affine
/// form can name no register the body writes but the induction variable:
/// any other such register is read before its write, so it is
/// loop-carried and refused before this.
fn build(pl: &Planner, h: &Header, fold: Option<u32>) -> Result<VecPlan, Refusal> {
    if let Some(refusal) = pl.deferred {
        return Err(refusal);
    }
    // The nodes the batch evaluates for their own sake: the fold's result,
    // or the stored element and the store's index.
    let (store, roots): (_, Vec<usize>) = match fold {
        Some(r) => match pl.regs.get(&Slot::new(Bank::I, r)) {
            Some(Sym::Node(root)) => (None, vec![*root]),
            _ => return Err(Refusal::LoopCarried(Bank::I, r)),
        },
        None => {
            let store = pl.store.clone().ok_or(Refusal::NoStore)?;
            let roots = [store.value]
                .into_iter()
                .chain(index_nodes(&store.addr.2, &store.addr.3));
            let roots = roots.collect();
            (Some(store), roots)
        }
    };
    // Every node must feed a root: the batch evaluates only those, so a
    // dead load or checked op would escape its test. Nodes are in
    // topological order, so one backward sweep finds the live ones.
    let mut live = vec![false; pl.nodes.len()];
    for &n in &roots {
        live[n] = true;
    }
    for n in (0..pl.nodes.len()).rev() {
        if !live[n] {
            continue;
        }
        match &pl.nodes[n] {
            SymNode::Bin { l, r, .. } | SymNode::IntBin { l, r, .. } => {
                live[*l as usize] = true;
                live[*r as usize] = true;
            }
            SymNode::Load { row, col, .. } => {
                for k in index_nodes(row, col) {
                    live[k] = true;
                }
            }
            _ => {}
        }
    }
    if live.contains(&false) {
        return Err(Refusal::DeadLoad);
    }
    // A fold's chain is linear: each node that depends on the carried
    // value takes it through exactly one operand. With every node live,
    // those nodes form one path from the carried value to the result, so
    // the value feeds nothing but its own chain (an index that depends on
    // it is a data index, refused below).
    if let Some(r) = fold {
        let mut dep = vec![false; pl.nodes.len()];
        for (n, node) in pl.nodes.iter().enumerate() {
            dep[n] = match node {
                SymNode::Carried => true,
                SymNode::IntBin { l, r: rr, .. } if dep[*l as usize] && dep[*rr as usize] => {
                    return Err(Refusal::LoopCarried(Bank::I, r));
                }
                SymNode::IntBin { l, r: rr, .. } => dep[*l as usize] || dep[*rr as usize],
                _ => false,
            };
        }
    }
    let out_slot = store.as_ref().map(|s| s.addr.0);
    // A scatter-add (an `i64` store at a node) stores `acc + addend`,
    // where `acc` is the output's own element at the store's index node.
    // Those two nodes are the store itself: the plan keeps the rest, and
    // any other use of `acc` finds no node to lower to (`ReadsOutput`).
    let scatter = match &store {
        Some(
            store @ SymStore {
                addr: (out, _, _, Sym::Node(index)),
                ..
            },
        ) => {
            let SymNode::IntBin {
                op: IntOp::Add,
                l,
                r,
            } = pl.nodes[store.value]
            else {
                return Err(Refusal::Op(store.mnemonic));
            };
            let is_acc = |n: u32| {
                matches!(&pl.nodes[n as usize], SymNode::Load { slot, row: None, col: Sym::Node(k) }
                    if slot == out && k == index)
            };
            let reads_out = |n: &SymNode| matches!(n, SymNode::Load { slot, .. } if slot == out);
            let (acc, addend) = match (is_acc(l), is_acc(r)) {
                (true, false) => (l, r),
                (false, true) => (r, l),
                (false, false) if !pl.nodes.iter().any(reads_out) => {
                    return Err(Refusal::Op(store.mnemonic));
                }
                _ => return Err(Refusal::ReadsOutput),
            };
            Some((*index, acc as usize, addend as usize, store.value))
        }
        _ => None,
    };
    let lower = |ix: &Sym| match ix {
        Sym::Aff(a) => Ok(a.clone()),
        Sym::Node(_) => Err(Refusal::DataIndex),
    };
    let lower_row = |row: &Option<Sym>| row.as_ref().map(lower).transpose();
    // Lower the nodes (insertion order is already topological; node
    // indices fit `u32` as the body's pcs do).
    let skipped = scatter.map(|(_, acc, _, sum)| [acc, sum]);
    let mut remap: Vec<Option<u32>> = vec![None; pl.nodes.len()];
    let at = |remap: &[Option<u32>], n: usize| remap[n].ok_or(Refusal::ReadsOutput);
    let mut nodes: Vec<VecNode> = Vec::with_capacity(pl.nodes.len());
    for (n, node) in pl.nodes.iter().enumerate() {
        if skipped.is_some_and(|s| s.contains(&n)) {
            continue;
        }
        nodes.push(match node {
            SymNode::Const(c) => VecNode::Const(*c),
            SymNode::Reg(r) => VecNode::Reg(*r),
            SymNode::Load { slot, row, col } => {
                if Some(*slot) == out_slot {
                    return Err(Refusal::ReadsOutput);
                }
                // The batch reads a slot as one tensor, of one rank.
                let other_rank = |m: &SymNode| {
                    matches!(m, SymNode::Load { slot: s, row: r, .. } if s == slot && r.is_some() != row.is_some())
                };
                if pl.nodes[..n].iter().any(other_rank) {
                    return Err(Refusal::Op("ten.part2"));
                }
                VecNode::Load {
                    slot: *slot,
                    row: lower_row(row)?,
                    col: lower(col)?,
                }
            }
            SymNode::Bin { op, l, r } => VecNode::Bin {
                op: *op,
                l: at(&remap, *l as usize)?,
                r: at(&remap, *r as usize)?,
            },
            SymNode::Int(a) => VecNode::Int(a.clone()),
            SymNode::IntBin { op, l, r } => VecNode::IntBin {
                op: *op,
                l: at(&remap, *l as usize)?,
                r: at(&remap, *r as usize)?,
            },
            SymNode::Carried => VecNode::Carried,
        });
        remap[n] = Some(nodes.len() as u32 - 1);
    }
    let (out, root) = match (fold, store, scatter) {
        (Some(reg), ..) => (PlanOut::Fold { reg }, at(&remap, roots[0])?),
        (None, Some(store), Some((index, _, addend, _))) => (
            PlanOut::AddAt {
                slot: store.addr.0,
                index: at(&remap, index)?,
            },
            at(&remap, addend)?,
        ),
        (None, Some(SymStore { addr, value, .. }), None) => (
            PlanOut::Map {
                slot: addr.0,
                rank: addr.1,
                row: lower_row(&addr.2)?,
                col: lower(&addr.3)?,
            },
            at(&remap, value)?,
        ),
        (None, None, _) => unreachable!("a plan without a fold stores"),
    };
    Ok(VecPlan {
        iv: h.iv,
        bound: h.bound,
        inclusive: h.inclusive,
        out,
        nodes,
        root,
        int_checks: pl.int_checks.clone(),
    })
}

/// The planner's verdict on one loop of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopVerdict {
    /// Pc of the loop header (the back-edge's target).
    pub header: usize,
    /// Pc of the latch (the op holding the back-edge).
    pub latch: usize,
    /// The plan, or why the loop stays scalar.
    pub plan: Result<VecPlan, Refusal>,
}

/// Every loop of `code` — each back-edge to an earlier op — in latch
/// order, with the planner's verdict. A loop overlapping one planned
/// before it is [`Refusal::Nested`].
pub fn plan_loops(code: &[RegOp]) -> Vec<LoopVerdict> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (p, op) in code.iter().enumerate() {
        op.clone().map_targets(|t| {
            edges.push((p, t));
            t
        });
    }
    let mut verdicts: Vec<LoopVerdict> = Vec::new();
    for latch in 0..code.len() {
        let Some(header) = latch_target(&code[latch]) else {
            continue;
        };
        if header > latch {
            continue;
        }
        let nested = verdicts
            .iter()
            .any(|v| v.plan.is_ok() && header <= v.latch && v.header <= latch);
        let plan = if nested {
            Err(Refusal::Nested)
        } else {
            try_plan(code, &edges, header, latch)
        };
        verdicts.push(LoopVerdict {
            header,
            latch,
            plan,
        });
    }
    verdicts
}

/// Plants `VecLoop` ops in front of every vectorizable counted loop of
/// the program. Returns the number of loops vectorized. Safe to run on
/// any fused program.
pub fn vectorize_program(p: &mut NativeProgram) -> usize {
    p.funcs.iter_mut().map(vectorize_function).sum()
}

/// [`vectorize_program`] for a single function.
pub fn vectorize_function(f: &mut NativeFunc) -> usize {
    let (mut loops, mut vec_loops) = (Vec::new(), Vec::new());
    for v in plan_loops(&f.code) {
        if let Ok(plan) = v.plan {
            loops.push((v.header, v.latch));
            vec_loops.push((
                v.header,
                RegOp::VecLoop {
                    plan: Arc::new(plan),
                },
            ));
        }
    }
    if loops.is_empty() {
        return 0;
    }
    // Each VecLoop goes in front of its loop's header, so that every entry
    // — fallthrough or branch — runs the batch first.
    let n = f.code.len();
    f.code = splice(std::mem::take(&mut f.code), &vec![false; n], vec_loops);
    // Back-edges must re-enter at the *scalar header*, not the VecLoop:
    // re-batching per scalar iteration would re-run the prechecks each
    // time for a batch the entry already consumed. Loops do not overlap,
    // so latch order is header order.
    let shift = |t: usize| t + loops.partition_point(|&(l, _)| l <= t);
    for &(l, latch) in &loops {
        f.code[shift(latch)].map_targets(|_| shift(l));
    }
    loops.len()
}

// ---------------------------------------------------------------------------
// Runtime execution: a plan's nodes resolved into columns at batch entry,
// then one block loop that hands each block to the plan's sink.
// ---------------------------------------------------------------------------

/// Resolved element addressing: element `k` of the batch is at
/// `off0 + k·stride`.
#[derive(Clone, Copy)]
struct Addr {
    off0: i128,
    stride: i128,
}

impl Addr {
    /// The offset of element `k`; both endpoints are in bounds, so every
    /// offset of the batch is.
    fn at(self, k: usize) -> usize {
        (self.off0 + k as i128 * self.stride) as usize
    }
}

/// Checks that `a` lies in `range` at both batch endpoints (linear ⇒ the
/// interior is covered) and returns its value at `k = 0`. Evaluation
/// overflow counts as a failed check.
fn endpoints(
    a: &Affine,
    ints: &[i64],
    iv: u32,
    m: i128,
    range: RangeInclusive<i128>,
) -> Option<i128> {
    let inside = |k: i128| a.eval(ints, iv, k).filter(|at| range.contains(at));
    inside(m - 1)?;
    inside(0)
}

/// The address of an element access, its indices checked against the
/// shape at both endpoints (a rank-1 tensor is the one row of a matrix).
/// The test runs whether or not the scalar op was proved in bounds: it
/// costs two comparisons per index per batch.
fn resolve_addr(
    row: Option<&Affine>,
    col: &Affine,
    shape: &[usize],
    ints: &[i64],
    iv: u32,
    m: i128,
) -> Option<Addr> {
    let [rows, cols] = match (row, shape) {
        (Some(_), &[rows, cols]) => [rows, cols],
        (_, shape) => [1, shape[0]],
    };
    let index = |a: &Affine, dim| endpoints(a, ints, iv, m, 1..=dim as i128);
    let r0 = row.map_or(Some(1), |r| index(r, rows))?;
    let c0 = index(col, cols)?;
    let cols = cols as i128;
    let row_coef = row.map_or(0, |r| r.coef(iv));
    Some(Addr {
        off0: (r0 - 1) * cols + (c0 - 1),
        stride: i128::from(row_coef) * cols + i128::from(col.coef(iv)),
    })
}

/// A node's values over the batch, resolved at batch entry.
#[derive(Clone, Copy)]
enum Col<T> {
    /// The same value at every element.
    Sc(T),
    /// A contiguous input run, borrowed: element `k` is
    /// `inputs[input][off0 + k]`.
    In { input: usize, off0: usize },
    /// Scratch column `b`, which step `b` fills per block.
    Buf(usize),
    /// Depends on a fold's carried value: a link of the fold's chain.
    Chain,
}

/// A column over one block: element `t` is `v[t & mask]`, where `mask`
/// is 0 for one value shared by every element and all ones for one value
/// each (no branch per element).
#[derive(Clone, Copy)]
struct View<'a, T> {
    v: &'a [T],
    mask: usize,
}

impl<T: Copy> View<'_, T> {
    #[inline(always)]
    fn at(self, t: usize) -> T {
        self.v[t & self.mask]
    }
}

/// Column `c` over the elements `[s, s + len)`.
fn view<'a, T: Copy>(
    c: &'a Col<T>,
    inputs: &[&'a [T]],
    scratch: &'a [Vec<T>],
    s: usize,
    len: usize,
) -> View<'a, T> {
    let (v, mask) = match c {
        Col::Sc(x) => (std::slice::from_ref(x), 0),
        Col::In { input, off0 } => (&inputs[*input][off0 + s..off0 + s + len], usize::MAX),
        Col::Buf(b) => (&scratch[*b][..len], usize::MAX),
        Col::Chain => unreachable!("a fold's chain runs in its sink"),
    };
    View { v, mask }
}

/// How a block fills one scratch column.
enum Step<T> {
    /// An input's elements at a strided address.
    Gather { input: usize, addr: Addr },
    /// `l op r` for binary node `node`, tested per element where the op is
    /// checked.
    Bin { node: usize, l: Col<T>, r: Col<T> },
}

/// The element type of a plan's nodes: `f64` under a map, `i64` under a
/// scatter-add or a fold.
trait Lane: Copy + Default {
    /// The elements of `d`, if they are of this type.
    fn elems(d: &TensorData) -> Option<&[Self]>;
    /// A constant or invariant node's value at batch entry; `None` when it
    /// does not fit.
    fn scalar(n: &VecNode, ints: &[i64], iv: u32, flts: &[f64]) -> Option<Self>;
    /// `out[t] = l[t] op r[t]` for binary node `n` up to the first element
    /// where the scalar op raises; returns how many succeeded.
    fn column(n: &VecNode, l: View<Self>, r: View<Self>, out: &mut [Self]) -> usize;
}

impl Lane for f64 {
    fn elems(d: &TensorData) -> Option<&[f64]> {
        match d {
            TensorData::F64(v) => Some(v),
            _ => None,
        }
    }

    fn scalar(n: &VecNode, _: &[i64], _: u32, flts: &[f64]) -> Option<f64> {
        match n {
            VecNode::Const(c) => Some(*c),
            VecNode::Reg(r) => Some(flts[*r as usize]),
            _ => unreachable!("a map holds f64 nodes only"),
        }
    }

    /// The SIMD kernels: real `+ − × /` never raise (a divisor is a
    /// nonzero constant).
    fn column(n: &VecNode, l: View<f64>, r: View<f64>, out: &mut [f64]) -> usize {
        let VecNode::Bin { op, .. } = *n else {
            unreachable!("a map holds f64 nodes only")
        };
        match (l.mask, r.mask) {
            (0, 0) => simd::fill(out, op.apply(l.v[0], r.v[0])),
            (0, _) => simd::sv(op, l.v[0], r.v, out),
            (_, 0) => simd::vs(op, l.v, r.v[0], out),
            _ => simd::vv(op, l.v, r.v, out),
        }
        out.len()
    }
}

impl Lane for i64 {
    fn elems(d: &TensorData) -> Option<&[i64]> {
        match d {
            TensorData::I64(v) => Some(v),
            _ => None,
        }
    }

    fn scalar(n: &VecNode, ints: &[i64], iv: u32, _: &[f64]) -> Option<i64> {
        let VecNode::Int(a) = n else {
            unreachable!("integer plans hold i64 nodes only")
        };
        i64::try_from(a.eval(ints, iv, 0)?).ok()
    }

    /// Checked `+ − ×`, `BitXor` and floored `Mod`, the op matched once
    /// per column.
    fn column(n: &VecNode, l: View<i64>, r: View<i64>, out: &mut [i64]) -> usize {
        let VecNode::IntBin { op, .. } = *n else {
            unreachable!("integer plans hold i64 nodes only")
        };
        match op {
            IntOp::Add => checked_column(l, r, out, i64::checked_add),
            IntOp::Sub => checked_column(l, r, out, i64::checked_sub),
            IntOp::Mul => checked_column(l, r, out, i64::checked_mul),
            IntOp::BitXor => checked_column(l, r, out, |x, y| Some(x ^ y)),
            IntOp::Mod => checked_column(l, r, out, |x, y| mod_i64(x, y).ok()),
            _ => unreachable!("integer nodes are checked + − ×, xor and Mod"),
        }
    }
}

/// `out[t] = f(l[t], r[t])` up to the first `None`; returns how many
/// succeeded.
#[inline(always)]
fn checked_column<T: Copy>(
    l: View<T>,
    r: View<T>,
    out: &mut [T],
    f: impl Fn(T, T) -> Option<T>,
) -> usize {
    zip_views(l, r, out.len(), |t, x, y| {
        f(x, y).map(|v| out[t] = v).is_some()
    })
}

/// Calls `f(t, l[t], r[t])` for `t` in `0..n` until it returns false;
/// returns how many calls returned true. A shared operand is read once,
/// not per element.
#[inline(always)]
fn zip_views<T: Copy>(
    l: View<T>,
    r: View<T>,
    n: usize,
    mut f: impl FnMut(usize, T, T) -> bool,
) -> usize {
    fn go(n: usize, mut g: impl FnMut(usize) -> bool) -> usize {
        (0..n).position(|t| !g(t)).unwrap_or(n)
    }
    match (l.mask, r.mask) {
        (0, 0) => go(n, |t| f(t, l.v[0], r.v[0])),
        (0, _) => {
            let (x, b) = (l.v[0], &r.v[..n]);
            go(n, |t| f(t, x, b[t]))
        }
        (_, 0) => {
            let (a, y) = (&l.v[..n], r.v[0]);
            go(n, |t| f(t, a[t], y))
        }
        _ => {
            let (a, b) = (&l.v[..n], &r.v[..n]);
            go(n, |t| f(t, a[t], b[t]))
        }
    }
}

/// A plan's nodes resolved at batch entry: each node's column, and the
/// steps that fill the scratch ones (step `b` fills column `b`).
struct Program<T: Lane> {
    cols: Vec<Col<T>>,
    steps: Vec<Step<T>>,
}

impl<T: Lane> Program<T> {
    /// `None` when a precheck fails: a load's index outside its tensor at
    /// a batch endpoint, or an invariant that does not fit.
    fn resolve(
        plan: &VecPlan,
        inputs: &[Tensor],
        data: &[&[T]],
        ints: &[i64],
        flts: &[f64],
        m: i128,
    ) -> Option<Self> {
        let mut p = Program {
            cols: Vec::with_capacity(plan.nodes.len()),
            steps: Vec::new(),
        };
        let mut loads = 0;
        for (ix, node) in plan.nodes.iter().enumerate() {
            let col = match node {
                VecNode::Carried => Col::Chain,
                VecNode::Load { row, col, .. } => {
                    let input = loads;
                    loads += 1;
                    let shape = inputs[input].shape();
                    let addr = resolve_addr(row.as_ref(), col, shape, ints, plan.iv, m)?;
                    match addr.stride {
                        0 => Col::Sc(data[input][addr.at(0)]),
                        1 => Col::In {
                            input,
                            off0: addr.at(0),
                        },
                        _ => p.fill(Step::Gather { input, addr }),
                    }
                }
                VecNode::Bin { l, r, .. } | VecNode::IntBin { l, r, .. } => {
                    match (p.cols[*l as usize], p.cols[*r as usize]) {
                        (Col::Chain, _) | (_, Col::Chain) => Col::Chain,
                        (l, r) => p.fill(Step::Bin { node: ix, l, r }),
                    }
                }
                _ => Col::Sc(T::scalar(node, ints, plan.iv, flts)?),
            };
            p.cols.push(col);
        }
        Some(p)
    }

    fn fill(&mut self, step: Step<T>) -> Col<T> {
        self.steps.push(step);
        Col::Buf(self.steps.len() - 1)
    }

    /// Fills the scratch columns of the elements `[s, s + len)`; returns
    /// how many leading elements pass every checked op.
    fn eval(
        &self,
        nodes: &[VecNode],
        inputs: &[&[T]],
        scratch: &mut [Vec<T>],
        s: usize,
        len: usize,
    ) -> usize {
        let mut valid = len;
        for (b, step) in self.steps.iter().enumerate() {
            let (done, rest) = scratch.split_at_mut(b);
            let out = &mut rest[0][..valid];
            match step {
                Step::Gather { input, addr } => {
                    for (t, x) in out.iter_mut().enumerate() {
                        *x = inputs[*input][addr.at(s + t)];
                    }
                }
                Step::Bin { node, l, r } => {
                    let view = |c| view(c, inputs, done, s, valid);
                    valid = T::column(&nodes[*node], view(l), view(r), out);
                }
            }
        }
        valid
    }
}

/// The columns of one block, handed to a sink: the elements
/// `[s, s + valid)` passed every checked op.
struct Block<'a, T> {
    cols: &'a [Col<T>],
    inputs: &'a [&'a [T]],
    scratch: &'a [Vec<T>],
    s: usize,
    valid: usize,
}

impl<'a, T: Copy> Block<'a, T> {
    /// Node `n`'s valid elements.
    fn view(&self, n: u32) -> View<'a, T> {
        let c = &self.cols[n as usize];
        view(c, self.inputs, self.scratch, self.s, self.valid)
    }
}

/// Executes the batch for `plan`: the `f64` map when every precheck
/// holds, the scatter-add or the fold up to its first failing element.
/// Whatever the batch does not commit — all of it when a precheck fails —
/// runs in the scalar loop, which raises whatever error the checks
/// anticipated.
///
/// # Errors
///
/// Only [`RuntimeError::Aborted`] — any other anticipated failure falls
/// back to the scalar path instead of erroring here.
pub(crate) fn exec_batch(
    plan: &VecPlan,
    abort: &AbortSignal,
    ints: &mut [i64],
    flts: &[f64],
    vals: &mut [Value],
) -> Result<(), RuntimeError> {
    let iv0 = i128::from(ints[plan.iv as usize]);
    let bound = i128::from(ints[plan.bound as usize]);
    let n_total = bound - iv0 + i128::from(plan.inclusive);
    let m = n_total - 1; // the scalar tail runs the final iteration
    if !(VEC_MIN..=1 << 46).contains(&m) {
        return Ok(());
    }
    let fits = |a| endpoints(a, ints, plan.iv, m, i64::MIN.into()..=i64::MAX.into()).is_some();
    if !plan.int_checks.iter().all(fits) {
        return Ok(());
    }
    let done = match &plan.out {
        // Endpoint-checked at entry like the loads: a map commits every
        // element, so the first block's data_mut is the scalar loop's
        // first store.
        PlanOut::Map {
            slot,
            rank,
            row,
            col,
        } => {
            let out = match &vals[*slot as usize] {
                Value::Tensor(t) if t.rank() == *rank as usize && t.as_f64().is_some() => {
                    resolve_addr(row.as_ref(), col, t.shape(), ints, plan.iv, m)
                }
                _ => None,
            };
            let Some(out) = out else {
                return Ok(());
            };
            run::<f64>(plan, abort, ints, flts, vals, m, |vals, b| {
                let TensorData::F64(data) = data_mut(vals, *slot) else {
                    unreachable!("an f64 output, checked at entry")
                };
                let root = b.view(plan.root);
                if out.stride == 1 && root.mask != 0 {
                    let at = out.at(b.s);
                    data[at..at + b.valid].copy_from_slice(root.v);
                } else {
                    for t in 0..b.valid {
                        data[out.at(b.s + t)] = root.at(t);
                    }
                }
                b.valid
            })?
        }
        PlanOut::AddAt { slot, index } => {
            match &vals[*slot as usize] {
                Value::Tensor(t) if t.rank() == 1 && t.as_i64().is_some() => {}
                _ => return Ok(()),
            }
            run::<i64>(plan, abort, ints, flts, vals, m, |vals, b| {
                let (ks, vs) = (b.view(*index), b.view(plan.root));
                // Copy-on-write as in the scalar loop, whose first store
                // copies shared storage: data_mut only once an element is
                // known to commit.
                let Value::Tensor(cur) = &vals[*slot as usize] else {
                    unreachable!("a tensor output, checked at entry")
                };
                let cur = cur.as_i64().expect("an i64 output, checked at entry");
                if b.valid == 0 || add_at(cur, ks.at(0), vs.at(0)).is_none() {
                    return 0;
                }
                let TensorData::I64(data) = data_mut(vals, *slot) else {
                    unreachable!("an i64 output, checked at entry")
                };
                zip_views(ks, vs, b.valid, |_, k, v| {
                    add_at(data, k, v).map(|(p, x)| data[p] = x).is_some()
                })
            })?
        }
        PlanOut::Fold { reg } => {
            let mut h = ints[*reg as usize];
            let done = run::<i64>(plan, abort, ints, flts, vals, m, |_, b| {
                let t;
                (t, h) = fold_block(&links(plan, b), b.valid, h);
                t
            })?;
            ints[*reg as usize] = h;
            done
        }
    };
    // The batch consumed iterations 0..done: advance the induction
    // variable (endpoint-checked above).
    ints[plan.iv as usize] = (iv0 + done) as i64;
    Ok(())
}

/// The batch of `plan`'s `m` iterations, block by block: each block's
/// columns first, then `sink`, which commits a prefix of the block's valid
/// elements and returns its length. Returns the iterations committed: all
/// `m`, those before the first element a sink leaves, or 0 when a
/// precheck fails.
fn run<T: Lane>(
    plan: &VecPlan,
    abort: &AbortSignal,
    ints: &[i64],
    flts: &[f64],
    vals: &mut [Value],
    m: i128,
    mut sink: impl FnMut(&mut [Value], &Block<T>) -> usize,
) -> Result<i128, RuntimeError> {
    // Each load's tensor, of its rank and with elements of type `T`, is
    // cloned before any output's data_mut: if the output storage is shared
    // (including with an input), data_mut copies it — exactly when the
    // scalar loop's first store would have copied.
    let input = |n: &VecNode| match n {
        VecNode::Load { slot, row, .. } => Some(match &vals[*slot as usize] {
            Value::Tensor(t) if t.rank() == 1 + usize::from(row.is_some()) => Some(t.clone()),
            _ => None,
        }),
        _ => None,
    };
    let Some(inputs) = plan
        .nodes
        .iter()
        .filter_map(input)
        .collect::<Option<Vec<_>>>()
    else {
        return Ok(0);
    };
    let data: Option<Vec<&[T]>> = inputs.iter().map(|t| T::elems(t.data())).collect();
    let Some(data) = data else {
        return Ok(0);
    };
    let Some(prog) = Program::resolve(plan, &inputs, &data, ints, flts, m) else {
        return Ok(0);
    };
    let m = m as usize;
    let mut scratch = vec![vec![T::default(); m.min(BLOCK)]; prog.steps.len()];
    let mut s = 0;
    while s < m {
        abort.check()?;
        let len = (m - s).min(BLOCK);
        let valid = prog.eval(&plan.nodes, &data, &mut scratch, s, len);
        let block = Block {
            cols: &prog.cols,
            inputs: &data,
            scratch: &scratch,
            s,
            valid,
        };
        let done = sink(vals, &block);
        if done < len {
            return Ok((s + done) as i128);
        }
        s += len;
    }
    Ok(m as i128)
}

/// The output tensor's elements, for writing: copies them iff the storage
/// is shared.
fn data_mut(vals: &mut [Value], slot: u32) -> &mut TensorData {
    let Value::Tensor(t) = &mut vals[slot as usize] else {
        unreachable!("a tensor output, checked at entry")
    };
    t.data_mut()
}

/// One element of a scatter-add: the position and new value of
/// `out[[k]] + v`, or `None` where the scalar `t[[k]] + v` raises (the
/// index resolved by the machine's own rule, the sum checked).
#[inline(always)]
fn add_at(out: &[i64], k: i64, v: i64) -> Option<(usize, i64)> {
    let p = resolve_part_index(k, out.len()).ok()?;
    Some((p, out[p].checked_add(v)?))
}

/// One link of a fold's chain: the carried value `h` on the left, the
/// other operand `y` on the right.
#[derive(Clone, Copy)]
enum Link {
    Add,
    Sub,
    /// `y − h`: a `Sub` with the carried value on the right.
    SubFrom,
    Mul,
    Xor,
    /// `Mod` by a positive power of two `2^k`, as `h & (2^k − 1)`.
    Mask(i64),
    /// `Mod` by any other nonzero constant.
    Mod,
}

/// A fold's chain over a block: the nodes that depend on the carried
/// value, in order, each with the other operand's column.
fn links<'a>(plan: &VecPlan, b: &Block<'a, i64>) -> Vec<(Link, View<'a, i64>)> {
    let chain = |n: u32| matches!(b.cols[n as usize], Col::Chain);
    let links = plan.nodes.iter().zip(b.cols).filter_map(|(node, c)| {
        let (&VecNode::IntBin { op, l, r }, Col::Chain) = (node, c) else {
            return None;
        };
        // Linear (plan-time rule): exactly one operand is carried.
        let y = b.view(if chain(r) { l } else { r });
        let link = match op {
            IntOp::Add => Link::Add,
            IntOp::Sub if chain(r) => Link::SubFrom,
            IntOp::Sub => Link::Sub,
            IntOp::Mul => Link::Mul,
            IntOp::BitXor => Link::Xor,
            IntOp::Mod => match y.v[0] {
                d if d > 0 && d & (d - 1) == 0 => Link::Mask(d - 1),
                _ => Link::Mod,
            },
            _ => unreachable!("integer nodes are checked + − ×, xor and Mod"),
        };
        Some((link, y))
    });
    links.collect()
}

/// A fold over a block's `n` valid elements from `h`: how many commit —
/// all, or those before the first checked `+ − ×` that overflows — and
/// the value carried out of the last of them.
fn fold_block(chain: &[(Link, View<i64>)], n: usize, mut h: i64) -> (usize, i64) {
    for t in 0..n {
        let mut x = h;
        for &(link, y) in chain {
            let next = match link {
                Link::Add => x.checked_add(y.at(t)),
                Link::Sub => x.checked_sub(y.at(t)),
                Link::SubFrom => y.at(t).checked_sub(x),
                Link::Mul => x.checked_mul(y.at(t)),
                Link::Xor => Some(x ^ y.at(t)),
                Link::Mask(mask) => Some(x & mask),
                Link::Mod => mod_i64(x, y.at(t)).ok(),
            };
            let Some(next) = next else {
                return (t, h);
            };
            x = next;
        }
        h = x;
    }
    (n, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{
        ArgVal, Bank, CmpCode, ElemKind, FltOp, FltUnOp, IntOp, Machine, NativeFunc, NativeProgram,
        RegOp, Slot,
    };

    fn ten(v: Vec<f64>) -> ArgVal {
        let n = v.len();
        ArgVal::V(Value::Tensor(
            Tensor::with_shape(vec![n], TensorData::F64(v)).unwrap(),
        ))
    }

    fn mat(rows: usize, cols: usize, v: Vec<f64>) -> ArgVal {
        ArgVal::V(Value::Tensor(
            Tensor::with_shape(vec![rows, cols], TensorData::F64(v)).unwrap(),
        ))
    }

    fn run(prog: &NativeProgram, args: Vec<ArgVal>) -> Result<ArgVal, RuntimeError> {
        Machine::standalone().call(prog, 0, args.into_iter().map(Ok), None)
    }

    /// `out[j] = a[j]*2 + b[j]` for `j = 1..=n`.
    fn saxpy() -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 0, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 0,
                    b: 1,
                    d: 2,
                    pc_false: 8,
                    pc_true: 2,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::F64,
                    d: 0,
                    t: 0,
                    i: 0,
                    checked: true,
                },
                RegOp::FltBinImm {
                    op: FltOp::Mul,
                    d: 1,
                    a: 0,
                    imm: 2.0,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::F64,
                    d: 2,
                    t: 1,
                    i: 0,
                    checked: true,
                },
                RegOp::FltBin {
                    op: FltOp::Add,
                    d: 3,
                    a: 1,
                    b: 2,
                },
                RegOp::TenSet1 {
                    kind: ElemKind::F64,
                    t: 2,
                    i: 0,
                    v: 3,
                    checked: true,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::Add,
                    d: 0,
                    a: 0,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 2),
                },
            ],
            n_int: 3,
            n_flt: 4,
            n_cpx: 0,
            n_val: 3,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::V, 1),
                Slot::new(Bank::V, 2),
                Slot::new(Bank::I, 1),
            ],
            elision: Default::default(),
        }
    }

    /// `f` with `op` inserted at `at`; targets past `at` follow their ops,
    /// so an op inserted into the body stays in it.
    fn insert(mut f: NativeFunc, at: usize, op: RegOp) -> NativeFunc {
        for o in &mut f.code {
            o.map_targets(|t| if t > at { t + 1 } else { t });
        }
        f.code.insert(at, op);
        f
    }

    fn saxpy_args(n: usize, bound: i64) -> Vec<ArgVal> {
        let a: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        vec![ten(a), ten(b), ten(vec![0.0; n]), ArgVal::I(bound)]
    }

    #[test]
    fn saxpy_vectorizes_and_matches_scalar_exactly() {
        let scalar = saxpy();
        let mut vectored = scalar.clone();
        assert_eq!(vectorize_function(&mut vectored), 1);
        assert!(matches!(vectored.code[1], RegOp::VecLoop { .. }));
        // The latch must re-enter at the scalar header (after the VecLoop).
        assert!(matches!(
            vectored.code[8],
            RegOp::IntBinImmJmp { pc: 2, .. }
        ));
        let n = 100;
        let base = NativeProgram {
            parallel: None,
            funcs: vec![scalar],
        };
        let want = run(&base, saxpy_args(n, n as i64)).unwrap();
        // A planted plan runs without a ParallelConfig and matches the
        // scalar loop.
        let prog = NativeProgram {
            parallel: None,
            funcs: vec![vectored],
        };
        assert_eq!(run(&prog, saxpy_args(n, n as i64)).unwrap(), want);
    }

    /// `saxpy` with every check discharged by the interval analysis: the
    /// loads/stores are unchecked and the latch increment is
    /// `AddU` (as `lower` emits when the range facts prove the loop).
    fn saxpy_unchecked() -> NativeFunc {
        let mut f = saxpy();
        for op in &mut f.code {
            match op {
                RegOp::TenPart1 { checked, .. } | RegOp::TenSet1 { checked, .. } => {
                    *checked = false;
                }
                RegOp::IntBinImmJmp { op, .. } if *op == IntOp::Add => *op = IntOp::AddU,
                _ => {}
            }
        }
        f
    }

    #[test]
    fn a_loop_with_unchecked_ops_plans_exactly_like_its_checked_twin() {
        let plan_of = |mut f: NativeFunc| {
            assert_eq!(vectorize_function(&mut f), 1);
            match &f.code[1] {
                RegOp::VecLoop { plan } => (**plan).clone(),
                op => panic!("expected a VecLoop, got {op:?}"),
            }
        };
        // Every batch tests its endpoints whatever the scalar ops proved.
        assert_eq!(plan_of(saxpy_unchecked()), plan_of(saxpy()));
        let mut vectored = saxpy_unchecked();
        vectorize_function(&mut vectored);

        // Same results as the fully checked scalar loop, at every width.
        let n = 100;
        let want = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![saxpy()],
            },
            saxpy_args(n, n as i64),
        )
        .unwrap();
        let got = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![vectored],
            },
            saxpy_args(n, n as i64),
        )
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn refcount_ops_and_value_moves_refuse_the_loop() {
        // An Acquire/Release pair on an input around the store.
        let f = insert(saxpy(), 2, RegOp::Acquire { v: 0 });
        let mut f = insert(f, 8, RegOp::Release { v: 0 });
        assert_eq!(refusal(&mut f), Refusal::Op("acquire"));

        // A value move that hands the input back, so the slot ends the
        // iteration holding its entry object.
        let f = insert(saxpy(), 2, RegOp::TakeV { d: 3, s: 0 });
        let mut f = insert(f, 3, RegOp::TakeV { d: 0, s: 3 });
        f.n_val = 4;
        assert_eq!(refusal(&mut f), Refusal::Op("take.v"));
    }

    #[test]
    fn short_trip_counts_fall_back_and_match() {
        let scalar = saxpy();
        let mut vectored = scalar.clone();
        vectorize_function(&mut vectored);
        for n in [1usize, 2, 5, 8, 9] {
            let want = run(
                &NativeProgram {
                    parallel: None,
                    funcs: vec![scalar.clone()],
                },
                saxpy_args(n, n as i64),
            )
            .unwrap();
            let got = run(
                &NativeProgram {
                    parallel: None,
                    funcs: vec![vectored.clone()],
                },
                saxpy_args(n, n as i64),
            )
            .unwrap();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn out_of_bounds_errors_are_identical() {
        let scalar = saxpy();
        let mut vectored = scalar.clone();
        vectorize_function(&mut vectored);
        let n = 20;
        let want = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![scalar],
            },
            saxpy_args(n, n as i64 + 5),
        )
        .unwrap_err();
        let got = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![vectored],
            },
            saxpy_args(n, n as i64 + 5),
        )
        .unwrap_err();
        assert_eq!(got, want);
    }

    /// `out[j] = a[j] / d` with a loop-invariant register divisor.
    fn divloop() -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 0, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 0,
                    b: 1,
                    d: 2,
                    pc_false: 6,
                    pc_true: 2,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::F64,
                    d: 0,
                    t: 0,
                    i: 0,
                    checked: true,
                },
                RegOp::FltBin {
                    op: FltOp::Div,
                    d: 1,
                    a: 0,
                    b: 2,
                },
                RegOp::TenSet1 {
                    kind: ElemKind::F64,
                    t: 1,
                    i: 0,
                    v: 1,
                    checked: true,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::Add,
                    d: 0,
                    a: 0,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 1),
                },
            ],
            n_int: 3,
            n_flt: 3,
            n_cpx: 0,
            n_val: 2,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::V, 1),
                Slot::new(Bank::I, 1),
                Slot::new(Bank::F, 2),
            ],
            elision: Default::default(),
        }
    }

    #[test]
    fn only_nonzero_constant_divisors_are_planned() {
        // A register divisor would need a zero test the batch cannot make
        // per element; the scalar loop raises DivideByZero itself.
        assert_eq!(refusal(&mut divloop()), Refusal::Op("flt.bin"));
        let by_const = |imm: f64| {
            let mut f = divloop();
            f.code[3] = RegOp::FltBinImm {
                op: FltOp::Div,
                d: 1,
                a: 0,
                imm,
            };
            f
        };
        assert_eq!(refusal(&mut by_const(0.0)), Refusal::Op("flt.bin.imm"));

        let scalar = by_const(4.0);
        let mut vectored = scalar.clone();
        assert_eq!(vectorize_function(&mut vectored), 1);
        let n = 40usize;
        let args = || {
            vec![
                ten((0..n).map(|i| i as f64 + 1.0).collect()),
                ten(vec![0.0; n]),
                ArgVal::I(n as i64),
                ArgVal::F(0.0),
            ]
        };
        let prog = |f: NativeFunc| NativeProgram {
            parallel: None,
            funcs: vec![f],
        };
        assert_eq!(
            run(&prog(vectored), args()).unwrap(),
            run(&prog(scalar), args()).unwrap()
        );
    }

    /// Column walk over a matrix: `out[j][2] = in[j][2] * 0.5` — a strided
    /// (gather/scatter) batch, the vertical-blur shape.
    fn column_walk() -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 0, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 0,
                    b: 1,
                    d: 2,
                    pc_false: 7,
                    pc_true: 2,
                },
                RegOp::LdcI { d: 3, v: 2 },
                RegOp::TenPart2 {
                    kind: ElemKind::F64,
                    d: 0,
                    t: 0,
                    i: 0,
                    j: 3,
                    checked: true,
                },
                RegOp::FltBinImm {
                    op: FltOp::Mul,
                    d: 1,
                    a: 0,
                    imm: 0.5,
                },
                RegOp::TenSet2 {
                    kind: ElemKind::F64,
                    t: 1,
                    i: 0,
                    j: 3,
                    v: 1,
                    checked: true,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::Add,
                    d: 0,
                    a: 0,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 1),
                },
            ],
            n_int: 4,
            n_flt: 2,
            n_cpx: 0,
            n_val: 2,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::V, 1),
                Slot::new(Bank::I, 1),
            ],
            elision: Default::default(),
        }
    }

    #[test]
    fn strided_column_walk_matches_scalar() {
        let scalar = column_walk();
        let mut vectored = scalar.clone();
        assert_eq!(vectorize_function(&mut vectored), 1);
        let rows = 64usize;
        let cols = 3usize;
        let args = || {
            let data: Vec<f64> = (0..rows * cols).map(|i| i as f64 * 0.125).collect();
            vec![
                mat(rows, cols, data),
                mat(rows, cols, vec![0.0; rows * cols]),
                ArgVal::I(rows as i64),
            ]
        };
        let want = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![scalar],
            },
            args(),
        )
        .unwrap();
        let got = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![vectored],
            },
            args(),
        )
        .unwrap();
        assert_eq!(got, want);
    }

    /// `out[j] = 2*a[j]; s = s + a[j]` for `j = 1..=n`, returning `s`:
    /// the accumulator is loop-carried state that never reaches the
    /// store, the shape from the loop-carried-scalar soundness rule.
    fn accum() -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 0, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 0,
                    b: 1,
                    d: 2,
                    pc_false: 7,
                    pc_true: 2,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::F64,
                    d: 0,
                    t: 0,
                    i: 0,
                    checked: true,
                },
                RegOp::FltBinImm {
                    op: FltOp::Mul,
                    d: 1,
                    a: 0,
                    imm: 2.0,
                },
                RegOp::TenSet1 {
                    kind: ElemKind::F64,
                    t: 1,
                    i: 0,
                    v: 1,
                    checked: true,
                },
                RegOp::FltBin {
                    op: FltOp::Add,
                    d: 3,
                    a: 3,
                    b: 0,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::Add,
                    d: 0,
                    a: 0,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::F, 3),
                },
            ],
            n_int: 3,
            n_flt: 4,
            n_cpx: 0,
            n_val: 2,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::V, 1),
                Slot::new(Bank::I, 1),
                Slot::new(Bank::F, 3),
            ],
            elision: Default::default(),
        }
    }

    #[test]
    fn loop_carried_accumulator_survives_whole_loop() {
        let scalar = accum();
        let mut vectored = scalar.clone();
        // The loop must be refused: batching it would advance only the
        // induction variable and leave `s` holding entry + tail update.
        let carried = Refusal::LoopCarried(Bank::F, 3);
        assert_eq!(refusal(&mut vectored), carried);
        let n = 100usize;
        let args = || {
            vec![
                ten((0..n).map(|i| i as f64 * 0.5 - 7.0).collect()),
                ten(vec![0.0; n]),
                ArgVal::I(n as i64),
                ArgVal::F(1.25),
            ]
        };
        let want = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![scalar],
            },
            args(),
        )
        .unwrap();
        let ArgVal::F(s) = want else {
            panic!("expected a float result");
        };
        let full: f64 = 1.25 + (0..n).map(|i| i as f64 * 0.5 - 7.0).sum::<f64>();
        assert_eq!(s, full, "scalar baseline must be the full sum");
        let got = run(
            &NativeProgram {
                parallel: None,
                funcs: vec![vectored],
            },
            args(),
        )
        .unwrap();
        assert_eq!(got, want);
    }

    /// Histogram's loop as the compiler lowers it: `b = data[[i]] + 1;
    /// bins[[b]] = bins[[b]] + 1` for `i = 1..=n`.
    fn histogram() -> NativeFunc {
        let elem = |d, t, i, checked| RegOp::TenPart1 {
            kind: ElemKind::I64,
            d,
            t,
            i,
            checked,
        };
        let add1 = |d, a| RegOp::IntBinImm {
            op: IntOp::Add,
            d,
            a,
            imm: 1,
        };
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 1, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 1,
                    b: 0,
                    d: 2,
                    pc_false: 8,
                    pc_true: 2,
                },
                elem(3, 0, 1, false),
                add1(4, 3),
                elem(5, 1, 4, true),
                add1(6, 5),
                RegOp::TenSet1 {
                    kind: ElemKind::I64,
                    t: 1,
                    i: 4,
                    v: 6,
                    checked: false,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::AddU,
                    d: 1,
                    a: 1,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 1),
                },
            ],
            n_int: 7,
            n_flt: 0,
            n_cpx: 0,
            n_val: 2,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::V, 1),
                Slot::new(Bank::I, 0),
            ],
            elision: Default::default(),
        }
    }

    #[test]
    fn histogram_plans_as_a_scatter_add_and_faults_where_the_scalar_loop_does() {
        let mut vectored = histogram();
        assert_eq!(vectorize_function(&mut vectored), 1);
        let RegOp::VecLoop { plan } = &vectored.code[1] else {
            panic!("a VecLoop in front of the header");
        };
        // The gather, the `+ 1` computing the index, and the addend.
        assert_eq!(plan.out, PlanOut::AddAt { slot: 1, index: 2 });
        assert_eq!(plan.nodes.len(), 4);
        let prog = |f: &NativeFunc| NativeProgram {
            parallel: None,
            funcs: vec![f.clone()],
        };
        let args = |data: &[i64]| {
            let t = Tensor::from_i64(data.to_vec());
            let bins = Tensor::from_i64(vec![0; 16]);
            vec![
                ArgVal::V(Value::Tensor(t)),
                ArgVal::V(Value::Tensor(bins)),
                ArgVal::I(data.len() as i64),
            ]
        };
        let mut data: Vec<i64> = (0..3000).map(|k| k % 16).collect();
        let want = run(&prog(&histogram()), args(&data));
        assert_eq!(run(&prog(&vectored), args(&data)), want);
        assert!(want.is_ok());
        // A bin past the end at element 2,000: the batch commits the
        // elements before it and the scalar loop raises there.
        data[2000] = 16;
        data[2001] = 17;
        let want = run(&prog(&histogram()), args(&data));
        let err = RuntimeError::PartOutOfRange {
            index: 17,
            length: 16,
        };
        assert_eq!(want, Err(err));
        assert_eq!(run(&prog(&vectored), args(&data)), want);
    }

    #[test]
    fn scatter_adds_refuse_other_reads_of_the_output() {
        // `bins[[b]] = bins[[b]] - 1`: not a sum into the element.
        let mut f = histogram();
        f.code[5] = RegOp::IntBinImm {
            op: IntOp::Sub,
            d: 6,
            a: 5,
            imm: 1,
        };
        assert_eq!(refusal(&mut f), Refusal::Op("ten.set1.u"));
        // `bins[[b]] = bins[[i]] + 1`: the read is at another index.
        let mut f = histogram();
        if let RegOp::TenPart1 { i, .. } = &mut f.code[4] {
            *i = 1;
        }
        assert_eq!(refusal(&mut f), Refusal::ReadsOutput);
        // `v = bins[[b]]; bins[[b]] = v + (v + 1)`: the element feeds the
        // addend too.
        let add = RegOp::IntBin {
            op: IntOp::Add,
            d: 6,
            a: 5,
            b: 6,
        };
        assert_eq!(
            refusal(&mut insert(histogram(), 6, add)),
            Refusal::ReadsOutput
        );
        // `bins[[b]] = data[[b]] + 1`: a plain scatter, its value gathered
        // at a data-dependent index from an input.
        let mut f = histogram();
        if let RegOp::TenPart1 { t, .. } = &mut f.code[4] {
            *t = 0;
        }
        assert_eq!(refusal(&mut f), Refusal::Op("ten.set1.u"));
    }

    /// FNV1a's loop over an `i64` tensor, unfused: `h = Mod[BitXor[h,
    /// d[[i]]] * 16777619, 2^32]` for `i = 1..=n`, returning `h`.
    fn fnv_fold() -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 1, v: 1 },
                RegOp::AbortBrCmpISel {
                    op: IntOp::Le,
                    a: 1,
                    b: 0,
                    d: 3,
                    pc_false: 7,
                    pc_true: 2,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    d: 4,
                    t: 0,
                    i: 1,
                    checked: false,
                },
                RegOp::IntBin {
                    op: IntOp::BitXor,
                    d: 5,
                    a: 2,
                    b: 4,
                },
                RegOp::IntBinImm {
                    op: IntOp::Mul,
                    d: 6,
                    a: 5,
                    imm: 16_777_619,
                },
                RegOp::IntBinImm {
                    op: IntOp::Mod,
                    d: 2,
                    a: 6,
                    imm: 1 << 32,
                },
                RegOp::IntBinImmJmp {
                    op: IntOp::AddU,
                    d: 1,
                    a: 1,
                    imm: 1,
                    pc: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            n_int: 7,
            n_flt: 0,
            n_cpx: 0,
            n_val: 1,
            params: vec![
                Slot::new(Bank::V, 0),
                Slot::new(Bank::I, 0),
                Slot::new(Bank::I, 2),
            ],
            elision: Default::default(),
        }
    }

    #[test]
    fn a_fold_writes_back_the_value_carried_into_the_faulting_element() {
        let mut vectored = fnv_fold();
        assert_eq!(vectorize_function(&mut vectored), 1);
        let RegOp::VecLoop { plan } = &vectored.code[1] else {
            panic!("a VecLoop in front of the header");
        };
        // The carried value, the load, the xor, the multiplier, the
        // product, the divisor and the `Mod`.
        assert_eq!(plan.out, PlanOut::Fold { reg: 2 });
        assert_eq!(plan.nodes.len(), 7);
        assert!(plan.regs().contains(&Slot::new(Bank::I, 2)));
        let hash = |d: &[i64]| {
            d.iter()
                .fold(2_166_136_261, |h, &x| ((h ^ x) * 16_777_619) % (1 << 32))
        };
        let n = 3000;
        let data: Vec<i64> = (0..n as i64).map(|k| k * 7 % 256).collect();
        // Runs the batch alone: the induction variable and the hash after it.
        let batch = |data: &[i64]| {
            let mut ints = vec![n as i64, 1, 2_166_136_261, 0, 0, 0, 0];
            let mut vals = vec![Value::Tensor(Tensor::from_i64(data.to_vec()))];
            exec_batch(plan, &AbortSignal::new(), &mut ints, &[], &mut vals).unwrap();
            (ints[1], ints[2])
        };
        // All but the last element, which the scalar tail runs.
        assert_eq!(batch(&data), (n as i64, hash(&data[..n - 1])));
        for k in [0, 1, 517, 1022, 1023, 1024, 1025, 2047, 2048, n - 2] {
            let mut data = data.clone();
            data[k] = i64::MAX;
            assert_eq!(
                batch(&data),
                (1 + k as i64, hash(&data[..k])),
                "fault at {k}"
            );
            let prog = |f: &NativeFunc| NativeProgram {
                parallel: None,
                funcs: vec![f.clone()],
            };
            let args = || {
                let t = Tensor::from_i64(data.clone());
                vec![
                    ArgVal::V(Value::Tensor(t)),
                    ArgVal::I(n as i64),
                    ArgVal::I(2_166_136_261),
                ]
            };
            let want = run(&prog(&fnv_fold()), args());
            assert_eq!(want, Err(RuntimeError::IntegerOverflow));
            assert_eq!(run(&prog(&vectored), args()), want);
        }
    }

    #[test]
    fn folds_refuse_a_store_a_second_use_and_a_register_or_zero_divisor() {
        let carried = Refusal::LoopCarried(Bank::I, 2);
        // A store the planner maps beside the fold: `t[[i]] = 1.5`.
        let store = RegOp::TenSet1 {
            kind: ElemKind::F64,
            t: 1,
            i: 1,
            v: 0,
            checked: true,
        };
        let f = insert(fnv_fold(), 3, RegOp::LdcF { d: 0, v: 1.5 });
        let mut f = insert(f, 4, store);
        (f.n_flt, f.n_val) = (1, 2);
        assert_eq!(refusal(&mut f), carried);
        // `h` feeds its chain twice: `BitXor[h, d[[i]]] * h`.
        let mut f = fnv_fold();
        f.code[4] = RegOp::IntBin {
            op: IntOp::Mul,
            d: 6,
            a: 5,
            b: 2,
        };
        assert_eq!(refusal(&mut f), carried);
        // `Mod` by the bound register, and by zero.
        let mut f = fnv_fold();
        f.code[5] = RegOp::IntBin {
            op: IntOp::Mod,
            d: 2,
            a: 6,
            b: 0,
        };
        assert_eq!(refusal(&mut f), carried);
        let mut f = fnv_fold();
        f.code[5] = RegOp::IntBinImm {
            op: IntOp::Mod,
            d: 2,
            a: 6,
            imm: 0,
        };
        assert_eq!(refusal(&mut f), carried);
        // A second carried register.
        let mut f = insert(
            fnv_fold(),
            3,
            RegOp::IntBinImm {
                op: IntOp::Add,
                d: 7,
                a: 7,
                imm: 1,
            },
        );
        f.n_int = 8;
        assert_eq!(refusal(&mut f), carried);
    }

    /// Why the planner refuses `f`'s one loop; the loop stays scalar.
    fn refusal(f: &mut NativeFunc) -> Refusal {
        let verdicts = plan_loops(&f.code);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        assert_eq!(vectorize_function(f), 0);
        verdicts[0].plan.clone().unwrap_err()
    }

    #[test]
    fn unsafe_loop_shapes_are_refused() {
        // Error-capable integer op in the body.
        let mut f = insert(
            saxpy(),
            2,
            RegOp::IntBin {
                op: IntOp::Quot,
                d: 2,
                a: 0,
                b: 1,
            },
        );
        assert_eq!(refusal(&mut f), Refusal::Op("int.bin"));

        // Load from the output tensor (loop-carried recurrence).
        let mut f = saxpy();
        if let RegOp::TenPart1 { t, .. } = &mut f.code[4] {
            *t = 2;
        }
        assert_eq!(refusal(&mut f), Refusal::ReadsOutput);

        // Float accumulator: f3 = f3 + f1 reads its own previous value.
        let mut f = saxpy();
        f.code[5] = RegOp::FltBin {
            op: FltOp::Add,
            d: 3,
            a: 3,
            b: 1,
        };
        assert_eq!(refusal(&mut f), Refusal::LoopCarried(Bank::F, 3));

        // Non-affine index: j*j.
        let mut f = saxpy();
        f.code[2] = RegOp::IntBin {
            op: IntOp::Mul,
            d: 2,
            a: 0,
            b: 0,
        };
        if let RegOp::TenSet1 { i, .. } = &mut f.code[6] {
            *i = 2;
        }
        assert_eq!(refusal(&mut f), Refusal::Op("int.bin"));

        // Float accumulator that never feeds the store: s = s + x[[j]]
        // next to out[[j]] = 2 x[[j]]. The sum is loop-carried state the
        // batch would skip, so the loop must stay scalar even though the
        // store's dataflow alone looks clean.
        let mut f = insert(
            saxpy(),
            3,
            RegOp::FltBin {
                op: FltOp::Add,
                d: 4,
                a: 4,
                b: 0,
            },
        );
        f.n_flt = 5;
        assert_eq!(refusal(&mut f), Refusal::LoopCarried(Bank::F, 4));

        // Same with an integer register: k = k + j is loop-carried too,
        // though affine.
        let mut f = insert(
            saxpy(),
            3,
            RegOp::IntBin {
                op: IntOp::Add,
                d: 3,
                a: 3,
                b: 0,
            },
        );
        f.n_int = 4;
        assert_eq!(refusal(&mut f), Refusal::LoopCarried(Bank::I, 3));

        // Dead ops off the whitelist: a float compare and a float unary
        // whose results feed nothing. Both are total, but the planner
        // accepts only the ops it batches.
        let mut f = insert(
            saxpy(),
            3,
            RegOp::FltCmp {
                op: CmpCode::Lt,
                d: 3,
                a: 0,
                b: 0,
            },
        );
        f.n_int = 4;
        assert_eq!(refusal(&mut f), Refusal::Op("flt.cmp"));
        let mut f = insert(
            saxpy(),
            3,
            RegOp::FltUn {
                op: FltUnOp::Sqrt,
                d: 4,
                s: 0,
            },
        );
        f.n_flt = 5;
        assert_eq!(refusal(&mut f), Refusal::Op("flt.un"));

        // A dead load of b[[j + 1000]]: the batch evaluates only what
        // feeds the store, so its index would go untested and the scalar
        // tail would raise PartOutOfRange for the last j instead of the
        // first.
        let f = insert(
            saxpy(),
            3,
            RegOp::IntBinImm {
                op: IntOp::Add,
                d: 3,
                a: 0,
                imm: 1000,
            },
        );
        let mut f = insert(
            f,
            4,
            RegOp::TenPart1 {
                kind: ElemKind::F64,
                d: 4,
                t: 1,
                i: 3,
                checked: true,
            },
        );
        (f.n_int, f.n_flt) = (4, 5);
        assert_eq!(refusal(&mut f), Refusal::DeadLoad);
    }
}
