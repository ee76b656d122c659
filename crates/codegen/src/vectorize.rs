//! Counted-loop vectorizer: batched execution of scalar loops.
//!
//! Scans fused native code for innermost counted loops of three shapes and
//! plants a [`RegOp::VecLoop`] superinstruction in front of the loop
//! header (the compiler runs this pass right after fusion on every
//! compile, unless its `loop_vectorize` option is off):
//!
//! - a straight-line dense `f64` tensor map (Blur's stencil row, Listable
//!   inner loops), run through the SIMD kernels;
//! - an `i64` scatter-add `t[[k]] = t[[k]] + v` whose index `k` is
//!   computed from loaded data (Histogram's `bins[[b]] = bins[[b]] + 1`),
//!   run as one plain loop per block;
//! - an `i64` fold `h = f(h, …)` of one loop-carried register and no store
//!   (FNV1a's `h = Mod[BitXor[h, bytes[[i]]] * 16777619, 2^32]`), run as a
//!   chain of flat steps per element.
//!
//! At run time the VecLoop executes all but the final iteration as one
//! batch, on the calling thread, then falls through to the untouched
//! scalar loop for the last iteration and the exit test. When a precheck
//! fails the VecLoop is a no-op and the scalar loop runs exactly as before.
//! [`plan_loops`] reports each loop's verdict: its plan, or the
//! [`Refusal`] that names why it stays scalar.
//!
//! # Soundness
//!
//! The planner refuses by default. A loop is batched only when every
//! instruction in it is on a short whitelist — the ops counted loops
//! lowered from source actually hold: affine integer `+ − ×` and `Neg`,
//! `LdcI`/`MovI`; `LdcF`/`MovF` and real `+ − × /`; `f64` and `i64`
//! `TenPart1/2` loads; checked integer `+ − ×`, `BitXor` and `Mod` by a
//! nonzero constant on loaded values or a fold's carried value; one
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
//!   it are columns as in the scatter-add; the chain is resolved at batch
//!   entry into flat steps, each with the carried value on the left (a
//!   commutative op swapped, `x − h` its own step) and a column on the
//!   right, and runs once per element. The batch writes the result back
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
//!   tensor takes one `data_mut()`: it copies iff the storage is shared
//!   at batch entry — the same condition the scalar loop's first store
//!   sees. The scatter-add takes it only once its first element is known
//!   to commit, as the scalar store would; a fold writes no tensor. Loads
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
use std::sync::Arc;

use crate::machine::{
    Bank, ElemKind, FltOp, IntOp, IntUnOp, NativeFunc, NativeProgram, RegOp, Slot,
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

/// An affine form `c + Σ coef·ints[reg] + iv_coef·(iv₀ + k)` over loop
/// invariants and the iteration number `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Affine {
    /// Constant term.
    pub c: i64,
    /// Loop-invariant integer registers with coefficients.
    pub terms: Vec<(u32, i64)>,
    /// Coefficient of the induction variable.
    pub iv_coef: i64,
}

impl Affine {
    /// Evaluates at iteration `k` in `i128`. Each product of two `i64`
    /// fits `i128`, but a multi-term sum can still wrap, so every step is
    /// checked; `None` means the precheck using this value must fail and
    /// the batch falls back to the scalar loop.
    fn eval(&self, ints: &[i64], iv0: i128, k: i128) -> Option<i128> {
        let mut acc = i128::from(self.c);
        for &(r, co) in &self.terms {
            let term = i128::from(co).checked_mul(i128::from(ints[r as usize]))?;
            acc = acc.checked_add(term)?;
        }
        let iv = i128::from(self.iv_coef).checked_mul(iv0.checked_add(k)?)?;
        acc.checked_add(iv)
    }
}

/// One value in the batched dataflow graph. A plan's nodes are all `f64`
/// (under a map) or all `i64` (under a scatter-add or a fold).
#[derive(Debug, Clone, PartialEq)]
pub enum VecNode {
    /// Literal constant.
    Const(f64),
    /// Loop-invariant float register (read at batch entry).
    Reg(u32),
    /// Tensor element load — `f64` in a map, `i64` otherwise; `row` is
    /// `None` for rank-1 tensors. Indices are 1-based affine forms,
    /// bounds-checked at batch entry.
    Load {
        /// Index into [`VecPlan::tensors`].
        tensor: u32,
        /// Row index (rank-2 only).
        row: Option<Affine>,
        /// Column (or sole) index.
        col: Affine,
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
    /// Integer immediate.
    Int(i64),
    /// Integer op of two earlier nodes: checked `+ − ×` (tested per
    /// element), `BitXor`, or `Mod` by a nonzero [`VecNode::Int`] on the
    /// right.
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

/// An input tensor the batch reads.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorRef {
    /// Value slot holding the tensor.
    pub slot: u32,
    /// Required rank (1 or 2).
    pub rank: u32,
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
    /// Input tensors (never the output object).
    pub tensors: Vec<TensorRef>,
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
        let (out, out_int, out_val) = match &self.out {
            PlanOut::Map { slot, row, col, .. } => {
                (vec![row.as_ref(), Some(col)], None, Some(*slot))
            }
            PlanOut::AddAt { slot, .. } => (Vec::new(), None, Some(*slot)),
            PlanOut::Fold { reg } => (Vec::new(), Some(*reg), None),
        };
        let affines = self
            .nodes
            .iter()
            .flat_map(|n| match n {
                VecNode::Load { row, col, .. } => vec![row.as_ref(), Some(col)],
                _ => Vec::new(),
            })
            .chain(out)
            .flatten()
            .chain(&self.int_checks);
        let ints = [self.iv, self.bound]
            .into_iter()
            .chain(out_int)
            .chain(affines.flat_map(|a| a.terms.iter().map(|&(r, _)| r)))
            .map(|r| Slot::new(Bank::I, r));
        let flts = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                VecNode::Reg(r) => Some(*r),
                _ => None,
            })
            .map(|r| Slot::new(Bank::F, r));
        let vals = self
            .tensors
            .iter()
            .map(|t| t.slot)
            .chain(out_val)
            .map(|r| Slot::new(Bank::V, r));
        ints.chain(flts).chain(vals).collect()
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

/// Affine form over *entry values* of integer registers: `c + Σ coef·Init(r)`.
#[derive(Debug, Clone, PartialEq)]
struct SymAffine {
    c: i64,
    /// Sorted by register, no zero coefficients.
    terms: Vec<(u32, i64)>,
}

impl SymAffine {
    fn konst(c: i64) -> Self {
        SymAffine {
            c,
            terms: Vec::new(),
        }
    }

    fn reg(r: u32) -> Self {
        SymAffine {
            c: 0,
            terms: vec![(r, 1)],
        }
    }

    fn add(&self, other: &SymAffine, negate: bool) -> Option<SymAffine> {
        let c = if negate {
            self.c.checked_sub(other.c)?
        } else {
            self.c.checked_add(other.c)?
        };
        let mut terms = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < other.terms.len() {
            let pick_self = j >= other.terms.len()
                || (i < self.terms.len() && self.terms[i].0 <= other.terms[j].0);
            let pick_other = i >= self.terms.len()
                || (j < other.terms.len() && other.terms[j].0 <= self.terms[i].0);
            let (r, co) = if pick_self && pick_other {
                let o = if negate {
                    self.terms[i].1.checked_sub(other.terms[j].1)?
                } else {
                    self.terms[i].1.checked_add(other.terms[j].1)?
                };
                let r = self.terms[i].0;
                i += 1;
                j += 1;
                (r, o)
            } else if pick_self {
                let t = self.terms[i];
                i += 1;
                t
            } else {
                let (r, co) = other.terms[j];
                j += 1;
                (r, if negate { co.checked_neg()? } else { co })
            };
            if co != 0 {
                terms.push((r, co));
            }
        }
        Some(SymAffine { c, terms })
    }

    fn scale(&self, k: i64) -> Option<SymAffine> {
        let c = self.c.checked_mul(k)?;
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(r, co) in &self.terms {
            let co = co.checked_mul(k)?;
            if co != 0 {
                terms.push((r, co));
            }
        }
        Some(SymAffine { c, terms })
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.c)
    }

    /// Is exactly `Init(r) + 1` (the induction-variable step)?
    fn is_incr_of(&self, r: u32) -> bool {
        self.c == 1 && self.terms == [(r, 1)]
    }
}

/// Symbolic value of an integer register.
#[derive(Debug, Clone, PartialEq)]
enum SymInt {
    /// Affine in the entry values of integer registers.
    Aff(SymAffine),
    /// Computed from loaded data: the value of node `n`.
    Node(usize),
}

/// Symbolic dataflow node.
#[derive(Debug, Clone, PartialEq)]
enum SymNode {
    Const(f64),
    Reg(u32),
    /// A tensor element; `int` for an `i64` load.
    Load {
        addr: SymAddr,
        int: bool,
    },
    Bin {
        op: SimdOp,
        l: usize,
        r: usize,
    },
    Int(i64),
    IntBin {
        op: IntOp,
        l: usize,
        r: usize,
    },
    Carried,
}

/// A load or store address: value slot, rank, row (rank 2) and column.
type SymAddr = (u32, u32, Option<SymInt>, SymInt);

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
    imap: HashMap<u32, SymInt>,
    written_ints: HashSet<u32>,
    /// Integer registers read before their first write in the iteration:
    /// their entry value is live into the body, so writing them makes the
    /// register loop-carried.
    first_read_ints: HashSet<u32>,
    nodes: Vec<SymNode>,
    fmap: HashMap<u32, usize>,
    written_flts: HashSet<u32>,
    /// Float registers read before their first write in the iteration.
    first_read_flts: HashSet<u32>,
    store: Option<SymStore>,
    int_checks: Vec<SymAffine>,
    /// The first integer op off the whitelist. It does not stop the scan,
    /// so that the loop-carried test can name the more basic reason.
    deferred: Option<Refusal>,
}

impl Planner {
    /// A planner whose integer register `r` holds the fold's
    /// [`SymNode::Carried`], node 0.
    fn seeded(r: u32) -> Self {
        let mut pl = Planner::default();
        let n = pl.push(SymNode::Carried);
        pl.imap.insert(r, SymInt::Node(n));
        pl
    }

    fn rd_i(&mut self, r: u32) -> SymInt {
        if !self.written_ints.contains(&r) {
            self.first_read_ints.insert(r);
        }
        self.imap
            .get(&r)
            .cloned()
            .unwrap_or_else(|| SymInt::Aff(SymAffine::reg(r)))
    }

    fn wr_i(&mut self, r: u32, f: SymInt) {
        self.imap.insert(r, f);
        self.written_ints.insert(r);
    }

    fn rd_f(&mut self, r: u32) -> usize {
        if !self.written_flts.contains(&r) {
            self.first_read_flts.insert(r);
        }
        if let Some(&n) = self.fmap.get(&r) {
            return n;
        }
        let id = self.push(SymNode::Reg(r));
        self.fmap.insert(r, id);
        id
    }

    fn wr_f(&mut self, r: u32, node: usize) {
        self.fmap.insert(r, node);
        self.written_flts.insert(r);
    }

    fn push(&mut self, n: SymNode) -> usize {
        self.nodes.push(n);
        self.nodes.len() - 1
    }

    /// Integer binary op: affine when both operands are (its result
    /// endpoint-checked), a node when either comes from data or the
    /// carried register: checked `+ − ×`, `BitXor`, or `Mod` by a nonzero
    /// constant. Any other op (`None`) refuses the loop.
    fn int_bin_sym(&mut self, op: IntOp, x: &SymInt, y: &SymInt) -> Option<SymInt> {
        use IntOp::*;
        if let (SymInt::Aff(x), SymInt::Aff(y)) = (x, y) {
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
            return Some(SymInt::Aff(out));
        }
        let op = match op {
            Add | AddU => Add,
            Sub | SubU => Sub,
            Mul | MulU => Mul,
            BitXor => BitXor,
            Mod if matches!(y, SymInt::Aff(a) if a.as_const().is_some_and(|c| c != 0)) => Mod,
            _ => return None,
        };
        let (l, r) = (self.int_node(x)?, self.int_node(y)?);
        Some(SymInt::Node(self.push(SymNode::IntBin { op, l, r })))
    }

    /// An operand of a data-dependent op as a node: a constant becomes an
    /// immediate, any other affine value refuses (no loop mixes the two).
    fn int_node(&mut self, x: &SymInt) -> Option<usize> {
        match x {
            SymInt::Node(n) => Some(*n),
            SymInt::Aff(a) => {
                let c = a.as_const()?;
                Some(self.push(SymNode::Int(c)))
            }
        }
    }

    /// [`Self::int_bin_sym`] into `d`; an op it refuses is deferred, and
    /// `d` gets a stand-in node so the scan goes on.
    fn int_bin(&mut self, op: IntOp, d: u32, x: &SymInt, y: &SymInt, refuse: Refusal) {
        let out = self.int_bin_sym(op, x, y).unwrap_or_else(|| {
            self.deferred.get_or_insert(refuse);
            SymInt::Node(self.push(SymNode::Int(0)))
        });
        self.wr_i(d, out);
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
        match kind {
            ElemKind::F64 => {
                let n = self.push(SymNode::Load { addr, int: false });
                self.wr_f(d, n);
            }
            ElemKind::I64 => {
                let n = self.push(SymNode::Load { addr, int: true });
                self.wr_i(d, SymInt::Node(n));
            }
            ElemKind::C64 => return None,
        }
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
            (ElemKind::F64, (_, _, None | Some(SymInt::Aff(_)), SymInt::Aff(_))) => self.rd_f(v),
            (ElemKind::F64, _) => return Err(Refusal::DataIndex),
            (ElemKind::I64, (_, 1, None, SymInt::Node(_))) => {
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
            RegOp::LdcI { d, v } => self.wr_i(*d, SymInt::Aff(SymAffine::konst(*v))),
            RegOp::MovI { d, s } => {
                let f = self.rd_i(*s);
                self.wr_i(*d, f);
            }
            RegOp::IntBin { op, d, a, b } => {
                let (x, y) = (self.rd_i(*a), self.rd_i(*b));
                self.int_bin(*op, *d, &x, &y, refuse);
            }
            RegOp::IntBinImm { op, d, a, imm } => {
                let x = self.rd_i(*a);
                let imm = SymInt::Aff(SymAffine::konst(*imm));
                self.int_bin(*op, *d, &x, &imm, refuse);
            }
            RegOp::IntUn {
                op: IntUnOp::Neg,
                d,
                s,
            } => {
                let SymInt::Aff(x) = self.rd_i(*s) else {
                    return Err(refuse);
                };
                let out = x.scale(-1).ok_or(refuse)?;
                self.int_checks.push(out.clone());
                self.wr_i(*d, SymInt::Aff(out));
            }
            RegOp::LdcF { d, v } => {
                let n = self.push(SymNode::Const(*v));
                self.wr_f(*d, n);
            }
            RegOp::MovF { d, s } => {
                let n = self.rd_f(*s);
                self.wr_f(*d, n);
            }
            RegOp::FltBin { op, d, a, b } => {
                let (l, r) = (self.rd_f(*a), self.rd_f(*b));
                let n = self.flt_bin_sym(*op, l, r).ok_or(refuse)?;
                self.wr_f(*d, n);
            }
            RegOp::FltBinImm { op, d, a, imm } => {
                let l = self.rd_f(*a);
                let r = self.push(SymNode::Const(*imm));
                let n = self.flt_bin_sym(*op, l, r).ok_or(refuse)?;
                self.wr_f(*d, n);
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
fn index_nodes((_, _, row, col): &SymAddr) -> impl Iterator<Item = usize> + '_ {
    [row.as_ref(), Some(col)]
        .into_iter()
        .filter_map(|ix| match ix {
            Some(SymInt::Node(n)) => Some(*n),
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
    let pl = iterate(code, &h, latch, Planner::default())?;
    // Loop-carried scalars: a register read before its first write in the
    // iteration consumes the previous iteration's value, and the batch
    // replays no per-iteration updates but the induction variable's and a
    // fold's. Refuse any other regardless of whether the value feeds the
    // store — code after the loop may read the register (e.g. a running
    // accumulator `s = s + x[[j]]` next to the store), and the tail
    // iteration alone would leave it at entry-value + one update: a silent
    // wrong answer.
    let carried = |written: &HashSet<u32>, first_read: &HashSet<u32>, skip: Option<u32>| {
        let mut regs: Vec<u32> = written.intersection(first_read).copied().collect();
        regs.retain(|&r| Some(r) != skip);
        regs.sort_unstable();
        regs
    };
    let ints = carried(&pl.written_ints, &pl.first_read_ints, Some(h.iv));
    let flts = carried(&pl.written_flts, &pl.first_read_flts, None);
    if let Some(&r) = ints.first() {
        // A fold: the one carried register, beside no store and no carried
        // float, re-run with its entry value as the chain's start.
        let why = Refusal::LoopCarried(Bank::I, r);
        if ints.len() > 1 || !flts.is_empty() || pl.store.is_some() {
            return Err(why);
        }
        let pl = iterate(code, &h, latch, Planner::seeded(r)).map_err(|_| why)?;
        return build(&pl, &h, Some(r)).map_err(|_| why);
    }
    if let Some(&r) = flts.first() {
        return Err(Refusal::LoopCarried(Bank::F, r));
    }
    build(&pl, &h, None)
}

/// Symbolic execution of one full iteration of the loop `h` heads into
/// `pl`: the taken compare, the body, and the latch's non-jump writes. A
/// refusal names the first op refused in program order.
fn iterate(code: &[RegOp], h: &Header, latch: usize, mut pl: Planner) -> Result<Planner, Refusal> {
    pl.wr_i(h.cond, SymInt::Aff(SymAffine::konst(1))); // taken: condition true
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
    let steps_by_one = matches!(pl.rd_i(h.iv), SymInt::Aff(a) if a.is_incr_of(h.iv));
    if !steps_by_one || pl.written_ints.contains(&h.bound) {
        return Err(Refusal::NotCounted);
    }
    Ok(pl)
}

/// Lowers an iteration `pl` to a plan: the fold of register `fold`, whose
/// entry value is `pl`'s node 0, or else the body's one store.
#[allow(clippy::too_many_lines)]
fn build(pl: &Planner, h: &Header, fold: Option<u32>) -> Result<VecPlan, Refusal> {
    if let Some(refusal) = pl.deferred {
        return Err(refusal);
    }
    // The nodes the batch evaluates for their own sake: the fold's result,
    // or the stored element and the store's index.
    let (store, roots): (_, Vec<usize>) = match fold {
        Some(r) => match pl.imap.get(&r) {
            Some(SymInt::Node(root)) => (None, vec![*root]),
            _ => return Err(Refusal::LoopCarried(Bank::I, r)),
        },
        None => {
            let store = pl.store.clone().ok_or(Refusal::NoStore)?;
            let roots = [store.value].into_iter().chain(index_nodes(&store.addr));
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
                live[*l] = true;
                live[*r] = true;
            }
            SymNode::Load { addr, .. } => {
                for k in index_nodes(addr) {
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
                SymNode::IntBin { l, r: rr, .. } if dep[*l] && dep[*rr] => {
                    return Err(Refusal::LoopCarried(Bank::I, r));
                }
                SymNode::IntBin { l, r: rr, .. } => dep[*l] || dep[*rr],
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
                addr: (out, _, _, SymInt::Node(index)),
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
            let is_acc = |n: usize| {
                matches!(&pl.nodes[n], SymNode::Load { addr: (s, 1, None, SymInt::Node(k)), .. }
                    if s == out && k == index)
            };
            let reads_out =
                |n: &SymNode| matches!(n, SymNode::Load { addr: (s, ..), .. } if s == out);
            let (acc, addend) = match (is_acc(l), is_acc(r)) {
                (true, false) => (l, r),
                (false, true) => (r, l),
                (false, false) if !pl.nodes.iter().any(reads_out) => {
                    return Err(Refusal::Op(store.mnemonic));
                }
                _ => return Err(Refusal::ReadsOutput),
            };
            Some((*index, acc, addend, store.value))
        }
        _ => None,
    };
    // Convert symbolic affines to runtime forms: terms may reference only
    // invariants; the induction variable folds into `iv_coef`.
    let lower_aff = |a: &SymAffine| -> Result<Affine, Refusal> {
        let mut out = Affine {
            c: a.c,
            terms: Vec::new(),
            iv_coef: 0,
        };
        for &(r, co) in &a.terms {
            if r == h.iv {
                out.iv_coef = co;
            } else if pl.written_ints.contains(&r) {
                return Err(Refusal::LoopCarried(Bank::I, r));
            } else {
                out.terms.push((r, co));
            }
        }
        Ok(out)
    };
    let lower = |ix: &SymInt| match ix {
        SymInt::Aff(a) => lower_aff(a),
        SymInt::Node(_) => Err(Refusal::DataIndex),
    };
    let lower_row = |row: &Option<SymInt>| row.as_ref().map(lower).transpose();
    // Lower the nodes (insertion order is already topological; node
    // indices fit `u32` as the body's pcs do) and collect the input
    // tensors.
    let skipped = scatter.map(|(_, acc, _, sum)| [acc, sum]);
    let mut remap: Vec<Option<u32>> = vec![None; pl.nodes.len()];
    let at = |remap: &[Option<u32>], n: usize| remap[n].ok_or(Refusal::ReadsOutput);
    let mut tensors: Vec<TensorRef> = Vec::new();
    let mut tensor_ix: HashMap<u32, u32> = HashMap::new();
    let mut nodes: Vec<VecNode> = Vec::with_capacity(pl.nodes.len());
    for (n, node) in pl.nodes.iter().enumerate() {
        if skipped.is_some_and(|s| s.contains(&n)) {
            continue;
        }
        nodes.push(match node {
            SymNode::Const(c) => VecNode::Const(*c),
            SymNode::Reg(r) => {
                if pl.written_flts.contains(r) {
                    return Err(Refusal::LoopCarried(Bank::F, *r));
                }
                VecNode::Reg(*r)
            }
            SymNode::Load {
                addr: (slot, rank, row, col),
                ..
            } => {
                if Some(*slot) == out_slot {
                    return Err(Refusal::ReadsOutput);
                }
                let ix = match tensor_ix.get(slot) {
                    Some(&ix) if tensors[ix as usize].rank != *rank => {
                        return Err(Refusal::Op("ten.part2"));
                    }
                    Some(&ix) => ix,
                    None => {
                        let ix = tensors.len() as u32;
                        tensors.push(TensorRef {
                            slot: *slot,
                            rank: *rank,
                        });
                        tensor_ix.insert(*slot, ix);
                        ix
                    }
                };
                VecNode::Load {
                    tensor: ix,
                    row: lower_row(row)?,
                    col: lower(col)?,
                }
            }
            SymNode::Bin { op, l, r } => VecNode::Bin {
                op: *op,
                l: at(&remap, *l)?,
                r: at(&remap, *r)?,
            },
            SymNode::Int(c) => VecNode::Int(*c),
            SymNode::IntBin { op, l, r } => VecNode::IntBin {
                op: *op,
                l: at(&remap, *l)?,
                r: at(&remap, *r)?,
            },
            SymNode::Carried => VecNode::Carried,
        });
        remap[n] = Some(nodes.len() as u32 - 1);
    }
    let int_checks = pl
        .int_checks
        .iter()
        .map(lower_aff)
        .collect::<Result<Vec<_>, _>>()?;
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
        tensors,
        out,
        nodes,
        root,
        int_checks,
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
    let n = f.code.len();
    let accepted: Vec<(usize, usize, VecPlan)> = plan_loops(&f.code)
        .into_iter()
        .filter_map(|v| Some((v.header, v.latch, v.plan.ok()?)))
        .collect();
    if accepted.is_empty() {
        return 0;
    }
    let count = accepted.len();
    // Latch order: loops do not overlap, so this is header order too.
    let starts: Vec<usize> = accepted.iter().map(|&(l, _, _)| l).collect();
    // shifted(t) = t + (number of VecLoops inserted at or before t); jumps
    // to a loop start land on its VecLoop (one earlier) so every loop
    // entry — fallthrough or branch — runs the batch first.
    let shift = |t: usize| t + starts.partition_point(|&s| s <= t);
    let mut new_pc: Vec<usize> = (0..=n).map(shift).collect();
    for &l in &starts {
        new_pc[l] = shift(l) - 1;
    }
    let mut out: Vec<RegOp> = Vec::with_capacity(n + count);
    let mut next = accepted.iter().peekable();
    for (t, op) in f.code.iter().enumerate() {
        if let Some((_, _, plan)) = next.next_if(|&&(l, _, _)| l == t) {
            out.push(RegOp::VecLoop {
                plan: Arc::new(plan.clone()),
            });
        }
        out.push(op.clone());
    }
    for op in &mut out {
        op.map_targets(|t| new_pc[t]);
    }
    // Back-edges must re-enter at the *scalar header*, not the VecLoop:
    // re-batching per scalar iteration would re-run the prechecks each
    // time for a batch the entry already consumed.
    for &(l, latch, _) in &accepted {
        out[shift(latch)].map_targets(|_| shift(l));
    }
    f.code = out;
    count
}

// ---------------------------------------------------------------------------
// Runtime execution.
// ---------------------------------------------------------------------------

/// Resolved load/store addressing: `element(k) = off0 + k·stride`.
#[derive(Clone, Copy)]
struct Addr {
    off0: i128,
    stride: i128,
}

/// Checks an index affine against `1..=dim` at both batch endpoints
/// (linear ⇒ the interior is covered) and returns its value at `k = 0`.
/// Evaluation overflow counts as a failed check. The test runs whether or
/// not the scalar op was proved in bounds: it costs two comparisons per
/// batch.
fn index_endpoints(a: &Affine, ints: &[i64], iv0: i128, m: i128, dim: usize) -> Option<i128> {
    let at0 = a.eval(ints, iv0, 0)?;
    let at_end = a.eval(ints, iv0, m - 1)?;
    let inside = |at: i128| (1..=dim as i128).contains(&at);
    (inside(at0) && inside(at_end)).then_some(at0)
}

fn resolve_addr(
    row: Option<&Affine>,
    col: &Affine,
    shape: &[usize],
    ints: &[i64],
    iv0: i128,
    m: i128,
) -> Option<Addr> {
    match row {
        None => {
            let c0 = index_endpoints(col, ints, iv0, m, shape[0])?;
            Some(Addr {
                off0: c0 - 1,
                stride: i128::from(col.iv_coef),
            })
        }
        Some(r) => {
            let r0 = index_endpoints(r, ints, iv0, m, shape[0])?;
            let c0 = index_endpoints(col, ints, iv0, m, shape[1])?;
            let cols = shape[1] as i128;
            Some(Addr {
                off0: (r0 - 1) * cols + (c0 - 1),
                stride: i128::from(r.iv_coef) * cols + i128::from(col.iv_coef),
            })
        }
    }
}

/// Resolved operand of a batched node.
#[derive(Clone, Copy)]
enum Tag {
    /// Constant across the batch.
    Sc(f64),
    /// Contiguous input run starting at `off0` (stride 1).
    In { input: usize, off0: usize },
    /// Materialized in scratch buffer `buf`.
    Buf(usize),
}

enum Step {
    Gather {
        input: usize,
        addr: Addr,
        buf: usize,
    },
    Bin {
        op: SimdOp,
        l: Tag,
        r: Tag,
        buf: usize,
    },
}

/// Evaluates nodes for the k-range `[s, s+len)` into `dest`.
fn eval_block(
    steps: &[Step],
    root: Tag,
    inputs: &[&[f64]],
    scratch: &mut [Vec<f64>],
    s: usize,
    len: usize,
    dest: &mut [f64],
) {
    debug_assert_eq!(dest.len(), len);
    for step in steps {
        match step {
            Step::Gather { input, addr, buf } => {
                let (_, rest) = scratch.split_at_mut(*buf);
                let b = &mut rest[0][..len];
                let data = inputs[*input];
                for (t, slot) in b.iter_mut().enumerate() {
                    *slot = data[(addr.off0 + (s + t) as i128 * addr.stride) as usize];
                }
            }
            Step::Bin { op, l, r, buf } => {
                let (done, rest) = scratch.split_at_mut(*buf);
                let out = &mut rest[0][..len];
                match (*l, *r) {
                    (Tag::Sc(x), Tag::Sc(y)) => simd::fill(out, op.apply(x, y)),
                    (Tag::Sc(x), rt) => {
                        let rs = tag_slice(rt, inputs, done, s, len);
                        simd::sv(*op, x, rs, out);
                    }
                    (lt, Tag::Sc(y)) => {
                        let ls = tag_slice(lt, inputs, done, s, len);
                        simd::vs(*op, ls, y, out);
                    }
                    (lt, rt) => {
                        let ls = tag_slice(lt, inputs, done, s, len);
                        let rs = tag_slice(rt, inputs, done, s, len);
                        simd::vv(*op, ls, rs, out);
                    }
                }
            }
        }
    }
    match root {
        Tag::Sc(c) => simd::fill(dest, c),
        Tag::In { input, off0 } => dest.copy_from_slice(&inputs[input][off0 + s..off0 + s + len]),
        Tag::Buf(b) => dest.copy_from_slice(&scratch[b][..len]),
    }
}

fn tag_slice<'a>(
    tag: Tag,
    inputs: &'a [&'a [f64]],
    done: &'a [Vec<f64>],
    s: usize,
    len: usize,
) -> &'a [f64] {
    match tag {
        Tag::In { input, off0 } => &inputs[input][off0 + s..off0 + s + len],
        Tag::Buf(b) => &done[b][..len],
        Tag::Sc(_) => unreachable!("scalar operand has no slice"),
    }
}

/// Executes the batch for `plan`: the `f64` map when every precheck
/// holds, the scatter-add or the fold up to its first failing element. Whatever the
/// batch does not commit — all of it when a precheck fails — runs in the
/// scalar loop, which raises whatever error the checks anticipated.
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
    for a in &plan.int_checks {
        for k in [0, m - 1] {
            let Some(v) = a.eval(ints, iv0, k) else {
                return Ok(());
            };
            if v < i128::from(i64::MIN) || v > i128::from(i64::MAX) {
                return Ok(());
            }
        }
    }
    let done = match plan.out {
        PlanOut::Map { .. } => exec_map(plan, abort, ints, flts, vals, iv0, m)?,
        PlanOut::AddAt { .. } => exec_scatter_add(plan, abort, ints, vals, iv0, m)?,
        PlanOut::Fold { .. } => exec_fold(plan, abort, ints, vals, iv0, m)?,
    };
    // The batch consumed iterations 0..done: advance the induction
    // variable (endpoint-checked above).
    ints[plan.iv as usize] = (iv0 + done) as i64;
    Ok(())
}

/// The plan's input tensors, each of its rank and with elements `kind`
/// accepts, or `None`. Cloned *before* the output's data_mut: if the
/// output storage is shared (including with an input), data_mut copies
/// it — exactly when the scalar loop's first store would have copied.
fn clone_inputs(
    plan: &VecPlan,
    vals: &[Value],
    kind: impl Fn(&TensorData) -> bool,
) -> Option<Vec<Tensor>> {
    let input = |tr: &TensorRef| match &vals[tr.slot as usize] {
        Value::Tensor(t) if t.rank() == tr.rank as usize && kind(t.data()) => Some(t.clone()),
        _ => None,
    };
    plan.tensors.iter().map(input).collect()
}

/// The `f64` map over iterations `0..m`: all of them, or none (returns
/// 0) when a precheck fails.
#[allow(clippy::too_many_lines)]
fn exec_map(
    plan: &VecPlan,
    abort: &AbortSignal,
    ints: &[i64],
    flts: &[f64],
    vals: &mut [Value],
    iv0: i128,
    m: i128,
) -> Result<i128, RuntimeError> {
    let PlanOut::Map {
        slot,
        rank,
        row,
        col,
    } = &plan.out
    else {
        unreachable!("a map stores at an affine index")
    };
    let Some(inputs) = clone_inputs(plan, vals, |d| matches!(d, TensorData::F64(_))) else {
        return Ok(0);
    };
    let out_addr = {
        let Value::Tensor(t) = &vals[*slot as usize] else {
            return Ok(0);
        };
        if t.rank() != *rank as usize || !matches!(t.data(), TensorData::F64(_)) {
            return Ok(0);
        }
        let Some(addr) = resolve_addr(row.as_ref(), col, t.shape(), ints, iv0, m) else {
            return Ok(0);
        };
        addr
    };
    // Resolve node operands; loads also validate their bounds here.
    let mut tags: Vec<Tag> = Vec::with_capacity(plan.nodes.len());
    let mut steps: Vec<Step> = Vec::new();
    let mut n_bufs = 0usize;
    for node in &plan.nodes {
        let tag = match node {
            VecNode::Const(c) => Tag::Sc(*c),
            VecNode::Reg(r) => Tag::Sc(flts[*r as usize]),
            VecNode::Load { tensor, row, col } => {
                let t = &inputs[*tensor as usize];
                let Some(addr) = resolve_addr(row.as_ref(), col, t.shape(), ints, iv0, m) else {
                    return Ok(0);
                };
                if addr.stride == 0 {
                    let TensorData::F64(data) = t.data() else {
                        unreachable!()
                    };
                    Tag::Sc(data[addr.off0 as usize])
                } else if addr.stride == 1 {
                    Tag::In {
                        input: *tensor as usize,
                        off0: addr.off0 as usize,
                    }
                } else {
                    let buf = n_bufs;
                    n_bufs += 1;
                    steps.push(Step::Gather {
                        input: *tensor as usize,
                        addr,
                        buf,
                    });
                    Tag::Buf(buf)
                }
            }
            VecNode::Bin { op, l, r } => {
                let (lt, rt) = (tags[*l as usize], tags[*r as usize]);
                if let (Tag::Sc(x), Tag::Sc(y)) = (lt, rt) {
                    Tag::Sc(op.apply(x, y))
                } else {
                    let buf = n_bufs;
                    n_bufs += 1;
                    steps.push(Step::Bin {
                        op: *op,
                        l: lt,
                        r: rt,
                        buf,
                    });
                    Tag::Buf(buf)
                }
            }
            VecNode::Int(_) | VecNode::IntBin { .. } | VecNode::Carried => {
                unreachable!("a map holds f64 nodes only")
            }
        };
        tags.push(tag);
    }
    let root = tags[plan.root as usize];
    // Commit: one data_mut on the output (COW-exact, see above), then
    // evaluate the batch block by block, in iteration order.
    let m_us = m as usize;
    let input_slices: Vec<&[f64]> = inputs
        .iter()
        .map(|t| match t.data() {
            TensorData::F64(v) => &v[..],
            _ => unreachable!(),
        })
        .collect();
    let Value::Tensor(out_t) = &mut vals[*slot as usize] else {
        unreachable!()
    };
    let TensorData::F64(out_data) = out_t.data_mut() else {
        unreachable!()
    };
    let mut scratch = vec![vec![0.0f64; BLOCK]; n_bufs];
    let mut block = vec![0.0f64; BLOCK];
    let mut s = 0;
    while s < m_us {
        abort.check()?;
        let len = (m_us - s).min(BLOCK);
        if out_addr.stride == 1 {
            let start = (out_addr.off0 + s as i128) as usize;
            eval_block(
                &steps,
                root,
                &input_slices,
                &mut scratch,
                s,
                len,
                &mut out_data[start..start + len],
            );
        } else {
            eval_block(
                &steps,
                root,
                &input_slices,
                &mut scratch,
                s,
                len,
                &mut block[..len],
            );
            for (t, &v) in block[..len].iter().enumerate() {
                out_data[(out_addr.off0 + (s + t) as i128 * out_addr.stride) as usize] = v;
            }
        }
        s += len;
    }
    Ok(m)
}

/// One step of a scatter-add block: fills node `node`'s column.
enum IntStep {
    /// An input's elements at an affine index.
    Gather {
        node: usize,
        input: usize,
        addr: Addr,
    },
    /// An integer op of two earlier columns.
    Bin {
        node: usize,
        op: IntOp,
        l: usize,
        r: usize,
    },
}

/// Fills the columns of iterations `[s, s + len)`; returns how many
/// leading iterations pass every checked op.
fn eval_int_block(
    steps: &[IntStep],
    inputs: &[&[i64]],
    cols: &mut [Vec<i64>],
    s: usize,
    len: usize,
) -> usize {
    let mut valid = len;
    for step in steps {
        match *step {
            IntStep::Gather { node, input, addr } => {
                // In bounds at both endpoints, so every offset fits.
                let base = (addr.off0 + s as i128 * addr.stride) as usize;
                let out = &mut cols[node][..valid];
                if addr.stride == 1 {
                    out.copy_from_slice(&inputs[input][base..base + valid]);
                } else {
                    let stride = addr.stride as isize;
                    for (t, x) in out.iter_mut().enumerate() {
                        *x = inputs[input][base.wrapping_add_signed(t as isize * stride)];
                    }
                }
            }
            IntStep::Bin { node, op, l, r } => {
                let (done, rest) = cols.split_at_mut(node);
                let (a, b) = (&done[l][..valid], &done[r][..valid]);
                let out = &mut rest[0][..valid];
                valid = match op {
                    IntOp::Add => checked_column(a, b, out, i64::checked_add),
                    IntOp::Sub => checked_column(a, b, out, i64::checked_sub),
                    IntOp::Mul => checked_column(a, b, out, i64::checked_mul),
                    IntOp::BitXor => checked_column(a, b, out, |x, y| Some(x ^ y)),
                    IntOp::Mod => checked_column(a, b, out, |x, y| mod_i64(x, y).ok()),
                    _ => unreachable!("integer nodes are checked + − ×, xor and Mod"),
                };
            }
        }
    }
    valid
}

/// `out[t] = f(a[t], b[t])` up to the first `None`; returns how many
/// succeeded.
#[inline(always)]
fn checked_column(
    a: &[i64],
    b: &[i64],
    out: &mut [i64],
    f: impl Fn(i64, i64) -> Option<i64>,
) -> usize {
    for (t, ((&x, &y), o)) in a.iter().zip(b).zip(out.iter_mut()).enumerate() {
        let Some(v) = f(x, y) else {
            return t;
        };
        *o = v;
    }
    out.len()
}

/// One element of a scatter-add: the position and new value of
/// `out[[k]] + v`, or `None` where the scalar `t[[k]] + v` raises (the
/// index resolved by the machine's own rule, the sum checked).
#[inline(always)]
fn add_at(out: &[i64], k: i64, v: i64) -> Option<(usize, i64)> {
    let p = resolve_part_index(k, out.len()).ok()?;
    Some((p, out[p].checked_add(v)?))
}

/// One link of a fold's chain: the carried value `h` on the left, and on
/// the right a column (an immediate's column is filled once).
#[derive(Clone, Copy)]
enum Link {
    Add(usize),
    Sub(usize),
    /// `col − h`: a `Sub` with the carried value on the right.
    SubFrom(usize),
    Mul(usize),
    Xor(usize),
    /// `Mod` by a positive power of two `2^k`, as `h & (2^k − 1)`: exact
    /// for every `i64` under floored `Mod` (two's complement).
    Mask(i64),
    /// `Mod` by any other nonzero constant.
    Mod(i64),
}

/// A plan's integer nodes, resolved at batch entry.
struct IntProgram {
    /// The steps that fill the columns of the nodes that do not depend on
    /// a fold's carried value.
    steps: Vec<IntStep>,
    /// One column per node (immediates filled once; empty for the chain).
    cols: Vec<Vec<i64>>,
    /// The chain of the nodes that do, in order.
    chain: Vec<Link>,
}

/// The integer nodes of `plan` at batch entry; `None` when a load's index
/// fails its endpoint check.
fn int_program(
    plan: &VecPlan,
    inputs: &[Tensor],
    ints: &[i64],
    iv0: i128,
    m: i128,
) -> Option<IntProgram> {
    let len = (m as usize).min(BLOCK);
    let mut cols = vec![Vec::new(); plan.nodes.len()];
    let mut dep = vec![false; plan.nodes.len()];
    let (mut steps, mut chain) = (Vec::new(), Vec::new());
    for (node, n) in plan.nodes.iter().enumerate() {
        match n {
            VecNode::Carried => dep[node] = true,
            VecNode::Int(c) => cols[node] = vec![*c; len],
            VecNode::Load { tensor, row, col } => {
                let input = *tensor as usize;
                let shape = inputs[input].shape();
                let addr = resolve_addr(row.as_ref(), col, shape, ints, iv0, m)?;
                steps.push(IntStep::Gather { node, input, addr });
                cols[node] = vec![0; len];
            }
            &VecNode::IntBin { op, l, r } => {
                let (l, r) = (l as usize, r as usize);
                if !dep[l] && !dep[r] {
                    steps.push(IntStep::Bin { node, op, l, r });
                    cols[node] = vec![0; len];
                    continue;
                }
                // Linear (plan-time rule): exactly one operand is carried.
                let y = if dep[l] { r } else { l };
                chain.push(match op {
                    IntOp::Add => Link::Add(y),
                    IntOp::Sub if dep[l] => Link::Sub(y),
                    IntOp::Sub => Link::SubFrom(y),
                    IntOp::Mul => Link::Mul(y),
                    IntOp::BitXor => Link::Xor(y),
                    IntOp::Mod => match plan.nodes[r] {
                        VecNode::Int(d) if d > 0 && d & (d - 1) == 0 => Link::Mask(d - 1),
                        VecNode::Int(d) => Link::Mod(d),
                        _ => unreachable!("a divisor is a nonzero constant"),
                    },
                    _ => unreachable!("integer nodes are checked + − ×, xor and Mod"),
                });
                dep[node] = true;
            }
            VecNode::Const(_) | VecNode::Reg(_) | VecNode::Bin { .. } => {
                unreachable!("integer plans hold i64 nodes only")
            }
        }
    }
    Some(IntProgram { steps, cols, chain })
}

/// The `i64` scatter-add over iterations `0..m`, in iteration order, one
/// block at a time: the block's index and addend columns first, then one
/// plain loop of resolve-and-add into the output. Returns the iterations
/// committed: all `m`, the first whose check fails (the scalar loop then
/// re-runs it and raises), or 0 when a precheck fails.
fn exec_scatter_add(
    plan: &VecPlan,
    abort: &AbortSignal,
    ints: &[i64],
    vals: &mut [Value],
    iv0: i128,
    m: i128,
) -> Result<i128, RuntimeError> {
    let PlanOut::AddAt { slot, index } = plan.out else {
        unreachable!("a scatter-add adds at a node")
    };
    let (slot, index) = (slot as usize, index as usize);
    let Some(inputs) = clone_inputs(plan, vals, |d| matches!(d, TensorData::I64(_))) else {
        return Ok(0);
    };
    let Value::Tensor(out_t) = &vals[slot] else {
        return Ok(0);
    };
    let (1, Some(out)) = (out_t.rank(), out_t.as_i64()) else {
        return Ok(0);
    };
    let Some(IntProgram {
        steps, mut cols, ..
    }) = int_program(plan, &inputs, ints, iv0, m)
    else {
        return Ok(0);
    };
    let m_us = m as usize;
    let slices: Vec<&[i64]> = inputs.iter().filter_map(Tensor::as_i64).collect();
    let root = plan.root as usize;
    // Copy-on-write as in the scalar loop, whose first store copies shared
    // storage: data_mut only once the first element is known to commit.
    let first = eval_int_block(&steps, &slices, &mut cols, 0, 1) == 1
        && add_at(out, cols[index][0], cols[root][0]).is_some();
    if !first {
        return Ok(0);
    }
    let Value::Tensor(out_t) = &mut vals[slot] else {
        unreachable!()
    };
    let TensorData::I64(out) = out_t.data_mut() else {
        unreachable!()
    };
    let mut s = 0;
    while s < m_us {
        abort.check()?;
        let len = (m_us - s).min(BLOCK);
        let valid = eval_int_block(&steps, &slices, &mut cols, s, len);
        let pairs = cols[index][..valid].iter().zip(&cols[root][..valid]);
        for (t, (&k, &v)) in pairs.enumerate() {
            let Some((p, x)) = add_at(out, k, v) else {
                return Ok((s + t) as i128);
            };
            out[p] = x;
        }
        if valid < len {
            return Ok((s + valid) as i128);
        }
        s += len;
    }
    Ok(m)
}

/// One element of a fold: `h` through every link, or `None` at the first
/// checked `+ − ×` that overflows.
#[inline(always)]
fn fold_elem(chain: &[Link], cols: &[Vec<i64>], t: usize, mut h: i64) -> Option<i64> {
    for link in chain {
        h = match *link {
            Link::Add(c) => h.checked_add(cols[c][t])?,
            Link::Sub(c) => h.checked_sub(cols[c][t])?,
            Link::SubFrom(c) => cols[c][t].checked_sub(h)?,
            Link::Mul(c) => h.checked_mul(cols[c][t])?,
            Link::Xor(c) => h ^ cols[c][t],
            Link::Mask(mask) => h & mask,
            Link::Mod(d) => mod_i64(h, d).ok()?,
        };
    }
    Some(h)
}

/// The `i64` fold of the carried register over iterations `0..m`, one
/// block at a time: the block's columns first, then the chain per
/// element. Writes back the value carried into the first uncommitted
/// iteration and returns the iterations committed: all `m`, the first
/// whose check fails (the scalar loop then re-runs it and raises), or 0
/// when a precheck fails.
fn exec_fold(
    plan: &VecPlan,
    abort: &AbortSignal,
    ints: &mut [i64],
    vals: &[Value],
    iv0: i128,
    m: i128,
) -> Result<i128, RuntimeError> {
    let PlanOut::Fold { reg } = plan.out else {
        unreachable!("a fold carries a register")
    };
    let Some(inputs) = clone_inputs(plan, vals, |d| matches!(d, TensorData::I64(_))) else {
        return Ok(0);
    };
    let Some(IntProgram {
        steps,
        mut cols,
        chain,
    }) = int_program(plan, &inputs, ints, iv0, m)
    else {
        return Ok(0);
    };
    let slices: Vec<&[i64]> = inputs.iter().filter_map(Tensor::as_i64).collect();
    let (m_us, mut h, mut s) = (m as usize, ints[reg as usize], 0);
    let done = loop {
        if s == m_us {
            break m_us;
        }
        abort.check()?;
        let len = (m_us - s).min(BLOCK);
        let valid = eval_int_block(&steps, &slices, &mut cols, s, len);
        let mut t = 0;
        while t < valid {
            let Some(next) = fold_elem(&chain, &cols, t, h) else {
                break;
            };
            h = next;
            t += 1;
        }
        if t < len {
            break s + t;
        }
        s += len;
    };
    ints[reg as usize] = h;
    Ok(done as i128)
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
