//! A small lattice-based dataflow framework over the IR's CFG.
//!
//! Checkers describe a join-semilattice fact, a direction, and a block
//! transfer function; [`solve`] iterates to a fixpoint with a worklist in
//! sweep order: blocks are visited in reverse postorder (reversed for
//! backward analyses), pass after pass, but a block is re-transferred only
//! when the fact on one of its incoming edges changed since its last
//! transfer. A block transfer is a pure function of those facts, so the
//! skipped transfers are exactly the ones that would reproduce what is
//! already stored. Facts start at bottom (no information), so back edges
//! are handled by re-iteration rather than pessimistic initialization.

use wolfram_ir::analysis::Cfg;
use wolfram_ir::{BlockId, Function, Instr};

/// A join-semilattice fact.
pub trait Lattice: Clone + PartialEq {
    /// The least element (no information): joining `x` into it must leave
    /// exactly `x`. [`solve`] relies on that to start a block's incoming
    /// fact from its first edge instead of joining that edge into bottom.
    fn bottom() -> Self;
    /// In-place least upper bound. Returns whether `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// Propagation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry toward returns.
    Forward,
    /// Facts flow from returns toward the entry.
    Backward,
}

/// A dataflow problem.
pub trait Analysis {
    /// The fact tracked per program point.
    type Fact: Lattice;

    /// Propagation direction.
    const DIRECTION: Direction;

    /// The fact at the boundary: the entry block's start (forward) or
    /// every exit block's end (backward).
    fn boundary(&self, f: &Function) -> Self::Fact;

    /// Applies one block. Forward analyses receive the fact at the block
    /// start and must leave the fact at the block end (and vice versa for
    /// backward analyses, which should walk the instructions in reverse).
    fn transfer_block(&self, f: &Function, b: BlockId, fact: &mut Self::Fact);
}

/// Converged facts at block boundaries, indexed by block number; `None`
/// for blocks the entry does not reach. `on_entry` is always the fact at
/// the block's start and `on_exit` the fact at its end, regardless of
/// direction.
#[derive(Debug, Clone)]
pub struct Results<F> {
    /// Fact at each reachable block's start.
    pub on_entry: Vec<Option<F>>,
    /// Fact at each reachable block's end.
    pub on_exit: Vec<Option<F>>,
    /// Block transfers performed: the solver's unit of work.
    pub transfers: usize,
}

impl<F> Results<F> {
    /// The fact at the block's start, if the block is reachable.
    pub fn entry(&self, b: BlockId) -> Option<&F> {
        self.on_entry[b.0 as usize].as_ref()
    }
}

/// Runs the worklist iteration to a fixpoint over the reachable blocks.
pub fn solve<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Results<A::Fact> {
    let n = f.blocks.len();
    // `outs[b]` is the fact `b`'s transfer leaves, in the analysis' own
    // direction: at the block's end forward, at its start backward.
    let mut outs: Vec<Option<A::Fact>> = vec![None; n];
    let order: Vec<BlockId> = match A::DIRECTION {
        Direction::Forward => cfg.rpo.clone(),
        Direction::Backward => cfg.rpo.iter().rev().copied().collect(),
    };
    let (upstream, downstream) = match A::DIRECTION {
        Direction::Forward => (&cfg.preds, &cfg.succs),
        Direction::Backward => (&cfg.succs, &cfg.preds),
    };
    // The fact flowing into `b`: the boundary fact where `b` is at the
    // boundary, joined with the fact at the far end of each incoming edge
    // a fact has reached.
    let flow_in = |b: BlockId, outs: &[Option<A::Fact>]| {
        let at_boundary = match A::DIRECTION {
            Direction::Forward => b == f.entry,
            Direction::Backward => matches!(f.block(b).instrs.last(), Some(Instr::Return { .. })),
        };
        let mut fact = at_boundary.then(|| a.boundary(f));
        for end in upstream[b.0 as usize]
            .iter()
            .filter_map(|n| outs[n.0 as usize].as_ref())
        {
            match &mut fact {
                Some(fact) => {
                    fact.join(end);
                }
                None => fact = Some(end.clone()),
            }
        }
        fact.unwrap_or_else(A::Fact::bottom)
    };
    // Only the blocks of `order` are ever looked at.
    let mut dirty = vec![true; n];
    let mut transfers = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let ix = b.0 as usize;
            if !std::mem::take(&mut dirty[ix]) {
                continue;
            }
            let mut fact = flow_in(b, &outs);
            a.transfer_block(f, b, &mut fact);
            transfers += 1;
            if outs[ix].as_ref() != Some(&fact) {
                outs[ix] = Some(fact);
                changed = true;
                for &d in &downstream[ix] {
                    dirty[d.0 as usize] = true;
                }
            }
        }
    }
    // No block is dirty, so each one's last transfer saw the final facts on
    // its incoming edges: the fact flowing in is computed once, here,
    // rather than stored at every transfer.
    let mut ins: Vec<Option<A::Fact>> = vec![None; n];
    for &b in &order {
        ins[b.0 as usize] = Some(flow_in(b, &outs));
    }
    let (on_entry, on_exit) = match A::DIRECTION {
        Direction::Forward => (ins, outs),
        Direction::Backward => (outs, ins),
    };
    Results {
        on_entry,
        on_exit,
        transfers,
    }
}
