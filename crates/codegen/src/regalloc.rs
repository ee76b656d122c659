//! Register assignment for the native lowering: one liveness per function
//! over the phi-destructed program, one register per class of coalesced
//! variables, and the dying reads the take-or-clone decision needs (§4.5).
//!
//! Variables of one bank share a register when they do not interfere:
//!
//! - a phi with each incoming variable, so its edge move is a self-move;
//! - an in-place store's result (`TensorSet1/2`, `TensorSetRow`) with the
//!   tensor operand, which it may share only when that operand dies at
//!   the store, so the store's take-move is a self-move.
//!
//! The lowering emits no self-moves, so a loop-carried value stays in one
//! register instead of shuttling `v2 -> v3 -> v2` through the latch.
//!
//! Two variables interfere when one is written where the other is live
//! afterwards. The liveness is the one the take-or-clone decision has
//! always read: each instruction is an event; the phi moves into every
//! successor are one more event at the end of their predecessor (sources
//! read, then destinations written), just before the terminator's reads;
//! arguments are written by one event at the function's entry, which is
//! when the machine stores them.

use crate::machine::{Bank, Slot};
use std::collections::{HashMap, HashSet};
use wolfram_ir::analysis::Cfg;
use wolfram_ir::module::{BlockId, Callee, Function, Instr, Operand, VarId};
use wolfram_types::Prim;

/// Event key of the phi-move batch at a block's end (instruction indices
/// key every other event).
pub(crate) const EDGE_EVENT: usize = usize::MAX;

/// Where every variable lives, and which of its reads may move it.
pub(crate) struct Registers {
    /// The register of every defined variable, indexed by its number.
    pub slots: Vec<Option<Slot>>,
    /// Registers used per bank (`I`, `F`, `C`, `V`).
    pub counts: [u32; 4],
    /// Value-bank reads after which the register is dead, keyed
    /// `(block, event, var)`: such a read may move the value out of the
    /// register instead of cloning it (F5).
    pub dying_reads: HashSet<(u32, usize, VarId)>,
}

/// The index of a bank in [`Registers::counts`].
pub(crate) fn bank_index(bank: Bank) -> usize {
    match bank {
        Bank::I => 0,
        Bank::F => 1,
        Bank::C => 2,
        Bank::V => 3,
    }
}

struct Event {
    key: usize,
    reads: Vec<VarId>,
    writes: Vec<VarId>,
}

/// A set of variables, one bit each.
#[derive(Clone, PartialEq)]
struct VarSet(Vec<u64>);

impl VarSet {
    fn new(n: usize) -> Self {
        VarSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, v: VarId) {
        self.0[v.0 as usize / 64] |= 1 << (v.0 % 64);
    }

    fn remove(&mut self, v: VarId) {
        self.0[v.0 as usize / 64] &= !(1 << (v.0 % 64));
    }

    fn contains(&self, v: VarId) -> bool {
        self.0[v.0 as usize / 64] & (1 << (v.0 % 64)) != 0
    }

    fn union(&mut self, other: &VarSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn meets(&self, other: &VarSet) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    VarId(w as u32 * 64 + bit)
                })
            })
        })
    }
}

/// A class of coalesced variables: its members, and every variable live
/// just after a write of a member. Two classes may merge when neither's
/// writes see a member of the other live.
struct Class {
    members: VarSet,
    clash: VarSet,
}

/// Coalesces and assigns registers. `banks` holds the bank of every
/// defined variable, indexed by its number.
pub(crate) fn assign(f: &Function, cfg: &Cfg, banks: &[Option<Bank>]) -> Registers {
    let n = f.next_var as usize;
    let mut reachable = vec![false; f.blocks.len()];
    cfg.rpo.iter().for_each(|b| reachable[b.0 as usize] = true);
    let events = events(f, cfg, &reachable);

    // The coalescing candidates: each pair a phi or an in-place store
    // would like to share a register.
    let mut wanted: Vec<(VarId, VarId)> = Vec::new();
    for &b in &cfg.rpo {
        for i in &f.block(b).instrs {
            match i {
                Instr::Phi { dst, incoming } => {
                    for (pred, op) in incoming {
                        if let (true, Some(x)) = (reachable[pred.0 as usize], op.as_var()) {
                            wanted.push((*dst, x));
                        }
                    }
                }
                Instr::Call {
                    dst,
                    callee:
                        Callee::Primitive {
                            prim: Prim::TensorSet1 | Prim::TensorSet2 | Prim::TensorSetRow,
                            ..
                        },
                    args,
                } => {
                    if let Some(Operand::Var(t)) = args.first() {
                        wanted.push((*dst, *t));
                    }
                }
                _ => {}
            }
        }
    }
    let mut classes: HashMap<VarId, Class> = HashMap::new();
    for v in wanted.iter().flat_map(|&(a, b)| [a, b]) {
        classes.entry(v).or_insert_with(|| {
            let mut members = VarSet::new(n);
            members.insert(v);
            Class {
                members,
                clash: VarSet::new(n),
            }
        });
    }

    // Backward liveness to a fixed point.
    let mut live_in = vec![VarSet::new(n); f.blocks.len()];
    let live_out = |b: BlockId, live_in: &[VarSet]| {
        let mut out = VarSet::new(n);
        for s in &cfg.succs[b.0 as usize] {
            out.union(&live_in[s.0 as usize]);
        }
        out
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            let mut live = live_out(b, &live_in);
            for ev in events[b.0 as usize].iter().rev() {
                ev.writes.iter().for_each(|w| live.remove(*w));
                ev.reads.iter().for_each(|r| live.insert(*r));
            }
            if live_in[b.0 as usize] != live {
                live_in[b.0 as usize] = live;
                changed = true;
            }
        }
    }

    // One backward sweep per block: a candidate's write clashes with every
    // variable live after it, and a read dies when its variable is not
    // live after the event (and the event reads it once).
    let mut dying_reads = HashSet::new();
    for &b in &cfg.rpo {
        let mut live = live_out(b, &live_in);
        for ev in events[b.0 as usize].iter().rev() {
            for w in &ev.writes {
                if let Some(class) = classes.get_mut(w) {
                    class.clash.union(&live);
                }
            }
            ev.writes.iter().for_each(|w| live.remove(*w));
            for &r in &ev.reads {
                let once = ev.reads.iter().filter(|x| **x == r).count() == 1;
                if once && !live.contains(r) && banks[r.0 as usize] == Some(Bank::V) {
                    dying_reads.insert((b.0, ev.key, r));
                }
            }
            ev.reads.iter().for_each(|r| live.insert(*r));
        }
    }

    // Union the wanted pairs whose classes do not interfere.
    let mut class_of: Vec<VarId> = (0..n as u32).map(VarId).collect();
    for (a, b) in wanted {
        let (ca, cb) = (class_of[a.0 as usize], class_of[b.0 as usize]);
        if ca == cb || banks[a.0 as usize] != banks[b.0 as usize] {
            continue;
        }
        let (x, y) = (&classes[&ca], &classes[&cb]);
        if x.clash.meets(&y.members) || y.clash.meets(&x.members) {
            continue;
        }
        let y = classes.remove(&cb).expect("a class per candidate");
        y.members.iter().for_each(|v| class_of[v.0 as usize] = ca);
        let x = classes.get_mut(&ca).expect("a class per candidate");
        x.members.union(&y.members);
        x.clash.union(&y.clash);
    }

    // One register per class, numbered in definition order.
    let mut counts = [0; 4];
    let mut slots: Vec<Option<Slot>> = vec![None; n];
    for d in f.instrs().filter_map(Instr::def) {
        let Some(bank) = banks[d.0 as usize] else {
            continue;
        };
        let class = class_of[d.0 as usize].0 as usize;
        let slot = *slots[class].get_or_insert_with(|| {
            let ix = &mut counts[bank_index(bank)];
            *ix += 1;
            Slot::new(bank, *ix - 1)
        });
        slots[d.0 as usize] = Some(slot);
    }
    Registers {
        slots,
        counts,
        dying_reads,
    }
}

/// Events per reachable block, in execution order.
fn events(f: &Function, cfg: &Cfg, reachable: &[bool]) -> Vec<Vec<Event>> {
    let mut edge_reads: HashMap<BlockId, Vec<VarId>> = HashMap::new();
    let mut edge_writes: HashMap<BlockId, Vec<VarId>> = HashMap::new();
    for &b in &cfg.rpo {
        for i in &f.block(b).instrs {
            if let Instr::Phi { dst, incoming } = i {
                for (pred, op) in incoming.iter().filter(|(p, _)| reachable[p.0 as usize]) {
                    edge_writes.entry(*pred).or_default().push(*dst);
                    if let Some(v) = op.as_var() {
                        edge_reads.entry(*pred).or_default().push(v);
                    }
                }
            }
        }
    }
    let params: Vec<VarId> = f
        .instrs()
        .filter_map(|i| match i {
            Instr::LoadArgument { dst, .. } => Some(*dst),
            _ => None,
        })
        .collect();
    let mut out: Vec<Vec<Event>> = (0..f.blocks.len()).map(|_| Vec::new()).collect();
    for &b in &cfg.rpo {
        let evs = &mut out[b.0 as usize];
        if b == f.entry {
            // Reads nothing, so its key names no read.
            evs.push(Event {
                key: EDGE_EVENT,
                reads: Vec::new(),
                writes: params.clone(),
            });
        }
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            match i {
                // A phi is written at its predecessors' edges, an argument
                // at the entry event.
                Instr::Phi { .. } | Instr::LoadArgument { .. } => {}
                _ if i.is_terminator() => {
                    evs.push(Event {
                        key: EDGE_EVENT,
                        reads: edge_reads.remove(&b).unwrap_or_default(),
                        writes: edge_writes.remove(&b).unwrap_or_default(),
                    });
                    evs.push(Event {
                        key: ix,
                        reads: i.uses(),
                        writes: Vec::new(),
                    });
                }
                _ => evs.push(Event {
                    key: ix,
                    reads: i.uses(),
                    writes: i.def().into_iter().collect(),
                }),
            }
        }
    }
    out
}
