//! The refcount-balance checker: proves that every execution path pairs
//! `MemoryAcquire`/`MemoryRelease` exactly once per managed interval —
//! catching leaks (held at return), double releases, releases without a
//! matching acquire, and uses after release.
//!
//! Forward may-analysis over a per-variable state set drawn from
//! {Unheld, Held, Released}; the join is set union, so a variable whose
//! paths disagree carries several bits and the report sweep can name the
//! imbalanced path. Only *managed* variables — those some
//! `MemoryAcquire`/`MemoryRelease` names — are tracked: any other variable
//! is Unheld at every point, so no finding can mention it. Before
//! `memory-management` has run there are none, and the checker answers
//! without building a CFG — which is what makes it cheap to run on every
//! IR state the pipeline produces.

use crate::dataflow::{solve, Analysis, Direction, Lattice};
use crate::diag::Diagnostic;
use std::collections::HashSet;
use wolfram_ir::analysis::Cfg;
use wolfram_ir::{BlockId, Function, Instr, Operand, VarId};

const UNHELD: u8 = 1;
const HELD: u8 = 2;
const RELEASED: u8 = 4;

/// Refcount state sets, one per managed variable (in the order of
/// [`RefcountAnalysis::managed`]). `None` is the solver's bottom: no path
/// has reached this point yet.
#[derive(Debug, Clone, PartialEq)]
pub struct RcFact {
    states: Option<Vec<u8>>,
}

impl Lattice for RcFact {
    fn bottom() -> Self {
        RcFact { states: None }
    }

    fn join(&mut self, other: &Self) -> bool {
        let Some(theirs) = &other.states else {
            return false;
        };
        let Some(mine) = &mut self.states else {
            self.states = Some(theirs.clone());
            return true;
        };
        let mut changed = false;
        for (e, bits) in mine.iter_mut().zip(theirs) {
            changed |= (*e | bits) != *e;
            *e |= bits;
        }
        changed
    }
}

struct RefcountAnalysis {
    /// The variables some acquire or release names, ascending.
    managed: Vec<VarId>,
}

impl RefcountAnalysis {
    fn of(f: &Function) -> Self {
        let mut managed: Vec<VarId> = f
            .instrs()
            .filter_map(|i| match i {
                Instr::MemoryAcquire { var } | Instr::MemoryRelease { var } => Some(*var),
                _ => None,
            })
            .collect();
        managed.sort_unstable();
        managed.dedup();
        RefcountAnalysis { managed }
    }

    fn get(&self, fact: &RcFact, v: VarId) -> u8 {
        match (&fact.states, self.managed.binary_search(&v)) {
            (Some(states), Ok(slot)) => states[slot],
            _ => UNHELD,
        }
    }

    fn set(&self, fact: &mut RcFact, v: VarId, bits: u8) {
        if let (Some(states), Ok(slot)) = (&mut fact.states, self.managed.binary_search(&v)) {
            states[slot] = bits;
        }
    }

    /// One instruction's effect on the state sets (shared between the
    /// solver and the report sweep).
    fn transfer(&self, fact: &mut RcFact, i: &Instr) {
        match i {
            Instr::MemoryAcquire { var } => self.set(fact, *var, HELD),
            Instr::MemoryRelease { var } => self.set(fact, *var, RELEASED),
            _ => {
                if let Some(d) = i.def() {
                    self.set(fact, d, UNHELD);
                }
            }
        }
    }
}

impl Analysis for RefcountAnalysis {
    type Fact = RcFact;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary(&self, _f: &Function) -> RcFact {
        RcFact {
            states: Some(vec![UNHELD; self.managed.len()]),
        }
    }

    fn transfer_block(&self, f: &Function, b: BlockId, fact: &mut RcFact) {
        for i in &f.block(b).instrs {
            self.transfer(fact, i);
        }
    }
}

/// Checks one function.
pub fn check(f: &Function) -> Vec<Diagnostic> {
    let rc = RefcountAnalysis::of(f);
    if rc.managed.is_empty() {
        return Vec::new();
    }
    let cfg = Cfg::new(f);
    let results = solve(&rc, f, &cfg);
    let mut out = Vec::new();
    for &b in &cfg.rpo {
        let Some(entry) = results.entry(b) else {
            continue;
        };
        let mut state = entry.clone();
        // Variables released earlier in this same block: their reads at
        // the block's *end* (terminator operands, phi-edge reads on
        // outgoing edges) are the release convention of the
        // memory-management pass, not use-after-release bugs.
        let mut released_here: HashSet<VarId> = HashSet::new();
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            match i {
                Instr::MemoryAcquire { var } => {
                    if rc.get(&state, *var) & HELD != 0 {
                        out.push(
                            Diagnostic::error(
                                "refcount-double-acquire",
                                f,
                                format!("%{} acquired while already held", var.0),
                            )
                            .at(b, Some(ix)),
                        );
                    }
                }
                Instr::MemoryRelease { var } => {
                    let bits = rc.get(&state, *var);
                    if bits & RELEASED != 0 {
                        out.push(
                            Diagnostic::error(
                                "refcount-double-release",
                                f,
                                format!("%{} released twice on some path", var.0),
                            )
                            .at(b, Some(ix)),
                        );
                    } else if bits & HELD == 0 {
                        out.push(
                            Diagnostic::error(
                                "refcount-release-unheld",
                                f,
                                format!("%{} released without a matching acquire", var.0),
                            )
                            .at(b, Some(ix)),
                        );
                    } else if bits & UNHELD != 0 {
                        out.push(
                            Diagnostic::error(
                                "refcount-unbalanced",
                                f,
                                format!("%{} released but unacquired on some path", var.0),
                            )
                            .at(b, Some(ix)),
                        );
                    }
                    released_here.insert(*var);
                }
                // Phi operands are reads on the incoming *edges*; they
                // are checked below against each predecessor's exit
                // state, not against this block's entry state.
                Instr::Phi { .. } => {}
                _ => {
                    for v in i.uses() {
                        if rc.get(&state, v) & RELEASED != 0
                            && !(released_here.contains(&v) && i.is_terminator())
                        {
                            out.push(
                                Diagnostic::error(
                                    "refcount-use-after-release",
                                    f,
                                    format!("%{} used after MemoryRelease", v.0),
                                )
                                .at(b, Some(ix)),
                            );
                        }
                    }
                }
            }
            rc.transfer(&mut state, i);
            if let Instr::Return { .. } = i {
                for (v, bits) in rc.managed.iter().zip(state.states.iter().flatten()) {
                    if bits & HELD != 0 {
                        out.push(
                            Diagnostic::error(
                                "refcount-leak",
                                f,
                                format!("%{} still held at return on some path", v.0),
                            )
                            .at(b, Some(ix)),
                        );
                    }
                }
            }
        }
        // Phi-edge reads on outgoing edges happen conceptually at this
        // block's end; a value released in an *earlier* block must not be
        // read here (release-before-terminator in this block is the
        // pass's convention and is fine).
        let mut succs: Vec<BlockId> = cfg.succs[b.0 as usize].clone();
        succs.sort_unstable();
        succs.dedup();
        for s in succs {
            for i in &f.block(s).instrs {
                let Instr::Phi { incoming, .. } = i else {
                    break;
                };
                for (p, o) in incoming {
                    if *p != b {
                        continue;
                    }
                    if let Operand::Var(v) = o {
                        if rc.get(&state, *v) & RELEASED != 0 && !released_here.contains(v) {
                            out.push(
                                Diagnostic::error(
                                    "refcount-use-after-release",
                                    f,
                                    format!(
                                        "%{} read by a phi in block {} after MemoryRelease",
                                        v.0,
                                        s.0 + 1
                                    ),
                                )
                                .at(b, None),
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_ir::module::Block;
    use wolfram_ir::Constant;

    fn one_block(instrs: Vec<Instr>) -> Function {
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs,
        });
        f
    }

    #[test]
    fn balanced_pair_is_clean() {
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Str("x".into()),
            },
            Instr::MemoryAcquire { var: VarId(0) },
            Instr::MemoryRelease { var: VarId(0) },
            Instr::Return {
                value: Constant::Null.into(),
            },
        ]);
        assert!(check(&f).is_empty());
    }

    #[test]
    fn a_function_without_managed_variables_is_answered_without_a_cfg() {
        // `Cfg::new` indexes its edge tables by the branch targets, so it
        // cannot survive this function: a quiet answer means none was built.
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Bool(true),
            },
            Instr::Branch {
                cond: VarId(0).into(),
                then_block: BlockId(7),
                else_block: BlockId(8),
            },
        ]);
        assert!(std::panic::catch_unwind(|| Cfg::new(&f)).is_err());
        assert!(check(&f).is_empty());
    }

    #[test]
    fn leak_is_flagged() {
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Str("x".into()),
            },
            Instr::MemoryAcquire { var: VarId(0) },
            Instr::Return {
                value: Constant::Null.into(),
            },
        ]);
        let diags = check(&f);
        assert!(diags.iter().any(|d| d.code == "refcount-leak"), "{diags:?}");
    }

    #[test]
    fn double_release_is_flagged() {
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Str("x".into()),
            },
            Instr::MemoryAcquire { var: VarId(0) },
            Instr::MemoryRelease { var: VarId(0) },
            Instr::MemoryRelease { var: VarId(0) },
            Instr::Return {
                value: Constant::Null.into(),
            },
        ]);
        let diags = check(&f);
        assert!(
            diags.iter().any(|d| d.code == "refcount-double-release"),
            "{diags:?}"
        );
    }

    #[test]
    fn use_after_release_is_flagged() {
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Str("x".into()),
            },
            Instr::MemoryAcquire { var: VarId(0) },
            Instr::MemoryRelease { var: VarId(0) },
            Instr::Copy {
                dst: VarId(1),
                src: VarId(0),
            },
            Instr::Return {
                value: Constant::Null.into(),
            },
        ]);
        let diags = check(&f);
        assert!(
            diags.iter().any(|d| d.code == "refcount-use-after-release"),
            "{diags:?}"
        );
    }

    #[test]
    fn release_before_return_of_value_is_the_convention() {
        let f = one_block(vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::Str("x".into()),
            },
            Instr::MemoryAcquire { var: VarId(0) },
            Instr::MemoryRelease { var: VarId(0) },
            Instr::Return {
                value: VarId(0).into(),
            },
        ]);
        assert!(check(&f).is_empty());
    }

    #[test]
    fn diamond_leak_is_flagged() {
        // acquire in entry; release only on the then-edge.
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::Str("x".into()),
                },
                Instr::MemoryAcquire { var: VarId(0) },
                Instr::LoadConst {
                    dst: VarId(1),
                    value: Constant::Bool(true),
                },
                Instr::Branch {
                    cond: VarId(1).into(),
                    then_block: BlockId(1),
                    else_block: BlockId(2),
                },
            ],
        });
        f.blocks.push(Block {
            label: "then".into(),
            instrs: vec![
                Instr::MemoryRelease { var: VarId(0) },
                Instr::Jump { target: BlockId(3) },
            ],
        });
        f.blocks.push(Block {
            label: "else".into(),
            instrs: vec![Instr::Jump { target: BlockId(3) }],
        });
        f.blocks.push(Block {
            label: "join".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        let diags = check(&f);
        assert!(diags.iter().any(|d| d.code == "refcount-leak"), "{diags:?}");
    }

    #[test]
    fn the_solver_transfers_only_blocks_whose_inputs_moved() {
        // A count, not a timer: the solver re-transfers a block only when
        // the fact on one of its incoming edges changed, so each of these
        // counts is the reachable blocks plus one re-visit per loop whose
        // carried facts moved. (QSort's was 62 while its comparator ran
        // through `call.value`: each of the four inlined calls adds its two
        // arms and their join to a loop body.)
        use wolfram_bench::{programs, workloads};
        let primeq = programs::primeq_src(&workloads::prime_seed_table());
        for (name, src, pinned) in [
            ("QSort", programs::QSORT_SRC, 95),
            ("PrimeQ", primeq.as_str(), 41),
        ] {
            let func = wolfram_expr::parse(src).unwrap();
            let pm = wolfram_compiler_core::Compiler::default()
                .compile_to_twir(&func, None)
                .unwrap();
            let f = pm.functions.iter().find(|f| f.name == "Main").unwrap();
            let transfers = solve(&RefcountAnalysis::of(f), f, &Cfg::new(f)).transfers;
            assert_eq!(transfers, pinned, "{name}");
        }
    }
}
