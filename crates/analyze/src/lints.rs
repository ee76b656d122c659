//! Lints: maybe-uninitialized uses, dead stores, and unreachable blocks.
//! All findings here are warnings — they flag suspicious IR the pipeline
//! is still allowed to run. The out-of-range constant `Part` lint lives
//! with the interval analysis in [`crate::intervals`], which subsumes the
//! local length tracking this module used to do.

use crate::dataflow::{solve, Analysis, Direction, Lattice};
use crate::diag::Diagnostic;
use std::collections::{BTreeSet, HashSet};
use wolfram_ir::analysis::Cfg;
use wolfram_ir::{BlockId, Callee, Function, Instr, VarId};

/// Definitely-assigned variables; `None` is the solver's bottom (no path
/// information yet), so the join is set intersection over known paths.
#[derive(Debug, Clone, PartialEq)]
struct InitFact(Option<BTreeSet<VarId>>);

impl Lattice for InitFact {
    fn bottom() -> Self {
        InitFact(None)
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&mut self.0, &other.0) {
            (_, None) => false,
            (Some(mine), Some(theirs)) => {
                let before = mine.len();
                mine.retain(|v| theirs.contains(v));
                before != mine.len()
            }
            (slot @ None, Some(theirs)) => {
                *slot = Some(theirs.clone());
                true
            }
        }
    }
}

struct MustInit;

impl Analysis for MustInit {
    type Fact = InitFact;
    const DIRECTION: Direction = Direction::Forward;

    fn boundary(&self, _f: &Function) -> InitFact {
        InitFact(Some(BTreeSet::new()))
    }

    fn transfer_block(&self, f: &Function, b: BlockId, fact: &mut InitFact) {
        if let Some(set) = &mut fact.0 {
            for i in &f.block(b).instrs {
                if let Some(d) = i.def() {
                    set.insert(d);
                }
            }
        }
    }
}

/// Uses of variables not definitely assigned on every path. Redundant
/// with the SSA linter's dominance check on verified IR, but reported as
/// a diagnostic (with an anchor) for arbitrary IR fed to `reproduce
/// analyze`.
pub fn maybe_uninitialized(f: &Function) -> Vec<Diagnostic> {
    if f.blocks.is_empty() {
        return Vec::new();
    }
    let cfg = Cfg::new(f);
    let results = solve(&MustInit, f, &cfg);
    let mut out = Vec::new();
    for &b in &cfg.rpo {
        let Some(InitFact(Some(entry))) = results.entry(b) else {
            continue;
        };
        let mut defined = entry.clone();
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            // Phi operands are read on the incoming edge, not here; the
            // per-predecessor exit facts cover them via the normal uses
            // of whatever defined those operands.
            if !matches!(i, Instr::Phi { .. }) {
                for v in i.uses() {
                    if !defined.contains(&v) {
                        out.push(
                            Diagnostic::warning(
                                "maybe-uninitialized",
                                f,
                                format!("%{} may be used before assignment", v.0),
                            )
                            .at(b, Some(ix)),
                        );
                    }
                }
            }
            if let Some(d) = i.def() {
                defined.insert(d);
            }
        }
    }
    out
}

/// Removable definitions whose result is never read anywhere.
pub fn dead_stores(f: &Function) -> Vec<Diagnostic> {
    let mut used: HashSet<VarId> = HashSet::new();
    for i in f.instrs() {
        used.extend(i.uses());
        if let Instr::Call {
            callee: Callee::Value(v),
            ..
        } = i
        {
            used.insert(*v);
        }
    }
    let mut out = Vec::new();
    for b in f.block_ids() {
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            if i.is_removable() && !matches!(i, Instr::LoadArgument { .. }) {
                if let Some(d) = i.def() {
                    if !used.contains(&d) {
                        out.push(
                            Diagnostic::warning(
                                "dead-store",
                                f,
                                format!("%{} is computed but never read", d.0),
                            )
                            .at(b, Some(ix)),
                        );
                    }
                }
            }
        }
    }
    out
}

/// Blocks no path from the entry reaches. Empty tombstones (what
/// `simplify-cfg` leaves to keep ids stable) are skipped.
pub fn unreachable_blocks(f: &Function) -> Vec<Diagnostic> {
    if f.blocks.is_empty() {
        return Vec::new();
    }
    let cfg = Cfg::new(f);
    cfg.unreachable(f)
        .into_iter()
        .filter(|b| !f.block(*b).instrs.is_empty())
        .map(|b| {
            Diagnostic::warning(
                "unreachable-block",
                f,
                format!(
                    "block {}({}) is unreachable from the entry",
                    f.block(b).label,
                    b.0 + 1
                ),
            )
            .at(b, None)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_ir::module::Block;
    use wolfram_ir::Constant;

    #[test]
    fn dead_store_and_unreachable_block_warn() {
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(5),
                },
                Instr::Return {
                    value: Constant::Null.into(),
                },
            ],
        });
        f.blocks.push(Block {
            label: "orphan".into(),
            instrs: vec![Instr::Return {
                value: Constant::Null.into(),
            }],
        });
        assert!(dead_stores(&f).iter().any(|d| d.code == "dead-store"));
        assert!(unreachable_blocks(&f)
            .iter()
            .any(|d| d.code == "unreachable-block"));
    }

    #[test]
    fn maybe_uninitialized_on_one_armed_definition() {
        // v0 assigned only on the then-arm, read at the join.
        let mut f = Function::new("f", 0);
        f.blocks.push(Block {
            label: "start".into(),
            instrs: vec![
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
                Instr::LoadConst {
                    dst: VarId(0),
                    value: Constant::I64(1),
                },
                Instr::Jump { target: BlockId(2) },
            ],
        });
        f.blocks.push(Block {
            label: "join".into(),
            instrs: vec![Instr::Return {
                value: VarId(0).into(),
            }],
        });
        let diags = maybe_uninitialized(&f);
        assert!(
            diags.iter().any(|d| d.code == "maybe-uninitialized"),
            "{diags:?}"
        );
    }
}
