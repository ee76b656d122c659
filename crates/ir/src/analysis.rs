//! CFG analyses: dominators (Cooper–Harvey–Kennedy, the paper's ref. 21),
//! loop nesting (refs. 13, 62), and liveness (ref. 12, used by the
//! memory-management pass, ref. 82).

use crate::module::{BlockId, Function, Instr, VarId};
use std::collections::{HashMap, HashSet};

/// Control-flow graph edges and traversal orders.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Predecessors per block (indexed by block number).
    pub preds: Vec<Vec<BlockId>>,
    /// Successors per block.
    pub succs: Vec<Vec<BlockId>>,
    /// Reverse postorder from the entry (unreachable blocks excluded).
    pub rpo: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG of a function.
    pub fn new(f: &Function) -> Self {
        let n = f.blocks.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for id in f.block_ids() {
            if let Some(t) = f.block(id).terminator() {
                for s in t.successors() {
                    succs[id.0 as usize].push(s);
                    preds[s.0 as usize].push(id);
                }
            }
        }
        // Postorder DFS from entry.
        let mut visited = vec![false; n];
        let mut post = Vec::new();
        let mut stack = vec![(f.entry, 0usize)];
        visited[f.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut child)) = stack.last_mut() {
            let ss = &succs[b.0 as usize];
            if *child < ss.len() {
                let next = ss[*child];
                *child += 1;
                if !visited[next.0 as usize] {
                    visited[next.0 as usize] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        Cfg {
            preds,
            succs,
            rpo: post,
        }
    }

    /// Blocks unreachable from the entry.
    pub fn unreachable(&self, f: &Function) -> Vec<BlockId> {
        let reachable: HashSet<BlockId> = self.rpo.iter().copied().collect();
        f.block_ids().filter(|b| !reachable.contains(b)).collect()
    }
}

/// Immediate-dominator tree.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator; entry maps to itself.
    idom: HashMap<BlockId, BlockId>,
}

impl Dominators {
    /// Cooper–Harvey–Kennedy iterative dominance on reverse postorder.
    pub fn new(f: &Function, cfg: &Cfg) -> Self {
        let mut rpo_index: HashMap<BlockId, usize> = HashMap::new();
        for (ix, b) in cfg.rpo.iter().enumerate() {
            rpo_index.insert(*b, ix);
        }
        let mut idom: HashMap<BlockId, BlockId> = HashMap::new();
        idom.insert(f.entry, f.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.0 as usize] {
                    if !idom.contains_key(&p) {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(p, cur, &idom, &rpo_index),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom.get(&b) != Some(&ni) {
                        idom.insert(b, ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators { idom }
    }

    /// The immediate dominator (entry's is itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(&b).copied()
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom.get(&cur) {
                Some(&parent) if parent != cur => cur = parent,
                _ => return false,
            }
        }
    }
}

fn intersect(
    mut a: BlockId,
    mut b: BlockId,
    idom: &HashMap<BlockId, BlockId>,
    rpo_index: &HashMap<BlockId, usize>,
) -> BlockId {
    while a != b {
        while rpo_index[&a] > rpo_index[&b] {
            a = idom[&a];
        }
        while rpo_index[&b] > rpo_index[&a] {
            b = idom[&b];
        }
    }
    a
}

/// A natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (abort checks are inserted here, §4.5).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: HashSet<BlockId>,
}

/// Finds natural loops via back edges (`latch -> header` where the header
/// dominates the latch).
pub fn natural_loops(cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    for &b in &cfg.rpo {
        for &succ in &cfg.succs[b.0 as usize] {
            if dom.dominates(succ, b) {
                // b -> succ is a back edge; flood backwards from the latch.
                let body = loops.entry(succ).or_default();
                body.insert(succ);
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if body.insert(x) {
                        for &p in &cfg.preds[x.0 as usize] {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }
    let mut out: Vec<NaturalLoop> = loops
        .into_iter()
        .map(|(header, body)| NaturalLoop { header, body })
        .collect();
    out.sort_by_key(|l| l.header);
    out
}

/// Per-block liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Variables live on entry to each block.
    pub live_in: HashMap<BlockId, HashSet<VarId>>,
    /// Variables live on exit from each block.
    pub live_out: HashMap<BlockId, HashSet<VarId>>,
}

/// Iterative backward dataflow for liveness. Phi operands count as live-out
/// of the corresponding predecessor.
pub fn liveness(f: &Function, cfg: &Cfg) -> Liveness {
    let mut live_in: HashMap<BlockId, HashSet<VarId>> = HashMap::new();
    let mut live_out: HashMap<BlockId, HashSet<VarId>> = HashMap::new();
    // use/def per block (phi uses attributed to predecessors).
    let mut phi_uses: HashMap<BlockId, HashSet<VarId>> = HashMap::new();
    for id in f.block_ids() {
        for i in &f.block(id).instrs {
            if let Instr::Phi { incoming, .. } = i {
                for (pred, op) in incoming {
                    if let Some(v) = op.as_var() {
                        phi_uses.entry(*pred).or_default().insert(v);
                    }
                }
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.rpo.iter().rev() {
            let mut out: HashSet<VarId> = phi_uses.get(&b).cloned().unwrap_or_default();
            for &s in &cfg.succs[b.0 as usize] {
                if let Some(s_in) = live_in.get(&s) {
                    out.extend(s_in.iter().copied());
                }
            }
            let mut inset = out.clone();
            for i in f.block(b).instrs.iter().rev() {
                if let Some(d) = i.def() {
                    inset.remove(&d);
                }
                if !matches!(i, Instr::Phi { .. }) {
                    for u in i.uses() {
                        inset.insert(u);
                    }
                }
            }
            // Phi defs are live-in-producing at block start; keep them out
            // of live_in (they are defined at the block head).
            if live_out.get(&b) != Some(&out) {
                live_out.insert(b, out);
                changed = true;
            }
            if live_in.get(&b) != Some(&inset) {
                live_in.insert(b, inset);
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::{Callee, Constant};
    use std::sync::Arc;

    /// Builds the canonical while-loop function used across these tests.
    fn loop_function() -> Function {
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
        let c = b.call(Callee::Builtin(Arc::from("Less")), vec![i0, n.into()]);
        b.branch(c, body, exit);
        b.seal_block(body);
        b.switch_to(body);
        let i1 = b.read_var("i").unwrap();
        let inc = b.call(
            Callee::Builtin(Arc::from("Plus")),
            vec![i1, Constant::I64(1).into()],
        );
        b.write_var("i", inc);
        b.jump(header);
        b.seal_block(header);
        b.seal_block(exit);
        b.switch_to(exit);
        let iout = b.read_var("i").unwrap();
        b.ret(iout);
        b.finish()
    }

    #[test]
    fn cfg_and_rpo() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.rpo[0], f.entry);
        assert_eq!(cfg.rpo.len(), 4);
        assert!(cfg.unreachable(&f).is_empty());
        // header has two predecessors: entry and body.
        assert_eq!(cfg.preds[1].len(), 2);
    }

    #[test]
    fn dominators_of_loop() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let (entry, header, body, exit) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert!(dom.dominates(entry, exit));
        assert!(dom.dominates(header, body));
        assert!(dom.dominates(header, exit));
        assert!(!dom.dominates(body, exit));
        assert_eq!(dom.idom(body), Some(header));
    }

    #[test]
    fn loops_found() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        let loops = natural_loops(&cfg, &dom);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, BlockId(1));
        assert!(loops[0].body.contains(&BlockId(2)));
        assert!(!loops[0].body.contains(&BlockId(3)));
    }

    #[test]
    fn liveness_across_loop() {
        let f = loop_function();
        let cfg = Cfg::new(&f);
        let live = liveness(&f, &cfg);
        // The argument n (VarId 0) is live into the loop header and body.
        assert!(live.live_in[&BlockId(1)].contains(&VarId(0)));
        assert!(live.live_in[&BlockId(2)].contains(&VarId(0)));
        // Nothing is live out of the exit block.
        assert!(live
            .live_out
            .get(&BlockId(3))
            .map(|s| s.is_empty())
            .unwrap_or(true));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("g", 0);
        b.ret(Constant::I64(1));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = Dominators::new(&f, &cfg);
        assert!(natural_loops(&cfg, &dom).is_empty());
    }
}
