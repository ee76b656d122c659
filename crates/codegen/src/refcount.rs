//! Refcount ops that bracket nothing, cancelled on registers.
//!
//! The memory-management pass (§4.5, F7) brackets every managed value's
//! live interval with `MemoryAcquire`/`MemoryRelease`. Once coalescing has
//! put a loop-carried value in one register, many of those brackets enclose
//! no use of it: the latch releases the register and the header acquires
//! it again, or an in-place store releases the old version and acquires the
//! new one. An `acquire r`/`release r` pair, in either order, cancels when
//!
//! 1. every path from the first op reaches the second before any other op
//!    reads, writes, acquires or releases `r`, and
//! 2. every path into the second op comes from such a first op.
//!
//! The second op may have several first ops (a loop header's acquire is
//! reached from the preheader's release and from the latch's); all of them
//! go with it. The machine's acquire and release only move counters and
//! the frame's `acquired` flag, so a cancelled pair changes no value and
//! no copy-on-write decision. Along every path each register's acquires
//! and releases alternate, and removing one adjacent pair keeps them
//! alternating, so counts stay balanced, unwinding included.

use crate::machine::{splice, Bank, RegOp};
use std::collections::BTreeMap;

/// Removes every refcount pair that brackets nothing from a function's
/// code, remapping branch targets. Returns the number of ops removed.
pub(crate) fn cancel_idle_pairs(code: &mut Vec<RegOp>) -> u32 {
    let mut rc_ops: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (pc, op) in code.iter().enumerate() {
        if let Some((v, _)) = rc_op(op) {
            rc_ops.entry(v).or_default().push(pc);
        }
    }
    if rc_ops.is_empty() {
        return 0;
    }
    let n = code.len();
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n + n / 4);
    for (pc, op) in code.iter_mut().enumerate() {
        let falls_through = !matches!(
            op.parts().last(),
            Some(RegOp::Jmp { .. } | RegOp::Ret { .. } | RegOp::RetNull)
        );
        if falls_through && pc + 1 < n {
            edges.push((pc, pc + 1));
        }
        op.map_targets(|t| {
            edges.push((pc, t));
            t
        });
    }
    let mut cfg = Code {
        regs: code.iter().map(value_regs).collect(),
        code,
        succs: Adjacency::new(n, edges.iter().copied()),
        preds: Adjacency::new(n, edges.iter().map(|&(a, b)| (b, a))),
        removed: vec![false; n],
        seen: vec![0; n],
        stamp: 0,
    };
    for (r, ops) in rc_ops {
        // Release-then-acquire first: a loop keeps holding what its
        // header would re-acquire. Then acquire-then-release.
        while cfg.cancel_round(r, &ops, true) | cfg.cancel_round(r, &ops, false) {}
    }
    let removed = cfg.removed;
    let count = removed.iter().filter(|&&x| x).count();
    if count > 0 {
        *code = splice(std::mem::take(code), &removed, Vec::new());
    }
    u32::try_from(count).expect("op count fits u32")
}

/// The value-bank registers an op touches.
fn value_regs(op: &RegOp) -> Vec<u32> {
    op.regs()
        .into_iter()
        .filter(|s| s.bank == Bank::V)
        .map(|s| s.ix)
        .collect()
}

/// `(register, is_acquire)` of an `Acquire`/`Release`.
fn rc_op(op: &RegOp) -> Option<(u32, bool)> {
    match op {
        RegOp::Acquire { v } => Some((*v, true)),
        RegOp::Release { v } => Some((*v, false)),
        _ => None,
    }
}

/// Each op's neighbours, one flat list.
struct Adjacency {
    start: Vec<usize>,
    list: Vec<usize>,
}

impl Adjacency {
    fn new(n: usize, edges: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut start = vec![0; n + 1];
        edges.clone().for_each(|(a, _)| start[a + 1] += 1);
        (0..n).for_each(|i| start[i + 1] += start[i]);
        let mut fill = start.clone();
        let mut list = vec![0; start[n]];
        for (a, b) in edges {
            list[fill[a]] = b;
            fill[a] += 1;
        }
        Adjacency { start, list }
    }

    fn of(&self, pc: usize) -> &[usize] {
        &self.list[self.start[pc]..self.start[pc + 1]]
    }
}

struct Code<'a> {
    code: &'a [RegOp],
    succs: Adjacency,
    preds: Adjacency,
    regs: Vec<Vec<u32>>,
    removed: Vec<bool>,
    /// `seen[pc] == stamp`: visited by the current walk.
    seen: Vec<u32>,
    stamp: u32,
}

impl Code<'_> {
    fn touches(&self, pc: usize, r: u32) -> bool {
        !self.removed[pc] && self.regs[pc].contains(&r)
    }

    /// Whether the current walk reaches `pc` for the first time.
    fn first_visit(&mut self, pc: usize) -> bool {
        std::mem::replace(&mut self.seen[pc], self.stamp) != self.stamp
    }

    /// The op every path from `pc` reaches first among those touching `r`;
    /// `None` when paths reach different ones or leave the function first.
    fn next_touch(&mut self, pc: usize, r: u32) -> Option<usize> {
        self.stamp += 1;
        let mut stack = self.succs.of(pc).to_vec();
        let mut found = None;
        while let Some(p) = stack.pop() {
            if !self.first_visit(p) {
                continue;
            }
            if self.touches(p, r) {
                if found.is_some_and(|f| f != p) {
                    return None;
                }
                found = Some(p);
            } else if self.succs.of(p).is_empty() {
                return None;
            } else {
                stack.extend(self.succs.of(p));
            }
        }
        found
    }

    /// The first ops of a cancellable pair whose second op is `y`: every
    /// path into `y` last touched `r` at a refcount op of the other kind
    /// whose every path reaches `y` first.
    fn first_ops(&mut self, y: usize, r: u32, y_acquires: bool) -> Option<Vec<usize>> {
        if y == 0 {
            return None;
        }
        self.stamp += 1;
        let mut stack = self.preds.of(y).to_vec();
        let mut touched = Vec::new();
        while let Some(p) = stack.pop() {
            if !self.first_visit(p) {
                continue;
            }
            if self.touches(p, r) {
                if rc_op(&self.code[p]) != Some((r, !y_acquires)) {
                    return None;
                }
                touched.push(p);
            } else if p == 0 {
                return None;
            } else {
                stack.extend(self.preds.of(p));
            }
        }
        if touched.is_empty() {
            return None;
        }
        for &x in &touched {
            if self.next_touch(x, r) != Some(y) {
                return None;
            }
        }
        Some(touched)
    }

    /// Cancels every pair on `r` whose second op is an acquire (a release
    /// when `y_acquires` is false); `ops` are `r`'s refcount ops. Returns
    /// whether any went.
    fn cancel_round(&mut self, r: u32, ops: &[usize], y_acquires: bool) -> bool {
        let mut any = false;
        for &y in ops {
            if self.removed[y] || rc_op(&self.code[y]) != Some((r, y_acquires)) {
                continue;
            }
            if let Some(firsts) = self.first_ops(y, r, y_acquires) {
                self.removed[y] = true;
                for x in firsts {
                    self.removed[x] = true;
                }
                any = true;
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Bank, IntOp, Slot};

    fn ret_v(s: u32) -> RegOp {
        RegOp::Ret {
            s: Slot::new(Bank::V, s),
        }
    }

    #[test]
    fn a_loop_keeps_holding_what_its_header_reacquires() {
        // acquire v0; release v0 | H: acquire v0; brz -> exit; len; release
        // v0; jmp H | exit: release v0; ret
        let mut code = vec![
            RegOp::Acquire { v: 0 },
            RegOp::Release { v: 0 },
            RegOp::Acquire { v: 0 },
            RegOp::Brz { c: 0, pc: 7 },
            RegOp::TenLen { d: 1, t: 0 },
            RegOp::Release { v: 0 },
            RegOp::Jmp { pc: 2 },
            RegOp::Release { v: 0 },
            ret_v(0),
        ];
        assert_eq!(cancel_idle_pairs(&mut code), 3);
        assert_eq!(
            code,
            vec![
                RegOp::Acquire { v: 0 },
                RegOp::Brz { c: 0, pc: 4 },
                RegOp::TenLen { d: 1, t: 0 },
                RegOp::Jmp { pc: 1 },
                RegOp::Release { v: 0 },
                ret_v(0),
            ]
        );
    }

    /// Acquires minus releases of one call of `code` with `arg` in `i0`.
    fn leaked(code: Vec<RegOp>, arg: i64) -> i64 {
        use crate::machine::{ArgVal, Machine, NativeFunc, NativeProgram};
        use wolfram_runtime::memory;
        let prog = NativeProgram {
            parallel: None,
            funcs: vec![NativeFunc {
                name: "Main".into(),
                code,
                n_int: 3,
                n_flt: 0,
                n_cpx: 0,
                n_val: 1,
                params: vec![Slot::new(Bank::I, 0)],
                elision: Default::default(),
            }],
        };
        let before = memory::stats();
        Machine::standalone()
            .call(&prog, 0, [Ok(ArgVal::I(arg))], None)
            .unwrap();
        let after = memory::stats();
        (after.acquires - before.acquires) as i64 - (after.releases - before.releases) as i64
    }

    #[test]
    fn a_release_that_may_leave_the_function_stays() {
        // fill v0; acquire; release; brz i0 -> ret | acquire; len; release;
        // ret. The release at pc 3 reaches the acquire at pc 5 on one path
        // and the return on the other: cancelling that pair would leave
        // v0 held at the return when i0 == 0.
        let fill = RegOp::TenFill1 {
            kind: crate::machine::ElemKind::I64,
            d: 0,
            c: 1,
            n: 1,
        };
        let code = vec![
            fill.clone(),
            RegOp::Acquire { v: 0 },
            RegOp::Release { v: 0 },
            RegOp::Brz { c: 0, pc: 7 },
            RegOp::Acquire { v: 0 },
            RegOp::TenLen { d: 2, t: 0 },
            RegOp::Release { v: 0 },
            RegOp::RetNull,
        ];
        let mut every_path = code.clone();
        assert_eq!(cancel_idle_pairs(&mut every_path), 2);
        assert_eq!(every_path[1], RegOp::Brz { c: 0, pc: 5 });
        let mut some_path = code;
        some_path.remove(4);
        some_path.remove(2);
        if let RegOp::Brz { pc, .. } = &mut some_path[2] {
            *pc = 5;
        }
        for arg in [0, 1] {
            assert_eq!(leaked(every_path.clone(), arg), 0, "i0 = {arg}");
        }
        assert_eq!(leaked(some_path.clone(), 0), 1);
        assert_eq!(leaked(some_path, 1), 0);
    }

    #[test]
    fn a_release_whose_paths_touch_different_ops_stays() {
        // fill v0; acquire; release; brz i0 -> A | fill v0; acquire;
        // release; ret | A: acquire; len; release; ret. The release at pc 2
        // reaches the acquire at A on one path and a write of v0 on the
        // other: cancelling that pair would leave v0 held across the write,
        // so the second fill's acquire would count twice.
        let fill = RegOp::TenFill1 {
            kind: crate::machine::ElemKind::I64,
            d: 0,
            c: 1,
            n: 1,
        };
        let code = vec![
            fill.clone(),
            RegOp::Acquire { v: 0 },
            RegOp::Release { v: 0 },
            RegOp::Brz { c: 0, pc: 8 },
            fill,
            RegOp::Acquire { v: 0 },
            RegOp::Release { v: 0 },
            RegOp::RetNull,
            RegOp::Acquire { v: 0 },
            RegOp::TenLen { d: 2, t: 0 },
            RegOp::Release { v: 0 },
            RegOp::RetNull,
        ];
        let mut cancelled = code;
        assert_eq!(cancel_idle_pairs(&mut cancelled), 4);
        for arg in [0, 1] {
            assert_eq!(leaked(cancelled.clone(), arg), 0, "i0 = {arg}");
        }
    }

    #[test]
    fn a_pair_around_a_use_stays() {
        let mut code = vec![
            RegOp::Acquire { v: 0 },
            RegOp::TenLen { d: 1, t: 0 },
            RegOp::Release { v: 0 },
            RegOp::RetNull,
        ];
        let before = code.clone();
        assert_eq!(cancel_idle_pairs(&mut code), 0);
        assert_eq!(code, before);
    }

    #[test]
    fn an_acquire_reached_from_the_entry_stays() {
        // The header's acquire is also reached along a path with no
        // release before it (pc 0 branches straight to it).
        let mut code = vec![
            RegOp::Brz { c: 0, pc: 3 },
            RegOp::Release { v: 0 },
            RegOp::Jmp { pc: 3 },
            RegOp::Acquire { v: 0 },
            RegOp::IntBinImm {
                op: IntOp::Add,
                d: 1,
                a: 1,
                imm: 1,
            },
            RegOp::Release { v: 0 },
            RegOp::RetNull,
        ];
        // Only the acquire/release around the add goes.
        assert_eq!(cancel_idle_pairs(&mut code), 2);
        assert_eq!(code.len(), 5);
        assert_eq!(code[1], RegOp::Release { v: 0 });
        assert_eq!(code[2], RegOp::Jmp { pc: 3 });
    }
}
