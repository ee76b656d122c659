//! Superinstruction fusion: a post-register-allocation peephole pass that
//! rewrites [`NativeFunc`] code into fused ops, halving (or better) the
//! dispatch count of the hot dyads measured by `reproduce -- opstats`.
//!
//! The pass is deliberately liveness-free: **every fused op performs all
//! the register writes of the sequence it replaces**, so the rewritten
//! program is bit-identical to the original on every input — the only
//! legality condition is that no jump may land *inside* a fused group.
//! That condition is enforced with a leader set (every jump target starts
//! a new group) and all branch targets are remapped through an
//! old-pc → new-pc table afterwards.
//!
//! The superinstruction set is chosen from the dyad/triad profiles of the
//! seven §6 benchmarks (`opstats`):
//!
//! - `While` headers: abort poll + compare + branch (+ unconditional
//!   jump), up to four ops in one dispatch
//!   (`abort.check -> int.bin -> brz -> jmp`, `flt.cmp -> brz`);
//! - loop latches: counter increment and the phi edge-moves coalescing
//!   leaves folded into the back-edge (`addi -> jmp` in every counted
//!   loop, `mov.i -> jmp` in Blur's, `addi -> mov.i -> mov.i -> jmp` in
//!   PrimeQ's);
//! - tensor element load feeding an ALU op (FNV1a's `part1 -> bitxor`,
//!   Histogram's `part1 -> addi`, Blur's `part2 -> mul/add`);
//! - ALU pairs: integer/float multiply-add chains (Blur's stencil
//!   `mul -> add`);
//! - function-epilogue `release` pairs.
//!
//! Fused variants keep `RegOp` at its pre-fusion 48 bytes by using `u32`
//! register/pc operands and `i32` immediates (fusion is refused, not
//! truncated, when a value does not fit).

use crate::machine::{ElemKind, NativeFunc, NativeProgram, RegOp};

/// Rewrites every function in the program. Returns the total number of
/// instructions eliminated by fusion.
pub fn fuse_program(p: &mut NativeProgram) -> usize {
    p.funcs.iter_mut().map(fuse_function).sum()
}

/// Rewrites one function's code with superinstructions, remapping all
/// branch targets. Returns the number of instructions eliminated.
pub fn fuse_function(f: &mut NativeFunc) -> usize {
    let mut code = std::mem::take(&mut f.code);
    let n = code.len();
    // Leaders: instructions some branch can transfer control to. A fused
    // group may not *contain* a leader beyond its first op, otherwise the
    // jump would land mid-superinstruction.
    let mut leader = vec![false; n + 1];
    for op in &mut code {
        op.map_targets(|t| {
            leader[t] = true;
            t
        });
    }
    let mut out: Vec<RegOp> = Vec::with_capacity(n);
    let mut new_pc = vec![0usize; n + 1];
    let mut i = 0;
    while i < n {
        new_pc[i] = out.len();
        // The window a group may cover: up to the next leader.
        let mut end = i + 1;
        while end < n.min(i + MAX_GROUP) && !leader[end] {
            end += 1;
        }
        if let Some(fused) = match_group(&code[i..end]) {
            // Interior positions are unreachable (not leaders); map them
            // to the group start anyway so the table is total.
            let len = fused.parts().len();
            new_pc[i..i + len].fill(out.len());
            out.push(fused);
            i += len;
        } else {
            out.push(code[i].clone());
            i += 1;
        }
    }
    new_pc[n] = out.len();
    let removed = n - out.len();
    for op in &mut out {
        op.map_targets(|t| new_pc[t]);
    }
    f.code = out;
    removed
}

/// Longest sequence a superinstruction replaces.
const MAX_GROUP: usize = 4;

/// Narrows a register index / pc to the fused ops' compact `u32` operand
/// width (fusion is refused on overflow rather than truncating).
fn r(x: &usize) -> Option<u32> {
    u32::try_from(*x).ok()
}

/// Narrows an immediate to the fused ops' `i32` field.
fn im(x: &i64) -> Option<i32> {
    i32::try_from(*x).ok()
}

/// Tries to fuse a prefix of `window` — the ops from the current position
/// up to the next jump target, at most [`MAX_GROUP`]. Each pattern is the
/// inverse of [`RegOp::parts`]: the fused op's parts are the ops matched.
///
/// Pattern order matters: longer groups are tried before the pairs they
/// extend, and branch fusions before generic ALU pairs, so the hottest
/// shapes win.
#[allow(clippy::too_many_lines)]
fn match_group(window: &[RegOp]) -> Option<RegOp> {
    // Patterns name the primitives bare; the fused op built stays qualified.
    use RegOp::{
        AbortCheck, Brz, FltBin, FltCmp, IntBin, IntBinImm, Jmp, MovC, MovI, Release, TenPart1,
        TenPart2,
    };
    Some(match window {
        // abort.check + cmp + brz + jmp: a full `While` loop header. (A
        // `Branch` always lowers to `brz; jmp`, so there are no jump-less
        // compare-and-branch forms.)
        [AbortCheck, IntBin { op, d, a, b }, Brz { c, pc }, Jmp { pc: pc_true }] if c == d => {
            RegOp::AbortBrCmpISel {
                op: *op,
                a: r(a)?,
                b: r(b)?,
                d: r(d)?,
                pc_false: r(pc)?,
                pc_true: r(pc_true)?,
            }
        }
        // cmp + brz + jmp: the condition register is dual-written, so any
        // later read still sees the comparison result.
        [IntBin { op, d, a, b }, Brz { c, pc }, Jmp { pc: pc_true }, ..] if c == d => {
            RegOp::BrCmpISel {
                op: *op,
                a: r(a)?,
                b: r(b)?,
                d: r(d)?,
                pc_false: r(pc)?,
                pc_true: r(pc_true)?,
            }
        }
        [FltCmp { op, d, a, b }, Brz { c, pc }, Jmp { pc: pc_true }, ..] if c == d => {
            RegOp::BrCmpFSel {
                op: *op,
                a: r(a)?,
                b: r(b)?,
                d: r(d)?,
                pc_false: r(pc)?,
                pc_true: r(pc_true)?,
            }
        }
        // brz + jmp: a two-way branch in one dispatch.
        [Brz { c, pc }, Jmp { pc: pc_nz }, ..] => RegOp::BrzJmp {
            c: r(c)?,
            pc_z: r(pc)?,
            pc_nz: r(pc_nz)?,
        },
        // Loop-counter increment / phi edge-move folded into a back-edge.
        [IntBinImm { op, d, a, imm }, Jmp { pc }, ..] => RegOp::IntBinImmJmp {
            op: *op,
            d: r(d)?,
            a: r(a)?,
            imm: im(imm)?,
            pc: r(pc)?,
        },
        // Phi edge-moves folded into a back-edge: mov+mov+jmp is a whole
        // two-variable loop latch in one dispatch.
        [MovI { d: d1, s: s1 }, MovI { d: d2, s: s2 }, Jmp { pc }, ..] => RegOp::Mov2IJmp {
            d1: r(d1)?,
            s1: r(s1)?,
            d2: r(d2)?,
            s2: r(s2)?,
            pc: r(pc)?,
        },
        [MovI { d: d1, s: s1 }, MovI { d: d2, s: s2 }, ..] => RegOp::Mov2I {
            d1: r(d1)?,
            s1: r(s1)?,
            d2: r(d2)?,
            s2: r(s2)?,
        },
        [MovI { d, s }, Jmp { pc }, ..] => RegOp::MovIJmp {
            d: r(d)?,
            s: r(s)?,
            pc: r(pc)?,
        },
        [MovC { d, s }, Jmp { pc }, ..] => RegOp::MovCJmp {
            d: r(d)?,
            s: r(s)?,
            pc: r(pc)?,
        },
        // Loop-counter increment feeding its phi move (`t = i + 1; i = t`),
        // extending to the whole latch (`...; s = u; jmp`) when the next
        // two ops are another move and the back-edge.
        [IntBinImm { op, d, a, imm }, MovI { d: d2, s: s2 }, MovI { d: d3, s: s3 }, Jmp { pc }] => {
            RegOp::IntBinImmMov2IJmp {
                op: *op,
                d: r(d)?,
                a: r(a)?,
                imm: im(imm)?,
                d2: r(d2)?,
                s2: r(s2)?,
                d3: r(d3)?,
                s3: r(s3)?,
                pc: r(pc)?,
            }
        }
        [IntBinImm { op, d, a, imm }, MovI { d: d2, s: s2 }, ..] => RegOp::IntBinImmMovI {
            op: *op,
            d: r(d)?,
            a: r(a)?,
            imm: im(imm)?,
            d2: r(d2)?,
            s2: r(s2)?,
        },
        // Tensor element load feeding an ALU op (load-op); `checked` rides
        // along, so proved and unproved accesses fuse alike.
        [TenPart1 {
            kind: ElemKind::I64,
            d: e,
            t,
            i,
            checked,
        }, IntBinImm { op, d, a, imm }, ..] => RegOp::TenPart1IntBinImm {
            e: r(e)?,
            t: r(t)?,
            i: r(i)?,
            op: *op,
            d: r(d)?,
            a: r(a)?,
            imm: im(imm)?,
            checked: *checked,
        },
        [TenPart1 {
            kind: ElemKind::I64,
            d: e,
            t,
            i,
            checked,
        }, IntBin { op, d, a, b }, ..] => RegOp::TenPart1IntBin {
            e: r(e)?,
            t: r(t)?,
            i: r(i)?,
            op: *op,
            d: r(d)?,
            a: r(a)?,
            b: r(b)?,
            checked: *checked,
        },
        [TenPart2 {
            kind: ElemKind::F64,
            d: e,
            t,
            i,
            j,
            checked,
        }, FltBin { op, d, a, b }, ..] => RegOp::TenPart2FltBin {
            e: r(e)?,
            t: r(t)?,
            i: r(i)?,
            j: r(j)?,
            op: *op,
            d: r(d)?,
            a: r(a)?,
            b: r(b)?,
            checked: *checked,
        },
        // ALU pairs (integer/float multiply-add chains and friends).
        [IntBinImm {
            op: op1,
            d: d1,
            a: a1,
            imm: imm1,
        }, IntBinImm {
            op: op2,
            d: d2,
            a: a2,
            imm: imm2,
        }, ..] => RegOp::IntBinImm2 {
            op1: *op1,
            d1: r(d1)?,
            a1: r(a1)?,
            imm1: im(imm1)?,
            op2: *op2,
            d2: r(d2)?,
            a2: r(a2)?,
            imm2: im(imm2)?,
        },
        [IntBin {
            op: op1,
            d: d1,
            a: a1,
            b: b1,
        }, IntBin {
            op: op2,
            d: d2,
            a: a2,
            b: b2,
        }, ..] => RegOp::IntBin2 {
            op1: *op1,
            d1: r(d1)?,
            a1: r(a1)?,
            b1: r(b1)?,
            op2: *op2,
            d2: r(d2)?,
            a2: r(a2)?,
            b2: r(b2)?,
        },
        [FltBin {
            op: op1,
            d: d1,
            a: a1,
            b: b1,
        }, FltBin {
            op: op2,
            d: d2,
            a: a2,
            b: b2,
        }, ..] => RegOp::FltBin2 {
            op1: *op1,
            d1: r(d1)?,
            a1: r(a1)?,
            b1: r(b1)?,
            op2: *op2,
            d2: r(d2)?,
            a2: r(a2)?,
            b2: r(b2)?,
        },
        // Function-epilogue release pairs.
        [Release { v: v1 }, Release { v: v2 }, ..] => RegOp::Release2 {
            v1: r(v1)?,
            v2: r(v2)?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Bank, IntOp, Slot};

    fn func(code: Vec<RegOp>, n_int: usize) -> NativeFunc {
        NativeFunc {
            name: "Main".into(),
            code,
            n_int,
            n_flt: 0,
            n_cpx: 0,
            n_val: 0,
            params: vec![Slot::new(Bank::I, 0)],
            elision: Default::default(),
        }
    }

    fn run_i(f: &NativeFunc, arg: i64) -> i64 {
        use crate::machine::{ArgVal, Machine, NativeProgram};
        let prog = NativeProgram {
            parallel: None,
            funcs: vec![f.clone()],
        };
        let mut m = Machine::standalone();
        match m.call(&prog, 0, [Ok(ArgVal::I(arg))], None).unwrap() {
            ArgVal::I(v) => v,
            other => panic!("expected int, got {other:?}"),
        }
    }

    #[test]
    fn fuses_cmp_brz_jmp_triple_and_remaps() {
        // A countdown loop: while (0 < x) x = x - 1; return x.
        let mut f = func(
            vec![
                RegOp::LdcI { d: 1, v: 0 },
                RegOp::IntBin {
                    op: IntOp::Lt,
                    d: 2,
                    a: 1,
                    b: 0,
                },
                RegOp::Brz { c: 2, pc: 6 },
                RegOp::Jmp { pc: 4 },
                RegOp::IntBinImm {
                    op: IntOp::Sub,
                    d: 0,
                    a: 0,
                    imm: 1,
                },
                RegOp::Jmp { pc: 1 },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 0),
                },
            ],
            3,
        );
        let unfused = f.clone();
        let removed = fuse_function(&mut f);
        assert!(
            removed >= 2,
            "expected cmp+brz+jmp and sub+jmp to fuse, removed {removed}"
        );
        assert!(
            f.code
                .iter()
                .any(|op| matches!(op, RegOp::BrCmpISel { .. })),
            "{:?}",
            f.code
        );
        assert!(
            f.code
                .iter()
                .any(|op| matches!(op, RegOp::IntBinImmJmp { .. })),
            "{:?}",
            f.code
        );
        for x in [0, 1, 7] {
            assert_eq!(run_i(&f, x), run_i(&unfused, x), "input {x}");
        }
    }

    #[test]
    fn no_fusion_across_jump_targets() {
        // pc 2 is a jump target: the mov pair at 1..=2 must NOT fuse.
        let mut f = func(
            vec![
                RegOp::Brz { c: 0, pc: 2 },
                RegOp::MovI { d: 1, s: 0 },
                RegOp::MovI { d: 2, s: 0 },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            3,
        );
        fuse_function(&mut f);
        assert!(
            f.code.iter().all(|op| !matches!(op, RegOp::Mov2I { .. })),
            "fused across a jump target: {:?}",
            f.code
        );
        assert_eq!(run_i(&f, 0), 0);
        assert_eq!(run_i(&f, 5), 5);
    }

    #[test]
    fn dual_write_keeps_condition_register_observable() {
        // The comparison result is read again *after* the two-way branch,
        // on both edges — the fused op must still have written it.
        let mut f = func(
            vec![
                RegOp::LdcI { d: 1, v: 10 },
                RegOp::IntBin {
                    op: IntOp::Lt,
                    d: 2,
                    a: 0,
                    b: 1,
                },
                RegOp::Brz { c: 2, pc: 5 },
                RegOp::Jmp { pc: 4 },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            3,
        );
        fuse_function(&mut f);
        assert!(matches!(f.code[1], RegOp::BrCmpISel { .. }), "{:?}", f.code);
        assert_eq!(
            run_i(&f, 5),
            1,
            "x < 10 must leave 1 in the condition register"
        );
        assert_eq!(run_i(&f, 50), 0);
    }

    #[test]
    fn empty_and_straightline_functions_survive() {
        let mut f = func(vec![RegOp::RetNull], 1);
        assert_eq!(fuse_function(&mut f), 0);
        assert_eq!(f.code.len(), 1);
    }
}
