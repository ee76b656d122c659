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
//! seven §6 benchmarks (`opstats`), and a fused op stays only while some
//! benchmark program executes it in a loop (`crates/bench/tests/
//! fusion_differential.rs` pins the set that executes):
//!
//! - `While` headers: abort poll + compare + branch (+ unconditional
//!   jump), up to four ops in one dispatch
//!   (`abort.check -> int.bin -> brz -> jmp`);
//! - loop latches: counter increment and the phi edge-moves coalescing
//!   leaves folded into the back-edge (`addi -> jmp` in every counted
//!   loop, `mov.i -> jmp` in Blur's, `addi -> mov.i -> mov.i -> jmp` in
//!   PrimeQ's);
//! - tensor element load feeding an ALU op (FNV1a's `part1 -> bitxor`,
//!   Histogram's `part1 -> addi`, Blur's `part2 -> mul/add`);
//! - ALU pairs: integer/float multiply-add chains (Blur's stencil
//!   `mul -> add`).
//!
//! A fused op narrows its immediates so that it fits the op size; fusion
//! is refused, not truncated, when an immediate does not fit.

use crate::machine::{compact, ElemKind, NativeFunc, NativeProgram, RegOp};

/// Rewrites every function in the program. Returns the total number of
/// instructions eliminated by fusion.
pub fn fuse_program(p: &mut NativeProgram) -> usize {
    p.funcs.iter_mut().map(fuse_function).sum()
}

/// Rewrites one function's code with superinstructions, remapping all
/// branch targets. Returns the number of instructions eliminated.
pub fn fuse_function(f: &mut NativeFunc) -> usize {
    let n = f.code.len();
    // Leaders: instructions some branch can transfer control to. A fused
    // group may not *contain* a leader beyond its first op, otherwise the
    // jump would land mid-superinstruction.
    let mut leader = vec![false; n + 1];
    for op in &mut f.code {
        op.map_targets(|t| {
            leader[t] = true;
            t
        });
    }
    // A fused op takes its group's first slot; the rest of the group goes.
    let mut removed = vec![false; n];
    let mut i = 0;
    while i < n {
        // The window a group may cover: up to the next leader.
        let mut end = i + 1;
        while end < n.min(i + MAX_GROUP) && !leader[end] {
            end += 1;
        }
        let len = match match_group(&f.code[i..end]) {
            Some(fused) => {
                let len = fused.parts().len();
                f.code[i] = fused;
                removed[i + 1..i + len].fill(true);
                len
            }
            None => 1,
        };
        i += len;
    }
    f.code = compact(std::mem::take(&mut f.code), &removed);
    n - f.code.len()
}

/// Longest sequence a superinstruction replaces.
const MAX_GROUP: usize = 4;

/// Narrows an immediate to a fused op's `i32` (or `i16`) field.
fn im<T: TryFrom<i64>>(x: &i64) -> Option<T> {
    T::try_from(*x).ok()
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
    use RegOp::{AbortCheck, Brz, FltBin, IntBin, IntBinImm, Jmp, MovI, TenPart1, TenPart2};
    Some(match window {
        // abort.check + cmp + brz + jmp: a full `While` loop header. (A
        // `Branch` always lowers to `brz; jmp`, so there are no jump-less
        // compare-and-branch forms.)
        [AbortCheck, IntBin { op, d, a, b }, Brz { c, pc }, Jmp { pc: pc_true }] if c == d => {
            RegOp::AbortBrCmpISel {
                op: *op,
                a: *a,
                b: *b,
                d: *d,
                pc_false: *pc,
                pc_true: *pc_true,
            }
        }
        // cmp + brz + jmp: the condition register is dual-written, so any
        // later read still sees the comparison result.
        [IntBin { op, d, a, b }, Brz { c, pc }, Jmp { pc: pc_true }, ..] if c == d => {
            RegOp::BrCmpISel {
                op: *op,
                a: *a,
                b: *b,
                d: *d,
                pc_false: *pc,
                pc_true: *pc_true,
            }
        }
        // brz + jmp: a two-way branch in one dispatch.
        [Brz { c, pc }, Jmp { pc: pc_nz }, ..] => RegOp::BrzJmp {
            c: *c,
            pc_z: *pc,
            pc_nz: *pc_nz,
        },
        // Loop-counter increment / phi edge-move folded into a back-edge.
        [IntBinImm { op, d, a, imm }, Jmp { pc }, ..] => RegOp::IntBinImmJmp {
            op: *op,
            d: *d,
            a: *a,
            imm: im(imm)?,
            pc: *pc,
        },
        // Phi edge-moves folded into a back-edge: mov+mov+jmp is a whole
        // two-variable loop latch in one dispatch.
        [MovI { d: d1, s: s1 }, MovI { d: d2, s: s2 }, Jmp { pc }, ..] => RegOp::Mov2IJmp {
            d1: *d1,
            s1: *s1,
            d2: *d2,
            s2: *s2,
            pc: *pc,
        },
        [MovI { d, s }, Jmp { pc }, ..] => RegOp::MovIJmp {
            d: *d,
            s: *s,
            pc: *pc,
        },
        // A whole loop latch: counter increment, its phi move, another
        // move and the back-edge (`t = i + 1; i = t; s = u; jmp`).
        [IntBinImm { op, d, a, imm }, MovI { d: d2, s: s2 }, MovI { d: d3, s: s3 }, Jmp { pc }] => {
            RegOp::IntBinImmMov2IJmp {
                op: *op,
                d: *d,
                a: *a,
                imm: im(imm)?,
                d2: *d2,
                s2: *s2,
                d3: *d3,
                s3: *s3,
                pc: *pc,
            }
        }
        // Tensor element load feeding an ALU op (load-op); `checked` rides
        // along, so proved and unproved accesses fuse alike.
        [TenPart1 {
            kind: ElemKind::I64,
            d: e,
            t,
            i,
            checked,
        }, IntBinImm { op, d, a, imm }, ..] => RegOp::TenPart1IntBinImm {
            e: *e,
            t: *t,
            i: *i,
            op: *op,
            d: *d,
            a: *a,
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
            e: *e,
            t: *t,
            i: *i,
            op: *op,
            d: *d,
            a: *a,
            b: *b,
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
            e: *e,
            t: *t,
            i: *i,
            j: *j,
            op: *op,
            d: *d,
            a: *a,
            b: *b,
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
            d1: *d1,
            a1: *a1,
            imm1: im(imm1)?,
            op2: *op2,
            d2: *d2,
            a2: *a2,
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
            d1: *d1,
            a1: *a1,
            b1: *b1,
            op2: *op2,
            d2: *d2,
            a2: *a2,
            b2: *b2,
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
            d1: *d1,
            a1: *a1,
            b1: *b1,
            op2: *op2,
            d2: *d2,
            a2: *a2,
            b2: *b2,
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
        // pc 3 is a jump target: the int.bin pair at 2..=3, which would
        // otherwise fuse into `int.bin2`, must NOT fuse.
        let mut f = func(
            vec![
                RegOp::LdcI { d: 3, v: 7 },
                RegOp::Brz { c: 0, pc: 3 },
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 1,
                    a: 0,
                    b: 0,
                },
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 2,
                    a: 1,
                    b: 3,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            4,
        );
        fuse_function(&mut f);
        assert!(
            f.code.iter().all(|op| !matches!(op, RegOp::IntBin2 { .. })),
            "fused across a jump target: {:?}",
            f.code
        );
        // Taken (x = 0): r1 is still 0, so r2 = 0 + 7; a jump that skipped
        // the second add would return 0. Not taken: r2 = 2x + 7.
        assert_eq!(run_i(&f, 0), 7);
        assert_eq!(run_i(&f, 5), 17);
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
