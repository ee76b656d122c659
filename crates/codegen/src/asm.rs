//! The "Assembler" export: a textual listing of the native
//! register-machine code (the `FunctionCompileExportString[f, "Assembler"]`
//! analog from appendix A.6.5).

use crate::machine::{NativeFunc, NativeProgram, RegOp};
use std::fmt::Write as _;

/// Renders a native program — the code the engine executes, superinstructions
/// and `VecLoop`s included — as an assembler-style listing.
pub fn render_program(p: &NativeProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\t.section __TEXT,wolfram,regular");
    for f in &p.funcs {
        out.push_str(&render_function(f));
    }
    let _ = writeln!(out, "\t.subsections_via_symbols");
    out
}

/// Renders one function as an assembler-style listing.
pub fn render_function(f: &NativeFunc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\t.globl _{}", f.name);
    let _ = writeln!(out, "_{}:", f.name);
    let _ = writeln!(
        out,
        "\t; frame: {} int, {} real, {} complex, {} value registers",
        f.n_int, f.n_flt, f.n_cpx, f.n_val
    );
    for (pc, op) in f.code.iter().enumerate() {
        let _ = writeln!(out, "L{pc:04}:\t{}", render_op(op));
    }
    out
}

/// `".u"` marks an element access whose bounds check was proved away.
fn u(checked: bool) -> &'static str {
    if checked {
        ""
    } else {
        ".u"
    }
}

fn render_op(op: &RegOp) -> String {
    let parts = op.parts();
    if parts.len() > 1 {
        // A superinstruction is its parts in one dispatch.
        let parts: Vec<String> = parts.iter().map(render_op).collect();
        return format!("{} {{ {} }}", op.mnemonic(), parts.join("; "));
    }
    match op {
        RegOp::LdcI { d, v } => format!("ldc.i64 i{d}, {v}"),
        RegOp::LdcF { d, v } => format!("ldc.f64 f{d}, {v}"),
        RegOp::LdcC { d, re, im } => format!("ldc.c64 c{d}, ({re}, {im})"),
        RegOp::LdcV { d, v } => format!("ldc.val v{d}, {}", v.type_name()),
        RegOp::LdcArrayCopy { d, v } => format!("ldc.copy v{d}, {}", v.type_name()),
        RegOp::MovI { d, s } => format!("mov.i64 i{d}, i{s}"),
        RegOp::MovF { d, s } => format!("mov.f64 f{d}, f{s}"),
        RegOp::MovC { d, s } => format!("mov.c64 c{d}, c{s}"),
        RegOp::MovV { d, s } => format!("mov.val v{d}, v{s}"),
        RegOp::TakeV { d, s } => format!("take.val v{d}, v{s}"),
        RegOp::IntBin { op, d, a, b } => format!("{:?}.i64 i{d}, i{a}, i{b}", op).to_lowercase(),
        RegOp::IntBinImm { op, d, a, imm } => {
            format!("{:?}i.i64 i{d}, i{a}, {imm}", op).to_lowercase()
        }
        RegOp::FltBinImm { op, d, a, imm } => {
            format!("{:?}i.f64 f{d}, f{a}, {imm}", op).to_lowercase()
        }
        RegOp::IntUn { op, d, s } => format!("{:?}.i64 i{d}, i{s}", op).to_lowercase(),
        RegOp::PowModI { d, a, b, m } => format!("powmod.i64 i{d}, i{a}, i{b}, i{m}"),
        RegOp::FltBin { op, d, a, b } => format!("{:?}.f64 f{d}, f{a}, f{b}", op).to_lowercase(),
        RegOp::FltCmp { op, d, a, b } => format!("cmp{:?}.f64 i{d}, f{a}, f{b}", op).to_lowercase(),
        RegOp::FltUn { op, d, s } => format!("{:?}.f64 f{d}, f{s}", op).to_lowercase(),
        RegOp::FloorFI { d, s } => format!("floor.f64 i{d}, f{s}"),
        RegOp::CeilFI { d, s } => format!("ceil.f64 i{d}, f{s}"),
        RegOp::RoundFI { d, s } => format!("round.f64 i{d}, f{s}"),
        RegOp::IntToFlt { d, s } => format!("cvt.i64.f64 f{d}, i{s}"),
        RegOp::IntToCpx { d, s } => format!("cvt.i64.c64 c{d}, i{s}"),
        RegOp::FltToCpx { d, s } => format!("cvt.f64.c64 c{d}, f{s}"),
        RegOp::CpxBin { op, d, a, b } => format!("{:?}.c64 c{d}, c{a}, c{b}", op).to_lowercase(),
        RegOp::CpxPowI { d, a, e } => format!("pow.c64 c{d}, c{a}, i{e}"),
        RegOp::CpxAbs { d, s } => format!("abs.c64 f{d}, c{s}"),
        RegOp::CpxMake { d, re, im } => format!("make.c64 c{d}, f{re}, f{im}"),
        RegOp::CpxRe { d, s } => format!("re.c64 f{d}, c{s}"),
        RegOp::CpxIm { d, s } => format!("im.c64 f{d}, c{s}"),
        RegOp::CpxConj { d, s } => format!("conj.c64 c{d}, c{s}"),
        RegOp::CpxEq { d, a, b } => format!("eq.c64 i{d}, c{a}, c{b}"),
        RegOp::TenLen { d, t } => format!("len.ten i{d}, v{t}"),
        RegOp::TenPart1 {
            kind,
            d,
            t,
            i,
            checked,
        } => format!("part1{}.{kind:?} {d}, v{t}, i{i}", u(*checked)),
        RegOp::TenPart2 {
            kind,
            d,
            t,
            i,
            j,
            checked,
        } => format!("part2{}.{kind:?} {d}, v{t}, i{i}, i{j}", u(*checked)),
        RegOp::TenSet1 {
            kind,
            t,
            i,
            v,
            checked,
        } => format!("set1{}.{kind:?} v{t}, i{i}, {v}", u(*checked)),
        RegOp::TenSet2 {
            kind,
            t,
            i,
            j,
            v,
            checked,
        } => format!("set2{}.{kind:?} v{t}, i{i}, i{j}, {v}", u(*checked)),
        RegOp::TenFill1 { kind, d, c, n } => format!("fill1.{kind:?} v{d}, {c}, i{n}"),
        RegOp::TenFill2 { kind, d, c, n1, n2 } => {
            format!("fill2.{kind:?} v{d}, {c}, i{n1}, i{n2}")
        }
        RegOp::TenBin { op, d, a, b } => format!("{:?}.ten v{d}, v{a}, v{b}", op).to_lowercase(),
        RegOp::TenScalar {
            op,
            kind,
            d,
            t,
            s,
            rev,
        } => {
            let dir = if *rev { "rsc" } else { "sc" };
            format!("{op:?}.{dir} v{d}, v{t}, {kind:?}:{s}").to_lowercase()
        }
        RegOp::TenSetRow { t, i, row } => format!("setrow v{t}, i{i}, v{row}"),
        RegOp::TenFromList { kind, d, items } => {
            format!("pack.{kind:?} v{d}, {} items", items.len())
        }
        RegOp::DotVecF { d, a, b } => format!("dotv.f64 f{d}, v{a}, v{b}"),
        RegOp::DotVecI { d, a, b } => format!("dotv.i64 i{d}, v{a}, v{b}"),
        RegOp::DotMat { d, a, b } => format!("dotm v{d}, v{a}, v{b}"),
        RegOp::DotMatVec { d, a, b } => format!("dot.mv v{d}, v{a}, v{b}"),
        RegOp::StrLen { d, s } => format!("len.str i{d}, v{s}"),
        RegOp::StrToCodes { d, s } => format!("codes.str v{d}, v{s}"),
        RegOp::StrFromCodes { d, s } => format!("fromcodes.str v{d}, v{s}"),
        RegOp::StrJoin { d, a, b } => format!("join.str v{d}, v{a}, v{b}"),
        RegOp::ExprBin { op, d, a, b } => format!("{:?}.expr v{d}, v{a}, v{b}", op).to_lowercase(),
        RegOp::ExprUnary { head, d, a } => format!("expr.un v{d}, {head}[v{a}]"),
        RegOp::BoolToExpr { d, s } => format!("box.bool v{d}, i{s}"),
        RegOp::BoxIV { d, s } => format!("box.i64 v{d}, i{s}"),
        RegOp::BoxFV { d, s } => format!("box.f64 v{d}, f{s}"),
        RegOp::BoxCV { d, s } => format!("box.c64 v{d}, c{s}"),
        RegOp::RndUnit { d } => format!("rnd f{d}"),
        RegOp::RndRange { d, a, b } => format!("rnd.range f{d}, f{a}, f{b}"),
        RegOp::MakeClosure { d, f, captures } => {
            format!("closure v{d}, fn{f}, {} captures", captures.len())
        }
        RegOp::CallFunc { f, args, ret } => {
            format!(
                "call fn{f}, {} args -> {:?}{}",
                args.len(),
                ret.bank,
                ret.ix
            )
        }
        RegOp::CallValue { fv, args, ret } => {
            format!(
                "calli v{fv}, {} args -> {:?}{}",
                args.len(),
                ret.bank,
                ret.ix
            )
        }
        RegOp::CallKernel { ret, call } => {
            format!(
                "kernel {}, {} args -> {:?}{}",
                call.head,
                call.args.len(),
                ret.bank,
                ret.ix
            )
        }
        RegOp::Jmp { pc } => format!("jmp L{pc:04}"),
        RegOp::Brz { c, pc } => format!("brz i{c}, L{pc:04}"),
        RegOp::AbortCheck => "abort.check".into(),
        RegOp::VecLoop { plan } => format!(
            "vec.loop i{}, {} i{}, {} nodes, {} v{}",
            plan.iv,
            if plan.inclusive { "le" } else { "lt" },
            plan.bound,
            plan.nodes.len(),
            match plan.out.at {
                crate::vectorize::StoreAt::Affine { .. } => "out",
                crate::vectorize::StoreAt::AddAt { .. } => "add.at",
            },
            plan.out.slot
        ),
        RegOp::Acquire { v } => format!("acquire v{v}"),
        RegOp::Release { v } => format!("release v{v}"),
        RegOp::Ret { s } => format!("ret {:?}{}", s.bank, s.ix),
        RegOp::RetNull => "ret.null".into(),
        fused => unreachable!("{} renders through its parts", fused.mnemonic()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Bank, IntOp, Slot};

    #[test]
    fn listing_renders() {
        let f = NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::LdcI { d: 1, v: 1 },
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 2,
                    a: 0,
                    b: 1,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            n_int: 3,
            n_flt: 0,
            n_cpx: 0,
            n_val: 0,
            params: vec![Slot::new(Bank::I, 0)],
            elision: Default::default(),
        };
        let text = render_function(&f);
        assert!(text.contains("_Main:"), "{text}");
        assert!(text.contains("add.i64 i2, i0, i1"), "{text}");
        assert!(text.contains("ret I2"), "{text}");
        assert!(text.contains("L0000:"), "{text}");
    }
}
