//! The native register machine: unboxed register banks and a monomorphic
//! instruction set. This is the execution substrate standing in for the
//! paper's LLVM-JITed native code (DESIGN.md §1).

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::{Index, IndexMut};
use std::sync::Arc;
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_runtime::checked;
use wolfram_runtime::simd::SimdOp;
use wolfram_runtime::{
    parallel, AbortSignal, FunctionValue, ParallelConfig, RuntimeError, Tensor, TensorData, Value,
};

/// Register bank selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bank {
    /// Machine integers and booleans (0/1).
    I,
    /// Machine reals.
    F,
    /// Machine complex numbers.
    C,
    /// Managed values (tensors, strings, expressions, closures).
    V,
}

/// A typed register reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    /// Which bank.
    pub bank: Bank,
    /// Index within the bank.
    pub ix: u32,
}

impl Slot {
    /// Constructs a slot.
    pub fn new(bank: Bank, ix: u32) -> Self {
        Slot { bank, ix }
    }
}

/// Integer binary opcodes (comparisons produce 0/1 in the integer bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntOp {
    Add,
    Sub,
    Mul,
    // Unchecked forms: the interval analysis proved the operation cannot
    // overflow, so the wrapping result equals the mathematical one.
    AddU,
    SubU,
    MulU,
    Quot,
    Mod,
    Pow,
    Min,
    Max,
    Gcd,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Integer unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IntUnOp {
    Neg,
    Abs,
    Not,
    Sign,
    Factorial,
}

/// Real binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FltOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Mod,
    Min,
    Max,
    ArcTan2,
}

/// Real unary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FltUnOp {
    Neg,
    Abs,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Exp,
    Log,
    ArcTan,
    ArcSin,
    ArcCos,
    Sign,
}

/// Comparison codes shared by float compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpCode {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Complex binary opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CpxOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Tensor element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ElemKind {
    I64,
    F64,
    C64,
}

/// Element-wise tensor opcodes (rank-1, same shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum TenOp {
    Add,
    Sub,
    Mul,
}

/// Symbolic (Expression) binary opcodes — "threaded interpretation" (§4.5):
/// executed against the hosting engine without full top-level evaluation
/// re-entry per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ExprOp {
    Plus,
    Times,
    Subtract,
    Power,
}

/// A native machine instruction. Operand indices refer to the bank implied
/// by the opcode; all type resolution happened at compile time.
///
/// Every register index and branch target is a `u32`, and the tag is a
/// plain byte: an op is at most 32 bytes (asserted below), fields are
/// declared in layout order (`repr(u8)` keeps it), and dispatch reads the
/// tag with no niche decode.
#[derive(Debug, Clone, PartialEq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum RegOp {
    LdcI {
        d: u32,
        v: i64,
    },
    LdcF {
        d: u32,
        v: f64,
    },
    LdcC {
        d: u32,
        re: f64,
        im: f64,
    },
    LdcV {
        d: u32,
        v: Value,
    },
    /// Loads a constant array by deep copy (the "non-optimal handling of
    /// constant arrays" ablation, §6: every load re-materializes the data).
    LdcArrayCopy {
        d: u32,
        v: Value,
    },
    MovI {
        d: u32,
        s: u32,
    },
    MovF {
        d: u32,
        s: u32,
    },
    MovC {
        d: u32,
        s: u32,
    },
    MovV {
        d: u32,
        s: u32,
    },
    /// Moves a managed value out of a dead register (the compiler's
    /// copy/live analysis proved `s` is never read again, F5): the source
    /// slot is left Null so reference counts stay minimal and in-place
    /// mutation needs no copy.
    TakeV {
        d: u32,
        s: u32,
    },
    IntBin {
        op: IntOp,
        d: u32,
        a: u32,
        b: u32,
    },
    IntBinImm {
        op: IntOp,
        d: u32,
        a: u32,
        imm: i64,
    },
    IntUn {
        op: IntUnOp,
        d: u32,
        s: u32,
    },
    PowModI {
        d: u32,
        a: u32,
        b: u32,
        m: u32,
    },
    FltBin {
        op: FltOp,
        d: u32,
        a: u32,
        b: u32,
    },
    FltBinImm {
        op: FltOp,
        d: u32,
        a: u32,
        imm: f64,
    },
    FltCmp {
        op: CmpCode,
        d: u32,
        a: u32,
        b: u32,
    },
    FltUn {
        op: FltUnOp,
        d: u32,
        s: u32,
    },
    FloorFI {
        d: u32,
        s: u32,
    },
    CeilFI {
        d: u32,
        s: u32,
    },
    RoundFI {
        d: u32,
        s: u32,
    },
    IntToFlt {
        d: u32,
        s: u32,
    },
    IntToCpx {
        d: u32,
        s: u32,
    },
    FltToCpx {
        d: u32,
        s: u32,
    },
    CpxBin {
        op: CpxOp,
        d: u32,
        a: u32,
        b: u32,
    },
    CpxPowI {
        d: u32,
        a: u32,
        e: u32,
    },
    CpxAbs {
        d: u32,
        s: u32,
    },
    CpxMake {
        d: u32,
        re: u32,
        im: u32,
    },
    CpxRe {
        d: u32,
        s: u32,
    },
    CpxIm {
        d: u32,
        s: u32,
    },
    CpxConj {
        d: u32,
        s: u32,
    },
    CpxEq {
        d: u32,
        a: u32,
        b: u32,
    },
    TenLen {
        d: u32,
        t: u32,
    },
    /// Element load `d = t[[i]]`. Every element access carries `checked`:
    /// `false` means the interval analysis proved each index in
    /// `[-len,-1] ∪ [1,len]`, so execution only resolves the sign (negative
    /// indices count from the end) without validating the range.
    TenPart1 {
        kind: ElemKind,
        checked: bool,
        d: u32,
        t: u32,
        i: u32,
    },
    TenPart2 {
        kind: ElemKind,
        checked: bool,
        d: u32,
        t: u32,
        i: u32,
        j: u32,
    },
    TenSet1 {
        kind: ElemKind,
        checked: bool,
        t: u32,
        i: u32,
        v: u32,
    },
    TenSet2 {
        kind: ElemKind,
        checked: bool,
        t: u32,
        i: u32,
        j: u32,
        v: u32,
    },
    TenFill1 {
        kind: ElemKind,
        d: u32,
        c: u32,
        n: u32,
    },
    TenFill2 {
        kind: ElemKind,
        d: u32,
        c: u32,
        n1: u32,
        n2: u32,
    },
    TenBin {
        op: TenOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Tensor (+) scalar broadcast; `rev` computes `scalar (op) tensor`.
    TenScalar {
        op: TenOp,
        kind: ElemKind,
        rev: bool,
        d: u32,
        t: u32,
        s: u32,
    },
    TenSetRow {
        t: u32,
        i: u32,
        row: u32,
    },
    TenFromList {
        kind: ElemKind,
        d: u32,
        items: Box<[u32]>,
    },
    DotVecF {
        d: u32,
        a: u32,
        b: u32,
    },
    DotVecI {
        d: u32,
        a: u32,
        b: u32,
    },
    DotMat {
        d: u32,
        a: u32,
        b: u32,
    },
    DotMatVec {
        d: u32,
        a: u32,
        b: u32,
    },
    StrLen {
        d: u32,
        s: u32,
    },
    StrToCodes {
        d: u32,
        s: u32,
    },
    StrFromCodes {
        d: u32,
        s: u32,
    },
    StrJoin {
        d: u32,
        a: u32,
        b: u32,
    },
    ExprBin {
        op: ExprOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Symbolic unary application `head[a]`, normalized by the hosting
    /// engine (like [`RegOp::ExprBin`]).
    ExprUnary {
        d: u32,
        a: u32,
        head: Arc<str>,
    },
    BoolToExpr {
        d: u32,
        s: u32,
    },
    BoxIV {
        d: u32,
        s: u32,
    },
    BoxFV {
        d: u32,
        s: u32,
    },
    BoxCV {
        d: u32,
        s: u32,
    },
    RndUnit {
        d: u32,
    },
    RndRange {
        d: u32,
        a: u32,
        b: u32,
    },
    MakeClosure {
        d: u32,
        f: u32,
        captures: Box<[Slot]>,
    },
    CallFunc {
        f: u32,
        args: Box<[Slot]>,
        ret: Slot,
    },
    CallValue {
        fv: u32,
        args: Box<[Slot]>,
        ret: Slot,
    },
    /// A kernel escape; its head and arguments are boxed together, which
    /// keeps this rare op inside the op size.
    CallKernel {
        ret: Slot,
        call: Box<KernelCall>,
    },
    Jmp {
        pc: u32,
    },
    Brz {
        c: u32,
        pc: u32,
    },
    // ---- Superinstructions (see `fuse`) ----
    //
    // A fused op *is* the sequence [`RegOp::parts`] lists: it performs all
    // the register writes of the ops it replaces (the pass needs no
    // liveness analysis to stay bit-identical), and no jump target may land
    // inside a fused group. Immediates are narrowed to `i32` (`i16` in the
    // four-part latch) so each fused op fits the op size; the pass refuses
    // to fuse when an immediate does not fit.
    /// Fused compare + two-way branch (cmp, brz, jmp): `d = a (op) b`,
    /// then jump to `pc_true` when nonzero, `pc_false` when zero.
    BrCmpISel {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc_false: u32,
        pc_true: u32,
    },
    /// Fused brz + jmp: a two-way branch on a materialized condition.
    BrzJmp {
        c: u32,
        pc_z: u32,
        pc_nz: u32,
    },
    /// Two integer binary ops in one dispatch (covers integer
    /// multiply-add chains).
    IntBin2 {
        op1: IntOp,
        d1: u32,
        a1: u32,
        b1: u32,
        op2: IntOp,
        d2: u32,
        a2: u32,
        b2: u32,
    },
    /// Two immediate-form integer ops in one dispatch (FNV1a's
    /// `muli`+`modi` hash step).
    IntBinImm2 {
        op1: IntOp,
        d1: u32,
        a1: u32,
        imm1: i32,
        op2: IntOp,
        d2: u32,
        a2: u32,
        imm2: i32,
    },
    /// Immediate-folded loop-counter increment fused with the loop
    /// back-edge.
    IntBinImmJmp {
        op: IntOp,
        d: u32,
        a: u32,
        imm: i32,
        pc: u32,
    },
    /// Two real binary ops in one dispatch (covers float multiply-add).
    FltBin2 {
        op1: FltOp,
        d1: u32,
        a1: u32,
        b1: u32,
        op2: FltOp,
        d2: u32,
        a2: u32,
        b2: u32,
    },
    /// Integer tensor element load feeding an integer op (load-op).
    TenPart1IntBin {
        op: IntOp,
        checked: bool,
        e: u32,
        t: u32,
        i: u32,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Integer tensor element load feeding an immediate-form integer op.
    TenPart1IntBinImm {
        op: IntOp,
        checked: bool,
        e: u32,
        t: u32,
        i: u32,
        d: u32,
        a: u32,
        imm: i32,
    },
    /// Real matrix element load feeding a real op (Blur's stencil taps).
    TenPart2FltBin {
        op: FltOp,
        checked: bool,
        e: u32,
        t: u32,
        i: u32,
        j: u32,
        d: u32,
        a: u32,
        b: u32,
    },
    /// Phi edge-move fused with the loop back-edge.
    MovIJmp {
        d: u32,
        s: u32,
        pc: u32,
    },
    /// Two phi edge-moves fused with the loop back-edge (the full latch
    /// block of a two-variable loop in one dispatch).
    Mov2IJmp {
        d1: u32,
        s1: u32,
        d2: u32,
        s2: u32,
        pc: u32,
    },
    /// Abort poll + compare + two-way branch: a full `While` loop header
    /// (abort.check, cmp, brz, jmp) in one dispatch.
    AbortBrCmpISel {
        op: IntOp,
        a: u32,
        b: u32,
        d: u32,
        pc_false: u32,
        pc_true: u32,
    },
    /// A whole integer loop latch in one dispatch: immediate-form op +
    /// two phi edge-moves + back-edge (`t = i + 1; i = t; s = u; jmp`).
    IntBinImmMov2IJmp {
        op: IntOp,
        imm: i16,
        d: u32,
        a: u32,
        d2: u32,
        s2: u32,
        d3: u32,
        s3: u32,
        pc: u32,
    },
    AbortCheck,
    /// Batched execution of the counted scalar loop whose header starts at
    /// the next instruction (planned by `crate::vectorize`). Runs all but
    /// the final iteration through SIMD kernels when the runtime prechecks
    /// in the plan hold, then falls through to the scalar header for the
    /// last iteration and loop exit; otherwise it is a pure no-op and the
    /// scalar loop executes unchanged. Planted by every default compile
    /// (the compiler's `loop_vectorize` option); runs on the calling
    /// thread.
    VecLoop {
        plan: Arc<crate::vectorize::VecPlan>,
    },
    Acquire {
        v: u32,
    },
    Release {
        v: u32,
    },
    Ret {
        s: Slot,
    },
    RetNull,
}

/// What a [`RegOp::CallKernel`] calls: the kernel function's head and the
/// registers of its arguments, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCall {
    /// Head of the kernel function.
    pub head: Arc<str>,
    /// Argument registers.
    pub args: Box<[Slot]>,
}

impl RegOp {
    /// Short mnemonic for the op-frequency profiler and opstats reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            RegOp::LdcI { .. } => "ldc.i",
            RegOp::LdcF { .. } => "ldc.f",
            RegOp::LdcC { .. } => "ldc.c",
            RegOp::LdcV { .. } => "ldc.v",
            RegOp::LdcArrayCopy { .. } => "ldc.copy",
            RegOp::MovI { .. } => "mov.i",
            RegOp::MovF { .. } => "mov.f",
            RegOp::MovC { .. } => "mov.c",
            RegOp::MovV { .. } => "mov.v",
            RegOp::TakeV { .. } => "take.v",
            RegOp::IntBin { .. } => "int.bin",
            RegOp::IntBinImm { .. } => "int.bin.imm",
            RegOp::IntUn { .. } => "int.un",
            RegOp::PowModI { .. } => "powmod.i",
            RegOp::FltBin { .. } => "flt.bin",
            RegOp::FltBinImm { .. } => "flt.bin.imm",
            RegOp::FltCmp { .. } => "flt.cmp",
            RegOp::FltUn { .. } => "flt.un",
            RegOp::FloorFI { .. } => "floor.fi",
            RegOp::CeilFI { .. } => "ceil.fi",
            RegOp::RoundFI { .. } => "round.fi",
            RegOp::IntToFlt { .. } => "cvt.if",
            RegOp::IntToCpx { .. } => "cvt.ic",
            RegOp::FltToCpx { .. } => "cvt.fc",
            RegOp::CpxBin { .. } => "cpx.bin",
            RegOp::CpxPowI { .. } => "cpx.powi",
            RegOp::CpxAbs { .. } => "cpx.abs",
            RegOp::CpxMake { .. } => "cpx.make",
            RegOp::CpxRe { .. } => "cpx.re",
            RegOp::CpxIm { .. } => "cpx.im",
            RegOp::CpxConj { .. } => "cpx.conj",
            RegOp::CpxEq { .. } => "cpx.eq",
            RegOp::TenLen { .. } => "ten.len",
            RegOp::TenPart1 { checked: true, .. } => "ten.part1",
            RegOp::TenPart1 { checked: false, .. } => "ten.part1.u",
            RegOp::TenPart2 { checked: true, .. } => "ten.part2",
            RegOp::TenPart2 { checked: false, .. } => "ten.part2.u",
            RegOp::TenSet1 { checked: true, .. } => "ten.set1",
            RegOp::TenSet1 { checked: false, .. } => "ten.set1.u",
            RegOp::TenSet2 { checked: true, .. } => "ten.set2",
            RegOp::TenSet2 { checked: false, .. } => "ten.set2.u",
            RegOp::TenFill1 { .. } => "ten.fill1",
            RegOp::TenFill2 { .. } => "ten.fill2",
            RegOp::TenBin { .. } => "ten.bin",
            RegOp::TenScalar { .. } => "ten.scalar",
            RegOp::TenSetRow { .. } => "ten.setrow",
            RegOp::TenFromList { .. } => "ten.fromlist",
            RegOp::DotVecF { .. } => "dot.vec.f",
            RegOp::DotVecI { .. } => "dot.vec.i",
            RegOp::DotMat { .. } => "dot.mat",
            RegOp::DotMatVec { .. } => "dot.matvec",
            RegOp::StrLen { .. } => "str.len",
            RegOp::StrToCodes { .. } => "str.tocodes",
            RegOp::StrFromCodes { .. } => "str.fromcodes",
            RegOp::StrJoin { .. } => "str.join",
            RegOp::ExprBin { .. } => "expr.bin",
            RegOp::ExprUnary { .. } => "expr.un",
            RegOp::BoolToExpr { .. } => "box.bool",
            RegOp::BoxIV { .. } => "box.iv",
            RegOp::BoxFV { .. } => "box.fv",
            RegOp::BoxCV { .. } => "box.cv",
            RegOp::RndUnit { .. } => "rnd.unit",
            RegOp::RndRange { .. } => "rnd.range",
            RegOp::MakeClosure { .. } => "closure",
            RegOp::CallFunc { .. } => "call.func",
            RegOp::CallValue { .. } => "call.value",
            RegOp::CallKernel { .. } => "call.kernel",
            RegOp::Jmp { .. } => "jmp",
            RegOp::Brz { .. } => "brz",
            RegOp::BrCmpISel { .. } => "br.cmp.i.sel",
            RegOp::BrzJmp { .. } => "brz.jmp",
            RegOp::IntBin2 { .. } => "int.bin2",
            RegOp::IntBinImm2 { .. } => "int.bin.imm2",
            RegOp::IntBinImmJmp { .. } => "int.bin.imm.jmp",
            RegOp::FltBin2 { .. } => "flt.bin2",
            RegOp::TenPart1IntBin { checked: true, .. } => "ten.part1.int.bin",
            RegOp::TenPart1IntBin { checked: false, .. } => "ten.part1.int.bin.u",
            RegOp::TenPart1IntBinImm { checked: true, .. } => "ten.part1.int.imm",
            RegOp::TenPart1IntBinImm { checked: false, .. } => "ten.part1.int.imm.u",
            RegOp::TenPart2FltBin { checked: true, .. } => "ten.part2.flt.bin",
            RegOp::TenPart2FltBin { checked: false, .. } => "ten.part2.flt.bin.u",
            RegOp::MovIJmp { .. } => "mov.i.jmp",
            RegOp::Mov2IJmp { .. } => "mov2.i.jmp",
            RegOp::AbortBrCmpISel { .. } => "abort.br.cmp.i.sel",
            RegOp::IntBinImmMov2IJmp { .. } => "int.imm.mov2.jmp",
            RegOp::AbortCheck => "abort.check",
            RegOp::VecLoop { .. } => "vec.loop",
            RegOp::Acquire { .. } => "acquire",
            RegOp::Release { .. } => "release",
            RegOp::Ret { .. } => "ret",
            RegOp::RetNull => "ret.null",
        }
    }

    /// The primitive ops this op executes, in order; a primitive is its own
    /// single part. This is *the* definition of a superinstruction: the
    /// executor's fused arms are fast paths for exactly this sequence, the
    /// fuser's patterns are its inverse, and everything else (assembler
    /// listing, vectorizer, tests) derives its rule from it.
    pub fn parts(&self) -> Cow<'_, [RegOp]> {
        use RegOp::{Brz, FltBin, IntBin, IntBinImm, Jmp, MovI};
        Cow::Owned(match *self {
            RegOp::BrCmpISel {
                op,
                a,
                b,
                d,
                pc_false,
                pc_true,
            } => vec![
                IntBin { op, d, a, b },
                Brz { c: d, pc: pc_false },
                Jmp { pc: pc_true },
            ],
            RegOp::AbortBrCmpISel {
                op,
                a,
                b,
                d,
                pc_false,
                pc_true,
            } => vec![
                RegOp::AbortCheck,
                IntBin { op, d, a, b },
                Brz { c: d, pc: pc_false },
                Jmp { pc: pc_true },
            ],
            RegOp::BrzJmp { c, pc_z, pc_nz } => vec![Brz { c, pc: pc_z }, Jmp { pc: pc_nz }],
            RegOp::IntBin2 {
                op1,
                d1,
                a1,
                b1,
                op2,
                d2,
                a2,
                b2,
            } => vec![
                IntBin {
                    op: op1,
                    d: d1,
                    a: a1,
                    b: b1,
                },
                IntBin {
                    op: op2,
                    d: d2,
                    a: a2,
                    b: b2,
                },
            ],
            RegOp::IntBinImm2 {
                op1,
                d1,
                a1,
                imm1,
                op2,
                d2,
                a2,
                imm2,
            } => vec![
                IntBinImm {
                    op: op1,
                    d: d1,
                    a: a1,
                    imm: imm1.into(),
                },
                IntBinImm {
                    op: op2,
                    d: d2,
                    a: a2,
                    imm: imm2.into(),
                },
            ],
            RegOp::FltBin2 {
                op1,
                d1,
                a1,
                b1,
                op2,
                d2,
                a2,
                b2,
            } => vec![
                FltBin {
                    op: op1,
                    d: d1,
                    a: a1,
                    b: b1,
                },
                FltBin {
                    op: op2,
                    d: d2,
                    a: a2,
                    b: b2,
                },
            ],
            RegOp::IntBinImmJmp { op, d, a, imm, pc } => vec![
                IntBinImm {
                    op,
                    d,
                    a,
                    imm: imm.into(),
                },
                Jmp { pc },
            ],
            RegOp::IntBinImmMov2IJmp {
                op,
                imm,
                d,
                a,
                d2,
                s2,
                d3,
                s3,
                pc,
            } => vec![
                IntBinImm {
                    op,
                    d,
                    a,
                    imm: imm.into(),
                },
                MovI { d: d2, s: s2 },
                MovI { d: d3, s: s3 },
                Jmp { pc },
            ],
            RegOp::MovIJmp { d, s, pc } => vec![MovI { d, s }, Jmp { pc }],
            RegOp::Mov2IJmp { d1, s1, d2, s2, pc } => {
                vec![MovI { d: d1, s: s1 }, MovI { d: d2, s: s2 }, Jmp { pc }]
            }
            RegOp::TenPart1IntBin {
                op,
                checked,
                e,
                t,
                i,
                d,
                a,
                b,
            } => vec![
                RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    checked,
                    d: e,
                    t,
                    i,
                },
                IntBin { op, d, a, b },
            ],
            RegOp::TenPart1IntBinImm {
                op,
                checked,
                e,
                t,
                i,
                d,
                a,
                imm,
            } => vec![
                RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    checked,
                    d: e,
                    t,
                    i,
                },
                IntBinImm {
                    op,
                    d,
                    a,
                    imm: imm.into(),
                },
            ],
            RegOp::TenPart2FltBin {
                op,
                checked,
                e,
                t,
                i,
                j,
                d,
                a,
                b,
            } => vec![
                RegOp::TenPart2 {
                    kind: ElemKind::F64,
                    checked,
                    d: e,
                    t,
                    i,
                    j,
                },
                FltBin { op, d, a, b },
            ],
            _ => return Cow::Borrowed(std::slice::from_ref(self)),
        })
    }

    /// Rewrites every branch target of the op through `f`. This is the one
    /// listing of the pc-carrying variants; passing an identity `f` that
    /// records its argument enumerates the targets.
    pub fn map_targets(&mut self, mut f: impl FnMut(usize) -> usize) {
        let mut map = |pc: &mut u32| {
            *pc = u32::try_from(f(*pc as usize)).expect("a branch target fits u32");
        };
        match self {
            RegOp::Jmp { pc }
            | RegOp::Brz { pc, .. }
            | RegOp::IntBinImmJmp { pc, .. }
            | RegOp::MovIJmp { pc, .. }
            | RegOp::Mov2IJmp { pc, .. }
            | RegOp::IntBinImmMov2IJmp { pc, .. } => map(pc),
            RegOp::BrCmpISel {
                pc_false, pc_true, ..
            }
            | RegOp::AbortBrCmpISel {
                pc_false, pc_true, ..
            }
            | RegOp::BrzJmp {
                pc_z: pc_false,
                pc_nz: pc_true,
                ..
            } => {
                map(pc_false);
                map(pc_true);
            }
            _ => {}
        }
    }

    /// Every register the op reads, writes, acquires or releases, with its
    /// bank (a superinstruction's are its parts'). This is the one listing
    /// of register operands: [`NativeFunc::new`] checks each against its
    /// bank's size, and the refcount pass reads the value bank's.
    #[allow(clippy::too_many_lines)]
    pub fn regs(&self) -> Vec<Slot> {
        use Bank::{C, F, I, V};
        let at = Slot::new;
        let elem = |kind: &ElemKind| match kind {
            ElemKind::I64 => I,
            ElemKind::F64 => F,
            ElemKind::C64 => C,
        };
        match self {
            RegOp::LdcI { d, .. } => vec![at(I, *d)],
            RegOp::LdcF { d, .. } | RegOp::RndUnit { d } => vec![at(F, *d)],
            RegOp::LdcC { d, .. } => vec![at(C, *d)],
            RegOp::LdcV { d, .. } | RegOp::LdcArrayCopy { d, .. } => vec![at(V, *d)],
            RegOp::Acquire { v } | RegOp::Release { v } => vec![at(V, *v)],
            RegOp::MovI { d, s } | RegOp::IntUn { d, s, .. } => vec![at(I, *d), at(I, *s)],
            RegOp::MovF { d, s } | RegOp::FltUn { d, s, .. } => vec![at(F, *d), at(F, *s)],
            RegOp::MovC { d, s } | RegOp::CpxConj { d, s } => vec![at(C, *d), at(C, *s)],
            RegOp::MovV { d, s }
            | RegOp::TakeV { d, s }
            | RegOp::StrToCodes { d, s }
            | RegOp::StrFromCodes { d, s }
            | RegOp::ExprUnary { d, a: s, .. } => vec![at(V, *d), at(V, *s)],
            RegOp::IntBin { d, a, b, .. } => vec![at(I, *d), at(I, *a), at(I, *b)],
            RegOp::IntBinImm { d, a, .. } => vec![at(I, *d), at(I, *a)],
            RegOp::PowModI { d, a, b, m } => vec![at(I, *d), at(I, *a), at(I, *b), at(I, *m)],
            RegOp::FltBin { d, a, b, .. } | RegOp::RndRange { d, a, b } => {
                vec![at(F, *d), at(F, *a), at(F, *b)]
            }
            RegOp::FltBinImm { d, a, .. } => vec![at(F, *d), at(F, *a)],
            RegOp::FltCmp { d, a, b, .. } => vec![at(I, *d), at(F, *a), at(F, *b)],
            RegOp::FloorFI { d, s } | RegOp::CeilFI { d, s } | RegOp::RoundFI { d, s } => {
                vec![at(I, *d), at(F, *s)]
            }
            RegOp::IntToFlt { d, s } => vec![at(F, *d), at(I, *s)],
            RegOp::IntToCpx { d, s } => vec![at(C, *d), at(I, *s)],
            RegOp::FltToCpx { d, s } => vec![at(C, *d), at(F, *s)],
            RegOp::CpxBin { d, a, b, .. } => vec![at(C, *d), at(C, *a), at(C, *b)],
            RegOp::CpxPowI { d, a, e } => vec![at(C, *d), at(C, *a), at(I, *e)],
            RegOp::CpxAbs { d, s } | RegOp::CpxRe { d, s } | RegOp::CpxIm { d, s } => {
                vec![at(F, *d), at(C, *s)]
            }
            RegOp::CpxMake { d, re, im } => vec![at(C, *d), at(F, *re), at(F, *im)],
            RegOp::CpxEq { d, a, b } => vec![at(I, *d), at(C, *a), at(C, *b)],
            RegOp::TenLen { d, t } | RegOp::StrLen { d, s: t } => vec![at(I, *d), at(V, *t)],
            RegOp::TenPart1 { kind, d, t, i, .. } => vec![at(elem(kind), *d), at(V, *t), at(I, *i)],
            RegOp::TenPart2 {
                kind, d, t, i, j, ..
            } => vec![at(elem(kind), *d), at(V, *t), at(I, *i), at(I, *j)],
            RegOp::TenSet1 { kind, t, i, v, .. } => vec![at(V, *t), at(I, *i), at(elem(kind), *v)],
            RegOp::TenSet2 {
                kind, t, i, j, v, ..
            } => vec![at(V, *t), at(I, *i), at(I, *j), at(elem(kind), *v)],
            RegOp::TenFill1 { kind, d, c, n } => vec![at(V, *d), at(elem(kind), *c), at(I, *n)],
            RegOp::TenFill2 { kind, d, c, n1, n2 } => {
                vec![at(V, *d), at(elem(kind), *c), at(I, *n1), at(I, *n2)]
            }
            RegOp::TenBin { d, a, b, .. }
            | RegOp::DotMat { d, a, b }
            | RegOp::DotMatVec { d, a, b }
            | RegOp::StrJoin { d, a, b }
            | RegOp::ExprBin { d, a, b, .. } => vec![at(V, *d), at(V, *a), at(V, *b)],
            RegOp::TenScalar { kind, d, t, s, .. } => {
                vec![at(V, *d), at(V, *t), at(elem(kind), *s)]
            }
            RegOp::TenSetRow { t, i, row } => vec![at(V, *t), at(I, *i), at(V, *row)],
            RegOp::TenFromList { kind, d, items } => std::iter::once(at(V, *d))
                .chain(items.iter().map(|&s| at(elem(kind), s)))
                .collect(),
            RegOp::DotVecF { d, a, b } => vec![at(F, *d), at(V, *a), at(V, *b)],
            RegOp::DotVecI { d, a, b } => vec![at(I, *d), at(V, *a), at(V, *b)],
            RegOp::BoolToExpr { d, s } | RegOp::BoxIV { d, s } => vec![at(V, *d), at(I, *s)],
            RegOp::BoxFV { d, s } => vec![at(V, *d), at(F, *s)],
            RegOp::BoxCV { d, s } => vec![at(V, *d), at(C, *s)],
            RegOp::MakeClosure { d, captures, .. } => {
                captures.iter().copied().chain([at(V, *d)]).collect()
            }
            RegOp::CallFunc { args, ret, .. } => args.iter().copied().chain([*ret]).collect(),
            RegOp::CallValue { fv, args, ret } => {
                args.iter().copied().chain([*ret, at(V, *fv)]).collect()
            }
            RegOp::CallKernel { ret, call } => call.args.iter().copied().chain([*ret]).collect(),
            RegOp::Brz { c, .. } => vec![at(I, *c)],
            RegOp::Ret { s } => vec![*s],
            RegOp::VecLoop { plan } => plan.regs(),
            RegOp::Jmp { .. } | RegOp::AbortCheck | RegOp::RetNull => Vec::new(),
            RegOp::BrCmpISel { .. }
            | RegOp::BrzJmp { .. }
            | RegOp::IntBin2 { .. }
            | RegOp::IntBinImm2 { .. }
            | RegOp::IntBinImmJmp { .. }
            | RegOp::FltBin2 { .. }
            | RegOp::TenPart1IntBin { .. }
            | RegOp::TenPart1IntBinImm { .. }
            | RegOp::TenPart2FltBin { .. }
            | RegOp::MovIJmp { .. }
            | RegOp::Mov2IJmp { .. }
            | RegOp::AbortBrCmpISel { .. }
            | RegOp::IntBinImmMov2IJmp { .. } => {
                self.parts().iter().flat_map(RegOp::regs).collect()
            }
        }
    }
}

/// Rebuilds `code` without the ops `removed` marks and with each op of
/// `inserted` (in pc order, at most one per pc) placed in front of the op
/// at its pc, remapping
/// every branch target through [`RegOp::map_targets`]: a jump to a dropped
/// op lands on the next op kept, and a jump to an op with an op inserted
/// in front of it lands on the inserted op.
pub(crate) fn splice(
    code: Vec<RegOp>,
    removed: &[bool],
    inserted: Vec<(usize, RegOp)>,
) -> Vec<RegOp> {
    let n = code.len();
    let mut new_pc = vec![0; n + 1];
    let mut out = Vec::with_capacity(n + inserted.len());
    let mut inserted = inserted.into_iter().peekable();
    for (pc, op) in code.into_iter().enumerate() {
        new_pc[pc] = out.len();
        out.extend(inserted.next_if(|(at, _)| *at == pc).map(|(_, op)| op));
        if !removed[pc] {
            out.push(op);
        }
    }
    new_pc[n] = out.len();
    for op in &mut out {
        op.map_targets(|t| new_pc[t]);
    }
    out
}

// Growing `RegOp` taxes the fetch of every op in the code array
// (EXPERIMENTS.md: a wider enum cost Mandelbrot 9%).
const _: () = assert!(std::mem::size_of::<RegOp>() <= 32);

/// Clones a runtime value, short-circuiting the cheap scalar variants so
/// the hot `LdcV`/`MovV` paths skip the full `Value::clone` (which must
/// consider every managed variant before bumping a refcount).
#[inline]
fn clone_cheap(v: &Value) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(*b),
        Value::I64(x) => Value::I64(*x),
        Value::F64(x) => Value::F64(*x),
        other => other.clone(),
    }
}

/// Per-function counts of runtime checks the lowering elided (and the
/// totals they are drawn from), for observability: `reproduce analyze
/// --stats` and the CI golden gate read these instead of grepping op
/// listings. The bounds and overflow counts come from the interval
/// analysis; `rc_elided` does not depend on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionCounters {
    /// Part bounds checks elided at lowering (unchecked tensor ops).
    pub bounds_elided: u32,
    /// Part-checked tensor ops lowered in total.
    pub bounds_total: u32,
    /// Overflow-checked integer ops promoted to unchecked forms.
    pub ovf_elided: u32,
    /// Overflow-checked integer ops (add/sub/mul) lowered in total.
    pub ovf_total: u32,
    /// `Acquire`/`Release` ops cancelled because they bracket nothing
    /// (the lowering's register rule, `crate::refcount`).
    pub rc_elided: u32,
}

/// A compiled native function.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeFunc {
    /// Mangled name.
    pub name: String,
    /// Instruction stream.
    pub code: Vec<RegOp>,
    /// Bank sizes.
    pub n_int: usize,
    /// Real bank size.
    pub n_flt: usize,
    /// Complex bank size.
    pub n_cpx: usize,
    /// Value bank size.
    pub n_val: usize,
    /// Where incoming arguments are stored, in order.
    pub params: Vec<Slot>,
    /// Check-elision statistics fixed at lowering; the bounds and
    /// overflow counts are zero when the range analysis is off.
    pub elision: ElisionCounters,
}

impl NativeFunc {
    /// A function with bank sizes `banks` (`I`, `F`, `C`, `V`), checked
    /// once here so that no op can fail for a malformed operand at run
    /// time (see [`NativeFunc::validate`]).
    ///
    /// # Errors
    ///
    /// The first register, parameter or branch target out of range, or
    /// code that can run past its last op.
    pub fn new(
        name: String,
        code: Vec<RegOp>,
        banks: [usize; 4],
        params: Vec<Slot>,
        elision: ElisionCounters,
    ) -> Result<Self, InvalidCode> {
        let [n_int, n_flt, n_cpx, n_val] = banks;
        let f = NativeFunc {
            name,
            code,
            n_int,
            n_flt,
            n_cpx,
            n_val,
            params,
            elision,
        };
        f.validate()?;
        Ok(f)
    }

    /// Checks that every register an op or a parameter names is below its
    /// bank's size, that every branch target is below the code's length,
    /// and that the last op does not fall through.
    ///
    /// # Errors
    ///
    /// The first violation, as [`NativeFunc::new`] reports it.
    pub fn validate(&self) -> Result<(), InvalidCode> {
        let size = |bank| match bank {
            Bank::I => self.n_int,
            Bank::F => self.n_flt,
            Bank::C => self.n_cpx,
            Bank::V => self.n_val,
        };
        let check = |pc, slot: Slot| {
            if slot.ix as usize >= size(slot.bank) {
                Err(InvalidCode::Register { pc, slot })
            } else {
                Ok(())
            }
        };
        for &slot in &self.params {
            check(None, slot)?;
        }
        for (pc, op) in self.code.iter().enumerate() {
            for slot in op.regs() {
                check(Some(pc), slot)?;
            }
            for part in op.parts().iter() {
                if let RegOp::Jmp { pc: target } | RegOp::Brz { pc: target, .. } = part {
                    if *target as usize >= self.code.len() {
                        return Err(InvalidCode::Target {
                            pc,
                            target: *target,
                        });
                    }
                }
            }
        }
        let last = self.code.last().map(RegOp::parts);
        match last.as_deref().and_then(<[RegOp]>::last) {
            Some(RegOp::Jmp { .. } | RegOp::Ret { .. } | RegOp::RetNull) => Ok(()),
            _ => Err(InvalidCode::FallsOffEnd),
        }
    }
}

/// Why [`NativeFunc::new`] refused a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidCode {
    /// The op at `pc` (a parameter when `None`) names a register at or past
    /// its bank's size.
    Register {
        /// The op's index in the code.
        pc: Option<usize>,
        /// The register.
        slot: Slot,
    },
    /// The op at `pc` branches at or past the end of the code.
    Target {
        /// The op's index in the code.
        pc: usize,
        /// The branch target.
        target: u32,
    },
    /// Execution can run past the last op.
    FallsOffEnd,
}

impl std::fmt::Display for InvalidCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidCode::Register { pc, slot } => {
                let at = pc.map_or("a parameter".into(), |pc| format!("op {pc}"));
                write!(f, "{at} names {:?}{}, past its bank", slot.bank, slot.ix)
            }
            InvalidCode::Target { pc, target } => {
                write!(f, "op {pc} branches to {target}, past the end of the code")
            }
            InvalidCode::FallsOffEnd => write!(f, "execution can run past the last op"),
        }
    }
}

impl std::error::Error for InvalidCode {}

/// A compiled native program (a lowered program module).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NativeProgram {
    /// Functions; index 0 is the entry (`Main`).
    pub funcs: Vec<NativeFunc>,
    /// Data-parallel runtime configuration: the threads and chunking that
    /// whole-tensor builtins (elementwise tensor arithmetic, matrix Dot)
    /// run under. `None` (the default) runs each of them as one kernel
    /// call on the calling thread; every configuration computes the same
    /// bits.
    pub parallel: Option<ParallelConfig>,
}

/// What a program without a [`ParallelConfig`] runs its whole-tensor
/// builtins under: one thread and one chunk, so each is one plain kernel
/// call.
const ONE_THREAD: ParallelConfig = ParallelConfig {
    num_threads: 1,
    min_elems_per_chunk: usize::MAX,
};

impl NativeProgram {
    /// Finds a function by name.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }
}

/// A dynamically-typed argument/result crossing a function boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Integer / boolean.
    I(i64),
    /// Real.
    F(f64),
    /// Complex.
    C(f64, f64),
    /// Managed value.
    V(Value),
}

impl ArgVal {
    /// Boxes into a runtime [`Value`]. `bool_hint` renders integers as
    /// booleans when the static type said so.
    pub fn into_value(self, bool_hint: bool) -> Value {
        match self {
            ArgVal::I(v) => {
                if bool_hint {
                    Value::Bool(v != 0)
                } else {
                    Value::I64(v)
                }
            }
            ArgVal::F(v) => Value::F64(v),
            ArgVal::C(re, im) => Value::Complex(re, im),
            ArgVal::V(v) => v,
        }
    }

    /// Unboxes a runtime value into the bank expected by `slot`.
    ///
    /// # Errors
    ///
    /// Type error when the value does not fit the bank.
    pub fn from_value(v: &Value, bank: Bank) -> Result<ArgVal, RuntimeError> {
        Ok(match bank {
            Bank::I => match v {
                Value::I64(x) => ArgVal::I(*x),
                Value::Bool(b) => ArgVal::I(*b as i64),
                other => {
                    return Err(RuntimeError::Type(format!(
                        "expected machine integer, got {}",
                        other.type_name()
                    )))
                }
            },
            Bank::F => ArgVal::F(v.expect_f64()?),
            Bank::C => {
                let (re, im) = v.expect_complex()?;
                ArgVal::C(re, im)
            }
            Bank::V => ArgVal::V(v.clone()),
        })
    }
}

/// One register bank, indexed by the ops' `u32` register numbers.
struct Regs<T>(Vec<T>);

impl<T: Clone> Regs<T> {
    /// Empties the bank and refills it with `n` copies of `fill`.
    fn reset(&mut self, n: usize, fill: T) {
        self.0.clear();
        self.0.resize(n, fill);
    }
}

impl<T> Index<u32> for Regs<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, r: u32) -> &T {
        &self.0[r as usize]
    }
}

impl<T> IndexMut<u32> for Regs<T> {
    #[inline(always)]
    fn index_mut(&mut self, r: u32) -> &mut T {
        &mut self.0[r as usize]
    }
}

struct Frame {
    ints: Regs<i64>,
    flts: Regs<f64>,
    cpxs: Regs<(f64, f64)>,
    vals: Regs<Value>,
    /// Which value slots currently hold an acquired (refcount-bracketed)
    /// value — keeps acquire/release accounting balanced across `TakeV`.
    acquired: Regs<bool>,
}

impl Frame {
    fn new(f: &NativeFunc) -> Self {
        Frame {
            ints: Regs(vec![0; f.n_int]),
            flts: Regs(vec![0.0; f.n_flt]),
            cpxs: Regs(vec![(0.0, 0.0); f.n_cpx]),
            vals: Regs(vec![Value::Null; f.n_val]),
            acquired: Regs(vec![false; f.n_val]),
        }
    }

    /// Re-shapes a pooled frame for `f`, dropping any held values.
    fn reset(&mut self, f: &NativeFunc) {
        self.ints.reset(f.n_int, 0);
        self.flts.reset(f.n_flt, 0.0);
        self.cpxs.reset(f.n_cpx, (0.0, 0.0));
        self.vals.reset(f.n_val, Value::Null);
        self.acquired.reset(f.n_val, false);
    }

    fn store(&mut self, slot: Slot, v: ArgVal) -> Result<(), RuntimeError> {
        match (slot.bank, v) {
            (Bank::I, ArgVal::I(x)) => self.ints[slot.ix] = x,
            (Bank::F, ArgVal::F(x)) => self.flts[slot.ix] = x,
            (Bank::F, ArgVal::I(x)) => self.flts[slot.ix] = x as f64,
            (Bank::C, ArgVal::C(re, im)) => self.cpxs[slot.ix] = (re, im),
            (Bank::C, ArgVal::F(x)) => self.cpxs[slot.ix] = (x, 0.0),
            (Bank::C, ArgVal::I(x)) => self.cpxs[slot.ix] = (x as f64, 0.0),
            (Bank::V, ArgVal::V(v)) => self.vals[slot.ix] = v,
            (Bank::V, other) => self.vals[slot.ix] = other.into_value(false),
            (bank, v) => {
                return Err(RuntimeError::Type(format!(
                    "cannot store {v:?} into {bank:?} bank"
                )))
            }
        }
        Ok(())
    }

    /// Stores a call's arguments into `f`'s parameter slots, stopping at
    /// the first one that fails.
    fn store_args(
        &mut self,
        f: &NativeFunc,
        args: impl IntoIterator<Item = Result<ArgVal, RuntimeError>>,
    ) -> Result<(), RuntimeError> {
        let mut got = 0;
        for arg in args {
            if let Some(slot) = f.params.get(got) {
                self.store(*slot, arg?)?;
            }
            got += 1;
        }
        if got != f.params.len() {
            return Err(RuntimeError::Type(format!(
                "{} expected {} arguments, got {got}",
                f.name,
                f.params.len()
            )));
        }
        Ok(())
    }

    /// The one `Release` body: balanced with the acquire even if the value
    /// has been moved out of the slot meanwhile (`TakeV`).
    #[inline(always)]
    fn release(&mut self, v: u32) {
        if std::mem::take(&mut self.acquired[v]) {
            wolfram_runtime::memory::record_release();
        }
    }

    /// `vals[d] = take(vals[s])`: the one `TakeV` body.
    #[inline(always)]
    fn take_v(&mut self, d: u32, s: u32) {
        self.vals[d] = std::mem::replace(&mut self.vals[s], Value::Null);
    }

    /// Element load `d = t[[i]]` (`d = t[[i, j]]` with `j`) into the bank
    /// `kind` selects: the one body behind `TenPart1`/`TenPart2` and every
    /// fused load-op.
    #[inline(always)]
    fn load_elem(
        &mut self,
        kind: ElemKind,
        d: u32,
        t: u32,
        i: u32,
        j: Option<u32>,
        checked: bool,
    ) -> Result<(), RuntimeError> {
        let t = self.vals[t].expect_tensor()?;
        let off = match j {
            None => offset1(t, self.ints[i], checked)?,
            Some(j) => offset2(t, self.ints[i], self.ints[j], checked)?,
        };
        match (kind, t.data()) {
            (ElemKind::I64, TensorData::I64(v)) => self.ints[d] = v[off],
            (ElemKind::F64, TensorData::F64(v)) => self.flts[d] = v[off],
            (ElemKind::F64, TensorData::I64(v)) => self.flts[d] = v[off] as f64,
            (ElemKind::C64, TensorData::Complex(v)) => self.cpxs[d] = v[off],
            _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
        }
        Ok(())
    }

    /// Element store `t[[i]] = v` (`t[[i, j]] = v` with `j`) from the bank
    /// `kind` selects: the one body behind `TenSet1`/`TenSet2`.
    #[inline(always)]
    fn store_elem(
        &mut self,
        kind: ElemKind,
        t: u32,
        i: u32,
        j: Option<u32>,
        v: u32,
        checked: bool,
    ) -> Result<(), RuntimeError> {
        let value = match kind {
            ElemKind::I64 => ArgVal::I(self.ints[v]),
            ElemKind::F64 => ArgVal::F(self.flts[v]),
            ElemKind::C64 => {
                let (re, im) = self.cpxs[v];
                ArgVal::C(re, im)
            }
        };
        let Value::Tensor(tensor) = &mut self.vals[t] else {
            return Err(RuntimeError::Type("SetPart on non-tensor".into()));
        };
        let off = match j {
            None => offset1(tensor, self.ints[i], checked)?,
            Some(j) => offset2(tensor, self.ints[i], self.ints[j], checked)?,
        };
        tensor_store(tensor, off, value)
    }

    fn load(&self, slot: Slot) -> ArgVal {
        match slot.bank {
            Bank::I => ArgVal::I(self.ints[slot.ix]),
            Bank::F => ArgVal::F(self.flts[slot.ix]),
            Bank::C => {
                let (re, im) = self.cpxs[slot.ix];
                ArgVal::C(re, im)
            }
            Bank::V => ArgVal::V(self.vals[slot.ix].clone()),
        }
    }
}

/// Most frames a machine keeps pooled for reuse. Indirect calls in tight
/// loops (the QSort comparator) recycle frames from this pool instead of
/// allocating; recursion deeper than the cap falls back to fresh frames.
pub const FRAME_POOL_CAP: usize = 64;

/// Execution statistics: dynamic op/dyad frequencies, populated only while
/// [`Machine::profile_ops`] is enabled. (Frame-pool hits and misses are
/// counted in `wolfram_runtime::memory`.)
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Executed instruction count per mnemonic.
    pub ops: HashMap<&'static str, u64>,
    /// Executed consecutive-pair (dyad) count — the data that drives
    /// superinstruction selection.
    pub pairs: HashMap<(&'static str, &'static str), u64>,
}

impl OpStats {
    /// Mnemonics sorted by descending execution count.
    pub fn hottest_ops(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.ops.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Dyads sorted by descending execution count.
    pub fn hottest_pairs(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<_> = self.pairs.iter().map(|(&k, &n)| (k, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total executed instructions.
    pub fn total(&self) -> u64 {
        self.ops.values().sum()
    }
}

/// Op-profiler state. Its presence selects the profiling instance of the
/// dispatch loop once per call; the plain instance never reads it.
#[derive(Debug, Default)]
struct ProfileState {
    ops: HashMap<&'static str, u64>,
    pairs: HashMap<(&'static str, &'static str), u64>,
    last: Option<&'static str>,
}

impl ProfileState {
    #[inline]
    fn record(&mut self, m: &'static str) {
        *self.ops.entry(m).or_insert(0) += 1;
        if let Some(prev) = self.last.replace(m) {
            *self.pairs.entry((prev, m)).or_insert(0) += 1;
        }
    }
}

/// The execution context: abort signal and the deterministic RNG. The
/// hosting engine (for kernel escapes and symbolic ops, absent in
/// standalone mode, F10) is threaded through each call as a reborrowable
/// parameter so installed compiled functions can re-enter the interpreter.
pub struct Machine {
    /// Abort flag checked by `AbortCheck` instructions.
    pub abort: AbortSignal,
    rng: u64,
    /// Recycled call frames (indirect calls in tight loops — the QSort
    /// comparator — would otherwise allocate per call).
    frame_pool: Vec<Frame>,
    profile: Option<Box<ProfileState>>,
}

impl Machine {
    /// A machine with a private abort signal (standalone mode).
    pub fn standalone() -> Self {
        Machine {
            abort: AbortSignal::new(),
            rng: 0x2545F4914F6CDD1D,
            frame_pool: Vec::new(),
            profile: None,
        }
    }

    /// Turns the op-frequency/dyad profiler on or off. Profiling adds a
    /// hash update per dispatched instruction; it is meant for
    /// `reproduce -- opstats`, not for benchmarking runs.
    pub fn profile_ops(&mut self, enable: bool) {
        self.profile = enable.then(Box::<ProfileState>::default);
    }

    /// Takes the accumulated statistics, resetting all counters.
    pub fn take_stats(&mut self) -> OpStats {
        match self.profile.as_deref_mut() {
            Some(p) => {
                p.last = None;
                OpStats {
                    ops: std::mem::take(&mut p.ops),
                    pairs: std::mem::take(&mut p.pairs),
                }
            }
            None => OpStats::default(),
        }
    }

    /// Seeds the machine RNG.
    pub fn seed(&mut self, seed: u64) {
        self.rng = seed | 1;
    }

    fn next_f64(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Calls function `fix` of `prog`: the one way into compiled code, for
    /// the wrapper's entry and for calls between compiled functions alike.
    /// A frame comes from the pool (or is made), `args` are stored straight
    /// into its register banks as the iterator yields them, the function
    /// runs, and the frame goes back to the pool whatever happened. `engine`
    /// is the hosting interpreter for kernel escapes and symbolic ops
    /// (`None` in standalone mode, F10).
    ///
    /// # Errors
    ///
    /// The first argument the iterator fails to produce or the frame fails
    /// to store, an argument count other than the function's arity, and
    /// whatever the function raises: numeric exceptions, aborts, type errors
    /// (the compiled-code wrapper decides about soft fallback).
    // Out of line: inlined into the `CallFunc`/`CallValue` arms it grows
    // `run`'s frame, and every other op pays for that.
    #[inline(never)]
    pub fn call(
        &mut self,
        prog: &NativeProgram,
        fix: usize,
        args: impl IntoIterator<Item = Result<ArgVal, RuntimeError>>,
        mut engine: Option<&mut Interpreter>,
    ) -> Result<ArgVal, RuntimeError> {
        let func = &prog.funcs[fix];
        let mut frame = self.take_frame(func);
        let out = match frame.store_args(func, args) {
            Ok(()) => self.enter(prog, func, &mut frame, &mut engine),
            Err(e) => Err(e),
        };
        self.recycle(frame, out.is_err());
        out
    }

    /// Runs `func` under the profiling or the plain dispatch loop, chosen
    /// once per call (a nested call chooses again). Not generic, so the two
    /// `run` instances are made here, once, and not in every crate that
    /// instantiates the generic `call`.
    #[inline(never)]
    fn enter(
        &mut self,
        prog: &NativeProgram,
        func: &NativeFunc,
        fr: &mut Frame,
        engine: &mut Option<&mut Interpreter>,
    ) -> Result<ArgVal, RuntimeError> {
        if self.profile.is_some() {
            self.run::<true>(prog, func, fr, engine)
        } else {
            self.run::<false>(prog, func, fr, engine)
        }
    }

    fn take_frame(&mut self, func: &NativeFunc) -> Frame {
        match self.frame_pool.pop() {
            Some(mut fr) => {
                wolfram_runtime::memory::record_frame_hit();
                fr.reset(func);
                fr
            }
            None => {
                wolfram_runtime::memory::record_frame_miss();
                Frame::new(func)
            }
        }
    }

    fn recycle(&mut self, mut frame: Frame, unwound: bool) {
        if unwound {
            // Unwind accounting (F7): an abort or runtime error skips the
            // remaining MemoryRelease instructions, but the held values are
            // dropped just below — record those releases so acquire/release
            // accounting stays balanced across unwinds (the serve pool
            // asserts this after deadline-aborted requests).
            for ac in &mut frame.acquired.0 {
                if std::mem::take(ac) {
                    wolfram_runtime::memory::record_release();
                }
            }
        }
        // Drop held values eagerly, then recycle the allocation.
        frame.vals.0.clear();
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(frame);
        }
    }

    /// The dispatch loop. `PROFILE` compiles the op profiler in or out, so
    /// the plain instance tests nothing per op. Loads, moves, scalar
    /// arithmetic, branches, element access, the superinstructions and the
    /// refcount ops execute here; the ops that allocate, call, loop or box
    /// execute out of line in [`Machine::exec_cold`].
    #[allow(clippy::too_many_lines)]
    #[inline(never)]
    fn run<const PROFILE: bool>(
        &mut self,
        prog: &NativeProgram,
        func: &NativeFunc,
        fr: &mut Frame,
        engine: &mut Option<&mut Interpreter>,
    ) -> Result<ArgVal, RuntimeError> {
        let code = &func.code;
        let mut pc = 0u32;
        loop {
            let op = &code[pc as usize];
            pc += 1;
            if PROFILE {
                if let Some(p) = self.profile.as_deref_mut() {
                    p.record(op.mnemonic());
                }
            }
            match op {
                RegOp::LdcI { d, v } => fr.ints[*d] = *v,
                RegOp::LdcF { d, v } => fr.flts[*d] = *v,
                RegOp::LdcC { d, re, im } => fr.cpxs[*d] = (*re, *im),
                RegOp::LdcV { d, v } => fr.vals[*d] = clone_cheap(v),
                RegOp::MovI { d, s } => fr.ints[*d] = fr.ints[*s],
                RegOp::MovF { d, s } => fr.flts[*d] = fr.flts[*s],
                RegOp::MovC { d, s } => fr.cpxs[*d] = fr.cpxs[*s],
                RegOp::MovV { d, s } => {
                    let v = clone_cheap(&fr.vals[*s]);
                    fr.vals[*d] = v;
                }
                RegOp::TakeV { d, s } => fr.take_v(*d, *s),
                RegOp::IntBin { op, d, a, b } => {
                    let (x, y) = (fr.ints[*a], fr.ints[*b]);
                    fr.ints[*d] = int_bin(*op, x, y)?;
                }
                RegOp::IntBinImm { op, d, a, imm } => {
                    let x = fr.ints[*a];
                    fr.ints[*d] = int_bin(*op, x, *imm)?;
                }
                RegOp::FltBinImm { op, d, a, imm } => {
                    let x = fr.flts[*a];
                    fr.flts[*d] = flt_bin(*op, x, *imm)?;
                }
                RegOp::FltBin { op, d, a, b } => {
                    let (x, y) = (fr.flts[*a], fr.flts[*b]);
                    fr.flts[*d] = flt_bin(*op, x, y)?;
                }
                RegOp::FltCmp { op, d, a, b } => {
                    let (x, y) = (fr.flts[*a], fr.flts[*b]);
                    fr.ints[*d] = flt_cmp(*op, x, y) as i64;
                }
                RegOp::FloorFI { d, s } => fr.ints[*d] = fr.flts[*s].floor() as i64,
                RegOp::CeilFI { d, s } => fr.ints[*d] = fr.flts[*s].ceil() as i64,
                RegOp::RoundFI { d, s } => {
                    let v = fr.flts[*s];
                    let r = v.round();
                    let r = if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                        r - v.signum()
                    } else {
                        r
                    };
                    fr.ints[*d] = r as i64;
                }
                RegOp::IntToFlt { d, s } => fr.flts[*d] = fr.ints[*s] as f64,
                RegOp::TenLen { d, t } => {
                    let t = fr.vals[*t].expect_tensor()?;
                    fr.ints[*d] = t.length() as i64;
                }
                RegOp::TenPart1 {
                    kind,
                    d,
                    t,
                    i,
                    checked,
                } => fr.load_elem(*kind, *d, *t, *i, None, *checked)?,
                RegOp::TenPart2 {
                    kind,
                    d,
                    t,
                    i,
                    j,
                    checked,
                } => fr.load_elem(*kind, *d, *t, *i, Some(*j), *checked)?,
                RegOp::TenSet1 {
                    kind,
                    t,
                    i,
                    v,
                    checked,
                } => fr.store_elem(*kind, *t, *i, None, *v, *checked)?,
                RegOp::TenSet2 {
                    kind,
                    t,
                    i,
                    j,
                    v,
                    checked,
                } => fr.store_elem(*kind, *t, *i, Some(*j), *v, *checked)?,
                RegOp::Jmp { pc: t } => pc = *t,
                RegOp::Brz { c, pc: t } => {
                    if fr.ints[*c] == 0 {
                        pc = *t;
                    }
                }
                RegOp::BrCmpISel {
                    op,
                    a,
                    b,
                    d,
                    pc_false,
                    pc_true,
                } => {
                    let v = int_bin(*op, fr.ints[*a], fr.ints[*b])?;
                    fr.ints[*d] = v;
                    pc = if v == 0 { *pc_false } else { *pc_true };
                }
                RegOp::BrzJmp { c, pc_z, pc_nz } => {
                    pc = if fr.ints[*c] == 0 { *pc_z } else { *pc_nz };
                }
                RegOp::IntBin2 {
                    op1,
                    d1,
                    a1,
                    b1,
                    op2,
                    d2,
                    a2,
                    b2,
                } => {
                    fr.ints[*d1] = int_bin(*op1, fr.ints[*a1], fr.ints[*b1])?;
                    fr.ints[*d2] = int_bin(*op2, fr.ints[*a2], fr.ints[*b2])?;
                }
                RegOp::IntBinImm2 {
                    op1,
                    d1,
                    a1,
                    imm1,
                    op2,
                    d2,
                    a2,
                    imm2,
                } => {
                    fr.ints[*d1] = int_bin(*op1, fr.ints[*a1], i64::from(*imm1))?;
                    fr.ints[*d2] = int_bin(*op2, fr.ints[*a2], i64::from(*imm2))?;
                }
                RegOp::IntBinImmJmp {
                    op,
                    d,
                    a,
                    imm,
                    pc: t,
                } => {
                    fr.ints[*d] = int_bin(*op, fr.ints[*a], i64::from(*imm))?;
                    pc = *t;
                }
                RegOp::FltBin2 {
                    op1,
                    d1,
                    a1,
                    b1,
                    op2,
                    d2,
                    a2,
                    b2,
                } => {
                    fr.flts[*d1] = flt_bin(*op1, fr.flts[*a1], fr.flts[*b1])?;
                    fr.flts[*d2] = flt_bin(*op2, fr.flts[*a2], fr.flts[*b2])?;
                }
                RegOp::TenPart1IntBin {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    b,
                    checked,
                } => {
                    fr.load_elem(ElemKind::I64, *e, *t, *i, None, *checked)?;
                    fr.ints[*d] = int_bin(*op, fr.ints[*a], fr.ints[*b])?;
                }
                RegOp::TenPart1IntBinImm {
                    e,
                    t,
                    i,
                    op,
                    d,
                    a,
                    imm,
                    checked,
                } => {
                    fr.load_elem(ElemKind::I64, *e, *t, *i, None, *checked)?;
                    fr.ints[*d] = int_bin(*op, fr.ints[*a], i64::from(*imm))?;
                }
                RegOp::TenPart2FltBin {
                    e,
                    t,
                    i,
                    j,
                    op,
                    d,
                    a,
                    b,
                    checked,
                } => {
                    fr.load_elem(ElemKind::F64, *e, *t, *i, Some(*j), *checked)?;
                    fr.flts[*d] = flt_bin(*op, fr.flts[*a], fr.flts[*b])?;
                }
                RegOp::MovIJmp { d, s, pc: t } => {
                    fr.ints[*d] = fr.ints[*s];
                    pc = *t;
                }
                RegOp::Mov2IJmp {
                    d1,
                    s1,
                    d2,
                    s2,
                    pc: t,
                } => {
                    fr.ints[*d1] = fr.ints[*s1];
                    fr.ints[*d2] = fr.ints[*s2];
                    pc = *t;
                }
                RegOp::AbortBrCmpISel {
                    op,
                    a,
                    b,
                    d,
                    pc_false,
                    pc_true,
                } => {
                    self.abort.check()?;
                    let v = int_bin(*op, fr.ints[*a], fr.ints[*b])?;
                    fr.ints[*d] = v;
                    pc = if v == 0 { *pc_false } else { *pc_true };
                }
                RegOp::IntBinImmMov2IJmp {
                    op,
                    d,
                    a,
                    imm,
                    d2,
                    s2,
                    d3,
                    s3,
                    pc: t,
                } => {
                    fr.ints[*d] = int_bin(*op, fr.ints[*a], i64::from(*imm))?;
                    fr.ints[*d2] = fr.ints[*s2];
                    fr.ints[*d3] = fr.ints[*s3];
                    pc = *t;
                }
                RegOp::AbortCheck => self.abort.check()?,
                RegOp::Acquire { v } => {
                    if fr.vals[*v].is_managed() {
                        wolfram_runtime::memory::record_acquire();
                        fr.acquired[*v] = true;
                    }
                }
                RegOp::Release { v } => fr.release(*v),
                RegOp::Ret { s } => return Ok(fr.load(*s)),
                RegOp::RetNull => return Ok(ArgVal::V(Value::Null)),
                RegOp::LdcArrayCopy { .. }
                | RegOp::IntUn { .. }
                | RegOp::PowModI { .. }
                | RegOp::FltUn { .. }
                | RegOp::IntToCpx { .. }
                | RegOp::FltToCpx { .. }
                | RegOp::CpxBin { .. }
                | RegOp::CpxPowI { .. }
                | RegOp::CpxAbs { .. }
                | RegOp::CpxMake { .. }
                | RegOp::CpxRe { .. }
                | RegOp::CpxIm { .. }
                | RegOp::CpxConj { .. }
                | RegOp::CpxEq { .. }
                | RegOp::TenFill1 { .. }
                | RegOp::TenFill2 { .. }
                | RegOp::TenBin { .. }
                | RegOp::TenScalar { .. }
                | RegOp::TenSetRow { .. }
                | RegOp::TenFromList { .. }
                | RegOp::DotVecF { .. }
                | RegOp::DotVecI { .. }
                | RegOp::DotMat { .. }
                | RegOp::DotMatVec { .. }
                | RegOp::StrLen { .. }
                | RegOp::StrToCodes { .. }
                | RegOp::StrFromCodes { .. }
                | RegOp::StrJoin { .. }
                | RegOp::ExprBin { .. }
                | RegOp::ExprUnary { .. }
                | RegOp::BoolToExpr { .. }
                | RegOp::BoxIV { .. }
                | RegOp::BoxFV { .. }
                | RegOp::BoxCV { .. }
                | RegOp::RndUnit { .. }
                | RegOp::RndRange { .. }
                | RegOp::MakeClosure { .. }
                | RegOp::CallFunc { .. }
                | RegOp::CallValue { .. }
                | RegOp::CallKernel { .. }
                | RegOp::VecLoop { .. } => self.exec_cold(op, prog, fr, engine)?,
            }
        }
    }

    /// Executes the ops that allocate, call, loop or box, the ones `run`
    /// hands over. Out of line, so their temporaries and calls neither grow
    /// the dispatch loop's frame nor push its state out of registers.
    #[allow(clippy::too_many_lines)]
    #[inline(never)]
    fn exec_cold(
        &mut self,
        op: &RegOp,
        prog: &NativeProgram,
        fr: &mut Frame,
        engine: &mut Option<&mut Interpreter>,
    ) -> Result<(), RuntimeError> {
        let par = prog.parallel.as_ref().unwrap_or(&ONE_THREAD);
        match op {
            RegOp::LdcArrayCopy { d, v } => {
                fr.vals[*d] = match v {
                    Value::Tensor(t) => {
                        let data = t.data().clone();
                        Value::Tensor(Tensor::with_shape(t.shape().to_vec(), data)?)
                    }
                    other => other.clone(),
                };
            }
            RegOp::IntUn { op, d, s } => {
                let x = fr.ints[*s];
                fr.ints[*d] = match op {
                    IntUnOp::Neg => checked::neg_i64(x)?,
                    IntUnOp::Abs => checked::abs_i64(x)?,
                    IntUnOp::Not => (x == 0) as i64,
                    IntUnOp::Sign => x.signum(),
                    IntUnOp::Factorial => {
                        if x < 0 {
                            return Err(RuntimeError::Type(
                                "Factorial of a negative machine integer".into(),
                            ));
                        }
                        let mut acc: i64 = 1;
                        for k in 2..=x {
                            acc = checked::mul_i64(acc, k)?;
                        }
                        acc
                    }
                };
            }
            RegOp::PowModI { d, a, b, m } => {
                let (x, y, md) = (fr.ints[*a], fr.ints[*b], fr.ints[*m]);
                // Where Wolfram leaves the call unevaluated, the
                // interpreter answers.
                fr.ints[*d] = checked::power_mod_i64(x, y, md).ok_or_else(|| {
                    RuntimeError::NumericDomain(
                        "PowerMod with a zero modulus or no modular inverse".into(),
                    )
                })?;
            }
            RegOp::FltUn { op, d, s } => {
                let x = fr.flts[*s];
                fr.flts[*d] = match op {
                    FltUnOp::Neg => -x,
                    FltUnOp::Abs => x.abs(),
                    FltUnOp::Sqrt => x.sqrt(),
                    FltUnOp::Sin => x.sin(),
                    FltUnOp::Cos => x.cos(),
                    FltUnOp::Tan => x.tan(),
                    FltUnOp::Exp => x.exp(),
                    FltUnOp::Log => x.ln(),
                    FltUnOp::ArcTan => x.atan(),
                    FltUnOp::ArcSin => x.asin(),
                    FltUnOp::ArcCos => x.acos(),
                    FltUnOp::Sign => {
                        if x > 0.0 {
                            1.0
                        } else if x < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    }
                };
            }
            RegOp::IntToCpx { d, s } => fr.cpxs[*d] = (fr.ints[*s] as f64, 0.0),
            RegOp::FltToCpx { d, s } => fr.cpxs[*d] = (fr.flts[*s], 0.0),
            RegOp::CpxBin { op, d, a, b } => {
                let (x, y) = (fr.cpxs[*a], fr.cpxs[*b]);
                fr.cpxs[*d] = match op {
                    CpxOp::Add => (x.0 + y.0, x.1 + y.1),
                    CpxOp::Sub => (x.0 - y.0, x.1 - y.1),
                    CpxOp::Mul => checked::mul_complex(x, y),
                    CpxOp::Div => checked::div_complex(x, y),
                };
            }
            RegOp::CpxPowI { d, a, e } => {
                let base = fr.cpxs[*a];
                let exp = fr.ints[*e];
                let mut acc = (1.0f64, 0.0f64);
                for _ in 0..exp.unsigned_abs() {
                    acc = checked::mul_complex(acc, base);
                }
                if exp < 0 {
                    acc = checked::div_complex((1.0, 0.0), acc);
                }
                fr.cpxs[*d] = acc;
            }
            RegOp::CpxAbs { d, s } => {
                let (re, im) = fr.cpxs[*s];
                fr.flts[*d] = re.hypot(im);
            }
            RegOp::CpxMake { d, re, im } => fr.cpxs[*d] = (fr.flts[*re], fr.flts[*im]),
            RegOp::CpxRe { d, s } => fr.flts[*d] = fr.cpxs[*s].0,
            RegOp::CpxIm { d, s } => fr.flts[*d] = fr.cpxs[*s].1,
            RegOp::CpxConj { d, s } => {
                let (re, im) = fr.cpxs[*s];
                fr.cpxs[*d] = (re, -im);
            }
            RegOp::CpxEq { d, a, b } => {
                fr.ints[*d] = (fr.cpxs[*a] == fr.cpxs[*b]) as i64;
            }
            RegOp::TenFill1 { kind, d, c, n } => {
                let n = fr.ints[*n].max(0) as usize;
                let data = match kind {
                    ElemKind::I64 => TensorData::I64(vec![fr.ints[*c]; n]),
                    ElemKind::F64 => TensorData::F64(vec![fr.flts[*c]; n]),
                    ElemKind::C64 => TensorData::Complex(vec![fr.cpxs[*c]; n]),
                };
                fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![n], data)?);
            }
            RegOp::TenFill2 { kind, d, c, n1, n2 } => {
                let n1v = fr.ints[*n1].max(0) as usize;
                let n2v = fr.ints[*n2].max(0) as usize;
                let total = n1v * n2v;
                let data = match kind {
                    ElemKind::I64 => TensorData::I64(vec![fr.ints[*c]; total]),
                    ElemKind::F64 => TensorData::F64(vec![fr.flts[*c]; total]),
                    ElemKind::C64 => TensorData::Complex(vec![fr.cpxs[*c]; total]),
                };
                fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![n1v, n2v], data)?);
            }
            RegOp::TenBin { op, d, a, b } => {
                let ta = fr.vals[*a].expect_tensor()?;
                let tb = fr.vals[*b].expect_tensor()?;
                fr.vals[*d] = Value::Tensor(tensor_elementwise(*op, ta, tb, par)?);
            }
            RegOp::TenScalar {
                op,
                kind,
                d,
                t,
                s,
                rev,
            } => {
                let sv = match kind {
                    ElemKind::I64 => Value::I64(fr.ints[*s]),
                    ElemKind::F64 => Value::F64(fr.flts[*s]),
                    ElemKind::C64 => {
                        let (re, im) = fr.cpxs[*s];
                        Value::Complex(re, im)
                    }
                };
                let ten = fr.vals[*t].expect_tensor()?;
                fr.vals[*d] = Value::Tensor(tensor_scalar_elementwise(*op, ten, &sv, *rev, par)?);
            }
            RegOp::TenSetRow { t, i, row } => {
                let ix = fr.ints[*i];
                let row_t = fr.vals[*row].expect_tensor()?.clone();
                let Value::Tensor(tensor) = &mut fr.vals[*t] else {
                    return Err(RuntimeError::Type("SetRow on non-tensor".into()));
                };
                if tensor.rank() != 2 || row_t.rank() != 1 {
                    return Err(RuntimeError::Type("SetRow rank mismatch".into()));
                }
                let cols = tensor.shape()[1];
                if row_t.length() != cols {
                    return Err(RuntimeError::Type("SetRow width mismatch".into()));
                }
                let r = checked::resolve_part_index(ix, tensor.shape()[0])?;
                match (tensor.data_mut(), row_t.data()) {
                    (TensorData::F64(dst), TensorData::F64(src)) => {
                        dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                    }
                    (TensorData::I64(dst), TensorData::I64(src)) => {
                        dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                    }
                    (TensorData::Complex(dst), TensorData::Complex(src)) => {
                        dst[r * cols..(r + 1) * cols].copy_from_slice(src);
                    }
                    _ => return Err(RuntimeError::Type("SetRow element mismatch".into())),
                }
            }
            RegOp::TenFromList { kind, d, items } => {
                let data = match kind {
                    ElemKind::I64 => TensorData::I64(items.iter().map(|&s| fr.ints[s]).collect()),
                    ElemKind::F64 => TensorData::F64(items.iter().map(|&s| fr.flts[s]).collect()),
                    ElemKind::C64 => {
                        TensorData::Complex(items.iter().map(|&s| fr.cpxs[s]).collect())
                    }
                };
                fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![items.len()], data)?);
            }
            RegOp::DotVecF { d, a, b } => {
                let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                let (x, y) = (ta.expect_f64()?, tb.expect_f64()?);
                if x.len() != y.len() {
                    return Err(RuntimeError::Type("Dot length mismatch".into()));
                }
                fr.flts[*d] = wolfram_runtime::linalg::ddot(x, y);
            }
            RegOp::DotVecI { d, a, b } => {
                let ta = fr.vals[*a].expect_tensor()?;
                let tb = fr.vals[*b].expect_tensor()?;
                let (Some(x), Some(y)) = (ta.as_i64(), tb.as_i64()) else {
                    return Err(RuntimeError::Type("integer Dot on non-integer".into()));
                };
                if x.len() != y.len() {
                    return Err(RuntimeError::Type("Dot length mismatch".into()));
                }
                let mut acc = 0i64;
                for (p, q) in x.iter().zip(y) {
                    acc = checked::add_i64(acc, checked::mul_i64(*p, *q)?)?;
                }
                fr.ints[*d] = acc;
            }
            RegOp::DotMat { d, a, b } => {
                let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                if ta.rank() != 2 || tb.rank() != 2 || ta.shape()[1] != tb.shape()[0] {
                    return Err(RuntimeError::Type("Dot shape mismatch".into()));
                }
                let (m, k, n) = (ta.shape()[0], ta.shape()[1], tb.shape()[1]);
                let mut out = vec![0.0; m * n];
                let (x, y) = (ta.expect_f64()?, tb.expect_f64()?);
                parallel::dgemm(par, x, y, &mut out, m, k, n);
                fr.vals[*d] = Value::Tensor(Tensor::with_shape(vec![m, n], TensorData::F64(out))?);
            }
            RegOp::DotMatVec { d, a, b } => {
                let ta = fr.vals[*a].expect_tensor()?.to_f64_tensor();
                let tb = fr.vals[*b].expect_tensor()?.to_f64_tensor();
                if ta.rank() != 2 || tb.rank() != 1 || ta.shape()[1] != tb.length() {
                    return Err(RuntimeError::Type("Dot shape mismatch".into()));
                }
                let (m, n) = (ta.shape()[0], ta.shape()[1]);
                let mut out = vec![0.0; m];
                let (x, y) = (ta.expect_f64()?, tb.expect_f64()?);
                wolfram_runtime::linalg::dgemv(x, y, &mut out, m, n);
                fr.vals[*d] = Value::Tensor(Tensor::from_f64(out));
            }
            RegOp::StrLen { d, s } => {
                let s = fr.vals[*s].expect_str()?;
                fr.ints[*d] = s.chars().count() as i64;
            }
            RegOp::StrToCodes { d, s } => {
                let s = fr.vals[*s].expect_str()?;
                // Code points, as the interpreter and `StrLen` count.
                let mut codes = Vec::with_capacity(s.len());
                codes.extend(s.chars().map(|c| i64::from(u32::from(c))));
                fr.vals[*d] = Value::Tensor(Tensor::from_i64(codes));
            }
            RegOp::StrFromCodes { d, s } => {
                let t = fr.vals[*s].expect_tensor()?;
                let Some(codes) = t.as_i64() else {
                    return Err(RuntimeError::Type("FromCharacterCode codes".into()));
                };
                let mut out = String::new();
                for &c in codes {
                    let ch = u32::try_from(c)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| RuntimeError::Type(format!("invalid char code {c}")))?;
                    out.push(ch);
                }
                fr.vals[*d] = Value::Str(Arc::new(out));
            }
            RegOp::StrJoin { d, a, b } => {
                let x = fr.vals[*a].expect_str()?;
                let y = fr.vals[*b].expect_str()?;
                let mut out = String::with_capacity(x.len() + y.len());
                out.push_str(x);
                out.push_str(y);
                fr.vals[*d] = Value::Str(Arc::new(out));
            }
            RegOp::ExprBin { op, d, a, b } => {
                let x = fr.vals[*a].to_expr();
                let y = fr.vals[*b].to_expr();
                let head = match op {
                    ExprOp::Plus => "Plus",
                    ExprOp::Times => "Times",
                    ExprOp::Subtract => "Subtract",
                    ExprOp::Power => "Power",
                };
                // Threaded interpretation: one normalization step via the
                // hosting engine's evaluator.
                fr.vals[*d] = Value::Expr(host_eval(engine, Expr::call(head, [x, y]))?);
            }
            RegOp::ExprUnary { head, d, a } => {
                let x = fr.vals[*a].to_expr();
                fr.vals[*d] = Value::Expr(host_eval(engine, Expr::call(head, [x]))?);
            }
            RegOp::BoolToExpr { d, s } => {
                fr.vals[*d] = Value::Expr(Expr::bool(fr.ints[*s] != 0));
            }
            RegOp::BoxIV { d, s } => fr.vals[*d] = Value::I64(fr.ints[*s]),
            RegOp::BoxFV { d, s } => fr.vals[*d] = Value::F64(fr.flts[*s]),
            RegOp::BoxCV { d, s } => {
                let (re, im) = fr.cpxs[*s];
                fr.vals[*d] = Value::Complex(re, im);
            }
            RegOp::RndUnit { d } => fr.flts[*d] = self.next_f64(),
            RegOp::RndRange { d, a, b } => {
                let (lo, hi) = (fr.flts[*a], fr.flts[*b]);
                fr.flts[*d] = lo + (hi - lo) * self.next_f64();
            }
            RegOp::MakeClosure { d, f, captures } => {
                let caps: Vec<Value> = captures
                    .iter()
                    .map(|s| fr.load(*s).into_value(false))
                    .collect();
                fr.vals[*d] = Value::Function(Arc::new(FunctionValue {
                    name: Arc::from(prog.funcs[*f as usize].name.as_str()),
                    index: *f as usize,
                    captures: caps,
                }));
            }
            RegOp::CallFunc { f, args, ret } => {
                let argv = args.iter().map(|s| Ok(fr.load(*s)));
                let out = self.call(prog, *f as usize, argv, engine.as_deref_mut())?;
                fr.store(*ret, out)?;
            }
            RegOp::CallValue { fv, args, ret } => {
                let fval = fr.vals[*fv].expect_function()?.clone();
                let callee = &prog.funcs[fval.index];
                // Captures are boxed and arguments sit in the caller's banks:
                // unbox what the callee declares in a machine bank.
                let argv = fval
                    .captures
                    .iter()
                    .map(|c| ArgVal::V(c.clone()))
                    .chain(args.iter().map(|s| fr.load(*s)))
                    .enumerate()
                    .map(|(i, v)| match (v, callee.params.get(i)) {
                        (ArgVal::V(boxed), Some(p)) if p.bank != Bank::V => {
                            ArgVal::from_value(&boxed, p.bank)
                        }
                        (other, _) => Ok(other),
                    });
                let out = self.call(prog, fval.index, argv, engine.as_deref_mut())?;
                fr.store(*ret, out)?;
            }
            RegOp::CallKernel { ret, call } => {
                let Some(eng) = engine.as_deref_mut() else {
                    return Err(RuntimeError::Other(
                        "KernelFunction requires a hosting Wolfram Engine (disabled in \
                         standalone mode)"
                            .into(),
                    ));
                };
                let arg_exprs: Vec<Expr> = call
                    .args
                    .iter()
                    .map(|s| fr.load(*s).into_value(false).to_expr())
                    .collect();
                let result = eng.eval(&Expr::call(&call.head, arg_exprs))?;
                fr.store(*ret, ArgVal::V(Value::from_expr(&result)))?;
            }
            RegOp::VecLoop { plan } => {
                crate::vectorize::exec_batch(
                    plan,
                    &self.abort,
                    &mut fr.ints.0,
                    &fr.flts.0,
                    &mut fr.vals.0,
                )?;
            }
            hot => unreachable!("{} executes in the dispatch loop", hot.mnemonic()),
        }
        Ok(())
    }
}

/// One normalization step of `e` by the hosting engine: the symbolic ops'
/// "threaded interpretation" (§4.5).
fn host_eval(engine: &mut Option<&mut Interpreter>, e: Expr) -> Result<Expr, RuntimeError> {
    match engine.as_deref_mut() {
        Some(eng) => eng.eval(&e),
        None => Err(RuntimeError::Other(
            "symbolic operations require a hosting Wolfram Engine".into(),
        )),
    }
}

/// Resolves a 1-based, possibly negative Part index whose validity the
/// interval analysis proved at compile time: sign resolution only, no
/// range check. If a proof were ever wrong, the subsequent slice access
/// still panics safely (no undefined behavior) instead of reading out of
/// bounds.
#[inline(always)]
fn unchecked_index(ix: i64, len: usize) -> usize {
    if ix > 0 {
        (ix - 1) as usize
    } else {
        (len as i64 + ix) as usize
    }
}

/// Flat offset of the 1-based, possibly negative index `ix` into a vector.
#[inline(always)]
fn offset1(t: &Tensor, ix: i64, checked: bool) -> Result<usize, RuntimeError> {
    if checked {
        t.resolve_index(ix)
    } else {
        Ok(unchecked_index(ix, t.length()))
    }
}

/// Row-major flat offset of `[[ix, jx]]` into a matrix.
#[inline(always)]
fn offset2(t: &Tensor, ix: i64, jx: i64, checked: bool) -> Result<usize, RuntimeError> {
    if !checked {
        let cols = t.shape()[1];
        return Ok(unchecked_index(ix, t.shape()[0]) * cols + unchecked_index(jx, cols));
    }
    if t.rank() != 2 {
        return Err(RuntimeError::Type("Part[_,i,j] on non-matrix".into()));
    }
    let cols = t.shape()[1];
    let r = checked::resolve_part_index(ix, t.shape()[0])?;
    let c = checked::resolve_part_index(jx, cols)?;
    Ok(r * cols + c)
}

/// `x (op) y` on machine integers, inlined into every arm that runs one:
/// out of line, the call and the `Result` it returns through memory cost
/// more than the add or compare itself. Powers, GCDs and shifts stay out
/// of line in [`int_bin_rare`].
#[inline(always)]
fn int_bin(op: IntOp, x: i64, y: i64) -> Result<i64, RuntimeError> {
    Ok(match op {
        IntOp::Add => checked::add_i64(x, y)?,
        IntOp::Sub => checked::sub_i64(x, y)?,
        IntOp::Mul => checked::mul_i64(x, y)?,
        // The range analysis proved these cannot overflow; wrapping is
        // only a belt-and-braces way to avoid the branch.
        IntOp::AddU => x.wrapping_add(y),
        IntOp::SubU => x.wrapping_sub(y),
        IntOp::MulU => x.wrapping_mul(y),
        // Exact flooring division via the shared checked helper. The f64
        // round-trip this replaces lost precision above 2^53 and saturated
        // on `i64::MIN / -1` instead of raising overflow — both silent
        // divergences from the interpreter.
        IntOp::Quot => checked::quotient_i64(x, y)?,
        IntOp::Mod => checked::mod_i64(x, y)?,
        IntOp::Min => x.min(y),
        IntOp::Max => x.max(y),
        IntOp::BitAnd => x & y,
        IntOp::BitOr => x | y,
        IntOp::BitXor => x ^ y,
        IntOp::Lt => (x < y) as i64,
        IntOp::Le => (x <= y) as i64,
        IntOp::Gt => (x > y) as i64,
        IntOp::Ge => (x >= y) as i64,
        IntOp::Eq => (x == y) as i64,
        IntOp::Ne => (x != y) as i64,
        IntOp::And => ((x != 0) && (y != 0)) as i64,
        IntOp::Or => ((x != 0) || (y != 0)) as i64,
        IntOp::Pow | IntOp::Gcd | IntOp::Shl | IntOp::Shr => int_bin_rare(op, x, y)?,
    })
}

#[inline(never)]
fn int_bin_rare(op: IntOp, x: i64, y: i64) -> Result<i64, RuntimeError> {
    match op {
        IntOp::Pow => checked::pow_i64(x, y),
        IntOp::Gcd => checked::gcd_i64(x, y),
        IntOp::Shl => checked::shl_i64(x, y),
        IntOp::Shr => checked::shr_i64(x, y),
        inline => unreachable!("int_bin executes {inline:?} inline"),
    }
}

#[inline(always)]
fn flt_bin(op: FltOp, x: f64, y: f64) -> Result<f64, RuntimeError> {
    Ok(match op {
        FltOp::Add => x + y,
        FltOp::Sub => x - y,
        FltOp::Mul => x * y,
        FltOp::Div => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            x / y
        }
        FltOp::Pow => x.powf(y),
        FltOp::Mod => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            x - y * (x / y).floor()
        }
        FltOp::Min => x.min(y),
        FltOp::Max => x.max(y),
        FltOp::ArcTan2 => y.atan2(x),
    })
}

#[inline(always)]
fn flt_cmp(op: CmpCode, x: f64, y: f64) -> bool {
    match op {
        CmpCode::Lt => x < y,
        CmpCode::Le => x <= y,
        CmpCode::Gt => x > y,
        CmpCode::Ge => x >= y,
        CmpCode::Eq => x == y,
        CmpCode::Ne => x != y,
    }
}

fn tensor_store(t: &mut Tensor, off: usize, v: ArgVal) -> Result<(), RuntimeError> {
    match (t.data_mut(), v) {
        (TensorData::I64(data), ArgVal::I(x)) => data[off] = x,
        (TensorData::F64(data), ArgVal::F(x)) => data[off] = x,
        (TensorData::F64(data), ArgVal::I(x)) => data[off] = x as f64,
        (TensorData::Complex(data), ArgVal::C(re, im)) => data[off] = (re, im),
        _ => return Err(RuntimeError::Type("tensor element kind mismatch".into())),
    }
    Ok(())
}

fn tensor_elementwise(
    op: TenOp,
    a: &Tensor,
    b: &Tensor,
    par: &ParallelConfig,
) -> Result<Tensor, RuntimeError> {
    if a.shape() != b.shape() {
        return Err(RuntimeError::Type("tensor shape mismatch".into()));
    }
    match (a.data(), b.data()) {
        (TensorData::I64(x), TensorData::I64(y)) => {
            let mut out = Vec::with_capacity(x.len());
            for (p, q) in x.iter().zip(y) {
                out.push(match op {
                    TenOp::Add => checked::add_i64(*p, *q)?,
                    TenOp::Sub => checked::sub_i64(*p, *q)?,
                    TenOp::Mul => checked::mul_i64(*p, *q)?,
                });
            }
            Tensor::with_shape(a.shape().to_vec(), TensorData::I64(out))
        }
        (TensorData::Complex(x), TensorData::Complex(y)) => {
            let out: Vec<(f64, f64)> = x
                .iter()
                .zip(y)
                .map(|(p, q)| match op {
                    TenOp::Add => (p.0 + q.0, p.1 + q.1),
                    TenOp::Sub => (p.0 - q.0, p.1 - q.1),
                    TenOp::Mul => checked::mul_complex(*p, *q),
                })
                .collect();
            Tensor::with_shape(a.shape().to_vec(), TensorData::Complex(out))
        }
        // The f64 arm is unchecked IEEE arithmetic, so chunked execution
        // is bit-identical to one sequential loop (the checked integer arm
        // above must stay sequential: first-overflow-wins).
        _ => {
            let fa = a.to_f64_tensor();
            let fb = b.to_f64_tensor();
            let (x, y) = (fa.expect_f64()?, fb.expect_f64()?);
            let sop = ten_simd_op(op);
            let mut out = vec![0.0; x.len()];
            parallel::zip_f64(par, sop, x, y, &mut out);
            Tensor::with_shape(a.shape().to_vec(), TensorData::F64(out))
        }
    }
}

/// The [`SimdOp`] carrying the same scalar meaning as a float [`TenOp`].
fn ten_simd_op(op: TenOp) -> SimdOp {
    match op {
        TenOp::Add => SimdOp::Add,
        TenOp::Sub => SimdOp::Sub,
        TenOp::Mul => SimdOp::Mul,
    }
}

fn tensor_scalar_elementwise(
    op: TenOp,
    t: &Tensor,
    s: &Value,
    rev: bool,
    par: &ParallelConfig,
) -> Result<Tensor, RuntimeError> {
    match (t.data(), s) {
        (TensorData::I64(x), Value::I64(q)) => {
            let mut out = Vec::with_capacity(x.len());
            for p in x {
                let (a, b) = if rev { (*q, *p) } else { (*p, *q) };
                out.push(match op {
                    TenOp::Add => checked::add_i64(a, b)?,
                    TenOp::Sub => checked::sub_i64(a, b)?,
                    TenOp::Mul => checked::mul_i64(a, b)?,
                });
            }
            Tensor::with_shape(t.shape().to_vec(), TensorData::I64(out))
        }
        (TensorData::Complex(x), Value::Complex(re, im)) => {
            let q = (*re, *im);
            let out: Vec<(f64, f64)> = x
                .iter()
                .map(|p| {
                    let (a, b) = if rev { (q, *p) } else { (*p, q) };
                    match op {
                        TenOp::Add => (a.0 + b.0, a.1 + b.1),
                        TenOp::Sub => (a.0 - b.0, a.1 - b.1),
                        TenOp::Mul => checked::mul_complex(a, b),
                    }
                })
                .collect();
            Tensor::with_shape(t.shape().to_vec(), TensorData::Complex(out))
        }
        _ => {
            let ft = t.to_f64_tensor();
            let x = ft.expect_f64()?;
            let q = match s {
                Value::I64(v) => *v as f64,
                Value::F64(v) => *v,
                other => {
                    return Err(RuntimeError::Type(format!(
                        "scalar broadcast with {}",
                        other.type_name()
                    )))
                }
            };
            let sop = ten_simd_op(op);
            let mut out = vec![0.0; x.len()];
            parallel::map_f64(par, sop, x, q, rev, &mut out);
            Tensor::with_shape(t.shape().to_vec(), TensorData::F64(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onefunc(
        code: Vec<RegOp>,
        params: Vec<Slot>,
        banks: (usize, usize, usize, usize),
    ) -> NativeProgram {
        NativeProgram {
            parallel: None,
            funcs: vec![NativeFunc {
                name: "Main".into(),
                code,
                n_int: banks.0,
                n_flt: banks.1,
                n_cpx: banks.2,
                n_val: banks.3,
                params,
                elision: ElisionCounters::default(),
            }],
        }
    }

    #[test]
    fn add_one() {
        // The appendix's addOne: arg + 1.
        let prog = onefunc(
            vec![
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
            vec![Slot::new(Bank::I, 0)],
            (3, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        let out = m.call(&prog, 0, [Ok(ArgVal::I(41))], None).unwrap();
        assert_eq!(out, ArgVal::I(42));
    }

    #[test]
    fn overflow_is_checked() {
        let prog = onefunc(
            vec![
                RegOp::IntBin {
                    op: IntOp::Add,
                    d: 1,
                    a: 0,
                    b: 0,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 1),
                },
            ],
            vec![Slot::new(Bank::I, 0)],
            (2, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        assert_eq!(
            m.call(&prog, 0, [Ok(ArgVal::I(i64::MAX))], None),
            Err(RuntimeError::IntegerOverflow)
        );
    }

    #[test]
    fn loop_with_abort() {
        // while (true) {} — must unwind on abort.
        let prog = onefunc(
            vec![RegOp::AbortCheck, RegOp::Jmp { pc: 0 }],
            vec![],
            (0, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        m.abort.trigger();
        assert_eq!(m.call(&prog, 0, [], None), Err(RuntimeError::Aborted));
    }

    #[test]
    fn complex_ops() {
        // |(0+1i)^2| == 1
        let prog = onefunc(
            vec![
                RegOp::LdcC {
                    d: 0,
                    re: 0.0,
                    im: 1.0,
                },
                RegOp::LdcI { d: 0, v: 2 },
                RegOp::CpxPowI { d: 1, a: 0, e: 0 },
                RegOp::CpxAbs { d: 0, s: 1 },
                RegOp::Ret {
                    s: Slot::new(Bank::F, 0),
                },
            ],
            vec![],
            (1, 1, 2, 0),
        );
        let mut m = Machine::standalone();
        assert_eq!(m.call(&prog, 0, [], None).unwrap(), ArgVal::F(1.0));
    }

    #[test]
    fn tensor_part_and_set() {
        let t = Tensor::from_i64(vec![10, 20, 30]);
        let prog = onefunc(
            vec![
                RegOp::LdcI { d: 0, v: 2 },
                RegOp::LdcI { d: 1, v: 99 },
                RegOp::TenSet1 {
                    kind: ElemKind::I64,
                    t: 0,
                    i: 0,
                    v: 1,
                    checked: true,
                },
                RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    d: 2,
                    t: 0,
                    i: 0,
                    checked: true,
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 2),
                },
            ],
            vec![Slot::new(Bank::V, 0)],
            (3, 0, 0, 1),
        );
        let mut m = Machine::standalone();
        let alias = t.clone();
        let out = m
            .call(&prog, 0, [Ok(ArgVal::V(Value::Tensor(t)))], None)
            .unwrap();
        assert_eq!(out, ArgVal::I(99));
        // Caller's alias untouched: copy-on-write fired inside the machine.
        assert_eq!(alias.as_i64().unwrap(), &[10, 20, 30]);
    }

    #[test]
    fn closures_and_indirect_calls() {
        // f(x) = x*2; main calls it through a function value.
        let double = NativeFunc {
            name: "double".into(),
            code: vec![
                RegOp::LdcI { d: 1, v: 2 },
                RegOp::IntBin {
                    op: IntOp::Mul,
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
            elision: ElisionCounters::default(),
        };
        let main = NativeFunc {
            name: "Main".into(),
            code: vec![
                RegOp::MakeClosure {
                    d: 0,
                    f: 1,
                    captures: Box::new([]),
                },
                RegOp::CallValue {
                    fv: 0,
                    args: Box::new([Slot::new(Bank::I, 0)]),
                    ret: Slot::new(Bank::I, 1),
                },
                RegOp::Ret {
                    s: Slot::new(Bank::I, 1),
                },
            ],
            n_int: 2,
            n_flt: 0,
            n_cpx: 0,
            n_val: 1,
            params: vec![Slot::new(Bank::I, 0)],
            elision: ElisionCounters::default(),
        };
        let prog = NativeProgram {
            parallel: None,
            funcs: vec![main, double],
        };
        let mut m = Machine::standalone();
        assert_eq!(
            m.call(&prog, 0, [Ok(ArgVal::I(21))], None).unwrap(),
            ArgVal::I(42)
        );
    }

    #[test]
    fn kernel_requires_engine() {
        let prog = onefunc(
            vec![
                RegOp::CallKernel {
                    ret: Slot::new(Bank::V, 0),
                    call: Box::new(KernelCall {
                        head: Arc::from("Plus"),
                        args: Box::new([]),
                    }),
                },
                RegOp::Ret {
                    s: Slot::new(Bank::V, 0),
                },
            ],
            vec![],
            (0, 0, 0, 1),
        );
        let mut m = Machine::standalone();
        assert!(m.call(&prog, 0, [], None).is_err());
        let mut engine = Interpreter::new();
        let out = m.call(&prog, 0, [], Some(&mut engine)).unwrap();
        assert_eq!(out, ArgVal::V(Value::I64(0)));
    }

    #[test]
    fn entry_errors_are_truthful_and_return_the_frame() {
        use wolfram_runtime::memory;
        let prog = onefunc(
            vec![RegOp::Ret {
                s: Slot::new(Bank::I, 0),
            }],
            vec![Slot::new(Bank::I, 0)],
            (1, 0, 0, 0),
        );
        let mut m = Machine::standalone();
        memory::reset_stats();
        // Wrong arity, both ways: the message carries the real count.
        for (args, got) in [(vec![], 0), (vec![ArgVal::I(1); 3], 3)] {
            let err = m
                .call(&prog, 0, args.into_iter().map(Ok), None)
                .unwrap_err();
            assert_eq!(
                err,
                RuntimeError::Type(format!("Main expected 1 arguments, got {got}"))
            );
        }
        // A managed value does not go into an integer slot, and an argument
        // the caller failed to decode stops the call the same way.
        let boxed = ArgVal::V(Value::Str(Arc::new("x".into())));
        assert!(matches!(
            m.call(&prog, 0, [Ok(boxed)], None),
            Err(RuntimeError::Type(_))
        ));
        let undecoded = RuntimeError::Type("no".into());
        assert_eq!(
            m.call(&prog, 0, [Err(undecoded.clone())], None),
            Err(undecoded)
        );
        // Every failed call gave its frame back: one allocation in all.
        assert_eq!(m.call(&prog, 0, [Ok(ArgVal::I(7))], None), Ok(ArgVal::I(7)));
        let st = memory::stats();
        assert_eq!((st.frame_misses, st.frame_hits), (1, 4), "{st:?}");
        assert!(st.balanced(), "{st:?}");
    }

    #[test]
    fn malformed_functions_are_rejected_at_construction() {
        let build = |code: Vec<RegOp>, params: Vec<Slot>| {
            NativeFunc::new(
                "Main".into(),
                code,
                [2, 0, 0, 1],
                params,
                Default::default(),
            )
        };
        let ret = || RegOp::Ret {
            s: Slot::new(Bank::I, 1),
        };
        let reg = |pc, bank, ix| {
            Err(InvalidCode::Register {
                pc,
                slot: Slot::new(bank, ix),
            })
        };
        let param = vec![Slot::new(Bank::I, 0)];
        assert!(build(vec![RegOp::MovI { d: 1, s: 0 }, ret()], param.clone()).is_ok());
        // A register past its bank, including a bank the function has none of.
        assert_eq!(
            build(vec![RegOp::MovI { d: 2, s: 0 }, ret()], param.clone()),
            reg(Some(0), Bank::I, 2)
        );
        assert_eq!(
            build(vec![RegOp::IntToFlt { d: 0, s: 1 }, ret()], param),
            reg(Some(0), Bank::F, 0)
        );
        assert_eq!(
            build(vec![ret()], vec![Slot::new(Bank::V, 1)]),
            reg(None, Bank::V, 1)
        );
        // A branch target past the end, of a primitive or inside a
        // superinstruction.
        let target = |pc, target| Err(InvalidCode::Target { pc, target });
        assert_eq!(
            build(vec![RegOp::Jmp { pc: 2 }, ret()], vec![]),
            target(0, 2)
        );
        let branch = RegOp::BrzJmp {
            c: 0,
            pc_z: 1,
            pc_nz: 5,
        };
        assert_eq!(build(vec![ret(), branch], vec![]), target(1, 5));
        // Code that can run past its last op.
        let falls = Err(InvalidCode::FallsOffEnd);
        assert_eq!(build(vec![RegOp::MovI { d: 1, s: 0 }], vec![]), falls);
        assert_eq!(build(vec![], vec![]), falls);
        assert_eq!(
            build(vec![RegOp::LdcI { d: 9, v: 0 }, ret()], vec![])
                .unwrap_err()
                .to_string(),
            "op 0 names I9, past its bank"
        );
    }
}
