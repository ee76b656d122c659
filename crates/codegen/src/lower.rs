//! Lowers fully-typed TWIR program modules onto the native register
//! machine: bank assignment by type, register coalescing
//! ([`crate::regalloc`]), SSA destruction (phi -> edge moves, self-moves
//! dropped), monomorphic instruction selection, one arm per resolved
//! primitive, and finally the cancellation of refcount pairs that bracket
//! nothing ([`crate::refcount`]).

use crate::machine::{
    ArgVal, Bank, CmpCode, CpxOp, ElemKind, ElisionCounters, ExprOp, FltOp, FltUnOp, IntOp,
    IntUnOp, InvalidCode, KernelCall, NativeFunc, NativeProgram, RegOp, Slot, TenOp,
};
use crate::{refcount, regalloc};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wolfram_analyze::intervals::{FnRangeFacts, RangeFacts};
use wolfram_ir::module::{
    Block, BlockId, Callee, ConstKey, Constant, Function, Instr, Operand, VarId,
};
use wolfram_ir::CompilerOptions;
use wolfram_runtime::{Tensor, Value};
use wolfram_types::{Cmp, Elementary, Prim, Type};

/// Lowering failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LowerError {
    /// "a compile error is issued if any variable type is missing" (§4.6).
    MissingType(String),
    /// An unresolved builtin reached code generation (resolution bug or a
    /// function outside the compilable subset).
    Unsupported(String),
    /// The lowered code failed [`NativeFunc::new`]'s checks (a lowering
    /// bug).
    Invalid(InvalidCode),
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::MissingType(what) => write!(f, "missing type for {what}"),
            LowerError::Unsupported(what) => write!(f, "cannot generate code for {what}"),
            LowerError::Invalid(why) => write!(f, "invalid native code: {why}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a program module under `options` (it reads
/// `naive_constant_arrays`). `range_facts` are the interval analysis's
/// proofs, keyed by function name, then by `(block, instr)`: with them the
/// lowering emits unchecked tensor and integer ops; `None` lowers fully
/// checked code.
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower_program(
    pm: &wolfram_ir::ProgramModule,
    options: &CompilerOptions,
    range_facts: Option<&RangeFacts>,
) -> Result<NativeProgram, LowerError> {
    let name_to_index: HashMap<&str, u32> = pm
        .functions
        .iter()
        .zip(0..)
        .map(|(f, ix)| (f.name.as_str(), ix))
        .collect();
    let mut out = NativeProgram::default();
    for f in &pm.functions {
        let facts = range_facts.and_then(|rf| rf.functions.get(&f.name));
        out.funcs
            .push(lower_function(f, &name_to_index, options, facts)?);
    }
    Ok(out)
}

fn bank_of(ty: &Type) -> Bank {
    match ty {
        Type::Atomic(name) => match &**name {
            "Integer64" | "Integer32" | "Integer16" | "Integer8" | "Boolean" => Bank::I,
            "Real64" | "Real32" => Bank::F,
            "ComplexReal64" => Bank::C,
            _ => Bank::V,
        },
        _ => Bank::V,
    }
}

fn elem_kind(ty: &Type) -> ElemKind {
    match bank_of(ty) {
        Bank::I => ElemKind::I64,
        Bank::C => ElemKind::C64,
        _ => ElemKind::F64,
    }
}

/// Tensor element type of a tensor-typed variable.
fn tensor_elem(ty: &Type) -> Option<&Type> {
    match ty {
        Type::Constructor { name, args } if &**name == "Tensor" => args.first(),
        _ => None,
    }
}

struct Lowering<'a> {
    f: &'a Function,
    funcs: &'a HashMap<&'a str, u32>,
    opts: &'a CompilerOptions,
    /// The register of each variable, indexed by its number.
    slots: Vec<Option<Slot>>,
    counters: [u32; 4],
    code: Vec<RegOp>,
    block_pc: HashMap<BlockId, usize>,
    patches: Vec<(usize, BlockId)>,
    /// Pending phi moves per predecessor block: (dst slot, source operand).
    edge_moves: HashMap<BlockId, Vec<(Slot, Operand)>>,
    params: Vec<Slot>,
    /// The copy/live analysis of §4.5: reads after which a value-bank
    /// register is provably dead (no path reaches another read of the slot
    /// without an intervening write). Such reads *move* the value out of
    /// the register instead of cloning it, which is what keeps in-place
    /// tensor mutation copy-free. Keys are `(block, event, var)` with
    /// `event = usize::MAX` denoting the phi edge-move batch at the block's
    /// end.
    dying_reads: HashSet<(u32, usize, VarId)>,
    current_block: BlockId,
    current_event: usize,
    /// Deduplicated constant loads, hoisted into a function prologue so
    /// loop bodies do not re-materialize immediates each iteration.
    const_cache: HashMap<(ConstKey, Bank), u32>,
    prologue: Vec<RegOp>,
    /// Interval facts for this function (proved bounds/overflow sites),
    /// when range-check elision is on.
    facts: Option<&'a FnRangeFacts>,
    /// Counts of checks elided vs. seen while lowering this function.
    elision: ElisionCounters,
}

fn lower_function(
    f: &Function,
    funcs: &HashMap<&str, u32>,
    opts: &CompilerOptions,
    facts: Option<&FnRangeFacts>,
) -> Result<NativeFunc, LowerError> {
    let cfg = wolfram_ir::analysis::Cfg::new(f);
    let mut banks = vec![None; f.next_var as usize];
    for d in f.instrs().filter_map(Instr::def) {
        let ty = f
            .var_type(d)
            .ok_or_else(|| LowerError::MissingType(format!("%{} in {}", d.0, f.name)))?;
        banks[d.0 as usize] = Some(bank_of(ty));
    }
    let regs = regalloc::assign(f, &cfg, &banks);
    let mut params = vec![Slot::new(Bank::I, 0); f.arity];
    for i in f.instrs() {
        if let Instr::LoadArgument { dst, index } = i {
            params[*index] = regs.slots[dst.0 as usize].expect("a defined variable");
        }
    }
    let mut l = Lowering {
        f,
        funcs,
        opts,
        slots: regs.slots,
        counters: regs.counts,
        code: Vec::new(),
        block_pc: HashMap::new(),
        patches: Vec::new(),
        edge_moves: HashMap::new(),
        params,
        dying_reads: regs.dying_reads,
        current_block: BlockId(0),
        current_event: 0,
        const_cache: HashMap::new(),
        prologue: Vec::new(),
        facts,
        elision: ElisionCounters::default(),
    };
    l.collect_phi_moves();
    for &b in &cfg.rpo {
        l.block_pc.insert(b, l.code.len());
        l.lower_block(b)?;
    }
    // Patch jumps.
    for (at, target) in std::mem::take(&mut l.patches) {
        let pc = *l.block_pc.get(&target).unwrap_or(&0);
        l.code[at].map_targets(|_| pc);
    }
    // Hoist the deduplicated constant loads into a prologue, shifting all
    // jump targets accordingly.
    if !l.prologue.is_empty() {
        let shift = l.prologue.len();
        for op in &mut l.code {
            op.map_targets(|pc| pc + shift);
        }
        let mut code = std::mem::take(&mut l.prologue);
        code.append(&mut l.code);
        l.code = code;
    }
    l.elision.rc_elided = refcount::cancel_idle_pairs(&mut l.code);
    NativeFunc::new(
        f.name.clone(),
        l.code,
        l.counters.map(|n| n as usize),
        l.params,
        l.elision,
    )
    .map_err(LowerError::Invalid)
}

impl<'a> Lowering<'a> {
    fn bump(&mut self, bank: Bank) -> u32 {
        let ix = regalloc::bank_index(bank);
        let v = self.counters[ix];
        self.counters[ix] += 1;
        v
    }

    fn collect_phi_moves(&mut self) {
        for b in self.f.block_ids() {
            for i in &self.f.block(b).instrs {
                if let Instr::Phi { dst, incoming } = i {
                    let dslot = self.var_slot(*dst);
                    for (pred, op) in incoming {
                        self.edge_moves
                            .entry(*pred)
                            .or_default()
                            .push((dslot, op.clone()));
                    }
                }
            }
        }
    }

    fn var_slot(&self, v: VarId) -> Slot {
        self.slots[v.0 as usize].expect("a defined variable")
    }

    /// Whether the value in `v`'s register dies at the current read: no
    /// execution path reaches another read of the register without a write
    /// in between (slot-level liveness over the phi-destructed program).
    fn is_last_use(&self, v: VarId) -> bool {
        self.dying_reads
            .contains(&(self.current_block.0, self.current_event, v))
    }

    /// The `checked` operand of the current Part/set instruction: `false`
    /// when the interval analysis proved every index in bounds. Counts the
    /// site either way.
    fn part_checked(&mut self) -> bool {
        let proved = self.facts.is_some_and(|ff| {
            ff.proved_parts
                .contains(&(self.current_block, self.current_event))
        });
        self.elision.bounds_total += 1;
        self.elision.bounds_elided += u32::from(proved);
        !proved
    }

    /// Whether the interval analysis proved the current checked integer
    /// plus/subtract/times cannot overflow.
    fn arith_proved(&self) -> bool {
        self.facts.is_some_and(|ff| {
            ff.proved_arith
                .contains(&(self.current_block, self.current_event))
        })
    }

    /// Materializes a value-bank operand, reporting whether the resulting
    /// register may be *consumed* (moved from) by the instruction.
    fn operand_v_take(&mut self, o: &Operand) -> Result<(u32, bool), LowerError> {
        let ix = self.operand(o, Bank::V)?;
        Ok(match o {
            // Constant slots are shared (hoisted) or, in the naive-array
            // ablation, fresh per use; never steal the shared ones.
            Operand::Const(c) => {
                let naive_array = self.opts.naive_constant_arrays
                    && matches!(c, Constant::I64Array(_) | Constant::F64Array(_));
                (ix, naive_array)
            }
            Operand::Var(v) => (ix, self.is_last_use(*v)),
        })
    }

    /// Emits a value move that steals the source register when allowed;
    /// nothing when coalescing gave both ends one register.
    fn push_v_move(&mut self, d: u32, s: u32, take: bool) {
        if d != s {
            self.code.push(if take {
                RegOp::TakeV { d, s }
            } else {
                RegOp::MovV { d, s }
            });
        }
    }

    /// Emits `d = s` in `bank`; nothing when both ends are one register.
    fn push_mov(&mut self, bank: Bank, d: u32, s: u32) {
        if d != s {
            self.code.push(match bank {
                Bank::I => RegOp::MovI { d, s },
                Bank::F => RegOp::MovF { d, s },
                Bank::C => RegOp::MovC { d, s },
                Bank::V => RegOp::MovV { d, s },
            });
        }
    }

    /// Materializes an operand into a slot of the given bank, emitting
    /// loads/conversions for constants.
    fn operand(&mut self, o: &Operand, bank: Bank) -> Result<u32, LowerError> {
        match o {
            Operand::Var(v) => {
                let s = self.var_slot(*v);
                if s.bank == bank {
                    Ok(s.ix)
                } else if s.bank == Bank::I && bank == Bank::F {
                    let d = self.bump(Bank::F);
                    self.code.push(RegOp::IntToFlt { d, s: s.ix });
                    Ok(d)
                } else if s.bank == Bank::I && bank == Bank::C {
                    let d = self.bump(Bank::C);
                    self.code.push(RegOp::IntToCpx { d, s: s.ix });
                    Ok(d)
                } else if s.bank == Bank::F && bank == Bank::C {
                    let d = self.bump(Bank::C);
                    self.code.push(RegOp::FltToCpx { d, s: s.ix });
                    Ok(d)
                } else if bank == Bank::V {
                    // Boxing into the managed world (symbolic arguments).
                    let d = self.bump(Bank::V);
                    let is_bool = matches!(
                        self.f.var_type(*v),
                        Some(Type::Atomic(n)) if &**n == "Boolean"
                    );
                    self.code.push(match s.bank {
                        Bank::I if is_bool => RegOp::BoolToExpr { d, s: s.ix },
                        Bank::I => RegOp::BoxIV { d, s: s.ix },
                        Bank::F => RegOp::BoxFV { d, s: s.ix },
                        Bank::C => RegOp::BoxCV { d, s: s.ix },
                        Bank::V => unreachable!("same bank handled above"),
                    });
                    Ok(d)
                } else {
                    Err(LowerError::Unsupported(format!(
                        "operand bank mismatch %{} ({:?} vs {:?})",
                        v.0, s.bank, bank
                    )))
                }
            }
            Operand::Const(c) => {
                // The naive-constant-array ablation keeps per-use loads.
                let naive_array = self.opts.naive_constant_arrays
                    && matches!(c, Constant::I64Array(_) | Constant::F64Array(_));
                let key = (ConstKey(c.clone()), bank);
                if !naive_array {
                    if let Some(&slot) = self.const_cache.get(&key) {
                        return Ok(slot);
                    }
                }
                let d = self.bump(bank);
                let op = match (c, bank) {
                    (Constant::I64(v), Bank::I) => RegOp::LdcI { d, v: *v },
                    (Constant::Bool(b), Bank::I) => RegOp::LdcI { d, v: *b as i64 },
                    (Constant::I64(v), Bank::F) => RegOp::LdcF { d, v: *v as f64 },
                    (Constant::F64(v), Bank::F) => RegOp::LdcF { d, v: *v },
                    (Constant::I64(v), Bank::C) => RegOp::LdcC {
                        d,
                        re: *v as f64,
                        im: 0.0,
                    },
                    (Constant::F64(v), Bank::C) => RegOp::LdcC { d, re: *v, im: 0.0 },
                    (Constant::Complex(re, im), Bank::C) => RegOp::LdcC {
                        d,
                        re: *re,
                        im: *im,
                    },
                    (c, Bank::V) => {
                        let v = const_value(c);
                        if naive_array {
                            RegOp::LdcArrayCopy { d, v }
                        } else {
                            RegOp::LdcV { d, v }
                        }
                    }
                    (c, bank) => {
                        return Err(LowerError::Unsupported(format!(
                            "constant {c:?} in {bank:?} bank"
                        )))
                    }
                };
                if naive_array {
                    self.code.push(op);
                } else {
                    self.prologue.push(op);
                    self.const_cache.insert(key, d);
                }
                Ok(d)
            }
        }
    }

    fn operand_ty(&self, o: &Operand) -> Result<Type, LowerError> {
        match o {
            Operand::Var(v) => self
                .f
                .var_type(*v)
                .cloned()
                .ok_or_else(|| LowerError::MissingType(format!("%{}", v.0))),
            Operand::Const(c) => Ok(c.ty()),
        }
    }

    fn flush_edge_moves(&mut self, from: BlockId) -> Result<(), LowerError> {
        let moves = self.edge_moves.get(&from).cloned().unwrap_or_default();
        if moves.is_empty() {
            return Ok(());
        }
        let saved_event = self.current_event;
        self.current_event = regalloc::EDGE_EVENT;
        let result = self.flush_edge_moves_inner(&moves);
        self.current_event = saved_event;
        result
    }

    fn flush_edge_moves_inner(&mut self, moves: &[(Slot, Operand)]) -> Result<(), LowerError> {
        // A phi coalesced with its incoming value needs no move.
        let moves: Vec<(Slot, Operand)> = moves
            .iter()
            .filter(|(d, op)| op.as_var().map(|v| self.var_slot(v)) != Some(*d))
            .cloned()
            .collect();
        // Fast path: when no destination doubles as another move's source,
        // the parallel copy degenerates to direct moves (no temps).
        let dst_slots: Vec<Slot> = moves.iter().map(|(d, _)| *d).collect();
        let interferes = moves.iter().any(|(_, op)| {
            op.as_var()
                .map(|v| self.var_slot(v))
                .is_some_and(|s| dst_slots.contains(&s))
        });
        if !interferes {
            for (dslot, op) in &moves {
                if dslot.bank == Bank::V {
                    let (src, take) = self.operand_v_take(op)?;
                    self.push_v_move(dslot.ix, src, take);
                } else {
                    let src = self.operand(op, dslot.bank)?;
                    self.push_mov(dslot.bank, dslot.ix, src);
                }
            }
            return Ok(());
        }
        // Parallel-copy safety: read every source into a temp first. Value
        // temps are moved, not cloned, whenever the source is dead.
        let mut temps = Vec::with_capacity(moves.len());
        for (dslot, op) in &moves {
            if dslot.bank == Bank::V {
                let (src, take) = self.operand_v_take(op)?;
                let tmp = self.bump(Bank::V);
                self.push_v_move(tmp, src, take);
                temps.push(tmp);
            } else {
                let src = self.operand(op, dslot.bank)?;
                let tmp = self.bump(dslot.bank);
                self.push_mov(dslot.bank, tmp, src);
                temps.push(tmp);
            }
        }
        for ((dslot, _), tmp) in moves.iter().zip(temps) {
            if dslot.bank == Bank::V {
                // The temp is always dead after this write.
                self.code.push(RegOp::TakeV {
                    d: dslot.ix,
                    s: tmp,
                });
            } else {
                self.push_mov(dslot.bank, dslot.ix, tmp);
            }
        }
        Ok(())
    }

    fn lower_block(&mut self, b: BlockId) -> Result<(), LowerError> {
        let block: &Block = self.f.block(b);
        self.current_block = b;
        for ix in refcount_runs_releases_first(&block.instrs) {
            let i = &block.instrs[ix];
            self.current_event = ix;
            match i {
                Instr::Phi { .. } | Instr::LoadArgument { .. } => {}
                Instr::LoadConst { dst, value } => {
                    let slot = self.var_slot(*dst);
                    if slot.bank == Bank::V {
                        let (op, take) = self.operand_v_take(&Operand::Const(value.clone()))?;
                        self.push_v_move(slot.ix, op, take);
                    } else {
                        let op = self.operand(&Operand::Const(value.clone()), slot.bank)?;
                        self.push_mov(slot.bank, slot.ix, op);
                    }
                }
                Instr::Copy { dst, src } => {
                    let d = self.var_slot(*dst);
                    if d.bank == Bank::V {
                        let (s, take) = self.operand_v_take(&Operand::Var(*src))?;
                        self.push_v_move(d.ix, s, take);
                    } else {
                        let s = self.operand(&Operand::Var(*src), d.bank)?;
                        self.push_mov(d.bank, d.ix, s);
                    }
                }
                Instr::Call { dst, callee, args } => self.lower_call(*dst, callee, args)?,
                Instr::MakeClosure {
                    dst,
                    func,
                    captures,
                } => {
                    let d = self.var_slot(*dst);
                    let fix = *self.funcs.get(&**func).ok_or_else(|| {
                        LowerError::Unsupported(format!("unknown closure target {func}"))
                    })?;
                    let mut caps = Vec::with_capacity(captures.len());
                    for c in captures {
                        let ty = self.operand_ty(c)?;
                        let bank = bank_of(&ty);
                        let ix = self.operand(c, bank)?;
                        caps.push(Slot::new(bank, ix));
                    }
                    self.code.push(RegOp::MakeClosure {
                        d: d.ix,
                        f: fix,
                        captures: caps.into(),
                    });
                }
                Instr::AbortCheck => self.code.push(RegOp::AbortCheck),
                Instr::MemoryAcquire { var } => {
                    let s = self.var_slot(*var);
                    if s.bank == Bank::V {
                        self.code.push(RegOp::Acquire { v: s.ix });
                    }
                }
                Instr::MemoryRelease { var } => {
                    let s = self.var_slot(*var);
                    if s.bank == Bank::V {
                        self.code.push(RegOp::Release { v: s.ix });
                    }
                }
                Instr::Jump { target } => {
                    self.flush_edge_moves(b)?;
                    self.patches.push((self.code.len(), *target));
                    self.code.push(RegOp::Jmp { pc: 0 });
                }
                Instr::Branch {
                    cond,
                    then_block,
                    else_block,
                } => {
                    self.flush_edge_moves(b)?;
                    let c = self.operand(cond, Bank::I)?;
                    // Compare-and-branch fusion is the superinstruction
                    // pass's job (`fuse`), keeping the unfused stream a
                    // clean ablation baseline.
                    self.patches.push((self.code.len(), *else_block));
                    self.code.push(RegOp::Brz { c, pc: 0 });
                    self.patches.push((self.code.len(), *then_block));
                    self.code.push(RegOp::Jmp { pc: 0 });
                }
                Instr::Return { value } => {
                    if matches!(value, Operand::Const(Constant::Null)) {
                        self.code.push(RegOp::RetNull);
                    } else {
                        let ty = self.operand_ty(value)?;
                        let bank = bank_of(&ty);
                        let s = self.operand(value, bank)?;
                        self.code.push(RegOp::Ret {
                            s: Slot::new(bank, s),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn lower_call(
        &mut self,
        dst: VarId,
        callee: &Callee,
        args: &[Operand],
    ) -> Result<(), LowerError> {
        let dslot = self.var_slot(dst);
        match callee {
            Callee::Function { name, .. } => {
                let fix = *self.funcs.get(&**name).ok_or_else(|| {
                    LowerError::Unsupported(format!("unresolved function {name}"))
                })?;
                let mut arg_slots = Vec::with_capacity(args.len());
                for a in args {
                    let ty = self.operand_ty(a)?;
                    let bank = bank_of(&ty);
                    let ix = self.operand(a, bank)?;
                    arg_slots.push(Slot::new(bank, ix));
                }
                self.code.push(RegOp::CallFunc {
                    f: fix,
                    args: arg_slots.into(),
                    ret: dslot,
                });
                Ok(())
            }
            Callee::Value(v) => {
                let fv = self.var_slot(*v);
                let mut arg_slots = Vec::with_capacity(args.len());
                for a in args {
                    let ty = self.operand_ty(a)?;
                    let bank = bank_of(&ty);
                    let ix = self.operand(a, bank)?;
                    arg_slots.push(Slot::new(bank, ix));
                }
                self.code.push(RegOp::CallValue {
                    fv: fv.ix,
                    args: arg_slots.into(),
                    ret: dslot,
                });
                Ok(())
            }
            Callee::Kernel(head) => {
                let mut arg_slots = Vec::with_capacity(args.len());
                for a in args {
                    let ty = self.operand_ty(a)?;
                    let bank = bank_of(&ty);
                    let ix = self.operand(a, bank)?;
                    arg_slots.push(Slot::new(bank, ix));
                }
                self.code.push(RegOp::CallKernel {
                    ret: dslot,
                    call: Box::new(KernelCall {
                        head: head.clone(),
                        args: arg_slots.into(),
                    }),
                });
                Ok(())
            }
            Callee::Primitive { prim, params } => self.select_primitive(*prim, params, dslot, args),
            Callee::Builtin(name) => Err(LowerError::Unsupported(format!(
                "unresolved builtin `{name}` reached code generation"
            ))),
        }
    }

    /// Monomorphic instruction selection: one arm per primitive, so one
    /// added to the table does not compile until it has an instruction
    /// here. The destination's bank picks the instance of an overloaded
    /// primitive; `params` are the types resolution instantiated it at,
    /// which an operand (an `Integer64` immediate in a `Real64` position)
    /// may still have to be widened to.
    #[allow(clippy::too_many_lines)]
    fn select_primitive(
        &mut self,
        prim: Prim,
        params: &[Type],
        dslot: Slot,
        args: &[Operand],
    ) -> Result<(), LowerError> {
        let d = dslot.ix;
        // Materializes an operand in a requested bank.
        macro_rules! a {
            ($ix:expr, $bank:expr) => {
                self.operand(&args[$ix], $bank)?
            };
        }
        // Scalar `d = a op b`: the op per destination bank, `None` where
        // the primitive has no instance.
        macro_rules! binary {
            ($int:expr, $flt:expr, $cpx:expr) => {
                self.select_binary(prim, dslot, args, $int, $flt, $cpx)
            };
        }
        // Elementwise tensor arithmetic, tensor (+) scalar broadcast with the
        // tensor at operand `$t`, and symbolic arithmetic.
        macro_rules! tensor {
            ($op:expr) => {
                RegOp::TenBin {
                    op: $op,
                    d,
                    a: a!(0, Bank::V),
                    b: a!(1, Bank::V),
                }
            };
        }
        macro_rules! broadcast {
            ($op:expr, $t:expr, $s:expr) => {{
                let elem = tensor_elem_of(&params[$t])?;
                RegOp::TenScalar {
                    op: $op,
                    kind: elem_kind(elem),
                    d,
                    t: a!($t, Bank::V),
                    s: a!($s, bank_of(elem)),
                    rev: $t == 1,
                }
            }};
        }
        macro_rules! symbolic {
            ($op:expr) => {
                RegOp::ExprBin {
                    op: $op,
                    d,
                    a: a!(0, Bank::V),
                    b: a!(1, Bank::V),
                }
            };
        }
        let op = match prim {
            Prim::Plus => return binary!(Some(IntOp::Add), Some(FltOp::Add), Some(CpxOp::Add)),
            Prim::Subtract => return binary!(Some(IntOp::Sub), Some(FltOp::Sub), Some(CpxOp::Sub)),
            Prim::Times => return binary!(Some(IntOp::Mul), Some(FltOp::Mul), Some(CpxOp::Mul)),
            Prim::Divide => return binary!(None, Some(FltOp::Div), Some(CpxOp::Div)),
            // complex ^ integer stays exact.
            Prim::Power if dslot.bank == Bank::C && bank_of(&params[1]) == Bank::I => {
                RegOp::CpxPowI {
                    d,
                    a: a!(0, Bank::C),
                    e: a!(1, Bank::I),
                }
            }
            Prim::Power => return binary!(Some(IntOp::Pow), Some(FltOp::Pow), None),
            Prim::Mod => return binary!(Some(IntOp::Mod), Some(FltOp::Mod), None),
            Prim::Quotient => return binary!(Some(IntOp::Quot), None, None),
            Prim::Min => return binary!(Some(IntOp::Min), Some(FltOp::Min), None),
            Prim::Max => return binary!(Some(IntOp::Max), Some(FltOp::Max), None),
            Prim::ArcTan2 => return binary!(None, Some(FltOp::ArcTan2), None),
            Prim::Gcd => return binary!(Some(IntOp::Gcd), None, None),
            Prim::BitAnd => return binary!(Some(IntOp::BitAnd), None, None),
            Prim::BitOr => return binary!(Some(IntOp::BitOr), None, None),
            Prim::BitXor => return binary!(Some(IntOp::BitXor), None, None),
            Prim::BitShiftLeft => return binary!(Some(IntOp::Shl), None, None),
            Prim::BitShiftRight => return binary!(Some(IntOp::Shr), None, None),
            Prim::TensorPlus => tensor!(TenOp::Add),
            Prim::TensorSubtract => tensor!(TenOp::Sub),
            Prim::TensorTimes => tensor!(TenOp::Mul),
            Prim::TensorScalarPlus => broadcast!(TenOp::Add, 0, 1),
            Prim::TensorScalarSubtract => broadcast!(TenOp::Sub, 0, 1),
            Prim::TensorScalarTimes => broadcast!(TenOp::Mul, 0, 1),
            Prim::ScalarTensorPlus => broadcast!(TenOp::Add, 1, 0),
            Prim::ScalarTensorSubtract => broadcast!(TenOp::Sub, 1, 0),
            Prim::ScalarTensorTimes => broadcast!(TenOp::Mul, 1, 0),
            Prim::ExprPlus => symbolic!(ExprOp::Plus),
            Prim::ExprSubtract => symbolic!(ExprOp::Subtract),
            Prim::ExprTimes => symbolic!(ExprOp::Times),
            Prim::ExprPower => symbolic!(ExprOp::Power),
            Prim::Compare(cmp) => {
                let (fcode, icode) = match cmp {
                    Cmp::Less => (CmpCode::Lt, IntOp::Lt),
                    Cmp::LessEqual => (CmpCode::Le, IntOp::Le),
                    Cmp::Greater => (CmpCode::Gt, IntOp::Gt),
                    Cmp::GreaterEqual => (CmpCode::Ge, IntOp::Ge),
                    Cmp::Equal => (CmpCode::Eq, IntOp::Eq),
                    Cmp::Unequal => (CmpCode::Ne, IntOp::Ne),
                };
                match bank_of(&params[0]) {
                    Bank::I => RegOp::IntBin {
                        op: icode,
                        d,
                        a: a!(0, Bank::I),
                        b: a!(1, Bank::I),
                    },
                    Bank::F => RegOp::FltCmp {
                        op: fcode,
                        d,
                        a: a!(0, Bank::F),
                        b: a!(1, Bank::F),
                    },
                    Bank::C => {
                        let eq = RegOp::CpxEq {
                            d,
                            a: a!(0, Bank::C),
                            b: a!(1, Bank::C),
                        };
                        match cmp {
                            Cmp::Equal => eq,
                            Cmp::Unequal => {
                                self.code.push(eq);
                                RegOp::IntUn {
                                    op: IntUnOp::Not,
                                    d,
                                    s: d,
                                }
                            }
                            Cmp::Less | Cmp::LessEqual | Cmp::Greater | Cmp::GreaterEqual => {
                                return Err(LowerError::Unsupported(
                                    "ordered complex compare".into(),
                                ))
                            }
                        }
                    }
                    Bank::V => {
                        return Err(LowerError::Unsupported(
                            "comparison of managed values".into(),
                        ))
                    }
                }
            }
            Prim::Minus if dslot.bank == Bank::C => {
                let s = a!(0, Bank::C);
                let zero = self.bump(Bank::C);
                self.code.push(RegOp::LdcC {
                    d: zero,
                    re: 0.0,
                    im: 0.0,
                });
                RegOp::CpxBin {
                    op: CpxOp::Sub,
                    d,
                    a: zero,
                    b: s,
                }
            }
            Prim::Minus => return self.select_unary(dslot, args, IntUnOp::Neg, FltUnOp::Neg),
            Prim::Abs => return self.select_unary(dslot, args, IntUnOp::Abs, FltUnOp::Abs),
            Prim::Sign => return self.select_unary(dslot, args, IntUnOp::Sign, FltUnOp::Sign),
            Prim::Not => RegOp::IntUn {
                op: IntUnOp::Not,
                d,
                s: a!(0, Bank::I),
            },
            Prim::Factorial => RegOp::IntUn {
                op: IntUnOp::Factorial,
                d,
                s: a!(0, Bank::I),
            },
            Prim::Elementary(f) => RegOp::FltUn {
                op: match f {
                    Elementary::Sin => FltUnOp::Sin,
                    Elementary::Cos => FltUnOp::Cos,
                    Elementary::Tan => FltUnOp::Tan,
                    Elementary::Exp => FltUnOp::Exp,
                    Elementary::Log => FltUnOp::Log,
                    Elementary::ArcTan => FltUnOp::ArcTan,
                    Elementary::ArcSin => FltUnOp::ArcSin,
                    Elementary::ArcCos => FltUnOp::ArcCos,
                },
                d,
                s: a!(0, Bank::F),
            },
            // Rounding an integer is a move.
            Prim::Floor | Prim::Ceiling | Prim::Round if bank_of(&params[0]) == Bank::I => {
                let s = a!(0, Bank::I);
                self.push_mov(Bank::I, d, s);
                return Ok(());
            }
            Prim::Floor => RegOp::FloorFI {
                d,
                s: a!(0, Bank::F),
            },
            Prim::Ceiling => RegOp::CeilFI {
                d,
                s: a!(0, Bank::F),
            },
            Prim::Round => RegOp::RoundFI {
                d,
                s: a!(0, Bank::F),
            },
            Prim::Boole => {
                let s = a!(0, Bank::I);
                self.push_mov(Bank::I, d, s);
                return Ok(());
            }
            Prim::PowerMod => RegOp::PowModI {
                d,
                a: a!(0, Bank::I),
                b: a!(1, Bank::I),
                m: a!(2, Bank::I),
            },
            Prim::ComplexConstruct => RegOp::CpxMake {
                d,
                re: a!(0, Bank::F),
                im: a!(1, Bank::F),
            },
            Prim::ComplexRe => RegOp::CpxRe {
                d,
                s: a!(0, Bank::C),
            },
            Prim::ComplexIm => RegOp::CpxIm {
                d,
                s: a!(0, Bank::C),
            },
            Prim::ComplexConjugate => RegOp::CpxConj {
                d,
                s: a!(0, Bank::C),
            },
            Prim::ComplexAbs => RegOp::CpxAbs {
                d,
                s: a!(0, Bank::C),
            },
            // A widening move: the destination's bank decides.
            Prim::Convert => {
                let s = a!(0, dslot.bank);
                self.push_mov(dslot.bank, d, s);
                return Ok(());
            }
            Prim::TensorLength => RegOp::TenLen {
                d,
                t: a!(0, Bank::V),
            },
            Prim::TensorPart1 => RegOp::TenPart1 {
                kind: elem_kind(tensor_elem_of(&params[0])?),
                d,
                t: a!(0, Bank::V),
                i: a!(1, Bank::I),
                checked: self.part_checked(),
            },
            Prim::TensorPart2 => RegOp::TenPart2 {
                kind: elem_kind(tensor_elem_of(&params[0])?),
                d,
                t: a!(0, Bank::V),
                i: a!(1, Bank::I),
                j: a!(2, Bank::I),
                checked: self.part_checked(),
            },
            Prim::TensorSet1 => {
                let elem = tensor_elem_of(&params[0])?;
                let (t, take) = self.operand_v_take(&args[0])?;
                let i = a!(1, Bank::I);
                let v = a!(2, bank_of(elem));
                // Functional result: the source tensor moves into dst when
                // dead (in-place update), and is cloned (copy-on-write)
                // when still live — the F5 copy analysis.
                self.push_v_move(d, t, take);
                RegOp::TenSet1 {
                    kind: elem_kind(elem),
                    t: d,
                    i,
                    v,
                    checked: self.part_checked(),
                }
            }
            Prim::TensorSet2 => {
                let elem = tensor_elem_of(&params[0])?;
                let (t, take) = self.operand_v_take(&args[0])?;
                let (i, j) = (a!(1, Bank::I), a!(2, Bank::I));
                let v = a!(3, bank_of(elem));
                self.push_v_move(d, t, take);
                RegOp::TenSet2 {
                    kind: elem_kind(elem),
                    t: d,
                    i,
                    j,
                    v,
                    checked: self.part_checked(),
                }
            }
            Prim::TensorSetRow => {
                let (t, take) = self.operand_v_take(&args[0])?;
                let i = a!(1, Bank::I);
                let row = a!(2, Bank::V);
                self.push_v_move(d, t, take);
                // Row stores keep their check (no unchecked variant): the
                // row-length match is not provable from index intervals.
                self.elision.bounds_total += 1;
                RegOp::TenSetRow { t: d, i, row }
            }
            Prim::TensorFill1 => RegOp::TenFill1 {
                kind: elem_kind(&params[0]),
                d,
                c: a!(0, bank_of(&params[0])),
                n: a!(1, Bank::I),
            },
            Prim::TensorFill2 => RegOp::TenFill2 {
                kind: elem_kind(&params[0]),
                d,
                c: a!(0, bank_of(&params[0])),
                n1: a!(1, Bank::I),
                n2: a!(2, Bank::I),
            },
            Prim::ListConstruct => {
                let bank = bank_of(&params[0]);
                let mut items = Vec::with_capacity(args.len());
                for arg in args {
                    items.push(self.operand(arg, bank)?);
                }
                RegOp::TenFromList {
                    kind: elem_kind(&params[0]),
                    d,
                    items: items.into(),
                }
            }
            Prim::DotVector => {
                let (a, b) = (a!(0, Bank::V), a!(1, Bank::V));
                match dslot.bank {
                    Bank::I => RegOp::DotVecI { d, a, b },
                    _ => RegOp::DotVecF { d, a, b },
                }
            }
            Prim::DotMatrix => RegOp::DotMat {
                d,
                a: a!(0, Bank::V),
                b: a!(1, Bank::V),
            },
            Prim::DotMatrixVector => RegOp::DotMatVec {
                d,
                a: a!(0, Bank::V),
                b: a!(1, Bank::V),
            },
            Prim::StringLength => RegOp::StrLen {
                d,
                s: a!(0, Bank::V),
            },
            Prim::StringToCodes => RegOp::StrToCodes {
                d,
                s: a!(0, Bank::V),
            },
            Prim::StringFromCodes => RegOp::StrFromCodes {
                d,
                s: a!(0, Bank::V),
            },
            Prim::StringJoin => RegOp::StrJoin {
                d,
                a: a!(0, Bank::V),
                b: a!(1, Bank::V),
            },
            Prim::RandomUnit => RegOp::RndUnit { d },
            Prim::RandomRange => RegOp::RndRange {
                d,
                a: a!(0, Bank::F),
                b: a!(1, Bank::F),
            },
            Prim::ExprUnary(head) => RegOp::ExprUnary {
                head: Arc::from(head.head()),
                d,
                a: a!(0, Bank::V),
            },
        };
        self.code.push(op);
        Ok(())
    }

    /// `d = a op b` of a scalar primitive, by the destination's bank.
    fn select_binary(
        &mut self,
        prim: Prim,
        dslot: Slot,
        args: &[Operand],
        int: Option<IntOp>,
        flt: Option<FltOp>,
        cpx: Option<CpxOp>,
    ) -> Result<(), LowerError> {
        let d = dslot.ix;
        let op = match (dslot.bank, int, flt, cpx) {
            (Bank::I, Some(mut op), _, _) => {
                // Promote add/sub/mul whose overflow the interval
                // analysis discharged to the unchecked (wrapping) form.
                if let Some(unchecked) = match op {
                    IntOp::Add => Some(IntOp::AddU),
                    IntOp::Sub => Some(IntOp::SubU),
                    IntOp::Mul => Some(IntOp::MulU),
                    _ => None,
                } {
                    self.elision.ovf_total += 1;
                    if self.arith_proved() {
                        self.elision.ovf_elided += 1;
                        op = unchecked;
                    }
                }
                // Immediate forms avoid a register read per iteration; a
                // commutative op takes a constant left operand as its
                // immediate too (`3 * x` lowers as `x * 3`).
                let int_const = |o: &Operand| matches!(o.as_const(), Some(Constant::I64(_)));
                let commutes = matches!(
                    op,
                    IntOp::Add
                        | IntOp::AddU
                        | IntOp::Mul
                        | IntOp::MulU
                        | IntOp::BitAnd
                        | IntOp::BitOr
                        | IntOp::BitXor
                        | IntOp::Min
                        | IntOp::Max
                );
                let (x, y) = if commutes && int_const(&args[0]) && !int_const(&args[1]) {
                    (&args[1], &args[0])
                } else {
                    (&args[0], &args[1])
                };
                let a = self.operand(x, Bank::I)?;
                match y.as_const() {
                    Some(Constant::I64(imm)) => RegOp::IntBinImm {
                        op,
                        d,
                        a,
                        imm: *imm,
                    },
                    _ => RegOp::IntBin {
                        op,
                        d,
                        a,
                        b: self.operand(y, Bank::I)?,
                    },
                }
            }
            (Bank::F, _, Some(op), _) => {
                let a = self.operand(&args[0], Bank::F)?;
                match args[1].as_const() {
                    Some(Constant::F64(imm)) => RegOp::FltBinImm {
                        op,
                        d,
                        a,
                        imm: *imm,
                    },
                    Some(Constant::I64(imm)) => RegOp::FltBinImm {
                        op,
                        d,
                        a,
                        imm: *imm as f64,
                    },
                    _ => RegOp::FltBin {
                        op,
                        d,
                        a,
                        b: self.operand(&args[1], Bank::F)?,
                    },
                }
            }
            (Bank::C, _, _, Some(op)) => RegOp::CpxBin {
                op,
                d,
                a: self.operand(&args[0], Bank::C)?,
                b: self.operand(&args[1], Bank::C)?,
            },
            _ => {
                return Err(LowerError::Unsupported(format!(
                    "primitive `{}`",
                    prim.name()
                )))
            }
        };
        self.code.push(op);
        Ok(())
    }

    /// `d = op s` of a real-or-integer primitive, by the destination's bank.
    fn select_unary(
        &mut self,
        dslot: Slot,
        args: &[Operand],
        int: IntUnOp,
        flt: FltUnOp,
    ) -> Result<(), LowerError> {
        let d = dslot.ix;
        let op = match dslot.bank {
            Bank::I => RegOp::IntUn {
                op: int,
                d,
                s: self.operand(&args[0], Bank::I)?,
            },
            Bank::F => RegOp::FltUn {
                op: flt,
                d,
                s: self.operand(&args[0], Bank::F)?,
            },
            Bank::C | Bank::V => return Err(LowerError::Unsupported("unary op on value".into())),
        };
        self.code.push(op);
        Ok(())
    }
}

/// The element type of a tensor-typed parameter.
fn tensor_elem_of(ty: &Type) -> Result<&Type, LowerError> {
    tensor_elem(ty).ok_or_else(|| LowerError::MissingType("tensor element type".into()))
}

/// The order `instrs` lower in: each run of consecutive acquires and
/// releases puts first the releases whose variable the run did not
/// acquire earlier. The ops of distinct variables commute; with coalescing,
/// an in-place store or a loop header can end one variable's interval and
/// start the next one's in the same register, and the register's acquires
/// and releases must alternate.
fn refcount_runs_releases_first(instrs: &[Instr]) -> Vec<usize> {
    let mut order = Vec::with_capacity(instrs.len());
    let mut ix = 0;
    while ix < instrs.len() {
        let end = ix
            + instrs[ix..]
                .iter()
                .take_while(|i| {
                    matches!(i, Instr::MemoryAcquire { .. } | Instr::MemoryRelease { .. })
                })
                .count();
        if end == ix {
            order.push(ix);
            ix += 1;
            continue;
        }
        let early = |k: usize| match &instrs[k] {
            Instr::MemoryRelease { var } => !instrs[ix..k]
                .iter()
                .any(|i| matches!(i, Instr::MemoryAcquire { var: a } if a == var)),
            _ => false,
        };
        order.extend((ix..end).filter(|&k| early(k)));
        order.extend((ix..end).filter(|&k| !early(k)));
        ix = end;
    }
    order
}

fn const_value(c: &Constant) -> Value {
    match c {
        Constant::I64(v) => Value::I64(*v),
        Constant::F64(v) => Value::F64(*v),
        Constant::Bool(b) => Value::Bool(*b),
        Constant::Complex(re, im) => Value::Complex(*re, *im),
        Constant::Str(s) => Value::Str(Arc::new(s.to_string())),
        Constant::I64Array(v) => Value::Tensor(Tensor::from_i64(v.to_vec())),
        Constant::F64Array(v) => Value::Tensor(Tensor::from_f64(v.to_vec())),
        Constant::Expr(e) => Value::Expr(e.clone()),
        Constant::Null => Value::Null,
    }
}

/// Boxes the machine result according to the function's return type.
pub fn result_to_value(result: ArgVal, ret_ty: &Type) -> Value {
    let is_bool = matches!(ret_ty, Type::Atomic(n) if &**n == "Boolean");
    result.into_value(is_bool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use wolfram_ir::FunctionBuilder;
    use wolfram_types::Type;

    /// Builds the appendix addOne TWIR by hand and runs it natively.
    #[test]
    fn add_one_end_to_end() {
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let sum = b.call(
            Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            vec![arg.into(), Constant::I64(1).into()],
        );
        b.ret(sum);
        let mut f = b.finish();
        f.var_types.insert(arg, Type::integer64());
        f.var_types.insert(sum, Type::integer64());
        f.return_type = Some(Type::integer64());
        let pm = wolfram_ir::ProgramModule::with_main(f);
        let native = lower_program(&pm, &CompilerOptions::default(), None).unwrap();
        let mut m = Machine::standalone();
        let out = m.call(&native, 0, [Ok(ArgVal::I(41))], None).unwrap();
        assert_eq!(out, ArgVal::I(42));
    }

    /// The constant loads emitted for `prim(args)` at `params`.
    fn constant_loads(prim: Prim, params: &[Type], ret: Type, args: [Constant; 2]) -> usize {
        let mut bld = FunctionBuilder::new("Main", 0);
        let r = bld.call(
            Callee::primitive(prim, params),
            args.map(Operand::from).into(),
        );
        bld.ret(r);
        let mut f = bld.finish();
        f.var_types.insert(r, ret.clone());
        f.return_type = Some(ret);
        let pm = wolfram_ir::ProgramModule::with_main(f);
        let native = lower_program(&pm, &CompilerOptions::default(), None).unwrap();
        native.funcs[0]
            .code
            .iter()
            .filter(|op| matches!(op, RegOp::LdcV { .. } | RegOp::LdcF { .. }))
            .count()
    }

    #[test]
    fn the_constant_pool_shares_only_identical_constants() {
        let ints = Type::tensor(Type::integer64(), 1);
        let dot = |a: &[i64], b: &[i64]| {
            let args = [a, b].map(|v| Constant::I64Array(v.into()));
            constant_loads(
                Prim::DotVector,
                &[ints.clone(), ints.clone()],
                Type::integer64(),
                args,
            )
        };
        let table: Vec<i64> = (0..16_384).collect();
        let mut last = table.clone();
        *last.last_mut().unwrap() += 1;
        assert_eq!(dot(&table, &table), 1);
        assert_eq!(dot(&table, &last), 2);
        let reals = Type::tensor(Type::real64(), 1);
        let list = |a: f64, b: f64| {
            let args = [a, b].map(Constant::F64);
            constant_loads(Prim::ListConstruct, &[Type::real64()], reals.clone(), args)
        };
        assert_eq!(list(-0.0, -0.0), 1);
        assert_eq!(list(0.0, -0.0), 2);
    }

    #[test]
    fn missing_types_are_compile_errors() {
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        b.ret(arg);
        let f = b.finish(); // no var_types
        let pm = wolfram_ir::ProgramModule::with_main(f);
        assert!(matches!(
            lower_program(&pm, &CompilerOptions::default(), None),
            Err(LowerError::MissingType(_))
        ));
    }

    #[test]
    fn loop_with_phi_moves() {
        // sum 1..n via a loop: exercises phis -> edge moves.
        let mut b = FunctionBuilder::new("Main", 1);
        let n = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: n, index: 0 });
        b.write_var("i", Constant::I64(0));
        b.write_var("acc", Constant::I64(0));
        let header = b.create_block("head");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.jump(header);
        b.switch_to(header);
        let i0 = b.read_var("i").unwrap();
        let c = b.call(
            Callee::primitive(
                Prim::Compare(Cmp::Less),
                &[Type::integer64(), Type::integer64()],
            ),
            vec![i0.clone(), n.into()],
        );
        b.branch(c, body, exit);
        b.seal_block(body);
        b.switch_to(body);
        let i1 = b.read_var("i").unwrap();
        let acc1 = b.read_var("acc").unwrap();
        let i2 = b.call(
            Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            vec![i1, Constant::I64(1).into()],
        );
        let acc2 = b.call(
            Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            vec![acc1, i2.into()],
        );
        b.write_var("i", i2);
        b.write_var("acc", acc2);
        b.jump(header);
        b.seal_block(header);
        b.seal_block(exit);
        b.switch_to(exit);
        let out = b.read_var("acc").unwrap();
        b.ret(out);
        let mut f = b.finish();
        for v in 0..f.next_var {
            f.var_types.entry(VarId(v)).or_insert_with(|| {
                if v == c.0 {
                    Type::boolean()
                } else {
                    Type::integer64()
                }
            });
        }
        // Branch condition is boolean.
        f.var_types.insert(c, Type::boolean());
        f.return_type = Some(Type::integer64());
        wolfram_ir::verify_function(&f).unwrap();
        let pm = wolfram_ir::ProgramModule::with_main(f);
        let native = lower_program(&pm, &CompilerOptions::default(), None).unwrap();
        let mut m = Machine::standalone();
        let out = m.call(&native, 0, [Ok(ArgVal::I(100))], None).unwrap();
        assert_eq!(out, ArgVal::I(5050));
    }

    #[test]
    fn mixed_promotion_via_operand_conversion() {
        // real + integer-constant: the integer converts at load.
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let sum = b.call(
            Callee::primitive(Prim::Plus, &[Type::real64(), Type::real64()]),
            vec![arg.into(), Constant::I64(1).into()],
        );
        b.ret(sum);
        let mut f = b.finish();
        f.var_types.insert(arg, Type::real64());
        f.var_types.insert(sum, Type::real64());
        f.return_type = Some(Type::real64());
        let pm = wolfram_ir::ProgramModule::with_main(f);
        let native = lower_program(&pm, &CompilerOptions::default(), None).unwrap();
        let mut m = Machine::standalone();
        assert_eq!(
            m.call(&native, 0, [Ok(ArgVal::F(1.5))], None).unwrap(),
            ArgVal::F(2.5)
        );
    }
}
