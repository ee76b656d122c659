//! The WVM backend (F4): compiles TWIR back onto the *legacy* Wolfram
//! Virtual Machine instruction set, demonstrating backend parity — the new
//! compiler can target the old substrate (as the production compiler keeps
//! a WVM backend).
//!
//! Only the legacy machine's datatypes are expressible; TWIR using strings,
//! expressions, or closures is rejected, mirroring reality.

use crate::backend::Backend;
use std::fmt::Write as _;
use wolfram_bytecode::instr::{BinOp, CmpOp, Op, UnOp};
use wolfram_ir::module::{Callee, Constant, Function, Instr, Operand, VarId};
use wolfram_ir::ProgramModule;
use wolfram_runtime::Value;
use wolfram_types::{Cmp, Elementary, Prim};

/// The WVM textual backend (renders the compiled bytecode listing).
pub struct WvmBackend;

impl Backend for WvmBackend {
    fn name(&self) -> &str {
        "WVM"
    }

    fn generate(&self, module: &ProgramModule) -> Result<String, String> {
        let ops = compile_to_wvm(module.main())?;
        let mut out = String::new();
        let _ = writeln!(out, "(* WVM bytecode for {} *)", module.main().name);
        for (pc, op) in ops.iter().enumerate() {
            let _ = writeln!(out, "{pc:4} | {op:?}");
        }
        Ok(out)
    }
}

/// Compiles a (straight-line or branching, scalar/tensor) TWIR function to
/// legacy VM ops.
///
/// # Errors
///
/// Returns a message for features the legacy machine cannot represent
/// (strings, expressions, closures, calls).
pub fn compile_to_wvm(f: &Function) -> Result<Vec<Op>, String> {
    // Variable -> register mapping (the legacy machine is also
    // register-based; registers hold boxed values).
    let reg = |v: VarId| -> Result<u16, String> {
        u16::try_from(v.0).map_err(|_| "too many registers for the WVM".to_owned())
    };
    let mut ops: Vec<Op> = Vec::new();
    // Block -> first pc mapping for jump patching.
    let mut block_pc = vec![0usize; f.blocks.len()];
    let mut patches: Vec<(usize, u32)> = Vec::new();
    let mut scratch = f.next_var;

    for (bix, block) in f.blocks.iter().enumerate() {
        block_pc[bix] = ops.len();
        for i in &block.instrs {
            match i {
                Instr::LoadArgument { .. } => {} // args preloaded into registers
                Instr::LoadConst { dst, value } => {
                    ops.push(Op::LoadConst {
                        d: reg(*dst)?,
                        c: const_value(value)?,
                    });
                }
                Instr::Copy { dst, src } => {
                    ops.push(Op::Move {
                        d: reg(*dst)?,
                        s: reg(*src)?,
                    });
                }
                Instr::Phi { .. } => {
                    return Err("the WVM backend requires phi-free (structured) code".into())
                }
                Instr::AbortCheck => {} // the legacy VM checks implicitly
                Instr::MemoryAcquire { .. } | Instr::MemoryRelease { .. } => {}
                Instr::Call { dst, callee, args } => {
                    let d = reg(*dst)?;
                    let mut regs = Vec::with_capacity(args.len());
                    for a in args {
                        regs.push(match a {
                            Operand::Var(v) => reg(*v)?,
                            Operand::Const(c) => {
                                let r = u16::try_from(scratch)
                                    .map_err(|_| "register overflow".to_owned())?;
                                scratch += 1;
                                ops.push(Op::LoadConst {
                                    d: r,
                                    c: const_value(c)?,
                                });
                                r
                            }
                        });
                    }
                    emit_call(&mut ops, d, callee, &regs)?;
                }
                Instr::MakeClosure { .. } => {
                    return Err("the WVM has no function values (L1)".into())
                }
                Instr::Jump { target } => {
                    patches.push((ops.len(), target.0));
                    ops.push(Op::Jump { pc: usize::MAX });
                }
                Instr::Branch {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let c = match cond {
                        Operand::Var(v) => reg(*v)?,
                        Operand::Const(_) => return Err("constant branch in WVM".into()),
                    };
                    patches.push((ops.len(), else_block.0));
                    ops.push(Op::JumpIfFalse { c, pc: usize::MAX });
                    patches.push((ops.len(), then_block.0));
                    ops.push(Op::Jump { pc: usize::MAX });
                }
                Instr::Return { value } => match value {
                    Operand::Var(v) => ops.push(Op::Return { s: reg(*v)? }),
                    Operand::Const(c) => {
                        let r =
                            u16::try_from(scratch).map_err(|_| "register overflow".to_owned())?;
                        scratch += 1;
                        ops.push(Op::LoadConst {
                            d: r,
                            c: const_value(c)?,
                        });
                        ops.push(Op::Return { s: r });
                    }
                },
            }
        }
    }
    for (at, block) in patches {
        let pc = block_pc[block as usize];
        match &mut ops[at] {
            Op::Jump { pc: t } | Op::JumpIfFalse { pc: t, .. } => *t = pc,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }
    Ok(ops)
}

fn const_value(c: &Constant) -> Result<Value, String> {
    Ok(match c {
        Constant::I64(v) => Value::I64(*v),
        Constant::F64(v) => Value::F64(*v),
        Constant::Bool(b) => Value::Bool(*b),
        Constant::Complex(re, im) => Value::Complex(*re, *im),
        Constant::Null => Value::Null,
        Constant::I64Array(a) => Value::Tensor(wolfram_runtime::Tensor::from_i64(a.to_vec())),
        Constant::F64Array(a) => Value::Tensor(wolfram_runtime::Tensor::from_f64(a.to_vec())),
        Constant::Str(_) | Constant::Expr(_) => {
            return Err("the WVM has no string/expression datatypes (L1)".into())
        }
    })
}

fn emit_call(ops: &mut Vec<Op>, d: u16, callee: &Callee, regs: &[u16]) -> Result<(), String> {
    let Callee::Primitive { prim, .. } = callee else {
        return Err(format!("the WVM cannot call {}", callee.name()));
    };
    let bin = |op: BinOp| Op::Bin {
        op,
        d,
        a: regs[0],
        b: regs[1],
    };
    let un = |op: UnOp| Op::Un { op, d, s: regs[0] };
    let op = match *prim {
        Prim::Plus => bin(BinOp::Add),
        Prim::Subtract => bin(BinOp::Sub),
        Prim::Times => bin(BinOp::Mul),
        Prim::Divide => bin(BinOp::Div),
        Prim::Power => bin(BinOp::Pow),
        Prim::Mod => bin(BinOp::Mod),
        Prim::Quotient => bin(BinOp::Quot),
        Prim::Min => bin(BinOp::Min),
        Prim::Max => bin(BinOp::Max),
        Prim::Minus => un(UnOp::Neg),
        Prim::Abs | Prim::ComplexAbs => un(UnOp::Abs),
        Prim::Elementary(Elementary::Sin) => un(UnOp::Sin),
        Prim::Elementary(Elementary::Cos) => un(UnOp::Cos),
        Prim::Elementary(Elementary::Tan) => un(UnOp::Tan),
        Prim::Elementary(Elementary::Exp) => un(UnOp::Exp),
        Prim::Elementary(Elementary::Log) => un(UnOp::Log),
        Prim::Floor => un(UnOp::Floor),
        Prim::Ceiling => un(UnOp::Ceiling),
        Prim::Round => un(UnOp::Round),
        Prim::Not => un(UnOp::Not),
        Prim::ComplexRe => un(UnOp::Re),
        Prim::ComplexIm => un(UnOp::Im),
        Prim::ComplexConstruct => Op::ComplexMake {
            d,
            re: regs[0],
            im: regs[1],
        },
        Prim::Compare(cmp) => Op::Cmp {
            op: match cmp {
                Cmp::Less => CmpOp::Lt,
                Cmp::LessEqual => CmpOp::Le,
                Cmp::Greater => CmpOp::Gt,
                Cmp::GreaterEqual => CmpOp::Ge,
                Cmp::Equal => CmpOp::Eq,
                Cmp::Unequal => CmpOp::Ne,
            },
            d,
            a: regs[0],
            b: regs[1],
        },
        Prim::TensorLength => Op::Length { d, s: regs[0] },
        Prim::TensorPart1 => Op::Part1 {
            d,
            t: regs[0],
            i: regs[1],
        },
        Prim::TensorPart2 => Op::Part2 {
            d,
            t: regs[0],
            i: regs[1],
            j: regs[2],
        },
        Prim::DotVector | Prim::DotMatrix => Op::Dot {
            d,
            a: regs[0],
            b: regs[1],
        },
        Prim::TensorFill1 => Op::ConstArray {
            d,
            c: regs[0],
            n1: regs[1],
            n2: None,
        },
        Prim::TensorFill2 => Op::ConstArray {
            d,
            c: regs[0],
            n1: regs[1],
            n2: Some(regs[2]),
        },
        // The legacy machine is partial by design (L1).
        other => return Err(format!("the WVM has no instruction for `{}`", other.name())),
    };
    ops.push(op);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wolfram_ir::FunctionBuilder;
    use wolfram_runtime::AbortSignal;
    use wolfram_types::Type;

    #[test]
    fn straight_line_twir_runs_on_legacy_vm() {
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let sq = b.call(
            Callee::primitive(Prim::Times, &[Type::integer64(), Type::integer64()]),
            vec![arg.into(), arg.into()],
        );
        b.ret(sq);
        let mut f = b.finish();
        f.var_types.insert(arg, Type::integer64());
        f.var_types.insert(sq, Type::integer64());
        f.return_type = Some(Type::integer64());
        let ops = compile_to_wvm(&f).unwrap();
        let out = wolfram_bytecode::vm::execute(
            &ops,
            (f.next_var + 4) as usize,
            &[Value::I64(9)],
            &AbortSignal::new(),
            None,
        )
        .unwrap();
        assert_eq!(out, Value::I64(81));
    }

    #[test]
    fn strings_rejected() {
        let mut b = FunctionBuilder::new("Main", 0);
        let s = b.func.fresh_var();
        b.push(Instr::LoadConst {
            dst: s,
            value: Constant::Str(Arc::from("hi")),
        });
        b.ret(s);
        let mut f = b.finish();
        f.var_types.insert(s, Type::string());
        f.return_type = Some(Type::string());
        assert!(compile_to_wvm(&f).is_err());
    }
}
