//! The WVM executor: boxed values, dynamic dispatch per instruction, an
//! abort check every instruction batch, and interpreter escapes.

use crate::instr::{BinOp, CmpOp, Op, UnOp};
use wolfram_interp::Interpreter;
use wolfram_runtime::{AbortSignal, RuntimeError, Tensor, TensorData, Value};

/// Executes bytecode over a register file of boxed values.
///
/// # Errors
///
/// Numeric exceptions (overflow, division by zero) surface as
/// [`RuntimeError`]s for the caller's soft-failure handling; aborts raise
/// [`RuntimeError::Aborted`].
pub fn execute(
    ops: &[Op],
    nregs: usize,
    args: &[Value],
    abort: &AbortSignal,
    engine: Option<&mut Interpreter>,
) -> Result<Value, RuntimeError> {
    let mut regs: Vec<Value> = Vec::new();
    execute_in(ops, nregs, args, &mut regs, abort, engine)
}

/// [`execute`] over a caller-owned register file: the streaming executor
/// evaluates one function millions of times, so it reuses one `Vec`
/// allocation across calls instead of allocating `nregs` boxed registers
/// per record. The file is cleared and re-zeroed on entry, so results are
/// identical to a fresh allocation.
///
/// # Errors
///
/// As for [`execute`].
pub fn execute_in(
    ops: &[Op],
    nregs: usize,
    args: &[Value],
    regs: &mut Vec<Value>,
    abort: &AbortSignal,
    engine: Option<&mut Interpreter>,
) -> Result<Value, RuntimeError> {
    regs.clear();
    regs.resize(nregs, Value::Null);
    for (i, a) in args.iter().enumerate() {
        regs[i] = a.clone();
    }
    let mut engine = engine;
    let mut pc = 0usize;
    let mut budget = 0u32;
    let mut rng: u64 = 0x9E3779B97F4A7C15;
    let mut next_f64 = move || {
        rng = rng.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    while pc < ops.len() {
        budget += 1;
        if budget & 0x3F == 0 {
            abort.check()?;
        }
        match &ops[pc] {
            Op::LoadConst { d, c } => regs[*d as usize] = c.clone(),
            Op::Move { d, s } => regs[*d as usize] = regs[*s as usize].clone(),
            Op::Bin { op, d, a, b } => {
                let r = bin(*op, &regs[*a as usize], &regs[*b as usize])?;
                regs[*d as usize] = r;
            }
            Op::Un { op, d, s } => {
                let r = un(*op, &regs[*s as usize])?;
                regs[*d as usize] = r;
            }
            Op::Cmp { op, d, a, b } => {
                let r = cmp(*op, &regs[*a as usize], &regs[*b as usize])?;
                regs[*d as usize] = Value::Bool(r);
            }
            Op::ComplexMake { d, re, im } => {
                let re = regs[*re as usize].expect_f64()?;
                let im = regs[*im as usize].expect_f64()?;
                regs[*d as usize] = Value::Complex(re, im);
            }
            Op::Length { d, s } => {
                let t = regs[*s as usize].expect_tensor()?;
                regs[*d as usize] = Value::I64(t.length() as i64);
            }
            Op::Part1 { d, t, i } => {
                let ix = regs[*i as usize].expect_i64()?;
                let t = regs[*t as usize].expect_tensor()?;
                regs[*d as usize] = t.part(ix)?;
            }
            Op::Part2 { d, t, i, j } => {
                let ix = regs[*i as usize].expect_i64()?;
                let jx = regs[*j as usize].expect_i64()?;
                let t = regs[*t as usize].expect_tensor()?;
                let row = t.part(ix)?.into_tensor()?;
                regs[*d as usize] = row.part(jx)?;
            }
            Op::SetPart1 { t, i, v } => {
                let ix = regs[*i as usize].expect_i64()?;
                let value = regs[*v as usize].clone();
                let Value::Tensor(tensor) = &mut regs[*t as usize] else {
                    return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                };
                let off = tensor.resolve_index(ix)?;
                set_element(tensor, off, &value)?;
            }
            Op::SetPart2 { t, i, j, v } => {
                let ix = regs[*i as usize].expect_i64()?;
                let jx = regs[*j as usize].expect_i64()?;
                let value = regs[*v as usize].clone();
                let Value::Tensor(tensor) = &mut regs[*t as usize] else {
                    return Err(RuntimeError::Type("SetPart on non-tensor".into()));
                };
                if tensor.rank() != 2 {
                    return Err(RuntimeError::Type("SetPart2 on non-matrix".into()));
                }
                let cols = tensor.shape()[1];
                let row = wolfram_runtime::checked::resolve_part_index(ix, tensor.shape()[0])?;
                let col = wolfram_runtime::checked::resolve_part_index(jx, cols)?;
                set_element(tensor, row * cols + col, &value)?;
            }
            Op::ConstArray { d, c, n1, n2 } => {
                let fill = regs[*c as usize].clone();
                let n1v = regs[*n1 as usize].expect_i64()?.max(0) as usize;
                let total = match n2 {
                    Some(n2) => n1v * regs[*n2 as usize].expect_i64()?.max(0) as usize,
                    None => n1v,
                };
                let shape = match n2 {
                    Some(n2) => {
                        vec![n1v, regs[*n2 as usize].expect_i64()?.max(0) as usize]
                    }
                    None => vec![n1v],
                };
                let data = match fill {
                    Value::I64(v) => TensorData::I64(vec![v; total]),
                    Value::F64(v) => TensorData::F64(vec![v; total]),
                    Value::Complex(re, im) => TensorData::Complex(vec![(re, im); total]),
                    other => {
                        return Err(RuntimeError::Type(format!(
                            "ConstantArray of {}",
                            other.type_name()
                        )))
                    }
                };
                regs[*d as usize] = Value::Tensor(Tensor::with_shape(shape, data)?);
            }
            Op::Dot { d, a, b } => {
                let ta = regs[*a as usize].expect_tensor()?.clone();
                let tb = regs[*b as usize].expect_tensor()?.clone();
                let result = wolfram_interp::builtins::lists::dot_tensors(&ta, &tb)?;
                regs[*d as usize] = Value::from_expr(&result);
            }
            Op::Jump { pc: target } => {
                pc = *target;
                continue;
            }
            Op::JumpIfFalse { c, pc: target } => {
                let cond = regs[*c as usize].expect_bool()?;
                if !cond {
                    pc = *target;
                    continue;
                }
            }
            Op::RandomReal { d, lo, hi } => {
                let lo_v = match lo {
                    Some(r) => regs[*r as usize].expect_f64()?,
                    None => 0.0,
                };
                let hi_v = match hi {
                    Some(r) => regs[*r as usize].expect_f64()?,
                    None => 1.0,
                };
                regs[*d as usize] = Value::F64(lo_v + (hi_v - lo_v) * next_f64());
            }
            Op::Eval { d, expr, env } => {
                let Some(engine) = engine.as_deref_mut() else {
                    return Err(RuntimeError::Other(
                        "bytecode Eval escape requires a Wolfram Engine".into(),
                    ));
                };
                // Bind current locals, evaluate, restore.
                let mut saved = Vec::new();
                for (name, reg) in env {
                    let sym = wolfram_expr::Symbol::new(name);
                    saved.push((sym.clone(), engine.env.own_value(&sym).cloned()));
                    engine.env.set_own(sym, regs[*reg as usize].to_expr());
                }
                let result = engine.eval(expr);
                for (sym, old) in saved {
                    match old {
                        Some(v) => engine.env.set_own(sym, v),
                        None => engine.env.clear_own(&sym),
                    }
                }
                regs[*d as usize] = Value::from_expr(&result?);
            }
            Op::Return { s } => return Ok(regs[*s as usize].clone()),
        }
        pc += 1;
    }
    Ok(Value::Null)
}

fn set_element(t: &mut Tensor, off: usize, value: &Value) -> Result<(), RuntimeError> {
    match (t.data().element_type(), value) {
        ("Integer64", Value::I64(v)) => t.set_i64(off, *v),
        ("Real64", Value::F64(v)) => t.set_f64(off, *v),
        ("Real64", Value::I64(v)) => t.set_f64(off, *v as f64),
        ("ComplexReal64", v) => {
            let (re, im) = v.expect_complex()?;
            match t.data_mut() {
                TensorData::Complex(data) => {
                    data[off] = (re, im);
                    Ok(())
                }
                _ => Err(RuntimeError::Type(
                    "complex store into non-complex tensor".into(),
                )),
            }
        }
        // Writing a real into an integer tensor promotes the whole tensor
        // (boxed semantics).
        ("Integer64", Value::F64(v)) => {
            *t = t.to_f64_tensor();
            t.set_f64(off, *v)
        }
        (et, v) => Err(RuntimeError::Type(format!(
            "cannot store {} into {et} tensor",
            v.type_name()
        ))),
    }
}

/// Dynamic numeric dispatch for binary operations — every operation match
/// on boxed payloads is exactly the overhead the new compiler eliminates.
pub fn bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    use wolfram_runtime::checked;
    // Boolean Min/Max double as And/Or (used by comparison chains).
    if let (Value::Bool(x), Value::Bool(y)) = (a, b) {
        return match op {
            BinOp::Min => Ok(Value::Bool(*x && *y)),
            BinOp::Max => Ok(Value::Bool(*x || *y)),
            _ => Err(RuntimeError::Type("boolean arithmetic".into())),
        };
    }
    // Integer fast path with overflow checks.
    if let (Value::I64(x), Value::I64(y)) = (a, b) {
        return Ok(match op {
            BinOp::Add => Value::I64(checked::add_i64(*x, *y)?),
            BinOp::Sub => Value::I64(checked::sub_i64(*x, *y)?),
            BinOp::Mul => Value::I64(checked::mul_i64(*x, *y)?),
            BinOp::Div => {
                if *y == 0 {
                    return Err(RuntimeError::DivideByZero);
                }
                if x % y == 0 {
                    Value::I64(x / y)
                } else {
                    Value::F64(*x as f64 / *y as f64)
                }
            }
            BinOp::Pow => {
                if *y >= 0 {
                    Value::I64(checked::pow_i64(*x, *y)?)
                } else {
                    // Match the interpreter's real-valued fallback exactly
                    // (`powf`, not `powi`: casting the exponent to i32 wraps
                    // for |y| > 2^31 and silently changes the answer).
                    Value::F64((*x as f64).powf(*y as f64))
                }
            }
            BinOp::Mod => Value::I64(checked::mod_i64(*x, *y)?),
            BinOp::Quot => Value::I64(checked::quotient_i64(*x, *y)?),
            BinOp::Min => Value::I64(*x.min(y)),
            BinOp::Max => Value::I64(*x.max(y)),
            BinOp::BitAnd => Value::I64(x & y),
            BinOp::BitOr => Value::I64(x | y),
            BinOp::BitXor => Value::I64(x ^ y),
        });
    }
    // Complex path.
    if matches!(a, Value::Complex(..)) || matches!(b, Value::Complex(..)) {
        let (ar, ai) = a.expect_complex()?;
        let (br, bi) = b.expect_complex()?;
        return Ok(match op {
            BinOp::Add => Value::Complex(ar + br, ai + bi),
            BinOp::Sub => Value::Complex(ar - br, ai - bi),
            BinOp::Mul => {
                let (re, im) = checked::mul_complex((ar, ai), (br, bi));
                Value::Complex(re, im)
            }
            BinOp::Div => {
                let (re, im) = checked::div_complex((ar, ai), (br, bi));
                Value::Complex(re, im)
            }
            BinOp::Pow => {
                if bi == 0.0 && br == br.trunc() && br.abs() < 64.0 {
                    let mut acc = (1.0, 0.0);
                    for _ in 0..br.abs() as i64 {
                        acc = checked::mul_complex(acc, (ar, ai));
                    }
                    if br < 0.0 {
                        acc = checked::div_complex((1.0, 0.0), acc);
                    }
                    Value::Complex(acc.0, acc.1)
                } else {
                    return Err(RuntimeError::Type(
                        "complex Power with non-integer exponent".into(),
                    ));
                }
            }
            _ => return Err(RuntimeError::Type("complex argument to ordered op".into())),
        });
    }
    // Tensor (element-wise) path for Add/Sub/Mul with a tensor operand.
    if matches!(a, Value::Tensor(_)) || matches!(b, Value::Tensor(_)) {
        return tensor_bin(op, a, b);
    }
    let x = a.expect_f64()?;
    let y = b.expect_f64()?;
    Ok(match op {
        BinOp::Add => Value::F64(x + y),
        BinOp::Sub => Value::F64(x - y),
        BinOp::Mul => Value::F64(x * y),
        BinOp::Div => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            Value::F64(x / y)
        }
        BinOp::Pow => Value::F64(x.powf(y)),
        BinOp::Mod => {
            if y == 0.0 {
                return Err(RuntimeError::DivideByZero);
            }
            Value::F64(x - y * (x / y).floor())
        }
        // Integer result, as in Wolfram: Quotient[5.3, 2] is 2, not 2.
        BinOp::Quot => Value::I64(checked::quotient_f64(x, y)?),
        BinOp::Min => Value::F64(x.min(y)),
        BinOp::Max => Value::F64(x.max(y)),
        BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
            return Err(RuntimeError::Type("bitwise operation on reals".into()))
        }
    })
}

/// Element-wise tensor arithmetic (Listable threading in the VM).
fn tensor_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let thread = |t: &Tensor,
                  f: &mut dyn FnMut(Value) -> Result<Value, RuntimeError>|
     -> Result<Value, RuntimeError> {
        let mut out_f = Vec::with_capacity(t.flat_len());
        for ix in 0..t.flat_len() {
            let v = t.get_scalar(ix).expect("in range");
            out_f.push(f(v)?);
        }
        // Rebuild preserving shape; promote to the widest element type.
        if out_f.iter().all(|v| matches!(v, Value::I64(_))) {
            let data: Vec<i64> = out_f
                .iter()
                .map(|v| v.expect_i64().expect("checked"))
                .collect();
            Ok(Value::Tensor(Tensor::with_shape(
                t.shape().to_vec(),
                TensorData::I64(data),
            )?))
        } else if out_f.iter().all(|v| !matches!(v, Value::Complex(..))) {
            let data: Vec<f64> = out_f
                .iter()
                .map(|v| v.expect_f64().expect("numeric"))
                .collect();
            Ok(Value::Tensor(Tensor::with_shape(
                t.shape().to_vec(),
                TensorData::F64(data),
            )?))
        } else {
            let data: Vec<(f64, f64)> = out_f
                .iter()
                .map(|v| v.expect_complex().expect("numeric"))
                .collect();
            Ok(Value::Tensor(Tensor::with_shape(
                t.shape().to_vec(),
                TensorData::Complex(data),
            )?))
        }
    };
    match (a, b) {
        (Value::Tensor(ta), Value::Tensor(tb)) => {
            if ta.shape() != tb.shape() {
                return Err(RuntimeError::Type("tensor shape mismatch".into()));
            }
            let mut ix = 0usize;
            let tb = tb.clone();
            thread(ta, &mut |va| {
                let vb = tb.get_scalar(ix).expect("in range");
                ix += 1;
                bin(op, &va, &vb)
            })
        }
        (Value::Tensor(ta), scalar) => {
            let s = scalar.clone();
            thread(ta, &mut |va| bin(op, &va, &s))
        }
        (scalar, Value::Tensor(tb)) => {
            let s = scalar.clone();
            thread(tb, &mut |vb| bin(op, &s, &vb))
        }
        _ => Err(RuntimeError::Type(format!(
            "tensor_bin on {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

/// Dynamic dispatch for unary operations.
pub fn un(op: UnOp, a: &Value) -> Result<Value, RuntimeError> {
    use wolfram_runtime::checked;
    match op {
        UnOp::Not => Ok(Value::Bool(!a.expect_bool()?)),
        UnOp::Neg => match a {
            Value::I64(v) => Ok(Value::I64(checked::neg_i64(*v)?)),
            Value::Complex(re, im) => Ok(Value::Complex(-re, -im)),
            _ => Ok(Value::F64(-a.expect_f64()?)),
        },
        UnOp::Abs => match a {
            Value::I64(v) => Ok(Value::I64(checked::abs_i64(*v)?)),
            Value::Complex(re, im) => Ok(Value::F64(re.hypot(*im))),
            _ => Ok(Value::F64(a.expect_f64()?.abs())),
        },
        UnOp::Re => Ok(Value::F64(a.expect_complex()?.0)),
        UnOp::Im => Ok(Value::F64(a.expect_complex()?.1)),
        UnOp::Floor => Ok(Value::I64(a.expect_f64()?.floor() as i64)),
        UnOp::Ceiling => Ok(Value::I64(a.expect_f64()?.ceil() as i64)),
        UnOp::Round => {
            let v = a.expect_f64()?;
            let r = v.round();
            let r = if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                r - v.signum()
            } else {
                r
            };
            Ok(Value::I64(r as i64))
        }
        _ => {
            let v = a.expect_f64()?;
            Ok(Value::F64(match op {
                UnOp::Sqrt => v.sqrt(),
                UnOp::Sin => v.sin(),
                UnOp::Cos => v.cos(),
                UnOp::Tan => v.tan(),
                UnOp::Exp => v.exp(),
                UnOp::Log => v.ln(),
                other => {
                    return Err(RuntimeError::Type(format!(
                        "unary op {other:?} on {}",
                        a.type_name()
                    )))
                }
            }))
        }
    }
}

/// Dynamic dispatch for comparisons.
pub fn cmp(op: CmpOp, a: &Value, b: &Value) -> Result<bool, RuntimeError> {
    let ord = match (a, b) {
        (Value::I64(x), Value::I64(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) if matches!(op, CmpOp::Eq | CmpOp::Ne) => x.cmp(y),
        _ => {
            let x = a.expect_f64()?;
            let y = b.expect_f64()?;
            x.partial_cmp(&y)
                .ok_or_else(|| RuntimeError::Type("incomparable values".into()))?
        }
    };
    Ok(match op {
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Ne => ord.is_ne(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::Expr;

    #[test]
    fn bin_dispatch() {
        assert_eq!(
            bin(BinOp::Add, &Value::I64(2), &Value::I64(3)).unwrap(),
            Value::I64(5)
        );
        assert_eq!(
            bin(BinOp::Add, &Value::I64(2), &Value::F64(0.5)).unwrap(),
            Value::F64(2.5)
        );
        assert_eq!(
            bin(
                BinOp::Mul,
                &Value::Complex(0.0, 1.0),
                &Value::Complex(0.0, 1.0)
            )
            .unwrap(),
            Value::Complex(-1.0, 0.0)
        );
        assert_eq!(
            bin(BinOp::Add, &Value::I64(i64::MAX), &Value::I64(1)),
            Err(RuntimeError::IntegerOverflow)
        );
        assert_eq!(
            bin(BinOp::Div, &Value::I64(7), &Value::I64(2)).unwrap(),
            Value::F64(3.5)
        );
    }

    #[test]
    fn tensor_threading() {
        let t = Value::Tensor(Tensor::from_i64(vec![1, 2, 3]));
        let out = bin(BinOp::Mul, &t, &Value::I64(2)).unwrap();
        match out {
            Value::Tensor(t) => assert_eq!(t.as_i64().unwrap(), &[2, 4, 6]),
            other => panic!("expected tensor, got {other:?}"),
        }
        let a = Value::Tensor(Tensor::from_f64(vec![1.0, 2.0]));
        let b = Value::Tensor(Tensor::from_f64(vec![10.0, 20.0]));
        let out = bin(BinOp::Add, &a, &b).unwrap();
        assert_eq!(
            out.expect_tensor().unwrap().as_f64().unwrap(),
            &[11.0, 22.0]
        );
    }

    #[test]
    fn unary_dispatch() {
        assert_eq!(
            un(UnOp::Abs, &Value::Complex(3.0, 4.0)).unwrap(),
            Value::F64(5.0)
        );
        assert_eq!(un(UnOp::Floor, &Value::F64(2.9)).unwrap(), Value::I64(2));
        assert_eq!(un(UnOp::Neg, &Value::I64(5)).unwrap(), Value::I64(-5));
        assert_eq!(
            un(UnOp::Not, &Value::Bool(true)).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn comparisons() {
        assert!(cmp(CmpOp::Lt, &Value::I64(1), &Value::I64(2)).unwrap());
        assert!(cmp(CmpOp::Eq, &Value::F64(2.0), &Value::I64(2)).unwrap());
        assert!(cmp(CmpOp::Ne, &Value::Bool(true), &Value::Bool(false)).unwrap());
    }

    #[test]
    fn simple_program_executes() {
        // return (arg0 + 1) * 2
        let ops = vec![
            Op::LoadConst {
                d: 1,
                c: Value::I64(1),
            },
            Op::Bin {
                op: BinOp::Add,
                d: 2,
                a: 0,
                b: 1,
            },
            Op::LoadConst {
                d: 3,
                c: Value::I64(2),
            },
            Op::Bin {
                op: BinOp::Mul,
                d: 4,
                a: 2,
                b: 3,
            },
            Op::Return { s: 4 },
        ];
        let out = execute(&ops, 5, &[Value::I64(20)], &AbortSignal::new(), None).unwrap();
        assert_eq!(out, Value::I64(42));
    }

    #[test]
    fn abort_unwinds_infinite_loop() {
        let ops = vec![Op::Jump { pc: 0 }];
        let abort = AbortSignal::new();
        abort.trigger();
        let out = execute(&ops, 1, &[], &abort, None);
        assert_eq!(out, Err(RuntimeError::Aborted));
    }

    #[test]
    fn setpart_copy_on_write() {
        let t = Tensor::from_i64(vec![1, 2, 3]);
        let alias = t.clone();
        let ops = vec![
            Op::LoadConst {
                d: 1,
                c: Value::I64(3),
            },
            Op::LoadConst {
                d: 2,
                c: Value::I64(-20),
            },
            Op::SetPart1 { t: 0, i: 1, v: 2 },
            Op::Return { s: 0 },
        ];
        let out = execute(&ops, 3, &[Value::Tensor(t)], &AbortSignal::new(), None).unwrap();
        assert_eq!(out.expect_tensor().unwrap().as_i64().unwrap(), &[1, 2, -20]);
        assert_eq!(alias.as_i64().unwrap(), &[1, 2, 3], "alias untouched (F5)");
    }

    #[test]
    fn eval_escape_requires_engine() {
        let ops = vec![
            Op::Eval {
                d: 0,
                expr: Expr::int(1),
                env: vec![],
            },
            Op::Return { s: 0 },
        ];
        assert!(execute(&ops, 1, &[], &AbortSignal::new(), None).is_err());
        let mut engine = Interpreter::new();
        let out = execute(&ops, 1, &[], &AbortSignal::new(), Some(&mut engine)).unwrap();
        assert_eq!(out, Value::I64(1));
    }
}
