//! The bytecode compiler front end: a single forward monolithic
//! transformation (§2.2) with fixed optimizations and datatypes.
//!
//! "The optimized expression is then traversed in depth-first order to
//! construct the bytecode instructions. If an expression is not supported
//! by the compiler, then the compiler inserts a statement which invokes the
//! interpreter at runtime to evaluate that expression. Along the way, the
//! compiler propagates the types of intermediate variables and any unknown
//! type is assumed to be a Real."

use crate::compiled_function::CompiledFunction;
use crate::instr::{BinOp, CmpOp, Op, Reg, UnOp, VmType};
use std::collections::HashMap;
use wolfram_expr::{Expr, ExprKind};
use wolfram_runtime::Value;

/// A typed argument specification (the `Compile[{{x, _Real}}, ...]` form).
#[derive(Debug, Clone, PartialEq)]
pub struct ArgSpec {
    /// Parameter name.
    pub name: String,
    /// Parameter type; defaults to `Real` in the classic interface.
    pub ty: VmType,
}

impl ArgSpec {
    /// A `_Real` parameter (the default).
    pub fn real(name: &str) -> Self {
        ArgSpec {
            name: name.into(),
            ty: VmType::Real,
        }
    }

    /// A `_Integer` parameter.
    pub fn int(name: &str) -> Self {
        ArgSpec {
            name: name.into(),
            ty: VmType::Int,
        }
    }

    /// A `_Complex` parameter.
    pub fn complex(name: &str) -> Self {
        ArgSpec {
            name: name.into(),
            ty: VmType::Complex,
        }
    }

    /// A packed real array parameter (`{x, _Real, 1}`).
    pub fn tensor_real(name: &str) -> Self {
        ArgSpec {
            name: name.into(),
            ty: VmType::TensorReal,
        }
    }

    /// A packed integer array parameter.
    pub fn tensor_int(name: &str) -> Self {
        ArgSpec {
            name: name.into(),
            ty: VmType::TensorInt,
        }
    }

    /// Derives the spec list from a new-compiler `Function[{Typed[...]},
    /// body]` expression, for running one program through both compiler
    /// generations (the difftest oracle and the serve bytecode tier).
    ///
    /// # Errors
    ///
    /// Returns a message for parameter forms outside the bytecode
    /// compiler's fixed datatype set (limitation L1).
    pub fn from_function(func: &Expr) -> Result<Vec<ArgSpec>, String> {
        let params = func
            .args()
            .first()
            .filter(|p| p.has_head("List"))
            .ok_or("function has no parameter list")?;
        params
            .args()
            .iter()
            .map(|p| {
                if !(p.has_head("Typed") && p.length() == 2) {
                    return Err(format!("parameter {} is not Typed", p.to_input_form()));
                }
                let name = p.args()[0]
                    .as_symbol()
                    .ok_or_else(|| format!("parameter name {}", p.args()[0].to_input_form()))?
                    .name()
                    .to_owned();
                let spec = &p.args()[1];
                if let Some(s) = spec.as_str() {
                    return match s {
                        "MachineInteger" | "Integer64" => Ok(ArgSpec::int(&name)),
                        "Real64" => Ok(ArgSpec::real(&name)),
                        other => Err(format!("unsupported parameter type {other:?}")),
                    };
                }
                // "Tensor"[elem, 1]
                if spec.head().as_str() == Some("Tensor") && spec.length() == 2 {
                    return match spec.args()[0].as_str() {
                        Some("Integer64") | Some("MachineInteger") => {
                            Ok(ArgSpec::tensor_int(&name))
                        }
                        Some("Real64") => Ok(ArgSpec::tensor_real(&name)),
                        _ => Err(format!(
                            "unsupported tensor element {}",
                            spec.to_input_form()
                        )),
                    };
                }
                Err(format!(
                    "unsupported parameter spec {}",
                    spec.to_input_form()
                ))
            })
            .collect()
    }
}

/// Compilation failure: the function cannot be represented at all
/// (limitation L1). Per-expression gaps become interpreter escapes instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A datatype outside the fixed set (strings, function values,
    /// symbolic expressions) appears in a position that must be typed.
    Unsupported(String),
    /// Malformed input.
    Malformed(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Unsupported(what) => {
                write!(f, "the bytecode compiler cannot represent {what}")
            }
            CompileError::Malformed(what) => write!(f, "malformed input: {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The legacy compiler.
#[derive(Debug, Clone, Default)]
pub struct BytecodeCompiler {}

impl BytecodeCompiler {
    /// A compiler with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `Compile[{{x, _Integer}, ...}, body]`-style input.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_compile_expr(&self, e: &Expr) -> Result<CompiledFunction, CompileError> {
        if !e.has_head("Compile") || e.length() < 2 {
            return Err(CompileError::Malformed(
                "expected Compile[args, body]".into(),
            ));
        }
        let args_e = &e.args()[0];
        let body = &e.args()[1];
        let mut specs = Vec::new();
        for spec in args_e.args() {
            // {x, _Integer} or bare x (defaults to Real).
            if let Some(s) = spec.as_symbol() {
                specs.push(ArgSpec::real(s.name()));
                continue;
            }
            if spec.has_head("List") && !spec.args().is_empty() {
                let name = spec.args()[0]
                    .as_symbol()
                    .ok_or_else(|| CompileError::Malformed("argument name".into()))?;
                let ty = match spec.args().get(1) {
                    None => VmType::Real,
                    Some(b) if b.has_head("Blank") => {
                        match b
                            .args()
                            .first()
                            .and_then(Expr::as_symbol)
                            .as_ref()
                            .map(|s| s.name().to_owned())
                            .as_deref()
                        {
                            Some("Integer") => VmType::Int,
                            Some("Real") | None => VmType::Real,
                            Some("Complex") => VmType::Complex,
                            Some(other) => {
                                return Err(CompileError::Unsupported(format!(
                                    "the datatype _{other}"
                                )))
                            }
                        }
                    }
                    Some(_) => VmType::Real,
                };
                // Rank spec {x, _Real, 1} makes it a tensor.
                let ty = match spec.args().get(2).and_then(Expr::as_i64) {
                    Some(1) => match ty {
                        VmType::Int => VmType::TensorInt,
                        VmType::Complex => VmType::TensorComplex,
                        _ => VmType::TensorReal,
                    },
                    Some(2) => match ty {
                        VmType::Int => VmType::TensorInt,
                        _ => VmType::TensorReal,
                    },
                    _ => ty,
                };
                specs.push(ArgSpec {
                    name: name.name().into(),
                    ty,
                });
                continue;
            }
            return Err(CompileError::Malformed(format!(
                "argument spec {}",
                spec.to_input_form()
            )));
        }
        self.compile(&specs, body)
    }

    /// Compiles a new-compiler `Function[{Typed[...], ...}, body]`
    /// expression: the one door from a served or streamed program to this
    /// tier.
    ///
    /// # Errors
    ///
    /// A message when `func` is not a `Function` with a body, a parameter
    /// is outside [`ArgSpec::from_function`]'s datatype set, or the body
    /// fails [`BytecodeCompiler::compile`].
    pub fn compile_function(&self, func: &Expr) -> Result<CompiledFunction, String> {
        if !func.has_head("Function") {
            return Err(format!(
                "expected Function[...], got {}",
                func.head().to_input_form()
            ));
        }
        let specs = ArgSpec::from_function(func)?;
        let body = func.args().get(1).ok_or("function has no body")?;
        self.compile(&specs, body).map_err(|e| e.to_string())
    }

    /// Compiles a body over typed arguments.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]. Function values anywhere in the body are a
    /// hard error: "Function passing cannot be represented in the bytecode
    /// compiler" (§6).
    pub fn compile(&self, args: &[ArgSpec], body: &Expr) -> Result<CompiledFunction, CompileError> {
        // L1: reject programs that require function values.
        if uses_function_values(body) {
            return Err(CompileError::Unsupported(
                "function values (the bytecode compiler has no function types)".into(),
            ));
        }
        if body.as_str().is_some() || body.contains(&mut |e| e.as_str().is_some()) {
            return Err(CompileError::Unsupported("strings".into()));
        }
        let mut ctx = Ctx::new();
        for (ix, spec) in args.iter().enumerate() {
            ctx.locals.insert(spec.name.clone(), (ix as Reg, spec.ty));
        }
        ctx.nregs = args.len() as u32;
        let (result, _ty) = ctx.expr(body)?;
        ctx.ops.push(Op::Return { s: result });
        Ok(CompiledFunction {
            compiler_version: 11,
            engine_version: 12,
            flags: 5468,
            arg_specs: args.to_vec(),
            ops: ctx.ops,
            nregs: ctx.nregs as usize,
            original: body.clone(),
        })
    }
}

/// Detects first-class function use: a `Function[...]`, `Sin`-style bare
/// function symbol in value position is approximated by checking for
/// `Function` heads used as data.
fn uses_function_values(e: &Expr) -> bool {
    let mut found = false;
    wolfram_expr::walk(e, &mut |node| {
        if node.has_head("Function") {
            found = true;
            return wolfram_expr::VisitAction::Stop;
        }
        wolfram_expr::VisitAction::Descend
    });
    found
}

struct LoopFrame {
    break_patches: Vec<usize>,
    continue_target: Option<usize>,
    continue_patches: Vec<usize>,
}

struct Ctx {
    ops: Vec<Op>,
    nregs: u32,
    locals: HashMap<String, (Reg, VmType)>,
    loops: Vec<LoopFrame>,
}

impl Ctx {
    fn new() -> Self {
        Ctx {
            ops: Vec::new(),
            nregs: 0,
            locals: HashMap::new(),
            loops: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = self.nregs as Reg;
        self.nregs += 1;
        r
    }

    fn emit(&mut self, op: Op) {
        self.ops.push(op);
    }

    fn here(&self) -> usize {
        self.ops.len()
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.ops[at] {
            Op::Jump { pc } | Op::JumpIfFalse { pc, .. } => *pc = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn load_const(&mut self, v: Value, ty: VmType) -> (Reg, VmType) {
        let d = self.fresh();
        self.emit(Op::LoadConst { d, c: v });
        (d, ty)
    }

    /// The interpreter escape for unsupported expressions (§2.2). Result
    /// type is unknown, so it "is assumed to be a Real".
    fn eval_escape(&mut self, e: &Expr) -> (Reg, VmType) {
        let d = self.fresh();
        let env: Vec<(String, Reg)> = self
            .locals
            .iter()
            .map(|(name, (reg, _))| (name.clone(), *reg))
            .collect();
        self.emit(Op::Eval {
            d,
            expr: e.clone(),
            env,
        });
        (d, VmType::Real)
    }

    fn expr(&mut self, e: &Expr) -> Result<(Reg, VmType), CompileError> {
        match e.kind() {
            ExprKind::Integer(v) => Ok(self.load_const(Value::I64(*v), VmType::Int)),
            ExprKind::Real(v) => Ok(self.load_const(Value::F64(*v), VmType::Real)),
            ExprKind::Complex(re, im) => {
                Ok(self.load_const(Value::Complex(*re, *im), VmType::Complex))
            }
            ExprKind::BigInteger(_) => Err(CompileError::Unsupported(
                "arbitrary-precision integers".into(),
            )),
            ExprKind::Str(_) => Err(CompileError::Unsupported("strings".into())),
            ExprKind::Symbol(s) => match s.name() {
                "True" => Ok(self.load_const(Value::Bool(true), VmType::Bool)),
                "False" => Ok(self.load_const(Value::Bool(false), VmType::Bool)),
                "Pi" => Ok(self.load_const(Value::F64(std::f64::consts::PI), VmType::Real)),
                "E" => Ok(self.load_const(Value::F64(std::f64::consts::E), VmType::Real)),
                "Null" => Ok(self.load_const(Value::Null, VmType::Real)),
                name => match self.locals.get(name) {
                    Some(&(reg, ty)) => Ok((reg, ty)),
                    None => Ok(self.eval_escape(e)),
                },
            },
            ExprKind::Normal(_) => self.normal(e),
        }
    }

    fn normal(&mut self, e: &Expr) -> Result<(Reg, VmType), CompileError> {
        let head = e.head();
        let Some(hs) = head.as_symbol() else {
            return Ok(self.eval_escape(e));
        };
        let args = e.args();
        match (hs.name(), args.len()) {
            ("Plus", _) => self.nary(BinOp::Add, args),
            ("Times", _) => self.nary(BinOp::Mul, args),
            ("Subtract", 2) => self.binary(BinOp::Sub, &args[0], &args[1]),
            ("Divide", 2) => self.binary(BinOp::Div, &args[0], &args[1]),
            ("Power", 2) => self.binary(BinOp::Pow, &args[0], &args[1]),
            ("Mod", 2) => self.binary(BinOp::Mod, &args[0], &args[1]),
            ("Quotient", 2) => self.binary(BinOp::Quot, &args[0], &args[1]),
            ("Min", 2) => self.binary(BinOp::Min, &args[0], &args[1]),
            ("Max", 2) => self.binary(BinOp::Max, &args[0], &args[1]),
            ("Minus", 1) => self.unary(UnOp::Neg, &args[0]),
            ("Abs", 1) => self.unary(UnOp::Abs, &args[0]),
            ("Sqrt", 1) => self.unary(UnOp::Sqrt, &args[0]),
            ("Sin", 1) => self.unary(UnOp::Sin, &args[0]),
            ("Cos", 1) => self.unary(UnOp::Cos, &args[0]),
            ("Tan", 1) => self.unary(UnOp::Tan, &args[0]),
            ("Exp", 1) => self.unary(UnOp::Exp, &args[0]),
            ("Log", 1) => self.unary(UnOp::Log, &args[0]),
            ("Floor", 1) => self.unary(UnOp::Floor, &args[0]),
            ("Ceiling", 1) => self.unary(UnOp::Ceiling, &args[0]),
            ("Round", 1) => self.unary(UnOp::Round, &args[0]),
            ("Re", 1) => self.unary(UnOp::Re, &args[0]),
            ("Im", 1) => self.unary(UnOp::Im, &args[0]),
            ("Not", 1) => self.unary(UnOp::Not, &args[0]),
            ("Complex", 2) => {
                let (re, _) = self.expr(&args[0])?;
                let (im, _) = self.expr(&args[1])?;
                let d = self.fresh();
                self.emit(Op::ComplexMake { d, re, im });
                Ok((d, VmType::Complex))
            }
            ("Less", _) => self.compare(CmpOp::Lt, args),
            ("LessEqual", _) => self.compare(CmpOp::Le, args),
            ("Greater", _) => self.compare(CmpOp::Gt, args),
            ("GreaterEqual", _) => self.compare(CmpOp::Ge, args),
            ("Equal", _) => self.compare(CmpOp::Eq, args),
            ("Unequal", 2) => self.compare(CmpOp::Ne, args),
            ("And", _) => self.short_circuit(args, true),
            ("Or", _) => self.short_circuit(args, false),
            ("If", 2) | ("If", 3) => self.if_expr(args),
            ("While", 1) | ("While", 2) => self.while_expr(args),
            ("For", 3) | ("For", 4) => self.for_expr(args),
            ("Do", 2) => self.do_expr(args),
            ("CompoundExpression", _) => {
                let mut last = self.load_const(Value::Null, VmType::Real);
                for a in args {
                    last = self.expr(a)?;
                }
                Ok(last)
            }
            ("Module", 2) | ("Block", 2) => self.module(args),
            ("Set", 2) => self.set(&args[0], &args[1]),
            ("Increment", 1) | ("Decrement", 1) | ("PreIncrement", 1) | ("PreDecrement", 1) => {
                let delta = if hs.name().contains("De") { -1 } else { 1 };
                let pre = hs.name().starts_with("Pre");
                self.step_assign(&args[0], delta, pre)
            }
            ("AddTo", 2) => self.op_assign(BinOp::Add, &args[0], &args[1]),
            ("SubtractFrom", 2) => self.op_assign(BinOp::Sub, &args[0], &args[1]),
            ("TimesBy", 2) => self.op_assign(BinOp::Mul, &args[0], &args[1]),
            ("DivideBy", 2) => self.op_assign(BinOp::Div, &args[0], &args[1]),
            ("Part", 2) => {
                let (t, tty) = self.expr(&args[0])?;
                let (i, _) = self.expr(&args[1])?;
                let d = self.fresh();
                self.emit(Op::Part1 { d, t, i });
                Ok((d, element_type(tty)))
            }
            ("Part", 3) => {
                let (t, tty) = self.expr(&args[0])?;
                let (i, _) = self.expr(&args[1])?;
                let (j, _) = self.expr(&args[2])?;
                let d = self.fresh();
                self.emit(Op::Part2 { d, t, i, j });
                Ok((d, element_type(tty)))
            }
            ("Length", 1) => {
                let (t, _) = self.expr(&args[0])?;
                let d = self.fresh();
                self.emit(Op::Length { d, s: t });
                Ok((d, VmType::Int))
            }
            ("ConstantArray", 2) => {
                let (c, cty) = self.expr(&args[0])?;
                let spec = &args[1];
                let (n1, n2) = if spec.has_head("List") {
                    match spec.args() {
                        [a] => (self.expr(a)?.0, None),
                        [a, b] => {
                            let r1 = self.expr(a)?.0;
                            let r2 = self.expr(b)?.0;
                            (r1, Some(r2))
                        }
                        _ => return Ok(self.eval_escape(e)),
                    }
                } else {
                    (self.expr(spec)?.0, None)
                };
                let d = self.fresh();
                self.emit(Op::ConstArray { d, c, n1, n2 });
                Ok((d, tensor_of(cty)))
            }
            ("Dot", 2) => {
                let (a, aty) = self.expr(&args[0])?;
                let (b, _) = self.expr(&args[1])?;
                let d = self.fresh();
                self.emit(Op::Dot { d, a, b });
                Ok((d, aty))
            }
            ("BitAnd", 2) => self.binary(BinOp::BitAnd, &args[0], &args[1]),
            ("BitOr", 2) => self.binary(BinOp::BitOr, &args[0], &args[1]),
            ("BitXor", 2) => self.binary(BinOp::BitXor, &args[0], &args[1]),
            ("List", _) => {
                // Literal numeric lists load as packed constant tensors
                // (the PrimeQ seed table was "pasted into" the legacy
                // implementations too).
                if let Some(ints) = args
                    .iter()
                    .map(wolfram_expr::Expr::as_i64)
                    .collect::<Option<Vec<i64>>>()
                {
                    let d = self.fresh();
                    self.emit(Op::LoadConst {
                        d,
                        c: Value::Tensor(wolfram_runtime::Tensor::from_i64(ints)),
                    });
                    return Ok((d, VmType::TensorInt));
                }
                if let Some(reals) = args
                    .iter()
                    .map(wolfram_expr::Expr::as_f64)
                    .collect::<Option<Vec<f64>>>()
                {
                    let d = self.fresh();
                    self.emit(Op::LoadConst {
                        d,
                        c: Value::Tensor(wolfram_runtime::Tensor::from_f64(reals)),
                    });
                    return Ok((d, VmType::TensorReal));
                }
                Ok(self.eval_escape(e))
            }
            ("RandomReal", 0) => {
                let d = self.fresh();
                self.emit(Op::RandomReal {
                    d,
                    lo: None,
                    hi: None,
                });
                Ok((d, VmType::Real))
            }
            ("RandomReal", 1) if args[0].has_head("List") && args[0].length() == 2 => {
                let (lo, _) = self.expr(&args[0].args()[0])?;
                let (hi, _) = self.expr(&args[0].args()[1])?;
                let d = self.fresh();
                self.emit(Op::RandomReal {
                    d,
                    lo: Some(lo),
                    hi: Some(hi),
                });
                Ok((d, VmType::Real))
            }
            ("Break", 0) => {
                let at = self.here();
                self.emit(Op::Jump { pc: usize::MAX });
                match self.loops.last_mut() {
                    Some(frame) => frame.break_patches.push(at),
                    None => return Err(CompileError::Malformed("Break[] outside a loop".into())),
                }
                Ok(self.load_const(Value::Null, VmType::Real))
            }
            ("Continue", 0) => {
                let at = self.here();
                self.emit(Op::Jump { pc: usize::MAX });
                match self.loops.last_mut() {
                    Some(frame) => match frame.continue_target {
                        Some(t) => self.patch_jump(at, t),
                        None => frame.continue_patches.push(at),
                    },
                    None => {
                        return Err(CompileError::Malformed("Continue[] outside a loop".into()))
                    }
                }
                Ok(self.load_const(Value::Null, VmType::Real))
            }
            ("Return", 1) => {
                let (r, ty) = self.expr(&args[0])?;
                self.emit(Op::Return { s: r });
                Ok((r, ty))
            }
            // Everything else escapes to the interpreter at run time.
            _ => Ok(self.eval_escape(e)),
        }
    }

    fn nary(&mut self, op: BinOp, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        let mut iter = args.iter();
        let Some(first) = iter.next() else {
            return Ok(self.load_const(
                Value::I64(if op == BinOp::Mul { 1 } else { 0 }),
                VmType::Int,
            ));
        };
        let (mut acc, mut ty) = self.expr(first)?;
        for a in iter {
            let (r, rty) = self.expr(a)?;
            let d = self.fresh();
            self.emit(Op::Bin {
                op,
                d,
                a: acc,
                b: r,
            });
            acc = d;
            ty = ty.join(rty);
        }
        Ok((acc, ty))
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<(Reg, VmType), CompileError> {
        let (ra, ta) = self.expr(a)?;
        let (rb, tb) = self.expr(b)?;
        let d = self.fresh();
        self.emit(Op::Bin {
            op,
            d,
            a: ra,
            b: rb,
        });
        Ok((
            d,
            if op == BinOp::Div {
                VmType::Real
            } else {
                ta.join(tb)
            },
        ))
    }

    fn unary(&mut self, op: UnOp, a: &Expr) -> Result<(Reg, VmType), CompileError> {
        let (r, ty) = self.expr(a)?;
        let d = self.fresh();
        self.emit(Op::Un { op, d, s: r });
        let out_ty = match op {
            UnOp::Not => VmType::Bool,
            UnOp::Floor | UnOp::Ceiling | UnOp::Round => VmType::Int,
            UnOp::Abs | UnOp::Re | UnOp::Im => {
                if ty == VmType::Int {
                    VmType::Int
                } else {
                    VmType::Real
                }
            }
            UnOp::Neg => ty,
            _ => VmType::Real,
        };
        Ok((d, out_ty))
    }

    fn compare(&mut self, op: CmpOp, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        if args.len() < 2 {
            return Ok(self.load_const(Value::Bool(true), VmType::Bool));
        }
        // Chains: a < b < c => (a<b) && (b<c).
        let mut result: Option<Reg> = None;
        let mut prev = self.expr(&args[0])?.0;
        for a in &args[1..] {
            let (cur, _) = self.expr(a)?;
            let d = self.fresh();
            self.emit(Op::Cmp {
                op,
                d,
                a: prev,
                b: cur,
            });
            result = Some(match result {
                None => d,
                Some(acc) => {
                    // acc && d via a tiny dispatch-free min (both bools).
                    let combined = self.fresh();
                    self.emit(Op::Bin {
                        op: BinOp::Min,
                        d: combined,
                        a: acc,
                        b: d,
                    });
                    combined
                }
            });
            prev = cur;
        }
        Ok((result.expect("len checked"), VmType::Bool))
    }

    fn short_circuit(
        &mut self,
        args: &[Expr],
        is_and: bool,
    ) -> Result<(Reg, VmType), CompileError> {
        let d = self.fresh();
        let mut exit_patches = Vec::new();
        for (ix, a) in args.iter().enumerate() {
            let (r, _) = self.expr(a)?;
            self.emit(Op::Move { d, s: r });
            if ix + 1 < args.len() {
                if is_and {
                    // if !r jump out (result already False in d)
                    let at = self.here();
                    self.emit(Op::JumpIfFalse {
                        c: r,
                        pc: usize::MAX,
                    });
                    exit_patches.push(at);
                } else {
                    // if r jump out: emulate with Not + JumpIfFalse.
                    let n = self.fresh();
                    self.emit(Op::Un {
                        op: UnOp::Not,
                        d: n,
                        s: r,
                    });
                    let at = self.here();
                    self.emit(Op::JumpIfFalse {
                        c: n,
                        pc: usize::MAX,
                    });
                    exit_patches.push(at);
                }
            }
        }
        let end = self.here();
        for at in exit_patches {
            self.patch_jump(at, end);
        }
        Ok((d, VmType::Bool))
    }

    fn if_expr(&mut self, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        let (c, _) = self.expr(&args[0])?;
        let d = self.fresh();
        let jump_else = self.here();
        self.emit(Op::JumpIfFalse { c, pc: usize::MAX });
        let (t, tty) = self.expr(&args[1])?;
        self.emit(Op::Move { d, s: t });
        let jump_end = self.here();
        self.emit(Op::Jump { pc: usize::MAX });
        let else_start = self.here();
        self.patch_jump(jump_else, else_start);
        let fty = if let Some(fexpr) = args.get(2) {
            let (f, fty) = self.expr(fexpr)?;
            self.emit(Op::Move { d, s: f });
            fty
        } else {
            let (n, nty) = self.load_const(Value::Null, VmType::Real);
            self.emit(Op::Move { d, s: n });
            nty
        };
        let end = self.here();
        self.patch_jump(jump_end, end);
        Ok((d, tty.join(fty)))
    }

    fn while_expr(&mut self, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        let top = self.here();
        self.loops.push(LoopFrame {
            break_patches: Vec::new(),
            continue_target: Some(top),
            continue_patches: Vec::new(),
        });
        let (c, _) = self.expr(&args[0])?;
        let exit_jump = self.here();
        self.emit(Op::JumpIfFalse { c, pc: usize::MAX });
        if let Some(body) = args.get(1) {
            self.expr(body)?;
        }
        self.emit(Op::Jump { pc: top });
        let end = self.here();
        self.patch_jump(exit_jump, end);
        let frame = self.loops.pop().expect("pushed above");
        for at in frame.break_patches {
            self.patch_jump(at, end);
        }
        Ok(self.load_const(Value::Null, VmType::Real))
    }

    fn for_expr(&mut self, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        self.expr(&args[0])?;
        let top = self.here();
        let (c, _) = self.expr(&args[1])?;
        let exit_jump = self.here();
        self.emit(Op::JumpIfFalse { c, pc: usize::MAX });
        self.loops.push(LoopFrame {
            break_patches: Vec::new(),
            continue_target: None,
            continue_patches: Vec::new(),
        });
        if let Some(body) = args.get(3) {
            self.expr(body)?;
        }
        let incr_start = self.here();
        self.expr(&args[2])?;
        self.emit(Op::Jump { pc: top });
        let end = self.here();
        self.patch_jump(exit_jump, end);
        let frame = self.loops.pop().expect("pushed above");
        for at in frame.break_patches {
            self.patch_jump(at, end);
        }
        for at in frame.continue_patches {
            self.patch_jump(at, incr_start);
        }
        Ok(self.load_const(Value::Null, VmType::Real))
    }

    fn do_expr(&mut self, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        // Do[body, {i, a, b}] desugars to a For loop.
        let spec = &args[1];
        if !spec.has_head("List") {
            return Ok(self.eval_escape(&Expr::call("Do", args.to_vec())));
        }
        let (var, lo, hi) = match spec.args() {
            [v, n] => (v.clone(), Expr::int(1), n.clone()),
            [v, a, b] => (v.clone(), a.clone(), b.clone()),
            _ => return Ok(self.eval_escape(&Expr::call("Do", args.to_vec()))),
        };
        let for_equiv = Expr::call(
            "For",
            [
                Expr::call("Set", [var.clone(), lo]),
                Expr::call("LessEqual", [var.clone(), hi]),
                Expr::call(
                    "Set",
                    [var.clone(), Expr::call("Plus", [var, Expr::int(1)])],
                ),
                args[0].clone(),
            ],
        );
        self.expr(&for_equiv)
    }

    fn module(&mut self, args: &[Expr]) -> Result<(Reg, VmType), CompileError> {
        let vars = &args[0];
        if !vars.has_head("List") {
            return Err(CompileError::Malformed("Module variable list".into()));
        }
        let mut saved = Vec::new();
        for spec in vars.args() {
            let (name, init) = if let Some(s) = spec.as_symbol() {
                (s.name().to_owned(), None)
            } else if spec.has_head("Set") && spec.length() == 2 {
                let s = spec.args()[0]
                    .as_symbol()
                    .ok_or_else(|| CompileError::Malformed("Module variable".into()))?;
                (s.name().to_owned(), Some(spec.args()[1].clone()))
            } else {
                return Err(CompileError::Malformed("Module variable".into()));
            };
            saved.push((name.clone(), self.locals.get(&name).copied()));
            let (reg, ty) = match init {
                Some(init) => self.expr(&init)?,
                None => self.load_const(Value::Null, VmType::Real),
            };
            // Allocate a dedicated register so later Sets are in place.
            let slot = self.fresh();
            self.emit(Op::Move { d: slot, s: reg });
            self.locals.insert(name, (slot, ty));
        }
        let result = self.expr(&args[1])?;
        for (name, old) in saved {
            match old {
                Some(v) => {
                    self.locals.insert(name, v);
                }
                None => {
                    self.locals.remove(&name);
                }
            }
        }
        Ok(result)
    }

    fn set(&mut self, lhs: &Expr, rhs: &Expr) -> Result<(Reg, VmType), CompileError> {
        if let Some(s) = lhs.as_symbol() {
            let (r, ty) = self.expr(rhs)?;
            match self.locals.get(s.name()).copied() {
                Some((slot, old_ty)) => {
                    self.emit(Op::Move { d: slot, s: r });
                    let joined = old_ty.join(ty);
                    self.locals.insert(s.name().into(), (slot, joined));
                    Ok((slot, joined))
                }
                None => {
                    let slot = self.fresh();
                    self.emit(Op::Move { d: slot, s: r });
                    self.locals.insert(s.name().into(), (slot, ty));
                    Ok((slot, ty))
                }
            }
        } else if lhs.has_head("Part") {
            let base = &lhs.args()[0];
            let Some(base_sym) = base.as_symbol() else {
                return Err(CompileError::Malformed("Part assignment base".into()));
            };
            let Some(&(t, tty)) = self.locals.get(base_sym.name()) else {
                return Err(CompileError::Malformed(format!(
                    "Part assignment to unknown variable {base_sym}"
                )));
            };
            let (v, _) = self.expr(rhs)?;
            match lhs.args() {
                [_, i] => {
                    let (i, _) = self.expr(i)?;
                    self.emit(Op::SetPart1 { t, i, v });
                }
                [_, i, j] => {
                    let (i, _) = self.expr(i)?;
                    let (j, _) = self.expr(j)?;
                    self.emit(Op::SetPart2 { t, i, j, v });
                }
                _ => return Err(CompileError::Malformed("Part assignment arity".into())),
            }
            Ok((v, element_type(tty)))
        } else {
            Err(CompileError::Malformed(format!(
                "cannot assign to {}",
                lhs.to_input_form()
            )))
        }
    }

    fn step_assign(
        &mut self,
        lhs: &Expr,
        delta: i64,
        pre: bool,
    ) -> Result<(Reg, VmType), CompileError> {
        let Some(s) = lhs.as_symbol() else {
            return Err(CompileError::Malformed("Increment target".into()));
        };
        let Some(&(slot, ty)) = self.locals.get(s.name()) else {
            return Err(CompileError::Malformed(format!("Increment of unknown {s}")));
        };
        let old = self.fresh();
        self.emit(Op::Move { d: old, s: slot });
        let (one, _) = self.load_const(Value::I64(delta), VmType::Int);
        let sum = self.fresh();
        self.emit(Op::Bin {
            op: BinOp::Add,
            d: sum,
            a: slot,
            b: one,
        });
        self.emit(Op::Move { d: slot, s: sum });
        Ok((if pre { slot } else { old }, ty))
    }

    fn op_assign(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<(Reg, VmType), CompileError> {
        let Some(s) = lhs.as_symbol() else {
            return Err(CompileError::Malformed("compound assignment target".into()));
        };
        let Some(&(slot, ty)) = self.locals.get(s.name()) else {
            return Err(CompileError::Malformed(format!(
                "assignment to unknown {s}"
            )));
        };
        let (r, rty) = self.expr(rhs)?;
        let d = self.fresh();
        self.emit(Op::Bin {
            op,
            d,
            a: slot,
            b: r,
        });
        self.emit(Op::Move { d: slot, s: d });
        let joined = ty.join(rty);
        self.locals.insert(s.name().into(), (slot, joined));
        Ok((slot, joined))
    }
}

fn element_type(t: VmType) -> VmType {
    match t {
        VmType::TensorInt => VmType::Int,
        VmType::TensorReal => VmType::Real,
        VmType::TensorComplex => VmType::Complex,
        other => other,
    }
}

fn tensor_of(t: VmType) -> VmType {
    match t {
        VmType::Int => VmType::TensorInt,
        VmType::Complex => VmType::TensorComplex,
        _ => VmType::TensorReal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;
    use wolfram_runtime::Value;

    fn run(specs: &[ArgSpec], src: &str, args: &[Value]) -> Value {
        let cf = BytecodeCompiler::new()
            .compile(specs, &parse(src).unwrap())
            .unwrap();
        cf.run(args).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run(&[ArgSpec::int("x")], "x^2 + 1", &[Value::I64(6)]),
            Value::I64(37)
        );
        assert_eq!(
            run(&[ArgSpec::real("x")], "Sin[x]", &[Value::F64(0.0)]),
            Value::F64(0.0)
        );
        assert_eq!(run(&[], "Min[3, 7]", &[]), Value::I64(3));
    }

    #[test]
    fn control_flow() {
        let src = "If[x > 0, x, -x]";
        assert_eq!(
            run(&[ArgSpec::int("x")], src, &[Value::I64(-5)]),
            Value::I64(5)
        );
        let src = "Module[{s = 0, i = 1}, While[i <= n, s = s + i; i++]; s]";
        assert_eq!(
            run(&[ArgSpec::int("n")], src, &[Value::I64(100)]),
            Value::I64(5050)
        );
        let src = "Module[{s = 0}, Do[s += k, {k, 1, 10}]; s]";
        assert_eq!(run(&[], src, &[]), Value::I64(55));
    }

    #[test]
    fn loops_with_break() {
        let src = "Module[{i = 0}, While[True, If[i > 3, Break[]]; i++]; i]";
        assert_eq!(run(&[], src, &[]), Value::I64(4));
    }

    #[test]
    fn tensors() {
        let src = "v[[2]] + v[[-1]]";
        let t = Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![10, 20, 30]));
        assert_eq!(run(&[ArgSpec::tensor_int("v")], src, &[t]), Value::I64(50));
        let src = "Module[{b = ConstantArray[0, 3]}, b[[1]] = 7; b[[1]] + Length[b]]";
        assert_eq!(run(&[], src, &[]), Value::I64(10));
    }

    #[test]
    fn type_propagation_defaults_to_real() {
        let cf = BytecodeCompiler::new()
            .compile(&[], &parse("Floor[2.5] + 1").unwrap())
            .unwrap();
        assert_eq!(cf.run(&[]).unwrap(), Value::I64(3));
    }

    #[test]
    fn unsupported_datatypes_rejected() {
        // Strings cannot be represented (L1): the FNV1a workaround exists
        // because of exactly this.
        let err = BytecodeCompiler::new()
            .compile(&[], &parse("StringLength[\"abc\"]").unwrap())
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported(_)));
        // Function values cannot be represented: QSort's comparator.
        let err = BytecodeCompiler::new()
            .compile(&[], &parse("f = Function[{a, b}, a < b]; f[1, 2]").unwrap())
            .unwrap_err();
        assert!(matches!(err, CompileError::Unsupported(_)));
    }

    #[test]
    fn unsupported_expressions_escape_to_interpreter() {
        // Fibonacci via an interpreter escape for the unsupported symbol.
        let cf = BytecodeCompiler::new()
            .compile(&[ArgSpec::int("n")], &parse("n + unknownGlobal").unwrap())
            .unwrap();
        assert!(cf.ops.iter().any(|op| matches!(op, Op::Eval { .. })));
        let mut engine = wolfram_interp::Interpreter::new();
        engine.eval_src("unknownGlobal = 100").unwrap();
        let out = cf.run_with_engine(&[Value::I64(1)], &mut engine).unwrap();
        assert_eq!(out, Value::I64(101));
    }

    #[test]
    fn compile_expr_form() {
        let e = parse("Compile[{{x, _Real}}, Sin[x] + E^x]").unwrap();
        let cf = BytecodeCompiler::new().compile_compile_expr(&e).unwrap();
        let out = cf.run(&[Value::F64(0.0)]).unwrap();
        assert_eq!(out, Value::F64(1.0));
        assert_eq!(cf.arg_specs[0].ty, VmType::Real);
    }

    #[test]
    fn and_or_short_circuit() {
        assert_eq!(
            run(&[ArgSpec::int("x")], "x > 0 && x < 10", &[Value::I64(5)]),
            Value::Bool(true)
        );
        assert_eq!(
            run(&[ArgSpec::int("x")], "x > 0 && x < 10", &[Value::I64(-1)]),
            Value::Bool(false)
        );
        assert_eq!(
            run(&[ArgSpec::int("x")], "x < 0 || x > 10", &[Value::I64(11)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn comparison_chains() {
        assert_eq!(
            run(&[ArgSpec::int("x")], "0 < x < 10", &[Value::I64(5)]),
            Value::Bool(true)
        );
        assert_eq!(
            run(&[ArgSpec::int("x")], "0 < x < 10", &[Value::I64(15)]),
            Value::Bool(false)
        );
    }

    #[test]
    fn compile_function_is_the_door_from_function_exprs() {
        let bc = BytecodeCompiler::new();
        let door = |src: &str| bc.compile_function(&parse(src).unwrap());
        let cf = door(r#"Function[{Typed[a, "MachineInteger"], Typed[x, "Real64"]}, a * x + 1.]"#)
            .unwrap();
        assert_eq!(
            cf.run(&[Value::I64(3), Value::F64(0.5)]).unwrap(),
            Value::F64(2.5)
        );
        assert!(door("Function[{x}]").is_err());
        assert_eq!(
            door(r#"Function[{Typed[x, "Real64"]}]"#).unwrap_err(),
            "function has no body"
        );
        assert!(door(r#"Compile[{Typed[x, "Real64"]}, x]"#)
            .unwrap_err()
            .starts_with("expected Function[...]"));
    }
}
