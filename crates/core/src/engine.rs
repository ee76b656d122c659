//! `CompiledCodeFunction` (§4.5): the auxiliary boxing/unboxing wrapper
//! (F1), soft numeric failure with interpreter re-run (F2), abortability
//! (F3), and seamless installation into a hosting engine.
//!
//! There is one way into compiled code. [`CompiledCodeFunction::call`]
//! (runtime values), [`CompiledCodeFunction::call_exprs`] (expressions) and
//! the function [`CompiledCodeFunction::install`] registers each decode
//! their arguments and hand them to one private `enter`, which owns the
//! machine borrow and the F2 fallback; the machine stores the decoded
//! arguments straight into a pooled frame. What depends only on the
//! signature — the [`ParamPlan`] per parameter, the abort signal the
//! machine checks — is worked out when the function is built, not per call.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use wolfram_codegen::lower::result_to_value;
use wolfram_codegen::{ArgVal, Bank, Machine, NativeProgram};
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_ir::ProgramModule;
use wolfram_runtime::value::expr_to_tensor;
use wolfram_runtime::{AbortSignal, RuntimeError, Tensor, Value};
use wolfram_types::Type;

/// A compiled Wolfram function: "To the Wolfram interpreter, all functions
/// have the signature `{"Expression"} -> "Expression"`. Therefore, the
/// compiler wraps each compiled function with an auxiliary function" that
/// unpacks, checks, calls, and repacks.
#[derive(Clone)]
pub struct CompiledCodeFunction {
    /// The original input function (kept for fallback and re-export, like
    /// the legacy `CompiledFunction`).
    pub original: Expr,
    /// The TWIR module (inspectable; feeds the textual backends).
    pub module: Arc<ProgramModule>,
    /// The executable program.
    pub program: Arc<NativeProgram>,
    /// Checked parameter types.
    pub param_types: Vec<Type>,
    /// The return type.
    pub return_type: Type,
    /// The hosting engine, if any (enables kernel escapes, symbolic ops,
    /// and the soft-failure fallback).
    pub engine: Option<Rc<RefCell<Interpreter>>>,
    /// Standalone mode (F10): engine-dependent functionality is disabled.
    pub standalone: bool,
    /// The abort signal compiled code checks: a private one, or the hosting
    /// engine's once [`CompiledCodeFunction::hosted`]. Trigger it; replacing
    /// it does nothing, the machine was bound to it when it was made.
    pub abort: AbortSignal,
    /// One decode plan per parameter, shared with the artifact.
    plans: Arc<[ParamPlan]>,
    /// A cached execution machine (frame pool reuse across calls); falls
    /// back to a fresh machine on re-entrant calls.
    machine: Rc<RefCell<Machine>>,
}

impl std::fmt::Debug for CompiledCodeFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledCodeFunction[{} -> {}]",
            self.param_types
                .iter()
                .map(Type::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.return_type
        )
    }
}

/// The immutable, shareable product of one compilation: everything in a
/// [`CompiledCodeFunction`] *except* the thread-confined execution state
/// (hosting engine, abort signal, machine).
///
/// This is the `Send + Sync` handle a serving layer caches and hands
/// across threads — one compilation is observed by every worker, which
/// rebinds it locally with [`CompiledArtifact::instantiate`] (or
/// [`CompiledArtifact::instantiate_hosted`] to attach an engine). The
/// compiled payload (`ProgramModule`, `NativeProgram`, embedded constant
/// `Value`s, the parameter decode plans) is never copied: instantiation is
/// three `Arc` bumps plus a fresh machine.
#[derive(Clone)]
pub struct CompiledArtifact {
    /// The original input function.
    pub original: Expr,
    /// The TWIR module.
    pub module: Arc<ProgramModule>,
    /// The executable program.
    pub program: Arc<NativeProgram>,
    /// Checked parameter types.
    pub param_types: Vec<Type>,
    /// The return type.
    pub return_type: Type,
    plans: Arc<[ParamPlan]>,
}

impl std::fmt::Debug for CompiledArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledArtifact[{} -> {}]",
            self.param_types
                .iter()
                .map(Type::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            self.return_type
        )
    }
}

impl CompiledArtifact {
    /// Rebinds the artifact to the calling thread as a standalone
    /// function (fresh abort signal, fresh machine, no engine).
    pub fn instantiate(&self) -> CompiledCodeFunction {
        let abort = AbortSignal::new();
        CompiledCodeFunction {
            original: self.original.clone(),
            module: Arc::clone(&self.module),
            program: Arc::clone(&self.program),
            param_types: self.param_types.clone(),
            return_type: self.return_type.clone(),
            engine: None,
            standalone: false,
            machine: Rc::new(RefCell::new(machine_on(&abort))),
            abort,
            plans: Arc::clone(&self.plans),
        }
    }

    /// Rebinds the artifact to the calling thread, hosted in `engine`
    /// (kernel escapes, soft-failure fallback, shared abort signal).
    pub fn instantiate_hosted(&self, engine: Rc<RefCell<Interpreter>>) -> CompiledCodeFunction {
        self.instantiate().hosted(engine)
    }
}

// The whole point of the artifact type: it must stay shareable. If this
// stops compiling, something thread-confined (an `Rc`, a `RefCell`)
// leaked back into the post-compilation data.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledArtifact>();
};

/// A machine whose `AbortCheck`s watch `abort`.
fn machine_on(abort: &AbortSignal) -> Machine {
    let mut machine = Machine::standalone();
    machine.abort = abort.clone();
    machine
}

/// How one parameter's [`Value`] arguments are decoded: the part of the
/// boxing rules that depends only on the parameter type, read off it once
/// when the function is built.
#[derive(Debug)]
enum ParamPlan {
    /// A scalar or boxed parameter: the register bank it is stored in.
    Bank(Bank),
    /// A `Tensor[elem, rank]` parameter.
    Tensor(TensorPlan),
    /// A function-typed parameter: function values pass through.
    Arrow,
}

#[derive(Debug)]
struct TensorPlan {
    /// The declared element type, if atomic.
    elem: Option<Arc<str>>,
    /// Integer data is promoted to a `Real64` element type.
    promote_real: bool,
    /// The declared rank, if literal.
    rank: Option<usize>,
}

impl ParamPlan {
    fn new(ty: &Type) -> Self {
        match ty {
            Type::Arrow { .. } => ParamPlan::Arrow,
            Type::Constructor { name, args } if &**name == "Tensor" => {
                let elem = match args.first() {
                    Some(Type::Atomic(n)) => Some(n.clone()),
                    _ => None,
                };
                ParamPlan::Tensor(TensorPlan {
                    promote_real: elem.as_deref() == Some("Real64"),
                    elem,
                    rank: match args.get(1) {
                        Some(Type::Literal(r)) => Some(*r as usize),
                        _ => None,
                    },
                })
            }
            Type::Atomic(n) => ParamPlan::Bank(match &**n {
                "Integer64" | "Integer32" | "Integer16" | "Integer8" | "Boolean" => Bank::I,
                "Real64" | "Real32" => Bank::F,
                "ComplexReal64" => Bank::C,
                _ => Bank::V,
            }),
            _ => ParamPlan::Bank(Bank::V),
        }
    }
}

impl TensorPlan {
    /// The tensor rules, for a list expression and a tensor value alike:
    /// a declared literal rank must match, integer data is promoted to a
    /// `Real64` element type, and the element type must then agree.
    fn fit(&self, t: &Tensor, ty: &Type) -> Result<ArgVal, RuntimeError> {
        if self.rank.is_some_and(|r| r != t.rank()) {
            return Err(mismatch(&format!("rank-{} tensor", t.rank()), ty));
        }
        let t = if self.promote_real {
            t.to_f64_tensor()
        } else {
            t.clone()
        };
        match &self.elem {
            Some(n) if t.data().element_type() != &**n => {
                Err(mismatch(&format!("{} tensor", t.data().element_type()), ty))
            }
            _ => Ok(ArgVal::V(Value::Tensor(t))),
        }
    }
}

fn mismatch(what: &str, ty: &Type) -> RuntimeError {
    RuntimeError::Type(format!(
        "argument {what} does not match parameter type {ty}"
    ))
}

/// How a call ended: in compiled code, or (F2) re-run by the interpreter.
enum Answer {
    Compiled(Value),
    Reran(Expr),
}

impl Answer {
    fn into_value(self) -> Value {
        match self {
            Answer::Compiled(v) => v,
            Answer::Reran(e) => Value::from_expr(&e),
        }
    }

    fn into_expr(self) -> Expr {
        match self {
            Answer::Compiled(v) => v.to_expr(),
            Answer::Reran(e) => e,
        }
    }
}

impl CompiledCodeFunction {
    /// Extracts the shareable (`Send + Sync`) portion: the compiled
    /// payload without this thread's engine/abort/machine bindings.
    pub fn artifact(&self) -> CompiledArtifact {
        CompiledArtifact {
            original: self.original.clone(),
            module: Arc::clone(&self.module),
            program: Arc::clone(&self.program),
            param_types: self.param_types.clone(),
            return_type: self.return_type.clone(),
            plans: Arc::clone(&self.plans),
        }
    }

    /// Wraps a compiled program.
    ///
    /// # Errors
    ///
    /// Reports missing parameter/return types (code generation requires a
    /// fully typed TWIR, §4.6).
    pub fn new(
        original: Expr,
        module: Arc<ProgramModule>,
        program: Arc<NativeProgram>,
    ) -> Result<Self, crate::pipeline::CompileError> {
        let main = module.main();
        let mut param_types = vec![Type::void(); main.arity];
        for i in main.instrs() {
            if let wolfram_ir::Instr::LoadArgument { dst, index } = i {
                if let Some(t) = main.var_type(*dst) {
                    param_types[*index] = t.clone();
                }
            }
        }
        let return_type = main.return_type.clone().unwrap_or_else(Type::void);
        let abort = AbortSignal::new();
        Ok(CompiledCodeFunction {
            original,
            module,
            program,
            plans: param_types.iter().map(ParamPlan::new).collect(),
            param_types,
            return_type,
            engine: None,
            standalone: false,
            machine: Rc::new(RefCell::new(machine_on(&abort))),
            abort,
        })
    }

    /// Attaches a hosting engine: kernel escapes and symbolic operations
    /// work, the abort signal is shared, and runtime numeric errors revert
    /// to uncompiled evaluation (F1/F2/F3).
    pub fn hosted(mut self, engine: Rc<RefCell<Interpreter>>) -> Self {
        self.abort = engine.borrow().abort_signal().clone();
        // A machine of its own: clones of the unhosted function keep theirs.
        self.machine = Rc::new(RefCell::new(machine_on(&self.abort)));
        self.engine = Some(engine);
        self
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.param_types.len()
    }

    /// Unboxes an argument expression against parameter `i`: the boxing
    /// rules (F1), which the [`Value`] route follows through
    /// [`ParamPlan`].
    fn unbox(&self, e: &Expr, i: usize) -> Result<ArgVal, RuntimeError> {
        let ty = &self.param_types[i];
        if let ParamPlan::Tensor(plan) = &self.plans[i] {
            let t = expr_to_tensor(e).ok_or_else(|| mismatch("non-rectangular list", ty))?;
            return plan.fit(&t, ty);
        }
        let type_err = || mismatch(&e.to_input_form(), ty);
        match ty {
            Type::Atomic(name) => match &**name {
                "Integer64" | "Integer32" | "Integer16" | "Integer8" => {
                    e.as_i64().map(ArgVal::I).ok_or_else(type_err)
                }
                "Boolean" => {
                    if e.is_true() {
                        Ok(ArgVal::I(1))
                    } else if e.is_false() {
                        Ok(ArgVal::I(0))
                    } else {
                        Err(type_err())
                    }
                }
                "Real64" | "Real32" => e.as_f64().map(ArgVal::F).ok_or_else(type_err),
                "ComplexReal64" => match e.kind() {
                    wolfram_expr::ExprKind::Complex(re, im) => Ok(ArgVal::C(*re, *im)),
                    _ => e.as_f64().map(|v| ArgVal::C(v, 0.0)).ok_or_else(type_err),
                },
                "String" => e
                    .as_str()
                    .map(|s| ArgVal::V(Value::Str(Arc::new(s.to_owned()))))
                    .ok_or_else(type_err),
                // The "Expression" type accepts anything (F8).
                "Expression" => Ok(ArgVal::V(Value::Expr(e.clone()))),
                _ => Err(type_err()),
            },
            _ => Err(type_err()),
        }
    }

    /// Decodes a runtime value against parameter `i`'s plan. Symbolic
    /// values take the expression route, so the two cannot disagree.
    fn decode(&self, v: &Value, i: usize) -> Result<ArgVal, RuntimeError> {
        match (v, &self.plans[i]) {
            (Value::Expr(e), _) => self.unbox(e, i),
            (_, ParamPlan::Bank(bank)) => ArgVal::from_value(v, *bank),
            (Value::Tensor(t), ParamPlan::Tensor(plan)) => plan.fit(t, &self.param_types[i]),
            (Value::Function(_), ParamPlan::Arrow) => Ok(ArgVal::V(v.clone())),
            _ => Err(mismatch(v.type_name(), &self.param_types[i])),
        }
    }

    /// Calls with runtime values (what benchmarks, the serve pool and the
    /// stream workers use).
    ///
    /// # Errors
    ///
    /// Arguments that do not match the parameter types are type errors.
    /// Numeric errors soft-fail to the interpreter when hosted; everything
    /// propagates otherwise. An error leaves the function reusable, with
    /// balanced refcount accounting.
    pub fn call(&self, args: &[Value]) -> Result<Value, RuntimeError> {
        if args.len() != self.arity() {
            return Err(self.arity_error(args.len()));
        }
        let decoded = args.iter().enumerate().map(|(i, v)| self.decode(v, i));
        self.with_engine(None, |engine| {
            let arg_exprs = || args.iter().map(Value::to_expr).collect();
            Ok(self.enter(engine, decoded, arg_exprs)?.into_value())
        })
    }

    /// The auxiliary wrapper (F1): "takes the input expression, unpacks and
    /// checks ... if it matches the expected number of arguments and types.
    /// The auxiliary function then calls the user function and packs the
    /// output into an expression."
    ///
    /// # Errors
    ///
    /// Argument mismatches fall back to uncompiled evaluation when hosted;
    /// they are type errors otherwise.
    pub fn call_exprs(&self, args: &[Expr]) -> Result<Expr, RuntimeError> {
        self.apply(None, args)
    }

    /// [`CompiledCodeFunction::call_exprs`] in `given`, the engine an
    /// installed function is called from, or in the hosting one.
    fn apply(&self, given: Option<&mut Interpreter>, args: &[Expr]) -> Result<Expr, RuntimeError> {
        self.with_engine(given, |mut engine| {
            let mut unboxed = true;
            let why = if args.len() != self.arity() {
                self.arity_error(args.len())
            } else {
                let decoded = args
                    .iter()
                    .enumerate()
                    .map(|(i, e)| self.unbox(e, i).inspect_err(|_| unboxed = false));
                match self.enter(engine.as_deref_mut(), decoded, || args.to_vec()) {
                    Err(why) if !unboxed => why,
                    out => return out.map(Answer::into_expr),
                }
            };
            // A mismatch: interpret the original in place of the call.
            match engine {
                Some(engine) => engine.eval(&Expr::normal(self.original.clone(), args.to_vec())),
                None => Err(why),
            }
        })
    }

    fn arity_error(&self, got: usize) -> RuntimeError {
        RuntimeError::Type(format!("expected {} arguments, got {got}", self.arity()))
    }

    /// Runs `f` with the engine this call evaluates in: `given` (an
    /// installed function is entered from inside an evaluation, which
    /// holds the engine already) or else the hosting engine, if any.
    fn with_engine<R>(
        &self,
        given: Option<&mut Interpreter>,
        f: impl FnOnce(Option<&mut Interpreter>) -> R,
    ) -> R {
        match (given, &self.engine) {
            (Some(engine), _) => f(Some(engine)),
            (None, Some(own)) => f(Some(&mut own.borrow_mut())),
            (None, None) => f(None),
        }
    }

    /// The one entry into the compiled code, for every route: runs the
    /// program on the cached machine over `args` as they are decoded and,
    /// where there is an engine, re-runs a numeric failure uncompiled (F2:
    /// "Numerical exceptions are propagated to the top-level auxiliary
    /// function which calls the interpreter to rerun the function").
    fn enter(
        &self,
        mut engine: Option<&mut Interpreter>,
        args: impl Iterator<Item = Result<ArgVal, RuntimeError>>,
        arg_exprs: impl FnOnce() -> Vec<Expr>,
    ) -> Result<Answer, RuntimeError> {
        let ran = {
            // Reuse the cached machine (and its frame pool); a re-entrant
            // call finds it borrowed and gets a fresh one.
            let mut fresh;
            let mut cached;
            let machine: &mut Machine = match self.machine.try_borrow_mut() {
                Ok(guard) => {
                    cached = guard;
                    &mut cached
                }
                Err(_) => {
                    fresh = machine_on(&self.abort);
                    &mut fresh
                }
            };
            // Standalone mode (F10) runs without the engine it may have.
            let escapes = engine.as_deref_mut().filter(|_| !self.standalone);
            machine.call(&self.program, 0, args, escapes)
        };
        match (ran, engine) {
            (Ok(r), _) => Ok(Answer::Compiled(result_to_value(r, &self.return_type))),
            (Err(e), Some(engine)) if e.is_numeric() => {
                engine.push_output(format!(
                    "CompiledCodeFunction: A compiled code runtime error occurred; \
                     reverting to uncompiled evaluation: {}",
                    e.tag()
                ));
                let call = Expr::normal(self.original.clone(), arg_exprs());
                engine.eval(&call).map(Answer::Reran)
            }
            (Err(e), _) => Err(e),
        }
    }

    /// Enables or disables the cached machine's op-frequency/dyad profiler
    /// (the data source for `reproduce -- opstats`).
    pub fn profile_ops(&self, enable: bool) {
        self.machine.borrow_mut().profile_ops(enable);
    }

    /// Takes the cached machine's accumulated op/dyad frequencies (empty
    /// unless profiling), resetting the counters.
    pub fn take_op_stats(&self) -> wolfram_codegen::OpStats {
        self.machine.borrow_mut().take_stats()
    }

    /// Installs this compiled function into its hosting engine under
    /// `name`: interpreted code then calls it "as if they were any other
    /// Wolfram Language function" (F1). Requires a hosting engine.
    ///
    /// # Errors
    ///
    /// Fails without an engine.
    pub fn install(&self, name: &str) -> Result<(), RuntimeError> {
        let Some(engine) = &self.engine else {
            return Err(RuntimeError::Other(
                "install requires a hosting engine".into(),
            ));
        };
        let this = self.clone();
        engine.borrow_mut().register_native(
            name,
            Rc::new(move |interp: &mut Interpreter, args: &[Expr]| this.apply(Some(interp), args)),
        );
        Ok(())
    }
}

/// [`CompiledCodeFunction`] under the name `benchmark/` calls it by (`new`,
/// `arity`, `call`): an instantiated artifact and nothing else — no
/// decoder, machine or buffer of its own.
pub struct StreamCaller(CompiledCodeFunction);

impl StreamCaller {
    /// Instantiates `artifact` on the calling thread.
    pub fn new(artifact: &CompiledArtifact) -> Self {
        StreamCaller(artifact.instantiate())
    }

    /// [`CompiledCodeFunction::arity`].
    pub fn arity(&self) -> usize {
        self.0.arity()
    }

    /// [`CompiledCodeFunction::call`].
    ///
    /// # Errors
    ///
    /// As for [`CompiledCodeFunction::call`].
    pub fn call(&mut self, args: &[Value]) -> Result<Value, RuntimeError> {
        self.0.call(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Compiler, CompilerOptions};
    use wolfram_expr::parse;

    fn compile(src: &str) -> CompiledCodeFunction {
        Compiler::default().function_compile_src(src).unwrap()
    }

    fn hosted(src: &str) -> (CompiledCodeFunction, Rc<RefCell<Interpreter>>) {
        let engine = Rc::new(RefCell::new(Interpreter::new()));
        let cf = compile(src).hosted(engine.clone());
        (cf, engine)
    }

    #[test]
    fn aux_wrapper_boxes_and_unboxes() {
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        let out = cf.call_exprs(&[Expr::int(7)]).unwrap();
        assert_eq!(out.as_i64(), Some(49));
        // Wrong type without an engine: hard error.
        assert!(cf.call_exprs(&[Expr::string("x")]).is_err());
        assert!(cf.call_exprs(&[]).is_err());
    }

    #[test]
    fn mismatch_falls_back_to_interpreter_when_hosted() {
        let (cf, _engine) = hosted("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        // A real argument does not match MachineInteger, but the hosted
        // wrapper reverts to uncompiled evaluation.
        let out = cf.call_exprs(&[Expr::real(2.5)]).unwrap();
        assert_eq!(out.as_f64(), Some(6.25));
    }

    #[test]
    fn soft_numeric_failure_reverts_to_interpreter() {
        // Iterative fib: overflows at n=100, interpreter returns the exact
        // bignum (the paper's cfib[200] behavior).
        let src = "Function[{Typed[n, \"MachineInteger\"]}, \
                   Module[{a = 0, b = 1, k = 0, t = 0}, \
                   While[k < n, t = a + b; a = b; b = t; k = k + 1]; a]]";
        let (cf, engine) = hosted(src);
        let out = cf.call_exprs(&[Expr::int(100)]).unwrap();
        assert_eq!(out.to_full_form(), "354224848179261915075");
        let warnings = engine.borrow_mut().take_output();
        assert!(
            warnings[0].contains("reverting to uncompiled evaluation"),
            "{warnings:?}"
        );
        assert!(warnings[0].contains("IntegerOverflow"), "{warnings:?}");
        // Fast path still native.
        assert_eq!(cf.call(&[Value::I64(50)]).unwrap(), Value::I64(12586269025));
    }

    #[test]
    fn standalone_rejects_numeric_failure() {
        let src = "Function[{Typed[n, \"MachineInteger\"]}, n*n]";
        let cf = compile(src);
        assert_eq!(
            cf.call(&[Value::I64(i64::MAX)]),
            Err(RuntimeError::IntegerOverflow)
        );
    }

    #[test]
    fn installed_functions_integrate_with_interpreter() {
        let (cf, engine) = hosted("Function[{Typed[n, \"MachineInteger\"]}, n + 100]");
        cf.install("fast").unwrap();
        // Interpreted code calls the compiled function seamlessly (F1),
        // including inside higher-order interpreted constructs.
        let out = engine
            .borrow_mut()
            .eval_src("Map[fast, {1, 2, 3}]")
            .unwrap();
        assert_eq!(out.to_full_form(), "List[101, 102, 103]");
        let out = engine.borrow_mut().eval_src("fast[5] + 1").unwrap();
        assert_eq!(out.as_i64(), Some(106));
    }

    #[test]
    fn abort_unwinds_compiled_loop() {
        let (cf, engine) = hosted(
            "Function[{Typed[n, \"MachineInteger\"]}, \
             Module[{i = 0}, While[True, If[i > 3, i = i - 1, i = i + 1]]; i]]",
        );
        engine.borrow().abort_signal().trigger();
        let err = cf.call(&[Value::I64(0)]).unwrap_err();
        assert_eq!(err, RuntimeError::Aborted);
        engine.borrow().abort_signal().reset();
    }

    #[test]
    fn tensors_cross_the_boundary() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[1]] + v[[-1]]]");
        let out = cf.call_exprs(&[parse("{1.5, 2.0, 3.5}").unwrap()]).unwrap();
        assert_eq!(out.as_f64(), Some(5.0));
        // Integer lists promote to the real element type.
        let out = cf.call_exprs(&[parse("{1, 2, 3}").unwrap()]).unwrap();
        assert_eq!(out.as_f64(), Some(4.0));
        // Rank mismatch is a type error.
        assert!(cf.call_exprs(&[parse("{{1.0}}").unwrap()]).is_err());
    }

    #[test]
    fn symbolic_compiled_function() {
        // §4.5: cf = FunctionCompile[Function[{arg1:Expression,
        // arg2:Expression}, arg1 + arg2]]; cf[1,2] -> 3; cf[x,y] -> x+y.
        let (cf, _engine) = hosted(
            "Function[{Typed[arg1, \"Expression\"], Typed[arg2, \"Expression\"]}, arg1 + arg2]",
        );
        let out = cf.call_exprs(&[Expr::int(1), Expr::int(2)]).unwrap();
        assert_eq!(out.as_i64(), Some(3));
        let out = cf.call_exprs(&[Expr::sym("x"), Expr::sym("y")]).unwrap();
        assert_eq!(out.to_full_form(), "Plus[x, y]");
        let out = cf
            .call_exprs(&[Expr::sym("x"), parse("Cos[y] + Sin[z]").unwrap()])
            .unwrap();
        assert!(out.to_full_form().contains("Cos[y]"), "{out:?}");
    }

    #[test]
    fn gradual_compilation_via_kernel_escape() {
        // StringReverse is not compilable: it escapes to the interpreter
        // mid-function (F9).
        let (cf, _engine) = hosted("Function[{Typed[s, \"String\"]}, StringReverse[s]]");
        let out = cf.call_exprs(&[Expr::string("abc")]).unwrap();
        assert_eq!(out.as_str(), Some("cba"));
    }

    #[test]
    fn memory_instrumentation_balances() {
        wolfram_runtime::memory::reset_stats();
        let cf = compile(
            "Function[{Typed[v, \"Tensor\"[\"Integer64\", 1]]}, \
             Module[{w = v}, w[[1]] = 5; Length[w]]]",
        );
        let t = Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![1, 2, 3]));
        assert_eq!(cf.call(&[t]).unwrap(), Value::I64(3));
        let stats = wolfram_runtime::memory::stats();
        assert!(stats.balanced(), "{stats:?}");
        assert!(
            stats.acquires > 0,
            "managed values were bracketed: {stats:?}"
        );
    }

    #[test]
    fn the_entry_frame_is_a_pool_hit_after_the_first_call() {
        wolfram_runtime::memory::reset_stats();
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        for n in 0..10 {
            cf.call(&[Value::I64(n)]).unwrap();
        }
        let stats = wolfram_runtime::memory::stats();
        assert_eq!(stats.frame_misses, 1, "{stats:?}");
        assert_eq!(stats.frame_hits, 9, "{stats:?}");
    }

    #[test]
    fn errors_do_not_poison_the_function() {
        let cf = compile("Function[{Typed[n, \"MachineInteger\"]}, n*n]");
        // Thread-local counters are per-test-thread, so the balance of
        // exactly this call sequence is observable here.
        wolfram_runtime::memory::reset_stats();
        assert!(cf.call(&[Value::I64(i64::MAX)]).is_err());
        assert!(cf.call(&[Value::Str(Arc::new("x".into()))]).is_err());
        assert_eq!(cf.call(&[Value::I64(9)]).unwrap(), Value::I64(81));
        let st = wolfram_runtime::memory::stats();
        assert!(st.balanced(), "aborted calls must release: {st:?}");
        assert_eq!(
            (st.frame_misses, st.frame_hits),
            (1, 2),
            "the entry frame survived the errors: {st:?}"
        );
    }

    #[test]
    fn tensor_and_expr_values_decode() {
        let cf = compile("Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, v[[1]] + v[[-1]]]");
        // Direct tensor value: integer data promotes to the real element
        // type, as a list expression does.
        let t = Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![1, 2, 3]));
        assert_eq!(cf.call(&[t]).unwrap(), Value::F64(4.0));
        // Symbolic route: a list expression goes through the full unboxer.
        let e = Value::Expr(parse("{1.5, 2.0, 3.5}").unwrap());
        assert_eq!(cf.call(&[e]).unwrap(), Value::F64(5.0));
        // Mismatched expression stays an error.
        let bad = Value::Expr(Expr::string("nope"));
        assert!(cf.call(&[bad]).is_err());
    }

    /// One row of [`every_route_decodes_alike`]: a parameter type, an
    /// argument, and the identity function's answer where the argument is
    /// accepted.
    struct Row {
        what: &'static str,
        param: &'static str,
        arg: Value,
        accepted: Option<&'static str>,
    }

    #[test]
    fn every_route_decodes_alike() {
        use wolfram_runtime::Tensor;
        let real_t1 = "\"Tensor\"[\"Real64\", 1]";
        let matrix = || {
            Tensor::with_shape(
                vec![2, 2],
                wolfram_runtime::TensorData::F64(vec![1.0, 2.0, 3.0, 4.0]),
            )
            .unwrap()
        };
        let rows = [
            Row {
                what: "int",
                param: "\"MachineInteger\"",
                arg: Value::I64(5),
                accepted: Some("5"),
            },
            Row {
                what: "real",
                param: "\"Real64\"",
                arg: Value::F64(2.5),
                accepted: Some("2.5"),
            },
            Row {
                what: "bool",
                param: "\"Boolean\"",
                arg: Value::Bool(true),
                accepted: Some("True"),
            },
            Row {
                what: "complex",
                param: "\"ComplexReal64\"",
                arg: Value::Complex(1.0, -2.0),
                accepted: Some("Complex[1., -2.]"),
            },
            Row {
                what: "string",
                param: "\"String\"",
                arg: Value::Str(Arc::new("ab".into())),
                accepted: Some("\"ab\""),
            },
            Row {
                what: "expression",
                param: "\"Expression\"",
                arg: Value::Expr(parse("f[x, 1]").unwrap()),
                accepted: Some("f[x, 1]"),
            },
            Row {
                what: "rank-1 real tensor",
                param: real_t1,
                arg: Value::Tensor(Tensor::from_f64(vec![1.0, 2.0, 3.0])),
                accepted: Some("{1., 2., 3.}"),
            },
            Row {
                what: "rank-2 real tensor",
                param: "\"Tensor\"[\"Real64\", 2]",
                arg: Value::Tensor(matrix()),
                accepted: Some("{{1., 2.}, {3., 4.}}"),
            },
            Row {
                what: "int tensor into a real parameter",
                param: real_t1,
                arg: Value::Tensor(Tensor::from_i64(vec![1, 2, 3])),
                accepted: Some("{1., 2., 3.}"),
            },
            Row {
                what: "real tensor into an int parameter",
                param: "\"Tensor\"[\"Integer64\", 1]",
                arg: Value::Tensor(Tensor::from_f64(vec![1.5])),
                accepted: None,
            },
            // The silent wrong answer this table exists for: the flat data
            // of a 2x2 matrix read as a length-2 vector.
            Row {
                what: "rank-2 tensor into a rank-1 parameter",
                param: real_t1,
                arg: Value::Tensor(matrix()),
                accepted: None,
            },
            Row {
                what: "scalar into a tensor parameter",
                param: real_t1,
                arg: Value::F64(1.0),
                accepted: None,
            },
            Row {
                what: "string into an int parameter",
                param: "\"MachineInteger\"",
                arg: Value::Str(Arc::new("ab".into())),
                accepted: None,
            },
        ];
        for row in rows {
            let src = format!("Function[{{Typed[x, {}]}}, x]", row.param);
            let (cf, engine) = hosted(&src);
            cf.install("installed").unwrap();
            let alone = cf.artifact().instantiate();
            let arg = row.arg.to_expr();
            let via_call = alone.call(std::slice::from_ref(&row.arg));
            let routes = [
                ("call", via_call.clone().map(|v| v.to_expr())),
                (
                    "StreamCaller::call",
                    StreamCaller::new(&cf.artifact())
                        .call(std::slice::from_ref(&row.arg))
                        .map(|v| v.to_expr()),
                ),
                ("call_exprs", alone.call_exprs(std::slice::from_ref(&arg))),
            ];
            for (route, got) in &routes {
                match (row.accepted, got) {
                    (Some(want), Ok(out)) => {
                        assert_eq!(out.to_input_form(), want, "{}: {route}", row.what)
                    }
                    (None, Err(RuntimeError::Type(_))) => {}
                    _ => panic!("{}: {route} answered {got:?}", row.what),
                }
            }
            // A tensor is rejected in the expression wrapper's words.
            if matches!(row.arg, Value::Tensor(_)) {
                assert_eq!(routes[0].1, routes[2].1, "{}", row.what);
            }
            // An installed function is never a type error: what the compiled
            // code accepts it computes, the rest is evaluated uncompiled.
            let mapped = engine
                .borrow_mut()
                .eval(&Expr::call(
                    "Map",
                    [Expr::sym("installed"), Expr::list([arg.clone()])],
                ))
                .unwrap();
            let uncompiled = engine
                .borrow_mut()
                .eval(&Expr::normal(cf.original.clone(), vec![arg]))
                .unwrap();
            let want = row
                .accepted
                .map_or_else(|| uncompiled.to_input_form(), str::to_owned);
            assert_eq!(mapped.args()[0].to_input_form(), want, "{}: Map", row.what);
        }

        // The motivating program, pinned: summing a "vector" that is a matrix.
        let sum = compile(
            "Function[{Typed[v, \"Tensor\"[\"Real64\", 1]]}, \
             Module[{s = 0., i = 1}, While[i <= Length[v], s = s + v[[i]]; i = i + 1]; s]]",
        );
        let err = sum.call(&[Value::Tensor(matrix())]).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::Type(
                "argument rank-2 tensor does not match parameter type Tensor[Real64, 1]".into()
            )
        );
    }

    #[test]
    fn function_values_pass_to_arrow_parameters() {
        // A compiled function value has no expression form, so only the
        // value routes can carry one; anything else is a type error. The
        // local function is the value passed: it stays lifted while its
        // call goes through the closure (the default inlines the call and
        // drops the function).
        let mut options = CompilerOptions::default();
        crate::Ablation::Inlining.apply(&mut options);
        let cf = Compiler::new(options)
            .function_compile_src(
                "Function[{Typed[f, {\"MachineInteger\"} -> \"MachineInteger\"], \
                           Typed[n, \"MachineInteger\"]}, \
                 Module[{g = Function[{Typed[k, \"MachineInteger\"]}, k + 1]}, f[n] + g[n]]]",
            )
            .unwrap();
        let lifted = cf
            .program
            .funcs
            .iter()
            .position(|f| f.params.len() == 1)
            .expect("the local function is lifted");
        let g = Value::Function(Arc::new(wolfram_runtime::FunctionValue {
            name: Arc::from(cf.program.funcs[lifted].name.as_str()),
            index: lifted,
            captures: Vec::new(),
        }));
        let args = [g, Value::I64(20)];
        assert_eq!(cf.call(&args), Ok(Value::I64(42)));
        assert_eq!(
            StreamCaller::new(&cf.artifact()).call(&args),
            Ok(Value::I64(42))
        );
        let exprs: Vec<Expr> = args.iter().map(Value::to_expr).collect();
        for rejected in [
            cf.call(&[Value::I64(1), Value::I64(20)])
                .map(|v| v.to_expr()),
            cf.call_exprs(&exprs),
        ] {
            assert!(
                matches!(rejected, Err(RuntimeError::Type(_))),
                "{rejected:?}"
            );
        }
    }
}
