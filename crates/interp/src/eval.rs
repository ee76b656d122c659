//! The evaluator: infinite evaluation with Hold attributes, `OwnValues`,
//! `DownValues`, pure-function application, and abortability.

use crate::builtins;
use crate::env::{Attributes, Environment};
use std::collections::HashMap;
use std::rc::Rc;
use wolfram_expr::rules::{apply_bindings, substitute_symbols};
use wolfram_expr::{Bindings, Expr, ExprKind, MatchCtx, Symbol};
use wolfram_runtime::{AbortSignal, RuntimeError};

/// Internal evaluation signal: either a hard error or non-local control
/// flow (`Break`, `Continue`, `Return`, `Throw`).
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A runtime error (aborts, limits, type errors, ...).
    Runtime(RuntimeError),
    /// `Break[]` unwinding to the innermost loop.
    BreakSignal,
    /// `Continue[]` unwinding to the innermost loop.
    ContinueSignal,
    /// `Return[e]` unwinding to the innermost function application.
    ReturnSignal(Expr),
    /// `Throw[e]` unwinding to the innermost `Catch`.
    ThrowSignal(Expr),
}

impl From<RuntimeError> for EvalError {
    fn from(e: RuntimeError) -> Self {
        EvalError::Runtime(e)
    }
}

impl EvalError {
    /// Converts stray control flow into hard errors at a boundary.
    pub fn into_runtime(self) -> RuntimeError {
        match self {
            EvalError::Runtime(e) => e,
            EvalError::BreakSignal => RuntimeError::Other("Break[] outside of a loop".into()),
            EvalError::ContinueSignal => RuntimeError::Other("Continue[] outside of a loop".into()),
            EvalError::ReturnSignal(_) => {
                RuntimeError::Other("Return[] outside of a function".into())
            }
            EvalError::ThrowSignal(_) => RuntimeError::Other("uncaught Throw[]".into()),
        }
    }
}

/// Result alias used throughout the evaluator.
pub type EvalResult = Result<Expr, EvalError>;

/// The Wolfram Engine interpreter.
pub struct Interpreter {
    /// The global definition store.
    pub env: Environment,
    abort: AbortSignal,
    /// Maximum evaluation recursion depth (`$RecursionLimit`).
    pub recursion_limit: usize,
    steps: u64,
    rng_state: u64,
    output: Vec<String>,
    /// Hook installed by the compiler package: given a univariate function
    /// body and its variable, return a fast native evaluator (used by
    /// `FindRoot` auto-compilation, §1). `None` falls back to substitution.
    pub auto_compile: Option<crate::findroot::AutoCompileHook>,
    /// How many times the auto-compilation hook produced compiled code.
    pub autocompile_hits: u64,
    /// Compiled functions installed into this engine (F1): looked up after
    /// builtins and before `DownValues`. The hook receives evaluated
    /// arguments and returns the boxed result.
    native_functions: HashMap<String, NativeHook>,
}

/// An installed compiled function (F1): receives evaluated arguments and
/// returns the boxed result.
pub type NativeHook = Rc<dyn Fn(&mut Interpreter, &[Expr]) -> Result<Expr, RuntimeError>>;

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// A fresh interpreter with default limits and a private abort signal.
    pub fn new() -> Self {
        Interpreter {
            env: Environment::new(),
            abort: AbortSignal::new(),
            recursion_limit: 1024,
            steps: 0,
            rng_state: 0x9E3779B97F4A7C15,
            output: Vec::new(),
            auto_compile: None,
            autocompile_hits: 0,
            native_functions: HashMap::new(),
        }
    }

    /// The abort signal checked during evaluation.
    pub fn abort_signal(&self) -> &AbortSignal {
        &self.abort
    }

    /// Seeds the deterministic RNG (`SeedRandom`).
    pub fn seed_random(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Next raw 64 random bits (xoshiro-style splitmix; deterministic,
    /// dependency-free).
    pub fn next_random_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// A uniform real in `[0, 1)`.
    pub fn next_random_f64(&mut self) -> f64 {
        (self.next_random_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Takes accumulated `Print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Appends a line of `Print` output.
    pub fn push_output(&mut self, line: String) {
        self.output.push(line);
    }

    /// Evaluates an expression to its fixed point.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] on aborts, recursion-limit overruns, and
    /// hard errors; stray control flow (`Break` outside a loop, ...) is
    /// also an error.
    pub fn eval(&mut self, e: &Expr) -> Result<Expr, RuntimeError> {
        self.eval_depth(e, 0).map_err(EvalError::into_runtime)
    }

    /// Parses and evaluates source text, returning the last result.
    ///
    /// # Errors
    ///
    /// Parse errors are reported as [`RuntimeError::Other`]; evaluation
    /// errors as in [`Interpreter::eval`].
    pub fn eval_src(&mut self, src: &str) -> Result<Expr, RuntimeError> {
        let exprs = wolfram_expr::parse_all(src)
            .map_err(|e| RuntimeError::Other(format!("parse error: {e}")))?;
        let mut last = Expr::null();
        for e in &exprs {
            last = self.eval(e)?;
        }
        Ok(last)
    }

    /// The depth-tracked evaluator used by builtins.
    pub fn eval_depth(&mut self, e: &Expr, depth: usize) -> EvalResult {
        self.steps += 1;
        if self.steps & 0xFF == 0 {
            self.abort.check()?;
        }
        if depth > self.recursion_limit {
            return Err(RuntimeError::RecursionLimit(self.recursion_limit).into());
        }
        match e.kind() {
            ExprKind::Symbol(s) => match self.env.own_value(s) {
                // Infinite evaluation: keep chasing until a fixed point.
                Some(v) => {
                    let v = v.clone();
                    if v.as_symbol().as_ref() == Some(s) {
                        return Ok(v);
                    }
                    self.eval_depth(&v, depth + 1)
                }
                None => Ok(e.clone()),
            },
            ExprKind::Normal(_) => self.eval_normal(e, depth),
            _ => Ok(e.clone()),
        }
    }

    /// Attributes seen by the evaluator: builtins take precedence, then the
    /// environment's user-set attributes.
    pub fn attributes_of(&self, s: &Symbol) -> Attributes {
        match builtins::builtin(s.name()) {
            Some(def) => def.attrs,
            None => self.env.attributes(s),
        }
    }

    fn eval_normal(&mut self, e: &Expr, depth: usize) -> EvalResult {
        let n = e.as_normal().expect("eval_normal on atom");
        let head = self.eval_depth(n.head(), depth + 1)?;
        let head_sym = head.as_symbol();
        let attrs = head_sym
            .as_ref()
            .map(|s| self.attributes_of(s))
            .unwrap_or_default();

        // Evaluate arguments per hold attributes, splicing Sequence.
        let mut args = Vec::with_capacity(n.args().len());
        for (i, a) in n.args().iter().enumerate() {
            let v = if attrs.holds_arg(i) {
                a.clone()
            } else {
                self.eval_depth(a, depth + 1)?
            };
            if v.has_head("Sequence") {
                args.extend(v.args().iter().cloned());
            } else {
                args.push(v);
            }
        }

        // Listable threading.
        if attrs.listable && args.iter().any(|a| a.has_head("List")) {
            return self.thread_listable(&head, &args, depth);
        }

        if let Some(s) = &head_sym {
            // Builtin dispatch.
            if let Some(def) = builtins::builtin(s.name()) {
                if let Some(result) = (def.run)(self, &args, depth)? {
                    return Ok(result);
                }
            }
            // Installed compiled functions (F1): called like any other
            // Wolfram function.
            if let Some(hook) = self.native_functions.get(s.name()).cloned() {
                return hook(self, &args).map_err(EvalError::Runtime);
            }
            // DownValues dispatch.
            let rules = self.env.down_values(s).to_vec();
            if !rules.is_empty() {
                let cur = Expr::normal(head.clone(), args.clone());
                for rule in &rules {
                    let mut bindings = Bindings::new();
                    let matched = {
                        let mut cond = |c: &Expr| {
                            self.eval_depth(c, depth + 1)
                                .map(|r| r.is_true())
                                .unwrap_or(false)
                        };
                        let mut ctx = MatchCtx {
                            condition_eval: Some(&mut cond),
                        };
                        wolfram_expr::match_pattern(&cur, &rule.lhs, &mut bindings, &mut ctx)
                    };
                    if matched {
                        let rhs = apply_bindings(&rule.rhs, &bindings);
                        return self.eval_depth(&rhs, depth + 1);
                    }
                }
            }
        }

        // Pure/parametrized function application.
        if head.has_head("Function") {
            return self.apply_function(&head, &args, depth);
        }

        Ok(Expr::normal(head, args))
    }

    fn thread_listable(&mut self, head: &Expr, args: &[Expr], depth: usize) -> EvalResult {
        let mut len: Option<usize> = None;
        for a in args {
            if a.has_head("List") {
                match len {
                    None => len = Some(a.length()),
                    Some(l) if l == a.length() => {}
                    Some(_) => {
                        return Err(RuntimeError::Other(format!(
                            "objects of unequal length cannot be threaded over {}",
                            head.to_input_form()
                        ))
                        .into())
                    }
                }
            }
        }
        let len = len.expect("thread_listable requires a list argument");
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let element_args: Vec<Expr> = args
                .iter()
                .map(|a| {
                    if a.has_head("List") {
                        a.args()[i].clone()
                    } else {
                        a.clone()
                    }
                })
                .collect();
            out.push(self.eval_depth(&Expr::normal(head.clone(), element_args), depth + 1)?);
        }
        Ok(Expr::list(out))
    }

    /// Installs a compiled function under `name` (the compiled code's
    /// seamless interpreter integration, F1). Subsequent evaluations of
    /// `name[args...]` call the hook with evaluated arguments.
    pub fn register_native(&mut self, name: &str, hook: NativeHook) {
        self.native_functions.insert(name.to_owned(), hook);
    }

    /// Applies a `Function[...]` head to evaluated arguments.
    pub fn apply_function(&mut self, f: &Expr, args: &[Expr], depth: usize) -> EvalResult {
        let fargs = f.args();
        let body_subst = match fargs.len() {
            // Function[body]: slot form.
            1 => substitute_slots(&fargs[0], args),
            // Function[params, body] (+ optional attributes, ignored here).
            _ => {
                let params = &fargs[0];
                let body = &fargs[1];
                let names: Vec<Symbol> = if params.has_head("List") {
                    params.args().iter().filter_map(param_symbol).collect()
                } else {
                    param_symbol(params).into_iter().collect()
                };
                let expected = if params.has_head("List") {
                    params.length()
                } else {
                    1
                };
                if names.len() != expected {
                    return Err(RuntimeError::Type(format!(
                        "invalid Function parameter list {}",
                        params.to_input_form()
                    ))
                    .into());
                }
                if args.len() < names.len() {
                    return Err(RuntimeError::Type(format!(
                        "Function expected {} arguments, got {}",
                        names.len(),
                        args.len()
                    ))
                    .into());
                }
                let map: HashMap<Symbol, Expr> =
                    names.into_iter().zip(args.iter().cloned()).collect();
                substitute_symbols(body, &map)
            }
        };
        match self.eval_depth(&body_subst, depth + 1) {
            Err(EvalError::ReturnSignal(v)) => Ok(v),
            other => other,
        }
    }
}

/// Extracts the parameter symbol from a plain symbol or `Typed[sym, ty]`.
fn param_symbol(p: &Expr) -> Option<Symbol> {
    if let Some(s) = p.as_symbol() {
        return Some(s);
    }
    if p.has_head("Typed") {
        return p.args().first().and_then(Expr::as_symbol);
    }
    None
}

/// Substitutes `Slot[n]`/`SlotSequence` in a slot-form function body,
/// stopping at nested slot-form (`Function[body]`) functions.
fn substitute_slots(body: &Expr, args: &[Expr]) -> Expr {
    match body.kind() {
        ExprKind::Normal(n) => {
            if n.head().is_symbol("Slot") {
                if let Some(ix) = n.args().first().and_then(Expr::as_i64) {
                    if ix >= 1 && (ix as usize) <= args.len() {
                        return args[ix as usize - 1].clone();
                    }
                }
                return body.clone();
            }
            if n.head().is_symbol("SlotSequence") {
                return Expr::call("Sequence", args.to_vec());
            }
            // Nested slot-form functions own their slots.
            if n.head().is_symbol("Function") && n.args().len() == 1 {
                return body.clone();
            }
            let head = substitute_slots(n.head(), args);
            let new_args: Vec<Expr> = n.args().iter().map(|a| substitute_slots(a, args)).collect();
            Expr::normal(head, new_args)
        }
        _ => body.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str) -> String {
        Interpreter::new().eval_src(src).unwrap().to_full_form()
    }

    #[test]
    fn infinite_evaluation_fixed_point() {
        // The paper's example: y=x; x=1; y evaluates to 1.
        assert_eq!(ev("y = x; x = 1; y"), "1");
    }

    #[test]
    fn self_reference_hits_recursion_limit() {
        // x = x + 1 with undefined x rewrites forever (§2.1).
        let mut i = Interpreter::new();
        i.recursion_limit = 128;
        let err = i.eval_src("x = x + 1; x").unwrap_err();
        assert!(
            matches!(err, RuntimeError::RecursionLimit(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn pure_functions() {
        assert_eq!(ev("(# + 1 &)[41]"), "42");
        assert_eq!(ev("(#1 * #2 &)[6, 7]"), "42");
        assert_eq!(ev("Function[{x, y}, x - y][10, 4]"), "6");
        assert_eq!(ev("Function[x, x^2][5]"), "25");
    }

    #[test]
    fn nested_slot_functions_do_not_leak() {
        // The inner # belongs to the inner function.
        assert_eq!(ev("Function[(#&)][9]"), "Function[Slot[1]]");
    }

    #[test]
    fn down_values_dispatch_by_specificity() {
        assert_eq!(
            ev("f[0] = zero; f[x_] := general[x]; {f[0], f[3]}"),
            "List[zero, general[3]]"
        );
    }

    #[test]
    fn fib_via_downvalues() {
        let src = "fib[0] = 0; fib[1] = 1; fib[n_] := fib[n-1] + fib[n-2]; fib[20]";
        assert_eq!(ev(src), "6765");
    }

    #[test]
    fn fib_via_function_binding() {
        // The paper's §2.1 definition.
        let src = "fib = Function[{n}, If[n < 1, 1, fib[n-1] + fib[n-2]]]; fib[10]";
        assert_eq!(ev(src), "144");
    }

    #[test]
    fn listable_threading() {
        assert_eq!(ev("{1, 2} + {10, 20}"), "List[11, 22]");
        assert_eq!(ev("{1, 2, 3} * 2"), "List[2, 4, 6]");
        assert!(Interpreter::new().eval_src("{1, 2} + {1, 2, 3}").is_err());
    }

    #[test]
    fn abort_signal_aborts() {
        let mut i = Interpreter::new();
        i.abort_signal().trigger();
        let err = i.eval_src("While[True, 0]").unwrap_err();
        assert_eq!(err, RuntimeError::Aborted);
    }

    #[test]
    fn symbols_are_mutable_expressions_not() {
        assert_eq!(ev("a = \"foo\"; a = \"bar\"; a"), "\"bar\"");
    }

    #[test]
    fn sequences_splice_into_calls() {
        assert_eq!(ev("f[Sequence[1, 2], 3]"), "f[1, 2, 3]");
    }

    #[test]
    fn deterministic_rng() {
        let mut a = Interpreter::new();
        let mut b = Interpreter::new();
        a.seed_random(7);
        b.seed_random(7);
        for _ in 0..10 {
            assert_eq!(a.next_random_u64(), b.next_random_u64());
        }
        let x = a.next_random_f64();
        assert!((0.0..1.0).contains(&x));
    }
}
