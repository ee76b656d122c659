//! The differential oracle and the equivalence relation it judges by.
//!
//! A program is run through every engine configuration of
//! [`engine_names`], in this order:
//!
//! 1. the tree-walking **interpreter** (the language oracle),
//! 2. the **bytecode VM** (hosted, so numeric errors revert to the
//!    interpreter — F2),
//! 3. then the native register machine (hosted) under each of
//!    [`native_engines`]: `native`, the shipped
//!    `CompilerOptions::default()`; `native-<name>`, the default with one
//!    [`Ablation`] applied; and `native+parallel`, the default with its
//!    whole-tensor builtins on threads. An ablation switches an
//!    optimisation off, so the default and each ablated build must agree; a
//!    wrong range proof, a bad fusion, a bad loop plan or a bad inline
//!    shows up as a divergence (or a panic) against the engines that do not
//!    use it (`native-vectorize` keeps every loop scalar).
//!
//! Each native run must also balance its refcount traffic (F7): the
//! thread's `memory::stats()` is read before and after the call, and a run
//! that acquired a different number of managed values than it released is
//! a finding, shrunk and persisted like a divergence.
//!
//! # Equivalence relation
//!
//! Two outcomes are equivalent when:
//!
//! - both error with the same [`RuntimeError::tag`] (after soft-failure
//!   fallback, which is part of each hosted engine's semantics), or both
//!   succeed and their values match under:
//! - **exact** equality for integers, big integers, booleans, strings and
//!   `Null`;
//! - **≤ [`ULP_TOLERANCE`] ULP** for machine reals (`0.0 == -0.0`, and two
//!   NaNs are equal — the engines may legitimately differ in rounding
//!   across re-associated or fused operations, but not by more than a few
//!   ULP), **or** within an absolute allowance scaled to the largest
//!   number the program manipulates: the interpreter's Orderless `Plus`
//!   re-sorts numeric terms by runtime value while compiled code fixes the
//!   association at compile time, so catastrophic cancellation of large
//!   terms legitimately amplifies one rounding step at the *intermediate*
//!   magnitude into many ULP at the small final magnitude;
//! - an integer and a real compare **numerically** (a hosted engine that
//!   soft-failed may return the interpreter's exact integer where pure
//!   compiled code would have produced a real);
//! - complex numbers compare componentwise; tensors compare by shape and
//!   elementwise under the scalar rules; everything else falls back to
//!   structural expression equality.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use wolfram_bytecode::{ArgSpec, BytecodeCompiler};
use wolfram_compiler_core::{
    Ablation, CompileError, CompiledCodeFunction, Compiler, CompilerOptions,
};
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_ir::VerifyLevel;
use wolfram_runtime::{memory, AbortSignal, ParallelConfig, RuntimeError, Value};

/// Maximum units-in-last-place distance at which two machine reals are
/// still considered the same answer.
pub const ULP_TOLERANCE: u64 = 8;

/// Relative factor for the cancellation allowance: two real results also
/// count as equal when they are within `CANCELLATION_EPS * M` of each
/// other, where `M` is the largest magnitude among the program's numeric
/// literals and the argument values. `2^-48` covers a handful of rounding
/// steps (each at most `2^-52 * M`) performed at the intermediate
/// magnitude before the terms cancel. Found by wolfram-difftest (seed
/// 7502226797392405932): `2^62 + p1 + (19^-3 - 2^62)` rounds once on a
/// 512-spaced grid under the interpreter's value-sorted fold and once on a
/// 1024-spaced grid under the compiled left fold — both IEEE-correct for
/// their association, 8e9 final ULP apart.
pub const CANCELLATION_EPS: f64 = f64::EPSILON * 16.0;

/// Wall-clock budget for one engine on one argument set. Generated
/// programs finish in microseconds; the budget only bites when a *shrink
/// mutation* breaks a `While` counter and the candidate loops forever. The
/// watchdog then fires the engine's [`AbortSignal`] (F3) and the run
/// reports as timed out rather than hanging the whole fuzz session.
pub const RUN_TIMEOUT: Duration = Duration::from_millis(300);

/// Runs `f` under an [`AbortSignal::deadline`] watchdog that triggers
/// `signal` if `f` has not finished within [`RUN_TIMEOUT`]. The signal is
/// reset afterwards so a shared host interpreter is reusable for the next
/// run.
fn with_watchdog<T>(signal: &AbortSignal, f: impl FnOnce() -> T) -> T {
    let guard = signal.deadline(RUN_TIMEOUT);
    let out = f();
    drop(guard);
    signal.reset();
    out
}

/// One engine's result for one (program, argument-set) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Normal completion.
    Ok(Value),
    /// A runtime error, identified by its tag (e.g. `"DivideByZero"`).
    Err(String),
}

impl Outcome {
    fn from_run(r: Result<Value, RuntimeError>) -> Outcome {
        match r {
            Ok(v) => Outcome::Ok(v),
            Err(e) => Outcome::Err(e.tag().to_owned()),
        }
    }

    /// Short display form for reports.
    pub fn describe(&self) -> String {
        match self {
            Outcome::Ok(v) => v.to_expr().to_input_form(),
            Outcome::Err(tag) => format!("<error: {tag}>"),
        }
    }
}

/// The native engine configurations, in report order, each with the
/// options it compiles with: the shipped default, the default with each
/// [`Ablation`] applied, and the default plus the data-parallel tier.
pub fn native_engines() -> Vec<(String, CompilerOptions)> {
    let ablated = Ablation::ALL
        .into_iter()
        // The watchdog stops runaway candidates through exactly these
        // checks, so an engine without them could not be stopped.
        .filter(|a| *a != Ablation::AbortChecks)
        .map(|a| {
            let mut options = CompilerOptions::default();
            a.apply(&mut options);
            (format!("native-{}", a.name()), options)
        });
    // Deliberately aggressive tuning: fuzz tensors are small, so the
    // production chunk threshold would route everything to the sequential
    // path and test nothing.
    let parallel = CompilerOptions {
        data_parallel: true,
        parallel: ParallelConfig {
            num_threads: 2,
            min_elems_per_chunk: 16,
        },
        ..CompilerOptions::default()
    };
    std::iter::once(("native".to_owned(), CompilerOptions::default()))
        .chain(ablated)
        .chain(std::iter::once(("native+parallel".to_owned(), parallel)))
        .collect()
}

/// Every engine configuration's name, in [`EngineRun::outcomes`] order:
/// the interpreter, the bytecode VM, then [`native_engines`].
pub fn engine_names() -> Vec<String> {
    ["interpreter", "bytecode"]
        .into_iter()
        .map(String::from)
        .chain(native_engines().into_iter().map(|(name, _)| name))
        .collect()
}

/// What [`EngineRun::divergence`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Human-readable description, naming the engine first.
    pub note: String,
    /// Whether a native run acquired a different number of managed values
    /// than it released, rather than disagreeing on a value.
    pub imbalance: bool,
}

/// Every engine's outcome for one argument set.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Indexed as [`engine_names`].
    pub outcomes: Vec<Outcome>,
    /// Managed values acquired and released by each native run, indexed
    /// as [`native_engines`].
    pub refcounts: Vec<(u64, u64)>,
    /// Absolute real-comparison allowance for this run:
    /// [`CANCELLATION_EPS`] times the largest magnitude among the
    /// program's literals and this argument set.
    pub abs_tol: f64,
}

impl EngineRun {
    /// Whether any engine hit the [`RUN_TIMEOUT`] watchdog. A timed-out
    /// run is inconclusive, not a divergence: the engines were stopped at
    /// arbitrary points, so their outcomes are not comparable.
    pub fn timed_out(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, Outcome::Err(tag) if tag == "Aborted"))
    }

    /// Whether the interpreter produced a *symbolic* (unevaluated) result.
    /// The generator stays inside the numeric subset, so a symbolic oracle
    /// answer means the program (usually a shrink candidate) escaped the
    /// subset — e.g. a free variable after dropping a `Module` local, or
    /// an inert form like `Mod[x, 0.]` surviving soft fallback. Symbolic
    /// results also carry interpreter-session artifacts (Module renaming
    /// counters), so comparing them across engines is meaningless.
    pub fn out_of_subset(&self) -> bool {
        matches!(&self.outcomes[0], Outcome::Ok(Value::Expr(_)))
    }

    /// The first engine (by index) that disagrees with the interpreter,
    /// or else the first native run whose acquires and releases differ,
    /// with a human-readable description.
    pub fn divergence(&self) -> Option<Finding> {
        let (note, imbalance) = match self.value_divergence() {
            Some(note) => (note, false),
            None => (self.imbalance()?, true),
        };
        Some(Finding { note, imbalance })
    }

    /// The first native run that acquired a different number of managed
    /// values than it released. Unwinding releases what a run held, so an
    /// error or a timeout excuses no imbalance.
    fn imbalance(&self) -> Option<String> {
        let (ix, (acquired, released)) = self
            .refcounts
            .iter()
            .enumerate()
            .find(|(_, (a, r))| a != r)?;
        Some(format!(
            "{} acquired {acquired} managed values and released {released}",
            native_engines()[ix].0
        ))
    }

    fn value_divergence(&self) -> Option<String> {
        if self.timed_out() || self.out_of_subset() {
            return None;
        }
        let oracle = &self.outcomes[0];
        for (i, got) in self.outcomes.iter().enumerate().skip(1) {
            if !outcomes_equivalent_within(oracle, got, self.abs_tol) {
                return Some(format!(
                    "{} returned {} but the interpreter returned {}",
                    engine_names()[i],
                    got.describe(),
                    oracle.describe()
                ));
            }
        }
        None
    }
}

/// A program that one of the compiled engines refused to *compile* — not a
/// semantic divergence, but a hole in the common subset worth seeing.
#[derive(Debug, Clone)]
pub struct PrepareError {
    /// Which engine refused.
    pub engine: String,
    /// The compiler's message.
    pub message: String,
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed to compile: {}", self.engine, self.message)
    }
}

/// A function compiled for all engine configurations, ready to run
/// argument sets through.
pub struct PreparedSubject {
    func: Expr,
    /// Largest magnitude among the program's numeric literals; feeds the
    /// per-run cancellation allowance (see [`CANCELLATION_EPS`]).
    literal_scale: f64,
    bytecode: wolfram_bytecode::CompiledFunction,
    /// One hosted function per [`native_engines`] entry, in its order.
    natives: Vec<CompiledCodeFunction>,
}

/// Largest magnitude among the numeric literals in `e`, recursively.
fn literal_scale(e: &Expr) -> f64 {
    use wolfram_expr::ExprKind;
    match e.kind() {
        ExprKind::Integer(i) => i.unsigned_abs() as f64,
        ExprKind::BigInteger(b) => b.to_f64().abs(),
        ExprKind::Real(r) => r.abs(),
        ExprKind::Complex(re, im) => re.abs().max(im.abs()),
        ExprKind::Normal(_) => {
            let head = literal_scale(&e.head());
            e.args().iter().map(literal_scale).fold(head, f64::max)
        }
        _ => 0.0,
    }
}

/// Largest magnitude inside one argument value.
fn value_scale(v: &Value) -> f64 {
    match v {
        Value::I64(i) => i.unsigned_abs() as f64,
        Value::F64(x) => x.abs(),
        Value::Big(b) => b.to_f64().abs(),
        Value::Complex(re, im) => re.abs().max(im.abs()),
        Value::Tensor(t) => {
            let ints = t
                .as_i64()
                .into_iter()
                .flatten()
                .map(|i| i.unsigned_abs() as f64);
            let reals = t.as_f64().into_iter().flatten().map(|x| x.abs());
            ints.chain(reals).fold(0.0, f64::max)
        }
        _ => 0.0,
    }
}

/// Derives the bytecode [`ArgSpec`] list from a `Function[{Typed[...]},
/// body]` expression (delegates to [`ArgSpec::from_function`], shared
/// with the serve bytecode tier).
///
/// # Errors
///
/// Returns a message for parameter forms outside the fuzzer's subset.
pub fn specs_from_function(func: &Expr) -> Result<Vec<ArgSpec>, String> {
    ArgSpec::from_function(func)
}

/// Compiles `func` for every engine configuration, with the per-pass
/// analyzer on (`VerifyLevel::Full`).
///
/// # Errors
///
/// Returns the first [`PrepareError`]; the interpreter needs no
/// preparation and cannot fail here.
pub fn prepare(func: &Expr) -> Result<PreparedSubject, PrepareError> {
    prepare_with(func, VerifyLevel::Full)
}

/// The analyzer's verdict on `func`: `Some(finding)` if compiling with the
/// default pipeline at `VerifyLevel::Full` trips the type or refcount
/// checkers (an internal-consistency bug, reportable like any other
/// divergence), `None` if the program is analyzer-clean or fails to
/// compile for an unrelated reason.
pub fn verify_failure(func: &Expr) -> Option<String> {
    match Compiler::new(CompilerOptions::default()).compile_to_twir(func, None) {
        Err(e @ CompileError::Verify(_)) => Some(e.to_string()),
        _ => None,
    }
}

/// [`prepare`] with an explicit per-pass verification level for the
/// native configurations.
///
/// # Errors
///
/// Returns the first [`PrepareError`].
pub fn prepare_with(func: &Expr, verify: VerifyLevel) -> Result<PreparedSubject, PrepareError> {
    let refused = |engine: &str, message: String| PrepareError {
        engine: engine.to_owned(),
        message,
    };
    let specs = specs_from_function(func).map_err(|message| refused("bytecode", message))?;
    let body = func.args().get(1).cloned().unwrap_or_else(|| Expr::int(0));
    let bytecode = BytecodeCompiler::new()
        .compile(&specs, &body)
        .map_err(|e| refused("bytecode", e.to_string()))?;
    // One compiler, its options swapped per engine: building the builtin
    // macro and type environments costs more than compiling a fuzz program.
    let mut compiler = Compiler::default();
    let natives = native_engines()
        .into_iter()
        .map(|(engine, options)| {
            compiler.options = CompilerOptions { verify, ..options };
            compiler
                .function_compile(func)
                .map(|cf| cf.hosted(Rc::new(RefCell::new(Interpreter::new()))))
                .map_err(|e| refused(&engine, e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    Ok(PreparedSubject {
        func: func.clone(),
        literal_scale: literal_scale(func),
        bytecode,
        natives,
    })
}

impl PreparedSubject {
    /// Runs one argument set through every engine configuration.
    pub fn run(&self, args: &[Value]) -> EngineRun {
        // Fresh interpreters per run: generated programs reuse local
        // names, and leaked definitions must not couple iterations. Each
        // engine runs under a watchdog so a non-terminating candidate
        // (possible after shrink mutations) aborts instead of hanging.
        let mut oracle = Interpreter::new();
        let call = Expr::normal(
            self.func.clone(),
            args.iter().map(Value::to_expr).collect::<Vec<_>>(),
        );
        let interp = with_watchdog(&oracle.abort_signal().clone(), || {
            Outcome::from_run(oracle.eval(&call).map(|e| Value::from_expr(&e)))
        });

        let mut host = Interpreter::new();
        let bytecode = with_watchdog(&host.abort_signal().clone(), || {
            Outcome::from_run(self.bytecode.run_with_engine(args, &mut host))
        });

        let mut refcounts = Vec::with_capacity(self.natives.len());
        let natives: Vec<Outcome> = self
            .natives
            .iter()
            .map(|cf| {
                let before = memory::stats();
                let out = with_watchdog(&cf.abort, || Outcome::from_run(cf.call(args)));
                let after = memory::stats();
                refcounts.push((
                    after.acquires - before.acquires,
                    after.releases - before.releases,
                ));
                out
            })
            .collect();

        let scale = args
            .iter()
            .map(value_scale)
            .fold(self.literal_scale, f64::max);
        EngineRun {
            outcomes: [interp, bytecode].into_iter().chain(natives).collect(),
            refcounts,
            abs_tol: CANCELLATION_EPS * scale,
        }
    }
}

/// Whether two outcomes agree under the documented equivalence relation,
/// with no absolute cancellation allowance.
pub fn outcomes_equivalent(a: &Outcome, b: &Outcome) -> bool {
    outcomes_equivalent_within(a, b, 0.0)
}

/// [`outcomes_equivalent`] with an absolute real-comparison allowance
/// (see [`CANCELLATION_EPS`]).
pub fn outcomes_equivalent_within(a: &Outcome, b: &Outcome, abs_tol: f64) -> bool {
    match (a, b) {
        (Outcome::Ok(x), Outcome::Ok(y)) => values_equivalent_within(x, y, abs_tol),
        (Outcome::Err(x), Outcome::Err(y)) => x == y,
        _ => false,
    }
}

/// The value half of the equivalence relation (see module docs), with no
/// absolute cancellation allowance.
pub fn values_equivalent(a: &Value, b: &Value) -> bool {
    values_equivalent_within(a, b, 0.0)
}

/// [`values_equivalent`] with an absolute real-comparison allowance.
pub fn values_equivalent_within(a: &Value, b: &Value, abs_tol: f64) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => reals_close(*x, *y, abs_tol),
        // Integers are exact — except within the cancellation allowance:
        // a typed engine may route an integer computation through Real64
        // (e.g. `Quotient[2^63 - 1, realish]`) and floor back, landing a
        // few f64-resolution steps from the interpreter's exact answer.
        (Value::I64(x), Value::I64(y)) => {
            x == y || (*x as i128 - *y as i128).unsigned_abs() as f64 <= abs_tol
        }
        (Value::I64(x), Value::F64(y)) | (Value::F64(y), Value::I64(x)) => {
            reals_close(*x as f64, *y, abs_tol)
        }
        // The interpreter promotes overflowing sums to exact big integers
        // where typed compiled code stays in Real64 (e.g. `Max[8, 0.5]` is
        // the exact 8 for the interpreter but 8. under type promotion):
        // the comparison is numeric at machine precision.
        (Value::Big(x), Value::F64(y)) | (Value::F64(y), Value::Big(x)) => {
            reals_close(x.to_f64(), *y, abs_tol)
        }
        (Value::Complex(xr, xi), Value::Complex(yr, yi)) => {
            reals_close(*xr, *yr, abs_tol) && reals_close(*xi, *yi, abs_tol)
        }
        (Value::Tensor(x), Value::Tensor(y)) => tensors_equivalent(x, y, abs_tol),
        // Integers, big integers, booleans, strings, Null, expressions:
        // structural equality is the relation.
        _ => a == b,
    }
}

fn tensors_equivalent(
    a: &wolfram_runtime::Tensor,
    b: &wolfram_runtime::Tensor,
    abs_tol: f64,
) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(xs), Some(ys)) => xs.iter().zip(ys).all(|(x, y)| reals_close(*x, *y, abs_tol)),
        // Mixed storage class: a hosted engine may infer a Real64 tensor
        // where another keeps integers — e.g. a real element store later
        // overwritten by an integer. Numeric comparison, as for scalars.
        (Some(xs), None) => ints_close_to_reals(b.as_i64(), xs, abs_tol),
        (None, Some(ys)) => ints_close_to_reals(a.as_i64(), ys, abs_tol),
        (None, None) => a == b, // both integer: exact
    }
}

fn ints_close_to_reals(ints: Option<&[i64]>, reals: &[f64], abs_tol: f64) -> bool {
    ints.is_some_and(|is| {
        is.iter()
            .zip(reals)
            .all(|(i, y)| reals_close(*i as f64, *y, abs_tol))
    })
}

/// ULP-tolerant real comparison; both-NaN counts as equal. `abs_tol` is
/// the cancellation allowance — it may rescue sign-straddling pairs, since
/// cancellation to near zero can land the engines on opposite sides of it.
fn reals_close(x: f64, y: f64, abs_tol: f64) -> bool {
    if x == y || (x.is_nan() && y.is_nan()) {
        return true;
    }
    if x.is_nan() || y.is_nan() || x.is_infinite() || y.is_infinite() {
        return false;
    }
    if (x - y).abs() <= abs_tol {
        return true;
    }
    if x.signum() != y.signum() {
        // Straddling zero: only equal-enough if both are (sub)normal dust.
        return x.abs() < f64::MIN_POSITIVE && y.abs() < f64::MIN_POSITIVE;
    }
    ulp_distance(x, y) <= ULP_TOLERANCE
}

fn ulp_distance(x: f64, y: f64) -> u64 {
    // Same-sign finite values: the bit patterns are monotone in magnitude.
    let xb = x.abs().to_bits();
    let yb = y.abs().to_bits();
    xb.abs_diff(yb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    #[test]
    fn exact_for_integers_tolerant_for_reals() {
        assert!(values_equivalent(&Value::I64(3), &Value::I64(3)));
        assert!(!values_equivalent(&Value::I64(3), &Value::I64(4)));
        let x = 0.1_f64 + 0.2;
        assert!(values_equivalent(&Value::F64(x), &Value::F64(0.3)));
        assert!(!values_equivalent(
            &Value::F64(1.0),
            &Value::F64(1.0 + 1e-9)
        ));
        assert!(values_equivalent(
            &Value::F64(f64::NAN),
            &Value::F64(f64::NAN)
        ));
        assert!(values_equivalent(&Value::F64(0.0), &Value::F64(-0.0)));
    }

    #[test]
    fn cross_type_numeric_comparison() {
        assert!(values_equivalent(&Value::I64(2), &Value::F64(2.0)));
        assert!(!values_equivalent(&Value::I64(2), &Value::F64(2.5)));
    }

    #[test]
    fn tri_engines_agree_on_a_simple_program() {
        let func = parse(
            "Function[{Typed[p1, \"MachineInteger\"]}, Module[{v1 = 0}, \
             While[v1 < Min[p1, 5], v1 = v1 + 2]; v1 + Quotient[p1, 3]]]",
        )
        .unwrap();
        let subject = prepare(&func).expect("all engines compile");
        for args in [[Value::I64(7)], [Value::I64(-2)], [Value::I64(0)]] {
            let run = subject.run(&args);
            assert!(run.divergence().is_none(), "{:?}", run.outcomes);
        }
    }

    #[test]
    fn an_unbalanced_native_run_is_a_finding_even_when_values_agree() {
        let engines = native_engines();
        let mut refcounts = vec![(3, 3); engines.len()];
        let scalar_loops = engines
            .iter()
            .position(|(name, _)| name == "native-vectorize")
            .expect("the scalar-loop engine");
        refcounts[scalar_loops] = (2, 1);
        let run = EngineRun {
            outcomes: vec![Outcome::Ok(Value::I64(1)); engine_names().len()],
            refcounts,
            abs_tol: 0.0,
        };
        assert_eq!(
            run.divergence(),
            Some(Finding {
                note: "native-vectorize acquired 2 managed values and released 1".into(),
                imbalance: true,
            })
        );
    }

    #[test]
    fn watchdog_unwinds_non_terminating_programs() {
        // A shrink mutation can break a While counter; the watchdog must
        // stop every engine and the run must report inconclusive.
        let func = parse(
            "Function[{Typed[p1, \"MachineInteger\"]}, Module[{v1 = 1}, \
             While[v1 > 0, v1 = v1 + 0]; v1]]",
        )
        .unwrap();
        let subject = prepare(&func).expect("compiles everywhere");
        let run = subject.run(&[Value::I64(1)]);
        assert!(run.timed_out(), "{:?}", run.outcomes);
        assert!(run.divergence().is_none());
    }

    #[test]
    fn cancellation_allowance_scales_with_magnitude() {
        // Seed 7502226797392405932: `2^62 + p1 + (19^-3 - 2^62)` — the
        // interpreter's value-sorted Plus and the compiled left fold each
        // round once at ~2^62 magnitude, landing 512 apart after the big
        // terms cancel. Equivalent under the scaled allowance, but the
        // same absolute gap at small scale stays a divergence.
        let a = Value::F64(451583488.0);
        let b = Value::F64(451584000.0);
        let tol = CANCELLATION_EPS * 4611686018427387904.0_f64;
        assert!(values_equivalent_within(&a, &b, tol));
        assert!(!values_equivalent_within(&a, &b, CANCELLATION_EPS * 1e6));
        assert!(!values_equivalent(&a, &b));
    }

    #[test]
    fn literal_scale_finds_the_spiciest_literal() {
        let func = parse(
            "Function[{Typed[p1, \"MachineInteger\"]}, \
             4611686018427387904 + p1 + Subtract[19^-3, 4611686018427387904]]",
        )
        .unwrap();
        let subject = prepare(&func).expect("compiles everywhere");
        let run = subject.run(&[Value::I64(451583650)]);
        assert!(run.divergence().is_none(), "{:?}", run.outcomes);
    }

    #[test]
    fn specs_cover_the_subset() {
        let func = parse(
            "Function[{Typed[a, \"MachineInteger\"], Typed[b, \"Real64\"], \
             Typed[c, \"Tensor\"[\"Integer64\", 1]], Typed[d, \"Tensor\"[\"Real64\", 1]]}, a]",
        )
        .unwrap();
        let specs = specs_from_function(&func).unwrap();
        assert_eq!(specs.len(), 4);
    }
}
