//! The §1 in-text numbers: the Figure 1 random walk (interpreter vs
//! bytecode vs new compiler) and the `FindRoot` auto-compilation speedup.

use crate::harness::bench_seconds;
use wolfram_bytecode::{ArgSpec, BytecodeCompiler, CompiledFunction};
use wolfram_compiler_core::{CompiledCodeFunction, Compiler};
use wolfram_expr::{parse, Expr};
use wolfram_interp::Interpreter;
use wolfram_runtime::Value;

/// The Figure 1 `In[1]` program: the interpreted random walk.
pub const WALK_INTERPRETED_SRC: &str = r#"
Function[{len},
 NestList[
  Module[{arg = RandomReal[{0, 2*Pi}]},
   {-Cos[arg], Sin[arg]} + #
  ] &,
  {0., 0.},
  len
 ]
]
"#;

/// The Figure 1 `In[2]` program: the bytecode random walk, "minor
/// modifications needed to explicitly call the compiler" — restructured
/// around the VM's datatypes.
pub const WALK_BYTECODE_BODY: &str = r#"
Module[{out, arg, i},
 out = ConstantArray[0., {len + 1, 2}];
 i = 1;
 While[i <= len,
  arg = RandomReal[{0., 6.283185307179586}];
  out[[i + 1, 1]] = out[[i, 1]] - Cos[arg];
  out[[i + 1, 2]] = out[[i, 2]] + Sin[arg];
  i = i + 1];
 out]
"#;

/// The Figure 1 `In[3]` program: `FunctionCompile` of the NestList form
/// (the lambda's parameter carries the one required type annotation).
pub const WALK_COMPILED_SRC: &str = r#"
Function[{Typed[len, "MachineInteger"]},
 NestList[
  Function[{Typed[p, "Tensor"["Real64", 1]]},
   Module[{arg = RandomReal[{0., 6.283185307179586}]},
    {-Cos[arg], Sin[arg]} + p]],
  {0., 0.},
  len]]
"#;

/// Timings of the three random-walk implementations.
#[derive(Debug, Clone)]
pub struct WalkTimings {
    /// Walk length.
    pub len: usize,
    /// Interpreter seconds.
    pub interpreted_secs: f64,
    /// Bytecode-compiled seconds.
    pub bytecode_secs: f64,
    /// FunctionCompile seconds.
    pub compiled_secs: f64,
}

impl WalkTimings {
    /// Bytecode speedup over the interpreter (the paper reports ~2x at
    /// len = 100,000).
    pub fn bytecode_speedup(&self) -> f64 {
        self.interpreted_secs / self.bytecode_secs
    }

    /// New-compiler speedup over the interpreter.
    pub fn compiled_speedup(&self) -> f64 {
        self.interpreted_secs / self.compiled_secs
    }
}

/// Compiles the three walk variants (reusable across lengths).
pub struct WalkSuite {
    interp_f: Expr,
    bytecode: CompiledFunction,
    compiled: CompiledCodeFunction,
}

impl Default for WalkSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl WalkSuite {
    /// Builds all three implementations.
    ///
    /// # Panics
    ///
    /// Panics if any variant fails to build.
    pub fn new() -> Self {
        let interp_f = parse(WALK_INTERPRETED_SRC).expect("interpreted walk source");
        let bytecode = BytecodeCompiler::new()
            .compile(
                &[ArgSpec::int("len")],
                &parse(WALK_BYTECODE_BODY).expect("walk body"),
            )
            .expect("bytecode walk");
        let compiled = Compiler::default()
            .function_compile_src(WALK_COMPILED_SRC)
            .expect("compiled walk");
        WalkSuite {
            interp_f,
            bytecode,
            compiled,
        }
    }

    /// Runs the interpreted walk.
    ///
    /// # Panics
    ///
    /// Panics on evaluation failure.
    pub fn run_interpreted(&self, engine: &mut Interpreter, len: i64) -> Expr {
        let call = Expr::normal(self.interp_f.clone(), vec![Expr::int(len)]);
        engine.eval(&call).expect("interpreted walk")
    }

    /// Runs the bytecode walk.
    ///
    /// # Panics
    ///
    /// Panics on VM failure.
    pub fn run_bytecode(&self, len: i64) -> Value {
        self.bytecode
            .run(&[Value::I64(len)])
            .expect("bytecode walk")
    }

    /// Runs the compiled walk.
    ///
    /// # Panics
    ///
    /// Panics on machine failure.
    pub fn run_compiled(&self, len: i64) -> Value {
        self.compiled
            .call(&[Value::I64(len)])
            .expect("compiled walk")
    }

    /// Times all three at a given length.
    pub fn time(&self, len: usize, reps: usize) -> WalkTimings {
        let mut engine = Interpreter::new();
        engine.seed_random(7);
        WalkTimings {
            len,
            interpreted_secs: bench_seconds(reps, || {
                std::hint::black_box(self.run_interpreted(&mut engine, len as i64));
            }),
            bytecode_secs: bench_seconds(reps, || {
                std::hint::black_box(self.run_bytecode(len as i64));
            }),
            compiled_secs: bench_seconds(reps, || {
                std::hint::black_box(self.run_compiled(len as i64));
            }),
        }
    }
}

/// `FindRoot` auto-compilation (§1: "achieves a 1.6x speedup over an
/// uncompiled version"): times repeated solves of `Sin[x] + E^x == 0` with
/// the auto-compile hook off and on.
pub struct FindRootTimings {
    /// Seconds per solve, interpreted objective.
    pub interpreted_secs: f64,
    /// Seconds per solve, auto-compiled objective.
    pub autocompiled_secs: f64,
    /// Number of times the hook produced compiled code.
    pub autocompile_hits: u64,
}

impl FindRootTimings {
    /// The auto-compilation speedup.
    pub fn speedup(&self) -> f64 {
        self.interpreted_secs / self.autocompiled_secs
    }
}

/// Measures the FindRoot auto-compilation speedup over `solves` solves.
///
/// # Panics
///
/// Panics if the root diverges from the paper's `x ~ -0.588533`.
pub fn findroot_speedup(solves: usize) -> FindRootTimings {
    let src = "FindRoot[Sin[x] + E^x, {x, 0}]";
    let check = |out: &Expr| {
        let root = out.args()[0].args()[1].as_f64().expect("numeric root");
        assert!((root + 0.588_532_743_981_861_1).abs() < 1e-6, "root {root}");
    };

    // Interpreted objective.
    let mut plain = Interpreter::new();
    check(&plain.eval_src(src).unwrap());
    let interpreted_secs = bench_seconds(2, || {
        for _ in 0..solves {
            std::hint::black_box(plain.eval_src(src).unwrap());
        }
    }) / solves as f64;

    // Auto-compiled objective: the compiler package installs the hook,
    // with per-expression caching of compiled objectives.
    let mut hosted = Interpreter::new();
    Compiler::install_auto_compile(&mut hosted);
    check(&hosted.eval_src(src).unwrap());
    let autocompiled_secs = bench_seconds(2, || {
        for _ in 0..solves {
            std::hint::black_box(hosted.eval_src(src).unwrap());
        }
    }) / solves as f64;

    FindRootTimings {
        interpreted_secs,
        autocompiled_secs,
        autocompile_hits: hosted.autocompile_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_walks_agree_in_shape() {
        let suite = WalkSuite::new();
        let len = 50i64;
        let mut engine = Interpreter::new();
        let interp = suite.run_interpreted(&mut engine, len);
        assert_eq!(interp.length(), len as usize + 1);
        let bc = suite.run_bytecode(len);
        assert_eq!(bc.expect_tensor().unwrap().shape(), &[len as usize + 1, 2]);
        let compiled = suite.run_compiled(len);
        let t = compiled.expect_tensor().unwrap();
        assert_eq!(t.shape(), &[len as usize + 1, 2]);
        // Every step has unit length (the walk invariant).
        let data = t.as_f64().unwrap();
        for i in 0..len as usize {
            let dx = data[(i + 1) * 2] - data[i * 2];
            let dy = data[(i + 1) * 2 + 1] - data[i * 2 + 1];
            assert!((dx.hypot(dy) - 1.0).abs() < 1e-9, "step {i}");
        }
    }

    #[test]
    fn walk_timings_produce_positive_numbers() {
        let suite = WalkSuite::new();
        let t = suite.time(500, 1);
        assert!(t.interpreted_secs > 0.0);
        assert!(t.bytecode_secs > 0.0);
        assert!(t.compiled_secs > 0.0);
    }

    #[test]
    fn findroot_autocompile_produces_same_root_and_hits() {
        let t = findroot_speedup(3);
        assert!(t.autocompile_hits >= 1, "hook must fire");
        assert!(t.interpreted_secs > 0.0 && t.autocompiled_secs > 0.0);
    }
}
