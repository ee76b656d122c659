//! The `FunctionCompile` pipeline (§4, §4.7): `MExpr -> WIR -> TWIR ->
//! code generation`, with user-injectable macro/type environments,
//! per-stage artifacts, and pass timing (the §6 internal benchmark suite
//! measures "compilation time, time to run specific passes"). Every stage
//! reads the one [`CompilerOptions`] the compiler was built with.

use crate::binding;
use crate::engine::CompiledCodeFunction;
use crate::infer;
use crate::lower;
use crate::macros::MacroEnvironment;
use crate::resolve;
use crate::stdlib;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_codegen::{BackendRegistry, NativeProgram};
use wolfram_expr::{parse, Expr};
use wolfram_interp::findroot::CompiledUnary;
use wolfram_interp::Interpreter;
use wolfram_ir::{ProgramModule, VerifyLevel};
use wolfram_types::TypeEnvironment;

pub use wolfram_ir::options::{Ablation, CompilerOptions, TargetSystem};

/// The compiler version string (the paper evaluates v1.0.1.0).
pub const COMPILER_VERSION: &str = "1.0.1.0";

/// A compile-time failure, tagged by pipeline stage.
#[derive(Debug)]
pub enum CompileError {
    /// Source text failed to parse.
    Parse(wolfram_expr::ParseError),
    /// Binding analysis failed.
    Binding(binding::BindingError),
    /// Lowering failed.
    Lower(lower::LowerError),
    /// Type inference failed.
    Infer(wolfram_types::SolveError),
    /// Function resolution failed.
    Resolve(resolve::ResolveFail),
    /// A pass broke SSA (linter).
    Verify(wolfram_ir::verify::VerifyError),
    /// Code generation failed.
    Codegen(wolfram_codegen::LowerError),
    /// A textual backend failed.
    Backend(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Binding(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Infer(e) => write!(f, "type inference failed: {e}"),
            CompileError::Resolve(e) => write!(f, "function resolution failed: {e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
            CompileError::Codegen(e) => write!(f, "code generation failed: {e}"),
            CompileError::Backend(e) => write!(f, "backend failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The Wolfram Language compiler: a staged pipeline with replaceable macro
/// and type environments.
pub struct Compiler {
    /// Compiler options.
    pub options: CompilerOptions,
    /// The macro environment (extensible, §4.7).
    pub macros: MacroEnvironment,
    /// The type environment (extensible, F6).
    pub types: TypeEnvironment,
    /// Textual export backends (extensible, F4).
    pub backends: BackendRegistry,
    timings: RefCell<Vec<(String, Duration)>>,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new(CompilerOptions::default())
    }
}

impl Compiler {
    /// A compiler with the builtin macro and type environments.
    pub fn new(options: CompilerOptions) -> Self {
        Compiler {
            options,
            macros: MacroEnvironment::builtin(),
            types: stdlib::builtin_type_environment(),
            backends: BackendRegistry::new(),
            timings: RefCell::new(Vec::new()),
        }
    }

    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.timings
            .borrow_mut()
            .push((name.to_owned(), start.elapsed()));
        out
    }

    /// Per-stage timings of the most recent compilation, in pipeline order.
    /// Each function contributes `optimize[<name>]`, the time in its IR
    /// passes, and `optimize[<name>].verify`, the time verifying their
    /// results.
    pub fn timings(&self) -> Vec<(String, Duration)> {
        self.timings.borrow().clone()
    }

    /// `CompileToAST`: macro-expand (A.6.1).
    pub fn compile_to_ast(&self, f: &Expr) -> Expr {
        self.macros.expand(f, &self.options)
    }

    /// `CompileToIR` with optimizations off: the untyped WIR (A.6.2).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_to_ir(&self, f: &Expr) -> Result<ProgramModule, CompileError> {
        let ast = self.compile_to_ast(f);
        let bound = binding::analyze(&ast).map_err(CompileError::Binding)?;
        lower::lower(&bound, None, &self.types).map_err(CompileError::Lower)
    }

    /// `CompileToIR`: the fully typed, resolved, optimized TWIR (A.6.3).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_to_twir(
        &self,
        f: &Expr,
        public_name: Option<&str>,
    ) -> Result<ProgramModule, CompileError> {
        self.timings.borrow_mut().clear();
        let ast = self.time("macro-expansion", || self.compile_to_ast(f));
        let bound = self
            .time("binding-analysis", || binding::analyze(&ast))
            .map_err(CompileError::Binding)?;
        let mut pm = self
            .time("lowering", || {
                lower::lower(&bound, public_name, &self.types)
            })
            .map_err(CompileError::Lower)?;
        let inference = self
            .time("type-inference", || infer::infer(&mut pm, &self.types))
            .map_err(CompileError::Infer)?;
        self.time("function-resolution", || {
            resolve::resolve_module(&mut pm, &self.types, inference, self.options.inline_policy)
        })
        .map_err(CompileError::Resolve)?;
        let full_check = (self.options.verify == VerifyLevel::Full)
            .then(|| wolfram_analyze::pipeline_verifier(wolfram_analyze::module_signatures(&pm)));
        let mut fix = 0;
        while fix < pm.functions.len() {
            let f = &mut pm.functions[fix];
            // Two entries per function: the passes themselves, and what
            // `run_pipeline` spent verifying their results.
            let start = Instant::now();
            let report = wolfram_ir::run_pipeline(f, &self.options, full_check.as_ref());
            let total = start.elapsed();
            let verifying = report.as_ref().map_or(Duration::ZERO, |r| r.verify_time);
            let mut timings = self.timings.borrow_mut();
            timings.push((format!("optimize[{}]", f.name), total - verifying));
            timings.push((format!("optimize[{}].verify", f.name), verifying));
            report.map_err(CompileError::Verify)?;
            if fix == 0 {
                // The entry's passes delete the closures whose calls were
                // all inlined: their lambdas cost no passes or code.
                resolve::drop_unreachable(&mut pm);
            }
            fix += 1;
        }
        // The finished module, checked whole.
        if self.options.verify != VerifyLevel::Off {
            self.time("analyze", || {
                pm.functions
                    .iter()
                    .try_for_each(wolfram_ir::verify_function)?;
                if self.options.verify == VerifyLevel::Full {
                    wolfram_analyze::verify_module(&pm)?;
                }
                Ok(())
            })
            .map_err(CompileError::Verify)?;
        }
        Ok(pm)
    }

    /// Lowers a TWIR to the native program (the JIT step).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn generate_native(&self, pm: &ProgramModule) -> Result<NativeProgram, CompileError> {
        let range_facts = self.options.range_checks_elision.then(|| {
            self.time("range-analysis", || {
                wolfram_analyze::intervals::analyze_module_ranges(pm)
            })
        });
        let mut native = self
            .time("code-generation", || {
                wolfram_codegen::lower_program(pm, &self.options, range_facts.as_ref())
            })
            .map_err(CompileError::Codegen)?;
        if self.options.superinstruction_fusion {
            self.time("superinstruction-fusion", || {
                wolfram_codegen::fuse_program(&mut native);
                // The planner recognizes the fused loop header and latch
                // superinstructions, so it runs only on fused code.
                if self.options.loop_vectorize {
                    wolfram_codegen::vectorize_program(&mut native);
                }
            });
        }
        if self.options.data_parallel {
            // Switches the machine's whole-tensor builtins to the chunked
            // parallel kernels.
            native.parallel = Some(self.options.parallel);
        }
        Ok(native)
    }

    /// `FunctionCompile` (§4.1): compiles a `Function[...]` expression into
    /// a callable compiled function (standalone: no engine integration).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn function_compile(&self, f: &Expr) -> Result<CompiledCodeFunction, CompileError> {
        self.function_compile_named(f, None)
    }

    /// `FunctionCompile` with a public name enabling self-recursion (the
    /// paper's `cfib = FunctionCompile[...]`).
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn function_compile_named(
        &self,
        f: &Expr,
        public_name: Option<&str>,
    ) -> Result<CompiledCodeFunction, CompileError> {
        let pm = self.compile_to_twir(f, public_name)?;
        let native = self.generate_native(&pm)?;
        CompiledCodeFunction::new(f.clone(), Arc::new(pm), Arc::new(native))
    }

    /// `FunctionCompile` from source text.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn function_compile_src(&self, src: &str) -> Result<CompiledCodeFunction, CompileError> {
        let f = parse(src).map_err(CompileError::Parse)?;
        self.function_compile(&f)
    }

    /// `FunctionCompileExportString` (A.6.4/A.6.5): renders the compiled
    /// function through a textual backend (`"IR"`, `"C"`, `"WVM"`, or a
    /// registered one). `"Assembler"` lists the native program
    /// [`Compiler::generate_native`] builds under this compiler's options —
    /// the code that runs, not a separate lowering.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn export_string(&self, f: &Expr, backend: &str) -> Result<String, CompileError> {
        let pm = self.compile_to_twir(f, None)?;
        match self.backends.get(backend) {
            Some(backend) => backend.generate(&pm).map_err(CompileError::Backend),
            None if backend == "Assembler" => Ok(wolfram_codegen::asm::render_program(
                &self.generate_native(&pm)?,
            )),
            None => Err(CompileError::Backend(format!(
                "unknown backend `{backend}`"
            ))),
        }
    }

    /// `FunctionCompileExportLibrary` (F10): writes a standalone library
    /// artifact.
    ///
    /// # Errors
    ///
    /// Compilation errors (the function is validated by compiling it) and
    /// I/O errors as [`CompileError::Backend`].
    pub fn export_library(
        &self,
        f: &Expr,
        path: &std::path::Path,
    ) -> Result<wolfram_codegen::export::ExportedLibrary, CompileError> {
        // Validate by compiling.
        let _ = self.compile_to_twir(f, None)?;
        let lib = wolfram_codegen::export::ExportedLibrary::new(f, COMPILER_VERSION, true);
        lib.write(path)
            .map_err(|e| CompileError::Backend(e.to_string()))?;
        Ok(lib)
    }

    /// `LibraryFunctionLoad`: loads an exported library, recompiling from
    /// the embedded source (version checks always recompile here, matching
    /// §2.2's behavior).
    ///
    /// # Errors
    ///
    /// Format and compilation errors.
    pub fn load_library(
        &self,
        path: &std::path::Path,
    ) -> Result<CompiledCodeFunction, CompileError> {
        let lib =
            wolfram_codegen::export::ExportedLibrary::read(path).map_err(CompileError::Backend)?;
        let f = lib.function().map_err(CompileError::Parse)?;
        let mut compiled = self.function_compile(&f)?;
        compiled.standalone = lib.standalone;
        Ok(compiled)
    }

    /// Installs the `FindRoot` auto-compilation hook (§1) into an engine:
    /// numerical solvers hosted there transparently compile their
    /// objective functions. Compiled objectives are cached per expression,
    /// so repeat solves of the same equation reuse the compiled code, as
    /// the production compiler's code cache does.
    pub fn install_auto_compile(engine: &mut Interpreter) {
        let cache: RefCell<HashMap<String, CompiledUnary>> = RefCell::default();
        let hook: wolfram_interp::AutoCompileHook = Rc::new(move |body: &Expr, var| {
            let key = format!("{}@{}", var.name(), body.to_full_form());
            if let Some(hit) = cache.borrow().get(&key) {
                return Some(hit.clone());
            }
            let f = Expr::call(
                "Function",
                [
                    Expr::list([Expr::call(
                        "Typed",
                        [Expr::symbol(var.clone()), Expr::string("Real64")],
                    )]),
                    body.clone(),
                ],
            );
            let compiled = Rc::new(Compiler::default().function_compile(&f).ok()?);
            let entry: CompiledUnary = Rc::new(move |x: f64| {
                compiled
                    .call(&[wolfram_runtime::Value::F64(x)])?
                    .expect_f64()
            });
            cache.borrow_mut().insert(key, entry.clone());
            Some(entry)
        });
        engine.auto_compile = Some(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_runtime::{ParallelConfig, Value};

    #[test]
    fn add_one_compiles_and_runs() {
        let compiler = Compiler::default();
        let cf = compiler
            .function_compile_src("Function[{Typed[n, \"MachineInteger\"]}, n + 1]")
            .unwrap();
        assert_eq!(cf.call(&[Value::I64(41)]).unwrap(), Value::I64(42));
        // Timings recorded for every stage.
        let stages: Vec<String> = compiler.timings().into_iter().map(|(n, _)| n).collect();
        assert!(stages.iter().any(|s| s == "macro-expansion"), "{stages:?}");
        assert!(stages.iter().any(|s| s == "type-inference"), "{stages:?}");
        assert!(stages.iter().any(|s| s == "code-generation"), "{stages:?}");
    }

    #[test]
    fn loops_compile() {
        let compiler = Compiler::default();
        let cf = compiler
            .function_compile_src(
                "Function[{Typed[n, \"MachineInteger\"]}, \
                 Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]",
            )
            .unwrap();
        assert_eq!(cf.call(&[Value::I64(100)]).unwrap(), Value::I64(5050));
    }

    #[test]
    fn export_strings() {
        let compiler = Compiler::default();
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        let ir = compiler.export_string(&f, "IR").unwrap();
        assert!(ir.contains("checked_binary_plus"), "{ir}");
        let c = compiler.export_string(&f, "C").unwrap();
        assert!(c.contains("int64_t"), "{c}");
        let asm = compiler.export_string(&f, "Assembler").unwrap();
        assert!(asm.contains("_Main:"), "{asm}");
        assert!(compiler.export_string(&f, "PTX").is_err());
    }

    #[test]
    fn export_and_load_library() {
        let compiler = Compiler::default();
        let f = parse("Function[{Typed[x, \"Real64\"]}, Sin[x] + 1]").unwrap();
        let dir = std::env::temp_dir().join("wolfram-core-export");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sinPlus.wxl");
        compiler.export_library(&f, &path).unwrap();
        let loaded = compiler.load_library(&path).unwrap();
        assert!(loaded.standalone);
        assert_eq!(loaded.call(&[Value::F64(0.0)]).unwrap(), Value::F64(1.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compile_errors_are_reported() {
        let compiler = Compiler::default();
        // Untyped parameters cannot be inferred.
        assert!(matches!(
            compiler.function_compile_src("Function[{n}, n + 1]"),
            Err(CompileError::Infer(_))
        ));
        // Parse errors.
        assert!(matches!(
            compiler.function_compile_src("Function[{"),
            Err(CompileError::Parse(_))
        ));
        // Type errors.
        assert!(matches!(
            compiler.function_compile_src("Function[{Typed[x, \"Real64\"]}, StringLength[x]]"),
            Err(CompileError::Infer(_))
        ));
    }

    #[test]
    fn optimization_level_zero_keeps_code() {
        let options = CompilerOptions {
            optimization_level: 0,
            ..CompilerOptions::default()
        };
        let compiler = Compiler::new(options);
        let cf = compiler
            .function_compile_src("Function[{Typed[n, \"MachineInteger\"]}, 1 + 2 + n]")
            .unwrap();
        assert_eq!(cf.call(&[Value::I64(3)]).unwrap(), Value::I64(6));
    }

    #[test]
    fn range_elision_emits_unchecked_ops_and_matches_checked_results() {
        // A counted loop writing in-bounds Parts: the interval analysis
        // proves every access, so the default tier lowers unchecked ops
        // while the ablation baseline keeps all checks — with identical
        // observable results.
        let src = "Function[{Typed[n, \"MachineInteger\"]}, \
                   Module[{out, i}, out = ConstantArray[0, {n}]; i = 1; \
                   While[i <= n, out[[i]] = 2*i + 1; i = i + 1]; out]]";
        let expr = parse(src).unwrap();
        let on = Compiler::default();
        let off = Compiler::new(CompilerOptions {
            range_checks_elision: false,
            ..CompilerOptions::default()
        });

        let lower = |c: &Compiler| {
            let pm = c.compile_to_twir(&expr, None).unwrap();
            c.generate_native(&pm).unwrap()
        };
        let native_on = lower(&on);
        let native_off = lower(&off);

        let bounds_elided =
            |n: &NativeProgram| -> u32 { n.funcs.iter().map(|f| f.elision.bounds_elided).sum() };
        let ovf_elided =
            |n: &NativeProgram| -> u32 { n.funcs.iter().map(|f| f.elision.ovf_elided).sum() };
        assert!(bounds_elided(&native_on) > 0, "Part proof must fire");
        assert!(ovf_elided(&native_on) > 0, "overflow proof must fire");
        assert_eq!(bounds_elided(&native_off), 0);
        assert_eq!(ovf_elided(&native_off), 0);
        // Refcount pairs are cancelled by the lowering on every compile,
        // not by the range analysis.
        let rc_elided =
            |n: &NativeProgram| -> u32 { n.funcs.iter().map(|f| f.elision.rc_elided).sum() };
        assert!(rc_elided(&native_on) > 0, "no refcount pair cancelled");
        assert_eq!(rc_elided(&native_on), rc_elided(&native_off));

        // The unchecked mnemonics (".u") appear only in the elided build.
        let asm = |n: &NativeProgram| -> String {
            n.funcs
                .iter()
                .map(wolfram_codegen::asm::render_function)
                .collect()
        };
        assert!(asm(&native_on).contains(".u."), "{}", asm(&native_on));
        assert!(!asm(&native_off).contains(".u."), "{}", asm(&native_off));

        // Bit-identical results from both configurations.
        let run = |c: &Compiler| {
            c.function_compile_src(src)
                .unwrap()
                .call(&[Value::I64(6)])
                .unwrap()
        };
        assert_eq!(run(&on), run(&off));
    }

    #[test]
    fn auto_compiled_findroot_finds_the_interpreted_root() {
        let src = "FindRoot[Sin[x] + E^x, {x, 0}]";
        let mut plain = Interpreter::new();
        let want = plain.eval_src(src).unwrap();
        let mut hosted = Interpreter::new();
        Compiler::install_auto_compile(&mut hosted);
        assert_eq!(hosted.autocompile_hits, 0);
        assert_eq!(hosted.eval_src(src).unwrap(), want);
        let hits = hosted.autocompile_hits;
        assert!(hits > 0, "the hook must compile the objective");
        // A repeat solve is served from the hook's cache, and still counts.
        assert_eq!(hosted.eval_src(src).unwrap(), want);
        assert!(hosted.autocompile_hits > hits);
        assert_eq!(plain.autocompile_hits, 0);
    }

    /// 3x3 blur (the §6 benchmark shape): its fused inner loop is the
    /// canonical VecLoop target.
    const BLUR_SRC: &str = r#"
Function[{Typed[img, "Tensor"["Real64", 2]], Typed[h, "MachineInteger"], Typed[w, "MachineInteger"]},
 Module[{out, i, j, s},
  out = ConstantArray[0., {h, w}];
  i = 2;
  While[i < h,
   j = 2;
   While[j < w,
    s = img[[i - 1, j - 1]] + 2.0*img[[i - 1, j]] + img[[i - 1, j + 1]]
      + 2.0*img[[i, j - 1]] + 4.0*img[[i, j]] + 2.0*img[[i, j + 1]]
      + img[[i + 1, j - 1]] + 2.0*img[[i + 1, j]] + img[[i + 1, j + 1]];
    out[[i, j]] = s / 16.0;
    j = j + 1];
   i = i + 1];
  out]]
"#;

    fn blur_args(h: usize, w: usize) -> Vec<Value> {
        let img: Vec<f64> = (0..h * w).map(|k| ((k * 37 % 101) as f64) / 7.0).collect();
        let ten =
            wolfram_runtime::Tensor::with_shape(vec![h, w], wolfram_runtime::TensorData::F64(img))
                .unwrap();
        vec![
            Value::Tensor(ten),
            Value::I64(h as i64),
            Value::I64(w as i64),
        ]
    }

    fn scalar_loops() -> Compiler {
        let mut options = CompilerOptions::default();
        Ablation::Vectorize.apply(&mut options);
        Compiler::new(options)
    }

    #[test]
    fn data_parallel_blur_plants_vec_loops_and_matches_scalar() {
        let vec_loops = |cf: &CompiledCodeFunction| {
            let ops = cf.program.funcs.iter().flat_map(|f| &f.code);
            ops.filter(|op| matches!(op, wolfram_codegen::RegOp::VecLoop { .. }))
                .count()
        };
        let compiler = Compiler::default();
        let default = compiler.function_compile_src(BLUR_SRC).unwrap();
        assert!(
            vec_loops(&default) >= 1,
            "the blur inner loop must vectorize"
        );
        assert!(default.program.parallel.is_none());
        // Planning reports under fusion's timing name, not one of its own.
        let stages: Vec<String> = compiler.timings().into_iter().map(|(n, _)| n).collect();
        assert!(stages.iter().any(|s| s == "superinstruction-fusion"));
        assert!(!stages.iter().any(|s| s == "loop-vectorize"), "{stages:?}");
        // The reference keeps every loop scalar.
        let scalar = scalar_loops().function_compile_src(BLUR_SRC).unwrap();
        assert_eq!(vec_loops(&scalar), 0);
        let want = scalar.call(&blur_args(31, 23)).unwrap();
        assert_eq!(default.call(&blur_args(31, 23)).unwrap(), want);
        for threads in [1usize, 4] {
            let opts = CompilerOptions {
                data_parallel: true,
                parallel: ParallelConfig {
                    num_threads: threads,
                    min_elems_per_chunk: 8,
                },
                ..CompilerOptions::default()
            };
            let cf = Compiler::new(opts).function_compile_src(BLUR_SRC).unwrap();
            assert!(cf.program.parallel.is_some());
            // Bit-identical: each output element's expression tree is
            // evaluated in the scalar loop's operation order.
            assert_eq!(
                cf.call(&blur_args(31, 23)).unwrap(),
                want,
                "threads={threads}"
            );
            // Repeat calls on the same compiled function stay stable.
            assert_eq!(cf.call(&blur_args(31, 23)).unwrap(), want);
        }
    }

    #[test]
    fn blur_around_the_batch_threshold_matches_scalar_loops() {
        // Rows of 1 to 10 interior pixels: the batch is empty, below the
        // planner's minimum, or just above it, and the scalar tail runs
        // after each.
        let planted = Compiler::default().function_compile_src(BLUR_SRC).unwrap();
        let scalar = scalar_loops().function_compile_src(BLUR_SRC).unwrap();
        for h in 3..=5 {
            for w in 3..=12 {
                assert_eq!(
                    planted.call(&blur_args(h, w)).unwrap(),
                    scalar.call(&blur_args(h, w)).unwrap(),
                    "{h}x{w}"
                );
            }
        }
    }

    #[test]
    fn an_abort_during_a_planted_blur_unwinds_balanced_and_the_function_recovers() {
        let cf = Compiler::default().function_compile_src(BLUR_SRC).unwrap();
        let args = blur_args(1000, 1000);
        let want = scalar_loops()
            .function_compile_src(BLUR_SRC)
            .unwrap()
            .call(&args)
            .unwrap();
        // The batch polls once per 1,024-element block. A call that
        // finishes before the trigger lands must return the right image,
        // and is tried again.
        let aborted = (0..10).any(|_| {
            cf.abort.reset();
            wolfram_runtime::memory::reset_stats();
            let signal = cf.abort.clone();
            let trigger = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                signal.trigger();
            });
            let got = cf.call(&args);
            trigger.join().unwrap();
            let stats = wolfram_runtime::memory::stats();
            assert_eq!(stats.acquires, stats.releases, "{stats:?}");
            match got {
                Err(e) => {
                    assert_eq!(e, wolfram_runtime::RuntimeError::Aborted);
                    true
                }
                Ok(v) => {
                    assert_eq!(v, want);
                    false
                }
            }
        });
        assert!(aborted, "no trigger landed inside the call");
        cf.abort.reset();
        assert_eq!(cf.call(&args).unwrap(), want);
    }

    #[test]
    fn lambdas_whose_calls_were_all_inlined_leave_the_module() {
        use wolfram_ir::module::{Callee, Instr};
        let names = |compiler: Compiler, src: &str| {
            let pm = compiler
                .compile_to_twir(&parse(src).unwrap(), None)
                .unwrap();
            // Every direct call's id names its callee.
            for i in pm.functions.iter().flat_map(|f| f.instrs()) {
                if let Instr::Call {
                    callee: Callee::Function { name, func },
                    ..
                } = i
                {
                    assert_eq!(&*pm.functions[func.0 as usize].name, &**name);
                }
            }
            pm.functions
                .iter()
                .map(|f| f.name.clone())
                .collect::<Vec<_>>()
        };
        // QSort's comparators are inlined at every call, and their
        // closures deleted: only `Main` is left. Never inlined, they stay.
        let qsort = wolfram_bench::programs::QSORT_SRC;
        assert_eq!(names(Compiler::default(), qsort), ["Main"]);
        let mut never = CompilerOptions::default();
        Ablation::Inlining.apply(&mut never);
        assert_eq!(names(Compiler::new(never), qsort).len(), 3);
        // `f` is inlined and dropped; `g`, a loop, stays a direct call, and
        // its id follows it down.
        let src = r#"
Function[{Typed[n, "MachineInteger"]},
 Module[{f = Function[{Typed[x, "MachineInteger"]}, x + 1],
         g = Function[{Typed[x, "MachineInteger"]},
           Module[{s = 0, i = 1}, While[i <= x, s = s + i; i = i + 1]; s]]},
  f[n] + g[n]]]"#;
        let kept = names(Compiler::default(), src);
        assert_eq!(kept.len(), 2, "{kept:?}");
        let cf = Compiler::default().function_compile_src(src).unwrap();
        assert_eq!(cf.call(&[Value::I64(10)]).unwrap(), Value::I64(66));
    }

    /// Histogram of `data` under the default compile (its loop a planted
    /// scatter-add) and with every loop scalar: the same result, or the
    /// same error with the same text, and the same tensor copies.
    fn histogram_agrees(src: &str, args: &[Value]) -> Result<Value, wolfram_runtime::RuntimeError> {
        use wolfram_runtime::memory;
        let planted = Compiler::default().function_compile_src(src).unwrap();
        let plans = planted.program.funcs.iter().flat_map(|f| &f.code);
        let plans = plans.filter(|op| matches!(op, wolfram_codegen::RegOp::VecLoop { .. }));
        assert_eq!(plans.count(), 1, "the scatter-add must plan:\n{src}");
        let scalar = scalar_loops().function_compile_src(src).unwrap();
        let run = |cf: &CompiledCodeFunction| {
            let before = memory::stats().tensor_copies;
            let got = cf.call(args);
            (got, memory::stats().tensor_copies - before)
        };
        let (got, copies) = run(&planted);
        let (want, want_copies) = run(&scalar);
        assert_eq!(got, want);
        assert_eq!(
            got.as_ref().map_err(ToString::to_string),
            want.as_ref().map_err(ToString::to_string)
        );
        assert_eq!(copies, want_copies, "tensor copies");
        got
    }

    fn histogram_of(data: Vec<i64>) -> Result<Value, wolfram_runtime::RuntimeError> {
        let args = [Value::Tensor(wolfram_runtime::Tensor::from_i64(data))];
        histogram_agrees(wolfram_bench::programs::HISTOGRAM_SRC, &args)
    }

    /// `n` bytes, each bin hit in turn.
    fn bytes(n: usize) -> Vec<i64> {
        (0..n as i64).map(|x| x * 7 % 256).collect()
    }

    #[test]
    fn a_planted_histogram_raises_at_the_faulting_element_like_the_scalar_loop() {
        use wolfram_runtime::RuntimeError;
        let n = 3000;
        // Element 0, inside the first block, at the first block's end and
        // the next one's start (the batch covers iterations 0..n-1 in
        // 1,024-element blocks), across the second block boundary, the
        // batch's last element and the scalar tail.
        for k in [0, 1, 517, 1022, 1023, 1024, 1025, 2047, 2048, n - 2, n - 1] {
            // An out-of-range bin unique to `k`, so the error names where
            // it was raised, and a later one that must not be reached.
            let mut data = bytes(n);
            data[k] = 256 + k as i64;
            if k + 1 < n {
                data[k + 1] = 9999;
            }
            let err = histogram_of(data).unwrap_err();
            let index = 257 + k as i64;
            assert_eq!(err, RuntimeError::PartOutOfRange { index, length: 256 });
            // Index 0 (`data[[i]] + 1 == 0`).
            let mut data = bytes(n);
            data[k] = -1;
            assert!(histogram_of(data).is_err(), "index 0 at {k}");
            // `data[[i]] + 1` overflows.
            let mut data = bytes(n);
            data[k] = i64::MAX;
            assert!(histogram_of(data).is_err(), "i64::MAX at {k}");
            // The addend `w[[i]] + 1` overflows at a valid bin.
            let mut w = vec![1; n];
            w[k] = i64::MAX;
            let args = [bytes(n), w].map(|v| Value::Tensor(wolfram_runtime::Tensor::from_i64(v)));
            let err = histogram_agrees(WEIGHTED, &args).unwrap_err();
            assert_eq!(err, RuntimeError::IntegerOverflow, "w[[{k}]]");
        }
    }

    /// Histogram of `idx` with weights `w[[i]] + 1`.
    const WEIGHTED: &str = r#"
Function[{Typed[idx, "Tensor"["Integer64", 1]], Typed[w, "Tensor"["Integer64", 1]]},
 Module[{t = ConstantArray[0, 256], i = 1, n = Length[idx], b},
  While[i <= n, b = idx[[i]] + 1; t[[b]] = t[[b]] + (w[[i]] + 1); i = i + 1];
  t]]
"#;

    #[test]
    fn a_planted_histogram_counts_negative_bins_from_the_end() {
        // -2 + 1 = -1 is the last bin, -257 + 1 = -256 the first; -258
        // would be out of range.
        let mut data = bytes(2000);
        for k in (0..2000).step_by(3) {
            data[k] = if k % 2 == 0 { -2 } else { -257 };
        }
        let Value::Tensor(bins) = histogram_of(data.clone()).unwrap() else {
            panic!("a tensor of bins");
        };
        let bins = bins.as_i64().unwrap();
        assert!(bins[255] > 300 && bins[0] > 300, "{bins:?}");
        // The batch resolves them itself: it runs every element but the
        // last (19 dispatches in all, `histogram_dispatches` in the fusion
        // tests), where stopping at one would leave the rest to the scalar
        // loop at 5 a piece.
        let cf = Compiler::default()
            .function_compile_src(wolfram_bench::programs::HISTOGRAM_SRC)
            .unwrap();
        cf.profile_ops(true);
        let args = [Value::Tensor(wolfram_runtime::Tensor::from_i64(data))];
        cf.call(&args).unwrap();
        assert_eq!(cf.take_op_stats().total(), 19);
        let mut data = bytes(2000);
        data[1500] = -258;
        assert!(histogram_of(data).is_err());
    }

    #[test]
    fn a_planted_histogram_matches_the_scalar_loop_at_every_trip_count() {
        // Empty, below the planner's minimum batch, just above it, around
        // one block and past two.
        for n in (0..=9).chain(1023..=1026).chain([2049]) {
            histogram_of(bytes(n)).unwrap();
        }
    }

    /// A scatter-add into a copy of an argument, which the caller may pass
    /// as `data` too.
    const SCATTER_INTO_ARG: &str = r#"
Function[{Typed[data, "Tensor"["Integer64", 1]], Typed[bins, "Tensor"["Integer64", 1]]},
 Module[{t = bins, i = 1, n = Length[data], b},
  While[i <= n, b = data[[i]]; t[[b]] = t[[b]] + data[[i]]; i = i + 1];
  t]]
"#;

    #[test]
    fn a_scatter_add_into_an_argument_copies_exactly_when_the_scalar_loop_does() {
        use wolfram_runtime::Tensor;
        let x = Tensor::from_i64((0..2000).map(|k| k % 50 + 1).collect());
        let y = Tensor::from_i64(vec![0; 2000]);
        // Output and input share storage, or only the caller holds it.
        for (data, bins) in [(&x, &x), (&x, &y)] {
            let args = [Value::Tensor(data.clone()), Value::Tensor(bins.clone())];
            histogram_agrees(SCATTER_INTO_ARG, &args).unwrap();
        }
        // The first element faults: neither the batch nor the scalar loop
        // stores, so neither copies; then a fault mid-batch.
        for at in [0, 1500] {
            let mut v: Vec<i64> = (0..2000).map(|k| k % 50 + 1).collect();
            v[at] = 0;
            let x = Tensor::from_i64(v);
            let args = [Value::Tensor(x.clone()), Value::Tensor(x)];
            histogram_agrees(SCATTER_INTO_ARG, &args).unwrap_err();
        }
    }

    #[test]
    fn an_abort_during_a_planted_histogram_unwinds_balanced_and_the_function_recovers() {
        use wolfram_bench::{programs::HISTOGRAM_SRC, workloads::random_bytes_tensor};
        let cf = Compiler::default()
            .function_compile_src(HISTOGRAM_SRC)
            .unwrap();
        let args = [Value::Tensor(random_bytes_tensor(1_000_000, 4))];
        let want = scalar_loops()
            .function_compile_src(HISTOGRAM_SRC)
            .unwrap()
            .call(&args)
            .unwrap();
        // The batch takes ~3 ms and polls once per 1,024-element block; a
        // call that finishes before the trigger lands must count right,
        // and is tried again.
        let aborted = (0..20).any(|_| {
            cf.abort.reset();
            wolfram_runtime::memory::reset_stats();
            let signal = cf.abort.clone();
            let trigger = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(500));
                signal.trigger();
            });
            let got = cf.call(&args);
            trigger.join().unwrap();
            let stats = wolfram_runtime::memory::stats();
            assert_eq!(stats.acquires, stats.releases, "{stats:?}");
            match got {
                Err(e) => {
                    assert_eq!(e, wolfram_runtime::RuntimeError::Aborted);
                    true
                }
                Ok(v) => {
                    assert_eq!(v, want);
                    false
                }
            }
        });
        assert!(aborted, "no trigger landed inside the call");
        cf.abort.reset();
        assert_eq!(cf.call(&args).unwrap(), want);
    }

    /// `src` on `args` under the default compile (its loop a planted fold)
    /// and with every loop scalar: the same result, or the same error with
    /// the same text.
    fn fold_agrees(src: &str, args: &[Value]) -> Result<Value, wolfram_runtime::RuntimeError> {
        use wolfram_codegen::{vectorize::PlanOut, RegOp};
        let planted = Compiler::default().function_compile_src(src).unwrap();
        let ops = planted.program.funcs.iter().flat_map(|f| &f.code);
        let folds = ops.filter(
            |op| matches!(op, RegOp::VecLoop { plan } if matches!(plan.out, PlanOut::Fold { .. })),
        );
        assert_eq!(folds.count(), 1, "the fold must plan:\n{src}");
        let got = planted.call(args);
        let want = scalar_loops().function_compile_src(src).unwrap().call(args);
        assert_eq!(got, want);
        assert_eq!(
            got.as_ref().map_err(ToString::to_string),
            want.as_ref().map_err(ToString::to_string)
        );
        got
    }

    /// A fold over `d` whose checked `×` overflows at an element near
    /// `i64::MAX` (FNV1a's chain over a tensor).
    const FOLD_MUL: &str = r#"
Function[{Typed[d, "Tensor"["Integer64", 1]]},
 Module[{h = 2166136261, i = 1, n = Length[d]},
  While[i <= n, h = Mod[BitXor[h, d[[i]]] * 16777619, 4294967296]; i = i + 1];
  h]]
"#;

    /// A fold whose checked `+` overflows there.
    const FOLD_ADD: &str = r#"
Function[{Typed[d, "Tensor"["Integer64", 1]]},
 Module[{h = 0, i = 1, n = Length[d]},
  While[i <= n, h = Mod[(h + 1) + d[[i]], 1000003]; i = i + 1];
  h]]
"#;

    /// A fold whose carried value is the right operand of a checked `−`
    /// that overflows at an element near `i64::MIN` (`h` stays positive).
    const FOLD_SUB: &str = r#"
Function[{Typed[d, "Tensor"["Integer64", 1]]},
 Module[{h = 1, i = 1, n = Length[d]},
  While[i <= n, h = Mod[d[[i]] - h, 1000003] + 1; i = i + 1];
  h]]
"#;

    fn ints(data: Vec<i64>) -> [Value; 1] {
        [Value::Tensor(wolfram_runtime::Tensor::from_i64(data))]
    }

    #[test]
    fn a_planted_fold_raises_at_the_faulting_element_like_the_scalar_loop() {
        use wolfram_runtime::RuntimeError;
        let n = 3000;
        for src in [FOLD_MUL, FOLD_ADD, FOLD_SUB] {
            fold_agrees(src, &ints(bytes(n))).unwrap();
        }
        // The positions of the Histogram test; `fold_writes_back_the_value_
        // carried_into_the_faulting_element` (vectorize.rs) checks where the
        // batch stops.
        for k in [0, 1, 517, 1022, 1023, 1024, 1025, 2047, 2048, n - 2, n - 1] {
            for (src, huge) in [
                (FOLD_MUL, i64::MAX),
                (FOLD_MUL, i64::MIN),
                (FOLD_ADD, i64::MAX),
                (FOLD_SUB, i64::MIN),
            ] {
                let mut data = bytes(n);
                data[k] = huge;
                let err = fold_agrees(src, &ints(data)).unwrap_err();
                assert_eq!(err, RuntimeError::IntegerOverflow, "{huge} at {k}");
            }
        }
    }

    #[test]
    fn a_planted_fold_matches_the_scalar_loop_at_every_trip_count() {
        for n in (0..=9).chain(1023..=1026).chain([2049]) {
            for src in [FOLD_MUL, FOLD_ADD, FOLD_SUB] {
                fold_agrees(src, &ints(bytes(n))).unwrap();
            }
        }
    }

    #[test]
    fn a_fold_mods_by_any_constant_like_the_scalar_loop() {
        // Powers of two run as a mask, the others through `mod_i64`; the
        // xor of `h` with data at the extremes gives negative dividends.
        let data: Vec<i64> = (0..3000i64)
            .map(|k| match k % 5 {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => -k * 7919,
                _ => k * k,
            })
            .collect();
        for c in [1i64 << 32, 1, -8, 1_000_003, 1 << 62] {
            let src = format!(
                r#"Function[{{Typed[d, "Tensor"["Integer64", 1]]}},
 Module[{{h = 0, i = 1, n = Length[d]}},
  While[i <= n, h = Mod[BitXor[h, d[[i]]], {c}]; i = i + 1];
  h]]"#
            );
            let Value::I64(h) = fold_agrees(&src, &ints(data.clone())).unwrap() else {
                panic!("an integer hash");
            };
            // Floored: the result takes the divisor's sign.
            let floored = |x: i64| match x.rem_euclid(c.abs()) {
                r if c < 0 && r != 0 => r + c,
                r => r,
            };
            let want = data.iter().fold(0, |h, &x| floored(h ^ x));
            assert_eq!(h, want, "Mod by {c}");
        }
    }

    #[test]
    fn a_planted_fnv1a_hashes_multi_byte_characters_like_the_scalar_loop() {
        use wolfram_bench::programs::FNV1A_SRC;
        let s = "héllo wörld ✓ 日本語 😀 ".repeat(150);
        let got = fold_agrees(FNV1A_SRC, &[Value::Str(std::sync::Arc::new(s.clone()))]);
        let want = s.chars().fold(2_166_136_261i64, |h, c| {
            ((h ^ i64::from(u32::from(c))) * 16_777_619) % (1 << 32)
        });
        assert_eq!(got.unwrap(), Value::I64(want));
    }

    #[test]
    fn an_abort_during_a_planted_fnv1a_unwinds_balanced_and_the_function_recovers() {
        use wolfram_bench::{programs::FNV1A_SRC, workloads::random_string};
        let cf = Compiler::default().function_compile_src(FNV1A_SRC).unwrap();
        let args = [Value::Str(std::sync::Arc::new(random_string(1_000_000, 4)))];
        let want = scalar_loops()
            .function_compile_src(FNV1A_SRC)
            .unwrap()
            .call(&args)
            .unwrap();
        // The call takes ~10 ms and its batch polls once per 1,024-element
        // block; a call that finishes before the trigger lands must hash
        // right, and is tried again.
        let aborted = (0..20).any(|_| {
            cf.abort.reset();
            wolfram_runtime::memory::reset_stats();
            let signal = cf.abort.clone();
            let trigger = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(500));
                signal.trigger();
            });
            let got = cf.call(&args);
            trigger.join().unwrap();
            let stats = wolfram_runtime::memory::stats();
            assert_eq!(stats.acquires, stats.releases, "{stats:?}");
            match got {
                Err(e) => {
                    assert_eq!(e, wolfram_runtime::RuntimeError::Aborted);
                    true
                }
                Ok(v) => {
                    assert_eq!(v, want);
                    false
                }
            }
        });
        assert!(aborted, "no trigger landed inside the call");
        cf.abort.reset();
        assert_eq!(cf.call(&args).unwrap(), want);
    }

    #[test]
    fn a_fold_beside_a_store_and_a_float_accumulator_stay_refused() {
        use wolfram_codegen::vectorize::{plan_loops, Refusal};
        use wolfram_codegen::Bank;
        let verdicts = |src: &str| -> Vec<Refusal> {
            let cf = scalar_loops().function_compile_src(src).unwrap();
            let f = &cf.program.funcs[0];
            plan_loops(&f.code)
                .into_iter()
                .map(|v| v.plan.unwrap_err())
                .collect()
        };
        // `h` folds next to the `f64` map `t[[i]] = 2. v[[i]]`.
        let beside_a_store = r#"
Function[{Typed[d, "Tensor"["Integer64", 1]], Typed[v, "Tensor"["Real64", 1]]},
 Module[{h = 0, t = ConstantArray[0., Length[v]], i = 1, n = Length[v]},
  While[i <= n, h = Mod[h + d[[i]], 1000003]; t[[i]] = 2. * v[[i]]; i = i + 1];
  h + t[[2]]]]"#;
        let accumulator = r#"
Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s = 0., i = 1, n = Length[v]},
  While[i <= n, s = s + v[[i]] * 3.; i = i + 1];
  s]]"#;
        let [beside, acc] = [beside_a_store, accumulator].map(verdicts);
        assert!(
            matches!(beside[..], [Refusal::LoopCarried(Bank::I, _)]),
            "{beside:?}"
        );
        assert!(
            matches!(acc[..], [Refusal::LoopCarried(Bank::F, _)]),
            "{acc:?}"
        );
        let [d] = ints((0..2000).map(|k| k * 31 % 1000).collect());
        let v = wolfram_runtime::Tensor::from_f64((0..2000).map(|k| f64::from(k) * 0.5).collect());
        let args = [d, Value::Tensor(v)];
        let planted = Compiler::default()
            .function_compile_src(beside_a_store)
            .unwrap();
        let scalar = scalar_loops().function_compile_src(beside_a_store).unwrap();
        assert_eq!(planted.call(&args), scalar.call(&args));
    }

    #[test]
    fn an_abort_during_a_qsort_with_inlined_comparators_unwinds_balanced_and_recovers() {
        // The comparator's body is inlined into the sort's loops, so only
        // their headers poll the signal.
        use wolfram_bench::{programs::QSORT_SRC, workloads::sorted_list};
        let cf = Compiler::default().function_compile_src(QSORT_SRC).unwrap();
        let list = sorted_list(1 << 15);
        let args = [Value::Tensor(list.clone()), Value::Bool(true)];
        let aborted = (0..10).any(|_| {
            cf.abort.reset();
            wolfram_runtime::memory::reset_stats();
            let signal = cf.abort.clone();
            let trigger = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                signal.trigger();
            });
            let got = cf.call(&args);
            trigger.join().unwrap();
            let stats = wolfram_runtime::memory::stats();
            assert_eq!(stats.acquires, stats.releases, "{stats:?}");
            match got {
                Err(e) => {
                    assert_eq!(e, wolfram_runtime::RuntimeError::Aborted);
                    true
                }
                Ok(v) => {
                    assert_eq!(v, Value::Tensor(list.clone()));
                    false
                }
            }
        });
        assert!(aborted, "no trigger landed inside the call");
        cf.abort.reset();
        assert_eq!(cf.call(&args).unwrap(), Value::Tensor(list));
    }

    #[test]
    fn data_parallel_elementwise_builtins_match_scalar() {
        let src = r#"
Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]]}, (a + b) * a]
"#;
        let n = 10_000;
        let av: Vec<f64> = (0..n).map(|k| (k as f64) * 0.5 - 100.0).collect();
        let bv: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64)).collect();
        let args = || {
            vec![
                Value::Tensor(
                    wolfram_runtime::Tensor::with_shape(
                        vec![n],
                        wolfram_runtime::TensorData::F64(av.clone()),
                    )
                    .unwrap(),
                ),
                Value::Tensor(
                    wolfram_runtime::Tensor::with_shape(
                        vec![n],
                        wolfram_runtime::TensorData::F64(bv.clone()),
                    )
                    .unwrap(),
                ),
            ]
        };
        let want = Compiler::default()
            .function_compile_src(src)
            .unwrap()
            .call(&args())
            .unwrap();
        let opts = CompilerOptions {
            data_parallel: true,
            parallel: ParallelConfig {
                num_threads: 4,
                min_elems_per_chunk: 256,
            },
            ..CompilerOptions::default()
        };
        let got = Compiler::new(opts)
            .function_compile_src(src)
            .unwrap()
            .call(&args())
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn abort_handling_toggle() {
        // AbortHandling -> False removes the checks (the Native`AbortInhibit
        // benchmark mode).
        let options = CompilerOptions {
            abort_handling: false,
            ..CompilerOptions::default()
        };
        let compiler = Compiler::new(options);
        let f = parse(
            "Function[{Typed[n, \"MachineInteger\"]}, \
             Module[{i = 0}, While[i < n, i = i + 1]; i]]",
        )
        .unwrap();
        let pm = compiler.compile_to_twir(&f, None).unwrap();
        let has_checks = pm
            .main()
            .instrs()
            .any(|i| matches!(i, wolfram_ir::Instr::AbortCheck));
        assert!(!has_checks);
        let default_pm = Compiler::default().compile_to_twir(&f, None).unwrap();
        assert!(default_pm
            .main()
            .instrs()
            .any(|i| matches!(i, wolfram_ir::Instr::AbortCheck)));
    }
}
