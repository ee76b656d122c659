//! Extending the compiler (§4.7): "Users can extend the compiler by adding
//! new macro rules, type system definitions, or transformation passes."
//!
//! - registers a user macro (and a `Conditioned` CUDA-retargeting macro
//!   exactly like the paper's example);
//! - declares a user type class and a qualified polymorphic function with
//!   a Wolfram-source implementation (the paper's §4.4 `Min`);
//! - compiles with the optimizing passes off (`optimization_level: 0`);
//! - plugs a custom textual backend into the backend registry (F4).
//!
//! Run with `cargo run --example extending_compiler`.

use std::rc::Rc;
use wolfram_language_compiler::codegen::Backend;
use wolfram_language_compiler::compiler::{Compiler, CompilerOptions, TargetSystem};
use wolfram_language_compiler::expr::parse;
use wolfram_language_compiler::runtime::Value;
use wolfram_language_compiler::types::FunctionImpl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- user macro rules ----
    let mut compiler = Compiler::default();
    compiler.macros.register_src("Square[x_] :> Times[x, x]");
    let cf =
        compiler.function_compile_src("Function[{Typed[n, \"MachineInteger\"]}, Square[n] + 1]")?;
    println!("Square macro: f[6] = {}", cf.call(&[Value::I64(6)])?);

    // The paper's Conditioned CUDA macro: rewrite Map -> CUDA`Map only when
    // TargetSystem -> CUDA.
    let rule = wolfram_language_compiler::expr::Rule::from_expr(&parse(
        "Map[f_, lst_] :> CUDA`Map[f, lst]",
    )?)
    .expect("rule");
    compiler.macros.register(
        rule,
        Some(Rc::new(|opts: &CompilerOptions| {
            opts.target_system == TargetSystem::Cuda
        })),
    );
    let e = parse("Map[g, data]")?;
    println!(
        "Map macro, Native target: {}",
        compiler.macros.expand(&e, &CompilerOptions::default())
    );
    let cuda = CompilerOptions {
        target_system: TargetSystem::Cuda,
        ..Default::default()
    };
    println!(
        "Map macro, CUDA target:   {}",
        compiler.macros.expand(&e, &cuda)
    );

    // ---- user types: the §4.4 Min declaration, verbatim shape ----
    compiler.types.declare_function_expr(
        "MyMin",
        &parse("TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"a\"]")?,
        FunctionImpl::Source(parse("Function[{e1, e2}, If[e1 < e2, e1, e2]]")?),
    )?;
    let cf = compiler.function_compile_src(
        "Function[{Typed[i, \"MachineInteger\"], Typed[x, \"Real64\"]}, MyMin[i, 3] + Floor[MyMin[x, 2.5]]]",
    )?;
    println!(
        "MyMin (two instantiations): f[7, 9.0] = {}",
        cf.call(&[Value::I64(7), Value::F64(9.0)])?
    );
    // Complex numbers are not Ordered: the qualified declaration rejects them.
    let err = compiler
        .function_compile_src("Function[{Typed[z, \"ComplexReal64\"]}, MyMin[z, z]]")
        .unwrap_err();
    println!("MyMin on complex rejected: {err}");

    // ---- the optimization level ----
    let no_opt = Compiler::new(CompilerOptions {
        optimization_level: 0,
        ..CompilerOptions::default()
    });
    let f = parse("Function[{Typed[n, \"MachineInteger\"]}, (n*n) + (n*n) + 1 + 2]")?;
    let optimized = Compiler::default().compile_to_twir(&f, None)?;
    let unoptimized = no_opt.compile_to_twir(&f, None)?;
    println!(
        "optimization level: {} instructions optimized vs {} at level 0",
        optimized.main().instr_count(),
        unoptimized.main().instr_count()
    );

    // ---- a user backend ----
    struct CountBackend;
    impl Backend for CountBackend {
        fn name(&self) -> &str {
            "OpCount"
        }
        fn generate(
            &self,
            module: &wolfram_language_compiler::ir::ProgramModule,
        ) -> Result<String, String> {
            Ok(format!(
                "{} functions, {} instructions\n",
                module.functions.len(),
                module
                    .functions
                    .iter()
                    .map(|f| f.instr_count())
                    .sum::<usize>()
            ))
        }
    }
    compiler
        .backends
        .register(std::sync::Arc::new(CountBackend));
    let report = compiler.export_string(&f, "OpCount")?;
    print!("custom backend: {report}");
    Ok(())
}
