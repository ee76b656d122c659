//! Integration: the staged pipeline end to end, including the appendix
//! A.6 intermediate-representation dumps.

use std::sync::Arc;
use wolfram_language_compiler::compiler::{CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_language_compiler::expr::parse;
use wolfram_language_compiler::ir::passes::OPT_PASSES;
use wolfram_language_compiler::ir::{run_pass, verify_function};
use wolfram_language_compiler::runtime::Value;

fn add_one() -> wolfram_language_compiler::expr::Expr {
    parse("Function[{Typed[arg, \"MachineInteger\"]}, arg + 1]").unwrap()
}

#[test]
fn appendix_ast_dump() {
    let compiler = Compiler::default();
    let ast = compiler.compile_to_ast(&add_one());
    // A.6.1: no macros apply to addOne, so the code is unchanged.
    assert_eq!(
        ast.to_full_form(),
        "Function[List[Typed[arg, \"MachineInteger\"]], Plus[arg, 1]]"
    );
}

#[test]
fn appendix_wir_dump() {
    let compiler = Compiler::default();
    let wir = compiler.compile_to_ir(&add_one()).unwrap();
    let text = wir.main().to_text();
    // A.6.2 shape: LoadArgument, unresolved Plus, Return; untyped calls.
    assert!(text.contains("LoadArgument"), "{text}");
    assert!(text.contains("Call Plus [%0, 1:I64]"), "{text}");
    assert!(text.contains("Return"), "{text}");
    assert!(text.contains("\"AbortHandling\"->True"), "{text}");
}

#[test]
fn appendix_twir_dump() {
    let compiler = Compiler::default();
    let twir = compiler.compile_to_twir(&add_one(), None).unwrap();
    let text = twir.main().to_text();
    // A.6.3 shape: a fully typed signature and the mangled runtime
    // primitive (the paper's checked_binary_plus_Integer64_Integer64).
    assert!(text.contains("Main : (I64)->I64"), "{text}");
    assert!(
        text.contains("checked_binary_plus$Integer64$Integer64"),
        "{text}"
    );
    assert!(text.contains("\"isTrivial\"->True"), "{text}");
    assert!(twir.main().is_fully_typed());
}

#[test]
fn appendix_c_and_assembler_dumps() {
    let compiler = Compiler::default();
    let c = compiler.export_string(&add_one(), "C").unwrap();
    assert!(c.contains("int64_t WL_Main(int64_t a0)"), "{c}");
    assert!(c.contains("wolfram_rt_checked_add"), "{c}");
    let asm = compiler.export_string(&add_one(), "Assembler").unwrap();
    assert!(asm.contains("_Main:"), "{asm}");
    assert!(asm.contains("ret I"), "{asm}");
    let wvm = compiler.export_string(&add_one(), "WVM").unwrap();
    assert!(wvm.contains("Bin { op: Add"), "{wvm}");
}

#[test]
fn per_stage_timings_recorded() {
    let compiler = Compiler::default();
    let _ = compiler.compile_to_twir(&add_one(), None).unwrap();
    let stages: Vec<String> = compiler.timings().into_iter().map(|(n, _)| n).collect();
    for expected in [
        "macro-expansion",
        "binding-analysis",
        "lowering",
        "type-inference",
        "function-resolution",
        // Per function: the IR passes, and the verification of their
        // results, as separate entries; then the whole-module check.
        "optimize[Main]",
        "optimize[Main].verify",
        "analyze",
    ] {
        assert!(
            stages.iter().any(|s| s == expected),
            "missing {expected}: {stages:?}"
        );
    }
}

#[test]
fn optimization_levels_agree_on_results() {
    let src = "Function[{Typed[n, \"MachineInteger\"]}, \
               Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]";
    let baseline = Compiler::default().function_compile_src(src).unwrap();
    let opts = CompilerOptions {
        optimization_level: 0,
        ..CompilerOptions::default()
    };
    let unopt = Compiler::new(opts).function_compile_src(src).unwrap();
    for n in [0i64, 1, 10, 100] {
        assert_eq!(
            baseline.call(&[Value::I64(n)]).unwrap(),
            unopt.call(&[Value::I64(n)]).unwrap(),
            "n = {n}"
        );
    }
}

#[test]
fn every_disabled_pass_combination_is_still_correct() {
    // The pipeline driven by hand through `run_pass`, with each optimizing
    // pass left out in turn, still computes the default build's answer.
    let f = parse(
        "Function[{Typed[x, \"Real64\"]}, \
         Module[{a = x*x, b = x*x}, a + b + Sin[0.0] + 1.0]]",
    )
    .unwrap();
    let expected = Compiler::default()
        .function_compile(&f)
        .unwrap()
        .call(&[Value::F64(3.0)])
        .unwrap();
    let unoptimized = Compiler::new(CompilerOptions {
        optimization_level: 0,
        abort_handling: false,
        memory_management: false,
        ..CompilerOptions::default()
    });
    for skipped in OPT_PASSES {
        let mut pm = unoptimized.compile_to_twir(&f, None).unwrap();
        for func in &mut pm.functions {
            for _round in 0..3 {
                let mut changed = false;
                for pass in OPT_PASSES.iter().filter(|p| *p != skipped) {
                    changed |= run_pass(pass, func).unwrap();
                }
                if !changed {
                    break;
                }
            }
            run_pass("abort-insertion", func).unwrap();
            run_pass("memory-management", func).unwrap();
            verify_function(func).unwrap();
        }
        let native = unoptimized.generate_native(&pm).unwrap();
        let cf = CompiledCodeFunction::new(f.clone(), Arc::new(pm), Arc::new(native)).unwrap();
        assert_eq!(
            cf.call(&[Value::F64(3.0)]).unwrap(),
            expected,
            "without {skipped}"
        );
    }
}

#[test]
fn export_library_roundtrip() {
    let compiler = Compiler::default();
    let f = parse("Function[{Typed[x, \"Real64\"]}, Exp[x] - 1.0]").unwrap();
    let dir = std::env::temp_dir().join("wolfram-integration-export");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("expm1.wxl");
    let lib = compiler.export_library(&f, &path).unwrap();
    assert!(lib.standalone);
    let loaded = compiler.load_library(&path).unwrap();
    assert_eq!(loaded.call(&[Value::F64(0.0)]).unwrap(), Value::F64(0.0));
    std::fs::remove_file(&path).ok();
}

#[test]
fn compile_errors_name_their_stage() {
    let compiler = Compiler::default();
    // Missing parameter types: inference cannot proceed.
    let err = compiler
        .function_compile_src("Function[{n}, n + 1]")
        .unwrap_err();
    assert!(err.to_string().contains("infer"), "{err}");
    // Ill-typed body (no symbolic escape: StringLength has no
    // Expression overload).
    let err = compiler
        .function_compile_src("Function[{Typed[x, \"Real64\"]}, StringLength[x]]")
        .unwrap_err();
    assert!(
        err.to_string().contains("StringLength") || err.to_string().contains("Real64"),
        "{err}"
    );
}
