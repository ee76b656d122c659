//! Symbolic computation and auto-compilation (§1, §2.1, F8).
//!
//! - `FindRoot[Sin[x] + E^x, {x, 0}]` symbolically differentiates the
//!   objective and runs Newton's method; installing the compiler's
//!   auto-compile hook transparently compiles the objective and its
//!   derivative (the paper's 1.6x speedup).
//! - A compiled function over the `"Expression"` type adds symbolic values
//!   (§4.5's `cf[x, Cos[y] + Sin[z]]` example).
//!
//! Run with `cargo run --release --example symbolic_findroot`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use wolfram_language_compiler::compiler::Compiler;
use wolfram_language_compiler::expr::{parse, Expr};
use wolfram_language_compiler::interp::Interpreter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Symbolic differentiation (the machinery FindRoot uses internally).
    let mut engine = Interpreter::new();
    let d = engine.eval_src("D[Sin[x] + E^x, x]")?;
    println!("D[Sin[x] + E^x, x] = {d}");

    // FindRoot with the interpreted objective.
    let solves = 50;
    let start = Instant::now();
    let mut root = Expr::null();
    for _ in 0..solves {
        root = engine.eval_src("FindRoot[Sin[x] + E^x, {x, 0}]")?;
    }
    let interpreted = start.elapsed().as_secs_f64() / solves as f64;
    println!("FindRoot (interpreted objective):    {root}  [{interpreted:.6}s/solve]");

    // FindRoot with auto-compilation: the compiler package installs a hook
    // that compiles the objective and its symbolic derivative.
    let mut hosted = Interpreter::new();
    Compiler::install_auto_compile(&mut hosted);
    hosted.eval_src("FindRoot[Sin[x] + E^x, {x, 0}]")?; // warm the code cache
    let start = Instant::now();
    for _ in 0..solves {
        root = hosted.eval_src("FindRoot[Sin[x] + E^x, {x, 0}]")?;
    }
    let compiled = start.elapsed().as_secs_f64() / solves as f64;
    println!(
        "FindRoot (auto-compiled objective):  {root}  [{compiled:.6}s/solve, {:.2}x speedup, \
         hook fired {} times]",
        interpreted / compiled,
        hosted.autocompile_hits
    );

    // Compiled symbolic computation: "Expression"-typed arguments (F8).
    let engine = Rc::new(RefCell::new(Interpreter::new()));
    let cf = Compiler::default()
        .function_compile(&parse(
            "Function[{Typed[arg1, \"Expression\"], Typed[arg2, \"Expression\"]}, arg1 + arg2]",
        )?)?
        .hosted(engine);
    println!("\ncompiled symbolic Plus:");
    for (a, b) in [("1", "2"), ("x", "y"), ("x", "Cos[y] + Sin[z]")] {
        let out = cf.call_exprs(&[parse(a)?, parse(b)?])?;
        println!("  cf[{a}, {b}] = {out}");
    }
    Ok(())
}
