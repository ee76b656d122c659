//! The properties that let compile time follow what changed.
//!
//! `run_pipeline` verifies a function on entry and then only after a pass
//! that reports a change, and the dataflow solver re-transfers only blocks
//! whose inputs moved. Both are deletions of redundant work, so two things
//! must hold: a pass that answers "nothing changed" really left the
//! function alone, and the analyses' facts are what they always were.

use std::fmt::Write as _;

use wolfram_analyze::intervals::analyze_module_ranges;
use wolfram_analyze::{analyze_function, module_signatures, refcount};
use wolfram_bench::serve_load::Catalog;
use wolfram_bench::{programs, workloads};
use wolfram_compiler_core::{Compiler, CompilerOptions};
use wolfram_difftest::gen::Program;
use wolfram_expr::{parse, Expr};
use wolfram_ir::passes::OPT_PASSES;
use wolfram_ir::{
    run_pass, Block, BlockId, Callee, Constant, Function, Instr, ProgramModule, VarId,
};
use wolfram_types::Type;

/// The seven §6 programs.
fn paper_programs() -> Vec<(&'static str, Expr)> {
    let primeq = programs::primeq_src(&workloads::prime_seed_table());
    [
        ("FNV1a", programs::FNV1A_SRC),
        ("Mandelbrot", programs::MANDELBROT_SRC),
        ("Dot", programs::DOT_SRC),
        ("Blur", programs::BLUR_SRC),
        ("Histogram", programs::HISTOGRAM_SRC),
        ("PrimeQ", primeq.as_str()),
        ("QSort", programs::QSORT_SRC),
    ]
    .into_iter()
    .map(|(name, src)| (name, parse(src).expect("a paper program parses")))
    .collect()
}

fn draw(base: u64, i: u64) -> Expr {
    Program::generate(wolfram_difftest::derive_seed(base, i)).func
}

// ---------------------------------------------------------------------
// `changed` is truthful.
// ---------------------------------------------------------------------

/// Runs `pass` and, when it reports no change, requires the function to
/// equal its pre-pass clone. Returns whether the step reported no change.
fn truthful_step(what: &str, pass: &str, f: &mut Function) -> bool {
    let before = f.clone();
    let changed = run_pass(pass, f).unwrap_or_else(|e| panic!("{what}: {pass}: {e}"));
    assert!(
        changed || *f == before,
        "{what}: pass `{pass}` returned false but changed `{}`:\n--- before\n{}\n--- after\n{}",
        f.name,
        before.to_text(),
        f.to_text()
    );
    !changed
}

/// The pipeline's own schedule (three optimisation rounds, then the two
/// insertion passes) over the resolved, unoptimised TWIR of `func`, then
/// every pass once more on the result. Returns `(steps, unchanged steps)`.
fn truthful_over(what: &str, unoptimised: &Compiler, func: &Expr) -> (usize, usize) {
    let Ok(pm) = unoptimised.compile_to_twir(func, None) else {
        return (0, 0);
    };
    let insertion = ["abort-insertion", "memory-management"];
    let schedule: Vec<&str> = OPT_PASSES
        .iter()
        .cycle()
        .take(3 * OPT_PASSES.len())
        .chain(&insertion)
        .chain(OPT_PASSES)
        .chain(&insertion)
        .copied()
        .collect();
    let (mut steps, mut quiet) = (0, 0);
    for mut f in pm.functions {
        for pass in &schedule {
            steps += 1;
            quiet += usize::from(truthful_step(what, pass, &mut f));
        }
    }
    (steps, quiet)
}

#[test]
fn a_pass_that_reports_no_change_left_the_function_alone() {
    // Passes off: `compile_to_twir` hands back the function exactly as
    // `run_pipeline` would receive it.
    let unoptimised = Compiler::new(CompilerOptions {
        optimization_level: 0,
        abort_handling: false,
        memory_management: false,
        ..CompilerOptions::default()
    });
    let (mut steps, mut quiet) = (0, 0);
    let mut add = |(s, q): (usize, usize)| {
        steps += s;
        quiet += q;
    };
    for (name, func) in paper_programs() {
        add(truthful_over(name, &unoptimised, &func));
    }
    let catalog = Catalog::new(64, 64);
    for rank in 0..catalog.len() {
        let func = parse(catalog.source(rank)).expect("a catalog program parses");
        add(truthful_over(
            &format!("catalog {rank}"),
            &unoptimised,
            &func,
        ));
    }
    for i in 0..500 {
        let func = draw(0x7274_6866, i);
        add(truthful_over(&format!("draw {i}"), &unoptimised, &func));
    }
    // The property is only worth something if both answers occur.
    assert!(quiet > 1000, "only {quiet} of {steps} steps were quiet");
    assert!(steps - quiet > 1000, "only {} steps changed", steps - quiet);
}

#[test]
fn an_ill_typed_incoming_function_is_blamed_on_the_entry() {
    // `%0 : Real64 = 1` — wrong before any pass has run. No pass changes
    // it into something else first (the constant is returned, so nothing
    // folds or dies), so the finding must not carry a pass's name.
    let mut f = Function::new("f", 0);
    f.next_var = 1;
    f.blocks.push(Block {
        label: "start".into(),
        instrs: vec![
            Instr::LoadConst {
                dst: VarId(0),
                value: Constant::I64(1),
            },
            Instr::Return {
                value: VarId(0).into(),
            },
        ],
    });
    f.var_types.insert(VarId(0), Type::real64());
    let check = wolfram_analyze::pipeline_verifier(Default::default());
    let err =
        wolfram_ir::run_pipeline(&mut f, &CompilerOptions::default(), Some(&check)).unwrap_err();
    assert!(
        err.0
            .starts_with("function `f`, on entry to the pipeline: error[type-mismatch]"),
        "{err}"
    );
}

// ---------------------------------------------------------------------
// Same facts: the committed fingerprint of the analyses' output.
// ---------------------------------------------------------------------

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sorted(sites: &std::collections::HashSet<(BlockId, usize)>) -> Vec<(u32, usize)> {
    let mut v: Vec<(u32, usize)> = sites.iter().map(|&(b, ix)| (b.0, ix)).collect();
    v.sort_unstable();
    v
}

fn managed_sites(f: &Function) -> Vec<(BlockId, usize)> {
    let mut sites = Vec::new();
    for b in f.block_ids() {
        for (ix, i) in f.block(b).instrs.iter().enumerate() {
            if matches!(i, Instr::MemoryAcquire { .. } | Instr::MemoryRelease { .. }) {
                sites.push((b, ix));
            }
        }
    }
    sites
}

/// Everything the analyses say about one compiled module, as text: the
/// range facts per function, every checker's diagnostics on the TWIR as
/// compiled, and the refcount checker's diagnostics on copies with one
/// acquire/release deleted or doubled (compiled code is balanced, so only
/// the damaged copies make the checker speak).
fn describe(pm: &ProgramModule) -> String {
    let facts = analyze_module_ranges(pm);
    let sigs = module_signatures(pm);
    let mut out = String::new();
    for f in &pm.functions {
        let r = &facts.functions[&f.name];
        writeln!(
            out,
            "fn {} parts {}/{} {:?} arith {}/{} {:?}",
            f.name,
            r.parts_proved,
            r.parts_total,
            sorted(&r.proved_parts),
            r.arith_proved,
            r.arith_total,
            sorted(&r.proved_arith),
        )
        .unwrap();
        for d in analyze_function(f, &sigs) {
            writeln!(out, "  {:?} {}", d.instr, d.render(None)).unwrap();
        }
        let sites = managed_sites(f);
        let mut picks = vec![0, sites.len() / 2, sites.len().saturating_sub(1)];
        picks.dedup();
        for &(b, ix) in picks.iter().filter_map(|&p| sites.get(p)) {
            for double in [false, true] {
                let mut damaged = f.clone();
                let instrs = &mut damaged.blocks[b.0 as usize].instrs;
                if double {
                    instrs.insert(ix, instrs[ix].clone());
                } else {
                    instrs.remove(ix);
                }
                writeln!(out, "  damaged {} {ix} double={double}", b.0).unwrap();
                for d in refcount::check(&damaged) {
                    writeln!(out, "    {:?} {}", d.instr, d.render(None)).unwrap();
                }
            }
        }
    }
    out
}

/// Also requires that function resolution left no `Callee::Builtin`: the
/// passes classify and fold a call by its primitive row alone, so an
/// unresolved head reaching them would only be treated conservatively.
fn fingerprint_of(compiler: &Compiler, func: &Expr) -> u64 {
    match compiler.compile_to_twir(func, None) {
        Ok(pm) => {
            for i in pm.functions.iter().flat_map(Function::instrs) {
                if let Instr::Call {
                    callee: Callee::Builtin(head),
                    ..
                } = i
                {
                    panic!("a call of {head} survives function resolution");
                }
            }
            fnv1a(&describe(&pm))
        }
        Err(e) => fnv1a(&format!("does not compile: {e}")),
    }
}

/// One line per paper program and per hundred `wolfram_difftest` draws at
/// seed 42. Regenerated, in a commit of its own, when the range facts
/// became one walk down the dominator tree; a change that means to keep
/// the analyses' output must not move a single fact or diagnostic.
const GOLDEN: &str = include_str!("../ANALYZE_facts.golden");

#[test]
fn analyses_reproduce_the_committed_facts() {
    let compiler = Compiler::default();
    let mut actual = String::new();
    for (name, func) in paper_programs() {
        writeln!(actual, "{name} {:016x}", fingerprint_of(&compiler, &func)).unwrap();
    }
    for block in 0..20u64 {
        let mut all = String::new();
        for i in block * 100..(block + 1) * 100 {
            write!(all, "{:016x}", fingerprint_of(&compiler, &draw(42, i))).unwrap();
        }
        writeln!(
            actual,
            "draws {}..{} {:016x}",
            block * 100,
            (block + 1) * 100,
            fnv1a(&all)
        )
        .unwrap();
    }
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ANALYZE_facts.actual");
        std::fs::write(&path, &actual).expect("writes the actual fingerprint");
        let differing: Vec<&str> = actual
            .lines()
            .zip(GOLDEN.lines().chain(std::iter::repeat("")))
            .filter(|(a, g)| a != g)
            .map(|(a, _)| a)
            .collect();
        panic!(
            "analysis facts differ from ANALYZE_facts.golden on {differing:#?}\n(actual written to {})",
            path.display()
        );
    }
}
