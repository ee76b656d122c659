//! Differential testing of superinstruction fusion: every §6 benchmark is
//! compiled twice — fusion on (default) and off — and the two engines must
//! produce bit-identical outputs on the same workloads. This is the
//! correctness contract the fusion pass is built on: fused ops perform all
//! the register writes of the sequences they replace, so turning the pass
//! off must change nothing but speed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wolfram_bench::{programs, serve_load, workloads};
use wolfram_codegen::vectorize::{PlanOut, VecPlan};
use wolfram_codegen::{fuse_program, LowerError, NativeProgram, RegOp};
use wolfram_compiler_core::{
    Ablation, CompileError, CompiledCodeFunction, Compiler, CompilerOptions,
};
use wolfram_expr::{parse, Expr};
use wolfram_runtime::{Tensor, Value};

fn compilers() -> (Compiler, Compiler) {
    let fused = Compiler::default();
    let unfused = Compiler::new(CompilerOptions {
        superinstruction_fusion: false,
        ..CompilerOptions::default()
    });
    (fused, unfused)
}

/// Compiles `src` both ways and asserts identical results on every
/// argument list.
fn assert_agree(name: &str, src: &str, arg_sets: &[Vec<Value>]) {
    let (fused, unfused) = compilers();
    let on = programs::compile_new(&fused, src);
    let off = programs::compile_new(&unfused, src);
    for (ix, args) in arg_sets.iter().enumerate() {
        let a = on
            .call(args)
            .unwrap_or_else(|e| panic!("{name} fused run {ix}: {e}"));
        let b = off
            .call(args)
            .unwrap_or_else(|e| panic!("{name} unfused run {ix}: {e}"));
        assert_eq!(
            a, b,
            "{name}: fusion changed the result on argument set {ix}"
        );
    }
}

#[test]
fn fnv1a_agrees() {
    let args: Vec<Vec<Value>> = [0usize, 1, 97, 1000]
        .iter()
        .map(|&n| {
            vec![Value::Str(Arc::new(workloads::random_string(
                n,
                n as u64 + 3,
            )))]
        })
        .collect();
    assert_agree("FNV1a", programs::FNV1A_SRC, &args);
}

#[test]
fn mandelbrot_agrees() {
    let args: Vec<Vec<Value>> = [
        (0.0, 0.0),
        (-0.5, 0.3),
        (0.4, 0.4),
        (-1.0, 0.25),
        (2.0, 2.0),
    ]
    .iter()
    .map(|&(re, im)| vec![Value::Complex(re, im)])
    .collect();
    assert_agree("Mandelbrot", programs::MANDELBROT_SRC, &args);
}

#[test]
fn dot_agrees() {
    let a = workloads::random_matrix(24, 1);
    let b = workloads::random_matrix(24, 2);
    assert_agree(
        "Dot",
        programs::DOT_SRC,
        &[vec![Value::Tensor(a), Value::Tensor(b)]],
    );
}

#[test]
fn blur_agrees() {
    let n = 24;
    let img = workloads::random_matrix_hw(n, n, 3);
    assert_agree(
        "Blur",
        programs::BLUR_SRC,
        &[vec![
            Value::Tensor(img),
            Value::I64(n as i64),
            Value::I64(n as i64),
        ]],
    );
}

#[test]
fn histogram_agrees() {
    let data = workloads::random_bytes_tensor(4096, 4);
    assert_agree(
        "Histogram",
        programs::HISTOGRAM_SRC,
        &[vec![Value::Tensor(data)]],
    );
}

#[test]
fn primeq_agrees() {
    let table = workloads::prime_seed_table();
    let src = programs::primeq_src(&table);
    // Limits on both sides of the 2^14 table boundary exercise both the
    // table lookup and the Rabin–Miller loop under fusion.
    let args: Vec<Vec<Value>> = [100i64, 2000, 16384 + 300]
        .iter()
        .map(|&l| vec![Value::I64(l)])
        .collect();
    assert_agree("PrimeQ", &src, &args);
}

#[test]
fn qsort_agrees() {
    let args: Vec<Vec<Value>> = vec![
        vec![
            Value::Tensor(workloads::sorted_list(512)),
            Value::Bool(true),
        ],
        vec![
            Value::Tensor(workloads::sorted_list(512)),
            Value::Bool(false),
        ],
        vec![
            Value::Tensor(wolfram_runtime::Tensor::from_i64(vec![
                5, -1, 3, 3, 0, 9, 2,
            ])),
            Value::Bool(true),
        ],
    ];
    assert_agree("QSort", programs::QSORT_SRC, &args);
}

#[test]
fn fusion_actually_fires_on_the_benchmarks() {
    // Guard against the pass silently becoming a no-op: the fused engine
    // must execute strictly fewer dispatches than the unfused one.
    let (fused, unfused) = compilers();
    let on = programs::compile_new(&fused, programs::FNV1A_SRC);
    let off = programs::compile_new(&unfused, programs::FNV1A_SRC);
    let arg = vec![Value::Str(Arc::new(workloads::random_string(1000, 7)))];
    on.profile_ops(true);
    off.profile_ops(true);
    on.call(&arg).unwrap();
    off.call(&arg).unwrap();
    let (s_on, s_off) = (on.take_op_stats(), off.take_op_stats());
    assert!(
        s_on.total() < s_off.total(),
        "fusion did not reduce dispatches: {} vs {}",
        s_on.total(),
        s_off.total()
    );
    // The unfused code holds no superinstruction; the fused code does.
    let multi_part = |cf: &CompiledCodeFunction| {
        let ops = cf.program.funcs.iter().flat_map(|f| &f.code);
        ops.filter(|op| op.parts().len() > 1).count()
    };
    assert_eq!(multi_part(&off), 0, "unfused compile emitted fused ops");
    assert!(multi_part(&on) > 0, "fused compile emitted no fused op");
}

/// The seven §6 programs.
fn paper_programs() -> Vec<(&'static str, String)> {
    vec![
        ("FNV1a", programs::FNV1A_SRC.into()),
        ("Mandelbrot", programs::MANDELBROT_SRC.into()),
        ("Dot", programs::DOT_SRC.into()),
        ("Blur", programs::BLUR_SRC.into()),
        ("Histogram", programs::HISTOGRAM_SRC.into()),
        (
            "PrimeQ",
            programs::primeq_src(&workloads::prime_seed_table()),
        ),
        ("QSort", programs::QSORT_SRC.into()),
    ]
}

/// Compiles `func` without fusion, fuses a copy, and checks that every op
/// of the fused code — `parts()` of a superinstruction, the op itself
/// otherwise — is exactly the window of unfused ops it stands for.
fn assert_parts_round_trip(name: &str, unfused: &Compiler, func: &Expr) {
    let pm = unfused.compile_to_twir(func, None).expect("compiles");
    let plain: NativeProgram = unfused.generate_native(&pm).expect("generates code");
    let mut fused = plain.clone();
    fuse_program(&mut fused);
    for (pf, ff) in plain.funcs.iter().zip(&fused.funcs) {
        // Old pc of each fused op, and the old-pc -> new-pc table that the
        // windows' branch targets go through before comparing.
        let mut new_pc = vec![usize::MAX; pf.code.len() + 1];
        let mut old = 0;
        for (new, op) in ff.code.iter().enumerate() {
            new_pc[old] = new;
            old += op.parts().len();
        }
        assert_eq!(old, pf.code.len(), "{name}/{}: op count", pf.name);
        new_pc[old] = ff.code.len();
        let mut old = 0;
        for op in &ff.code {
            let parts = op.parts();
            let mut window: Vec<RegOp> = pf.code[old..old + parts.len()].to_vec();
            for w in &mut window {
                w.map_targets(|t| new_pc[t]);
            }
            assert_eq!(
                format!("{:?}", &parts[..]),
                format!("{window:?}"),
                "{name}/{} at unfused pc {old}",
                pf.name
            );
            old += parts.len();
        }
    }
}

#[test]
fn parts_of_every_fused_group_are_the_window_it_replaced() {
    let (_, unfused) = compilers();
    for (name, src) in paper_programs() {
        assert_parts_round_trip(name, &unfused, &parse(&src).unwrap());
    }
    for i in 0..200 {
        let seed = wolfram_difftest::derive_seed(0x9A27_5EED, i);
        let program = wolfram_difftest::gen::Program::generate(seed);
        assert_parts_round_trip(&format!("difftest seed {seed}"), &unfused, &program.func);
    }
}

/// Dispatches one call of `src` executes.
fn dispatches(src: &str, args: &[Value]) -> u64 {
    let cf = programs::compile_new(&Compiler::default(), src);
    cf.profile_ops(true);
    cf.call(args).unwrap();
    cf.take_op_stats().total()
}

#[test]
fn every_take_store_coalesces() {
    // An in-place store's result shares the register of the tensor that
    // dies at it, so no take-move is left in front of a store.
    let (fused, _) = compilers();
    for (name, src) in paper_programs() {
        let cf = programs::compile_new(&fused, &src);
        for f in &cf.program.funcs {
            for pair in f.code.windows(2) {
                assert!(
                    !matches!(
                        pair,
                        [
                            RegOp::TakeV { .. },
                            RegOp::TenSet1 { .. } | RegOp::TenSet2 { .. }
                        ]
                    ),
                    "{name}/{}: take-store {pair:?}",
                    f.name
                );
            }
        }
    }
    // Histogram's and FNV1a's dispatch counts, derived in
    // `histogram_dispatches` and `fnv1a_dispatches`, on both sides of the
    // planner's minimum batch.
    // (Blur's, QSort's and every other paper program's counts are pinned
    // by `profiling_changes_no_result_and_counts_nested_calls`.)
    for n in [0, 1, 8, 9, 1000] {
        let data = workloads::random_bytes_tensor(n, 4);
        assert_eq!(
            dispatches(programs::HISTOGRAM_SRC, &[Value::Tensor(data)]),
            histogram_dispatches(n as u64),
            "Histogram n = {n}"
        );
        let s = Value::Str(Arc::new(workloads::random_string(n, 7)));
        assert_eq!(
            dispatches(programs::FNV1A_SRC, &[s]),
            fnv1a_dispatches(n as u64),
            "FNV1a n = {n}"
        );
    }
}

/// Histogram on `n` bytes. Its scalar loop is 5 dispatches per element:
/// the header, the two load-adds, the store and the counter's
/// increment-and-jump (the bins tensor and the counter each stay in one
/// register, so no move or refcount op is left in it). The `vec.loop` in
/// front of the header runs all but the last element as one scatter-add
/// once there are at least 9 (a batch of the planner's minimum 8 and the
/// tail); below that it does nothing and the scalar loop runs them all.
/// 14 more run outside the loop: 9 before it, the `vec.loop`, the
/// header's exit test, and the epilogue's two releases and `ret`. With
/// the loop scalar it was 5n + 13.
fn histogram_dispatches(n: u64) -> u64 {
    let scalar = if n >= 9 { 1 } else { n };
    5 * scalar + 14
}

/// FNV1a on `n` ASCII characters. Its scalar loop is 5 dispatches per
/// byte: the header, the load fused with the `BitXor`, the multiply, the
/// `Mod` and the counter's increment-and-jump. The `vec.loop` in front of
/// the header runs all but the last byte as one fold once there are at
/// least 9; below that it does nothing. 13 more run outside the loop: 9
/// before it, the `vec.loop`, the header's exit test, the release and
/// `ret`. With the loop scalar it was 5n + 12.
fn fnv1a_dispatches(n: u64) -> u64 {
    let scalar = if n >= 9 { 1 } else { n };
    5 * scalar + 13
}

/// Blur on a 24 x 24 image: per row, the `vec.loop` that runs 21 of the
/// 22 interior pixels as one batch, the scalar loop's last iteration (21
/// dispatches: the header, 19 body ops and the latch) and 4 more; 13
/// outside the loops. (10,265 with every loop scalar: 21 per pixel.)
const BLUR_24: u64 = (1 + 21 + 4) * 22 + 13;

/// QSort of the sorted 256-element list: 1,930 comparisons, each inlined
/// behind a branch on which lambda `If[ascending, ...]` chose. Through
/// `call.value` it was 24,441 (46,693 with one register per SSA value):
/// each comparison drops the `call.value`, the lambda's prologue
/// `abort.check` and its `ret` (3 x 1,930) and gains the branch and a
/// jump to the join (1,930 + 1,929: one arm falls through). The
/// prologue trades the `closure` op and a refcount pair for the tag's
/// `mov.i.jmp` and two constants: 24,441 - 5,790 + 3,859 = 22,510.
const QSORT_256: u64 = 22_510;

/// One call of every paper program and the dispatches it executes:
/// FNV1a 18 and Histogram 19 once their loops are batched
/// (`fnv1a_dispatches`, `histogram_dispatches`), Blur and QSort as pinned
/// above;
/// QSort's count includes its comparator's, inlined into the sort's loops.
fn paper_calls() -> Vec<(&'static str, String, Vec<Value>, u64)> {
    let (bytes, blur) = (1000, 24);
    vec![
        (
            "FNV1a",
            programs::FNV1A_SRC.into(),
            vec![Value::Str(Arc::new(workloads::random_string(bytes, 7)))],
            fnv1a_dispatches(bytes as u64),
        ),
        (
            "Mandelbrot",
            programs::MANDELBROT_SRC.into(),
            vec![Value::Complex(-0.5, 0.3)],
            MANDELBROT,
        ),
        (
            "Dot",
            programs::DOT_SRC.into(),
            vec![
                Value::Tensor(workloads::random_matrix(24, 1)),
                Value::Tensor(workloads::random_matrix(24, 2)),
            ],
            DOT,
        ),
        (
            "Blur",
            programs::BLUR_SRC.into(),
            vec![
                Value::Tensor(workloads::random_matrix_hw(blur, blur, 3)),
                Value::I64(blur as i64),
                Value::I64(blur as i64),
            ],
            BLUR_24,
        ),
        (
            "Histogram",
            programs::HISTOGRAM_SRC.into(),
            vec![Value::Tensor(workloads::random_bytes_tensor(bytes, 4))],
            histogram_dispatches(bytes as u64),
        ),
        (
            "PrimeQ",
            programs::primeq_src(&workloads::prime_seed_table()),
            vec![Value::I64(2000)],
            PRIMEQ_2000,
        ),
        (
            "QSort",
            programs::QSORT_SRC.into(),
            vec![
                Value::Tensor(workloads::sorted_list(256)),
                Value::Bool(true),
            ],
            QSORT_256,
        ),
    ]
}

/// Mandelbrot at -0.5 + 0.3 i: the point stays bounded, so the loop runs
/// to its 1,000-iteration cap.
const MANDELBROT: u64 = 8_005;

/// Dot of two 24 x 24 matrices.
const DOT: u64 = 7;

/// PrimeQ over the integers up to 2,000.
const PRIMEQ_2000: u64 = 14_011;

#[test]
fn profiling_changes_no_result_and_counts_nested_calls() {
    // The op profiler is its own instance of the dispatch loop, chosen per
    // call: a kernel returns the same value under it, and a nested call
    // chooses it again, so its ops are counted too.
    for (name, src, args, pinned) in paper_calls() {
        let cf = programs::compile_new(&Compiler::default(), &src);
        let plain = cf.call(&args).unwrap();
        cf.profile_ops(true);
        let profiled = cf.call(&args).unwrap();
        let total = cf.take_op_stats().total();
        cf.profile_ops(false);
        assert_eq!(profiled, plain, "{name}: the profiled call's result");
        assert_eq!(total, pinned, "{name}: dispatches");
        assert_eq!(cf.call(&args).unwrap(), plain, "{name} after profiling");
        assert_eq!(cf.take_op_stats().total(), 0, "{name}: counted unprofiled");
    }
}

/// The per-event functions of the `call_tiny` and `stream_*` workloads,
/// copied from `benchmark/src/workloads/tiny.rs`, each with an argument of
/// the kind its records draw.
fn tiny_calls() -> Vec<(&'static str, &'static str, Vec<Value>)> {
    vec![
        (
            "AddMul",
            r#"Function[{Typed[n, "MachineInteger"]}, 3*n + 7]"#,
            vec![Value::I64(1234)],
        ),
        (
            "Poly",
            r#"Function[{Typed[x, "Real64"]}, x*(x*(x - 2.5) + 1.25) + 0.5]"#,
            vec![Value::F64(1.375)],
        ),
        (
            "Norm8",
            r#"Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s, i, n},
  s = 0.0;
  n = Length[v];
  i = 1;
  While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
  s]]"#,
            vec![Value::Tensor(Tensor::from_f64(
                (0..8).map(|k| f64::from(k) * 0.125).collect(),
            ))],
        ),
        (
            "SumSq",
            r#"Function[{Typed[n, "MachineInteger"]},
 Module[{s = 0, i = 1},
  While[i <= n, s = s + i*i; i = i + 1];
  s]]"#,
            vec![Value::I64(400)],
        ),
    ]
}

/// Every fused mnemonic some benchmark program executes.
const EXECUTED_FUSED: [&str; 16] = [
    "abort.br.cmp.i.sel",
    "br.cmp.i.sel",
    "brz.jmp",
    "flt.bin2",
    "int.bin.imm.jmp",
    "int.bin.imm2",
    "int.bin2",
    "int.imm.mov2.jmp",
    "mov.i.jmp",
    "mov2.i.jmp",
    "ten.part1.int.bin",
    "ten.part1.int.bin.u",
    "ten.part1.int.imm",
    "ten.part1.int.imm.u",
    "ten.part2.flt.bin",
    "ten.part2.flt.bin.u",
];

#[test]
fn every_executed_superinstruction_runs_in_a_loop() {
    // The superinstruction census: one profiled call of each program the
    // benchmark runs (the paper kernels, the serve catalog's loop, the
    // per-event functions of the call and stream workloads). A fused op
    // pays for its executor arm only where it runs hot, so each arm that
    // executes at all must reach 8 executions in one call of some program,
    // and the set of mnemonics that executes is pinned: a fused op that
    // drops out of it, or one that runs only in straight-line code, shows
    // here. An arm is a `RegOp` variant: the `.u` of an unchecked load is
    // an operand of its variant (FNV1a's `ten.part1.int.bin.u` runs once
    // per call, in the tail of its planned fold, on the arm QSort's
    // `ten.part1.int.bin` runs hot).
    let catalog = serve_load::Catalog::new(1, 64);
    let mut calls: Vec<(&str, String, Vec<Value>)> = paper_calls()
        .into_iter()
        .map(|(name, src, args, _)| (name, src, args))
        .collect();
    // `paper_calls`' PrimeQ stops inside its 16,384-entry table; the
    // benchmark's runs Miller-Rabin on every integer past it, as this one
    // does on 616 of them.
    calls.push((
        "PrimeQ past its table",
        programs::primeq_src(&workloads::prime_seed_table()),
        vec![Value::I64(17_000)],
    ));
    calls.push((
        "serve catalog",
        catalog.source(0).into(),
        vec![Value::I64(64)],
    ));
    for (name, src, args) in tiny_calls() {
        calls.push((name, src.into(), args));
    }
    let mut executed: BTreeSet<&'static str> = BTreeSet::new();
    let mut hottest: BTreeMap<&'static str, (u64, &str)> = BTreeMap::new();
    for (name, src, args) in &calls {
        let cf = programs::compile_new(&Compiler::default(), src);
        // Each fused mnemonic with the first mnemonic of its arm.
        let arms: BTreeMap<&'static str, &'static str> = cf
            .program
            .funcs
            .iter()
            .flat_map(|f| &f.code)
            .filter(|op| op.parts().len() > 1)
            .map(|op| (op.mnemonic(), op.mnemonic().trim_end_matches(".u")))
            .collect();
        cf.profile_ops(true);
        cf.call(args).unwrap();
        for (op, n) in cf.take_op_stats().ops {
            if let Some(&arm) = arms.get(op) {
                executed.insert(op);
                let best = hottest.entry(arm).or_insert((0, name));
                if n > best.0 {
                    *best = (n, name);
                }
            }
        }
    }
    for (arm, (n, name)) in &hottest {
        assert!(
            *n >= 8,
            "{arm} runs at most {n} times in one call (in {name}): no program runs it in a loop"
        );
    }
    let executed: Vec<&str> = executed.into_iter().collect();
    assert_eq!(
        executed, EXECUTED_FUSED,
        "fused ops the benchmark programs execute"
    );
}

#[test]
fn every_lowered_program_validates() {
    // `NativeFunc::new` checks the lowering's output; fusion and the
    // vectorizer rewrite it afterwards and must keep every register inside
    // its bank and every branch target inside the code.
    let (fused, unfused) = compilers();
    let mut options = CompilerOptions::default();
    Ablation::Vectorize.apply(&mut options);
    let scalar_loops = Compiler::new(options);
    // The `vec.loop`s each compiler plants: the default, then the two
    // that must plant none; and the programs whose plans include a fold.
    let mut folds: Vec<String> = Vec::new();
    let mut check = |name: &str, func: &Expr| -> [usize; 3] {
        let mut planted = [0; 3];
        for (ix, compiler) in [&fused, &scalar_loops, &unfused].into_iter().enumerate() {
            let Ok(pm) = compiler.compile_to_twir(func, None) else {
                return planted;
            };
            let native = match compiler.generate_native(&pm) {
                Ok(native) => native,
                Err(e @ CompileError::Codegen(LowerError::Invalid(_))) => panic!("{name}: {e}"),
                Err(_) => return planted,
            };
            for f in &native.funcs {
                if let Err(e) = f.validate() {
                    panic!("{name}/{}: {e}", f.name);
                }
                let plans: Vec<&VecPlan> = f
                    .code
                    .iter()
                    .filter_map(|op| match op {
                        RegOp::VecLoop { plan } => Some(&**plan),
                        _ => None,
                    })
                    .collect();
                if plans.iter().any(|p| matches!(p.out, PlanOut::Fold { .. })) {
                    folds.push(name.to_owned());
                }
                planted[ix] += plans.len();
            }
        }
        planted
    };
    let mut paper_plans = Vec::new();
    for (name, src) in paper_programs() {
        let planted = check(name, &parse(&src).unwrap());
        if planted != [0; 3] {
            paper_plans.push((name, planted));
        }
    }
    let mut drawn_plans = [0; 3];
    for i in 0..2000 {
        let seed = wolfram_difftest::derive_seed(42, i);
        let program = wolfram_difftest::gen::Program::generate(seed);
        let planted = check(&format!("difftest seed {seed}"), &program.func);
        for (total, n) in drawn_plans.iter_mut().zip(planted) {
            *total += n;
        }
    }
    // The loop planner's census: its whitelist is exactly what these 38
    // loops use, so a change to lowering or to the planner that loses or
    // gains a plan shows here. Only the default compiler plants.
    // Histogram's scatter-add and FNV1a's fold are the paper programs'
    // integer plans. The generator draws no scatter-add
    // (`Program::generate` stays byte-stable), so the draws hold their 33
    // `f64` maps; of their 7 loops that carry one integer register and
    // store nothing, two are folds, named below.
    assert_eq!(
        paper_plans,
        [
            ("FNV1a", [1, 0, 0]),
            ("Blur", [1, 0, 0]),
            ("Histogram", [1, 0, 0])
        ],
        "vec.loops in the paper programs (default, scalar loops, unfused)"
    );
    assert_eq!(
        drawn_plans,
        [35, 0, 0],
        "vec.loops in 2,000 seed-42 draws (default, scalar loops, unfused)"
    );
    // The drawn folds are `While[k4 < 2, v1 = v1 + 19; k4 = k4 + 1]`, a
    // constant step on the carried `v1`, and `While[k4 < 1, v2 =
    // Subtract[v2, p2]; k4 = k4 + 1]`, a step by the parameter `p2`, read
    // once at batch entry; both are checked per element. They run two
    // iterations and one, below the batch minimum, so the scalar loop runs
    // them. The other five stay `LoopCarried`: `h + h` (a second use),
    // `h ^ -3` and `Min[h, 5]` (ops off the whitelist), `Mod[x, h]` (a
    // register divisor), and an outer loop whose body holds a loop.
    assert_eq!(
        folds,
        [
            "FNV1a",
            "difftest seed 16899056752012441291",
            "difftest seed 9481706540736735178"
        ],
        "programs with a planned fold"
    );
}

/// Whether `op` moves a register onto itself.
fn self_move(op: &RegOp) -> bool {
    matches!(
        op,
        RegOp::MovI { d, s }
            | RegOp::MovF { d, s }
            | RegOp::MovC { d, s }
            | RegOp::MovV { d, s }
            | RegOp::TakeV { d, s } if d == s
    )
}

#[test]
fn lowering_emits_no_self_move() {
    let (_, unfused) = compilers();
    let check = |name: &str, func: &Expr| {
        let Ok(pm) = unfused.compile_to_twir(func, None) else {
            return;
        };
        let Ok(native) = unfused.generate_native(&pm) else {
            return;
        };
        for f in &native.funcs {
            if let Some(op) = f.code.iter().find(|op| self_move(op)) {
                panic!("{name}/{}: self-move {op:?}", f.name);
            }
        }
    };
    for (name, src) in paper_programs() {
        check(name, &parse(&src).unwrap());
    }
    for i in 0..2000 {
        let seed = wolfram_difftest::derive_seed(42, i);
        let program = wolfram_difftest::gen::Program::generate(seed);
        check(&format!("difftest seed {seed}"), &program.func);
    }
}

#[test]
fn assembler_export_lists_the_code_that_runs() {
    let (fused, _) = compilers();
    for (name, src) in paper_programs() {
        let func = parse(&src).unwrap();
        let listing = fused.export_string(&func, "Assembler").unwrap();
        let pm = fused.compile_to_twir(&func, None).unwrap();
        let native = fused.generate_native(&pm).unwrap();
        let ops: usize = native.funcs.iter().map(|f| f.code.len()).sum();
        let op_lines = listing
            .lines()
            .filter(|l| l.starts_with('L') && l[1..5].bytes().all(|b| b.is_ascii_digit()))
            .count();
        assert_eq!(op_lines, ops, "{name}:\n{listing}");
        if name == "Histogram" {
            // Range facts reach the export: proved accesses list unchecked.
            assert!(listing.contains(".u"), "{listing}");
        }
        // A fold's `vec.loop` names its carried register.
        if name == "FNV1a" {
            assert!(
                listing.contains("vec.loop i1, le i0, 7 nodes, fold i2"),
                "{listing}"
            );
        }
    }
}

#[test]
fn a_constant_left_operand_takes_the_immediate_form() {
    // `3 * x` lowers as `x * 3`: the constant is the op's immediate, not
    // a register, so the loop planner reads it as a constant. FNV1a with
    // its multiplier on the left plans as a fold, and a Histogram whose
    // addend is `2 * data[[i]]` as a scatter-add.
    let fnv1a = programs::FNV1A_SRC.replace("h * 16777619", "16777619 * h");
    let doubled = programs::HISTOGRAM_SRC.replace("bins[[b]] + 1", "bins[[b]] + 2 * data[[i]]");
    let (fused, _) = compilers();
    let mut options = CompilerOptions::default();
    Ablation::Vectorize.apply(&mut options);
    let scalar_loops = Compiler::new(options);
    for (src, shape) in [(fnv1a, "fold i"), (doubled, "add.at v")] {
        let func = parse(&src).unwrap();
        let listing = fused.export_string(&func, "Assembler").unwrap();
        // Checked or proved (`mului`), the multiply takes an immediate.
        assert!(
            ["muli.i64", "mului.i64"]
                .iter()
                .any(|m| listing.contains(m)),
            "{listing}"
        );
        assert!(
            !["mul.i64", "mulu.i64"].iter().any(|m| listing.contains(m)),
            "{listing}"
        );
        assert!(listing.contains(shape), "{listing}");
        let cf = programs::compile_new(&scalar_loops, &src);
        let verdicts = wolfram_codegen::vectorize::plan_loops(&cf.program.funcs[0].code);
        assert!(
            matches!(&verdicts[..], [v] if v.plan.is_ok()),
            "{verdicts:?}"
        );
    }
}

#[test]
fn no_call_stream_or_serve_loop_runs_a_fold() {
    // The serve catalog's `acc + i*i + k` and SumSq's `s + i*i` carry an
    // integer through a product of the induction variable, which no plan
    // holds, and Norm8's `s` is a float: each stays a scalar loop, so no
    // call, stream or serve workload changes path.
    let mut options = CompilerOptions::default();
    Ablation::Vectorize.apply(&mut options);
    let scalar_loops = Compiler::new(options);
    let catalog = serve_load::Catalog::new(1, 64);
    let mut sources = vec![("serve catalog", catalog.source(0).to_owned())];
    sources.extend(
        tiny_calls()
            .into_iter()
            .map(|(name, src, _)| (name, src.to_owned())),
    );
    let verdicts: Vec<(&str, Vec<String>)> = sources
        .iter()
        .map(|(name, src)| {
            let cf = programs::compile_new(&scalar_loops, src);
            let loops = cf.program.funcs.iter().flat_map(|f| {
                wolfram_codegen::vectorize::plan_loops(&f.code)
                    .into_iter()
                    .map(|v| {
                        v.plan
                            .map_or_else(|why| format!("{why:?}"), |_| "planned".into())
                    })
            });
            (*name, loops.collect())
        })
        .collect();
    let carried = |v: &str| vec![v.to_owned()];
    assert_eq!(
        verdicts,
        [
            ("serve catalog", carried("LoopCarried(I, 2)")),
            ("AddMul", vec![]),
            ("Poly", vec![]),
            ("Norm8", carried("LoopCarried(F, 0)")),
            ("SumSq", carried("LoopCarried(I, 2)")),
        ]
    );
}
