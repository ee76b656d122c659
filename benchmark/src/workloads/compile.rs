//! `compile_cold`: one `function_compile_src` per operation, default
//! options, on a `Compiler` built once in set-up.

use super::tiny::Tiny;
use super::{memory_balanced, seeded};
use crate::harness::{time_reps, Ctx, Layers, Recorder, Workload};
use crate::spec;
use crate::stats::{self, fnv1a, FNV_OFFSET};
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_bench::serve_load::Catalog;
use wolfram_bench::{native, programs, workloads};
use wolfram_compiler_core::{CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_difftest::oracle::{outcomes_equivalent_within, Outcome, CANCELLATION_EPS};
use wolfram_difftest::Program;
use wolfram_expr::{parse, Expr};
use wolfram_interp::Interpreter;
use wolfram_runtime::{RuntimeError, Tensor, Value};

/// Generator draws in the program set.
const DRAWS: u64 = 21;
/// Base seed of the draws. It is fixed, not taken from `--seed`: the
/// fuzzer's programs differ in compile time by two orders of magnitude
/// (27 us to 5 ms over 400 draws), so a fresh draw per seed would move
/// every metric by more than its bound. `--seed` picks each program's
/// input, the catalog program and the order of compilation.
const DRAW_SEED: u64 = 0xC01D_C0DE;
/// Real-comparison allowance for the hand-picked programs, whose inputs
/// and literals stay below 2^12 (see `CANCELLATION_EPS`).
const FIXED_ABS_TOL: f64 = CANCELLATION_EPS * 4096.0;

struct Prog {
    src: String,
    args: Vec<Value>,
    /// What `wolfram-interp` makes of `src` applied to `args`.
    reference: Outcome,
    abs_tol: f64,
}

/// Stage times of one traced round, summed over the programs, in us.
type Ledger = BTreeMap<&'static str, f64>;

pub struct CompileCold {
    compiler: Compiler,
    progs: Vec<Prog>,
    /// Order of compilation within a round.
    order: Vec<usize>,
    ledgers: Vec<Ledger>,
}

fn outcome(r: Result<Value, RuntimeError>) -> Outcome {
    match r {
        Ok(v) => Outcome::Ok(v),
        Err(e) => Outcome::Err(e.tag().to_owned()),
    }
}

fn interpret(func: &Expr, args: &[Value]) -> Outcome {
    let call = Expr::normal(
        func.clone(),
        args.iter().map(Value::to_expr).collect::<Vec<_>>(),
    );
    outcome(Interpreter::new().eval(&call).map(|e| Value::from_expr(&e)))
}

/// A hand-picked program with its interpreter reference.
fn fixed(src: &str, args: Vec<Value>) -> Prog {
    let func = parse(src).expect("a benchmark source parses");
    Prog {
        reference: interpret(&func, &args),
        src: src.to_owned(),
        args,
        abs_tol: FIXED_ABS_TOL,
    }
}

/// The layer a `Compiler::timings()` entry belongs to.
fn layer_of(timing: &str) -> &'static str {
    match timing {
        "macro-expansion" => "core.macros_us",
        "binding-analysis" => "core.binding_us",
        "lowering" => "core.lower_us",
        "type-inference" => "core.infer_us",
        "function-resolution" => "core.resolve_us",
        "analyze" => "analyze.verify_us",
        "range-analysis" => "analyze.intervals_us",
        "code-generation" => "codegen.lower_us",
        "superinstruction-fusion" => "codegen.fuse_us",
        t if t.starts_with("optimize[") => "ir.passes_us",
        other => panic!("Compiler::timings() entry {other:?} has no layer metric"),
    }
}

/// The exact counts of one compilation, for the determinism check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    instrs_wir: u64,
    instrs_twir: u64,
    regops: u64,
    fused_ops: u64,
    bounds_total: u64,
    bounds_elided: u64,
    ovf_total: u64,
    ovf_elided: u64,
    rc_elided: u64,
}

impl CompileCold {
    fn check(
        &self,
        p: &Prog,
        compiled: Result<CompiledCodeFunction, impl std::fmt::Display>,
    ) -> bool {
        let cf = match compiled {
            Ok(cf) => cf,
            Err(e) => {
                eprintln!("compile_cold: does not compile: {e}\n  {}", p.src.trim());
                return false;
            }
        };
        // Hosted, as in the differential oracle: a numeric soft failure
        // re-runs under the interpreter and is part of the semantics.
        let cf = cf.hosted(Rc::new(RefCell::new(Interpreter::new())));
        let got = outcome(cf.call(&p.args));
        let same = outcomes_equivalent_within(&p.reference, &got, p.abs_tol);
        if !same {
            let short = |o: &Outcome| o.describe().chars().take(120).collect::<String>();
            eprintln!(
                "compile_cold: compiled code gives {}, the reference {}:\n  {}",
                short(&got),
                short(&p.reference),
                p.src.trim()
            );
        }
        same
    }

    /// The operation as its users run it: one call, timed from outside.
    fn compile_whole(&self, i: usize, rec: &mut Recorder) {
        let p = &self.progs[i];
        let t = Instant::now();
        let compiled = self
            .compiler
            .function_compile_src(std::hint::black_box(&p.src));
        let dt = t.elapsed();
        let ok = self.check(p, compiled);
        rec.sample(i, dt.as_secs_f64() * 1e6);
        rec.timed(dt);
        rec.count(u64::from(ok), u64::from(!ok));
    }

    /// The same compilation through the public stage functions, a span
    /// around each; the finer split is `Compiler::timings()` of this very
    /// compilation, laid under the stage that produced it.
    fn compile_staged(&self, i: usize, ctx: &mut Ctx, rec: &mut Recorder, ledger: &mut Ledger) {
        let p = &self.progs[i];
        let op = ctx.next_op();
        let tr = &mut ctx.tracer;
        let mut add = |name: &'static str, d: Duration| {
            *ledger.entry(name).or_insert(0.0) += d.as_secs_f64() * 1e6;
        };
        let t = Instant::now();
        let root = tr.enter("compile", op);

        let s = tr.enter("expr.parse", op);
        let t_parse = Instant::now();
        let func = parse(&p.src);
        add("expr.parse_us", t_parse.elapsed());
        tr.exit(s);

        let compiled = func.map_err(|e| e.to_string()).and_then(|func| {
            let s = tr.enter("core.compile_to_twir", op);
            let pm = self.compiler.compile_to_twir(&func, None);
            tr.exit(s);
            let front = self.compiler.timings();
            let mut cursor = 0;
            for (name, d) in &front {
                let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                tr.child(s, layer_of(name), op, &mut cursor, ns);
                add(layer_of(name), *d);
            }
            let pm = pm.map_err(|e| e.to_string())?;

            let s = tr.enter("core.generate_native", op);
            let native = self.compiler.generate_native(&pm);
            tr.exit(s);
            let mut cursor = 0;
            for (name, d) in &self.compiler.timings()[front.len()..] {
                let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                tr.child(s, layer_of(name), op, &mut cursor, ns);
                add(layer_of(name), *d);
            }
            let native = native.map_err(|e| e.to_string())?;

            let s = tr.enter("core.instantiate", op);
            let t_new = Instant::now();
            let cf = CompiledCodeFunction::new(func, Arc::new(pm), Arc::new(native));
            add("core.instantiate_us", t_new.elapsed());
            tr.exit(s);
            cf.map_err(|e| e.to_string())
        });
        tr.exit(root);
        let dt = t.elapsed();
        add("total", dt);
        let ok = self.check(p, compiled);
        rec.sample(i, dt.as_secs_f64() * 1e6);
        rec.timed(dt);
        rec.count(u64::from(ok), u64::from(!ok));
    }

    fn counts(&self, unfused: &Compiler) -> Counts {
        let mut c = Counts::default();
        for p in &self.progs {
            let func = parse(&p.src).expect("a benchmark source parses");
            let wir = self.compiler.compile_to_ir(&func).expect("compiles to WIR");
            let pm = self
                .compiler
                .compile_to_twir(&func, None)
                .expect("compiles to TWIR");
            let native = self.compiler.generate_native(&pm).expect("generates code");
            let mut plain = unfused
                .generate_native(&pm)
                .expect("generates unfused code");
            c.instrs_wir += wir
                .functions
                .iter()
                .map(|f| f.instr_count() as u64)
                .sum::<u64>();
            c.instrs_twir += pm
                .functions
                .iter()
                .map(|f| f.instr_count() as u64)
                .sum::<u64>();
            c.fused_ops += wolfram_codegen::fuse_program(&mut plain) as u64;
            for f in &native.funcs {
                c.regops += f.code.len() as u64;
                c.bounds_total += u64::from(f.elision.bounds_total);
                c.bounds_elided += u64::from(f.elision.bounds_elided);
                c.ovf_total += u64::from(f.elision.ovf_total);
                c.ovf_elided += u64::from(f.elision.ovf_elided);
                c.rc_elided += u64::from(f.elision.rc_elided);
            }
        }
        c
    }
}

impl Workload for CompileCold {
    const NAME: &'static str = spec::COMPILE_COLD;

    fn setup(ctx: &mut Ctx) -> Self {
        let compiler = Compiler::default();
        let mut rng = seeded(ctx.seed, 0xC0);
        let mut progs = Vec::new();

        // The seven programs of the paper's section 6, on inputs small
        // enough for the interpreter to give the reference.
        let text = workloads::random_string(64, rng.gen());
        let mut fnv1a = fixed(
            programs::FNV1A_SRC,
            vec![Value::Str(Arc::new(text.clone()))],
        );
        // The interpreter leaves BitXor unevaluated; the hand-written Rust
        // is this program's reference.
        fnv1a.reference = Outcome::Ok(Value::I64(i64::from(native::fnv1a32(text.as_bytes()))));
        progs.push(fnv1a);
        let pixel = Value::Complex(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..0.5));
        progs.push(fixed(programs::MANDELBROT_SRC, vec![pixel]));
        progs.push(fixed(
            programs::DOT_SRC,
            vec![
                Value::Tensor(workloads::random_matrix(4, rng.gen())),
                Value::Tensor(workloads::random_matrix(4, rng.gen())),
            ],
        ));
        progs.push(fixed(
            programs::BLUR_SRC,
            vec![
                Value::Tensor(workloads::random_matrix_hw(6, 6, rng.gen())),
                Value::I64(6),
                Value::I64(6),
            ],
        ));
        progs.push(fixed(
            programs::HISTOGRAM_SRC,
            vec![Value::Tensor(workloads::random_bytes_tensor(64, rng.gen()))],
        ));
        progs.push(fixed(
            &programs::primeq_src(&workloads::prime_seed_table()),
            vec![Value::I64(rng.gen_range(300..400i64))],
        ));
        let list: Vec<i64> = (0..32).map(|_| rng.gen_range(-1000..1000i64)).collect();
        progs.push(fixed(
            programs::QSORT_SRC,
            vec![Value::Tensor(Tensor::from_i64(list)), Value::Bool(true)],
        ));

        // The three per-event functions, and one program of the serve
        // catalog (a miss on serve_mixed is a compilation of these).
        for tiny in [Tiny::AddMul, Tiny::Poly, Tiny::Norm8] {
            progs.push(fixed(tiny.src(), tiny.record(&mut rng).args));
        }
        let catalog = Catalog::new(64, 64);
        progs.push(fixed(
            catalog.source(rng.gen_range(0..catalog.len())),
            vec![Value::I64(catalog.arg())],
        ));

        // Seeded draws from the differential fuzzer's generator, judged by
        // its own oracle: interpreter outcome and cancellation allowance.
        for i in 0..DRAWS {
            let p = Program::generate(wolfram_difftest::derive_seed(DRAW_SEED, i));
            let args = p.arg_sets[rng.gen_range(0..p.arg_sets.len())].clone();
            let (reference, abs_tol) = match wolfram_difftest::prepare(&p.func) {
                Ok(subject) => {
                    let run = subject.run(&args);
                    (run.outcomes[0].clone(), run.abs_tol)
                }
                Err(_) => (interpret(&p.func, &args), FIXED_ABS_TOL),
            };
            progs.push(Prog {
                src: p.source(),
                args,
                reference,
                abs_tol,
            });
        }

        if ctx.fault {
            progs[0].reference = Outcome::Ok(Value::I64(-1));
        }
        let mut order: Vec<usize> = (0..progs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let w = CompileCold {
            compiler,
            progs,
            order,
            ledgers: Vec::new(),
        };
        // Warm-up: one unrecorded round.
        let mut scratch = Recorder::new(w.progs.len());
        for &i in &w.order {
            w.compile_whole(i, &mut scratch);
        }
        w
    }

    fn programs(&self) -> usize {
        self.progs.len()
    }

    fn fingerprint(&self) -> u64 {
        self.progs.iter().fold(FNV_OFFSET, |h, p| {
            let h = fnv1a(h, p.src.as_bytes());
            p.args
                .iter()
                .fold(h, |h, a| fnv1a(h, a.to_expr().to_input_form().as_bytes()))
        })
    }

    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder) {
        if ctx.tracer.enabled() {
            let mut ledger = Ledger::new();
            for &i in &self.order {
                self.compile_staged(i, ctx, rec, &mut ledger);
            }
            self.ledgers.push(ledger);
        } else {
            for &i in &self.order {
                self.compile_whole(i, rec);
            }
        }
    }

    fn layers(&mut self, _ctx: &mut Ctx, _untraced: &Recorder, budget: Duration, out: &mut Layers) {
        // The ledger: per-round sums over the programs, median over rounds.
        let column = |name: &str| -> f64 {
            let per_round: Vec<f64> = self
                .ledgers
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            stats::median(&per_round)
        };
        let mut staged = 0.0;
        for l in spec::layers_on(Self::NAME) {
            if self
                .ledgers
                .iter()
                .any(|ledger| ledger.contains_key(l.name))
            {
                let us = column(l.name);
                out.set(l.name, us);
                staged += us;
            }
        }
        let shares: Vec<f64> = self
            .ledgers
            .iter()
            .map(|l| {
                let stages: f64 = l
                    .iter()
                    .filter(|(k, _)| **k != "total")
                    .map(|(_, v)| v)
                    .sum();
                (l["total"] - stages) / l["total"]
            })
            .collect();
        out.set("compile.unattributed_share", stats::median(&shares));
        assert!(staged > 0.0, "the traced rounds fill the ledger");

        let news = time_reps(25, 25, budget, || {
            std::hint::black_box(Compiler::default());
        });
        out.set("core.compiler_new_us", stats::median(&news) * 1e6);

        // The legacy compiler on the subset it can represent, and the
        // image round trip the disk cache level pays per artifact.
        let subset: Vec<_> = self
            .progs
            .iter()
            .filter_map(|p| {
                let func = parse(&p.src).ok()?;
                let specs = wolfram_bytecode::ArgSpec::from_function(&func).ok()?;
                let body = func.args().get(1)?.clone();
                wolfram_bytecode::BytecodeCompiler::new()
                    .compile(&specs, &body)
                    .ok()
                    .map(|cf| (specs, body, cf))
            })
            .collect();
        let secs = time_reps(5, 5, budget, || {
            for (specs, body, _) in &subset {
                let cf = wolfram_bytecode::BytecodeCompiler::new().compile(specs, body);
                std::hint::black_box(cf).expect("compiled a moment ago");
            }
        });
        out.set("bytecode.compile_us", stats::median(&secs) * 1e6);
        let secs = time_reps(5, 5, budget, || {
            for (_, _, cf) in &subset {
                let image = wolfram_bytecode::to_image(cf).expect("serializes");
                std::hint::black_box(wolfram_bytecode::from_image(&image)).expect("deserializes");
            }
        });
        out.set("bytecode.image_roundtrip_us", stats::median(&secs) * 1e6);

        // Exact counts; a compiler that is not deterministic fails here.
        let unfused = Compiler::new(CompilerOptions {
            superinstruction_fusion: false,
            ..CompilerOptions::default()
        });
        let c = self.counts(&unfused);
        if c != self.counts(&unfused) {
            out.fail(1);
        }
        let share = |part: u64, whole: u64| part as f64 / whole.max(1) as f64;
        out.set("ir.instrs_wir", c.instrs_wir as f64);
        out.set("ir.instrs_twir", c.instrs_twir as f64);
        out.set("codegen.regops", c.regops as f64);
        out.set("codegen.fused_ops", c.fused_ops as f64);
        out.set(
            "analyze.bounds_elided_share",
            share(c.bounds_elided, c.bounds_total),
        );
        out.set("analyze.ovf_elided_share", share(c.ovf_elided, c.ovf_total));
        out.set("analyze.rc_elided", c.rc_elided as f64);
    }

    fn finish(self, _ctx: &mut Ctx) -> u64 {
        drop(self);
        u64::from(!memory_balanced())
    }
}
