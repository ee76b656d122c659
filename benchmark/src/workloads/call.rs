//! `call_tiny`: millions of one-shot `CompiledCodeFunction::call`s of
//! ~10-op functions in a bare loop, timed in 1000-call chunks.

use super::tiny::{Expected, Tiny};
use super::{memory_balanced, seeded};
use crate::harness::{ns_per_call, Ctx, Layers, Recorder, Workload};
use crate::spec;
use crate::stats::{fnv1a, fnv1a_head, FNV_OFFSET};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use wolfram_compiler_core::{CompiledCodeFunction, Compiler, StreamCaller};
use wolfram_interp::Interpreter;
use wolfram_runtime::{memory, Value};

const CHUNK: usize = 1000;
/// Records per function; calls cycle through them. A power of two.
const POOL: usize = 4096;

struct Func {
    tiny: Tiny,
    cf: CompiledCodeFunction,
    pool: Vec<(Vec<Value>, Expected)>,
    chunks_per_round: usize,
    head: Vec<u8>,
}

pub struct CallTiny {
    funcs: Vec<Func>,
}

impl Func {
    /// One 1000-call chunk; returns its wall time and how many results
    /// differed from the closed form.
    fn chunk(&self, base: usize) -> (Duration, u64) {
        let mut bad = 0;
        let t = Instant::now();
        for j in 0..CHUNK {
            let (args, expected) = &self.pool[(base + j) & (POOL - 1)];
            match self.cf.call(std::hint::black_box(args)) {
                Ok(v) if expected.matches(&v) => {}
                _ => bad += 1,
            }
        }
        (t.elapsed(), bad)
    }
}

impl Workload for CallTiny {
    const NAME: &'static str = spec::CALL_TINY;

    fn setup(ctx: &mut Ctx) -> Self {
        let compiler = Compiler::default();
        let plan = [
            (Tiny::AddMul, ctx.scale(1_000_000, 20_000)),
            (Tiny::Poly, ctx.scale(1_000_000, 20_000)),
            (Tiny::Norm8, ctx.scale(200_000, 4_000)),
        ];
        let mut funcs = Vec::new();
        for (i, (tiny, calls)) in plan.into_iter().enumerate() {
            let mut rng = seeded(ctx.seed, 0xCA11 + i as u64);
            let mut head = Vec::new();
            let mut pool = Vec::with_capacity(POOL);
            for _ in 0..POOL {
                let r = tiny.record(&mut rng);
                if head.len() < 1024 {
                    head.extend_from_slice(r.line.as_bytes());
                    head.push(b'\n');
                }
                pool.push((r.args, r.expected));
            }
            if ctx.fault && i == 0 {
                pool[0].1 = pool[0].1.corrupted();
            }
            let cf = compiler
                .function_compile_src(tiny.src())
                .expect("a tiny function compiles");
            funcs.push(Func {
                tiny,
                cf,
                pool,
                chunks_per_round: calls / CHUNK,
                head,
            });
        }
        let w = CallTiny { funcs };
        // Warm-up: one unrecorded round, which fills the frame pools.
        for f in &w.funcs {
            for c in 0..f.chunks_per_round {
                f.chunk(c * CHUNK);
            }
        }
        w
    }

    fn programs(&self) -> usize {
        self.funcs.len()
    }

    fn fingerprint(&self) -> u64 {
        self.funcs.iter().fold(FNV_OFFSET, |h, f| {
            fnv1a_head(fnv1a(h, f.tiny.src().as_bytes()), &f.head)
        })
    }

    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder) {
        for (p, f) in self.funcs.iter().enumerate() {
            for c in 0..f.chunks_per_round {
                // A span per chunk: a span per call would outweigh the call.
                let span = ctx
                    .tracer
                    .enter("core.call.chunk", (p * 1_000_000 + c) as u64);
                let (dt, bad) = f.chunk(c * CHUNK);
                ctx.tracer.exit(span);
                rec.sample(p, dt.as_secs_f64() * 1e6 / CHUNK as f64);
                rec.timed(dt);
                rec.count(CHUNK as u64 - bad, bad);
            }
        }
    }

    fn layers(&mut self, _ctx: &mut Ctx, untraced: &Recorder, _budget: Duration, out: &mut Layers) {
        const REPS: usize = 9;
        const BATCH: usize = 50_000;
        out.set("core.call.addmul_ns", untraced.program_us(0) * 1e3);
        out.set("core.call.poly_ns", untraced.program_us(1) * 1e3);
        out.set("core.call.norm8_ns", untraced.program_us(2) * 1e3);
        out.set("core.call.op_p99_us", untraced.p99_us().value);

        // The reset-and-reuse entry the stream engine calls per record.
        for (p, name) in [
            (0, "core.stream_caller.addmul_ns"),
            (2, "core.stream_caller.norm8_ns"),
        ] {
            let f = &self.funcs[p];
            let mut caller = StreamCaller::new(&f.cf.artifact());
            let ns = ns_per_call(REPS, BATCH, |i| {
                let r = caller.call(std::hint::black_box(&f.pool[i & (POOL - 1)].0));
                std::hint::black_box(r).expect("a tiny function runs");
            });
            out.set(name, ns);
        }

        // The legacy VM's per-call entry on the same function.
        let addmul = &self.funcs[0];
        let func = wolfram_expr::parse(addmul.tiny.src()).expect("tiny source parses");
        let specs = wolfram_bytecode::ArgSpec::from_function(&func).expect("bytecode arg specs");
        let bc = wolfram_bytecode::BytecodeCompiler::new()
            .compile(&specs, &func.args()[1])
            .expect("AddMul is in the bytecode subset");
        out.set(
            "bytecode.run.addmul_ns",
            ns_per_call(REPS, BATCH, |i| {
                let r = bc.run(std::hint::black_box(&addmul.pool[i & (POOL - 1)].0));
                std::hint::black_box(r).expect("bytecode AddMul runs");
            }),
        );

        // Per element of Map[f, Range[n]] through an installed function.
        let engine = Rc::new(RefCell::new(Interpreter::new()));
        let hosted = Compiler::default()
            .function_compile_src(Tiny::AddMul.src())
            .expect("AddMul compiles")
            .hosted(engine.clone());
        hosted.install("benchAddMul").expect("hosted install");
        let n = 20_000usize;
        let call = wolfram_expr::parse(&format!("Map[benchAddMul, Range[{n}]]")).expect("parses");
        let per_elem: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let list = engine.borrow_mut().eval(&call).expect("Map evaluates");
                let ns = t.elapsed().as_secs_f64() * 1e9 / n as f64;
                assert_eq!(
                    list.args().last().and_then(|e| e.as_i64()),
                    Some(3 * n as i64 + 7),
                    "Map over the installed function"
                );
                ns
            })
            .collect();
        out.set("interp.hosted_call_ns", crate::stats::median(&per_elem));

        // Frame pool behaviour of the one-shot path over one more round.
        let before = memory::stats();
        for f in &self.funcs {
            f.chunk(0);
        }
        let after = memory::stats();
        let hits = (after.frame_hits - before.frame_hits) as f64;
        let misses = (after.frame_misses - before.frame_misses) as f64;
        out.set(
            "runtime.memory.frame_hit_share",
            hits / (hits + misses).max(1.0),
        );
    }

    fn finish(self, _ctx: &mut Ctx) -> u64 {
        drop(self);
        u64::from(!memory_balanced())
    }
}
