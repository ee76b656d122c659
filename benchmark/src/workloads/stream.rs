//! `stream_tiny` and `stream_heavy`: text records through
//! `wolfram_stream::run_lines`, a batch job over an in-memory input. The
//! time is from input to complete result, so no per-record latency is
//! reported: an operation's latency is the run's time over its records.

use super::tiny::{Expected, Tiny};
use super::{memory_balanced, seeded};
use crate::harness::{time_reps, Ctx, Layers, Recorder, Workload};
use crate::spec;
use crate::stats::{self, fnv1a, fnv1a_head, FNV_OFFSET};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_compiler_core::{CompiledArtifact, Compiler, StreamCaller};
use wolfram_runtime::Value;
use wolfram_stream::{
    parse_record, render_result, run_lines, run_stream, Record, StreamConfig, StreamFunction,
    StreamMetrics,
};

struct Prog {
    tiny: Tiny,
    artifact: CompiledArtifact,
    func: StreamFunction,
    /// The input: one record per line.
    input: Vec<u8>,
    expected: Vec<Expected>,
    /// The output of the warm-up run, every line of it checked against
    /// the closed form; later runs must reproduce it byte for byte.
    verified: Vec<u8>,
    out: Vec<u8>,
}

pub struct Stream<const HEAVY: bool> {
    progs: Vec<Prog>,
    cfg: StreamConfig,
}

struct RunStats {
    elapsed: Duration,
    bad: u64,
    batch_fill: f64,
    queue_depth_max: u64,
}

impl Prog {
    fn lines(&self) -> usize {
        self.expected.len()
    }

    /// Lines of `out` that do not carry their record's closed-form result.
    fn mismatches(&self) -> u64 {
        let text = String::from_utf8_lossy(&self.out);
        let mut lines = text.lines();
        let mut bad = 0;
        for e in &self.expected {
            if !lines.next().is_some_and(|l| e.matches_line(l)) {
                bad += 1;
            }
        }
        bad + lines.count() as u64
    }

    /// One whole run of the input through `func`, output checked.
    fn run(&mut self, func: &StreamFunction, cfg: &StreamConfig) -> RunStats {
        self.out.clear();
        let metrics = StreamMetrics::new();
        let stop = AtomicBool::new(false);
        let t = Instant::now();
        let summary = run_lines(
            func,
            cfg,
            Cursor::new(std::hint::black_box(&self.input[..])),
            &mut self.out,
            &metrics,
            &stop,
        );
        let elapsed = t.elapsed();
        let complete = summary.is_ok_and(|s| s.records == self.lines() as u64 && s.errors == 0);
        let bad = if complete && !self.verified.is_empty() && self.out == self.verified {
            0
        } else {
            // Also the path of the warm-up run, which has nothing to
            // compare with yet.
            self.mismatches().max(u64::from(!complete))
        };
        RunStats {
            elapsed,
            bad,
            batch_fill: metrics.fill_ratio(),
            queue_depth_max: metrics.queue_depth_max.load(Ordering::Relaxed),
        }
    }
}

impl<const HEAVY: bool> Stream<HEAVY> {
    /// Streamed nanoseconds per record over all programs of the workload.
    fn streamed_ns(&self, untraced: &Recorder) -> f64 {
        let (mut ns, mut lines) = (0.0, 0.0);
        for (p, prog) in self.progs.iter().enumerate() {
            ns += untraced.program_us(p) * 1e3 * prog.lines() as f64;
            lines += prog.lines() as f64;
        }
        ns / lines
    }

    fn total_lines(&self) -> f64 {
        self.progs.iter().map(|p| p.lines() as f64).sum()
    }

    /// parse, `StreamCaller::call`, render in a plain loop on this thread:
    /// the baseline the engine has to beat. Seconds for all programs, and
    /// how many of them did not reproduce the stream's output.
    fn bare_loop(&mut self) -> (f64, u64) {
        let (mut secs, mut bad) = (0.0, 0);
        for prog in &mut self.progs {
            let mut caller = StreamCaller::new(&prog.artifact);
            let arity = caller.arity();
            prog.out.clear();
            let text = std::str::from_utf8(&prog.input).expect("generated input is UTF-8");
            let t = Instant::now();
            for line in text.lines() {
                let result = match parse_record(line, arity) {
                    Ok(args) => caller.call(&args),
                    Err(e) => Err(wolfram_runtime::RuntimeError::Type(e)),
                };
                prog.out
                    .extend_from_slice(render_result(&result).as_bytes());
                prog.out.push(b'\n');
            }
            secs += t.elapsed().as_secs_f64();
            bad += u64::from(prog.out != prog.verified);
        }
        (secs, bad)
    }

    /// `run_stream` over `records`, parsed beforehand, into a sink that
    /// renders nothing. Seconds for all programs, and records not run.
    fn preparsed(&self, records: &[Vec<Record>]) -> (f64, u64) {
        let (mut secs, mut bad) = (0.0, 0);
        for (prog, records) in self.progs.iter().zip(records) {
            let metrics = StreamMetrics::new();
            let stop = AtomicBool::new(false);
            let t = Instant::now();
            let summary = run_stream(
                &prog.func,
                &self.cfg,
                records.iter().map(|r| Ok(r.clone())),
                &metrics,
                &stop,
                |r| {
                    std::hint::black_box(&r);
                },
            );
            secs += t.elapsed().as_secs_f64();
            bad += prog.lines() as u64 - summary.ok.min(prog.lines() as u64);
        }
        (secs, bad)
    }

    /// Seconds for one checked pass of every program through its entry of
    /// `funcs`, and how many output lines were wrong.
    fn pass(&mut self, cfg: &StreamConfig, funcs: &[StreamFunction]) -> (f64, u64) {
        let (mut secs, mut bad) = (0.0, 0);
        for (prog, func) in self.progs.iter_mut().zip(funcs) {
            let stats = prog.run(func, cfg);
            secs += stats.elapsed.as_secs_f64();
            bad += stats.bad;
        }
        (secs, bad)
    }
}

impl<const HEAVY: bool> Workload for Stream<HEAVY> {
    const NAME: &'static str = if HEAVY {
        spec::STREAM_HEAVY
    } else {
        spec::STREAM_TINY
    };

    fn setup(ctx: &mut Ctx) -> Self {
        let plan: Vec<(Tiny, usize)> = if HEAVY {
            vec![(Tiny::SumSq, ctx.scale(40_000, 2_000))]
        } else {
            vec![
                (Tiny::AddMul, ctx.scale(500_000, 20_000)),
                (Tiny::Poly, ctx.scale(500_000, 20_000)),
                (Tiny::Norm8, ctx.scale(100_000, 4_000)),
            ]
        };
        let cfg = StreamConfig {
            workers: if HEAVY { 2 } else { 1 },
            ..StreamConfig::default()
        };
        let compiler = Compiler::default();
        let mut progs = Vec::new();
        for (i, (tiny, lines)) in plan.into_iter().enumerate() {
            let mut rng = seeded(ctx.seed, 0x57 + i as u64);
            let mut input = Vec::new();
            let mut expected = Vec::with_capacity(lines);
            for _ in 0..lines {
                let r = tiny.record(&mut rng);
                input.extend_from_slice(r.line.as_bytes());
                input.push(b'\n');
                expected.push(r.expected);
            }
            if ctx.fault && i == 0 {
                expected[0] = expected[0].corrupted();
            }
            let artifact = compiler
                .function_compile_src(tiny.src())
                .expect("a tiny function compiles")
                .artifact();
            progs.push(Prog {
                tiny,
                func: StreamFunction::Native(artifact.clone()),
                artifact,
                out: Vec::with_capacity(input.len() * 2),
                input,
                expected,
                verified: Vec::new(),
            });
        }
        let mut w = Stream { progs, cfg };
        // Warm-up: one run each, checked line by line. A wrong line is
        // counted in every round, since no round can then match `verified`.
        for prog in &mut w.progs {
            let func = prog.func.clone();
            if prog.run(&func, &w.cfg).bad == 0 {
                prog.verified = prog.out.clone();
            }
        }
        w
    }

    fn programs(&self) -> usize {
        self.progs.len()
    }

    fn fingerprint(&self) -> u64 {
        self.progs.iter().fold(FNV_OFFSET, |h, p| {
            fnv1a_head(fnv1a(h, p.tiny.src().as_bytes()), &p.input)
        })
    }

    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder) {
        for (p, prog) in self.progs.iter_mut().enumerate() {
            let op = ctx.next_op();
            let span = ctx.tracer.enter("stream.run_lines", op);
            let func = prog.func.clone();
            let stats = prog.run(&func, &self.cfg);
            ctx.tracer.exit(span);
            let lines = prog.lines() as u64;
            let bad = stats.bad.min(lines);
            rec.sample(p, stats.elapsed.as_secs_f64() * 1e6 / lines as f64);
            rec.timed(stats.elapsed);
            rec.count(lines - bad, bad);
        }
    }

    fn layers(&mut self, _ctx: &mut Ctx, untraced: &Recorder, budget: Duration, out: &mut Layers) {
        let lines = self.total_lines();
        let streamed_ns = self.streamed_ns(untraced);
        let slice = budget.div_f64(6.0);
        let per_record = |secs: &[f64]| stats::median(secs) * 1e9 / lines;
        // A probe's (seconds, failures) samples: the seconds, failures counted.
        let mut failed = 0;
        let mut seconds = |samples: Vec<(f64, u64)>| -> Vec<f64> {
            failed += samples.iter().map(|s| s.1).sum::<u64>();
            samples.into_iter().map(|s| s.0).collect()
        };

        // Execution with the record layer taken out: records parsed here,
        // results rendered nowhere.
        let records: Vec<Vec<Record>> = self
            .progs
            .iter()
            .map(|p| {
                let text = std::str::from_utf8(&p.input).expect("generated input is UTF-8");
                text.lines()
                    .map(|l| parse_record(l, p.func.arity()).expect("a generated record parses"))
                    .collect()
            })
            .collect();
        let mut samples = Vec::new();
        time_reps(3, 9, slice, || samples.push(self.preparsed(&records)));
        drop(records);
        out.set("stream.exec.preparsed_ns", per_record(&seconds(samples)));

        let cfg = self.cfg.clone();
        let prog = &mut self.progs[0];
        let func = prog.func.clone();
        let stats0 = prog.run(&func, &cfg);
        out.set("stream.batch_fill", stats0.batch_fill);
        out.set("stream.queue_depth_max", stats0.queue_depth_max as f64);

        let bare_ns = per_record(&seconds((0..3).map(|_| self.bare_loop()).collect()));

        if HEAVY {
            out.set("stream.heavy_execute_share", bare_ns / streamed_ns);
            let one = StreamConfig {
                workers: 1,
                ..self.cfg.clone()
            };
            let native: Vec<StreamFunction> = self.progs.iter().map(|p| p.func.clone()).collect();
            let w1 = seconds((0..3).map(|_| self.pass(&one, &native)).collect());
            out.set("stream.w2_scaling", per_record(&w1) / streamed_ns);
        } else {
            out.set("stream.bare_loop_ns", bare_ns);
            out.set("stream.vs_bare_loop", bare_ns / streamed_ns);
            out.set("stream.pipeline_overhead_ns", streamed_ns - bare_ns);

            // The record layer alone, over the same lines and results.
            let secs = time_reps(3, 9, slice, || {
                for prog in &self.progs {
                    let arity = prog.func.arity();
                    let text = std::str::from_utf8(&prog.input).expect("UTF-8");
                    for line in text.lines() {
                        std::hint::black_box(parse_record(line, arity)).expect("a record parses");
                    }
                }
            });
            out.set("stream.record.parse_ns", per_record(&secs));
            let results: Vec<Vec<Value>> = self
                .progs
                .iter()
                .map(|p| {
                    p.expected
                        .iter()
                        .map(|e| match e {
                            Expected::Int(i) => Value::I64(*i),
                            Expected::Real(x) => Value::F64(*x),
                        })
                        .collect()
                })
                .collect();
            let secs = time_reps(3, 9, slice, || {
                for values in &results {
                    for v in values {
                        std::hint::black_box(render_result(&Ok(v.clone())));
                    }
                }
            });
            out.set("stream.record.render_ns", per_record(&secs));

            // The bytecode tier through the same engine. Its rendering of
            // a real may differ in the last digit, so its output is
            // checked against the closed form, not against `verified`.
            let bytecode: Vec<StreamFunction> = self
                .progs
                .iter()
                .map(|p| {
                    let func = wolfram_expr::parse(p.tiny.src()).expect("parses");
                    let specs = wolfram_bytecode::ArgSpec::from_function(&func).expect("arg specs");
                    let cf = wolfram_bytecode::BytecodeCompiler::new()
                        .compile(&specs, &func.args()[1])
                        .expect("tiny functions are in the bytecode subset");
                    StreamFunction::Bytecode(Arc::new(cf))
                })
                .collect();
            let saved: Vec<Vec<u8>> = self
                .progs
                .iter_mut()
                .map(|p| std::mem::take(&mut p.verified))
                .collect();
            let cfg = self.cfg.clone();
            let bc = seconds((0..3).map(|_| self.pass(&cfg, &bytecode)).collect());
            for (p, v) in self.progs.iter_mut().zip(saved) {
                p.verified = v;
            }
            out.set("stream.bytecode_ns", per_record(&bc));
        }
        out.fail(failed);
    }

    fn finish(self, _ctx: &mut Ctx) -> u64 {
        drop(self);
        u64::from(!memory_balanced())
    }
}
