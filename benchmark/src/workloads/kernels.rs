//! `kernels_scalar` and `kernels_tensor`: one `CompiledCodeFunction::call`
//! per operation, at the paper's section 6 scale, checked against the
//! hand-written Rust of `wolfram_bench::native`.

use super::memory_balanced;
use crate::harness::{time_reps, Ctx, Layers, Recorder, Workload};
use crate::spec;
use crate::stats::{self, fnv1a, fnv1a_head, FNV_OFFSET};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_bench::{native, programs, workloads, Scale};
use wolfram_compiler_core::{CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_runtime::{linalg, memory, ParallelConfig, Tensor, Value};

const LISTABLE_SRC: &str = r#"
Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]], Typed[c, "Tensor"["Real64", 1]]},
 a*b + c]
"#;

/// Threads of the data-parallel variant recorded beside the default tier.
const PARALLEL_THREADS: usize = 2;

struct Kernel {
    /// Layer metric of its call time, of its native twin, and of its
    /// data-parallel variant where the tier applies.
    layer: &'static str,
    native_layer: &'static str,
    parallel_layer: Option<&'static str>,
    src: String,
    cf: CompiledCodeFunction,
    /// One operation on the compiled function.
    run: Box<dyn Fn(&CompiledCodeFunction) -> Value>,
    /// Whether a result equals the native reference.
    check: Box<dyn Fn(&Value) -> bool>,
    /// The same operation in hand-written Rust.
    native: Box<dyn Fn()>,
    /// First KiB of the generated input.
    head: Vec<u8>,
}

pub struct Kernels<const TENSOR: bool> {
    kernels: Vec<Kernel>,
}

fn reals_close(got: &Value, want: &Tensor, tol: f64) -> bool {
    let Ok(t) = got.expect_tensor() else {
        return false;
    };
    match (t.as_f64(), want.as_f64()) {
        (Some(g), Some(w)) if t.shape() == want.shape() => g
            .iter()
            .zip(w)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + y.abs())),
        _ => false,
    }
}

fn f64_head(xs: &[f64]) -> Vec<u8> {
    xs.iter().take(128).flat_map(|x| x.to_le_bytes()).collect()
}

fn i64_head(xs: &[i64]) -> Vec<u8> {
    xs.iter().take(128).flat_map(|x| x.to_le_bytes()).collect()
}

fn call(cf: &CompiledCodeFunction, args: &[Value]) -> Value {
    cf.call(std::hint::black_box(args))
        .expect("a benchmark kernel runs without error")
}

fn scalar_kernels(compiler: &Compiler, scale: &Scale, seed: u64) -> Vec<Kernel> {
    let compile = |src: &str| programs::compile_new(compiler, src);
    let mut out = Vec::new();

    let text = workloads::random_string(scale.string_len, seed);
    let want = i64::from(native::fnv1a32(text.as_bytes()));
    let arg = [Value::Str(Arc::new(text.clone()))];
    out.push(Kernel {
        layer: "codegen.machine.fnv1a_ms",
        native_layer: "ref.native.fnv1a_ms",
        parallel_layer: None,
        src: programs::FNV1A_SRC.into(),
        cf: compile(programs::FNV1A_SRC),
        run: Box::new(move |cf| call(cf, &arg)),
        check: Box::new(move |v| *v == Value::I64(want)),
        head: text.as_bytes()[..text.len().min(1024)].to_vec(),
        native: Box::new(move || {
            std::hint::black_box(native::fnv1a32(std::hint::black_box(text.as_bytes())));
        }),
    });

    // The paper's grid over [-1,1]x[-1,0.5]; it has no random part, and an
    // operation is one sweep of it.
    let res = scale.mandelbrot_resolution;
    let mut grid = Vec::new();
    let mut re = -1.0;
    while re <= 1.0 + 1e-12 {
        let mut im = -1.0;
        while im <= 0.5 + 1e-12 {
            grid.push((re, im));
            im += res;
        }
        re += res;
    }
    let want = native::mandelbrot_region(res, 1000);
    out.push(Kernel {
        layer: "codegen.machine.mandelbrot_ms",
        native_layer: "ref.native.mandelbrot_ms",
        parallel_layer: None,
        src: programs::MANDELBROT_SRC.into(),
        cf: compile(programs::MANDELBROT_SRC),
        head: res.to_le_bytes().to_vec(),
        run: Box::new(move |cf| {
            let sum = grid
                .iter()
                .map(|&(re, im)| {
                    call(cf, &[Value::Complex(re, im)])
                        .expect_i64()
                        .expect("an iteration count")
                })
                .sum();
            Value::I64(sum)
        }),
        check: Box::new(move |v| *v == Value::I64(want)),
        native: Box::new(move || {
            std::hint::black_box(native::mandelbrot_region(std::hint::black_box(res), 1000));
        }),
    });

    let n = scale.blur_n;
    let img = workloads::random_matrix_hw(n, n, seed ^ 0xB1);
    let want = native::blur(&img, n, n);
    let args = [
        Value::Tensor(img.clone()),
        Value::I64(n as i64),
        Value::I64(n as i64),
    ];
    out.push(Kernel {
        layer: "codegen.machine.blur_ms",
        native_layer: "ref.native.blur_ms",
        parallel_layer: Some("runtime.parallel.blur_ms"),
        src: programs::BLUR_SRC.into(),
        cf: compile(programs::BLUR_SRC),
        head: f64_head(img.as_f64().expect("real image")),
        run: Box::new(move |cf| call(cf, &args)),
        check: Box::new(move |v| reals_close(v, &want, 1e-12)),
        native: Box::new(move || {
            std::hint::black_box(native::blur(std::hint::black_box(&img), n, n));
        }),
    });

    let data = workloads::random_bytes_tensor(scale.histogram_n, seed ^ 0x41);
    let want = native::histogram(data.as_i64().expect("integer data"));
    let arg = [Value::Tensor(data.clone())];
    out.push(Kernel {
        layer: "codegen.machine.histogram_ms",
        native_layer: "ref.native.histogram_ms",
        parallel_layer: None,
        src: programs::HISTOGRAM_SRC.into(),
        cf: compile(programs::HISTOGRAM_SRC),
        head: i64_head(data.as_i64().expect("integer data")),
        run: Box::new(move |cf| call(cf, &arg)),
        check: Box::new(move |v| {
            v.expect_tensor()
                .is_ok_and(|t| t.as_i64() == Some(want.as_slice()))
        }),
        native: Box::new(move || {
            let bins = native::histogram(std::hint::black_box(data.as_i64().expect("integers")));
            std::hint::black_box(bins);
        }),
    });

    // The paper sorts a pre-sorted list, so this input has no random part.
    let list = workloads::sorted_list(scale.qsort_n);
    let want = native::qsort(list.as_i64().expect("integer list"), native::less);
    let args = [Value::Tensor(list.clone()), Value::Bool(true)];
    out.push(Kernel {
        layer: "codegen.machine.qsort_ms",
        native_layer: "ref.native.qsort_ms",
        parallel_layer: None,
        src: programs::QSORT_SRC.into(),
        cf: compile(programs::QSORT_SRC),
        head: i64_head(list.as_i64().expect("integer list")),
        run: Box::new(move |cf| call(cf, &args)),
        check: Box::new(move |v| {
            v.expect_tensor()
                .is_ok_and(|t| t.as_i64() == Some(want.as_slice()))
        }),
        native: Box::new(move || {
            let sorted = native::qsort(
                std::hint::black_box(list.as_i64().expect("integers")),
                native::less,
            );
            std::hint::black_box(sorted);
        }),
    });
    out
}

fn tensor_kernels(compiler: &Compiler, scale: &Scale, seed: u64) -> Vec<Kernel> {
    let mut out = Vec::new();

    let n = scale.dot_n;
    let a = workloads::random_matrix(n, seed ^ 0xD0);
    let b = workloads::random_matrix(n, seed ^ 0xD1);
    let want = native::dot(&a, &b);
    let args = [Value::Tensor(a.clone()), Value::Tensor(b.clone())];
    out.push(Kernel {
        layer: "runtime.linalg.dot_ms",
        native_layer: "ref.native.dot_ms",
        parallel_layer: Some("runtime.parallel.dot_ms"),
        src: programs::DOT_SRC.into(),
        cf: programs::compile_new(compiler, programs::DOT_SRC),
        head: f64_head(a.as_f64().expect("real matrix")),
        run: Box::new(move |cf| call(cf, &args)),
        check: Box::new(move |v| reals_close(v, &want, 1e-9)),
        native: Box::new(move || {
            std::hint::black_box(native::dot(std::hint::black_box(&a), &b));
        }),
    });

    // The seed table comes from the interpreter, as in the paper; the
    // limit is the paper's and has no random part.
    let src = programs::primeq_src(&workloads::prime_seed_table());
    let limit = scale.prime_limit;
    let want = native::prime_count(limit as u64) as i64;
    out.push(Kernel {
        layer: "codegen.machine.primeq_ms",
        native_layer: "ref.native.primeq_ms",
        parallel_layer: None,
        cf: programs::compile_new(compiler, &src),
        src,
        head: limit.to_le_bytes().to_vec(),
        run: Box::new(move |cf| call(cf, &[Value::I64(limit)])),
        check: Box::new(move |v| *v == Value::I64(want)),
        native: Box::new(move || {
            std::hint::black_box(native::prime_count(std::hint::black_box(limit as u64)));
        }),
    });

    let len = scale.histogram_n;
    let vec = |salt: u64| -> Vec<f64> {
        workloads::random_matrix_hw(1, len, seed ^ salt)
            .as_f64()
            .expect("real vector")
            .to_vec()
    };
    let (xa, xb, xc) = (vec(0xA), vec(0xB), vec(0xC));
    let want = Tensor::from_f64(
        xa.iter()
            .zip(&xb)
            .zip(&xc)
            .map(|((a, b), c)| a * b + c)
            .collect(),
    );
    let args = [
        Value::Tensor(Tensor::from_f64(xa.clone())),
        Value::Tensor(Tensor::from_f64(xb.clone())),
        Value::Tensor(Tensor::from_f64(xc.clone())),
    ];
    out.push(Kernel {
        layer: "runtime.tensor.listable_ms",
        native_layer: "ref.native.listable_ms",
        parallel_layer: Some("runtime.parallel.listable_ms"),
        src: LISTABLE_SRC.into(),
        cf: programs::compile_new(compiler, LISTABLE_SRC),
        head: f64_head(&xa),
        run: Box::new(move |cf| call(cf, &args)),
        check: Box::new(move |v| reals_close(v, &want, 1e-12)),
        native: Box::new(move || {
            let out: Vec<f64> = xa
                .iter()
                .zip(&xb)
                .zip(&xc)
                .map(|((a, b), c)| a * b + c)
                .collect();
            std::hint::black_box(out);
        }),
    });
    out
}

impl<const TENSOR: bool> Kernels<TENSOR> {
    fn scale(ctx: &Ctx) -> Scale {
        if ctx.smoke {
            Scale::quick()
        } else {
            Scale::paper()
        }
    }

    /// Times one checked operation of kernel `p`.
    fn op(&self, p: usize, ctx: &mut Ctx, rec: &mut Recorder) {
        let k = &self.kernels[p];
        let op = ctx.next_op();
        let span = ctx.tracer.enter(k.layer, op);
        let t = Instant::now();
        let v = (k.run)(&k.cf);
        let dt = t.elapsed();
        ctx.tracer.exit(span);
        let ok = (k.check)(&v);
        rec.sample(p, dt.as_secs_f64() * 1e6);
        rec.timed(dt);
        rec.count(u64::from(ok), u64::from(!ok));
    }
}

impl<const TENSOR: bool> Workload for Kernels<TENSOR> {
    const NAME: &'static str = if TENSOR {
        spec::KERNELS_TENSOR
    } else {
        spec::KERNELS_SCALAR
    };

    fn setup(ctx: &mut Ctx) -> Self {
        let compiler = Compiler::default();
        let scale = Self::scale(ctx);
        let mut kernels = if TENSOR {
            tensor_kernels(&compiler, &scale, ctx.seed)
        } else {
            scalar_kernels(&compiler, &scale, ctx.seed)
        };
        if ctx.fault {
            kernels[0].check = Box::new(|_| false);
        }
        let w = Kernels { kernels };
        // Warm-up: one unrecorded pass.
        let mut scratch = Recorder::new(w.kernels.len());
        for p in 0..w.kernels.len() {
            w.op(p, ctx, &mut scratch);
        }
        w
    }

    fn programs(&self) -> usize {
        self.kernels.len()
    }

    fn fingerprint(&self) -> u64 {
        self.kernels.iter().fold(FNV_OFFSET, |h, k| {
            fnv1a_head(fnv1a(h, k.src.as_bytes()), &k.head)
        })
    }

    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder) {
        for p in 0..self.kernels.len() {
            self.op(p, ctx, rec);
        }
    }

    fn layers(&mut self, ctx: &mut Ctx, untraced: &Recorder, budget: Duration, out: &mut Layers) {
        let call_ms: Vec<f64> = (0..self.kernels.len())
            .map(|p| untraced.program_us(p) / 1e3)
            .collect();
        for (k, ms) in self.kernels.iter().zip(&call_ms) {
            out.set(k.layer, *ms);
        }

        // Ops executed by one round, counted by the machine's own profiler
        // (which slows it, so the time comes from the unprofiled rounds).
        let mut ops = 0u64;
        for k in &self.kernels {
            k.cf.profile_ops(true);
            k.cf.take_op_stats();
            let v = (k.run)(&k.cf);
            assert!((k.check)(&v) || ctx.fault, "profiled {} diverged", k.layer);
            ops += k.cf.take_op_stats().ops.values().sum::<u64>();
            k.cf.profile_ops(false);
        }
        out.set("codegen.machine.ops_executed", ops as f64);
        out.set(
            "codegen.machine.ns_per_op",
            call_ms.iter().sum::<f64>() * 1e6 / ops as f64,
        );

        // Memory traffic of one round; the counts repeat exactly.
        let before = memory::stats();
        for k in &self.kernels {
            std::hint::black_box((k.run)(&k.cf));
        }
        let after = memory::stats();
        out.set(
            "runtime.memory.acquires",
            (after.acquires - before.acquires) as f64,
        );
        out.set(
            "runtime.memory.tensor_copies",
            (after.tensor_copies - before.tensor_copies) as f64,
        );
        out.set(
            "runtime.memory.frame_misses",
            (after.frame_misses - before.frame_misses) as f64,
        );

        // The probes below share what is left of the budget evenly.
        let probes = self.kernels.len()
            + self
                .kernels
                .iter()
                .filter(|k| k.parallel_layer.is_some())
                .count()
            + usize::from(TENSOR);
        let slice = budget.div_f64(probes as f64);

        // Hand-written Rust, at least 25 repetitions where they are
        // sub-millisecond, so no ratio divides by a noisy minimum.
        let mut ratios = Vec::new();
        for (k, ms) in self.kernels.iter().zip(&call_ms) {
            let native_ms = stats::median(&time_reps(3, 51, slice, || (k.native)())) * 1e3;
            out.set(k.native_layer, native_ms);
            ratios.push(ms / native_ms);
        }
        out.set(
            if TENSOR {
                "ref.native_ratio_geomean_tensor"
            } else {
                "ref.native_ratio_geomean_scalar"
            },
            stats::geomean(&ratios),
        );

        // The same programs on the data-parallel tier, which is not the
        // default: the record a cost model or a removal needs.
        let parallel = Compiler::new(CompilerOptions {
            data_parallel: true,
            parallel: ParallelConfig {
                num_threads: PARALLEL_THREADS,
                ..ParallelConfig::default()
            },
            ..CompilerOptions::default()
        });
        for k in &self.kernels {
            let Some(name) = k.parallel_layer else {
                continue;
            };
            let cf = programs::compile_new(&parallel, &k.src);
            assert!(
                (k.check)(&(k.run)(&cf)) || ctx.fault,
                "data-parallel {name} diverged"
            );
            let secs = time_reps(3, 15, slice, || {
                std::hint::black_box((k.run)(&cf));
            });
            out.set(name, stats::median(&secs) * 1e3);
        }

        if TENSOR {
            // dgemm called directly: dot_ms minus this is wrapper cost.
            let n = Self::scale(ctx).dot_n;
            let a = workloads::random_matrix(n, ctx.seed ^ 0xD0);
            let b = workloads::random_matrix(n, ctx.seed ^ 0xD1);
            let (a, b) = (a.as_f64().expect("real"), b.as_f64().expect("real"));
            let mut c = vec![0.0; n * n];
            let secs = time_reps(3, 9, slice, || {
                linalg::dgemm(std::hint::black_box(a), b, &mut c, n, n, n);
                std::hint::black_box(&c);
            });
            out.set("runtime.linalg.dgemm_ms", stats::median(&secs) * 1e3);
        }
    }

    fn finish(self, _ctx: &mut Ctx) -> u64 {
        drop(self);
        u64::from(!memory_balanced())
    }
}
