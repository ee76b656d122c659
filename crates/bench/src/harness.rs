//! The Figure 2 runner: seven benchmarks, three implementations each
//! (native baseline, bytecode compiler, new compiler with and without
//! abort handling), normalized to the native baseline.

use crate::{native, programs, workloads};
use std::sync::Arc;
use std::time::Instant;
use wolfram_bytecode::ArgSpec;
use wolfram_compiler_core::{Ablation, Compiler, CompilerOptions};
use wolfram_runtime::Value;

/// Benchmark problem sizes. `paper()` reproduces the §6 parameters;
/// `quick()` shrinks them for tests and smoke runs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// FNV1a string length (paper: 1e6).
    pub string_len: usize,
    /// Mandelbrot grid resolution over [-1,1]x[-1,0.5] (paper: 0.1).
    pub mandelbrot_resolution: f64,
    /// Dot matrix dimension (paper: 1000).
    pub dot_n: usize,
    /// Blur image side (paper: 1000).
    pub blur_n: usize,
    /// Histogram element count (paper: 1e6).
    pub histogram_n: usize,
    /// PrimeQ upper limit (paper: 1e6).
    pub prime_limit: i64,
    /// QSort list length (paper: 2^15).
    pub qsort_n: usize,
    /// Timing repetitions (minimum taken).
    pub repetitions: usize,
}

impl Scale {
    /// The paper's §6 parameters.
    pub fn paper() -> Self {
        Scale {
            string_len: 1_000_000,
            mandelbrot_resolution: 0.1,
            dot_n: 1000,
            blur_n: 1000,
            histogram_n: 1_000_000,
            prime_limit: 1_000_000,
            qsort_n: 1 << 15,
            repetitions: 3,
        }
    }

    /// Reduced sizes for smoke runs and CI.
    pub fn quick() -> Self {
        Scale {
            string_len: 20_000,
            mandelbrot_resolution: 0.2,
            dot_n: 96,
            blur_n: 64,
            histogram_n: 20_000,
            prime_limit: 20_000,
            qsort_n: 1 << 10,
            repetitions: 2,
        }
    }
}

/// Times `f`, returning the minimum of `reps` runs in seconds (after one
/// warmup run).
pub fn bench_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times two sides of an A/B comparison, returning the minimum of `reps`
/// runs of each in seconds (after one warmup run of each). The sides
/// alternate rep by rep, so a load swing on a shared machine lands on both
/// rather than on whichever ran second.
pub fn bench_paired(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best_a = best_a.min(time(&mut a));
        best_b = best_b.min(time(&mut b));
    }
    (best_a, best_b)
}

/// One Figure 2 row.
#[derive(Debug, Clone)]
pub struct Figure2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Native (hand-written) baseline seconds.
    pub native_secs: f64,
    /// New compiler (abortable) seconds.
    pub new_secs: f64,
    /// New compiler with abort handling disabled.
    pub new_noabort_secs: f64,
    /// Bytecode compiler seconds, when representable.
    pub bytecode_secs: Option<f64>,
    /// Why the bytecode compiler could not run this benchmark (QSort).
    pub bytecode_error: Option<String>,
}

impl Figure2Row {
    /// Normalized runtime (x / native).
    pub fn normalized(&self, secs: f64) -> f64 {
        secs / self.native_secs
    }

    /// Renders the row in the paper's display convention: bytecode bars are
    /// capped at 2.5 with the actual slowdown annotated.
    pub fn render(&self) -> String {
        let fmt_norm = |x: f64| format!("{x:.2}x");
        let bytecode = match (&self.bytecode_secs, &self.bytecode_error) {
            (Some(s), _) => {
                let norm = self.normalized(*s);
                if norm > 2.5 {
                    format!("2.50x (capped; actual {})", fmt_norm(norm))
                } else {
                    fmt_norm(norm)
                }
            }
            (None, Some(err)) => format!("not representable ({err})"),
            _ => "-".into(),
        };
        format!(
            "{:<11} | C {:>7} | new {:>7} | new(noabort) {:>7} | bytecode {}",
            self.name,
            format!("{:.4}s", self.native_secs),
            fmt_norm(self.normalized(self.new_secs)),
            fmt_norm(self.normalized(self.new_noabort_secs)),
            bytecode
        )
    }
}

/// The default compiler, with each of `ablations` applied, as the
/// paper-figure timings use it: they measure steady-state execution, so
/// the per-pass analyzer is skipped to keep compile time out of the way.
pub(crate) fn timing_compiler(ablations: impl IntoIterator<Item = Ablation>) -> Compiler {
    let mut options = CompilerOptions {
        verify: wolfram_ir::VerifyLevel::Off,
        ..CompilerOptions::default()
    };
    for ablation in ablations {
        ablation.apply(&mut options);
    }
    Compiler::new(options)
}

/// Runs the full Figure 2 suite at the given scale.
///
/// # Panics
///
/// Panics if any benchmark miscompiles or produces a wrong answer (every
/// row is correctness-checked against the native baseline before timing).
#[allow(clippy::too_many_lines)]
pub fn figure2(scale: &Scale) -> Vec<Figure2Row> {
    let reps = scale.repetitions;
    let compiler = timing_compiler(None);
    let compiler_noabort = timing_compiler(Some(Ablation::AbortChecks));
    let mut rows = Vec::new();

    // ---- FNV1a ----
    {
        let input = workloads::random_string(scale.string_len, 0x5eed);
        let expected = native::fnv1a32(input.as_bytes()) as i64;
        let new_cf = programs::compile_new(&compiler, programs::FNV1A_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::FNV1A_SRC);
        let bc = programs::compile_bytecode(
            &[ArgSpec::tensor_int("bytes")],
            programs::FNV1A_BYTECODE_BODY,
        )
        .expect("fnv1a bytecode");
        let s_value = Value::Str(Arc::new(input.clone()));
        let codes = Value::Tensor(wolfram_runtime::Tensor::from_i64(
            input.bytes().map(i64::from).collect(),
        ));
        assert_eq!(
            new_cf.call(std::slice::from_ref(&s_value)).unwrap(),
            Value::I64(expected)
        );
        assert_eq!(
            bc.run(std::slice::from_ref(&codes)).unwrap(),
            Value::I64(expected)
        );
        rows.push(Figure2Row {
            name: "FNV1a",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::fnv1a32(input.as_bytes()));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf
                    .call(std::hint::black_box(std::slice::from_ref(&s_value)))
                    .unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na
                    .call(std::hint::black_box(std::slice::from_ref(&s_value)))
                    .unwrap();
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                bc.run(std::hint::black_box(std::slice::from_ref(&codes)))
                    .unwrap();
            })),
            bytecode_error: None,
        });
    }

    // ---- Mandelbrot ----
    {
        let res = scale.mandelbrot_resolution;
        let new_cf = programs::compile_new(&compiler, programs::MANDELBROT_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::MANDELBROT_SRC);
        let bc = programs::compile_bytecode(
            &[ArgSpec::complex("pixel0")],
            programs::MANDELBROT_BYTECODE_BODY,
        )
        .expect("mandelbrot bytecode");
        let expected = native::mandelbrot_region(res, 1000);
        let grid: Vec<(f64, f64)> = {
            let mut pts = Vec::new();
            let mut re = -1.0;
            while re <= 1.0 + 1e-12 {
                let mut im = -1.0;
                while im <= 0.5 + 1e-12 {
                    pts.push((re, im));
                    im += res;
                }
                re += res;
            }
            pts
        };
        let run_compiled =
            |f: &dyn Fn(f64, f64) -> i64| -> i64 { grid.iter().map(|&(re, im)| f(re, im)).sum() };
        assert_eq!(
            run_compiled(&|re, im| new_cf
                .call(&[Value::Complex(re, im)])
                .unwrap()
                .expect_i64()
                .unwrap()),
            expected
        );
        rows.push(Figure2Row {
            name: "Mandelbrot",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::mandelbrot_region(res, 1000));
            }),
            new_secs: bench_seconds(reps, || {
                std::hint::black_box(run_compiled(&|re, im| {
                    new_cf
                        .call(&[Value::Complex(re, im)])
                        .unwrap()
                        .expect_i64()
                        .unwrap()
                }));
            }),
            new_noabort_secs: bench_seconds(reps, || {
                std::hint::black_box(run_compiled(&|re, im| {
                    new_cf_na
                        .call(&[Value::Complex(re, im)])
                        .unwrap()
                        .expect_i64()
                        .unwrap()
                }));
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                std::hint::black_box(run_compiled(&|re, im| {
                    bc.run(&[Value::Complex(re, im)])
                        .unwrap()
                        .expect_i64()
                        .unwrap()
                }));
            })),
            bytecode_error: None,
        });
    }

    // ---- Dot ----
    {
        let n = scale.dot_n;
        let a = workloads::random_matrix(n, 1);
        let b = workloads::random_matrix(n, 2);
        let new_cf = programs::compile_new(&compiler, programs::DOT_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::DOT_SRC);
        let bc = programs::compile_bytecode(
            &[ArgSpec::tensor_real("a"), ArgSpec::tensor_real("b")],
            "Dot[a, b]",
        )
        .expect("dot bytecode");
        let (av, bv) = (Value::Tensor(a.clone()), Value::Tensor(b.clone()));
        rows.push(Figure2Row {
            name: "Dot",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::dot(&a, &b));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf
                    .call(std::hint::black_box(&[av.clone(), bv.clone()]))
                    .unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na
                    .call(std::hint::black_box(&[av.clone(), bv.clone()]))
                    .unwrap();
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                bc.run(std::hint::black_box(&[av.clone(), bv.clone()]))
                    .unwrap();
            })),
            bytecode_error: None,
        });
    }

    // ---- Blur ----
    {
        let n = scale.blur_n;
        let img = workloads::random_matrix_hw(n, n, 3);
        let new_cf = programs::compile_new(&compiler, programs::BLUR_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::BLUR_SRC);
        let bc = programs::compile_bytecode(
            &[
                ArgSpec::tensor_real("img"),
                ArgSpec::int("h"),
                ArgSpec::int("w"),
            ],
            programs::BLUR_BYTECODE_BODY,
        )
        .expect("blur bytecode");
        let args = vec![
            Value::Tensor(img.clone()),
            Value::I64(n as i64),
            Value::I64(n as i64),
        ];
        rows.push(Figure2Row {
            name: "Blur",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::blur(&img, n, n));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf.call(std::hint::black_box(&args)).unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na.call(std::hint::black_box(&args)).unwrap();
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                bc.run(std::hint::black_box(&args)).unwrap();
            })),
            bytecode_error: None,
        });
    }

    // ---- Histogram ----
    {
        let data = workloads::random_bytes_tensor(scale.histogram_n, 4);
        let expected = native::histogram(data.as_i64().unwrap());
        let new_cf = programs::compile_new(&compiler, programs::HISTOGRAM_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::HISTOGRAM_SRC);
        let bc = programs::compile_bytecode(
            &[ArgSpec::tensor_int("data")],
            programs::HISTOGRAM_BYTECODE_BODY,
        )
        .expect("histogram bytecode");
        let dv = Value::Tensor(data.clone());
        assert_eq!(
            new_cf
                .call(std::slice::from_ref(&dv))
                .unwrap()
                .expect_tensor()
                .unwrap()
                .as_i64()
                .unwrap(),
            expected.as_slice()
        );
        rows.push(Figure2Row {
            name: "Histogram",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::histogram(data.as_i64().unwrap()));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf
                    .call(std::hint::black_box(std::slice::from_ref(&dv)))
                    .unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na
                    .call(std::hint::black_box(std::slice::from_ref(&dv)))
                    .unwrap();
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                bc.run(std::hint::black_box(std::slice::from_ref(&dv)))
                    .unwrap();
            })),
            bytecode_error: None,
        });
    }

    // ---- PrimeQ ----
    {
        let table = workloads::prime_seed_table();
        let src = programs::primeq_src(&table);
        let limit = scale.prime_limit;
        let expected = native::prime_count(limit as u64) as i64;
        let new_cf = programs::compile_new(&compiler, &src);
        let new_cf_na = programs::compile_new(&compiler_noabort, &src);
        let bc = programs::compile_bytecode(
            &[ArgSpec::int("limit")],
            &programs::primeq_bytecode_body(&table),
        )
        .expect("primeq bytecode");
        assert_eq!(
            new_cf.call(&[Value::I64(limit)]).unwrap(),
            Value::I64(expected)
        );
        rows.push(Figure2Row {
            name: "PrimeQ",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::prime_count(limit as u64));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf
                    .call(std::hint::black_box(&[Value::I64(limit)]))
                    .unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na
                    .call(std::hint::black_box(&[Value::I64(limit)]))
                    .unwrap();
            }),
            bytecode_secs: Some(bench_seconds(reps, || {
                bc.run(std::hint::black_box(&[Value::I64(limit)])).unwrap();
            })),
            bytecode_error: None,
        });
    }

    // ---- QSort ----
    {
        let input = workloads::sorted_list(scale.qsort_n);
        let new_cf = programs::compile_new(&compiler, programs::QSORT_SRC);
        let new_cf_na = programs::compile_new(&compiler_noabort, programs::QSORT_SRC);
        let bytecode_error = programs::compile_bytecode(
            &[ArgSpec::tensor_int("list")],
            programs::QSORT_BYTECODE_BODY,
        )
        .expect_err("QSort must not be representable in bytecode (L1)");
        let iv = Value::Tensor(input.clone());
        let sorted = new_cf
            .call(&[iv.clone(), Value::Bool(true)])
            .unwrap()
            .expect_tensor()
            .unwrap()
            .clone();
        assert_eq!(
            sorted.as_i64().unwrap(),
            native::qsort(input.as_i64().unwrap(), native::less)
        );
        rows.push(Figure2Row {
            name: "QSort",
            native_secs: bench_seconds(reps, || {
                std::hint::black_box(native::qsort(input.as_i64().unwrap(), native::less));
            }),
            new_secs: bench_seconds(reps, || {
                new_cf
                    .call(std::hint::black_box(&[iv.clone(), Value::Bool(true)]))
                    .unwrap();
            }),
            new_noabort_secs: bench_seconds(reps, || {
                new_cf_na
                    .call(std::hint::black_box(&[iv.clone(), Value::Bool(true)]))
                    .unwrap();
            }),
            bytecode_secs: None,
            bytecode_error: Some(bytecode_error.to_string()),
        });
    }

    rows
}

/// Renders the Figure 2 table.
pub fn render_figure2(rows: &[Figure2Row]) -> String {
    let mut out =
        String::from("Figure 2: normalized runtime (lower is better), bytecode capped at 2.5x\n");
    for r in rows {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_runs_at_tiny_scale() {
        // A miniature end-to-end run: verifies every benchmark compiles,
        // agrees with the native implementation, and produces timings.
        let scale = Scale {
            string_len: 2000,
            mandelbrot_resolution: 0.5,
            dot_n: 24,
            blur_n: 24,
            histogram_n: 2000,
            prime_limit: 2000,
            qsort_n: 256,
            repetitions: 1,
        };
        let rows = figure2(&scale);
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.native_secs > 0.0, "{}", r.name);
            assert!(r.new_secs > 0.0, "{}", r.name);
        }
        // QSort is the one benchmark the bytecode compiler cannot express.
        let qsort = rows.iter().find(|r| r.name == "QSort").unwrap();
        assert!(qsort.bytecode_secs.is_none());
        assert!(qsort.bytecode_error.is_some());
        let rendered = render_figure2(&rows);
        assert!(rendered.contains("QSort"), "{rendered}");
        assert!(rendered.contains("not representable"), "{rendered}");
    }

    #[test]
    fn row_rendering_caps_bytecode() {
        let row = Figure2Row {
            name: "X",
            native_secs: 1.0,
            new_secs: 1.1,
            new_noabort_secs: 1.05,
            bytecode_secs: Some(7.4),
            bytecode_error: None,
        };
        let text = row.render();
        assert!(text.contains("2.50x (capped; actual 7.40x)"), "{text}");
    }
}
