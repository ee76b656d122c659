//! The data-parallel tier's contract: the default and every threaded
//! configuration compute bit-for-bit what the fused-scalar baseline
//! (`Ablation::Vectorize`: every loop scalar) computes (elementwise
//! chunking, matrix row blocks and the vectorized loops keep evaluation
//! order, and a Dot with a vector operand runs the default's sequential
//! fold), and no thread leaks an acquire. What the tier is worth is `benchmark/`'s business
//! (`runtime.parallel.*` beside `codegen.machine.blur_ms`,
//! `runtime.linalg.dot_ms`, `runtime.tensor.listable_ms`).
//!
//! One test in its own file, so the process-wide memory counters see this
//! run and nothing else.

use wolfram_bench::{programs, workloads};
use wolfram_compiler_core::{Ablation, Compiler, CompilerOptions};
use wolfram_runtime::{memory, ParallelConfig, Tensor, Value};

const LISTABLE_SRC: &str = r#"
Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]]},
    (a + b) * a]
"#;

const DOT_MAT_VEC_SRC: &str = r#"
Function[{Typed[a, "Tensor"["Real64", 2]], Typed[x, "Tensor"["Real64", 1]]}, Dot[a, x]]
"#;

const DOT_VEC_VEC_SRC: &str = r#"
Function[{Typed[x, "Tensor"["Real64", 1]], Typed[y, "Tensor"["Real64", 1]]}, Dot[x, y]]
"#;

/// The default compiler with its whole-tensor builtins on `threads`
/// threads, or with none and no loop vectorized: the scalar baseline.
fn compiler(threads: Option<usize>) -> Compiler {
    let mut options = CompilerOptions::default();
    match threads {
        Some(num_threads) => {
            options.data_parallel = true;
            options.parallel = ParallelConfig {
                num_threads,
                min_elems_per_chunk: 8,
            };
        }
        None => Ablation::Vectorize.apply(&mut options),
    }
    Compiler::new(options)
}

fn real_vector(n: usize, seed: u64) -> Value {
    let row = workloads::random_matrix_hw(1, n, seed);
    Value::Tensor(Tensor::from_f64(
        row.as_f64().expect("real matrix").to_vec(),
    ))
}

/// Shape and bit pattern of a real tensor, or of a real scalar as a
/// rank-0 shape: a single flipped bit is a routing bug, so there is no
/// tolerance.
fn bits(v: &Value) -> (Vec<usize>, Vec<u64>) {
    let t = match v {
        Value::Tensor(t) => t,
        Value::F64(x) => return (vec![], vec![x.to_bits()]),
        _ => panic!("expected a real tensor or scalar, got {v:?}"),
    };
    let cells = t.as_f64().expect("real tensor");
    (
        t.shape().to_vec(),
        cells.iter().map(|x| x.to_bits()).collect(),
    )
}

#[test]
fn every_parallel_configuration_is_bit_identical_and_balanced() {
    // Tensors small enough to run in milliseconds; the chunk floor is
    // lowered with them (8 elements) so the threaded paths still engage.
    let (blur_n, dot_n, list_n) = (24usize, 24usize, 4000usize);
    // The vector Dots at 100 elements: at 24 a lane-split fold happens to
    // agree with the sequential one.
    let vec_n = 100usize;
    let kernels: [(&str, &str, Vec<Value>); 5] = [
        (
            "Blur",
            programs::BLUR_SRC,
            vec![
                Value::Tensor(workloads::random_matrix_hw(blur_n, blur_n, 3)),
                Value::I64(blur_n as i64),
                Value::I64(blur_n as i64),
            ],
        ),
        (
            "Dot",
            programs::DOT_SRC,
            vec![
                Value::Tensor(workloads::random_matrix(dot_n, 1)),
                Value::Tensor(workloads::random_matrix(dot_n, 2)),
            ],
        ),
        (
            "Dot[matrix, vector]",
            DOT_MAT_VEC_SRC,
            vec![
                Value::Tensor(workloads::random_matrix(vec_n, 7)),
                real_vector(vec_n, 8),
            ],
        ),
        (
            "Dot[vector, vector]",
            DOT_VEC_VEC_SRC,
            vec![real_vector(vec_n, 9), real_vector(vec_n, 10)],
        ),
        (
            "Listable",
            LISTABLE_SRC,
            vec![real_vector(list_n, 5), real_vector(list_n, 6)],
        ),
    ];

    memory::reset_stats();
    memory::reset_global_stats();
    for (name, src, args) in &kernels {
        let expected = programs::compile_new(&compiler(None), src)
            .call(args)
            .expect("fused-scalar baseline runs");
        let (want_shape, want_cells) = bits(&expected);
        let configurations = std::iter::once(("the default".to_owned(), Compiler::default()))
            .chain([1, 2, 4, 8].map(|n| (format!("{n} thread(s)"), compiler(Some(n)))));
        for (config, compiler) in configurations {
            let got = programs::compile_new(&compiler, src)
                .call(args)
                .expect("configuration runs");
            let (shape, cells) = bits(&got);
            assert_eq!(shape, want_shape, "{name} under {config}");
            assert_eq!(
                cells.iter().zip(&want_cells).position(|(a, b)| a != b),
                None,
                "{name} under {config}: first cell differing from the scalar baseline"
            );
        }
    }
    memory::flush_thread_stats();
    let stats = memory::global_stats();
    assert!(stats.acquires > 0, "nothing was counted: {stats:?}");
    assert!(stats.balanced(), "leaked acquires: {stats:?}");
}
