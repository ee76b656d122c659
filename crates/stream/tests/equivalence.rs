//! Streaming is an optimization, never a semantic: every tier, batch size
//! and worker count delivers, record for record and bit for bit, what a
//! one-shot loop of the same tier computes — errors included — and the
//! refcount accounting of the whole process balances afterwards.
//!
//! One test in its own binary, so the process-wide memory counters it
//! judges at the end are its own.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use wolfram_bytecode::BytecodeCompiler;
use wolfram_compiler_core::Compiler;
use wolfram_expr::{parse, Expr};
use wolfram_interp::Interpreter;
use wolfram_runtime::{memory, RuntimeError, Tensor, Value};
use wolfram_stream::{run_stream, Record, StreamConfig, StreamFunction, StreamMetrics};

const ADDMUL: &str = r#"Function[{Typed[n, "MachineInteger"]}, 3*n + 7]"#;
const POLY: &str = r#"Function[{Typed[x, "Real64"]}, x*(x*(x - 2.5) + 1.25) + 0.5]"#;
const NORM8: &str = r#"Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s, i, n},
  s = 0.0; n = Length[v]; i = 1;
  While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
  s]]"#;

type Outcome = Result<Value, RuntimeError>;

fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Ok(Value::F64(x)), Ok(Value::F64(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn every_tier_streams_what_its_one_shot_loop_computes() {
    const N: usize = 300;
    let workloads: [(&str, Vec<Record>); 3] = [
        (
            ADDMUL,
            (0..N)
                // Record 150 overflows `3*n + 7` in the compiled tiers.
                .map(|i| vec![Value::I64(if i == 150 { i64::MAX } else { i as i64 - 100 })])
                .collect(),
        ),
        (
            POLY,
            (0..N)
                .map(|i| vec![Value::F64(i as f64 * 0.003 - 3.0)])
                .collect(),
        ),
        (
            NORM8,
            (0..N)
                .map(|i| {
                    let xs = (0..8).map(|k| ((i * 8 + k) % 97) as f64 * 0.125).collect();
                    vec![Value::Tensor(Tensor::from_f64(xs))]
                })
                .collect(),
        ),
    ];
    memory::reset_stats();
    memory::reset_global_stats();

    for (src, records) in &workloads {
        let f = parse(src).unwrap();
        let artifact = Compiler::default().function_compile(&f).unwrap().artifact();
        let bytecode = Arc::new(BytecodeCompiler::new().compile_function(&f).unwrap());

        let native = artifact.instantiate();
        let mut engine = Interpreter::new();
        let interpret = |r: &Record| {
            let args: Vec<Expr> = r.iter().map(Value::to_expr).collect();
            let out = engine.eval(&Expr::normal(f.clone(), args));
            out.map(|e| Value::from_expr(&e))
        };
        let tiers: [(&str, StreamFunction, Vec<Outcome>); 3] = [
            (
                "native",
                StreamFunction::Native(artifact.clone()),
                records.iter().map(|r| native.call(r)).collect(),
            ),
            (
                "bytecode",
                StreamFunction::Bytecode(Arc::clone(&bytecode)),
                records.iter().map(|r| bytecode.run(r)).collect(),
            ),
            (
                "interp",
                StreamFunction::Interpreter(f.clone()),
                records.iter().map(interpret).collect(),
            ),
        ];
        if *src == ADDMUL {
            assert_eq!(tiers[0].2[150], Err(RuntimeError::IntegerOverflow));
            assert_eq!(tiers[0].2[151], Ok(Value::I64(3 * 51 + 7)));
        }

        for (tier, func, expected) in &tiers {
            for (batch, workers) in [(1, 1), (7, 1), (64, 3)] {
                let cfg = StreamConfig {
                    batch_size: batch,
                    workers,
                    queue_batches: 2,
                };
                let mut got: Vec<Outcome> = Vec::with_capacity(N);
                let summary = run_stream(
                    func,
                    &cfg,
                    records.iter().map(|r| Ok(r.clone())),
                    &StreamMetrics::new(),
                    &AtomicBool::new(false),
                    |r| got.push(r),
                );
                assert_eq!(summary.records, N as u64, "{tier} b={batch} w={workers}");
                for (i, (g, e)) in got.iter().zip(expected).enumerate() {
                    assert!(
                        same(g, e),
                        "{tier} b={batch} w={workers} record {i}: {g:?} != {e:?}"
                    );
                }
            }
        }
    }

    // Workers flushed as they exited; fold in this thread's one-shot loops.
    memory::flush_thread_stats();
    let st = memory::global_stats();
    assert!(st.balanced(), "{st:?}");
    assert!(st.acquires > 0, "Norm8 brackets its tensor: {st:?}");
    // Each worker allocates its entry frame once and is handed it back for
    // every later record.
    assert!(st.frame_hits > 10 * st.frame_misses, "{st:?}");
}
