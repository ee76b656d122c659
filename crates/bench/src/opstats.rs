//! Dynamic op-frequency profiles for the seven §6 benchmarks.
//!
//! Superinstruction selection is driven by data, not guesses: this module
//! compiles each benchmark, runs it once with the machine's opt-in
//! profiler enabled, and reports the hottest mnemonics and consecutive
//! dyads, plus the frame-pool hits and misses `wolfram_runtime::memory`
//! counted over that run, and the loop planner's verdict on each of its
//! loops. `reproduce -- opstats` prints the result.

use crate::harness::Scale;
use crate::{programs, workloads};
use std::sync::Arc;
use wolfram_codegen::vectorize::{plan_loops, StoreAt};
use wolfram_codegen::OpStats;
use wolfram_compiler_core::{Ablation, CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_runtime::{memory, Value};

/// One benchmark's dynamic profile.
#[derive(Debug)]
pub struct BenchProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Counters collected over one profiled run.
    pub stats: OpStats,
    /// Frame-pool (hits, misses) over the same run.
    pub frames: (u64, u64),
    /// One line per loop: its pcs and the planner's verdict.
    pub loops: Vec<String>,
}

/// The planner's verdict on every loop of `cf`, compiled with no loop
/// planted: the header and latch pcs of that code and `planned` (with the
/// plan's shape) or `refused` with the reason.
fn loop_verdicts(cf: &CompiledCodeFunction) -> Vec<String> {
    let mut out = Vec::new();
    for f in &cf.program.funcs {
        for v in plan_loops(&f.code) {
            let verdict = match &v.plan {
                Ok(plan) => match plan.out.at {
                    StoreAt::Affine { .. } => "planned (f64 map)".to_owned(),
                    StoreAt::AddAt { .. } => "planned (i64 scatter-add)".to_owned(),
                },
                Err(why) => format!("refused: {why:?}"),
            };
            let (l, latch, name) = (v.header, v.latch, &f.name);
            out.push(format!("loop L{l:04}-L{latch:04} in {name}: {verdict}"));
        }
    }
    out
}

/// Compiles and profiles all seven benchmarks at the given scale.
///
/// # Panics
///
/// Panics if any benchmark fails to compile or run — the suite requires
/// all seven.
pub fn collect(scale: &Scale) -> Vec<BenchProfile> {
    let compiler = Compiler::default();
    let mut unplanted = CompilerOptions::default();
    Ablation::Vectorize.apply(&mut unplanted);
    let unplanted = Compiler::new(unplanted);
    let mut out = Vec::new();
    let mut profile = |name: &'static str, src: &str, args: Vec<Value>| {
        let loops = loop_verdicts(&programs::compile_new(&unplanted, src));
        let cf = programs::compile_new(&compiler, src);
        cf.profile_ops(true);
        let before = memory::stats();
        cf.call(&args)
            .unwrap_or_else(|e| panic!("{name} failed under profiling: {e}"));
        let after = memory::stats();
        let stats = cf.take_op_stats();
        cf.profile_ops(false);
        out.push(BenchProfile {
            name,
            stats,
            frames: (
                after.frame_hits - before.frame_hits,
                after.frame_misses - before.frame_misses,
            ),
            loops,
        });
    };

    profile(
        "FNV1a",
        programs::FNV1A_SRC,
        vec![Value::Str(Arc::new(workloads::random_string(
            scale.string_len,
            0x5eed,
        )))],
    );
    // One representative interior pixel iterates long enough to show the
    // loop body's mix.
    profile(
        "Mandelbrot",
        programs::MANDELBROT_SRC,
        vec![Value::Complex(-0.5, 0.3)],
    );
    profile("Dot", programs::DOT_SRC, {
        let n = scale.dot_n.min(64);
        vec![
            Value::Tensor(workloads::random_matrix(n, 1)),
            Value::Tensor(workloads::random_matrix(n, 2)),
        ]
    });
    profile("Blur", programs::BLUR_SRC, {
        let n = scale.blur_n;
        vec![
            Value::Tensor(workloads::random_matrix_hw(n, n, 3)),
            Value::I64(n as i64),
            Value::I64(n as i64),
        ]
    });
    profile(
        "Histogram",
        programs::HISTOGRAM_SRC,
        vec![Value::Tensor(workloads::random_bytes_tensor(
            scale.histogram_n,
            4,
        ))],
    );
    let table = workloads::prime_seed_table();
    profile(
        "PrimeQ",
        &programs::primeq_src(&table),
        vec![Value::I64(scale.prime_limit)],
    );
    profile(
        "QSort",
        programs::QSORT_SRC,
        vec![
            Value::Tensor(workloads::sorted_list(scale.qsort_n)),
            Value::Bool(true),
        ],
    );
    out
}

/// Renders each benchmark's hottest ops and dyads.
pub fn render(profiles: &[BenchProfile], top: usize) -> String {
    let mut out = String::new();
    for p in profiles {
        out.push_str(&format!(
            "{} — {} ops executed, frame pool {} hits / {} misses\n",
            p.name,
            p.stats.total(),
            p.frames.0,
            p.frames.1
        ));
        for line in &p.loops {
            out.push_str(&format!("  {line}\n"));
        }
        let total = p.stats.total().max(1) as f64;
        out.push_str("  hottest ops:\n");
        for (m, n) in p.stats.hottest_ops().into_iter().take(top) {
            out.push_str(&format!(
                "    {m:<14} {n:>12}  ({:.1}%)\n",
                100.0 * n as f64 / total
            ));
        }
        out.push_str("  hottest dyads:\n");
        for ((a, b), n) in p.stats.hottest_pairs().into_iter().take(top) {
            out.push_str(&format!(
                "    {:<28} {n:>12}  ({:.1}%)\n",
                format!("{a} -> {b}"),
                100.0 * n as f64 / total
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_cover_all_benchmarks() {
        let profiles = collect(&Scale::quick());
        assert_eq!(profiles.len(), 7);
        for p in &profiles {
            assert!(p.stats.total() > 0, "{} profiled nothing", p.name);
            assert!(!p.stats.pairs.is_empty(), "{} has no dyads", p.name);
        }
        let rendered = render(&profiles, 5);
        assert!(rendered.contains("FNV1a"), "{rendered}");
        assert!(rendered.contains("hottest dyads"), "{rendered}");
        // The planner's verdicts: Blur's row and Histogram's scatter-add
        // planned, FNV1a's hash refused for the value it carries.
        let verdicts = |name: &str| &profiles.iter().find(|p| p.name == name).unwrap().loops;
        assert!(verdicts("Blur")
            .iter()
            .any(|l| l.contains("planned (f64 map)")));
        assert!(verdicts("Histogram")
            .iter()
            .any(|l| l.contains("planned (i64 scatter-add)")));
        let fnv1a = verdicts("FNV1a");
        assert_eq!(fnv1a.len(), 1, "{fnv1a:?}");
        assert!(fnv1a[0].contains("refused: LoopCarried(I, "), "{fnv1a:?}");
    }
}
