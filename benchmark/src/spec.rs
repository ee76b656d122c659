//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! and per-layer metrics with the end-to-end metric each should move.
//! `/BENCHMARK.json` is `wolfram-benchmark spec` printed from these tables,
//! and `tests/contract.rs` holds the two together.

use crate::json;

/// One workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const COMPILE_COLD: &str = "compile_cold";
pub const KERNELS_SCALAR: &str = "kernels_scalar";
pub const KERNELS_TENSOR: &str = "kernels_tensor";
pub const CALL_TINY: &str = "call_tiny";
pub const STREAM_TINY: &str = "stream_tiny";
pub const STREAM_HEAVY: &str = "stream_heavy";
pub const SERVE_WARM: &str = "serve_warm";
pub const SERVE_MIXED: &str = "serve_mixed";

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: COMPILE_COLD,
        why: "32 programs compiled from source with default options: the compile pipeline does all the work and execution none, so compile-side cost and the price of more optimisation show here",
    },
    WorkloadSpec {
        name: KERNELS_SCALAR,
        why: "FNV1a, Mandelbrot, Blur, Histogram, QSort at the paper's scale: the register machine's dispatch loop does nearly all the work (15-170x native); dispatch and op-table changes are judged here",
    },
    WorkloadSpec {
        name: KERNELS_TENSOR,
        why: "Dot n=1000, PrimeQ 10^6, a*b+c over 10^6 reals: runtime kernels do the work and dispatch little (1-3x native), so a dispatch optimisation predicts no change here",
    },
    WorkloadSpec {
        name: CALL_TINY,
        why: "millions of one-shot calls of ~10-op functions: entry marshalling, frame pool and result boxing dominate while dispatch idles; what Map[cf, list] pays, and the honest baseline for streaming",
    },
    WorkloadSpec {
        name: STREAM_TINY,
        why: "text records of ~10-op functions through run_lines at batch 256, 1 worker: parser, two queue hops, reorder and stamping are the cost, to be judged against the bare loop",
    },
    WorkloadSpec {
        name: STREAM_HEAVY,
        why: "records costing ~10 us each through run_lines with 2 workers: execution dominates, so a pipeline change predicts no change and a fast path for 1 worker that costs the parallel path shows",
    },
    WorkloadSpec {
        name: SERVE_WARM,
        why: "closed loop of 2 connections on 1 worker over loopback, 64 cached programs, Zipf 1.1: frame, parse, hash, queue, cache hit, execute, reply with no compile; the reads side of the cache",
    },
    WorkloadSpec {
        name: SERVE_MIXED,
        why: "same loop with 10% never-seen programs and a cache smaller than the catalog: miss, single-flight, compile, publish, evict, with hits queued behind compiles; the writes side of the cache",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative: better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// A metric a user of the system sees, reported on every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const OP_P50_US: &str = "op_p50_us";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every bound is the contract's maximum. On the 2-vCPU VM the benchmark
/// was defined on, the same binary on the same inputs drifts by 10-20%
/// over minutes (a fixed native loop does too), so single runs of a time
/// metric spread by 2-20% of their median and two sets of ten runs differ
/// by up to 18%; a tighter bound would reject the benchmark itself.
/// README.md has the measurements.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: OP_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer. `on` lists the workloads whose traced run
/// measures it (elsewhere it reads 0); `moves` names the end-to-end metric
/// it should move, and where.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub on: &'static [&'static str],
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

const CC: &[&str] = &[COMPILE_COLD];
const KS: &[&str] = &[KERNELS_SCALAR];
const KT: &[&str] = &[KERNELS_TENSOR];
const K: &[&str] = &[KERNELS_SCALAR, KERNELS_TENSOR];
const CT: &[&str] = &[CALL_TINY];
const ST: &[&str] = &[STREAM_TINY];
const SH: &[&str] = &[STREAM_HEAVY];
const S: &[&str] = &[STREAM_TINY, STREAM_HEAVY];
const SV: &[&str] = &[SERVE_WARM, SERVE_MIXED];
const SM: &[&str] = &[SERVE_MIXED];
const ALL: &[&str] = &[
    COMPILE_COLD,
    KERNELS_SCALAR,
    KERNELS_TENSOR,
    CALL_TINY,
    STREAM_TINY,
    STREAM_HEAVY,
    SERVE_WARM,
    SERVE_MIXED,
];

use Better::{Higher, Lower};

const M_CC: &str = "op_p50_us, ops_per_s on compile_cold";
const M_CC_SM: &str =
    "op_p50_us on compile_cold; serve.op_p99_us on serve_mixed (a miss is a compile)";
const M_KS: &str = "op_p50_us on kernels_scalar, not on kernels_tensor";
const M_KT: &str = "op_p50_us on kernels_tensor, not on kernels_scalar";
const M_K: &str = "op_p50_us on the kernels workload it is read on";
const M_REF: &str = "nothing: hand-written Rust, the base of the native ratios";
const M_CT: &str = "op_p50_us on call_tiny";
const M_ST: &str = "ops_per_s on stream_tiny";
const M_SH: &str = "ops_per_s on stream_heavy";
const M_S: &str = "ops_per_s on the stream workload it is read on";
const M_SV: &str = "op_p50_us, ops_per_s on serve_warm";
const M_SM: &str = "serve.op_p99_us and op_p50_us on serve_mixed";
const M_DISK: &str = "nothing end to end today (the disk level is off in both serve workloads)";

pub const PER_LAYER: &[Layer] = &[
    // compile_cold: per-round sums over the programs, median over rounds.
    layer("expr.parse_us", "us", Lower, CC, M_CC_SM),
    layer("core.macros_us", "us", Lower, CC, M_CC_SM),
    layer("core.binding_us", "us", Lower, CC, M_CC),
    layer("core.lower_us", "us", Lower, CC, M_CC),
    layer("core.infer_us", "us", Lower, CC, M_CC_SM),
    layer("core.resolve_us", "us", Lower, CC, M_CC),
    layer("ir.passes_us", "us", Lower, CC, M_CC_SM),
    layer("analyze.verify_us", "us", Lower, CC, M_CC_SM),
    layer("analyze.intervals_us", "us", Lower, CC, M_CC_SM),
    layer("codegen.lower_us", "us", Lower, CC, M_CC),
    layer("codegen.fuse_us", "us", Lower, CC, M_CC),
    layer("core.instantiate_us", "us", Lower, CC, M_CC),
    layer(
        "compile.unattributed_share",
        "ratio",
        Lower,
        CC,
        "nothing: the ledger's remainder, to stay under 0.05",
    ),
    layer(
        "core.compiler_new_us",
        "us",
        Lower,
        CC,
        "setup_s on every workload",
    ),
    layer(
        "bytecode.compile_us",
        "us",
        Lower,
        CC,
        "serve_* only under TierPolicy::BytecodeOnly",
    ),
    layer("bytecode.image_roundtrip_us", "us", Lower, CC, M_DISK),
    // Exact counts, equal across two compilations.
    layer(
        "ir.instrs_wir",
        "count",
        Lower,
        CC,
        "every later compile stage on compile_cold",
    ),
    layer(
        "ir.instrs_twir",
        "count",
        Lower,
        CC,
        "every later compile stage; codegen.machine.ops_executed",
    ),
    layer(
        "codegen.regops",
        "count",
        Lower,
        CC,
        "codegen.machine.ops_executed on kernels_*",
    ),
    layer(
        "codegen.fused_ops",
        "count",
        Higher,
        CC,
        "codegen.machine.ops_executed on kernels_scalar",
    ),
    layer("analyze.bounds_elided_share", "ratio", Higher, CC, M_KS),
    layer("analyze.ovf_elided_share", "ratio", Higher, CC, M_KS),
    layer("analyze.rc_elided", "count", Higher, CC, M_K),
    // kernels_*: per-program median call time, each program in its own row.
    layer("codegen.machine.fnv1a_ms", "ms", Lower, KS, M_KS),
    layer("codegen.machine.mandelbrot_ms", "ms", Lower, KS, M_KS),
    layer("codegen.machine.blur_ms", "ms", Lower, KS, M_KS),
    layer("codegen.machine.histogram_ms", "ms", Lower, KS, M_KS),
    layer("codegen.machine.qsort_ms", "ms", Lower, KS, M_KS),
    layer("codegen.machine.primeq_ms", "ms", Lower, KT, M_KT),
    layer("runtime.linalg.dot_ms", "ms", Lower, KT, M_KT),
    layer("runtime.tensor.listable_ms", "ms", Lower, KT, M_KT),
    layer("codegen.machine.ops_executed", "count", Lower, K, M_K),
    layer("codegen.machine.ns_per_op", "ns", Lower, K, M_K),
    layer("runtime.linalg.dgemm_ms", "ms", Lower, KT, M_KT),
    layer("runtime.memory.acquires", "count", Lower, K, M_K),
    layer("runtime.memory.tensor_copies", "count", Lower, K, M_K),
    layer("runtime.memory.frame_misses", "count", Lower, K, M_K),
    layer(
        "runtime.parallel.blur_ms",
        "ms",
        Lower,
        KS,
        "nothing: data_parallel is not the default",
    ),
    layer(
        "runtime.parallel.dot_ms",
        "ms",
        Lower,
        KT,
        "nothing: data_parallel is not the default",
    ),
    layer(
        "runtime.parallel.listable_ms",
        "ms",
        Lower,
        KT,
        "nothing: data_parallel is not the default",
    ),
    layer("ref.native.fnv1a_ms", "ms", Lower, KS, M_REF),
    layer("ref.native.mandelbrot_ms", "ms", Lower, KS, M_REF),
    layer("ref.native.blur_ms", "ms", Lower, KS, M_REF),
    layer("ref.native.histogram_ms", "ms", Lower, KS, M_REF),
    layer("ref.native.qsort_ms", "ms", Lower, KS, M_REF),
    layer("ref.native.dot_ms", "ms", Lower, KT, M_REF),
    layer("ref.native.primeq_ms", "ms", Lower, KT, M_REF),
    layer("ref.native.listable_ms", "ms", Lower, KT, M_REF),
    layer("ref.native_ratio_geomean_scalar", "ratio", Lower, KS, M_KS),
    layer("ref.native_ratio_geomean_tensor", "ratio", Lower, KT, M_KT),
    // call_tiny
    layer("core.call.addmul_ns", "ns", Lower, CT, M_CT),
    layer("core.call.poly_ns", "ns", Lower, CT, M_CT),
    layer("core.call.norm8_ns", "ns", Lower, CT, M_CT),
    layer(
        "core.call.op_p99_us",
        "us",
        Lower,
        CT,
        "the tail of call_tiny's own latency",
    ),
    layer(
        "core.stream_caller.addmul_ns",
        "ns",
        Lower,
        CT,
        "ops_per_s on stream_tiny (a lower bound per record)",
    ),
    layer(
        "core.stream_caller.norm8_ns",
        "ns",
        Lower,
        CT,
        "ops_per_s on stream_tiny (a lower bound per record)",
    ),
    layer(
        "bytecode.run.addmul_ns",
        "ns",
        Lower,
        CT,
        "stream.bytecode_ns on stream_tiny",
    ),
    layer(
        "interp.hosted_call_ns",
        "ns",
        Lower,
        CT,
        "nothing here: what Map[cf, list] pays per element",
    ),
    layer("runtime.memory.frame_hit_share", "ratio", Higher, CT, M_CT),
    // stream_*
    layer("stream.record.parse_ns", "ns", Lower, ST, M_ST),
    layer("stream.record.render_ns", "ns", Lower, ST, M_ST),
    layer("stream.exec.preparsed_ns", "ns", Lower, S, M_S),
    layer(
        "stream.bare_loop_ns",
        "ns",
        Lower,
        ST,
        "nothing: parse, StreamCaller::call, render in a plain loop, the baseline",
    ),
    layer("stream.vs_bare_loop", "ratio", Higher, ST, M_ST),
    layer("stream.pipeline_overhead_ns", "ns", Lower, ST, M_ST),
    layer("stream.batch_fill", "ratio", Higher, S, M_S),
    layer("stream.queue_depth_max", "count", Lower, S, M_S),
    layer("stream.w2_scaling", "ratio", Higher, SH, M_SH),
    layer(
        "stream.bytecode_ns",
        "ns",
        Lower,
        ST,
        "nothing: the bytecode tier is not the default",
    ),
    layer("stream.heavy_execute_share", "ratio", Higher, SH, M_SH),
    // serve_*
    layer(
        "serve.op_p99_us",
        "us",
        Lower,
        SV,
        "the tail a caller sees; on serve_mixed it is a compile",
    ),
    layer("serve.net.overhead_us", "us", Lower, SV, M_SV),
    layer("serve.net.frame_ns", "ns", Lower, SV, M_SV),
    layer("serve.net.parse_request_ns", "ns", Lower, SV, M_SV),
    layer("serve.key.hash_ns", "ns", Lower, SV, M_SV),
    layer("serve.pool.overhead_us", "us", Lower, SV, M_SV),
    layer("serve.execute_us", "us", Lower, SV, M_SV),
    layer("serve.compile_us", "us", Lower, SM, M_SM),
    layer("serve.cache.hit_share", "ratio", Higher, SV, M_SV),
    layer("serve.cache.evictions", "count", Lower, SM, M_SM),
    layer("serve.compiles_per_distinct", "ratio", Lower, SM, M_SM),
    layer(
        "serve.rejected",
        "count",
        Lower,
        SV,
        "failed operations on serve_*",
    ),
    layer("serve.fallbacks", "count", Lower, SV, M_SV),
    layer("serve.disk.store_us", "us", Lower, SV, M_DISK),
    layer("serve.disk.load_us", "us", Lower, SV, M_DISK),
    layer("serve.pool_ops_per_s", "1/s", Higher, SV, M_SV),
    // every workload
    layer(
        "trace_overhead_share",
        "ratio",
        Lower,
        ALL,
        "nothing: traced over untraced op_p50_us, minus 1",
    ),
];

/// The layer metrics a workload's traced run measures.
pub fn layers_on(workload: &str) -> impl Iterator<Item = &'static Layer> + '_ {
    PER_LAYER.iter().filter(move |l| l.on.contains(&workload))
}

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 8;

/// `/BENCHMARK.json`, with exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json::quote(w.name),
            json::quote(w.why),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str()),
            json::number(m.bound),
            if i + 1 == END_TO_END.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json::quote(m.name),
            json::quote(m.unit),
            json::quote(m.better.as_str()),
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The per-layer table of `README.md`: which workload's traced run reads
/// each metric, and which end-to-end metric it should move.
pub fn layer_table_markdown() -> String {
    let mut out = String::from(
        "| per-layer metric | unit | better | read on | should move |\n|---|---|---|---|---|\n",
    );
    for l in PER_LAYER {
        let on = if l.on.len() == WORKLOADS.len() {
            "every workload".to_owned()
        } else {
            l.on.join(", ")
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            l.name,
            l.unit,
            l.better.as_str(),
            on,
            l.moves
        ));
    }
    out
}
