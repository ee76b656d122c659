//! The options `FunctionCompile` accepts (§4.7: "Macro rules, type system
//! definitions, and passes can be predicated on the FunctionCompile
//! options"), stated once, in the lowest crate every reader depends on:
//! the macro expander and resolver (`wolfram-compiler-core`), the pass
//! pipeline ([`crate::run_pipeline`]) and the native lowering
//! (`wolfram-codegen`) all take a [`CompilerOptions`]. The §6 ablations are
//! edits of these options, listed once as [`Ablation`].

use std::hash::{Hash, Hasher};
use wolfram_runtime::ParallelConfig;

/// Compilation target (F4). Only `Native` produces executable code in this
/// reproduction; `C`, `Assembler`, `IR`, and `WVM` are export backends, and
/// `Cuda` exists for the §4.7 conditioned-macro extension point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetSystem {
    /// The native register machine (default; the LLVM JIT stand-in).
    Native,
    /// CUDA (macro-level retargeting demo only).
    Cuda,
}

/// Inlining policy (§4.5 / §6: disabling inlining costs ~10× on tight
/// loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InlinePolicy {
    /// Inline force-marked and trivial functions (the default).
    Automatic,
    /// Never inline (the ablation mode).
    Never,
    /// Inline everything non-recursive.
    Always,
}

/// How the pass pipeline verifies each state of the function it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyLevel {
    /// No verification (release benchmark runs).
    Off,
    /// The bare SSA linter (`verify_function`).
    Ssa,
    /// SSA linter plus the injected semantic checker
    /// ([`crate::FullVerifier`]) — typically the `wolfram-analyze` type +
    /// refcount verifiers.
    Full,
}

/// Options accepted by `FunctionCompile`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompilerOptions {
    /// Compilation target.
    pub target_system: TargetSystem,
    /// Insert abort checks at loop headers and prologues (F3);
    /// `Native`AbortInhibit` in the paper turns this off for benchmarking.
    pub abort_handling: bool,
    /// Insert `MemoryAcquire`/`MemoryRelease` around live intervals (F7).
    pub memory_management: bool,
    /// Optimization level (0 disables the optimizing passes).
    pub optimization_level: u8,
    /// Inlining policy (the §6 ablation: Never costs ~10× on Mandelbrot).
    pub inline_policy: InlinePolicy,
    /// Model the §6 "non-optimal handling of constant arrays" (PrimeQ's
    /// 1.5×): constant arrays are deep-copied at each load instead of
    /// shared.
    pub naive_constant_arrays: bool,
    /// Rewrite the native code with superinstructions after register
    /// allocation (fused compare-and-branch, tensor load-op/op-store,
    /// multiply-add, back-edge folding). Off gives the ablation baseline.
    pub superinstruction_fusion: bool,
    /// IR verification level. `Full` (the default) runs the SSA linter plus
    /// the `wolfram-analyze` type and refcount checkers on the function
    /// entering the pass pipeline and on the result of every pass that
    /// changes it; benchmarks set `Off` to measure pure pass cost.
    pub verify: VerifyLevel,
    /// Run whole-tensor builtins on threads: elementwise tensor arithmetic
    /// and matrix Dot run chunked across scoped threads. Every
    /// configuration computes the same bits as the default. Off by default,
    /// pending a size cost model (at 32 Ki elements two threads lose to
    /// one). Batched counted loops are `loop_vectorize`'s, not this.
    pub data_parallel: bool,
    /// Tuning for the data-parallel tier (threads, chunk granularity).
    /// Ignored unless `data_parallel` is set.
    pub parallel: ParallelConfig,
    /// Run the interval range analysis over the optimized TWIR and let
    /// the lowering elide runtime checks it discharges: Part bounds
    /// checks become unchecked accesses, and provably overflow-free
    /// integer add/subtract/times become wrapping ops. On by default; off
    /// gives the fully checked ablation baseline. Refcount pairs that
    /// bracket nothing are cancelled by the lowering either way.
    pub range_checks_elision: bool,
    /// Plant a `vec.loop` in front of every fused counted loop the
    /// planner accepts (`wolfram_codegen::vectorize`): all but the last
    /// iteration run as one batch through the SIMD kernels on the calling
    /// thread, computing the same bits as the scalar loop and polling the
    /// abort signal once per 1,024-element block. Needs
    /// `superinstruction_fusion`, whose loop headers the planner reads. On
    /// by default; off keeps every loop scalar.
    pub loop_vectorize: bool,
}

impl CompilerOptions {
    /// A 64-bit fingerprint of every option, stable for a given build. Two
    /// option sets with equal fingerprints produce byte-identical code for
    /// the same canonical source, so the serving layer's content-addressed
    /// cache keys on `(canonical MExpr, fingerprint)`.
    ///
    /// The hash is FNV-1a fed by the derived [`Hash`] of the whole struct,
    /// so a field added later is in the key by construction. Settings that
    /// cannot change the artifact are normalised first (`effective`).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        self.effective().hash(&mut h);
        h.finish()
    }

    /// These options with inert settings at their defaults: the
    /// data-parallel tuning changes nothing while the tier is off, and
    /// loop vectorization nothing without fusion, so neither may split
    /// cache keys then.
    fn effective(&self) -> CompilerOptions {
        let mut options = self.clone();
        if !options.data_parallel {
            options.parallel = ParallelConfig::default();
        }
        if !options.superinstruction_fusion {
            options.loop_vectorize = true;
        }
        options
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            target_system: TargetSystem::Native,
            abort_handling: true,
            memory_management: true,
            optimization_level: 1,
            inline_policy: InlinePolicy::Automatic,
            naive_constant_arrays: false,
            superinstruction_fusion: true,
            verify: VerifyLevel::Full,
            data_parallel: false,
            parallel: ParallelConfig::default(),
            range_checks_elision: true,
            loop_vectorize: true,
        }
    }
}

/// FNV-1a as a [`Hasher`].
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One §6 ablation: a single optimisation switched off its default. The
/// list is closed: `reproduce ablations` measures each against the
/// default, and the differential fuzzer runs the default with each applied
/// as an engine of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Never inline ([`InlinePolicy::Never`]).
    Inlining,
    /// No abort checks (F3).
    AbortChecks,
    /// Deep-copy constant arrays at each load (PrimeQ).
    ConstantArraySharing,
    /// No superinstruction fusion.
    Fusion,
    /// Every bounds and overflow check executed.
    RangeElision,
    /// Every counted loop runs scalar: no `vec.loop` is planted.
    Vectorize,
}

impl Ablation {
    /// Every ablation, in report order.
    pub const ALL: [Ablation; 6] = [
        Ablation::Inlining,
        Ablation::AbortChecks,
        Ablation::ConstantArraySharing,
        Ablation::Fusion,
        Ablation::RangeElision,
        Ablation::Vectorize,
    ];

    /// The short name of what is switched off (`native-<name>` in
    /// difftest's engine list).
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Inlining => "inlining",
            Ablation::AbortChecks => "abort-checks",
            Ablation::ConstantArraySharing => "constant-array-sharing",
            Ablation::Fusion => "fusion",
            Ablation::RangeElision => "range-elision",
            Ablation::Vectorize => "vectorize",
        }
    }

    /// Switches this ablation's optimisation off in `options`.
    pub fn apply(self, options: &mut CompilerOptions) {
        match self {
            Ablation::Inlining => options.inline_policy = InlinePolicy::Never,
            Ablation::AbortChecks => options.abort_handling = false,
            Ablation::ConstantArraySharing => options.naive_constant_arrays = true,
            Ablation::Fusion => options.superinstruction_fusion = false,
            Ablation::RangeElision => options.range_checks_elision = false,
            Ablation::Vectorize => options.loop_vectorize = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn every_option_moves_the_fingerprint_and_inert_tuning_does_not() {
        let base = CompilerOptions::default();
        assert_eq!(base.fingerprint(), CompilerOptions::default().fingerprint());
        // No `..`: a new field fails to compile here until it has a row.
        let CompilerOptions {
            target_system: _,
            abort_handling: _,
            memory_management: _,
            optimization_level: _,
            inline_policy: _,
            naive_constant_arrays: _,
            superinstruction_fusion: _,
            verify: _,
            data_parallel: _,
            parallel: _,
            range_checks_elision: _,
            loop_vectorize: _,
        } = base;
        const TUNED: ParallelConfig = ParallelConfig {
            num_threads: 2,
            min_elems_per_chunk: 16,
        };
        type Edit = fn(&mut CompilerOptions);
        let others: [(&str, Edit); 8] = [
            ("target_system", |o| o.target_system = TargetSystem::Cuda),
            ("memory_management", |o| o.memory_management = false),
            ("optimization_level", |o| o.optimization_level = 0),
            ("inline_policy Always", |o| {
                o.inline_policy = InlinePolicy::Always;
            }),
            ("verify Ssa", |o| o.verify = VerifyLevel::Ssa),
            ("verify Off", |o| o.verify = VerifyLevel::Off),
            ("data_parallel", |o| o.data_parallel = true),
            ("data_parallel, tuned", |o| {
                o.data_parallel = true;
                o.parallel = TUNED;
            }),
        ];
        let mut seen = HashMap::from([(base.fingerprint(), "default".to_owned())]);
        let ablations = Ablation::ALL.map(|a| {
            let mut o = base.clone();
            a.apply(&mut o);
            (a.name().to_owned(), o)
        });
        let edited = others.map(|(name, edit)| {
            let mut o = base.clone();
            edit(&mut o);
            (name.to_owned(), o)
        });
        for (name, o) in ablations.into_iter().chain(edited) {
            assert_ne!(o, base, "{name} must leave the default");
            if let Some(prev) = seen.insert(o.fingerprint(), name.clone()) {
                panic!("{name} shares a fingerprint with {prev}");
            }
        }
        // The tuning is inert while the tier is off, and must not split
        // the cache key then.
        let tuned_but_off = CompilerOptions {
            parallel: TUNED,
            ..CompilerOptions::default()
        };
        assert_ne!(tuned_but_off, base);
        assert_eq!(tuned_but_off.fingerprint(), base.fingerprint());
        // Nor does loop vectorization without the fused loops it plans.
        let unfused = |loop_vectorize| CompilerOptions {
            superinstruction_fusion: false,
            loop_vectorize,
            ..CompilerOptions::default()
        };
        assert_eq!(unfused(false).fingerprint(), unfused(true).fingerprint());
    }
}
