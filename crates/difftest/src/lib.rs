//! `wolfram-difftest` — a differential fuzzer over every engine.
//!
//! The repository carries three ways to evaluate the same Wolfram
//! Language subset: the tree-walking interpreter (the semantic oracle),
//! the legacy bytecode VM, and the native register machine the compiler
//! targets. The native machine runs under several option sets, derived
//! from one list ([`oracle::native_engines`]): the shipped
//! `CompilerOptions::default()`, the default with each §6 ablation applied
//! (`wolfram_compiler_core::Ablation`, all but abort checks), and the
//! default with whole-tensor builtins on threads — nine configurations
//! with the interpreter and the VM ([`oracle::engine_names`]). Any observable
//! disagreement between them on the common subset is a bug in at least
//! one engine; this crate generates programs, runs all configurations,
//! compares the outcomes under a documented equivalence relation
//! ([`oracle`]) and checks that every native run released as many managed
//! values as it acquired (F7), greedily shrinks whatever diverges or
//! leaks ([`shrink`]), and persists counterexamples as replayable `.wl`
//! artifacts ([`corpus`]).
//!
//! Three tiers use it:
//!
//! 1. a bounded deterministic smoke run inside `cargo test`,
//! 2. `reproduce -- difftest --iters N --seed S` for long local runs, and
//! 3. a scheduled CI job that uploads shrunk counterexamples.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use corpus::CorpusEntry;
pub use gen::Program;
pub use oracle::{
    outcomes_equivalent, outcomes_equivalent_within, prepare, prepare_with, values_equivalent,
    values_equivalent_within, verify_failure, EngineRun, Finding, Outcome,
};
pub use shrink::Shrunk;

use std::collections::HashSet;
use wolfram_ir::{Callee, Instr};
use wolfram_types::Prim;

/// Fuzzing-run parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` fuzzes `Program::generate(derive(seed, i))`.
    pub seed: u64,
    /// Number of programs to generate.
    pub iters: u64,
    /// Whether to shrink divergences (off makes triage runs faster).
    pub shrink: bool,
    /// Whether to run the `wolfram-analyze` checkers after every compiler
    /// pass (`VerifyLevel::Full`) and report any finding as a divergence —
    /// the internal-consistency oracle. Off compiles with the SSA linter
    /// only.
    pub analyze: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xD1FF_7E57,
            iters: 300,
            shrink: true,
            analyze: true,
        }
    }
}

/// One confirmed divergence, shrunk and ready to persist.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The per-iteration seed that regenerates the original program.
    pub seed: u64,
    /// The original (unshrunk) source.
    pub original: String,
    /// The reduced artifact.
    pub shrunk: CorpusEntry,
    /// Whether the artifact shows a refcount imbalance rather than a value
    /// divergence or an analyzer finding ([`Finding::imbalance`]).
    pub imbalance: bool,
}

/// Aggregate result of a fuzzing run over the engine configurations of
/// [`oracle::engine_names`]: the interpreter, the bytecode VM, and the
/// native machine under each of [`oracle::native_engines`].
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Programs generated and compiled on every engine configuration.
    pub programs_run: u64,
    /// Programs some compiled engine configuration refused (subset holes,
    /// not divergences). Samples, naming the engine, are in
    /// `prepare_samples`.
    pub prepare_failures: u64,
    /// Up to five prepare-failure messages with their seeds.
    pub prepare_samples: Vec<(u64, String)>,
    /// Programs whose printed source failed the parse→print fixpoint.
    pub roundtrip_failures: u64,
    /// Runs stopped by the per-engine watchdog ([`oracle::RUN_TIMEOUT`]);
    /// inconclusive, not divergent.
    pub timeouts: u64,
    /// Runs where the oracle answered symbolically (outside the numeric
    /// subset); inconclusive, not divergent.
    pub out_of_subset: u64,
    /// Confirmed divergences.
    pub divergences: Vec<Counterexample>,
    /// The primitives some compiled program's TWIR calls, under the
    /// shipped default options: how much of [`Prim::ALL`] the run reached.
    pub primitives: HashSet<Prim>,
}

impl FuzzReport {
    /// Divergences attributed to each engine configuration (in
    /// [`oracle::engine_names`] order), by the engine named at the start
    /// of the counterexample note. The interpreter is the oracle, so its
    /// slot counts notes that name no compiled engine (analyzer findings
    /// and shrink residues).
    pub fn per_engine_divergences(&self) -> Vec<usize> {
        let names = oracle::engine_names();
        let mut counts = vec![0; names.len()];
        for case in &self.divergences {
            // The whole name, then a space: `native` begins other names.
            let slot = names.iter().skip(1).position(|name| {
                case.shrunk
                    .note
                    .strip_prefix(name.as_str())
                    .is_some_and(|rest| rest.starts_with(' '))
            });
            counts[slot.map_or(0, |i| i + 1)] += 1;
        }
        counts
    }

    /// Counterexamples that are refcount imbalances rather than value
    /// divergences.
    pub fn imbalances(&self) -> usize {
        self.divergences
            .iter()
            .filter(|case| case.imbalance)
            .count()
    }

    /// One-paragraph human summary. The configuration count and the
    /// per-engine divergence breakdown are derived from
    /// [`oracle::engine_names`], so every engine configuration is counted;
    /// the primitive coverage is counted against [`Prim::ALL`], naming the
    /// primitives no program reached.
    pub fn summary(&self) -> String {
        let names = oracle::engine_names();
        let counts = self.per_engine_divergences();
        let breakdown: Vec<String> = names
            .iter()
            .zip(&counts)
            .skip(1)
            .map(|(name, n)| format!("{name} {n}"))
            .chain((counts[0] > 0).then(|| format!("other {}", counts[0])))
            .collect();
        let missing: Vec<&str> = Prim::ALL
            .iter()
            .filter(|p| !self.primitives.contains(p))
            .map(|p| p.name())
            .collect();
        format!(
            "{} programs across {} engine configurations: {} divergences ({}), \
             {} of them refcount imbalances, \
             {} prepare failures, {} round-trip failures, {} timeouts, \
             {} out-of-subset, primitives {}/{} (missing: {})",
            self.programs_run,
            names.len(),
            self.divergences.len(),
            breakdown.join(", "),
            self.imbalances(),
            self.prepare_failures,
            self.roundtrip_failures,
            self.timeouts,
            self.out_of_subset,
            self.primitives.len(),
            Prim::ALL.len(),
            missing.join(", ")
        )
    }
}

/// Derives the per-iteration seed from the base seed. SplitMix64 of the
/// pair keeps neighbouring iterations statistically independent.
pub fn derive_seed(base: u64, iteration: u64) -> u64 {
    rng::Rng::new(base ^ iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Runs the fuzzer. Deterministic in `cfg`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    // Coverage is recorded here, not in `prepare`: the shrinker, the
    // corpus replay and the compile_cold workload prepare programs too,
    // and need no extra compile.
    let coverage = wolfram_compiler_core::Compiler::default();
    for i in 0..cfg.iters {
        let seed = derive_seed(cfg.seed, i);
        let program = Program::generate(seed);
        if program.roundtrip().is_err() {
            report.roundtrip_failures += 1;
            continue;
        }
        let verify = if cfg.analyze {
            wolfram_ir::VerifyLevel::Full
        } else {
            wolfram_ir::VerifyLevel::Ssa
        };
        let subject = match oracle::prepare_with(&program.func, verify) {
            Ok(s) => s,
            Err(e) => {
                let message = e.to_string();
                // Analyzer (or SSA linter) findings are not subset holes:
                // the compiler produced IR it cannot justify, which is a
                // reportable bug with the same shrink/artifact path as a
                // semantic divergence.
                if cfg.analyze && message.contains("IR verification failed") {
                    let shrunk = if cfg.shrink {
                        shrink::shrink_verify(&program.func)
                    } else {
                        None
                    };
                    let entry = match shrunk {
                        Some(s) => CorpusEntry {
                            seed,
                            note: s.finding.note,
                            func: s.func,
                            arg_sets: vec![s.args],
                        },
                        None => CorpusEntry {
                            seed,
                            note: message,
                            func: program.func.clone(),
                            arg_sets: vec![Vec::new()],
                        },
                    };
                    report.divergences.push(Counterexample {
                        seed,
                        original: program.source(),
                        shrunk: entry,
                        imbalance: false,
                    });
                } else {
                    report.prepare_failures += 1;
                    if report.prepare_samples.len() < 5 {
                        report.prepare_samples.push((seed, message));
                    }
                }
                continue;
            }
        };
        report.programs_run += 1;
        if let Ok(pm) = coverage.compile_to_twir(&program.func, None) {
            for i in pm.functions.iter().flat_map(|f| f.instrs()) {
                if let Instr::Call {
                    callee: Callee::Primitive { prim, .. },
                    ..
                } = i
                {
                    report.primitives.insert(*prim);
                }
            }
        }
        let mut saw_timeout = false;
        let mut saw_symbolic = false;
        let diverging_set = program.arg_sets.iter().find_map(|args| {
            let run = subject.run(args);
            saw_timeout |= run.timed_out();
            saw_symbolic |= run.out_of_subset();
            run.divergence().map(|finding| (args.clone(), finding))
        });
        if saw_timeout {
            report.timeouts += 1;
        }
        if saw_symbolic {
            report.out_of_subset += 1;
        }
        if let Some((args, finding)) = diverging_set {
            let shrunk = if cfg.shrink {
                shrink::shrink(&program.func, &program.arg_sets)
            } else {
                None
            };
            let (func, args, finding) = match shrunk {
                Some(s) => (s.func, s.args, s.finding),
                None => (program.func.clone(), args, finding),
            };
            report.divergences.push(Counterexample {
                seed,
                original: program.source(),
                shrunk: CorpusEntry {
                    seed,
                    note: finding.note,
                    func,
                    arg_sets: vec![args],
                },
                imbalance: finding.imbalance,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_spread() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_shipped_default_is_an_engine_and_every_engine_is_reported() {
        // One native engine compiles with exactly what serve, stream and
        // `Compiler::default()` ship.
        let engines = oracle::native_engines();
        assert!(engines
            .iter()
            .any(|(_, options)| *options == wolfram_compiler_core::CompilerOptions::default()));
        let names = oracle::engine_names();
        assert_eq!(
            names,
            [
                "interpreter",
                "bytecode",
                "native",
                "native-inlining",
                "native-constant-array-sharing",
                "native-fusion",
                "native-range-elision",
                "native-vectorize",
                "native+parallel",
            ]
        );
        // A divergence on each compiled engine is counted in that engine's
        // slot and named in the summary.
        let report = FuzzReport {
            divergences: names[1..]
                .iter()
                .map(|name| Counterexample {
                    seed: 0,
                    original: String::new(),
                    shrunk: CorpusEntry {
                        seed: 0,
                        note: format!("{name} returned 1 but the interpreter returned 2"),
                        func: wolfram_expr::Expr::int(0),
                        arg_sets: Vec::new(),
                    },
                    imbalance: false,
                })
                .collect(),
            ..FuzzReport::default()
        };
        let counts = report.per_engine_divergences();
        let mut want = vec![1; names.len()];
        want[0] = 0;
        assert_eq!(counts, want);
        let summary = report.summary();
        assert!(
            summary.contains("across 9 engine configurations"),
            "{summary}"
        );
        for name in &names[1..] {
            assert!(summary.contains(&format!("{name} 1")), "{summary}");
        }
    }

    #[test]
    fn tiny_fuzz_run_is_deterministic() {
        let cfg = FuzzConfig {
            seed: 7,
            iters: 20,
            shrink: false,
            analyze: true,
        };
        let r1 = run_fuzz(&cfg);
        let r2 = run_fuzz(&cfg);
        assert_eq!(r1.programs_run, r2.programs_run);
        assert_eq!(r1.divergences.len(), r2.divergences.len());
        assert_eq!(r1.primitives, r2.primitives);
        let coverage = format!(
            "primitives {}/{} (missing: ",
            r1.primitives.len(),
            Prim::ALL.len()
        );
        assert!(r1.summary().contains(&coverage), "{}", r1.summary());
    }
}
