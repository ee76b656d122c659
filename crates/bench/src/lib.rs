//! The evaluation harness (§6): regenerates every table and figure of the
//! paper.
//!
//! - [`programs`] — the seven benchmark programs as Wolfram source for the
//!   new compiler, their bytecode-compiler variants (with the paper's
//!   documented workarounds/limitations), and the hand-written native
//!   baselines standing in for the C implementations.
//! - [`workloads`] — seeded input generators for the paper's parameters.
//! - [`harness`] — timing utilities and the Figure 2 runner (normalized to
//!   the native baseline, bytecode slowdown capped at 2.5 for display with
//!   the true value annotated, QSort not representable in bytecode).
//! - [`table1`] — programmatic probes of the feature/objective matrix
//!   F1–F10.
//! - [`intro`] — the §1 in-text numbers: random-walk interpreter vs
//!   bytecode vs FunctionCompile, and `FindRoot` auto-compilation.
//! - [`ablations`] — §6 in-text ablations: abort checking, inlining,
//!   constant-array handling, mutability copies, superinstruction fusion,
//!   range-check elision, loop vectorization.
//! - [`opstats`] — dynamic op/dyad frequency profiles of the seven
//!   benchmarks (the data superinstruction selection is driven by).
//! - [`serve_load`] — the served request mix (a program catalog with
//!   ground truth and a Zipf sampler) that `benchmark/` and this crate's
//!   serve gates draw from.
//!
//! Numbers for what this repository added to the paper's system (serve,
//! stream, the data-parallel tier, the call entry) come from `benchmark/`;
//! their pass/fail contracts are the integration tests under `tests/`
//! (`serve_gates`, `cli_serve`, `parallel_equivalence`).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod harness;
pub mod intro;
pub mod native;
pub mod opstats;
pub mod programs;
pub mod serve_load;
pub mod table1;
pub mod workloads;

pub use harness::{bench_seconds, Figure2Row, Scale};
