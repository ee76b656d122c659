//! `wolfram-analyze`: a typed-IR verifier and dataflow lint framework for
//! the WIR/TWIR.
//!
//! The paper's §4.3 footnote describes an IR linter for the bare SSA
//! property (reproduced in `wolfram-ir`'s `verify`); this crate carries
//! the semantic invariants the pipeline actually depends on:
//!
//! - [`typecheck`]: every instruction's operand/result types agree with
//!   the inferred variable annotations and callee signatures (guards
//!   type inference, §4.5, and function resolution, §4.6);
//! - [`refcount`]: every path pairs `MemoryAcquire`/`MemoryRelease`
//!   exactly once per managed interval (guards the memory-management
//!   pass, §4.5/F7);
//! - [`lints`]: maybe-uninitialized uses, dead stores, and unreachable
//!   blocks;
//! - [`intervals`]: range facts from one walk down the dominator tree
//!   (difference constraints between integers and tensor lengths, no
//!   fixpoint) that owns the out-of-range `Part` lint and exports
//!   [`intervals::RangeFacts`] — per-site proofs the native code
//!   generator uses to elide bounds and overflow checks.
//!
//! The other checkers are built on a small lattice-based [`dataflow`]
//! solver over the IR's existing CFG analyses. Error-severity findings turn into
//! [`VerifyError`]s via [`pipeline_verifier`], which the compiler plugs
//! into `run_pipeline` at `VerifyLevel::Full` so the function entering the
//! pipeline and the result of every pass that changes it are checked.

#![forbid(unsafe_code)]

pub mod dataflow;
pub mod diag;
pub mod intervals;
pub mod lints;
pub mod refcount;
pub mod typecheck;

use std::sync::Arc;

pub use diag::{Diagnostic, Severity};
pub use typecheck::{module_signatures, Signatures};
use wolfram_ir::{FullVerifier, Function, ProgramModule, VerifyError};

/// Runs every checker on one function: the type verifier and refcount
/// balance (errors) plus the lints (warnings). `sigs` resolves calls to
/// other functions in the module.
pub fn analyze_function(f: &Function, sigs: &Signatures) -> Vec<Diagnostic> {
    let mut out = typecheck::check(f, sigs);
    out.extend(refcount::check(f));
    out.extend(lints::maybe_uninitialized(f));
    out.extend(lints::dead_stores(f));
    out.extend(lints::unreachable_blocks(f));
    out.extend(intervals::part_bounds(f));
    out.sort_by_key(|d| std::cmp::Reverse(d.severity));
    out
}

/// Runs every checker on every function of a module.
pub fn analyze_module(pm: &ProgramModule) -> Vec<Diagnostic> {
    let sigs = module_signatures(pm);
    pm.functions
        .iter()
        .flat_map(|f| analyze_function(f, &sigs))
        .collect()
}

/// The first error-severity finding from the type and refcount checkers,
/// as a [`VerifyError`]. Lints never fail verification.
fn first_error(f: &Function, sigs: &Signatures) -> Result<(), VerifyError> {
    let mut diags = typecheck::check(f, sigs);
    diags.extend(refcount::check(f));
    match diags.iter().find(|d| d.severity == Severity::Error) {
        Some(d) => Err(VerifyError(d.render(Some(f)))),
        None => Ok(()),
    }
}

/// Verifies a whole module with the type and refcount checkers.
///
/// # Errors
///
/// The first error-severity finding.
pub fn verify_module(pm: &ProgramModule) -> Result<(), VerifyError> {
    let sigs = module_signatures(pm);
    for f in &pm.functions {
        first_error(f, &sigs)?;
    }
    Ok(())
}

/// Packages the type and refcount checkers as a `run_pipeline` hook: the
/// semantic half of `VerifyLevel::Full`. Signatures are harvested once
/// (before the pipeline mutates bodies — passes never change them).
pub fn pipeline_verifier(sigs: Signatures) -> FullVerifier {
    Arc::new(move |f: &Function| first_error(f, &sigs))
}
