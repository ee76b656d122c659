//! The repo's benchmark: eight fixed-scale workloads, four end-to-end
//! metrics with regression bounds, and a ledger of per-layer metrics taken
//! from outside the crates, through their public functions and counters.
//! `README.md` has the tables; `spec.rs` has the names.

pub mod compare;
pub mod harness;
pub mod json;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
