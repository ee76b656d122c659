//! Runtime substrate for the Wolfram Language compiler reproduction.
//!
//! Provides what the paper's compiled code and virtual machines execute
//! against:
//!
//! - [`Value`] — the boxed runtime value (machine numbers, strings, tensors,
//!   symbolic expressions, function values, bignums).
//! - [`Tensor`] — reference-counted, copy-on-write packed arrays, which is
//!   how the interpreter's mutability semantics (F5) and reference-counting
//!   memory management (F7) are realized.
//! - [`checked`] — machine arithmetic that reports numeric exceptions for
//!   the soft-failure fallback (F2).
//! - [`AbortSignal`] — the asynchronous abort flag checked by the
//!   interpreter, the legacy VM, and compiled code (F3).
//! - [`memory`] — acquire/release instrumentation used to validate the
//!   compiler's memory-management pass.
//! - [`linalg`] — the shared `dgemm` kernel standing in for MKL (all three
//!   implementations of the Dot benchmark route through it, as in §6).
//! - [`parallel`] / [`simd`] — the data-parallel tier: deterministic
//!   chunking of whole-tensor builtins over scoped threads, and
//!   stable-Rust SIMD-shaped kernels for dense `f64` inner loops.

#![forbid(unsafe_code)]

pub mod abort;
pub mod checked;
pub mod error;
pub mod linalg;
pub mod memory;
pub mod parallel;
pub mod simd;
pub mod tensor;
pub mod value;

pub use abort::{AbortSignal, DeadlineGuard};
pub use error::RuntimeError;
pub use parallel::ParallelConfig;
pub use tensor::{Tensor, TensorData};
pub use value::{FunctionValue, Value};

/// Convenient result alias for runtime operations.
pub type RtResult<T> = Result<T, RuntimeError>;
