//! Code generation backends (§4.6).
//!
//! "Code generation only operates on the fully typed TWIR code, and a
//! compile error is issued if any variable type is missing. Multiple
//! backends are supported by the compiler and an API for users to plugin
//! their own backend."
//!
//! Backends provided:
//!
//! - `native` (see [`machine`]/[`lower`]) — the default. Stands in for the paper's LLVM JIT: TWIR is
//!   lowered to a *monomorphic, pre-resolved, unboxed* register machine
//!   with separate integer/real/complex/value register banks and a tight
//!   dispatch loop. This has the property the evaluation depends on
//!   (unboxed execution with checks hoisted) without requiring LLVM; see
//!   DESIGN.md §1.
//! - `c_source` — textual C export (the paper's C++ prototype backend).
//! - `asm` — a textual "assembler" listing of the register-machine code
//!   (the `FunctionCompileExportString[..., "Assembler"]` analog).
//! - `wvm` — compiles TWIR back onto the legacy bytecode VM (backend
//!   parity, F4).
//! - `export` — standalone library export/load (F10); standalone code
//!   runs without engine integration (aborts and kernel escapes disabled).

#![forbid(unsafe_code)]

pub mod asm;
pub mod backend;
pub mod c_source;
pub mod export;
pub mod fuse;
pub mod lower;
pub mod machine;
mod refcount;
mod regalloc;
pub mod vectorize;
pub mod wvm;

pub use backend::{Backend, BackendRegistry};
pub use fuse::{fuse_function, fuse_program};
pub use lower::{lower_program, LowerError};
pub use machine::{
    ArgVal, Bank, Machine, NativeFunc, NativeProgram, OpStats, RegOp, Slot, FRAME_POOL_CAP,
};
pub use vectorize::{vectorize_function, vectorize_program, VecPlan};
