//! The legacy bytecode compiler and Wolfram Virtual Machine (§2.2) — the
//! paper's baseline.
//!
//! Bundled "since Version 2", this compiler deliberately reproduces the
//! design limitations the paper enumerates:
//!
//! - **L1 Expressiveness** — only numerical code compiles: machine
//!   integers, reals, complex numbers, tensors of those, and booleans. No
//!   strings, no symbolic expressions, no function values (the QSort
//!   benchmark "cannot be represented").
//! - **L2 Extensibility** — the datatype and instruction sets are fixed;
//!   there is no user extension point.
//! - **L3 Performance** — execution is a virtual machine over *boxed*
//!   values with per-instruction dynamic type dispatch, and functions are
//!   never inlined.
//! - Type propagation assumes `Real` for unknown types (§2.2), and
//!   unsupported expressions compile into an instruction that calls the
//!   interpreter at run time.
//! - Runtime numeric errors re-run the whole function in the interpreter
//!   (soft failure, F2); a user abort unwinds without killing the session
//!   (F3).
//!
//! # Examples
//!
//! ```
//! use wolfram_bytecode::{ArgSpec, BytecodeCompiler};
//! use wolfram_expr::parse;
//! use wolfram_runtime::Value;
//!
//! let body = parse("x^2 + 1")?;
//! let cf = BytecodeCompiler::new().compile(&[ArgSpec::real("x")], &body).unwrap();
//! let out = cf.run(&[Value::F64(3.0)]).unwrap();
//! assert_eq!(out, Value::F64(10.0));
//! # Ok::<(), wolfram_expr::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod compile;
pub mod compiled_function;
pub mod image;
pub mod instr;
pub mod vm;

pub use compile::{ArgSpec, BytecodeCompiler, CompileError};
pub use compiled_function::{CompiledFunction, StreamRunner};
pub use image::{from_image, to_image, ImageError, IMAGE_VERSION};
pub use instr::{Op, VmType};
