//! The "Wolfram Engine" interpreter substrate (§2.1).
//!
//! A tree-walking evaluator implementing the language semantics the
//! compiler must preserve:
//!
//! - **Infinite evaluation** to a fixed point (`y = x; x = 1; y` gives `1`),
//!   bounded by recursion/iteration limits.
//! - **Hold attributes** and `OwnValues`/`DownValues` rewriting.
//! - **Scoping constructs** `Module`, `Block`, `With` with their distinct
//!   semantics (§4.2 binding analysis mirrors these).
//! - **Mutability semantics** (F5): expressions are immutable, symbols are
//!   mutable, `Part` assignment copies on write.
//! - **Abortable evaluation** (F3) via [`wolfram_runtime::AbortSignal`].
//! - **Arbitrary-precision fallback** (F2): machine overflow promotes to
//!   bignum arithmetic instead of failing.
//! - **Symbolic computation** (F8): `D`, rule rewriting, and the
//!   symbolic-derivative-powered `FindRoot` with its auto-compilation hook.
//!
//! # Examples
//!
//! ```
//! use wolfram_interp::Interpreter;
//! let mut i = Interpreter::new();
//! assert_eq!(i.eval_src("Total[Table[k^2, {k, 1, 10}]]").unwrap().as_i64(), Some(385));
//! ```

#![forbid(unsafe_code)]

pub mod builtins;
pub mod env;
pub mod eval;
pub mod findroot;
pub mod numeric;
pub mod symbolic;

pub use env::{Attributes, Environment};
pub use eval::{EvalError, Interpreter};
pub use findroot::AutoCompileHook;
