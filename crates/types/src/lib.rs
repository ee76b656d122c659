//! The compiler's type system (§4.4).
//!
//! The Wolfram Language is untyped; the compiler retrofits a type
//! specification onto it:
//!
//! - [`Type`] — the `TypeSpecifier` grammar: atomic constructors, compound
//!   constructors (`"Tensor"["Integer64", 1]`), type-level literals,
//!   function types, polymorphic `TypeForAll` schemes with type-class
//!   qualifiers, products, and projections.
//! - [`classes`] — type classes grouping types implementing the same
//!   methods (`"Integral"`, `"Ordered"`, `"Reals"`, `"MemoryManaged"`, ...),
//!   usable as qualifiers on polymorphic types.
//! - [`TypeEnvironment`] — extensible function/type store supporting
//!   overloading by type, arity, and return type (F6).
//! - [`Prim`] — the closed table of runtime primitives a declaration can
//!   name, and [`mangle`], the writer of specialization names.
//! - [`unify`] and the constraint solver ([`mod@solve`]) — two-phase inference:
//!   constraint generation produces [`Constraint`]s
//!   (`Equality`/`Alternative`/`Instantiate`/`Generalize`), then the graph
//!   solver processes strongly connected components and resolves
//!   alternatives by specificity ordering, raising ambiguity errors when no
//!   ordering exists.

#![forbid(unsafe_code)]

pub mod classes;
pub mod constraint;
pub mod env;
pub mod prim;
pub mod solve;
pub mod subst;
pub mod ty;

pub use classes::ClassRegistry;
pub use constraint::Constraint;
pub use env::{FunctionDef, FunctionImpl, TypeEnvironment};
pub use prim::{mangle, Cmp, Elementary, ExprHead, Prim};
pub use solve::{solve, SolveError};
pub use subst::{unify, Subst, UnifyError};
pub use ty::{Qualifier, Type, TypeError, TypeVar};
