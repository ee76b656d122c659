//! MExpr: the Wolfram Language expression substrate.
//!
//! This crate implements the AST data structure the CGO 2020 paper calls
//! `MExpr` (§4.2): an expression is either an *atomic* leaf node (integer,
//! arbitrary-precision integer, real, complex, string, or symbol) or a
//! *normal* node with a head expression and arguments. Expressions can be
//! serialized (`FullForm`) and deserialized (the parser), and transformations
//! are carried out either with the pattern/rule system or the visitor API.
//!
//! # Examples
//!
//! ```
//! use wolfram_expr::parse;
//!
//! let e = parse("1 + f[x, 2.5]")?;
//! assert_eq!(e.to_full_form(), "Plus[1, f[x, 2.5]]");
//! # Ok::<(), wolfram_expr::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bigint;
pub mod expr;
pub mod format;
pub mod lex;
pub mod parse;
pub mod pattern;
pub mod rules;
pub mod symbol;
pub mod visit;

pub use bigint::BigInt;
pub use expr::{Expr, ExprKind, Normal};
pub use lex::{scan_number, LexError, Token, TokenKind};
pub use parse::{parse, parse_all, ParseError};
pub use pattern::{match_pattern, Bindings, MatchCtx};
pub use rules::{replace_all, replace_repeated, Rule};
pub use symbol::Symbol;
pub use visit::{walk, VisitAction};
