//! WIR: the Wolfram compiler's SSA intermediate representation (§4.3) and
//! its typed form TWIR (§4.5).
//!
//! "The WIR structure is inspired by the LLVM IR. A sequence of
//! instructions form a basic block, a DAG of basic blocks represent a
//! function module, and a collection of function modules form a program
//! module." Design goals reproduced here:
//!
//! 1. the IR has a symbolic Wolfram representation (the [`mod@print`] module
//!    emits the paper's textual format and every node can carry its
//!    originating MExpr);
//! 2. the IR represents both typed and untyped code (variables optionally
//!    carry [`wolfram_types::Type`] annotations; a fully annotated function
//!    is a TWIR);
//! 3. arbitrary metadata attaches to each node.
//!
//! Lowering goes *directly to SSA form* (Braun et al.) via [`builder`]; an
//! IR linter ([`verify`]) checks the SSA property of every state of a
//! function the pass pipeline produces ([`run_pipeline`]).
//!
//! [`CompilerOptions`] lives here too: the passes and every layer above
//! read the one definition ([`options`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod builder;
pub mod module;
pub mod options;
pub mod passes;
pub mod print;
pub mod verify;

pub use builder::FunctionBuilder;
pub use module::{
    Block, BlockId, Callee, ConstKey, Constant, FuncId, Function, Instr, Operand, ProgramModule,
    VarId,
};
pub use options::{Ablation, CompilerOptions, InlinePolicy, TargetSystem, VerifyLevel};
pub use passes::{run_pass, run_pipeline, FullVerifier, PipelineReport};
pub use verify::{verify_function, VerifyError};
