//! IR data structures: constants, instructions, basic blocks, function
//! modules, and program modules.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wolfram_expr::{Expr, ExprKind};
use wolfram_types::{mangle, Prim, Type};

/// An SSA variable (`%n` in dumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// A basic block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A function index within a [`ProgramModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Constant {
    /// Machine integer.
    I64(i64),
    /// Machine real.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Machine complex.
    Complex(f64, f64),
    /// String literal.
    Str(Arc<str>),
    /// A packed constant integer array (e.g. the PrimeQ seed table, §6).
    I64Array(Arc<[i64]>),
    /// A packed constant real array.
    F64Array(Arc<[f64]>),
    /// An arbitrary symbolic expression (F8).
    Expr(Expr),
    /// The unit value.
    Null,
}

impl Constant {
    /// The natural type of this constant.
    pub fn ty(&self) -> Type {
        match self {
            Constant::I64(_) => Type::integer64(),
            Constant::F64(_) => Type::real64(),
            Constant::Bool(_) => Type::boolean(),
            Constant::Complex(..) => Type::complex(),
            Constant::Str(_) => Type::string(),
            Constant::I64Array(_) => Type::tensor(Type::integer64(), 1),
            Constant::F64Array(_) => Type::tensor(Type::real64(), 1),
            Constant::Expr(_) => Type::expression(),
            Constant::Null => Type::void(),
        }
    }
}

/// A [`Constant`] as a map key, for merging equal constants. Two keys are
/// equal only if their constants are identical to the bit: floats compare
/// by bits (`0.0` and `-0.0` differ), inside `Constant::Expr` too. Arrays
/// hash on their length and a short prefix; equality reads every element.
#[derive(Debug, Clone)]
pub struct ConstKey(pub Constant);

impl PartialEq for ConstKey {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Constant::F64(a), Constant::F64(b)) => a.to_bits() == b.to_bits(),
            (Constant::Complex(a, b), Constant::Complex(c, d)) => {
                bits(&[*a, *b]).eq(bits(&[*c, *d]))
            }
            (Constant::F64Array(a), Constant::F64Array(b)) => bits(a).eq(bits(b)),
            (Constant::Expr(a), Constant::Expr(b)) => expr_bits_eq(a, b),
            // The rest hold no floats, so their own `==` is exact.
            (a, b) => a == b,
        }
    }
}

impl Eq for ConstKey {}

impl Hash for ConstKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let prefix = |len: usize| ..len.min(8);
        std::mem::discriminant(&self.0).hash(state);
        match &self.0 {
            Constant::I64(v) => v.hash(state),
            Constant::F64(v) => v.to_bits().hash(state),
            Constant::Bool(b) => b.hash(state),
            Constant::Complex(re, im) => bits(&[*re, *im]).for_each(|b| b.hash(state)),
            Constant::Str(s) => s.hash(state),
            Constant::I64Array(a) => (a.len(), &a[prefix(a.len())]).hash(state),
            Constant::F64Array(a) => bits(&a[prefix(a.len())])
                .chain([a.len() as u64])
                .for_each(|b| b.hash(state)),
            // `Expr` hashes reals by their bits.
            Constant::Expr(e) => e.hash(state),
            Constant::Null => {}
        }
    }
}

fn bits(xs: &[f64]) -> impl Iterator<Item = u64> + '_ {
    xs.iter().map(|x| x.to_bits())
}

/// Structural equality with reals compared by bits.
fn expr_bits_eq(a: &Expr, b: &Expr) -> bool {
    match (a.kind(), b.kind()) {
        (ExprKind::Real(x), ExprKind::Real(y)) => x.to_bits() == y.to_bits(),
        (ExprKind::Complex(w, x), ExprKind::Complex(y, z)) => bits(&[*w, *x]).eq(bits(&[*y, *z])),
        (ExprKind::Normal(m), ExprKind::Normal(n)) => {
            let (ms, ns) = (m.args(), n.args());
            a.ptr_eq(b)
                || ms.len() == ns.len()
                    && expr_bits_eq(m.head(), n.head())
                    && ms.iter().zip(ns).all(|(x, y)| expr_bits_eq(x, y))
        }
        (x, y) => x == y,
    }
}

/// The target of a call instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// An unresolved Wolfram function (WIR stage): `Plus`, `Part`, ...
    Builtin(Arc<str>),
    /// A runtime primitive at the parameter types function resolution
    /// instantiated it with (TWIR stage); dumps render the pair through
    /// [`mangle`], e.g. `checked_binary_plus$Integer64$Integer64`.
    Primitive {
        /// The primitive.
        prim: Prim,
        /// Its resolved parameter types.
        params: Arc<[Type]>,
    },
    /// A resolved call to another function in this program module.
    Function {
        /// The mangled name.
        name: Arc<str>,
        /// The resolved function index.
        func: FuncId,
    },
    /// An indirect call through a function value (closures, F6).
    Value(VarId),
    /// An escape to the interpreter (`KernelFunction`, F1/F9): evaluate
    /// `head[args...]` in the Wolfram Engine.
    Kernel(Arc<str>),
}

impl Callee {
    /// A call of `prim` resolved at `params`.
    pub fn primitive(prim: Prim, params: &[Type]) -> Callee {
        Callee::Primitive {
            prim,
            params: params.into(),
        }
    }

    /// Display name for dumps.
    pub fn name(&self) -> String {
        match self {
            Callee::Builtin(n) => n.to_string(),
            Callee::Primitive { prim, params } => {
                format!("Native`PrimitiveFunction[{}]", mangle(prim.name(), params))
            }
            Callee::Function { name, .. } => name.to_string(),
            Callee::Value(v) => format!("%{}", v.0),
            Callee::Kernel(n) => format!("KernelFunction[{n}]"),
        }
    }
}

/// An argument to a call or part operation: an SSA variable or an immediate
/// constant (the paper's dumps show immediates inline: `[%1, 1:I64]`).
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An SSA variable.
    Var(VarId),
    /// An immediate constant.
    Const(Constant),
}

impl Operand {
    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this is one.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Var(_) => None,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<Constant> for Operand {
    fn from(c: Constant) -> Self {
        Operand::Const(c)
    }
}

/// A WIR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `%dst = LoadArgument <index>`.
    LoadArgument {
        /// Result variable.
        dst: VarId,
        /// 0-based parameter index.
        index: usize,
    },
    /// `%dst = Constant <value>`.
    LoadConst {
        /// Result variable.
        dst: VarId,
        /// The constant.
        value: Constant,
    },
    /// `%dst = Copy %src` — explicit value copy; the mutability pass turns
    /// these into real copies or elides them (F5).
    Copy {
        /// Result variable.
        dst: VarId,
        /// Source.
        src: VarId,
    },
    /// `%dst = Call callee [args...]`.
    Call {
        /// Result variable.
        dst: VarId,
        /// Call target.
        callee: Callee,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `%dst = MakeClosure f [captures...]` (closure conversion, §4.2).
    MakeClosure {
        /// Result variable.
        dst: VarId,
        /// The lifted function's name.
        func: Arc<str>,
        /// Captured environment.
        captures: Vec<Operand>,
    },
    /// SSA phi node.
    Phi {
        /// Result variable.
        dst: VarId,
        /// `(predecessor block, value)` pairs.
        incoming: Vec<(BlockId, Operand)>,
    },
    /// An abort check (F3): inserted at loop headers and prologues (§4.5).
    AbortCheck,
    /// `MemoryAcquire %v`: no-op for unmanaged objects, reference increment
    /// for managed ones (F7).
    MemoryAcquire {
        /// The acquired variable.
        var: VarId,
    },
    /// `MemoryRelease %v`.
    MemoryRelease {
        /// The released variable.
        var: VarId,
    },
    /// Unconditional branch.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    Branch {
        /// Condition variable (Boolean-typed in TWIR).
        cond: Operand,
        /// Target when true.
        then_block: BlockId,
        /// Target when false.
        else_block: BlockId,
    },
    /// Function return.
    Return {
        /// Returned value.
        value: Operand,
    },
}

impl Instr {
    /// The variable defined by this instruction, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Instr::LoadArgument { dst, .. }
            | Instr::LoadConst { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::MakeClosure { dst, .. }
            | Instr::Phi { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// All variables used (not defined) by this instruction.
    pub fn uses(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        let mut add_op = |o: &Operand| {
            if let Operand::Var(v) = o {
                out.push(*v);
            }
        };
        match self {
            Instr::Copy { src, .. } => add_op(&Operand::Var(*src)),
            Instr::Call { callee, args, .. } => {
                if let Callee::Value(v) = callee {
                    add_op(&Operand::Var(*v));
                }
                for a in args {
                    add_op(a);
                }
            }
            Instr::MakeClosure { captures, .. } => {
                for c in captures {
                    add_op(c);
                }
            }
            Instr::Phi { incoming, .. } => {
                for (_, o) in incoming {
                    add_op(o);
                }
            }
            // Memory instrumentation references the variable's storage
            // slot, not its SSA value: it neither keeps values alive nor
            // participates in dataflow (see the memory-management pass).
            Instr::MemoryAcquire { .. } | Instr::MemoryRelease { .. } => {}
            Instr::Branch { cond, .. } => add_op(cond),
            Instr::Return { value } => add_op(value),
            Instr::LoadArgument { .. }
            | Instr::LoadConst { .. }
            | Instr::AbortCheck
            | Instr::Jump { .. } => {}
        }
        out
    }

    /// Rewrites every used variable through `f` (defs untouched).
    pub fn map_uses(&mut self, f: &mut dyn FnMut(VarId) -> VarId) {
        let mut map_op = |o: &mut Operand| {
            if let Operand::Var(v) = o {
                *v = f(*v);
            }
        };
        match self {
            Instr::Copy { src, .. } => {
                let mut o = Operand::Var(*src);
                map_op(&mut o);
                *src = o.as_var().expect("var stays var");
            }
            Instr::Call { callee, args, .. } => {
                if let Callee::Value(v) = callee {
                    let mut o = Operand::Var(*v);
                    map_op(&mut o);
                    *v = o.as_var().expect("var stays var");
                }
                for a in args {
                    map_op(a);
                }
            }
            Instr::MakeClosure { captures, .. } => {
                for c in captures {
                    map_op(c);
                }
            }
            Instr::Phi { incoming, .. } => {
                for (_, o) in incoming {
                    map_op(o);
                }
            }
            Instr::MemoryAcquire { var } | Instr::MemoryRelease { var } => {
                let mut o = Operand::Var(*var);
                map_op(&mut o);
                *var = o.as_var().expect("var stays var");
            }
            Instr::Branch { cond, .. } => map_op(cond),
            Instr::Return { value } => map_op(value),
            Instr::LoadArgument { .. }
            | Instr::LoadConst { .. }
            | Instr::AbortCheck
            | Instr::Jump { .. } => {}
        }
    }

    /// Whether this is a block terminator.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. } | Instr::Branch { .. } | Instr::Return { .. }
        )
    }

    /// Successor blocks of a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Instr::Jump { target } => vec![*target],
            Instr::Branch {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            _ => Vec::new(),
        }
    }

    /// Whether the instruction is pure (no side effects, safe for CSE). A
    /// call is pure only as its primitive's row says ([`Prim::is_pure`]);
    /// any other callee, an unresolved `Builtin` included, is not.
    pub fn is_pure(&self) -> bool {
        match self {
            Instr::LoadArgument { .. }
            | Instr::LoadConst { .. }
            | Instr::Copy { .. }
            | Instr::Phi { .. }
            | Instr::MakeClosure { .. } => true,
            Instr::Call {
                callee: Callee::Primitive { prim, .. },
                ..
            } => prim.is_pure(),
            _ => false,
        }
    }

    /// Whether a *dead* instance may be deleted. Stricter than
    /// [`Instr::is_pure`]: checked arithmetic, `Part`, `Dot` etc. are pure
    /// (CSE may merge two identical instances — if one traps, the
    /// dominating one traps the same way) but **partial** — they raise
    /// `DivideByZero`/`IntegerOverflow`/`PartOutOfRange` on some inputs.
    /// The interpreter evaluates dead code and raises; deleting the
    /// trapping instruction would make compiled code disagree with it
    /// (found by the differential fuzzer: `v = Quotient[x, 0]` with `v`
    /// never read returned normally under the native engine). A call is
    /// removable only if its primitive's row is total ([`Prim::is_total`]).
    pub fn is_removable(&self) -> bool {
        match self {
            Instr::LoadArgument { .. }
            | Instr::LoadConst { .. }
            | Instr::Copy { .. }
            | Instr::Phi { .. }
            | Instr::MakeClosure { .. } => true,
            Instr::Call {
                callee: Callee::Primitive { prim, .. },
                ..
            } => prim.is_total(),
            _ => false,
        }
    }
}

/// A basic block: instructions ending in exactly one terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Readable label (`start`, `loop-head`, ...).
    pub label: String,
    /// The instructions, terminator last.
    pub instrs: Vec<Instr>,
}

impl Block {
    /// The terminator, if the block is complete.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }
}

/// Function-level metadata mirroring the paper's dump header
/// (`Main::Information={"inlineInformation" -> ...}`).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionInfo {
    /// Inlining hint.
    pub inline_value: InlineValue,
    /// Whether the body is trivial (single block, few instructions).
    pub is_trivial: bool,
    /// Whether any argument may alias another.
    pub argument_alias: bool,
    /// Profiling instrumentation enabled.
    pub profile: bool,
    /// Whether abort handling is enabled for this function.
    pub abort_handling: bool,
}

impl Default for FunctionInfo {
    fn default() -> Self {
        FunctionInfo {
            inline_value: InlineValue::Automatic,
            is_trivial: false,
            argument_alias: false,
            profile: false,
            abort_handling: true,
        }
    }
}

/// Inline hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineValue {
    /// Compiler decides.
    Automatic,
    /// Never inline.
    Never,
    /// Users marked it "to be forcibly inlined" (§4.5).
    Always,
}

/// A function module: a DAG of basic blocks in SSA form.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// The (possibly mangled) function name.
    pub name: String,
    /// Source-level parameter names.
    pub param_names: Vec<String>,
    /// Number of parameters.
    pub arity: usize,
    /// Basic blocks; `BlockId(n)` indexes this vector.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Next unused variable number.
    pub next_var: u32,
    /// Type annotations. When every variable that appears is annotated the
    /// function is a TWIR (§4.5).
    pub var_types: HashMap<VarId, Type>,
    /// The declared return type, once inferred.
    pub return_type: Option<Type>,
    /// MExpr provenance per variable ("used during error reporting and ...
    /// to generate debug symbols").
    pub provenance: HashMap<VarId, Expr>,
    /// Function metadata.
    pub info: FunctionInfo,
}

impl Function {
    /// An empty function shell.
    pub fn new(name: &str, arity: usize) -> Self {
        Function {
            name: name.to_owned(),
            param_names: (0..arity).map(|i| format!("arg{i}")).collect(),
            arity,
            blocks: Vec::new(),
            entry: BlockId(0),
            next_var: 0,
            var_types: HashMap::new(),
            return_type: None,
            provenance: HashMap::new(),
            info: FunctionInfo::default(),
        }
    }

    /// Allocates a fresh SSA variable.
    pub fn fresh_var(&mut self) -> VarId {
        let v = VarId(self.next_var);
        self.next_var += 1;
        v
    }

    /// Accesses a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutably accesses a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The annotated type of a variable.
    pub fn var_type(&self, v: VarId) -> Option<&Type> {
        self.var_types.get(&v)
    }

    /// Whether every defined variable carries a concrete type annotation —
    /// i.e. this is a TWIR function ready for code generation (§4.6:
    /// "a compile error is issued if any variable type is missing").
    pub fn is_fully_typed(&self) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .all(|i| match i.def() {
                Some(v) => self.var_types.get(&v).is_some_and(Type::is_concrete),
                None => true,
            })
    }

    /// Total instruction count.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Iterates all instructions.
    pub fn instrs(&self) -> impl Iterator<Item = &Instr> {
        self.blocks.iter().flat_map(|b| b.instrs.iter())
    }
}

/// A program module: a collection of function modules plus global
/// metadata (§4.3).
#[derive(Debug, Clone, Default)]
pub struct ProgramModule {
    /// The functions; `FuncId(n)` indexes this vector. Index 0 is `Main`.
    pub functions: Vec<Function>,
    /// Global metadata strings.
    pub metadata: Vec<(String, String)>,
}

impl ProgramModule {
    /// A module containing just `main`.
    pub fn with_main(main: Function) -> Self {
        ProgramModule {
            functions: vec![main],
            metadata: Vec::new(),
        }
    }

    /// The entry function.
    pub fn main(&self) -> &Function {
        &self.functions[0]
    }

    /// Finds a function by name.
    pub fn find(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|ix| FuncId(ix as u32))
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.functions.push(f);
        FuncId(self.functions.len() as u32 - 1)
    }

    /// Accesses a function by id.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses() {
        let i = Instr::Call {
            dst: VarId(3),
            callee: Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            args: vec![VarId(1).into(), Constant::I64(1).into()],
        };
        assert_eq!(i.def(), Some(VarId(3)));
        assert_eq!(i.uses(), vec![VarId(1)]);
        assert!(i.is_pure());
        let ret = Instr::Return {
            value: VarId(3).into(),
        };
        assert_eq!(ret.def(), None);
        assert_eq!(ret.uses(), vec![VarId(3)]);
        assert!(ret.is_terminator());
    }

    #[test]
    fn map_uses_rewrites() {
        let mut i = Instr::Phi {
            dst: VarId(5),
            incoming: vec![(BlockId(0), VarId(1).into()), (BlockId(1), VarId(2).into())],
        };
        i.map_uses(&mut |v| VarId(v.0 + 10));
        assert_eq!(i.uses(), vec![VarId(11), VarId(12)]);
    }

    #[test]
    fn purity_classification() {
        let pure = Instr::Call {
            dst: VarId(0),
            callee: Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            args: vec![],
        };
        assert!(pure.is_pure());
        // Checked addition may overflow: merged, but never removed.
        assert!(!pure.is_removable());
        // Resolution rewrites every head; one it left is conservative.
        let unresolved = Instr::Call {
            dst: VarId(0),
            callee: Callee::Builtin(Arc::from("Plus")),
            args: vec![],
        };
        assert!(!unresolved.is_pure() && !unresolved.is_removable());
        let kernel = Instr::Call {
            dst: VarId(0),
            callee: Callee::Kernel(Arc::from("Print")),
            args: vec![],
        };
        assert!(!kernel.is_pure());
        let indirect = Instr::Call {
            dst: VarId(0),
            callee: Callee::Value(VarId(9)),
            args: vec![],
        };
        assert!(!indirect.is_pure());
        assert_eq!(indirect.uses(), vec![VarId(9)]);
    }

    #[test]
    fn successors() {
        let b = Instr::Branch {
            cond: VarId(0).into(),
            then_block: BlockId(1),
            else_block: BlockId(2),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(
            Instr::Jump { target: BlockId(7) }.successors(),
            vec![BlockId(7)]
        );
    }

    #[test]
    fn module_functions() {
        let mut m = ProgramModule::with_main(Function::new("Main", 1));
        let id = m.add_function(Function::new("helper", 0));
        assert_eq!(m.find("helper"), Some(id));
        assert_eq!(m.find("Main"), Some(FuncId(0)));
        assert!(m.find("nope").is_none());
        assert_eq!(m.function(id).name, "helper");
    }

    #[test]
    fn constant_types() {
        assert_eq!(Constant::I64(1).ty(), Type::integer64());
        assert_eq!(Constant::Str(Arc::from("s")).ty(), Type::string());
        assert_eq!(
            Constant::I64Array(Arc::from([1i64, 2].as_slice())).ty(),
            Type::tensor(Type::integer64(), 1)
        );
    }
}
