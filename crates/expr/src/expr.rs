//! The `Expr` tree: atomic leaves and normal (head + arguments) nodes.
//!
//! Mirrors the paper's `MExpr` (§4.2): "MExpr is either an atomic leaf node
//! (representing a literal or Symbol) or a tree node (representing a Normal
//! Wolfram expression) and can be serialized and deserialized." The paper's
//! per-node metadata is not reproduced: no pass reads or writes any.

use crate::bigint::BigInt;
use crate::symbol::{sym, Symbol};
use std::fmt;
use std::sync::Arc;

/// The payload of an expression node.
#[derive(Clone, PartialEq)]
pub enum ExprKind {
    /// A machine-sized integer literal.
    Integer(i64),
    /// An arbitrary-precision integer literal (always outside `i64` range).
    BigInteger(Arc<BigInt>),
    /// A machine real literal.
    Real(f64),
    /// A machine complex literal (`re + im I`).
    Complex(f64, f64),
    /// A string literal.
    Str(Arc<str>),
    /// A symbol.
    Symbol(Symbol),
    /// A normal expression: `head[arg1, ..., argN]`.
    Normal(Normal),
}

/// A normal expression: a head applied to zero or more arguments.
#[derive(Clone, PartialEq)]
pub struct Normal {
    head: Expr,
    args: Arc<[Expr]>,
}

impl Normal {
    /// The head expression.
    pub fn head(&self) -> &Expr {
        &self.head
    }

    /// The argument list.
    pub fn args(&self) -> &[Expr] {
        &self.args
    }
}

/// A Wolfram Language expression. Cheap to clone (reference counted).
///
/// # Examples
///
/// ```
/// use wolfram_expr::Expr;
/// let e = Expr::call("Plus", [Expr::int(1), Expr::sym("x")]);
/// assert_eq!(e.to_full_form(), "Plus[1, x]");
/// assert_eq!(e.head_symbol().unwrap().name(), "Plus");
/// ```
#[derive(Clone)]
pub struct Expr(Arc<ExprKind>);

impl Expr {
    fn from_kind(kind: ExprKind) -> Self {
        Expr(Arc::new(kind))
    }

    /// A machine integer literal.
    pub fn int(v: i64) -> Self {
        Self::from_kind(ExprKind::Integer(v))
    }

    /// An integer literal, demoted to a machine integer when it fits.
    pub fn big(v: BigInt) -> Self {
        match v.to_i64() {
            Some(m) => Self::int(m),
            None => Self::from_kind(ExprKind::BigInteger(Arc::new(v))),
        }
    }

    /// A real literal.
    pub fn real(v: f64) -> Self {
        Self::from_kind(ExprKind::Real(v))
    }

    /// A complex literal.
    pub fn complex(re: f64, im: f64) -> Self {
        Self::from_kind(ExprKind::Complex(re, im))
    }

    /// A string literal.
    pub fn string(v: impl Into<Arc<str>>) -> Self {
        Self::from_kind(ExprKind::Str(v.into()))
    }

    /// A symbol expression.
    pub fn symbol(s: Symbol) -> Self {
        Self::from_kind(ExprKind::Symbol(s))
    }

    /// A symbol expression from a name (interned).
    pub fn sym(name: &str) -> Self {
        Self::symbol(Symbol::new(name))
    }

    /// The symbol `True` or `False`.
    pub fn bool(v: bool) -> Self {
        if v {
            Self::symbol(sym::true_())
        } else {
            Self::symbol(sym::false_())
        }
    }

    /// The symbol `Null`.
    pub fn null() -> Self {
        Self::symbol(sym::null())
    }

    /// A normal expression with an arbitrary head expression.
    pub fn normal(head: Expr, args: impl Into<Vec<Expr>>) -> Self {
        Self::from_kind(ExprKind::Normal(Normal {
            head,
            args: args.into().into(),
        }))
    }

    /// A normal expression with a symbol head: `name[args...]`.
    pub fn call(name: &str, args: impl Into<Vec<Expr>>) -> Self {
        Self::normal(Expr::sym(name), args)
    }

    /// `List[args...]`.
    pub fn list(args: impl Into<Vec<Expr>>) -> Self {
        Self::normal(Expr::symbol(sym::list()), args)
    }

    /// The node payload.
    pub fn kind(&self) -> &ExprKind {
        &self.0
    }

    /// Whether this is an atomic (leaf) node.
    pub fn is_atom(&self) -> bool {
        !matches!(*self.0, ExprKind::Normal(_))
    }

    /// The head of the expression, following Wolfram semantics: the head of
    /// an atom is the symbol naming its type (`Integer`, `Real`, ...).
    pub fn head(&self) -> Expr {
        match &*self.0 {
            ExprKind::Integer(_) | ExprKind::BigInteger(_) => Expr::symbol(sym::integer()),
            ExprKind::Real(_) => Expr::symbol(sym::real()),
            ExprKind::Complex(..) => Expr::symbol(sym::complex()),
            ExprKind::Str(_) => Expr::symbol(sym::string()),
            ExprKind::Symbol(_) => Expr::symbol(sym::symbol()),
            ExprKind::Normal(n) => n.head.clone(),
        }
    }

    /// The head as a symbol, if the head is a symbol (atoms included).
    pub fn head_symbol(&self) -> Option<Symbol> {
        match &*self.0 {
            ExprKind::Integer(_) | ExprKind::BigInteger(_) => Some(sym::integer()),
            ExprKind::Real(_) => Some(sym::real()),
            ExprKind::Complex(..) => Some(sym::complex()),
            ExprKind::Str(_) => Some(sym::string()),
            ExprKind::Symbol(_) => Some(sym::symbol()),
            ExprKind::Normal(n) => n.head.as_symbol(),
        }
    }

    /// Whether the expression is a normal node whose head is the symbol
    /// `name`.
    pub fn has_head(&self, name: &str) -> bool {
        matches!(&*self.0, ExprKind::Normal(n)
            if matches!(n.head.kind(), ExprKind::Symbol(s) if s.name() == name))
    }

    /// The normal node, if this is one.
    pub fn as_normal(&self) -> Option<&Normal> {
        match &*self.0 {
            ExprKind::Normal(n) => Some(n),
            _ => None,
        }
    }

    /// The arguments of a normal node, or `&[]` for atoms.
    pub fn args(&self) -> &[Expr] {
        match &*self.0 {
            ExprKind::Normal(n) => &n.args,
            _ => &[],
        }
    }

    /// `Length`: number of arguments (0 for atoms).
    pub fn length(&self) -> usize {
        self.args().len()
    }

    /// The symbol, if this is a symbol node.
    pub fn as_symbol(&self) -> Option<Symbol> {
        match &*self.0 {
            ExprKind::Symbol(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Whether this is the symbol named `name`.
    pub fn is_symbol(&self, name: &str) -> bool {
        matches!(&*self.0, ExprKind::Symbol(s) if s.name() == name)
    }

    /// The machine integer value, if this is a machine integer.
    pub fn as_i64(&self) -> Option<i64> {
        match &*self.0 {
            ExprKind::Integer(v) => Some(*v),
            _ => None,
        }
    }

    /// A numeric value as `f64` (integers, bigints, and reals).
    pub fn as_f64(&self) -> Option<f64> {
        match &*self.0 {
            ExprKind::Integer(v) => Some(*v as f64),
            ExprKind::BigInteger(v) => Some(v.to_f64()),
            ExprKind::Real(v) => Some(*v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match &*self.0 {
            ExprKind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this is `True`.
    pub fn is_true(&self) -> bool {
        self.is_symbol("True")
    }

    /// Whether this is `False`.
    pub fn is_false(&self) -> bool {
        self.is_symbol("False")
    }

    /// Replaces the arguments, keeping the head: the result is a fresh node.
    ///
    /// # Panics
    ///
    /// Panics if this is an atom.
    pub fn with_args(&self, args: impl Into<Vec<Expr>>) -> Expr {
        match &*self.0 {
            ExprKind::Normal(n) => Expr::normal(n.head.clone(), args),
            _ => panic!("with_args on atom {self:?}"),
        }
    }

    /// Structural identity: whether the two handles point at the same node.
    pub fn ptr_eq(&self, other: &Expr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for Expr {}

impl std::hash::Hash for Expr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match &*self.0 {
            ExprKind::Integer(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            ExprKind::BigInteger(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            ExprKind::Real(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            ExprKind::Complex(re, im) => {
                3u8.hash(state);
                re.to_bits().hash(state);
                im.to_bits().hash(state);
            }
            ExprKind::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            ExprKind::Symbol(s) => {
                5u8.hash(state);
                s.hash(state);
            }
            ExprKind::Normal(n) => {
                6u8.hash(state);
                n.head.hash(state);
                for a in n.args.iter() {
                    a.hash(state);
                }
            }
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_full_form())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_input_form())
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::int(v)
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr::real(v)
    }
}

impl From<bool> for Expr {
    fn from(v: bool) -> Self {
        Expr::bool(v)
    }
}

impl From<&str> for Expr {
    fn from(v: &str) -> Self {
        Expr::string(v)
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Self {
        Expr::symbol(s)
    }
}

impl From<BigInt> for Expr {
    fn from(v: BigInt) -> Self {
        Expr::big(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_and_heads() {
        assert_eq!(Expr::int(3).head().to_full_form(), "Integer");
        assert_eq!(Expr::real(1.5).head().to_full_form(), "Real");
        assert_eq!(Expr::string("hi").head().to_full_form(), "String");
        assert_eq!(Expr::sym("x").head().to_full_form(), "Symbol");
        assert_eq!(Expr::complex(1.0, 2.0).head().to_full_form(), "Complex");
        let big = Expr::big(BigInt::parse("123456789012345678901").unwrap());
        assert_eq!(big.head().to_full_form(), "Integer");
        assert!(big.is_atom());
    }

    #[test]
    fn big_demotes_to_machine() {
        let e = Expr::big(BigInt::from(42i64));
        assert_eq!(e.as_i64(), Some(42));
    }

    #[test]
    fn normal_structure() {
        let e = Expr::call("f", [Expr::int(1), Expr::int(2)]);
        assert!(!e.is_atom());
        assert_eq!(e.length(), 2);
        assert!(e.has_head("f"));
        assert_eq!(e.args()[1].as_i64(), Some(2));
        let g = e.with_args(vec![Expr::int(9)]);
        assert_eq!(g.to_full_form(), "f[9]");
    }

    #[test]
    fn hash_consistency() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Expr::call("f", [Expr::int(1)]));
        assert!(set.contains(&Expr::call("f", [Expr::int(1)])));
        assert!(!set.contains(&Expr::call("f", [Expr::int(2)])));
    }

    #[test]
    fn compound_heads() {
        // Function[x, x][5] -- head is itself a normal expression.
        let f = Expr::call("Function", [Expr::sym("x"), Expr::sym("x")]);
        let applied = Expr::normal(f.clone(), vec![Expr::int(5)]);
        assert_eq!(applied.head(), f);
        assert!(applied.head_symbol().is_none());
    }
}
