//! The type environment (§4.4): function declarations with overloading by
//! type, arity, and return type, plus overload resolution against call
//! sites ("Function Resolution", §4.5).

use crate::classes::ClassRegistry;
use crate::prim::Prim;
use crate::subst::{numeric_lub, promotion_cost, unify, Subst};
use crate::ty::{Qualifier, Type, TypeError};
use std::collections::HashMap;
use std::sync::Arc;
use wolfram_expr::Expr;

/// How a declared function is implemented.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionImpl {
    /// A compiler-runtime primitive. Resolution pairs it with the
    /// instantiated parameter types; [`crate::mangle`] renders the pair as
    /// the paper's `checked_binary_plus$Integer64$Integer64`.
    Primitive(Prim),
    /// Wolfram source compiled on demand at its instantiated type.
    Source(Expr),
    /// Escapes to the interpreter (`KernelFunction`).
    Kernel,
}

/// One overload of a declared function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// The (possibly polymorphic) type scheme.
    pub scheme: Type,
    /// The implementation.
    pub implementation: FunctionImpl,
    /// Whether resolution must force-inline this definition.
    pub inline_always: bool,
}

/// A successfully resolved call.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCall {
    /// Index of the chosen overload in declaration order.
    pub overload: usize,
    /// Instantiated parameter types (post-promotion).
    pub params: Vec<Type>,
    /// Instantiated return type.
    pub ret: Type,
    /// Total promotion cost (0 = exact match).
    pub cost: u32,
    /// The implementation of the chosen overload.
    pub implementation: FunctionImpl,
    /// Whether to force-inline.
    pub inline_always: bool,
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolveError {
    /// No declaration for the function at all.
    Undeclared(String),
    /// Declarations exist but none matches these argument types.
    NoMatch {
        /// Function name.
        name: String,
        /// The argument types at the call.
        args: Vec<Type>,
    },
    /// Multiple matches with no specificity ordering (paper: "Lack of
    /// ordering is an ambiguity and the compiler raises an error").
    Ambiguous {
        /// Function name.
        name: String,
        /// Indices of the tied overloads.
        overloads: Vec<usize>,
    },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Undeclared(name) => {
                write!(f, "no type declaration for function `{name}`")
            }
            ResolveError::NoMatch { name, args } => {
                let args: Vec<String> = args.iter().map(Type::to_string).collect();
                write!(f, "no overload of `{name}` matches ({})", args.join(", "))
            }
            ResolveError::Ambiguous { name, overloads } => {
                write!(f, "ambiguous overloads of `{name}`: {overloads:?}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// An extensible store of typed function declarations (F6).
///
/// "Multiple type environments can be resident within the compiler; a
/// default builtin type environment is provided. Users can extend the type
/// environment and specify which type environment to use at
/// `FunctionCompile` time."
#[derive(Debug, Clone, Default)]
pub struct TypeEnvironment {
    functions: HashMap<String, Vec<FunctionDef>>,
    /// The type-class registry used for qualifier checks.
    pub classes: ClassRegistry,
}

impl TypeEnvironment {
    /// An empty environment with the builtin class registry.
    pub fn new() -> Self {
        TypeEnvironment {
            functions: HashMap::new(),
            classes: ClassRegistry::builtin(),
        }
    }

    /// Declares a function overload from a parsed scheme.
    pub fn declare_function(
        &mut self,
        name: &str,
        scheme: Type,
        implementation: FunctionImpl,
    ) -> &mut Self {
        self.functions
            .entry(name.to_owned())
            .or_default()
            .push(FunctionDef {
                scheme,
                implementation,
                inline_always: false,
            });
        self
    }

    /// Declares a function overload from a `Typed[TypeSpecifier...][impl]`
    /// style expression pair (the paper's `tyEnv["declareFunction", ...]`).
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the specifier does not parse.
    pub fn declare_function_expr(
        &mut self,
        name: &str,
        scheme: &Expr,
        implementation: FunctionImpl,
    ) -> Result<&mut Self, TypeError> {
        let ty = Type::from_expr(scheme)?;
        Ok(self.declare_function(name, ty, implementation))
    }

    /// Marks the most recently declared overload of `name` as force-inline.
    pub fn set_inline_always(&mut self, name: &str) {
        if let Some(defs) = self.functions.get_mut(name) {
            if let Some(last) = defs.last_mut() {
                last.inline_always = true;
            }
        }
    }

    /// The overloads declared for `name`, in declaration order.
    pub fn lookup(&self, name: &str) -> &[FunctionDef] {
        self.functions.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any overload exists.
    pub fn is_declared(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// Number of declared function names.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// All declared names, sorted.
    pub fn function_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.keys().cloned().collect();
        names.sort();
        names
    }

    /// Resolves a call `name[args...]` against the declared overloads:
    /// instantiates each candidate scheme, unifies with promotion, checks
    /// class qualifiers, and picks the lowest-cost match. Ties raise
    /// [`ResolveError::Ambiguous`].
    ///
    /// # Errors
    ///
    /// See [`ResolveError`].
    pub fn resolve_call(&self, name: &str, args: &[Type]) -> Result<ResolvedCall, ResolveError> {
        let defs = self.lookup(name);
        if defs.is_empty() {
            return Err(ResolveError::Undeclared(name.to_owned()));
        }
        let mut best: Vec<(usize, ResolvedCall)> = Vec::new();
        for (ix, def) in defs.iter().enumerate() {
            if let Some(resolved) = self.try_match(def, ix, args) {
                best.push((ix, resolved));
            }
        }
        if best.is_empty() {
            return Err(ResolveError::NoMatch {
                name: name.to_owned(),
                args: args.to_vec(),
            });
        }
        let min_cost = best.iter().map(|(_, r)| r.cost).min().expect("nonempty");
        let winners: Vec<&(usize, ResolvedCall)> =
            best.iter().filter(|(_, r)| r.cost == min_cost).collect();
        if winners.len() > 1 {
            // Distinct instantiations at equal cost have no ordering.
            let first = &winners[0].1;
            if winners
                .iter()
                .any(|(_, r)| r.params != first.params || r.ret != first.ret)
            {
                return Err(ResolveError::Ambiguous {
                    name: name.to_owned(),
                    overloads: winners.iter().map(|(ix, _)| *ix).collect(),
                });
            }
        }
        Ok(winners[0].1.clone())
    }

    /// Attempts to match one overload. Returns the instantiated call info
    /// with its promotion cost.
    fn try_match(&self, def: &FunctionDef, overload: usize, args: &[Type]) -> Option<ResolvedCall> {
        let mut subst = Subst::new();
        let (body, quals, var_map) = instantiate(&def.scheme, &mut subst);
        let Type::Arrow { params, ret } = body else {
            return None;
        };
        if params.len() != args.len() {
            return None;
        }

        // Phase 0: structural pre-pass — pin scheme variables that occur
        // inside constructor parameters (e.g. the `a` of `Tensor[a, n]`)
        // so that a *bare* occurrence of the same variable joins from the
        // structural binding instead of racing it (tensor+scalar
        // broadcast: `{Tensor[a, n], a}` called at `(Tensor[Real64, 1],
        // Integer64)` must pick a = Real64 and promote the scalar).
        let mut pre = subst.clone();
        for (p, a) in params.iter().zip(args) {
            if !matches!(p, Type::Var(_)) {
                let applied = pre.apply(p);
                let _ = unify(&applied, a, &mut pre);
            }
        }

        // Phase 1: bind scheme variables appearing as bare parameters to
        // the numeric LUB of their argument types (seeded from Phase 0).
        for (_, v) in &var_map {
            let seeded = pre.apply(&Type::Var(*v));
            let mut join: Option<Type> = seeded.is_concrete().then_some(seeded);
            for (p, a) in params.iter().zip(args) {
                if p == &Type::Var(*v) {
                    join = Some(match join {
                        None => a.clone(),
                        Some(j) => numeric_lub(&j, a).or_else(|| (j == *a).then(|| j.clone()))?,
                    });
                }
            }
            if let Some(j) = join {
                subst.bind(*v, j);
            }
        }

        // Phase 2: unify structurally; atomic positions may promote.
        let mut cost = 0u32;
        for (p, a) in params.iter().zip(args) {
            let p_resolved = subst.apply(p);
            if unify(&p_resolved, a, &mut subst).is_ok() {
                continue;
            }
            cost += promotion_cost(a, &subst.apply(&p_resolved))?;
        }

        // Phase 3: check class qualifiers on the instantiated variables.
        for q in &quals {
            let v = var_map.iter().find(|(n, _)| n == &q.var).map(|(_, v)| *v)?;
            let bound = subst.apply(&Type::Var(v));
            if bound.is_var() || !self.classes.is_member(&bound, &q.class) {
                return None;
            }
        }

        let params: Vec<Type> = params.iter().map(|p| subst.apply(p)).collect();
        let ret = subst.apply(&ret);
        if params.iter().any(|p| !p.is_concrete()) || !ret.is_concrete() {
            return None;
        }
        Some(ResolvedCall {
            overload,
            params,
            ret,
            cost,
            implementation: def.implementation.clone(),
            inline_always: def.inline_always,
        })
    }
}

/// Bound-name → fresh solver variable mapping produced by [`instantiate`].
pub type InstMap = Vec<(Arc<str>, crate::ty::TypeVar)>;

/// Instantiates a scheme: replaces bound names with fresh solver variables.
/// Returns the body, the qualifiers, and the name->var mapping.
pub fn instantiate(scheme: &Type, subst: &mut Subst) -> (Type, Vec<Qualifier>, InstMap) {
    match scheme {
        Type::ForAll { vars, quals, body } => {
            let mut map = Vec::new();
            for v in vars {
                let fresh = subst.fresh();
                let Type::Var(tv) = fresh else {
                    unreachable!("fresh returns Var")
                };
                map.push((v.clone(), tv));
            }
            let body = substitute_bound(body, &map);
            (body, quals.clone(), map)
        }
        other => (other.clone(), Vec::new(), Vec::new()),
    }
}

fn substitute_bound(t: &Type, map: &[(Arc<str>, crate::ty::TypeVar)]) -> Type {
    match t {
        Type::Bound(name) => match map.iter().find(|(n, _)| n == name) {
            Some((_, v)) => Type::Var(*v),
            None => t.clone(),
        },
        Type::Constructor { name, args } => Type::Constructor {
            name: name.clone(),
            args: args.iter().map(|a| substitute_bound(a, map)).collect(),
        },
        Type::Arrow { params, ret } => Type::Arrow {
            params: params.iter().map(|p| substitute_bound(p, map)).collect(),
            ret: Box::new(substitute_bound(ret, map)),
        },
        Type::Product(args) => {
            Type::Product(args.iter().map(|a| substitute_bound(a, map)).collect())
        }
        Type::Projection { base, index } => Type::Projection {
            base: Box::new(substitute_bound(base, map)),
            index: *index,
        },
        Type::ForAll { vars, quals, body } => {
            // Inner quantifiers shadow: drop shadowed entries.
            let filtered: Vec<(Arc<str>, crate::ty::TypeVar)> = map
                .iter()
                .filter(|(n, _)| !vars.contains(n))
                .cloned()
                .collect();
            Type::ForAll {
                vars: vars.clone(),
                quals: quals.clone(),
                body: Box::new(substitute_bound(body, &filtered)),
            }
        }
        _ => t.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    fn scheme(src: &str) -> Type {
        Type::from_expr(&parse(src).unwrap()).unwrap()
    }

    fn min_env() -> TypeEnvironment {
        let mut env = TypeEnvironment::new();
        // The paper's Min declaration: TypeForAll[{a}, {a in Ordered},
        // {a, a} -> a].
        env.declare_function(
            "Min",
            scheme("TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"a\"]"),
            FunctionImpl::Primitive(Prim::Min),
        );
        env
    }

    #[test]
    fn monomorphic_resolution() {
        let mut env = TypeEnvironment::new();
        env.declare_function(
            "Plus",
            scheme("{\"Integer64\", \"Integer64\"} -> \"Integer64\""),
            FunctionImpl::Primitive(Prim::Plus),
        );
        let r = env
            .resolve_call("Plus", &[Type::integer64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.ret, Type::integer64());
        assert_eq!(r.cost, 0);
        assert!(env
            .resolve_call("Plus", &[Type::string(), Type::integer64()])
            .is_err());
        assert!(matches!(
            env.resolve_call("NoSuch", &[]),
            Err(ResolveError::Undeclared(_))
        ));
    }

    #[test]
    fn polymorphic_qualified_resolution() {
        let env = min_env();
        // Integers are Ordered.
        let r = env
            .resolve_call("Min", &[Type::integer64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.ret, Type::integer64());
        // Reals are Ordered.
        let r = env
            .resolve_call("Min", &[Type::real64(), Type::real64()])
            .unwrap();
        assert_eq!(r.ret, Type::real64());
        // Complex is not Ordered (paper: "integer and reals, but not
        // complex").
        assert!(env
            .resolve_call("Min", &[Type::complex(), Type::complex()])
            .is_err());
    }

    #[test]
    fn promotion_joins_mixed_arguments() {
        let env = min_env();
        // Min[i64, r64] joins at Real64 with promotion cost on the left.
        let r = env
            .resolve_call("Min", &[Type::integer64(), Type::real64()])
            .unwrap();
        assert_eq!(r.ret, Type::real64());
        assert!(r.cost > 0);
        assert_eq!(r.params, vec![Type::real64(), Type::real64()]);
    }

    #[test]
    fn overload_specificity_prefers_exact() {
        let mut env = TypeEnvironment::new();
        env.declare_function(
            "F",
            scheme("{\"Real64\"} -> \"Real64\""),
            FunctionImpl::Primitive(Prim::Sign),
        );
        env.declare_function(
            "F",
            scheme("{\"Integer64\"} -> \"Integer64\""),
            FunctionImpl::Primitive(Prim::Abs),
        );
        let r = env.resolve_call("F", &[Type::integer64()]).unwrap();
        assert_eq!(
            r.overload, 1,
            "exact integer overload wins over promotion to real"
        );
        let r = env.resolve_call("F", &[Type::real64()]).unwrap();
        assert_eq!(r.overload, 0);
    }

    #[test]
    fn arity_overloading() {
        // "This is different from some other languages which do not allow
        // for arity-based overloading."
        let mut env = TypeEnvironment::new();
        env.declare_function(
            "G",
            scheme("{\"Integer64\"} -> \"Integer64\""),
            FunctionImpl::Primitive(Prim::Minus),
        );
        env.declare_function(
            "G",
            scheme("{\"Integer64\", \"Integer64\"} -> \"Integer64\""),
            FunctionImpl::Primitive(Prim::Plus),
        );
        assert_eq!(
            env.resolve_call("G", &[Type::integer64()])
                .unwrap()
                .overload,
            0
        );
        assert_eq!(
            env.resolve_call("G", &[Type::integer64(), Type::integer64()])
                .unwrap()
                .overload,
            1
        );
    }

    #[test]
    fn ambiguity_detected() {
        let mut env = TypeEnvironment::new();
        // Two distinct overloads both reachable at equal promotion cost
        // from Integer64 but with different results: ambiguous.
        env.declare_function(
            "H",
            scheme("{\"Real64\"} -> \"Integer64\""),
            FunctionImpl::Primitive(Prim::Floor),
        );
        env.declare_function(
            "H",
            scheme("{\"Real64\"} -> \"Real64\""),
            FunctionImpl::Primitive(Prim::Convert),
        );
        assert!(matches!(
            env.resolve_call("H", &[Type::real64()]),
            Err(ResolveError::Ambiguous { .. })
        ));
    }

    #[test]
    fn tensor_element_unification() {
        let mut env = TypeEnvironment::new();
        // Fold-style container signature: {Tensor[a,1]} -> a, a in Ordered.
        env.declare_function(
            "MinContainer",
            scheme(
                "TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, \
                 {\"Tensor\"[\"a\", 1]} -> \"a\"]",
            ),
            FunctionImpl::Primitive(Prim::Min),
        );
        let r = env
            .resolve_call("MinContainer", &[Type::tensor(Type::real64(), 1)])
            .unwrap();
        assert_eq!(r.ret, Type::real64());
        assert!(env
            .resolve_call("MinContainer", &[Type::tensor(Type::complex(), 1)])
            .is_err());
    }

    #[test]
    fn source_implementations_carried() {
        let mut env = TypeEnvironment::new();
        let body = parse("Function[{e1, e2}, If[e1 < e2, e1, e2]]").unwrap();
        env.declare_function(
            "MyMin",
            scheme("TypeForAll[{\"a\"}, {Element[\"a\", \"Ordered\"]}, {\"a\", \"a\"} -> \"a\"]"),
            FunctionImpl::Source(body.clone()),
        );
        let r = env
            .resolve_call("MyMin", &[Type::integer64(), Type::integer64()])
            .unwrap();
        assert_eq!(r.implementation, FunctionImpl::Source(body));
    }

    #[test]
    fn declare_from_expr() {
        let mut env = TypeEnvironment::new();
        env.declare_function_expr(
            "AddOne",
            &parse("{\"MachineInteger\"} -> \"MachineInteger\"").unwrap(),
            FunctionImpl::Kernel,
        )
        .unwrap();
        assert!(env.is_declared("AddOne"));
        assert_eq!(env.function_count(), 1);
    }
}
