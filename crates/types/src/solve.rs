//! The constraint-graph solver (§4.4).
//!
//! "The solver creates a graph where every node in the graph is a
//! constraint. An edge exists between two constraints in the graph if their
//! free variable sets overlap. ... substitution ... is applied iteratively
//! only on the strongly connected components of the graph."
//!
//! The solver computes SCCs (Tarjan), orders components topologically, and
//! iterates within each component until a fixed point: equalities unify
//! immediately; call constraints resolve once their argument types are
//! concrete enough; alternatives pick the lowest-promotion-cost option with
//! ambiguity detection.

use crate::constraint::Constraint;
use crate::env::{ResolveError, ResolvedCall, TypeEnvironment};
use crate::subst::{promotion_cost, unify, Subst};
use crate::ty::{Type, TypeVar};
use std::collections::HashMap;

/// Inference failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// A unification failure with provenance.
    Mismatch {
        /// Description of the clash.
        message: String,
        /// The constraint's origin.
        origin: String,
    },
    /// A call failed to resolve.
    Resolution(ResolveError),
    /// No progress could be made; types remain unknown. The paper's
    /// compiler reports a missing-type error at code generation (§4.6).
    Unresolved {
        /// Display forms of the stuck constraints.
        stuck: Vec<String>,
    },
    /// An alternative had no valid option.
    NoAlternative {
        /// The constrained type.
        t: String,
        /// Provenance.
        origin: String,
    },
    /// An alternative had tied options with no specificity ordering.
    AmbiguousAlternative {
        /// The constrained type.
        t: String,
        /// Provenance.
        origin: String,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Mismatch { message, origin } => write!(f, "{message} (at {origin})"),
            SolveError::Resolution(e) => write!(f, "{e}"),
            SolveError::Unresolved { stuck } => {
                write!(f, "could not infer types for: {}", stuck.join("; "))
            }
            SolveError::NoAlternative { t, origin } => {
                write!(f, "no alternative matches {t} (at {origin})")
            }
            SolveError::AmbiguousAlternative { t, origin } => {
                write!(f, "ambiguous alternatives for {t} (at {origin})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// The output of a successful solve.
#[derive(Debug, Default)]
pub struct Solution {
    /// The final substitution; apply it to every annotated type.
    pub subst: Subst,
    /// Chosen overload per call site.
    pub calls: HashMap<usize, ResolvedCall>,
}

/// Solves a constraint set against a type environment.
///
/// # Errors
///
/// See [`SolveError`].
pub fn solve(
    constraints: Vec<Constraint>,
    env: &TypeEnvironment,
    mut subst: Subst,
) -> Result<Solution, SolveError> {
    let components = scc_order(&constraints);
    let mut solution = Solution {
        subst: Subst::new(),
        calls: HashMap::new(),
    };
    // Never hand out fresh variables that collide with the caller's.
    for c in &constraints {
        for v in c.free_vars() {
            subst.reserve(v.0);
        }
    }

    for component in components {
        let mut pending: Vec<&Constraint> = component.iter().map(|&ix| &constraints[ix]).collect();
        loop {
            let before = pending.len();
            let mut still_pending = Vec::new();
            for c in std::mem::take(&mut pending) {
                if !process(c, env, &mut subst, &mut solution, false)? {
                    still_pending.push(c);
                }
            }
            pending = still_pending;
            // Stop at quiescence: either everything discharged or no
            // progress (the global retry below gets another look).
            if pending.is_empty() || pending.len() == before {
                break;
            }
        }
        // Global retry of anything still stuck in this component.
        let mut stuck: Vec<&Constraint> = pending;
        for _ in 0..4 {
            if stuck.is_empty() {
                break;
            }
            let before = stuck.len();
            let mut next = Vec::new();
            for c in stuck {
                if !process(c, env, &mut subst, &mut solution, true)? {
                    next.push(c);
                }
            }
            stuck = next;
            if stuck.len() == before {
                break;
            }
        }
        if !stuck.is_empty() {
            return Err(SolveError::Unresolved {
                stuck: stuck
                    .iter()
                    .map(|c| format!("{} (at {})", render(c, &subst), c.origin()))
                    .collect(),
            });
        }
    }
    solution.subst = subst;
    Ok(solution)
}

fn render(c: &Constraint, subst: &Subst) -> String {
    match c {
        Constraint::Call {
            name, args, ret, ..
        } => {
            let args: Vec<String> = args.iter().map(|a| subst.apply(a).to_string()).collect();
            format!("{name}({}) -> {}", args.join(", "), subst.apply(ret))
        }
        other => other.to_string(),
    }
}

/// Processes a constraint; returns whether it was discharged. `force`
/// (set during the stuck-retry phase) enables single-overload commitment
/// for `Call` constraints whose arguments are not yet concrete.
fn process(
    c: &Constraint,
    env: &TypeEnvironment,
    subst: &mut Subst,
    solution: &mut Solution,
    force: bool,
) -> Result<bool, SolveError> {
    match c {
        Constraint::Equality { a, b, origin } => {
            unify(a, b, subst).map_err(|e| SolveError::Mismatch {
                message: e.message,
                origin: origin.clone(),
            })?;
            Ok(true)
        }
        Constraint::Instantiate { tau, rho, origin } => {
            let (body, quals, var_map) = crate::env::instantiate(&subst.apply(rho), subst);
            unify(tau, &body, subst).map_err(|e| SolveError::Mismatch {
                message: e.message,
                origin: origin.clone(),
            })?;
            // Qualifiers on the instantiation must hold once resolved.
            for q in &quals {
                if let Some((_, v)) = var_map.iter().find(|(n, _)| n == &q.var) {
                    let bound = subst.apply(&Type::Var(*v));
                    if !bound.is_var() && !env.classes.is_member(&bound, &q.class) {
                        return Err(SolveError::Mismatch {
                            message: format!("{bound} is not in class {}", q.class),
                            origin: origin.clone(),
                        });
                    }
                }
            }
            Ok(true)
        }
        Constraint::Generalize {
            sigma, tau, mono, ..
        } => {
            let resolved = subst.apply(tau);
            let free: Vec<TypeVar> = resolved
                .free_vars()
                .into_iter()
                .filter(|v| !mono.contains(v))
                .collect();
            if free.is_empty() {
                subst.bind(*sigma, resolved);
                return Ok(true);
            }
            // Quantify the remaining free variables into a scheme.
            let mut names = Vec::new();
            let mut renamed = resolved.clone();
            for (ix, v) in free.iter().enumerate() {
                let name: std::sync::Arc<str> = std::sync::Arc::from(format!("g{ix}"));
                names.push(name.clone());
                renamed = replace_var(&renamed, *v, &Type::Bound(name));
            }
            subst.bind(
                *sigma,
                Type::ForAll {
                    vars: names,
                    quals: Vec::new(),
                    body: Box::new(renamed),
                },
            );
            Ok(true)
        }
        Constraint::Alternative { t, options, origin } => {
            let resolved = subst.apply(t);
            if resolved.is_var() {
                return Ok(false); // wait for more information
            }
            let mut best: Option<(u32, &Type)> = None;
            let mut tie = false;
            for o in options {
                let cost = if unify_clone(&resolved, o, subst) {
                    Some(0)
                } else {
                    promotion_cost(&resolved, &subst.apply(o))
                };
                if let Some(cost) = cost {
                    match &best {
                        None => best = Some((cost, o)),
                        Some((b, prev)) if cost < *b => {
                            best = Some((cost, o));
                            tie = false;
                        }
                        Some((b, prev)) if cost == *b && subst.apply(prev) != subst.apply(o) => {
                            tie = true;
                        }
                        _ => {}
                    }
                }
            }
            match best {
                None => Err(SolveError::NoAlternative {
                    t: resolved.to_string(),
                    origin: origin.clone(),
                }),
                Some(_) if tie => Err(SolveError::AmbiguousAlternative {
                    t: resolved.to_string(),
                    origin: origin.clone(),
                }),
                Some((_, o)) => {
                    let _ = unify(&resolved, o, subst);
                    Ok(true)
                }
            }
        }
        Constraint::Call {
            site,
            name,
            args,
            ret,
            origin,
        } => {
            let mut resolved_args: Vec<Type> = args.iter().map(|a| subst.apply(a)).collect();
            if resolved_args.iter().any(|a| !a.is_concrete()) {
                // Single-overload forcing: when nothing else can make
                // progress and the name has exactly one signature, commit
                // that signature's structure. This is how a higher-order
                // argument (an untyped lambda passed to Fold/Map) learns
                // its parameter types: unifying `{a, b} -> a` against the
                // closure's arrow pins the lambda's parameters.
                let defs = env.lookup(name);
                if force && defs.len() == 1 {
                    let mut trial = subst.clone();
                    let (body, _, _) = crate::env::instantiate(&defs[0].scheme, &mut trial);
                    if let Type::Arrow { params, .. } = body {
                        if params.len() == resolved_args.len()
                            && params
                                .iter()
                                .zip(&resolved_args)
                                .all(|(p, a)| unify(p, a, &mut trial).is_ok())
                        {
                            *subst = trial;
                            resolved_args = args.iter().map(|a| subst.apply(a)).collect();
                        }
                    }
                }
                if resolved_args.iter().any(|a| !a.is_concrete()) {
                    return Ok(false); // arguments not known yet
                }
            }
            let call = env
                .resolve_call(name, &resolved_args)
                .map_err(SolveError::Resolution)?;
            unify(ret, &call.ret, subst).map_err(|e| SolveError::Mismatch {
                message: e.message,
                origin: origin.clone(),
            })?;
            solution.calls.insert(*site, call);
            Ok(true)
        }
    }
}

fn unify_clone(a: &Type, b: &Type, subst: &mut Subst) -> bool {
    let mut trial = subst.clone();
    if unify(a, b, &mut trial).is_ok() {
        *subst = trial;
        true
    } else {
        false
    }
}

fn replace_var(t: &Type, v: TypeVar, with: &Type) -> Type {
    match t {
        Type::Var(x) if *x == v => with.clone(),
        Type::Constructor { name, args } => Type::Constructor {
            name: name.clone(),
            args: args.iter().map(|a| replace_var(a, v, with)).collect(),
        },
        Type::Arrow { params, ret } => Type::Arrow {
            params: params.iter().map(|p| replace_var(p, v, with)).collect(),
            ret: Box::new(replace_var(ret, v, with)),
        },
        Type::Product(args) => {
            Type::Product(args.iter().map(|a| replace_var(a, v, with)).collect())
        }
        Type::Projection { base, index } => Type::Projection {
            base: Box::new(replace_var(base, v, with)),
            index: *index,
        },
        _ => t.clone(),
    }
}

/// Builds the constraint graph and returns constraint indices grouped into
/// strongly connected components in (reverse-topological-corrected)
/// dependency order.
fn scc_order(constraints: &[Constraint]) -> Vec<Vec<usize>> {
    let n = constraints.len();
    // var -> constraints mentioning it
    let mut by_var: HashMap<TypeVar, Vec<usize>> = HashMap::new();
    for (ix, c) in constraints.iter().enumerate() {
        for v in c.free_vars() {
            by_var.entry(v).or_default().push(ix);
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for members in by_var.values() {
        for &a in members {
            for &b in members {
                if a != b && !adj[a].contains(&b) {
                    adj[a].push(b);
                }
            }
        }
    }
    // Tarjan's SCC (iterative).
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    #[derive(Clone, Copy)]
    enum Frame {
        Enter(usize),
        Continue(usize, usize),
    }
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call_stack.push(Frame::Continue(v, 0));
                }
                Frame::Continue(v, child_ix) => {
                    if child_ix < adj[v].len() {
                        let w = adj[v][child_ix];
                        call_stack.push(Frame::Continue(v, child_ix + 1));
                        if index[w] == usize::MAX {
                            call_stack.push(Frame::Enter(w));
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    } else {
                        // Post-processing: fold children lows.
                        for &w in &adj[v] {
                            if (on_stack[w] || low[w] < low[v]) && index[w] > index[v] {
                                low[v] = low[v].min(low[w]);
                            }
                        }
                        if low[v] == index[v] {
                            let mut comp = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w] = false;
                                comp.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            comp.sort_unstable();
                            components.push(comp);
                        }
                    }
                }
            }
        }
    }
    // Components come out in reverse topological order for the (symmetric)
    // overlap graph; ordering within a symmetric graph is by discovery,
    // which is stable enough: sort each batch by smallest constraint index
    // so earlier (definition-order) constraints run first.
    components.sort_by_key(|c| c.first().copied().unwrap_or(usize::MAX));
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::FunctionImpl;
    use std::sync::Arc;
    use wolfram_expr::parse;

    fn env_with_plus() -> TypeEnvironment {
        let mut env = TypeEnvironment::new();
        let scheme = Type::from_expr(
            &parse("TypeForAll[{\"a\"}, {Element[\"a\", \"Number\"]}, {\"a\", \"a\"} -> \"a\"]")
                .unwrap(),
        )
        .unwrap();
        env.declare_function("Plus", scheme, FunctionImpl::Primitive(crate::Prim::Plus));
        env
    }

    fn var(n: u32) -> Type {
        Type::Var(TypeVar(n))
    }

    #[test]
    fn chained_equalities() {
        let env = TypeEnvironment::new();
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: var(1),
                origin: "a".into(),
            },
            Constraint::Equality {
                a: var(1),
                b: Type::integer64(),
                origin: "b".into(),
            },
        ];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        assert_eq!(sol.subst.apply(&var(0)), Type::integer64());
    }

    #[test]
    fn call_resolution_through_vars() {
        // %2 = Plus(%0, %1) with %0 = %1 = Integer64 discovered later.
        let env = env_with_plus();
        let cs = vec![
            Constraint::Call {
                site: 7,
                name: "Plus".into(),
                args: vec![var(0), var(1)],
                ret: var(2),
                origin: "inst 7".into(),
            },
            Constraint::Equality {
                a: var(0),
                b: Type::integer64(),
                origin: "arg".into(),
            },
            Constraint::Equality {
                a: var(1),
                b: Type::integer64(),
                origin: "lit".into(),
            },
        ];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        assert_eq!(sol.subst.apply(&var(2)), Type::integer64());
        assert_eq!(sol.calls[&7].ret, Type::integer64());
    }

    #[test]
    fn mixed_call_promotes() {
        let env = env_with_plus();
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: Type::integer64(),
                origin: "x".into(),
            },
            Constraint::Equality {
                a: var(1),
                b: Type::real64(),
                origin: "y".into(),
            },
            Constraint::Call {
                site: 1,
                name: "Plus".into(),
                args: vec![var(0), var(1)],
                ret: var(2),
                origin: "call".into(),
            },
        ];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        assert_eq!(sol.subst.apply(&var(2)), Type::real64());
        assert!(sol.calls[&1].cost > 0);
    }

    #[test]
    fn mismatch_reported_with_origin() {
        let env = TypeEnvironment::new();
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: Type::integer64(),
                origin: "first".into(),
            },
            Constraint::Equality {
                a: var(0),
                b: Type::string(),
                origin: "second".into(),
            },
        ];
        match solve(cs, &env, Subst::new()) {
            Err(SolveError::Mismatch { origin, .. }) => assert_eq!(origin, "second"),
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unresolved_reported() {
        let env = env_with_plus();
        // A call whose arguments never become known.
        let cs = vec![Constraint::Call {
            site: 0,
            name: "Plus".into(),
            args: vec![var(0), var(1)],
            ret: var(2),
            origin: "dangling".into(),
        }];
        assert!(matches!(
            solve(cs, &env, Subst::new()),
            Err(SolveError::Unresolved { .. })
        ));
    }

    #[test]
    fn alternatives_pick_most_specific() {
        let env = TypeEnvironment::new();
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: Type::integer64(),
                origin: "v".into(),
            },
            Constraint::Alternative {
                t: var(0),
                options: vec![Type::real64(), Type::integer64()],
                origin: "alt".into(),
            },
        ];
        // Integer64 matches exactly (cost 0) over Real64 (promotion).
        assert!(solve(cs, &env, Subst::new()).is_ok());
    }

    #[test]
    fn alternative_failure_modes() {
        let env = TypeEnvironment::new();
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: Type::string(),
                origin: "v".into(),
            },
            Constraint::Alternative {
                t: var(0),
                options: vec![Type::real64(), Type::integer64()],
                origin: "alt".into(),
            },
        ];
        assert!(matches!(
            solve(cs, &env, Subst::new()),
            Err(SolveError::NoAlternative { .. })
        ));
    }

    #[test]
    fn instantiate_constraint() {
        let env = TypeEnvironment::new();
        let scheme = Type::for_all(
            &["a"],
            &[],
            Type::arrow(
                vec![Type::Bound(Arc::from("a"))],
                Type::Bound(Arc::from("a")),
            ),
        );
        let cs = vec![
            Constraint::Instantiate {
                tau: var(0),
                rho: scheme,
                origin: "inst".into(),
            },
            Constraint::Equality {
                a: var(0),
                b: Type::arrow(vec![Type::integer64()], var(1)),
                origin: "use".into(),
            },
        ];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        assert_eq!(sol.subst.apply(&var(1)), Type::integer64());
    }

    #[test]
    fn generalize_constraint() {
        let env = TypeEnvironment::new();
        let cs = vec![Constraint::Generalize {
            sigma: TypeVar(5),
            tau: Type::arrow(vec![var(0)], var(0)),
            mono: vec![],
            origin: "gen".into(),
        }];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        match sol.subst.apply(&var(5)) {
            Type::ForAll { vars, .. } => assert_eq!(vars.len(), 1),
            other => panic!("expected scheme, got {other}"),
        }
    }

    #[test]
    fn generalize_respects_mono_set() {
        let env = TypeEnvironment::new();
        let cs = vec![Constraint::Generalize {
            sigma: TypeVar(5),
            tau: Type::arrow(vec![var(0)], var(1)),
            mono: vec![TypeVar(0)],
            origin: "gen".into(),
        }];
        let sol = solve(cs, &env, Subst::new()).unwrap();
        match sol.subst.apply(&var(5)) {
            Type::ForAll { vars, body, .. } => {
                assert_eq!(vars.len(), 1);
                // var(0) stays free inside the scheme body.
                assert_eq!(body.free_vars(), vec![TypeVar(0)]);
            }
            other => panic!("expected scheme, got {other}"),
        }
    }

    #[test]
    fn scc_groups_connected_constraints() {
        let cs = vec![
            Constraint::Equality {
                a: var(0),
                b: var(1),
                origin: String::new(),
            },
            Constraint::Equality {
                a: var(1),
                b: var(2),
                origin: String::new(),
            },
            Constraint::Equality {
                a: var(9),
                b: Type::integer64(),
                origin: String::new(),
            },
        ];
        let comps = scc_order(&cs);
        // Constraints 0 and 1 share %t1 -> same component; 2 is isolated.
        let of = |ix: usize| comps.iter().position(|c| c.contains(&ix)).unwrap();
        assert_eq!(of(0), of(1));
        assert_ne!(of(0), of(2));
    }
}
