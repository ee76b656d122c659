//! Greedy counterexample reduction.
//!
//! Given a diverging program, repeatedly try local simplifications of the
//! function body — replace a node by one of its children, by a small
//! literal, drop `CompoundExpression` statements and `Module` locals,
//! halve integer literals — keeping any candidate that still diverges.
//! Candidates that no longer compile on every engine are simply skipped
//! (the divergence predicate is only meaningful inside the common subset).
//!
//! The result is a *replayable* artifact: the shrunk source together with
//! the argument set that still distinguishes the engines.

use crate::oracle::{prepare, Finding, PreparedSubject};
use wolfram_expr::{parse, Expr, ExprKind};
use wolfram_runtime::Value;

/// Upper bound on oracle evaluations during one shrink, so pathological
/// cases cannot stall a fuzzing run.
const MAX_CHECKS: usize = 400;

/// The reduced counterexample.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// Canonical shrunk `Function[...]` (parses from its own source).
    pub func: Expr,
    /// The single argument set that still demonstrates the divergence.
    pub args: Vec<Value>,
    /// The surviving divergence.
    pub finding: Finding,
}

/// Shrinks `func` while `args` (some argument set in `arg_sets`) still
/// makes the engines disagree. Returns `None` when the input does not
/// diverge in the first place (nothing to shrink).
pub fn shrink(func: &Expr, arg_sets: &[Vec<Value>]) -> Option<Shrunk> {
    shrink_with(func, arg_sets, |f, sets, checks| {
        first_divergence(f, sets, checks)
    })
}

/// Shrinks `func` while the `wolfram-analyze` checkers still reject it
/// under the default pipeline ([`crate::oracle::verify_failure`]).
/// Analyzer findings need no argument set, so the artifact carries an
/// empty one.
pub fn shrink_verify(func: &Expr) -> Option<Shrunk> {
    shrink_with(func, &[Vec::new()], |f, _sets, checks| {
        *checks += 1;
        crate::oracle::verify_failure(f).map(|note| {
            (
                Vec::new(),
                Finding {
                    note,
                    imbalance: false,
                },
            )
        })
    })
}

/// The generic greedy reducer: keeps any smaller candidate on which
/// `failing` still reports something. The predicate receives the
/// candidate, the argument sets to try, and the shared check budget
/// counter; it returns the argument set and finding of a surviving failure.
fn shrink_with(
    func: &Expr,
    arg_sets: &[Vec<Value>],
    mut failing: impl FnMut(&Expr, &[Vec<Value>], &mut usize) -> Option<(Vec<Value>, Finding)>,
) -> Option<Shrunk> {
    let mut checks = 0usize;
    // Pin down one failing argument set first: shrinking against a
    // single set keeps the predicate stable and the artifact replayable.
    let (mut args, mut finding) = failing(func, arg_sets, &mut checks)?;
    let mut best = func.clone();

    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if checks >= MAX_CHECKS {
                return Some(Shrunk {
                    func: best,
                    args,
                    finding,
                });
            }
            if size(&candidate) >= size(&best) {
                continue;
            }
            // Canonicalize so the artifact source still reparses to the
            // tree we actually tested.
            let Ok(canon) = parse(&candidate.to_input_form()) else {
                continue;
            };
            if !is_well_scoped(&canon) {
                continue;
            }
            if let Some((a, found)) = failing(&canon, std::slice::from_ref(&args), &mut checks) {
                best = canon;
                args = a;
                finding = found;
                improved = true;
                break; // restart the candidate scan from the smaller tree
            }
        }
        if !improved {
            return Some(Shrunk {
                func: best,
                args,
                finding,
            });
        }
    }
}

/// Whether every symbol the candidate references is bound by a parameter
/// or an enclosing `Module`. A mutation can orphan a variable (dropping
/// its binding while a use survives in dead-statement position), and
/// engines disagree wildly outside the scoped subset — the interpreter
/// evaluates around a free symbol where the compiled engines raise a type
/// error — so such candidates are skipped rather than run.
fn is_well_scoped(func: &Expr) -> bool {
    let mut env: Vec<String> = Vec::new();
    if let Some(params) = func.args().first() {
        for p in params.args() {
            if let Some(name) = p.args().first().and_then(|s| s.as_symbol()) {
                env.push(name.name().to_owned());
            }
        }
    }
    func.args().get(1).is_none_or(|body| scoped(body, &mut env))
}

fn scoped(e: &Expr, env: &mut Vec<String>) -> bool {
    match e.kind() {
        ExprKind::Symbol(s) => {
            let name = s.name();
            matches!(name, "True" | "False" | "Null") || env.iter().any(|b| b == name)
        }
        ExprKind::Normal(n) => {
            if n.head().is_symbol("Module") && n.args().len() == 2 {
                let depth = env.len();
                for local in n.args()[0].args() {
                    let (name, init) = if local.has_head("Set") && local.length() == 2 {
                        (local.args()[0].as_symbol(), Some(&local.args()[1]))
                    } else {
                        (local.as_symbol(), None)
                    };
                    let init_ok = init.is_none_or(|i| scoped(i, env));
                    let Some(name) = name else {
                        env.truncate(depth);
                        return false;
                    };
                    if !init_ok {
                        env.truncate(depth);
                        return false;
                    }
                    env.push(name.name().to_owned());
                }
                let ok = scoped(&n.args()[1], env);
                env.truncate(depth);
                return ok;
            }
            n.args().iter().all(|a| scoped(a, env))
        }
        _ => true,
    }
}

/// Runs every argument set, returning the first that diverges.
fn first_divergence(
    func: &Expr,
    arg_sets: &[Vec<Value>],
    checks: &mut usize,
) -> Option<(Vec<Value>, Finding)> {
    let subject: PreparedSubject = prepare(func).ok()?;
    for args in arg_sets {
        *checks += 1;
        if let Some(finding) = subject.run(args).divergence() {
            return Some((args.clone(), finding));
        }
    }
    None
}

/// Total node count — the measure shrinking drives down.
fn size(e: &Expr) -> usize {
    match e.kind() {
        ExprKind::Normal(n) => 1 + size(n.head()) + n.args().iter().map(size).sum::<usize>(),
        _ => 1,
    }
}

/// All one-step simplifications of the *body* (parameter list is kept, so
/// the argument set stays applicable).
fn candidates(func: &Expr) -> Vec<Expr> {
    let params = func.args()[0].clone();
    let body = &func.args()[1];
    body_candidates(body)
        .into_iter()
        .map(|b| Expr::call("Function", [params.clone(), b]))
        .collect()
}

fn body_candidates(body: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    let n = count(body);
    for ix in 0..n {
        let node = get(body, ix).expect("index in range");
        // Hoist each child over the node.
        if let ExprKind::Normal(sub) = node.kind() {
            for child in sub.args() {
                out.push(replace(body, ix, child));
            }
            // Drop one argument of a statement sequence at a time.
            if sub.head().is_symbol("CompoundExpression") && sub.args().len() > 1 {
                for drop_i in 0..sub.args().len() {
                    let kept: Vec<Expr> = sub
                        .args()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop_i)
                        .map(|(_, a)| a.clone())
                        .collect();
                    let slim = if kept.len() == 1 {
                        kept.into_iter().next().expect("one kept")
                    } else {
                        Expr::call("CompoundExpression", kept)
                    };
                    out.push(replace(body, ix, &slim));
                }
            }
            // Drop one Module local at a time.
            if sub.head().is_symbol("Module") && sub.args().len() == 2 {
                let locals = &sub.args()[0];
                if locals.has_head("List") && locals.length() > 0 {
                    for drop_i in 0..locals.args().len() {
                        let kept: Vec<Expr> = locals
                            .args()
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != drop_i)
                            .map(|(_, a)| a.clone())
                            .collect();
                        let slim = Expr::call("Module", [Expr::list(kept), sub.args()[1].clone()]);
                        out.push(replace(body, ix, &slim));
                    }
                }
            }
        }
        // Literal replacements and reductions.
        match node.kind() {
            ExprKind::Integer(v) if *v != 0 => {
                out.push(replace(body, ix, &Expr::int(0)));
                if v.abs() > 1 {
                    out.push(replace(body, ix, &Expr::int(v / 2)));
                }
            }
            ExprKind::Real(v) if *v != 0.0 => {
                out.push(replace(body, ix, &Expr::real(0.0)));
            }
            ExprKind::Normal(_) => {
                out.push(replace(body, ix, &Expr::int(1)));
            }
            _ => {}
        }
    }
    out
}

/// Preorder node count (heads are not positions; arguments are).
fn count(e: &Expr) -> usize {
    match e.kind() {
        ExprKind::Normal(n) => 1 + n.args().iter().map(count).sum::<usize>(),
        _ => 1,
    }
}

/// The node at preorder index `ix`.
fn get(e: &Expr, ix: usize) -> Option<&Expr> {
    fn go<'a>(e: &'a Expr, ix: &mut usize) -> Option<&'a Expr> {
        if *ix == 0 {
            return Some(e);
        }
        *ix -= 1;
        if let ExprKind::Normal(n) = e.kind() {
            for a in n.args() {
                if let Some(hit) = go(a, ix) {
                    return Some(hit);
                }
            }
        }
        None
    }
    let mut ix = ix;
    go(e, &mut ix)
}

/// A copy of `e` with the node at preorder index `ix` replaced.
fn replace(e: &Expr, ix: usize, new: &Expr) -> Expr {
    fn go(e: &Expr, ix: &mut usize, new: &Expr) -> Expr {
        if *ix == 0 {
            *ix = usize::MAX; // consumed
            return new.clone();
        }
        *ix -= 1;
        if let ExprKind::Normal(n) = e.kind() {
            let args: Vec<Expr> = n.args().iter().map(|a| go(a, ix, new)).collect();
            Expr::normal(n.head().clone(), args)
        } else {
            e.clone()
        }
    }
    let mut ix = ix;
    go(e, &mut ix, new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    #[test]
    fn tree_editing_roundtrips() {
        let e = parse("Plus[1, Times[2, 3]]").unwrap();
        assert_eq!(count(&e), 5); // Plus, 1, Times, 2, 3
        assert_eq!(get(&e, 0).unwrap(), &e);
        assert_eq!(get(&e, 1).unwrap(), &Expr::int(1));
        let swapped = replace(&e, 2, &Expr::int(7));
        assert_eq!(swapped, parse("Plus[1, 7]").unwrap());
    }

    #[test]
    fn non_diverging_input_yields_none() {
        let func = parse("Function[{Typed[p1, \"MachineInteger\"]}, p1 + 1]").unwrap();
        assert!(shrink(&func, &[vec![wolfram_runtime::Value::I64(3)]]).is_none());
    }
}
