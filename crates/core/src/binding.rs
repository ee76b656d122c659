//! Binding analysis (§4.2): "The binding analysis uses the MExpr visitor
//! API to traverse all scoping constructs within the MExpr. It then adds
//! metadata to each variable and links it to its binding expression. Along
//! the way, the MExpr is mutated and all scoping constructs are desugared,
//! nested scopes are flattened out, and variables are renamed to avoid
//! shadowing. ... Escape analysis is also performed as part of the binding
//! analysis. Escaped variables are annotated and are used during closure
//! conversion." Here the links are the unique names themselves (no node
//! carries metadata), and escapes are reported in [`BoundFunction::escaped`].

use std::collections::{HashMap, HashSet};
use std::fmt;
use wolfram_expr::rules::substitute_symbols;
use wolfram_expr::{Expr, ExprKind, Symbol};
use wolfram_types::{Type, TypeError};

/// A function after binding analysis: unique names, desugared scopes,
/// named parameters, and escape information.
#[derive(Debug, Clone)]
pub struct BoundFunction {
    /// Parameter names (renamed apart) with their `Typed` annotations.
    pub params: Vec<(String, Option<Type>)>,
    /// The normalized body: no `Module`/`With`/`Block` scoping constructs
    /// remain (inits became `Set` statements), no slot functions remain,
    /// and every bound name is globally unique.
    pub body: Expr,
    /// Variables that escape into nested `Function`s (candidates for
    /// closure capture).
    pub escaped: HashSet<String>,
}

/// Binding-analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BindingError {
    /// The input is not a `Function[...]` expression.
    NotAFunction(String),
    /// A malformed parameter or scoping specification.
    Malformed(String),
    /// A bad `Typed` specification.
    BadType(String),
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingError::NotAFunction(what) => {
                write!(f, "FunctionCompile expects a Function, got {what}")
            }
            BindingError::Malformed(what) => write!(f, "malformed binding construct: {what}"),
            BindingError::BadType(what) => write!(f, "invalid type annotation: {what}"),
        }
    }
}

impl std::error::Error for BindingError {}

impl From<TypeError> for BindingError {
    fn from(e: TypeError) -> Self {
        BindingError::BadType(e.0)
    }
}

struct Analyzer {
    counter: u64,
    escaped: HashSet<String>,
}

impl Analyzer {
    fn fresh(&mut self, base: &str) -> String {
        self.counter += 1;
        format!("{base}${}", self.counter)
    }
}

/// Analyzes a `Function[...]` expression.
///
/// # Errors
///
/// See [`BindingError`].
pub fn analyze(f: &Expr) -> Result<BoundFunction, BindingError> {
    if !f.has_head("Function") {
        return Err(BindingError::NotAFunction(f.head().to_input_form()));
    }
    let mut a = Analyzer {
        counter: 0,
        escaped: HashSet::new(),
    };
    let normalized = normalize_lambda(f, &mut a)?;
    // normalize_lambda returns Function[{params...}, body].
    let params_e = &normalized.args()[0];
    let body = normalized.args()[1].clone();
    let mut params = Vec::new();
    for p in params_e.args() {
        params.push(parse_param(p)?);
    }
    // Escape analysis: any renamed/bound name occurring inside a nested
    // Function in the final body escapes.
    let mut escaped = HashSet::new();
    collect_escapes(&body, &mut escaped);
    escaped.extend(a.escaped);
    Ok(BoundFunction {
        params,
        body,
        escaped,
    })
}

fn parse_param(p: &Expr) -> Result<(String, Option<Type>), BindingError> {
    if let Some(s) = p.as_symbol() {
        return Ok((s.name().to_owned(), None));
    }
    if p.has_head("Typed") && p.length() == 2 {
        let Some(s) = p.args()[0].as_symbol() else {
            return Err(BindingError::Malformed(format!(
                "Typed parameter name {}",
                p.to_input_form()
            )));
        };
        let ty = Type::from_expr(&p.args()[1])?;
        return Ok((s.name().to_owned(), Some(ty)));
    }
    Err(BindingError::Malformed(format!(
        "parameter {}",
        p.to_input_form()
    )))
}

/// Normalizes a lambda: slot form -> named params, parameters renamed
/// apart, body transformed.
fn normalize_lambda(f: &Expr, a: &mut Analyzer) -> Result<Expr, BindingError> {
    let args = f.args();
    let (param_specs, raw_body): (Vec<Expr>, Expr) = match args.len() {
        // Slot form: Function[body].
        1 => {
            let body = &args[0];
            let max_slot = max_slot_index(body);
            let names: Vec<String> = (1..=max_slot)
                .map(|ix| a.fresh(&format!("slot{ix}")))
                .collect();
            let body = substitute_slot_exprs(body, &names);
            (names.into_iter().map(|n| Expr::sym(&n)).collect(), body)
        }
        _ => {
            let params = &args[0];
            let specs: Vec<Expr> = if params.has_head("List") {
                params.args().to_vec()
            } else {
                vec![params.clone()]
            };
            // Rename parameters apart.
            let mut renames: HashMap<Symbol, Expr> = HashMap::new();
            let mut new_specs = Vec::with_capacity(specs.len());
            for spec in &specs {
                let (sym, ty) = if let Some(s) = spec.as_symbol() {
                    (s, None)
                } else if spec.has_head("Typed") && spec.length() == 2 {
                    let Some(s) = spec.args()[0].as_symbol() else {
                        return Err(BindingError::Malformed(spec.to_input_form()));
                    };
                    (s, Some(spec.args()[1].clone()))
                } else {
                    return Err(BindingError::Malformed(spec.to_input_form()));
                };
                let fresh = a.fresh(sym.name());
                renames.insert(sym.clone(), Expr::sym(&fresh));
                new_specs.push(match ty {
                    Some(t) => Expr::call("Typed", [Expr::sym(&fresh), t]),
                    None => Expr::sym(&fresh),
                });
            }
            let body = substitute_symbols(&args[1], &renames);
            (new_specs, body)
        }
    };
    let body = transform(&raw_body, a)?;
    Ok(Expr::call("Function", [Expr::list(param_specs), body]))
}

fn max_slot_index(e: &Expr) -> i64 {
    let mut max = 0;
    fn go(e: &Expr, max: &mut i64) {
        if let ExprKind::Normal(n) = e.kind() {
            if n.head().is_symbol("Slot") {
                if let Some(ix) = n.args().first().and_then(Expr::as_i64) {
                    *max = (*max).max(ix);
                }
                return;
            }
            // Nested slot-form functions own their slots.
            if n.head().is_symbol("Function") && n.args().len() == 1 {
                return;
            }
            go(n.head(), max);
            for a in n.args() {
                go(a, max);
            }
        }
    }
    go(e, &mut max);
    max
}

fn substitute_slot_exprs(e: &Expr, names: &[String]) -> Expr {
    match e.kind() {
        ExprKind::Normal(n) => {
            if n.head().is_symbol("Slot") {
                if let Some(ix) = n.args().first().and_then(Expr::as_i64) {
                    if ix >= 1 && (ix as usize) <= names.len() {
                        return Expr::sym(&names[ix as usize - 1]);
                    }
                }
                return e.clone();
            }
            if n.head().is_symbol("Function") && n.args().len() == 1 {
                return e.clone();
            }
            let head = substitute_slot_exprs(n.head(), names);
            let args: Vec<Expr> = n
                .args()
                .iter()
                .map(|x| substitute_slot_exprs(x, names))
                .collect();
            Expr::normal(head, args)
        }
        _ => e.clone(),
    }
}

/// Transforms scoping constructs bottom-out: `Module`/`Block` become `Set`
/// prologues with renamed variables; `With` substitutes; nested lambdas are
/// normalized recursively.
fn transform(e: &Expr, a: &mut Analyzer) -> Result<Expr, BindingError> {
    match e.kind() {
        ExprKind::Normal(n) => {
            if n.head().is_symbol("Function") {
                return normalize_lambda(e, a);
            }
            if (n.head().is_symbol("Module") || n.head().is_symbol("Block")) && n.args().len() == 2
            {
                return transform_module(e, a);
            }
            if n.head().is_symbol("With") && n.args().len() == 2 {
                return transform_with(e, a);
            }
            let head = transform(n.head(), a)?;
            let args: Vec<Expr> = n
                .args()
                .iter()
                .map(|x| transform(x, a))
                .collect::<Result<_, _>>()?;
            Ok(Expr::normal(head, args))
        }
        _ => Ok(e.clone()),
    }
}

fn scope_specs(vars: &Expr) -> Result<Vec<(Symbol, Option<Expr>)>, BindingError> {
    if !vars.has_head("List") {
        return Err(BindingError::Malformed(format!(
            "scoping variable list {}",
            vars.to_input_form()
        )));
    }
    vars.args()
        .iter()
        .map(|spec| {
            if let Some(s) = spec.as_symbol() {
                Ok((s, None))
            } else if spec.has_head("Set") && spec.length() == 2 {
                let Some(s) = spec.args()[0].as_symbol() else {
                    return Err(BindingError::Malformed(spec.to_input_form()));
                };
                Ok((s, Some(spec.args()[1].clone())))
            } else {
                Err(BindingError::Malformed(spec.to_input_form()))
            }
        })
        .collect()
}

fn transform_module(e: &Expr, a: &mut Analyzer) -> Result<Expr, BindingError> {
    let specs = scope_specs(&e.args()[0])?;
    let body = &e.args()[1];
    // Inits are evaluated in the *enclosing* scope, in order; the body sees
    // renamed variables. The result is a Set prologue (scope flattening):
    // Module[{a=1, b=1}, ...] -> a$1 = 1; b$2 = 1; ...
    let mut renames: HashMap<Symbol, Expr> = HashMap::new();
    let mut statements = Vec::new();
    for (sym, init) in &specs {
        let fresh = a.fresh(sym.name());
        let init_t = match init {
            Some(init) => Some(transform(init, a)?),
            None => None,
        };
        if let Some(init_t) = init_t {
            statements.push(Expr::call("Set", [Expr::sym(&fresh), init_t]));
        }
        renames.insert(sym.clone(), Expr::sym(&fresh));
    }
    let body = transform(&substitute_symbols(body, &renames), a)?;
    statements.push(body);
    Ok(if statements.len() == 1 {
        statements.pop().expect("single statement")
    } else {
        Expr::call("CompoundExpression", statements)
    })
}

fn transform_with(e: &Expr, a: &mut Analyzer) -> Result<Expr, BindingError> {
    let specs = scope_specs(&e.args()[0])?;
    let mut renames: HashMap<Symbol, Expr> = HashMap::new();
    for (sym, init) in &specs {
        let Some(init) = init else {
            return Err(BindingError::Malformed(
                "With variables must be initialized".into(),
            ));
        };
        renames.insert(sym.clone(), transform(init, a)?);
    }
    transform(&substitute_symbols(&e.args()[1], &renames), a)
}

/// Records names that occur free inside nested `Function` bodies.
fn collect_escapes(body: &Expr, escaped: &mut HashSet<String>) {
    fn go(e: &Expr, inside_lambda: bool, escaped: &mut HashSet<String>) {
        match e.kind() {
            ExprKind::Symbol(s) if inside_lambda && s.name().contains('$') => {
                escaped.insert(s.name().to_owned());
            }
            ExprKind::Normal(n) => {
                let lambda = n.head().is_symbol("Function");
                go(n.head(), inside_lambda, escaped);
                for a in n.args() {
                    go(a, inside_lambda || lambda, escaped);
                }
            }
            _ => {}
        }
    }
    go(body, false, escaped);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    fn bound(src: &str) -> BoundFunction {
        analyze(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn typed_params_parsed() {
        let b = bound("Function[{Typed[n, \"MachineInteger\"]}, n + 1]");
        assert_eq!(b.params.len(), 1);
        assert!(b.params[0].0.starts_with("n$"));
        assert_eq!(b.params[0].1, Some(Type::integer64()));
        assert!(b.body.to_full_form().contains(&b.params[0].0));
    }

    #[test]
    fn untyped_params_allowed() {
        let b = bound("Function[{x}, x]");
        assert_eq!(b.params[0].1, None);
    }

    #[test]
    fn paper_shadowing_example() {
        // Module[{a=1, b=1}, a + b + Module[{a=3}, a]] flattens with the
        // inner a renamed apart (the paper's a1).
        let b = bound("Function[{}, Module[{a = 1, b = 1}, a + b + Module[{a = 3}, a]]]");
        let text = b.body.to_full_form();
        // Two distinct a's.
        let mut a_names: Vec<&str> = text
            .split(|c: char| !(c.is_alphanumeric() || c == '$'))
            .filter(|w| w.starts_with("a$"))
            .collect();
        a_names.sort_unstable();
        a_names.dedup();
        assert_eq!(a_names.len(), 2, "{text}");
        // No Module remains.
        assert!(!text.contains("Module"), "{text}");
    }

    #[test]
    fn module_inits_become_sets_in_order() {
        let b = bound("Function[{x}, Module[{u = x + 1, v = 2}, u + v]]");
        let text = b.body.to_full_form();
        assert!(text.starts_with("CompoundExpression[Set[u$"), "{text}");
        assert!(text.contains("Set[v$"), "{text}");
    }

    #[test]
    fn with_substitutes() {
        let b = bound("Function[{x}, With[{k = 3}, k*x]]");
        let text = b.body.to_full_form();
        assert!(text.contains("Times[3"), "{text}");
        assert!(!text.contains("With"), "{text}");
    }

    #[test]
    fn slot_functions_get_names() {
        let b = bound("Function[{v}, f[#1 + #2 &, v]]");
        let text = b.body.to_full_form();
        assert!(text.contains("Function[List[slot1$"), "{text}");
        assert!(text.contains("slot2$"), "{text}");
        assert!(!text.contains("Slot["), "{text}");
    }

    #[test]
    fn escapes_detected() {
        // The random-walk shape: a Module variable used inside a lambda.
        let b = bound(
            "Function[{len}, NestList[Module[{arg = RandomReal[{0, 1}]}, \
             {Cos[arg], Sin[arg]} + #] &, {0, 0}, len]]",
        );
        // The lambda's own body contains arg$n: since the Module sits
        // inside the lambda, nothing from the outer scope escapes... but
        // `len` does not occur inside it. Check a real capture:
        let b2 = bound("Function[{k}, Map[Function[{x}, x + k], data]]");
        assert!(
            b2.escaped.iter().any(|n| n.starts_with("k$")),
            "{:?}",
            b2.escaped
        );
        let _ = b;
    }

    #[test]
    fn nested_lambda_params_renamed_apart() {
        let b = bound("Function[{x}, Function[{x}, x][x]]");
        let text = b.body.to_full_form();
        // Outer and inner x must differ.
        let mut xs: Vec<&str> = text
            .split(|c: char| !(c.is_alphanumeric() || c == '$'))
            .filter(|w| w.starts_with("x$"))
            .collect();
        xs.sort_unstable();
        xs.dedup();
        assert!(xs.len() >= 2, "{text}");
    }

    #[test]
    fn errors() {
        assert!(analyze(&parse("42").unwrap()).is_err());
        assert!(analyze(&parse("Function[{1}, 1]").unwrap()).is_err());
        assert!(
            analyze(&parse("Function[{Typed[x, \"NoSuch\" -> ]}, x]").unwrap_or(Expr::int(0)))
                .is_err()
        );
    }
}
