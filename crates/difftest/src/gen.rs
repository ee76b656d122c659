//! Seeded program generation over the subset every engine evaluates.
//!
//! Every program this module emits must be *accepted* by all three engines
//! — the tree-walking interpreter, the bytecode VM, and the native register
//! machine — so the generator is deliberately conservative:
//!
//! - **Types.** Parameters are machine integers, machine reals, or rank-1
//!   packed arrays of either; booleans appear only as intermediate values
//!   (comparisons, `If`/`While` conditions, `Module` locals), because the
//!   compiled calling conventions have no boolean parameter kind.
//! - **Termination.** Every `While` gets a fresh counter local and a small
//!   literal (or `Min[var, literal]`) bound, so programs always halt.
//! - **Tensor safety.** Part indices are literals in `1..=len`, negative
//!   literals in `-len..=-1`, or `Mod[e, len] + 1` (in range because `Mod`
//!   takes the divisor's sign). Writes only target `Module`-local tensors
//!   allocated with `ConstantArray` — never parameters — so engines cannot
//!   disagree about aliasing.
//! - **Overflow on purpose.** Integer literals and arguments occasionally
//!   sit near `i64::MAX` so `Plus`/`Times`/`Power` cross the
//!   overflow-to-bignum boundary, exercising the soft-failure fallback
//!   (F2) against the interpreter's exact answer.
//!
//! Programs are canonicalized through a parse→print round trip at
//! generation time, so the printed source *is* the program: counterexample
//! artifacts replay bit-identically.

use crate::rng::Rng;
use wolfram_expr::{parse, Expr};
use wolfram_runtime::Value;

/// The value types the generator tracks while building expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// Machine integer (`"MachineInteger"`).
    Int,
    /// Machine real (`"Real64"`).
    Real,
    /// Boolean — intermediate values only, never a parameter.
    Bool,
    /// Rank-1 integer packed array of the given length.
    TenInt(usize),
    /// Rank-1 real packed array of the given length.
    TenReal(usize),
}

impl Ty {
    /// The `Typed[...]` second-argument spec for this type.
    pub fn type_expr(self) -> Expr {
        match self {
            Ty::Int => Expr::string("MachineInteger"),
            Ty::Real => Expr::string("Real64"),
            Ty::Bool => Expr::string("Boolean"),
            Ty::TenInt(_) => Expr::normal(
                Expr::string("Tensor"),
                vec![Expr::string("Integer64"), Expr::int(1)],
            ),
            Ty::TenReal(_) => Expr::normal(
                Expr::string("Tensor"),
                vec![Expr::string("Real64"), Expr::int(1)],
            ),
        }
    }

    fn is_tensor(self) -> bool {
        matches!(self, Ty::TenInt(_) | Ty::TenReal(_))
    }
}

/// A generated program: a typed `Function[...]` plus argument sets to run
/// it on. `func` is canonical — it is the parse of its own printed form.
#[derive(Debug, Clone)]
pub struct Program {
    /// The seed that regenerates this exact program.
    pub seed: u64,
    /// Parameter names and types, in order.
    pub params: Vec<(String, Ty)>,
    /// `Function[{Typed[p1, ...], ...}, body]`, canonicalized.
    pub func: Expr,
    /// Concrete argument tuples to evaluate the function on.
    pub arg_sets: Vec<Vec<Value>>,
}

impl Program {
    /// Deterministically generates the program for `seed`.
    pub fn generate(seed: u64) -> Program {
        let mut g = Gen {
            rng: Rng::new(seed),
            scope: Vec::new(),
            counter: 0,
        };
        let (params, func) = g.function();
        let arg_sets = g.arg_sets(&params);
        // Canonicalize: the printed source is the artifact of record, so
        // the in-memory tree must be exactly what that source parses to
        // (n-ary `Plus`/`Times` re-flatten across printed parentheses).
        let func = parse(&func.to_input_form()).expect("generated program must parse");
        Program {
            seed,
            params,
            func,
            arg_sets,
        }
    }

    /// The replayable `.wl` source (InputForm of the function).
    pub fn source(&self) -> String {
        self.func.to_input_form()
    }

    /// The function body (params are referenced free in it).
    pub fn body(&self) -> &Expr {
        &self.func.args()[1]
    }

    /// Checks the print→parse→print fixpoint that makes counterexample
    /// artifacts trustworthy. Returns the failure description if broken.
    pub fn roundtrip(&self) -> Result<(), String> {
        let src = self.source();
        let reparsed = parse(&src).map_err(|e| format!("source does not reparse: {e}"))?;
        if reparsed != self.func {
            return Err(format!(
                "parse(source) differs from program tree:\n  source: {src}\n  reparse: {}",
                reparsed.to_full_form()
            ));
        }
        let reprinted = reparsed.to_input_form();
        if reprinted != src {
            return Err(format!(
                "printing is not a fixpoint:\n  {src}\n  {reprinted}"
            ));
        }
        Ok(())
    }
}

/// Integer literals that sit on overflow / sign boundaries.
const SPICY_INTS: &[i64] = &[
    i64::MAX,
    i64::MAX - 1,
    i64::MIN + 2,
    3_037_000_500, // ~sqrt(i64::MAX): Times overflows, Plus does not
    1 << 31,
    1 << 62,
    1_000_000_000_000_000_000,
    -1_000_000_000_000_000_000,
];

struct Gen {
    rng: Rng,
    /// Variables readable at the current point (params + Module locals).
    scope: Vec<(String, Ty)>,
    /// Fresh-name counter for locals.
    counter: u32,
}

impl Gen {
    fn function(&mut self) -> (Vec<(String, Ty)>, Expr) {
        let n_params = 1 + self.rng.below(3) as usize;
        let mut params = Vec::with_capacity(n_params);
        for i in 0..n_params {
            let ty = match self.rng.below(100) {
                0..=39 => Ty::Int,
                40..=64 => Ty::Real,
                65..=84 => Ty::TenInt(2 + self.rng.below(4) as usize),
                _ => Ty::TenReal(2 + self.rng.below(4) as usize),
            };
            params.push((format!("p{}", i + 1), ty));
        }
        self.scope = params.clone();

        let body = if self.rng.chance(60, 100) {
            self.module_body()
        } else {
            let ret = if self.rng.chance(60, 100) {
                Ty::Int
            } else {
                Ty::Real
            };
            self.expr(ret, 3)
        };

        let typed: Vec<Expr> = params
            .iter()
            .map(|(name, ty)| Expr::call("Typed", [Expr::sym(name), ty.type_expr()]))
            .collect();
        (
            params.clone(),
            Expr::call("Function", [Expr::list(typed), body]),
        )
    }

    /// `Module[{locals...}, stmt; ...; result]`.
    fn module_body(&mut self) -> Expr {
        let outer_scope = self.scope.len();
        let mut inits: Vec<Expr> = Vec::new();

        for _ in 0..1 + self.rng.below(3) {
            let name = self.fresh("v");
            let (ty, init) = match self.rng.below(10) {
                0..=4 => (Ty::Int, Expr::int(self.rng.i64_in(-9, 9))),
                5..=7 => (Ty::Real, real_lit(self.rng.i64_in(-20, 20))),
                _ => (
                    Ty::Bool,
                    Expr::sym(if self.rng.chance(1, 2) {
                        "True"
                    } else {
                        "False"
                    }),
                ),
            };
            inits.push(Expr::call("Set", [Expr::sym(&name), init]));
            self.scope.push((name, ty));
        }
        if self.rng.chance(55, 100) {
            let name = self.fresh("w");
            let len = 2 + self.rng.below(3) as usize;
            let (ty, fill) = if self.rng.chance(1, 2) {
                (Ty::TenInt(len), Expr::int(0))
            } else {
                (Ty::TenReal(len), Expr::real(0.0))
            };
            inits.push(Expr::call(
                "Set",
                [
                    Expr::sym(&name),
                    Expr::call("ConstantArray", [fill, Expr::list([Expr::int(len as i64)])]),
                ],
            ));
            self.scope.push((name, ty));
        }

        let mut stmts: Vec<Expr> = Vec::new();
        for _ in 0..1 + self.rng.below(4) {
            let (stmt, extra_locals) = self.stmt(2);
            inits.extend(extra_locals);
            stmts.push(stmt);
        }
        stmts.push(self.result_expr());

        let body = if stmts.len() == 1 {
            stmts.pop().expect("one statement")
        } else {
            Expr::call("CompoundExpression", stmts)
        };
        self.scope.truncate(outer_scope);
        Expr::call("Module", [Expr::list(inits), body])
    }

    /// The Module's result: usually a scalar expression, occasionally a
    /// whole tensor (exercising packed-array returns).
    fn result_expr(&mut self) -> Expr {
        if self.rng.chance(15, 100) {
            let tensors: Vec<String> = self
                .scope
                .iter()
                .filter(|(_, t)| t.is_tensor())
                .map(|(n, _)| n.clone())
                .collect();
            if let Some(name) = tensors.get(self.rng.below(tensors.len().max(1) as u64) as usize) {
                return Expr::sym(name);
            }
        }
        let ret = if self.rng.chance(60, 100) {
            Ty::Int
        } else {
            Ty::Real
        };
        self.expr(ret, 3)
    }

    /// One statement; may allocate loop-counter locals, returned as extra
    /// `Module` inits.
    fn stmt(&mut self, depth: u32) -> (Expr, Vec<Expr>) {
        let assignable: Vec<(String, Ty)> = self
            .scope
            .iter()
            .filter(|(n, _)| n.starts_with('v') || n.starts_with('w'))
            .cloned()
            .collect();
        match self.rng.below(100) {
            0..=49 if !assignable.is_empty() => {
                // Scalar assignment (or tensor element write, below).
                let (name, ty) = self.rng.pick(&assignable).clone();
                match ty {
                    Ty::TenInt(len) => {
                        let ix = self.index_expr(len);
                        let val = self.expr(Ty::Int, depth);
                        (set_part(&name, ix, val), vec![])
                    }
                    Ty::TenReal(len) => {
                        let ix = self.index_expr(len);
                        let val = self.expr(Ty::Real, depth);
                        (set_part(&name, ix, val), vec![])
                    }
                    scalar => {
                        let val = self.expr(scalar, depth);
                        (Expr::call("Set", [Expr::sym(&name), val]), vec![])
                    }
                }
            }
            50..=69 if !assignable.is_empty() => {
                // Conditional assignment. Both arms target the *same*
                // local so the native phi node unifies cleanly (arms of
                // different types are a compile error there, not a
                // semantic divergence).
                let (name, ty) = self.rng.pick(&assignable).clone();
                let cond = self.expr(Ty::Bool, depth.min(2));
                let scalar = match ty {
                    Ty::TenInt(_) => Ty::Int,
                    Ty::TenReal(_) => Ty::Real,
                    s => s,
                };
                let mk = |g: &mut Self, val: Expr| match ty {
                    Ty::TenInt(len) | Ty::TenReal(len) => {
                        let ix = g.index_expr(len);
                        set_part(&name, ix, val)
                    }
                    _ => Expr::call("Set", [Expr::sym(&name), val]),
                };
                let a = self.expr(scalar, depth.saturating_sub(1));
                let b = self.expr(scalar, depth.saturating_sub(1));
                let then = mk(self, a);
                let els = mk(self, b);
                (Expr::call("If", [cond, then, els]), vec![])
            }
            70..=89 => self.while_stmt(depth),
            _ => {
                let ty = if self.rng.chance(1, 2) {
                    Ty::Int
                } else {
                    Ty::Real
                };
                (self.expr(ty, depth), vec![]) // expression statement
            }
        }
    }

    /// `While[k < bound, body; k = k + 1]` with a fresh counter local.
    fn while_stmt(&mut self, depth: u32) -> (Expr, Vec<Expr>) {
        let k = self.fresh("k");
        let counter_init = Expr::call("Set", [Expr::sym(&k), Expr::int(0)]);
        // Bound: small literal, optionally clamped through an integer
        // variable so iteration count depends on the inputs.
        let lit = Expr::int(self.rng.i64_in(1, 6));
        let int_vars: Vec<String> = self
            .scope
            .iter()
            .filter(|(_, t)| *t == Ty::Int)
            .map(|(n, _)| n.clone())
            .collect();
        let bound = if !int_vars.is_empty() && self.rng.chance(40, 100) {
            let v = self.rng.pick(&int_vars).clone();
            Expr::call("Min", [Expr::sym(&v), lit])
        } else {
            lit
        };
        // Inner statements are generated *before* the counter enters
        // scope, so nothing can reassign it and termination is syntactic.
        let (inner, mut extra) = self.stmt(depth.saturating_sub(1));
        extra.push(counter_init);
        self.scope.push((k.clone(), Ty::Int));
        let body = Expr::call(
            "CompoundExpression",
            [
                inner,
                Expr::call(
                    "Set",
                    [
                        Expr::sym(&k),
                        Expr::call("Plus", [Expr::sym(&k), Expr::int(1)]),
                    ],
                ),
            ],
        );
        let cond = Expr::call("Less", [Expr::sym(&k), bound]);
        (Expr::call("While", [cond, body]), extra)
    }

    /// A typed expression of depth at most `depth`.
    fn expr(&mut self, ty: Ty, depth: u32) -> Expr {
        if depth == 0 || self.rng.chance(25, 100) {
            return self.leaf(ty);
        }
        match ty {
            Ty::Int => self.int_node(depth),
            Ty::Real => self.real_node(depth),
            Ty::Bool => self.bool_node(depth),
            // Tensor-typed expressions are only ever variables.
            other => self.leaf(other),
        }
    }

    fn int_node(&mut self, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.below(100) {
            0..=54 => {
                let head = *self
                    .rng
                    .pick(&["Plus", "Subtract", "Times", "Min", "Max", "Quotient", "Mod"]);
                let a = self.expr(Ty::Int, d);
                let b = self.expr(Ty::Int, d);
                Expr::call(head, [a, b])
            }
            55..=64 => {
                // Power with a small literal exponent; occasionally
                // negative, which the interpreter evaluates as a real and
                // compiled code must soft-fail to match.
                let base = self.expr(Ty::Int, d);
                let exp = if self.rng.chance(1, 5) {
                    self.rng.i64_in(-3, -1)
                } else {
                    self.rng.i64_in(0, 5)
                };
                Expr::call("Power", [base, Expr::int(exp)])
            }
            65..=74 => Expr::call("Abs", [self.expr(Ty::Int, d)]),
            75..=89 => {
                let c = self.expr(Ty::Bool, d);
                let t = self.expr(Ty::Int, d);
                let e = self.expr(Ty::Int, d);
                Expr::call("If", [c, t, e])
            }
            _ => match self.tensor_read(false, d) {
                Some(e) => e,
                None => self.leaf(Ty::Int),
            },
        }
    }

    fn real_node(&mut self, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.below(100) {
            0..=54 => {
                let head = *self
                    .rng
                    .pick(&["Plus", "Subtract", "Times", "Divide", "Min", "Max", "Mod"]);
                let a = self.expr(Ty::Real, d);
                let b = self.expr(Ty::Real, d);
                Expr::call(head, [a, b])
            }
            55..=64 => {
                let base = self.expr(Ty::Real, d);
                Expr::call("Power", [base, Expr::int(self.rng.i64_in(0, 3))])
            }
            65..=74 => Expr::call("Abs", [self.expr(Ty::Real, d)]),
            75..=89 => {
                let c = self.expr(Ty::Bool, d);
                let t = self.expr(Ty::Real, d);
                let e = self.expr(Ty::Real, d);
                Expr::call("If", [c, t, e])
            }
            _ => match self.tensor_read(true, d) {
                Some(e) => e,
                None => self.leaf(Ty::Real),
            },
        }
    }

    fn bool_node(&mut self, depth: u32) -> Expr {
        let d = depth - 1;
        match self.rng.below(100) {
            0..=59 => {
                let cmp = *self.rng.pick(&[
                    "Less",
                    "LessEqual",
                    "Greater",
                    "GreaterEqual",
                    "Equal",
                    "Unequal",
                ]);
                let ty = if self.rng.chance(70, 100) {
                    Ty::Int
                } else {
                    Ty::Real
                };
                let a = self.expr(ty, d);
                let b = self.expr(ty, d);
                Expr::call(cmp, [a, b])
            }
            60..=84 => {
                // Short-circuit operators: the right operand may error —
                // that is the point (HoldAll semantics differ from eager).
                let head = if self.rng.chance(1, 2) { "And" } else { "Or" };
                let a = self.expr(Ty::Bool, d);
                let b = self.expr(Ty::Bool, d);
                Expr::call(head, [a, b])
            }
            85..=94 => Expr::call("Not", [self.expr(Ty::Bool, d)]),
            _ => self.leaf(Ty::Bool),
        }
    }

    /// `t[[ix]]` over a scoped tensor of the requested element type.
    fn tensor_read(&mut self, real: bool, depth: u32) -> Option<Expr> {
        let candidates: Vec<(String, usize)> = self
            .scope
            .iter()
            .filter_map(|(n, t)| match (t, real) {
                (Ty::TenInt(l), false) | (Ty::TenReal(l), true) => Some((n.clone(), *l)),
                _ => None,
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let (name, len) = self.rng.pick(&candidates).clone();
        let ix = if depth == 0 {
            Expr::int(self.rng.i64_in(1, len as i64))
        } else {
            self.index_expr(len)
        };
        Some(Expr::call("Part", [Expr::sym(&name), ix]))
    }

    /// An always-in-range 1-based index for a tensor of length `len`.
    fn index_expr(&mut self, len: usize) -> Expr {
        let len = len as i64;
        match self.rng.below(10) {
            0..=5 => Expr::int(self.rng.i64_in(1, len)),
            6 => Expr::int(self.rng.i64_in(-len, -1)),
            _ => {
                // Mod[e, len] is in 0..len (divisor's sign), so +1 lands
                // in 1..=len whatever `e` evaluates to.
                let e = self.expr(Ty::Int, 1);
                Expr::call(
                    "Plus",
                    [Expr::call("Mod", [e, Expr::int(len)]), Expr::int(1)],
                )
            }
        }
    }

    fn leaf(&mut self, ty: Ty) -> Expr {
        // Prefer a scoped variable of the right type half the time.
        let vars: Vec<String> = self
            .scope
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n.clone())
            .collect();
        if !vars.is_empty() && self.rng.chance(1, 2) {
            let name: &String = self.rng.pick(&vars);
            return Expr::sym(name);
        }
        match ty {
            Ty::Int => {
                let tensors: Vec<String> = self
                    .scope
                    .iter()
                    .filter(|(_, t)| t.is_tensor())
                    .map(|(n, _)| n.clone())
                    .collect();
                if !tensors.is_empty() && self.rng.chance(1, 10) {
                    let name: &String = self.rng.pick(&tensors);
                    return Expr::call("Length", [Expr::sym(name)]);
                }
                match self.rng.below(100) {
                    0..=74 => Expr::int(self.rng.i64_in(-20, 20)),
                    75..=84 => Expr::int(*self.rng.pick(SPICY_INTS)),
                    _ => Expr::int(self.rng.i64_in(-1_000_000, 1_000_000)),
                }
            }
            Ty::Real => real_lit(self.rng.i64_in(-40, 40)),
            Ty::Bool => Expr::sym(if self.rng.chance(1, 2) {
                "True"
            } else {
                "False"
            }),
            // No tensor variable in scope: fall back to a fresh literal
            // array (read-only, so sharing semantics are irrelevant).
            Ty::TenInt(len) => Expr::list(
                (0..len)
                    .map(|_| Expr::int(self.rng.i64_in(-9, 9)))
                    .collect::<Vec<_>>(),
            ),
            Ty::TenReal(len) => Expr::list(
                (0..len)
                    .map(|_| real_lit(self.rng.i64_in(-12, 12)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    fn arg_sets(&mut self, params: &[(String, Ty)]) -> Vec<Vec<Value>> {
        let n = 2 + self.rng.below(2) as usize;
        (0..n)
            .map(|_| params.iter().map(|(_, ty)| self.arg_value(*ty)).collect())
            .collect()
    }

    fn arg_value(&mut self, ty: Ty) -> Value {
        match ty {
            Ty::Int => Value::I64(match self.rng.below(10) {
                0..=5 => self.rng.i64_in(-10, 10),
                6..=7 => self.rng.i64_in(-1_000_000_000, 1_000_000_000),
                _ => *self.rng.pick(SPICY_INTS),
            }),
            Ty::Real => Value::F64(self.rng.i64_in(-40, 40) as f64 / 4.0),
            Ty::Bool => unreachable!("booleans are never parameters"),
            Ty::TenInt(len) => {
                let elems: Vec<Expr> = (0..len)
                    .map(|_| {
                        Expr::int(if self.rng.chance(1, 8) {
                            *self.rng.pick(SPICY_INTS)
                        } else {
                            self.rng.i64_in(-9, 9)
                        })
                    })
                    .collect();
                Value::from_expr(&Expr::list(elems))
            }
            Ty::TenReal(len) => {
                let elems: Vec<Expr> = (0..len)
                    .map(|_| real_lit(self.rng.i64_in(-12, 12)))
                    .collect();
                Value::from_expr(&Expr::list(elems))
            }
        }
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }
}

/// `k/4` as a real literal: exactly representable and exactly reprintable.
fn real_lit(quarters: i64) -> Expr {
    Expr::real(quarters as f64 / 4.0)
}

fn set_part(name: &str, ix: Expr, val: Expr) -> Expr {
    Expr::call("Set", [Expr::call("Part", [Expr::sym(name), ix]), val])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = Program::generate(seed);
            let b = Program::generate(seed);
            assert_eq!(a.source(), b.source(), "seed {seed}");
            assert_eq!(a.arg_sets, b.arg_sets, "seed {seed}");
        }
    }

    #[test]
    fn programs_roundtrip_through_the_printer() {
        for seed in 0..300 {
            let p = Program::generate(seed);
            if let Err(e) = p.roundtrip() {
                panic!("seed {seed}: {e}");
            }
        }
    }

    #[test]
    fn arg_sets_match_param_arity() {
        for seed in 0..100 {
            let p = Program::generate(seed);
            assert!(!p.arg_sets.is_empty());
            for set in &p.arg_sets {
                assert_eq!(set.len(), p.params.len());
            }
        }
    }
}
