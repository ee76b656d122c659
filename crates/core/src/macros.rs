//! The macro system (§4.2): hygienic pattern-based substitution for
//! desugaring and "always-safe" AST-level optimizations.
//!
//! "Macros are registered within an environment ... rules ... are matched
//! based on the rules' pattern specificity ... Macros are evaluated in
//! depth-first order and terminate when a fixed point is reached." Rules
//! can be `Conditioned` on compiler options (§4.7's CUDA example).

use crate::pipeline::CompilerOptions;
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;
use wolfram_expr::pattern::compare_specificity;
use wolfram_expr::rules::apply_bindings;
use wolfram_expr::{match_pattern, Bindings, Expr, ExprKind, MatchCtx, Rule, Symbol};

/// A predicate over compiler options gating a macro rule (`Conditioned`).
pub type MacroPredicate = Rc<dyn Fn(&CompilerOptions) -> bool>;

/// One registered macro rule.
#[derive(Clone)]
pub struct MacroRule {
    /// The rewrite rule.
    pub rule: Rule,
    /// Optional `Conditioned` predicate.
    pub condition: Option<MacroPredicate>,
}

impl std::fmt::Debug for MacroRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MacroRule({} -> {}{})",
            self.rule.lhs.to_input_form(),
            self.rule.rhs.to_input_form(),
            if self.condition.is_some() {
                ", conditioned"
            } else {
                ""
            }
        )
    }
}

/// A macro environment: rules grouped by head symbol, kept in specificity
/// order.
#[derive(Debug, Clone, Default)]
pub struct MacroEnvironment {
    rules: HashMap<String, Vec<MacroRule>>,
    hygiene_counter: Rc<Cell<u64>>,
}

impl MacroEnvironment {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default environment bundled with the compiler.
    pub fn builtin() -> Self {
        let mut env = Self::new();
        register_default_macros(&mut env);
        env
    }

    /// Registers a rule (the `RegisterMacro` API). The rule's left-hand
    /// side must be a normal expression; rules are kept sorted by pattern
    /// specificity within their head.
    ///
    /// # Panics
    ///
    /// Panics if the left-hand side has no symbol head.
    pub fn register(&mut self, rule: Rule, condition: Option<MacroPredicate>) {
        let head = rule
            .lhs
            .head_symbol()
            .expect("macro pattern must have a symbol head")
            .name()
            .to_owned();
        let rules = self.rules.entry(head).or_default();
        let entry = MacroRule { rule, condition };
        let pos = rules
            .iter()
            .position(|r| compare_specificity(&entry.rule.lhs, &r.rule.lhs).is_lt())
            .unwrap_or(rules.len());
        rules.insert(pos, entry);
    }

    /// Registers rules given as source text: a single rule or a list.
    ///
    /// # Panics
    ///
    /// Panics on parse errors (macro registration is compile-time code).
    pub fn register_src(&mut self, src: &str) {
        let e = wolfram_expr::parse(src).expect("macro rule source");
        for rule in Rule::list_from_expr(&e).expect("macro rules") {
            self.register(rule, None);
        }
    }

    /// Number of registered rules.
    pub fn rule_count(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }

    /// Expands `e` to a fixed point: depth-first, most-specific rule first,
    /// hygienic (fresh `Module` variables introduced by a rule body are
    /// renamed per application). Subtrees no rule changed are shared with
    /// `e`, and `e` itself comes back when nothing changed.
    pub fn expand(&self, e: &Expr, opts: &CompilerOptions) -> Expr {
        const MAX_ROUNDS: usize = 512;
        // Literals and symbols are matched only when a rule is filed under
        // the head of an atom.
        let atoms = ["Integer", "Real", "Complex", "String", "Symbol"]
            .iter()
            .any(|h| self.rules.contains_key(*h));
        let mut current = e.clone();
        for _ in 0..MAX_ROUNDS {
            match self.expand_once(&current, opts, atoms) {
                Some(next) => current = next,
                None => return current,
            }
        }
        current
    }

    /// One depth-first pass: `None` when the result would equal `e`.
    fn expand_once(&self, e: &Expr, opts: &CompilerOptions, atoms: bool) -> Option<Expr> {
        // Children first (depth-first evaluation order).
        let rebuilt = match e.kind() {
            ExprKind::Normal(n) => {
                let head = self.expand_once(n.head(), opts, atoms);
                let mut args: Option<Vec<Expr>> = None;
                for (ix, a) in n.args().iter().enumerate() {
                    match (self.expand_once(a, opts, atoms), &mut args) {
                        (Some(new), args) => args
                            .get_or_insert_with(|| n.args()[..ix].to_vec())
                            .push(new),
                        (None, Some(args)) => args.push(a.clone()),
                        (None, None) => {}
                    }
                }
                (head.is_some() || args.is_some()).then(|| {
                    Expr::normal(
                        head.unwrap_or_else(|| n.head().clone()),
                        args.unwrap_or_else(|| n.args().to_vec()),
                    )
                })
            }
            _ if !atoms => return None,
            _ => None,
        };
        let node = rebuilt.as_ref().unwrap_or(e);
        let rules = node.head_symbol().and_then(|h| self.rules.get(h.name()));
        for r in rules.into_iter().flatten() {
            if let Some(cond) = &r.condition {
                if !cond(opts) {
                    continue;
                }
            }
            let mut bindings = Bindings::new();
            if match_pattern(node, &r.rule.lhs, &mut bindings, &mut MatchCtx::default()) {
                let rhs = apply_bindings(&r.rule.rhs, &bindings);
                let out = self.hygienify(&rhs, &bindings);
                // A rewrite to an equal tree is no change.
                return (out != *e).then_some(out);
            }
        }
        rebuilt
    }

    /// Hygiene: `Module`/`With` variables introduced by the rule body (not
    /// bound from the pattern) are renamed fresh per application, so macro
    /// expansions cannot capture user variables.
    fn hygienify(&self, rhs: &Expr, bindings: &Bindings) -> Expr {
        let mut renames: HashMap<Symbol, Expr> = HashMap::new();
        let mut out = rhs.clone();
        let mut to_rename: Vec<Symbol> = Vec::new();
        wolfram_expr::walk(rhs, &mut |node| {
            if node.has_head("Module") || node.has_head("With") {
                if let Some(vars) = node.args().first() {
                    for spec in vars.args() {
                        let sym = spec
                            .as_symbol()
                            .or_else(|| spec.args().first().and_then(Expr::as_symbol));
                        if let Some(sym) = sym {
                            // Pattern-bound variables belong to the caller.
                            let from_pattern = bindings
                                .values()
                                .any(|v| v.as_symbol().as_ref() == Some(&sym));
                            if !from_pattern && !to_rename.contains(&sym) {
                                to_rename.push(sym);
                            }
                        }
                    }
                }
            }
            wolfram_expr::VisitAction::Descend
        });
        for sym in to_rename {
            let n = self.hygiene_counter.get();
            self.hygiene_counter.set(n + 1);
            renames.insert(sym.clone(), Expr::sym(&format!("{}$macro{n}", sym.name())));
        }
        if !renames.is_empty() {
            out = wolfram_expr::rules::substitute_symbols(&out, &renames);
        }
        out
    }
}

/// The default desugarings shipped with the compiler.
fn register_default_macros(env: &mut MacroEnvironment) {
    // The paper's §4.2 And rules, adapted to the typed Boolean world:
    // short-circuiting via If. (Or dually.)
    env.register_src(
        "{
            And[x_, y_, rest__] :> And[And[x, y], rest],
            And[False, _] -> False,
            And[_, False] -> False,
            And[True, rest_] :> rest,
            And[x_] :> x,
            And[x_, y_] :> If[x, y, False],
            Or[x_, y_, rest__] :> Or[Or[x, y], rest],
            Or[True, _] -> True,
            Or[False, rest_] :> rest,
            Or[x_] :> x,
            Or[x_, y_] :> If[x, True, y]
        }",
    );
    // Which -> If chains.
    env.register_src(
        "{
            Which[c_, v_] :> If[c, v, Null],
            Which[c_, v_, rest__] :> If[c, v, Which[rest]]
        }",
    );
    // Compound assignment and stepping (statement semantics).
    env.register_src(
        "{
            Increment[x_] :> Set[x, Plus[x, 1]],
            Decrement[x_] :> Set[x, Subtract[x, 1]],
            PreIncrement[x_] :> Set[x, Plus[x, 1]],
            PreDecrement[x_] :> Set[x, Subtract[x, 1]],
            AddTo[x_, v_] :> Set[x, Plus[x, v]],
            SubtractFrom[x_, v_] :> Set[x, Subtract[x, v]],
            TimesBy[x_, v_] :> Set[x, Times[x, v]],
            DivideBy[x_, v_] :> Set[x, Divide[x, v]]
        }",
    );
    // Do loops desugar to While with a hygienic counter when none is
    // given, or the user's iteration symbol otherwise.
    env.register_src(
        "{
            Do[body_, {i_, n_}] :> Module[{i}, i = 1; While[i <= n, body; i = i + 1]],
            Do[body_, {i_, a_, b_}] :> Module[{i}, i = a; While[i <= b, body; i = i + 1]],
            Do[body_, n_] :> Module[{iter}, iter = 1; While[iter <= n, body; iter = iter + 1]]
        }",
    );
    // n-ary (Flat) heads desugar to binary nests for the typed world.
    env.register_src(
        "{
            Plus[x_, y_, rest__] :> Plus[Plus[x, y], rest],
            Times[x_, y_, rest__] :> Times[Times[x, y], rest],
            StringJoin[x_, y_, rest__] :> StringJoin[StringJoin[x, y], rest],
            Less[x_, y_, rest__] :> And[Less[x, y], Less[y, rest]],
            Greater[x_, y_, rest__] :> And[Greater[x, y], Greater[y, rest]],
            LessEqual[x_, y_, rest__] :> And[LessEqual[x, y], LessEqual[y, rest]],
            GreaterEqual[x_, y_, rest__] :> And[GreaterEqual[x, y], GreaterEqual[y, rest]],
            Equal[x_, y_, rest__] :> And[Equal[x, y], Equal[y, rest]]
        }",
    );
    // Always-safe AST optimizations.
    env.register_src(
        "{
            Plus[x_] :> x,
            Times[x_] :> x,
            Not[Not[x_]] :> x,
            Sqrt[x_] :> Power[x, 0.5]
        }",
    );
    // Table over an integer iterator desugars to Map over Range: the
    // functional form compiles through the stdlib source implementations
    // (and, under a CUDA target, inherits the Map -> CUDA`Map rewrite).
    env.register_src("Table[body_, {i_, n_}] :> Map[Function[{i}, body], Range[n]]");
    // RandomReal range form becomes a dedicated primitive call.
    env.register_src("RandomReal[{a_, b_}] :> Native`RandomRange[a, b]");
    // Abs of a difference etc. are left to the type-directed resolver.
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    fn expand(src: &str) -> String {
        let env = MacroEnvironment::builtin();
        env.expand(&parse(src).unwrap(), &CompilerOptions::default())
            .to_full_form()
    }

    #[test]
    fn and_desugars_with_short_circuit() {
        assert_eq!(expand("a && b"), "If[a, b, False]");
        assert_eq!(expand("And[False, a]"), "False");
        assert_eq!(expand("And[True, a]"), "a");
        assert_eq!(expand("a && b && c"), "If[If[a, b, False], c, False]");
        assert_eq!(expand("a || b"), "If[a, True, b]");
    }

    #[test]
    fn which_desugars() {
        assert_eq!(
            expand("Which[a, 1, b, 2]"),
            "If[a, 1, Which[b, 2]]".replace("Which[b, 2]", "If[b, 2, Null]")
        );
    }

    #[test]
    fn assignment_forms_desugar() {
        assert_eq!(expand("i++"), "Set[i, Plus[i, 1]]");
        assert_eq!(expand("i--"), "Set[i, Subtract[i, 1]]");
        assert_eq!(expand("x += 2"), "Set[x, Plus[x, 2]]");
    }

    #[test]
    fn do_desugars_to_while_with_hygiene() {
        let out = expand("Do[f[], 5]");
        assert!(out.contains("While"), "{out}");
        assert!(out.contains("iter$macro"), "hygienic counter: {out}");
        // User-named iterator keeps its name.
        let out = expand("Do[f[k], {k, 10}]");
        assert!(out.contains("f[k]"), "{out}");
        assert!(
            !out.contains("k$macro"),
            "pattern-bound k must not be renamed: {out}"
        );
    }

    #[test]
    fn specificity_orders_rules() {
        // And[False, _] must match before And[x_, y_].
        assert_eq!(expand("And[False, expensive]"), "False");
    }

    #[test]
    fn fixed_point_reached() {
        assert_eq!(expand("Plus[Plus[x]]"), "x");
        assert_eq!(expand("Not[Not[Not[b]]]"), "Not[b]");
    }

    #[test]
    fn conditioned_cuda_macro() {
        // The §4.7 example: rewrite Map -> CUDA`Map when TargetSystem is
        // CUDA.
        let mut env = MacroEnvironment::builtin();
        let rule = Rule::from_expr(&parse("Map[f_, lst_] :> CUDA`Map[f, lst]").unwrap()).unwrap();
        env.register(
            rule,
            Some(Rc::new(|opts: &CompilerOptions| {
                opts.target_system == crate::pipeline::TargetSystem::Cuda
            })),
        );
        let e = parse("Map[g, data]").unwrap();
        let default_out = env.expand(&e, &CompilerOptions::default());
        assert_eq!(default_out.to_full_form(), "Map[g, data]");
        let cuda_opts = CompilerOptions {
            target_system: crate::pipeline::TargetSystem::Cuda,
            ..CompilerOptions::default()
        };
        let cuda_out = env.expand(&e, &cuda_opts);
        assert_eq!(cuda_out.to_full_form(), "CUDA`Map[g, data]");
    }

    #[test]
    fn user_rules_extend_default_env() {
        let mut env = MacroEnvironment::builtin();
        let before = env.rule_count();
        env.register_src("Square[x_] :> Times[x, x]");
        assert_eq!(env.rule_count(), before + 1);
        let out = env.expand(
            &parse("Square[Square[y]]").unwrap(),
            &CompilerOptions::default(),
        );
        assert_eq!(out.to_full_form(), "Times[Times[y, y], Times[y, y]]");
    }

    #[test]
    fn sqrt_becomes_power() {
        assert_eq!(expand("Sqrt[x]"), "Power[x, 0.5]");
    }

    #[test]
    fn a_rule_under_an_atom_head_fires() {
        let mut env = MacroEnvironment::builtin();
        env.register_src("{7 -> 8}");
        let out = env.expand(&parse("f[7, x, 7.]").unwrap(), &CompilerOptions::default());
        assert_eq!(out.to_full_form(), "f[8, x, 7.]");
    }

    /// The first normal node of `e`, depth-first, with `n` arguments.
    fn node_with_arity(e: &Expr, n: usize) -> Expr {
        let mut found = None;
        wolfram_expr::walk(e, &mut |node| {
            if node.as_normal().is_some() && node.length() == n {
                found = Some(node.clone());
                return wolfram_expr::VisitAction::Stop;
            }
            wolfram_expr::VisitAction::Descend
        });
        found.expect("no node of that arity")
    }

    #[test]
    fn an_unchanged_tree_comes_back_shared() {
        let env = MacroEnvironment::builtin();
        let opts = CompilerOptions::default();
        let e = parse(r#"f[g[x, 1], {1, 2.5, "s"}, If[a, b, c]]"#).unwrap();
        assert!(env.expand(&e, &opts).ptr_eq(&e));
        // PrimeQ's seed table: alone, and as the untouched part of a
        // program whose `&&` the macros rewrite.
        let table = wolfram_bench::workloads::prime_seed_table();
        let src = wolfram_bench::programs::primeq_src(&table);
        let list = node_with_arity(&parse(&src).unwrap(), table.len());
        assert!(env.expand(&list, &opts).ptr_eq(&list));
        let program = parse(&src).unwrap();
        let out = env.expand(&program, &opts);
        assert!(!out.ptr_eq(&program));
        assert!(node_with_arity(&out, table.len()).ptr_eq(&node_with_arity(&program, table.len())));
    }

    /// 64-bit FNV-1a of a string: a hash that is the same on every build.
    fn fnv1a(s: &str) -> u64 {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn expansions_of_the_benchmark_programs_are_pinned() {
        use wolfram_bench::programs as p;
        let table = wolfram_bench::workloads::prime_seed_table();
        let sources: Vec<(&str, String)> = vec![
            ("FNV1A_SRC", p::FNV1A_SRC.into()),
            ("FNV1A_BYTECODE_BODY", p::FNV1A_BYTECODE_BODY.into()),
            ("MANDELBROT_SRC", p::MANDELBROT_SRC.into()),
            (
                "MANDELBROT_BYTECODE_BODY",
                p::MANDELBROT_BYTECODE_BODY.into(),
            ),
            ("DOT_SRC", p::DOT_SRC.into()),
            ("BLUR_SRC", p::BLUR_SRC.into()),
            ("BLUR_BYTECODE_BODY", p::BLUR_BYTECODE_BODY.into()),
            ("HISTOGRAM_SRC", p::HISTOGRAM_SRC.into()),
            ("HISTOGRAM_BYTECODE_BODY", p::HISTOGRAM_BYTECODE_BODY.into()),
            ("primeq_src", p::primeq_src(&table)),
            ("primeq_bytecode_body", p::primeq_bytecode_body(&table)),
            ("QSORT_SRC", p::QSORT_SRC.into()),
            ("QSORT_BYTECODE_BODY", p::QSORT_BYTECODE_BODY.into()),
            // And, Or, Which and both Do forms, for the hygiene counter.
            (
                "desugarings",
                "Module[{s = 0}, Do[s += Which[k < 3 && k > 0, 1, k == 5 || k == 7, 2, \
                 True, 3], {k, n}]; Do[s++, 3]; Do[s--, {j, 2, 4}]; s]"
                    .into(),
            ),
        ];
        // One environment throughout, so the hygiene numbering carries
        // from one program to the next as in a long-lived compiler.
        let env = MacroEnvironment::builtin();
        let opts = CompilerOptions::default();
        let got: Vec<(&str, u64)> = sources
            .iter()
            .map(|(name, src)| {
                (
                    *name,
                    fnv1a(&env.expand(&parse(src).unwrap(), &opts).to_full_form()),
                )
            })
            .collect();
        // FullForm hashes, pinned from the expansion that rebuilt every
        // node on every round.
        let pinned = [
            ("FNV1A_SRC", 0xc2b3cc9ac7b5b656),
            ("FNV1A_BYTECODE_BODY", 0xaee5677da05717f0),
            ("MANDELBROT_SRC", 0xb54525919ced9e8f),
            ("MANDELBROT_BYTECODE_BODY", 0x8814e790f0e2299d),
            ("DOT_SRC", 0xa2ac487146648308),
            ("BLUR_SRC", 0xcf684ca2138af2f3),
            ("BLUR_BYTECODE_BODY", 0x01efe6f3db4d1422),
            ("HISTOGRAM_SRC", 0xd0aa3e3512bf58c4),
            ("HISTOGRAM_BYTECODE_BODY", 0x25d4c7b47195af66),
            ("primeq_src", 0x41f0fc4a428750b0),
            ("primeq_bytecode_body", 0x2781e2c3cefc8712),
            ("QSORT_SRC", 0xabd5608b12ab8995),
            ("QSORT_BYTECODE_BODY", 0xa7766c9756189ffe),
            ("desugarings", 0x5bb68e7f5c550446),
        ];
        assert_eq!(got, pinned);
    }
}
