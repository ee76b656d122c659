//! The interpreter's global environment: `OwnValues`, `DownValues`, and
//! symbol attributes.

use std::collections::HashMap;
use wolfram_expr::pattern::compare_specificity;
use wolfram_expr::{Expr, Rule, Symbol};

/// Evaluation-control attributes of a symbol (the subset the evaluator
/// honors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attributes {
    /// Hold all arguments unevaluated.
    pub hold_all: bool,
    /// Hold the first argument unevaluated.
    pub hold_first: bool,
    /// Hold all but the first argument unevaluated.
    pub hold_rest: bool,
    /// Thread automatically over lists.
    pub listable: bool,
    /// Definitions may not be changed.
    pub protected: bool,
}

impl Attributes {
    /// No attributes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether argument `index` (0-based) should be held.
    pub fn holds_arg(&self, index: usize) -> bool {
        self.hold_all || (self.hold_first && index == 0) || (self.hold_rest && index > 0)
    }
}

/// A symbol's stored definitions.
#[derive(Debug, Clone, Default)]
pub struct SymbolDef {
    /// `OwnValues`: the value of `x` after `x = v`.
    pub own: Option<Expr>,
    /// `DownValues`: rules for `f[...]`, kept sorted by pattern specificity.
    pub down: Vec<Rule>,
    /// Evaluation attributes.
    pub attributes: Attributes,
}

/// The global definition store.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    defs: HashMap<Symbol, SymbolDef>,
    module_counter: u64,
}

impl Environment {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a symbol's `OwnValue`.
    pub fn own_value(&self, s: &Symbol) -> Option<&Expr> {
        self.defs.get(s).and_then(|d| d.own.as_ref())
    }

    /// Sets a symbol's `OwnValue` (`x = v`).
    pub fn set_own(&mut self, s: Symbol, v: Expr) {
        self.defs.entry(s).or_default().own = Some(v);
    }

    /// Clears a symbol's `OwnValue` (`x =.` / `Clear`).
    pub fn clear_own(&mut self, s: &Symbol) {
        if let Some(d) = self.defs.get_mut(s) {
            d.own = None;
        }
    }

    /// Removes every definition of the symbol.
    pub fn clear_all(&mut self, s: &Symbol) {
        self.defs.remove(s);
    }

    /// The `DownValues` of a symbol, in specificity order.
    pub fn down_values(&self, s: &Symbol) -> &[Rule] {
        self.defs.get(s).map(|d| d.down.as_slice()).unwrap_or(&[])
    }

    /// Adds a `DownValue` rule, replacing any rule with a structurally
    /// identical left-hand side and keeping the list sorted by specificity
    /// (more specific rules first, ties in insertion order — Wolfram's rule
    /// ordering).
    pub fn add_down_value(&mut self, s: Symbol, rule: Rule) {
        let def = self.defs.entry(s).or_default();
        if let Some(existing) = def.down.iter_mut().find(|r| r.lhs == rule.lhs) {
            *existing = rule;
            return;
        }
        // Stable insertion preserving specificity order.
        let pos = def
            .down
            .iter()
            .position(|r| compare_specificity(&rule.lhs, &r.lhs).is_lt())
            .unwrap_or(def.down.len());
        def.down.insert(pos, rule);
    }

    /// The attributes of a symbol.
    pub fn attributes(&self, s: &Symbol) -> Attributes {
        self.defs.get(s).map(|d| d.attributes).unwrap_or_default()
    }

    /// Sets the attributes of a symbol.
    pub fn set_attributes(&mut self, s: Symbol, attributes: Attributes) {
        self.defs.entry(s).or_default().attributes = attributes;
    }

    /// A fresh module-variable name for `base` (`x` -> `x$17`), used by
    /// `Module` scoping.
    pub fn fresh_module_symbol(&mut self, base: &Symbol) -> Symbol {
        self.module_counter += 1;
        Symbol::new(&format!("{}${}", base.name(), self.module_counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    fn rule(src: &str) -> Rule {
        Rule::from_expr(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn own_values() {
        let mut env = Environment::new();
        let x = Symbol::new("x");
        assert!(env.own_value(&x).is_none());
        env.set_own(x.clone(), Expr::int(5));
        assert_eq!(env.own_value(&x).unwrap().as_i64(), Some(5));
        env.clear_own(&x);
        assert!(env.own_value(&x).is_none());
    }

    #[test]
    fn down_values_sorted_by_specificity() {
        let mut env = Environment::new();
        let f = Symbol::new("f");
        env.add_down_value(f.clone(), rule("f[x_] -> general[x]"));
        env.add_down_value(f.clone(), rule("f[0] -> zero"));
        // The literal rule must come first even though added later.
        assert_eq!(env.down_values(&f)[0].rhs.to_full_form(), "zero");
        assert_eq!(env.down_values(&f).len(), 2);
    }

    #[test]
    fn down_values_replace_same_lhs() {
        let mut env = Environment::new();
        let f = Symbol::new("f");
        env.add_down_value(f.clone(), rule("f[x_] -> a"));
        env.add_down_value(f.clone(), rule("f[x_] -> b"));
        assert_eq!(env.down_values(&f).len(), 1);
        assert_eq!(env.down_values(&f)[0].rhs.to_full_form(), "b");
    }

    #[test]
    fn fresh_module_symbols_unique() {
        let mut env = Environment::new();
        let x = Symbol::new("x");
        let a = env.fresh_module_symbol(&x);
        let b = env.fresh_module_symbol(&x);
        assert_ne!(a, b);
        assert!(a.name().starts_with("x$"));
    }

    #[test]
    fn attribute_holds() {
        let a = Attributes {
            hold_first: true,
            ..Attributes::none()
        };
        assert!(a.holds_arg(0));
        assert!(!a.holds_arg(1));
        let a = Attributes {
            hold_rest: true,
            ..Attributes::none()
        };
        assert!(!a.holds_arg(0));
        assert!(a.holds_arg(2));
        let a = Attributes {
            hold_all: true,
            ..Attributes::none()
        };
        assert!(a.holds_arg(0) && a.holds_arg(5));
    }
}
