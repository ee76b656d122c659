//! Expression printing: `FullForm` (canonical, parseable) and a readable
//! `InputForm` with operator notation for common heads.

use crate::expr::{Expr, ExprKind};

impl Expr {
    /// Canonical head-bracket serialization, e.g. `Plus[1, f[x]]`.
    ///
    /// Every expression round-trips through [`fn@crate::parse`]:
    /// `parse(e.to_full_form()) == e` (up to real-number formatting).
    pub fn to_full_form(&self) -> String {
        let mut out = String::new();
        write_full_form(self, &mut out);
        out
    }

    /// Readable serialization using infix operators for common heads
    /// (`Plus`, `Times`, comparisons, `List` braces, ...).
    pub fn to_input_form(&self) -> String {
        let mut out = String::new();
        write_input_form(self, &mut out, 0);
        out
    }
}

/// Appends the InputForm of a machine real: `1.` for an integral value
/// below 10^15, `Infinity`, `-Infinity`, `Indeterminate` for NaN, and
/// Rust's shortest round-trip digits otherwise.
pub fn write_real(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v == f64::INFINITY {
        out.push_str("Infinity");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Infinity");
    } else if v.is_nan() {
        out.push_str("Indeterminate");
    } else if v == v.trunc() && v.abs() < 1e15 {
        // Wolfram prints machine reals with a trailing dot: 1. not 1.0
        let _ = write!(out, "{}.", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_string_literal(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(ch),
        }
    }
    out.push('"');
}

fn write_full_form(e: &Expr, out: &mut String) {
    match e.kind() {
        ExprKind::Integer(v) => out.push_str(&v.to_string()),
        ExprKind::BigInteger(v) => out.push_str(&v.to_string()),
        ExprKind::Real(v) => write_real(*v, out),
        ExprKind::Complex(re, im) => {
            out.push_str("Complex[");
            write_real(*re, out);
            out.push_str(", ");
            write_real(*im, out);
            out.push(']');
        }
        ExprKind::Str(s) => write_string_literal(s, out),
        ExprKind::Symbol(s) => out.push_str(s.name()),
        ExprKind::Normal(n) => {
            write_full_form(n.head(), out);
            out.push('[');
            for (i, a) in n.args().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_full_form(a, out);
            }
            out.push(']');
        }
    }
}

/// Operator table for InputForm: (symbol, infix text, precedence).
/// Higher precedence binds tighter; matches the parser's table.
fn infix_op(name: &str) -> Option<(&'static str, u8)> {
    Some(match name {
        "CompoundExpression" => ("; ", 10),
        "Set" => (" = ", 20),
        "SetDelayed" => (" := ", 20),
        "ReplaceAll" => (" /. ", 42),
        "ReplaceRepeated" => (" //. ", 42),
        "Rule" => (" -> ", 50),
        "RuleDelayed" => (" :> ", 50),
        "Condition" => (" /; ", 55),
        "Alternatives" => (" | ", 58),
        "Or" => (" || ", 60),
        "And" => (" && ", 70),
        "SameQ" => (" === ", 90),
        "UnsameQ" => (" =!= ", 90),
        "Equal" => (" == ", 100),
        "Unequal" => (" != ", 100),
        "Less" => (" < ", 100),
        "Greater" => (" > ", 100),
        "LessEqual" => (" <= ", 100),
        "GreaterEqual" => (" >= ", 100),
        "StringJoin" => (" <> ", 110),
        "Plus" => (" + ", 120),
        "Times" => ("*", 130),
        "Power" => ("^", 150),
        _ => return None,
    })
}

fn write_input_form(e: &Expr, out: &mut String, parent_prec: u8) {
    match e.kind() {
        ExprKind::Normal(n) => {
            let head_name = n.head().as_symbol().map(|s| s.name().to_owned());
            if let Some(name) = &head_name {
                // List braces.
                if name == "List" {
                    out.push('{');
                    for (i, a) in n.args().iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_input_form(a, out, 0);
                    }
                    out.push('}');
                    return;
                }
                if name == "Slot" {
                    if let Some(ix) = n.args().first().and_then(Expr::as_i64) {
                        if ix == 1 {
                            out.push('#');
                        } else {
                            out.push_str(&format!("#{ix}"));
                        }
                        return;
                    }
                }
                if name == "Blank" && n.args().is_empty() {
                    out.push('_');
                    return;
                }
                if name == "Part" && n.args().len() >= 2 {
                    write_input_form(&n.args()[0], out, 170);
                    out.push_str("[[");
                    for (i, a) in n.args()[1..].iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_input_form(a, out, 0);
                    }
                    out.push_str("]]");
                    return;
                }
                if name == "Minus" && n.args().len() == 1 {
                    out.push('-');
                    write_input_form(&n.args()[0], out, 140);
                    return;
                }
                if name == "Not" && n.args().len() == 1 {
                    out.push('!');
                    write_input_form(&n.args()[0], out, 80);
                    return;
                }
                if let Some((op, prec)) = infix_op(name) {
                    if n.args().len() >= 2 {
                        let need_parens = prec < parent_prec;
                        if need_parens {
                            out.push('(');
                        }
                        for (i, a) in n.args().iter().enumerate() {
                            if i > 0 {
                                out.push_str(op);
                            }
                            write_input_form(a, out, prec + 1);
                        }
                        if need_parens {
                            out.push(')');
                        }
                        return;
                    }
                }
            }
            // Generic head[args] form.
            write_input_form(n.head(), out, 170);
            out.push('[');
            for (i, a) in n.args().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_input_form(a, out, 0);
            }
            out.push(']');
        }
        _ => write_full_form(e, out),
    }
}

#[cfg(test)]
mod tests {
    use crate::expr::Expr;

    #[test]
    fn full_form_nested() {
        let e = Expr::call("Plus", [Expr::int(1), Expr::call("f", [Expr::sym("x")])]);
        assert_eq!(e.to_full_form(), "Plus[1, f[x]]");
    }

    #[test]
    fn reals_print_with_dot() {
        assert_eq!(Expr::real(1.0).to_full_form(), "1.");
        assert_eq!(Expr::real(2.5).to_full_form(), "2.5");
        assert_eq!(Expr::real(f64::INFINITY).to_full_form(), "Infinity");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Expr::string("a\"b\\c\nd").to_full_form(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn input_form_operators() {
        let e = Expr::call(
            "Plus",
            [
                Expr::int(1),
                Expr::call("Times", [Expr::int(2), Expr::sym("x")]),
            ],
        );
        assert_eq!(e.to_input_form(), "1 + 2*x");
    }

    #[test]
    fn input_form_parenthesizes() {
        // (1 + x) * 2 needs parens around Plus.
        let e = Expr::call(
            "Times",
            [
                Expr::call("Plus", [Expr::int(1), Expr::sym("x")]),
                Expr::int(2),
            ],
        );
        assert_eq!(e.to_input_form(), "(1 + x)*2");
    }

    #[test]
    fn input_form_braces_and_part() {
        let e = Expr::call(
            "Part",
            [Expr::list([Expr::int(1), Expr::int(2)]), Expr::int(1)],
        );
        assert_eq!(e.to_input_form(), "{1, 2}[[1]]");
    }

    #[test]
    fn input_form_slot_and_blank() {
        assert_eq!(Expr::call("Slot", [Expr::int(1)]).to_input_form(), "#");
        assert_eq!(Expr::call("Slot", [Expr::int(2)]).to_input_form(), "#2");
        assert_eq!(Expr::call("Blank", []).to_input_form(), "_");
    }

    #[test]
    fn complex_full_form() {
        assert_eq!(Expr::complex(1.0, -2.0).to_full_form(), "Complex[1., -2.]");
    }
}
