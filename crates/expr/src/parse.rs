//! A Pratt parser for the Wolfram Language subset used throughout the paper:
//! bracketed application, lists, patterns, rules, pure functions, operators,
//! `Part` double-brackets, and compound expressions.
//!
//! The grammar intentionally covers what the paper's programs need rather
//! than the full language (no implicit multiplication, no `Span`, no
//! two-dimensional input). See DESIGN.md §6.

use crate::expr::Expr;
use crate::lex::{tokenize, LexError, Token, TokenKind};
use std::fmt;

/// Deepest nesting [`parse`] accepts: brackets, braces, parentheses and
/// operator operands all count one level each. The parser recurses once
/// per level, and so do the passes that read its output (the cache key's
/// `FullForm`, macro expansion, lowering), so a deeper input is a
/// [`ParseError`] instead of a stack overflow that takes the process
/// down. At this depth a request parses, is keyed and compiles or fails
/// cleanly on a 2 MiB thread stack in a debug build, where the parser
/// alone takes about 5 KiB of stack per level of `f[...]` and 320 levels
/// overflow (an optimized build parses 1,000 levels on that stack).
pub const MAX_DEPTH: usize = 256;

/// An error produced by [`parse`] / [`parse_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the source.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parses a single expression; trailing input is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical errors, malformed syntax, or leftover
/// tokens.
///
/// # Examples
///
/// ```
/// use wolfram_expr::parse;
/// let e = parse("Function[{n}, If[n < 1, 1, fib[n-1] + fib[n-2]]]")?;
/// assert!(e.has_head("Function"));
/// # Ok::<(), wolfram_expr::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.parse_expr(0)?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a sequence of expressions until end of input.
///
/// Statements are separated by maximal-munch boundaries (usually semicolons
/// or newlines between complete expressions).
///
/// # Errors
///
/// Returns a [`ParseError`] as for [`parse`].
pub fn parse_all(src: &str) -> Result<Vec<Expr>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.parse_expr(0)?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting of the `parse_expr` calls under way.
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        *self.peek() == TokenKind::Eof
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(self.peek(), TokenKind::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found `{}`", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input `{}`", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.offset(),
        }
    }

    /// Left binding power of the operator at the cursor, 0 if none.
    fn lbp(&self) -> u8 {
        match self.peek() {
            TokenKind::Punct(p) => match *p {
                ";" => 10,
                "=" | ":=" | "+=" | "-=" | "*=" | "/=" => 20,
                "//" => 25,
                "&" => 30,
                "/." | "//." => 42,
                "->" | ":>" => 50,
                "/;" => 55,
                "|" => 58,
                "||" => 60,
                "&&" => 70,
                "===" | "=!=" => 90,
                "==" | "!=" | "<" | ">" | "<=" | ">=" => 100,
                "<>" => 110,
                "+" | "-" => 120,
                "*" | "/" => 130,
                "/@" => 137,
                "^" => 150,
                "++" | "--" => 155,
                "@" => 160,
                "[" => 170,
                _ => 0,
            },
            _ => 0,
        }
    }

    fn parse_expr(&mut self, rbp: u8) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let mut lhs = self.nud();
        while lhs.is_ok() && self.lbp() > rbp {
            lhs = self.led(lhs?);
        }
        self.depth -= 1;
        lhs
    }

    fn nud(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            TokenKind::Integer(v) => Ok(Expr::int(v)),
            TokenKind::BigInteger(v) => Ok(Expr::big(v)),
            TokenKind::Real(v) => Ok(Expr::real(v)),
            TokenKind::Str(s) => Ok(Expr::string(s)),
            TokenKind::Ident(name) => Ok(Expr::sym(&name)),
            TokenKind::Slot(n) => Ok(Expr::call("Slot", [Expr::int(n)])),
            TokenKind::SlotSequence => Ok(Expr::call("SlotSequence", [Expr::int(1)])),
            TokenKind::PatternLike { name, blanks, head } => {
                let blank_head = match blanks {
                    1 => "Blank",
                    2 => "BlankSequence",
                    _ => "BlankNullSequence",
                };
                let blank = match head {
                    Some(h) => Expr::call(blank_head, [Expr::sym(&h)]),
                    None => Expr::call(blank_head, []),
                };
                Ok(match name {
                    Some(n) => Expr::call("Pattern", [Expr::sym(&n), blank]),
                    None => blank,
                })
            }
            TokenKind::Punct("(") => {
                let inner = self.parse_expr(0)?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            TokenKind::Punct("{") => {
                let args = self.parse_arg_list("}")?;
                Ok(Expr::list(args))
            }
            TokenKind::Punct("-") => {
                let operand = self.parse_expr(139)?;
                Ok(match operand.as_i64() {
                    Some(v) => match v.checked_neg() {
                        Some(n) => Expr::int(n),
                        None => Expr::big(crate::bigint::BigInt::from(v).neg()),
                    },
                    None => match operand.kind() {
                        crate::expr::ExprKind::Real(v) => Expr::real(-v),
                        // `-9223372036854775808` lexes as BigInteger(2^63);
                        // negating must land back on the machine integer.
                        crate::expr::ExprKind::BigInteger(b) => Expr::big(b.neg()),
                        _ => Expr::call("Times", [Expr::int(-1), operand]),
                    },
                })
            }
            TokenKind::Punct("+") => self.parse_expr(139),
            TokenKind::Punct("!") => {
                let operand = self.parse_expr(79)?;
                Ok(Expr::call("Not", [operand]))
            }
            TokenKind::Punct("++") => {
                let operand = self.parse_expr(154)?;
                Ok(Expr::call("PreIncrement", [operand]))
            }
            TokenKind::Punct("--") => {
                let operand = self.parse_expr(154)?;
                Ok(Expr::call("PreDecrement", [operand]))
            }
            other => Err(ParseError {
                message: format!("unexpected token `{other}`"),
                offset: self.tokens[self.pos.saturating_sub(1)].offset,
            }),
        }
    }

    fn parse_arg_list(&mut self, close: &str) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat_punct(close) {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr(0)?);
            if self.eat_punct(",") {
                continue;
            }
            self.expect_punct(close)?;
            return Ok(args);
        }
    }

    /// Builds an n-ary flattened application, merging `lhs` if it already has
    /// the same head (`Plus`, `Times`, `And`, ... are Flat in Wolfram).
    fn flat(head: &str, lhs: Expr, rhs: Expr) -> Expr {
        let mut args = if lhs.has_head(head) {
            lhs.args().to_vec()
        } else {
            vec![lhs]
        };
        args.push(rhs);
        Expr::call(head, args)
    }

    fn led(&mut self, lhs: Expr) -> Result<Expr, ParseError> {
        let TokenKind::Punct(op) = self.bump() else {
            return Err(self.err("expected operator"));
        };
        match op {
            ";" => {
                let mut args = if lhs.has_head("CompoundExpression") {
                    lhs.args().to_vec()
                } else {
                    vec![lhs]
                };
                // A trailing `;` appends Null (statement form).
                if self.at_eof()
                    || self.at_punct(")")
                    || self.at_punct("]")
                    || self.at_punct("}")
                    || self.at_punct(",")
                {
                    args.push(Expr::null());
                } else {
                    args.push(self.parse_expr(10)?);
                }
                Ok(Expr::call("CompoundExpression", args))
            }
            "=" => Ok(Expr::call("Set", [lhs, self.parse_expr(19)?])),
            ":=" => Ok(Expr::call("SetDelayed", [lhs, self.parse_expr(19)?])),
            "+=" => Ok(Expr::call("AddTo", [lhs, self.parse_expr(19)?])),
            "-=" => Ok(Expr::call("SubtractFrom", [lhs, self.parse_expr(19)?])),
            "*=" => Ok(Expr::call("TimesBy", [lhs, self.parse_expr(19)?])),
            "/=" => Ok(Expr::call("DivideBy", [lhs, self.parse_expr(19)?])),
            "//" => {
                let f = self.parse_expr(25)?;
                Ok(Expr::normal(f, vec![lhs]))
            }
            "&" => Ok(Expr::call("Function", [lhs])),
            "/." => Ok(Expr::call("ReplaceAll", [lhs, self.parse_expr(42)?])),
            "//." => Ok(Expr::call("ReplaceRepeated", [lhs, self.parse_expr(42)?])),
            "->" => Ok(Expr::call("Rule", [lhs, self.parse_expr(49)?])),
            ":>" => Ok(Expr::call("RuleDelayed", [lhs, self.parse_expr(49)?])),
            "/;" => Ok(Expr::call("Condition", [lhs, self.parse_expr(55)?])),
            "|" => Ok(Self::flat("Alternatives", lhs, self.parse_expr(58)?)),
            "||" => Ok(Self::flat("Or", lhs, self.parse_expr(60)?)),
            "&&" => Ok(Self::flat("And", lhs, self.parse_expr(70)?)),
            "===" => Ok(Expr::call("SameQ", [lhs, self.parse_expr(90)?])),
            "=!=" => Ok(Expr::call("UnsameQ", [lhs, self.parse_expr(90)?])),
            "==" | "!=" | "<" | ">" | "<=" | ">=" => {
                let head = match op {
                    "==" => "Equal",
                    "!=" => "Unequal",
                    "<" => "Less",
                    ">" => "Greater",
                    "<=" => "LessEqual",
                    _ => "GreaterEqual",
                };
                // Same-operator chains flatten: a < b < c => Less[a, b, c].
                let rhs = self.parse_expr(100)?;
                Ok(Self::flat(head, lhs, rhs))
            }
            "<>" => Ok(Self::flat("StringJoin", lhs, self.parse_expr(110)?)),
            "+" => Ok(Self::flat("Plus", lhs, self.parse_expr(120)?)),
            "-" => Ok(Expr::call("Subtract", [lhs, self.parse_expr(120)?])),
            "*" => Ok(Self::flat("Times", lhs, self.parse_expr(130)?)),
            "/" => Ok(Expr::call("Divide", [lhs, self.parse_expr(130)?])),
            "/@" => Ok(Expr::call("Map", [lhs, self.parse_expr(136)?])),
            "^" => Ok(Expr::call("Power", [lhs, self.parse_expr(149)?])),
            "++" => Ok(Expr::call("Increment", [lhs])),
            "--" => Ok(Expr::call("Decrement", [lhs])),
            "@" => {
                let arg = self.parse_expr(159)?;
                Ok(Expr::normal(lhs, vec![arg]))
            }
            "[" => {
                if self.at_punct("[") {
                    // Part: expr[[i, j, ...]]
                    self.bump();
                    let mut args = vec![lhs];
                    args.extend(self.parse_arg_list("]")?);
                    self.expect_punct("]")?;
                    Ok(Expr::call("Part", args))
                } else {
                    let args = self.parse_arg_list("]")?;
                    Ok(Expr::normal(lhs, args))
                }
            }
            other => Err(self.err(format!("unexpected operator `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ff(src: &str) -> String {
        parse(src).unwrap().to_full_form()
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(ff("1 + 2*3"), "Plus[1, Times[2, 3]]");
        assert_eq!(ff("(1 + 2)*3"), "Times[Plus[1, 2], 3]");
        assert_eq!(ff("2^3^2"), "Power[2, Power[3, 2]]");
        assert_eq!(ff("a - b - c"), "Subtract[Subtract[a, b], c]");
        assert_eq!(ff("a/b"), "Divide[a, b]");
        assert_eq!(ff("1 + 2 + 3"), "Plus[1, 2, 3]");
    }

    #[test]
    fn unary_minus() {
        assert_eq!(ff("-3"), "-3");
        assert_eq!(ff("-3.5"), "-3.5");
        assert_eq!(ff("-x"), "Times[-1, x]");
        assert_eq!(ff("-x + y"), "Plus[Times[-1, x], y]");
        assert_eq!(ff("a - -b"), "Subtract[a, Times[-1, b]]");
    }

    #[test]
    fn application_and_part() {
        assert_eq!(ff("f[x, y]"), "f[x, y]");
        assert_eq!(ff("f[]"), "f[]");
        assert_eq!(ff("f[x][y]"), "f[x][y]");
        assert_eq!(ff("a[[1]]"), "Part[a, 1]");
        assert_eq!(ff("a[[i, j]]"), "Part[a, i, j]");
        assert_eq!(ff("f[a[[1]]]"), "f[Part[a, 1]]");
        assert_eq!(ff("a[[1]][[2]]"), "Part[Part[a, 1], 2]");
    }

    #[test]
    fn lists() {
        assert_eq!(ff("{}"), "List[]");
        assert_eq!(ff("{1, {2, 3}}"), "List[1, List[2, 3]]");
    }

    #[test]
    fn pure_functions() {
        assert_eq!(ff("# + 1 &"), "Function[Plus[Slot[1], 1]]");
        assert_eq!(ff("f[#1, #2] &"), "Function[f[Slot[1], Slot[2]]]");
        assert_eq!(ff("(# + 1 &)[5]"), "Function[Plus[Slot[1], 1]][5]");
        assert_eq!(ff("f @ x"), "f[x]");
        assert_eq!(ff("x // f"), "f[x]");
    }

    #[test]
    fn rules_and_replacement() {
        assert_eq!(ff("x -> 1"), "Rule[x, 1]");
        assert_eq!(ff("x :> 1"), "RuleDelayed[x, 1]");
        assert_eq!(ff("e /. x -> 1"), "ReplaceAll[e, Rule[x, 1]]");
        assert_eq!(ff("e //. {a -> b}"), "ReplaceRepeated[e, List[Rule[a, b]]]");
        assert_eq!(
            ff("StringReplace[#, \"foo\" -> \"grok\"]"),
            "StringReplace[Slot[1], Rule[\"foo\", \"grok\"]]"
        );
    }

    #[test]
    fn patterns_parse() {
        assert_eq!(ff("f[x_] := x"), "SetDelayed[f[Pattern[x, Blank[]]], x]");
        assert_eq!(ff("_Integer"), "Blank[Integer]");
        assert_eq!(
            ff("x__ | y_"),
            "Alternatives[Pattern[x, BlankSequence[]], Pattern[y, Blank[]]]"
        );
        assert_eq!(
            ff("x_ /; x > 0"),
            "Condition[Pattern[x, Blank[]], Greater[x, 0]]"
        );
    }

    #[test]
    fn compound_expressions() {
        assert_eq!(ff("a; b; c"), "CompoundExpression[a, b, c]");
        assert_eq!(ff("a; b;"), "CompoundExpression[a, b, Null]");
        assert_eq!(ff("(a;)"), "CompoundExpression[a, Null]");
        assert_eq!(
            ff("y = x; x = 1; y"),
            "CompoundExpression[Set[y, x], Set[x, 1], y]"
        );
    }

    #[test]
    fn assignment_forms() {
        assert_eq!(ff("x = 1"), "Set[x, 1]");
        assert_eq!(ff("x := 1"), "SetDelayed[x, 1]");
        assert_eq!(ff("x += 2"), "AddTo[x, 2]");
        assert_eq!(ff("i++"), "Increment[i]");
        assert_eq!(ff("i--"), "Decrement[i]");
        assert_eq!(ff("++i"), "PreIncrement[i]");
        assert_eq!(ff("a = b = 1"), "Set[a, Set[b, 1]]");
    }

    #[test]
    fn logic_and_comparisons() {
        assert_eq!(ff("a && b || c"), "Or[And[a, b], c]");
        assert_eq!(ff("a && b && c"), "And[a, b, c]");
        assert_eq!(ff("!a"), "Not[a]");
        assert_eq!(ff("a < b < c"), "Less[a, b, c]");
        assert_eq!(ff("a === b"), "SameQ[a, b]");
        assert_eq!(ff("i >= 0"), "GreaterEqual[i, 0]");
    }

    #[test]
    fn paper_random_walk_parses() {
        let src = "Function[{len},
            NestList[
              Module[{arg = RandomReal[{0, 2*Pi}]},
                {-Cos[arg], Sin[arg]} + #
              ]&,
              {0, 0},
              len
            ]
          ]";
        let e = parse(src).unwrap();
        assert!(e.has_head("Function"));
        assert_eq!(e.args()[0].to_full_form(), "List[len]");
        assert!(e.args()[1].has_head("NestList"));
    }

    #[test]
    fn paper_fib_parses() {
        let e = parse("Function[{n}, If[n < 1, 1, fib[n-1] + fib[n-2]]]").unwrap();
        assert_eq!(
            e.to_full_form(),
            "Function[List[n], If[Less[n, 1], 1, Plus[fib[Subtract[n, 1]], fib[Subtract[n, 2]]]]]"
        );
    }

    #[test]
    fn typed_annotations() {
        assert_eq!(
            ff("Function[{Typed[n, \"MachineInteger\"]}, n + 1]"),
            "Function[List[Typed[n, \"MachineInteger\"]], Plus[n, 1]]"
        );
        assert_eq!(ff("Typed[\"ty\"][e]"), "Typed[\"ty\"][e]");
    }

    #[test]
    fn map_operator() {
        assert_eq!(ff("f /@ {1, 2}"), "Map[f, List[1, 2]]");
    }

    #[test]
    fn string_join() {
        assert_eq!(ff("\"a\" <> \"b\" <> c"), "StringJoin[\"a\", \"b\", c]");
    }

    #[test]
    fn errors() {
        assert!(parse("f[").is_err());
        assert!(parse("1 2").is_err()); // no implicit multiplication
        assert!(parse("").is_err());
        assert!(parse("a +").is_err());
        assert!(parse_all("f[x] g[y]").is_ok()); // two statements
    }

    #[test]
    fn nesting_is_limited() {
        let braces = |n: usize| format!("{}{}", "{".repeat(n), "}".repeat(n));
        assert!(parse(&braces(MAX_DEPTH)).is_ok());
        let err = parse(&braces(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Every recursive form counts: application, parentheses, prefix
        // and right-associative operators.
        let calls = format!("{}x{}", "f[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&calls).is_err());
        assert!(parse(&format!(
            "{}x{}",
            "(".repeat(MAX_DEPTH),
            ")".repeat(MAX_DEPTH)
        ))
        .is_err());
        assert!(parse(&format!("{}x", "- ".repeat(MAX_DEPTH))).is_err());
        assert!(parse(&vec!["x"; MAX_DEPTH + 1].join(" -> ")).is_err());
        // A long flat chain is not nesting.
        assert!(parse(&vec!["x"; 10 * MAX_DEPTH].join(" + ")).is_ok());
        // Far past the limit it is still an error, not a stack overflow.
        assert!(parse(&"{".repeat(100_000)).is_err());
    }

    #[test]
    fn parse_all_sequences() {
        let es = parse_all("x = 1; f[x]").unwrap();
        assert_eq!(es.len(), 1); // one compound expression
        let es = parse_all("f[1] f[2]").unwrap();
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn full_form_roundtrip() {
        for src in [
            "Plus[1, Times[2, x]]",
            "Function[List[n], If[Less[n, 1], 1, n]]",
            "Part[a, 1, 2]",
            "List[\"s\", 1.5, Complex[1., 2.]]",
        ] {
            let e = parse(src).unwrap();
            assert_eq!(parse(&e.to_full_form()).unwrap(), e, "roundtrip {src}");
        }
    }
}
