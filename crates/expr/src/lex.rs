//! Lexer for the Wolfram Language subset accepted by [`fn@crate::parse`].

use crate::bigint::BigInt;
use std::fmt;

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token payload.
    pub kind: TokenKind,
    /// Byte offset of the token start in the source string.
    pub offset: usize,
}

/// Token payloads produced by [`tokenize`].
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A machine integer literal.
    Integer(i64),
    /// An integer literal too large for `i64`.
    BigInteger(BigInt),
    /// A real literal.
    Real(f64),
    /// A string literal (contents, unescaped).
    Str(String),
    /// An identifier / symbol name (may contain a context backtick).
    Ident(String),
    /// A pattern composite such as `x_Integer`, `_`, `xs__`, `___h`.
    PatternLike {
        /// The pattern variable name, if present (`x` in `x_Integer`).
        name: Option<String>,
        /// Number of underscores: 1 = Blank, 2 = BlankSequence, 3 = BlankNullSequence.
        blanks: u8,
        /// The required head, if present (`Integer` in `x_Integer`).
        head: Option<String>,
    },
    /// `#` or `#n`.
    Slot(i64),
    /// `##`.
    SlotSequence,
    /// Any punctuation or operator, stored as its source text (`"+"`, `"->"`,
    /// `"[["` is *not* produced — brackets are always single).
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Integer(v) => write!(f, "{v}"),
            TokenKind::BigInteger(v) => write!(f, "{v}"),
            TokenKind::Real(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "{s:?}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::PatternLike { name, blanks, head } => {
                if let Some(n) = name {
                    write!(f, "{n}")?;
                }
                for _ in 0..*blanks {
                    write!(f, "_")?;
                }
                if let Some(h) = head {
                    write!(f, "{h}")?;
                }
                Ok(())
            }
            TokenKind::Slot(n) => write!(f, "#{n}"),
            TokenKind::SlotSequence => write!(f, "##"),
            TokenKind::Punct(p) => write!(f, "{p}"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// An error produced during tokenization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset where the error occurred.
    pub offset: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '$'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '$' || c == '`'
}

struct Lexer<'a> {
    src: &'a str,
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    offset: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            chars: src.char_indices().peekable(),
            offset: 0,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let (i, c) = self.chars.next()?;
        self.offset = i + c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            offset: self.offset,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('(') => {
                    // Possible comment `(*`.
                    let mut look = self.chars.clone();
                    look.next();
                    if look.peek().map(|&(_, c)| c) == Some('*') {
                        self.bump();
                        self.bump();
                        let mut depth = 1usize;
                        loop {
                            match self.bump() {
                                None => return Err(self.err("unterminated comment")),
                                Some('(') if self.peek() == Some('*') => {
                                    self.bump();
                                    depth += 1;
                                }
                                Some('*') if self.peek() == Some(')') => {
                                    self.bump();
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                Some(_) => {}
                            }
                        }
                    } else {
                        return Ok(());
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<TokenKind, LexError> {
        let (len, token) = scan_number(&self.src[start..]);
        // The first digit is consumed; the rest of the literal is ASCII.
        for _ in 1..len {
            self.bump();
        }
        token.map_err(|message| self.err(message))
    }

    fn lex_ident_text(&mut self, first: char) -> String {
        let mut s = String::new();
        s.push(first);
        while matches!(self.peek(), Some(c) if is_ident_continue(c)) {
            s.push(self.bump().unwrap());
        }
        s
    }

    fn lex_string(&mut self) -> Result<TokenKind, LexError> {
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(TokenKind::Str(s)),
                Some('\\') => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some(c) => return Err(self.err(format!("unknown escape `\\{c}`"))),
                    None => return Err(self.err("unterminated string")),
                },
                Some(c) => s.push(c),
            }
        }
    }

    /// Lexes a pattern-like token after having read `name` (possibly empty)
    /// and being positioned at the first `_`.
    fn lex_pattern(&mut self, name: Option<String>) -> TokenKind {
        let mut blanks = 0u8;
        while self.peek() == Some('_') && blanks < 3 {
            self.bump();
            blanks += 1;
        }
        let head = match self.peek() {
            Some(c) if is_ident_start(c) => {
                self.bump();
                Some(self.lex_ident_text(c))
            }
            _ => None,
        };
        TokenKind::PatternLike { name, blanks, head }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let start = self.offset;
        let kind = match self.bump() {
            None => TokenKind::Eof,
            Some(c) if c.is_ascii_digit() => self.lex_number(start)?,
            Some('"') => self.lex_string()?,
            Some('_') => self.lex_pattern_with_leading_blank(),
            Some(c) if is_ident_start(c) => {
                let name = self.lex_ident_text(c);
                let name = normalize_ident(name);
                if self.peek() == Some('_') {
                    self.lex_pattern(Some(name))
                } else {
                    TokenKind::Ident(name)
                }
            }
            Some('#') => {
                if self.eat('#') {
                    TokenKind::SlotSequence
                } else {
                    let mut n = 0i64;
                    let mut any = false;
                    while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                        n = n * 10 + (self.bump().unwrap() as i64 - '0' as i64);
                        any = true;
                    }
                    TokenKind::Slot(if any { n } else { 1 })
                }
            }
            Some(c) => TokenKind::Punct(self.lex_punct(c)?),
        };
        Ok(Token {
            kind,
            offset: start,
        })
    }

    fn lex_pattern_with_leading_blank(&mut self) -> TokenKind {
        // We already consumed one `_`.
        let mut blanks = 1u8;
        while self.peek() == Some('_') && blanks < 3 {
            self.bump();
            blanks += 1;
        }
        let head = match self.peek() {
            Some(c) if is_ident_start(c) => {
                self.bump();
                Some(self.lex_ident_text(c))
            }
            _ => None,
        };
        TokenKind::PatternLike {
            name: None,
            blanks,
            head,
        }
    }

    fn lex_punct(&mut self, c: char) -> Result<&'static str, LexError> {
        Ok(match c {
            '(' => "(",
            ')' => ")",
            '[' => "[",
            ']' => "]",
            '{' => "{",
            '}' => "}",
            ',' => ",",
            ';' => ";",
            '&' => {
                if self.eat('&') {
                    "&&"
                } else {
                    "&"
                }
            }
            '|' => {
                if self.eat('|') {
                    "||"
                } else {
                    "|"
                }
            }
            '+' => {
                if self.eat('+') {
                    "++"
                } else if self.eat('=') {
                    "+="
                } else {
                    "+"
                }
            }
            '-' => {
                if self.eat('-') {
                    "--"
                } else if self.eat('=') {
                    "-="
                } else if self.eat('>') {
                    "->"
                } else {
                    "-"
                }
            }
            '*' => {
                if self.eat('=') {
                    "*="
                } else {
                    "*"
                }
            }
            '/' => {
                if self.eat('.') {
                    "/."
                } else if self.eat('/') {
                    if self.eat('.') {
                        "//."
                    } else {
                        "//"
                    }
                } else if self.eat(';') {
                    "/;"
                } else if self.eat('=') {
                    "/="
                } else if self.eat('@') {
                    "/@"
                } else {
                    "/"
                }
            }
            '^' => "^",
            '=' => {
                if self.eat('=') {
                    if self.eat('=') {
                        "==="
                    } else {
                        "=="
                    }
                } else if self.eat('!') {
                    if self.eat('=') {
                        "=!="
                    } else {
                        return Err(self.err("expected `=` after `=!`"));
                    }
                } else {
                    "="
                }
            }
            '!' => {
                if self.eat('=') {
                    "!="
                } else {
                    "!"
                }
            }
            '<' => {
                if self.eat('=') {
                    "<="
                } else if self.eat('>') {
                    "<>"
                } else {
                    "<"
                }
            }
            '>' => {
                if self.eat('=') {
                    ">="
                } else {
                    ">"
                }
            }
            ':' => {
                if self.eat('=') {
                    ":="
                } else if self.eat('>') {
                    ":>"
                } else {
                    ":"
                }
            }
            '@' => "@",
            '≡' => "===",
            '≥' => ">=",
            '≤' => "<=",
            '≠' => "!=",
            '→' => "->",
            other => return Err(self.err(format!("unexpected character `{other}`"))),
        })
    }
}

/// Canonicalizes unicode spellings (`π` -> `Pi`).
fn normalize_ident(name: String) -> String {
    match name.as_str() {
        "π" => "Pi".to_owned(),
        "∞" => "Infinity".to_owned(),
        _ => name,
    }
}

/// Scans the number literal at the start of `src`, which begins with an
/// ASCII digit: digits, an optional fraction (`1.` and `1.5` are reals,
/// while `1..` is the integer `1` before a span) and an optional `*^`
/// exponent (`1.5*^3`, `2*^-1`, both reals). Returns the literal's length
/// in bytes and its token (`Integer`, `BigInteger` past `i64`, or `Real`),
/// or the message for a malformed literal such as `1*^`.
///
/// The one meaning of a number literal: the lexer and the stream record
/// reader both read numbers here.
pub fn scan_number(src: &str) -> (usize, Result<TokenKind, String>) {
    let bytes = src.as_bytes();
    let digits_from = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut end = digits_from(0);
    let is_real = bytes.get(end) == Some(&b'.') && bytes.get(end + 1) != Some(&b'.');
    if is_real {
        end = digits_from(end + 1);
    }
    let bad_real = |text: &str| format!("bad real literal `{text}`");
    if bytes.get(end) == Some(&b'*') && bytes.get(end + 1) == Some(&b'^') {
        end += 2;
        if matches!(bytes.get(end), Some(b'-' | b'+')) {
            end += 1;
        }
        end = digits_from(end);
        let text = src[..end].replace("*^", "e");
        let token = text.parse().map(TokenKind::Real);
        return (end, token.map_err(|_| bad_real(&text)));
    }
    let text = &src[..end];
    let token = if is_real {
        let digits = text.strip_suffix('.').unwrap_or(text);
        digits
            .parse()
            .map(TokenKind::Real)
            .map_err(|_| bad_real(text))
    } else if let Ok(v) = text.parse::<i64>() {
        Ok(TokenKind::Integer(v))
    } else {
        BigInt::parse(text)
            .map(TokenKind::BigInteger)
            .ok_or_else(|| format!("bad integer `{text}`"))
    };
    (end, token)
}

/// Tokenizes `src`, ending with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated strings/comments and unknown
/// characters.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let tok = lexer.next_token()?;
        let done = tok.kind == TokenKind::Eof;
        out.push(tok);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42"), vec![TokenKind::Integer(42), TokenKind::Eof]);
        assert_eq!(kinds("1.5"), vec![TokenKind::Real(1.5), TokenKind::Eof]);
        assert_eq!(kinds("1."), vec![TokenKind::Real(1.0), TokenKind::Eof]);
        assert_eq!(kinds("2*^3"), vec![TokenKind::Real(2000.0), TokenKind::Eof]);
        match &kinds("99999999999999999999999")[0] {
            TokenKind::BigInteger(b) => assert_eq!(b.to_string(), "99999999999999999999999"),
            other => panic!("expected bigint, got {other:?}"),
        }
    }

    #[test]
    fn scan_number_reports_extent_and_errors() {
        assert_eq!(scan_number("1..2"), (1, Ok(TokenKind::Integer(1))));
        assert_eq!(scan_number("1.5*^3}"), (6, Ok(TokenKind::Real(1500.0))));
        assert_eq!(
            scan_number("123456789012345678,"),
            (18, Ok(TokenKind::Integer(123_456_789_012_345_678)))
        );
        assert_eq!(
            scan_number("9223372036854775807"),
            (19, Ok(TokenKind::Integer(i64::MAX)))
        );
        assert_eq!(scan_number("1*^"), (3, Err("bad real literal `1e`".into())));
        let err = tokenize("x + 1*^").unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (7, "bad real literal `1e`")
        );
    }

    #[test]
    fn idents_and_contexts() {
        assert_eq!(
            kinds("fooBar2"),
            vec![TokenKind::Ident("fooBar2".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("CUDA`Map"),
            vec![TokenKind::Ident("CUDA`Map".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("$x"),
            vec![TokenKind::Ident("$x".into()), TokenKind::Eof]
        );
        assert_eq!(
            kinds("π"),
            vec![TokenKind::Ident("Pi".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn patterns() {
        assert_eq!(
            kinds("x_Integer"),
            vec![
                TokenKind::PatternLike {
                    name: Some("x".into()),
                    blanks: 1,
                    head: Some("Integer".into())
                },
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("_"),
            vec![
                TokenKind::PatternLike {
                    name: None,
                    blanks: 1,
                    head: None
                },
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("rest__"),
            vec![
                TokenKind::PatternLike {
                    name: Some("rest".into()),
                    blanks: 2,
                    head: None
                },
                TokenKind::Eof
            ]
        );
        assert_eq!(
            kinds("___List"),
            vec![
                TokenKind::PatternLike {
                    name: None,
                    blanks: 3,
                    head: Some("List".into())
                },
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn slots() {
        assert_eq!(kinds("#"), vec![TokenKind::Slot(1), TokenKind::Eof]);
        assert_eq!(kinds("#3"), vec![TokenKind::Slot(3), TokenKind::Eof]);
        assert_eq!(kinds("##"), vec![TokenKind::SlotSequence, TokenKind::Eof]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a /. b //. c"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Punct("/."),
                TokenKind::Ident("b".into()),
                TokenKind::Punct("//."),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("=!=")[0], TokenKind::Punct("=!="));
        assert_eq!(kinds(":=")[0], TokenKind::Punct(":="));
        assert_eq!(kinds("->")[0], TokenKind::Punct("->"));
        assert_eq!(kinds("≥")[0], TokenKind::Punct(">="));
    }

    #[test]
    fn comments_nest() {
        assert_eq!(kinds("1 (* outer (* inner *) still *) 2"), kinds("1 2"));
        assert!(tokenize("(* unterminated").is_err());
    }

    #[test]
    fn strings() {
        assert_eq!(
            kinds(r#""a\"b\n""#),
            vec![TokenKind::Str("a\"b\n".into()), TokenKind::Eof]
        );
        assert!(tokenize("\"open").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("ab + cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 3);
        assert_eq!(toks[2].offset, 5);
    }
}
