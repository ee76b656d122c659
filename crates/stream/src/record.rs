//! The record source/sink layer: line-delimited values.
//!
//! A record is one line of text. For a unary function the whole line is
//! the single argument (so `{1.0, 2.0}` can feed a tensor parameter);
//! for higher arities the line must be a list with one element per
//! parameter: `{3, 4.5}`. Machine numbers and rectangular lists of them
//! read and print directly, their literals through the lexer's own
//! [`scan_number`] and reals through InputForm's [`write_real`]; every
//! other line goes through the ordinary expression reader and printer.
//! Either way a record reads and prints as one-shot evaluation would.

use wolfram_expr::format::write_real;
use wolfram_expr::{scan_number, TokenKind};
use wolfram_runtime::{RuntimeError, Tensor, TensorData, Value};

/// One decoded record: the argument vector for a single application.
pub type Record = Vec<Value>;

/// Parses one record line against the stream function's arity.
///
/// # Errors
///
/// A human-readable description of the malformed line.
pub fn parse_record(line: &str, arity: usize) -> Result<Record, String> {
    if let Some(record) = (Direct { text: line, pos: 0 }).record(arity) {
        return Ok(record);
    }
    let expr = wolfram_expr::parse(line).map_err(|e| e.to_string())?;
    if arity == 1 {
        return Ok(vec![Value::from_expr(&expr)]);
    }
    if !expr.has_head("List") || expr.args().len() != arity {
        return Err(format!(
            "expected a {arity}-element argument list, got {}",
            line.trim()
        ));
    }
    Ok(expr.args().iter().map(Value::from_expr).collect())
}

/// Renders one per-record result as its output line.
pub fn render_result(r: &Result<Value, RuntimeError>) -> String {
    let mut line = String::new();
    write_result(r, &mut line);
    line
}

/// Appends the output line of one result, without its newline.
pub(crate) fn write_result(r: &Result<Value, RuntimeError>, out: &mut String) {
    use std::fmt::Write as _;
    let _ = match r {
        Ok(Value::I64(v)) => write!(out, "ok {v}"),
        Ok(Value::F64(v)) => out.write_str("ok ").map(|()| write_real(*v, out)),
        Ok(v) => write!(out, "ok {}", v.to_expr().to_input_form()),
        Err(e) => write!(out, "err {e}"),
    };
}

/// The direct reader, a cursor over one line of numbers, spaces, commas
/// and braces. `None` leaves the line to the expression reader: symbols,
/// strings, integers past `i64`, `+`, tabs, empty or ragged lists, errors.
struct Direct<'a> {
    text: &'a str,
    pos: usize,
}

enum Number {
    Int(i64),
    Real(f64),
}

impl Direct<'_> {
    /// Whether the next byte after spaces is `c`, consumed if so.
    fn eat(&mut self, c: u8) -> bool {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
        let hit = bytes.get(self.pos) == Some(&c);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Option<()> {
        self.eat(c).then_some(())
    }

    /// The whole line as the arguments of one application.
    fn record(mut self, arity: usize) -> Option<Record> {
        let record = if arity == 1 {
            vec![self.value()?]
        } else {
            self.expect(b'{')?;
            let mut args = Vec::with_capacity(arity);
            for i in 0..arity {
                if i > 0 {
                    self.expect(b',')?;
                }
                args.push(self.value()?);
            }
            self.expect(b'}')?;
            args
        };
        let rest = &self.text.as_bytes()[self.pos..];
        rest.iter().all(|&b| b == b' ').then_some(record)
    }

    /// A machine integer or real, negated by a `-` right before its digits.
    fn number(&mut self) -> Option<Number> {
        let negative = self.eat(b'-');
        if !self.text.as_bytes().get(self.pos)?.is_ascii_digit() {
            return None;
        }
        let (len, token) = scan_number(&self.text[self.pos..]);
        self.pos += len;
        // The digits are unsigned, so negating cannot overflow.
        match token.ok()? {
            TokenKind::Integer(v) => Some(Number::Int(if negative { -v } else { v })),
            TokenKind::Real(v) => Some(Number::Real(if negative { -v } else { v })),
            _ => None,
        }
    }

    /// A number, or a rectangular list of them packed as `Value::from_expr`
    /// packs it (integer if every element is). The rank is the count of
    /// leading braces; one loop reads the elements, so depth costs no stack.
    fn value(&mut self) -> Option<Value> {
        let mut rank = 0;
        while self.eat(b'{') {
            rank += 1;
        }
        if rank == 0 {
            return Some(match self.number()? {
                Number::Int(v) => Value::I64(v),
                Number::Real(v) => Value::F64(v),
            });
        }
        // Per depth: the length every list there has (0 until the first
        // one closes), and the elements so far of the open one.
        let (mut shape, mut count) = (vec![0; rank], vec![0; rank]);
        let mut open = rank;
        let (mut ints, mut reals) = (Vec::new(), None::<Vec<f64>>);
        loop {
            if open < rank {
                self.expect(b'{')?;
                open += 1;
                continue;
            }
            match (self.number()?, &mut reals) {
                (Number::Int(v), None) => ints.push(v),
                (Number::Int(v), Some(reals)) => reals.push(v as f64),
                (Number::Real(v), reals) => reals
                    .get_or_insert_with(|| ints.iter().map(|&i| i as f64).collect())
                    .push(v),
            }
            count[open - 1] += 1;
            while !self.eat(b',') {
                self.expect(b'}')?;
                open -= 1;
                let n = std::mem::take(&mut count[open]);
                if shape[open] != 0 && shape[open] != n {
                    return None;
                }
                shape[open] = n;
                if open == 0 {
                    let data = reals.map_or(TensorData::I64(ints), TensorData::F64);
                    return Tensor::with_shape(shape, data).ok().map(Value::Tensor);
                }
                count[open - 1] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_records_take_the_whole_line() {
        let r = parse_record("{1, 2, 3}", 1).unwrap();
        assert_eq!(r.len(), 1);
        let r = parse_record("42", 1).unwrap();
        assert_eq!(r, vec![Value::I64(42)]);
    }

    #[test]
    fn n_ary_records_need_a_matching_list() {
        let r = parse_record("{3, 4.5}", 2).unwrap();
        assert_eq!(r, vec![Value::I64(3), Value::F64(4.5)]);
        assert!(parse_record("{3}", 2).is_err());
        assert!(parse_record("3", 2).is_err());
        assert!(parse_record("{", 2).is_err());
    }

    #[test]
    fn lists_pack_like_the_expression_reader() {
        let direct = |line: &str| (Direct { text: line, pos: 0 }).record(1);
        let packed = |line: &str| {
            let expr = wolfram_expr::parse(line).unwrap();
            Some(vec![Value::from_expr(&expr)])
        };
        for line in ["{{1, 2}, {3, 4}}", "{1, 2.5, -3}", "{{-0.}, {7}}", " {1} "] {
            assert_eq!(direct(line), packed(line), "{line}");
        }
        for line in [
            "{}",
            "{{1}, {2, 3}}",
            "{1, {2}}",
            "{{1}, 2}",
            "{1,}",
            "+3",
            "\t1",
        ] {
            assert_eq!(
                direct(line),
                None,
                "{line} is left to the expression reader"
            );
        }
    }
}
