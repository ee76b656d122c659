//! The per-event functions of `call_tiny` and `stream_*`, their seeded
//! records and their closed-form references (computed here in Rust, never
//! by the compiler under test).

use rand::rngs::StdRng;
use rand::Rng;
use wolfram_runtime::{Tensor, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tiny {
    /// `3 n + 7` over machine integers: pure entry/exit overhead.
    AddMul,
    /// A real cubic in Horner form: scalar float traffic.
    Poly,
    /// Squared norm of a length-8 real vector: a tensor argument per call.
    Norm8,
    /// Sum of squares up to `n` in a `While` loop: ~10 us per call.
    SumSq,
}

/// The reference result of one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    Int(i64),
    Real(f64),
}

/// One generated record: the argument values, the text line that parses to
/// them, and the closed-form result.
pub struct TinyRecord {
    pub args: Vec<Value>,
    pub line: String,
    pub expected: Expected,
}

impl Tiny {
    pub fn name(self) -> &'static str {
        match self {
            Tiny::AddMul => "AddMul",
            Tiny::Poly => "Poly",
            Tiny::Norm8 => "Norm8",
            Tiny::SumSq => "SumSq",
        }
    }

    pub fn src(self) -> &'static str {
        match self {
            Tiny::AddMul => r#"Function[{Typed[n, "MachineInteger"]}, 3*n + 7]"#,
            Tiny::Poly => r#"Function[{Typed[x, "Real64"]}, x*(x*(x - 2.5) + 1.25) + 0.5]"#,
            Tiny::Norm8 => {
                r#"Function[{Typed[v, "Tensor"["Real64", 1]]},
 Module[{s, i, n},
  s = 0.0;
  n = Length[v];
  i = 1;
  While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
  s]]"#
            }
            Tiny::SumSq => {
                r#"Function[{Typed[n, "MachineInteger"]},
 Module[{s = 0, i = 1},
  While[i <= n, s = s + i*i; i = i + 1];
  s]]"#
            }
        }
    }

    /// Draws one record.
    pub fn record(self, rng: &mut StdRng) -> TinyRecord {
        match self {
            Tiny::AddMul => {
                let n = rng.gen_range(-50_000..50_000i64);
                TinyRecord {
                    args: vec![Value::I64(n)],
                    line: n.to_string(),
                    expected: Expected::Int(3 * n + 7),
                }
            }
            Tiny::Poly => {
                // The line is the value: x is whatever the text parses to.
                let line = format!("{:.3}", f64::from(rng.gen_range(0..6000i32)) * 0.001 - 3.0);
                let x: f64 = line.parse().expect("a decimal literal");
                TinyRecord {
                    args: vec![Value::F64(x)],
                    line,
                    expected: Expected::Real(x * (x * (x - 2.5) + 1.25) + 0.5),
                }
            }
            Tiny::Norm8 => {
                // Multiples of 1/8 are exact in binary and in decimal text.
                let xs: Vec<f64> = (0..8)
                    .map(|_| f64::from(rng.gen_range(0..97i32)) * 0.125)
                    .collect();
                let text: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
                TinyRecord {
                    expected: Expected::Real(xs.iter().map(|x| x * x).sum()),
                    line: format!("{{{}}}", text.join(", ")),
                    args: vec![Value::Tensor(Tensor::from_f64(xs))],
                }
            }
            Tiny::SumSq => {
                let n = rng.gen_range(200..600i64);
                TinyRecord {
                    args: vec![Value::I64(n)],
                    line: n.to_string(),
                    expected: Expected::Int(n * (n + 1) * (2 * n + 1) / 6),
                }
            }
        }
    }
}

impl Expected {
    /// Whether `got` is this result: integers exactly, reals to 1e-9
    /// relative (the reference fixes no association order).
    pub fn matches(&self, got: &Value) -> bool {
        match (self, got) {
            (Expected::Int(e), Value::I64(g)) => e == g,
            (Expected::Real(e), Value::F64(g)) => (e - g).abs() <= 1e-9 * (1.0 + e.abs()),
            _ => false,
        }
    }

    /// Whether the stream output line `ok <value>` carries this result.
    pub fn matches_line(&self, line: &str) -> bool {
        let Some(text) = line.strip_prefix("ok ") else {
            return false;
        };
        match self {
            Expected::Int(e) => text.parse::<i64>().is_ok_and(|g| g == *e),
            // InputForm writes exponents as `*^`.
            Expected::Real(_) => text
                .replace("*^", "e")
                .parse::<f64>()
                .is_ok_and(|g| self.matches(&Value::F64(g))),
        }
    }

    /// A reference that no correct result matches (`--inject-fault`).
    pub fn corrupted(self) -> Expected {
        match self {
            Expected::Int(e) => Expected::Int(e + 1),
            Expected::Real(e) => Expected::Real(e + 1.0),
        }
    }
}
