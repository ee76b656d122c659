//! Property test: random straight-line integer/float/tensor programs must
//! produce identical results under fused and unfused dispatch — for *every*
//! observable register and tensor, not just a designated output. This pins
//! down the pass's dual-write invariant: a fused op performs all the
//! register writes of the ops it replaced.

use proptest::prelude::*;
use wolfram_codegen::fuse::fuse_function;
use wolfram_codegen::machine::ElemKind;
use wolfram_codegen::{ArgVal, Bank, Machine, NativeFunc, NativeProgram, RegOp, Slot};
use wolfram_runtime::{Tensor, TensorData, Value};

const NI: u32 = 6;
const NF: u32 = 6;

/// Deterministic generator (split-mix style) so each proptest case is a
/// pure function of its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }

    fn int_op(&mut self) -> wolfram_codegen::machine::IntOp {
        use wolfram_codegen::machine::IntOp;
        const OPS: &[IntOp] = &[
            IntOp::Add,
            IntOp::Sub,
            IntOp::Mul,
            IntOp::Min,
            IntOp::Max,
            IntOp::BitAnd,
            IntOp::BitOr,
            IntOp::BitXor,
            IntOp::Lt,
            IntOp::Le,
            IntOp::Gt,
            IntOp::Ge,
            IntOp::Eq,
            IntOp::Ne,
        ];
        self.pick(OPS)
    }

    fn flt_op(&mut self) -> wolfram_codegen::machine::FltOp {
        use wolfram_codegen::machine::FltOp;
        const OPS: &[FltOp] = &[FltOp::Add, FltOp::Sub, FltOp::Mul, FltOp::Min, FltOp::Max];
        self.pick(OPS)
    }

    fn flt_cmp(&mut self) -> wolfram_codegen::machine::CmpCode {
        use wolfram_codegen::machine::CmpCode;
        const OPS: &[CmpCode] = &[
            CmpCode::Lt,
            CmpCode::Le,
            CmpCode::Gt,
            CmpCode::Ge,
            CmpCode::Eq,
            CmpCode::Ne,
        ];
        self.pick(OPS)
    }
}

/// Builds a random straight-line body over `NI` int and `NF` float
/// registers, seeded with small constants.
fn random_body(rng: &mut Rng, len: u32) -> Vec<RegOp> {
    let mut code = Vec::new();
    for d in 0..NI {
        code.push(RegOp::LdcI {
            d,
            v: i64::from(rng.below(201)) - 100,
        });
    }
    for d in 0..NF {
        code.push(RegOp::LdcF {
            d,
            v: (f64::from(rng.below(401)) - 200.0) / 8.0,
        });
    }
    for _ in 0..len {
        let op = match rng.below(6) {
            0 => RegOp::MovI {
                d: rng.below(NI),
                s: rng.below(NI),
            },
            1 => RegOp::IntBin {
                op: rng.int_op(),
                d: rng.below(NI),
                a: rng.below(NI),
                b: rng.below(NI),
            },
            2 => RegOp::IntBinImm {
                op: rng.int_op(),
                d: rng.below(NI),
                a: rng.below(NI),
                imm: i64::from(rng.below(15)) - 7,
            },
            3 => RegOp::FltBin {
                op: rng.flt_op(),
                d: rng.below(NF),
                a: rng.below(NF),
                b: rng.below(NF),
            },
            4 => RegOp::FltCmp {
                op: rng.flt_cmp(),
                d: rng.below(NI),
                a: rng.below(NF),
                b: rng.below(NF),
            },
            _ => RegOp::MovF {
                d: rng.below(NF),
                s: rng.below(NF),
            },
        };
        code.push(op);
    }
    code
}

fn run(f: &NativeFunc) -> Result<ArgVal, String> {
    run_with(f, Vec::new())
}

fn run_with(f: &NativeFunc, args: Vec<ArgVal>) -> Result<ArgVal, String> {
    let prog = NativeProgram {
        parallel: None,
        funcs: vec![f.clone()],
    };
    let mut m = Machine::standalone();
    m.call(&prog, 0, args.into_iter().map(Ok), None)
        .map_err(|e| format!("{e:?}"))
}

/// Side length of the tensor-shape test's vector and square matrix.
const DIM: usize = 4;
/// Int registers `0..N_IX` hold Part indices and are never overwritten;
/// the last one is out of range and only ever used by checked accesses.
const N_IX: u32 = 5;
/// Int bank of the tensor-shape test: the index registers plus a data pool.
const TNI: u32 = N_IX + 4;

/// Builds a straight-line body of `steps` tensor steps — integer load-op
/// (register and immediate form), real matrix load-op, and 1-D/2-D
/// in-place element store — each in a random `checked` state. The vector
/// lives in `v0` and the matrix in `v1`. Returns the body and the number
/// of load-op pairs in it, each of which fuses; a store fuses with nothing.
fn random_tensor_body(rng: &mut Rng, steps: u32) -> (Vec<RegOp>, usize) {
    let valid: [i64; N_IX as usize - 1] = [1, DIM as i64, -1, -(DIM as i64)];
    let mut code: Vec<RegOp> = valid
        .iter()
        .zip(0..)
        .map(|(&v, d)| RegOp::LdcI { d, v })
        .collect();
    code.push(RegOp::LdcI {
        d: N_IX - 1,
        v: DIM as i64 + 3,
    });
    for d in N_IX..TNI {
        code.push(RegOp::LdcI {
            d,
            v: i64::from(rng.below(21)) - 10,
        });
    }
    for d in 0..NF {
        code.push(RegOp::LdcF {
            d,
            v: (f64::from(rng.below(401)) - 200.0) / 8.0,
        });
    }
    let (vec_slot, mat_slot) = (0, 1);
    let mut pairs = 0;
    for _ in 0..steps {
        let checked = rng.below(2) == 0;
        // Out-of-range indices are for the checked error path only.
        let index = |rng: &mut Rng| rng.below(if checked { N_IX } else { N_IX - 1 });
        let int_reg = |rng: &mut Rng| N_IX + rng.below(TNI - N_IX);
        match rng.below(5) {
            0 | 1 => {
                pairs += 1;
                code.push(RegOp::TenPart1 {
                    kind: ElemKind::I64,
                    d: int_reg(rng),
                    t: vec_slot,
                    i: index(rng),
                    checked,
                });
                let (op, d, a) = (rng.int_op(), int_reg(rng), int_reg(rng));
                code.push(if rng.below(2) == 0 {
                    RegOp::IntBin {
                        op,
                        d,
                        a,
                        b: int_reg(rng),
                    }
                } else {
                    RegOp::IntBinImm {
                        op,
                        d,
                        a,
                        imm: i64::from(rng.below(15)) - 7,
                    }
                });
            }
            2 => {
                pairs += 1;
                code.push(RegOp::TenPart2 {
                    kind: ElemKind::F64,
                    d: rng.below(NF),
                    t: mat_slot,
                    i: index(rng),
                    j: index(rng),
                    checked,
                });
                code.push(RegOp::FltBin {
                    op: rng.flt_op(),
                    d: rng.below(NF),
                    a: rng.below(NF),
                    b: rng.below(NF),
                });
            }
            3 => code.push(RegOp::TenSet1 {
                kind: ElemKind::I64,
                t: vec_slot,
                i: index(rng),
                v: int_reg(rng),
                checked,
            }),
            _ => code.push(RegOp::TenSet2 {
                kind: ElemKind::F64,
                t: mat_slot,
                i: index(rng),
                j: index(rng),
                v: rng.below(NF),
                checked,
            }),
        }
    }
    (code, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every register's final value agrees between the fused and unfused
    /// program (and errors, e.g. integer overflow from a Mul chain, are
    /// reported identically).
    #[test]
    fn straightline_programs_agree_under_fusion(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let len = 4 + rng.below(40);
        let body = random_body(&mut rng, len);
        let observables: Vec<Slot> = (0..NI)
            .map(|ix| Slot::new(Bank::I, ix))
            .chain((0..NF).map(|ix| Slot::new(Bank::F, ix)))
            .collect();
        for ret in observables {
            let mut code = body.clone();
            code.push(RegOp::Ret { s: ret });
            let unfused = NativeFunc {
                name: "Main".into(),
                code,
                n_int: NI as usize,
                n_flt: NF as usize,
                n_cpx: 0,
                n_val: 0,
                params: Vec::new(),
            elision: Default::default(),
            };
            let mut fused = unfused.clone();
            fuse_function(&mut fused);
            match (run(&unfused), run(&fused)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "register {:?}{}", ret.bank, ret.ix),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged"),
                (a, b) => prop_assert!(
                    false,
                    "one engine failed: unfused {a:?} vs fused {b:?} at {:?}{}",
                    ret.bank,
                    ret.ix
                ),
            }
        }
    }

    /// Tensor load-op pairs between in-place stores, checked and
    /// unchecked: every pair fuses, and every int/float register and every
    /// value slot (the mutated tensors included) ends up identical — as
    /// does the error when a checked access is out of range.
    #[test]
    fn tensor_pairs_agree_under_fusion(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let steps = 1 + rng.below(12);
        let (body, pairs) = random_tensor_body(&mut rng, steps);
        let args = || {
            let vector = Tensor::from_i64((0..DIM as i64).map(|k| 3 * k - 4).collect());
            let matrix = Tensor::with_shape(
                vec![DIM, DIM],
                TensorData::F64((0..DIM * DIM).map(|k| k as f64 * 0.5 - 3.0).collect()),
            )
            .unwrap();
            vec![ArgVal::V(Value::Tensor(vector)), ArgVal::V(Value::Tensor(matrix))]
        };
        let observables: Vec<Slot> = (0..TNI)
            .map(|ix| Slot::new(Bank::I, ix))
            .chain((0..NF).map(|ix| Slot::new(Bank::F, ix)))
            .chain((0..2).map(|ix| Slot::new(Bank::V, ix)))
            .collect();
        for ret in observables {
            let mut code = body.clone();
            code.push(RegOp::Ret { s: ret });
            let unfused = NativeFunc {
                name: "Main".into(),
                code,
                n_int: TNI as usize,
                n_flt: NF as usize,
                n_cpx: 0,
                n_val: 2,
                params: vec![Slot::new(Bank::V, 0), Slot::new(Bank::V, 1)],
                elision: Default::default(),
            };
            let mut fused = unfused.clone();
            prop_assert_eq!(fuse_function(&mut fused), pairs, "{:?}", fused.code);
            prop_assert_eq!(
                run_with(&unfused, args()),
                run_with(&fused, args()),
                "observable {:?}{}",
                ret.bank,
                ret.ix
            );
        }
    }

    /// Fusion leaves the observable dispatch semantics intact even when
    /// programs contain branches over the straight-line segments: a small
    /// counted loop built from the same op pool.
    #[test]
    fn counted_loops_agree_under_fusion(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        // i = trip; do { body; i -= 1 } while (i != 0); return a register.
        // The loop counter lives in register NI, outside the random pool.
        let trip = 1 + i64::from(rng.below(5));
        let mut code = vec![RegOp::LdcI { d: NI, v: trip }];
        let loop_top = code.len() as u32;
        let body_len = 2 + rng.below(8);
        code.extend(random_body(&mut rng, body_len));
        code.push(RegOp::IntBinImm {
            op: wolfram_codegen::machine::IntOp::Sub,
            d: NI,
            a: NI,
            imm: 1,
        });
        code.push(RegOp::Brz { c: NI, pc: code.len() as u32 + 2 });
        code.push(RegOp::Jmp { pc: loop_top });
        code.push(RegOp::Ret { s: Slot::new(Bank::I, rng.below(NI)) });
        let unfused = NativeFunc {
            name: "Main".into(),
            code,
            n_int: NI as usize + 1,
            n_flt: NF as usize,
            n_cpx: 0,
            n_val: 0,
            params: Vec::new(),
            elision: Default::default(),
        };
        let mut fused = unfused.clone();
        fuse_function(&mut fused);
        match (run(&unfused), run(&fused)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "one engine failed: {a:?} vs {b:?}"),
        }
    }
}
