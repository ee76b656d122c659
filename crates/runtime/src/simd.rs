//! Portable SIMD-shaped kernels for dense `f64` loops.
//!
//! Stable Rust only — no `std::simd`. Each kernel walks its slices with
//! `chunks_exact(LANES)` and a manually unrolled body so the compiler can
//! elide bounds checks and emit vector instructions (the iterator proves
//! each chunk is exactly `LANES` wide), then handles the remainder with a
//! scalar tail. The elementwise kernels are IEEE-exact: they apply the
//! same scalar operation to each lane, so results are bit-identical to a
//! plain loop regardless of how the compiler vectorizes them.
//!
//! There are no reduction kernels: a lane-split sum would reassociate the
//! fold and differ from the scalar engine in the last bits, so dot
//! products stay in [`crate::linalg`].

/// Unroll width of every kernel in this module.
pub const LANES: usize = 4;

/// Elementwise operations the vector kernels support.
///
/// Deliberately the *total* subset: `Add`/`Sub`/`Mul` are total on f64,
/// and `Div` is total once the caller has ruled out the machine's
/// divide-by-zero error path (the scalar VM raises `DivideByZero` for
/// `x/0.0`; vectorized callers must prove the divisor nonzero or fall
/// back to the scalar loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b` (caller guarantees the divisor path is error-free)
    Div,
}

impl SimdOp {
    /// The scalar meaning of the op (the kernels apply exactly this per
    /// lane, so the vector and scalar paths agree bitwise).
    #[inline(always)]
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            SimdOp::Add => x + y,
            SimdOp::Sub => x - y,
            SimdOp::Mul => x * y,
            SimdOp::Div => x / y,
        }
    }
}

#[inline(always)]
fn vv_kernel(a: &[f64], b: &[f64], out: &mut [f64], op: impl Fn(f64, f64) -> f64) {
    let n = out.len();
    assert!(a.len() == n && b.len() == n, "vv kernel length mismatch");
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for ((o, x), y) in (&mut oc).zip(&mut ac).zip(&mut bc) {
        o[0] = op(x[0], y[0]);
        o[1] = op(x[1], y[1]);
        o[2] = op(x[2], y[2]);
        o[3] = op(x[3], y[3]);
    }
    for ((o, x), y) in oc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *o = op(*x, *y);
    }
}

#[inline(always)]
fn vs_kernel(a: &[f64], s: f64, out: &mut [f64], op: impl Fn(f64, f64) -> f64) {
    assert!(a.len() == out.len(), "vs kernel length mismatch");
    let mut oc = out.chunks_exact_mut(LANES);
    let mut ac = a.chunks_exact(LANES);
    for (o, x) in (&mut oc).zip(&mut ac) {
        o[0] = op(x[0], s);
        o[1] = op(x[1], s);
        o[2] = op(x[2], s);
        o[3] = op(x[3], s);
    }
    for (o, x) in oc.into_remainder().iter_mut().zip(ac.remainder()) {
        *o = op(*x, s);
    }
}

/// `out[i] = a[i] op b[i]`.
pub fn vv(op: SimdOp, a: &[f64], b: &[f64], out: &mut [f64]) {
    match op {
        SimdOp::Add => vv_kernel(a, b, out, |x, y| x + y),
        SimdOp::Sub => vv_kernel(a, b, out, |x, y| x - y),
        SimdOp::Mul => vv_kernel(a, b, out, |x, y| x * y),
        SimdOp::Div => vv_kernel(a, b, out, |x, y| x / y),
    }
}

/// `out[i] = a[i] op s` (vector ⊗ broadcast scalar).
pub fn vs(op: SimdOp, a: &[f64], s: f64, out: &mut [f64]) {
    match op {
        SimdOp::Add => vs_kernel(a, s, out, |x, y| x + y),
        SimdOp::Sub => vs_kernel(a, s, out, |x, y| x - y),
        SimdOp::Mul => vs_kernel(a, s, out, |x, y| x * y),
        SimdOp::Div => vs_kernel(a, s, out, |x, y| x / y),
    }
}

/// `out[i] = s op b[i]` (broadcast scalar ⊗ vector).
pub fn sv(op: SimdOp, s: f64, b: &[f64], out: &mut [f64]) {
    match op {
        SimdOp::Add => vs_kernel(b, s, out, |y, x| x + y),
        SimdOp::Sub => vs_kernel(b, s, out, |y, x| x - y),
        SimdOp::Mul => vs_kernel(b, s, out, |y, x| x * y),
        SimdOp::Div => vs_kernel(b, s, out, |y, x| x / y),
    }
}

/// `out[i] = v` for every element.
pub fn fill(out: &mut [f64], v: f64) {
    for o in out.iter_mut() {
        *o = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect()
    }

    #[test]
    fn vv_matches_scalar_for_all_tail_lengths() {
        for n in 0..=2 * LANES {
            let a = pattern(n);
            let b: Vec<f64> = a.iter().map(|x| x * 1.25 + 1.0).collect();
            for op in [SimdOp::Add, SimdOp::Sub, SimdOp::Mul, SimdOp::Div] {
                let mut out = vec![0.0; n];
                vv(op, &a, &b, &mut out);
                for i in 0..n {
                    let want = op.apply(a[i], b[i]);
                    assert!(
                        out[i] == want || (out[i].is_nan() && want.is_nan()),
                        "{op:?} n={n} i={i}: {} != {}",
                        out[i],
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn vs_and_sv_match_scalar_for_all_tail_lengths() {
        for n in 0..=2 * LANES + 1 {
            let a = pattern(n);
            let s = 2.5;
            for op in [SimdOp::Add, SimdOp::Sub, SimdOp::Mul, SimdOp::Div] {
                let mut out = vec![0.0; n];
                vs(op, &a, s, &mut out);
                for i in 0..n {
                    assert_eq!(out[i].to_bits(), op.apply(a[i], s).to_bits());
                }
                vs(op, &a, s, &mut out);
                let mut out2 = vec![0.0; n];
                sv(op, s, &a, &mut out2);
                for i in 0..n {
                    assert_eq!(out2[i].to_bits(), op.apply(s, a[i]).to_bits());
                }
            }
        }
    }

    #[test]
    fn special_lanes_propagate_bitwise() {
        // NaN, -0.0 and infinities must flow through every lane position
        // exactly as a scalar loop would produce them.
        let a = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -0.0];
        let b = [1.0, -0.0, f64::INFINITY, f64::INFINITY, f64::NAN, 5.0];
        for op in [SimdOp::Add, SimdOp::Sub, SimdOp::Mul, SimdOp::Div] {
            let mut out = [0.0; 6];
            vv(op, &a, &b, &mut out);
            for i in 0..6 {
                let want = op.apply(a[i], b[i]);
                if want.is_nan() {
                    // IEEE 754 leaves the sign/payload of a *generated*
                    // NaN (e.g. -Inf + Inf) unspecified, and LLVM's
                    // constant folder and the hardware disagree on it in
                    // release builds; only NaN-ness is portable.
                    assert!(out[i].is_nan(), "{op:?} lane {i}: expected NaN");
                } else {
                    assert_eq!(
                        out[i].to_bits(),
                        want.to_bits(),
                        "{op:?} lane {i}: {:x} != {:x}",
                        out[i].to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn fill_writes_every_element() {
        for n in 0..=9 {
            let mut out = vec![0.0; n];
            fill(&mut out, -2.5);
            assert!(out.iter().all(|&x| x == -2.5));
        }
    }
}
