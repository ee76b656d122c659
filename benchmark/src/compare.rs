//! `compare.sh A.json B.json`: per workload and end-to-end metric, both
//! medians with quartiles, the ratio with its base, and a verdict under
//! the bounds of the spec.

use crate::spec::{self, EndToEnd};
use crate::suite::{Results, Stored};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A spread (q3 - q1 over the median) is wider than the bound, so the
    /// two medians cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric of one workload. `setup_s` has three samples
/// a run, whose quartiles are their extremes, so like the acceptance rule
/// of the benchmark this judges it on its median alone.
pub fn judge(m: &EndToEnd, a: &Stored, b: &Stored) -> Verdict {
    if m.name != spec::SETUP_S && a.stat.spread().max(b.stat.spread()) > m.bound {
        Verdict::Unresolved
    } else if m.better.worsening(a.stat.value, b.stat.value) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// A rendered comparison and its tallies.
pub struct Comparison {
    pub text: String,
    pub regressed: usize,
    pub unresolved: usize,
}

/// Compares `b` against the base `a`.
///
/// # Errors
///
/// Refuses when both files were made from the same seed and scale but a
/// workload's input fingerprint differs: a program, the generator or a
/// scale was edited, and the stored numbers are no baseline for the new
/// inputs.
pub fn compare(a: &Results, b: &Results) -> Result<Comparison, String> {
    let same_inputs_expected = a.seed == b.seed && a.smoke == b.smoke;
    let mut text = format!(
        "base A: commit {} seed {} nproc {} | B: commit {} seed {} nproc {}\n",
        a.commit, a.seed, a.nproc, b.commit, b.seed, b.nproc
    );
    text.push_str(&format!(
        "{:<15} {:<12} {:>34} {:>34} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound"
    ));
    let (mut regressed, mut unresolved) = (0, 0);
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (a.workloads.get(w.name), b.workloads.get(w.name)) else {
            text.push_str(&format!("{:<15} missing from one file\n", w.name));
            unresolved += 1;
            continue;
        };
        if same_inputs_expected && wa.fingerprint != wb.fingerprint {
            return Err(format!(
                "{}: input fingerprint {} in A, {} in B, for the same seed: the inputs changed, \
                 so A is no baseline for B (measure the baseline again)",
                w.name, wa.fingerprint, wb.fingerprint
            ));
        }
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                text.push_str(&format!(
                    "{:<15} {:<12} missing from one file\n",
                    w.name, m.name
                ));
                unresolved += 1;
                continue;
            };
            let verdict = judge(m, sa, sb);
            match verdict {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let cell = |s: &Stored| {
                format!(
                    "{:.4} [{:.4}, {:.4}] {}",
                    s.stat.value, s.stat.q1, s.stat.q3, s.unit
                )
            };
            text.push_str(&format!(
                "{:<15} {:<12} {:>34} {:>34} {:>9.4} {:>5.0}%  {}\n",
                w.name,
                m.name,
                cell(sa),
                cell(sb),
                sb.stat.value / sa.stat.value,
                m.bound * 100.0,
                verdict.as_str()
            ));
        }
        if wa.failed + wb.failed > 0 {
            text.push_str(&format!(
                "{:<15} failed operations: {} of {} in A, {} of {} in B\n",
                w.name, wa.failed, wa.attempted, wb.failed, wb.attempted
            ));
            regressed += usize::from(wb.failed > wa.failed);
        }
    }
    text.push_str(&format!(
        "{regressed} regressed, {unresolved} unresolved (B/A has A as its base; \
         for ops_per_s higher is better, for the rest lower)\n"
    ));
    Ok(Comparison {
        text,
        regressed,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stat;

    fn stored(value: f64, q1: f64, q3: f64) -> Stored {
        Stored {
            unit: "us".into(),
            stat: Stat {
                value,
                n: 10,
                q1,
                q3,
            },
        }
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let tight = |value: f64| stored(value, value - 1.0, value + 1.0);
        let base = tight(100.0);
        let p50 = &spec::END_TO_END[2];
        assert_eq!(p50.name, spec::OP_P50_US);
        let edge = 100.0 * (1.0 + p50.bound);
        assert_eq!(judge(p50, &base, &tight(edge - 1.0)), Verdict::Ok);
        assert_eq!(judge(p50, &base, &tight(edge + 1.0)), Verdict::Regressed);
        assert_eq!(judge(p50, &base, &tight(50.0)), Verdict::Ok);
        let wide = stored(100.0, 100.0 - 60.0 * p50.bound, 100.0 + 60.0 * p50.bound);
        assert_eq!(judge(p50, &base, &wide), Verdict::Unresolved);
        let ops = &spec::END_TO_END[1];
        assert_eq!(ops.name, spec::OPS_PER_S);
        let edge = 100.0 * (1.0 - ops.bound);
        assert_eq!(judge(ops, &base, &tight(edge - 1.0)), Verdict::Regressed);
        assert_eq!(judge(ops, &base, &tight(edge + 1.0)), Verdict::Ok);
        assert_eq!(judge(ops, &base, &tight(150.0)), Verdict::Ok);
    }

    #[test]
    fn same_seed_different_inputs_is_refused() {
        let mut a = Results {
            seed: 1,
            ..Results::default()
        };
        let mut b = a.clone();
        a.workloads
            .entry("call_tiny".into())
            .or_default()
            .fingerprint = "aa".into();
        b.workloads
            .entry("call_tiny".into())
            .or_default()
            .fingerprint = "bb".into();
        assert!(compare(&a, &b).is_err());
        b.seed = 2;
        assert!(compare(&a, &b).is_ok());
    }
}
