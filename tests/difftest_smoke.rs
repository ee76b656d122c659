//! Bounded differential-fuzzing smoke run — tier 1 of the wolfram-difftest
//! pyramid (`reproduce -- difftest` and the scheduled CI sweep are tiers 2
//! and 3). Deterministic: the same seed generates the same programs, so a
//! failure here is immediately replayable.

use wolfram_difftest::{run_fuzz, FuzzConfig};

#[test]
fn three_hundred_programs_agree_across_engines() {
    let cfg = FuzzConfig {
        seed: 0xD1FF_7E57,
        iters: 300,
        shrink: true,
        analyze: true,
    };
    let report = run_fuzz(&cfg);
    assert!(
        report.divergences.is_empty(),
        "engine divergences found:\n{}",
        report
            .divergences
            .iter()
            .map(|c| format!(
                "seed {}: {}\n  {}",
                c.seed,
                c.shrunk.note,
                c.shrunk.func.to_input_form()
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.prepare_failures, 0, "{:?}", report.prepare_samples);
    assert_eq!(report.roundtrip_failures, 0);
    // Every program compiled and ran on all nine engines.
    assert_eq!(report.programs_run, 300);
    // ~1% of generated programs evaluate to an inert symbolic form on the
    // oracle (e.g. `Mod[x, 0.]`) and are counted inconclusive rather than
    // compared. A jump in that rate means the generator left the subset.
    assert!(
        report.out_of_subset <= 15,
        "out-of-subset rate jumped: {}",
        report.out_of_subset
    );
    // The generator draws its heads from its own list: these programs
    // reach 21 of the 86 primitives (5,000 at seed 42 reach the same 21).
    // Fewer means the generator or the compiler stopped reaching some.
    assert!(report.primitives.len() >= 21, "{}", report.summary());
}
