//! The benchmark against its own contract: `BENCHMARK.json` and the names
//! a run prints are the same names, exact counts repeat, and a wrong
//! reference is caught. Runs the built binary at `--smoke` scale.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use wolfram_benchmark::json::Json;
use wolfram_benchmark::spec;

fn benchmark_json() -> (String, Json) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the root of the repo");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("test")
}

/// One smoke run; returns the exit code and the parsed last line.
fn smoke(workload: &str, trace: bool, extra: &[&str]) -> (i32, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_wolfram-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--out-dir")
        .arg(out_dir())
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload} printed nothing; stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let doc = Json::parse(last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e}"));
    (output.status.code().expect("an exit code"), doc)
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .expect("key present")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_the_spec_and_meets_the_schema() {
    let (text, doc) = benchmark_json();
    assert_eq!(
        text,
        spec::benchmark_json(),
        "BENCHMARK.json is `wolfram-benchmark spec`; regenerate it"
    );
    assert!(text.len() <= 64 * 1024);
    let keys: BTreeSet<&str> = doc.key_set().into_keys().collect();
    assert_eq!(
        keys,
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );

    let workloads = doc.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(w.entries().len(), 2, "a workload has exactly name and why");
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why:?}");
        assert!(name_ok(w.get("name").and_then(Json::as_str).unwrap()));
    }

    let e2e = doc.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&e2e.len()));
    for m in e2e {
        let keys: BTreeSet<&str> = m.key_set().into_keys().collect();
        assert_eq!(keys, BTreeSet::from(["name", "unit", "better", "bound"]));
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(unit_ok(m.get("unit").and_then(Json::as_str).unwrap()));
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let largest = e2e
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::as_f64), Some(largest));

    let layers = doc.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&layers.len()));
    for m in layers {
        let keys: BTreeSet<&str> = m.key_set().into_keys().collect();
        assert_eq!(keys, BTreeSet::from(["name", "unit", "better"]));
        assert!(unit_ok(m.get("unit").and_then(Json::as_str).unwrap()));
    }

    let mut all = names(&doc, "workloads");
    all.extend(names(&doc, "end_to_end"));
    all.extend(names(&doc, "per_layer"));
    assert!(all.iter().all(|n| name_ok(n)), "{all:?}");
    let unique: BTreeSet<&String> = all.iter().collect();
    assert_eq!(unique.len(), all.len(), "every name is used once");

    let run_seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    // Every layer metric is measured on a workload that exists.
    for l in spec::PER_LAYER {
        assert!(!l.on.is_empty(), "{}", l.name);
        for w in l.on {
            assert!(
                spec::WORKLOADS.iter().any(|s| s.name == *w),
                "{} on {w}",
                l.name
            );
        }
    }
}

#[test]
fn every_workload_prints_exactly_the_metrics_of_benchmark_json() {
    let (_, doc) = benchmark_json();
    let e2e: BTreeSet<String> = names(&doc, "end_to_end").into_iter().collect();
    let layers: BTreeSet<String> = names(&doc, "per_layer").into_iter().collect();
    for workload in names(&doc, "workloads") {
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            let (code, result) = smoke(&workload, trace, &[]);
            assert_eq!(code, 0, "{workload} trace {trace}");
            let keys: BTreeSet<&str> = result.key_set().into_keys().collect();
            assert_eq!(
                keys,
                BTreeSet::from(["correct", "attempted", "failed", "metrics"])
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap();
            let printed: BTreeSet<String> =
                metrics.entries().iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(&printed, expected, "{workload} trace {trace}");
            for (name, m) in metrics.entries() {
                let keys: BTreeSet<&str> = m.key_set().into_keys().collect();
                assert_eq!(keys, BTreeSet::from(["value", "unit"]), "{name}");
                let value = m.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{name}");
                if !trace {
                    assert!(value > 0.0, "{workload} {name} is never 0");
                }
            }
        }
    }
}

#[test]
fn exact_counts_repeat_across_two_runs() {
    let counts: [(&str, &[&str]); 2] = [
        (
            spec::COMPILE_COLD,
            &[
                "ir.instrs_wir",
                "ir.instrs_twir",
                "codegen.regops",
                "codegen.fused_ops",
                "analyze.bounds_elided_share",
                "analyze.ovf_elided_share",
                "analyze.rc_elided",
            ],
        ),
        (
            spec::KERNELS_SCALAR,
            &[
                "codegen.machine.ops_executed",
                "runtime.memory.acquires",
                "runtime.memory.tensor_copies",
                "runtime.memory.frame_misses",
            ],
        ),
    ];
    for (workload, names) in counts {
        let (_, first) = smoke(workload, true, &[]);
        let (_, second) = smoke(workload, true, &[]);
        for name in names {
            let value = |doc: &Json| {
                doc.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{workload} prints {name}"))
            };
            assert_eq!(value(&first), value(&second), "{workload} {name}");
            assert!(value(&first) > 0.0 || *name == "runtime.memory.frame_misses");
        }
    }
}

#[test]
fn an_injected_wrong_reference_fails_the_run() {
    for w in &spec::WORKLOADS {
        let (code, result) = smoke(w.name, false, &["--inject-fault"]);
        assert_ne!(code, 0, "{} exits nonzero", w.name);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{}",
            w.name
        );
        assert!(
            result.get("failed").and_then(Json::as_f64).unwrap() > 0.0,
            "{} counts the failure",
            w.name
        );
    }
}
