//! The whole benchmark in one command: every workload in its own child
//! process (so `peak_rss_mb` and the process-wide memory counters are per
//! workload), first untraced for the end-to-end metrics, then traced for
//! the layers, and the results file both passes fill.

use crate::harness::{Metric, RunOutput};
use crate::json::{self, Json};
use crate::spec;
use crate::stats::Stat;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The arguments of a whole-suite run.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Run the workloads last to first (the second of two sets of runs).
    pub reverse: bool,
    pub out_dir: PathBuf,
    /// Stored results to compare with, if the file exists.
    pub baseline: PathBuf,
}

/// One metric as stored: median, unit, sample count, quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored {
    pub unit: String,
    pub stat: Stat,
}

/// One workload's part of a results file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Stored>,
    pub per_layer: BTreeMap<String, Stored>,
}

/// A results file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub smoke: bool,
    pub seconds: f64,
    pub nproc: usize,
    pub commit: String,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The lines one run prints before its result line.
pub fn render_lines(out: &RunOutput) -> String {
    let mut text = String::new();
    for m in &out.metrics {
        text.push_str(&format!(
            "metric {} {} {} {} n={} q1={} q3={}\n",
            out.workload,
            m.name,
            json::number(m.stat.value),
            m.unit,
            m.stat.n,
            json::number(m.stat.q1),
            json::number(m.stat.q3),
        ));
    }
    text.push_str(&format!(
        "info {} fingerprint={:016x} rounds={} attempted={} failed={} steal_share={:.4}\n",
        out.workload, out.fingerprint, out.rounds, out.attempted, out.failed, out.steal_share
    ));
    text
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn render_result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m: &Metric| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.stat.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn parse_metric_line(line: &str) -> Option<(String, Stored)> {
    let mut f = line.split_whitespace();
    if f.next()? != "metric" {
        return None;
    }
    let _workload = f.next()?;
    let name = f.next()?.to_owned();
    let value = f.next()?.parse().ok()?;
    let unit = f.next()?.to_owned();
    let n = f.next()?.strip_prefix("n=")?.parse().ok()?;
    let q1 = f.next()?.strip_prefix("q1=")?.parse().ok()?;
    let q3 = f.next()?.strip_prefix("q3=")?.parse().ok()?;
    Some((
        name,
        Stored {
            unit,
            stat: Stat { value, n, q1, q3 },
        },
    ))
}

/// What a child process running one workload reported.
struct ChildRun {
    metrics: BTreeMap<String, Stored>,
    fingerprint: String,
    attempted: u64,
    failed: u64,
    steal_share: f64,
    /// Whether it exited with success.
    success: bool,
}

/// Runs one workload in a child process and waits for it to end.
fn run_child(
    args: &SuiteArgs,
    workload: &str,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    let mut fingerprint = String::new();
    let (mut attempted, mut failed, mut steal_share) = (0, 0, 0.0);
    for line in text.lines() {
        if let Some((name, stored)) = parse_metric_line(line) {
            // A traced run prints every per-layer metric of the benchmark;
            // the ones this workload does not measure read 0 and are dropped.
            if trace && !spec::layers_on(workload).any(|l| l.name == name) {
                continue;
            }
            if echo {
                println!("{line}");
            }
            metrics.insert(name, stored);
        } else if line.starts_with("info ") {
            if echo {
                println!("{line}");
            }
            for field in line.split_whitespace() {
                if let Some(v) = field.strip_prefix("fingerprint=") {
                    fingerprint = v.to_owned();
                } else if let Some(v) = field.strip_prefix("attempted=") {
                    attempted = v.parse().unwrap_or(0);
                } else if let Some(v) = field.strip_prefix("failed=") {
                    failed = v.parse().unwrap_or(0);
                } else if let Some(v) = field.strip_prefix("steal_share=") {
                    steal_share = v.parse().unwrap_or(0.0);
                }
            }
        }
    }
    if metrics.is_empty() {
        return Err(format!("{workload} printed no metrics ({})", output.status));
    }
    Ok(ChildRun {
        metrics,
        fingerprint,
        attempted,
        failed,
        steal_share,
        success: output.status.success(),
    })
}

fn commit() -> String {
    // The checkout a driver runs in is not a git repository.
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Runs every workload untraced, then traced; prints every metric, writes
/// `results.json` and the trace files under `out_dir`, and compares with
/// the stored baseline when its seed and scale are the same.
///
/// # Errors
///
/// A workload that failed its output checks, a child that printed nothing,
/// an unwritable results file, or a baseline whose inputs differ.
pub fn run_all(args: &SuiteArgs) -> Result<(), String> {
    let started = std::time::Instant::now();
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    if args.reverse {
        names.reverse();
    }
    let mut results = Results {
        seed: args.seed,
        smoke: args.smoke,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        commit: commit(),
        workloads: BTreeMap::new(),
    };
    let mut incorrect = Vec::new();
    for trace in [false, true] {
        println!(
            "# {} pass, seed {}, {} s per workload",
            if trace { "traced" } else { "untraced" },
            args.seed,
            args.seconds
        );
        for name in &names {
            let ChildRun {
                metrics,
                fingerprint,
                attempted,
                failed,
                success,
                ..
            } = run_child(args, name, trace, true)?;
            let entry = results.workloads.entry((*name).to_owned()).or_default();
            entry.fingerprint = fingerprint;
            entry.attempted += attempted;
            entry.failed += failed;
            if trace {
                entry.per_layer = metrics;
            } else {
                entry.end_to_end = metrics;
            }
            if !success || failed > 0 {
                incorrect.push(format!("{name} (failed {failed} of {attempted})"));
            }
        }
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, results.to_json()).map_err(|e| format!("writing results: {e}"))?;
    println!(
        "# wrote {} after {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    if !incorrect.is_empty() {
        return Err(format!("output checks failed: {}", incorrect.join(", ")));
    }
    if args.baseline.exists() {
        let stored = Results::read(&args.baseline)?;
        if stored.seed == results.seed && stored.smoke == results.smoke {
            println!("# against {}", args.baseline.display());
            print!("{}", crate::compare::compare(&stored, &results)?.text);
        }
    }
    Ok(())
}

/// Runs each of `workloads` untraced `runs` times, each time with another
/// seed, and prints for every end-to-end metric the median, the quartiles
/// and their distance as a share of the median, beside the metric's bound:
/// the acceptance rule of the benchmark, applied by the benchmark itself.
///
/// # Errors
///
/// A child that failed its output checks or printed nothing.
pub fn run_spread(args: &SuiteArgs, workloads: &[String], runs: u64) -> Result<(), String> {
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut over = 0;
    for name in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut steal = Vec::new();
        for i in 0..runs {
            let one = SuiteArgs {
                seed: args.seed + i,
                ..args.clone()
            };
            let child = run_child(&one, name, false, false)?;
            if !child.success || child.failed > 0 {
                return Err(format!("{name} seed {}: output checks failed", one.seed));
            }
            steal.push(child.steal_share);
            for (metric, stored) in child.metrics {
                values.entry(metric).or_default().push(stored.stat.value);
            }
        }
        // Runs that the hypervisor took CPU time from are not the
        // program's doing; past a few percent, measure again later.
        let each: Vec<String> = steal.iter().map(|v| format!("{v:.3}")).collect();
        println!("{name:<15} steal_share per run: {}", each.join(" "));
        for m in &spec::END_TO_END {
            let runs = values.get(m.name).map_or(&[][..], Vec::as_slice);
            let stat = Stat::of(runs);
            // `setup_s` is judged on its median alone.
            let verdict = if stat.spread() * 3.0 <= m.bound {
                "steady"
            } else if stat.spread() <= m.bound || m.name == spec::SETUP_S {
                "within bound"
            } else {
                over += 1;
                "over bound"
            };
            println!(
                "{:<15} {:<12} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}%  {verdict}",
                name,
                m.name,
                stat.value,
                stat.q1,
                stat.q3,
                stat.spread() * 100.0,
                m.bound * 100.0
            );
            let each: Vec<String> = runs.iter().map(|v| format!("{v:.5}")).collect();
            println!("{:<15} {:<12}   runs: {}", "", "", each.join(" "));
        }
    }
    if over > 0 {
        return Err(format!("{over} metrics spread wider than their bound"));
    }
    Ok(())
}

fn stored_to_json(map: &BTreeMap<String, Stored>, indent: &str) -> String {
    let rows: Vec<String> = map
        .iter()
        .map(|(name, s)| {
            format!(
                "{indent}{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                json::quote(name),
                json::number(s.stat.value),
                json::quote(&s.unit),
                s.stat.n,
                json::number(s.stat.q1),
                json::number(s.stat.q3)
            )
        })
        .collect();
    rows.join(",\n")
}

fn stored_from_json(v: Option<&Json>) -> Result<BTreeMap<String, Stored>, String> {
    let mut out = BTreeMap::new();
    for (name, m) in v.map_or(&[][..], Json::entries) {
        let num = |key: &str| {
            m.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} lacks {key}"))
        };
        out.insert(
            name.clone(),
            Stored {
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
                stat: Stat {
                    value: num("value")?,
                    n: num("n")? as usize,
                    q1: num("q1")?,
                    q3: num("q3")?,
                },
            },
        );
    }
    Ok(out)
}

impl Results {
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        out.push_str(&format!("  \"seconds\": {},\n", json::number(self.seconds)));
        out.push_str(&format!("  \"nproc\": {},\n", self.nproc));
        out.push_str(&format!("  \"commit\": {},\n", json::quote(&self.commit)));
        out.push_str("  \"workloads\": {\n");
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            out.push_str(&format!("    {}: {{\n", json::quote(name)));
            out.push_str(&format!(
                "      \"fingerprint\": {},\n",
                json::quote(&w.fingerprint)
            ));
            out.push_str(&format!("      \"attempted\": {},\n", w.attempted));
            out.push_str(&format!("      \"failed\": {},\n", w.failed));
            out.push_str(&format!(
                "      \"end_to_end\": {{\n{}\n      }},\n",
                stored_to_json(&w.end_to_end, "        ")
            ));
            out.push_str(&format!(
                "      \"per_layer\": {{\n{}\n      }}\n",
                stored_to_json(&w.per_layer, "        ")
            ));
            out.push_str(if i + 1 == self.workloads.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Reads a results file.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed file.
    pub fn read(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{} lacks {key}", path.display()))
        };
        let mut workloads = BTreeMap::new();
        for (name, w) in doc.get("workloads").map_or(&[][..], Json::entries) {
            workloads.insert(
                name.clone(),
                WorkloadResult {
                    fingerprint: w
                        .get("fingerprint")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    attempted: w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    failed: w.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    end_to_end: stored_from_json(w.get("end_to_end"))?,
                    per_layer: stored_from_json(w.get("per_layer"))?,
                },
            );
        }
        Ok(Results {
            seed: num("seed")? as u64,
            smoke: doc.get("smoke") == Some(&Json::Bool(true)),
            seconds: num("seconds")?,
            nproc: num("nproc")? as usize,
            commit: doc
                .get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_owned(),
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip() {
        let mut r = Results {
            seed: 7,
            smoke: true,
            seconds: 1.5,
            nproc: 2,
            commit: "abc".into(),
            workloads: BTreeMap::new(),
        };
        let mut w = WorkloadResult {
            fingerprint: "00ff".into(),
            attempted: 10,
            failed: 0,
            ..WorkloadResult::default()
        };
        w.end_to_end.insert(
            "ops_per_s".into(),
            Stored {
                unit: "1/s".into(),
                stat: Stat {
                    value: 1234.5,
                    n: 9,
                    q1: 1200.25,
                    q3: 1250.0,
                },
            },
        );
        r.workloads.insert("call_tiny".into(), w);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        std::fs::write(&path, r.to_json()).unwrap();
        assert_eq!(Results::read(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metric_lines_parse_back() {
        let line = "metric call_tiny op_p50_us 0.1425 us n=12 q1=0.14 q3=0.145";
        let (name, s) = parse_metric_line(line).unwrap();
        assert_eq!(name, "op_p50_us");
        assert_eq!(s.unit, "us");
        assert_eq!(s.stat.n, 12);
        assert_eq!(s.stat.q3, 0.145);
        assert!(parse_metric_line("info call_tiny fingerprint=00").is_none());
    }
}
