//! `wolfram-benchmark`: `run` one workload (what `run.sh --workload ...`
//! and the driver call), `all` workloads (what plain `run.sh` calls),
//! `compare` two results files, or print the `spec` as `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;
use wolfram_benchmark::harness::RunArgs;
use wolfram_benchmark::suite::{self, Results, SuiteArgs};
use wolfram_benchmark::{compare, spec, workloads};

const USAGE: &str = "usage:
  wolfram-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--inject-fault] [--out-dir DIR]
  wolfram-benchmark all [--seed N] [--seconds S] [--smoke] [--reverse] [--out-dir DIR] [--baseline FILE]
  wolfram-benchmark spread [--runs N] [--seed FIRST] [--seconds S] [--smoke] [--out-dir DIR] [WORKLOAD...]
  wolfram-benchmark compare A.json B.json
  wolfram-benchmark spec [--layer-table]";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn switch(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{name} needs a value"));
        }
        let text = self.args.remove(i + 1);
        self.args.remove(i);
        text.parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot read {text:?}"))
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.args),
        }
    }
}

fn run(mut flags: Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags.value("--workload")?.ok_or("--workload is required")?,
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds: flags
            .value("--seconds")?
            .unwrap_or(f64::from(spec::RUN_SECONDS)),
        trace: flags.value::<u8>("--trace")?.unwrap_or(0) != 0,
        smoke: flags.switch("--smoke"),
        inject_fault: flags.switch("--inject-fault"),
        out_dir: flags
            .value("--out-dir")?
            .unwrap_or_else(|| PathBuf::from("benchmark/out")),
    };
    if !flags.finish()?.is_empty() {
        return Err("run takes no positional arguments".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} is out of range", args.seconds));
    }
    let out = workloads::run(&args).ok_or_else(|| {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        )
    })?;
    print!("{}", suite::render_lines(&out));
    println!("{}", suite::render_result_line(&out));
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn suite_args(flags: &mut Flags) -> Result<SuiteArgs, String> {
    let smoke = flags.switch("--smoke");
    let out_dir: PathBuf = flags
        .value("--out-dir")?
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    Ok(SuiteArgs {
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds: flags.value("--seconds")?.unwrap_or(if smoke {
            0.3
        } else {
            f64::from(spec::RUN_SECONDS)
        }),
        smoke,
        reverse: flags.switch("--reverse"),
        baseline: flags
            .value("--baseline")?
            .unwrap_or_else(|| PathBuf::from("benchmark/baseline.json")),
        out_dir,
    })
}

fn all(mut flags: Flags) -> Result<ExitCode, String> {
    let args = suite_args(&mut flags)?;
    if !flags.finish()?.is_empty() {
        return Err("all takes no positional arguments".into());
    }
    suite::run_all(&args)?;
    Ok(ExitCode::SUCCESS)
}

fn spread(mut flags: Flags) -> Result<ExitCode, String> {
    let runs = flags.value("--runs")?.unwrap_or(10);
    let args = suite_args(&mut flags)?;
    let mut workloads = flags.finish()?;
    if workloads.is_empty() {
        workloads = spec::WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    }
    suite::run_spread(&args, &workloads, runs)?;
    Ok(ExitCode::SUCCESS)
}

fn compare_files(flags: Flags) -> Result<ExitCode, String> {
    let files = flags.finish()?;
    let [a, b] = files.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let c = compare::compare(
        &Results::read(&PathBuf::from(a))?,
        &Results::read(&PathBuf::from(b))?,
    )?;
    print!("{}", c.text);
    Ok(if c.regressed + c.unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() {
        String::new()
    } else {
        args.remove(0)
    };
    let flags = Flags { args };
    let outcome = match command.as_str() {
        "run" => run(flags),
        "all" => all(flags),
        "spread" => spread(flags),
        "compare" => compare_files(flags),
        "spec" => {
            let mut flags = flags;
            if flags.switch("--layer-table") {
                print!("{}", spec::layer_table_markdown());
            } else {
                print!("{}", spec::benchmark_json());
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("wolfram-benchmark: {message}");
        ExitCode::from(2)
    })
}
