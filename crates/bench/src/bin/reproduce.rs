//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [figure2|table1|intro|ablations|opstats|compile-times|all] [--quick]
//! reproduce difftest [--iters N] [--seed S] [--out DIR] [--no-shrink] [--no-analyze]
//! reproduce analyze [--ir-stage wir|twir|post-pipeline] <file.wl | source>
//! reproduce analyze --stats [<file.wl | source>] [--golden F] [--write-golden F]
//! reproduce serve [--workers N] [--cache-cap N] [--queue-cap N] [--deadline-ms N] [--tier T]
//!                 [--listen ADDR] [--cache-dir DIR]
//! reproduce stream --function 'Function[...]' [--input FILE] [--tier T] [--batch N]
//!                  [--workers N]
//! ```
//!
//! `--quick` shrinks the workloads (CI-sized); without it the paper's §6
//! parameters are used. Build with `--release` for meaningful numbers.
//!
//! `difftest` runs the differential fuzzer over every engine instead: it exits
//! nonzero if any divergence (or compile hole) survives, and writes shrunk
//! counterexample artifacts into `--out` (default `difftest/found`).
//!
//! `analyze` compiles one program to the requested IR stage and prints
//! every `wolfram-analyze` diagnostic (type errors, refcount imbalance,
//! lints); it exits nonzero if any error-severity finding is reported.
//! `analyze --stats` instead reports the elision counters (Part bounds and
//! integer overflow from the interval analysis, and the refcount pairs the
//! lowering cancels on every compile) and per-lint finding totals over the
//! paper corpus, with a `--golden` CI gate.
//!
//! `serve` runs the concurrent compile-and-evaluate pool over stdin (one
//! request per line as a two-element list `{Function[...], {arg, ...}}`,
//! answered in input order) or, with `--listen ADDR`, over the
//! length-prefixed TCP wire protocol. `--cache-dir DIR` enables the
//! disk-backed second cache level so restarts start warm. Both modes
//! print the metrics table on graceful shutdown (EOF or SIGTERM).
//!
//! `stream` compiles one function and streams line-delimited records from
//! stdin (or `--input FILE`) to stdout — one `ok <result>` / `err <msg>`
//! line per record, in input order. SIGTERM/SIGINT drains the in-flight
//! batches (every admitted record still reaches stdout) and the per-stage
//! metrics table is printed on stderr either way.

use wolfram_bench::{ablations, harness, intro, opstats, table1};
use wolfram_compiler_core::{Compiler, CompilerOptions};
use wolfram_ir::VerifyLevel;

/// `analyze` subcommand: a CLI front end for the IR checkers.
fn run_analyze(args: &[String]) -> ! {
    if args.iter().any(|a| a == "--stats") {
        run_analyze_stats(args);
    }
    let mut stage = String::from("post-pipeline");
    let mut input: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--ir-stage" {
            stage = it
                .next()
                .cloned()
                .expect("--ir-stage wir|twir|post-pipeline");
        } else if input.is_none() {
            input = Some(a.clone());
        }
    }
    let input = input.expect("usage: reproduce analyze [--ir-stage STAGE] <file.wl | source>");
    // A path argument is read from disk; anything else is inline source.
    let src = std::fs::read_to_string(&input).unwrap_or(input);
    let expr = match wolfram_expr::parse(&src) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };

    // Diagnostics are printed here, so compile with the SSA linter only:
    // `VerifyLevel::Full` would turn the first finding into a compile
    // error instead of a report.
    let pm = match stage.as_str() {
        "wir" => Compiler::new(CompilerOptions {
            verify: VerifyLevel::Ssa,
            ..CompilerOptions::default()
        })
        .compile_to_ir(&expr),
        "twir" => Compiler::new(CompilerOptions {
            optimization_level: 0,
            abort_handling: false,
            memory_management: false,
            verify: VerifyLevel::Ssa,
            ..CompilerOptions::default()
        })
        .compile_to_twir(&expr, None),
        "post-pipeline" => Compiler::new(CompilerOptions {
            verify: VerifyLevel::Ssa,
            ..CompilerOptions::default()
        })
        .compile_to_twir(&expr, None),
        other => {
            eprintln!("unknown --ir-stage `{other}` (expected wir, twir, or post-pipeline)");
            std::process::exit(2);
        }
    };
    let pm = match pm {
        Ok(pm) => pm,
        Err(e) => {
            eprintln!("compilation failed: {e}");
            std::process::exit(1);
        }
    };

    let diags = wolfram_analyze::analyze_module(&pm);
    let mut errors = 0usize;
    for d in &diags {
        let f = pm.functions.iter().find(|f| f.name == d.function);
        println!("{}", d.render(f));
        errors += usize::from(d.severity == wolfram_analyze::Severity::Error);
    }
    println!(
        "analyze ({stage}): {} function(s), {} finding(s), {errors} error(s)",
        pm.functions.len(),
        diags.len()
    );
    std::process::exit(i32::from(errors > 0));
}

/// `analyze --stats`: per-benchmark range-analysis elision counts and
/// per-lint finding totals over the paper corpus (or one given program).
///
/// The counters are read off the lowered `NativeFunc`s, so they report
/// what the backend actually emitted (after the range facts were keyed
/// through lowering), not what the analysis merely claimed. `--golden F`
/// compares the stable report against a committed file and exits nonzero
/// on drift; `--write-golden F` regenerates it.
fn run_analyze_stats(args: &[String]) -> ! {
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let golden = flag("--golden");
    let write_golden = flag("--write-golden");
    let mut input: Option<String> = None;
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match a.as_str() {
            "--stats" => {}
            "--golden" | "--write-golden" => skip = true,
            _ if input.is_none() && !a.starts_with("--") => input = Some(a.clone()),
            other => {
                eprintln!("analyze --stats: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        let _ = i;
    }

    let programs: Vec<(String, String)> = match input {
        Some(p) => {
            let src = std::fs::read_to_string(&p).unwrap_or_else(|_| p.clone());
            let name = std::path::Path::new(&p)
                .file_stem()
                .map_or_else(|| "input".into(), |s| s.to_string_lossy().into_owned());
            vec![(name, src)]
        }
        None => {
            let table = wolfram_bench::workloads::prime_seed_table();
            vec![
                ("FNV1a".into(), wolfram_bench::programs::FNV1A_SRC.into()),
                (
                    "Mandelbrot".into(),
                    wolfram_bench::programs::MANDELBROT_SRC.into(),
                ),
                ("Dot".into(), wolfram_bench::programs::DOT_SRC.into()),
                ("Blur".into(), wolfram_bench::programs::BLUR_SRC.into()),
                (
                    "Histogram".into(),
                    wolfram_bench::programs::HISTOGRAM_SRC.into(),
                ),
                ("PrimeQ".into(), wolfram_bench::programs::primeq_src(&table)),
                ("QSort".into(), wolfram_bench::programs::QSORT_SRC.into()),
            ]
        }
    };

    let compiler = Compiler::new(CompilerOptions {
        verify: VerifyLevel::Ssa,
        ..CompilerOptions::default()
    });
    let mut lines: Vec<String> = Vec::new();
    let mut lints: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    let (mut bt, mut be, mut ot, mut oe, mut rc) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (name, src) in &programs {
        let expr = match wolfram_expr::parse(src) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{name}: parse error: {e}");
                std::process::exit(1);
            }
        };
        let pm = match compiler.compile_to_twir(&expr, None) {
            Ok(pm) => pm,
            Err(e) => {
                eprintln!("{name}: compilation failed: {e}");
                std::process::exit(1);
            }
        };
        for d in wolfram_analyze::analyze_module(&pm) {
            *lints.entry(d.code).or_insert(0) += 1;
        }
        let native = match compiler.generate_native(&pm) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{name}: codegen failed: {e}");
                std::process::exit(1);
            }
        };
        let (mut fbt, mut fbe, mut fot, mut foe, mut frc) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for f in &native.funcs {
            fbt += u64::from(f.elision.bounds_total);
            fbe += u64::from(f.elision.bounds_elided);
            fot += u64::from(f.elision.ovf_total);
            foe += u64::from(f.elision.ovf_elided);
            frc += u64::from(f.elision.rc_elided);
        }
        lines.push(format!(
            "{name:<11} bounds {fbe}/{fbt}  ovf {foe}/{fot}  rc-elided {frc}"
        ));
        bt += fbt;
        be += fbe;
        ot += fot;
        oe += foe;
        rc += frc;
    }
    let pct = |e: u64, t: u64| {
        if t == 0 {
            0.0
        } else {
            100.0 * e as f64 / t as f64
        }
    };
    lines.push(format!(
        "total       bounds {be}/{bt} ({:.0}%)  ovf {oe}/{ot} ({:.0}%)  rc-elided {rc}",
        pct(be, bt),
        pct(oe, ot)
    ));
    for (code, n) in &lints {
        lines.push(format!("lint {code} {n}"));
    }
    let report = format!("{}\n", lines.join("\n"));
    print!("== analyze --stats: range-check elision over the corpus ==\n{report}");

    if let Some(path) = write_golden {
        std::fs::write(&path, &report).expect("write golden");
        println!("wrote golden: {path}");
        std::process::exit(0);
    }
    if let Some(path) = golden {
        let want = std::fs::read_to_string(&path).expect("read golden");
        if want != report {
            eprintln!("analyze --stats: drift against golden {path}");
            eprintln!("--- golden ---\n{want}--- actual ---\n{report}");
            std::process::exit(1);
        }
        println!("golden match: {path}");
    }
    std::process::exit(0);
}

/// `difftest` subcommand: long-running differential fuzzing with artifact
/// output, used locally and by the scheduled CI job.
fn run_difftest(args: &[String]) -> ! {
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let iters: u64 = flag("--iters").map_or(2_000, |v| v.parse().expect("--iters N"));
    let seed: u64 = flag("--seed").map_or(0xD1FF_7E57, |v| v.parse().expect("--seed S"));
    let out = std::path::PathBuf::from(flag("--out").unwrap_or_else(|| "difftest/found".into()));
    let shrink = !args.iter().any(|a| a == "--no-shrink");
    let analyze = !args.iter().any(|a| a == "--no-analyze");

    let cfg = wolfram_difftest::FuzzConfig {
        seed,
        iters,
        shrink,
        analyze,
    };
    println!("difftest: {iters} iterations from seed {seed:#x}");
    let start = std::time::Instant::now();
    let report = wolfram_difftest::run_fuzz(&cfg);
    println!(
        "{} in {:.1}s",
        report.summary(),
        start.elapsed().as_secs_f64()
    );

    for (s, msg) in &report.prepare_samples {
        println!("  prepare failure (seed {s}): {msg}");
    }
    for case in &report.divergences {
        println!("\nDIVERGENCE (seed {}):", case.seed);
        println!("  original: {}", case.original);
        println!("  shrunk:   {}", case.shrunk.func.to_input_form());
        println!("  note:     {}", case.shrunk.note);
        match case.shrunk.write_to(&out) {
            Ok(path) => println!("  artifact: {}", path.display()),
            Err(e) => println!("  artifact write failed: {e}"),
        }
    }
    let clean = report.divergences.is_empty()
        && report.prepare_failures == 0
        && report.roundtrip_failures == 0;
    std::process::exit(i32::from(!clean));
}

/// Set by the SIGTERM/SIGINT handler; polled by both serve modes so a
/// graceful stop still prints the stats table.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn note_shutdown(_sig: i32) {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers via raw `signal(2)` — the numbers are
/// stable POSIX, and the handler only flips an atomic.
#[cfg(unix)]
fn install_shutdown_handler() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, note_shutdown);
        signal(SIGINT, note_shutdown);
    }
}

#[cfg(not(unix))]
fn install_shutdown_handler() {
    let _ = note_shutdown; // EOF is the only graceful stop off unix
}

/// `serve` subcommand: the pool as a line-oriented service over stdin, or
/// (with `--listen`) over the length-prefixed TCP wire protocol. Both
/// modes print the metrics table on graceful shutdown (EOF or SIGTERM).
fn run_serve(args: &[String]) -> ! {
    use wolfram_serve::{ServeConfig, ServePool, TierPolicy};

    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let workers: usize = flag("--workers").map_or(4, |v| v.parse().expect("--workers N"));
    let cache_cap: usize = flag("--cache-cap").map_or(512, |v| v.parse().expect("--cache-cap N"));
    let queue_cap: usize = flag("--queue-cap").map_or(256, |v| v.parse().expect("--queue-cap N"));
    let deadline = flag("--deadline-ms")
        .map(|v| std::time::Duration::from_millis(v.parse().expect("--deadline-ms N")));
    let listen = flag("--listen");
    let cache_dir = flag("--cache-dir").map(std::path::PathBuf::from);
    let tier_policy = match flag("--tier").as_deref() {
        None | Some("native") => TierPolicy::NativeOnly,
        Some("bytecode") => TierPolicy::BytecodeOnly,
        Some("adaptive") => TierPolicy::Adaptive { promote_after: 2 },
        Some(other) => {
            eprintln!("unknown --tier `{other}` (expected native, bytecode, or adaptive)");
            std::process::exit(2);
        }
    };
    install_shutdown_handler();
    let pool = ServePool::start(ServeConfig {
        workers,
        queue_cap,
        cache_cap,
        default_deadline: deadline,
        tier_policy,
        disk_cache_dir: cache_dir.clone(),
    });
    eprintln!(
        "wolfram-serve: {workers} workers, cache {cache_cap}, queue {queue_cap}{}",
        cache_dir
            .as_ref()
            .map(|d| format!(", disk cache {}", d.display()))
            .unwrap_or_default()
    );

    if let Some(addr) = listen {
        // Socket mode: frames over TCP until SIGTERM/SIGINT.
        let listener = match std::net::TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("wolfram-serve: cannot listen on {addr}: {e}");
                std::process::exit(1);
            }
        };
        // The bound address, not the requested one: `--listen HOST:0` asks
        // the OS for a free port and this line is how a caller learns it.
        let bound = listener.local_addr().map_or(addr, |a| a.to_string());
        eprintln!("wolfram-serve: listening on {bound} (length-prefixed frames)");
        let pool = std::sync::Arc::new(pool);
        // `!stream` sessions compile at the pool's tier policy and run on
        // the connection thread through the streaming fast path.
        let net_config = wolfram_serve::NetConfig {
            stream: Some(std::sync::Arc::new(
                wolfram_stream::ServeStreamHandler::new(CompilerOptions::default(), tier_policy),
            )),
            ..Default::default()
        };
        if let Err(e) = wolfram_serve::net::serve_listener(listener, &pool, &SHUTDOWN, &net_config)
        {
            eprintln!("wolfram-serve: accept loop failed: {e}");
        }
        print!("{}", pool.metrics().render());
        std::process::exit(0);
    }

    // Stdin mode: one request per line, replies in input order. Lines
    // arrive via a channel so the loop can notice SIGTERM while stdin is
    // quiet.
    eprintln!("wolfram-serve: one `{{Function[...], {{args...}}}}` per line on stdin");
    let (line_tx, line_rx) = std::sync::mpsc::sync_channel::<String>(64);
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF: drop the sender
                Ok(_) => {
                    if line_tx.send(line.clone()).is_err() {
                        break;
                    }
                }
            }
        }
    });
    let mut lineno = 0u64;
    loop {
        if SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        let line = match line_rx.recv_timeout(std::time::Duration::from_millis(100)) {
            Ok(line) => line,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break, // EOF
        };
        lineno += 1;
        let text = line.trim();
        if text.is_empty() || text.starts_with("(*") {
            continue;
        }
        let req = match wolfram_serve::net::parse_request_line(text) {
            Ok(req) => req,
            Err(e) => {
                println!("{lineno}: request error: {e}");
                continue;
            }
        };
        let reply = pool.call(req);
        match &reply.result {
            Ok(v) => println!(
                "{lineno}: {v}  [{} {} compile {} execute {}]",
                reply.tier.map_or_else(|| "?".into(), |t| t.to_string()),
                reply.cache,
                wolfram_serve::fmt_ns(reply.compile_ns),
                wolfram_serve::fmt_ns(reply.execute_ns),
            ),
            Err(e) => println!("{lineno}: {e}"),
        }
    }
    print!("{}", pool.metrics().render());
    pool.shutdown();
    std::process::exit(0);
}

/// `stream` subcommand: compile once, evaluate a line-delimited record
/// stream. Results go to stdout in input order; diagnostics and the
/// per-stage metrics table go to stderr. SIGTERM/SIGINT drains in-flight
/// batches before the table prints (stop is a drain, not a loss).
fn run_stream_cmd(args: &[String]) -> ! {
    use wolfram_stream::{StreamConfig, StreamFunction, StreamMetrics};

    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(src) = flag("--function") else {
        eprintln!("usage: reproduce stream --function 'Function[...]' [--input FILE]");
        eprintln!("       [--tier native|bytecode|interp] [--batch N] [--workers N]");
        std::process::exit(2);
    };
    let batch: usize = flag("--batch").map_or(256, |v| v.parse().expect("--batch N"));
    let workers: usize = flag("--workers").map_or(1, |v| v.parse().expect("--workers N"));
    let tier = flag("--tier").unwrap_or_else(|| "native".into());

    let func = match tier.as_str() {
        "native" => match Compiler::default().function_compile_src(&src) {
            Ok(cf) => StreamFunction::Native(cf.artifact()),
            Err(e) => {
                eprintln!("stream: compile failed: {e}");
                std::process::exit(1);
            }
        },
        "bytecode" => {
            let compiled = wolfram_expr::parse(&src)
                .map_err(|e| e.to_string())
                .and_then(|f| wolfram_bytecode::BytecodeCompiler::new().compile_function(&f));
            match compiled {
                Ok(cf) => StreamFunction::Bytecode(std::sync::Arc::new(cf)),
                Err(e) => {
                    eprintln!("stream: bytecode compile failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "interp" => match wolfram_expr::parse(&src) {
            Ok(f) => StreamFunction::Interpreter(f),
            Err(e) => {
                eprintln!("stream: parse failed: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("unknown --tier `{other}` (expected native, bytecode, or interp)");
            std::process::exit(2);
        }
    };

    install_shutdown_handler();
    let cfg = StreamConfig {
        batch_size: batch,
        workers,
        queue_batches: 8,
    };
    let metrics = StreamMetrics::new();
    let mut out = std::io::BufWriter::new(std::io::stdout());
    let started = std::time::Instant::now();
    let run = |input, out: &mut _| {
        wolfram_stream::run_lines(&func, &cfg, input, out, &metrics, &SHUTDOWN)
    };
    let summary = match flag("--input") {
        Some(path) => match std::fs::File::open(&path) {
            Ok(f) => run(
                Box::new(std::io::BufReader::new(f)) as Box<dyn std::io::BufRead + Send>,
                &mut out,
            ),
            Err(e) => {
                eprintln!("stream: cannot open {path}: {e}");
                std::process::exit(1);
            }
        },
        None => run(
            Box::new(std::io::BufReader::new(std::io::stdin())),
            &mut out,
        ),
    };
    let elapsed = started.elapsed();
    use std::io::Write as _;
    let _ = out.flush();
    match summary {
        Ok(s) => {
            if s.stopped {
                eprintln!(
                    "stream: shutdown requested; drained {} in-flight record(s)",
                    s.records
                );
            }
            eprint!("{}", metrics.render(elapsed));
            std::process::exit(i32::from(s.errors > 0 && s.ok == 0));
        }
        Err(e) => {
            eprintln!("stream: output failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The report sections; `all` (also the default) prints every one.
const SECTIONS: [&str; 6] = [
    "figure2",
    "table1",
    "intro",
    "ablations",
    "opstats",
    "compile-times",
];

/// A subcommand with its own argument parsing; it exits on its own.
type Command = fn(&[String]) -> !;

const COMMANDS: [(&str, Command); 4] = [
    ("difftest", run_difftest),
    ("analyze", run_analyze),
    ("serve", run_serve),
    ("stream", run_stream_cmd),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if let Some((_, run)) = COMMANDS.iter().find(|(name, _)| first == Some(name)) {
        run(&args[1..]);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    if what != "all" && !SECTIONS.contains(&what.as_str()) {
        // A typo must not pass for a run that printed nothing.
        let commands: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "reproduce: unknown subcommand `{what}`\nsubcommands: {} all {}",
            SECTIONS.join(" "),
            commands.join(" ")
        );
        std::process::exit(2);
    }
    let scale = if quick {
        harness::Scale::quick()
    } else {
        harness::Scale::paper()
    };

    if matches!(what.as_str(), "figure2" | "all") {
        println!(
            "== Figure 2 ({} scale) ==",
            if quick { "quick" } else { "paper" }
        );
        let rows = harness::figure2(&scale);
        print!("{}", harness::render_figure2(&rows));
        println!();
    }

    if matches!(what.as_str(), "table1" | "all") {
        println!("== Table 1 ==");
        print!("{}", table1::render(&table1::probe()));
        println!();
    }

    if matches!(what.as_str(), "intro" | "all") {
        println!("== Section 1 in-text numbers ==");
        let suite = intro::WalkSuite::new();
        let len = if quick { 10_000 } else { 100_000 };
        let t = suite.time(len, scale.repetitions);
        println!(
            "random walk (len {}): interpreter {:.4}s | bytecode {:.4}s ({:.2}x, paper ~2x) | \
             FunctionCompile {:.4}s ({:.2}x)",
            t.len,
            t.interpreted_secs,
            t.bytecode_secs,
            t.bytecode_speedup(),
            t.compiled_secs,
            t.compiled_speedup()
        );
        let fr = intro::findroot_speedup(if quick { 20 } else { 200 });
        println!(
            "FindRoot[Sin[x] + E^x]: interpreted {:.6}s/solve | auto-compiled {:.6}s/solve \
             ({:.2}x, paper 1.6x; hook fired {} times)",
            fr.interpreted_secs,
            fr.autocompiled_secs,
            fr.speedup(),
            fr.autocompile_hits
        );
        println!();
    }

    if matches!(what.as_str(), "ablations" | "all") {
        println!("== Section 6 ablations ==");
        let (iters, hist_n, prime_n, qsort_n, blur_n) = if quick {
            (200_000, 200_000, 20_000, 1 << 12, 200)
        } else {
            (2_000_000, 1_000_000, 50_000, 1 << 15, 1000)
        };
        println!(
            "{}",
            ablations::inline_ablation(iters, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::qsort_inline_ablation(qsort_n, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::abort_ablation_histogram(hist_n, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::constant_array_ablation(prime_n, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::mutability_copy_ablation(qsort_n, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::fusion_ablation(scale.string_len, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::elision_ablation(hist_n, scale.repetitions).render()
        );
        println!(
            "{}",
            ablations::vectorize_ablation(blur_n, scale.repetitions).render()
        );
        println!();
    }

    if matches!(what.as_str(), "opstats" | "all") {
        println!("== Dynamic op statistics (superinstruction selection data) ==");
        let profiles = opstats::collect(&scale);
        print!("{}", opstats::render(&profiles, 8));
        println!();
    }

    if matches!(what.as_str(), "compile-times" | "all") {
        println!("== Section 5: compilation time per stage (ms, median of repeated compiles) ==");
        let compiler = Compiler::default();
        let table = wolfram_bench::workloads::prime_seed_table();
        let programs: Vec<(&str, String)> = vec![
            ("FNV1a", wolfram_bench::programs::FNV1A_SRC.into()),
            ("Mandelbrot", wolfram_bench::programs::MANDELBROT_SRC.into()),
            ("Dot", wolfram_bench::programs::DOT_SRC.into()),
            ("Blur", wolfram_bench::programs::BLUR_SRC.into()),
            ("Histogram", wolfram_bench::programs::HISTOGRAM_SRC.into()),
            ("PrimeQ", wolfram_bench::programs::primeq_src(&table)),
            ("QSort", wolfram_bench::programs::QSORT_SRC.into()),
        ];
        // Medians over repeated compiles, in ms. `parse` is timed here, the
        // stages after it come from `Compiler::timings()`: `passes` and
        // `verification` split what the IR pass pipeline costs into the
        // passes themselves and the checking of their results
        // (`optimize[f]` and `optimize[f].verify`, summed over the
        // program's functions). `other` is the rest of the total (function
        // resolution, instantiation), which must not be negative.
        let reps = if quick { 3 } else { 15 };
        type Belongs = fn(&str) -> bool;
        let stages: [(&str, Belongs); 8] = [
            ("macro-expansion", |t| t == "macro-expansion"),
            ("binding", |t| t == "binding-analysis"),
            ("lowering", |t| t == "lowering"),
            ("inference", |t| t == "type-inference"),
            ("passes", |t| t.starts_with("optimize[") && t.ends_with(']')),
            ("verification", |t| {
                t.starts_with("optimize[") && t.ends_with(".verify") || t == "analyze"
            }),
            ("range-analysis", |t| t == "range-analysis"),
            ("codegen", |t| {
                matches!(t, "code-generation" | "superinstruction-fusion")
            }),
        ];
        let columns = [&["total", "parse"], &stages.map(|(s, _)| s)[..], &["other"]].concat();
        print!("{:<11}", "program");
        columns
            .iter()
            .for_each(|c| print!(" {c:>0$}", c.len().max(9)));
        println!();
        for (name, src) in &programs {
            // One column of samples per printed column.
            let mut samples = vec![Vec::with_capacity(reps); columns.len()];
            for _ in 0..reps {
                let start = std::time::Instant::now();
                let f = wolfram_expr::parse(src).expect("parses");
                let parse = start.elapsed();
                let _ = compiler.function_compile(&f).expect("compiles");
                let (total, timings) = (start.elapsed(), compiler.timings());
                let mut row = vec![total, parse];
                for (_, belongs) in &stages {
                    row.push(
                        timings
                            .iter()
                            .filter(|(t, _)| belongs(t))
                            .map(|(_, d)| *d)
                            .sum(),
                    );
                }
                let rest = total.checked_sub(row[1..].iter().sum());
                row.push(rest.expect("the stages of a compile fit in its total"));
                for (column, d) in samples.iter_mut().zip(row) {
                    column.push(d.as_secs_f64() * 1e3);
                }
            }
            print!("{name:<11}");
            for (column, samples) in columns.iter().zip(&mut samples) {
                samples.sort_by(f64::total_cmp);
                print!(" {:>1$.3}", samples[reps / 2], column.len().max(9));
            }
            println!();
        }
    }
}
