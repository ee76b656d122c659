//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [figure2|table1|intro|ablations|opstats|compile-times|all] [--quick]
//! reproduce difftest [--iters N] [--seed S] [--out DIR] [--no-shrink] [--no-analyze]
//! reproduce analyze [--ir-stage wir|twir|post-pipeline] <file.wl | source>
//! reproduce analyze --stats [<file.wl | source>] [--golden F] [--write-golden F]
//! reproduce serve [--workers N] [--cache-cap N] [--queue-cap N] [--deadline-ms N] [--tier T]
//!                 [--listen ADDR] [--cache-dir DIR]
//! reproduce bench-serve [--quick]
//! reproduce bench-serve --net ADDR [--quick] [--clients N] [--json [PATH]] [--expect-warm]
//! reproduce bench-parallel [--quick] [--json [PATH]] [--min-chunk N]
//! reproduce stream --function 'Function[...]' [--input FILE] [--tier T] [--batch N]
//!                  [--workers N]
//! ```
//!
//! `--quick` shrinks the workloads (CI-sized); without it the paper's §6
//! parameters are used. Build with `--release` for meaningful numbers.
//!
//! `difftest` runs the tri-engine differential fuzzer instead: it exits
//! nonzero if any divergence (or compile hole) survives, and writes shrunk
//! counterexample artifacts into `--out` (default `difftest/found`).
//!
//! `analyze` compiles one program to the requested IR stage and prints
//! every `wolfram-analyze` diagnostic (type errors, refcount imbalance,
//! lints); it exits nonzero if any error-severity finding is reported.
//! `analyze --stats` instead reports the interval-analysis elision
//! counters (Part bounds, integer overflow, refcount pairs) and per-lint
//! finding totals over the paper corpus, with a `--golden` CI gate.
//!
//! `serve` runs the concurrent compile-and-evaluate pool over stdin (one
//! request per line as a two-element list `{Function[...], {arg, ...}}`,
//! answered in input order) or, with `--listen ADDR`, over the
//! length-prefixed TCP wire protocol. `--cache-dir DIR` enables the
//! disk-backed second cache level so restarts start warm. Both modes
//! print the metrics table on graceful shutdown (EOF or SIGTERM).
//!
//! `bench-serve` drives the Zipf closed-loop load generator over the pool
//! at 1/4/8 workers with the artifact cache on vs off, then the deadline
//! sub-experiment; it exits nonzero on any divergence, a zero hit rate,
//! or leaked memory counters (the CI smoke gate). `bench-serve --net ADDR`
//! instead drives a *live* `serve --listen` process over sockets,
//! reporting client-observed latency percentiles (`--json` writes the SLO
//! artifact); `--expect-warm` additionally asserts the warm-restart
//! contract (zero compiles, disk hits observed).
//!
//! `bench-parallel` runs the data-parallel tier ablation (fused-scalar
//! baseline vs SIMD at 1/2/4/8 threads on Blur, Dot, and a Listable
//! zip); `--json` additionally writes `BENCH_parallel.json` (or the
//! given path). It exits nonzero if any configuration's result differs
//! from the scalar baseline or the memory counters end up imbalanced.
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
        eprintln!("wolfram-serve: listening on {addr} (length-prefixed frames)");
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
                match reply.cache {
                    wolfram_serve::CacheStatus::Hit => "hit",
                    wolfram_serve::CacheStatus::DiskHit => "disk",
                    wolfram_serve::CacheStatus::Miss => "miss",
                    wolfram_serve::CacheStatus::Unreached => "-",
                },
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

/// `bench-serve --net ADDR`: the socket-load experiment against a live
/// `reproduce serve --listen` process. Reports client-observed latency
/// percentiles (the SLO numbers), writes the SLO JSON artifact, and —
/// with `--expect-warm` — asserts the warm-restart guarantee: every
/// first-sight program served from the disk cache, zero compiles.
fn run_bench_serve_net(args: &[String], addr: &str) -> ! {
    use wolfram_bench::serve_load::{self, Catalog, Zipf};

    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
            .filter(|v| !v.starts_with("--"))
    };
    let quick = args.iter().any(|a| a == "--quick");
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    let (programs, requests) = if quick { (12, 240) } else { (24, 2_000) };
    let clients: usize = flag("--clients").map_or(4, |v| v.parse().expect("--clients N"));
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|_| flag("--json").unwrap_or_else(|| "BENCH_serve_net.json".into()));

    let catalog = Catalog::new(programs, 64);
    let zipf = Zipf::new(catalog.len(), 1.1);
    println!(
        "== bench-serve --net {addr} ({} scale): {programs} programs, Zipf s=1.1, \
         {requests} requests, {clients} clients ==",
        if quick { "quick" } else { "paper" },
    );
    let report =
        match serve_load::run_net_load(addr, &catalog, &zipf, clients, requests, 0x5E12_F00D) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench-serve --net: load failed against {addr}: {e}");
                std::process::exit(1);
            }
        };
    println!("{}", serve_load::render_net_report(&report));
    println!(
        "server: compiles {}  cache-hits {}  disk-hits {}  disk-stores {}  disk-corrupt {}  \
         p50 {}  p99 {}",
        report.server_stat("compiles"),
        report.server_stat("cache_hits"),
        report.server_stat("disk_hits"),
        report.server_stat("disk_stores"),
        report.server_stat("disk_corrupt"),
        wolfram_serve::fmt_ns(report.server_stat("request_p50_ns")),
        wolfram_serve::fmt_ns(report.server_stat("request_p99_ns")),
    );
    if let Some(path) = json_path {
        let doc = serve_load::net_report_to_json(&report, if quick { "quick" } else { "paper" });
        match std::fs::write(&path, doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut failures = 0u32;
    if report.divergences > 0 || report.errors > 0 {
        failures += 1;
    }
    if report.ok == 0 {
        failures += 1;
    }
    if expect_warm {
        // The warm-restart contract: a restarted server over a populated
        // cache dir serves every first-sight program from disk and never
        // recompiles.
        if report.server_stat("compiles") != 0 {
            println!(
                "warm-restart violation: server compiled {} time(s)",
                report.server_stat("compiles")
            );
            failures += 1;
        }
        if report.server_stat("disk_hits") == 0 {
            println!("warm-restart violation: zero disk hits");
            failures += 1;
        }
    }
    println!(
        "bench-serve --net: {}",
        if failures == 0 { "PASS" } else { "FAIL" }
    );
    std::process::exit(i32::from(failures > 0));
}

/// `bench-serve` subcommand: the Zipf closed-loop experiment, also the CI
/// smoke gate (nonzero exit on divergence, zero hit rate, or leaks).
fn run_bench_serve(args: &[String]) -> ! {
    use wolfram_bench::serve_load::{self, Catalog, Zipf};

    if let Some(i) = args.iter().position(|a| a == "--net") {
        let addr = args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7788".into());
        run_bench_serve_net(args, &addr);
    }

    let quick = args.iter().any(|a| a == "--quick");
    let (programs, requests, spin_rounds) = if quick { (12, 240, 2) } else { (24, 2_000, 6) };
    let catalog = Catalog::new(programs, 64);
    let zipf = Zipf::new(catalog.len(), 1.1);
    println!(
        "== bench-serve ({} scale): {} programs, Zipf s=1.1, {} requests/config ==",
        if quick { "quick" } else { "paper" },
        programs,
        requests
    );

    let mut failures = 0u32;
    let mut at8 = (0.0f64, 0.0f64); // (cache-off, cache-on) throughput
    for workers in [1usize, 4, 8] {
        for cache_on in [false, true] {
            let r = serve_load::run_load(
                &catalog,
                &zipf,
                workers,
                cache_on,
                workers * 2,
                requests,
                0x5E12_F00D,
            );
            println!("{}", serve_load::render_row(&r));
            if r.divergences > 0 {
                failures += 1;
            }
            if cache_on && r.hit_rate <= 0.0 {
                failures += 1;
            }
            if workers == 8 {
                if cache_on {
                    at8.1 = r.throughput;
                } else {
                    at8.0 = r.throughput;
                }
            }
        }
    }
    let speedup = at8.1 / at8.0.max(1e-9);
    println!(
        "cache speedup at 8 workers: {speedup:.2}x (acceptance floor 3x{})",
        if quick {
            "; advisory at quick scale"
        } else {
            ""
        }
    );
    if !quick && speedup < 3.0 {
        failures += 1;
    }

    let d = serve_load::run_deadline_experiment(spin_rounds);
    println!(
        "deadline experiment: {}/{} aborted, pool alive: {}, memory balanced: {}",
        d.aborted, d.issued, d.pool_alive, d.memory_balanced
    );
    if d.aborted != d.issued || !d.pool_alive || !d.memory_balanced {
        failures += 1;
    }
    println!(
        "bench-serve: {}",
        if failures == 0 { "PASS" } else { "FAIL" }
    );
    std::process::exit(i32::from(failures > 0));
}

/// `bench-parallel` subcommand: the data-parallel tier ablation, also a
/// CI smoke gate (nonzero exit on result divergence or counter leaks).
fn run_bench_parallel(args: &[String]) -> ! {
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick {
        harness::Scale::quick()
    } else {
        harness::Scale::paper()
    };
    let next_value = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
            .cloned()
    };
    // Quick scale shrinks the tensors, so shrink the chunk floor with it
    // or the threaded paths never engage.
    let min_chunk: usize = next_value("--min-chunk").map_or_else(
        || if quick { 256 } else { 4096 },
        |v| v.parse().expect("--min-chunk N"),
    );
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|_| next_value("--json").unwrap_or_else(|| "BENCH_parallel.json".into()));

    println!(
        "== bench-parallel ({} scale): blur {n}x{n}, dot {d}x{d}, listable {l}; \
         min chunk {min_chunk} ==",
        if quick { "quick" } else { "paper" },
        n = scale.blur_n,
        d = scale.dot_n,
        l = scale.histogram_n,
    );
    let report =
        wolfram_bench::parallel::run(&scale, &wolfram_bench::parallel::THREAD_STEPS, min_chunk);
    print!("{}", wolfram_bench::parallel::render(&report));

    if let Some(path) = json_path {
        let doc = wolfram_bench::parallel::to_json(&report, if quick { "quick" } else { "paper" });
        match std::fs::write(&path, doc) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let clean = report.equivalence_failures == 0 && report.memory_balanced;
    println!("bench-parallel: {}", if clean { "PASS" } else { "FAIL" });
    std::process::exit(i32::from(!clean));
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
                .and_then(|f| {
                    let specs = wolfram_bytecode::ArgSpec::from_function(&f)?;
                    let body = f.args().get(1).cloned().ok_or("function has no body")?;
                    wolfram_bytecode::BytecodeCompiler::new()
                        .compile(&specs, &body)
                        .map_err(|e| e.to_string())
                });
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

const COMMANDS: [(&str, Command); 6] = [
    ("difftest", run_difftest),
    ("analyze", run_analyze),
    ("serve", run_serve),
    ("bench-serve", run_bench_serve),
    ("bench-parallel", run_bench_parallel),
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
        let (iters, hist_n, prime_n, qsort_n) = if quick {
            (200_000, 200_000, 20_000, 1 << 12)
        } else {
            (2_000_000, 1_000_000, 50_000, 1 << 15)
        };
        println!(
            "{}",
            ablations::inline_ablation(iters, scale.repetitions).render()
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
        // Medians over repeated compiles, in ms. `passes` and `verification`
        // split what the IR pass pipeline costs into the passes themselves
        // and the checking of their results (`optimize[f]` and
        // `optimize[f].verify` in `Compiler::timings()`, summed over the
        // program's functions).
        let reps = if quick { 3 } else { 15 };
        type Belongs = fn(&str) -> bool;
        let stages: [(&str, Belongs); 5] = [
            ("passes", |t| t.starts_with("optimize[") && t.ends_with(']')),
            ("verification", |t| {
                t.starts_with("optimize[") && t.ends_with(".verify") || t == "analyze"
            }),
            ("range-analysis", |t| t == "range-analysis"),
            ("macro-expansion", |t| t == "macro-expansion"),
            ("inference", |t| t == "type-inference"),
        ];
        print!("{:<11} {:>9}", "program", "total");
        for (stage, _) in &stages {
            print!(" {stage:>15}");
        }
        println!();
        for (name, src) in &programs {
            // One column of samples for the total, one per stage.
            let mut samples = vec![Vec::with_capacity(reps); 1 + stages.len()];
            for _ in 0..reps {
                let start = std::time::Instant::now();
                let _ = compiler.function_compile_src(src).expect("compiles");
                samples[0].push(start.elapsed().as_secs_f64() * 1e3);
                let timings = compiler.timings();
                for ((_, belongs), column) in stages.iter().zip(&mut samples[1..]) {
                    column.push(
                        timings
                            .iter()
                            .filter(|(t, _)| belongs(t))
                            .map(|(_, d)| d.as_secs_f64() * 1e3)
                            .sum::<f64>(),
                    );
                }
            }
            print!("{name:<11}");
            for (i, column) in samples.iter_mut().enumerate() {
                column.sort_by(f64::total_cmp);
                print!(" {:>1$.3}", column[reps / 2], if i == 0 { 9 } else { 15 });
            }
            println!();
        }
    }
}
