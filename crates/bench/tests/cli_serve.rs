//! Serve contracts through the real binary, the real wire and a real
//! SIGTERM. Warm restart: a `reproduce serve --listen` process over an
//! empty `--cache-dir` compiles each program once and stores it; stopped
//! and restarted over the same directory, it serves every first-sight
//! program from disk without compiling. (The in-process half, including a
//! corrupt entry, is `wolfram-serve`'s `send_audit.rs`.) Hostile frame: a
//! frame nested far past the parser's limit is answered with an `err`
//! reply, and the server keeps serving.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use wolfram_bench::serve_load::Catalog;
use wolfram_serve::NetClient;

/// A running `reproduce serve --listen 127.0.0.1:0` child.
struct Server {
    child: Child,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

impl Server {
    /// Starts the server on a port the OS picks and reads the address it
    /// bound from its stderr.
    fn start(cache_dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["serve", "--listen", "127.0.0.1:0", "--tier", "bytecode"])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn reproduce serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("read server stderr") == 0 {
                let _ = child.kill();
                panic!("server exited before listening; stderr:\n{seen}");
            }
            if let Some(rest) = line.trim().strip_prefix("wolfram-serve: listening on ") {
                break rest.split(' ').next().expect("address").to_owned();
            }
            seen.push_str(&line);
        };
        assert!(
            !addr.ends_with(":0"),
            "the bound port is reported, not the requested one: {addr}"
        );
        Server {
            child,
            addr,
            stderr,
        }
    }

    /// SIGTERMs the server. A stop is graceful: exit status 0 and the final
    /// metrics table on stdout.
    fn terminate(mut self) {
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(sent.success(), "kill -TERM failed");
        let status = self.child.wait().expect("wait for the server");
        let mut stdout = String::new();
        let mut pipe = self.child.stdout.take().expect("piped stdout");
        pipe.read_to_string(&mut stdout).expect("read stdout");
        let mut stderr = String::new();
        let _ = self.stderr.read_to_string(&mut stderr);
        assert_eq!(
            status.code(),
            Some(0),
            "SIGTERM must be a graceful stop; stderr:\n{stderr}"
        );
        assert!(
            stdout.starts_with("serve stats\n") && stdout.contains("  disk       hits"),
            "no final metrics table on stdout:\n{stdout}"
        );
    }
}

impl Drop for Server {
    /// A failed assertion must not leave the child running. After
    /// `terminate` the child is already reaped and both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends every catalog program twice on one connection, checking each
/// value against ground truth and each cache token against `first_sight`
/// then `hit`; returns the server's `!stats` afterwards.
fn drive(addr: &str, catalog: &Catalog, first_sight: &str) -> Vec<(String, u64)> {
    let mut client = NetClient::connect(addr).expect("connect");
    for round_token in [first_sight, "hit"] {
        for rank in 0..catalog.len() {
            let line = format!("{{{}, {{{}}}}}", catalog.source(rank), catalog.arg());
            let reply = client.call(&line).expect("reply frame");
            assert_eq!(
                reply.result.as_deref(),
                Ok(catalog.expected(rank)),
                "program {rank}"
            );
            assert_eq!(reply.tier, "bytecode", "program {rank}");
            assert_eq!(reply.cache, round_token, "program {rank}");
        }
    }
    client.stats().expect("!stats")
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    let found = stats.iter().find(|(n, _)| n == name);
    found.unwrap_or_else(|| panic!("no `{name}` in !stats")).1
}

#[test]
fn restart_over_the_same_cache_dir_serves_from_disk_without_compiling() {
    let dir = std::env::temp_dir().join(format!("wolfram-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::new(12, 64);
    let programs = catalog.len() as u64;

    let cold = Server::start(&dir);
    let stats = drive(&cold.addr, &catalog, "miss");
    assert_eq!(stat(&stats, "compiles"), programs);
    assert_eq!(stat(&stats, "disk_stores"), programs);
    assert_eq!(stat(&stats, "disk_hits"), 0);
    assert_eq!(stat(&stats, "ok"), 2 * programs);
    cold.terminate();

    let warm = Server::start(&dir);
    let stats = drive(&warm.addr, &catalog, "disk");
    assert_eq!(stat(&stats, "compiles"), 0, "a warm restart never compiles");
    assert_eq!(stat(&stats, "disk_hits"), programs);
    assert_eq!(stat(&stats, "disk_corrupt"), 0);
    assert_eq!(stat(&stats, "ok"), 2 * programs);
    warm.terminate();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_nested_past_the_parser_limit_is_answered_and_the_server_lives() {
    let dir = std::env::temp_dir().join(format!("wolfram-cli-nest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = Catalog::new(1, 64);
    let line = format!("{{{}, {{{}}}}}", catalog.source(0), catalog.arg());

    let server = Server::start(&dir);
    let mut client = NetClient::connect(&server.addr).expect("connect");
    // 200 KB of `{`: before the limit, this overflowed the connection
    // thread's stack and aborted the whole process.
    let hostile = client.call(&"{".repeat(200_000)).expect("an err reply");
    let err = hostile.result.expect_err("a request error");
    assert!(err.starts_with("request error: "), "{err}");
    let fresh = NetClient::connect(&server.addr).expect("a new connection");
    for mut conn in [client, fresh] {
        let reply = conn.call(&line).expect("reply frame");
        assert_eq!(reply.result.as_deref(), Ok(catalog.expected(0)));
    }
    server.terminate();

    let _ = std::fs::remove_dir_all(&dir);
}
