//! `wolfram-stream`: the compile-once, evaluate-millions streaming
//! engine.
//!
//! The compiler's pipeline amortizes a one-time compilation over many
//! evaluations; this crate makes that amortization real at the systems
//! level. A function is compiled once into the `Send + Sync`
//! [`CompiledArtifact`](wolfram_compiler_core::CompiledArtifact) and
//! applied to a high-rate stream of records through:
//!
//! - [`record`] — the line-delimited source/sink layer (stdin, files,
//!   and the `!stream` wire mode in [`net`]);
//! - [`wolfram_serve::queue`] — the bounded queue serve admits into:
//!   here backpressure *blocks* the producer rather than shedding records
//!   or growing without bound;
//! - [`exec`] — the batching executor: sequence-numbered batches, the
//!   function instantiated once per worker and called per record through
//!   the one entry every caller of compiled code uses, in-order delivery
//!   through a reorder buffer;
//! - [`metrics`] — events/sec, batch fill ratio, queue depth, and
//!   per-record latency quantiles on the serve layer's histogram atoms.
//!
//! Streaming is an *optimization*, never a semantic: streaming N records
//! is bit-identical to N independent one-shot evaluations across every
//! tier, batching mode, and worker count, and the refcount balance the
//! analyzer proves for one call holds process-wide across a run —
//! including runs with mid-stream errors. `tests/equivalence.rs` holds
//! both properties down.

#![forbid(unsafe_code)]

pub mod exec;
pub mod metrics;
pub mod net;
pub mod record;

pub use exec::{run_stream, StreamConfig, StreamFunction, StreamSummary};
pub use metrics::StreamMetrics;
pub use net::ServeStreamHandler;
pub use record::{parse_record, render_result, Record};

use std::io::{BufRead, Write};
use std::sync::atomic::AtomicBool;

/// Streams line-delimited records from `input` to `output`: the engine
/// behind `reproduce stream` (stdin/file mode). Each input line becomes
/// one output line (`ok <result>` or `err <message>`), in input order.
/// On return the caller typically prints `metrics.render(elapsed)`.
///
/// # Errors
///
/// Only sink I/O failures; per-record problems are data (`err` lines).
pub fn run_lines<R: BufRead + Send, W: Write>(
    func: &StreamFunction,
    cfg: &StreamConfig,
    input: R,
    output: &mut W,
    metrics: &StreamMetrics,
    stop: &AtomicBool,
) -> std::io::Result<StreamSummary> {
    let arity = func.arity();
    // `BufRead::lines` without its String per line: one buffer, reused.
    let (mut input, mut buf) = (input, String::new());
    let records = std::iter::from_fn(move || loop {
        buf.clear();
        let line = match input.read_line(&mut buf) {
            Ok(0) => return None,
            Ok(_) => buf
                .strip_suffix('\n')
                .map_or(&*buf, |l| l.strip_suffix('\r').unwrap_or(l)),
            Err(e) => return Some(Err(format!("input error: {e}"))),
        };
        if !line.trim().is_empty() {
            return Some(parse_record(line, arity));
        }
    });
    let mut io_err = None;
    let mut line = String::new();
    let summary = run_stream(func, cfg, records, metrics, stop, |r| {
        if io_err.is_none() {
            line.clear();
            record::write_result(&r, &mut line);
            line.push('\n');
            if let Err(e) = output.write_all(line.as_bytes()) {
                io_err = Some(e);
            }
        }
    });
    match io_err {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_compiler_core::Compiler;

    #[test]
    fn run_lines_round_trips() {
        let artifact = Compiler::default()
            .function_compile_src("Function[{Typed[n, \"MachineInteger\"]}, n*n]")
            .unwrap()
            .artifact();
        let func = StreamFunction::Native(artifact);
        // LF with a final newline; CRLF with none.
        for input in [b"3\n\n4\nnope\n5\n" as &[u8], b"3\r\n\r\n4\nnope\n5"] {
            let mut out = Vec::new();
            let metrics = StreamMetrics::new();
            let stop = AtomicBool::new(false);
            let summary = run_lines(
                &func,
                &StreamConfig::default(),
                input,
                &mut out,
                &metrics,
                &stop,
            )
            .unwrap();
            assert_eq!(summary.records, 4, "blank line skipped");
            assert_eq!(summary.errors, 1, "unparseable symbol is a type error");
            let text = String::from_utf8(out).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines[0], "ok 9");
            assert_eq!(lines[1], "ok 16");
            assert!(lines[2].starts_with("err "), "{}", lines[2]);
            assert_eq!(lines[3], "ok 25");
        }
    }
}
