//! The TCP wire protocol: length-prefixed frames over a per-client
//! connection, with bounded pipelining as the fairness layer.
//!
//! # Framing
//!
//! Every message — request or reply — is one frame: a 4-byte big-endian
//! payload length followed by that many bytes of UTF-8 text. Frames
//! larger than [`NetConfig::max_frame`] are a protocol error that closes
//! the connection (a length prefix must never drive an unbounded
//! allocation). Text payloads keep the protocol debuggable with `nc` and
//! independent of any serialization library.
//!
//! # Requests
//!
//! A request frame carries one line in the stdin-mode syntax,
//! `{Function[...], {arg, ...}}` (see [`parse_request_line`]), or a
//! control request starting with `!`:
//!
//! - `!stats` — replies with one `name value` line per
//!   [`crate::metrics::ServeMetrics::snapshot`] counter. The CI
//!   warm-restart gate asserts on `compiles` and `disk_hits` through
//!   this.
//!
//! # Replies
//!
//! Replies come back *in request order*, one frame per request:
//!
//! ```text
//! ok <tier> <hit|disk|miss|-> <compile_ns> <execute_ns> <fell_back> <result...>
//! err <message...>
//! ```
//!
//! # Admission and fairness
//!
//! Two layers bound a client:
//!
//! 1. **Pool shedding** (existing): a full pool queue rejects with
//!    `Overloaded`, reported as an `err` reply.
//! 2. **Per-client pipelining cap** (this module): a connection may have
//!    at most [`NetConfig::max_pipeline`] requests in flight. At the
//!    cap, the server stops *reading* that connection until a reply
//!    drains — per-client backpressure through TCP flow control, so one
//!    greedy client can occupy at most `max_pipeline` queue slots and
//!    can never starve other connections by itself.
//!
//! # Failure modes
//!
//! Malformed frame length / oversized frame / non-UTF-8 payload: the
//! connection is dropped (the stream can no longer be trusted). A
//! malformed *request line* inside a valid frame is an `err` reply; the
//! connection stays usable. Server shutdown mid-flight: in-flight
//! requests finish and their replies are written before the process
//! prints its final stats table.

use crate::pool::{PendingReply, ServePool, ServeReply, ServeRequest};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wire-protocol knobs.
#[derive(Clone)]
pub struct NetConfig {
    /// Per-connection in-flight request cap (the fairness bound).
    pub max_pipeline: usize,
    /// Largest accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Handler for `!stream` sessions; `None` rejects them. Implemented
    /// by `wolfram-stream` and injected by the CLI, so the wire layer
    /// stays free of a dependency on the streaming engine.
    pub stream: Option<Arc<dyn StreamHandler>>,
}

impl std::fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConfig")
            .field("max_pipeline", &self.max_pipeline)
            .field("max_frame", &self.max_frame)
            .field("stream", &self.stream.is_some())
            .finish()
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_pipeline: 32,
            max_frame: 1 << 20,
            stream: None,
        }
    }
}

/// Server-side entry point for `!stream` sessions: compiles the streamed
/// function once and hands back a per-connection session.
pub trait StreamHandler: Send + Sync {
    /// Starts a session for `spec` (the text after `!stream`, normally a
    /// `Function[...]` in input form). An `Err` is reported to the client
    /// as an `err` reply and the connection stays in request mode.
    ///
    /// # Errors
    ///
    /// A human-readable reason the stream could not start (parse or
    /// compile failure, unsupported signature).
    fn begin(&self, spec: &str) -> Result<Box<dyn StreamSession>, String>;
}

/// One active `!stream` session on one connection. While a session is
/// open, every frame on the connection is a record (replied to with one
/// frame, in order) until the `!end` sentinel, which yields the final
/// metrics table and returns the connection to request mode.
///
/// Sessions are created and used on a single connection thread, so they
/// may hold thread-confined execution state (a register machine, its
/// reusable frame) — deliberately no `Send` bound.
pub trait StreamSession {
    /// Processes one record line, returning its wire reply line
    /// (`ok <result...>` or `err <message...>`).
    fn record(&mut self, line: &str) -> String;
    /// Ends the session and renders its metrics summary.
    fn finish(&mut self) -> String;
}

/// Parses one request line: `{Function[...], {arg, ...}}`. Shared by the
/// stdin and socket modes of `reproduce serve`.
///
/// # Errors
///
/// A human-readable description of what is malformed.
pub fn parse_request_line(text: &str) -> Result<ServeRequest, String> {
    let expr = wolfram_expr::parse(text).map_err(|e| e.to_string())?;
    if !expr.has_head("List") || expr.args().len() != 2 {
        return Err("expected {Function[...], {args...}}".into());
    }
    let func = &expr.args()[0];
    let arg_list = &expr.args()[1];
    if !func.has_head("Function") {
        return Err("first element must be a Function".into());
    }
    if !arg_list.has_head("List") {
        return Err("second element must be the argument list".into());
    }
    let args: Vec<String> = arg_list.args().iter().map(|a| a.to_input_form()).collect();
    Ok(ServeRequest::new(func.to_input_form(), args))
}

/// Renders a reply as its wire line (without framing).
pub fn render_reply(reply: &ServeReply) -> String {
    match &reply.result {
        Ok(v) => format!(
            "ok {} {} {} {} {} {v}",
            reply.tier.map_or_else(|| "?".into(), |t| t.to_string()),
            reply.cache,
            reply.compile_ns,
            reply.execute_ns,
            u8::from(reply.fell_back),
        ),
        Err(e) => format!("err {e}"),
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` is a clean EOF at a frame boundary.
///
/// # Errors
///
/// Truncated frames, oversized lengths, and I/O failures.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds cap {max_frame}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Runs the accept loop until `shutdown` goes true. One thread per
/// connection; connection threads are detached (the process prints final
/// stats and exits on shutdown, which is the CI lifecycle).
///
/// # Errors
///
/// Propagates listener configuration failures; per-connection errors
/// only close that connection.
pub fn serve_listener(
    listener: TcpListener,
    pool: &Arc<ServePool>,
    shutdown: &AtomicBool,
    config: &NetConfig,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let pool = Arc::clone(pool);
                let cfg = config.clone();
                std::thread::Builder::new()
                    .name("wolfram-serve-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &pool, &cfg);
                    })?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One queued reply slot: either a pool ticket to wait on, a reply that
/// is already known, or a stats request resolved at *write* time (so the
/// snapshot observes every earlier request on this connection as
/// complete).
enum ReplySlot {
    Pending(PendingReply),
    Immediate(String),
    Stats,
}

fn handle_connection(
    stream: TcpStream,
    pool: &Arc<ServePool>,
    config: &NetConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Reader and writer halves: the reader (this thread) parses frames
    // and submits to the pool; the writer thread waits on replies and
    // writes them back *in request order* (the channel is the FIFO). The
    // channel bound IS the per-client pipelining cap: at `max_pipeline`
    // unwritten replies, `send` blocks the reader, which stops draining
    // the socket — backpressure via TCP flow control.
    let (tx, rx) = std::sync::mpsc::sync_channel::<ReplySlot>(config.max_pipeline.max(1));
    let writer_pool = Arc::clone(pool);
    let writer_handle = std::thread::Builder::new()
        .name("wolfram-serve-conn-writer".into())
        .spawn(move || -> std::io::Result<()> {
            while let Ok(slot) = rx.recv() {
                let line = match slot {
                    ReplySlot::Pending(pending) => render_reply(&pending.wait()),
                    ReplySlot::Immediate(line) => line,
                    ReplySlot::Stats => {
                        let mut out = String::new();
                        for (name, value) in writer_pool.metrics().snapshot() {
                            out.push_str(name);
                            out.push(' ');
                            out.push_str(&value.to_string());
                            out.push('\n');
                        }
                        out
                    }
                };
                write_frame(&mut writer, line.as_bytes())?;
            }
            Ok(())
        })?;

    let read_result: std::io::Result<()> = (|| {
        // Runs until client EOF or a protocol error; on server shutdown
        // the process exits, which closes in-flight connections (the CI
        // lifecycle stops clients before the server).
        //
        // While a `!stream` session is open, every frame is a record
        // handled synchronously on this thread (the function was compiled
        // once at `!stream` time; records bypass the pool). Replies still
        // flow through the writer channel, so the pipelining cap bounds
        // un-drained stream replies exactly as it bounds pool requests.
        let mut session: Option<Box<dyn StreamSession>> = None;
        loop {
            let Some(payload) = read_frame(&mut reader, config.max_frame)? else {
                return Ok(()); // clean EOF
            };
            let Ok(text) = String::from_utf8(payload) else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "non-UTF-8 request frame",
                ));
            };
            let text = text.trim();
            let slot = if let Some(sess) = session.as_deref_mut() {
                if text == "!end" {
                    let summary = sess.finish();
                    session = None;
                    ReplySlot::Immediate(summary)
                } else {
                    ReplySlot::Immediate(sess.record(text))
                }
            } else if text == "!stats" {
                ReplySlot::Stats
            } else if let Some(spec) = text.strip_prefix("!stream") {
                match &config.stream {
                    None => {
                        ReplySlot::Immediate("err streaming is not enabled on this server".into())
                    }
                    Some(handler) => match handler.begin(spec.trim()) {
                        Ok(sess) => {
                            session = Some(sess);
                            ReplySlot::Immediate("ok stream".into())
                        }
                        Err(e) => ReplySlot::Immediate(format!("err {e}")),
                    },
                }
            } else {
                match parse_request_line(text) {
                    Err(e) => ReplySlot::Immediate(format!("err request error: {e}")),
                    Ok(req) => match pool.submit(req) {
                        Ok(pending) => ReplySlot::Pending(pending),
                        Err(e) => ReplySlot::Immediate(format!("err {e}")),
                    },
                }
            };
            if tx.send(slot).is_err() {
                // Writer hit an I/O error and exited; the connection is
                // dead either way.
                return Ok(());
            }
        }
    })();

    // EOF (or error): close the channel so the writer drains the
    // remaining in-order replies and exits.
    drop(tx);
    let write_result = writer_handle
        .join()
        .unwrap_or_else(|_| Err(std::io::Error::other("connection writer panicked")));
    read_result.and(write_result)
}

/// A reply as parsed off the wire by a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetReply {
    /// The rendered result, or the error message.
    pub result: Result<String, String>,
    /// Tier token (`bytecode`/`native`/`?`); empty on errors.
    pub tier: String,
    /// Cache token: `hit`, `disk`, `miss`, or `-`; empty on errors.
    pub cache: String,
    /// Nanoseconds the server spent compiling (saved cost on hits).
    pub compile_ns: u64,
    /// Nanoseconds the server spent executing.
    pub execute_ns: u64,
}

impl NetReply {
    fn parse(line: &str) -> Result<NetReply, String> {
        if let Some(msg) = line.strip_prefix("err ") {
            return Ok(NetReply {
                result: Err(msg.to_owned()),
                tier: String::new(),
                cache: String::new(),
                compile_ns: 0,
                execute_ns: 0,
            });
        }
        let rest = line
            .strip_prefix("ok ")
            .ok_or_else(|| format!("malformed reply {line:?}"))?;
        let mut parts = rest.splitn(6, ' ');
        let mut field = || parts.next().ok_or_else(|| format!("short reply {line:?}"));
        let tier = field()?.to_owned();
        let cache = field()?.to_owned();
        let compile_ns = field()?.parse::<u64>().map_err(|e| e.to_string())?;
        let execute_ns = field()?.parse::<u64>().map_err(|e| e.to_string())?;
        let _fell_back = field()?;
        let result = field()?.to_owned();
        Ok(NetReply {
            result: Ok(result),
            tier,
            cache,
            compile_ns,
            execute_ns,
        })
    }
}

/// A blocking wire-protocol client (the load generator and CI gate).
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    max_frame: usize,
}

impl NetClient {
    /// Connects to a serving address.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            max_frame: NetConfig::default().max_frame,
        })
    }

    /// Sends one request line and waits for its reply frame.
    ///
    /// # Errors
    ///
    /// I/O failures, server disconnect, or a malformed reply.
    pub fn call(&mut self, line: &str) -> std::io::Result<NetReply> {
        write_frame(&mut self.writer, line.as_bytes())?;
        self.read_reply()
    }

    /// Sends a request without waiting (pipelining); pair with
    /// [`NetClient::read_reply`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        write_frame(&mut self.writer, line.as_bytes())
    }

    /// Reads the next in-order reply frame.
    ///
    /// # Errors
    ///
    /// I/O failures, server disconnect, or a malformed reply.
    pub fn read_reply(&mut self) -> std::io::Result<NetReply> {
        let payload = read_frame(&mut self.reader, self.max_frame)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        let text = String::from_utf8(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        NetReply::parse(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Sends one raw line and returns the raw reply text (the `!stream`
    /// sub-protocol: `!stream Function[...]`, record lines, `!end`).
    ///
    /// # Errors
    ///
    /// I/O failures or server disconnect.
    pub fn call_raw(&mut self, line: &str) -> std::io::Result<String> {
        write_frame(&mut self.writer, line.as_bytes())?;
        let payload = read_frame(&mut self.reader, self.max_frame)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        String::from_utf8(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Fetches the server's metrics snapshot (`!stats`).
    ///
    /// # Errors
    ///
    /// I/O failures or a malformed stats frame.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, u64)>> {
        write_frame(&mut self.writer, b"!stats")?;
        let payload = read_frame(&mut self.reader, self.max_frame)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed")
        })?;
        let text = String::from_utf8(payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut out = Vec::new();
        for line in text.lines() {
            let (name, value) = line.split_once(' ').ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad stats line {line:?}"),
                )
            })?;
            let value = value
                .parse::<u64>()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            out.push((name.to_owned(), value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ServeConfig, TierPolicy};

    fn start_server(config: ServeConfig) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let pool = Arc::new(ServePool::start(config));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            serve_listener(listener, &pool, &flag, &NetConfig::default()).unwrap();
        });
        (addr, shutdown, handle)
    }

    #[test]
    fn call_roundtrip_and_cache_tokens() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        let line = "{Function[{Typed[n, \"MachineInteger\"]}, n + 1], {41}}";
        let first = client.call(line).unwrap();
        assert_eq!(first.result.as_deref(), Ok("42"));
        assert_eq!(first.cache, "miss");
        let second = client.call(line).unwrap();
        assert_eq!(second.result.as_deref(), Ok("42"));
        assert_eq!(second.cache, "hit");
        assert_eq!(second.tier, "native");

        let stats = client.stats().unwrap();
        let get = |k: &str| stats.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("ok"), 2);
        assert_eq!(get("compiles"), 1);
        assert_eq!(get("cache_hits"), 1);

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn pipelined_requests_reply_in_order() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        for i in 0..10 {
            client
                .send(&format!(
                    "{{Function[{{Typed[n, \"MachineInteger\"]}}, n * n], {{{i}}}}}"
                ))
                .unwrap();
        }
        for i in 0..10 {
            let reply = client.read_reply().unwrap();
            assert_eq!(reply.result.as_deref(), Ok(format!("{}", i * i).as_str()));
        }
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn malformed_requests_err_but_keep_the_connection() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        let bad = client.call("this is not a request").unwrap();
        assert!(bad.result.is_err(), "{bad:?}");
        // The connection survives a bad line.
        let good = client
            .call("{Function[{Typed[n, \"MachineInteger\"]}, n - 1], {10}}")
            .unwrap();
        assert_eq!(good.result.as_deref(), Ok("9"));
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn oversized_frame_drops_the_connection() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        // A length prefix far beyond max_frame: the server must hang up
        // rather than allocate.
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.flush().unwrap();
        let mut buf = [0u8; 1];
        // Read returns 0 (server closed) rather than blocking forever.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(stream.read(&mut buf).unwrap(), 0);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn frame_roundtrip_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf.len(), 9);
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 16).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut r, 16).unwrap().is_none(), "clean EOF");

        let mut r = &buf[..];
        assert!(read_frame(&mut r, 3).is_err(), "cap enforced");

        // Truncated payload is an error, not a hang or a short read.
        let mut r = &buf[..7];
        assert!(read_frame(&mut r, 16).is_err());
    }

    #[test]
    fn bytecode_tier_over_the_wire() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 2,
            tier_policy: TierPolicy::BytecodeOnly,
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        let reply = client
            .call("{Function[{Typed[n, \"MachineInteger\"]}, n * 3], {14}}")
            .unwrap();
        assert_eq!(reply.result.as_deref(), Ok("42"));
        assert_eq!(reply.tier, "bytecode");
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
}
