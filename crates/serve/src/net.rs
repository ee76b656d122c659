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
//! # Threads
//!
//! One thread per connection reads its frames, parses each request once
//! and hands the parsed program to the pool. Replies go through the
//! connection's outbox: the reader reserves a slot per request, and
//! whoever completes a slot — the pool worker that answered it, or the
//! reader for a reply it makes itself (`!stats`, a `!stream` record, a
//! malformed request) — parks the reply there. The thread that completes
//! the next slot to write writes it and every reply parked after it, so
//! a warm request's reply leaves from the worker that computed it, with
//! no hand-off to another thread.
//!
//! Every connection has a fixed send timeout, [`SEND_TIMEOUT`]: a client
//! that does not take the next [`SEND_CHUNK`] bytes of its replies within
//! it is closed. A client that stops reading therefore holds the thread
//! writing to it (possibly a pool worker) for at most that long; a client
//! that is slow but still reading holds it while its reply drains. Once a
//! connection is closed, a worker skips its queued requests unserved
//! (counted as `abandoned`).
//!
//! # Admission and fairness
//!
//! Two layers bound a client:
//!
//! 1. **Pool shedding** (existing): a full pool queue rejects with
//!    `Overloaded`, reported as an `err` reply.
//! 2. **Per-client pipelining cap** (this module): a connection may have
//!    at most [`NetConfig::max_pipeline`] unwritten replies. At the
//!    cap, the server stops *reading* that connection until a reply
//!    is written — per-client backpressure through TCP flow control, so
//!    one greedy client can occupy at most `max_pipeline` queue slots and
//!    can never starve other connections by itself.
//!
//! # Failure modes
//!
//! Malformed frame length / oversized frame / non-UTF-8 payload: the
//! connection is dropped (the stream can no longer be trusted). A
//! malformed *request line* inside a valid frame — including one nested
//! deeper than [`wolfram_expr::parse::MAX_DEPTH`] — is an `err` reply;
//! the connection stays usable. Server shutdown mid-flight: in-flight
//! requests finish and their replies are written before the process
//! prints its final stats table.

use crate::metrics::ServeMetrics;
use crate::pool::{ReplyTo, ServePool, ServeReply, ServeRequest};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a client may take to accept the next [`SEND_CHUNK`] bytes of
/// its replies before the connection is closed: the longest a client that
/// stops reading can hold the thread writing to it.
pub const SEND_TIMEOUT: Duration = Duration::from_secs(5);

/// Most bytes one send moves (see [`SEND_TIMEOUT`]).
pub const SEND_CHUNK: usize = 64 * 1024;

/// A connection's write half. A send under the socket's send timeout can
/// move a few bytes into the kernel's buffers and then wait out the whole
/// timeout; counting those bytes as progress would let a client that
/// stopped reading hold the writer for several timeouts, so such a send
/// fails.
struct Socket(TcpStream);

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let chunk = &buf[..buf.len().min(SEND_CHUNK)];
        let start = Instant::now();
        let sent = self.0.write(chunk)?;
        if sent < chunk.len() && start.elapsed() >= SEND_TIMEOUT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "the client stopped reading",
            ));
        }
        Ok(sent)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

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

/// Parses one request line, `{Function[...], {arg, ...}}`, into a request
/// that carries the parsed program and arguments. Shared by the stdin and
/// socket modes of `reproduce serve`.
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
    Ok(ServeRequest::parsed(func.clone(), arg_list.args().to_vec()))
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
    put_frame(w, payload)?;
    w.flush()
}

/// Writes one frame without flushing.
fn put_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
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

/// A reply waiting in its slot for its turn on the wire.
enum Parked {
    Line(String),
    /// `!stats`, rendered when it is written, so the snapshot counts
    /// every earlier request on this connection as complete.
    Stats,
}

/// A connection's replies in request order (see "Threads" in the module
/// docs): one slot per request, written by whichever thread completes the
/// next slot to write.
struct Outbox {
    order: Mutex<Order>,
    /// Signalled when replies leave the window or the connection dies.
    room: Condvar,
    /// Used only by the thread that set `Order::writing`.
    socket: Mutex<BufWriter<Socket>>,
    metrics: Arc<ServeMetrics>,
    /// Unwritten replies at which the reader stops reading.
    cap: usize,
}

struct Order {
    /// Sequence number of `slots[0]`, the next reply to write.
    next: u64,
    /// Reserved, unwritten replies from `next` on; `None` is pending.
    slots: VecDeque<Option<Parked>>,
    /// A thread is writing; it also writes what is parked meanwhile.
    writing: bool,
    /// A write failed or timed out: replies are dropped, reading stops.
    dead: bool,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A reply handle completes its slot while its worker unwinds, so the
    // lock must not panic again.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Outbox {
    /// Reserves the next reply slot, blocking while `cap` replies are
    /// unwritten; `None` once the connection is dead.
    fn reserve(&self) -> Option<u64> {
        let mut order = relock(&self.order);
        while order.slots.len() >= self.cap && !order.dead {
            order = self
                .room
                .wait(order)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if order.dead {
            return None;
        }
        order.slots.push_back(None);
        Some(order.next + order.slots.len() as u64 - 1)
    }

    /// Parks `reply` in slot `seq`. If no other thread is writing, writes
    /// every parked reply from the next slot on, until a pending slot.
    fn complete(&self, seq: u64, reply: Parked) {
        let mut order = relock(&self.order);
        if order.dead {
            return;
        }
        let ix = usize::try_from(seq - order.next).expect("an unwritten slot");
        order.slots[ix] = Some(reply);
        if order.writing {
            return;
        }
        order.writing = true;
        loop {
            let ready = order.slots.iter().take_while(|s| s.is_some()).count();
            if ready == 0 || order.dead {
                break;
            }
            let batch: Vec<Parked> = order.slots.drain(..ready).flatten().collect();
            order.next += ready as u64;
            drop(order);
            self.room.notify_all();
            let written = self.write(batch);
            order = relock(&self.order);
            if written.is_err() {
                order.dead = true;
                order.slots.clear();
                self.room.notify_all();
            }
        }
        order.writing = false;
    }

    /// Writes `batch` as one flush. A failure — the send timeout
    /// included — shuts the socket down, which also ends the reader.
    fn write(&self, batch: Vec<Parked>) -> std::io::Result<()> {
        let mut socket = relock(&self.socket);
        let result = batch
            .into_iter()
            .try_for_each(|reply| match reply {
                Parked::Line(line) => put_frame(&mut *socket, line.as_bytes()),
                Parked::Stats => put_frame(&mut *socket, render_stats(&self.metrics).as_bytes()),
            })
            .and_then(|()| socket.flush());
        if result.is_err() {
            let _ = socket.get_ref().0.shutdown(Shutdown::Both);
        }
        result
    }
}

fn render_stats(metrics: &ServeMetrics) -> String {
    let mut out = String::new();
    for (name, value) in metrics.snapshot() {
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

fn handle_connection(
    stream: TcpStream,
    pool: &Arc<ServePool>,
    config: &NetConfig,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(SEND_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let outbox = Arc::new(Outbox {
        order: Mutex::new(Order {
            next: 0,
            slots: VecDeque::new(),
            writing: false,
            dead: false,
        }),
        room: Condvar::new(),
        socket: Mutex::new(BufWriter::new(Socket(stream))),
        metrics: Arc::clone(&pool.metrics),
        cap: config.max_pipeline.max(1),
    });

    // Runs until client EOF, a protocol error or a failed write; on
    // server shutdown the process exits, which closes in-flight
    // connections (the CI lifecycle stops clients before the server).
    // Replies still owed when the reader returns are written by the
    // workers that owe them.
    //
    // While a `!stream` session is open, every frame is a record
    // handled synchronously on this thread (the function was compiled
    // once at `!stream` time; records bypass the pool). Its replies take
    // slots like any other, so the pipelining cap bounds un-drained
    // stream replies exactly as it bounds pool requests.
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
        let Some(seq) = outbox.reserve() else {
            return Ok(()); // a reply write failed: the connection is dead
        };
        let text = text.trim();
        let reply = if let Some(sess) = session.as_deref_mut() {
            if text == "!end" {
                let summary = sess.finish();
                session = None;
                Parked::Line(summary)
            } else {
                Parked::Line(sess.record(text))
            }
        } else if text == "!stats" {
            Parked::Stats
        } else if let Some(spec) = text.strip_prefix("!stream") {
            match &config.stream {
                None => Parked::Line("err streaming is not enabled on this server".into()),
                Some(handler) => match handler.begin(spec.trim()) {
                    Ok(sess) => {
                        session = Some(sess);
                        Parked::Line("ok stream".into())
                    }
                    Err(e) => Parked::Line(format!("err {e}")),
                },
            }
        } else {
            match parse_request_line(text) {
                Err(e) => Parked::Line(format!("err request error: {e}")),
                Ok(req) => {
                    let (slot, watch) = (Arc::clone(&outbox), Arc::clone(&outbox));
                    let reply_to = ReplyTo::new(move |reply| {
                        slot.complete(seq, Parked::Line(render_reply(&reply)));
                    })
                    .abandoned_when(move || relock(&watch.order).dead);
                    match pool.enqueue(req, reply_to) {
                        Ok(()) => continue,
                        Err(e) => Parked::Line(format!("err {e}")),
                    }
                }
            }
        };
        outbox.complete(seq, reply);
    }
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
    /// Buffered, so a frame's length and payload leave in one write.
    writer: BufWriter<TcpStream>,
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
            writer: BufWriter::new(stream),
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
        serve_pool(Arc::new(ServePool::start(config)))
    }

    fn serve_pool(pool: Arc<ServePool>) -> (String, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
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

    const INC: &str = "Function[{Typed[n, \"MachineInteger\"]}, n + 1]";
    /// Spins until its deadline aborts it.
    const SPIN: &str = "Function[{Typed[n, \"MachineInteger\"]}, \
                        Module[{i = 0}, While[True, If[i > 3, i = i - 1, i = i + 1]]; i]]";

    fn line(program: &str, arg: i64) -> String {
        format!("{{{program}, {{{arg}}}}}")
    }

    fn read_text(stream: &mut TcpStream) -> String {
        let frame = read_frame(stream, 1 << 20).unwrap().expect("a reply frame");
        String::from_utf8(frame).unwrap()
    }

    #[test]
    fn a_slow_first_request_keeps_later_replies_behind_it() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 2,
            default_deadline: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        client.send(&line(SPIN, 0)).unwrap();
        for i in 0..10 {
            client.send(&line(INC, i)).unwrap();
        }
        // The second worker answers every fast request while the first
        // spins; their replies wait for the slow one's.
        let slow = client.read_reply().unwrap();
        assert!(
            slow.result.as_ref().is_err_and(|e| e.contains("deadline")),
            "{slow:?}"
        );
        for i in 0..10 {
            let reply = client.read_reply().unwrap();
            assert_eq!(reply.result, Ok((i + 1).to_string()));
        }
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn stats_queued_behind_a_pending_request_counts_it() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        // A first sight compiles, so the request is still pending when
        // `!stats` arrives behind it.
        write_frame(&mut stream, line(INC, 41).as_bytes()).unwrap();
        write_frame(&mut stream, b"!stats").unwrap();
        assert!(read_text(&mut stream).ends_with(" 42"));
        let stats = read_text(&mut stream);
        for counted in ["admitted 1", "ok 1", "compiles 1"] {
            assert!(stats.lines().any(|l| l == counted), "{counted} in {stats}");
        }
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn queued_jobs_dropped_unsent_answer_pool_closed_and_the_connection_ends() {
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            default_deadline: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        }));
        let (addr, shutdown, handle) = serve_pool(Arc::clone(&pool));
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(&mut stream, line(SPIN, 0).as_bytes()).unwrap();
        for i in 0..3 {
            write_frame(&mut stream, line(INC, i).as_bytes()).unwrap();
        }
        // With the worker spinning, empty the queue as the last worker
        // out does (`QueueHold`): the jobs are dropped unsent.
        while pool.jobs.len() < 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.jobs.close();
        while pool.jobs.pop().is_some() {}
        assert!(read_text(&mut stream).contains("deadline"));
        for _ in 0..3 {
            assert_eq!(read_text(&mut stream), "err pool closed");
        }
        // A request after the close is refused the same way.
        write_frame(&mut stream, line(INC, 0).as_bytes()).unwrap();
        assert_eq!(read_text(&mut stream), "err pool closed");
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "EOF, not a hang");
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn a_client_that_stops_reading_is_closed_after_the_send_timeout() {
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let (addr, shutdown, handle) = serve_pool(Arc::clone(&pool));
        // 16 replies of 600 KB, twice what the socket buffers hold, to a
        // client that never reads.
        let big = "Function[{Typed[n, \"MachineInteger\"]}, ConstantArray[0, n]]";
        let mut stalled = TcpStream::connect(&addr).unwrap();
        for _ in 0..16 {
            write_frame(&mut stalled, line(big, 200_000).as_bytes()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(200));
        // The one worker is stuck writing to the stalled client; another
        // client's request waits for the send timeout, not forever.
        let sent = std::time::Instant::now();
        let mut other = NetClient::connect(&addr).unwrap();
        let reply = other.call(&line(INC, 1)).unwrap();
        assert_eq!(reply.result.as_deref(), Ok("2"));
        let waited = sent.elapsed();
        assert!(
            waited < SEND_TIMEOUT + Duration::from_secs(5),
            "answered after {waited:?}"
        );
        // The stalled connection's requests still queued when it was
        // closed were skipped, not run.
        let abandoned = pool.metrics().abandoned.load(Ordering::Relaxed);
        assert!(abandoned > 0, "{abandoned}");
        // The stalled connection was closed: what it was sent ends in EOF
        // or a reset, short of the full pipeline.
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replies = 0;
        loop {
            match read_frame(&mut stalled, 1 << 20) {
                Ok(Some(_)) => replies += 1,
                Ok(None) => break,
                Err(e) => {
                    assert!(
                        !matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ),
                        "the stalled connection stays open: {e}"
                    );
                    break;
                }
            }
        }
        assert!(replies < 16, "{replies}");
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn a_wire_request_and_a_text_request_share_one_compile() {
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let (addr, shutdown, handle) = serve_pool(Arc::clone(&pool));
        let mut client = NetClient::connect(&addr).unwrap();
        let first = client.call(&line(INC, 41)).unwrap();
        assert_eq!(first.cache, "miss");
        let again = pool.call(ServeRequest::new(INC, ["41"]));
        assert_eq!(again.cache, crate::CacheStatus::Hit);
        let square = "Function[{Typed[n, \"MachineInteger\"]}, n * n]";
        assert_eq!(
            pool.call(ServeRequest::new(square, ["3"])).cache,
            crate::CacheStatus::Miss
        );
        let wired = client.call(&line(square, 3)).unwrap();
        assert_eq!(
            (wired.result.as_deref(), wired.cache.as_str()),
            (Ok("9"), "hit")
        );
        assert_eq!(pool.metrics().compiles.load(Ordering::Relaxed), 2);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn a_frame_nested_past_the_parser_limit_is_a_request_error() {
        let (addr, shutdown, handle) = start_server(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let mut client = NetClient::connect(&addr).unwrap();
        let hostile = "{".repeat(200_000);
        let reply = client.call(&hostile).unwrap();
        let err = reply.result.unwrap_err();
        assert!(err.starts_with("request error: "), "{err}");
        assert!(err.contains("nesting"), "{err}");
        let same = client.call(&line(INC, 1)).unwrap();
        assert_eq!(same.result.as_deref(), Ok("2"));
        let mut fresh = NetClient::connect(&addr).unwrap();
        assert_eq!(
            fresh.call(&line(INC, 2)).unwrap().result.as_deref(),
            Ok("3")
        );
        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }
}
