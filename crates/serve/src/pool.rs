//! The worker pool: admission and the request/reply surface.
//!
//! Requests are admitted into one bounded [`BoundedQueue`] that every
//! worker drains, so any idle worker takes the next request and a hot
//! program runs on all of them; the shared artifact cache, not the
//! queue, is what makes one program compile once. Backpressure is
//! explicit: a full queue rejects with [`ServeError::Overloaded`] rather
//! than queueing unboundedly — the client decides whether to retry,
//! shed, or slow down.

use crate::cache::{SharedArtifactCache, Tier};
use crate::disk::DiskCache;
use crate::metrics::ServeMetrics;
use crate::queue::BoundedQueue;
use crate::worker;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wolfram_compiler_core::CompilerOptions;
use wolfram_expr::{parse, Expr};

/// Which tier(s) the pool compiles to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Always compile with the optimizing pipeline (the default).
    NativeOnly,
    /// Compile with the fast legacy bytecode compiler; programs outside
    /// its subset (limitation L1) still get the native pipeline.
    BytecodeOnly,
    /// Start on the bytecode tier, recompile natively once an entry has
    /// served `promote_after` cache hits — the baseline-compiler tiering
    /// argument (Titzer) applied to our two compiler generations.
    Adaptive {
        /// Cache hits an entry must serve before native promotion.
        promote_after: u64,
    },
}

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, all draining the pool's one queue (and the
    /// shared store's lock-shard count). Must be ≥ 1.
    pub workers: usize,
    /// Bound on the pool's one queue of admitted, not yet started
    /// requests; a full queue rejects with [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Artifact-cache entries per lock shard of the shared store (the
    /// store has one shard per worker, so total capacity is
    /// `workers * cache_cap`); 0 disables caching (every request
    /// recompiles — the bench baseline).
    pub cache_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Tier selection policy.
    pub tier_policy: TierPolicy,
    /// Directory for the disk-backed second cache level; `None` keeps
    /// the cache purely in-memory. An unusable directory disables the
    /// disk level with a warning (the server must keep answering).
    pub disk_cache_dir: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 256,
            cache_cap: 512,
            default_deadline: None,
            tier_policy: TierPolicy::NativeOnly,
            disk_cache_dir: None,
        }
    }
}

/// A compile-and-evaluate request: a program and its arguments, as text
/// or already parsed. A request crosses to a worker parsed —
/// [`ServePool::submit`] parses text on the caller's thread and the wire
/// reader parses each frame once — so the worker never parses (see the
/// crate-level Send/Sync audit).
#[derive(Debug, Clone)]
pub struct ServeRequest {
    program: Program,
    /// Compiler options; `None` uses [`CompilerOptions::default`]. Part
    /// of the cache key — same source under different options is a
    /// different artifact.
    pub options: Option<CompilerOptions>,
    /// Wall-clock budget measured from submission (parse and queue wait
    /// included); `None` uses the pool's default.
    pub deadline: Option<Duration>,
}

#[derive(Debug, Clone)]
enum Program {
    /// `Function[...]` source text and one `InputForm` string per argument.
    Text { source: String, args: Vec<String> },
    /// The parsed `Function[...]` and its arguments.
    Parsed { func: Expr, args: Vec<Expr> },
}

impl Program {
    fn parse(self) -> Result<(Expr, Vec<Expr>), ServeError> {
        match self {
            Program::Parsed { func, args } => Ok((func, args)),
            Program::Text { source, args } => {
                let func = parse(&source).map_err(|e| ServeError::Parse(e.to_string()))?;
                let args = args
                    .iter()
                    .map(|a| {
                        parse(a).map_err(|e| ServeError::Parse(format!("argument {a:?}: {e}")))
                    })
                    .collect::<Result<_, _>>()?;
                Ok((func, args))
            }
        }
    }
}

impl ServeRequest {
    /// A request with default options and deadline.
    pub fn new(
        source: impl Into<String>,
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ServeRequest {
            program: Program::Text {
                source: source.into(),
                args: args.into_iter().map(Into::into).collect(),
            },
            options: None,
            deadline: None,
        }
    }

    /// A request over an already parsed `Function[...]` and its
    /// arguments, with default options and deadline.
    pub(crate) fn parsed(func: Expr, args: Vec<Expr>) -> Self {
        ServeRequest {
            program: Program::Parsed { func, args },
            options: None,
            deadline: None,
        }
    }

    /// Sets explicit compiler options.
    #[must_use]
    pub fn with_options(mut self, options: CompilerOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Sets a per-request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Where the artifact for a request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a resident artifact.
    Hit,
    /// Loaded from the disk cache (no compile ran — the warm-restart
    /// path).
    DiskHit,
    /// Compiled on this request.
    Miss,
    /// The request failed before the cache was consulted (parse error,
    /// expired deadline, rejection).
    Unreached,
}

/// The token the wire protocol and the stdin service print for it.
impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheStatus::Hit => "hit",
            CacheStatus::DiskHit => "disk",
            CacheStatus::Miss => "miss",
            CacheStatus::Unreached => "-",
        })
    }
}

/// A request failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The pool's queue was full at admission.
    Overloaded,
    /// The deadline expired (in queue, or mid-execution via the abort
    /// signal).
    DeadlineExceeded,
    /// The program or an argument failed to parse.
    Parse(String),
    /// The program failed to compile.
    Compile(String),
    /// Execution failed (other than aborts).
    Runtime(String),
    /// The pool shut down before the request completed.
    PoolClosed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "Overloaded: queue full"),
            ServeError::DeadlineExceeded => write!(f, "Aborted: deadline exceeded"),
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::Compile(e) => write!(f, "compile error: {e}"),
            ServeError::Runtime(e) => write!(f, "runtime error: {e}"),
            ServeError::PoolClosed => write!(f, "pool closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The reply for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReply {
    /// The result rendered in `InputForm`, or the failure.
    pub result: Result<String, ServeError>,
    /// Tier of the artifact that served the request.
    pub tier: Option<Tier>,
    /// Whether the artifact was cached.
    pub cache: CacheStatus,
    /// Nanoseconds spent compiling. On a hit this is the *saved* cost:
    /// what the resident artifact cost to compile when it was built.
    pub compile_ns: u64,
    /// Nanoseconds spent executing.
    pub execute_ns: u64,
    /// End-to-end nanoseconds from submission to reply.
    pub total_ns: u64,
    /// Whether a soft numeric failure re-ran under the interpreter (§3
    /// F2 — the answer is still correct, just slow).
    pub fell_back: bool,
}

impl ServeReply {
    pub(crate) fn failed(err: ServeError) -> ServeReply {
        ServeReply {
            result: Err(err),
            tier: None,
            cache: CacheStatus::Unreached,
            compile_ns: 0,
            execute_ns: 0,
            total_ns: 0,
            fell_back: false,
        }
    }
}

/// One queued request (crate-internal).
pub(crate) struct Job {
    pub func: Expr,
    pub args: Vec<Expr>,
    pub options: Option<CompilerOptions>,
    pub submitted: Instant,
    pub deadline_at: Option<Instant>,
    pub reply: ReplyTo,
}

/// Where a job's reply goes: a [`PendingReply`]'s channel, or a
/// connection's reply slot. Dropped unsent — the queue closed with the job
/// in it, or its worker unwound — it delivers [`ServeError::PoolClosed`],
/// so no waiter and no connection is left hanging.
pub(crate) struct ReplyTo {
    deliver: Option<Box<dyn FnOnce(ServeReply) + Send>>,
    /// Whether nobody can receive the reply any more.
    abandoned: Option<Box<dyn Fn() -> bool + Send>>,
}

impl ReplyTo {
    pub fn new(deliver: impl FnOnce(ServeReply) + Send + 'static) -> Self {
        ReplyTo {
            deliver: Some(Box::new(deliver)),
            abandoned: None,
        }
    }

    /// Lets the worker ask `abandoned` before serving the job.
    #[must_use]
    pub fn abandoned_when(mut self, abandoned: impl Fn() -> bool + Send + 'static) -> Self {
        self.abandoned = Some(Box::new(abandoned));
        self
    }

    pub fn is_abandoned(&self) -> bool {
        self.abandoned.as_ref().is_some_and(|dead| dead())
    }

    pub fn send(mut self, reply: ServeReply) {
        if let Some(deliver) = self.deliver.take() {
            deliver(reply);
        }
    }

    /// Drops the handle without a reply: the caller reports the failure.
    fn disarm(mut self) {
        self.deliver = None;
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(deliver) = self.deliver.take() {
            deliver(ServeReply::failed(ServeError::PoolClosed));
        }
    }
}

/// An in-flight request; [`PendingReply::wait`] blocks for the reply.
pub struct PendingReply {
    pub(crate) rx: Receiver<ServeReply>,
}

impl PendingReply {
    /// Blocks until the worker replies.
    pub fn wait(self) -> ServeReply {
        self.rx
            .recv()
            .unwrap_or_else(|_| ServeReply::failed(ServeError::PoolClosed))
    }
}

/// The serving pool. Dropping it shuts the workers down (in-flight
/// requests finish; queued requests are drained and answered).
///
/// When the last worker exits — at shutdown, or by unwinding — it closes
/// the queue and drops what is still queued: their waiters and every
/// later submit get [`ServeError::PoolClosed`] rather than blocking.
pub struct ServePool {
    pub(crate) jobs: Arc<BoundedQueue<Job>>,
    pub(crate) metrics: Arc<ServeMetrics>,
    cache: Arc<SharedArtifactCache<worker::SharedArtifact>>,
    default_deadline: Option<Duration>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ServePool {
    /// Starts `config.workers` worker threads over one queue.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`.
    pub fn start(config: ServeConfig) -> ServePool {
        assert!(config.workers > 0, "ServeConfig.workers must be >= 1");
        let metrics = Arc::new(ServeMetrics::new());
        // One shared store for the whole pool: one lock shard per worker
        // keeps total capacity = workers * cache_cap, matching the old
        // per-worker-cache semantics while letting every worker see
        // every artifact.
        let cache = SharedArtifactCache::new(config.workers, config.cache_cap);
        let disk = config.disk_cache_dir.as_ref().and_then(|dir| {
            match DiskCache::open(dir) {
                Ok(d) => Some(Arc::new(d)),
                Err(e) => {
                    // Serving beats warm restarts: run memory-only.
                    eprintln!(
                        "wolfram-serve: disk cache at {} unusable ({e}); continuing without it",
                        dir.display()
                    );
                    None
                }
            }
        });
        let jobs = Arc::new(BoundedQueue::new(config.queue_cap));
        let live = Arc::new(AtomicUsize::new(config.workers));
        let mut handles = Vec::with_capacity(config.workers);
        for id in 0..config.workers {
            let hold = worker::QueueHold {
                jobs: Arc::clone(&jobs),
                live: Arc::clone(&live),
                metrics: Arc::clone(&metrics),
            };
            let worker_cfg = worker::WorkerConfig {
                tier_policy: config.tier_policy,
                cache: Arc::clone(&cache),
                disk: disk.clone(),
                // Local instantiations are per-worker; bound them by the
                // worker's fair share of the store (>= 16 so tiny caches
                // still reuse machines).
                instance_cap: config.cache_cap.max(16),
            };
            let handle = std::thread::Builder::new()
                .name(format!("wolfram-serve-{id}"))
                .spawn(move || worker::run(hold, worker_cfg))
                .expect("spawn serve worker");
            handles.push(handle);
        }
        ServePool {
            jobs,
            metrics,
            cache,
            default_deadline: config.default_deadline,
            handles,
        }
    }

    /// The pool's shared metrics block.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Artifacts resident in the shared in-memory store (all workers see
    /// the same count — there is one store).
    pub fn resident_artifacts(&self) -> usize {
        self.cache.len()
    }

    /// Number of worker threads started.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits a request without blocking on execution. A text request
    /// is parsed here, on the caller's thread, and its reply's `total_ns`
    /// and its deadline count from before the parse.
    ///
    /// # Errors
    ///
    /// [`ServeError::Parse`] when the program or an argument does not
    /// parse; [`ServeError::Overloaded`] when the queue is full;
    /// [`ServeError::PoolClosed`] if the pool is shutting down or every
    /// worker has exited.
    pub fn submit(&self, req: ServeRequest) -> Result<PendingReply, ServeError> {
        let (tx, rx) = sync_channel(1);
        self.enqueue(
            req,
            ReplyTo::new(move |reply| {
                // A dropped receiver means the client gave up.
                let _ = tx.send(reply);
            }),
        )?;
        Ok(PendingReply { rx })
    }

    /// Parses `req` and queues it with `reply` as its destination. On an
    /// error nothing is sent to `reply`: the caller reports the error.
    pub(crate) fn enqueue(&self, req: ServeRequest, reply: ReplyTo) -> Result<(), ServeError> {
        let submitted = Instant::now();
        let deadline_at = req
            .deadline
            .or(self.default_deadline)
            .map(|d| submitted + d);
        let (func, args) = match req.program.parse() {
            Ok(parsed) => parsed,
            Err(e) => {
                self.metrics.compile_errors.fetch_add(1, Ordering::Relaxed);
                reply.disarm();
                return Err(e);
            }
        };
        let job = Job {
            func,
            args,
            options: req.options,
            submitted,
            deadline_at,
            reply,
        };
        // Count the depth before pushing so the worker's decrement can
        // never observe the queue below zero.
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        match self.jobs.try_push(job) {
            Ok(()) => {
                self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
                let depth = self.metrics.queue_depth.load(Ordering::Relaxed);
                self.metrics
                    .queue_depth_max
                    .fetch_max(depth, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                match e {
                    TrySendError::Full(job) => {
                        job.reply.disarm();
                        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Overloaded)
                    }
                    TrySendError::Disconnected(job) => {
                        job.reply.disarm();
                        Err(ServeError::PoolClosed)
                    }
                }
            }
        }
    }

    /// Submits and waits: the closed-loop client call. Admission failures
    /// come back as a failed [`ServeReply`].
    pub fn call(&self, req: ServeRequest) -> ServeReply {
        match self.submit(req) {
            Ok(pending) => pending.wait(),
            Err(e) => ServeReply::failed(e),
        }
    }

    /// Shuts the pool down, joining every worker.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        // Workers drain and answer what is queued, then exit.
        self.jobs.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
