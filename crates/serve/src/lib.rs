//! `wolfram-serve`: a concurrent compile-and-evaluate service over the
//! compiler tiers.
//!
//! The paper's compiler is invoked interactively — one `FunctionCompile`
//! per kernel call. A production serving story (the ROADMAP north star)
//! instead amortizes compilation across requests, across workers, and
//! across process restarts, and bounds evaluation:
//!
//! - **Shared two-level compile cache** ([`cache`] and [`disk`], keyed by
//!   [`key`]): artifacts are identified by a hash of the canonicalized
//!   MExpr plus the [`CompilerOptions::fingerprint`]. Level 1 is one
//!   process-wide [`SharedArtifactCache`] — a sharded-lock map of
//!   `Send + Sync` artifacts, so a program compiled once serves *every*
//!   worker, behind a frequency admission filter so that a program seen
//!   once does not evict a hot one. Level 2 is an optional [`DiskCache`]
//!   of checksummed, versioned bytecode images, so a restarted server
//!   starts warm.
//! - **Single-flight compilation** ([`cache::Claim`]): N concurrent
//!   requests for one uncached program produce one [`cache::ComputeTicket`]
//!   and N−1 condvar waiters; exactly one compile runs, and a failed or
//!   abandoned compile releases the waiters to retry rather than wedging
//!   them.
//! - **Worker pool with bounded admission** ([`pool`], [`queue`]): every
//!   worker drains one bounded queue, so any idle worker takes the next
//!   request; overflow is an explicit [`ServeError::Overloaded`]
//!   rejection, never an unbounded backlog.
//! - **Wire protocol** ([`net`]): `u32`-length-prefixed UTF-8 frames over
//!   TCP, one thread per connection, with in-order replies written by the
//!   thread that completes them and a per-client pipelining cap as the
//!   fairness layer on top of pool shedding.
//! - **Deadlines**: every request's remaining budget is armed through
//!   [`wolfram_runtime::AbortSignal::deadline`] on the process's one timer
//!   thread, which triggers the worker's abort signal; compiled code
//!   observes it at loop headers and prologues (§4.5) and unwinds as
//!   `Aborted` without poisoning the worker.
//! - **Metrics** ([`metrics`]): request/outcome counters, cache and disk
//!   hit counters, queue depth, and compile/execute/request latency
//!   histograms, served machine-readably over the wire as `!stats`.
//!
//! # Send/Sync audit (what crosses threads, and what never does)
//!
//! The shared level-1 cache only works because compiled artifacts are
//! `Send + Sync` by construction: a
//! [`wolfram_compiler_core::CompiledArtifact`] holds `Arc<ProgramModule>`
//! and `Arc<NativeProgram>` (whose `RegOp` streams embed constant
//! [`wolfram_runtime::Value`]s — themselves `Arc`-based, including
//! interned strings, big integers, copy-on-write tensors, and the MExpr
//! form), and the bytecode tier's `CompiledFunction` is a plain data
//! image. `tests/send_audit.rs` asserts all of this positively at compile
//! time.
//!
//! What stays thread-confined is *execution state*: a
//! [`wolfram_compiler_core::CompiledCodeFunction`] wraps an artifact
//! together with its abort signal, its register machine, and an optional
//! `Rc<RefCell<Interpreter>>` hosting engine for eval-escapes. Workers
//! therefore share artifacts but instantiate per-worker execution handles
//! ([`wolfram_compiler_core::CompiledArtifact::instantiate`]). A request
//! crosses to its worker parsed: the program and its arguments are
//! [`wolfram_expr::Expr`]s, `Arc`-based and `Send + Sync`, parsed once on
//! the thread that received the request (the caller of
//! [`ServePool::submit`], or the connection's reader), and `Value`s are
//! made from them on the worker. Results come back as rendered text. If
//! this ever compiles, an interpreter handle has leaked across threads
//! and the design needs a re-audit:
//!
//! ```compile_fail
//! fn assert_send<T: Send>() {}
//! assert_send::<wolfram_compiler_core::CompiledCodeFunction>();
//! ```
//!
//! # Quickstart
//!
//! ```
//! use wolfram_serve::{ServeConfig, ServePool, ServeRequest};
//!
//! let pool = ServePool::start(ServeConfig {
//!     workers: 2,
//!     ..ServeConfig::default()
//! });
//! let req = ServeRequest::new(
//!     "Function[{Typed[n, \"MachineInteger\"]}, n + 1]",
//!     ["41"],
//! );
//! let reply = pool.call(req.clone());
//! assert_eq!(reply.result.as_deref(), Ok("42"));
//! // Same program again: served from the shared artifact cache.
//! let again = pool.call(req);
//! assert_eq!(again.cache, wolfram_serve::CacheStatus::Hit);
//! assert!(pool.metrics().hit_rate() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod disk;
pub mod key;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod queue;
mod worker;

pub use cache::{
    Admission, ArtifactCache, CacheCounters, Claim, ComputeTicket, Entry, SharedArtifactCache, Tier,
};
pub use disk::{DiskCache, DiskOutcome};
pub use key::CacheKey;
pub use metrics::{fmt_ns, Histogram, ServeMetrics};
pub use net::{serve_listener, NetClient, NetConfig, NetReply, StreamHandler, StreamSession};
pub use pool::{
    CacheStatus, PendingReply, ServeConfig, ServeError, ServePool, ServeReply, ServeRequest,
    TierPolicy,
};
pub use queue::BoundedQueue;

// Re-exported so callers configuring requests need only this crate.
pub use wolfram_compiler_core::CompilerOptions;
