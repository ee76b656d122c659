//! The pool worker: a request executor over the process-wide artifact
//! store.
//!
//! Since the artifact types went `Send + Sync` (see
//! [`wolfram_compiler_core::CompiledArtifact`]), workers no longer own
//! private caches: every worker resolves requests against the shared
//! [`SharedArtifactCache`], whose compute tickets guarantee one compile
//! per program across the whole pool. What stays thread-local is the
//! *execution* state — the hosting interpreter, its abort signal, and a
//! bounded cache of per-worker [`CompiledCodeFunction`] instantiations
//! (machine/frame-pool reuse) that is revalidated against the shared
//! artifact by `Arc` pointer identity, so a republished (e.g. promoted)
//! artifact is picked up immediately.

use crate::cache::{Admission, Claim, Entry, SharedArtifactCache, Tier};
use crate::disk::{DiskCache, DiskOutcome};
use crate::key::CacheKey;
use crate::metrics::ServeMetrics;
use crate::pool::{CacheStatus, Job, ServeError, ServeReply, TierPolicy};
use crate::queue::BoundedQueue;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wolfram_bytecode::BytecodeCompiler;
use wolfram_compiler_core::{CompiledCodeFunction, Compiler, CompilerOptions};
use wolfram_expr::Expr;
use wolfram_interp::Interpreter;
use wolfram_runtime::{AbortSignal, RuntimeError, Value};

pub(crate) struct WorkerConfig {
    pub tier_policy: TierPolicy,
    /// The process-wide artifact store, shared by every worker.
    pub cache: Arc<SharedArtifactCache<SharedArtifact>>,
    /// The optional disk-backed second level.
    pub disk: Option<Arc<DiskCache>>,
    /// Bound on the per-worker instantiation cache.
    pub instance_cap: usize,
}

/// A compiled artifact as stored in the shared cache: `Send + Sync`,
/// cheap to clone (`Arc` bumps), execution-state-free.
#[derive(Clone)]
pub(crate) enum SharedArtifact {
    /// The optimizing tier's shareable handle.
    Native(wolfram_compiler_core::CompiledArtifact),
    /// The bytecode tier's (already immutable) compiled object.
    Bytecode(Arc<wolfram_bytecode::CompiledFunction>),
}

// The invariant the tentpole bought: what the cache shares must stay
// shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedArtifact>();
};

/// A worker-local, executable binding of a shared artifact.
enum LocalArtifact {
    Native(CompiledCodeFunction),
    Bytecode(Arc<wolfram_bytecode::CompiledFunction>),
}

struct Worker {
    cache: Arc<SharedArtifactCache<SharedArtifact>>,
    disk: Option<Arc<DiskCache>>,
    /// The hosting engine: kernel escapes, soft-failure fallback (§3 F2),
    /// and the abort signal shared with every hosted instantiation.
    engine: Rc<RefCell<Interpreter>>,
    signal: AbortSignal,
    /// Hosted instantiations of shared native artifacts, revalidated by
    /// `Arc::ptr_eq` on every hit (machine/frame-pool reuse).
    instances: HashMap<CacheKey, CompiledCodeFunction>,
    instance_cap: usize,
    /// One compiler per options fingerprint (macro/type environments are
    /// reusable across requests — the §4.7 extension points are
    /// per-options, not per-request).
    compilers: HashMap<u64, Compiler>,
    metrics: Arc<ServeMetrics>,
    tier_policy: TierPolicy,
}

/// A worker's share of the pool's queue. The last one to drop — the last
/// worker returning after shutdown, or unwinding — closes the queue and
/// drops what is still queued, so those waiters and every later submit
/// see `PoolClosed` instead of blocking forever.
pub(crate) struct QueueHold {
    pub jobs: Arc<BoundedQueue<Job>>,
    /// Workers still running.
    pub live: Arc<AtomicUsize>,
    pub metrics: Arc<ServeMetrics>,
}

impl Drop for QueueHold {
    fn drop(&mut self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.jobs.close();
            while self.jobs.pop().is_some() {
                self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

pub(crate) fn run(hold: QueueHold, cfg: WorkerConfig) {
    let engine = Rc::new(RefCell::new(Interpreter::new()));
    let signal = engine.borrow().abort_signal().clone();
    let mut worker = Worker {
        cache: cfg.cache,
        disk: cfg.disk,
        engine,
        signal,
        instances: HashMap::new(),
        instance_cap: cfg.instance_cap.max(1),
        compilers: HashMap::new(),
        metrics: Arc::clone(&hold.metrics),
        tier_policy: cfg.tier_policy,
    };
    while let Some(job) = hold.jobs.pop() {
        worker.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // Nobody can receive the reply of a dead connection's job: skip
        // the compile, the run and the render.
        if job.reply.is_abandoned() {
            worker.metrics.abandoned.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let mut reply = worker.serve_one(&job);
        reply.total_ns = elapsed_ns(job.submitted);
        worker.metrics.request_latency.record(reply.total_ns);
        // Leak accounting must survive the pool: move this thread's
        // memory counters into the process-wide totals after every
        // request (aborted runs included — the machine balances its
        // acquire/release bracket on unwind).
        wolfram_runtime::memory::flush_thread_stats();
        // For a wire request this renders the reply and, when it is the
        // connection's next, writes it (see `net`).
        job.reply.send(reply);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Worker {
    fn count_failure(&self, err: &ServeError) {
        let counter = match err {
            ServeError::DeadlineExceeded => &self.metrics.aborted,
            ServeError::Compile(_) => &self.metrics.compile_errors,
            _ => &self.metrics.runtime_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn fail(&self, err: ServeError) -> ServeReply {
        self.count_failure(&err);
        ServeReply::failed(err)
    }

    fn serve_one(&mut self, job: &Job) -> ServeReply {
        // A request can spend its whole budget queued; answer `Aborted`
        // without doing any work.
        if let Some(at) = job.deadline_at {
            if Instant::now() >= at {
                return self.fail(ServeError::DeadlineExceeded);
            }
        }
        let options = job.options.clone().unwrap_or_default();

        // The deadline is armed across compile + execute: the compiler
        // itself is not abortable, but a deadline firing mid-compile
        // still aborts the subsequent execution at its first check.
        let armed = job.deadline_at.map(|at| {
            self.signal
                .deadline(at.saturating_duration_since(Instant::now()))
        });

        let key = CacheKey::of(&job.func, &options);
        let (artifact, tier, compile_ns, cache_status) =
            match self.lookup_or_compile(key, &job.func, &options) {
                Ok(found) => found,
                Err(e) => {
                    drop(armed);
                    self.signal.reset();
                    return self.fail(e);
                }
            };

        let exec_start = Instant::now();
        let outcome = self.execute(&artifact, &job.args);
        let execute_ns = elapsed_ns(exec_start);
        self.metrics.execute_latency.record(execute_ns);

        // Soft numeric failures re-ran under the interpreter inside the
        // artifact (§3 F2); the engine's output log is how they announce
        // themselves.
        let warnings = self.engine.borrow_mut().take_output();
        let fell_back = warnings
            .iter()
            .any(|w| w.contains("reverting to uncompiled evaluation"));
        if fell_back {
            self.metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
        }

        drop(armed);
        self.signal.reset();

        let result = match outcome {
            Ok(rendered) => {
                self.metrics.ok.fetch_add(1, Ordering::Relaxed);
                Ok(rendered)
            }
            Err(RuntimeError::Aborted) => {
                self.metrics.aborted.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExceeded)
            }
            Err(e) => {
                self.metrics.runtime_errors.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Runtime(e.to_string()))
            }
        };
        ServeReply {
            result,
            tier: Some(tier),
            cache: cache_status,
            compile_ns,
            execute_ns,
            total_ns: 0, // stamped by the pool loop
            fell_back,
        }
    }

    /// Shared-cache claim, disk probe, compile-on-miss, and adaptive tier
    /// promotion. A `claim` may block while another worker compiles the
    /// same program — that wait IS the single-flight dedup.
    fn lookup_or_compile(
        &mut self,
        key: CacheKey,
        func: &Expr,
        options: &CompilerOptions,
    ) -> Result<(LocalArtifact, Tier, u64, CacheStatus), ServeError> {
        let ticket = match self.cache.claim(key) {
            Claim::Hit {
                artifact,
                tier,
                compile_ns,
                hits,
            } => {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                // Tier promotion: a hot bytecode entry graduates to
                // native, republished for every worker at once.
                if let TierPolicy::Adaptive { promote_after } = self.tier_policy {
                    if tier == Tier::Bytecode && hits >= promote_after {
                        if let Ok((native, ns)) = self.compile_native(func, options) {
                            self.metrics.promotions.fetch_add(1, Ordering::Relaxed);
                            self.record_compile(ns);
                            let shared = SharedArtifact::Native(native.artifact());
                            if self
                                .cache
                                .publish(
                                    key,
                                    Entry {
                                        artifact: shared,
                                        tier: Tier::Native,
                                        compile_ns: ns,
                                        hits: 0,
                                    },
                                )
                                .is_some()
                            {
                                self.metrics.cache_evictions.fetch_add(1, Ordering::Relaxed);
                            }
                            let local = self.adopt_native(key, native);
                            return Ok((local, Tier::Native, ns, CacheStatus::Hit));
                        }
                    }
                }
                return Ok((
                    self.localize(key, &artifact),
                    tier,
                    compile_ns,
                    CacheStatus::Hit,
                ));
            }
            Claim::Compute(ticket) => ticket,
        };
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Second level: the disk cache holds bytecode images, so it only
        // applies when the policy can serve the bytecode tier at all.
        if !matches!(self.tier_policy, TierPolicy::NativeOnly) {
            if let Some(disk) = self.disk.clone() {
                match disk.load(&key) {
                    DiskOutcome::Hit(cf) => {
                        self.metrics.disk_hits.fetch_add(1, Ordering::Relaxed);
                        let shared = SharedArtifact::Bytecode(Arc::new(cf));
                        let local = self.localize(key, &shared);
                        self.count_admission(ticket.fulfill(Entry {
                            artifact: shared,
                            tier: Tier::Bytecode,
                            compile_ns: 0,
                            hits: 0,
                        }));
                        return Ok((local, Tier::Bytecode, 0, CacheStatus::DiskHit));
                    }
                    DiskOutcome::Corrupt => {
                        // Unreadable entry: recompile below and overwrite
                        // it with a fresh store.
                        self.metrics.disk_corrupt.fetch_add(1, Ordering::Relaxed);
                    }
                    DiskOutcome::Miss => {}
                }
            }
        }

        // A compile error drops the ticket, releasing waiters to retry
        // (and fail with their own error — results stay deterministic).
        let (shared, local, tier, compile_ns) = self.compile(key, func, options)?;
        self.record_compile(compile_ns);
        if tier == Tier::Bytecode {
            if let (Some(disk), SharedArtifact::Bytecode(cf)) = (&self.disk, &shared) {
                if disk.store(&key, cf).is_ok() {
                    self.metrics.disk_stores.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.count_admission(ticket.fulfill(Entry {
            artifact: shared,
            tier,
            compile_ns,
            hits: 0,
        }));
        Ok((local, tier, compile_ns, CacheStatus::Miss))
    }

    fn count_admission(&self, admission: Admission) {
        let counter = match admission {
            Admission::Admitted => return,
            Admission::Evicted(_) => &self.metrics.cache_evictions,
            Admission::Refused => &self.metrics.cache_refused,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Binds a shared artifact to this worker for execution, reusing the
    /// local instantiation when it still points at the same program.
    fn localize(&mut self, key: CacheKey, shared: &SharedArtifact) -> LocalArtifact {
        match shared {
            SharedArtifact::Bytecode(cf) => LocalArtifact::Bytecode(Arc::clone(cf)),
            SharedArtifact::Native(art) => {
                if let Some(cf) = self.instances.get(&key) {
                    if Arc::ptr_eq(&cf.program, &art.program) {
                        return LocalArtifact::Native(cf.clone());
                    }
                }
                self.adopt_native(key, art.instantiate_hosted(self.engine.clone()))
            }
        }
    }

    /// Caches a hosted instantiation under `key` (bounded; wholesale
    /// clear on overflow — instantiation is two `Arc` bumps, so the
    /// refill cost is trivial).
    fn adopt_native(&mut self, key: CacheKey, cf: CompiledCodeFunction) -> LocalArtifact {
        if self.instances.len() >= self.instance_cap {
            self.instances.clear();
        }
        self.instances.insert(key, cf.clone());
        LocalArtifact::Native(cf)
    }

    fn record_compile(&self, ns: u64) {
        self.metrics.compiles.fetch_add(1, Ordering::Relaxed);
        self.metrics.compile_latency.record(ns);
    }

    /// Compiles `func` per the tier policy. Bytecode-tier failures
    /// (outside the legacy subset, limitation L1) fall through to the
    /// native pipeline.
    fn compile(
        &mut self,
        key: CacheKey,
        func: &Expr,
        options: &CompilerOptions,
    ) -> Result<(SharedArtifact, LocalArtifact, Tier, u64), ServeError> {
        if !matches!(self.tier_policy, TierPolicy::NativeOnly) {
            let start = Instant::now();
            if let Ok(cf) = BytecodeCompiler::new().compile_function(func) {
                let shared = Arc::new(cf);
                return Ok((
                    SharedArtifact::Bytecode(Arc::clone(&shared)),
                    LocalArtifact::Bytecode(shared),
                    Tier::Bytecode,
                    elapsed_ns(start),
                ));
            }
        }
        let (cf, ns) = self.compile_native(func, options)?;
        let shared = SharedArtifact::Native(cf.artifact());
        let local = self.adopt_native(key, cf);
        Ok((shared, local, Tier::Native, ns))
    }

    /// Runs the native pipeline, returning a hosted instantiation.
    fn compile_native(
        &mut self,
        func: &Expr,
        options: &CompilerOptions,
    ) -> Result<(CompiledCodeFunction, u64), ServeError> {
        let compiler = self
            .compilers
            .entry(options.fingerprint())
            .or_insert_with(|| Compiler::new(options.clone()));
        let start = Instant::now();
        let cf = compiler
            .function_compile(func)
            .map_err(|e| ServeError::Compile(e.to_string()))?;
        let ns = elapsed_ns(start);
        Ok((cf.hosted(self.engine.clone()), ns))
    }

    /// Runs the artifact and renders the result as `InputForm` text.
    fn execute(&self, artifact: &LocalArtifact, args: &[Expr]) -> Result<String, RuntimeError> {
        match artifact {
            LocalArtifact::Native(cf) => {
                let out = cf.call_exprs(args)?;
                Ok(out.to_input_form())
            }
            LocalArtifact::Bytecode(cf) => {
                let values: Vec<Value> = args.iter().map(Value::from_expr).collect();
                let out = cf.run_with_engine(&values, &mut self.engine.borrow_mut())?;
                Ok(out.to_expr().to_input_form())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PendingReply, ReplyTo};
    use std::sync::mpsc::{sync_channel, TrySendError};

    fn job() -> (Job, PendingReply) {
        let (tx, rx) = sync_channel(1);
        let job = Job {
            func: wolfram_expr::parse("Function[{}, 1]").unwrap(),
            args: Vec::new(),
            options: None,
            submitted: Instant::now(),
            deadline_at: None,
            reply: ReplyTo::new(move |reply| {
                let _ = tx.send(reply);
            }),
        };
        (job, PendingReply { rx })
    }

    #[test]
    fn last_worker_out_closes_the_queue_and_fails_what_is_queued() {
        let jobs = Arc::new(BoundedQueue::new(4));
        let live = Arc::new(AtomicUsize::new(2));
        let metrics = Arc::new(ServeMetrics::new());
        let hold = || QueueHold {
            jobs: Arc::clone(&jobs),
            live: Arc::clone(&live),
            metrics: Arc::clone(&metrics),
        };
        let (first, second) = (hold(), hold());
        let (queued, waiter) = job();
        metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        assert!(jobs.try_push(queued).is_ok());

        drop(first);
        assert_eq!(jobs.len(), 1, "a worker is left: the job stays queued");

        // The last worker dies mid-request.
        let died = std::thread::spawn(move || {
            let _hold = second;
            panic!("worker unwinds");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(
            waiter.wait().result,
            Err(ServeError::PoolClosed),
            "the waiter is released"
        );
        assert!(matches!(
            jobs.try_push(job().0),
            Err(TrySendError::Disconnected(_))
        ));
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);
    }
}
