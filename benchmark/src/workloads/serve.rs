//! `serve_warm` and `serve_mixed`: a closed loop of two connections over
//! loopback TCP to an in-process `serve_listener` with one pool worker,
//! pipeline depth 1. The callers are programs that block on the reply, as
//! `NetClient::call` does, so a slow server receives less load.

use super::{memory_balanced, seeded};
use crate::harness::{ns_per_call, Ctx, Layers, Recorder, Workload};
use crate::spec;
use crate::stats::{self, fnv1a, FNV_OFFSET};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wolfram_bench::serve_load::{Catalog, Zipf};
use wolfram_serve::net::{parse_request_line, read_frame, write_frame};
use wolfram_serve::{
    serve_listener, CacheKey, CacheStatus, CompilerOptions, DiskCache, DiskOutcome, NetClient,
    NetConfig, ServeConfig, ServePool, ServeRequest, TierPolicy,
};

/// Programs every request mix draws from, by Zipf rank.
const CATALOG: usize = 64;
/// Catalog entries past `CATALOG`, each sent at most once: the never-seen
/// programs of `serve_mixed`. Far more than a run can use up.
const FRESH: usize = 1 << 16;
/// The argument every program is evaluated at.
const ARG: i64 = 64;
const CONNECTIONS: usize = 2;
const ZIPF_S: f64 = 1.1;
/// Share of `serve_mixed` requests that carry a never-seen program.
const FRESH_SHARE: f64 = 0.10;

/// One request's outcome as a client saw it.
struct Seen {
    sent: Instant,
    done: Instant,
    ok: bool,
    miss: bool,
    compile_ns: u64,
    execute_ns: u64,
}

pub struct Serve<const MIXED: bool> {
    pool: Arc<ServePool>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    clients: Vec<NetClient>,
    catalog: Catalog,
    /// The wire line of every catalog entry.
    lines: Vec<String>,
    zipf: Zipf,
    rng: StdRng,
    /// Next unused fresh program.
    fresh: usize,
    /// Distinct programs sent so far.
    distinct: Vec<bool>,
    requests_per_round: usize,
    /// Reference to corrupt (`--inject-fault`).
    fault_rank: Option<usize>,
}

impl<const MIXED: bool> Serve<MIXED> {
    fn expected(&self, rank: usize) -> &str {
        if self.fault_rank == Some(rank) {
            "-1"
        } else {
            self.catalog.expected(rank)
        }
    }

    /// The ranks of one round, one list per connection.
    fn draw(&mut self) -> Vec<Vec<usize>> {
        let per_conn = self.requests_per_round / CONNECTIONS;
        (0..CONNECTIONS)
            .map(|_| {
                (0..per_conn)
                    .map(|_| {
                        let rank = if MIXED && self.rng.gen_bool(FRESH_SHARE) {
                            self.fresh = (self.fresh + 1) % FRESH;
                            CATALOG + self.fresh
                        } else {
                            self.zipf.sample(&mut self.rng)
                        };
                        self.distinct[rank] = true;
                        rank
                    })
                    .collect()
            })
            .collect()
    }

    /// Sends `ranks` over the wire, every connection in its own thread,
    /// each blocking on every reply. Returns the wall time and what each
    /// request saw.
    fn over_the_wire(&mut self, ranks: &[Vec<usize>]) -> (Duration, Vec<Seen>) {
        let mut clients = std::mem::take(&mut self.clients);
        let (lines, this) = (&self.lines, &*self);
        let expected: Vec<Vec<&str>> = ranks
            .iter()
            .map(|rs| rs.iter().map(|&r| this.expected(r)).collect())
            .collect();
        let t = Instant::now();
        let seen = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(ranks)
                .zip(&expected)
                .map(|((conn, rs), want)| {
                    s.spawn(move || {
                        let mut seen = Vec::with_capacity(rs.len());
                        for (&rank, want) in rs.iter().zip(want) {
                            let sent = Instant::now();
                            let reply = conn.call(&lines[rank]).ok();
                            let done = Instant::now();
                            // A broken connection counts as a failed request.
                            let reply = reply.as_ref();
                            seen.push(Seen {
                                sent,
                                done,
                                ok: reply.is_some_and(|r| r.result.as_deref() == Ok(*want)),
                                miss: reply.is_some_and(|r| r.cache == "miss"),
                                compile_ns: reply.map_or(0, |r| r.compile_ns),
                                execute_ns: reply.map_or(0, |r| r.execute_ns),
                            });
                        }
                        seen
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a client thread does not panic"))
                .collect::<Vec<Seen>>()
        });
        let wall = t.elapsed();
        self.clients = clients;
        (wall, seen)
    }

    /// The same mix through `ServePool::call`, no sockets.
    fn in_process(&self, ranks: &[Vec<usize>]) -> InProcess {
        let arg = ARG.to_string();
        let t = Instant::now();
        let per_conn: Vec<Vec<PoolReply>> = std::thread::scope(|s| {
            let handles: Vec<_> = ranks
                .iter()
                .map(|rs| {
                    let (pool, catalog, arg) = (&self.pool, &self.catalog, &arg);
                    s.spawn(move || {
                        rs.iter()
                            .map(|&rank| {
                                let req = ServeRequest::new(catalog.source(rank), [arg.as_str()]);
                                let sent = Instant::now();
                                let r = pool.call(req);
                                PoolReply {
                                    us: sent.elapsed().as_secs_f64() * 1e6,
                                    ok: r.result.as_deref() == Ok(catalog.expected(rank)),
                                    miss: r.cache == CacheStatus::Miss,
                                    compile_ns: r.compile_ns,
                                    execute_ns: r.execute_ns,
                                    total_ns: r.total_ns,
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("an in-process client does not panic"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        let replies: Vec<PoolReply> = per_conn.into_iter().flatten().collect();
        InProcess {
            ops_per_s: replies.len() as f64 / wall,
            replies,
        }
    }
}

/// One reply of `ServePool::call`, with its own breakdown.
struct PoolReply {
    us: f64,
    ok: bool,
    miss: bool,
    compile_ns: u64,
    execute_ns: u64,
    total_ns: u64,
}

/// What the pool alone made of a request mix.
struct InProcess {
    ops_per_s: f64,
    replies: Vec<PoolReply>,
}

impl<const MIXED: bool> Workload for Serve<MIXED> {
    const NAME: &'static str = if MIXED {
        spec::SERVE_MIXED
    } else {
        spec::SERVE_WARM
    };

    fn setup(ctx: &mut Ctx) -> Self {
        let catalog = Catalog::new(CATALOG + FRESH, ARG);
        let lines: Vec<String> = (0..catalog.len())
            .map(|r| format!("{{{}, {{{ARG}}}}}", catalog.source(r)))
            .collect();
        let pool = Arc::new(ServePool::start(ServeConfig {
            workers: 1,
            // serve_warm holds the whole catalog; serve_mixed holds half
            // of it, so inserts evict.
            cache_cap: if MIXED { CATALOG / 2 } else { CATALOG * 8 },
            tier_policy: TierPolicy::NativeOnly,
            disk_cache_dir: None,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (pool, shutdown) = (Arc::clone(&pool), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                serve_listener(listener, &pool, &shutdown, &NetConfig::default())
                    .expect("the accept loop runs until shutdown");
            })
        };
        let clients = (0..CONNECTIONS)
            .map(|_| NetClient::connect(&addr).expect("connects to the in-process server"))
            .collect();
        let mut w = Serve {
            pool,
            shutdown,
            acceptor: Some(acceptor),
            clients,
            zipf: Zipf::new(CATALOG, ZIPF_S),
            rng: seeded(ctx.seed, 0x5E),
            fresh: 0,
            // The warm-up pass sends the whole catalog.
            distinct: (0..catalog.len()).map(|r| r < CATALOG).collect(),
            catalog,
            lines,
            requests_per_round: if MIXED {
                ctx.scale(4_000, 300)
            } else {
                ctx.scale(8_000, 400)
            },
            fault_rank: ctx.fault.then_some(0),
        };
        // Warm-up: every catalog program once over the wire, coldest
        // first, so the hottest are resident when the cache is small.
        let warm: Vec<usize> = (0..CATALOG).rev().collect();
        let (_, seen) = w.over_the_wire(&[warm, Vec::new()]);
        assert!(
            seen.iter().filter(|s| !s.ok).count() <= usize::from(ctx.fault),
            "the warm-up pass is answered correctly"
        );
        // Then one unrecorded round of the workload's own mix.
        let ranks = w.draw();
        w.over_the_wire(&ranks);
        w
    }

    fn programs(&self) -> usize {
        1
    }

    fn fingerprint(&self) -> u64 {
        let mut rng = self.rng.clone();
        let h = (0..CATALOG).fold(FNV_OFFSET, |h, r| fnv1a(h, self.lines[r].as_bytes()));
        // The head of the request sequence this seed draws.
        (0..256).fold(h, |h, _| {
            fnv1a(h, &self.zipf.sample(&mut rng).to_le_bytes())
        })
    }

    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder) {
        let ranks = self.draw();
        let (wall, seen) = self.over_the_wire(&ranks);
        rec.timed(wall);
        for s in &seen {
            rec.sample(0, (s.done - s.sent).as_secs_f64() * 1e6);
            rec.count(u64::from(s.ok), u64::from(!s.ok));
        }
        if ctx.tracer.enabled() {
            // A request's child spans are the reply's own compile_ns and
            // execute_ns; its self time is wire, queue, parse and render.
            for s in &seen {
                let op = ctx.next_op();
                let id = ctx.tracer.add("serve.request", op, s.sent, s.done);
                let mut cursor = 0;
                if s.miss {
                    ctx.tracer
                        .child(id, "serve.compile", op, &mut cursor, s.compile_ns);
                }
                ctx.tracer
                    .child(id, "serve.execute", op, &mut cursor, s.execute_ns);
            }
        }
    }

    fn layers(&mut self, ctx: &mut Ctx, untraced: &Recorder, _budget: Duration, out: &mut Layers) {
        const REPS: usize = 9;
        out.set("serve.op_p99_us", untraced.p99_us().value);

        // The pool without the wire, on a fresh draw of the same mix.
        let ranks = self.draw();
        let pool = self.in_process(&ranks);
        out.fail(pool.replies.iter().filter(|r| !r.ok).count() as u64);
        let median_of = |pick: &dyn Fn(&PoolReply) -> Option<f64>| {
            let picked: Vec<f64> = pool.replies.iter().filter_map(pick).collect();
            if picked.is_empty() {
                0.0
            } else {
                stats::median(&picked)
            }
        };
        out.set(
            "serve.net.overhead_us",
            untraced.p50_us().value - median_of(&|r| Some(r.us)),
        );
        out.set("serve.pool_ops_per_s", pool.ops_per_s);
        // On a hit, everything but execution: queue, cache, parse, render.
        out.set(
            "serve.pool.overhead_us",
            median_of(&|r| (!r.miss).then(|| r.total_ns.saturating_sub(r.execute_ns) as f64 / 1e3)),
        );
        out.set(
            "serve.execute_us",
            median_of(&|r| Some(r.execute_ns as f64 / 1e3)),
        );
        if MIXED {
            out.set(
                "serve.compile_us",
                median_of(&|r| r.miss.then_some(r.compile_ns as f64 / 1e3)),
            );
        }

        // Counters of the whole run, from the pool's own metrics block.
        let snapshot = self.pool.metrics().snapshot();
        let counter = |name: &str| -> f64 {
            snapshot
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v as f64)
        };
        out.set("serve.cache.hit_share", self.pool.metrics().hit_rate());
        out.set("serve.rejected", counter("rejected"));
        out.set("serve.fallbacks", counter("fallbacks"));
        if MIXED {
            out.set("serve.cache.evictions", counter("cache_evictions"));
            let distinct = self.distinct.iter().filter(|d| **d).count();
            out.set(
                "serve.compiles_per_distinct",
                counter("compiles") / distinct as f64,
            );
        }

        // The wire and key layers alone, on one catalog request.
        let line = &self.lines[0];
        let mut wire = Vec::with_capacity(line.len() + 4);
        out.set(
            "serve.net.frame_ns",
            ns_per_call(REPS, 20_000, |_| {
                wire.clear();
                write_frame(&mut wire, line.as_bytes()).expect("writes to memory");
                let frame = read_frame(&mut &wire[..], 1 << 20).expect("reads from memory");
                std::hint::black_box(frame);
            }),
        );
        out.set(
            "serve.net.parse_request_ns",
            ns_per_call(REPS, 2_000, |_| {
                std::hint::black_box(parse_request_line(std::hint::black_box(line)))
                    .expect("a request line parses");
            }),
        );
        let program = wolfram_expr::parse(self.catalog.source(0)).expect("parses");
        let options = CompilerOptions::default();
        out.set(
            "serve.key.hash_ns",
            ns_per_call(REPS, 2_000, |_| {
                std::hint::black_box(CacheKey::of(std::hint::black_box(&program), &options));
            }),
        );

        // The disk level, which both workloads leave off: one artifact
        // stored and loaded in a scratch directory of the checkout.
        let dir = ctx.out_dir.join(format!("disk-{}", std::process::id()));
        let disk = DiskCache::open(&dir).expect("a scratch directory under the out dir");
        let specs = wolfram_bytecode::ArgSpec::from_function(&program).expect("arg specs");
        let image = wolfram_bytecode::BytecodeCompiler::new()
            .compile(&specs, &program.args()[1])
            .expect("catalog programs are in the bytecode subset");
        let key = CacheKey::of(&program, &options);
        let mut store = Vec::new();
        let mut load = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            disk.store(&key, &image).expect("stores the artifact");
            store.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let loaded = disk.load(&key);
            load.push(t.elapsed().as_secs_f64() * 1e6);
            if !matches!(loaded, DiskOutcome::Hit(_)) {
                out.fail(1);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        out.set("serve.disk.store_us", stats::median(&store));
        out.set("serve.disk.load_us", stats::median(&load));
    }

    fn finish(self, _ctx: &mut Ctx) -> u64 {
        // Dropping the state closes the clients and stops the accept loop.
        // The connection threads, which hold the pool alive, notice the
        // closed sockets within moments; the last reference to the pool
        // joins its worker, whose counters can then be judged.
        let mut pool = Arc::clone(&self.pool);
        drop(self);
        for _ in 0..200 {
            match Arc::try_unwrap(pool) {
                Ok(p) => {
                    p.shutdown();
                    return u64::from(!memory_balanced());
                }
                Err(shared) => {
                    pool = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        // A connection thread is still up after a second: a failed check.
        1
    }
}

impl<const MIXED: bool> Drop for Serve<MIXED> {
    /// Set-up is repeated, so a dropped state must stop its accept loop.
    fn drop(&mut self) {
        self.clients.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}
