//! Pool-behavior integration tests: deadlines abort without poisoning
//! the worker, admission rejects with `Overloaded` under backpressure,
//! soft numeric failures fall back per §3, and the adaptive tier policy
//! promotes hot entries.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use wolfram_serve::{
    CacheStatus, ServeConfig, ServeError, ServePool, ServeRequest, Tier, TierPolicy,
};

const INC: &str = "Function[{Typed[n, \"MachineInteger\"]}, n + 1]";

/// Spins forever (with abort checks at the loop header); only a deadline
/// ends it.
const SPIN: &str = "Function[{Typed[n, \"MachineInteger\"]}, \
                    Module[{i = 0}, While[True, If[i > 3, i = i - 1, i = i + 1]]; i]]";

#[test]
fn deadline_aborts_without_poisoning_the_pool() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let reply = pool.call(ServeRequest::new(SPIN, ["0"]).with_deadline(Duration::from_millis(60)));
    assert_eq!(reply.result, Err(ServeError::DeadlineExceeded));
    assert!(
        reply.result.unwrap_err().to_string().contains("Aborted"),
        "deadline failures surface as Aborted"
    );
    // The worker survives: the same worker keeps serving, and the abort
    // signal was reset (the next request is not stillborn).
    let ok = pool.call(ServeRequest::new(INC, ["41"]));
    assert_eq!(ok.result.as_deref(), Ok("42"));
    let m = pool.metrics();
    assert_eq!(m.aborted.load(Ordering::Relaxed), 1);
    assert_eq!(m.ok.load(Ordering::Relaxed), 1);
}

/// A request that exhausts its whole budget in the queue is answered
/// `Aborted` without being compiled or executed.
#[test]
fn queue_expired_deadline_skips_execution() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // Occupy the single worker long enough for the victim to expire.
    let busy = pool
        .submit(ServeRequest::new(SPIN, ["0"]).with_deadline(Duration::from_millis(250)))
        .expect("admit the blocker");
    std::thread::sleep(Duration::from_millis(50));
    let victim = pool
        .submit(ServeRequest::new(INC, ["1"]).with_deadline(Duration::from_millis(1)))
        .expect("admit the victim");
    assert_eq!(busy.wait().result, Err(ServeError::DeadlineExceeded));
    let reply = victim.wait();
    assert_eq!(reply.result, Err(ServeError::DeadlineExceeded));
    assert_eq!(reply.cache, CacheStatus::Unreached);
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    });
    // Occupy the worker, then fill the one queue slot.
    let busy = pool
        .submit(ServeRequest::new(SPIN, ["0"]).with_deadline(Duration::from_millis(300)))
        .expect("admit the blocker");
    std::thread::sleep(Duration::from_millis(100));
    let queued = pool
        .submit(ServeRequest::new(INC, ["1"]))
        .expect("one queue slot is free");
    // The queue is now full: admission must shed, not block.
    let mut overloads = 0;
    for _ in 0..4 {
        if matches!(
            pool.submit(ServeRequest::new(INC, ["2"])),
            Err(ServeError::Overloaded)
        ) {
            overloads += 1;
        }
    }
    assert!(overloads > 0, "full queue must reject with Overloaded");
    assert_eq!(busy.wait().result, Err(ServeError::DeadlineExceeded));
    assert_eq!(queued.wait().result.as_deref(), Ok("2"));
    let m = pool.metrics();
    assert!(m.rejected.load(Ordering::Relaxed) >= overloads);
    assert_eq!(
        m.queue_depth.load(Ordering::Relaxed),
        0,
        "depth drains to zero"
    );
}

/// Soft numeric failure (§3 F2): the iterative fib overflows machine
/// integers at n = 100; the hosted artifact re-runs under the interpreter
/// and the reply both carries the exact bignum and is flagged.
#[test]
fn soft_failure_falls_back_to_interpreter() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let fib = "Function[{Typed[n, \"MachineInteger\"]}, \
               Module[{a = 0, b = 1, k = 0, t = 0}, \
               While[k < n, t = a + b; a = b; b = t; k = k + 1]; a]]";
    let reply = pool.call(ServeRequest::new(fib, ["100"]));
    assert_eq!(reply.result.as_deref(), Ok("354224848179261915075"));
    assert!(reply.fell_back, "overflow must be served by the fallback");
    // Within machine range the native path answers directly.
    let fast = pool.call(ServeRequest::new(fib, ["50"]));
    assert_eq!(fast.result.as_deref(), Ok("12586269025"));
    assert!(!fast.fell_back);
    assert_eq!(pool.metrics().fallbacks.load(Ordering::Relaxed), 1);
}

/// The adaptive policy starts on the cheap bytecode tier and recompiles
/// natively once an entry has served `promote_after` hits.
#[test]
fn adaptive_policy_promotes_hot_entries() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        tier_policy: TierPolicy::Adaptive { promote_after: 2 },
        ..ServeConfig::default()
    });
    let req = ServeRequest::new(INC, ["41"]);

    let first = pool.call(req.clone());
    assert_eq!(first.result.as_deref(), Ok("42"));
    assert_eq!(first.cache, CacheStatus::Miss);
    assert_eq!(first.tier, Some(Tier::Bytecode));

    let second = pool.call(req.clone());
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(second.tier, Some(Tier::Bytecode), "1 hit < promote_after");

    let third = pool.call(req.clone());
    assert_eq!(third.cache, CacheStatus::Hit);
    assert_eq!(third.tier, Some(Tier::Native), "2nd hit triggers promotion");
    assert_eq!(third.result.as_deref(), Ok("42"));

    let fourth = pool.call(req);
    assert_eq!(fourth.tier, Some(Tier::Native), "promotion is sticky");
    let m = pool.metrics();
    assert_eq!(m.promotions.load(Ordering::Relaxed), 1);
    assert_eq!(
        m.compiles.load(Ordering::Relaxed),
        2,
        "bytecode + promotion"
    );
}

/// Any idle worker takes the next request: with one worker spinning,
/// distinct quick programs are all served by the other, none waits
/// behind the spinner.
#[test]
fn idle_worker_serves_while_another_spins() {
    let pool = ServePool::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let started = Instant::now();
    let spin = pool
        .submit(ServeRequest::new(SPIN, ["0"]).with_deadline(Duration::from_secs(2)))
        .expect("admit the spinner");
    for k in 1..=8 {
        let src = format!("Function[{{Typed[n, \"MachineInteger\"]}}, n + {k}]");
        let submitted = Instant::now();
        let reply = pool.call(ServeRequest::new(src, ["1"]));
        assert_eq!(reply.result, Ok((k + 1).to_string()), "program n + {k}");
        assert!(
            submitted.elapsed() < Duration::from_secs(1),
            "n + {k} waited {:?} behind the spinner",
            submitted.elapsed()
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the spinner was still running"
    );
    assert_eq!(spin.wait().result, Err(ServeError::DeadlineExceeded));
}

/// The request with `line(k)` for the largest `k` the parser accepts: one
/// more step of nesting is past its limit.
fn at_the_nesting_limit(line: impl Fn(usize) -> String) -> String {
    let mut k = 0;
    while wolfram_serve::net::parse_request_line(&line(k + 1)).is_ok() {
        k += 1;
    }
    assert!(k > 64, "only {k} steps of nesting parse");
    line(k)
}

/// A request nested as deep as the parser allows is keyed, compiled (or
/// refused) and run on a worker's default stack: the limit is what keeps
/// deep input from overflowing it, so it must be low enough for every
/// recursive pass behind the parser, in a debug build too.
#[test]
fn requests_nested_at_the_parser_limit_are_served_or_refused_cleanly() {
    let pool = ServePool::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let nest = |open: &str, inner: &str, close: &str, k: usize| {
        format!("{}{inner}{}", open.repeat(k), close.repeat(k))
    };
    let request = |body: String, arg: String| {
        format!("{{Function[{{Typed[n, \"MachineInteger\"]}}, {body}], {{{arg}}}}}")
    };
    let shapes: Vec<Box<dyn Fn(usize) -> String>> = vec![
        Box::new(|k| request(nest("f[", "n", "]", k), "1".into())),
        Box::new(|k| request(nest("If[n > 0, ", "n", ", n]", k), "1".into())),
        Box::new(|k| request(nest("1 - (", "n", ")", k), "1".into())),
        Box::new(|k| request(nest("n ^ ", "n", "", k), "1".into())),
        Box::new(|k| request(nest("{", "n", "}", k), "1".into())),
        Box::new(|k| request("n".into(), nest("{", "1", "}", k))),
    ];
    for shape in &shapes {
        let line = at_the_nesting_limit(shape);
        let req = wolfram_serve::net::parse_request_line(&line).expect("parses");
        // Served or refused, the worker lives on.
        let _ = pool.call(req);
        assert_eq!(
            pool.call(ServeRequest::new(INC, ["1"])).result.as_deref(),
            Ok("2")
        );
    }
}
