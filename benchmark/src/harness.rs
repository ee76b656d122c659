//! What every workload shares: the run context, the per-round recorder,
//! the set-up/measure/trace driver and the result a run prints.

use crate::spec::{self, OPS_PER_S, OP_P50_US, PEAK_RSS_MB, SETUP_S};
use crate::stats::{self, Stat};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds a run measures at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The arguments of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced scale: seconds-long, and its numbers are never stored.
    pub smoke: bool,
    /// Corrupt one reference value, to show the output checks bite.
    pub inject_fault: bool,
    /// Where trace files and temporary files go.
    pub out_dir: PathBuf,
}

/// What a workload sees of the run.
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    pub fault: bool,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
    next_op: u64,
}

impl Ctx {
    /// A fresh operation id for the spans of one operation.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// `full` at the benchmark's fixed scale, `smoke` under `--smoke`.
    pub fn scale(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One finished repetition of a workload's timed region.
#[derive(Debug, Clone)]
pub struct Round {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Median latency per program in this round, in program order.
    pub program_us: Vec<f64>,
}

/// Collects operation latencies and counts round by round.
pub struct Recorder {
    samples: Vec<Vec<f64>>,
    ok: u64,
    secs: f64,
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
}

impl Recorder {
    pub fn new(programs: usize) -> Recorder {
        Recorder {
            samples: vec![Vec::new(); programs],
            ok: 0,
            secs: 0.0,
            rounds: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One latency sample of `program`, in microseconds per operation.
    pub fn sample(&mut self, program: usize, us_per_op: f64) {
        self.samples[program].push(us_per_op);
    }

    /// Operations that completed correctly, and that did not.
    pub fn count(&mut self, ok: u64, failed: u64) {
        self.ok += ok;
        self.attempted += ok + failed;
        self.failed += failed;
    }

    /// Wall time of a timed section of the current round.
    pub fn timed(&mut self, elapsed: Duration) {
        self.secs += elapsed.as_secs_f64();
    }

    /// Closes the round: throughput over its timed sections, and over its
    /// programs the geometric mean of each program's median latency, so
    /// that one slow program cannot hide the rest.
    pub fn end_round(&mut self) {
        let mut all: Vec<f64> = Vec::new();
        let mut program_us = Vec::with_capacity(self.samples.len());
        for s in &mut self.samples {
            if !s.is_empty() {
                program_us.push(stats::median(s));
                all.append(s);
            }
        }
        all.sort_by(f64::total_cmp);
        self.rounds.push(Round {
            ops_per_s: self.ok as f64 / self.secs.max(1e-12),
            p50_us: stats::geomean(&program_us),
            p99_us: stats::percentile_sorted(&all, 0.99),
            program_us,
        });
        self.ok = 0;
        self.secs = 0.0;
    }

    fn column(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    pub fn ops_per_s(&self) -> Stat {
        Stat::of(&self.column(|r| r.ops_per_s))
    }

    pub fn p50_us(&self) -> Stat {
        Stat::of(&self.column(|r| r.p50_us))
    }

    pub fn p99_us(&self) -> Stat {
        Stat::of(&self.column(|r| r.p99_us))
    }

    /// Median over rounds of one program's per-round median latency.
    pub fn program_us(&self, program: usize) -> f64 {
        stats::median(&self.column(|r| r.program_us[program]))
    }
}

/// The per-layer values a traced run produced.
pub struct Layers {
    workload: &'static str,
    values: BTreeMap<&'static str, f64>,
    failed: u64,
}

impl Layers {
    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not list `name` on this workload: the names
    /// printed must be the names in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::layers_on(self.workload).any(|l| l.name == name),
            "{name} is not a per-layer metric of {}",
            self.workload
        );
        self.values.insert(name, value);
    }

    /// Counts checks that a layer probe made and that failed.
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }
}

/// One workload: how it is set up, what one repetition of its timed
/// region is, and what its layers are made of.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Everything before the first timed region: input generation,
    /// reference outputs, compiling what a non-compile workload runs,
    /// server start, one warm-up pass.
    fn setup(ctx: &mut Ctx) -> Self;

    /// How many programs `Recorder::sample` distinguishes.
    fn programs(&self) -> usize;

    /// FNV-1a over program sources and the head of every generated input.
    fn fingerprint(&self) -> u64;

    /// One repetition of the timed region, every output checked.
    fn round(&mut self, ctx: &mut Ctx, rec: &mut Recorder);

    /// The workload's per-layer metrics, within about `budget`.
    fn layers(&mut self, ctx: &mut Ctx, untraced: &Recorder, budget: Duration, out: &mut Layers);

    /// Checks that hold after the last round (memory balance); returns
    /// how many failed. Consumes the state so that servers stop first.
    fn finish(self, ctx: &mut Ctx) -> u64;
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: Stat,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub rounds: usize,
    /// Share of the machine's CPU time the hypervisor gave to others while
    /// this run wanted it: how far to trust the run's times.
    pub steal_share: f64,
    pub metrics: Vec<Metric>,
}

fn rounds_for(w: &mut impl Workload, ctx: &mut Ctx, rec: &mut Recorder, budget: Duration) {
    let start = Instant::now();
    let before = rec.rounds.len();
    while rec.rounds.len() - before < MIN_ROUNDS || start.elapsed() < budget {
        w.round(ctx, rec);
        rec.end_round();
    }
}

/// `(steal, total)` CPU ticks of the machine since boot, from `/proc/stat`.
fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        ticks.get(7).copied().unwrap_or(0.0),
        ticks.iter().take(8).sum(),
    )
}

/// `VmHWM` of this process in MB: the peak resident set so far.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(name: &str, stat: Stat) -> Metric {
    let m = spec::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("an end-to-end metric of the spec");
    Metric {
        name: m.name,
        unit: m.unit,
        stat,
    }
}

/// Runs workload `W` as `args` asks and returns what to print.
pub fn drive<W: Workload>(args: &RunArgs) -> RunOutput {
    let mut ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        fault: args.inject_fault,
        tracer: Tracer::default(),
        out_dir: args.out_dir.clone(),
        next_op: 0,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let ticks_before = cpu_ticks();
    let mut metrics = Vec::new();

    // Set-up is repeated so that `setup_s` is a median; only the last
    // state is measured. A traced run reports no `setup_s` and sets up once.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        drop(state.take());
        let t = Instant::now();
        state = Some(W::setup(&mut ctx));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up");
    let fingerprint = w.fingerprint();
    let mut rec = Recorder::new(w.programs());

    if args.trace {
        rounds_for(&mut w, &mut ctx, &mut rec, budget.mul_f64(0.3));
        let mut traced = Recorder::new(w.programs());
        ctx.tracer.set_enabled(true);
        rounds_for(&mut w, &mut ctx, &mut traced, budget.mul_f64(0.2));
        ctx.tracer.set_enabled(false);

        let mut layers = Layers {
            workload: W::NAME,
            values: BTreeMap::new(),
            failed: 0,
        };
        w.layers(&mut ctx, &rec, budget.mul_f64(0.5), &mut layers);
        layers.set(
            "trace_overhead_share",
            traced.p50_us().value / rec.p50_us().value - 1.0,
        );
        rec.attempted += traced.attempted + layers.failed;
        rec.failed += traced.failed + layers.failed;
        // Every per-layer metric is printed by every workload; one that
        // this workload does not exercise reads 0.
        for l in spec::PER_LAYER {
            metrics.push(Metric {
                name: l.name,
                unit: l.unit,
                stat: Stat::single(layers.values.get(l.name).copied().unwrap_or(0.0)),
            });
        }
    } else {
        rounds_for(&mut w, &mut ctx, &mut rec, budget);
        metrics.push(end_to_end(SETUP_S, Stat::of(&setups)));
        metrics.push(end_to_end(OPS_PER_S, rec.ops_per_s()));
        metrics.push(end_to_end(OP_P50_US, rec.p50_us()));
    }

    let rounds = rec.rounds.len();
    let unbalanced = w.finish(&mut ctx);
    if !args.trace {
        // Read last, so the peak covers the whole run.
        metrics.push(end_to_end(PEAK_RSS_MB, Stat::single(peak_rss_mb())));
    } else if let Err(e) = write_trace(&ctx, W::NAME) {
        eprintln!("warning: trace file not written: {e}");
    }

    let failed = rec.failed + unbalanced;
    let ticks_after = cpu_ticks();
    RunOutput {
        workload: W::NAME,
        correct: failed == 0,
        attempted: rec.attempted + unbalanced,
        failed,
        fingerprint,
        rounds,
        steal_share: (ticks_after.0 - ticks_before.0) / (ticks_after.1 - ticks_before.1).max(1.0),
        metrics,
    }
}

fn write_trace(ctx: &Ctx, workload: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.out_dir)?;
    std::fs::write(
        ctx.out_dir.join(format!("trace-{workload}.json")),
        ctx.tracer.to_json(workload, ctx.seed),
    )
}

/// Times `f` between `min` and `max` times, stopping early once `budget`
/// is spent; returns seconds per repetition.
pub fn time_reps(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Median nanoseconds per call of `f`, over `reps` batches of `batch`
/// calls each.
pub fn ns_per_call(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for i in 0..batch {
            f(i);
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e9 / batch as f64);
    }
    stats::median(&per_call)
}
