//! The three simulator workloads: `sim_engine`, `sim_harvest`, `sim_libra`.
//!
//! All three run `Simulation::run` over a `HugeTier` trace; they differ in
//! the platform plugged in, which decides where host time goes. One run
//! repeats the same simulation until its time is up and reports the median
//! repetition, so a hiccup in one repetition does not move the result.

use crate::drills;
use crate::json::Json;
use crate::outcome::{repeat_setup, span, EndToEnd, Outcome};
use crate::proc;
use crate::stats::median;
use crate::timed::{Hook, HookLedger, ProfilerOp, TimedPlatform};
use libra_core::{LibraConfig, LibraPlatform, Profiler};
use libra_sim::engine::{NullPlatform, SimConfig, Simulation};
use libra_sim::function::FunctionSpec;
use libra_sim::metrics::{MetricsMode, RunResult};
use libra_sim::platform::{Platform, PlatformReport};
use libra_sim::trace::Trace;
use libra_workloads::trace::{HugeTier, TraceGen};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The deployed catalogue: 400 functions with Zipf(1.1) popularity.
const CATALOGUE_FUNCTIONS: usize = 400;
const CATALOGUE_ZIPF_S: f64 = 1.1;
/// Seed of everything `--seed` does not drive.
const FIXED_SEED: u64 = 0x11b7a;

/// What of a workload's traffic `--seed` drives. The catalogue (functions,
/// popularity, input pools) is the same on every run — the system under test
/// includes what is deployed; with seeded pools the hot functions' inputs, and
/// with them events per invocation and simulated latency, differ by ~8 % from
/// seed to seed, which no run length averages out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seeded {
    /// Arrival times, which function, which of its inputs.
    Traffic,
    /// The [`FIXED_SEED`] trace replayed with seeded arrival times, and with
    /// a seeded input on every [`FRESH_INPUT_EVERY`]th invocation unless it is
    /// its function's first. For a workload too short to average the rest
    /// out: of `sim_libra`'s 150 invocations, how many see a function for the
    /// first time sets the host time (15 % spread over ten seeds when seeded)
    /// and which inputs they carry sets the simulated latency (16–25 %). The
    /// few seeded inputs are there because with none the median simulated
    /// latency is the same number under every seed.
    Replay,
}

const FRESH_INPUT_EVERY: usize = 10;

/// SplitMix64's output function: spreads consecutive integers over `u64`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Which platform a workload plugs into the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformKind {
    /// `NullPlatform`: the engine does all the work.
    Null,
    /// `LibraConfig::np()`: pool, safeguard, coverage scheduler and control
    /// plane on every event, moving-window estimates in place of the profiler.
    LibraNp,
    /// `LibraConfig::libra()`: the same plus the ML profiler.
    Libra,
}

/// Shape of one simulator workload: 48-core / 192 GB nodes in 4 shards at 20
/// requests per minute and node, as in the repo's `huge` tier.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    pub name: &'static str,
    pub invocations: usize,
    pub nodes: usize,
    pub rpm: f64,
    pub platform: PlatformKind,
    pub seeded: Seeded,
    /// Run on one core (see [`proc::pin_to_one_cpu`]).
    pub one_core: bool,
}

/// Invocation counts are a quarter of the issue's sizing (300,000 / 200,000)
/// so that one run holds several repetitions; nodes and rates are kept, and
/// with them the event queue's depth.
///
/// `sim_libra` is sized the same way, for six or more repetitions in a run:
/// 150 of the issue's 2,500 invocations, of which 63 train a function seen
/// for the first time (~48 ms each on one core, 92 % of the host time) and the
/// rest refit the hot ones. It runs on one core because `RandomForest::fit`
/// fans out over `available_parallelism()` threads per fit: on the two shared
/// cores of the check machine a fit then waits for whichever thread the host
/// serves last, repetitions of one run differed by ±15 % (±3 % on one core)
/// and ten runs of the same code spread by 40 %.
pub const WORKLOADS: [SimSpec; 3] = [
    SimSpec {
        name: "sim_engine",
        invocations: 75_000,
        nodes: 300,
        rpm: 6_000.0,
        platform: PlatformKind::Null,
        seeded: Seeded::Traffic,
        one_core: false,
    },
    SimSpec {
        name: "sim_harvest",
        invocations: 50_000,
        nodes: 200,
        rpm: 4_000.0,
        platform: PlatformKind::LibraNp,
        seeded: Seeded::Traffic,
        one_core: false,
    },
    SimSpec {
        name: "sim_libra",
        invocations: 150,
        nodes: 100,
        rpm: 2_000.0,
        platform: PlatformKind::Libra,
        seeded: Seeded::Replay,
        one_core: true,
    },
];

/// The generated inputs of one run.
struct Inputs {
    tier: HugeTier,
    trace: Trace,
    trace_gen_s: f64,
}

fn inputs(spec: &SimSpec, seed: u64) -> Inputs {
    let start = Instant::now();
    let tier = |traffic_seed: u64| HugeTier {
        gen: TraceGen {
            seed: traffic_seed,
            ..TraceGen::zipf_catalogue(CATALOGUE_FUNCTIONS, FIXED_SEED, CATALOGUE_ZIPF_S)
        },
        invocations: spec.invocations,
        rpm: spec.rpm,
        nodes: spec.nodes,
        node_cores: 48,
        node_mem_mb: 196_608,
        shards: 4,
    };
    let seeded = tier(seed);
    let trace = match spec.seeded {
        Seeded::Traffic => seeded.trace(),
        Seeded::Replay => {
            let mut trace = tier(FIXED_SEED).trace();
            let arrivals = seeded.trace().entries;
            let mut seen = HashSet::new();
            for (i, (entry, arrival)) in trace.entries.iter_mut().zip(arrivals).enumerate() {
                entry.at = arrival.at;
                let first_sight = seen.insert(entry.func);
                if !first_sight && i % FRESH_INPUT_EVERY == FRESH_INPUT_EVERY - 1 {
                    let pool = &seeded.gen.pools[entry.func.0 as usize].inputs;
                    entry.input = pool[mix(mix(seed).wrapping_add(i as u64)) as usize % pool.len()];
                }
            }
            trace
        }
    };
    Inputs { tier: seeded, trace, trace_gen_s: start.elapsed().as_secs_f64() }
}

fn simulation(tier: &HugeTier) -> Simulation {
    let config =
        SimConfig { shards: tier.shards, metrics: MetricsMode::Streaming, ..SimConfig::default() };
    Simulation::new(tier.suite(), tier.node_caps(), config)
}

/// Everything a deterministic engine must reproduce bit for bit: between
/// repetitions of one run, and between the plain and the `TimedPlatform`
/// pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDigest {
    completed: u64,
    event_pushes: u64,
    event_pops: u64,
    lat_p50_bits: u64,
    lat_p99_bits: u64,
    speedup_min_bits: u64,
    cpu_util_bits: u64,
}

impl SimDigest {
    pub fn of(r: &RunResult) -> Self {
        SimDigest {
            completed: r.summary.completed,
            event_pushes: r.event_pushes,
            event_pops: r.event_pops,
            lat_p50_bits: r.summary.latency_sketch.quantile(50.0).to_bits(),
            lat_p99_bits: r.summary.latency_sketch.quantile(99.0).to_bits(),
            speedup_min_bits: r.summary.speedup.min().to_bits(),
            cpu_util_bits: r.summary.cpu_util.mean().to_bits(),
        }
    }
}

/// One repetition: a whole `Simulation::run`.
struct Rep {
    wall_s: f64,
    result: RunResult,
    report: PlatformReport,
    /// The layer ledger, when the platform ran inside a `TimedPlatform`.
    hooks: Option<(HookLedger, Vec<ProfilerOp>)>,
}

fn drive<P: Platform>(sim: Simulation, trace: &Trace, mut platform: P) -> (RunResult, f64, P) {
    let start = Instant::now();
    let result = sim.run(trace, &mut platform);
    (result, start.elapsed().as_secs_f64(), platform)
}

/// `capture_profiler_ops` only matters to a traced repetition.
fn rep_with<P: Platform>(
    sim: Simulation,
    trace: &Trace,
    platform: P,
    traced: bool,
    capture_profiler_ops: bool,
) -> Rep {
    if traced {
        let timed = TimedPlatform::new(platform, capture_profiler_ops);
        let (result, wall_s, timed) = drive(sim, trace, timed);
        let report = timed.report();
        let (_, ledger, ops) = timed.finish();
        Rep { wall_s, result, report, hooks: Some((ledger, ops)) }
    } else {
        let (result, wall_s, platform) = drive(sim, trace, platform);
        Rep { wall_s, result, report: platform.report(), hooks: None }
    }
}

fn rep(spec: &SimSpec, sim: Simulation, trace: &Trace, traced: bool) -> Rep {
    match spec.platform {
        PlatformKind::Null => rep_with(sim, trace, NullPlatform, traced, false),
        PlatformKind::LibraNp => {
            rep_with(sim, trace, LibraPlatform::new(LibraConfig::np()), traced, false)
        }
        // Only the full Libra platform has a profiler to replay.
        PlatformKind::Libra => {
            rep_with(sim, trace, LibraPlatform::new(LibraConfig::libra()), traced, true)
        }
    }
}

/// Whether another round of repetitions belongs in `budget`: always after
/// none, and later only while at least half of another round still fits.
fn another_round(started: Instant, rounds_done: u32, budget: Duration) -> bool {
    let elapsed = started.elapsed();
    rounds_done == 0 || elapsed + elapsed / (2 * rounds_done) <= budget
}

/// The output checks every repetition must pass.
fn check_reps(spec: &SimSpec, reps: &[Rep], out: &mut Outcome) {
    let reference = SimDigest::of(&reps[0].result);
    for (i, r) in reps.iter().enumerate() {
        let accounted = r.result.summary.completed + r.result.aborted;
        out.attempted += spec.invocations as u64;
        out.failed += r.result.aborted;
        out.check(accounted == spec.invocations as u64, || {
            format!("rep {i}: completed + aborted = {accounted}, trace has {}", spec.invocations)
        });
        out.check(r.result.pool_violations == 0, || {
            format!("rep {i}: {} safety-ledger violations", r.result.pool_violations)
        });
        let digest = SimDigest::of(&r.result);
        out.check(digest == reference, || {
            format!("rep {i}: sim_digest {digest:?} differs from rep 0's {reference:?}")
        });
    }
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Give a one-core workload its one core, before anything is timed.
fn confine(spec: &SimSpec, out: &mut Outcome) {
    if spec.one_core {
        if let Err(e) = proc::pin_to_one_cpu() {
            out.errors.push(e);
        }
    }
}

/// `--trace 0`: repeat the plain simulation for `seconds` and report the
/// median repetition, then time repeated set-ups.
pub fn run_end_to_end(spec: &SimSpec, seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    confine(spec, &mut out);
    let inputs = inputs(spec, seed);
    let sim = simulation(&inputs.tier);

    let started = Instant::now();
    let mut next_sim = Some(sim);
    let mut reps = Vec::new();
    let mut peak_rss_mb = None;
    while another_round(started, reps.len() as u32, seconds) {
        let sim = next_sim.take().unwrap_or_else(|| simulation(&inputs.tier));
        reps.push(rep(spec, sim, &inputs.trace, false));
        // Read after the first repetition: the same work in every run, however
        // many repetitions fit, where the heap of a seventh repetition is up
        // to a tenth larger than that of a fifth.
        peak_rss_mb.get_or_insert_with(proc::peak_rss_mb);
    }
    check_reps(spec, &reps, &mut out);
    // Set-ups are timed after the measured section, when the allocator
    // already holds the memory they need: in a fresh process the same
    // millisecond-sized set-up takes 3.8 or 6.5 ms depending on how the new
    // heap gets faulted in, which says nothing about the code.
    let (_, setup_s) = repeat_setup(
        || {
            let start = Instant::now();
            let inputs = self::inputs(spec, seed);
            let sim = simulation(&inputs.tier);
            ((inputs, sim), start.elapsed().as_secs_f64())
        },
        drop,
    );

    let summary = &reps[0].result.summary;
    let rates: Vec<f64> =
        reps.iter().map(|r| r.result.summary.completed as f64 / r.wall_s).collect();
    match peak_rss_mb.unwrap_or_else(proc::peak_rss_mb) {
        Ok(peak_rss_mb) => EndToEnd {
            setup_s,
            inv_per_s: median(&rates),
            lat_p50_ms: summary.latency_sketch.quantile(50.0) * 1e3,
            lat_p95_ms: summary.latency_sketch.quantile(95.0) * 1e3,
            peak_rss_mb,
        }
        .record(&mut out),
        Err(e) => out.errors.push(e),
    }
    eprintln!(
        "[{}] {} reps, walls {:.3?} s, simulated latency over {} samples",
        spec.name,
        reps.len(),
        walls(&reps),
        summary.latency_sketch.seen(),
    );
    out
}

/// `--trace 1`: for `seconds`, alternate the plain simulation with the same
/// simulation inside a `TimedPlatform`, check that both produce the same
/// digest, and report the layer ledger.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    confine(spec, &mut out);
    let inputs = inputs(spec, seed);
    let new_start = Instant::now();
    let sim = simulation(&inputs.tier);
    let new_s = new_start.elapsed().as_secs_f64();

    // Plain and timed repetitions alternate, so that both see the same
    // machine: this box drifts by ±10 % over seconds, which would otherwise
    // read as tracing overhead.
    let started = Instant::now();
    let mut next_sim = Some(sim);
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    while another_round(started, plain.len() as u32, seconds) {
        let sim = next_sim.take().unwrap_or_else(|| simulation(&inputs.tier));
        plain.push(rep(spec, sim, &inputs.trace, false));
        timed.push(rep(spec, simulation(&inputs.tier), &inputs.trace, true));
    }
    check_reps(spec, &plain, &mut out);
    check_reps(spec, &timed, &mut out);
    let (plain_digest, timed_digest) =
        (SimDigest::of(&plain[0].result), SimDigest::of(&timed[0].result));
    out.check(plain_digest == timed_digest, || {
        format!("sim_digest under TimedPlatform {timed_digest:?} differs from {plain_digest:?}")
    });

    // Counts repeat exactly, so any repetition serves; times are medians.
    let last = &timed[timed.len() - 1];
    let ledgers: Vec<&HookLedger> =
        timed.iter().filter_map(|r| r.hooks.as_ref().map(|h| &h.0)).collect();
    let wall_s = median(&walls(&timed));
    let hook_s = median(&ledgers.iter().map(|l| l.total_busy_s()).collect::<Vec<_>>());
    let self_s = wall_s - hook_s;
    let result = &last.result;
    let event_ops = (result.event_pushes + result.event_pops) as f64;
    out.set("engine.self_s", self_s);
    out.set("engine.event_pushes", result.event_pushes as f64);
    out.set("engine.event_pops", result.event_pops as f64);
    out.set("engine.events_per_inv", result.event_pushes as f64 / spec.invocations as f64);
    out.set("engine.ns_per_event_op", self_s * 1e9 / event_ops);
    out.set("engine.peak_live_inv", result.summary.peak_live_invocations as f64);
    out.set("engine.new_s", new_s);
    const PUBLISHED: [Hook; 8] = [
        Hook::Predict,
        Hook::SelectNode,
        Hook::OnStart,
        Hook::OnTick,
        Hook::OnComplete,
        Hook::OnLoanEnded,
        Hook::OnPing,
        Hook::WarmKeep,
    ];
    let mut aggregates = Vec::new();
    for hook in PUBLISHED {
        let calls = ledgers[0].calls(hook);
        out.check(ledgers.iter().all(|l| l.calls(hook) == calls), || {
            format!("hook.{}.calls differs between repetitions", hook.name())
        });
        let busy_s = median(&ledgers.iter().map(|l| l.busy_s(hook)).collect::<Vec<_>>());
        out.set(format!("hook.{}.calls", hook.name()), calls as f64);
        out.set(format!("hook.{}.busy_s", hook.name()), busy_s);
        aggregates.push(aggregate(&format!("hook.{}", hook.name()), calls, busy_s));
    }
    aggregates.push(aggregate("engine.self", 1, self_s));

    out.set("pool.puts", last.report.pool_puts as f64);
    out.set("pool.gets", last.report.pool_gets as f64);
    let loans_expired =
        last.report.extra.iter().find(|(k, _)| k == "loans_expired").map_or(0.0, |(_, v)| *v);
    out.set("controlplane.loans_expired", loans_expired);
    out.set("controlplane.safeguard_triggers", last.report.safeguard_triggers as f64);
    out.set("workloads.trace_gen_s", inputs.trace_gen_s);
    out.set("workloads.trace_entries", inputs.trace.len() as f64);
    out.set("sim.lat_p50_s", result.summary.latency_sketch.quantile(50.0));
    out.set("sim.lat_p99_s", result.summary.latency_sketch.quantile(99.0));
    out.set("sim.speedup_min", result.summary.speedup.min());
    out.set("sim.cpu_util", result.summary.cpu_util.mean());
    // Fastest against fastest: interference from outside only ever slows a
    // repetition down, so the minima are what the two variants cost.
    let fastest = |reps: &[Rep]| walls(reps).into_iter().fold(f64::INFINITY, f64::min);
    out.set("trace.overhead_frac", fastest(&timed) / fastest(&plain) - 1.0);

    if let Some((_, ops)) = &last.hooks {
        if !ops.is_empty() {
            let profiler = replay_profiler(ops, &inputs.tier.suite());
            for (name, (calls, busy)) in [
                ("train", profiler.train),
                ("observe", profiler.observe),
                ("predict", profiler.predict),
            ] {
                out.set(format!("profiler.{name}.calls"), calls as f64);
                out.set(format!("profiler.{name}.busy_s"), busy.as_secs_f64());
                aggregates.push(aggregate(
                    &format!("profiler.{name} (replay)"),
                    calls,
                    busy.as_secs_f64(),
                ));
            }
            out.set("profiler.rows_max", profiler.rows_max as f64);
        }
    }
    match spec.platform {
        PlatformKind::Null => {
            out.set("event.push_pop_ns_1k", drills::event_push_pop_ns(1_000));
            out.set("event.push_pop_ns_100k", drills::event_push_pop_ns(100_000));
        }
        PlatformKind::LibraNp => {
            out.set("pool.put_get_ns_100", drills::pool_put_get_ns(100));
            out.set("pool.put_get_ns_10k", drills::pool_put_get_ns(10_000));
            out.set("controlplane.cycle_ns", drills::controlplane_cycle_ns());
            out.set("coverage.demand_coverage_ns", drills::demand_coverage_ns());
        }
        PlatformKind::Libra => {
            out.set("forest.fit_ms_128", drills::forest_fit_ms(128));
            out.set("forest.fit_ms_512", drills::forest_fit_ms(512));
            out.set("forest.fit_ms_2048", drills::forest_fit_ms(2_048));
            out.set("forest.predict_ns", drills::forest_predict_ns());
        }
    }

    out.trace = Some(Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(vec![span(0, None, "Simulation::run", 0.0, wall_s * 1e6)])),
        ("aggregates", Json::Arr(aggregates)),
    ]));
    eprintln!(
        "[{}] {} plain + {} timed reps, hooks {:.1}% of timed wall",
        spec.name,
        plain.len(),
        timed.len(),
        100.0 * hook_s / wall_s
    );
    out
}

/// A trace-file entry for work recorded in aggregate under the root span.
fn aggregate(name: &str, calls: u64, busy_s: f64) -> Json {
    Json::obj([
        ("parent", Json::Num(0.0)),
        ("name", Json::str(name)),
        ("calls", Json::Num(calls as f64)),
        ("busy_us", Json::Num(busy_s * 1e6)),
    ])
}

/// Calls and busy time per `Profiler` entry point.
#[derive(Default)]
struct ProfilerLedger {
    train: (u64, Duration),
    observe: (u64, Duration),
    predict: (u64, Duration),
    /// Largest training set any size-related function's forests were refitted
    /// on: the duplicator's points plus its online observations.
    rows_max: usize,
}

/// Replay the run's profiler inputs against a fresh `Profiler`, the way
/// `LibraPlatform` drives it, with nothing else running.
fn replay_profiler(ops: &[ProfilerOp], suite: &[FunctionSpec]) -> ProfilerLedger {
    let cfg = LibraConfig::libra();
    let mut profiler = Profiler::new(suite.len(), cfg.profiler_cfg.clone(), cfg.model_choice);
    let mut ledger = ProfilerLedger::default();
    let mut observed = vec![0usize; suite.len()];
    let timed = |slot: &mut (u64, Duration), call: &mut dyn FnMut()| {
        let start = Instant::now();
        call();
        slot.1 += start.elapsed();
        slot.0 += 1;
    };
    for op in ops {
        match *op {
            ProfilerOp::Arrive { func, input } if !profiler.is_trained(func) => {
                timed(&mut ledger.train, &mut || profiler.train(func, &suite[func], input));
            }
            ProfilerOp::Arrive { func, input } => {
                timed(&mut ledger.predict, &mut || {
                    std::hint::black_box(profiler.predict(func, input));
                });
            }
            ProfilerOp::Complete { func, input, actuals } if profiler.is_trained(func) => {
                timed(&mut ledger.observe, &mut || profiler.observe(func, input, &actuals));
                observed[func] += 1;
            }
            ProfilerOp::Complete { .. } => {}
        }
    }
    ledger.rows_max = (0..suite.len())
        .filter(|&f| profiler.is_size_related(f) == Some(true))
        .map(|f| cfg.profiler_cfg.duplicate_points + observed[f])
        .max()
        .unwrap_or(0);
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

    fn single_set() -> Trace {
        TraceGen::standard(&ALL_APPS, 42).single_set()
    }

    fn single_node() -> Simulation {
        Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default())
    }

    fn libra_spec() -> &'static SimSpec {
        WORKLOADS.iter().find(|s| s.seeded == Seeded::Replay).expect("a replayed workload")
    }

    /// A replayed trace keeps the fixed trace's functions and what each is
    /// first seen with; the seed moves arrival times and a few later inputs.
    #[test]
    fn replay_seeds_arrivals_and_few_inputs_only() {
        let spec = libra_spec();
        let (a, b) = (inputs(spec, 1).trace.entries, inputs(spec, 2).trace.entries);
        assert_eq!(a, inputs(spec, 1).trace.entries, "same seed, same inputs");
        assert_eq!(a.len(), spec.invocations);
        assert!(a.iter().zip(&b).all(|(x, y)| x.func == y.func));
        assert!(a.iter().zip(&b).any(|(x, y)| x.at != y.at));
        let mut seen = HashSet::new();
        let (mut fresh, mut first_sights) = (0, 0);
        for (x, y) in a.iter().zip(&b) {
            if seen.insert(x.func) {
                first_sights += 1;
                assert_eq!(x.input, y.input, "a first sight's input is fixed");
            } else if x.input != y.input {
                fresh += 1;
            }
        }
        assert!(first_sights > spec.invocations / 3, "{first_sights} first sights");
        assert!((1..=spec.invocations / FRESH_INPUT_EVERY).contains(&fresh), "{fresh} fresh");
    }

    /// The golden check: wrapping the platform must not change the run.
    #[test]
    fn timed_platform_leaves_the_simulation_bit_identical() {
        let trace = single_set();
        let plain =
            rep_with(single_node(), &trace, LibraPlatform::new(LibraConfig::libra()), false, false);
        let timed =
            rep_with(single_node(), &trace, LibraPlatform::new(LibraConfig::libra()), true, true);
        assert_eq!(SimDigest::of(&plain.result), SimDigest::of(&timed.result));
        assert_eq!(plain.result.records.len(), 165);
        let (ledger, ops) = timed.hooks.expect("traced rep keeps a ledger");
        assert_eq!(ledger.calls(Hook::Predict), 165);
        assert_eq!(ledger.calls(Hook::OnComplete), 165);
        assert!(ledger.calls(Hook::OnTick) > 165 && ledger.total_busy_s() > 0.0);
        assert_eq!(ops.len(), 330, "one arrival and one completion per invocation");
        assert_eq!(plain.report.pool_puts, timed.report.pool_puts);
    }
}
