//! The benchmark's simulated runs as exact counts.
//!
//! Five runs: the repo benchmark's three simulator workloads (`sim_engine`,
//! `sim_harvest`, `sim_libra`, shaped as in `benchmarks/perf/src/sim.rs`)
//! and `exp scale`'s two runs at a 2 % scale (`exp_scale_null`,
//! `exp_scale_np`). [`counts`] reduces one of them to named counts: the
//! engine's event, pop and walk counts from its `RunResult`, the platform's
//! `PlatformReport`, on `sim_libra` the forest fits of the run's profiler,
//! and, from a counting `Platform` wrapper, the hook calls and profiler asks
//! that no report holds, and three digests of what the run decided (see
//! `Digest`). Counts repeat exactly on any
//! machine, so before and after a change they say whether the two ran the
//! same simulation, which wall time cannot. The root `BENCH_counts.json`
//! pins them and `tests/bench_counts.rs` recomputes them. Nothing here reads
//! a clock: the benchmark harness times the same runs from outside.
//!
//! The harness keeps its own copy of the three shapes until it is rewired
//! onto this module (ROADMAP item 22); the two must not drift apart.

use crate::experiments::scale;
use libra_core::{LibraConfig, LibraPlatform};
use libra_sim::engine::{NullPlatform, SimConfig, SimCtx, Simulation, World};
use libra_sim::event::EVENT_KINDS;
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction, PredictionPath};
use libra_sim::metrics::{MetricsMode, RunResult};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::time::{SimDuration, SimTime};
use libra_sim::trace::Trace;
use libra_workloads::trace::{HugeTier, TraceGen};
use std::collections::BTreeSet;

/// The deployed catalogue: 400 functions with Zipf(1.1) popularity.
const CATALOGUE_FUNCTIONS: usize = 400;
const CATALOGUE_ZIPF_S: f64 = 1.1;
/// Seed of everything a workload's seed does not drive.
const FIXED_SEED: u64 = 0x11b7a;

/// What of a workload's traffic its seed drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Seeded {
    /// Arrival times, which function, which of its inputs.
    Traffic,
    /// The `FIXED_SEED` trace replayed with seeded arrival times, and with
    /// a seeded input on every `FRESH_INPUT_EVERY`th invocation unless it is
    /// its function's first: which functions are first seen, and with what,
    /// stays that of the fixed trace.
    Replay,
}

const FRESH_INPUT_EVERY: usize = 10;

/// SplitMix64's output function: spreads consecutive integers over `u64`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A stated-order fold of `u64` words, SplitMix64-style: each word is
/// xored into the state advanced by the golden gamma, then mixed. The order
/// of the words is part of the digest, and so is their number (a run of
/// zero words still moves it). The three digests of a run:
/// - `digest.predictions`: every `predict` answer in call order, `[0]` for
///   none, else `[1 + path, cpu_millis, mem_mb, duration µs]` with `path`
///   Ml, Histogram, Window, None as 0–3;
/// - `digest.placements`: every `select_node` answer in call order, `0` for
///   none (the engine places), else `1 + node`;
/// - `digest.completions`: per `on_complete`, in call order, the
///   invocation's id, the completion time in µs and its attempts (OOM
///   restarts plus crash requeues).
///
/// A digest that moves says that a class of decisions moved, not where.
#[derive(Debug, Default)]
struct Digest(u64);

impl Digest {
    fn fold(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.0 = mix(self.0.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ w);
        }
    }
}

/// Which platform a workload plugs into the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimPlatform {
    /// `NullPlatform`: the engine does all the work.
    Null,
    /// `LibraConfig::np()`: harvesting without the profiler.
    LibraNp,
    /// `LibraConfig::libra()`: the same plus the ML profiler.
    Libra,
}

/// Shape of one benchmark workload: 48-core / 192 GB nodes in 4 shards.
#[derive(Clone, Copy, Debug)]
pub struct SimSpec {
    /// The benchmark's workload name.
    pub name: &'static str,
    /// Invocations in the trace.
    pub invocations: usize,
    /// Worker nodes.
    pub nodes: usize,
    /// Poisson arrival rate, requests per minute.
    pub rpm: f64,
    /// The platform under test.
    pub platform: SimPlatform,
    /// What the seed drives.
    pub seeded: Seeded,
}

/// The benchmark's three simulator workloads.
pub const SHAPES: [SimSpec; 3] = [
    SimSpec {
        name: "sim_engine",
        invocations: 75_000,
        nodes: 300,
        rpm: 6_000.0,
        platform: SimPlatform::Null,
        seeded: Seeded::Traffic,
    },
    SimSpec {
        name: "sim_harvest",
        invocations: 50_000,
        nodes: 200,
        rpm: 4_000.0,
        platform: SimPlatform::LibraNp,
        seeded: Seeded::Traffic,
    },
    SimSpec {
        name: "sim_libra",
        invocations: 150,
        nodes: 100,
        rpm: 2_000.0,
        platform: SimPlatform::Libra,
        seeded: Seeded::Replay,
    },
];

/// `exp scale`'s scale in the two scale workloads: 20,000 invocations on 20
/// nodes.
const SCALE: f64 = 0.02;

/// Every workload [`counts`] knows, in `BENCH_counts.json`'s order.
pub const WORKLOADS: [&str; 5] =
    ["sim_engine", "sim_harvest", "sim_libra", "exp_scale_null", "exp_scale_np"];

/// The generated inputs of one run.
struct Inputs {
    /// The tier the trace was drawn from, with the workload's seed.
    tier: HugeTier,
    /// The trace the run replays.
    trace: Trace,
}

/// The tier and trace of `spec` under `seed`.
fn inputs(spec: &SimSpec, seed: u64) -> Inputs {
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
            let mut seen = BTreeSet::new();
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
    Inputs { tier: seeded, trace }
}

/// The engine a workload runs on: streaming metrics, the tier's shards.
pub(crate) fn simulation(tier: &HugeTier) -> Simulation {
    let config =
        SimConfig { shards: tier.shards, metrics: MetricsMode::Streaming, ..SimConfig::default() };
    Simulation::new(tier.suite(), tier.node_caps(), config)
}

/// Event kind names, indexed by `Event::kind`, and the two count names of
/// each kind's pops: handled, and lazily-cancelled leftovers.
macro_rules! event_kinds {
    ($($kind:literal),* $(,)?) => {
        /// Event kind names, indexed by `Event::kind`.
        pub(crate) const KIND_NAMES: [&str; EVENT_KINDS] = [$($kind),*];
        const POP_COUNTS: [[&str; 2]; EVENT_KINDS] =
            [$([concat!("pops.", $kind, ".handled"), concat!("pops.", $kind, ".stale")]),*];
    };
}

event_kinds![
    "decision_done",
    "start_exec",
    "finish",
    "monitor_tick",
    "health_ping",
    "utilization_sample",
    "retry_blocked",
    "fault",
    "requeue",
    "prewarm",
];

/// The named counts of `workload` run at `seed`. For the three benchmark
/// workloads `seed` is the harness's `--seed`; for the two scale workloads it
/// seeds the tier, as 42 does in `exp scale`.
///
/// # Panics
/// On a name not in [`WORKLOADS`].
pub fn counts(workload: &str, seed: u64) -> Vec<(&'static str, u64)> {
    match workload {
        "exp_scale_null" => scale_counts(seed, NullPlatform),
        "exp_scale_np" => scale_counts(seed, LibraPlatform::new(LibraConfig::np())),
        _ => {
            let spec = SHAPES.iter().find(|s| s.name == workload).unwrap_or_else(|| {
                panic!("no workload {workload:?}; the probe knows {WORKLOADS:?}")
            });
            let inputs = inputs(spec, seed);
            let run = |p: &mut dyn Platform| simulation(&inputs.tier).run(&inputs.trace, p);
            match spec.platform {
                SimPlatform::Null => Counted::new(NullPlatform).run(run).0,
                SimPlatform::LibraNp => {
                    Counted::new(LibraPlatform::new(LibraConfig::np())).run(run).0
                }
                SimPlatform::Libra => {
                    let (mut counts, counted) =
                        Counted::new(LibraPlatform::new(LibraConfig::libra())).run(run);
                    counts.extend(counted.profiler_counts());
                    counts
                }
            }
        }
    }
}

/// `exp scale`'s run under `platform` at [`SCALE`], through the function
/// that `exp scale` prints from.
fn scale_counts(seed: u64, platform: impl Platform) -> Vec<(&'static str, u64)> {
    let tier = scale::tier(SCALE, seed);
    let trace = tier.trace();
    Counted::new(platform).run(|p| scale::simulate(&tier, &trace, p)).0
}

/// A forwarding [`Platform`] that counts what no report holds: the monitor
/// visits and placement asks the engine made, what a profiler in `inner`
/// was asked, and the [`Digest`]s of its answers. It keeps no time.
struct Counted<P> {
    inner: P,
    on_tick: u64,
    select_node: u64,
    predictions: Digest,
    placements: Digest,
    completions: Digest,
    /// `predict` calls after a function's first: profiler predictions.
    predicts: u64,
    /// Per function, `None` until its first `predict` (what the profiler
    /// trains on), then its completions: profiler observations.
    observed: Vec<Option<usize>>,
}

impl<P: Platform> Counted<P> {
    fn new(inner: P) -> Self {
        Counted {
            inner,
            on_tick: 0,
            select_node: 0,
            predictions: Digest::default(),
            placements: Digest::default(),
            completions: Digest::default(),
            predicts: 0,
            observed: Vec::new(),
        }
    }

    /// Run `sim` with this platform plugged in; returns the run's counts and
    /// the wrapper.
    fn run(
        mut self,
        sim: impl FnOnce(&mut dyn Platform) -> RunResult,
    ) -> (Vec<(&'static str, u64)>, Self) {
        let r = sim(&mut self);
        let report = self.report();
        let loans_expired =
            report.extra.iter().find(|(k, _)| k == "loans_expired").map_or(0.0, |(_, v)| *v);
        let mut counts = vec![
            ("engine.completed", r.summary.completed),
            ("engine.aborted", r.aborted),
            ("engine.event_pushes", r.event_pushes),
            ("engine.event_pops", r.event_pops),
            ("engine.peak_live_inv", r.summary.peak_live_invocations as u64),
            ("engine.tick_walks", r.tick_walks.0),
            ("hook.on_tick.calls", self.on_tick),
            ("hook.select_node.calls", self.select_node),
            ("pool.puts", report.pool_puts),
            ("pool.gets", report.pool_gets),
            ("controlplane.safeguard_triggers", report.safeguard_triggers),
            ("controlplane.loans_expired", loans_expired as u64),
            ("digest.predictions", self.predictions.0),
            ("digest.placements", self.placements.0),
            ("digest.completions", self.completions.0),
        ];
        for ([handled, stale], pops) in POP_COUNTS.iter().zip(&r.pops_by_kind) {
            counts.extend([(*handled, pops.handled), (*stale, pops.stale)]);
        }
        (counts, self)
    }
}

impl Counted<LibraPlatform> {
    /// What the run's own profiler was asked: one training per first sight,
    /// a prediction per later arrival, an observation per completion; and
    /// `rows_max`, the most rows any size-related function accumulated (the
    /// duplicator's points plus its observations). A function never
    /// predicted for has its verdict computed here, uncounted. What it
    /// fitted: `relatedness_fits`, the relatedness test's forest fits a
    /// prediction read (the CPU-class forest, then memory and duration
    /// together if it passes), and `serving_fits`, the serving forest sets a
    /// prediction read.
    fn profiler_counts(&self) -> [(&'static str, u64); 6] {
        let Some(profiler) = self.inner.profiler() else {
            panic!("{} runs no profiler", self.inner.name())
        };
        let points = LibraConfig::libra().profiler_cfg.duplicate_points;
        let rows_max = self
            .observed
            .iter()
            .enumerate()
            .filter_map(|(f, &n)| {
                let rows = points + n?;
                (profiler.is_size_related(f) == Some(true)).then_some(rows)
            })
            .max()
            .unwrap_or(0);
        let fits = profiler.fits();
        [
            ("profiler.train.calls", self.observed.iter().flatten().count() as u64),
            ("profiler.predict.calls", self.predicts),
            ("profiler.observe.calls", self.observed.iter().flatten().sum::<usize>() as u64),
            ("profiler.rows_max", rows_max as u64),
            ("profiler.relatedness_fits", fits.relatedness),
            ("profiler.serving_fits", fits.serving),
        ]
    }
}

impl<P: Platform> Platform for Counted<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, world: &World) {
        self.observed = vec![None; world.functions().len()];
        self.inner.init(world)
    }

    fn overheads(&self) -> PlatformOverheads {
        self.inner.overheads()
    }

    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        let rec = world.inv(inv);
        let f = rec.func.idx();
        match self.observed[f] {
            None => self.observed[f] = Some(0),
            Some(_) => self.predicts += 1,
        }
        let pred = self.inner.predict(world, inv);
        match pred {
            None => self.predictions.fold([0]),
            Some(p) => {
                let path = match p.path {
                    PredictionPath::Ml => 0,
                    PredictionPath::Histogram => 1,
                    PredictionPath::Window => 2,
                    PredictionPath::None => 3,
                };
                self.predictions.fold([1 + path, p.cpu_millis, p.mem_mb, p.duration.as_micros()]);
            }
        }
        pred
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.select_node += 1;
        let node = self.inner.select_node(world, shard, inv);
        self.placements.fold([node.map_or(0, |n| 1 + u64::from(n.0))]);
        node
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_start(ctx, inv)
    }

    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.on_tick += 1;
        self.inner.on_tick(ctx, inv)
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        let rec = ctx.inv(inv);
        if let Some(n) = &mut self.observed[rec.func.idx()] {
            *n += 1;
        }
        let attempts = u64::from(rec.restarts) + u64::from(rec.requeues);
        self.completions.fold([u64::from(inv.0), ctx.now().as_micros(), attempts]);
        self.inner.on_complete(ctx, inv, actuals)
    }

    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        self.inner.on_loan_ended(ctx, loan, reason)
    }

    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_oom(ctx, inv)
    }

    fn on_ping(&mut self, world: &World, node: NodeId) {
        self.inner.on_ping(world, node)
    }

    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.inner.on_node_crash(ctx, node)
    }

    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_abort(ctx, inv)
    }

    fn prewarm_after_arrival(&mut self, world: &World, func: FunctionId) -> Option<SimDuration> {
        self.inner.prewarm_after_arrival(world, func)
    }

    fn warm_keep(&mut self, world: &World, func: FunctionId, idle_peers: usize) -> Option<SimTime> {
        self.inner.warm_keep(world, func, idle_peers)
    }

    fn report(&self) -> PlatformReport {
        self.inner.report()
    }
}
