//! Skipping an unwatched resident's visit changes nothing.
//!
//! A node's monitor tick visits only the residents that are watched: the
//! engine watches a resident when it starts and at every change of its
//! allocation or charge, and a platform unwatches one whose visit cannot act
//! (the default `on_tick` always; `LibraPlatform` outside
//! `ControlPlane::watches`). `Visits<P>` forwards every hook to `P` and, with
//! `rewatch` on, watches each resident again after its visit, so the tick
//! visits every running resident at every interval. Each run here is made
//! twice, with and without `rewatch`, and the two must agree bit for bit: the
//! whole `RunResult` (records with `cpu_peak_obs`, utilization samples,
//! summary, event pushes and pops per kind), the platform's report and, for
//! Libra, the control plane's action trace.

use libra::baselines::Freyr;
use libra::core::controlplane::Action;
use libra::core::{LibraConfig, LibraPlatform, PolicyKind, WithKeepAlive};
use libra::sim::engine::{NullPlatform, SimConfig, SimCtx, Simulation, World};
use libra::sim::fault::FaultPlan;
use libra::sim::fault::{build_plan, ChaosConfig, ClusterShape};
use libra::sim::ids::{FunctionId, InvocationId, NodeId};
use libra::sim::invocation::{Actuals, Loan, Prediction};
use libra::sim::metrics::RunResult;
use libra::sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra::sim::resources::ResourceVec;
use libra::sim::time::{SimDuration, SimTime};
use libra::sim::trace::Trace;
use libra::workloads::trace::{HugeTier, TraceGen};
use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

/// Forwards every hook to `inner`; counts visits, and visits made while the
/// node was oversubscribed; with `rewatch`, watches the resident again
/// after each visit.
struct Visits<P> {
    inner: P,
    rewatch: bool,
    visits: u64,
    oversubscribed: u64,
}

impl<P: Platform> Platform for Visits<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, world: &World) {
        self.inner.init(world);
    }
    fn overheads(&self) -> PlatformOverheads {
        self.inner.overheads()
    }
    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        self.inner.predict(world, inv)
    }
    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.inner.select_node(world, shard, inv)
    }
    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_start(ctx, inv);
    }
    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.visits += 1;
        let node = ctx.inv(inv).node.expect("a visited resident is placed");
        if ctx.world().node_cpu_scale(node.idx()) < 1.0 {
            self.oversubscribed += 1;
        }
        self.inner.on_tick(ctx, inv);
        if self.rewatch {
            ctx.watch(inv, true);
        }
    }
    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        self.inner.on_complete(ctx, inv, actuals);
    }
    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        self.inner.on_loan_ended(ctx, loan, reason);
    }
    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_oom(ctx, inv);
    }
    fn on_ping(&mut self, world: &World, node: NodeId) {
        self.inner.on_ping(world, node);
    }
    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.inner.on_node_crash(ctx, node);
    }
    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_abort(ctx, inv);
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

/// A platform under test, with the control-plane actions it recorded.
trait Traced: Platform {
    fn actions(&self) -> Vec<Action> {
        Vec::new()
    }
}

impl Traced for NullPlatform {}

impl Traced for Freyr {}

impl Traced for LibraPlatform {
    fn actions(&self) -> Vec<Action> {
        self.core().action_trace().to_vec()
    }
}

impl Traced for WithKeepAlive<LibraPlatform> {
    fn actions(&self) -> Vec<Action> {
        self.inner().actions()
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Null,
    LibraNp,
    /// Neither profiler nor safeguard: harvested entries are not watched
    /// for the safeguard, so what the visit skips rests on the other terms
    /// of `ControlPlane::watches` and on the engine's memory-grant rule.
    LibraNsp,
    Libra,
    LibraHistogramKeepAlive,
    Freyr,
}

const ALL_KINDS: [Kind; 6] = [
    Kind::Null,
    Kind::LibraNp,
    Kind::LibraNsp,
    Kind::Freyr,
    Kind::Libra,
    Kind::LibraHistogramKeepAlive,
];

/// The kinds without the ML profiler. A profiled run fits its forests
/// afresh, which takes most of a debug build's test time, so those kinds
/// run on part of the larger sweeps only.
const UNPROFILED: &[Kind] = &[Kind::Null, Kind::LibraNp, Kind::LibraNsp, Kind::Freyr];
/// What the chaos sweep runs unprofiled. Libra-NSP is left out: a crashed
/// or aborted attempt of an invocation that had an OOM restart is never
/// admitted to the control plane again (ROADMAP item 11), which its
/// OOM-prone, unsafeguarded runs meet.
const UNPROFILED_UNDER_CHAOS: &[Kind] = &[Kind::Null, Kind::LibraNp, Kind::Freyr];
const PROFILED: &[Kind] = &[Kind::Libra, Kind::LibraHistogramKeepAlive];

/// One cluster, trace and fault plan.
struct Workload {
    name: String,
    nodes: Vec<ResourceVec>,
    funcs: Vec<libra::sim::function::FunctionSpec>,
    config: SimConfig,
    trace: Trace,
    plan: FaultPlan,
}

/// What one run left behind, as text, and what it visited.
struct Run {
    outcome: String,
    visits: u64,
    oversubscribed: u64,
    safeguard_triggers: u64,
}

fn run<P: Traced>(w: &Workload, inner: P, rewatch: bool) -> Run {
    // Traced, so a Libra platform records its actions for the comparison.
    let config = SimConfig { trace: true, ..w.config.clone() };
    let sim = Simulation::new(w.funcs.clone(), w.nodes.clone(), config);
    let mut p = Visits { inner, rewatch, visits: 0, oversubscribed: 0 };
    let r: RunResult = sim.run_with_faults(&w.trace, &mut p, &w.plan);
    let report = p.report();
    Run {
        outcome: format!("{r:#?}\n{report:#?}\n{:#?}", p.inner.actions()),
        visits: p.visits,
        oversubscribed: p.oversubscribed,
        safeguard_triggers: report.safeguard_triggers,
    }
}

/// Run `w` under `kind` without and with re-watching and assert the two
/// outcomes are equal; returns the two runs' visit counts and the
/// re-watching run.
fn compare(w: &Workload, kind: Kind) -> (u64, Run) {
    let both = |rewatch| match kind {
        Kind::Null => run(w, NullPlatform, rewatch),
        Kind::LibraNp => run(w, LibraPlatform::new(LibraConfig::np()), rewatch),
        Kind::LibraNsp => run(w, LibraPlatform::new(LibraConfig::nsp()), rewatch),
        Kind::Libra => run(w, LibraPlatform::new(LibraConfig::libra()), rewatch),
        Kind::LibraHistogramKeepAlive => {
            let inner = LibraPlatform::new(LibraConfig::libra());
            run(w, WithKeepAlive::new(inner, PolicyKind::Histogram.build()), rewatch)
        }
        Kind::Freyr => run(w, Freyr::new(), rewatch),
    };
    let (skipping, all) = (both(false), both(true));
    if skipping.outcome != all.outcome {
        let mut lines = skipping.outcome.lines().zip(all.outcome.lines()).enumerate();
        let (k, (a, b)) = lines.find(|(_, (a, b))| a != b).unwrap_or_default();
        panic!("{} under {kind:?}: skipping visits changed the run at line {k}:\n{a}\n{b}", w.name);
    }
    assert!(skipping.visits <= all.visits, "{} under {kind:?}", w.name);
    (skipping.visits, all)
}

fn paper_workload(name: &str, trace: Trace, nodes: Vec<ResourceVec>) -> Workload {
    Workload {
        name: name.into(),
        nodes,
        funcs: sebs_suite(),
        config: SimConfig::default(),
        trace,
        plan: FaultPlan::empty(),
    }
}

/// Compare each of `kinds` on every workload. Each platform that unwatches
/// (all but Freyr, whose visit never does) must have skipped some visits.
fn compare_all(workloads: &[Workload], kinds: &[Kind]) {
    for &kind in kinds {
        let (mut skipping, mut all) = (0, 0);
        for w in workloads {
            let (visits, every) = compare(w, kind);
            skipping += visits;
            all += every.visits;
        }
        if matches!(kind, Kind::Freyr) {
            assert_eq!(skipping, all, "Freyr never unwatches");
        } else {
            assert!(skipping < all, "{kind:?} skipped nothing: the test lost its teeth");
        }
    }
}

#[test]
fn the_seed_single_workload_runs_the_same_with_every_visit() {
    let trace = TraceGen::standard(&ALL_APPS, 42).single_set();
    compare_all(&[paper_workload("single", trace, testbeds::single_node())], &ALL_KINDS);
}

#[test]
fn the_seed_multi_workload_runs_the_same_with_every_visit() {
    let sets = TraceGen::standard(&ALL_APPS, 42).multi_sets();
    let workloads: Vec<Workload> = sets
        .into_iter()
        .map(|(rpm, t)| paper_workload(&format!("multi {rpm} rpm"), t, testbeds::multi_node()))
        .collect();
    compare_all(&workloads, UNPROFILED);
    // The sets of 60 and 120 requests a minute.
    compare_all(&workloads[5..7], PROFILED);
}

#[test]
fn a_chaos_sweep_runs_the_same_with_every_visit() {
    // Every fault kind: node crashes, aborts, shard stalls, ping drops and
    // delays, tick jitter — on the golden chaos scenario's shape.
    let trace = TraceGen::standard(&ALL_APPS, 42).poisson(200, 120.0);
    let span = trace.entries.last().map(|e| e.at).unwrap_or_default();
    let horizon = SimDuration(span.0) + SimDuration::from_secs(5);
    let shape = ClusterShape { nodes: 4, shards: 4, invocations: trace.len() as u32 };
    let workloads: Vec<Workload> = (0..6u64)
        .map(|seed| {
            let chaos = ChaosConfig {
                node_crashes: 2.0,
                invocation_aborts: 5.0,
                shard_stalls: 1.5,
                ping_drops: 8.0,
                ping_delays: 4.0,
                tick_jitters: 6.0,
                ..ChaosConfig::quiet(1000 + seed, horizon)
            };
            Workload {
                name: format!("chaos seed {}", 1000 + seed),
                nodes: testbeds::multi_node(),
                funcs: sebs_suite(),
                config: SimConfig { shards: 4, ..SimConfig::default() },
                trace: trace.clone(),
                plan: build_plan(&chaos, &shape),
            }
        })
        .collect();
    compare_all(&workloads, UNPROFILED_UNDER_CHAOS);
    compare_all(&workloads[..2], PROFILED);
}

#[test]
fn a_harvest_trace_with_restores_and_oversubscription_runs_the_same_with_every_visit() {
    // `sim_harvest`'s catalogue (400 functions, Zipf popularity), nodes
    // (48 cores, 4 shards) and harvesting (Libra-NP) at 2,000 invocations,
    // with 50 requests a minute a node where it has 20, so that restores
    // land on nodes that admissions filled.
    let tier = HugeTier { invocations: 2_000, rpm: 200.0, nodes: 4, ..HugeTier::standard(42) };
    let w = Workload {
        name: "harvest 2,000".into(),
        nodes: tier.node_caps(),
        funcs: tier.suite(),
        config: SimConfig { shards: tier.shards, ..SimConfig::default() },
        trace: tier.trace(),
        plan: FaultPlan::empty(),
    };
    let (skipping, all) = compare(&w, Kind::LibraNp);
    assert!(all.safeguard_triggers > 0, "no safeguard restore");
    assert!(all.oversubscribed > 0, "no visit met an oversubscribed node");
    assert!(skipping < all.visits, "nothing was skipped: the test lost its teeth");
}
