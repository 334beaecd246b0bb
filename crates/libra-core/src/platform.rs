//! Where libra-core meets the simulator: the one module that names the
//! engine (`World`, `SimCtx`) or its `Platform` trait. It holds
//!
//! * [`LibraPlatform`], the simulator *driver* of the shared
//!   [`ControlPlane`], of Libra's [`DemandEstimator`] (the profiler, or the
//!   NP windows) and of a ping-fed [`SchedView`];
//! * the [`NodeSelector`]s, which ask [`SchedView::place`] (or
//!   [`crate::scheduler::place`] directly) over a simulated `World`'s shard
//!   slices, and [`hash_probe`], the non-accelerable half, which the
//!   baselines share;
//! * [`WithKeepAlive`], which composes a [`KeepAlivePolicy`] with any
//!   simulated platform, one chosen at run time included.
//!
//! It is glue only. All harvest/accelerate/trim/safeguard/revocation
//! *decisions* live in [`crate::controlplane`], demand estimation in
//! [`crate::profiler`], and placement with its §6.4 staleness rule in
//! [`crate::scheduler`]; this driver feeds them events from the engine's
//! hooks and translates the emitted [`Action`]s into `SimCtx` calls. The
//! engine's own loan-end callbacks are treated as cross-checks only — the
//! core re-derives the same revocations from the same events, which is what
//! the differential fidelity test (sim vs live) pins down.
//!
//! The platform is generic over its [`NodeSelector`] so the scheduling
//! comparison of §8.4 (Default hashing, RR, JSQ, MWS vs Libra's coverage
//! greedy) runs "with Libra's function harvesting and acceleration enabled"
//! exactly as in the paper, and its ablations (§8.3) are configuration
//! presets: Libra-NS (no safeguard), Libra-NP (no profiler, moving-window
//! estimates), Libra-NSP (neither).

use crate::controlplane::{Action, Admission, ControlConfig, ControlPlane, LendFailure};
use crate::keepalive::KeepAlivePolicy;
use crate::pool::ledger_totals;
use crate::profiler::{DemandEstimator, ModelChoice, Profiler, ProfilerConfig};
use crate::scheduler::{place, SchedView, ScheduleRequest};
use libra_sim::engine::{SimCtx, World};
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction, Wake};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// Libra configuration (§8.2.3 defaults).
#[derive(Clone, Debug)]
pub struct LibraConfig {
    /// Enable the profiler (off = Libra-NP: moving-window estimates).
    pub profiler: bool,
    /// Demand-coverage CPU weight α (default 0.9).
    pub alpha: f64,
    /// Which model families the profiler may use (Fig 13a ablation).
    pub model_choice: ModelChoice,
    /// Profiler internals.
    pub profiler_cfg: ProfilerConfig,
    /// The harvest policy knobs, handed to the shared control plane as is
    /// (safeguard on/off and threshold, harvest headroom, pool order,
    /// continuous acceleration).
    pub control: ControlConfig,
}

impl Default for LibraConfig {
    fn default() -> Self {
        LibraConfig {
            profiler: true,
            alpha: 0.9,
            model_choice: ModelChoice::Auto,
            profiler_cfg: ProfilerConfig::default(),
            control: ControlConfig::default(),
        }
    }
}

impl LibraConfig {
    /// Full Libra.
    pub fn libra() -> Self {
        Self::default()
    }

    /// Libra-NS: safeguard disabled.
    pub fn ns() -> Self {
        let control = ControlConfig { safeguard: false, ..ControlConfig::default() };
        LibraConfig { control, ..Self::default() }
    }

    /// Libra-NP: profiler replaced by a 5-invocation moving window of maxima.
    pub fn np() -> Self {
        LibraConfig { profiler: false, ..Self::default() }
    }

    /// Libra-NSP: neither safeguard nor profiler.
    pub fn nsp() -> Self {
        LibraConfig { profiler: false, ..Self::ns() }
    }

    /// Variant name for reports.
    pub fn variant_name(&self) -> &'static str {
        match (self.profiler, self.control.safeguard) {
            (true, true) => match self.model_choice {
                ModelChoice::Auto => "Libra",
                ModelChoice::HistogramOnly => "Libra-Hist",
                ModelChoice::MlOnly => "Libra-ML",
            },
            (true, false) => "Libra-NS",
            (false, true) => "Libra-NP",
            (false, false) => "Libra-NSP",
        }
    }
}

/// The Libra platform over a pluggable node selector: prediction + placement
/// stay here, harvesting policy is delegated to the shared [`ControlPlane`].
pub struct LibraPlatform<S: NodeSelector = CoverageSelector> {
    cfg: LibraConfig,
    selector: S,
    estimator: DemandEstimator,
    core: ControlPlane,
    view: SchedView,
    /// Monitor visits (`on_tick` calls) since `init`.
    visits: u64,
}

impl LibraPlatform<CoverageSelector> {
    /// Full Libra with its own coverage-greedy scheduler.
    pub fn new(cfg: LibraConfig) -> Self {
        Self::with_selector(cfg, CoverageSelector)
    }
}

impl<S: NodeSelector> LibraPlatform<S> {
    /// Libra's harvesting stack over a custom node selector (for the §8.4
    /// scheduling-algorithm comparison).
    pub fn with_selector(cfg: LibraConfig, selector: S) -> Self {
        let core = ControlPlane::new(cfg.control.clone(), 0, 0);
        LibraPlatform {
            cfg,
            selector,
            estimator: DemandEstimator::windows(0),
            core,
            view: SchedView::new(),
            visits: 0,
        }
    }

    /// Monitor visits the engine made since the run began: the count a
    /// node's wake conditions keep down.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    /// The shared control plane (ledger, pools, safeguard, action trace).
    pub fn core(&self) -> &ControlPlane {
        &self.core
    }

    /// Translate core actions into engine mutations. `Revoke`/`Requeue` are
    /// no-ops here: the engine enforces those physics itself (at finish,
    /// OOM and crash), and the core re-derives them from the same events —
    /// the actions exist so the live driver (which has no such engine) can
    /// replay them, and so both substrates' traces can be compared.
    fn apply(&mut self, ctx: &mut SimCtx<'_>, actions: Vec<Action>) {
        for a in actions {
            match a {
                // The engine admitted through its own scheduler reservation
                // before `on_admit` ran; the explicit record is for trace
                // consumers and networked drivers.
                Action::Admitted { .. } => {}
                Action::SetGrant { inv, grant, freed } => {
                    ctx.set_own_grant(inv, grant);
                    debug_assert_eq!(
                        ctx.harvestable(inv),
                        freed,
                        "core grant clamp diverged from engine for {inv:?}"
                    );
                }
                Action::Lend { source, borrower, vol } => {
                    if !ctx.lend(source, borrower, vol) {
                        // Stale entry: the engine no longer honours this
                        // source. Resynchronize by dropping it from the pool.
                        let now = ctx.now();
                        self.core.lend_failed(source, borrower, vol, LendFailure::SourceGone, now);
                    }
                }
                Action::Return { borrower, source, vol } => {
                    let returned = ctx.return_loan(borrower, source, vol);
                    debug_assert_eq!(
                        returned, vol,
                        "core loan records diverged from engine for {borrower:?}"
                    );
                }
                Action::PreemptiveRelease { inv, .. } => {
                    let _revoked: Vec<Loan> = ctx.preemptive_release(inv);
                }
                Action::Revoke { .. } | Action::Requeue { .. } => {}
            }
        }
    }
}

impl<S: NodeSelector> Platform for LibraPlatform<S> {
    fn name(&self) -> String {
        format!("{}({})", self.cfg.variant_name(), self.selector.name())
    }

    fn init(&mut self, world: &World) {
        let n_funcs = world.functions().len();
        self.estimator = if self.cfg.profiler {
            let cfg = &self.cfg;
            DemandEstimator::Profiler(Profiler::new(
                n_funcs,
                cfg.profiler_cfg.clone(),
                cfg.model_choice,
            ))
        } else {
            DemandEstimator::windows(n_funcs)
        };
        self.core = ControlPlane::new(self.cfg.control.clone(), n_funcs, world.num_nodes());
        // The control plane records its actions when the run is traced.
        self.core.set_record_trace(world.config.trace);
        self.visits = 0;
    }

    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads {
            frontend: SimDuration(300),
            // "less than 2 ms" prediction overhead (§8.6)
            profiler: SimDuration(1_500),
            pool: SimDuration(200),
        }
    }

    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        let rec = world.inv(inv);
        self.estimator.predict(rec.func.idx(), world.func(rec.func), rec.input)
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.selector.select(world, shard, inv, &self.view, self.cfg.alpha)
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let rec = ctx.inv(inv);
        let Some(node) = rec.node else {
            debug_assert!(false, "on_start without node for {inv:?}");
            return;
        };
        let adm = Admission {
            inv,
            node,
            func: rec.func.idx(),
            nominal: rec.nominal,
            mem_floor_mb: ctx.func_of(inv).mem_floor_mb,
            pred: rec.pred,
        };
        let actions = self.core.on_admit(adm, ctx.now());
        self.apply(ctx, actions);
    }

    /// The monitor visit, ending in the wake condition it leaves. A visit
    /// that emitted nothing leaves [`ControlPlane::watches`]: its trip
    /// footprint and node terms are what the engine can check without a
    /// visit, because throttling and busy CPU move only with the node's
    /// allocations. One that acted saw its sample before its own actions,
    /// which may leave it throttled, so it is visited at the next tick
    /// unless `watches` is `NEVER`. Every later change to the entry is an
    /// action, which the engine turns into an allocation or charge change
    /// of the resident (a revocation through its own loan unwinding), and
    /// that resets the condition to every tick.
    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.visits += 1;
        let rec = ctx.inv(inv);
        let Some(node) = rec.node.filter(|_| rec.is_running()) else { return };
        debug_assert_eq!(
            self.core.effective_alloc(inv),
            Some(rec.effective_alloc()),
            "core ledger diverged from engine for {inv:?}"
        );
        let actions = self.core.on_observe_at(node, inv, ctx.now(), || ctx.usage(inv));
        let acted = !actions.is_empty();
        self.apply(ctx, actions);
        let wake = self.core.watches(node, inv);
        ctx.watch(inv, if acted && wake != Wake::NEVER { Wake::EVERY_TICK } else { wake });
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        let rec = ctx.inv(inv);
        let (f, input) = (rec.func.idx(), rec.input);
        let actions = self.core.on_complete(inv, ctx.now());
        self.apply(ctx, actions);
        self.estimator.observe(f, input, actuals);
    }

    fn on_loan_ended(&mut self, _ctx: &mut SimCtx<'_>, loan: &Loan, _reason: LoanEnd) {
        // The engine announces the physics it enforced; the core re-derives
        // the same revocation from the corresponding event (completion, OOM,
        // abort), so this callback is a cross-check only: at this point the
        // loan must still be on the core's books.
        debug_assert!(
            self.core.has_loan(loan.source, loan.borrower),
            "engine revoked a loan the core does not know: {loan:?}"
        );
    }

    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let actions = self.core.on_oom(inv, ctx.now());
        self.apply(ctx, actions);
    }

    fn on_ping(&mut self, world: &World, node: NodeId) {
        // The piggyback (§6.4): schedulers learn pool status from pings.
        let now = world.now();
        self.core.snapshot_into(node, now, self.view.note_ping(node, now));
    }

    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        let actions = self.core.on_node_crash(node, ctx.now());
        self.apply(ctx, actions);
        self.view.forget(node);
    }

    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        // The attempt's harvestable idle resources die with it.
        let actions = self.core.on_abort(inv, ctx.now());
        self.apply(ctx, actions);
    }

    fn report(&self) -> PlatformReport {
        let (cpu, mem, puts, gets) = ledger_totals(self.core.pools());
        let counters = self.core.counters();
        PlatformReport {
            pool_idle_cpu_core_sec: cpu,
            pool_idle_mem_mb_sec: mem,
            safeguard_triggers: self.core.safeguard().triggers(),
            pool_puts: puts,
            pool_gets: gets,
            extra: vec![
                ("loans_expired".into(), counters.loans_expired as f64),
                ("loans_reharvested".into(), counters.loans_reharvested as f64),
                ("loans_crashed".into(), counters.loans_crashed as f64),
                ("crash_sweeps".into(), counters.crash_sweeps as f64),
            ],
        }
    }
}

/// A pluggable node-selection strategy. Libra's coverage-greedy algorithm,
/// OpenWhisk's hashing, and the RR/JSQ/MWS baselines of §8.4 all implement
/// this; the surrounding platform (profiler + harvesting + safeguard) stays
/// identical, which is how the paper isolates the scheduling comparison.
pub trait NodeSelector: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Pick a node for `inv` within `shard`, or `None` to park it until
    /// capacity frees up.
    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId>;
}

/// What `inv`'s prediction wants beyond its user allocation (§6.3): zero
/// for a non-accelerable invocation, and for an unprofiled one by
/// definition.
fn extra_demand(world: &World, inv: InvocationId) -> ResourceVec {
    let rec = world.inv(inv);
    rec.pred.map_or(ResourceVec::ZERO, |p| p.peak().saturating_sub(&rec.nominal))
}

/// `inv`'s [`ScheduleRequest`] at the world's now, asking `extra` beyond
/// its allocation, and whether node *i*'s `shard` slice fits it: what a
/// placement rule over `0..world.num_nodes()` asks.
fn request_in_world<'w>(
    world: &'w World,
    shard: usize,
    inv: InvocationId,
    extra: ResourceVec,
) -> (ScheduleRequest, impl Fn(usize) -> bool + 'w) {
    let rec = world.inv(inv);
    let req = ScheduleRequest {
        nominal: rec.nominal,
        extra,
        func: rec.func.0,
        duration: rec.pred.map_or(SimDuration::ZERO, |p| p.duration),
        now: world.now(),
    };
    let nominal = rec.nominal;
    (req, move |i| nominal.fits_within(&world.free_in_shard(node_id(i), shard)))
}

/// Node *i* of a rule over `0..world.num_nodes()`, which `World` numbers in
/// u32.
fn node_id(i: usize) -> NodeId {
    NodeId(u32::try_from(i).unwrap_or(u32::MAX))
}

/// Hash with linear probing: the first node (starting at the function's hash
/// home) whose shard slice fits the user allocation. This is both the
/// OpenWhisk default algorithm and Libra's path for non-accelerable
/// invocations — [`place`] with nothing extra to chase.
pub fn hash_probe(world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
    let (req, fits) = request_in_world(world, shard, inv, ResourceVec::ZERO);
    place(&req, 0.0, world.num_nodes(), fits, |_| &[]).map(node_id)
}

/// OpenWhisk's default algorithm as a pluggable selector: pure
/// function-hashing with linear probing for every invocation (baseline 1 of
/// §8.4).
#[derive(Debug, Default)]
pub struct HashSelector;

impl NodeSelector for HashSelector {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        hash_probe(world, shard, inv)
    }
}

/// Libra's scheduler: hashing for non-accelerable invocations, greedy
/// maximum weighted demand coverage for accelerable ones (§6.3).
#[derive(Debug, Default)]
pub struct CoverageSelector;

impl NodeSelector for CoverageSelector {
    fn name(&self) -> &'static str {
        "libra"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId> {
        let (req, fits) = request_in_world(world, shard, inv, extra_demand(world, inv));
        view.place(&req, alpha, world.num_nodes(), fits).map(node_id)
    }
}

/// Timeliness-blind ablation of Libra's scheduler: accelerable invocations
/// chase the node with the largest idle *volume*, ignoring expiries. Exists
/// to quantify how much the time dimension of demand coverage (§6.2) is
/// worth; not part of the paper's system.
#[derive(Debug, Default)]
pub struct VolumeSelector;

impl NodeSelector for VolumeSelector {
    fn name(&self) -> &'static str {
        "volume-only"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        if extra_demand(world, inv).is_zero() {
            return hash_probe(world, shard, inv);
        }
        let rec = world.inv(inv);
        let mut best: Option<(u64, NodeId)> = None;
        for node in world.node_ids() {
            if !rec.nominal.fits_within(&world.free_in_shard(node, shard)) {
                continue;
            }
            let vol: u64 = view.snapshot(node).iter().map(|e| e.cpu_idle_millis).sum();
            if best.is_none_or(|(bv, _)| vol > bv) {
                best = Some((vol, node));
            }
        }
        best.map(|(_, n)| n)
    }
}

/// Wrap any [`Platform`] with a [`KeepAlivePolicy`]: the warm-lifecycle
/// hooks are answered by the policy, everything else forwards to the inner
/// platform. This is how a keep-alive policy composes with *every* platform
/// under test (Default / Freyr / Libra) without each of them learning about
/// container lifecycle. The inner platform is boxed, so
/// `WithKeepAlive<dyn Platform>` wraps one chosen at run time.
pub struct WithKeepAlive<P: ?Sized> {
    inner: Box<P>,
    policy: Box<dyn KeepAlivePolicy>,
}

impl<P: Platform + ?Sized> WithKeepAlive<P> {
    /// Wrap `inner`, delegating warm-lifecycle decisions to `policy`.
    pub fn new(inner: Box<P>, policy: Box<dyn KeepAlivePolicy>) -> Self {
        WithKeepAlive { inner, policy }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The policy in charge.
    pub fn policy(&self) -> &dyn KeepAlivePolicy {
        self.policy.as_ref()
    }
}

impl<P: Platform + ?Sized> Platform for WithKeepAlive<P> {
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
        self.inner.on_tick(ctx, inv);
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        self.policy.on_complete(ctx.inv(inv).func, ctx.now());
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
        // An aborted attempt leaves the in-flight set too. A retried one
        // reports `on_complete` again when it finishes, with no second
        // `on_arrival`: a double count (tests/integration.rs, `#[ignore]`d).
        self.policy.on_complete(ctx.inv(inv).func, ctx.now());
        self.inner.on_abort(ctx, inv);
    }

    fn prewarm_after_arrival(&mut self, world: &World, func: FunctionId) -> Option<SimDuration> {
        self.policy.on_arrival(func, world.now());
        self.policy.prewarm_after(func, world.now())
    }

    fn warm_keep(&mut self, world: &World, func: FunctionId, idle_peers: usize) -> Option<SimTime> {
        self.policy.keep_until(func, idle_peers, world.now())
    }

    fn report(&self) -> PlatformReport {
        self.inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::demand::{ConstantDemand, InputMeta, TrueDemand};
    use libra_sim::engine::{SimConfig, Simulation};
    use libra_sim::function::FunctionSpec;
    use libra_sim::invocation::PredictionPath;
    use libra_sim::trace::Trace;
    use libra_workloads::trace::TraceGen;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};
    use std::sync::Arc;

    fn run_single(cfg: LibraConfig, n: usize) -> (libra_sim::metrics::RunResult, PlatformReport) {
        let gen = TraceGen::standard(&ALL_APPS, 42);
        let full = gen.single_set();
        let mut trace = Trace::new();
        for e in full.entries.into_iter().take(n) {
            trace.entries.push(e);
        }
        let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
        let mut platform = LibraPlatform::new(cfg);
        let res = sim.run(&trace, &mut platform);
        let report = platform.report();
        (res, report)
    }

    #[test]
    fn libra_runs_single_trace_prefix_to_completion() {
        let (res, report) = run_single(LibraConfig::libra(), 60);
        assert_eq!(res.records.len(), 60);
        assert!(report.pool_puts > 0, "harvesting should have happened");
    }

    #[test]
    fn libra_accelerates_some_invocations() {
        let (res, _) = run_single(LibraConfig::libra(), 80);
        let accelerated = res.records.iter().filter(|r| r.flags.accelerated).count();
        assert!(accelerated > 0, "some invocations should borrow harvested resources");
        let positive = res.records.iter().filter(|r| r.speedup > 0.05).count();
        assert!(positive > 0, "acceleration should produce positive speedups");
    }

    #[test]
    fn libra_limits_degradation_with_safeguard() {
        let (res, _) = run_single(LibraConfig::libra(), 80);
        let worst = res.worst_degradation();
        assert!(worst > -0.5, "safeguarded Libra must bound degradation, worst {worst}");
    }

    #[test]
    fn variant_names() {
        assert_eq!(LibraConfig::libra().variant_name(), "Libra");
        assert_eq!(LibraConfig::ns().variant_name(), "Libra-NS");
        assert_eq!(LibraConfig::np().variant_name(), "Libra-NP");
        assert_eq!(LibraConfig::nsp().variant_name(), "Libra-NSP");
    }

    #[test]
    fn np_variant_uses_windows_and_still_completes() {
        let (res, _) = run_single(LibraConfig::np(), 60);
        assert_eq!(res.records.len(), 60);
        let windowed = res
            .records
            .iter()
            .filter(|r| matches!(r.pred.map(|p| p.path), Some(PredictionPath::Window)))
            .count();
        assert!(windowed > 0, "NP must produce window predictions");
    }

    #[test]
    fn full_libra_keeps_no_window_and_np_no_profiler() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        for (cfg, profiled) in [(LibraConfig::libra(), true), (LibraConfig::np(), false)] {
            let mut p = LibraPlatform::new(cfg);
            build_world(1).run(&t, &mut p);
            match &p.estimator {
                DemandEstimator::Profiler(_) => assert!(profiled),
                DemandEstimator::Windows(w) => assert!(!profiled && w.len() == 2),
            }
        }
    }

    #[test]
    fn pool_state_is_clean_after_run() {
        let gen = TraceGen::standard(&ALL_APPS, 7);
        let trace = gen.poisson(50, 120.0);
        let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
        let mut platform = LibraPlatform::new(LibraConfig::libra());
        let _ = sim.run(&trace, &mut platform);
        for p in platform.core().pools() {
            assert!(p.is_empty(), "every entry must be removed by completion");
        }
        assert_eq!(platform.core().ledger_len(), 0, "ledger must drain with the workload");
    }

    /// `LibraPlatform` with one scripted prediction per function; with
    /// `rewatch`, every resident is visited at every tick.
    struct ScriptedLibra {
        inner: LibraPlatform,
        preds: Vec<Prediction>,
        rewatch: bool,
    }

    impl Platform for ScriptedLibra {
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
            self.preds.get(world.inv(inv).func.idx()).copied()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            self.inner.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.inner.on_start(ctx, inv);
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.inner.on_tick(ctx, inv);
            if self.rewatch {
                ctx.watch(inv, Wake::EVERY_TICK);
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
    }

    #[test]
    fn a_visit_that_trims_a_harvested_borrower_is_followed_by_one_at_the_next_tick() {
        // One 7-core node, continuous acceleration off. Donor #0 (4 cores,
        // 10 s) is harvested to one core, and so is donor #1 (4 cores,
        // 20 s); borrower #2 (2 cores, memory harvested to 512 MB, wants 5
        // cores for 20 s) borrows three of #1's. At ≈ 8.3 s #0's footprint
        // reaches its trip line and the safeguard restores it: 10 cores run
        // on 7, so #2 can use 3.5 of its 5 and its visit at that tick trims
        // what it cannot use. That leaves it throttled while harvested, so
        // the safeguard must restore it at the next tick — not at the next
        // change of the node, #0's completion.
        let f = |cores, cpu, mem, secs| {
            let d = TrueDemand {
                cpu_peak_millis: cpu,
                mem_peak_mb: mem,
                base_duration: SimDuration::from_secs(secs),
            };
            FunctionSpec::new(
                "f",
                ResourceVec::from_cores_mb(cores, 1024),
                Arc::new(ConstantDemand(d)),
            )
        };
        let funcs = vec![f(4, 1_000, 480, 10), f(4, 1_000, 128, 20), f(2, 5_000, 200, 20)];
        let pred = |cpu_millis, mem_mb, secs| Prediction {
            cpu_millis,
            mem_mb,
            duration: SimDuration::from_secs(secs),
            path: PredictionPath::Window,
        };
        let preds = vec![pred(1_000, 500, 10), pred(1_000, 1024, 20), pred(5_000, 512, 20)];
        let mut t = Trace::new();
        for (ms, func) in [(0, 0), (1_000, 1), (2_000, 2)] {
            t.push(SimTime::from_millis(ms), FunctionId(func), InputMeta::new(1, 0));
        }
        let cfg = LibraConfig {
            profiler: false,
            control: ControlConfig { continuous_acceleration: false, ..ControlConfig::default() },
            ..LibraConfig::default()
        };
        let mut runs = Vec::new();
        for rewatch in [false, true] {
            let inner = LibraPlatform::new(cfg.clone());
            let mut p = ScriptedLibra { inner, preds: preds.clone(), rewatch };
            let caps = vec![ResourceVec::from_cores_mb(7, 8192)];
            let config = SimConfig { trace: true, ..SimConfig::default() };
            let res = Simulation::new(funcs.clone(), caps, config).run(&t, &mut p);
            let actions = p.inner.core().action_trace().to_vec();
            let at = |want: fn(&Action) -> bool| actions.iter().position(want);
            let trim = at(|a| matches!(a, Action::Return { borrower: InvocationId(2), .. }));
            let trip = at(|a| matches!(a, Action::PreemptiveRelease { inv: InvocationId(2), .. }));
            assert!(trim.is_some() && trim < trip, "rewatch {rewatch}: {actions:?}");
            runs.push(format!("{:#?}\n{actions:#?}", res.records));
        }
        assert_eq!(runs[0], runs[1]);
    }

    fn build_world(nodes: usize) -> Simulation {
        let model = Arc::new(ConstantDemand(TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_secs(1),
        }));
        let funcs = vec![
            FunctionSpec::new("a", ResourceVec::from_cores_mb(2, 512), model.clone()),
            FunctionSpec::new("b", ResourceVec::from_cores_mb(2, 512), model),
        ];
        Simulation::new(
            funcs,
            vec![ResourceVec::from_cores_mb(8, 8192); nodes],
            SimConfig::default(),
        )
    }

    /// Drives arrivals through `select`, recording each answer and what
    /// the invocation wanted beyond its allocation.
    struct Probe<F> {
        pred: Option<Prediction>,
        select: F,
        picks: Vec<(Option<NodeId>, ResourceVec)>,
    }

    impl<F: FnMut(&World, usize, InvocationId) -> Option<NodeId> + Send> Platform for Probe<F> {
        fn name(&self) -> String {
            "probe".into()
        }
        fn predict(&mut self, _w: &World, _i: InvocationId) -> Option<Prediction> {
            self.pred
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let n = (self.select)(world, shard, inv);
            self.picks.push((n, extra_demand(world, inv)));
            n
        }
    }

    fn probe(
        nodes: usize,
        trace: &Trace,
        pred: Option<Prediction>,
        select: impl FnMut(&World, usize, InvocationId) -> Option<NodeId> + Send,
    ) -> Vec<(Option<NodeId>, ResourceVec)> {
        let mut p = Probe { pred, select, picks: Vec::new() };
        build_world(nodes).run(trace, &mut p);
        p.picks
    }

    #[test]
    fn same_function_hashes_to_same_node() {
        let mut t = Trace::new();
        for i in 0..6 {
            t.push(SimTime::from_secs(i * 3), FunctionId(0), InputMeta::new(1, i));
        }
        let view = SchedView::new();
        let picks = probe(4, &t, None, |w, s, i| CoverageSelector.select(w, s, i, &view, 0.9));
        assert_eq!(picks.len(), 6);
        assert!(
            picks.windows(2).all(|w| w[0].0.is_some() && w[0].0 == w[1].0),
            "non-accelerable invocations of one function stay on one node: {picks:?}"
        );
    }

    #[test]
    fn extra_demand_is_the_prediction_beyond_the_allocation() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let pred = Prediction {
            cpu_millis: 4000,
            mem_mb: 128,
            duration: SimDuration::from_secs(1),
            path: PredictionPath::Ml,
        };
        let picks = probe(1, &t, Some(pred), hash_probe);
        assert_eq!(picks[0].1, ResourceVec::new(2000, 0));
        assert_eq!(probe(1, &t, None, hash_probe)[0].1, ResourceVec::ZERO, "unprofiled");
    }

    #[test]
    fn hash_probe_falls_through_full_nodes() {
        // Fill node capacity via long-running invocations, then check probing.
        let mut t = Trace::new();
        // Four 2-core invocations of fn 0 fill its home node's 8-core slice;
        // the fifth must land elsewhere.
        for i in 0..5 {
            t.push(SimTime(i), FunctionId(0), InputMeta::new(1, i));
        }
        let nodes: Vec<_> = probe(2, &t, None, hash_probe).iter().map(|p| p.0).collect();
        let first = nodes[0];
        assert!(first.is_some() && nodes[..4].iter().all(|&n| n == first));
        assert!(
            nodes[4].is_some() && nodes[4] != first,
            "fifth invocation must rehash to the other node"
        );
    }
}
