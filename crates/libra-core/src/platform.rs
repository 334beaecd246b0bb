//! The Libra platform: the simulator *driver* of the shared
//! [`ControlPlane`], plus the parts that
//! are genuinely simulator-side: the profiler (Step 2-4 of Fig 3), the
//! moving-window NP estimator, node selection and the scheduler's pool view.
//!
//! All harvest/accelerate/trim/safeguard/revocation *decisions* live in
//! [`crate::controlplane`]; this driver feeds it events from the engine's
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

use crate::controlplane::{
    Action, Admission, ControlConfig, ControlPlane, LendFailure, Observation,
};
use crate::profiler::{ModelChoice, Profiler, ProfilerConfig};
use crate::scheduler::{CoverageSelector, NodeSelector, SchedView};
use libra_sim::engine::{SimCtx, World};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction, PredictionPath};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::time::SimDuration;
use std::collections::VecDeque;

/// Moving-window length for the NP variant (paper: n = 5).
const NP_WINDOW: usize = 5;

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

/// Moving-window history for the NP variant: keeps the `n` latest actuals
/// and predicts their maxima.
#[derive(Clone, Debug, Default)]
struct Window {
    entries: VecDeque<(u64, u64, SimDuration)>,
    cap: usize,
}

impl Window {
    fn new(cap: usize) -> Self {
        Window { entries: VecDeque::new(), cap }
    }

    fn push(&mut self, cpu: u64, mem: u64, dur: SimDuration) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((cpu, mem, dur));
    }

    fn predict(&self) -> Option<Prediction> {
        if self.entries.is_empty() {
            return None;
        }
        let cpu = self.entries.iter().map(|e| e.0).max().unwrap_or(0).max(100);
        let mem = self.entries.iter().map(|e| e.1).max().unwrap_or(0).max(32);
        let dur = self.entries.iter().map(|e| e.2).max().unwrap_or(SimDuration::ZERO);
        Some(Prediction {
            cpu_millis: cpu,
            mem_mb: mem,
            duration: dur,
            path: PredictionPath::Window,
        })
    }
}

/// The Libra platform over a pluggable node selector: prediction + placement
/// stay here, harvesting policy is delegated to the shared [`ControlPlane`].
pub struct LibraPlatform<S: NodeSelector = CoverageSelector> {
    cfg: LibraConfig,
    selector: S,
    profiler: Option<Profiler>,
    windows: Vec<Window>,
    core: ControlPlane,
    view: SchedView,
    initialized: bool,
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
            profiler: None,
            windows: Vec::new(),
            core,
            view: SchedView::new(),
            initialized: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LibraConfig {
        &self.cfg
    }

    /// Profiler access (None for NP variants).
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
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
        self.profiler = self
            .cfg
            .profiler
            .then(|| Profiler::new(n_funcs, self.cfg.profiler_cfg.clone(), self.cfg.model_choice));
        self.windows = vec![Window::new(NP_WINDOW); n_funcs];
        self.core = ControlPlane::new(self.cfg.control.clone(), n_funcs, world.num_nodes());
        // The control plane records its actions when the run is traced.
        self.core.set_record_trace(world.config.trace);
        self.initialized = true;
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
        debug_assert!(self.initialized, "predict before init");
        let rec = world.inv(inv);
        let f = rec.func.idx();
        match &mut self.profiler {
            Some(p) => {
                if !p.is_trained(f) {
                    // First-seen invocation: serve with user resources while
                    // the duplicator profiles offline (§4.1).
                    p.train(f, world.func(rec.func), rec.input);
                    return None;
                }
                p.predict(f, rec.input)
            }
            None => self.windows[f].predict(),
        }
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

    /// The monitor visit, ending in [`ControlPlane::watches`]: an entry
    /// outside that predicate reads neither the usage sample nor the pool,
    /// so later visits would be no-ops, and is unwatched. Every later change
    /// to the entry is an action, which the engine turns into an allocation
    /// or charge change of the resident (a revocation through its own loan
    /// unwinding), and that watches the resident again.
    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let rec = ctx.inv(inv);
        let Some(node) = rec.node.filter(|_| rec.is_running()) else { return };
        debug_assert_eq!(
            self.core.effective_alloc(inv),
            Some(rec.effective_alloc()),
            "core ledger diverged from engine for {inv:?}"
        );
        let actions = self.core.on_observe_at(node, inv, ctx.now(), || {
            let u = ctx.usage(inv);
            Observation {
                cpu_busy_millis: u.cpu_busy_millis,
                mem_used_mb: u.mem_used_mb,
                cpu_throttled: u.cpu_throttled,
            }
        });
        self.apply(ctx, actions);
        ctx.watch(inv, self.core.watches(node, inv));
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        let rec = ctx.inv(inv);
        let f = rec.func.idx();
        let input = rec.input;
        let actions = self.core.on_complete(inv, ctx.now());
        self.apply(ctx, actions);
        if let Some(p) = &mut self.profiler {
            if p.is_trained(f) {
                p.observe(f, input, actuals);
            }
        }
        self.windows[f].push(actuals.cpu_peak_millis, actuals.mem_peak_mb, actuals.exec_duration);
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
        let (mut cpu, mut mem, mut puts, mut gets) = (0.0, 0.0, 0, 0);
        for p in self.core.pools() {
            let (c, m) = p.idle_ledger();
            cpu += c;
            mem += m;
            let (pu, ge) = p.op_counts();
            puts += pu;
            gets += ge;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::engine::{SimConfig, Simulation};
    use libra_sim::trace::Trace;
    use libra_workloads::trace::TraceGen;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

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
}
