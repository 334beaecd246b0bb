//! `TimedPlatform`: the simulator's layer ledger, taken from outside.
//!
//! Wraps any [`Platform`], forwards every hook unchanged, and records per
//! hook how often the engine called it and how long the call took. Time is
//! aggregated per hook — one span per call would cost more than most calls
//! do. Whatever the engine's wall time is not covered by hook time is the
//! engine's own (`engine.self_s`).

use libra_sim::engine::{SimCtx, World};
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::prelude::InputMeta;
use libra_sim::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// The hooks the engine calls while events are flowing. `name`, `init`,
/// `overheads` and `report` run once per simulation and are forwarded
/// untimed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hook {
    Predict,
    SelectNode,
    OnStart,
    OnTick,
    OnComplete,
    OnLoanEnded,
    OnPing,
    WarmKeep,
    OnOom,
    OnNodeCrash,
    OnAbort,
    PrewarmAfterArrival,
}

impl Hook {
    pub const ALL: [Hook; 12] = [
        Hook::Predict,
        Hook::SelectNode,
        Hook::OnStart,
        Hook::OnTick,
        Hook::OnComplete,
        Hook::OnLoanEnded,
        Hook::OnPing,
        Hook::WarmKeep,
        Hook::OnOom,
        Hook::OnNodeCrash,
        Hook::OnAbort,
        Hook::PrewarmAfterArrival,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Hook::Predict => "predict",
            Hook::SelectNode => "select_node",
            Hook::OnStart => "on_start",
            Hook::OnTick => "on_tick",
            Hook::OnComplete => "on_complete",
            Hook::OnLoanEnded => "on_loan_ended",
            Hook::OnPing => "on_ping",
            Hook::WarmKeep => "warm_keep",
            Hook::OnOom => "on_oom",
            Hook::OnNodeCrash => "on_node_crash",
            Hook::OnAbort => "on_abort",
            Hook::PrewarmAfterArrival => "prewarm_after_arrival",
        }
    }
}

/// Calls and busy time per hook.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HookLedger {
    calls: [u64; Hook::ALL.len()],
    busy: [Duration; Hook::ALL.len()],
}

impl HookLedger {
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    pub fn busy_s(&self, hook: Hook) -> f64 {
        self.busy[hook as usize].as_secs_f64()
    }

    /// Time spent inside the platform, all hooks together.
    pub fn total_busy_s(&self) -> f64 {
        self.busy.iter().map(Duration::as_secs_f64).sum()
    }
}

/// What the profiler was asked, in the order it was asked: enough to replay
/// the run's profiler work against a fresh `Profiler` with nothing else
/// running.
#[derive(Clone, Copy, Debug)]
pub enum ProfilerOp {
    /// `Platform::predict` for an invocation of `func` carrying `input`:
    /// a training run when the function is first seen, a prediction after.
    Arrive { func: usize, input: InputMeta },
    /// `Platform::on_complete`: the online model update.
    Complete { func: usize, input: InputMeta, actuals: Actuals },
}

/// A forwarding [`Platform`] that keeps a [`HookLedger`].
pub struct TimedPlatform<P> {
    inner: P,
    ledger: HookLedger,
    /// `Some` when the profiler's input stream is being captured.
    profiler_ops: Option<Vec<ProfilerOp>>,
}

impl<P: Platform> TimedPlatform<P> {
    pub fn new(inner: P, capture_profiler_ops: bool) -> Self {
        TimedPlatform {
            inner,
            ledger: HookLedger::default(),
            profiler_ops: capture_profiler_ops.then(Vec::new),
        }
    }

    /// The wrapped platform, the ledger, and the captured profiler stream
    /// (empty unless capture was asked for).
    pub fn finish(self) -> (P, HookLedger, Vec<ProfilerOp>) {
        (self.inner, self.ledger, self.profiler_ops.unwrap_or_default())
    }

    fn timed<R>(&mut self, hook: Hook, call: impl FnOnce(&mut P) -> R) -> R {
        let start = Instant::now();
        let out = call(&mut self.inner);
        self.ledger.busy[hook as usize] += start.elapsed();
        self.ledger.calls[hook as usize] += 1;
        out
    }
}

impl<P: Platform> Platform for TimedPlatform<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, world: &World) {
        self.inner.init(world)
    }

    fn overheads(&self) -> PlatformOverheads {
        self.inner.overheads()
    }

    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        if let Some(ops) = &mut self.profiler_ops {
            let rec = world.inv(inv);
            ops.push(ProfilerOp::Arrive { func: rec.func.idx(), input: rec.input });
        }
        self.timed(Hook::Predict, |p| p.predict(world, inv))
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.timed(Hook::SelectNode, |p| p.select_node(world, shard, inv))
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.timed(Hook::OnStart, |p| p.on_start(ctx, inv))
    }

    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.timed(Hook::OnTick, |p| p.on_tick(ctx, inv))
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        if let Some(ops) = &mut self.profiler_ops {
            let rec = ctx.inv(inv);
            ops.push(ProfilerOp::Complete {
                func: rec.func.idx(),
                input: rec.input,
                actuals: *actuals,
            });
        }
        self.timed(Hook::OnComplete, |p| p.on_complete(ctx, inv, actuals))
    }

    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        self.timed(Hook::OnLoanEnded, |p| p.on_loan_ended(ctx, loan, reason))
    }

    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.timed(Hook::OnOom, |p| p.on_oom(ctx, inv))
    }

    fn on_ping(&mut self, world: &World, node: NodeId) {
        self.timed(Hook::OnPing, |p| p.on_ping(world, node))
    }

    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.timed(Hook::OnNodeCrash, |p| p.on_node_crash(ctx, node))
    }

    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.timed(Hook::OnAbort, |p| p.on_abort(ctx, inv))
    }

    fn prewarm_after_arrival(&mut self, world: &World, func: FunctionId) -> Option<SimDuration> {
        self.timed(Hook::PrewarmAfterArrival, |p| p.prewarm_after_arrival(world, func))
    }

    fn warm_keep(&mut self, world: &World, func: FunctionId, idle_peers: usize) -> Option<SimTime> {
        self.timed(Hook::WarmKeep, |p| p.warm_keep(world, func, idle_peers))
    }

    fn report(&self) -> PlatformReport {
        self.inner.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::engine::{NullPlatform, SimConfig, Simulation};
    use libra_sim::fault::{FaultKind, FaultPlan};
    use libra_workloads::{sebs_suite, testbeds, TraceGen, ALL_APPS};
    use std::cell::Cell;

    /// Counts every trait method it is called through, then behaves like
    /// `NullPlatform` — except that it asks for prewarms, so that hook and
    /// the events it causes run too.
    #[derive(Default)]
    struct Counting {
        hooks: [u64; Hook::ALL.len()],
        init: u64,
        name: Cell<u64>,
        overheads: Cell<u64>,
        report: Cell<u64>,
    }

    impl Counting {
        fn count(&mut self, hook: Hook) {
            self.hooks[hook as usize] += 1;
        }
    }

    impl Platform for Counting {
        fn name(&self) -> String {
            self.name.set(self.name.get() + 1);
            "Counting".to_string()
        }
        fn init(&mut self, world: &World) {
            self.init += 1;
            NullPlatform.init(world)
        }
        fn overheads(&self) -> PlatformOverheads {
            self.overheads.set(self.overheads.get() + 1);
            NullPlatform.overheads()
        }
        fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
            self.count(Hook::Predict);
            NullPlatform.predict(world, inv)
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            self.count(Hook::SelectNode);
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.count(Hook::OnStart);
            NullPlatform.on_start(ctx, inv)
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.count(Hook::OnTick);
            NullPlatform.on_tick(ctx, inv)
        }
        fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
            self.count(Hook::OnComplete);
            NullPlatform.on_complete(ctx, inv, actuals)
        }
        fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
            self.count(Hook::OnLoanEnded);
            NullPlatform.on_loan_ended(ctx, loan, reason)
        }
        fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.count(Hook::OnOom);
            NullPlatform.on_oom(ctx, inv)
        }
        fn on_ping(&mut self, world: &World, node: NodeId) {
            self.count(Hook::OnPing);
            NullPlatform.on_ping(world, node)
        }
        fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
            self.count(Hook::OnNodeCrash);
            NullPlatform.on_node_crash(ctx, node)
        }
        fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.count(Hook::OnAbort);
            NullPlatform.on_abort(ctx, inv)
        }
        fn prewarm_after_arrival(&mut self, _: &World, _: FunctionId) -> Option<SimDuration> {
            self.count(Hook::PrewarmAfterArrival);
            Some(SimDuration::from_millis(500))
        }
        fn warm_keep(
            &mut self,
            world: &World,
            func: FunctionId,
            idle_peers: usize,
        ) -> Option<SimTime> {
            self.count(Hook::WarmKeep);
            NullPlatform.warm_keep(world, func, idle_peers)
        }
        fn report(&self) -> PlatformReport {
            self.report.set(self.report.get() + 1);
            PlatformReport { pool_puts: 7, ..PlatformReport::default() }
        }
    }

    #[test]
    fn every_platform_method_is_forwarded_exactly_once_per_call() {
        let trace = TraceGen::standard(&ALL_APPS, 42).poisson(300, 600.0);
        let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), SimConfig::default());
        let mut faults = FaultPlan::empty();
        faults.push(SimTime::from_secs(5), FaultKind::NodeCrash(NodeId(0)));
        faults.push(SimTime::from_secs(9), FaultKind::NodeRecover(NodeId(0)));
        for inv in [40, 80, 120] {
            faults.push(SimTime::from_secs(12), FaultKind::AbortInvocation(InvocationId(inv)));
        }
        let mut timed = TimedPlatform::new(Counting::default(), true);
        let result = sim.run_with_faults(&trace, &mut timed, &faults);
        assert_eq!(result.summary.completed + result.aborted, 300);
        assert_eq!(timed.name(), "Counting");
        assert_eq!(timed.report().pool_puts, 7);

        let (inner, ledger, ops) = timed.finish();
        for hook in Hook::ALL {
            assert_eq!(ledger.calls(hook), inner.hooks[hook as usize], "{}", hook.name());
        }
        for hook in [Hook::Predict, Hook::SelectNode, Hook::OnStart, Hook::OnTick, Hook::OnComplete]
            .into_iter()
            .chain([Hook::OnPing, Hook::WarmKeep, Hook::OnNodeCrash, Hook::OnAbort])
            .chain([Hook::PrewarmAfterArrival])
        {
            assert!(ledger.calls(hook) > 0, "{} never ran: the test lost its teeth", hook.name());
        }
        assert_eq!(inner.init, 1);
        assert!(inner.name.get() >= 1 && inner.overheads.get() >= 1 && inner.report.get() == 1);
        let arrivals = ops.iter().filter(|op| matches!(op, ProfilerOp::Arrive { .. })).count();
        assert_eq!(arrivals as u64, ledger.calls(Hook::Predict));
    }
}
