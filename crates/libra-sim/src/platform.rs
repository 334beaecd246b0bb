//! The platform policy interface.
//!
//! A [`Platform`] is everything above the physical cluster: the front end,
//! profiler, scheduler and per-node resource manager. The engine owns the
//! physics (reservations, loans, execution rates, the timeliness law) and
//! calls back into the platform at each decision point. Libra, OpenWhisk
//! default, and the Freyr stand-in all implement this one trait, so the
//! evaluation compares exactly the component the paper varies.

use crate::engine::{SimCtx, World};
use crate::ids::{FunctionId, InvocationId, NodeId};
use crate::invocation::{Actuals, Loan, Prediction, Wake};
use crate::time::{SimDuration, SimTime};

/// Why a loan ended before (or at) its natural conclusion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum LoanEnd {
    /// The source invocation completed — the timeliness law revoked the
    /// resources (§3.1). The borrower keeps running with what remains.
    SourceCompleted,
    /// The borrower completed first — the resources are available for
    /// re-harvesting until the source completes (§5.1 "Re-harvesting").
    BorrowerCompleted,
    /// The safeguard preemptively released the source's resources (§5.2).
    Safeguard,
    /// The source OOMed and needed its memory back.
    SourceOom,
    /// An injected fault (node crash or invocation abort) destroyed one end
    /// of the loan; nothing can be returned.
    Crashed,
}

/// Per-invocation control-plane overheads a platform charges (Fig 15 stages).
/// The engine adds these to the invocation timeline.
#[derive(Clone, Copy, Debug)]
pub struct PlatformOverheads {
    /// Front-end admission cost, charged to every invocation.
    pub frontend: SimDuration,
    /// Profiler inference cost, charged when `predict` returns `Some`.
    pub profiler: SimDuration,
    /// Harvest-pool bookkeeping cost, charged to every invocation start.
    pub pool: SimDuration,
}

impl Default for PlatformOverheads {
    fn default() -> Self {
        PlatformOverheads {
            frontend: SimDuration::from_millis(1),
            profiler: SimDuration::ZERO,
            pool: SimDuration::ZERO,
        }
    }
}

/// End-of-run self-report from a platform (pool idle ledgers, safeguard
/// counters, component overheads — Figs 10, 14 and §8.10).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct PlatformReport {
    /// Σ over pool entries of idle volume × idle time, CPU (core-seconds).
    pub pool_idle_cpu_core_sec: f64,
    /// Σ over pool entries of idle volume × idle time, memory (MB-seconds).
    pub pool_idle_mem_mb_sec: f64,
    /// Number of safeguard triggers.
    pub safeguard_triggers: u64,
    /// Number of pool `put` operations.
    pub pool_puts: u64,
    /// Number of pool `get` operations.
    pub pool_gets: u64,
    /// Free-form named counters.
    pub extra: Vec<(String, f64)>,
}

/// A serverless resource-management platform under test.
///
/// Hooks that may *change* allocations receive a [`SimCtx`]; read-only hooks
/// receive the [`World`]. Implementations must base decisions only on
/// information a real provider has: input sizes, their own predictions, and
/// usage observations — never on `Invocation::true_demand`.
#[expect(unused_variables, reason = "the default hook bodies are empty")]
pub trait Platform {
    /// Display name, used in reports.
    fn name(&self) -> String;

    /// Called once before the first event, after the world is built.
    fn init(&mut self, world: &World) {}

    /// Control-plane overheads to charge per invocation.
    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads::default()
    }

    /// Profile the arriving invocation (Step 3 of Fig 3). `None` means the
    /// platform has no estimate and the invocation is served as configured.
    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        None
    }

    /// Pick a worker node for `inv` within scheduler `shard` (Step 4).
    /// Returning `None` parks the invocation until capacity is released.
    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId>;

    /// The invocation is about to start executing on its node (Step 5):
    /// harvest its idle share and/or accelerate it from the pool here.
    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {}

    /// Periodic usage observation for a running invocation (the safeguard's
    /// monitor window, §5.2). The node's tick calls it only for residents
    /// whose wake condition holds: each is visited at every tick from its
    /// start and again from every change of its allocation or charge, and
    /// a visit that cannot act leaves ([`SimCtx::watch`]) the earliest
    /// condition — its footprint reaching a line, its node changing, or
    /// [`Wake::NEVER`] — under which the next one could. The default acts
    /// on nothing, so it leaves `NEVER` at once: one visit per attempt.
    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        ctx.watch(inv, Wake::NEVER);
    }

    /// The invocation completed; actual usage is reported back (model
    /// updates, pool cleanup, §4 online updating).
    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {}

    /// A loan involving this platform's bookkeeping ended (timeliness
    /// revocation, re-harvest opportunity, safeguard, OOM).
    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {}

    /// An invocation OOMed and was restarted with its user allocation.
    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {}

    /// A node's periodic health ping fired; harvest-pool status may be
    /// piggybacked to the schedulers here (§6.4).
    fn on_ping(&mut self, world: &World, node: NodeId) {}

    /// A node crashed. The engine has already revoked every loan touching
    /// the node, released resident reservations, and queued the victims for
    /// requeue; the platform should drop any per-node state it keeps (e.g.
    /// sweep the node's harvest pool — its entries are orphans now).
    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {}

    /// One invocation's attempt was killed (node crash sweep or targeted
    /// abort). Fires while the invocation still knows its node, so the
    /// platform can clean per-invocation pool state. A requeue or terminal
    /// abort follows.
    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {}

    /// An invocation of `func` just arrived (warm-lifecycle hook). The
    /// platform may record the arrival for its keep-alive bookkeeping and
    /// optionally direct the engine to *prewarm* a container for `func`
    /// this far in the future (ahead of the predicted next arrival). The
    /// default never prewarms — byte-identical to the pre-policy engine.
    fn prewarm_after_arrival(&mut self, world: &World, func: FunctionId) -> Option<SimDuration> {
        None
    }

    /// A container for `func` is going idle (warm-lifecycle hook);
    /// `idle_peers` containers for the same function already sit idle on
    /// that node. Returns the deadline until which the engine should keep
    /// it warm (pinning its memory), or `None` to tear it down immediately.
    /// The default is the classic fixed window,
    /// [`KEEPALIVE`](crate::container::KEEPALIVE).
    fn warm_keep(&mut self, world: &World, func: FunctionId, idle_peers: usize) -> Option<SimTime> {
        Some(world.now() + crate::container::KEEPALIVE)
    }

    /// End-of-run counters.
    fn report(&self) -> PlatformReport {
        PlatformReport::default()
    }
}
