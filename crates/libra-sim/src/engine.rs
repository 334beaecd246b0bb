//! The discrete-event simulation engine.
//!
//! The engine owns the *physics* of a serverless cluster, every rule a real
//! OpenWhisk deployment would enforce regardless of the resource-management
//! policy on top:
//!
//! * **Admission** — an invocation is reserved nominally (at its user-defined
//!   allocation) inside one scheduler shard's slice of one node; the safety
//!   invariant `Σ granted ≤ Σ nominal ≤ capacity` can never be violated.
//! * **Execution rate** — an invocation accumulates work at
//!   `min(granted cpu, true cpu peak)` millicores, degraded when memory is
//!   user-under-provisioned (the container spills), so granting or revoking
//!   resources immediately stretches or shrinks its remaining time.
//! * **The timeliness law (§3.1)** — when an invocation completes, everything
//!   it lent to others is revoked *at that instant*, no matter what the
//!   policy believes. Policies that ignore timeliness (Freyr) feel this as
//!   surprise revocations; Libra anticipates it.
//! * **OOM** — if harvesting leaves an invocation with less memory than it
//!   actually touches, it is killed and restarted with its full user
//!   allocation (and a cold-start penalty). Harvesting is "treading on thin
//!   ice" (§3.2) precisely because of this rule.
//!
//! Policies ([`Platform`]) only make decisions; they cannot bend physics.

use crate::arena::InvArena;
use crate::event::{Event, EventQueue, EVENT_KINDS};
use crate::fault::{FaultKind, FaultPlan};
use crate::function::FunctionSpec;
use crate::ids::{FunctionId, InvocationId, NodeId};
use crate::invocation::{clamp_grant, exec_rate_millis, oom_kills, oom_wake};
use crate::invocation::{Actuals, InvState, Invocation, Loan, Observation, Wake};
use crate::metrics::{
    InvRecord, KindPops, MetricsMode, RunResult, RunSummary, UtilSample, WorkCount,
};
use crate::node::Node;
use crate::platform::{LoanEnd, Platform, PlatformOverheads};
use crate::resources::{sat_u64, ResourceVec};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEntry};
use crate::trace_spans::{LoanOutcome, LoanSpan, SpanKind, SpanSink};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

/// Safeguard monitor window (usage check interval, §5.2).
const MONITOR_INTERVAL: SimDuration = SimDuration(100_000);
/// Container cold-start delay.
const COLD_START: SimDuration = SimDuration(500_000);
/// Hard ceiling on simulated time; exceeding it aborts with diagnostics
/// (guards against workloads that can never be placed).
const MAX_SIM_TIME: SimDuration = SimDuration(48 * 3600 * 1_000_000);
/// Node health-ping interval (pool status piggyback, §6.4).
const PING_INTERVAL: SimDuration = SimDuration(500_000);
/// Cluster utilization sampling interval (Figs 7, 11).
const SAMPLE_INTERVAL: SimDuration = SimDuration(500_000);
/// Per-known-node part of a scheduler decision's service time, nanoseconds.
const DECISION_PER_NODE_NS: u64 = 2_000;
/// Base re-admission backoff after a crash/abort; doubles per requeue.
const CRASH_BACKOFF: SimDuration = SimDuration(1_000_000);
/// How many times a crash/abort victim is requeued before it is terminally
/// `Aborted` (fault injection only).
const CRASH_MAX_RETRIES: u32 = 3;

/// Engine tuning knobs (cluster-level, not policy-level).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of decentralized scheduler shards (§6.4). 1 = centralized.
    pub shards: usize,
    /// Fixed part of a scheduler decision's service time.
    pub decision_base: SimDuration,
    /// How measurements are aggregated: full record streams (default) or
    /// constant-space online summaries for huge traces.
    pub metrics: MetricsMode,
    /// Record the run's traces: per-attempt execution-timeline spans and
    /// loan lifetimes ([`crate::trace_spans`]), and the platform's own
    /// record of what it decided (a harvesting platform's control-plane
    /// actions). Off by default: a disabled sink costs one branch per stage
    /// transition and zero allocations.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            shards: 1,
            decision_base: SimDuration(300),
            metrics: MetricsMode::Full,
            trace: false,
        }
    }
}

struct Shard {
    /// (invocation, earliest time its decision may complete)
    queue: VecDeque<(InvocationId, SimTime)>,
    busy: Option<(InvocationId, SimTime)>,
    blocked: Vec<InvocationId>,
    retry_pending: bool,
    /// Injected fault: while stalled the shard makes no new decisions.
    stalled: bool,
}

impl Shard {
    fn new() -> Self {
        Shard {
            queue: VecDeque::new(),
            busy: None,
            blocked: Vec::new(),
            retry_pending: false,
            stalled: false,
        }
    }
}

/// The full simulated cluster state. Policies receive `&World` for read-only
/// hooks and a [`SimCtx`] for mutating hooks.
pub struct World {
    /// Current simulated time.
    pub clock: SimTime,
    /// Engine configuration.
    pub config: SimConfig,
    funcs: Vec<FunctionSpec>,
    nodes: Vec<Node>,
    /// In-flight invocations. Completed / terminally aborted ones are
    /// retired, so memory tracks concurrency, not trace length.
    invs: InvArena,
    shards: Vec<Shard>,
    queue: EventQueue,
    records: Vec<InvRecord>,
    util: Vec<UtilSample>,
    summary: RunSummary,
    completed: usize,
    first_arrival: Option<SimTime>,
    last_completion: SimTime,
    decision_delay_sum_us: u64,
    decisions: u64,
    overheads: PlatformOverheads,
    /// Last node+shard each function completed on — the target site for
    /// policy-directed prewarms (a real platform prewarms where the
    /// function's image is already cached).
    last_site: BTreeMap<FunctionId, (NodeId, usize)>,
    /// Containers spun up by prewarm directives (not by arrivals).
    prewarms: u64,
    // Fault-injection state. All of it stays at its zero value in clean runs,
    // so the fault-free path is byte-identical to a build without a plan.
    aborted: usize,
    requeue_total: u64,
    faults_fired: u64,
    drop_pings: Vec<u32>,
    delay_ping: Vec<Option<SimDuration>>,
    /// The nodes an [`Event::PingRound`] pings, in node order: every node
    /// until an injected delay (other than exactly one interval) moves it
    /// onto its own [`Event::HealthPing`] chain.
    ping_round: Vec<NodeId>,
    tick_jitter: Option<SimDuration>,
    /// Per node, the cached [`World::node_running_eff_cpu`] sum; `None` after
    /// anything that can change it, recomputed by the next read. A `Cell`
    /// because reads come through `&World` (policy hooks, `usage`).
    running_eff_cpu: Vec<Cell<Option<u64>>>,
    /// Pops per event kind, split by whether the handler ran or dropped the
    /// event at its staleness check.
    pops_by_kind: [KindPops; EVENT_KINDS],
    /// Monitor ticks that walked their node's residents.
    tick_walks: u64,
    /// Execution-timeline span sink (inert unless `config.trace`).
    spans: SpanSink,
}

impl World {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Deployed function specs.
    pub fn functions(&self) -> &[FunctionSpec] {
        &self.funcs
    }

    /// One function spec.
    pub fn func(&self, f: FunctionId) -> &FunctionSpec {
        &self.funcs[f.idx()]
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// One node.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.idx()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..u32::try_from(self.nodes.len()).unwrap_or(u32::MAX)).map(NodeId)
    }

    /// One invocation record. Panics if the invocation has not arrived yet
    /// or was retired (completed / terminally aborted) — policies only hold
    /// ids of in-flight invocations.
    pub fn inv(&self, i: InvocationId) -> &Invocation {
        self.invs.get(self.slot(i))
    }

    /// Arena slot of a live invocation; panics when absent. Engine paths
    /// that must only ever see live invocations use this.
    #[expect(
        clippy::panic,
        reason = "accessor contract — engine paths resolve ids through slot_of first; a miss here is state-machine corruption and must fail loudly"
    )]
    fn slot(&self, id: InvocationId) -> usize {
        match self.invs.slot_of(id) {
            Some(s) => s,
            None => panic!("{id:?} is not in flight (not yet arrived, or retired)"),
        }
    }

    /// Arena slot of a live invocation, or `None` — the staleness check for
    /// lazy-cancelled events referencing retired invocations.
    fn try_slot(&self, id: InvocationId) -> Option<usize> {
        self.invs.slot_of(id)
    }

    /// Record a finished loan lifetime in the span sink. Inert (one branch,
    /// no allocation) when tracing is off.
    #[inline]
    fn note_loan_end(&mut self, loan: &Loan, outcome: LoanOutcome) {
        if !self.spans.enabled() {
            return;
        }
        // Loans are intra-node; either end still resident names the node.
        let node = self
            .try_slot(loan.source)
            .and_then(|s| self.invs.get(s).node)
            .or_else(|| self.try_slot(loan.borrower).and_then(|s| self.invs.get(s).node))
            .map_or(u32::MAX, |n| n.0);
        let end = self.clock;
        self.spans.record_loan(LoanSpan {
            source: loan.source.0 as u64,
            borrower: loan.borrower.0 as u64,
            node,
            cpu_millis: loan.res.cpu_millis,
            mem_mb: loan.res.mem_mb,
            start_us: loan.created.as_micros(),
            end_us: end.as_micros(),
            outcome,
        });
    }

    /// Free nominal capacity of `node` within `shard`'s slice.
    pub fn free_in_shard(&self, node: NodeId, shard: usize) -> ResourceVec {
        self.nodes[node.idx()].free_in_shard(shard)
    }

    /// Count of warm idle containers for `func` on `node` right now.
    pub fn warm_count(&self, node: NodeId, func: FunctionId) -> usize {
        self.nodes[node.idx()].warm.count_at(func, self.clock)
    }

    /// What cgroups would report for a running invocation now (settles nothing).
    pub fn usage(&self, i: InvocationId) -> Observation {
        let idx = self.slot(i);
        let inv = self.invs.get(idx);
        let eff_cpu = inv.effective_alloc().cpu_millis;
        Observation {
            cpu_busy_millis: self.busy_cpu(inv, eff_cpu),
            mem_used_mb: inv.mem_usage_mb_at(self.clock),
            cpu_throttled: inv.state == InvState::Running
                && inv.true_demand.cpu_peak_millis > eff_cpu,
        }
    }

    /// Total cluster capacity.
    pub fn total_capacity(&self) -> ResourceVec {
        self.nodes.iter().fold(ResourceVec::ZERO, |a, n| a + n.capacity)
    }

    /// Volume of `source`'s entitlement that is currently idle and lendable:
    /// `nominal − own grant − already lent out`. A retired (completed or
    /// aborted) source has nothing left to lend.
    pub fn harvestable(&self, source: InvocationId) -> ResourceVec {
        let Some(idx) = self.try_slot(source) else {
            return ResourceVec::ZERO;
        };
        let inv = self.invs.get(idx);
        inv.nominal.saturating_sub(&inv.own_grant).saturating_sub(&inv.lent_out)
    }

    /// Decision service time for a shard given the current cluster size.
    fn decision_latency(&self) -> SimDuration {
        let per_node = (DECISION_PER_NODE_NS * self.nodes.len() as u64) / 1_000;
        self.config.decision_base + SimDuration(per_node)
    }

    // ---- physics ------------------------------------------------------

    /// Effective work-accumulation rate in millicores (shared physics; the
    /// live runtime uses the same [`exec_rate_millis`]).
    /// `idx` is an arena slot, as in every per-invocation physics helper.
    fn effective_rate(&self, idx: usize) -> u64 {
        let inv = self.invs.get(idx);
        let eff = inv.effective_alloc();
        let usable = inv.node.map_or(eff.cpu_millis, |n| self.usable_cpu(n.idx(), eff.cpu_millis));
        exec_rate_millis(
            usable,
            eff.mem_mb,
            inv.true_demand.cpu_peak_millis,
            inv.true_demand.mem_peak_mb,
            inv.nominal.mem_mb,
        )
    }

    /// End a run segment, only before a change of allocation, rate or
    /// lifecycle state: [`Invocation::settle`] at `self.clock`, raise the
    /// observed CPU peak to the segment's busy CPU (constant on a segment,
    /// so this is the one observation it needs), and visit the resident at
    /// every tick again — the change may give its platform's visit
    /// something to do.
    fn update_progress(&mut self, idx: usize) {
        let inv = self.invs.get(idx);
        let busy = self.busy_cpu(inv, inv.effective_alloc().cpu_millis);
        let inv = self.invs.get_mut(idx);
        inv.settle(self.clock);
        inv.cpu_peak_obs = inv.cpu_peak_obs.max(busy);
        self.set_wake(idx, Wake::EVERY_TICK);
    }

    /// The one writer of [`Invocation::wake`] and of `Node::watched`, the
    /// count of a node's residents whose wake is not [`Wake::NEVER`]; it
    /// stamps the node's generation for a node wait and bounds when the
    /// footprint line can first hold ([`World::bound_wake`]). Only a
    /// resident (cold-starting or running) changes, so a non-resident's
    /// wake stays `NEVER`: `resident_remove` sets it, and each attempt's
    /// start, which settles, sets `EVERY_TICK`.
    fn set_wake(&mut self, idx: usize, wake: Wake) {
        let inv = self.invs.get_mut(idx);
        let resident = matches!(inv.state, InvState::ColdStarting | InvState::Running);
        let Some(node) = inv.node.filter(|_| resident) else { return };
        let node = &mut self.nodes[node.idx()];
        let (was, on) = (inv.wake != Wake::NEVER, wake != Wake::NEVER);
        inv.wake = wake;
        inv.wake_gen = node.generation;
        if was != on {
            node.watched = if on { node.watched + 1 } else { node.watched - 1 };
        }
        self.bound_wake(idx);
    }

    /// Bound, from its run as it stands, when resident `idx`'s footprint
    /// line can first hold (`Invocation::wake_from`), and lower its node's
    /// `next_wake` to that bound. `set_wake` calls it, and so does every
    /// rate move: a wake its platform left after the settle (`SimCtx::watch`
    /// in a hook) was bounded on the old rate.
    fn bound_wake(&mut self, idx: usize) {
        let inv = self.invs.get_mut(idx);
        inv.wake_from = inv.footprint_wake_from();
        if let Some(node) = inv.node {
            let next = &mut self.nodes[node.idx()].next_wake;
            *next = (*next).min(inv.wake_from);
        }
    }

    /// Re-rate the run — 0 unless running — and, if the rate moved,
    /// (re)schedule its Finish. Call after every allocation change,
    /// `update_progress` first (with the *old* allocation). At an unchanged
    /// rate the armed `Finish` stands: it is still at the right instant.
    fn reschedule_finish(&mut self, idx: usize) {
        let running = self.invs.get(idx).state == InvState::Running;
        let rate = if running { self.effective_rate(idx) } else { 0 };
        let inv = self.invs.get_mut(idx);
        let moved = inv.run.rerate(self.clock, rate);
        if moved {
            self.bound_wake(idx);
        }
        let inv = self.invs.get_mut(idx);
        if !running || (inv.finish_armed && !moved) {
            return;
        }
        let Some(at) = inv.run.due(self.clock) else { return };
        inv.finish_gen += 1;
        inv.finish_armed = true;
        let (id, generation) = (inv.id, inv.finish_gen);
        self.queue.push(at, Event::Finish { inv: id, generation });
    }

    /// Σ effective CPU allocation of *running* invocations on a node, in
    /// O(1): the sum is cached per node and recomputed — by walking the
    /// node's residents — only on the first read after something that can
    /// change it ([`World::invalidate_running_cpu`] names those places).
    /// Debug builds re-walk on every read and assert the cache agrees;
    /// [`World::check_invariants`] checks it in every build.
    fn node_running_eff_cpu(&self, node_idx: usize) -> u64 {
        let cache = &self.running_eff_cpu[node_idx];
        if let Some(total) = cache.get() {
            debug_assert_eq!(
                total,
                self.walk_running_eff_cpu(node_idx),
                "stale running-CPU cache on node {node_idx}"
            );
            return total;
        }
        let total = self.walk_running_eff_cpu(node_idx);
        cache.set(Some(total));
        total
    }

    /// Forget `node_idx`'s cached running-CPU sum, and bump the node's
    /// generation: the node has changed for a resident waiting on it, so
    /// its next tick walks.
    /// Everything that can change the sum — an allocation change, a resident
    /// entering `Running`, leaving it or being removed — happens inside
    /// `with_alloc_change`, which calls this once the mutation is done; the
    /// two other callers are mutations a policy hook reads behind before
    /// that: the `Running` flip of `on_start_exec` (`on_start` follows) and
    /// `end_loans` dropping the loans a resident held.
    fn invalidate_running_cpu(&mut self, node_idx: usize) {
        self.running_eff_cpu[node_idx].set(None);
        let node = &mut self.nodes[node_idx];
        node.generation += 1;
        node.next_wake = SimTime::ZERO;
    }

    /// [`World::node_running_eff_cpu`] computed from the resident slots.
    fn walk_running_eff_cpu(&self, node_idx: usize) -> u64 {
        self.nodes[node_idx]
            .residents
            .iter()
            .map(|&s| self.invs.get(s as usize))
            .filter(|inv| inv.state == InvState::Running)
            .map(|inv| inv.effective_alloc().cpu_millis)
            .sum()
    }

    /// Remove arena slot `idx` from `node_idx`'s residents, keeping everyone
    /// else's admission order (the crash sweep, the node tick's visit order
    /// and the Finish tie-break all depend on it). Call while it is still
    /// cold-starting or running, so its wake leaves the node's count.
    fn resident_remove(&mut self, node_idx: usize, idx: usize) {
        self.set_wake(idx, Wake::NEVER);
        let residents = &mut self.nodes[node_idx].residents;
        match residents.iter().position(|&s| s as usize == idx) {
            Some(k) => {
                residents.remove(k);
            }
            None => debug_assert!(false, "slot {idx} is not resident on node {node_idx}"),
        }
    }

    /// Proportional-share CPU scale for a node: 1.0 while allocations fit;
    /// `capacity / Σ allocations` when a safeguard/OOM restore transiently
    /// oversubscribed it (the kernel's fair-share behaviour). O(1): every
    /// observation asks, and the sum is cached (see `node_running_eff_cpu`).
    pub fn node_cpu_scale(&self, node_idx: usize) -> f64 {
        let total = self.node_running_eff_cpu(node_idx);
        let cap = self.nodes[node_idx].capacity.cpu_millis;
        if total <= cap {
            1.0
        } else {
            cap as f64 / total as f64
        }
    }

    /// Busy millicores of `inv`, whose effective CPU is `eff_cpu`, right now
    /// (CPU-share scaled).
    fn busy_cpu(&self, inv: &Invocation, eff_cpu: u64) -> u64 {
        match inv.node {
            Some(n) if inv.state == InvState::Running => {
                self.usable_cpu(n.idx(), eff_cpu).min(inv.true_demand.cpu_peak_millis)
            }
            _ => 0,
        }
    }

    /// Millicores a resident of `node_idx` allocated `eff_cpu` can use: all
    /// of them while the node's running allocations fit its capacity, its
    /// [`World::node_cpu_scale`] share while oversubscribed. The first case
    /// skips the float round trip, which is exact there: `eff_cpu ≤ capacity
    /// < 2^53`, so `eff_cpu as f64 * 1.0` converts back to `eff_cpu`.
    fn usable_cpu(&self, node_idx: usize, eff_cpu: u64) -> u64 {
        if self.node_running_eff_cpu(node_idx) <= self.nodes[node_idx].capacity.cpu_millis {
            eff_cpu
        } else {
            sat_u64(eff_cpu as f64 * self.node_cpu_scale(node_idx))
        }
    }

    /// Run a mutation of a node's running set — an allocation change, a
    /// resident entering or leaving `Running` — with correct progress
    /// accounting: touched invocations are settled first; if CPU ends up (or
    /// was) oversubscribed, every resident's rate is recomputed, otherwise
    /// only the touched ones. If `f` reads the cached CPU sum after changing
    /// what it sums (through a hook, say), it invalidates first.
    fn with_alloc_change(
        &mut self,
        node_idx: usize,
        touched: &[usize],
        f: impl FnOnce(&mut World),
    ) {
        let pre = self.node_cpu_scale(node_idx);
        for &i in touched {
            self.update_progress(i);
        }
        f(self);
        self.invalidate_running_cpu(node_idx);
        let post = self.node_cpu_scale(node_idx);
        if pre < 1.0 || post < 1.0 {
            // Neither call admits or removes a resident, and settling one
            // moves no other's rate.
            for k in 0..self.nodes[node_idx].residents.len() {
                let idx = self.nodes[node_idx].residents[k] as usize;
                if self.invs.get(idx).state == InvState::Running {
                    self.update_progress(idx);
                    self.reschedule_finish(idx);
                }
            }
        } else {
            for &i in touched {
                self.reschedule_finish(i);
            }
        }
    }

    /// Reconcile node reservation bookkeeping after an invocation's charge
    /// (own grant + lent out) changed, visit it at every tick again (a
    /// source whose `lent_out` moved is not settled, yet its platform's
    /// visit may now have something to do), and wake parked invocations
    /// when the change freed capacity.
    ///
    /// It leaves the node's generation alone. A charge moves only with an
    /// allocation: a grant, a loan made, returned or revoked, or a loan
    /// dropped by a dying borrower. Every caller runs inside
    /// `with_alloc_change` or right after `end_loans` has dropped loans,
    /// and both bump the generation. So a harvest pool that a charge change
    /// refills (a loan given back to its source's entry) was refilled at a
    /// change of its node, and its node's waiting borrowers wake.
    fn reconcile_charge(&mut self, idx: usize, old: ResourceVec) {
        let new = self.invs.get(idx).charge();
        if new == old {
            return;
        }
        self.set_wake(idx, Wake::EVERY_TICK);
        let inv = self.invs.get(idx);
        let (Some(node), Some(shard)) = (inv.node, inv.shard) else {
            return;
        };
        self.nodes[node.idx()].rebook(shard, old, new);
        if !old.fits_within(&new) {
            // Charge shrank in some dimension: parked invocations may fit now.
            self.wake_blocked();
        }
    }

    /// Arm the ping round at `at` for the nodes still in it; once every
    /// node has left for its own chain there is no round.
    fn push_ping_round(&mut self, at: SimTime) {
        if !self.ping_round.is_empty() {
            let members = u32::try_from(self.ping_round.len()).unwrap_or(u32::MAX);
            self.queue.push(at, Event::PingRound { members });
        }
    }

    /// Capacity may have been freed: give every shard's parked invocations
    /// one retry at the current instant.
    fn wake_blocked(&mut self) {
        for s in 0..self.shards.len() {
            if !self.shards[s].blocked.is_empty() && !self.shards[s].retry_pending {
                self.shards[s].retry_pending = true;
                self.queue.push(
                    self.clock,
                    Event::RetryBlocked { shard: u32::try_from(s).unwrap_or(u32::MAX) },
                );
            }
        }
    }

    /// Charge the interval since invocation `idx`'s stage cursor to the
    /// stage its *current* state was spending it in (see
    /// [`StageCursor::leave`](crate::invocation::StageCursor::leave)). Call
    /// at a lifecycle transition, before the state changes.
    fn leave_stage(&mut self, idx: usize) {
        let inv = self.invs.get_mut(idx);
        inv.stage.leave(inv.state, self.clock, inv.requeues, &mut self.spans);
    }

    /// Pre-charge a fixed overhead ending at `to` (possibly ahead of the
    /// clock) to `kind` for invocation `idx`.
    fn advance_stage(&mut self, idx: usize, kind: SpanKind, to: SimTime) {
        let inv = self.invs.get_mut(idx);
        inv.stage.advance(kind, to, inv.requeues, &mut self.spans);
    }

    /// Cross-check every conservation invariant. Called by tests and (in
    /// debug builds) at each completion.
    pub fn check_invariants(&self) -> Result<(), String> {
        // The resident vectors hold exactly the placed (cold-starting or
        // running) invocations, each once, on its own node.
        let placed =
            |inv: &Invocation| matches!(inv.state, InvState::ColdStarting | InvState::Running);
        let mut resident_on: Vec<Option<NodeId>> = vec![None; self.invs.slot_count()];
        for node in &self.nodes {
            for &s in &node.residents {
                let slot = s as usize;
                let Some(inv) = self.invs.at(slot) else {
                    return Err(format!("{:?} holds free arena slot {slot}", node.id));
                };
                if let Some(first) = resident_on[slot].replace(node.id) {
                    return Err(format!(
                        "{:?} resident on {first:?}, then on {:?}",
                        inv.id, node.id
                    ));
                }
                if inv.node != Some(node.id) || !placed(inv) {
                    return Err(format!(
                        "{:?} ({:?}, placed on {:?}) is resident on {:?}",
                        inv.id, inv.state, inv.node, node.id
                    ));
                }
            }
        }
        // Every resident is placed and distinct, so equal counts leave no
        // placed invocation out.
        let n_placed = self.invs.live_slots().filter(|&s| placed(self.invs.get(s))).count();
        let n_resident = resident_on.iter().flatten().count();
        if n_placed != n_resident {
            return Err(format!("{n_placed} invocations are placed, {n_resident} resident"));
        }
        // A node counts its watched residents, those whose wake is not
        // `NEVER`; nothing else is watched.
        let watched = |inv: &Invocation| inv.wake != Wake::NEVER;
        for node in &self.nodes {
            let flagged =
                node.residents.iter().filter(|&&s| watched(self.invs.get(s as usize))).count();
            if node.watched as usize != flagged {
                return Err(format!(
                    "{:?} counts {} watched residents, {flagged} are flagged",
                    node.id, node.watched
                ));
            }
        }
        if let Some(s) = self.invs.live_slots().find(|&s| {
            let inv = self.invs.get(s);
            watched(inv) && !placed(inv)
        }) {
            return Err(format!("{:?} is watched but not resident", self.invs.get(s).id));
        }
        for node in &self.nodes {
            // Reservations must equal the residents' charges exactly. (They
            // may transiently exceed the slice after a safeguard/OOM restore
            // — that is by design; the proportional CPU scale absorbs it.)
            let mut per_shard = vec![ResourceVec::ZERO; node.shards()];
            for &s in &node.residents {
                let inv = self.invs.get(s as usize);
                per_shard[inv.shard.ok_or("resident without shard")?] += inv.charge();
            }
            let node_idx = node.id.idx();
            if let Some(cached) = self.running_eff_cpu[node_idx].get() {
                let walked = self.walk_running_eff_cpu(node_idx);
                if cached != walked {
                    return Err(format!(
                        "{:?} running-CPU cache drift: cached {cached}, residents sum to {walked}",
                        node.id
                    ));
                }
            }
            for (s, want) in per_shard.iter().enumerate() {
                let got = node.slice(s).reserved();
                if got != *want {
                    return Err(format!(
                        "{:?} shard {s} reservation drift: booked {:?}, residents charge {:?}",
                        node.id, got, want
                    ));
                }
            }
        }
        // Per-source loan conservation: lent_out must equal the sum of loans
        // recorded by borrowers. Only live invocations can hold or grant
        // loans (both ends are unwound before retirement).
        let mut lent_by_source: BTreeMap<u32, ResourceVec> = BTreeMap::new();
        for slot in self.invs.live_slots() {
            for l in &self.invs.get(slot).borrowed_in {
                *lent_by_source.entry(l.source.0).or_insert(ResourceVec::ZERO) += l.res;
            }
        }
        for slot in self.invs.live_slots() {
            let inv = self.invs.get(slot);
            if inv.state != InvState::Running && inv.run.rate_millis != 0 {
                return Err(format!("{:?} accrues while {:?}", inv.id, inv.state));
            }
            let recorded = lent_by_source.get(&inv.id.0).copied().unwrap_or(ResourceVec::ZERO);
            if recorded != inv.lent_out {
                return Err(format!(
                    "{:?} lent_out {:?} disagrees with borrowers' records {:?}",
                    inv.id, inv.lent_out, recorded
                ));
            }
            let committed = inv.own_grant + inv.lent_out;
            if !committed.fits_within(&inv.nominal) {
                return Err(format!(
                    "{:?} grant {:?} + lent {:?} exceeds nominal {:?}",
                    inv.id, inv.own_grant, inv.lent_out, inv.nominal
                ));
            }
            for loan in &inv.borrowed_in {
                let Some(sslot) = self.invs.slot_of(loan.source) else {
                    return Err(format!("{:?} holds loan from retired {:?}", inv.id, loan.source));
                };
                let src = self.invs.get(sslot);
                if src.state != InvState::Running {
                    return Err(format!("{:?} holds loan from non-running {:?}", inv.id, src.id));
                }
                if src.node != inv.node {
                    return Err(format!("cross-node loan {:?} -> {:?}", src.id, inv.id));
                }
            }
        }
        // Stage-cursor conservation, at any instant (`StageCursor::check`).
        for slot in self.invs.live_slots() {
            let inv = self.invs.get(slot);
            inv.stage.check(inv.arrival).map_err(|why| format!("{:?} {why}", inv.id))?;
        }
        Ok(())
    }
}

/// Mutating handle handed to policy hooks. Every operation keeps the physics
/// consistent (progress accounting, finish rescheduling, invariants).
pub struct SimCtx<'a> {
    w: &'a mut World,
}

impl<'a> SimCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.w.clock
    }

    /// Read-only view of the world.
    pub fn world(&self) -> &World {
        self.w
    }

    /// One invocation record.
    pub fn inv(&self, i: InvocationId) -> &Invocation {
        self.w.inv(i)
    }

    /// The spec of the invoked function.
    pub fn func_of(&self, i: InvocationId) -> &FunctionSpec {
        self.w.func(self.w.inv(i).func)
    }

    /// Usage observation (what cgroups would report).
    pub fn usage(&self, i: InvocationId) -> Observation {
        self.w.usage(i)
    }

    /// Idle lendable volume of `source` (see [`World::harvestable`]).
    pub fn harvestable(&self, source: InvocationId) -> ResourceVec {
        self.w.harvestable(source)
    }

    /// Leave the condition on which the node's monitor tick next visits
    /// resident `i`: a platform leaves the earliest one at which its visit
    /// could act; the engine resets it to [`Wake::EVERY_TICK`] at the next
    /// change of `i`'s allocation or charge. The visit also applies the OOM
    /// rule, so while `i`'s footprint can outgrow the memory it has within
    /// its nominal, the footprint one past that memory wakes it too.
    /// Ignored for an invocation that is not resident.
    pub fn watch(&mut self, i: InvocationId, wake: Wake) {
        let Some(idx) = self.w.try_slot(i) else { return };
        let inv = self.w.invs.get(idx);
        let have = inv.effective_alloc().mem_mb;
        let oom = oom_wake(inv.true_demand.mem_peak_mb, inv.nominal.mem_mb, have);
        self.w.set_wake(idx, wake.or(oom));
    }

    /// Set how much of its own entitlement `inv` keeps (the *harvest*
    /// operation when below nominal). Clamps to `[floor, nominal − lent]`:
    /// the engine enforces the OOM memory floor of §5.1 and never lets a
    /// grant cut into resources already on loan.
    pub fn set_own_grant(&mut self, i: InvocationId, want: ResourceVec) {
        let idx = self.w.slot(i);
        let Some(node) = self.w.invs.get(idx).node else {
            debug_assert!(false, "set_own_grant before placement for {i:?}");
            return;
        };
        let node = node.idx();
        let floor_mb = self.w.func(self.w.invs.get(idx).func).mem_floor_mb;
        self.w.with_alloc_change(node, &[idx], |w| {
            let inv = w.invs.get_mut(idx);
            assert!(
                matches!(inv.state, InvState::Running | InvState::ColdStarting),
                "set_own_grant on {:?} in state {:?}",
                i,
                inv.state
            );
            let old = inv.charge();
            let ceiling = inv.nominal.saturating_sub(&inv.lent_out);
            let g = clamp_grant(want, ceiling, floor_mb);
            inv.own_grant = g;
            if g.cpu_millis < inv.nominal.cpu_millis || g.mem_mb < inv.nominal.mem_mb {
                inv.flags.harvested = true;
            }
            w.reconcile_charge(idx, old);
        });
    }

    /// Lend `res` of `source`'s idle entitlement to `borrower` (the
    /// *reassignment* of Fig 4). Returns `false` (and does nothing) if the
    /// volume is not actually available or the two run on different nodes.
    pub fn lend(&mut self, source: InvocationId, borrower: InvocationId, res: ResourceVec) -> bool {
        if res.is_zero() || source == borrower {
            return false;
        }
        // A retired end means the loan target is gone — same answer the old
        // state checks gave for completed invocations.
        let (Some(si), Some(bi)) = (self.w.try_slot(source), self.w.try_slot(borrower)) else {
            return false;
        };
        if self.w.invs.get(si).node != self.w.invs.get(bi).node
            || self.w.invs.get(si).node.is_none()
        {
            return false;
        }
        if self.w.invs.get(si).state != InvState::Running
            || self.w.invs.get(bi).state != InvState::Running
        {
            return false;
        }
        if !res.fits_within(&self.w.harvestable(source)) {
            return false;
        }
        // Lending re-commits previously harvested (uncommitted) volume, so
        // it must still fit the node: admission may have consumed it.
        let (Some(node), Some(shard)) = (self.w.invs.get(si).node, self.w.invs.get(si).shard)
        else {
            debug_assert!(false, "running {source:?} without placement");
            return false;
        };
        let node = node.idx();
        if !res.fits_within(&self.w.nodes[node].free_in_shard(shard)) {
            return false;
        }
        let now = self.w.clock;
        self.w.with_alloc_change(node, &[bi], |w| {
            let loan = Loan { source, borrower, res, created: now };
            let old = w.invs.get(si).charge();
            w.invs.get_mut(si).lent_out += res;
            w.invs.get_mut(bi).borrowed_in.push(loan);
            w.invs.get_mut(bi).flags.accelerated = true;
            w.reconcile_charge(si, old);
        });
        true
    }

    /// Return part (or all) of what `borrower` borrowed from `source`. The
    /// volume is clamped to the outstanding loan; returns the volume actually
    /// given back (zero if no such loan exists). The policy is responsible
    /// for re-pooling it (re-harvesting, §5.1).
    pub fn return_loan(
        &mut self,
        borrower: InvocationId,
        source: InvocationId,
        res: ResourceVec,
    ) -> ResourceVec {
        let Some(bi) = self.w.try_slot(borrower) else {
            return ResourceVec::ZERO;
        };
        let Some(node) = self.w.invs.get(bi).node.map(|n| n.idx()) else {
            return ResourceVec::ZERO;
        };
        let mut returned = ResourceVec::ZERO;
        self.w.with_alloc_change(node, &[bi], |w| {
            let mut remaining = res;
            let mut closed: Vec<Loan> = Vec::new();
            for loan in w.invs.get_mut(bi).borrowed_in.iter_mut() {
                if loan.source != source || remaining.is_zero() {
                    continue;
                }
                let take = loan.res.min(&remaining);
                loan.res -= take;
                remaining -= take;
                returned += take;
                if loan.res.is_zero() {
                    // Fully paid back: close its lifetime span. (Partial
                    // returns keep the loan — and its span — open.)
                    closed.push(Loan { res: take, ..*loan });
                }
            }
            for loan in &closed {
                w.note_loan_end(loan, LoanOutcome::Returned);
            }
            w.invs.get_mut(bi).borrowed_in.retain(|l| !l.res.is_zero());
            // A live borrower can only hold loans from live sources, so the
            // slot exists whenever anything was actually returned.
            if let Some(si) = w.try_slot(source) {
                let old = w.invs.get(si).charge();
                w.invs.get_mut(si).lent_out -= returned;
                w.reconcile_charge(si, old);
            } else {
                debug_assert!(returned.is_zero(), "returned volume to a retired source");
            }
        });
        returned
    }

    /// Preemptively release everything harvested from `source` (§5.2): all
    /// outgoing loans are revoked and its own grant is restored to nominal.
    /// Returns the revoked loans so the policy can fix up its pool
    /// bookkeeping synchronously.
    pub fn preemptive_release(&mut self, source: InvocationId) -> Vec<Loan> {
        let broken = self.revoke_loans_from(source);
        for loan in &broken {
            self.w.note_loan_end(loan, LoanOutcome::Revoked(LoanEnd::Safeguard));
        }
        let Some(si) = self.w.try_slot(source) else {
            return broken;
        };
        let Some(node) = self.w.invs.get(si).node.map(|n| n.idx()) else {
            return broken;
        };
        self.w.with_alloc_change(node, &[si], |w| {
            let old = w.invs.get(si).charge();
            let inv = w.invs.get_mut(si);
            inv.own_grant = inv.nominal;
            inv.flags.safeguarded = true;
            w.reconcile_charge(si, old);
        });
        broken
    }

    /// Revoke every outgoing loan of `source` without touching its grant.
    /// Used internally and by `preemptive_release`.
    pub(crate) fn revoke_loans_from(&mut self, source: InvocationId) -> Vec<Loan> {
        let Some(si) = self.w.try_slot(source) else {
            return Vec::new(); // retired sources had their loans unwound already
        };
        let Some(node) = self.w.invs.get(si).node.map(|n| n.idx()) else {
            // Loans require a running (hence placed) source.
            debug_assert!(self
                .w
                .invs
                .live_slots()
                .all(|s| { self.w.invs.get(s).borrowed_in.iter().all(|l| l.source != source) }));
            return Vec::new();
        };
        // Loans are intra-node, so every borrower lives on the source's node:
        // walk its residents instead of scanning the whole arena. The old
        // implementation collected in ascending-borrower-id order; a stable
        // sort by borrower id reproduces that byte-for-byte (per-borrower
        // loan order is `borrowed_in` order either way).
        let mut borrowers: Vec<Loan> = Vec::new();
        for &s in &self.w.nodes[node].residents {
            let inv = self.w.invs.get(s as usize);
            borrowers.extend(inv.borrowed_in.iter().filter(|l| l.source == source));
        }
        borrowers.sort_by_key(|l| l.borrower.0);
        let touched: Vec<usize> = borrowers.iter().map(|l| self.w.slot(l.borrower)).collect();
        self.w.with_alloc_change(node, &touched, |w| {
            for loan in &borrowers {
                let bi = w.slot(loan.borrower);
                w.invs.get_mut(bi).borrowed_in.retain(|l| l.source != source);
            }
            let old = w.invs.get(si).charge();
            w.invs.get_mut(si).lent_out = ResourceVec::ZERO;
            w.reconcile_charge(si, old);
        });
        borrowers
    }
}

/// A buildable, runnable simulated cluster.
pub struct Simulation {
    world: World,
}

impl Simulation {
    /// Build a cluster: deployed functions, one capacity per node, config.
    pub fn new(funcs: Vec<FunctionSpec>, node_caps: Vec<ResourceVec>, config: SimConfig) -> Self {
        assert!(config.shards > 0, "need at least one scheduler shard");
        assert!(!node_caps.is_empty(), "need at least one worker node");
        let running_eff_cpu = vec![Cell::new(None); node_caps.len()];
        let nodes = node_caps
            .into_iter()
            .enumerate()
            .map(|(i, cap)| {
                Node::new(NodeId(u32::try_from(i).unwrap_or(u32::MAX)), cap, config.shards)
            })
            .collect();
        let shards = (0..config.shards).map(|_| Shard::new()).collect();
        Simulation {
            world: World {
                clock: SimTime::ZERO,
                funcs,
                nodes,
                invs: InvArena::with_id_capacity(0),
                shards,
                queue: EventQueue::new(),
                records: Vec::new(),
                util: Vec::new(),
                summary: RunSummary::default(),
                completed: 0,
                first_arrival: None,
                last_completion: SimTime::ZERO,
                decision_delay_sum_us: 0,
                decisions: 0,
                overheads: PlatformOverheads::default(),
                last_site: BTreeMap::new(),
                prewarms: 0,
                aborted: 0,
                requeue_total: 0,
                faults_fired: 0,
                tick_walks: 0,
                drop_pings: Vec::new(),
                delay_ping: Vec::new(),
                ping_round: Vec::new(),
                tick_jitter: None,
                running_eff_cpu,
                pops_by_kind: [KindPops::default(); EVENT_KINDS],
                spans: SpanSink::new(config.trace),
                config,
            },
        }
    }

    /// Read-only access to the world (for tests and ad-hoc inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Why `trace` cannot run on this cluster: the first function it invokes
    /// that is not deployed, or whose allocation exceeds the largest shard
    /// slice, so it could never be placed. [`Simulation::run_with_faults`]
    /// asserts there is none.
    pub fn unplaceable(&self, trace: &Trace) -> Option<String> {
        let w = &self.world;
        let max_slice =
            w.nodes.iter().map(|n| n.slice(0).capacity()).fold(ResourceVec::ZERO, |a, c| a.max(&c));
        trace.entries.iter().find_map(|e| match w.funcs.get(e.func.idx()) {
            None => Some(format!(
                "the trace invokes function {} but only {} are deployed",
                e.func.0,
                w.funcs.len()
            )),
            Some(spec) if !spec.user_alloc.fits_within(&max_slice) => Some(format!(
                "function {} requires {:?} but the largest shard slice is {:?} — \
                 it could never be placed",
                spec.name, spec.user_alloc, max_slice
            )),
            Some(_) => None,
        })
    }

    /// Run `trace` under `platform` to completion and return all metrics.
    ///
    /// Equivalent to [`Simulation::run_with_faults`] with an empty
    /// [`FaultPlan`] — the fault-free path *is* this path, so a zero-fault
    /// plan is provably inert.
    pub fn run(self, trace: &Trace, platform: &mut dyn Platform) -> RunResult {
        self.run_with_faults(trace, platform, &FaultPlan::empty())
    }

    /// Run `trace` under `platform`, replaying `faults` at their scheduled
    /// instants, and return all metrics (including abort/requeue counters).
    pub fn run_with_faults(
        mut self,
        trace: &Trace,
        platform: &mut dyn Platform,
        faults: &FaultPlan,
    ) -> RunResult {
        let unplaceable = self.unplaceable(trace);
        assert!(unplaceable.is_none(), "{}", unplaceable.unwrap_or_default());
        let w = &mut self.world;
        w.overheads = platform.overheads();
        w.drop_pings = vec![0; w.nodes.len()];
        w.delay_ping = vec![None; w.nodes.len()];
        // Stable argsort of the trace by arrival time: the same permutation
        // `Trace::sorted` would produce, without cloning the entries. An
        // invocation's id is still its position in sorted order.
        let mut order: Vec<u32> =
            (0..u32::try_from(trace.entries.len()).unwrap_or(u32::MAX)).collect();
        order.sort_by_key(|&i| trace.entries[i as usize].at);
        let total = order.len();
        if total == 0 {
            return RunResult { platform: platform.name(), ..RunResult::default() };
        }
        w.invs = InvArena::with_id_capacity(total);
        // Periodic events: every node's first ping is one round.
        w.queue.push(SimTime::ZERO, Event::UtilizationSample);
        let round: Vec<NodeId> = w.node_ids().collect();
        w.ping_round = round;
        w.push_ping_round(SimTime::ZERO + PING_INTERVAL);
        // Injected faults (none in the common case).
        for f in faults.events() {
            w.queue.push(f.at, Event::Fault(Box::new(f.kind)));
        }
        platform.init(w);

        // Arrivals are *streamed* from the sorted trace, not pre-seeded as
        // events, so the queue holds only the dynamic future. Under the old
        // eager seeding every arrival carried a lower sequence number than
        // any dynamic event, so an arrival due at or before the queue head
        // always won the tie — `pop_before` pops only a head strictly
        // earlier than the next arrival, which reproduces that order exactly.
        let mut next = 0usize;
        while w.completed + w.aborted < total {
            let arrival = (next < total).then(|| trace.entries[order[next] as usize].at);
            let Some((at, ev)) = w.queue.pop_before(arrival) else {
                if arrival.is_none() {
                    // A drained queue with in-flight invocations is a
                    // scheduling deadlock: end the run and let the metrics
                    // report the shortfall instead of aborting a multi-hour
                    // sweep.
                    debug_assert!(
                        false,
                        "event queue drained with {} completed + {} aborted of {total} invocations",
                        w.completed, w.aborted
                    );
                    break;
                }
                let e = &trace.entries[order[next] as usize];
                debug_assert!(e.at >= w.clock, "time went backwards");
                assert!(
                    e.at.since(SimTime::ZERO) <= MAX_SIM_TIME,
                    "simulation exceeded MAX_SIM_TIME with {}/{total} complete — \
                     is some invocation permanently unplaceable?",
                    w.completed
                );
                w.clock = e.at;
                Self::on_arrival(
                    w,
                    platform,
                    InvocationId(u32::try_from(next).unwrap_or(u32::MAX)),
                    e,
                );
                next += 1;
                continue;
            };
            debug_assert!(at >= w.clock, "time went backwards");
            assert!(
                at.since(SimTime::ZERO) <= MAX_SIM_TIME,
                "simulation exceeded MAX_SIM_TIME with {}/{total} complete — \
                 is some invocation permanently unplaceable?",
                w.completed
            );
            w.clock = at;
            let (kind, weight) = (ev.kind(), ev.weight());
            if Self::dispatch(w, platform, ev) {
                w.pops_by_kind[kind].handled += weight;
            } else {
                w.pops_by_kind[kind].stale += weight;
            }
        }
        #[cfg(debug_assertions)]
        if let Err(why) = w.check_invariants() {
            debug_assert!(false, "invariants violated at end of run: {why}");
        }
        let pool_violations = u64::from(w.check_invariants().is_err());

        let (mut warm, mut cold) = (0, 0);
        for n in &w.nodes {
            let (h, c) = n.warm.stats();
            warm += h;
            cold += c;
        }
        let first = w.first_arrival.unwrap_or(SimTime::ZERO);
        let mut summary = std::mem::take(&mut w.summary);
        summary.peak_live_invocations = w.invs.peak_live();
        // Execution-timeline trace (None unless `config.trace`): the
        // sink moves out whole; per-kind percentile stats ride the summary.
        let trace = std::mem::replace(&mut w.spans, SpanSink::new(false)).into_trace();
        if let Some(t) = &trace {
            summary.span_stats = t.kind_stats();
        }
        let (event_pushes, event_pops) = w.queue.ops();
        RunResult {
            platform: platform.name(),
            records: std::mem::take(&mut w.records),
            util: std::mem::take(&mut w.util),
            summary,
            trace,
            event_pushes,
            event_pops,
            pops_by_kind: w.pops_by_kind,
            completion_time: w.last_completion.since(first),
            warm_hits: warm,
            cold_starts: cold,
            prewarms: w.prewarms,
            mean_sched_delay: SimDuration(w.decision_delay_sum_us / w.decisions.max(1)),
            aborted: w.aborted as u64,
            crash_requeues: w.requeue_total,
            faults_injected: w.faults_fired,
            pool_violations,
            tick_walks: WorkCount(w.tick_walks),
        }
    }

    /// Run one popped event's handler. `false` means the handler dropped the
    /// event at its staleness check (a lazily-cancelled `StartExec`, `Finish`
    /// or `Requeue`, a `NodeTick` that found its node empty and ended the
    /// chain); everything else is `true`. Periodic events re-arm
    /// unconditionally: the run loop dispatches only while invocations are
    /// in flight, and neither a ping nor a sample completes one.
    fn dispatch(w: &mut World, platform: &mut dyn Platform, ev: Event) -> bool {
        match ev {
            Event::DecisionDone { shard } => Self::on_decision_done(w, platform, shard as usize),
            Event::StartExec { inv, attempt } => {
                return Self::on_start_exec(w, platform, inv, attempt)
            }
            Event::Finish { inv, generation } => {
                return Self::on_finish(w, platform, inv, generation)
            }
            Event::MonitorTick { .. } => return false, // never pushed: see its doc
            Event::NodeTick(node) => return Self::on_node_tick(w, platform, node),
            Event::HealthPing(node) => {
                let at = w.clock + Self::ping(w, platform, node);
                w.queue.push(at, Event::HealthPing(node));
            }
            Event::PingRound { members } => {
                debug_assert_eq!(members as usize, w.ping_round.len());
                let now = w.clock;
                let mut round = std::mem::take(&mut w.ping_round);
                // A node whose next ping is one interval out stays: it would
                // fire with the round, right after the members before it. Any
                // other delay leaves the round for the node's own chain.
                round.retain(|&node| match Self::ping(w, platform, node) {
                    PING_INTERVAL => true,
                    next => {
                        w.queue.push(now + next, Event::HealthPing(node));
                        false
                    }
                });
                w.ping_round = round;
                w.push_ping_round(now + PING_INTERVAL);
            }
            Event::UtilizationSample => {
                Self::sample_utilization(w);
                let at = w.clock + SAMPLE_INTERVAL;
                w.queue.push(at, Event::UtilizationSample);
            }
            Event::RetryBlocked { shard } => {
                let shard = shard as usize;
                w.shards[shard].retry_pending = false;
                let blocked: Vec<_> = std::mem::take(&mut w.shards[shard].blocked);
                let now = w.clock;
                for id in blocked.into_iter().rev() {
                    let idx = w.slot(id);
                    w.invs.get_mut(idx).state = InvState::AwaitingDecision;
                    w.shards[shard].queue.push_front((id, now));
                }
                Self::kick_shard(w, shard);
            }
            Event::Fault(kind) => Self::on_fault(w, platform, *kind),
            Event::Requeue(id) => return Self::on_requeue(w, id),
            Event::Prewarm { func, node, shard } => {
                Self::on_prewarm(w, platform, func, node, shard as usize)
            }
        }
        true
    }

    /// One node's health ping (§6.4), the body a ping round runs for each
    /// member and a node's own `HealthPing` runs alone. Returns how long
    /// until the node's next ping: an injected delay postpones the whole
    /// ping (sweep included), otherwise it is one interval.
    fn ping(w: &mut World, platform: &mut dyn Platform, node: NodeId) -> SimDuration {
        let idx = node.idx();
        if let Some(by) = w.delay_ping[idx].take() {
            return by;
        }
        // Reap warm containers past their keep-alive (their pinned memory is
        // freed with them).
        let _ = w.nodes[idx].warm.evict_expired(w.clock);
        let dropped = w.drop_pings[idx] > 0;
        if dropped {
            w.drop_pings[idx] -= 1;
        }
        // A crashed node sends no pings; the platform's view of it goes stale
        // until recovery.
        if !dropped && w.nodes[idx].is_alive() {
            platform.on_ping(w, node);
        }
        PING_INTERVAL
    }

    /// A policy's prewarm directive fires: park an idle warm container for
    /// `func` on its last execution site, charged at the function's user
    /// allocation, with a fresh policy-assigned deadline. Skipped when the
    /// node is down, a warm container already exists (the arrival the
    /// prewarm anticipated may have been served already), the policy
    /// declines to keep it, or the slice has no room.
    fn on_prewarm(
        w: &mut World,
        platform: &mut dyn Platform,
        func: FunctionId,
        node: NodeId,
        shard: usize,
    ) {
        let now = w.clock;
        let idx = node.idx();
        if !w.nodes[idx].is_alive() || w.nodes[idx].warm.count_at(func, now) > 0 {
            return;
        }
        let Some(keep_until) = platform.warm_keep(w, func, 0) else {
            return;
        };
        let mem = w.funcs[func.idx()].user_alloc.mem_mb;
        let slice = *w.nodes[idx].slice(shard);
        if w.nodes[idx].warm.park(func, shard, mem, &slice, now, keep_until) {
            w.prewarms += 1;
        }
    }

    /// Admit the next trace entry: materialize its [`Invocation`] (demand
    /// models are pure, so computing the demand here instead of upfront
    /// yields bit-identical values) and hand it to a scheduler shard.
    fn on_arrival(w: &mut World, platform: &mut dyn Platform, id: InvocationId, e: &TraceEntry) {
        let now = w.clock;
        w.first_arrival = Some(w.first_arrival.map_or(now, |f| f.min(now)));
        let spec = &w.funcs[e.func.idx()];
        let demand = spec.model.demand(&e.input);
        let ovh = w.overheads;
        let idx = w.invs.insert(Invocation::new(
            id,
            e.func,
            e.input,
            demand,
            spec.user_alloc,
            e.at,
            ovh.pool,
        ));
        w.invs.get_mut(idx).state = InvState::AwaitingDecision;
        let pred = platform.predict(w, id);
        // Frontend (+ profiler) are charged up front, so the next stage
        // (scheduler) starts accruing at `ready`.
        let mut ready = now + ovh.frontend;
        w.advance_stage(idx, SpanKind::Frontend, ready);
        if pred.is_some() {
            ready += ovh.profiler;
            w.advance_stage(idx, SpanKind::Profiler, ready);
        }
        let shard = id.0 as usize % w.shards.len();
        let inv = w.invs.get_mut(idx);
        inv.pred = pred;
        inv.shard = Some(shard);
        w.shards[shard].queue.push_back((id, ready));
        Self::kick_shard(w, shard);
        // Warm-lifecycle hook: the policy sees every arrival and may direct
        // a prewarm at the function's last execution site. The default
        // returns `None`, so no event is pushed and sequence numbers — and
        // therefore golden traces — are unchanged.
        if let Some(delay) = platform.prewarm_after_arrival(w, e.func) {
            if let Some(&(pnode, pshard)) = w.last_site.get(&e.func) {
                w.queue.push(
                    now + delay,
                    Event::Prewarm {
                        func: e.func,
                        node: pnode,
                        shard: u32::try_from(pshard).unwrap_or(u32::MAX),
                    },
                );
            }
        }
    }

    fn kick_shard(w: &mut World, shard: usize) {
        if w.shards[shard].stalled || w.shards[shard].busy.is_some() {
            return;
        }
        let Some((id, ready)) = w.shards[shard].queue.pop_front() else {
            return;
        };
        let svc = w.decision_latency();
        let done = ready.max(w.clock) + svc;
        w.shards[shard].busy = Some((id, done));
        w.decision_delay_sum_us += svc.as_micros();
        w.decisions += 1;
        w.queue.push(done, Event::DecisionDone { shard: u32::try_from(shard).unwrap_or(u32::MAX) });
    }

    fn on_decision_done(w: &mut World, platform: &mut dyn Platform, shard: usize) {
        let Some((id, _)) = w.shards[shard].busy.take() else {
            debug_assert!(false, "DecisionDone without busy shard {shard}");
            return;
        };
        let now = w.clock;
        let idx = w.slot(id);
        match platform.select_node(w, shard, id) {
            Some(node)
                if {
                    let nominal = w.invs.get(idx).nominal;
                    w.nodes[node.idx()].try_reserve(shard, nominal)
                } =>
            {
                // Everything since the stage cursor — shard queueing +
                // decision service for *this* attempt only (a requeued
                // attempt's cursor moved on at re-admission) — is scheduler
                // time. The pool overhead committed now elapses before
                // StartExec; the cursor splits that gap there.
                w.leave_stage(idx);
                let inv = w.invs.get_mut(idx);
                inv.node = Some(node);
                let (func, attempt) = (inv.func, inv.requeues);
                // A slot is below the id count, and ids are `u32`: exact.
                w.nodes[node.idx()].residents.push(u32::try_from(idx).unwrap_or(u32::MAX));
                let warm = w.nodes[node.idx()].warm.acquire(func, now).is_some();
                let mut start_at = now + w.overheads.pool;
                if !warm {
                    w.invs.get_mut(idx).cold_start = true;
                    start_at += COLD_START;
                }
                w.invs.get_mut(idx).state = InvState::ColdStarting;
                w.queue.push(start_at, Event::StartExec { inv: id, attempt });
            }
            _ => {
                w.invs.get_mut(idx).state = InvState::Blocked;
                w.shards[shard].blocked.push(id);
            }
        }
        Self::kick_shard(w, shard);
    }

    /// `false` when the start is stale (see [`Simulation::dispatch`]).
    fn on_start_exec(
        w: &mut World,
        platform: &mut dyn Platform,
        id: InvocationId,
        attempt: u32,
    ) -> bool {
        let now = w.clock;
        let Some(idx) = w.try_slot(id) else {
            return false; // retired: the invocation aborted terminally before this fired
        };
        if w.invs.get(idx).requeues != attempt || w.invs.get(idx).state != InvState::ColdStarting {
            return false; // stale start from a crashed attempt
        }
        let Some(node) = w.invs.get(idx).node else {
            debug_assert!(false, "exec without node for {id:?}");
            return true;
        };
        let first_start = w.invs.get(idx).exec_start.is_none();
        // The gap since the decision (or the OOM) is pool bookkeeping, then
        // container init — whatever warm/cold/OOM combination produced it.
        w.leave_stage(idx);
        // Joining the running set changes the node's CPU-share balance when
        // it is oversubscribed; otherwise only the newcomer needs a `Finish`,
        // armed once, after the policy's `on_start` has set its grant.
        w.with_alloc_change(node.idx(), &[idx], |w| {
            let inv = w.invs.get_mut(idx);
            if first_start {
                inv.exec_start = Some(now);
            }
            inv.state = InvState::Running;
            w.invalidate_running_cpu(node.idx());
            if first_start && w.invs.get(idx).restarts == 0 {
                platform.on_start(&mut SimCtx { w }, id);
            }
        });
        // The first resident to run on an unwatched node starts its tick.
        if !w.nodes[node.idx()].tick_armed {
            w.nodes[node.idx()].tick_armed = true;
            w.queue.push(now + MONITOR_INTERVAL, Event::NodeTick(node));
        }
        true
    }

    /// One node's monitor tick: every running resident whose wake condition
    /// holds ([`Invocation::wake`]), in admission order, is shown to the
    /// policy and held to the OOM rule. A node with none watched, or whose
    /// `next_wake` is still ahead, skips the walk; a walk rebuilds
    /// `next_wake` from the conditions its residents are left with. A visit
    /// settles nothing: it reads footprints as of now. `false` when nothing
    /// is resident — the chain ends (see [`Simulation::dispatch`]).
    fn on_node_tick(w: &mut World, platform: &mut dyn Platform, node: NodeId) -> bool {
        let n = node.idx();
        if w.nodes[n].residents.is_empty() {
            // Drained, or crashed: the next start on this node re-arms.
            w.nodes[n].tick_armed = false;
            return false;
        }
        let now = w.clock;
        // Nothing below admits or removes a resident: an OOM victim stays,
        // cold-starting. A visit may wake a resident (reset its condition,
        // or change the node); one later in the order is then visited at
        // this tick, one earlier at the next.
        let host = &mut w.nodes[n];
        let walk = host.watched > 0 && now >= host.next_wake;
        if walk {
            // Rebuilt below; a visit that wakes anyone lowers it again.
            host.next_wake = SimTime::MAX;
            w.tick_walks += 1;
        } else {
            debug_assert!(
                w.nodes[n].residents.iter().all(|&s| {
                    let inv = w.invs.get(s as usize);
                    inv.state != InvState::Running || !inv.wakes(now, w.nodes[n].generation)
                }),
                "{node:?} skipped a tick at {now:?} at which a resident wakes"
            );
        }
        let len = if walk { w.nodes[n].residents.len() } else { 0 };
        for k in 0..len {
            let idx = w.nodes[n].residents[k] as usize;
            let inv = w.invs.get(idx);
            if inv.state == InvState::Running && inv.wakes(now, w.nodes[n].generation) {
                let id = inv.id;
                platform.on_tick(&mut SimCtx { w }, id);
                // The OOM rule, against the allocation the policy left.
                let inv = w.invs.get(idx);
                let (peak, have) = (inv.true_demand.mem_peak_mb, inv.effective_alloc().mem_mb);
                let used = || inv.mem_usage_mb_at(now);
                if inv.state == InvState::Running && oom_kills(peak, inv.nominal.mem_mb, have, used)
                {
                    Self::on_oom(w, platform, id);
                }
            }
            // A resident that leaves `Running` is watched from every tick
            // again at its next start.
            let inv = w.invs.get(idx);
            if inv.state == InvState::Running {
                let host = &mut w.nodes[n];
                host.next_wake = host.next_wake.min(inv.next_wake(host.generation));
            }
        }
        // One-shot injected jitter stretches exactly one monitor interval.
        let jitter = w.tick_jitter.take().unwrap_or(SimDuration::ZERO);
        w.queue.push(w.clock + MONITOR_INTERVAL + jitter, Event::NodeTick(node));
        true
    }

    fn on_oom(w: &mut World, platform: &mut dyn Platform, id: InvocationId) {
        let idx = w.slot(id);
        let Some(node) = w.invs.get(idx).node else {
            debug_assert!(false, "oom without node for {id:?}");
            return;
        };
        let now = w.clock;
        // End the dying segment — settle its integrals, observe its busy
        // CPU — at the allocation it ran with, before `end_loans` drains
        // what it borrowed.
        w.update_progress(idx);
        // The dying invocation needs its lent-out memory back, and its
        // borrowed-in loans are dropped for a clean restart.
        Self::end_loans(w, platform, id, LoanEnd::SourceOom, LoanEnd::BorrowerCompleted);
        // The executed segment that just died is exec time; the restart's
        // cold start is charged when the next StartExec leaves ColdStarting.
        w.leave_stage(idx);
        // Leaving the running set may lift an oversubscribed node's scale.
        w.with_alloc_change(node.idx(), &[idx], |w| {
            let old_charge = w.invs.get(idx).charge();
            let inv = w.invs.get_mut(idx);
            inv.flags.oomed = true;
            inv.restarts += 1;
            inv.run.restart(now);
            inv.own_grant = inv.nominal;
            inv.state = InvState::ColdStarting;
            inv.finish_gen += 1;
            inv.finish_armed = false;
            w.reconcile_charge(idx, old_charge);
        });
        let at = now + COLD_START;
        let attempt = w.invs.get(idx).requeues;
        w.queue.push(at, Event::StartExec { inv: id, attempt });
        let mut ctx = SimCtx { w };
        platform.on_oom(&mut ctx, id);
    }

    /// Unwind, at this instant, every loan touching `id`: what it lent out
    /// is revoked from the borrowers (ending `as_source`), what it borrowed
    /// returns to its sources' books (ending `as_borrower`). The platform
    /// hears about each loan through `on_loan_ended`.
    fn end_loans(
        w: &mut World,
        platform: &mut dyn Platform,
        id: InvocationId,
        as_source: LoanEnd,
        as_borrower: LoanEnd,
    ) {
        let broken = SimCtx { w }.revoke_loans_from(id);
        for loan in &broken {
            w.note_loan_end(loan, LoanOutcome::Revoked(as_source));
            platform.on_loan_ended(&mut SimCtx { w }, loan, as_source);
        }
        let idx = w.slot(id);
        let returned: Vec<Loan> = w.invs.get_mut(idx).borrowed_in.drain(..).collect();
        if let Some(node) = w.invs.get(idx).node {
            w.invalidate_running_cpu(node.idx());
        }
        for loan in &returned {
            let si = w.slot(loan.source);
            let old = w.invs.get(si).charge();
            w.invs.get_mut(si).lent_out -= loan.res;
            w.reconcile_charge(si, old);
            w.note_loan_end(loan, LoanOutcome::Revoked(as_borrower));
            platform.on_loan_ended(&mut SimCtx { w }, loan, as_borrower);
        }
    }

    /// Replay one injected fault.
    fn on_fault(w: &mut World, platform: &mut dyn Platform, kind: FaultKind) {
        w.faults_fired += 1;
        match kind {
            FaultKind::NodeCrash(n) => {
                if n.idx() >= w.nodes.len() || !w.nodes[n.idx()].is_alive() {
                    return;
                }
                // Mark dead first so the node advertises zero capacity for
                // the whole sweep, then kill every resident attempt. Loans
                // are intra-node, so both ends of every affected loan die
                // here; the sweep still runs the full revocation protocol so
                // the ledger (and the platform's books) stay exact. Victims
                // are named first, in admission order, since each kill
                // removes its own slot (and a terminal one frees it).
                w.nodes[n.idx()].fail();
                let victims: Vec<InvocationId> =
                    w.nodes[n.idx()].residents.iter().map(|&s| w.invs.get(s as usize).id).collect();
                for id in victims {
                    Self::kill_attempt(w, platform, id);
                }
                let mut ctx = SimCtx { w };
                platform.on_node_crash(&mut ctx, n);
            }
            FaultKind::NodeRecover(n) => {
                if n.idx() >= w.nodes.len() || w.nodes[n.idx()].is_alive() {
                    return;
                }
                w.nodes[n.idx()].recover();
                // Capacity is visible again: give parked invocations a chance.
                w.wake_blocked();
            }
            FaultKind::AbortInvocation(id) => {
                let placed = w.try_slot(id).is_some_and(|s| {
                    matches!(w.invs.get(s).state, InvState::ColdStarting | InvState::Running)
                });
                if placed {
                    Self::kill_attempt(w, platform, id);
                }
            }
            FaultKind::ShardStall(sh) => {
                if sh < w.shards.len() {
                    w.shards[sh].stalled = true;
                }
            }
            FaultKind::ShardResume(sh) => {
                if sh < w.shards.len() && w.shards[sh].stalled {
                    w.shards[sh].stalled = false;
                    Self::kick_shard(w, sh);
                }
            }
            FaultKind::PingDrop(n) => {
                if n.idx() < w.nodes.len() {
                    w.drop_pings[n.idx()] += 1;
                }
            }
            FaultKind::PingDelay { node, by } => {
                if node.idx() < w.nodes.len() {
                    w.delay_ping[node.idx()] = Some(by);
                }
            }
            FaultKind::TickJitter(by) => {
                w.tick_jitter = Some(by);
            }
        }
    }

    /// Kill one placed invocation's current attempt: revoke every loan
    /// touching it (the crash analogue of the timeliness law), release its
    /// reservation, then requeue it with exponential backoff — or terminally
    /// abort it once the retry budget is spent.
    fn kill_attempt(w: &mut World, platform: &mut dyn Platform, id: InvocationId) {
        let idx = w.slot(id);
        debug_assert!(matches!(w.invs.get(idx).state, InvState::ColdStarting | InvState::Running));
        let now = w.clock;
        // The attempt's work is lost, but the usage integrals stay honest.
        w.update_progress(idx);
        Self::end_loans(w, platform, id, LoanEnd::Crashed, LoanEnd::Crashed);
        // Platform cleanup while the invocation still knows its node.
        {
            let mut ctx = SimCtx { w };
            platform.on_abort(&mut ctx, id);
        }
        let (Some(node), Some(shard)) = (w.invs.get(idx).node, w.invs.get(idx).shard) else {
            debug_assert!(false, "killed attempt {id:?} without placement");
            return;
        };
        // The departure changes the node's CPU-share balance.
        let charge = w.invs.get(idx).charge();
        w.with_alloc_change(node.idx(), &[], |w| {
            w.nodes[node.idx()].rebook(shard, charge, ResourceVec::ZERO);
            w.resident_remove(node.idx(), idx);
        });

        // Charge the dying attempt's partial stage and emit its span before
        // the attempt counter moves on; from here until requeue is backoff.
        w.leave_stage(idx);

        let inv = w.invs.get_mut(idx);
        inv.flags.crashed = true;
        inv.finish_gen += 1; // cancels in-flight Finish events
        inv.finish_armed = false;
        inv.requeues += 1; // cancels in-flight StartExec events
        inv.node = None;
        inv.run.restart(now);
        inv.own_grant = inv.nominal;
        inv.exec_start = None; // a fresh attempt gets a fresh exec clock
        let attempt = inv.requeues;
        let terminal = attempt > CRASH_MAX_RETRIES;
        if terminal {
            inv.state = InvState::Aborted;
            inv.end = Some(now);
            w.aborted += 1;
        } else {
            inv.state = InvState::Pending;
            w.requeue_total += 1;
            let backoff = CRASH_BACKOFF.saturating_mul(1u64 << (attempt - 1).min(16));
            w.queue.push(now + backoff, Event::Requeue(id));
        }
        // A targeted abort frees capacity on a live node: unblock the parked.
        if w.nodes[node.idx()].is_alive() {
            w.wake_blocked();
        }
        // A terminal abort leaves the simulation for good: retire the slot so
        // any straggling StartExec/Finish events read as stale.
        if terminal {
            w.invs.retire(id);
        }
    }

    /// A crash victim's backoff expired: re-admit it through its scheduler
    /// shard like a fresh arrival (cold-start rules apply again).
    /// `false` when the requeue is stale (see [`Simulation::dispatch`]).
    fn on_requeue(w: &mut World, id: InvocationId) -> bool {
        let Some(idx) = w.try_slot(id) else {
            return false; // terminally aborted (and retired) before the backoff fired
        };
        if w.invs.get(idx).state != InvState::Pending {
            return false;
        }
        // The wait since the kill is crash backoff; then the invocation
        // passes the front end again. The new attempt's spans start here.
        w.leave_stage(idx);
        let ready = w.clock + w.overheads.frontend;
        w.advance_stage(idx, SpanKind::Frontend, ready);
        let shard = id.0 as usize % w.shards.len();
        let inv = w.invs.get_mut(idx);
        inv.state = InvState::AwaitingDecision;
        inv.shard = Some(shard);
        w.shards[shard].queue.push_back((id, ready));
        Self::kick_shard(w, shard);
        true
    }

    /// `false` when the finish is stale (see [`Simulation::dispatch`]).
    fn on_finish(
        w: &mut World,
        platform: &mut dyn Platform,
        id: InvocationId,
        generation: u64,
    ) -> bool {
        let Some(idx) = w.try_slot(id) else {
            return false; // retired: a stale event outlived its invocation
        };
        if w.invs.get(idx).state != InvState::Running || w.invs.get(idx).finish_gen != generation {
            return false; // stale (lazy-cancelled) event
        }
        w.update_progress(idx);
        w.invs.get_mut(idx).finish_armed = false;
        if w.invs.get(idx).run.remaining() > 0 {
            w.reschedule_finish(idx);
            return true;
        }
        let now = w.clock;

        // Timeliness law (§3.1): everything this invocation lent out is
        // gone; re-harvest opportunity (§5.1): loans it held return to
        // their sources.
        Self::end_loans(w, platform, id, LoanEnd::SourceCompleted, LoanEnd::BorrowerCompleted);

        // Physics: wall-clock of the final attempt, OOM gaps included —
        // what `Actuals` and the golden traces pin.
        let inv = w.invs.get(idx);
        debug_assert!(inv.exec_start.is_some(), "completed {id:?} without exec start");
        let exec = now.since(inv.exec_start.unwrap_or(inv.stage.cursor()));
        // Accounting: only the segment since the stage cursor is charged to
        // exec (never recomputed from `exec_start`), which keeps the
        // breakdown telescoping to end-to-end latency across OOM restarts
        // and crash requeues.
        w.leave_stage(idx);
        let inv = w.invs.get(idx);
        let actuals = Actuals {
            cpu_peak_millis: inv.cpu_peak_obs,
            mem_peak_mb: inv.true_demand.mem_peak_mb,
            exec_duration: exec,
            input_size: inv.input.size,
        };

        // Release the node reservation (the invocation's current charge:
        // loans were already unwound above) and recycle the container.
        let (Some(node), Some(shard)) = (inv.node, inv.shard) else {
            debug_assert!(false, "completed {id:?} without placement");
            return true;
        };
        let charge = inv.charge();
        let func = inv.func;
        // The departure may lift an oversubscribed node's CPU scale.
        w.with_alloc_change(node.idx(), &[], |w| {
            w.nodes[node.idx()].rebook(shard, charge, ResourceVec::ZERO);
            w.resident_remove(node.idx(), idx);
            let inv = w.invs.get_mut(idx);
            inv.state = InvState::Completed;
            inv.run.rerate(now, 0);
            inv.end = Some(now);
        });
        let pin_mem = charge.mem_mb;
        // Warm-lifecycle hook: the keep-alive policy assigns this idle
        // container's deadline (`None` tears it down immediately). The
        // default reproduces the classic fixed window byte-for-byte.
        w.last_site.insert(func, (node, shard));
        let idle_peers = w.nodes[node.idx()].warm.count_at(func, now);
        if let Some(keep_until) = platform.warm_keep(w, func, idle_peers) {
            let slice = *w.nodes[node.idx()].slice(shard);
            let _ = w.nodes[node.idx()].warm.park(func, shard, pin_mem, &slice, now, keep_until);
        }

        Self::record_completion(w, id, exec);
        {
            let mut ctx = SimCtx { w };
            platform.on_complete(&mut ctx, id, &actuals);
        }
        w.completed += 1;
        w.last_completion = now;
        // The books are settled and the platform has seen the completion:
        // retire the slot so arena memory tracks concurrency, not trace length.
        w.invs.retire(id);
        #[cfg(debug_assertions)]
        if let Err(why) = w.check_invariants() {
            debug_assert!(false, "invariants violated at completion: {why}");
        }

        // Freed capacity: give parked invocations another chance.
        w.wake_blocked();
        true
    }

    /// The counterfactual response latency with user-defined resources
    /// (t_user in Eq. 1): identical overheads, execution at nominal rate.
    fn record_completion(w: &mut World, id: InvocationId, exec: SimDuration) {
        let idx = w.slot(id);
        let inv = w.invs.get(idx);
        let Some(latency) = inv.latency() else {
            debug_assert!(false, "recording incomplete invocation {id:?}");
            return;
        };
        // Breakdown auditor (debug builds): the incremental stage charges
        // must telescope exactly to end-to-end latency — no drift, no
        // double-count, on every retry/OOM/cold-start combination.
        debug_assert_eq!(inv.stage.cursor(), inv.arrival + latency, "cursor short of {id:?}'s end");
        debug_assert_eq!(
            inv.stage.check(inv.arrival),
            Ok(()),
            "stage breakdown drifted for {id:?}"
        );
        let rate_nominal = exec_rate_millis(
            inv.nominal.cpu_millis,
            inv.nominal.mem_mb,
            inv.true_demand.cpu_peak_millis,
            inv.true_demand.mem_peak_mb,
            inv.nominal.mem_mb,
        );
        let base_exec_us = inv.run.work_total.div_ceil(rate_nominal as u128);
        let overhead = latency.saturating_sub(exec);
        let baseline = overhead + SimDuration(u64::try_from(base_exec_us).unwrap_or(u64::MAX));
        let speedup = if baseline.as_micros() == 0 {
            0.0
        } else {
            (baseline.as_secs_f64() - latency.as_secs_f64()) / baseline.as_secs_f64()
        };
        w.summary.observe_completion(latency.as_secs_f64(), speedup);
        if w.config.metrics != MetricsMode::Full {
            return; // streaming mode: the online summary is the whole record
        }
        let inv = w.invs.get(idx);
        let Some(node) = inv.node else {
            debug_assert!(false, "record without node for {id:?}");
            return;
        };
        let rec = InvRecord {
            inv: id,
            func: inv.func,
            func_name: w.funcs[inv.func.idx()].name.clone(),
            node,
            arrival: inv.arrival,
            latency,
            exec,
            baseline_latency: baseline,
            speedup,
            cold_start: inv.cold_start,
            flags: inv.flags,
            cpu_reassigned_core_sec: inv.cpu_reassigned as f64 / 1e9, // millicore·µs → core·s
            mem_reassigned_mb_sec: inv.mem_reassigned as f64 / 1e6,   // MB·µs → MB·s
            breakdown: *inv.stage.breakdown(),
            pred: inv.pred,
            cpu_peak_obs: inv.cpu_peak_obs,
            mem_peak_obs: inv.mem_usage_mb_at(w.clock),
            restarts: inv.restarts,
            requeues: inv.requeues,
        };
        w.records.push(rec);
    }

    fn sample_utilization(w: &mut World) {
        // Slot order differs from id order, but the sums are integer folds,
        // so the sample is identical in any order. It writes nothing per
        // invocation: no settle, and no busy-CPU observation — that is made
        // where a run segment ends (`update_progress`).
        let now = w.clock;
        let (mut cpu_used, mut mem_used) = (0u64, 0u64);
        for idx in 0..w.invs.slot_count() {
            if let Some(inv) = w.invs.at(idx).filter(|i| i.state == InvState::Running) {
                cpu_used += inv.cpu_usage_millis();
                mem_used += inv.mem_usage_mb_at(now);
            }
        }
        let alloc = w.nodes.iter().fold(ResourceVec::ZERO, |a, n| a + n.total_reserved());
        let cap = w.total_capacity();
        let sample = UtilSample {
            at: w.clock,
            cpu_used_millis: cpu_used,
            mem_used_mb: mem_used,
            cpu_alloc_millis: alloc.cpu_millis,
            mem_alloc_mb: alloc.mem_mb,
            cpu_capacity_millis: cap.cpu_millis,
            mem_capacity_mb: cap.mem_mb,
        };
        w.summary.observe_util(&sample);
        let now = w.clock;
        let warm_pinned: u64 = w.nodes.iter().map(|n| n.warm.pinned_mem_mb(now)).sum();
        w.summary.observe_warm_pinned(warm_pinned);
        if w.config.metrics == MetricsMode::Full {
            w.util.push(sample);
        }
    }
}

/// Convenience: a minimal platform that schedules to the first node with
/// room and never adjusts allocations. Useful for substrate tests.
pub struct NullPlatform;

impl Platform for NullPlatform {
    fn name(&self) -> String {
        "null".into()
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        let need = world.inv(inv).nominal;
        world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{ConstantDemand, FnDemand, InputMeta, TrueDemand};
    use std::sync::Arc;

    fn one_sec_demand(cores: u64, mem: u64) -> TrueDemand {
        TrueDemand {
            cpu_peak_millis: cores * 1000,
            mem_peak_mb: mem,
            base_duration: SimDuration::from_secs(1),
        }
    }

    fn spec(name: &str, cores: u64, mem: u64, d: TrueDemand) -> FunctionSpec {
        FunctionSpec::new(name, ResourceVec::from_cores_mb(cores, mem), Arc::new(ConstantDemand(d)))
    }

    fn single_node_sim(funcs: Vec<FunctionSpec>) -> Simulation {
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default())
    }

    #[test]
    fn single_invocation_runs_to_completion() {
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        assert_eq!(res.records.len(), 1);
        let r = &res.records[0];
        assert!(r.cold_start);
        // ~1s execution + 500ms cold start + 1ms frontend + decision
        let lat = r.latency.as_secs_f64();
        assert!(lat > 1.49 && lat < 1.6, "latency {lat}");
        assert!(
            (r.speedup).abs() < 1e-9,
            "untouched invocation has zero speedup, got {}",
            r.speedup
        );
    }

    #[test]
    fn under_provisioned_cpu_stretches_execution() {
        // demand 4 cores for 1s (4 core-sec of work), user gives 1 core -> 4s exec
        let funcs = vec![spec("f", 1, 1024, one_sec_demand(4, 256))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        let exec = res.records[0].exec.as_secs_f64();
        assert!((exec - 4.0).abs() < 0.01, "exec {exec}");
    }

    #[test]
    fn warm_start_skips_cold_penalty() {
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_secs(5), FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        assert_eq!(res.cold_starts, 1);
        assert_eq!(res.warm_hits, 1);
        let by_arrival: Vec<_> = res.records.iter().collect();
        let warm = by_arrival.iter().find(|r| !r.cold_start).unwrap();
        assert!(warm.latency.as_secs_f64() < 1.1);
    }

    #[test]
    fn queueing_when_node_full() {
        // Node fits one 8-core invocation at a time; two arrive together.
        let funcs = vec![spec("f", 8, 4096, one_sec_demand(8, 1024))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        assert_eq!(res.records.len(), 2);
        let mut lats: Vec<f64> = res.records.iter().map(|r| r.latency.as_secs_f64()).collect();
        lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(lats[1] > lats[0] + 0.9, "second should wait for first: {lats:?}");
    }

    #[test]
    fn completion_time_spans_first_to_last() {
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::from_secs(1), FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_secs(3), FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        let ct = res.completion_time.as_secs_f64();
        // last arrival at 3s + ~1s exec = ~4s after first arrival at 1s -> ~3s
        assert!(ct > 2.9 && ct < 3.7, "completion time {ct}");
    }

    #[test]
    fn utilization_sampled() {
        let funcs = vec![spec("f", 4, 2048, one_sec_demand(4, 1024))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        assert!(!res.util.is_empty());
        let peak = res.util.iter().map(|u| u.cpu_util()).fold(0.0, f64::max);
        assert!((peak - 0.5).abs() < 0.01, "4 of 8 cores busy at peak, got {peak}");
    }

    #[test]
    fn input_dependent_demand_flows_through() {
        let model = Arc::new(FnDemand(|i: &InputMeta| TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_millis(i.size),
        }));
        let f = FunctionSpec::new("scaled", ResourceVec::from_cores_mb(1, 256), model);
        let sim = single_node_sim(vec![f]);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(2000, 0));
        let res = sim.run(&t, &mut NullPlatform);
        let exec = res.records[0].exec.as_secs_f64();
        assert!((exec - 2.0).abs() < 0.01, "exec {exec}");
    }

    #[test]
    fn empty_trace_is_fine() {
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let sim = single_node_sim(funcs);
        let res = sim.run(&Trace::new(), &mut NullPlatform);
        assert!(res.records.is_empty());
        assert_eq!(res.completion_time, SimDuration::ZERO);
    }

    #[test]
    fn spill_slowdown_for_user_underprovisioned_memory() {
        // peak 1000 MB, user gives 500 MB -> factor 0.5 -> 2x duration; no OOM.
        let d = TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 1000,
            base_duration: SimDuration::from_secs(1),
        };
        let funcs = vec![spec("f", 1, 500, d)];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        let r = &res.records[0];
        assert_eq!(r.restarts, 0, "user shortfall must not OOM");
        let exec = r.exec.as_secs_f64();
        assert!((exec - 2.0).abs() < 0.05, "exec {exec}");
        // baseline equals observed -> zero speedup
        assert!(r.speedup.abs() < 1e-9);
    }

    /// A platform that harvests memory below true usage to force an OOM.
    struct OverHarvester;
    impl Platform for OverHarvester {
        fn name(&self) -> String {
            "overharvest".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let need = world.inv(inv).nominal;
            world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            // grant far less memory than the function will touch
            let nominal = ctx.inv(inv).nominal;
            ctx.set_own_grant(inv, ResourceVec::new(nominal.cpu_millis, 64));
        }
    }

    #[test]
    fn over_harvesting_memory_ooms_and_restarts() {
        // peak 900 MB <= nominal 1024 MB: a grant of 64MB (floor 128) OOMs.
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 900,
            base_duration: SimDuration::from_secs(2),
        };
        let funcs = vec![spec("f", 2, 1024, d)];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut OverHarvester);
        let r = &res.records[0];
        assert_eq!(r.restarts, 1, "should OOM exactly once then succeed with nominal");
        assert!(r.flags.oomed);
        assert!(r.flags.harvested);
        assert!(r.speedup < -0.15, "OOM restart must show as degradation, got {}", r.speedup);
    }

    #[test]
    fn oom_restart_breakdown_telescopes_and_traces_segments() {
        // Same OOM-then-succeed scenario as above, with tracing on: the old
        // absolute recomputation underflowed exec here (container_init was
        // `+=`ed per restart but the subtraction assumed one cold start).
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 900,
            base_duration: SimDuration::from_secs(2),
        };
        let funcs = vec![spec("f", 2, 1024, d)];
        let cfg = SimConfig { trace: true, ..SimConfig::default() };
        let sim = Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], cfg);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut OverHarvester);
        let r = &res.records[0];
        assert_eq!(r.restarts, 1);
        assert_eq!(r.breakdown.total(), r.latency, "stages must telescope to latency");
        // The restart pays a second cold start, so container_init exceeds one
        // cold-start window and exec strictly exceeds zero (no underflow).
        assert!(r.breakdown.container_init > SimDuration::from_millis(500));
        assert!(r.breakdown.exec > SimDuration::ZERO);
        let trace = res.trace.as_ref().expect("tracing enabled");
        let spans = trace.spans_for(r.inv.0 as u64);
        // Two exec segments (pre-OOM and post-restart), same attempt number —
        // an OOM restart is a container event, not a requeue.
        let execs: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Exec).collect();
        assert_eq!(execs.len(), 2, "OOM restart must split exec into segments");
        assert!(execs.iter().all(|s| s.attempt == 0));
        // Two container_init segments: the original cold start and the
        // restart's; the spans tile [arrival, completion] exactly.
        let inits = spans.iter().filter(|s| s.kind == SpanKind::ContainerInit).count();
        assert_eq!(inits, 2);
        let sum: u64 = spans.iter().map(|s| s.len_us()).sum();
        assert_eq!(SimDuration(sum), r.latency, "span tiling must cover the whole latency");
        assert_eq!(trace.critical_path(r.inv.0 as u64).last(), Some(&SpanKind::Exec));
        // Per-kind stats surface in the summary for traced runs.
        assert!(res.summary.span_stats.iter().any(|s| s.kind == SpanKind::Exec && s.count == 2));
    }

    /// First-fit placement that logs every `on_ping` as (ms, node).
    #[derive(Default)]
    struct PingRecorder(Vec<(u64, u32)>);
    impl Platform for PingRecorder {
        fn name(&self) -> String {
            "ping-recorder".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_ping(&mut self, world: &World, node: NodeId) {
            self.0.push((world.now().as_micros() / 1_000, node.0));
        }
    }

    #[test]
    fn pings_fire_in_node_order_around_delays_drops_and_crashes() {
        // One 10 s invocation on node 0 keeps the run (and the pings) going.
        let long =
            TrueDemand { base_duration: SimDuration::from_secs(10), ..one_sec_demand(1, 128) };
        let sim = Simulation::new(
            vec![spec("long", 1, 256, long)],
            vec![ResourceVec::from_cores_mb(8, 8192); 3],
            SimConfig::default(),
        );
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let delay = |ms, node, by| {
            (ms, FaultKind::PingDelay { node: NodeId(node), by: SimDuration::from_millis(by) })
        };
        let interval_ms = PING_INTERVAL.as_micros() / 1_000;
        let mut plan = FaultPlan::empty();
        for (ms, kind) in [
            // Exactly one interval: node 1 skips 1.0 s and is back in node
            // order at 1.5 s.
            delay(600, 1, interval_ms),
            // Zero: node 0's 2.0 s ping re-fires at 2.0 s, after 1 and 2.
            delay(1_600, 0, 0),
            (2_100, FaultKind::PingDrop(NodeId(1))),
            // Two intervals: node 2's 3.0 s ping lands at 4.0 s, ahead of
            // the pings re-armed at 3.5 s.
            delay(2_600, 2, 2 * interval_ms),
            // The default chaos delay: node 0's 4.5 s ping fires at 4.9 s.
            delay(4_100, 0, 400),
            // A dead node sends nothing until it recovers.
            (4_600, FaultKind::NodeCrash(NodeId(1))),
            (5_600, FaultKind::NodeRecover(NodeId(1))),
        ] {
            plan.push(SimTime::from_millis(ms), kind);
        }
        let mut rec = PingRecorder::default();
        let res = sim.run_with_faults(&t, &mut rec, &plan);
        assert_eq!(res.faults_injected, 7);
        assert!(res.records[0].latency > SimDuration::from_secs(6), "the run outlasts 6 s");
        let upto_6s: Vec<_> = rec.0.into_iter().filter(|&(ms, _)| ms <= 6_000).collect();
        #[rustfmt::skip]
        let want = [
            (500, 0), (500, 1), (500, 2),
            (1_000, 0), (1_000, 2),
            (1_500, 0), (1_500, 1), (1_500, 2),
            (2_000, 1), (2_000, 2), (2_000, 0),
            (2_500, 2), (2_500, 0),
            (3_000, 1), (3_000, 0),
            (3_500, 1), (3_500, 0),
            (4_000, 2), (4_000, 1), (4_000, 0),
            (4_500, 2), (4_500, 1),
            (4_900, 0),
            (5_000, 2),
            (5_400, 0),
            (5_500, 2),
            (5_900, 0),
            (6_000, 2), (6_000, 1),
        ];
        assert_eq!(upto_6s, want);
    }

    #[test]
    fn crash_requeue_breakdown_charges_backoff_not_scheduler() {
        // The first attempt's cold start + partial exec and the crash backoff
        // used to be smeared into the scheduler stage on requeue; now each
        // lands in its own stage and the total still telescopes.
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let cfg = SimConfig { trace: true, ..SimConfig::default() };
        let sim = Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], cfg);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(800), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(2_800), FaultKind::NodeRecover(NodeId(0)));
        let res = sim.run_with_faults(&t, &mut NullPlatform, &plan);
        let r = &res.records[0];
        assert_eq!(r.requeues, 1);
        assert_eq!(r.breakdown.total(), r.latency, "stages must telescope to latency");
        // Backoff is its own stage now (≥ the 1s base crash backoff)…
        assert!(r.breakdown.backoff >= SimDuration::from_secs(1), "{:?}", r.breakdown);
        // …and the scheduler stage no longer absorbs the failed attempt. It
        // still holds the genuine placement wait (the requeue blocks ~1s for
        // node recovery), but not the first attempt's cold start + exec +
        // backoff — the old recomputation booked all of it (~2.8s) here.
        assert!(r.breakdown.scheduler < SimDuration::from_millis(1_100), "{:?}", r.breakdown);
        // The dead attempt's exec segment is preserved and attributed to
        // attempt 0; the rerun's to attempt 1.
        let trace = res.trace.as_ref().expect("tracing enabled");
        let spans = trace.spans_for(r.inv.0 as u64);
        assert!(spans.iter().any(|s| s.kind == SpanKind::Exec && s.attempt == 0));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Exec && s.attempt == 1));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Backoff));
        let sum: u64 = spans.iter().map(|s| s.len_us()).sum();
        assert_eq!(SimDuration(sum), r.latency, "span tiling must cover the whole latency");
    }

    #[test]
    fn node_crash_requeues_and_completes_after_recovery() {
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        // Crash mid-execution (exec starts ~501.3ms in, runs 1s), recover 2s later.
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(800), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(2_800), FaultKind::NodeRecover(NodeId(0)));
        let res = sim.run_with_faults(&t, &mut NullPlatform, &plan);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.aborted, 0);
        assert_eq!(res.crash_requeues, 1);
        assert_eq!(res.pool_violations, 0);
        let r = &res.records[0];
        assert!(r.flags.crashed);
        assert_eq!(r.requeues, 1);
        // Latency spans the crash: > backoff (1s) + recovery wait + full rerun.
        assert!(r.latency.as_secs_f64() > 3.0, "latency {:?}", r.latency);
    }

    #[test]
    fn crash_retry_exhaustion_terminally_aborts() {
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        // Four crashes, each caught mid-attempt: requeues land 1 s, 2 s and
        // 4 s after the first three (~1.8 s, ~4.6 s, ~9.4 s), each attempt
        // restarts cold and runs 1 s; the fourth exhausts CRASH_MAX_RETRIES.
        let mut plan = FaultPlan::empty();
        for crash_ms in [800, 2_600, 5_400, 10_200] {
            plan.push(SimTime::from_millis(crash_ms), FaultKind::NodeCrash(NodeId(0)));
            plan.push(SimTime::from_millis(crash_ms + 200), FaultKind::NodeRecover(NodeId(0)));
        }
        let res = sim.run_with_faults(&t, &mut NullPlatform, &plan);
        assert_eq!(res.records.len(), 0, "an aborted invocation never completes");
        assert_eq!(res.aborted, 1);
        assert_eq!(res.crash_requeues, u64::from(CRASH_MAX_RETRIES));
        assert_eq!(res.pool_violations, 0);
    }

    #[test]
    fn shard_stall_defers_decisions_until_resume() {
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::from_millis(100), FunctionId(0), InputMeta::new(1, 0));
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::ZERO, FaultKind::ShardStall(0));
        plan.push(SimTime::from_secs(3), FaultKind::ShardResume(0));
        let res = sim.run_with_faults(&t, &mut NullPlatform, &plan);
        assert_eq!(res.records.len(), 1);
        // The arrival at 100ms could not be decided before the resume at 3s.
        let lat = res.records[0].latency.as_secs_f64();
        assert!(lat > 2.9, "stalled shard must delay the decision: {lat}");
    }

    #[test]
    fn abort_fault_requeues_on_a_live_node() {
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let sim = single_node_sim(funcs);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(800), FaultKind::AbortInvocation(InvocationId(0)));
        let res = sim.run_with_faults(&t, &mut NullPlatform, &plan);
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.crash_requeues, 1);
        assert!(res.records[0].flags.crashed);
        assert_eq!(res.pool_violations, 0);
    }

    /// Scripted policy for `running_cpu_cache_tracks_every_allocation_change`:
    /// donors (func 0) are harvested at start and safeguarded 600 ms in,
    /// borrowers (func 1) and oomers (func 3) take a CPU loan from the latest
    /// donor, and oomers are also harvested below the memory they touch.
    /// Every hook reads the node's CPU scale — in debug builds each read
    /// cross-checks the cached sum against a walk — and every tick
    /// re-checks the invariants, cache = walk among them.
    #[derive(Default)]
    struct Scripted {
        donor: Option<InvocationId>,
        scales: Vec<f64>,
        loan_ends: Vec<(LoanEnd, u32)>,
    }

    impl Scripted {
        fn read_scale(&mut self, ctx: &SimCtx<'_>) {
            self.scales.push(ctx.world().node_cpu_scale(0));
        }
    }

    impl Platform for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let func = ctx.inv(inv).func.0;
            if func == 0 {
                ctx.set_own_grant(inv, ResourceVec::new(1_000, 512));
                self.donor = Some(inv);
            }
            if func == 3 {
                ctx.set_own_grant(inv, ResourceVec::new(1_000, 64));
            }
            if let (1 | 3, Some(donor)) = (func, self.donor) {
                // Refused on a retry whose donor was safeguarded meanwhile.
                let cpu = if func == 1 { 2_000 } else { 1_000 };
                let _ = ctx.lend(donor, inv, ResourceVec::new(cpu, 0));
            }
            self.read_scale(ctx);
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            assert_eq!(ctx.world().check_invariants(), Ok(()));
            let _ = ctx.usage(inv);
            self.read_scale(ctx);
            let i = ctx.inv(inv);
            let due = i.exec_start.is_some_and(|s| ctx.now() >= s + SimDuration::from_millis(600));
            if i.func.0 == 0 && due && !i.flags.safeguarded {
                let _ = ctx.preemptive_release(inv);
            }
        }
        fn on_complete(&mut self, ctx: &mut SimCtx<'_>, _: InvocationId, _: &Actuals) {
            self.read_scale(ctx);
        }
        fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, why: LoanEnd) {
            self.loan_ends.push((why, loan.borrower.0));
            self.read_scale(ctx);
        }
        fn on_oom(&mut self, ctx: &mut SimCtx<'_>, _: InvocationId) {
            self.read_scale(ctx);
        }
        fn on_abort(&mut self, ctx: &mut SimCtx<'_>, _: InvocationId) {
            self.read_scale(ctx);
        }
        fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, _: NodeId) {
            self.read_scale(ctx);
        }
    }

    #[test]
    fn running_cpu_cache_tracks_every_allocation_change() {
        let demand = |cpu_millis, mem, ms| TrueDemand {
            cpu_peak_millis: cpu_millis,
            mem_peak_mb: mem,
            base_duration: SimDuration::from_millis(ms),
        };
        let funcs = vec![
            spec("donor", 4, 2048, demand(1_000, 256, 3_000)),
            spec("borrower", 2, 512, demand(4_000, 256, 1_000)),
            spec("filler", 3, 512, demand(3_000, 256, 1_000)),
            spec("oomer", 1, 1024, demand(2_000, 900, 1_000)),
        ];
        let mut t = Trace::new();
        let mut arrive =
            |ms, func| t.push(SimTime::from_millis(ms), FunctionId(func), InputMeta::new(1, 0));
        // Harvest → lend → the filler takes the room the harvest freed → the
        // safeguard restores the donor: 4 + 2 + 3 cores on 8, scale 8/9
        // until the filler ends.
        arrive(0, 0);
        arrive(100, 1);
        arrive(200, 2);
        // An OOM restart of an invocation that holds a loan, beside a
        // running donor. (Donors and borrowers start warm from here on.)
        arrive(5_950, 3);
        arrive(6_000, 0);
        // A targeted abort of a borrower with its loan open.
        arrive(10_000, 0);
        arrive(10_100, 1);
        // A crash that kills a donor and its borrower with the loan open.
        arrive(15_000, 0);
        arrive(15_100, 1);
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(10_400), FaultKind::AbortInvocation(InvocationId(6)));
        plan.push(SimTime::from_millis(15_400), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(16_000), FaultKind::NodeRecover(NodeId(0)));

        let mut platform = Scripted::default();
        let res = single_node_sim(funcs).run_with_faults(&t, &mut platform, &plan);

        assert_eq!(res.pool_violations, 0, "end-of-run check_invariants, cache = walk included");
        assert_eq!(res.records.len(), 9);
        let squeezed = platform.scales.iter().position(|&s| s < 1.0).expect("scale dipped");
        assert_eq!(platform.scales[squeezed], 8.0 / 9.0);
        assert!(platform.scales[squeezed..].contains(&1.0), "and the filler's finish lifted it");
        let by_id = |id: u32| res.records.iter().find(|r| r.inv.0 == id).expect("completed");
        assert!(by_id(0).flags.safeguarded);
        assert!([1, 3, 6, 8].iter().all(|&id| by_id(id).flags.accelerated), "loans were made");
        assert_eq!(by_id(3).restarts, 1);
        // The first loan ended in the safeguard's hands; the OOM, the abort
        // and the crash each found theirs open.
        assert_eq!(
            platform.loan_ends,
            [(LoanEnd::BorrowerCompleted, 3), (LoanEnd::Crashed, 6), (LoanEnd::Crashed, 8)]
        );
        assert_eq!((by_id(6).requeues, by_id(7).requeues, by_id(8).requeues), (1, 1, 1));
        // Finish instants (µs), derived. An admission costs 1,302 (frontend
        // 1,000, one decision 300 + 2 a node), a cold start 500,000; work is
        // demand × base duration, in millicore·µs.
        // #0 donor: cold, runs from 501,302 and arms the node's tick
        //    (601,302 + k·100,000); harvested to its 1-core demand, 3,000 ms of
        //    work → 3,501,302.
        // #1 borrower: cold, runs from 601,302 at 2 own + 2 lent cores = its
        //    demand, 4.0e9 of work. #2 filler: 3 cores fit only once #0 is
        //    harvested (501,302); decided 501,604, cold, runs from 1,001,604.
        //    The tick of 1,101,302 — 600 ms into #0 — safeguards #0: the loan
        //    goes, 4 + 2 + 3 cores on 8, scale 8/9. #2 has 3.0e9 − 99,698 ×
        //    3,000 left at ⌊3,000 · 8/9⌋ = 2,666 → 1,013,094 → 2,114,396. That
        //    lifts the scale; #1 has 2.0e9 − 1,013,094 × 1,777 = 199,731,962
        //    left at 2,000 → 99,866 → 2,214,262.
        // #4 donor: warm, 6,001,302 + 3,000,000 = 9,001,302. The node had
        //    been empty since 3,501,302 (that instant's tick ended the chain),
        //    so #4 re-arms it: 6,101,302 + k·100,000.
        // #3 oomer: cold, runs from 6,451,302 on a grant under the memory it
        //    touches. The node's tick sees it at 6,501,302 — 50 ms in, where a
        //    timer of its own waited 100 (this is the one instant the
        //    per-node tick moved, from 9,051,302) — and it restarts cold:
        //    7,001,302, loan gone, 2.0e9 at its nominal core → 9,001,302.
        // #5 donor: warm, 10,001,302 + 3,000,000 = 13,001,302.
        // #6 borrower: aborted at 10,400,000, back after 1,000,000: decided
        //    11,401,302, cold, 11,901,302; #5 was safeguarded at 10,601,302 so
        //    the loan is refused: 4.0e9 at 2,000 → 13,901,302.
        // #7 donor: crashed at 15,400,000, back at 16,400,000: decided
        //    16,401,302, cold (the crash emptied the warm pool), 16,901,302
        //    (re-arming the tick: 17,001,302 + k·100,000) + 3,000,000 =
        //    19,901,302.
        // #8 borrower: same crash, decided one decision behind #7, cold, runs
        //    from 16,901,604 at 4,000 until the tick of 17,501,302 safeguards
        //    #7: 4.0e9 − 599,698 × 4,000 left at 2,000 → 800,604 → 18,301,906.
        let finished: Vec<u64> = (0..9)
            .map(|id| by_id(id).arrival.as_micros() + by_id(id).latency.as_micros())
            .collect();
        assert_eq!(
            finished,
            [
                3_501_302, 2_214_262, 2_114_396, 9_001_302, 9_001_302, 13_001_302, 13_901_302,
                19_901_302, 18_301_906
            ]
        );
    }

    #[test]
    fn an_oom_victims_last_segment_is_observed_and_settled_before_the_drain() {
        // Donor #0 runs from 501,302 µs, harvested to one core. Oomer #1 runs
        // from 651,302 on its own core plus one borrowed from #0 (busy 2,000)
        // and a memory grant of 128 MB under what it touches, so the visit
        // of 701,302 kills it. Those 50 ms end in `end_loans`, which drops
        // the loan: only the OOM branch's settle before the drain observes
        // busy 2,000 and books +1,000 millicores over them. The restart runs
        // on its one core.
        let demand = |cpu_millis, mem| TrueDemand {
            cpu_peak_millis: cpu_millis,
            mem_peak_mb: mem,
            base_duration: SimDuration::from_secs(1),
        };
        let funcs = vec![
            spec("donor", 4, 2048, demand(1_000, 256)),
            spec("borrower", 2, 512, demand(4_000, 256)),
            spec("filler", 3, 512, demand(3_000, 256)),
            spec("oomer", 1, 1024, demand(2_000, 900)),
        ];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(150), FunctionId(3), InputMeta::new(1, 0));
        let res = single_node_sim(funcs).run(&t, &mut Scripted::default());
        let r = res.records.iter().find(|r| r.inv.0 == 1).expect("completed");
        assert_eq!((r.restarts, r.cpu_peak_obs), (1, 2_000));
        assert_eq!((r.cpu_reassigned_core_sec, r.mem_reassigned_mb_sec), (0.05, -44.8));
        assert_eq!(r.arrival.as_micros() + r.latency.as_micros(), 1_201_302 + 2_000_000);
    }

    /// `NullPlatform` placement. At its first visit it breaks the resident
    /// vectors four ways, records what `check_invariants` says of each, then
    /// restores them and records that too; then it drifts node 0's watched
    /// count from the flags, up and down; last, a running resident leaves
    /// `Running` with its rate still in force.
    #[derive(Default)]
    struct BreakResidents(Vec<Result<(), String>>);

    impl Platform for BreakResidents {
        fn name(&self) -> String {
            "break-residents".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, _: InvocationId) {
            if !self.0.is_empty() {
                return;
            }
            let w = &mut *ctx.w;
            let kept = std::mem::take(&mut w.nodes[0].residents);
            assert!(w.invs.at(0).is_none(), "slot 0 was freed by #0's completion");
            for (on_0, on_1) in [
                (vec![kept[0], kept[0]], vec![]), // a slot twice
                (vec![kept[0], 0], vec![]),       // a free slot
                (vec![], kept.clone()),           // on the wrong node
                (vec![], vec![]),                 // placed, resident nowhere
                (kept, vec![]),                   // as it was
            ] {
                (w.nodes[0].residents, w.nodes[1].residents) = (on_0, on_1);
                self.0.push(w.check_invariants());
            }
            let slot = w.nodes[0].residents[0] as usize;
            w.nodes[0].watched += 1;
            self.0.push(w.check_invariants());
            w.nodes[0].watched -= 1;
            w.invs.get_mut(slot).wake = Wake::NEVER;
            self.0.push(w.check_invariants());
            w.invs.get_mut(slot).wake = Wake::EVERY_TICK;
            w.invs.get_mut(slot).state = InvState::ColdStarting;
            w.invalidate_running_cpu(0);
            self.0.push(w.check_invariants());
            w.invs.get_mut(slot).state = InvState::Running;
        }
    }

    #[test]
    fn check_invariants_holds_the_resident_vectors_to_the_placed_set() {
        // #0 (50 ms) finishes at 551,302 µs and frees slot 0; #1 takes slot 1
        // and is running at the first visit, 601,302.
        let funcs = vec![
            spec(
                "short",
                1,
                256,
                TrueDemand {
                    base_duration: SimDuration::from_millis(50),
                    ..one_sec_demand(1, 128)
                },
            ),
            spec("long", 1, 256, one_sec_demand(1, 128)),
        ];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(10), FunctionId(1), InputMeta::new(1, 0));
        let sim = Simulation::new(
            funcs,
            vec![ResourceVec::from_cores_mb(8, 8192); 2],
            SimConfig::default(),
        );
        let mut log = BreakResidents::default();
        assert_eq!(sim.run(&t, &mut log).pool_violations, 0);
        let err = |s: &str| Err(s.to_string());
        assert_eq!(
            log.0,
            [
                err("inv#1 resident on node#0, then on node#0"),
                err("node#0 holds free arena slot 0"),
                err("inv#1 (Running, placed on Some(node#0)) is resident on node#1"),
                err("1 invocations are placed, 0 resident"),
                Ok(()),
                err("node#0 counts 2 watched residents, 1 are flagged"),
                err("node#0 counts 1 watched residents, 0 are flagged"),
                err("inv#1 accrues while ColdStarting"),
            ]
        );
    }

    /// Scripted policy for `a_drained_loan_that_lifts_the_scale_rerates_the_residents`:
    /// func 0 and func 2 are harvested to one core at start, func 1 borrows
    /// three cores from the func-0 donor, and func 2 is safeguarded at its
    /// first visit from 1.3 s on. Every visit logs (instant µs, invocation,
    /// rate in force, rate its allocation and the node's scale give now)
    /// when the two differ.
    #[derive(Default)]
    struct DrainedLoan {
        donor: Option<InvocationId>,
        stale: Vec<(u64, u32, u64, u64)>,
    }

    impl Platform for DrainedLoan {
        fn name(&self) -> String {
            "drained-loan".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            match ctx.inv(inv).func.0 {
                0 | 2 => {
                    ctx.set_own_grant(inv, ResourceVec::new(1_000, 512));
                    if ctx.inv(inv).func.0 == 0 {
                        self.donor = Some(inv);
                    }
                }
                1 => {
                    let donor = self.donor.expect("the donor starts first");
                    assert!(ctx.lend(donor, inv, ResourceVec::new(3_000, 0)));
                }
                _ => {}
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let w = ctx.world();
            let idx = w.slot(inv);
            let (have, want) = (w.invs.get(idx).run.rate_millis, w.effective_rate(idx));
            if have != want {
                self.stale.push((ctx.now().as_micros(), inv.0, have, want));
            }
            let i = ctx.inv(inv);
            if i.func.0 == 2 && ctx.now() >= SimTime::from_millis(1_300) && !i.flags.safeguarded {
                let _ = ctx.preemptive_release(inv);
            }
        }
    }

    /// Known physics bug, kept failing until the fix re-blesses the goldens.
    /// `end_loans` drains a dying borrower's loans *before* the caller's
    /// `with_alloc_change` measures the node's scale, so when the drain alone
    /// lifts an oversubscribed node back to scale 1, `pre` already reads 1
    /// and the other residents keep their throttled rates.
    ///
    /// On 8 cores: donor #0 (4 cores, harvested to 1) lends 3 to borrower #2
    /// (1 core of its own, wants 4); donor #1 (2 cores, harvested to 1) and
    /// filler #3 (2 cores) fill the node. The safeguard restores #1 at
    /// 1,301,302 µs: 1 + 2 + 4 + 2 = 9 cores on 8, and every resident is
    /// re-rated at 8/9 (#3: 1,777 millicores). When #2 completes, its 3
    /// borrowed cores go back: 6 cores on 8, scale 1 — but #0 keeps 888 and
    /// #3 keeps 1,777 where their allocations give 1,000 and 2,000. The fix
    /// drops the loans inside the `with_alloc_change` that takes the
    /// invocation out of the running set.
    #[test]
    #[ignore = "known bug: a dying borrower's drained loans skip the re-rating of its node"]
    fn a_drained_loan_that_lifts_the_scale_rerates_the_residents() {
        let demand = |cpu_millis, ms| TrueDemand {
            cpu_peak_millis: cpu_millis,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_millis(ms),
        };
        let funcs = vec![
            spec("donor", 4, 1024, demand(1_000, 3_000)),
            spec("borrower", 1, 256, demand(4_000, 1_000)),
            spec("donor2", 2, 1024, demand(1_000, 3_000)),
            spec("filler", 2, 512, demand(2_000, 3_000)),
        ];
        let mut t = Trace::new();
        for (ms, func) in [(0, 0), (10, 2), (20, 1), (700, 3)] {
            t.push(SimTime::from_millis(ms), FunctionId(func), InputMeta::new(1, 0));
        }
        let mut platform = DrainedLoan::default();
        let res = single_node_sim(funcs).run(&t, &mut platform);
        assert_eq!(res.records.len(), 4);
        let by_id = |id: u32| res.records.iter().find(|r| r.inv.0 == id).expect("completed");
        assert!(by_id(1).flags.safeguarded && by_id(2).flags.accelerated);
        assert_eq!(platform.stale, [], "visits that found a rate the allocation no longer gives");
    }

    /// `NullPlatform` placement; logs every observation as (instant µs,
    /// invocation, node, OOM restarts so far) and, for `harvest_to`, cuts
    /// every invocation's grant to that — at start, then again (a different
    /// grant) at each observation until it has been OOM-killed once.
    #[derive(Default)]
    struct TickLog {
        seen: Vec<(u64, u32, u32, u32)>,
        harvest_to: Option<ResourceVec>,
    }

    impl Platform for TickLog {
        fn name(&self) -> String {
            "ticklog".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if let Some(grant) = self.harvest_to {
                ctx.set_own_grant(inv, grant);
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let i = ctx.inv(inv);
            let node = i.node.expect("a running invocation is placed").0;
            self.seen.push((ctx.now().as_micros(), inv.0, node, i.restarts));
            if let (Some(grant), 0) = (self.harvest_to, i.restarts) {
                let cpu = grant.cpu_millis + 100 * (self.seen.len() as u64 % 2);
                ctx.set_own_grant(inv, ResourceVec::new(cpu, grant.mem_mb));
            }
        }
    }

    fn tick_kind() -> usize {
        Event::NodeTick(NodeId(0)).kind()
    }

    fn finish_kind() -> usize {
        Event::Finish { inv: InvocationId(0), generation: 0 }.kind()
    }

    #[test]
    fn a_node_observes_all_its_residents_at_one_instant_in_admission_order() {
        // Three cold starts 30 ms apart: running from 501,302 / 531,302 /
        // 561,302 µs, one second each. The first arms the node's tick.
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let mut t = Trace::new();
        for ms in [0, 30, 60] {
            t.push(SimTime::from_millis(ms), FunctionId(0), InputMeta::new(1, 0));
        }
        let mut log = TickLog::default();
        let res = single_node_sim(funcs).run(&t, &mut log);
        assert_eq!(res.records.len(), 3);
        // Nine ticks see all three; #0 ends at 1,501,302, before that
        // instant's tick (its `Finish` was queued first), which sees the
        // other two; the run is over before the next.
        let mut want = Vec::new();
        for k in 0..10u64 {
            for id in if k < 9 { 0..3u32 } else { 1..3 } {
                want.push((601_302 + k * 100_000, id, 0, 0));
            }
        }
        assert_eq!(log.seen, want);
        assert_eq!(res.pops_by_kind[tick_kind()], KindPops { handled: 10, stale: 0 });
    }

    #[test]
    fn an_idle_node_carries_no_tick() {
        let nodes = 4;
        let sim = Simulation::new(
            vec![spec("f", 1, 256, one_sec_demand(1, 128))],
            vec![ResourceVec::from_cores_mb(8, 8192); nodes],
            SimConfig::default(),
        );
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = sim.run(&t, &mut NullPlatform);
        let ticks = res.pops_by_kind[tick_kind()];
        assert!(ticks.handled + ticks.stale <= 11, "one second is ten intervals: {ticks:?}");
        // What is still queued when the run ends: one ping a node, the
        // utilization sample, and at most the one tick of the node that ran.
        let pending = res.event_pushes - res.event_pops;
        assert!(pending <= nodes as u64 + 2, "{pending} events pending");
    }

    #[test]
    fn a_finish_is_pushed_once_while_the_rate_holds() {
        // 40 one-core invocations over 2 s on 8 cores: never oversubscribed.
        let funcs = vec![spec("f", 1, 256, one_sec_demand(1, 128))];
        let mut t = Trace::new();
        for i in 0..40u64 {
            t.push(SimTime::from_millis(i * 50), FunctionId(0), InputMeta::new(1, 0));
        }
        let res = single_node_sim(funcs).run(&t, &mut NullPlatform);
        assert_eq!(res.records.len(), 40);
        assert_eq!(res.pops_by_kind[finish_kind()], KindPops { handled: 40, stale: 0 });

        // A donor: 4 cores allocated, 1 used. Harvested at start and re-cut
        // at every tick, its grant never goes under its demand, so its rate
        // never moves: a second `Finish` would land on the first one's
        // instant and pop, stale, just before it.
        let funcs = vec![spec("donor", 4, 1024, one_sec_demand(1, 128))];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let mut log =
            TickLog { harvest_to: Some(ResourceVec::new(2_000, 512)), ..TickLog::default() };
        let res = single_node_sim(funcs).run(&t, &mut log);
        assert!(res.records[0].flags.harvested);
        assert_eq!(log.seen.len(), 9, "observed, and re-cut, nine times");
        assert_eq!(res.pops_by_kind[finish_kind()], KindPops { handled: 1, stale: 0 });
        assert_eq!(res.records[0].exec, SimDuration::from_secs(1));
    }

    #[test]
    fn an_oom_restart_is_monitored_again_after_its_cold_start() {
        // Harvested to the floor, under what it touches: killed at its first
        // observation, cold-starting for 500 ms, then two seconds at nominal.
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 900,
            base_duration: SimDuration::from_secs(2),
        };
        let mut log =
            TickLog { harvest_to: Some(ResourceVec::new(2_000, 64)), ..TickLog::default() };
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = single_node_sim(vec![spec("f", 2, 1024, d)]).run(&t, &mut log);
        assert_eq!(res.records[0].restarts, 1);
        // One chain, never interrupted: the tick fires through the cold
        // start (the victim is resident, just not running) and picks the
        // restarted container up at the very instant it runs again — the
        // `StartExec` of 1,101,302 was queued before that instant's tick.
        let before: Vec<u64> = log.seen.iter().filter(|s| s.3 == 0).map(|s| s.0).collect();
        let after: Vec<u64> = log.seen.iter().filter(|s| s.3 == 1).map(|s| s.0).collect();
        assert_eq!(before, [601_302]);
        assert_eq!(after.len(), 20, "{after:?}");
        assert_eq!(after[0], 601_302 + 500_000);
        assert!(after.windows(2).all(|w| w[1] - w[0] == 100_000), "{after:?}");
    }

    #[test]
    fn crash_and_recovery_never_leave_a_node_two_tick_chains() {
        // #0 is running when node 0 crashes (its armed tick dies on the empty
        // node); #1 arrives right after the recovery and re-arms the chain;
        // #0 comes back from its backoff and joins that chain, not its own.
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(860), FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(1_900), FunctionId(0), InputMeta::new(1, 0));
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(800), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(850), FaultKind::NodeRecover(NodeId(0)));
        let mut log = TickLog::default();
        let res = single_node_sim(funcs).run_with_faults(&t, &mut log, &plan);
        assert_eq!((res.records.len(), res.crash_requeues), (3, 1));
        let observed = |id: u32| log.seen.iter().filter(|s| s.1 == id).count();
        assert!(observed(0) >= 10 && observed(1) >= 9 && observed(2) >= 9, "{:?}", log.seen);
        let mut instants: Vec<u64> = log.seen.iter().map(|s| s.0).collect();
        instants.dedup();
        assert!(instants.windows(2).all(|w| w[1] - w[0] >= 100_000), "{instants:?}");
    }

    /// `NullPlatform` placement and visit (the default `on_tick`, which
    /// unwatches), after cutting every grant to `grant` at start if set.
    /// Logs every visit as (instant µs, invocation, OOM restarts, attempt).
    #[derive(Default)]
    struct DefaultVisits {
        grant: Option<ResourceVec>,
        seen: Vec<(u64, u32, u32, u32)>,
    }

    impl Platform for DefaultVisits {
        fn name(&self) -> String {
            "default-visits".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if let Some(grant) = self.grant {
                ctx.set_own_grant(inv, grant);
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let i = ctx.inv(inv);
            self.seen.push((ctx.now().as_micros(), inv.0, i.restarts, i.requeues));
            NullPlatform.on_tick(ctx, inv);
        }
    }

    #[test]
    fn a_default_visit_comes_once_per_attempt() {
        // Two one-second invocations run from ≈ 0.5 s; the node crashes at
        // 0.8 s, and each is requeued, re-placed and run to completion.
        let funcs = vec![spec("f", 2, 1024, one_sec_demand(2, 256))];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(30), FunctionId(0), InputMeta::new(1, 0));
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_millis(800), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(850), FaultKind::NodeRecover(NodeId(0)));
        let mut log = DefaultVisits::default();
        let res = single_node_sim(funcs).run_with_faults(&t, &mut log, &plan);
        assert_eq!((res.records.len(), res.crash_requeues, res.pool_violations), (2, 2, 0));
        let visits: Vec<(u32, u32)> = log.seen.iter().map(|s| (s.1, s.3)).collect();
        assert_eq!(visits, [(0, 0), (1, 0), (0, 1), (1, 1)]);
        // The ticks ran all along, two in the first attempt and ten in the
        // second (the crash emptied the node: one stale tick ended the
        // chain); they just had nobody to show after each attempt's first.
        assert_eq!(res.pops_by_kind[tick_kind()], KindPops { handled: 12, stale: 1 });
    }

    #[test]
    fn unwatching_a_memory_harvested_resident_keeps_its_oom_rule() {
        // Peak 900 MB within 1,024 nominal, harvested to 600 MB: running
        // from 501,302 µs for 2 s, its footprint 900 · (0.25 + 0.75 p) first
        // crosses 600 at p = 0.6, the visit of 1,701,302. The default visit
        // leaves `NEVER`, which the engine turns into the footprint of 601
        // MB, where the OOM rule fires: the first visit, then that one. The
        // restart runs at its nominal memory, and there `NEVER` holds.
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 900,
            base_duration: SimDuration::from_secs(2),
        };
        let grant = Some(ResourceVec::new(2_000, 600));
        let mut p = DefaultVisits { grant, ..DefaultVisits::default() };
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let res = single_node_sim(vec![spec("f", 2, 1024, d)]).run(&t, &mut p);
        assert_eq!(res.records[0].restarts, 1);
        let before: Vec<u64> = p.seen.iter().filter(|s| s.2 == 0).map(|s| s.0).collect();
        assert_eq!(before, [601_302, 1_701_302]);
        assert_eq!(p.seen.iter().filter(|s| s.2 == 1).count(), 1, "{:?}", p.seen);
    }

    /// What [`Poker`]'s driver does at its visit of 801,302 µs.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Poke {
        Nothing,
        Lend,
        ReturnLoan,
        Safeguard,
        SetGrant,
    }

    /// Donor #0 (func 0) is cut to one core at start; borrower #1 (func 1)
    /// borrows one of them at start when the poke needs a loan open; driver
    /// #2 (func 2) stays watched and pokes at 801,302 µs; everyone else is
    /// unwatched at every visit. Logs every visit as (instant µs, inv).
    struct Poker {
        poke: Poke,
        seen: Vec<(u64, u32)>,
    }

    impl Platform for Poker {
        fn name(&self) -> String {
            "poker".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let one_core = ResourceVec::new(1_000, 0);
            match inv.0 {
                0 => ctx.set_own_grant(inv, ResourceVec::new(1_000, 1024)),
                1 if matches!(self.poke, Poke::ReturnLoan | Poke::Safeguard) => {
                    assert!(ctx.lend(InvocationId(0), inv, one_core));
                }
                _ => {}
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.seen.push((ctx.now().as_micros(), inv.0));
            if inv.0 != 2 {
                ctx.watch(inv, Wake::NEVER);
                return;
            }
            if ctx.now() != SimTime(801_302) {
                return;
            }
            let (donor, borrower) = (InvocationId(0), InvocationId(1));
            let one_core = ResourceVec::new(1_000, 0);
            match self.poke {
                Poke::Nothing => {}
                Poke::Lend => assert!(ctx.lend(donor, borrower, one_core)),
                Poke::ReturnLoan => {
                    assert_eq!(ctx.return_loan(borrower, donor, one_core), one_core)
                }
                Poke::Safeguard => assert_eq!(ctx.preemptive_release(donor).len(), 1),
                Poke::SetGrant => ctx.set_own_grant(borrower, ResourceVec::new(1_000, 512)),
            }
        }
    }

    #[test]
    fn every_allocation_or_charge_change_watches_again() {
        // #0–#2 run from ≈ 0.5 s and are first visited at 601,302 µs; #3
        // (3 cores) is placed at 651,302 and starts at 1,151,302, on 8 cores
        // with 1 + 2 + 1 (+ 1 lent) reserved beside it.
        let long = |cores, mem, cpu| {
            let d = TrueDemand {
                cpu_peak_millis: cpu,
                mem_peak_mb: 128,
                base_duration: SimDuration::from_secs(3),
            };
            spec("long", cores, mem, d)
        };
        let funcs = vec![
            long(4, 1024, 1_000),
            long(2, 512, 4_000),
            long(1, 256, 1_000),
            long(3, 512, 3_000),
        ];
        let mut t = Trace::new();
        for (ms, func) in [(0, 0), (10, 1), (20, 2), (650, 3)] {
            t.push(SimTime::from_millis(ms), FunctionId(func), InputMeta::new(1, 0));
        }
        let at = |seen: &[(u64, u32)], us: u64| -> Vec<u32> {
            seen.iter().filter(|s| s.0 == us).map(|s| s.1).collect()
        };
        // Who the ticks after the poke and after #3's start visit. The
        // safeguard restores #0 to four cores, so #3's start finds 10 cores
        // running on 8: the whole node is re-rated, hence watched again.
        for (poke, after_poke, after_start) in [
            (Poke::Nothing, vec![2], vec![2, 3]),
            (Poke::Lend, vec![0, 1, 2], vec![2, 3]),
            (Poke::ReturnLoan, vec![0, 1, 2], vec![2, 3]),
            (Poke::Safeguard, vec![0, 1, 2], vec![0, 1, 2, 3]),
            (Poke::SetGrant, vec![1, 2], vec![2, 3]),
        ] {
            let mut p = Poker { poke, seen: Vec::new() };
            let res = single_node_sim(funcs.clone()).run(&t, &mut p);
            assert_eq!((res.records.len(), res.pool_violations), (4, 0), "{poke:?}");
            assert_eq!(at(&p.seen, 601_302), [0, 1, 2], "{poke:?}");
            assert_eq!(at(&p.seen, 801_302), [2], "{poke:?}");
            assert_eq!(at(&p.seen, 901_302), after_poke, "{poke:?}");
            assert_eq!(at(&p.seen, 1_001_302), [2], "{poke:?}");
            assert_eq!(at(&p.seen, 1_201_302), after_start, "{poke:?}");
        }
    }

    /// Cuts every invocation's memory to 600 MB at start, and trips it
    /// (restores its grant) at the first visit that sees its footprint at
    /// 0.8 × that grant, 480 MB or more. A visit that does not trip leaves
    /// the footprint of 480 MB, or, with `rewatch`, every tick; a tripped
    /// one leaves never. Logs every visit as (instant µs, inv) and every
    /// trip as its instant.
    struct TripLine {
        rewatch: bool,
        seen: Vec<(u64, u32)>,
        trips: Vec<u64>,
    }

    impl Platform for TripLine {
        fn name(&self) -> String {
            "trip-line".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let cpu = ctx.inv(inv).nominal.cpu_millis;
            ctx.set_own_grant(inv, ResourceVec::new(cpu, 600));
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            let now = ctx.now().as_micros();
            self.seen.push((now, inv.0));
            let i = ctx.inv(inv);
            if i.own_grant == i.nominal {
                ctx.watch(inv, Wake::NEVER);
            } else if ctx.usage(inv).mem_used_mb * 5 >= 600 * 4 {
                ctx.preemptive_release(inv);
                self.trips.push(now);
                ctx.watch(inv, Wake::NEVER);
            } else {
                ctx.watch(inv, if self.rewatch { Wake::EVERY_TICK } else { Wake::footprint(480) });
            }
        }
    }

    #[test]
    fn a_footprint_wake_trips_at_the_tick_the_footprint_reaches_it() {
        // Peak 500 MB, harvested to 600: no OOM can come. Running from
        // 501,302 µs for 2 s, progress at the tick of 601,302 + k · 100,000
        // is (k + 1) / 20, and its footprint round(500 · (0.25 + 0.75 p))
        // is 463 MB at k = 17 and 481 at k = 18: the trip line of 480 is
        // first reached at 2,401,302.
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 500,
            base_duration: SimDuration::from_secs(2),
        };
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let mut runs = Vec::new();
        for rewatch in [false, true] {
            let mut p = TripLine { rewatch, seen: Vec::new(), trips: Vec::new() };
            let res = single_node_sim(vec![spec("f", 2, 1024, d)]).run(&t, &mut p);
            assert_eq!(p.trips, [2_401_302], "rewatch {rewatch}");
            let to_trip = p.seen.iter().filter(|s| s.0 <= 2_401_302).count();
            assert_eq!(to_trip, if rewatch { 19 } else { 2 }, "rewatch {rewatch}: {:?}", p.seen);
            // Without re-watching, the node walks only the ticks it visits:
            // the first after the start, and the one its footprint wait,
            // bounded at the crossing, can first hold at.
            assert_eq!(res.tick_walks.0, if rewatch { 19 } else { 2 }, "rewatch {rewatch}");
            runs.push(format!("{:?}", res.records));
        }
        assert_eq!(runs[0], runs[1]);
    }

    /// Leaves a footprint wait of 481 MB at start, before the rate the start
    /// gives is set, and never after a visit. Logs every visit's instant µs.
    struct StartWait(Vec<u64>);

    impl Platform for StartWait {
        fn name(&self) -> String {
            "start-wait".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            ctx.watch(inv, Wake::footprint(481));
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.0.push(ctx.now().as_micros());
            ctx.watch(inv, Wake::NEVER);
        }
    }

    #[test]
    fn a_footprint_wake_left_at_start_is_bounded_at_the_rate_the_start_sets() {
        // The run of the trip-line test: 481 MB is first reached at the
        // tick of 2,401,302. The wait is left while the rate is still 0,
        // so it is bounded again once the start sets the rate. The node
        // walks the first tick (the start changed it), which rebuilds its
        // bound from the wait, and then only the tick the line is reached
        // at, where it visits.
        let d = TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 500,
            base_duration: SimDuration::from_secs(2),
        };
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        let mut p = StartWait(Vec::new());
        let res = single_node_sim(vec![spec("f", 2, 1024, d)]).run(&t, &mut p);
        assert_eq!((p.0.as_slice(), res.tick_walks.0), (&[2_401_302][..], 2));
    }

    /// Donor #1 (func 1) is cut to one of its four cores at start. Borrower
    /// #0 (func 0) borrows one core of it at the first visit that finds
    /// the donor's idle volume; until then each visit leaves a wait on the
    /// node, or, with `rewatch`, every tick; afterwards never. Logs every
    /// visit of #0 and every loan as its instant µs.
    struct PoolWait {
        rewatch: bool,
        seen: Vec<u64>,
        lends: Vec<u64>,
    }

    impl Platform for PoolWait {
        fn name(&self) -> String {
            "pool-wait".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 == 1 {
                ctx.set_own_grant(inv, ResourceVec::new(1_000, 1024));
            }
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 != 0 || !ctx.inv(inv).borrowed_in.is_empty() {
                ctx.watch(inv, Wake::NEVER);
                return;
            }
            let now = ctx.now().as_micros();
            self.seen.push(now);
            let (donor, one_core) = (InvocationId(1), ResourceVec::new(1_000, 0));
            if one_core.fits_within(&ctx.harvestable(donor)) {
                assert!(ctx.lend(donor, inv, one_core));
                self.lends.push(now);
                ctx.watch(inv, Wake::NEVER);
            } else {
                ctx.watch(inv, if self.rewatch { Wake::EVERY_TICK } else { Wake::NODE_CHANGE });
            }
        }
    }

    #[test]
    fn a_node_wait_lends_at_the_first_tick_after_a_harvest_fills_the_pool() {
        // Borrower #0 runs from 501,302 µs; its ticks come at 601,302 +
        // k · 100,000. Donor #1 arrives at 1.05 s and starts (cold) at
        // 1,551,302, where its harvest fills the pool: the next tick,
        // 1,601,302, lends. Placing the donor changes no running set, so
        // without re-watching the borrower sleeps from its first visit
        // to then, and the node walks no tick in between: it walks at
        // 601,302 (the start's every-tick), at 1,601,302 (the donor's start
        // bumped the generation) and at 1,701,302 (the loan did), and then
        // never again.
        let long = |cores, cpu| {
            let d = TrueDemand {
                cpu_peak_millis: cpu,
                mem_peak_mb: 128,
                base_duration: SimDuration::from_secs(3),
            };
            spec("long", cores, 1024, d)
        };
        let funcs = vec![long(1, 2_000), long(4, 1_000)];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::from_millis(1_050), FunctionId(1), InputMeta::new(1, 0));
        let mut runs = Vec::new();
        for rewatch in [false, true] {
            let mut p = PoolWait { rewatch, seen: Vec::new(), lends: Vec::new() };
            let res = single_node_sim(funcs.clone()).run(&t, &mut p);
            assert_eq!(p.lends, [1_601_302], "rewatch {rewatch}");
            let want: Vec<u64> = if rewatch {
                (0..11).map(|k| 601_302 + k * 100_000).collect()
            } else {
                vec![601_302, 1_601_302]
            };
            assert_eq!(p.seen, want, "rewatch {rewatch}");
            assert_eq!(res.tick_walks.0, if rewatch { 12 } else { 3 }, "rewatch {rewatch}");
            runs.push(format!("{:?}", res.records));
        }
        assert_eq!(runs[0], runs[1]);
    }

    /// #0 waits on its node at every visit, everyone else never. Logs every
    /// visit of #0 as its instant µs.
    struct DepartureWait(Vec<u64>);

    impl Platform for DepartureWait {
        fn name(&self) -> String {
            "departure-wait".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            if inv.0 == 0 {
                self.0.push(ctx.now().as_micros());
                ctx.watch(inv, Wake::NODE_CHANGE);
            } else {
                ctx.watch(inv, Wake::NEVER);
            }
        }
    }

    #[test]
    fn a_node_wait_wakes_at_the_first_tick_after_a_neighbour_leaves() {
        // #0 (3 s) and #1 (0.5 s) both run from 501,302 µs. After the
        // first tick nobody is watched for a footprint or every tick; #1's
        // departure at 1,001,302 (after that instant's tick) changes the
        // node: the next tick, 1,101,302, walks and visits #0. No tick
        // walks between, nor after.
        let d = |ms| TrueDemand {
            cpu_peak_millis: 1_000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_millis(ms),
        };
        let funcs = vec![spec("long", 1, 256, d(3_000)), spec("short", 1, 256, d(500))];
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        t.push(SimTime::ZERO, FunctionId(1), InputMeta::new(1, 0));
        let mut p = DepartureWait(Vec::new());
        let res = single_node_sim(funcs).run(&t, &mut p);
        assert_eq!((p.0.as_slice(), res.tick_walks.0), (&[601_302, 1_101_302][..], 2));
    }

    /// `NullPlatform` placement; logs every killed attempt as (invocation,
    /// arena slot).
    #[derive(Default)]
    struct AbortLog(Vec<(u32, usize)>);

    impl Platform for AbortLog {
        fn name(&self) -> String {
            "abortlog".into()
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            NullPlatform.select_node(world, shard, inv)
        }
        fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
            self.0.push((inv.0, ctx.world().slot(inv)));
        }
    }

    #[test]
    fn a_crash_sweep_kills_in_admission_order() {
        // #0 and #1 finish at ~0.6 s and free slots 0 then 1, which the
        // free list hands back last-in first: #2 takes slot 1, #3 slot 0,
        // #4 slot 2. #2 is aborted at 2 s and re-admitted at ~3 s, behind
        // the other two. So at the crash, admission order (3, 4, 2) is
        // neither id order nor slot order, and the sweep must follow it.
        let short = spec(
            "short",
            1,
            256,
            TrueDemand { base_duration: SimDuration::from_millis(100), ..one_sec_demand(1, 128) },
        );
        let long = spec(
            "long",
            1,
            256,
            TrueDemand { base_duration: SimDuration::from_secs(5), ..one_sec_demand(1, 128) },
        );
        let mut t = Trace::new();
        for (ms, func) in [(0, 0), (0, 0), (1_000, 1), (1_100, 1), (1_200, 1)] {
            t.push(SimTime::from_millis(ms), FunctionId(func), InputMeta::new(1, 0));
        }
        let mut plan = FaultPlan::empty();
        plan.push(SimTime::from_secs(2), FaultKind::AbortInvocation(InvocationId(2)));
        plan.push(SimTime::from_secs(4), FaultKind::NodeCrash(NodeId(0)));
        plan.push(SimTime::from_millis(4_100), FaultKind::NodeRecover(NodeId(0)));
        let mut log = AbortLog::default();
        let res = single_node_sim(vec![short, long]).run_with_faults(&t, &mut log, &plan);
        assert_eq!((res.records.len(), res.pool_violations), (5, 0));
        assert_eq!(log.0, [(2, 1), (3, 0), (4, 2), (2, 1)]);
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_plain_run() {
        let funcs = vec![
            spec("a", 2, 1024, one_sec_demand(2, 256)),
            spec("b", 1, 512, one_sec_demand(3, 700)),
        ];
        let mut t = Trace::new();
        for i in 0..20u64 {
            t.push(SimTime::from_millis(i * 137), FunctionId((i % 2) as u32), InputMeta::new(i, i));
        }
        let plain = single_node_sim(funcs.clone()).run(&t, &mut NullPlatform);
        let faulted =
            single_node_sim(funcs).run_with_faults(&t, &mut NullPlatform, &FaultPlan::empty());
        assert_eq!(plain.records.len(), faulted.records.len());
        for (a, b) in plain.records.iter().zip(&faulted.records) {
            assert_eq!(a.inv, b.inv);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.node, b.node);
            assert_eq!(a.flags, b.flags);
        }
        assert_eq!(plain.completion_time, faulted.completion_time);
        assert_eq!(plain.util.len(), faulted.util.len());
        assert_eq!(faulted.faults_injected, 0);
    }
}
