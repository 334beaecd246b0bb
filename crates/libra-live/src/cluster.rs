//! The live cluster: a thin concurrent driver of the shared harvest control
//! plane ([`libra_core::controlplane`]). Node state lives behind
//! `parking_lot` mutexes and one *driver* thread per node runs everything
//! resident there on the simulator's execution model: a resident is a
//! [`Run`], on one clock of workload µs (real time × `time_scale`) that every
//! event, span and instant here is stamped in. Every [`LiveConfig::quantum`]
//! the node's one monitor tick fires (the simulator's `NodeTick`): one pass
//! visits every resident as the simulator does — report a cgroups-style usage
//! observation to the control plane, apply the emitted [`Action`]s, then the
//! OOM rule against the allocation the policy left — and settles nothing.
//!
//! Between ticks the driver wakes only to complete an invocation the instant
//! its work runs out: its `due` ([`Run::due`]), re-armed for every resident
//! of the node after each event, because a `Lend`/`Return`/`Revoke`/
//! `PreemptiveRelease` moves other residents' rates — the simulator's
//! `Finish` event. The driver parks until the node's tick or the earliest
//! `due`, whichever is first, and an admission unparks it. Nothing spawns per
//! request:
//! [`LiveCluster::submit`] admits on the caller's thread when the request has
//! arrived and a shard slice fits it, and hands everything else — future
//! arrivals, admissions to retry each quantum — to the one *front-door*
//! thread's time-ordered queue (the thread that is also the progress
//! watchdog). A cluster runs `nodes + 1` threads, whatever it replays.
//!
//! Faults come from the simulator's own vocabulary: [`LiveConfig::faults`] is
//! a [`FaultPlan`], and the front door fires each `ShardStall` /
//! `ShardResume` at its workload instant, as
//! `Simulation::run_with_faults` does, with the simulator's meaning (a
//! stalled shard places nothing; see [`ShardedScheduler::stall`]).
//!
//! The policy — harvesting (CPU *and* memory), lending, usage-guided
//! trimming, the safeguard's preemptive release (§5.2), the OOM rule (§5.1)
//! and the timeliness law (§3.1) — is the very same [`ControlPlane`] state
//! machine the deterministic simulator drives, so the two substrates produce
//! comparable action traces (see the cross-substrate fidelity test). This
//! crate only supplies the physics: real clocks, real locks, admission
//! against per-shard slice books (the simulator's own [`Slice`] cell, one
//! lock per shard), plus a watchdog that turns a wedged run into a
//! diagnostic panic instead of a hung CI job.
//!
//! The slice books follow the ledger, as in the simulator: after every event
//! each resident of the node is rebooked ([`Slice::rebook`]) to what the
//! control plane charges it (own grant + lent out, zero once it has left).
//! A `Lend` alone is checked against the slice first, and refused if
//! admissions took the pooled volume.
//!
//! Warm containers follow the simulator's rule through the same calls,
//! [`WarmPool::park`] and [`WarmPool::settle`], under one keep-alive policy
//! for the cluster. Unlike the simulator, live runs no prewarm directives,
//! and it reaps expired pins at admission and completion, not at a ping.
//!
//! [`Slice`]: libra_sim::node::Slice
//! [`Slice::rebook`]: libra_sim::node::Slice::rebook
//!
//! Placement is [`libra_core::scheduler::place`] through
//! [`ShardedScheduler::schedule_on`], so a function's hash home is the node
//! the simulator would pick. This driver asks the rule only its
//! non-accelerable half: admission sends `extra: ResourceVec::ZERO` and
//! `now: SimTime::ZERO`, and `ShardedScheduler::note_ping` (a node's ping
//! at an instant, carrying its pool snapshot) is test-only, so every request
//! is hashed and probed, and the shards' pool views are never pinged: none
//! is stale and none advertises anything. On this substrate the coverage
//! half is reached only by `exp fig12` (c) and unit tests. Wiring it is a
//! ping path that sends `ControlPlane::snapshot_into` plus the real
//! `extra`/`now` at admission; it changes where `live_closed` places work,
//! so it is its own measured change.
//!
//! Two driver surfaces exist over the same machinery:
//!
//! * [`run_live`] — the batch harness: submit a whole workload, wait for the
//!   last completion, return a [`LiveResult`].
//! * [`LiveCluster`] — the streaming service API used by `libra-gateway`:
//!   [`LiveCluster::submit`] admits requests one at a time as they arrive
//!   over the network, and [`LiveCluster::shutdown`] performs a graceful
//!   drain — stop accepting, flush in-flight work, and *quiesce* whatever
//!   cannot finish within the grace period through the control plane
//!   (`on_abort`, after which the ledger charges nothing) so no harvest loan
//!   or scheduler-slice booking is ever stranded by shutdown.

use crate::workload::LiveRequest;
use crossbeam::channel::{bounded, Receiver, Sender};
use libra_core::controlplane::{
    Action, Admission, ControlConfig, ControlPlane, LendFailure, Observation,
};
use libra_core::keepalive::KeepAlive;
use libra_core::sharding::{ScheduleRequest, ShardedScheduler};
use libra_sim::container::WarmPool;
use libra_sim::fault::{FaultKind, FaultPlan};
use libra_sim::ids::{FunctionId, InvocationId, NodeId};
use libra_sim::invocation::{
    exec_rate_millis, mem_usage_model, oom_kills, InvState, Run, StageCursor,
};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use libra_sim::trace_spans::{ExecTrace, LoanOutcome, LoanSpan, SpanSink};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Live platform configuration.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Worker node count.
    pub nodes: usize,
    /// Capacity per node.
    pub capacity: ResourceVec,
    /// Decentralized scheduler shards.
    pub shards: usize,
    /// Harvest + accelerate (Libra) vs fixed user allocations (default).
    pub harvesting: bool,
    /// Policy knobs of the shared control plane (safeguard threshold,
    /// pool order, continuous acceleration, ...).
    pub control: ControlConfig,
    /// Monitor interval (real time): how often a node's residents are
    /// observed, and how often a refused admission is retried. Completion
    /// does not wait for it — an invocation ends when its work does.
    pub quantum: Duration,
    /// Workload-milliseconds that elapse per real millisecond (> 1 runs the
    /// workload faster than nominal).
    pub time_scale: f64,
    /// Stall deadline: if invocations are in flight but neither an admission
    /// nor a completion happens for this long, the run is declared wedged —
    /// [`run_live`] and [`LiveCluster::shutdown`] quiesce the cluster and
    /// panic with a per-node diagnostic dump (ledger, residents,
    /// shard health) instead of hanging CI. Idle clusters (nothing in
    /// flight) never trip it, so a long-lived gateway can sit at this
    /// default indefinitely.
    pub watchdog: Duration,
    /// Record the run's traces, as `SimConfig::trace` does in the
    /// simulator: every control-plane action per node, and per-attempt
    /// execution-timeline spans (scheduler wait and exec segments split at
    /// OOM restarts) plus harvest-loan lifetimes, stamped in workload
    /// microseconds since cluster start — the simulator's span schema. Off
    /// by default; when off no recording call is made and the sink never
    /// locks.
    pub trace: bool,
    /// Keep-alive policy deciding the deadlines of the nodes'
    /// warm containers — one instance for the cluster, as the simulator's
    /// `WithKeepAlive` holds one, so both substrates retire idle containers
    /// by identical rules.
    pub keepalive: KeepAlive,
    /// Faults to replay, at their instants in workload µs since start: the
    /// simulator's [`FaultPlan`] (build one with
    /// [`libra_sim::fault::build_plan`]). Live replays its shard kinds only,
    /// `ShardStall` and `ShardResume`; any other kind is a caller error
    /// (debug-asserted by [`LiveCluster::start`]). Empty by default.
    pub faults: FaultPlan,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            nodes: 2,
            capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
            shards: 2,
            harvesting: true,
            control: ControlConfig::default(),
            quantum: Duration::from_millis(2),
            time_scale: 4.0,
            watchdog: Duration::from_secs(60),
            trace: false,
            keepalive: KeepAlive::default(),
            faults: FaultPlan::empty(),
        }
    }
}

/// A request the cluster has accepted and not yet admitted to a node.
struct Pending {
    idx: usize,
    req: LiveRequest,
    reply: Sender<LiveRecord>,
    /// The latency ledger, started when the request arrives (`None` while
    /// its `at_ms` is still in the future).
    stage: Option<StageCursor>,
}

/// Physics-side state of one resident invocation (the policy side lives in
/// the node's [`ControlPlane`] ledger): all its node's driver needs to step
/// it, finish it and answer its caller.
struct ExecState {
    idx: usize,
    req: LiveRequest,
    reply: Sender<LiveRecord>,
    /// The latency ledger: scheduler wait, then exec segments split at every
    /// OOM restart (mirroring the simulator's per-attempt segmentation), all
    /// charged through the same cursor the engine uses.
    stage: StageCursor,
    /// Scheduler shard whose slice this invocation's booking lives in.
    shard: usize,
    /// What that slice holds for it: its charge as of the node's last event.
    booked: ResourceVec,
    /// Its execution; only [`NodeInner::rearm`] and an OOM restart write it.
    run: Run,
    /// When the run's work is done: the driver steps it then, tick or not.
    due: SimTime,
    harvested: bool,
    accelerated: bool,
    safeguarded: bool,
    oom_restarts: u32,
}

struct NodeInner {
    /// The shared policy core, instantiated per node (its `NodeId(0)`).
    core: ControlPlane,
    exec: HashMap<u32, ExecState>,
    /// The node's next monitor tick. Left in the past while nothing is
    /// resident; the next admission re-arms it, so there is one chain a node.
    tick: SimTime,
    /// Idle warm containers: the registry the simulator's nodes hold, with
    /// every deadline stamped by the cluster's keep-alive policy.
    warm: WarmPool,
    /// Open harvest loans `(source, borrower) → start µs`, kept only while
    /// span tracing is on so loan lifetimes can be closed with the outcome
    /// the control plane reports.
    open_loans: HashMap<(u32, u32), u64>,
}

impl NodeInner {
    /// Bring every resident's rate and `due` in line with the allocations
    /// the control plane now holds — after each event on the node, because a
    /// `Lend`/`Return`/`Revoke`/`PreemptiveRelease` moves other residents'
    /// rates. [`Run::rerate`] settles a moved rate at the old one first.
    fn rearm(&mut self, now: SimTime) {
        let NodeInner { core, exec, .. } = self;
        for (&id, st) in exec.iter_mut() {
            let eff = core.effective_alloc(InvocationId(id)).unwrap_or(st.req.alloc);
            let rate = exec_rate_millis(
                eff.cpu_millis,
                eff.mem_mb,
                st.req.demand_cpu_millis,
                st.req.demand_mem_mb,
                st.req.alloc.mem_mb,
            );
            st.run.rerate(now, rate);
            st.due = st.run.due(now).unwrap_or(SimTime::MAX);
        }
    }
}

struct NodeShared {
    inner: Mutex<NodeInner>,
    /// This node's driver thread, for admissions to unpark.
    driver: OnceLock<Thread>,
}

/// Apply control-plane actions to the live substrate — the per-invocation
/// exec states and the sharded scheduler's slice books — then rebook every
/// resident to what the ledger now charges it, settling warm pins after each.
fn apply_actions(
    inner: &mut NodeInner,
    sched: &ShardedScheduler,
    node: u32,
    actions: &[Action],
    now: SimTime,
    sink: Option<&Mutex<SpanSink>>,
) {
    let NodeInner { core, exec, open_loans, warm, .. } = inner;
    for &a in actions {
        let ended = match a {
            // Lending re-commits pooled idle volume: admissions may have
            // consumed it, so charge the source's slice first and report the
            // refusal if it's gone.
            Action::Lend { source, borrower, vol } => {
                let Some(src) = exec.get_mut(&source.0) else {
                    core.lend_failed(source, borrower, vol, LendFailure::SourceGone, now);
                    continue;
                };
                if sched.try_charge(src.shard, node, vol) {
                    warm.settle(src.shard, &sched.slice(src.shard, node));
                    src.booked += vol;
                    if let Some(b) = exec.get_mut(&borrower.0) {
                        b.accelerated = true;
                    }
                    if sink.is_some() {
                        // A re-lend on a pair whose loan is still open
                        // extends that lifetime: keep its first start.
                        open_loans.entry((source.0, borrower.0)).or_insert(now.as_micros());
                    }
                } else {
                    core.lend_failed(source, borrower, vol, LendFailure::NoCapacity, now);
                }
                None
            }
            // Safeguard (§5.2): the grant is already back at nominal in the
            // ledger; the rebook below restores it on the slice.
            Action::PreemptiveRelease { inv, .. } => {
                if let Some(st) = exec.get_mut(&inv.0) {
                    st.safeguarded = true;
                }
                None
            }
            // OOM rule (§5.1): restart from scratch at the nominal grant.
            Action::Requeue { inv, .. } => {
                if let Some(st) = exec.get_mut(&inv.0) {
                    st.oom_restarts += 1;
                    st.run.restart(now);
                }
                None
            }
            Action::Return { source, borrower, vol } => {
                Some((source, borrower, vol, LoanOutcome::Returned))
            }
            Action::Revoke { source, borrower, vol, reason } => {
                Some((source, borrower, vol, LoanOutcome::Revoked(reason)))
            }
            // Admission reserved the nominal through `schedule_on`; it and
            // every grant or loan change reach the slice by the rebook below.
            Action::Admitted { .. } | Action::SetGrant { .. } => None,
        };
        // Loan lifetimes: a span closes, with the volume and outcome of the
        // action that ended it, once the control plane no longer holds the
        // loan — a partial trim (`Return` of some of the CPU) leaves it open,
        // exactly as the simulator's `return_loan` does.
        let Some((sink, (source, borrower, vol, outcome))) = sink.zip(ended) else { continue };
        if core.has_loan(source, borrower) {
            continue;
        }
        if let Some(start_us) = open_loans.remove(&(source.0, borrower.0)) {
            sink.lock().record_loan(LoanSpan {
                source: source.0 as u64,
                borrower: borrower.0 as u64,
                node,
                cpu_millis: vol.cpu_millis,
                mem_mb: vol.mem_mb,
                start_us,
                end_us: now.as_micros(),
                outcome,
            });
        }
    }
    // The slice holds what the ledger says — past capacity, too, when a
    // restore lands on volume admissions took since it was harvested.
    for (&id, st) in exec.iter_mut() {
        let charge = core.charge(InvocationId(id)).unwrap_or(ResourceVec::ZERO);
        if charge != st.booked {
            sched.rebook(st.shard, node, st.booked, charge);
            warm.settle(st.shard, &sched.slice(st.shard, node));
            st.booked = charge;
        }
    }
}

/// Per-invocation completion record.
#[derive(Clone, Copy, Debug)]
pub struct LiveRecord {
    /// Request index in the workload.
    pub idx: usize,
    /// End-to-end latency in workload milliseconds.
    pub latency_ms: f64,
    /// Admission queueing: submission → scheduler shard slice found, in
    /// workload milliseconds (the live analog of the `scheduler` stage of
    /// the latency breakdown; `latency_ms − sched_ms` is the execution
    /// stage).
    pub sched_ms: f64,
    /// Was it ever accelerated?
    pub accelerated: bool,
    /// Was it harvested from?
    pub harvested: bool,
    /// Did the safeguard preemptively release its harvested resources?
    pub safeguarded: bool,
    /// How many times the OOM rule restarted it at nominal.
    pub oom_restarts: u32,
}

/// Aggregate result of a live run.
#[derive(Debug)]
pub struct LiveResult {
    /// Per-invocation records (completion order).
    pub records: Vec<LiveRecord>,
    /// Wall-clock duration of the run, in workload milliseconds.
    pub makespan_ms: f64,
    /// Loans revoked mid-flight by source completion (the timeliness law,
    /// observed under real concurrency).
    pub loans_expired: u64,
    /// Safeguard preemptive releases across all nodes (§5.2).
    pub safeguard_releases: u64,
    /// OOM restarts across all invocations (§5.1).
    pub oom_restarts: u64,
    /// Invocations the drain aborted through the control plane because they
    /// could not finish within the shutdown grace period.
    pub aborted: u64,
    /// Maximum Σ(own + lent) observed on any node (capacity invariant probe).
    pub peak_committed_cpu: u64,
    /// Plan faults fired ([`LiveConfig::faults`]; the simulator's
    /// `RunResult::faults_injected`).
    pub faults_injected: u64,
    /// Admissions served by a policy-kept warm container.
    pub warm_hits: u64,
    /// Admissions that found no live warm container for their function.
    pub cold_starts: u64,
    /// Per-node control-plane action traces (only populated when
    /// [`LiveConfig::trace`] is set).
    pub actions_by_node: Vec<Vec<Action>>,
    /// Execution-timeline trace: per-attempt stage spans and harvest-loan
    /// lifetimes in workload µs (`None` unless [`LiveConfig::trace`]).
    pub trace: Option<ExecTrace>,
}

impl LiveResult {
    /// The p-th latency percentile in workload milliseconds (NaN when the
    /// run produced no records).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.latency_percentiles(&[p]).first().copied().unwrap_or(f64::NAN)
    }

    /// Several latency percentiles at once, sorting the sample a single time.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        let lats: Vec<f64> = self.records.iter().map(|r| r.latency_ms).collect();
        libra_sim::metrics::percentiles(&lats, ps)
    }
}

/// Why [`LiveCluster::submit`] refused a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The cluster is draining (or was declared wedged): no new admissions.
    Draining,
    /// The function id is outside the control plane's deployed range.
    FuncOutOfRange {
        /// The offending function id.
        func: u32,
        /// Deployed function count the cluster was started with.
        n_funcs: usize,
    },
    /// The request index does not fit an invocation id (`u32`): truncated,
    /// it would alias another in-flight request's id.
    IdxOutOfRange {
        /// The offending request index.
        idx: usize,
    },
    /// Another in-flight request already holds this index (and so its
    /// invocation id).
    IdxInFlight {
        /// The duplicated request index.
        idx: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::Draining => write!(f, "cluster is draining"),
            SubmitError::FuncOutOfRange { func, n_funcs } => {
                write!(f, "function {func} outside deployed range 0..{n_funcs}")
            }
            SubmitError::IdxOutOfRange { idx } => write!(f, "idx {idx} is not a 32-bit id"),
            SubmitError::IdxInFlight { idx } => write!(f, "invocation {idx} already in flight"),
        }
    }
}

/// Live counters a long-running frontend polls for its observability
/// endpoint (all monotone except `inflight`).
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveStats {
    /// Requests accepted by [`LiveCluster::submit`].
    pub submitted: usize,
    /// Invocations completed.
    pub completed: usize,
    /// Invocations currently resident (admitted or queued for admission).
    pub inflight: usize,
    /// Invocations aborted by drain quiescing.
    pub aborted: u64,
    /// Timeliness revocations (loans cut by source completion).
    pub loans_expired: u64,
    /// Safeguard preemptive releases.
    pub safeguard_releases: u64,
    /// Plan faults fired so far ([`LiveConfig::faults`]).
    pub faults_injected: u64,
}

struct ClusterShared {
    config: LiveConfig,
    n_funcs: usize,
    nodes: Vec<Arc<NodeShared>>,
    sched: Arc<ShardedScheduler>,
    /// [`LiveConfig::keepalive`]; nothing takes a node lock while holding it.
    policy: Mutex<KeepAlive>,
    t0: Instant,
    /// Stop accepting new submissions (graceful drain in progress).
    draining: AtomicBool,
    /// Quiesce: every resident and every queued request is aborted through
    /// the control plane, and the node drivers and the front door exit.
    aborting: AtomicBool,
    /// The watchdog declared the run wedged (fatal; diagnostic dump follows).
    expired: AtomicBool,
    /// The front door's queue: accepted requests not yet admitted, keyed by
    /// when to try next — arrival, then once a quantum — and the request
    /// index, unique among in-flight requests.
    front: Mutex<BTreeMap<(SimTime, usize), Pending>>,
    /// The front-door thread, for `submit` to unpark.
    front_thread: OnceLock<Thread>,
    submitted: AtomicUsize,
    /// Indices of the accepted requests not yet completed or aborted: the
    /// in-flight count, and what `submit` holds a new index unique against.
    inflight: Mutex<HashSet<usize>>,
    done_count: AtomicUsize,
    aborted: AtomicU64,
    peak_committed: AtomicU64,
    faults_injected: AtomicU64,
    records: Mutex<Vec<LiveRecord>>,
    /// Every thread `start` spawned: node drivers, then the front door.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Execution-timeline span sink (inert unless `config.trace`;
    /// recording paths check the config flag before ever taking this lock).
    spans: Mutex<SpanSink>,
}

impl ClusterShared {
    /// A cluster's shared state, before any of its threads start.
    fn new(config: LiveConfig, n_funcs: usize) -> Self {
        let n_funcs = n_funcs.max(1);
        let nodes: Vec<Arc<NodeShared>> = (0..config.nodes)
            .map(|_| {
                let mut core = ControlPlane::new(config.control.clone(), n_funcs, 1);
                core.set_record_trace(config.trace);
                Arc::new(NodeShared {
                    inner: Mutex::new(NodeInner {
                        core,
                        exec: HashMap::new(),
                        tick: SimTime::ZERO,
                        warm: WarmPool::new(),
                        open_loans: HashMap::new(),
                    }),
                    driver: OnceLock::new(),
                })
            })
            .collect();
        let sched =
            Arc::new(ShardedScheduler::spawn(config.shards, config.nodes, config.capacity, 0.9));
        ClusterShared {
            n_funcs,
            nodes,
            sched,
            policy: Mutex::new(config.keepalive.clone()),
            t0: Instant::now(),
            draining: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            expired: AtomicBool::new(false),
            front: Mutex::new(BTreeMap::new()),
            front_thread: OnceLock::new(),
            submitted: AtomicUsize::new(0),
            inflight: Mutex::new(HashSet::new()),
            done_count: AtomicUsize::new(0),
            aborted: AtomicU64::new(0),
            peak_committed: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            spans: Mutex::new(SpanSink::new(config.trace)),
            config,
        }
    }

    /// The cluster's one clock: workload µs since start (real time ×
    /// `time_scale`).
    fn now(&self) -> SimTime {
        SimTime((self.t0.elapsed().as_secs_f64() * 1e6 * self.config.time_scale) as u64)
    }

    /// Real time from now until workload instant `at` (zero once it passed).
    fn until(&self, at: SimTime) -> Duration {
        let real_s = at.since(self.now()).as_secs_f64() / self.config.time_scale;
        Duration::try_from_secs_f64(real_s).unwrap_or(Duration::MAX)
    }

    /// [`LiveConfig::quantum`] in workload time.
    fn quantum(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.config.quantum.as_secs_f64() * self.config.time_scale)
    }

    fn sink(&self) -> Option<&Mutex<SpanSink>> {
        self.config.trace.then_some(&self.spans)
    }

    /// Charge the interval since `stage`'s cursor to the stage `state` — the
    /// lifecycle state its invocation is leaving at `now` — was spending it
    /// in. The span lock is taken only when tracing is on.
    fn leave_stage(&self, stage: &mut StageCursor, state: InvState, now: SimTime) {
        if self.config.trace {
            stage.leave(state, now, 0, &mut self.spans.lock());
        } else {
            stage.leave(state, now, 0, &mut SpanSink::new(false));
        }
    }

    /// Accepted request `idx` is no longer in flight: its index is free.
    fn retire(&self, idx: usize) {
        self.inflight.lock().remove(&idx);
    }

    /// Accepted request `idx` ends without a record (drain quiesce); dropping
    /// its reply sender is what disconnects the caller's receiver.
    fn count_aborted(&self, idx: usize) {
        self.aborted.fetch_add(1, Ordering::SeqCst);
        self.retire(idx);
    }

    /// Queue `p` for the front door to (re)try at `at`. Checked against
    /// `aborting` under the queue lock, which the front door's final drain
    /// also holds, so nothing is queued behind it.
    fn enqueue(&self, at: SimTime, p: Pending) {
        let mut queue = self.front.lock();
        if self.aborting.load(Ordering::SeqCst) {
            self.count_aborted(p.idx);
            return;
        }
        queue.insert((at, p.idx), p);
    }

    /// One admission attempt on the calling thread: reserve a shard slice,
    /// install the physics state on the chosen node, let the control plane
    /// harvest and accelerate (pool priority = predicted expiry — the
    /// timeliness law's bookkeeping) and wake the node's driver. Hands the
    /// request back when no slice fits it.
    fn admit(&self, mut p: Pending) -> Option<Pending> {
        let Pending { idx, req, .. } = p;
        let arrived = || {
            let now = self.now();
            self.policy.lock().on_arrival(FunctionId(req.func), now);
            StageCursor::new(idx as u64, now, SimDuration::ZERO)
        };
        let mut stage = *p.stage.get_or_insert_with(arrived);
        let shard = idx % self.config.shards;
        let d = self.sched.schedule_on(
            shard,
            ScheduleRequest {
                nominal: req.alloc,
                extra: ResourceVec::ZERO,
                func: req.func,
                duration: SimDuration::from_millis(req.base_duration_ms()),
                now: SimTime::ZERO,
            },
        );
        let Some(node_id) = d.node else { return Some(p) };
        // The scheduler only answers node ids it was spawned with, so a miss
        // here means the fleet is misconfigured — treat it like a wedged run
        // rather than unwinding mid-ledger.
        let Some(node) = self.nodes.get(node_id as usize) else {
            self.sched.release(shard, node_id, req.alloc);
            self.retire(idx);
            self.expired.store(true, Ordering::SeqCst);
            return None;
        };
        // Lossless: `submit` refused any `idx` that does not fit the id.
        let inv = InvocationId(idx as u32);
        let mut g = node.inner.lock();
        // Checked under the node lock, which the driver's final pass also
        // holds: nothing becomes resident behind an exited driver.
        if self.aborting.load(Ordering::SeqCst) {
            self.sched.release(shard, node_id, req.alloc);
            self.count_aborted(idx);
            return None;
        }
        // Scheduler stage: submission → resident on a node with a slice.
        let now = self.now();
        self.leave_stage(&mut stage, InvState::AwaitingDecision, now);
        // Warm-lifecycle, in the simulator's order: the booking evicts the
        // pins it crowds out, then takes a warm container if one is left.
        let _ = g.warm.evict_expired(now);
        g.warm.settle(shard, &self.sched.slice(shard, node_id));
        let _ = g.warm.acquire(FunctionId(req.func), now);
        let pred = if self.config.harvesting { req.pred } else { None };
        let actions = g.core.on_admit(
            Admission {
                inv,
                node: NodeId(0),
                func: req.func as usize,
                nominal: req.alloc,
                mem_floor_mb: req.mem_floor_mb,
                pred,
            },
            now,
        );
        if g.exec.is_empty() && g.tick <= now {
            g.tick = now + self.quantum();
        }
        g.exec.insert(
            inv.0,
            ExecState {
                idx,
                req,
                reply: p.reply,
                stage,
                shard,
                booked: req.alloc,
                run: Run::new(u128::from(req.work_mcore_ms) * 1_000, now),
                due: now,
                harvested: actions.iter().any(|a| matches!(a, Action::SetGrant { .. })),
                accelerated: false,
                safeguarded: false,
                oom_restarts: 0,
            },
        );
        apply_actions(&mut g, &self.sched, node_id, &actions, now, self.sink());
        g.rearm(now);
        drop(g);
        if let Some(driver) = node.driver.get() {
            driver.unpark();
        }
        None
    }

    /// One driver pass over a node at one instant, under its lock: step all
    /// residents once the node's tick has passed (or the cluster aborts), else
    /// those whose `due` has — finished work first, then id order — and
    /// re-arm. Returns when to run next (tick or earliest `due`), if anything.
    fn drive(&self, node: u32, g: &mut NodeInner, aborting: bool) -> Option<SimTime> {
        let now = self.now();
        let ticking = g.tick <= now;
        let mut due: Vec<(SimTime, u32)> = g
            .exec
            .iter()
            .filter(|(_, st)| aborting || ticking || st.due <= now)
            .map(|(&id, st)| (st.due.min(now), id))
            .collect();
        if !due.is_empty() {
            due.sort_unstable();
            for (_, id) in due {
                self.step(node, g, id, now, aborting, ticking);
            }
            g.rearm(now);
        }
        if ticking {
            g.tick = now + self.quantum();
        }
        g.exec.values().map(|st| st.due).min().map(|due| due.min(g.tick))
    }

    /// One resident's turn at `now`: complete it if its work is done; else,
    /// on the node's tick, visit it as the simulator does — the control plane
    /// sees a usage observation and acts, then the OOM rule holds it to the
    /// allocation the policy left. A visit settles nothing.
    fn step(&self, node: u32, g: &mut NodeInner, id: u32, now: SimTime, abort: bool, tick: bool) {
        let inv = InvocationId(id);
        if abort {
            // Drain quiesce: unwind through the control plane so loans and
            // slice bookings are conserved, not abandoned.
            if let Some(me) = unwind(g, &self.sched, node, inv, now, self.sink(), false) {
                self.count_aborted(me.idx);
            }
            return;
        }

        // Capacity probe: Σ(own + lent) must stay within capacity.
        let committed = g.core.committed_on(NodeId(0));
        self.peak_committed.fetch_max(committed.cpu_millis, Ordering::Relaxed);

        let Some(me) = g.exec.get(&id) else { return };
        if me.run.work_at(now) == me.run.work_total {
            self.finish(node, g, inv, now);
            return;
        }
        if !tick {
            return; // woken a moment early: `rearm` sets the new `due`
        }
        let (req, progress) = (me.req, me.run.progress_at(now));
        let mem_used = || mem_usage_model(req.demand_mem_mb, progress);

        // Monitor path: safeguard, trimming, continuous acceleration — all
        // decided by the shared core. Each node has its own core, in which
        // the node is node 0.
        let eff = g.core.effective_alloc(inv).unwrap_or(req.alloc);
        let actions = g.core.on_observe_at(NodeId(0), inv, now, || Observation {
            cpu_busy_millis: eff.cpu_millis.min(req.demand_cpu_millis),
            mem_used_mb: mem_used(),
            cpu_throttled: req.demand_cpu_millis > eff.cpu_millis,
        });
        apply_actions(g, &self.sched, node, &actions, now, self.sink());

        // The OOM rule (§5.1), against the allocation the policy left.
        let have_mb = g.core.effective_alloc(inv).map_or(req.alloc.mem_mb, |e| e.mem_mb);
        if oom_kills(req.demand_mem_mb, req.alloc.mem_mb, have_mb, mem_used) {
            let actions = g.core.on_oom(inv, now);
            apply_actions(g, &self.sched, node, &actions, now, self.sink());
            // The restart splits the exec timeline into per-restart segments
            // (same attempt: an OOM restart is a container event, not a
            // crash requeue).
            if let Some(me) = g.exec.get_mut(&id) {
                self.leave_stage(&mut me.stage, InvState::Running, now);
            }
        }
    }

    /// `inv`'s work is done: take it off the node, keep its container warm
    /// to the policy's deadline if its slice has room, record it and answer
    /// its caller. The pin is the grant it holds once its loans end.
    fn finish(&self, node: u32, g: &mut NodeInner, inv: InvocationId, now: SimTime) {
        let pin_mb = g.core.own_grant(inv).map_or(0, |r| r.mem_mb);
        let Some(mut me) = unwind(g, &self.sched, node, inv, now, self.sink(), true) else {
            self.expired.store(true, Ordering::SeqCst);
            return;
        };
        // Warm-lifecycle, in the simulator's order.
        let func = FunctionId(me.req.func);
        let _ = g.warm.evict_expired(now);
        let slice = self.sched.slice(me.shard, node);
        let keep_until = self.policy.lock().keep_until(func, now);
        let _ = g.warm.park(func, me.shard, pin_mb, &slice, now, keep_until);

        self.leave_stage(&mut me.stage, InvState::Running, now);
        let stages = me.stage.breakdown();
        let record = LiveRecord {
            idx: me.idx,
            latency_ms: stages.total().as_millis_f64(),
            sched_ms: stages.scheduler.as_millis_f64(),
            accelerated: me.accelerated,
            harvested: me.harvested,
            safeguarded: me.safeguarded,
            oom_restarts: me.oom_restarts,
        };
        self.records.lock().push(record);
        self.done_count.fetch_add(1, Ordering::SeqCst);
        self.retire(me.idx);
        let _ = me.reply.send(record);
    }

    /// A node's driver thread: run whatever is due, park until the node's
    /// tick or the earliest `due` (an admission unparks it), exit once the
    /// cluster is aborting and its residents are quiesced.
    fn drive_node(&self, node_id: usize) {
        let Some(node) = self.nodes.get(node_id) else { return };
        loop {
            let mut g = node.inner.lock();
            // Read under the node lock, as `admit` reads it: whatever was
            // admitted before this pass is quiesced by it, nothing after.
            let aborting = self.aborting.load(Ordering::SeqCst);
            let next_due = self.drive(node_id as u32, &mut g, aborting);
            drop(g);
            if aborting {
                return;
            }
            match next_due {
                Some(due) => std::thread::park_timeout(self.until(due)),
                None => std::thread::park(),
            }
        }
    }

    /// Replay one plan fault. The shard kinds are live's whole vocabulary
    /// (`LiveCluster::start` debug-asserts the plan holds nothing else).
    fn inject(&self, kind: FaultKind) {
        match kind {
            FaultKind::ShardStall(shard) => self.sched.stall(shard),
            FaultKind::ShardResume(shard) => self.sched.resume(shard),
            FaultKind::NodeCrash(_)
            | FaultKind::NodeRecover(_)
            | FaultKind::AbortInvocation(_)
            | FaultKind::PingDrop(_)
            | FaultKind::PingDelay { .. }
            | FaultKind::TickJitter(_) => return,
        }
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// The front-door thread: fires plan faults at their instants, admits
    /// queued requests as they come due — future arrivals on schedule,
    /// refused admissions once a quantum — and doubles as the progress
    /// watchdog. On `aborting` it counts everything still queued as aborted
    /// and exits.
    fn front_door(&self) {
        /// How often the watchdog samples progress.
        const WATCHDOG_POLL: Duration = Duration::from_millis(2);
        let mut last = (0usize, 0usize);
        let mut stamp = Instant::now();
        let mut faults = self.config.faults.events().iter().peekable();
        loop {
            // Watchdog: a wedged run (unresumed stall, starved admission, logic
            // bug) must fail loudly with state attached, not hang CI.
            // Progress-based: trips only when invocations are resident but
            // neither submissions nor completions move for the whole deadline.
            let cur =
                (self.done_count.load(Ordering::SeqCst), self.submitted.load(Ordering::SeqCst));
            if cur != last {
                last = cur;
                stamp = Instant::now();
            }
            if !self.inflight.lock().is_empty() && stamp.elapsed() > self.config.watchdog {
                self.expired.store(true, Ordering::SeqCst);
            }

            let now = self.now();
            while let Some(fault) = faults.next_if(|f| f.at <= now) {
                self.inject(fault.kind);
            }
            let next = loop {
                let mut queue = self.front.lock();
                if self.aborting.load(Ordering::SeqCst) {
                    for ((_, idx), _) in std::mem::take(&mut *queue) {
                        self.count_aborted(idx);
                    }
                    return;
                }
                let Some(entry) = queue.first_entry().filter(|e| e.key().0 <= now) else {
                    break queue.keys().next().map(|&(at, _)| at);
                };
                let p = entry.remove();
                drop(queue);
                if let Some(p) = self.admit(p) {
                    self.enqueue(now + self.quantum(), p);
                }
            };
            let next = next.into_iter().chain(faults.peek().map(|f| f.at)).min();
            let wait = next.map_or(WATCHDOG_POLL, |at| self.until(at).min(WATCHDOG_POLL));
            std::thread::park_timeout(wait);
        }
    }
}

/// A running live cluster: the streaming driver surface behind
/// [`run_live`] and the `libra-gateway` admission frontend.
///
/// Requests enter one at a time through [`submit`](LiveCluster::submit) and
/// run under their node's driver thread; [`shutdown`](LiveCluster::shutdown)
/// performs the graceful drain. The cluster owns a progress watchdog: if
/// work is in flight but nothing is admitted or completed for
/// [`LiveConfig::watchdog`], the run is declared wedged and `shutdown`
/// panics with a diagnostic dump *after* quiescing the control plane.
pub struct LiveCluster {
    shared: Arc<ClusterShared>,
}

impl LiveCluster {
    /// Start a cluster under `config` with `n_funcs` deployed functions
    /// (sizes the control plane's per-function safeguard history; requests
    /// must carry `func < n_funcs`). `config.faults` may hold shard kinds
    /// only (debug-asserted).
    pub fn start(config: LiveConfig, n_funcs: usize) -> Self {
        debug_assert!(
            config
                .faults
                .events()
                .iter()
                .all(|f| matches!(f.kind, FaultKind::ShardStall(_) | FaultKind::ShardResume(_))),
            "live replays shard stalls and resumes only: {:?}",
            config.faults
        );
        let shared = Arc::new(ClusterShared::new(config, n_funcs));
        let mut threads = Vec::with_capacity(shared.nodes.len() + 1);
        for (node_id, node) in shared.nodes.iter().enumerate() {
            let sh = Arc::clone(&shared);
            let h = std::thread::spawn(move || sh.drive_node(node_id));
            let _ = node.driver.set(h.thread().clone());
            threads.push(h);
        }
        {
            let sh = Arc::clone(&shared);
            let h = std::thread::spawn(move || sh.front_door());
            let _ = shared.front_thread.set(h.thread().clone());
            threads.push(h);
        }
        *shared.threads.lock() = threads;
        LiveCluster { shared }
    }

    /// Admit one request. `idx` is the caller's stable request index: it
    /// becomes the invocation id (`InvocationId(idx)`, so it must fit `u32`),
    /// keys the scheduler shard (`idx % shards`), and must be unique among
    /// in-flight requests ([`SubmitError::IdxInFlight`] otherwise; it is free
    /// again once its request completes or is aborted).
    /// Returns a one-shot receiver that yields the completion record; if the
    /// invocation is drained away before completing, the sender is dropped
    /// and the receiver reports disconnection instead.
    pub fn submit(
        &self,
        idx: usize,
        req: LiveRequest,
    ) -> Result<Receiver<LiveRecord>, SubmitError> {
        let sh = &self.shared;
        if sh.draining.load(Ordering::SeqCst) || sh.aborting.load(Ordering::SeqCst) {
            return Err(SubmitError::Draining);
        }
        if req.func as usize >= sh.n_funcs {
            return Err(SubmitError::FuncOutOfRange { func: req.func, n_funcs: sh.n_funcs });
        }
        if u32::try_from(idx).is_err() {
            return Err(SubmitError::IdxOutOfRange { idx });
        }
        if !sh.inflight.lock().insert(idx) {
            return Err(SubmitError::IdxInFlight { idx });
        }
        sh.submitted.fetch_add(1, Ordering::SeqCst);
        let (reply, rx) = bounded(1);
        let p = Pending { idx, req, reply, stage: None };
        // Arrive on schedule. Network-driven requests arrive with `at_ms`
        // already in the past and are admitted right here; the front door
        // takes the rest.
        let arrival = SimTime(req.at_ms.saturating_mul(1_000));
        let now = sh.now();
        let retry = if arrival > now {
            Some((arrival, p))
        } else {
            sh.admit(p).map(|p| (now + sh.quantum(), p))
        };
        if let Some((at, p)) = retry {
            sh.enqueue(at, p);
            if let Some(front) = sh.front_thread.get() {
                front.unpark();
            }
        }
        Ok(rx)
    }

    /// Completed-invocation count.
    pub fn completed(&self) -> usize {
        self.shared.done_count.load(Ordering::SeqCst)
    }

    /// Currently resident invocations (admitted or queued for admission).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.lock().len()
    }

    /// Whether the watchdog has declared the run wedged. Frontends blocked
    /// on a completion receiver poll this to fail their request instead of
    /// waiting forever.
    pub fn is_expired(&self) -> bool {
        self.shared.expired.load(Ordering::SeqCst)
    }

    /// Workload-microseconds since cluster start — the timebase every
    /// execution-timeline span is stamped in.
    pub fn now_us(&self) -> u64 {
        self.shared.now().as_micros()
    }

    /// Record a frontend-stage span for `inv` (a networked frontend's
    /// admission overhead, stamped via [`LiveCluster::now_us`]). No-op
    /// unless [`LiveConfig::trace`] is set.
    pub fn record_frontend_span(&self, inv: u64, start_us: u64, end_us: u64) {
        use libra_sim::trace_spans::SpanKind;
        if self.shared.config.trace {
            self.shared.spans.lock().record(
                inv,
                0,
                SpanKind::Frontend,
                SimTime(start_us),
                SimTime(end_us),
            );
        }
    }

    /// Snapshot the execution-timeline trace recorded so far (`None` unless
    /// [`LiveConfig::trace`]). Completions keep streaming in after the
    /// snapshot; `shutdown` returns the final trace.
    pub fn trace_snapshot(&self) -> Option<ExecTrace> {
        self.shared.spans.lock().clone().into_trace()
    }

    /// Observability counters for a metrics endpoint.
    pub fn stats(&self) -> LiveStats {
        let sh = &self.shared;
        let (mut loans_expired, mut safeguard_releases) = (0, 0);
        for n in &sh.nodes {
            let g = n.inner.lock();
            loans_expired += g.core.counters().loans_expired;
            safeguard_releases += g.core.safeguard().triggers();
        }
        LiveStats {
            submitted: sh.submitted.load(Ordering::SeqCst),
            completed: sh.done_count.load(Ordering::SeqCst),
            inflight: sh.inflight.lock().len(),
            aborted: sh.aborted.load(Ordering::SeqCst),
            loans_expired,
            safeguard_releases,
            faults_injected: sh.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop accepting, flush in-flight invocations for up to
    /// `grace`, then quiesce whatever remains through the control plane
    /// (`on_abort`: loans revoked, ledger unwound, scheduler-slice charges
    /// released; requests still queued at the front door are dropped) and
    /// join every thread.
    ///
    /// # Panics
    ///
    /// When the progress watchdog declared the run wedged — the panic
    /// message carries the per-node diagnostic dump captured *before* the
    /// quiesce (so it shows the wedged state), but the quiesce still runs
    /// first so even a wedged shutdown conserves loans.
    pub fn shutdown(&self, grace: Duration) -> LiveResult {
        let sh = &self.shared;
        sh.draining.store(true, Ordering::SeqCst);
        let t = Instant::now();
        while !sh.inflight.lock().is_empty()
            && !sh.expired.load(Ordering::SeqCst)
            && t.elapsed() < grace
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Capture the wedged state for the diagnostic panic *before*
        // quiescing cleans the ledgers up.
        let dump =
            if sh.expired.load(Ordering::SeqCst) { Some(self.diagnostic_dump()) } else { None };
        sh.aborting.store(true, Ordering::SeqCst);
        let threads = std::mem::take(&mut *sh.threads.lock());
        for h in &threads {
            h.thread().unpark();
        }
        for h in threads {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
        #[expect(
            clippy::panic,
            reason = "deliberate watchdog abort — a wedged run must fail the harness with the pre-quiesce diagnostic dump, not hand back a bogus result"
        )]
        if let Some(dump) = dump {
            panic!("{dump}");
        }

        let mut records = std::mem::take(&mut *sh.records.lock());
        records.sort_by_key(|r| r.idx);
        let stats = self.stats();
        let (mut warm_hits, mut cold_starts) = (0, 0);
        let mut actions_by_node = Vec::with_capacity(sh.nodes.len());
        for n in &sh.nodes {
            let g = n.inner.lock();
            let (hits, colds) = g.warm.stats();
            warm_hits += hits;
            cold_starts += colds;
            actions_by_node.push(g.core.action_trace().to_vec());
        }
        let trace = std::mem::replace(&mut *sh.spans.lock(), SpanSink::new(false)).into_trace();
        LiveResult {
            oom_restarts: records.iter().map(|r| r.oom_restarts as u64).sum(),
            records,
            trace,
            makespan_ms: sh.now().since(SimTime::ZERO).as_millis_f64(),
            loans_expired: stats.loans_expired,
            safeguard_releases: stats.safeguard_releases,
            aborted: stats.aborted,
            peak_committed_cpu: sh.peak_committed.load(Ordering::Relaxed),
            faults_injected: stats.faults_injected,
            warm_hits,
            cold_starts,
            actions_by_node,
        }
    }

    /// Post-drain quiescence check: every node's control-plane ledger must
    /// be empty and conserved, every exec table empty, and nothing reserved
    /// in any scheduler shard's slice of any node — i.e. no harvest loan or
    /// admission charge survived the drain.
    pub fn conservation_report(&self) -> Result<(), String> {
        let sh = &self.shared;
        for (i, n) in sh.nodes.iter().enumerate() {
            let g = n.inner.lock();
            g.core.check_conservation().map_err(|e| format!("node {i}: {e}"))?;
            if g.core.ledger_len() != 0 {
                return Err(format!(
                    "node {i}: {} ledger entries survive drain",
                    g.core.ledger_len()
                ));
            }
            if !g.exec.is_empty() {
                return Err(format!("node {i}: {} exec states survive drain", g.exec.len()));
            }
        }
        for shard in 0..sh.config.shards {
            for node in 0..sh.config.nodes {
                let held = sh.sched.slice(shard, node as u32).reserved();
                if !held.is_zero() {
                    return Err(format!("shard {shard} node {node}: {held:?} booked after drain"));
                }
            }
        }
        Ok(())
    }

    fn diagnostic_dump(&self) -> String {
        use std::fmt::Write as _;
        let sh = &self.shared;
        let done = sh.done_count.load(Ordering::SeqCst);
        let total = sh.submitted.load(Ordering::SeqCst);
        let mut dump = format!(
            "run_live watchdog expired after {:?}: {done}/{total} invocations completed\n",
            sh.config.watchdog
        );
        for shard in 0..sh.config.shards {
            let _ = writeln!(dump, "shard {shard}: stalled={}", sh.sched.is_stalled(shard));
        }
        let _ = writeln!(dump, "front door: {} queued for admission", sh.front.lock().len());
        let now = sh.now();
        for (i, n) in sh.nodes.iter().enumerate() {
            let g = n.inner.lock();
            let _ = writeln!(dump, "node {i}: {} residents", g.exec.len());
            for (id, st) in &g.exec {
                let (done, total) = (st.run.work_at(now), st.run.work_total);
                let _ = writeln!(
                    dump,
                    "  inv {id}: shard {} work {done}/{total} oom_restarts {}",
                    st.shard, st.oom_restarts
                );
            }
            dump.push_str(&g.core.dump());
        }
        dump
    }
}

/// Take `inv` off its node through the control plane — `on_complete` if it
/// `finished`, `on_abort` if a drain cuts it short — and apply what it emits,
/// which rebooks it and its loan partners. What its slice still holds for it
/// (nothing, once the ledger has let it go) goes back, so neither ending
/// strands a loan or a booking. Returns the removed exec state.
fn unwind(
    g: &mut NodeInner,
    sched: &ShardedScheduler,
    node: u32,
    inv: InvocationId,
    now: SimTime,
    sink: Option<&Mutex<SpanSink>>,
    finished: bool,
) -> Option<ExecState> {
    let actions = if finished { g.core.on_complete(inv, now) } else { g.core.on_abort(inv, now) };
    apply_actions(g, sched, node, &actions, now, sink);
    let me = g.exec.remove(&inv.0)?;
    sched.release(me.shard, node, me.booked);
    Some(me)
}

/// Run `workload` on a live cluster under `config`: submit everything, wait
/// for the last completion, drain, return.
///
/// # Panics
///
/// When the progress watchdog ([`LiveConfig::watchdog`]) trips before every
/// invocation completes — the panic message carries a per-node diagnostic
/// dump.
pub fn run_live(workload: &[LiveRequest], config: &LiveConfig) -> LiveResult {
    let n_funcs = workload.iter().map(|r| r.func as usize + 1).max().unwrap_or(1);
    let cluster = LiveCluster::start(config.clone(), n_funcs);
    for (idx, req) in workload.iter().enumerate() {
        // A fresh, non-draining cluster accepts every in-range request; the
        // workload's funcs bound `n_funcs` above, so this cannot refuse.
        if cluster.submit(idx, *req).is_err() {
            break;
        }
    }
    while cluster.completed() < workload.len() && !cluster.is_expired() {
        std::thread::sleep(config.quantum);
    }
    cluster.shutdown(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::mixed_workload;
    use libra_sim::fault::{build_plan, ChaosConfig, ClusterShape};
    use libra_sim::invocation::{Prediction, PredictionPath};
    use libra_sim::platform::LoanEnd;

    fn cfg(harvesting: bool) -> LiveConfig {
        LiveConfig {
            nodes: 2,
            capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
            shards: 2,
            harvesting,
            control: ControlConfig::default(),
            quantum: Duration::from_millis(1),
            time_scale: 8.0,
            watchdog: Duration::from_secs(30),
            trace: false,
            keepalive: KeepAlive::default(),
            faults: FaultPlan::empty(),
        }
    }

    #[test]
    fn all_invocations_complete() {
        let w = mixed_workload(40, 3);
        let r = run_live(&w, &cfg(true));
        assert_eq!(r.records.len(), 40);
        assert!(r.makespan_ms > 0.0);
        assert_eq!(r.aborted, 0);
    }

    #[test]
    fn capacity_is_never_oversubscribed() {
        let w = mixed_workload(60, 5);
        let r = run_live(&w, &cfg(true));
        assert!(
            r.peak_committed_cpu <= 16_000,
            "peak committed {} exceeds a 16-core node",
            r.peak_committed_cpu
        );
    }

    #[test]
    fn harvesting_accelerates_under_real_concurrency() {
        let w = mixed_workload(60, 7);
        let fixed = run_live(&w, &cfg(false));
        let libra = run_live(&w, &cfg(true));
        let acc = libra.records.iter().filter(|r| r.accelerated).count();
        assert!(acc > 0, "some invocations must be accelerated live");
        // Acceleration + packing must help the tail (generous margin: the
        // live run is timing-noisy).
        let [libra_p90] = libra.latency_percentiles(&[90.0])[..] else { unreachable!() };
        let [fixed_p90] = fixed.latency_percentiles(&[90.0])[..] else { unreachable!() };
        assert!(
            libra_p90 < fixed_p90 * 1.05,
            "live Libra p90 {libra_p90:.0}ms vs fixed {fixed_p90:.0}ms"
        );
    }

    #[test]
    fn survives_scheduler_shard_stalls() {
        // Four stalls of 240 workload ms (30 real ms), drawn inside the first
        // 600 workload ms: the 40 arrivals, 25 ms apart, outlast every resume.
        let w = mixed_workload(40, 13);
        let mut c = cfg(true);
        let chaos = ChaosConfig {
            shard_stalls: 4.0,
            shard_stall_duration: SimDuration::from_millis(240),
            ..ChaosConfig::quiet(99, SimDuration::from_millis(600))
        };
        c.faults = build_plan(&chaos, &ClusterShape { nodes: 2, shards: 2, invocations: 40 });
        assert_eq!(c.faults.len(), 8);
        let r = run_live(&w, &c);
        assert_eq!(r.faults_injected, 8, "every stall and resume fires");
        assert_eq!(r.records.len(), 40, "every request must complete despite stalled shards");
        assert!(
            r.peak_committed_cpu <= 16_000,
            "capacity invariant must hold through stall/resume, got {}",
            r.peak_committed_cpu
        );
    }

    #[test]
    fn timeliness_revocations_happen_live() {
        let w = mixed_workload(80, 11);
        let r = run_live(&w, &cfg(true));
        assert!(
            r.loans_expired > 0,
            "sources completing before borrowers must revoke loans mid-flight"
        );
    }

    #[test]
    fn safeguard_releases_preemptively_live() {
        // Memory prediction (1200 MB) far below the true 2048 MB footprint:
        // the ramping usage crosses 80 % of the harvested grant at ~29 %
        // progress and the safeguard must restore nominal before the OOM
        // rule (which would need ~45 %) can fire.
        let w = vec![LiveRequest {
            at_ms: 0,
            func: 0,
            alloc: ResourceVec::new(4_000, 4_096),
            demand_cpu_millis: 1_000,
            demand_mem_mb: 2_048,
            mem_floor_mb: 64,
            work_mcore_ms: 1_000 * 1_000,
            pred: Some(Prediction {
                cpu_millis: 1_000,
                mem_mb: 1_200,
                duration: SimDuration::from_millis(1_000),
                path: PredictionPath::Histogram,
            }),
        }];
        let mut c = cfg(true);
        c.nodes = 1;
        c.shards = 1;
        let r = run_live(&w, &c);
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].harvested);
        assert!(r.records[0].safeguarded, "safeguard must fire on the misprediction");
        assert!(r.safeguard_releases >= 1);
        assert_eq!(r.records[0].oom_restarts, 0, "preemptive release must beat the OOM rule");
    }

    #[test]
    fn oom_restarts_at_nominal_live() {
        // Safeguard off (Libra-NS): the mispredicted footprint crosses the
        // harvested 512 MB grant at ~33 % progress, the OOM rule restarts
        // the invocation at its nominal 2048 MB and it completes.
        let w = vec![LiveRequest {
            at_ms: 0,
            func: 0,
            alloc: ResourceVec::new(2_000, 2_048),
            demand_cpu_millis: 2_000,
            demand_mem_mb: 1_024,
            mem_floor_mb: 64,
            work_mcore_ms: 2_000 * 600,
            pred: Some(Prediction {
                cpu_millis: 2_000,
                mem_mb: 512,
                duration: SimDuration::from_millis(600),
                path: PredictionPath::Histogram,
            }),
        }];
        let mut c = cfg(true);
        c.nodes = 1;
        c.shards = 1;
        c.control.safeguard = false;
        c.trace = true;
        let r = run_live(&w, &c);
        assert_eq!(r.records.len(), 1);
        assert!(r.records[0].oom_restarts >= 1, "the OOM rule must restart the invocation");
        assert!(r.oom_restarts >= 1);
        // The ledger across the restart: one scheduler span (none when the
        // request was admitted in the workload µs it arrived: a zero-length
        // span is dropped), then one exec segment per (re)start, tiling
        // [submit, completion] exactly; the record's stage figures are reads
        // of the same cursor.
        let trace = r.trace.expect("tracing enabled");
        let spans = trace.spans_for(0);
        let sched = usize::from(r.records[0].sched_ms > 0.0);
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind.label()).collect();
        assert_eq!(kinds[..sched], ["scheduler"][..sched], "{kinds:?}");
        assert_eq!(kinds.len(), sched + 1 + r.records[0].oom_restarts as usize, "{kinds:?}");
        assert!(kinds[sched..].iter().all(|k| *k == "exec"), "{kinds:?}");
        assert!(spans.windows(2).all(|w| w[0].end_us == w[1].start_us), "gap/overlap: {spans:?}");
        let total_us: u64 = spans.iter().map(|s| s.len_us()).sum();
        assert!((r.records[0].latency_ms - total_us as f64 / 1e3).abs() < 1e-3);
        let sched_us: u64 = spans[..sched].iter().map(|s| s.len_us()).sum();
        assert!((r.records[0].sched_ms - sched_us as f64 / 1e3).abs() < 1e-3);
    }

    /// `work_ms` of single-core work allocated `cpu_millis`, unprofiled.
    fn plain_request(at_ms: u64, cpu_millis: u64, work_ms: u64) -> LiveRequest {
        LiveRequest {
            at_ms,
            func: 0,
            alloc: ResourceVec::new(cpu_millis, 512),
            demand_cpu_millis: 1_000,
            demand_mem_mb: 256,
            mem_floor_mb: 64,
            work_mcore_ms: 1_000 * work_ms,
            pred: None,
        }
    }

    #[test]
    fn slice_books_follow_the_ledger_through_every_event() {
        // One node, one shard, no thread started: each event below runs here,
        // through the paths the driver runs, and after each the shard's slice
        // must hold exactly what the control plane charges the node.
        let mut c = cfg(true);
        c.nodes = 1;
        c.shards = 1;
        c.trace = true;
        let sh = ClusterShared::new(c, 2);
        let balanced = |after: &str| {
            let g = sh.nodes[0].inner.lock();
            let booked = sh.sched.slice(0, 0).reserved();
            assert_eq!(booked, g.core.committed_on(NodeId(0)), "slice vs ledger after {after}");
        };
        // Work enough that no real time elapsing here finishes anything.
        let predicted = |func, alloc, cpu_millis, mem_mb, ms| LiveRequest {
            at_ms: 0,
            func,
            alloc,
            demand_cpu_millis: cpu_millis,
            demand_mem_mb: mem_mb,
            mem_floor_mb: 64,
            work_mcore_ms: 1_000_000_000,
            pred: Some(Prediction {
                cpu_millis,
                mem_mb,
                duration: SimDuration::from_millis(ms),
                path: PredictionPath::Histogram,
            }),
        };
        let admit = |idx: usize, req| {
            sh.inflight.lock().insert(idx);
            let (reply, _) = bounded(1);
            assert!(sh.admit(Pending { idx, req, reply, stage: None }).is_none(), "#{idx} fits");
            balanced(&format!("admitting #{idx}"));
        };
        let event = |what: &str, f: &dyn Fn(&mut ControlPlane, SimTime) -> Vec<Action>| {
            let mut g = sh.nodes[0].inner.lock();
            let now = sh.now();
            let actions = f(&mut g.core, now);
            apply_actions(&mut g, &sh.sched, 0, &actions, now, None);
            drop(g);
            balanced(what);
        };
        let observe = |id, cpu_busy_millis, mem_used_mb, cpu_throttled| {
            move |core: &mut ControlPlane, now| {
                core.on_observe_at(NodeId(0), InvocationId(id), now, || Observation {
                    cpu_busy_millis,
                    mem_used_mb,
                    cpu_throttled,
                })
            }
        };
        let big = ResourceVec::new(4_000, 4_096);

        admit(0, predicted(0, big, 1_000, 1_024, 1_000)); // harvested: 3 cores, 3 GB pooled
        admit(1, predicted(0, ResourceVec::new(1_000, 1_024), 3_000, 1_024, 1_000)); // borrows 2 cores
        event("the safeguard", &observe(0, 1_000, 1_000, false)); // revokes #1's loan
        admit(2, predicted(1, big, 1_000, 512, 2_000));
        event("a top-up", &observe(1, 1_000, 512, true)); // #1 borrows from #2
        event("an OOM restart", &|core, now| core.on_oom(InvocationId(2), now));
        admit(3, predicted(0, big, 1_000, 1_024, 3_000));
        event("a top-up", &observe(1, 1_000, 512, true)); // #1 borrows from #3
        let mut g = sh.nodes[0].inner.lock();
        sh.finish(0, &mut g, InvocationId(3), sh.now()); // a source completes mid-loan
        drop(g);
        balanced("a completion");
        admit(4, predicted(0, big, 1_000, 1_024, 3_000));
        event("a top-up", &observe(1, 1_000, 512, true)); // #1 borrows from #4
        event("a trim", &observe(1, 500, 512, false)); // #1 returns it
        event("a top-up", &observe(1, 1_000, 512, true)); // and borrows it again
                                                          // Drain: the borrower first, its loan still out, then everyone else.
        let mut g = sh.nodes[0].inner.lock();
        sh.step(0, &mut g, 1, sh.now(), true, false);
        drop(g);
        balanced("aborting a borrower");
        let mut g = sh.nodes[0].inner.lock();
        assert_eq!(sh.drive(0, &mut g, true), None, "the drain pass empties the node");
        drop(g);
        balanced("the drain");

        let g = sh.nodes[0].inner.lock();
        let trace = g.core.action_trace();
        let seen = |what: &str, hit: &dyn Fn(&Action) -> bool| {
            assert!(trace.iter().any(hit), "no {what} in {trace:?}");
        };
        seen("harvest", &|a| matches!(a, Action::SetGrant { .. }));
        seen("loan", &|a| matches!(a, Action::Lend { .. }));
        seen("trim", &|a| matches!(a, Action::Return { .. }));
        seen("safeguard release", &|a| matches!(a, Action::PreemptiveRelease { .. }));
        seen("OOM restart", &|a| matches!(a, Action::Requeue { .. }));
        for reason in
            [LoanEnd::Safeguard, LoanEnd::SourceOom, LoanEnd::SourceCompleted, LoanEnd::Crashed]
        {
            seen(
                &format!("{reason:?} revocation"),
                &|a| matches!(a, Action::Revoke { reason: r, .. } if *r == reason),
            );
        }
        drop(g);
        assert_eq!(sh.aborted.load(Ordering::SeqCst), 4);
        assert!(sh.inflight.lock().is_empty());
        LiveCluster { shared: Arc::new(sh) }.conservation_report().expect("drained clean");
    }

    #[test]
    fn completion_is_not_quantised() {
        // 3 ms of work under a 20 ms monitor interval: the invocation ends
        // when its work does, not at its first tick.
        let mut c = cfg(true);
        c.quantum = Duration::from_millis(20);
        c.time_scale = 1.0;
        let r = run_live(&[plain_request(0, 1_000, 3)], &c);
        assert_eq!(r.records.len(), 1);
        let latency_ms = r.records[0].latency_ms;
        assert!((3.0..10.0).contains(&latency_ms), "3 ms of work took {latency_ms} ms");
    }

    #[test]
    fn a_node_tick_steps_every_resident_in_one_pass() {
        // Both invocations touch 256 MB from their first instruction and are
        // harvested to a 100 MB prediction with the safeguard off, so the OOM
        // rule restarts each at its first observation — which splits its exec
        // span there. #1 is admitted 15 ms into #0's 60 ms quantum.
        let request = |at_ms| LiveRequest {
            at_ms,
            func: 0,
            alloc: ResourceVec::new(2_000, 2_048),
            demand_cpu_millis: 2_000,
            demand_mem_mb: 1_024,
            mem_floor_mb: 64,
            work_mcore_ms: 2_000 * 200,
            pred: Some(Prediction {
                cpu_millis: 2_000,
                mem_mb: 100,
                duration: SimDuration::from_millis(200),
                path: PredictionPath::Histogram,
            }),
        };
        let mut c = cfg(true);
        c.nodes = 1;
        c.shards = 1;
        c.quantum = Duration::from_millis(60);
        c.time_scale = 1.0;
        c.control.safeguard = false;
        c.trace = true;
        let r = run_live(&[request(0), request(15)], &c);
        assert_eq!(r.records.len(), 2);
        assert!(r.records.iter().all(|rec| rec.oom_restarts == 1), "{:?}", r.records);
        let trace = r.trace.expect("tracing enabled");
        // (start, end) µs of each invocation's first exec segment. (An
        // admission in the workload µs of its submit leaves no scheduler span.)
        let first_exec = |inv| {
            let spans = trace.spans_for(inv);
            let exec = spans.iter().find(|s| s.kind.label() == "exec").expect("ran");
            (exec.start_us, exec.end_us)
        };
        let ((start0, end0), (start1, end1)) = (first_exec(0), first_exec(1));
        assert!(start1 >= start0 + 10_000, "#1 joined mid-quantum: {start0} {start1}");
        // One pass under the node lock, in id order: both segments end within
        // a moment of each other, #1's well short of a quantum of its own.
        assert!(end0 <= end1 && end1 - end0 < 5_000, "observed apart: {end0} {end1}");
        assert!(end1 - start1 < 55_000, "#1 waited for a tick of its own: {start1} {end1}");
        let restarted: Vec<u32> = r.actions_by_node[0]
            .iter()
            .filter_map(|a| match a {
                Action::Requeue { inv, .. } => Some(inv.0),
                _ => None,
            })
            .collect();
        assert_eq!(restarted, [0, 1]);
    }

    #[test]
    fn shutdown_drains_the_front_door_queue() {
        let cluster = LiveCluster::start(cfg(true), 1);
        // Arrivals an hour out, plus one request no node can ever hold: all
        // four wait in the front door's queue, none is resident.
        let mut receivers: Vec<_> =
            (0..3).map(|idx| cluster.submit(idx, plain_request(3_600_000 * 8, 1_000, 5))).collect();
        receivers.push(cluster.submit(3, plain_request(0, 32_000, 5)));
        assert_eq!(cluster.inflight(), 4);
        let r = cluster.shutdown(Duration::ZERO);
        assert_eq!(r.aborted, 4);
        assert!(r.records.is_empty());
        assert_eq!(cluster.inflight(), 0);
        for rx in receivers {
            let rx = rx.expect("a fresh cluster accepts");
            assert!(rx.recv().is_err(), "an aborted request's receiver must disconnect");
        }
        cluster.conservation_report().expect("nothing queued held a slice");
    }

    #[test]
    fn an_idx_is_refused_while_it_is_in_flight_and_free_again_after() {
        let cluster = LiveCluster::start(cfg(true), 1);
        // An arrival an hour out holds idx 7 in the front door's queue.
        let queued = cluster.submit(7, plain_request(3_600_000 * 8, 1_000, 5)).expect("accepted");
        let dup = cluster.submit(7, plain_request(0, 1_000, 5));
        assert_eq!(dup.err(), Some(SubmitError::IdxInFlight { idx: 7 }));
        assert_eq!(cluster.inflight(), 1, "the refusal books nothing");
        // A resident holds its idx too, and frees it when it completes.
        let rx = cluster.submit(8, plain_request(0, 1_000, 5)).expect("accepted");
        assert_eq!(
            cluster.submit(8, plain_request(0, 1_000, 5)).err(),
            Some(SubmitError::IdxInFlight { idx: 8 })
        );
        rx.recv().expect("completes");
        let again = cluster.submit(8, plain_request(0, 1_000, 5)).expect("idx 8 is free again");
        again.recv().expect("completes");
        let r = cluster.shutdown(Duration::ZERO);
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.aborted, 1, "only the hour-out arrival is drained");
        assert!(queued.recv().is_err());
        cluster.conservation_report().expect("drained clean");
    }

    #[test]
    fn watchdog_trips_with_diagnostics() {
        // A request larger than any node can ever admit: without the
        // watchdog this run would spin in the admission loop forever.
        let w = vec![LiveRequest {
            at_ms: 0,
            func: 0,
            alloc: ResourceVec::new(32_000, 1_024),
            demand_cpu_millis: 1_000,
            demand_mem_mb: 256,
            mem_floor_mb: 64,
            work_mcore_ms: 1_000 * 100,
            pred: None,
        }];
        let mut c = cfg(true);
        c.watchdog = Duration::from_millis(250);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_live(&w, &c)));
        std::panic::set_hook(prev);
        let err = res.expect_err("watchdog must trip on an unschedulable request");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("watchdog"), "diagnostic panic expected, got: {msg}");
        assert!(msg.contains("0/1 invocations completed"), "dump must carry progress: {msg}");
    }
}
