//! Invocation lifecycle records.
//!
//! An [`Invocation`] is the engine's authoritative record of one running
//! function instance: where it is in its lifecycle, what it is entitled to
//! (`nominal`), what it actually holds (`own_grant` plus incoming loans), how
//! much work it has completed, and the metric integrals the evaluation
//! figures need.
//!
//! Execution itself is a [`Run`], the clock-free model both substrates step.

use crate::demand::{InputMeta, TrueDemand};
use crate::ids::{FunctionId, InvocationId, NodeId};
use crate::resources::{sat_u64, ResourceVec};
use crate::time::{SimDuration, SimTime};
use crate::trace_spans::{SpanKind, SpanSink};

/// Substrate-shared execution physics: the rate of the [`Run`] (in
/// millicores) of an invocation holding `usable_cpu_millis` of schedulable
/// CPU and `effective_mem_mb` of memory, against its true demands. The
/// engine applies node contention scaling to `usable_cpu_millis` first; the
/// live runtime passes its effective grant.
pub fn exec_rate_millis(
    usable_cpu_millis: u64,
    effective_mem_mb: u64,
    true_cpu_peak_millis: u64,
    true_mem_peak_mb: u64,
    nominal_mem_mb: u64,
) -> u64 {
    let busy = usable_cpu_millis.min(true_cpu_peak_millis);
    let mem_factor = if effective_mem_mb >= true_mem_peak_mb {
        1.0
    } else if true_mem_peak_mb > nominal_mem_mb {
        // User under-provisioned memory: the container spills and slows
        // down proportionally (this is the Fig 1 "memory acceleration"
        // opportunity). Floor keeps progress strictly positive.
        (effective_mem_mb as f64 / true_mem_peak_mb as f64).max(0.3)
    } else {
        // Provider harvested below true usage: the container keeps full
        // speed until its footprint crosses the grant, at which point the
        // OOM rule fires (checked on monitor ticks).
        1.0
    };
    crate::resources::sat_u64(busy as f64 * mem_factor).max(1)
}

/// Substrate-shared grant clamp: how much of its own entitlement an invocation
/// may be cut down to — never below the OOM memory floor of §5.1 or 0.1 cores,
/// never above `ceiling` (its nominal less what is already on loan). The
/// engine's `SimCtx::set_own_grant` and the control plane's harvest decision
/// both call it, so the grant the core announces is the grant the engine sets.
pub fn clamp_grant(want: ResourceVec, ceiling: ResourceVec, floor_mb: u64) -> ResourceVec {
    let mut g = want.min(&ceiling);
    g.mem_mb = g.mem_mb.max(floor_mb.min(ceiling.mem_mb));
    g.cpu_millis = g.cpu_millis.max(100).min(ceiling.cpu_millis);
    g
}

/// Substrate-shared footprint model: instantaneous memory usage (MB) ramps
/// linearly from 25 % to 100 % of the peak over the execution — a coarse but
/// monotone model of heap growth that gives the safeguard a usage signal to
/// watch (§5.2).
pub fn mem_usage_model(true_mem_peak_mb: u64, progress_frac: f64) -> u64 {
    let frac = 0.25 + 0.75 * progress_frac.clamp(0.0, 1.0);
    sat_round(true_mem_peak_mb as f64 * frac)
}

/// Substrate-shared OOM rule (§5.1), in MB: only the provider's harvesting
/// kills — a footprint within the user's `nominal` that crossed the `have` it
/// holds. User under-provisioning slows it instead (the spill model). Usage
/// never exceeds the `peak`, so `used` is read only when `have` is under it.
pub fn oom_kills(peak: u64, nominal: u64, have: u64, used: impl FnOnce() -> u64) -> bool {
    peak <= nominal && peak > have && used() > have
}

/// [`oom_kills`] as a wake condition: while the rule can fire, the footprint
/// one past `have`, where it fires; never otherwise.
pub(crate) fn oom_wake(peak: u64, nominal: u64, have: u64) -> Wake {
    if peak <= nominal && peak > have {
        Wake::footprint(have + 1)
    } else {
        Wake::NEVER
    }
}

/// When a node's monitor tick next visits a resident: once its footprint
/// ([`mem_usage_model`]) reaches `footprint_mb`, or, with `node_change`, once
/// its node's running set or allocations have changed since the condition
/// was left. A platform leaves one after each visit that did nothing
/// (`SimCtx::watch`); every change of the resident's own allocation or
/// charge resets it to [`Wake::EVERY_TICK`]. A footprint only grows within
/// an attempt, so until the condition holds the resident's visits are
/// skipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wake {
    /// Visit once the footprint is at least this many MB (0: at every
    /// tick; `u64::MAX`: not for the footprint).
    pub footprint_mb: u64,
    /// Visit once the resident's node has changed.
    pub node_change: bool,
}

impl Wake {
    /// Visit at every tick.
    pub const EVERY_TICK: Wake = Wake { footprint_mb: 0, node_change: false };
    /// Visit only after the resident's own allocation or charge changes.
    pub const NEVER: Wake = Wake { footprint_mb: u64::MAX, node_change: false };
    /// Visit once the resident's node has changed.
    pub const NODE_CHANGE: Wake = Wake { footprint_mb: u64::MAX, node_change: true };

    /// Visit once the footprint reaches `mb`.
    pub const fn footprint(mb: u64) -> Wake {
        Wake { footprint_mb: mb, node_change: false }
    }

    /// The condition that holds as soon as either of the two does.
    pub fn or(self, other: Wake) -> Wake {
        Wake {
            footprint_mb: self.footprint_mb.min(other.footprint_mb),
            node_change: self.node_change || other.node_change,
        }
    }
}

/// One resident's execution on both substrates, clock-free: work in
/// millicore-µs, instants in µs, progress linear at `rate_millis` since
/// `last_update` and capped at `work_total`, read as of an instant. The rate
/// is 0 unless the resident runs, so no lifecycle gate is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Total work.
    pub work_total: u128,
    /// Work completed by `last_update`.
    pub progress: u128,
    /// The instant `progress` was settled at.
    pub last_update: SimTime,
    /// Millicores of useful work in force since `last_update`.
    pub rate_millis: u64,
}

impl Run {
    /// `work_total` to do, none done, not running, as of `now`.
    pub fn new(work_total: u128, now: SimTime) -> Self {
        Run { work_total, progress: 0, last_update: now, rate_millis: 0 }
    }

    /// Work completed by `now`. Reads; writes nothing.
    pub fn work_at(&self, now: SimTime) -> u128 {
        let dt = now.since(self.last_update).as_micros();
        (self.progress + u128::from(self.rate_millis) * u128::from(dt)).min(self.work_total)
    }

    /// Bring `progress` up to `now`: settling at t₁ then t₂ is settling at t₂.
    pub fn settle(&mut self, now: SimTime) {
        self.progress = self.work_at(now);
        self.last_update = now;
    }

    /// Run at `rate` from `now`; if it moves, settle at the old rate first and return `true`.
    pub fn rerate(&mut self, now: SimTime, rate: u64) -> bool {
        let moved = rate != self.rate_millis;
        if moved {
            self.settle(now);
            self.rate_millis = rate;
        }
        moved
    }

    /// Work left as of `last_update`.
    pub fn remaining(&self) -> u128 {
        self.work_total.saturating_sub(self.progress)
    }

    /// The first µs the work is done at, read from `from` on; `None` at rate 0.
    pub fn due(&self, from: SimTime) -> Option<SimTime> {
        let rate = u128::from(self.rate_millis);
        let eta = (rate > 0).then(|| (self.work_total - self.work_at(from)).div_ceil(rate))?;
        Some(SimTime(from.0.saturating_add(u64::try_from(eta).unwrap_or(u64::MAX))))
    }

    /// No later than the first µs at which the footprint of a `peak_mb` peak
    /// ([`mem_usage_model`]) reaches `mb`, read from the run as it stands:
    /// `last_update` if it already has, [`SimTime::MAX`] if it never will
    /// (rate 0, no work, a line the peak stays under). Otherwise the model
    /// inverted, `peak·(¼ + ¾·q) ≥ mb − ½`, less margins — 1e-9 on `q`, one
    /// unit of work, one µs — that dwarf its few float roundings: a reading
    /// before the instant returned is one below the line.
    pub fn footprint_from(&self, peak_mb: u64, mb: u64) -> SimTime {
        let at = self.last_update;
        if mem_usage_model(peak_mb, self.progress_at(at)) >= mb {
            return at;
        }
        if self.rate_millis == 0 || self.work_total == 0 || mem_usage_model(peak_mb, 1.0) < mb {
            return SimTime::MAX;
        }
        let q = ((mb as f64 - 0.5) / peak_mb as f64 - 0.25) / 0.75 - 1e-9;
        let need = u128::from(sat_u64(q * self.work_total as f64 - 1.0));
        let dt = need.saturating_sub(self.progress) / u128::from(self.rate_millis);
        SimTime(at.0.saturating_add(u64::try_from(dt).unwrap_or(u64::MAX)).saturating_sub(1))
            .max(at)
    }

    /// Fraction of the work completed by `now`, in `[0, 1]`.
    pub fn progress_at(&self, now: SimTime) -> f64 {
        if self.work_total == 0 {
            return 1.0;
        }
        let done = self.work_at(now);
        // Through `u64` when both fit: the same `f64`, without the software `u128` conversion.
        let (p, w) = match (u64::try_from(done), u64::try_from(self.work_total)) {
            (Ok(p), Ok(w)) => (p as f64, w as f64),
            _ => (done as f64, self.work_total as f64),
        };
        (p / w).min(1.0)
    }

    /// Start over from nothing at `now`, not running (an OOM or crash restart).
    pub fn restart(&mut self, now: SimTime) {
        *self = Run::new(self.work_total, now);
    }
}

/// `sat_u64(x.round())` — round half away from zero, then saturate — without
/// libm's `round`, a software call on baseline x86-64. Exact for every `x`:
/// below 2^64 the truncation `t` is exact, so `x - t` is exactly the
/// fraction; at or above it `t` is `u64::MAX` and the add saturates; NaN and
/// negatives give 0 either way.
fn sat_round(x: f64) -> u64 {
    let t = sat_u64(x);
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// Lifecycle states of an invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum InvState {
    /// Arrival event scheduled but not yet fired.
    Pending,
    /// Waiting in (or being serviced by) a scheduler shard queue.
    AwaitingDecision,
    /// No node had capacity; parked until resources are released.
    Blocked,
    /// Assigned to a node, container cold-starting.
    ColdStarting,
    /// Executing user code.
    Running,
    /// Finished; actuals recorded.
    Completed,
    /// Terminally failed: crashed/aborted and the retry budget is exhausted.
    Aborted,
}

/// Which estimator produced a prediction (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum PredictionPath {
    /// Random-forest models (input size-related functions, §4.3.1).
    Ml,
    /// Histogram models (input size-unrelated functions, §4.3.2).
    Histogram,
    /// Moving window of recent maxima (the Libra-NP ablation, §8.3).
    Window,
    /// First-seen invocation or profiling window: served with user/max
    /// resources, no estimate.
    None,
}

/// A platform's estimate of an invocation's demands and duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Prediction {
    /// Predicted CPU usage peak (millicores).
    pub cpu_millis: u64,
    /// Predicted memory usage peak (MB).
    pub mem_mb: u64,
    /// Predicted execution duration.
    pub duration: SimDuration,
    /// Which model produced it.
    pub path: PredictionPath,
}

impl Prediction {
    /// Predicted peak as a resource vector.
    pub fn peak(&self) -> ResourceVec {
        ResourceVec::new(self.cpu_millis, self.mem_mb)
    }
}

/// Ground-truth observations reported to the platform after completion
/// (OpenWhisk's `observed_(cpu, mem, duration)` feedback loop, Fig 3).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct Actuals {
    /// Observed CPU usage peak (millicores).
    pub cpu_peak_millis: u64,
    /// Observed memory usage peak (MB).
    pub mem_peak_mb: u64,
    /// Observed execution duration (excludes queueing and cold start).
    pub exec_duration: SimDuration,
    /// Input size the invocation carried.
    pub input_size: u64,
}

/// An active loan of harvested resources: `source` lent `res` to `borrower`.
/// Loans obey the timeliness law — they die with the source (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Loan {
    /// The over-provisioned invocation the resources were harvested from.
    pub source: InvocationId,
    /// The under-provisioned invocation being accelerated.
    pub borrower: InvocationId,
    /// Volume on loan.
    pub res: ResourceVec,
    /// When the loan was created.
    pub created: SimTime,
}

/// Per-invocation latency breakdown (Fig 15).
///
/// Stages are charged *incrementally* as the lifecycle advances (see
/// [`StageCursor`]): every microsecond between arrival and completion lands
/// in exactly one stage, across any number of OOM restarts or crash requeues,
/// so `total()` equals end-to-end latency by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct StageBreakdown {
    /// Front-end admission (accumulated across requeue re-admissions).
    pub frontend: SimDuration,
    /// Profiler inference.
    pub profiler: SimDuration,
    /// Scheduler queueing + decision (accumulated across attempts).
    pub scheduler: SimDuration,
    /// Harvest-pool operations at start (accumulated across attempts).
    pub pool: SimDuration,
    /// Container initialization (zero on warm start; accumulated across
    /// OOM restarts and cold requeued attempts).
    pub container_init: SimDuration,
    /// Code execution (sum of all attempts' executed segments).
    pub exec: SimDuration,
    /// Crash-backoff wait between a killed attempt and its requeue. Zero in
    /// fault-free runs.
    pub backoff: SimDuration,
}

impl StageBreakdown {
    /// Sum of all stages.
    pub fn total(&self) -> SimDuration {
        self.frontend
            + self.profiler
            + self.scheduler
            + self.pool
            + self.container_init
            + self.exec
            + self.backoff
    }

    fn stage_mut(&mut self, kind: SpanKind) -> &mut SimDuration {
        match kind {
            SpanKind::Frontend => &mut self.frontend,
            SpanKind::Profiler => &mut self.profiler,
            SpanKind::Scheduler => &mut self.scheduler,
            SpanKind::Pool => &mut self.pool,
            SpanKind::ContainerInit => &mut self.container_init,
            SpanKind::Exec => &mut self.exec,
            SpanKind::Backoff => &mut self.backoff,
        }
    }
}

/// The one writer of an invocation's latency ledger, shared by the engine
/// and the live cluster: it owns the [`StageBreakdown`], the instant the
/// breakdown has been charged up to, and the pool overhead the current
/// attempt still owes. Every charge is `to − cursor`, booked to one stage,
/// emitted as one span, after which the cursor sits at `to` — so the stages
/// telescope to `cursor − arrival` at every instant and to the end-to-end
/// latency at completion, and the spans of one invocation tile that interval.
#[derive(Clone, Copy, Debug)]
pub struct StageCursor {
    /// Invocation the emitted spans are tagged with.
    inv: u64,
    breakdown: StageBreakdown,
    at: SimTime,
    /// Pool-bookkeeping overhead the platform commits at each scheduling
    /// decision ([`PlatformOverheads::pool`](crate::platform::PlatformOverheads)).
    pool_overhead: SimDuration,
    /// The part of `pool_overhead` committed by the last decision and not
    /// yet charged: leaving `ColdStarting` books up to this much of the gap
    /// as `pool` and the rest as `container_init`. Zero on an OOM restart.
    pending_pool: SimDuration,
}

impl StageCursor {
    /// A cursor for invocation `inv` at `arrival` with nothing charged.
    pub fn new(inv: u64, arrival: SimTime, pool_overhead: SimDuration) -> Self {
        StageCursor {
            inv,
            breakdown: StageBreakdown::default(),
            at: arrival,
            pool_overhead,
            pending_pool: SimDuration::ZERO,
        }
    }

    /// The stage sums charged so far.
    pub fn breakdown(&self) -> &StageBreakdown {
        &self.breakdown
    }

    /// The instant the breakdown has been charged up to.
    pub fn cursor(&self) -> SimTime {
        self.at
    }

    /// Charge `to − cursor` to `kind`, emit the span (tagged `attempt`) and
    /// move the cursor. `to` may lie ahead of the clock: fixed overheads
    /// (frontend, profiler) are pre-charged this way at arrival and requeue,
    /// and the next stage starts accruing where they end.
    #[inline]
    pub fn advance(&mut self, kind: SpanKind, to: SimTime, attempt: u32, spans: &mut SpanSink) {
        *self.breakdown.stage_mut(kind) += to.since(self.at);
        spans.record(self.inv, attempt, kind, self.at, to);
        self.at = to;
    }

    /// Charge the interval since the cursor to the stage that `state` — the
    /// lifecycle state being left at `now` — was spending it in.
    #[inline]
    pub fn leave(&mut self, state: InvState, now: SimTime, attempt: u32, spans: &mut SpanSink) {
        match state {
            InvState::AwaitingDecision | InvState::Blocked => {
                self.advance(SpanKind::Scheduler, now, attempt, spans);
                self.pending_pool = self.pool_overhead;
            }
            InvState::ColdStarting => {
                let gap = now.since(self.at);
                let pool_end = self.at + gap.min(self.pending_pool);
                self.pending_pool = SimDuration::ZERO;
                self.advance(SpanKind::Pool, pool_end, attempt, spans);
                self.advance(SpanKind::ContainerInit, now, attempt, spans);
            }
            InvState::Running => self.advance(SpanKind::Exec, now, attempt, spans),
            InvState::Pending => self.advance(SpanKind::Backoff, now, attempt, spans),
            InvState::Completed | InvState::Aborted => {
                debug_assert!(false, "no stage accrues in terminal state {state:?}");
            }
        }
    }

    /// Conservation check: the booked stages must sum exactly to the span
    /// between `arrival` and the cursor.
    pub fn check(&self, arrival: SimTime) -> Result<(), String> {
        let (booked, charged) = (self.breakdown.total(), self.at.since(arrival));
        if booked == charged {
            return Ok(());
        }
        Err(format!("breakdown sums to {booked:?} but the stage cursor implies {charged:?}"))
    }
}

/// Outcome category flags for Fig 8's scatter classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct InvFlags {
    /// Resources were harvested from this invocation at some point.
    pub harvested: bool,
    /// This invocation ran with borrowed (supplementary) resources at some point.
    pub accelerated: bool,
    /// The safeguard fired for this invocation.
    pub safeguarded: bool,
    /// The invocation ran out of memory and was restarted.
    pub oomed: bool,
    /// An injected fault killed at least one attempt (node crash or abort).
    pub crashed: bool,
}

/// The engine's record of one invocation.
#[derive(Clone, Debug)]
pub struct Invocation {
    /// Identity.
    pub id: InvocationId,
    /// The function invoked.
    pub func: FunctionId,
    /// Input metadata (size visible; content opaque).
    pub input: InputMeta,
    /// Ground truth (engine-private in spirit; platforms must not read it).
    pub true_demand: TrueDemand,
    /// Its execution: [`TrueDemand::work`] at the rate `engine::effective_rate`
    /// gives. Only a change to the allocation, rate or lifecycle state
    /// settles it (`Invocation::settle`).
    pub run: Run,

    /// Arrival at the front end.
    pub arrival: SimTime,
    /// When user code began executing.
    pub exec_start: Option<SimTime>,
    /// Completion time.
    pub end: Option<SimTime>,

    /// Node executing it.
    pub node: Option<NodeId>,
    /// Scheduler shard that handled it.
    pub shard: Option<usize>,

    /// User-defined entitlement (admission is checked against this).
    pub nominal: ResourceVec,
    /// What it currently holds of its own entitlement.
    pub own_grant: ResourceVec,
    /// Incoming loans (resources borrowed for acceleration).
    pub borrowed_in: Vec<Loan>,
    /// Total volume currently lent out to others.
    pub lent_out: ResourceVec,

    /// Generation counter for lazy-cancelled Finish events.
    pub finish_gen: u64,
    /// Whether a `Finish` of generation `finish_gen`, computed at the run's
    /// rate, is queued: while the rate holds, it stands.
    pub finish_armed: bool,
    /// Highest busy-CPU observation (millicores) so far — the `cpu_peak`
    /// a cgroups monitor would have recorded. Observed where a run segment
    /// ends; read at completion.
    pub cpu_peak_obs: u64,
    /// When its node's monitor tick next visits it. Its start and every
    /// later change of its allocation or charge set [`Wake::EVERY_TICK`];
    /// only its platform leaves anything later (`SimCtx::watch`).
    /// [`Wake::NEVER`] while not resident.
    pub wake: Wake,
    /// Its node's generation (`Node::generation`) when `wake` was set: the
    /// node has changed since when the two differ.
    pub(crate) wake_gen: u64,
    /// No later than the first instant `wake`'s footprint line can hold
    /// ([`Invocation::footprint_wake_from`]): zero for [`Wake::EVERY_TICK`],
    /// [`SimTime::MAX`] without a finite line. Written with `wake` and
    /// whenever the run's rate moves under it.
    pub(crate) wake_from: SimTime,

    /// Lifecycle state.
    pub state: InvState,
    /// Whether the container was cold-started.
    pub cold_start: bool,
    /// Number of OOM restarts.
    pub restarts: u32,
    /// Number of crash/abort requeues; doubles as the attempt epoch for
    /// lazy-cancelled StartExec events.
    pub requeues: u32,

    /// The platform's prediction, if any (recorded for metrics).
    pub pred: Option<Prediction>,
    /// Outcome category flags.
    pub flags: InvFlags,
    /// Latency breakdown and the cursor it has been charged up to.
    pub stage: StageCursor,

    /// ∫ (effective − nominal) CPU dt, in millicore-µs (signed):
    /// positive = net accelerated, negative = net harvested (Fig 8 x-axis).
    pub cpu_reassigned: i128,
    /// ∫ (effective − nominal) memory dt, in MB-µs (signed).
    pub mem_reassigned: i128,
}

impl Invocation {
    /// Create a fresh record in `Pending` state. `pool_overhead` is what the
    /// platform charges per scheduling decision (see [`StageCursor`]).
    pub fn new(
        id: InvocationId,
        func: FunctionId,
        input: InputMeta,
        true_demand: TrueDemand,
        nominal: ResourceVec,
        arrival: SimTime,
        pool_overhead: SimDuration,
    ) -> Self {
        Invocation {
            id,
            func,
            input,
            true_demand,
            run: Run::new(true_demand.work(), arrival),
            arrival,
            exec_start: None,
            end: None,
            node: None,
            shard: None,
            nominal,
            own_grant: nominal,
            borrowed_in: Vec::new(),
            lent_out: ResourceVec::ZERO,
            finish_gen: 0,
            finish_armed: false,
            cpu_peak_obs: 0,
            wake: Wake::NEVER,
            wake_gen: 0,
            wake_from: SimTime::MAX,
            state: InvState::Pending,
            cold_start: false,
            restarts: 0,
            requeues: 0,
            pred: None,
            flags: InvFlags::default(),
            stage: StageCursor::new(id.0 as u64, arrival, pool_overhead),
            cpu_reassigned: 0,
            mem_reassigned: 0,
        }
    }

    /// Everything the invocation can currently use: its own grant plus all
    /// incoming loans.
    pub fn effective_alloc(&self) -> ResourceVec {
        self.borrowed_in.iter().fold(self.own_grant, |acc, l| acc + l.res)
    }

    /// What the invocation currently charges against its node's capacity:
    /// its own grant plus everything it has lent out. Harvesting (grant <
    /// nominal with the difference pooled, §5.1) lowers the charge — that is
    /// how harvested resources admit additional invocations.
    pub fn charge(&self) -> ResourceVec {
        self.own_grant + self.lent_out
    }

    /// Total volume currently borrowed in.
    pub fn borrowed_total(&self) -> ResourceVec {
        self.borrowed_in.iter().fold(ResourceVec::ZERO, |acc, l| acc + l.res)
    }

    /// [`Run::settle`] at `now`, and the reassignment integrals with it at the
    /// allocation in force since the run's `last_update`. The engine settles
    /// only right before that allocation, the rate or the lifecycle state
    /// changes; the integrals are linear in between, like progress.
    pub(crate) fn settle(&mut self, now: SimTime) {
        if self.state == InvState::Running {
            let dt = i128::from(now.since(self.run.last_update).as_micros());
            let eff = self.effective_alloc();
            self.cpu_reassigned +=
                (i128::from(eff.cpu_millis) - i128::from(self.nominal.cpu_millis)) * dt;
            self.mem_reassigned += (i128::from(eff.mem_mb) - i128::from(self.nominal.mem_mb)) * dt;
        }
        self.run.settle(now);
    }

    /// Memory footprint (MB) at `now`; see [`mem_usage_model`].
    pub fn mem_usage_mb_at(&self, now: SimTime) -> u64 {
        mem_usage_model(self.true_demand.mem_peak_mb, self.run.progress_at(now))
    }

    /// [`Run::footprint_from`] for its [`Wake`]'s footprint line: what
    /// `wake_from` holds.
    pub(crate) fn footprint_wake_from(&self) -> SimTime {
        match self.wake.footprint_mb {
            0 => SimTime::ZERO,
            u64::MAX => SimTime::MAX,
            mb => self.run.footprint_from(self.true_demand.mem_peak_mb, mb),
        }
    }

    /// Whether its [`Wake`] holds at `now`, on a node at generation
    /// `node_gen`. The footprint is read last, and only from `wake_from` on
    /// (never for an infinite line); debug builds check that a read skipped
    /// before it would have found the footprint below the line.
    pub(crate) fn wakes(&self, now: SimTime, node_gen: u64) -> bool {
        let w = self.wake;
        let at_line = || self.mem_usage_mb_at(now) >= w.footprint_mb;
        debug_assert!(
            now >= self.wake_from || w.footprint_mb == u64::MAX || !at_line(),
            "{:?} reached its {} MB line at {now:?}, before its bound {:?}",
            self.id,
            w.footprint_mb,
            self.wake_from
        );
        w.footprint_mb == 0
            || (w.node_change && self.wake_gen != node_gen)
            || (now >= self.wake_from && at_line())
    }

    /// The earliest instant its [`Wake`] can hold, on a node at generation
    /// `node_gen`, as far as `wake_from` knows: zero once it waits on a node
    /// that has changed.
    pub(crate) fn next_wake(&self, node_gen: u64) -> SimTime {
        if self.wake.node_change && self.wake_gen != node_gen {
            SimTime::ZERO
        } else {
            self.wake_from
        }
    }

    /// Instantaneous busy millicores: the code uses everything it can, up to
    /// its true CPU peak.
    pub fn cpu_usage_millis(&self) -> u64 {
        self.effective_alloc().cpu_millis.min(self.true_demand.cpu_peak_millis)
    }

    /// End-to-end response latency (arrival → completion), once completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.end.map(|e| e.since(self.arrival))
    }

    /// True if the invocation is past the point of no return (running or done).
    pub fn is_running(&self) -> bool {
        self.state == InvState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> TrueDemand {
        TrueDemand {
            cpu_peak_millis: 2000,
            mem_peak_mb: 400,
            base_duration: SimDuration::from_secs(10),
        }
    }

    fn inv() -> Invocation {
        Invocation::new(
            InvocationId(0),
            FunctionId(0),
            InputMeta::new(100, 0),
            demand(),
            ResourceVec::from_cores_mb(4, 1024),
            SimTime::ZERO,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn effective_alloc_sums_loans() {
        let mut i = inv();
        assert_eq!(i.effective_alloc(), i.nominal);
        i.borrowed_in.push(Loan {
            source: InvocationId(9),
            borrower: i.id,
            res: ResourceVec::new(500, 128),
            created: SimTime::ZERO,
        });
        assert_eq!(i.effective_alloc(), ResourceVec::new(4500, 1152));
        assert_eq!(i.borrowed_total(), ResourceVec::new(500, 128));
    }

    #[test]
    fn memory_ramps_from_quarter_to_peak() {
        let mut i = inv();
        let now = SimTime::ZERO;
        assert_eq!(i.mem_usage_mb_at(now), 100); // 25% of 400 at progress 0
        i.run.progress = i.run.work_total;
        assert_eq!(i.mem_usage_mb_at(now), 400);
        i.run.progress = i.run.work_total / 2;
        let mid = i.mem_usage_mb_at(now);
        assert!(mid > 100 && mid < 400, "mid-execution usage {mid} should be between");
    }

    #[test]
    fn cpu_usage_capped_by_peak_and_alloc() {
        let mut i = inv();
        // alloc 4 cores, peak 2 cores -> busy 2 cores
        assert_eq!(i.cpu_usage_millis(), 2000);
        i.own_grant = ResourceVec::new(800, 1024);
        assert_eq!(i.cpu_usage_millis(), 800);
    }

    #[test]
    fn progress_fraction_and_remaining() {
        let mut run = inv().run;
        assert_eq!(run.progress_at(SimTime::ZERO), 0.0);
        assert_eq!(run.remaining(), run.work_total);
        run.progress = run.work_total;
        assert_eq!(run.progress_at(SimTime::ZERO), 1.0);
        assert_eq!(run.remaining(), 0);
    }

    /// The seeded generator of the sweeps below (64-bit LCG, high bits).
    fn lcg(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state ^ (*state >> 29)
    }

    /// `sat_round` is `sat_u64(x.round())` bit for bit: on exact halves, the
    /// largest double below ½, either side of 2^52 and 2^53 (past which there
    /// is no fraction), across 2^63..2^64 and beyond `u64::MAX`; and
    /// `mem_usage_model` is the libm formula on a seeded sweep.
    #[test]
    fn integer_rounding_matches_libm_round() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            -0.5,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            u64::MAX as f64,
        ];
        xs.extend([0u64, 1, 2, 3, 1023, 1 << 20, (1 << 52) - 1].map(|k| k as f64 + 0.5));
        for p in [52, 53, 63, 64] {
            let b = 2f64.powi(p);
            xs.extend([b, b.next_down(), b.next_up(), b - 0.5, b + 0.5, b - 1.0, b + 1.0, b + 3.0]);
        }
        let lo = 2f64.powi(63);
        xs.extend((0..=64).map(|i| lo + f64::from(i) * 2f64.powi(57)));
        for x in xs {
            assert_eq!(sat_round(x), sat_u64(x.round()), "x = {x:e}");
        }

        let libm =
            |peak: u64, p: f64| sat_u64((peak as f64 * (0.25 + 0.75 * p.clamp(0.0, 1.0))).round());
        let mut state = 42;
        for n in 0..100_000u64 {
            let peak = match n % 3 {
                0 => lcg(&mut state) % 65_536,
                1 => lcg(&mut state) >> (lcg(&mut state) % 64),
                _ => 2 * (lcg(&mut state) % 4096) + 1, // odd: quarters and halves
            };
            let p = match n % 4 {
                0 => 0.0,
                1 => 1.0,
                _ => (lcg(&mut state) % 10_001) as f64 / 10_000.0,
            };
            assert_eq!(mem_usage_model(peak, p), libm(peak, p), "peak {peak}, progress {p}");
        }
    }

    /// `progress_at` through `u64` is the `u128` formula bit for bit, and
    /// the `u128` fallback still answers above `u64::MAX`.
    #[test]
    fn progress_at_matches_the_u128_formula() {
        let formula = |p: u128, w: u128| (p as f64 / w as f64).min(1.0);
        let big = u128::from(u64::MAX);
        let mut cases = vec![
            (0, 1),
            (1, 3),
            (big, big),
            (big - 1, big),
            (big, big + 1),
            (big + 1, big),
            (big * 7, big * 9),
            (u128::MAX, u128::MAX),
            (3, u128::MAX),
        ];
        let mut state = 7;
        for _ in 0..10_000 {
            let w = u128::from(lcg(&mut state)) >> (lcg(&mut state) % 64) | 1;
            cases.push((u128::from(lcg(&mut state)) % (w + w / 8), w));
        }
        let mut run = Run::new(0, SimTime::ZERO);
        for (p, w) in cases {
            (run.progress, run.work_total) = (p, w);
            assert_eq!(
                run.progress_at(SimTime::ZERO).to_bits(),
                formula(p, w).to_bits(),
                "{p}/{w}"
            );
        }
    }

    #[test]
    fn zero_work_counts_as_complete() {
        assert_eq!(Run::new(0, SimTime::ZERO).progress_at(SimTime::ZERO), 1.0);
    }

    /// A rate change settles the interval before it at the rate that ran
    /// over it; an unchanged rate writes nothing.
    #[test]
    fn rerate_credits_an_interval_at_the_rate_it_ran_at() {
        let t0 = SimTime(5_000);
        let mut run = Run::new(10_000_000, t0); // 10 core-ms of work
        assert!(run.rerate(t0, 2_000));
        // A loan revoked 0.9 ms in: the borrower keeps the 0.9 ms it ran
        // accelerated...
        assert!(run.rerate(t0 + SimDuration(900), 1_000));
        assert_eq!((run.remaining(), run.last_update), (8_200_000, t0 + SimDuration(900)));
        // ...and only the rest is credited at the new rate.
        assert_eq!(run.work_at(t0 + SimDuration(1_000)), 1_900_000);
        let before = run;
        assert!(!run.rerate(t0 + SimDuration(1_000), 1_000));
        assert_eq!(run, before, "an unchanged rate settles nothing");
        // An instant before the last settle credits nothing.
        assert_eq!(run.work_at(t0), 1_800_000);
        run.restart(t0 + SimDuration(2_000));
        assert_eq!(run, Run::new(10_000_000, t0 + SimDuration(2_000)));
    }

    /// `due` is the first µs at which the work is done — not one earlier —
    /// and the same instant read from any `from` before it; never at rate 0.
    #[test]
    fn due_is_exact_to_the_microsecond() {
        let mut state = 11;
        for _ in 0..20_000 {
            let mut run = Run::new(u128::from(lcg(&mut state) % (1 << 40)) + 1, SimTime::ZERO);
            run.progress = u128::from(lcg(&mut state)) % run.work_total;
            run.last_update = SimTime(lcg(&mut state) % 1_000_000);
            assert_eq!(run.due(run.last_update), None, "rate 0 is never due");
            run.rate_millis = lcg(&mut state) % 48_000 + 1;
            let due = run.due(run.last_update).expect("running");
            assert!(due > run.last_update);
            assert_eq!(run.work_at(due), run.work_total);
            assert!(run.work_at(SimTime(due.0 - 1)) < run.work_total, "{run:?} due {due:?}");
            let from = run.last_update + SimDuration(lcg(&mut state) % (due - run.last_update).0);
            assert_eq!(run.due(from), Some(due), "{run:?} from {from:?}");
            assert_eq!(run.due(due + SimDuration(7)), Some(due + SimDuration(7)));
        }
    }

    /// The first µs at which a `peak_mb` peak's footprint on `run` reaches
    /// `mb`, by binary search over the monotone predicate; `None` if never.
    fn first_at_line(run: &Run, peak_mb: u64, mb: u64) -> Option<u64> {
        let holds = |t: u64| mem_usage_model(peak_mb, run.progress_at(SimTime(t))) >= mb;
        let (mut lo, mut hi) = (run.last_update.0, run.due(run.last_update).map_or(0, |t| t.0));
        if holds(lo) {
            return Some(lo);
        }
        if hi <= lo || !holds(hi) {
            return None;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if holds(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// `footprint_from` is never later than the first µs at which the
    /// footprint reaches the line, is `MAX` exactly when it never does, and
    /// on runs shorter than 10^4 s is at most a millisecond early. Seeded
    /// runs cover rate 0, no work, progress at or near the end, lines at 0,
    /// at the footprint, at and above the peak's, and peaks and work near
    /// 2^53.
    #[test]
    fn footprint_from_bounds_the_first_microsecond_at_the_line() {
        use crate::metrics::splitmix64;
        let mut state = 42;
        let mut r = |m: u64| splitmix64(&mut state) % m;
        let (mut never, mut already, mut ahead) = (0, 0, 0);
        for n in 0..40_000u64 {
            let peak = match n % 4 {
                0 => r(65_536),
                1 => (1 << 53) - r(1 << 10),
                2 => 2 * r(4_096) + 1,
                _ => r(1 << 20) + 1,
            };
            let work_total = match n % 7 {
                0 => 0,
                1 => u128::from((1u64 << 53) - r(1 << 10)),
                2 => u128::from(r(1 << 12)) + 1,
                _ => {
                    let bits = 10 + r(31);
                    u128::from(r(1 << bits)) + 1
                }
            };
            let mut run = Run::new(work_total, SimTime(r(1_000_000_000)));
            run.progress = match n % 5 {
                0 => 0,
                1 => work_total,
                2 => work_total.saturating_sub(u128::from(r(1_000))),
                _ => u128::from(r(u64::MAX)) % (work_total + 1),
            };
            run.rate_millis = if n % 11 == 0 { 0 } else { r(48_000) + 1 };
            let (now, top) = (
                mem_usage_model(peak, run.progress_at(run.last_update)),
                mem_usage_model(peak, 1.0),
            );
            let mb = match n % 6 {
                0 => 0,
                1 => now,
                2 => top,
                3 => top + 1 + r(3),
                _ => now + r(top.saturating_sub(now) + 1),
            };
            let bound = run.footprint_from(peak, mb);
            let case = format!("case {n}: {run:?}, peak {peak}, line {mb}, bound {bound:?}");
            let Some(first) = first_at_line(&run, peak, mb) else {
                assert_eq!(bound, SimTime::MAX, "{case}: never at the line");
                never += 1;
                continue;
            };
            assert!(bound.0 <= first, "{case}: late for {first}");
            if bound == run.last_update {
                already += 1;
            } else {
                ahead += 1;
            }
            let span = work_total / u128::from(run.rate_millis.max(1));
            if run.rate_millis > 0 && span < 10_000_000_000 {
                assert!(first - bound.0 <= 1_000, "{case}: early for {first}");
            }
        }
        assert!(
            never > 1_000 && already > 1_000 && ahead > 1_000,
            "never {never}, at once {already}, ahead {ahead}"
        );
    }

    #[test]
    fn oom_kills_only_what_harvesting_took() {
        let used = |mb: u64| move || mb;
        assert!(oom_kills(900, 1_024, 512, used(600)));
        assert!(!oom_kills(900, 1_024, 512, used(512)), "at the grant, not over it");
        assert!(!oom_kills(1_100, 1_024, 512, used(600)), "user under-provisioning spills");
        let unread = || -> u64 { panic!("usage read with the grant above the peak") };
        assert!(!oom_kills(900, 1_024, 900, unread));
    }

    /// Case `n` of the settle sweeps: an invocation settled at some instant
    /// with seeded work, progress, rate, grant and loan (running in four
    /// cases of five), and two later instants `t₁ ≤ t₂`. Work scales vary
    /// from 2^8 to 2^40 against up to 48 cores for up to 100 s, so many
    /// cases reach the `work_total` cap, some of them between `t₁` and `t₂`.
    fn seeded_settle_case(state: &mut u64, n: u64) -> (Invocation, SimTime, SimTime) {
        let mut i = inv();
        let running = !n.is_multiple_of(5);
        i.state = if running { InvState::Running } else { InvState::ColdStarting };
        i.run.rate_millis = lcg(state) % 48_001 * u64::from(running);
        i.run.work_total = u128::from(lcg(state) % (1 << (8 + lcg(state) % 33))) + 1;
        i.run.progress = u128::from(lcg(state)) % (i.run.work_total + 1);
        i.own_grant = ResourceVec::new(lcg(state) % 8_001, lcg(state) % 4_097);
        if n.is_multiple_of(2) {
            let res = ResourceVec::new(lcg(state) % 4_001, lcg(state) % 1_025);
            i.borrowed_in.push(Loan {
                source: InvocationId(9),
                borrower: i.id,
                res,
                created: i.arrival,
            });
        }
        i.cpu_reassigned = i128::from(lcg(state) >> 12) - (1 << 51);
        i.mem_reassigned = i128::from(lcg(state) >> 12) - (1 << 51);
        i.run.last_update = SimTime(lcg(state) % 1_000_000);
        let t1 = i.run.last_update + SimDuration(lcg(state) % 100_000_000);
        let t2 = t1 + SimDuration(lcg(state) % 100_000_000);
        (i, t1, t2)
    }

    /// Settling at t₁ and then at t₂ is settling once at t₂, bit for bit, for
    /// progress and both reassignment integrals — across the `work_total`
    /// cap too. That is why a monitor visit need not settle.
    #[test]
    fn settling_at_t1_then_t2_is_settling_at_t2() {
        let (mut state, mut capped, mut crossed, mut short) = (23, 0, 0, 0);
        for n in 0..20_000 {
            let (mut twice, t1, t2) = seeded_settle_case(&mut state, n);
            let mut once = twice.clone();
            twice.settle(t1);
            let capped_at_t1 = twice.run.progress == twice.run.work_total;
            twice.settle(t2);
            once.settle(t2);
            let books = |i: &Invocation| (i.run, i.cpu_reassigned, i.mem_reassigned);
            assert_eq!(books(&twice), books(&once), "case {n}: t1 {t1:?}, t2 {t2:?}");
            let capped_at_t2 = once.run.progress == once.run.work_total;
            capped += u32::from(capped_at_t1);
            crossed += u32::from(!capped_at_t1 && capped_at_t2);
            short += u32::from(!capped_at_t2);
        }
        assert!(
            capped > 100 && crossed > 100 && short > 100,
            "capped by t1 in {capped}, between t1 and t2 in {crossed}, short in {short} cases"
        );
    }

    /// `progress_at(now)` and `mem_usage_mb_at(now)` read exactly what
    /// settling at `now` and then reading would.
    #[test]
    fn reading_at_now_is_settling_then_reading() {
        let mut state = 5;
        for n in 0..20_000 {
            let (read, _, now) = seeded_settle_case(&mut state, n);
            let mut settled = read.clone();
            settled.settle(now);
            assert_eq!(read.run.progress_at(now).to_bits(), settled.run.progress_at(now).to_bits());
            assert_eq!(read.mem_usage_mb_at(now), settled.mem_usage_mb_at(now), "case {n}");
        }
    }

    /// `leave` over every state, including the pool/container-init split
    /// boundaries: after each step the stages sum to `cursor − arrival`, and
    /// the emitted spans tile `[arrival, cursor]` with the expected kinds.
    #[test]
    fn stage_cursor_leave_charges_the_state_being_left() {
        use InvState::*;
        use SpanKind::*;
        const POOL: u64 = 200;
        // (state left, µs since the previous step, armed pool before the
        //  step?, expected (kind, length µs) charges in order)
        type Step = (InvState, u64, bool, &'static [(SpanKind, u64)]);
        let steps: [Step; 10] = [
            (AwaitingDecision, 40, false, &[(Scheduler, 40)]),
            // gap < pending_pool: all pool, nothing left for init.
            (ColdStarting, 150, true, &[(Pool, 150)]),
            (Pending, 1_000, false, &[(Backoff, 1_000)]),
            (Blocked, 70, false, &[(Scheduler, 70)]),
            // gap == pending_pool: the boundary still charges no init.
            (ColdStarting, POOL, true, &[(Pool, POOL)]),
            (Running, 900, false, &[(Exec, 900)]),
            // pending_pool == 0 (OOM restart): the whole gap is init.
            (ColdStarting, 500, false, &[(ContainerInit, 500)]),
            (Running, 0, false, &[]),
            (AwaitingDecision, 5, false, &[(Scheduler, 5)]),
            // gap > pending_pool, and gap == 0 right after.
            (ColdStarting, POOL + 300, true, &[(Pool, POOL), (ContainerInit, 300)]),
        ];
        let arrival = SimTime(1_000);
        let mut stage = StageCursor::new(7, arrival, SimDuration(POOL));
        let mut spans = SpanSink::new(true);
        let mut now = arrival;
        let mut expected: Vec<(SpanKind, u64, u64)> = Vec::new();
        for (state, dt, armed, charges) in steps {
            assert_eq!(stage.pending_pool, SimDuration(if armed { POOL } else { 0 }), "{state:?}");
            now += SimDuration(dt);
            let mut from = stage.cursor().as_micros();
            for &(kind, len) in charges {
                expected.push((kind, from, from + len));
                from += len;
            }
            stage.leave(state, now, 0, &mut spans);
            assert_eq!(stage.cursor(), now);
            assert_eq!(stage.breakdown().total(), now.since(arrival), "after leaving {state:?}");
            assert_eq!(stage.check(arrival), Ok(()));
        }
        stage.leave(ColdStarting, now, 0, &mut spans); // gap == 0
        assert_eq!(stage.breakdown().total(), now.since(arrival));

        let b = *stage.breakdown();
        assert_eq!(
            (b.scheduler, b.backoff, b.exec),
            (SimDuration(115), SimDuration(1_000), SimDuration(900))
        );
        assert_eq!((b.pool, b.container_init), (SimDuration(150 + 2 * POOL), SimDuration(800)));
        let trace = spans.into_trace().expect("enabled");
        let got: Vec<_> =
            trace.spans_for(7).iter().map(|s| (s.kind, s.start_us, s.end_us)).collect();
        assert_eq!(got, expected);
        assert_eq!(got.first().map(|s| s.1), Some(arrival.as_micros()));
        assert_eq!(got.last().map(|s| s.2), Some(now.as_micros()));
        assert!(got.windows(2).all(|w| w[0].2 == w[1].1), "spans must tile: {got:?}");
    }

    /// `advance` may run ahead of the clock (pre-charged overheads); the
    /// next `leave` starts accruing where the pre-charge ended.
    #[test]
    fn stage_cursor_advance_precharges_ahead_of_the_clock() {
        let arrival = SimTime(50);
        let mut stage = StageCursor::new(0, arrival, SimDuration::ZERO);
        let mut spans = SpanSink::new(false);
        stage.advance(SpanKind::Frontend, SimTime(350), 0, &mut spans);
        stage.advance(SpanKind::Profiler, SimTime(1_850), 0, &mut spans);
        assert_eq!(stage.cursor(), SimTime(1_850));
        stage.leave(InvState::AwaitingDecision, SimTime(2_000), 0, &mut spans);
        let b = stage.breakdown();
        assert_eq!(
            (b.frontend, b.profiler, b.scheduler),
            (SimDuration(300), SimDuration(1_500), SimDuration(150))
        );
        assert_eq!(stage.check(arrival), Ok(()));
        assert!(stage.check(SimTime(49)).is_err(), "a wrong arrival must be flagged");
    }

    #[test]
    fn breakdown_total_sums_stages() {
        let b = StageBreakdown {
            frontend: SimDuration::from_millis(1),
            profiler: SimDuration::from_millis(2),
            scheduler: SimDuration::from_millis(3),
            pool: SimDuration::from_millis(4),
            container_init: SimDuration::from_millis(5),
            exec: SimDuration::from_millis(6),
            backoff: SimDuration::from_millis(7),
        };
        assert_eq!(b.total(), SimDuration::from_millis(28));
    }
}
