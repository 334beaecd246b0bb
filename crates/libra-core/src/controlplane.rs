//! The substrate-agnostic harvest control plane.
//!
//! Libra's contribution is control-plane *logic*: harvesting idle
//! entitlements into per-node pools, lending them to under-provisioned
//! invocations, trimming loans the borrower cannot use, watching usage so the
//! safeguard can preemptively release a misprediction (§5.2), and enforcing
//! the timeliness law — loans die with their source (§3.1). This module owns
//! that logic once, as a pure, clock-free state machine:
//!
//! * **Inputs** are abstract events: [`ControlPlane::on_admit`] (placement +
//!   prediction), [`ControlPlane::on_observe_at`] (a monitor visit, which
//!   pulls a cgroups-style [`Observation`] only when a decision reads it),
//!   [`ControlPlane::on_complete`], [`ControlPlane::on_oom`],
//!   [`ControlPlane::on_abort`] and [`ControlPlane::on_node_crash`]. Every
//!   event carries an explicit `now` — the core never reads a clock, so the
//!   discrete-event simulator and the threaded live runtime can both drive it.
//! * **Outputs** are explicit [`Action`]s (`SetGrant`, `Lend`, `Return`,
//!   `Revoke`, `PreemptiveRelease`, `Requeue`). A driver translates them into
//!   its substrate's mutations: `LibraPlatform` issues `SimCtx` calls,
//!   `libra-live::cluster` replays them under real `parking_lot` locks.
//! * **State** is the per-node harvest pools, the safeguard, and a loan
//!   ledger mirroring every grant and loan the drivers applied. What is per
//!   node is indexed by node: one ledger per node beside its pool, each in
//!   ascending invocation id. A loan never leaves its node (§3.1), so every
//!   borrower of a source sits in the source's own ledger and walking that
//!   one vector visits them in the global ascending-id order — identical
//!   event sequences yield identical action traces, the property the
//!   differential fidelity test and the conservation proptests pin down.
//!   A monitor visit names its node, so it reads that ledger alone; for the
//!   other events one sorted `id → node` index finds the ledger. It is
//!   looked up, never walked for a decision, and holds one pair per *live*
//!   invocation whatever the ids are — a table dense over an id range is
//!   ruled out, because the gateway takes the id off the request body
//!   (hostile input).
//!
//! The only feedback channel a driver needs is [`ControlPlane::lend_failed`]:
//! substrates may refuse a `Lend` (the sim engine when a source is no longer
//! honoured, the live scheduler when admissions consumed the idle volume),
//! and the core then unwinds its optimistic ledger update.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::pool::{GetOrder, HarvestResourcePool, PoolSnapshot};
use crate::safeguard::{trip_footprint, Safeguard};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{clamp_grant, Prediction, Wake};
use libra_sim::platform::LoanEnd;
use libra_sim::resources::{sat_u64, ResourceVec};
use libra_sim::time::SimTime;
use std::cell::LazyCell;

/// Decision knobs of the shared control plane (embedded in `LibraConfig` —
/// profiler/scheduler knobs stay with the drivers).
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Enable the safeguard (off = Libra-NS).
    pub safeguard: bool,
    /// Safeguard trigger threshold (default 0.8).
    pub safeguard_threshold: f64,
    /// Multiplicative headroom left above the predicted peak when harvesting
    /// (grant = pred × headroom, clamped to the user allocation). The default
    /// 1.0 harvests down to the predicted class ceiling itself — the
    /// aggressive posture of the paper, where the safeguard (not padding) is
    /// what protects against mispredictions and near-boundary peaks (Fig 14
    /// shows a sizeable safeguarded fraction at the default 0.8 threshold).
    pub harvest_headroom: f64,
    /// Pool hand-out order (ablation knob; the paper's design is
    /// longest-lived-first, Fig 4).
    pub pool_order: GetOrder,
    /// Re-acquire an accelerable invocation's shortfall at every
    /// observation (ablation knob; off = one-shot acceleration at admission
    /// only).
    pub continuous_acceleration: bool,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            safeguard: true,
            safeguard_threshold: 0.8,
            harvest_headroom: 1.0,
            pool_order: GetOrder::LongestLived,
            continuous_acceleration: true,
        }
    }
}

/// Admission event: an invocation was placed on a node, with what the
/// platform predicts about it.
#[derive(Clone, Copy, Debug)]
pub struct Admission {
    /// The admitted invocation.
    pub inv: InvocationId,
    /// The node it was placed on.
    pub node: NodeId,
    /// Function index (drives the safeguard's per-function history).
    pub func: usize,
    /// User-defined allocation (the entitlement).
    pub nominal: ResourceVec,
    /// OOM memory floor the substrate enforces on grants (§5.1).
    pub mem_floor_mb: u64,
    /// Predicted demands, if any (`None` = first-seen: serve at nominal).
    pub pred: Option<Prediction>,
}

/// A cgroups-style usage observation for one running invocation. The
/// allocation it is read against (effective grant, nominal) comes from the
/// core's own ledger.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// Busy millicores right now.
    pub cpu_busy_millis: u64,
    /// Memory footprint right now (MB).
    pub mem_used_mb: u64,
    /// Whether the invocation wanted more CPU than it holds.
    pub cpu_throttled: bool,
}

/// An explicit control-plane decision for the driver to apply. Actions carry
/// no timestamps, so traces from different substrates compare directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Admission outcome: the invocation entered the ledger on `node` with
    /// `nominal` committed. Emitted first for every admission so traces
    /// carry an explicit admission record even when nothing is harvested —
    /// networked frontends key their per-invocation accounting off it.
    /// Drivers that already admitted through their own substrate (the
    /// scheduler reservation) treat it as bookkeeping.
    Admitted {
        /// The admitted invocation.
        inv: InvocationId,
        /// The node it was placed on.
        node: NodeId,
        /// Its user-defined allocation (the committed admission unit).
        nominal: ResourceVec,
    },
    /// Shrink (harvest) an invocation's own grant. `freed = nominal − grant`
    /// is the volume that left the node's committed capacity (and entered
    /// the harvest pool).
    SetGrant {
        /// The harvested invocation.
        inv: InvocationId,
        /// Its new own grant.
        grant: ResourceVec,
        /// Volume freed by the shrink (what the driver uncommits).
        freed: ResourceVec,
    },
    /// Lend `vol` of `source`'s pooled idle entitlement to `borrower`.
    /// Drivers that cannot apply it must call [`ControlPlane::lend_failed`].
    Lend {
        /// The donor invocation.
        source: InvocationId,
        /// The accelerated invocation.
        borrower: InvocationId,
        /// The loaned volume.
        vol: ResourceVec,
    },
    /// `borrower` voluntarily returns `vol` to `source` (usage-guided
    /// trimming; the volume is already back in the pool).
    Return {
        /// The borrower giving resources back.
        borrower: InvocationId,
        /// The loan's source.
        source: InvocationId,
        /// The returned volume.
        vol: ResourceVec,
    },
    /// A loan died (timeliness law, safeguard, OOM or crash). The core has
    /// already unwound its ledger; drivers release/restore whatever their
    /// substrate still holds for it.
    Revoke {
        /// The loan's source.
        source: InvocationId,
        /// The loan's borrower.
        borrower: InvocationId,
        /// The revoked volume.
        vol: ResourceVec,
        /// Why the loan ended.
        reason: LoanEnd,
    },
    /// Safeguard preemptive release (§5.2): every outgoing loan of `inv` was
    /// revoked and its grant restored to nominal. `restored` is the volume
    /// the driver must re-commit (`nominal − grant before the release`).
    PreemptiveRelease {
        /// The protected invocation.
        inv: InvocationId,
        /// Volume re-committed by the grant restore.
        restored: ResourceVec,
    },
    /// The invocation hit the OOM rule (footprint crossed a harvested
    /// grant): restart it at its nominal allocation. `restored` is the
    /// grant volume re-committed (`nominal − grant before the OOM`).
    Requeue {
        /// The invocation to restart.
        inv: InvocationId,
        /// Volume re-committed by the grant restore.
        restored: ResourceVec,
    },
}

impl Action {
    /// The invocation this action is *about*, for per-invocation trace
    /// projections: the borrower for loans, the source for revocations by
    /// source-side events, the invocation itself otherwise.
    pub fn subject(&self) -> InvocationId {
        match *self {
            Action::Admitted { inv, .. }
            | Action::SetGrant { inv, .. }
            | Action::PreemptiveRelease { inv, .. }
            | Action::Requeue { inv, .. } => inv,
            Action::Lend { borrower, .. } | Action::Return { borrower, .. } => borrower,
            Action::Revoke { source, borrower, reason, .. } => match reason {
                LoanEnd::BorrowerCompleted => borrower,
                LoanEnd::SourceCompleted
                | LoanEnd::Safeguard
                | LoanEnd::SourceOom
                | LoanEnd::Crashed => source,
            },
        }
    }
}

/// Why a driver could not apply a [`Action::Lend`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LendFailure {
    /// The substrate no longer honours the source (stale pool entry): drop
    /// the source's pool entry entirely to resynchronize.
    SourceGone,
    /// The freed capacity was re-consumed (e.g. by admissions) and the loan
    /// cannot be backed right now: return the volume to the pool.
    NoCapacity,
}

/// Monotonic counters over the loans the core has unwound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControlCounters {
    /// Loans cut short because their source completed (the timeliness tax).
    pub loans_expired: u64,
    /// Loan volumes that returned to the pool (re-harvesting, §5.1).
    pub loans_reharvested: u64,
    /// Loans destroyed by crashes/aborts (nothing returned).
    pub loans_crashed: u64,
    /// Node-crash orphan sweeps performed on harvest pools.
    pub crash_sweeps: u64,
}

/// Per-invocation ledger entry: what the control plane believes the
/// substrate currently holds for this invocation.
#[derive(Clone, Debug)]
struct Entry {
    id: InvocationId,
    func: usize,
    nominal: ResourceVec,
    own_grant: ResourceVec,
    pred: Option<Prediction>,
    /// Incoming loans in creation order (oldest first): `(source, volume)`.
    borrowed: Vec<(InvocationId, ResourceVec)>,
    /// Total volume currently on loan to others.
    lent_out: ResourceVec,
}

impl Entry {
    fn effective(&self) -> ResourceVec {
        self.borrowed.iter().fold(self.own_grant, |acc, (_, v)| acc + *v)
    }

    fn charge(&self) -> ResourceVec {
        self.own_grant + self.lent_out
    }
}

/// Where a ledgered invocation is: `(node index, position in that node's
/// ledger)`. An event resolves it once; only admission and retirement move
/// positions, and both do so after their last use of one.
type Slot = (usize, usize);

/// Position of `inv` in one node's id-ordered ledger.
fn pos_in(ledger: &[Entry], inv: InvocationId) -> Option<usize> {
    ledger.binary_search_by_key(&inv, |e| e.id).ok()
}

/// The shared, clock-free harvest control plane (see the module docs).
pub struct ControlPlane {
    cfg: ControlConfig,
    pools: Vec<HarvestResourcePool>,
    safeguard: Safeguard,
    /// One ledger per node, indexed like `pools`, each in ascending id.
    ledgers: Vec<Vec<Entry>>,
    /// `(id, node)` of every ledgered invocation, sorted by id.
    index: Vec<(InvocationId, NodeId)>,
    counters: ControlCounters,
    record_trace: bool,
    trace: Vec<Action>,
}

impl ControlPlane {
    /// A control plane for `n_nodes` nodes and `n_funcs` deployed functions.
    pub fn new(cfg: ControlConfig, n_funcs: usize, n_nodes: usize) -> Self {
        let safeguard = Safeguard::new(n_funcs, cfg.safeguard_threshold);
        ControlPlane {
            cfg,
            pools: (0..n_nodes).map(|_| HarvestResourcePool::new()).collect(),
            safeguard,
            ledgers: vec![Vec::new(); n_nodes],
            index: Vec::new(),
            counters: ControlCounters::default(),
            record_trace: false,
            trace: Vec::new(),
        }
    }

    /// Record every emitted action in an internal trace (off by default —
    /// long experiment runs would accumulate unbounded history).
    pub fn set_record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Close an event: trace what it emitted, then audit the ledger.
    fn finish(&mut self, event: &str, out: Vec<Action>) -> Vec<Action> {
        if self.record_trace {
            self.trace.extend_from_slice(&out);
        }
        crate::audit::post_event(self, event);
        out
    }

    /// Where `inv` is in the index (`Ok`) or would be inserted (`Err`).
    fn index_pos(&self, inv: InvocationId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&inv, |&(id, _)| id)
    }

    fn locate(&self, inv: InvocationId) -> Option<Slot> {
        let n = self.index.get(self.index_pos(inv).ok()?)?.1.idx();
        Some((n, pos_in(self.ledgers.get(n)?, inv)?))
    }

    fn entry(&self, (n, p): Slot) -> Option<&Entry> {
        self.ledgers.get(n)?.get(p)
    }

    fn entry_mut(&mut self, (n, p): Slot) -> Option<&mut Entry> {
        self.ledgers.get_mut(n)?.get_mut(p)
    }

    /// `id`'s entry in node `n`'s ledger — where every loan partner of an
    /// invocation on `n` is.
    fn peer_mut(&mut self, n: usize, id: InvocationId) -> Option<&mut Entry> {
        let ledger = self.ledgers.get_mut(n)?;
        let p = pos_in(ledger, id)?;
        ledger.get_mut(p)
    }

    /// Borrow up to `want` from the pool of `borrower`'s node, recording
    /// loans optimistically (drivers report refusals via
    /// [`Self::lend_failed`]).
    fn acquire(
        &mut self,
        at: Slot,
        borrower: InvocationId,
        want: ResourceVec,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let order = self.cfg.pool_order;
        let Some(pool) = self.pools.get_mut(at.0) else { return };
        let Some(ledger) = self.ledgers.get_mut(at.0) else { return };
        for (source, vol) in pool.get_with(want, now, order) {
            // A substrate never honours a self-loan or an unledgered source;
            // resynchronize by dropping the stale entry (mirrors the
            // historical sim-platform behaviour).
            let Some(src) = pos_in(ledger, source).filter(|_| source != borrower) else {
                pool.remove(source, now);
                continue;
            };
            let Some(be) = ledger.get_mut(at.1) else {
                pool.give_back(source, vol, now);
                continue;
            };
            be.borrowed.push((source, vol));
            if let Some(se) = ledger.get_mut(src) {
                se.lent_out += vol;
            }
            out.push(Action::Lend { source, borrower, vol });
        }
    }

    /// Remove every loan whose source is `source` from the ledgers of its
    /// borrowers — all on node `n`, so one walk of that node's ledger meets
    /// them in ascending borrower id — zero the source's `lent_out`, and
    /// return the removed records (one per loan).
    fn collect_outgoing(
        &mut self,
        (n, p): Slot,
        source: InvocationId,
    ) -> Vec<(InvocationId, ResourceVec)> {
        let mut out = Vec::new();
        let Some(ledger) = self.ledgers.get_mut(n) else { return out };
        for e in ledger.iter_mut() {
            let id = e.id;
            e.borrowed.retain(|&(s, v)| {
                if s == source {
                    out.push((id, v));
                }
                s != source
            });
        }
        if let Some(se) = ledger.get_mut(p) {
            se.lent_out = ResourceVec::ZERO;
        }
        out
    }

    /// Revoke what `inv` lent (ending `as_source`) and, given `as_borrower`,
    /// unwind what it borrowed. The reason keys the counter, and only a
    /// completed borrower's volume goes back to its source's pool entry
    /// (re-harvesting, §5.1) — a crash idles nothing, it loses it.
    fn end_loans(
        &mut self,
        at: Slot,
        inv: InvocationId,
        as_source: LoanEnd,
        as_borrower: Option<LoanEnd>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        for (borrower, vol) in self.collect_outgoing(at, inv) {
            self.count_loan_end(as_source);
            out.push(Action::Revoke { source: inv, borrower, vol, reason: as_source });
        }
        let Some(reason) = as_borrower else { return };
        let borrowed = self.entry_mut(at).map(|e| std::mem::take(&mut e.borrowed));
        for (source, vol) in borrowed.unwrap_or_default() {
            self.count_loan_end(reason);
            if let Some(se) = self.peer_mut(at.0, source) {
                se.lent_out = se.lent_out.saturating_sub(&vol);
                if let (LoanEnd::BorrowerCompleted, Some(p)) = (reason, self.pools.get_mut(at.0)) {
                    p.give_back(source, vol, now);
                }
            }
            out.push(Action::Revoke { source, borrower: inv, vol, reason });
        }
    }

    fn count_loan_end(&mut self, reason: LoanEnd) {
        match reason {
            LoanEnd::SourceCompleted => self.counters.loans_expired += 1,
            LoanEnd::BorrowerCompleted => self.counters.loans_reharvested += 1,
            LoanEnd::Crashed => self.counters.loans_crashed += 1,
            LoanEnd::Safeguard | LoanEnd::SourceOom => {}
        }
    }

    /// Admission: harvest if over-provisioned (Step 5 of Fig 3), then
    /// accelerate the shortfall from the pool, best-effort. Admitting an id
    /// that is already ledgered is a driver bug: the first admission stands
    /// and nothing is emitted for the second.
    pub fn on_admit(&mut self, a: Admission, now: SimTime) -> Vec<Action> {
        let out = self.admit_inner(a, now);
        self.finish("on_admit", out)
    }

    fn admit_inner(&mut self, a: Admission, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        let Err(index_at) = self.index_pos(a.inv) else {
            debug_assert!(false, "{} admitted while already ledgered", a.inv);
            return out;
        };
        // A node the control plane was not built with gets its pool and
        // ledger now: volume harvested on it must be lendable on it.
        let n = a.node.idx();
        if n >= self.pools.len() {
            self.pools.resize_with(n + 1, HarvestResourcePool::new);
            self.ledgers.resize_with(n + 1, Vec::new);
        }
        let (Some(pool), Some(ledger)) = (self.pools.get_mut(n), self.ledgers.get_mut(n)) else {
            return out;
        };
        out.push(Action::Admitted { inv: a.inv, node: a.node, nominal: a.nominal });
        let mut entry = Entry {
            id: a.inv,
            func: a.func,
            nominal: a.nominal,
            own_grant: a.nominal,
            pred: a.pred,
            borrowed: Vec::new(),
            lent_out: ResourceVec::ZERO,
        };
        // First-seen (no prediction): serve with user resources while
        // profiling (§4.1). Otherwise harvest: keep the predicted demand of
        // each dimension plus the safety headroom (memory stays untouched
        // for blacklisted functions).
        if let Some(pred) = a.pred {
            let h = self.cfg.harvest_headroom;
            let padded = ResourceVec::new(
                sat_u64(pred.cpu_millis as f64 * h),
                sat_u64(pred.mem_mb as f64 * h),
            );
            let mut target = padded.min(&a.nominal);
            if self.safeguard.mem_blacklisted(a.func) {
                target.mem_mb = a.nominal.mem_mb;
            }
            if target.cpu_millis < a.nominal.cpu_millis || target.mem_mb < a.nominal.mem_mb {
                let grant = clamp_grant(target, a.nominal, a.mem_floor_mb);
                let freed = a.nominal.saturating_sub(&grant);
                entry.own_grant = grant;
                out.push(Action::SetGrant { inv: a.inv, grant, freed });
                if !freed.is_zero() {
                    pool.put(a.inv, freed, now + pred.duration, now);
                }
            }
        }
        let p = ledger.partition_point(|e| e.id < a.inv);
        ledger.insert(p, entry);
        self.index.insert(index_at, (a.inv, a.node));

        // Accelerate: borrow the shortfall from the pool.
        let extra = a.pred.map_or(ResourceVec::ZERO, |pred| pred.peak().saturating_sub(&a.nominal));
        if !extra.is_zero() {
            self.acquire((n, p), a.inv, extra, now, &mut out);
        }
        out
    }

    /// A monitor visit of `inv`, running on `node`: safeguard check,
    /// usage-guided loan trimming, continuous acceleration. The caller names
    /// the node (a substrate always knows where a running invocation is), so
    /// the visit reads that node's ledger alone. `sample` is called at most
    /// once, and only when a decision reads the usage: a visit that cannot
    /// act returns no actions and leaves every ledger, pool and counter as
    /// it was, without sampling. Visiting an invocation on a node that does
    /// not hold it is a substrate bug (a debug assertion; a no-op in release).
    pub fn on_observe_at(
        &mut self,
        node: NodeId,
        inv: InvocationId,
        now: SimTime,
        sample: impl FnOnce() -> Observation,
    ) -> Vec<Action> {
        let out = self.observe_inner(node, inv, now, LazyCell::new(sample));
        self.finish("on_observe", out)
    }

    /// [`Self::on_observe_at`] with the node looked up in the index and the
    /// observation taken up front, for callers that hold neither. An
    /// untracked `inv` is visited on node 0, where it is not found either.
    pub fn on_observe(&mut self, inv: InvocationId, obs: Observation, now: SimTime) -> Vec<Action> {
        let at = self.index_pos(inv).ok().and_then(|i| self.index.get(i));
        self.on_observe_at(at.map_or(NodeId(0), |&(_, n)| n), inv, now, || obs)
    }

    /// When a monitor should next visit `inv` on `node`, after a visit that
    /// emitted nothing: the earliest [`Wake`] of the terms below, and
    /// [`Wake::NEVER`] outside all of them, where [`Self::on_observe_at`]
    /// returns before it reads the usage sample or the pool. Until the
    /// condition holds, a visit that sees the same busy CPU, no throttling
    /// and a lower footprint emits nothing and changes nothing, as long as
    /// no call names `inv` and nothing changes on `node`.
    ///
    /// * Harvested under the safeguard: the footprint of the trip line
    ///   ([`trip_footprint`]). Throttling moves only with the allocation.
    /// * Borrows CPU (trimming): a change of the node, which is what moves
    ///   the busy CPU trimming reads.
    /// * Under continuous acceleration, predicted and short of its peak:
    ///   a change of the node while the node's pool is empty (it gains
    ///   volume only by a harvest or a loan given back there); every tick
    ///   while it is not, since each such visit counts a pool get.
    ///
    /// `NEVER` for an invocation `node` does not hold.
    pub fn watches(&self, node: NodeId, inv: InvocationId) -> Wake {
        let Some(e) = self.ledgers.get(node.idx()).and_then(|l| l.get(pos_in(l, inv)?)) else {
            return Wake::NEVER;
        };
        let mut wake = Wake::NEVER;
        if self.cfg.safeguard && (e.own_grant != e.nominal || !e.lent_out.is_zero()) {
            let line = trip_footprint(e.effective().mem_mb, self.safeguard.threshold);
            wake = wake.or(Wake::footprint(line));
        }
        if e.borrowed.iter().any(|(_, v)| v.cpu_millis > 0) {
            wake = wake.or(Wake::NODE_CHANGE);
        }
        let short = |p: Prediction| !p.peak().saturating_sub(&e.effective()).is_zero();
        if self.cfg.continuous_acceleration && e.pred.is_some_and(short) {
            let dry = self.pools.get(node.idx()).is_none_or(HarvestResourcePool::is_empty);
            wake = wake.or(if dry { Wake::NODE_CHANGE } else { Wake::EVERY_TICK });
        }
        wake
    }

    /// The visit itself. Every early return before the first read of `obs`
    /// is a visit that cannot act; after a visit that emitted nothing,
    /// [`Self::watches`] says until when the next one cannot either.
    fn observe_inner(
        &mut self,
        node: NodeId,
        inv: InvocationId,
        now: SimTime,
        obs: LazyCell<Observation, impl FnOnce() -> Observation>,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let n = node.idx();
        let Some(p) = self.ledgers.get(n).and_then(|l| pos_in(l, inv)) else {
            debug_assert!(
                !self.is_tracked(inv),
                "{inv} visited on {node}, ledgered on another node"
            );
            return out;
        };
        let at = (n, p);
        let Some(e) = self.entry(at) else { return out };
        let (func, nominal, pred) = (e.func, e.nominal, e.pred);

        // Safeguard: invocations that had resources harvested need
        // protection against mispredictions (§5.2).
        let harvested = e.own_grant != nominal || !e.lent_out.is_zero();
        if self.cfg.safeguard
            && harvested
            && self.safeguard.should_trigger(&obs, e.effective().mem_mb)
        {
            self.end_loans(at, inv, LoanEnd::Safeguard, None, now, &mut out);
            let Some(e) = self.entry_mut(at) else { return out };
            let restored = nominal.saturating_sub(&e.own_grant);
            e.own_grant = nominal;
            if let Some(p) = self.pools.get_mut(at.0) {
                p.remove(inv, now);
            }
            self.safeguard.record_trigger(func);
            out.push(Action::PreemptiveRelease { inv, restored });
            return out;
        }

        let Some(pred) = pred else { return out };

        // Usage-guided trimming: return borrowed CPU the invocation cannot
        // use (over-inflated prediction) so other accelerable invocations
        // aren't starved. Memory is never trimmed — footprints grow over the
        // execution, and a trimmed grant could turn into an OOM later.
        let Some(e) = self.entry_mut(at) else { return out };
        let borrowed_cpu: u64 = e.borrowed.iter().map(|(_, v)| v.cpu_millis).sum();
        if borrowed_cpu > 0 {
            let eff_cpu = e.effective().cpu_millis;
            let keep = obs.cpu_busy_millis + obs.cpu_busy_millis / 3;
            let floor = eff_cpu - borrowed_cpu;
            let mut excess = eff_cpu.saturating_sub(keep.max(floor));
            if excess > 0 {
                // Shed newest loans first (LIFO): the oldest grants are the
                // longest-lived, highest-value ones.
                let mut gives: Vec<(InvocationId, u64)> = Vec::new();
                for (src, vol) in e.borrowed.iter_mut().rev() {
                    if excess == 0 {
                        break;
                    }
                    let give = vol.cpu_millis.min(excess);
                    if give == 0 {
                        continue;
                    }
                    vol.cpu_millis -= give;
                    excess -= give;
                    gives.push((*src, give));
                }
                e.borrowed.retain(|(_, v)| !v.is_zero());
                for (src, give) in gives {
                    let vol = ResourceVec::new(give, 0);
                    if let Some(se) = self.peer_mut(at.0, src) {
                        se.lent_out = se.lent_out.saturating_sub(&vol);
                    }
                    if let Some(p) = self.pools.get_mut(at.0) {
                        p.give_back(src, vol, now);
                    }
                    out.push(Action::Return { borrower: inv, source: src, vol });
                }
            }
        }

        // Continuous acceleration: an under-provisioned invocation whose
        // loans expired (their sources completed — the timeliness law), or
        // that started when the pool was dry, re-acquires its shortfall as
        // new idle resources are harvested (Fig 4).
        if !self.cfg.continuous_acceleration {
            return out;
        }
        let Some(e) = self.entry(at) else { return out };
        let eff = e.effective();
        let shortfall = pred.peak().saturating_sub(&eff);
        // An empty pool lends nothing (and counts no get).
        if shortfall.is_zero() || self.pools.get(at.0).is_none_or(HarvestResourcePool::is_empty) {
            return out;
        }
        // Don't re-borrow CPU the usage signal says it cannot use.
        let cpu_cap =
            (obs.cpu_busy_millis + obs.cpu_busy_millis / 3).saturating_sub(eff.cpu_millis);
        let want = ResourceVec::new(shortfall.cpu_millis.min(cpu_cap), shortfall.mem_mb);
        if want.is_zero() {
            return out;
        }
        self.acquire(at, inv, want, now, &mut out);
        out
    }

    /// Completion: remove the pool entry, revoke everything the invocation
    /// lent (the timeliness law) and return everything it borrowed to its
    /// sources' pool entries (re-harvesting, §5.1).
    pub fn on_complete(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.retire(inv, LoanEnd::SourceCompleted, LoanEnd::BorrowerCompleted, now);
        self.finish("on_complete", out)
    }

    /// Drop `inv`'s pool entry, end its loans in both directions and forget it.
    fn retire(
        &mut self,
        inv: InvocationId,
        as_source: LoanEnd,
        as_borrower: LoanEnd,
        now: SimTime,
    ) -> Vec<Action> {
        let mut out = Vec::new();
        let (Ok(index_at), Some(at)) = (self.index_pos(inv), self.locate(inv)) else { return out };
        if let Some(p) = self.pools.get_mut(at.0) {
            p.remove(inv, now);
        }
        self.end_loans(at, inv, as_source, Some(as_borrower), now, &mut out);
        if let Some(ledger) = self.ledgers.get_mut(at.0) {
            ledger.remove(at.1);
        }
        self.index.remove(index_at);
        out
    }

    /// The OOM rule fired for a harvested invocation: unwind all its loans,
    /// restore its grant and ask the driver to restart it at nominal.
    pub fn on_oom(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.oom_inner(inv, now);
        self.finish("on_oom", out)
    }

    fn oom_inner(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(at) = self.locate(inv) else { return out };
        let as_borrower = Some(LoanEnd::BorrowerCompleted);
        self.end_loans(at, inv, LoanEnd::SourceOom, as_borrower, now, &mut out);
        let Some(e) = self.entry_mut(at) else { return out };
        let func = e.func;
        let restored = e.nominal.saturating_sub(&e.own_grant);
        e.own_grant = e.nominal;
        if let Some(p) = self.pools.get_mut(at.0) {
            p.remove(inv, now);
        }
        self.safeguard.record_oom(func);
        out.push(Action::Requeue { inv, restored });
        out
    }

    /// A crash/abort killed this attempt: both loan directions die with it
    /// (nothing returns to the pool — the volumes were lost, not idled).
    pub fn on_abort(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.retire(inv, LoanEnd::Crashed, LoanEnd::Crashed, now);
        self.finish("on_abort", out)
    }

    /// A whole node crashed: sweep its pool's orphan entries and drop any
    /// residual ledger entries (residents are normally aborted one by one
    /// first, so this is a defensive sweep).
    pub fn on_node_crash(&mut self, node: NodeId, now: SimTime) -> Vec<Action> {
        if let Some(pool) = self.pools.get_mut(node.idx()) {
            pool.clear(now);
        }
        self.counters.crash_sweeps += 1;
        if let Some(ledger) = self.ledgers.get_mut(node.idx()) {
            ledger.clear();
        }
        self.index.retain(|&(_, n)| n != node);
        self.finish("on_node_crash", Vec::new())
    }

    /// Driver feedback: a [`Action::Lend`] could not be applied. Unwinds the
    /// optimistic ledger records and resynchronizes the pool.
    pub fn lend_failed(
        &mut self,
        source: InvocationId,
        borrower: InvocationId,
        vol: ResourceVec,
        why: LendFailure,
        now: SimTime,
    ) {
        let (b, s) = (self.locate(borrower), self.locate(source));
        if let Some(be) = b.and_then(|at| self.entry_mut(at)) {
            if let Some(pos) = be.borrowed.iter().rposition(|(s, v)| *s == source && *v == vol) {
                be.borrowed.remove(pos);
            }
        }
        if let Some(se) = s.and_then(|at| self.entry_mut(at)) {
            se.lent_out = se.lent_out.saturating_sub(&vol);
        }
        if let Some(pool) = s.or(b).and_then(|(n, _)| self.pools.get_mut(n)) {
            match why {
                LendFailure::SourceGone => {
                    pool.remove(source, now);
                }
                LendFailure::NoCapacity => pool.give_back(source, vol, now),
            }
        }
        crate::audit::post_event(self, "lend_failed");
    }

    // ---- queries -------------------------------------------------------

    /// What the substrate should currently have committed for `inv`
    /// (own grant + volume lent out). `None` once completed/aborted.
    pub fn charge(&self, inv: InvocationId) -> Option<ResourceVec> {
        self.entry(self.locate(inv)?).map(Entry::charge)
    }

    /// `inv`'s own grant: what it holds once its loans, both ways, end.
    pub fn own_grant(&self, inv: InvocationId) -> Option<ResourceVec> {
        self.entry(self.locate(inv)?).map(|e| e.own_grant)
    }

    /// Everything `inv` currently holds (own grant + loans in).
    pub fn effective_alloc(&self, inv: InvocationId) -> Option<ResourceVec> {
        self.entry(self.locate(inv)?).map(Entry::effective)
    }

    /// Whether the ledger records a live loan from `source` to `borrower`.
    pub fn has_loan(&self, source: InvocationId, borrower: InvocationId) -> bool {
        let e = self.locate(borrower).and_then(|at| self.entry(at));
        e.is_some_and(|e| e.borrowed.iter().any(|(s, _)| *s == source))
    }

    /// Whether `inv` is currently in the ledger.
    pub fn is_tracked(&self, inv: InvocationId) -> bool {
        self.index_pos(inv).is_ok()
    }

    /// Total committed volume (Σ own grant + lent out) on `node`.
    pub fn committed_on(&self, node: NodeId) -> ResourceVec {
        let ledger = self.ledgers.get(node.idx()).map_or(&[][..], Vec::as_slice);
        ledger.iter().fold(ResourceVec::ZERO, |acc, e| acc + e.charge())
    }

    /// The per-node harvest pools.
    pub fn pools(&self) -> &[HarvestResourcePool] {
        &self.pools
    }

    /// One node's harvest pool (`None` for an unknown node id).
    pub fn pool(&self, node: NodeId) -> Option<&HarvestResourcePool> {
        self.pools.get(node.idx())
    }

    /// Overwrite `buf` with a scheduler-facing snapshot of one node's pool
    /// (§6.4 piggyback). An unknown node id yields an empty snapshot.
    pub fn snapshot_into(&self, node: NodeId, now: SimTime, buf: &mut PoolSnapshot) {
        match self.pools.get(node.idx()) {
            Some(p) => p.snapshot_into(now, buf),
            None => buf.clear(),
        }
    }

    /// The safeguard (trigger counts, per-function blacklist state).
    pub fn safeguard(&self) -> &Safeguard {
        &self.safeguard
    }

    /// Loan-lifecycle counters.
    pub fn counters(&self) -> ControlCounters {
        self.counters
    }

    /// The recorded action trace (empty unless
    /// [`Self::set_record_trace`] enabled recording).
    pub fn action_trace(&self) -> &[Action] {
        &self.trace
    }

    /// Number of invocations currently in the ledger.
    pub fn ledger_len(&self) -> usize {
        self.index.len()
    }

    /// Validate the conservation invariants the proptests pin down:
    /// Σ borrowed per source equals that source's `lent_out`, loans stay
    /// intra-node and die with their source, and no charge exceeds nominal —
    /// and that the index names exactly the entries of the id-ordered ledgers.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut ledgered = 0;
        for (n, ledger) in self.ledgers.iter().enumerate() {
            ledgered += ledger.len();
            if !ledger.is_sorted_by(|a, b| a.id < b.id) {
                return Err(format!("node {n}: ledger not in ascending id"));
            }
            // What the node's borrowers hold of each entry, by position.
            let mut held = vec![ResourceVec::ZERO; ledger.len()];
            for e in ledger {
                let id = e.id;
                if self.locate(id).map(|at| at.0) != Some(n) {
                    return Err(format!("{id}: ledgered on node {n}, not indexed there"));
                }
                if !e.charge().fits_within(&e.nominal) {
                    return Err(format!(
                        "{id}: charge {:?} exceeds nominal {:?}",
                        e.charge(),
                        e.nominal
                    ));
                }
                for (s, v) in &e.borrowed {
                    if v.is_zero() {
                        return Err(format!("{id}: zero-volume loan record from {s}"));
                    }
                    let Some(h) = pos_in(ledger, *s).and_then(|p| held.get_mut(p)) else {
                        let why = if self.is_tracked(*s) { "cross-node" } else { "dead" };
                        return Err(format!("{id} borrows from {why} source {s}"));
                    };
                    *h += *v;
                }
            }
            for (e, total) in ledger.iter().zip(held) {
                if total != e.lent_out {
                    return Err(format!(
                        "{}: lent_out {:?} but borrowers hold {:?}",
                        e.id, e.lent_out, total
                    ));
                }
            }
        }
        if ledgered != self.index.len() {
            return Err(format!("{ledgered} entries ledgered, {} indexed", self.index.len()));
        }
        Ok(())
    }

    /// Human-readable ledger dump (watchdog diagnostics).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (n, (ledger, p)) in self.ledgers.iter().zip(&self.pools).enumerate() {
            for e in ledger {
                let _ = writeln!(
                    s,
                    "  {} node#{n} func={} nominal={:?} grant={:?} lent={:?} borrowed={:?}",
                    e.id, e.func, e.nominal, e.own_grant, e.lent_out, e.borrowed
                );
            }
            let _ = writeln!(s, "  pool[{n}]: {} entries, idle {:?}", p.len(), p.total_idle());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::time::SimDuration;

    fn adm(inv: u32, nominal: (u64, u64), pred: Option<(u64, u64, u64)>) -> Admission {
        Admission {
            inv: InvocationId(inv),
            node: NodeId(0),
            func: inv as usize % 4,
            nominal: ResourceVec::new(nominal.0, nominal.1),
            mem_floor_mb: 64,
            pred: pred.map(|(c, m, d)| Prediction {
                cpu_millis: c,
                mem_mb: m,
                duration: SimDuration::from_millis(d),
                path: libra_sim::invocation::PredictionPath::Histogram,
            }),
        }
    }

    fn cp() -> ControlPlane {
        ControlPlane::new(ControlConfig::default(), 4, 1)
    }

    #[test]
    fn harvest_then_lend_then_timeliness_revoke() {
        let mut c = cp();
        let t = SimTime(0);
        // Donor: 4 cores / 2048 MB allocated, predicted to use 1 core / 512.
        let a1 = c.on_admit(adm(1, (4_000, 2_048), Some((1_000, 512, 1_000))), t);
        assert!(matches!(a1[0], Action::Admitted { inv: InvocationId(1), .. }));
        assert!(matches!(a1[1], Action::SetGrant { grant, .. }
            if grant == ResourceVec::new(1_000, 512)));
        // Borrower: wants 3 cores on a 1-core allocation.
        let a2 = c.on_admit(adm(2, (1_000, 512), Some((3_000, 512, 500))), t);
        assert!(a2.iter().any(|a| matches!(a, Action::Lend { source, vol, .. }
            if *source == InvocationId(1) && vol.cpu_millis == 2_000)));
        c.check_conservation().unwrap();
        // Donor completes first: the loan dies with it.
        let a3 = c.on_complete(InvocationId(1), SimTime(1_000));
        assert!(a3
            .iter()
            .any(|a| matches!(a, Action::Revoke { reason: LoanEnd::SourceCompleted, .. })));
        assert_eq!(c.counters().loans_expired, 1);
        c.check_conservation().unwrap();
        assert_eq!(c.effective_alloc(InvocationId(2)), Some(ResourceVec::new(1_000, 512)));
    }

    #[test]
    fn safeguard_triggers_preemptive_release() {
        let mut c = cp();
        let t = SimTime(0);
        c.on_admit(adm(1, (4_000, 2_048), Some((1_000, 512, 1_000))), t);
        // Footprint crosses 80 % of the harvested 512 MB grant.
        let acts = c.on_observe_at(NodeId(0), InvocationId(1), SimTime(100), || Observation {
            cpu_busy_millis: 900,
            mem_used_mb: 450,
            cpu_throttled: false,
        });
        assert!(acts.iter().any(|a| matches!(a, Action::PreemptiveRelease { restored, .. }
            if *restored == ResourceVec::new(3_000, 1_536))));
        assert_eq!(c.charge(InvocationId(1)), Some(ResourceVec::new(4_000, 2_048)));
        assert!(c.pool(NodeId(0)).unwrap().is_empty(), "pool entry removed on release");
        c.check_conservation().unwrap();
    }

    #[test]
    fn a_quiet_visit_never_samples() {
        // Unharvested, borrowing nothing, an empty pool: nothing to decide.
        let mut c = cp();
        c.on_admit(adm(1, (1_000, 512), Some((2_000, 512, 1_000))), SimTime(0));
        let acts = c.on_observe_at(NodeId(0), InvocationId(1), SimTime(100), || {
            panic!("a visit that cannot act sampled usage")
        });
        assert!(acts.is_empty());
    }

    #[test]
    fn the_index_addressed_visit_decides_like_the_node_addressed_one() {
        let obs = Observation { cpu_busy_millis: 900, mem_used_mb: 450, cpu_throttled: false };
        let mut by_node = ControlPlane::new(ControlConfig::default(), 4, 2);
        let mut by_index = ControlPlane::new(ControlConfig::default(), 4, 2);
        for c in [&mut by_node, &mut by_index] {
            c.on_admit(Admission { node: NodeId(1), ..donor(1, 4_000) }, SimTime(0));
        }
        let want = by_node.on_observe_at(NodeId(1), InvocationId(1), SimTime(100), || obs);
        assert!(matches!(want[..], [.., Action::PreemptiveRelease { .. }]));
        assert_eq!(by_index.on_observe(InvocationId(1), obs, SimTime(100)), want);
        assert_eq!(by_index.on_observe(InvocationId(9), obs, SimTime(100)), [], "untracked");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ledgered on another node")]
    fn visiting_an_invocation_on_the_wrong_node_is_a_substrate_bug() {
        let mut c = ControlPlane::new(ControlConfig::default(), 4, 2);
        c.on_admit(donor(1, 4_000), SimTime(0));
        c.on_observe_at(NodeId(1), InvocationId(1), SimTime(100), || Observation {
            cpu_busy_millis: 900,
            mem_used_mb: 450,
            cpu_throttled: false,
        });
    }

    #[test]
    fn oom_restores_grant_and_requeues() {
        let mut c = cp();
        let t = SimTime(0);
        c.on_admit(adm(1, (2_000, 2_048), Some((2_000, 256, 1_000))), t);
        let acts = c.on_oom(InvocationId(1), SimTime(200));
        assert!(acts.iter().any(|a| matches!(a, Action::Requeue { restored, .. }
            if restored.mem_mb == 2_048 - 256)));
        assert_eq!(c.charge(InvocationId(1)), Some(ResourceVec::new(2_000, 2_048)));
        assert!(c.pool(NodeId(0)).unwrap().is_empty());
        c.check_conservation().unwrap();
    }

    #[test]
    fn lend_failed_unwinds_the_ledger() {
        let mut c = cp();
        let t = SimTime(0);
        c.on_admit(adm(1, (4_000, 2_048), Some((1_000, 512, 1_000))), t);
        let acts = c.on_admit(adm(2, (1_000, 512), Some((3_000, 512, 500))), t);
        let Some(Action::Lend { source, borrower, vol }) =
            acts.iter().find(|a| matches!(a, Action::Lend { .. })).copied()
        else {
            panic!("expected a lend");
        };
        c.lend_failed(source, borrower, vol, LendFailure::NoCapacity, t);
        c.check_conservation().unwrap();
        assert_eq!(c.effective_alloc(borrower), Some(ResourceVec::new(1_000, 512)));
        assert_eq!(c.charge(source), Some(ResourceVec::new(1_000, 512)));
    }

    /// A donor allocated `cpu` millicores and predicted to use one core of
    /// them, and a one-core borrower predicted to want `want_cpu`.
    fn donor(inv: u32, cpu: u64) -> Admission {
        adm(inv, (cpu, 2_048), Some((1_000, 512, 1_000)))
    }

    fn borrower(inv: u32, want_cpu: u64) -> Admission {
        adm(inv, (1_000, 512), Some((want_cpu, 512, 500)))
    }

    fn ids(c: &ControlPlane, node: usize) -> Vec<u32> {
        c.ledgers[node].iter().map(|e| e.id.0).collect()
    }

    #[test]
    fn ledger_and_index_stay_id_ordered_whatever_the_admission_order() {
        let mut c = cp();
        for inv in [7, 3, 9, 1] {
            c.on_admit(adm(inv, (1_000, 512), None), SimTime(0));
        }
        assert_eq!(ids(&c, 0), [1, 3, 7, 9]);
        assert_eq!(c.index.iter().map(|&(id, _)| id.0).collect::<Vec<_>>(), [1, 3, 7, 9]);
        c.on_complete(InvocationId(3), SimTime(1));
        assert_eq!((ids(&c, 0), c.ledger_len()), (vec![1, 7, 9], 3));
        c.check_conservation().unwrap();
    }

    #[test]
    fn an_id_aborted_on_one_node_is_admitted_afresh_on_another() {
        // The crash-requeue path: same id, different node.
        let mut c = ControlPlane::new(ControlConfig::default(), 4, 2);
        c.on_admit(donor(5, 4_000), SimTime(0));
        c.on_abort(InvocationId(5), SimTime(10));
        assert!(!c.is_tracked(InvocationId(5)) && c.pool(NodeId(0)).unwrap().is_empty());
        let acts = c.on_admit(Admission { node: NodeId(1), ..donor(5, 4_000) }, SimTime(20));
        assert!(matches!(acts[0], Action::Admitted { node: NodeId(1), .. }));
        assert_eq!(c.index, [(InvocationId(5), NodeId(1))]);
        assert_eq!(c.committed_on(NodeId(0)), ResourceVec::ZERO);
        assert_eq!(c.committed_on(NodeId(1)), ResourceVec::new(1_000, 512));
        assert!(c.pool(NodeId(1)).unwrap().contains(InvocationId(5)));
    }

    #[test]
    fn the_index_holds_what_is_alive_however_far_apart_the_ids_are() {
        // One straggler outlives 100,000 later ids (and the largest id there
        // is): a table dense over the id range would span them all.
        let mut c = cp();
        c.on_admit(adm(0, (1_000, 512), None), SimTime(0));
        c.on_admit(adm(u32::MAX, (1_000, 512), None), SimTime(0));
        for inv in 1..=100_000u32 {
            c.on_admit(adm(inv, (1_000, 512), None), SimTime(inv as u64));
            if inv > 4 {
                c.on_complete(InvocationId(inv - 4), SimTime(inv as u64));
            }
            assert!(c.index.len() <= 8 && c.index.capacity() <= 8, "at {inv}");
        }
        assert!(c.is_tracked(InvocationId(0)) && c.is_tracked(InvocationId(u32::MAX)));
    }

    #[test]
    fn a_source_revokes_its_borrowers_in_ascending_id_not_admission_order() {
        let mut c = cp();
        c.on_admit(donor(5, 8_000), SimTime(0));
        for inv in [9, 2, 6] {
            let acts = c.on_admit(borrower(inv, 3_000), SimTime(0));
            assert!(acts.iter().any(|a| matches!(a, Action::Lend { .. })), "{inv} borrows");
        }
        let revoked: Vec<u32> = c
            .on_complete(InvocationId(5), SimTime(100))
            .iter()
            .filter_map(|a| match a {
                Action::Revoke { borrower, .. } => Some(borrower.0),
                _ => None,
            })
            .collect();
        assert_eq!(revoked, [2, 6, 9]);
    }

    #[test]
    fn collect_outgoing_filters_the_borrowers_loans_in_place() {
        let mut c = cp();
        c.on_admit(donor(1, 2_000), SimTime(0));
        c.on_admit(donor(2, 2_000), SimTime(0));
        c.on_admit(borrower(3, 3_000), SimTime(0));
        let loans = |c: &ControlPlane| c.ledgers[0][2].borrowed.clone();
        assert_eq!(loans(&c).len(), 2, "one loan from each donor");
        let buf = c.ledgers[0][2].borrowed.as_ptr();
        let at = c.locate(InvocationId(1)).unwrap();
        let out = c.collect_outgoing(at, InvocationId(1));
        assert_eq!(out, [(InvocationId(3), ResourceVec::new(1_000, 0))]);
        assert_eq!(loans(&c), [(InvocationId(2), ResourceVec::new(1_000, 0))]);
        assert_eq!(c.ledgers[0][2].borrowed.as_ptr(), buf, "same buffer, not a fresh Vec");
        c.check_conservation().unwrap();
    }

    #[test]
    fn a_node_beyond_the_built_range_gets_a_pool_to_lend_from() {
        // Regression: the grant shrank but the freed volume entered no pool.
        let mut c = cp();
        c.on_admit(Admission { node: NodeId(3), ..donor(1, 4_000) }, SimTime(0));
        assert_eq!(c.pools().len(), 4);
        let acts = c.on_admit(Admission { node: NodeId(3), ..borrower(2, 3_000) }, SimTime(0));
        assert!(acts.iter().any(|a| matches!(a, Action::Lend { source, vol, .. }
            if *source == InvocationId(1) && vol.cpu_millis == 2_000)));
        assert_eq!(c.committed_on(NodeId(3)), ResourceVec::new(4_000, 1_024));
        c.check_conservation().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already ledgered")]
    fn admitting_a_ledgered_id_again_is_a_driver_bug() {
        let mut c = cp();
        c.on_admit(donor(1, 4_000), SimTime(0));
        c.on_admit(donor(1, 4_000), SimTime(1));
    }
}
