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
//!   prediction), [`ControlPlane::on_observe`] (a cgroups-style
//!   [`Observation`]), [`ControlPlane::on_complete`], [`ControlPlane::on_oom`],
//!   [`ControlPlane::on_abort`] and [`ControlPlane::on_node_crash`]. Every
//!   event carries an explicit `now` — the core never reads a clock, so the
//!   discrete-event simulator and the threaded live runtime can both drive it.
//! * **Outputs** are explicit [`Action`]s (`SetGrant`, `Lend`, `Return`,
//!   `Revoke`, `PreemptiveRelease`, `Requeue`). A driver translates them into
//!   its substrate's mutations: `LibraPlatform` issues `SimCtx` calls,
//!   `libra-live::cluster` replays them under real `parking_lot` locks.
//! * **State** is the per-node harvest pools, the safeguard, and a loan
//!   ledger mirroring every grant and loan the drivers applied. The ledger is
//!   a `BTreeMap`, so identical event sequences yield identical action
//!   traces — the property the differential fidelity test and the
//!   conservation proptests pin down.
//!
//! The only feedback channel a driver needs is [`ControlPlane::lend_failed`]:
//! substrates may refuse a `Lend` (the sim engine when a source is no longer
//! honoured, the live scheduler when admissions consumed the idle volume),
//! and the core then unwinds its optimistic ledger update.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::pool::{GetOrder, HarvestResourcePool, PoolSnapshot};
use crate::safeguard::Safeguard;
use libra_sim::engine::UsageSample;
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{clamp_grant, Prediction};
use libra_sim::platform::LoanEnd;
use libra_sim::resources::{sat_u64, ResourceVec};
use libra_sim::time::SimTime;
use std::collections::BTreeMap;

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

/// A cgroups-style usage observation for one running invocation — the
/// substrate-independent subset of [`UsageSample`] (the core derives
/// `effective`/`nominal` from its own ledger).
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
    node: NodeId,
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

/// The shared, clock-free harvest control plane (see the module docs).
pub struct ControlPlane {
    cfg: ControlConfig,
    pools: Vec<HarvestResourcePool>,
    safeguard: Safeguard,
    ledger: BTreeMap<InvocationId, Entry>,
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
            ledger: BTreeMap::new(),
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

    fn emit(&mut self, out: &mut Vec<Action>, a: Action) {
        if self.record_trace {
            self.trace.push(a);
        }
        out.push(a);
    }

    /// Borrow up to `want` from `borrower`'s node pool, recording loans
    /// optimistically (drivers report refusals via [`Self::lend_failed`]).
    fn acquire(
        &mut self,
        borrower: InvocationId,
        node: NodeId,
        want: ResourceVec,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let order = self.cfg.pool_order;
        let Some(pool) = self.pools.get_mut(node.idx()) else { return };
        let grants = pool.get_with(want, now, order);
        for (source, vol) in grants {
            // A substrate never honours a self-loan or an unledgered source;
            // resynchronize by dropping the stale entry (mirrors the
            // historical sim-platform behaviour).
            if source == borrower || !self.ledger.contains_key(&source) {
                if let Some(p) = self.pools.get_mut(node.idx()) {
                    p.remove(source, now);
                }
                continue;
            }
            let Some(be) = self.ledger.get_mut(&borrower) else {
                // Unledgered borrower (already completed/aborted): the grant
                // goes straight back to its source's pool entry.
                if let Some(p) = self.pools.get_mut(node.idx()) {
                    p.give_back(source, vol, now);
                }
                continue;
            };
            be.borrowed.push((source, vol));
            if let Some(se) = self.ledger.get_mut(&source) {
                se.lent_out += vol;
            }
            self.emit(out, Action::Lend { source, borrower, vol });
        }
    }

    /// Remove every loan whose source is `source` from the borrowers'
    /// ledgers, zero the source's `lent_out`, and return the removed records
    /// (one per loan, in deterministic borrower-id order).
    fn collect_outgoing(&mut self, source: InvocationId) -> Vec<(InvocationId, ResourceVec)> {
        let mut out = Vec::new();
        for (id, e) in self.ledger.iter_mut() {
            if e.borrowed.iter().any(|(s, _)| *s == source) {
                let mut kept = Vec::with_capacity(e.borrowed.len());
                for (s, v) in e.borrowed.drain(..) {
                    if s == source {
                        out.push((*id, v));
                    } else {
                        kept.push((s, v));
                    }
                }
                e.borrowed = kept;
            }
        }
        if let Some(se) = self.ledger.get_mut(&source) {
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
        inv: InvocationId,
        as_source: LoanEnd,
        as_borrower: Option<LoanEnd>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        for (borrower, vol) in self.collect_outgoing(inv) {
            self.count_loan_end(as_source);
            self.emit(out, Action::Revoke { source: inv, borrower, vol, reason: as_source });
        }
        let Some(reason) = as_borrower else { return };
        let borrowed = self.ledger.get_mut(&inv).map(|e| std::mem::take(&mut e.borrowed));
        for (source, vol) in borrowed.unwrap_or_default() {
            self.count_loan_end(reason);
            if let Some(se) = self.ledger.get_mut(&source) {
                se.lent_out = se.lent_out.saturating_sub(&vol);
                let pool = self.pools.get_mut(se.node.idx());
                if let (LoanEnd::BorrowerCompleted, Some(p)) = (reason, pool) {
                    p.give_back(source, vol, now);
                }
            }
            self.emit(out, Action::Revoke { source, borrower: inv, vol, reason });
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
    /// accelerate the shortfall from the pool, best-effort.
    pub fn on_admit(&mut self, a: Admission, now: SimTime) -> Vec<Action> {
        let out = self.admit_inner(a, now);
        crate::audit::post_event(self, "on_admit");
        out
    }

    fn admit_inner(&mut self, a: Admission, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.emit(&mut out, Action::Admitted { inv: a.inv, node: a.node, nominal: a.nominal });
        let mut entry = Entry {
            node: a.node,
            func: a.func,
            nominal: a.nominal,
            own_grant: a.nominal,
            pred: a.pred,
            borrowed: Vec::new(),
            lent_out: ResourceVec::ZERO,
        };
        let Some(pred) = a.pred else {
            // First-seen: serve with user resources while profiling (§4.1).
            self.ledger.insert(a.inv, entry);
            return out;
        };

        // Harvest: keep the predicted demand of each dimension plus the
        // safety headroom (memory stays untouched for blacklisted functions).
        let h = self.cfg.harvest_headroom;
        let padded =
            ResourceVec::new(sat_u64(pred.cpu_millis as f64 * h), sat_u64(pred.mem_mb as f64 * h));
        let mut target = padded.min(&a.nominal);
        if self.safeguard.mem_blacklisted(a.func) {
            target.mem_mb = a.nominal.mem_mb;
        }
        if target.cpu_millis < a.nominal.cpu_millis || target.mem_mb < a.nominal.mem_mb {
            let grant = clamp_grant(target, a.nominal, a.mem_floor_mb);
            let freed = a.nominal.saturating_sub(&grant);
            entry.own_grant = grant;
            self.emit(&mut out, Action::SetGrant { inv: a.inv, grant, freed });
            if !freed.is_zero() {
                let priority = now + pred.duration;
                if let Some(p) = self.pools.get_mut(a.node.idx()) {
                    p.put(a.inv, freed, priority, now);
                }
            }
        }
        self.ledger.insert(a.inv, entry);

        // Accelerate: borrow the shortfall from the pool.
        let extra = pred.peak().saturating_sub(&a.nominal);
        if !extra.is_zero() {
            self.acquire(a.inv, a.node, extra, now, &mut out);
        }
        out
    }

    /// A monitor observation for a running invocation: safeguard check,
    /// usage-guided loan trimming, continuous acceleration.
    pub fn on_observe(&mut self, inv: InvocationId, obs: Observation, now: SimTime) -> Vec<Action> {
        let out = self.observe_inner(inv, obs, now);
        crate::audit::post_event(self, "on_observe");
        out
    }

    fn observe_inner(&mut self, inv: InvocationId, obs: Observation, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(e) = self.ledger.get(&inv) else { return out };
        let (node, func, nominal, pred) = (e.node, e.func, e.nominal, e.pred);

        // Safeguard: invocations that had resources harvested need
        // protection against mispredictions (§5.2).
        if self.cfg.safeguard {
            let harvested = e.own_grant != nominal || !e.lent_out.is_zero();
            if harvested {
                let usage = UsageSample {
                    cpu_busy_millis: obs.cpu_busy_millis,
                    mem_used_mb: obs.mem_used_mb,
                    cpu_throttled: obs.cpu_throttled,
                    effective: e.effective(),
                    nominal,
                };
                if self.safeguard.should_trigger(&usage) {
                    self.end_loans(inv, LoanEnd::Safeguard, None, now, &mut out);
                    let Some(e) = self.ledger.get_mut(&inv) else { return out };
                    let restored = nominal.saturating_sub(&e.own_grant);
                    e.own_grant = nominal;
                    if let Some(p) = self.pools.get_mut(node.idx()) {
                        p.remove(inv, now);
                    }
                    self.safeguard.record_trigger(func);
                    self.emit(&mut out, Action::PreemptiveRelease { inv, restored });
                    return out;
                }
            }
        }

        let Some(pred) = pred else { return out };

        // Usage-guided trimming: return borrowed CPU the invocation cannot
        // use (over-inflated prediction) so other accelerable invocations
        // aren't starved. Memory is never trimmed — footprints grow over the
        // execution, and a trimmed grant could turn into an OOM later.
        let Some(e) = self.ledger.get_mut(&inv) else { return out };
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
                    if let Some(se) = self.ledger.get_mut(&src) {
                        se.lent_out = se.lent_out.saturating_sub(&vol);
                    }
                    if let Some(p) = self.pools.get_mut(node.idx()) {
                        p.give_back(src, vol, now);
                    }
                    self.emit(&mut out, Action::Return { borrower: inv, source: src, vol });
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
        let Some(e) = self.ledger.get(&inv) else { return out };
        let eff = e.effective();
        let shortfall = pred.peak().saturating_sub(&eff);
        if shortfall.is_zero() {
            return out;
        }
        // Don't re-borrow CPU the usage signal says it cannot use.
        let cpu_cap =
            (obs.cpu_busy_millis + obs.cpu_busy_millis / 3).saturating_sub(eff.cpu_millis);
        let want = ResourceVec::new(shortfall.cpu_millis.min(cpu_cap), shortfall.mem_mb);
        if want.is_zero() {
            return out;
        }
        self.acquire(inv, node, want, now, &mut out);
        out
    }

    /// Completion: remove the pool entry, revoke everything the invocation
    /// lent (the timeliness law) and return everything it borrowed to its
    /// sources' pool entries (re-harvesting, §5.1).
    pub fn on_complete(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.retire(inv, LoanEnd::SourceCompleted, LoanEnd::BorrowerCompleted, now);
        crate::audit::post_event(self, "on_complete");
        out
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
        let Some(e) = self.ledger.get(&inv) else { return out };
        if let Some(p) = self.pools.get_mut(e.node.idx()) {
            p.remove(inv, now);
        }
        self.end_loans(inv, as_source, Some(as_borrower), now, &mut out);
        self.ledger.remove(&inv);
        out
    }

    /// The OOM rule fired for a harvested invocation: unwind all its loans,
    /// restore its grant and ask the driver to restart it at nominal.
    pub fn on_oom(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.oom_inner(inv, now);
        crate::audit::post_event(self, "on_oom");
        out
    }

    fn oom_inner(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        let Some(e) = self.ledger.get(&inv) else { return out };
        let (node, func) = (e.node, e.func);
        self.end_loans(inv, LoanEnd::SourceOom, Some(LoanEnd::BorrowerCompleted), now, &mut out);
        let Some(e) = self.ledger.get_mut(&inv) else { return out };
        let restored = e.nominal.saturating_sub(&e.own_grant);
        e.own_grant = e.nominal;
        if let Some(p) = self.pools.get_mut(node.idx()) {
            p.remove(inv, now);
        }
        self.safeguard.record_oom(func);
        self.emit(&mut out, Action::Requeue { inv, restored });
        out
    }

    /// A crash/abort killed this attempt: both loan directions die with it
    /// (nothing returns to the pool — the volumes were lost, not idled).
    pub fn on_abort(&mut self, inv: InvocationId, now: SimTime) -> Vec<Action> {
        let out = self.retire(inv, LoanEnd::Crashed, LoanEnd::Crashed, now);
        crate::audit::post_event(self, "on_abort");
        out
    }

    /// A whole node crashed: sweep its pool's orphan entries and drop any
    /// residual ledger entries (residents are normally aborted one by one
    /// first, so this is a defensive sweep).
    pub fn on_node_crash(&mut self, node: NodeId, now: SimTime) -> Vec<Action> {
        if let Some(pool) = self.pools.get_mut(node.idx()) {
            for id in pool.sources() {
                pool.remove(id, now);
            }
        }
        self.counters.crash_sweeps += 1;
        self.ledger.retain(|_, e| e.node != node);
        crate::audit::post_event(self, "on_node_crash");
        Vec::new()
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
        self.lend_failed_inner(source, borrower, vol, why, now);
        crate::audit::post_event(self, "lend_failed");
    }

    fn lend_failed_inner(
        &mut self,
        source: InvocationId,
        borrower: InvocationId,
        vol: ResourceVec,
        why: LendFailure,
        now: SimTime,
    ) {
        let mut node = None;
        if let Some(be) = self.ledger.get_mut(&borrower) {
            node = Some(be.node);
            if let Some(pos) = be.borrowed.iter().rposition(|(s, v)| *s == source && *v == vol) {
                be.borrowed.remove(pos);
            }
        }
        if let Some(se) = self.ledger.get_mut(&source) {
            se.lent_out = se.lent_out.saturating_sub(&vol);
            node = Some(se.node);
        }
        let Some(node) = node else { return };
        let Some(pool) = self.pools.get_mut(node.idx()) else { return };
        match why {
            LendFailure::SourceGone => {
                pool.remove(source, now);
            }
            LendFailure::NoCapacity => {
                pool.give_back(source, vol, now);
            }
        }
    }

    // ---- queries -------------------------------------------------------

    /// What the substrate should currently have committed for `inv`
    /// (own grant + volume lent out). `None` once completed/aborted.
    pub fn charge(&self, inv: InvocationId) -> Option<ResourceVec> {
        self.ledger.get(&inv).map(|e| e.charge())
    }

    /// Everything `inv` currently holds (own grant + loans in).
    pub fn effective_alloc(&self, inv: InvocationId) -> Option<ResourceVec> {
        self.ledger.get(&inv).map(|e| e.effective())
    }

    /// Whether the ledger records a live loan from `source` to `borrower`.
    pub fn has_loan(&self, source: InvocationId, borrower: InvocationId) -> bool {
        self.ledger.get(&borrower).is_some_and(|e| e.borrowed.iter().any(|(s, _)| *s == source))
    }

    /// Whether `inv` is currently in the ledger.
    pub fn is_tracked(&self, inv: InvocationId) -> bool {
        self.ledger.contains_key(&inv)
    }

    /// Total committed volume (Σ own grant + lent out) on `node`.
    pub fn committed_on(&self, node: NodeId) -> ResourceVec {
        self.ledger
            .values()
            .filter(|e| e.node == node)
            .fold(ResourceVec::ZERO, |acc, e| acc + e.charge())
    }

    /// The per-node harvest pools.
    pub fn pools(&self) -> &[HarvestResourcePool] {
        &self.pools
    }

    /// One node's harvest pool (`None` for an unknown node id).
    pub fn pool(&self, node: NodeId) -> Option<&HarvestResourcePool> {
        self.pools.get(node.idx())
    }

    /// A scheduler-facing snapshot of one node's pool (§6.4 piggyback).
    /// An unknown node id yields an empty snapshot.
    pub fn snapshot(&self, node: NodeId, now: SimTime) -> PoolSnapshot {
        self.pools.get(node.idx()).map(|p| p.snapshot(now)).unwrap_or_default()
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
        self.ledger.len()
    }

    /// Validate the conservation invariants the proptests pin down:
    /// Σ borrowed per source equals that source's `lent_out`, loans stay
    /// intra-node and die with their source, and no charge exceeds nominal.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut borrowed_from: BTreeMap<InvocationId, ResourceVec> = BTreeMap::new();
        for (id, e) in &self.ledger {
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
                let Some(se) = self.ledger.get(s) else {
                    return Err(format!("{id} borrows from dead source {s} (timeliness violated)"));
                };
                if se.node != e.node {
                    return Err(format!("cross-node loan {s} → {id}"));
                }
                *borrowed_from.entry(*s).or_default() += *v;
            }
        }
        for (id, e) in &self.ledger {
            let total = borrowed_from.get(id).copied().unwrap_or(ResourceVec::ZERO);
            if total != e.lent_out {
                return Err(format!(
                    "{id}: lent_out {:?} but borrowers hold {:?}",
                    e.lent_out, total
                ));
            }
        }
        Ok(())
    }

    /// Human-readable ledger dump (watchdog diagnostics).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (id, e) in &self.ledger {
            let _ = writeln!(
                s,
                "  {id} node={} func={} nominal={:?} grant={:?} lent={:?} borrowed={:?}",
                e.node, e.func, e.nominal, e.own_grant, e.lent_out, e.borrowed
            );
        }
        for (n, p) in self.pools.iter().enumerate() {
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
        let acts = c.on_observe(
            InvocationId(1),
            Observation { cpu_busy_millis: 900, mem_used_mb: 450, cpu_throttled: false },
            SimTime(100),
        );
        assert!(acts.iter().any(|a| matches!(a, Action::PreemptiveRelease { restored, .. }
            if *restored == ResourceVec::new(3_000, 1_536))));
        assert_eq!(c.charge(InvocationId(1)), Some(ResourceVec::new(4_000, 2_048)));
        assert!(c.pool(NodeId(0)).unwrap().is_empty(), "pool entry removed on release");
        c.check_conservation().unwrap();
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
}
