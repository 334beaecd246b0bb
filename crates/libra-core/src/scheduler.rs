//! Timeliness-aware function scheduling (§6).
//!
//! The scheduler classifies invocations by comparing user-defined resources
//! with the profiler's estimates (§6.3):
//!
//! * **non-accelerable** (user allocation covers the demand): hashed to a
//!   stable node for warm-container locality, rehashing on full nodes;
//! * **accelerable** (demand exceeds the allocation): greedily sent to the
//!   node with the maximum *weighted demand coverage* (§6.2) among those
//!   with room for the user allocation.
//!
//! Every scheduler shard sees the same per-node pool status, learned from
//! piggybacked health pings (§6.4) — snapshots are therefore slightly stale,
//! exactly like production.
//!
//! That rule is written once, as [`place`] over two closures (does node *i*
//! fit; what does its pool advertise), and every substrate asks it: the
//! simulator's node selectors ([`crate::platform::NodeSelector`]) and the
//! live [`crate::sharding::ShardedScheduler`]; the harness's batch ablation
//! (`libra_bench::batch`) runs its coverage scan, [`max_coverage`].
//! `hash_func` is the only function hash, so a function's home node is the
//! same everywhere. This module names no simulator engine type: the
//! selectors that read a simulated `World` live in [`crate::platform`].

use crate::coverage::demand_coverage;
use crate::pool::{PoolEntryStatus, PoolSnapshot};
use libra_sim::ids::NodeId;
use libra_sim::metrics::splitmix64;
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// A pool snapshot older than this (i.e. this many missed health pings at
/// the default 500 ms interval) is stale: the node may be partitioned or
/// dead, and its advertised idle resources cannot be trusted.
pub const STALE_VIEW_AFTER: SimDuration = SimDuration(2_000_000);

/// The scheduler-side view of cluster pool state, refreshed by health pings:
/// one slot per node, indexed by node id — when the node's last ping arrived
/// (`None`: never, or forgotten since) and the pool snapshot it carried. A
/// slot's snapshot buffer is kept and overwritten in place, so a ping
/// allocates nothing and a lookup is an index and a compare.
#[derive(Debug, Default)]
pub struct SchedView {
    nodes: Vec<(Option<SimTime>, PoolSnapshot)>,
}

impl SchedView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a health ping from `node` at `now` and hand out the node's
    /// snapshot buffer for the ping's payload to overwrite (growing the view
    /// to cover a node it has not heard from before).
    pub fn note_ping(&mut self, node: NodeId, now: SimTime) -> &mut PoolSnapshot {
        if node.idx() >= self.nodes.len() {
            self.nodes.resize_with(node.idx() + 1, Default::default);
        }
        let slot = &mut self.nodes[node.idx()];
        slot.0 = Some(now);
        &mut slot.1
    }

    /// Reset `node`'s slot to "never pinged": it crashed, so its snapshot
    /// describes a pool that no longer exists, and a recovered node starts
    /// from a clean slate rather than stale.
    pub fn forget(&mut self, node: NodeId) {
        if let Some(slot) = self.nodes.get_mut(node.idx()) {
            *slot = Default::default();
        }
    }

    /// True when the node has pinged before but not recently — missed pings
    /// mean its snapshot describes a pool that may no longer exist. A node
    /// that has never pinged is *not* stale: at startup there is simply no
    /// snapshot yet, which the coverage loop already treats as empty.
    pub fn is_stale(&self, node: NodeId, now: SimTime) -> bool {
        let last = self.nodes.get(node.idx()).and_then(|slot| slot.0);
        last.is_some_and(|last| now.since(last) > STALE_VIEW_AFTER)
    }

    /// `node`'s last snapshot, stale or not: empty when it never pinged.
    pub(crate) fn snapshot(&self, node: NodeId) -> &[PoolEntryStatus] {
        self.nodes.get(node.idx()).map_or(&[], |slot| &slot.1)
    }

    /// True when every known node's view is stale — the scheduler has lost
    /// contact with the pool layer entirely and must stop trusting it.
    pub fn all_stale(&self, now: SimTime) -> bool {
        let mut pinged = self.nodes.iter().filter_map(|slot| slot.0).peekable();
        pinged.peek().is_some() && pinged.all(|last| now.since(last) > STALE_VIEW_AFTER)
    }

    /// What `node`'s pool can be trusted to hold at `now`: its last
    /// snapshot, or nothing when it never pinged or its view is stale (the
    /// pool may be gone — crashed node, dropped pings).
    pub fn fresh(&self, node: NodeId, now: SimTime) -> &[PoolEntryStatus] {
        if self.is_stale(node, now) {
            return &[];
        }
        self.snapshot(node)
    }
}

/// A scheduling request, as the front end would deliver it.
#[derive(Clone, Debug)]
pub struct ScheduleRequest {
    /// User-defined allocation (admission unit).
    pub nominal: ResourceVec,
    /// Extra demand beyond the allocation (zero ⇒ non-accelerable).
    pub extra: ResourceVec,
    /// Function id (drives the non-accelerable hash).
    pub func: u32,
    /// Predicted execution duration (the coverage window).
    pub duration: SimDuration,
    /// Logical now for coverage integration.
    pub now: SimTime,
}

/// Deterministic function-id hash: one splitmix64 step from state `f`. The
/// golden traces pin it.
fn hash_func(f: u32) -> u64 {
    splitmix64(&mut u64::from(f))
}

/// The candidate whose pool snapshot gives `extra` the greatest weighted
/// demand coverage (§6.2) over `[now, now + dur]`, and that coverage. Equal
/// coverages (within 1e-12) go to the earlier candidate.
pub fn max_coverage<'a>(
    extra: ResourceVec,
    now: SimTime,
    dur: SimDuration,
    alpha: f64,
    candidates: impl IntoIterator<Item = (usize, &'a [PoolEntryStatus])>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, snap) in candidates {
        let c = demand_coverage(snap, extra, now, dur, alpha);
        if best.is_none_or(|(_, bc)| c > bc + 1e-12) {
            best = Some((i, c));
        }
    }
    best
}

/// The §6.3 placement rule over node indices `0..nodes`: `fits(i)` says
/// whether node *i* has room for the user allocation, `snapshot(i)` what its
/// harvest pool advertises. A non-accelerable request (`extra` zero) takes
/// the first fitting node probing linearly from its function's hash home (no
/// pool knowledge needed); an accelerable one the fitting node with the
/// maximum coverage, ties to the lowest index. `None` when nothing fits.
pub fn place<'a>(
    req: &ScheduleRequest,
    alpha: f64,
    nodes: usize,
    fits: impl Fn(usize) -> bool,
    snapshot: impl Fn(usize) -> &'a [PoolEntryStatus],
) -> Option<usize> {
    if nodes == 0 {
        return None;
    }
    if req.extra.is_zero() {
        #[expect(clippy::cast_possible_truncation, reason = "a remainder of `nodes`, a usize")]
        let home = (hash_func(req.func) % nodes as u64) as usize;
        return (0..nodes).map(|k| (home + k) % nodes).find(|&i| fits(i));
    }
    let fitting = (0..nodes).filter(|&i| fits(i)).map(|i| (i, snapshot(i)));
    max_coverage(req.extra, req.now, req.duration, alpha, fitting).map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(func: u32, extra_cpu: u64) -> ScheduleRequest {
        ScheduleRequest {
            nominal: ResourceVec::from_cores_mb(2, 512),
            extra: ResourceVec::new(extra_cpu, 0),
            func,
            duration: SimDuration::from_secs(2),
            now: SimTime::ZERO,
        }
    }

    fn idle(cpu: u64) -> PoolSnapshot {
        vec![PoolEntryStatus {
            cpu_idle_millis: cpu,
            mem_idle_mb: 0,
            expiry: SimTime::from_secs(100),
        }]
    }

    #[test]
    fn place_probes_from_the_hash_home_wrapping_past_the_last_node() {
        let none = |_: usize| -> &[PoolEntryStatus] { &[] };
        // Find a function homed on the last of 4 nodes.
        let f = (0..64).find(|&f| place(&req(f, 0), 0.9, 4, |_| true, none) == Some(3)).unwrap();
        // Home full: the probe wraps to node 0; nodes 0 and 1 full too: node 2.
        assert_eq!(place(&req(f, 0), 0.9, 4, |i| i != 3, none), Some(0));
        assert_eq!(place(&req(f, 0), 0.9, 4, |i| i == 2, none), Some(2));
        assert_eq!(place(&req(f, 0), 0.9, 4, |_| false, none), None);
        assert_eq!(place(&req(f, 0), 0.9, 0, |_| true, none), None, "no nodes, no answer");
        assert_eq!(place(&req(f, 2_000), 0.9, 0, |_| true, none), None);
    }

    #[test]
    fn place_chases_coverage_among_fitting_nodes_and_ties_go_low() {
        let snaps = [idle(1_000), idle(2_000), idle(2_000), idle(4_000)];
        let snap = |i: usize| snaps[i].as_slice();
        // Node 3 covers most but does not fit; 1 and 2 tie: the lower wins.
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |i| i != 3, snap), Some(1));
        assert_eq!(place(&req(9, 4_000), 0.9, 4, |_| true, snap), Some(3));
        // Nothing advertised anywhere: every coverage is equal, node 0 wins
        // whatever the function's hash home is.
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |_| true, |_| &[]), Some(0));
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |_| false, snap), None);
    }

    #[test]
    fn fresh_view_is_the_snapshot_only_while_pings_keep_coming() {
        let mut view = SchedView::new();
        let n = NodeId(0);
        assert!(view.fresh(n, SimTime::from_secs(9)).is_empty(), "never pinged");
        let pinged = SimTime::from_secs(10);
        *view.note_ping(n, pinged) = idle(1_000);
        let limit = pinged + STALE_VIEW_AFTER;
        assert_eq!(view.fresh(n, limit), idle(1_000).as_slice());
        assert!(view.fresh(n, limit + SimDuration(1)).is_empty(), "stale");
        // A crash resets the slot to "never pinged"; its neighbours stay.
        *view.note_ping(NodeId(3), pinged) = idle(2_000);
        view.forget(n);
        assert!(!view.is_stale(n, limit + SimDuration(1)) && view.fresh(n, limit).is_empty());
        assert_eq!(view.fresh(NodeId(3), limit), idle(2_000).as_slice());
        assert!(view.all_stale(limit + SimDuration(1)) && !view.all_stale(limit));
    }
}
