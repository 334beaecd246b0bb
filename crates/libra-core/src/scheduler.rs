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
//! (`libra_bench::batch`) runs its coverage scan, [`max_coverage`]. Which
//! snapshots a scheduler may chase is decided here alone, by
//! [`SchedView::place`]: a snapshot counts for [`STALE_VIEW_AFTER`] after
//! its ping, and with every pinged node stale an accelerable request is
//! placed as a non-accelerable one. Libra's coverage selector and every
//! shard of the sharded scheduler ask it.
//! `hash_func` is the only function hash, so a function's home node is the
//! same everywhere. This module names no simulator engine type: the
//! selectors that read a simulated `World` live in [`crate::platform`].

use crate::coverage::{demand_coverage, volume_bound};
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

    /// `node`'s last snapshot, stale or not: empty when it never pinged.
    pub fn snapshot(&self, node: NodeId) -> &[PoolEntryStatus] {
        self.nodes.get(node.idx()).map_or(&[], |slot| &slot.1)
    }

    /// True when some node has pinged and every pinged node's last ping is
    /// stale: the scheduler has lost contact with the pool layer entirely
    /// and must stop trusting it. A node that never pinged (or was
    /// forgotten) does not count: at startup there is simply no snapshot
    /// yet.
    fn all_stale(&self, now: SimTime) -> bool {
        let mut pinged = self.nodes.iter().filter_map(|slot| slot.0).peekable();
        pinged.peek().is_some() && pinged.all(|last| is_stale(last, now))
    }

    /// What node *i*'s pool can be trusted to hold at `now`: the snapshot of
    /// its last ping while that ping is fresh, else nothing (it never
    /// pinged, or missed pings mean its pool may be gone — crashed node,
    /// dropped pings).
    fn fresh(&self, i: usize, now: SimTime) -> &[PoolEntryStatus] {
        match self.nodes.get(i) {
            Some((Some(last), snap)) if !is_stale(*last, now) => snap,
            _ => &[],
        }
    }
}

/// Whether a ping received at `last` is too old to trust at `now`.
fn is_stale(last: SimTime, now: SimTime) -> bool {
    now.since(last) > STALE_VIEW_AFTER
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
///
/// Over a window longer than zero it scores only candidates that can win.
/// Snapshots with no entry valid after `now` all cover alike, so the first
/// is scored and the rest lose its tie. A snapshot whose volume bound
/// (`coverage::volume_bound`) is below the best by more than 1e-9 cannot
/// pass it by 1e-12: that margin dwarfs the roundings between bound and
/// coverage.
pub fn max_coverage<'a>(
    extra: ResourceVec,
    now: SimTime,
    dur: SimDuration,
    alpha: f64,
    candidates: impl IntoIterator<Item = (usize, &'a [PoolEntryStatus])>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    let mut dry_scored = false;
    for (i, snap) in candidates {
        if dur > SimDuration::ZERO {
            match volume_bound(snap, extra, now, alpha) {
                None if dry_scored => continue,
                None => dry_scored = true,
                Some(bound) if best.is_some_and(|(_, bc)| bound < bc - 1e-9) => continue,
                Some(_) => {}
            }
        }
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

impl SchedView {
    /// [`place`] over this view, with the §6.4 staleness rule: node *i*'s
    /// snapshot counts only within [`STALE_VIEW_AFTER`] of its last ping,
    /// and when every pinged node is stale no coverage can be trusted, so an
    /// accelerable request asks the non-accelerable half. Node *i* is
    /// `NodeId(i)`. Every scheduler that chases pool snapshots asks this.
    pub fn place(
        &self,
        req: &ScheduleRequest,
        alpha: f64,
        nodes: usize,
        fits: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        if !req.extra.is_zero() && self.all_stale(req.now) {
            let blind = ScheduleRequest { extra: ResourceVec::ZERO, ..req.clone() };
            return place(&blind, alpha, nodes, fits, |_| &[]);
        }
        place(req, alpha, nodes, fits, |i| self.fresh(i, req.now))
    }
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

    /// [`max_coverage`] without its prunes: every candidate scored.
    fn max_coverage_unpruned<'a>(
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

    /// The prunes change no answer, bit for bit: seeded candidate lists
    /// with empty, expired-only and repeated (tying) snapshots, entries
    /// expiring at `now` and past the window, zero windows and zero `extra`
    /// dimensions, α at 0, 1 and between.
    #[test]
    fn max_coverage_prunes_only_candidates_that_cannot_win() {
        let mut state = 19;
        let mut r = |m: u64| splitmix64(&mut state) % m;
        let now = SimTime::from_secs(50);
        let (mut dry_ties, mut below) = (0, 0);
        for n in 0..4_000u64 {
            let mut snaps: Vec<PoolSnapshot> = Vec::new();
            for _ in 0..1 + r(24) {
                if !snaps.is_empty() && r(4) == 0 {
                    snaps.push(snaps[r(snaps.len() as u64) as usize].clone());
                    continue;
                }
                let expired_only = r(4) == 0;
                let mut snap: PoolSnapshot = (0..r(6))
                    .map(|_| {
                        let expiry = match (expired_only, r(5)) {
                            (true, _) | (false, 0) => now.0 - r(10_000_000),
                            (false, 1) => now.0,
                            _ => now.0 + 1 + r(20_000_000),
                        };
                        PoolEntryStatus {
                            cpu_idle_millis: r(4) * 500,
                            mem_idle_mb: r(4) * 256,
                            expiry: SimTime(expiry),
                        }
                    })
                    .collect();
                snap.sort_by_key(|e| e.expiry);
                snaps.push(snap);
            }
            let extra = ResourceVec::new(r(3) * 1_000, r(3) * 512);
            let dur = SimDuration(match n % 5 {
                0 => 0,
                _ => r(15_000_000) + 1,
            });
            let alpha = [0.0, 1.0, 0.9, 0.5, r(101) as f64 / 100.0][(n % 5) as usize];
            let cands = || snaps.iter().enumerate().map(|(i, s)| (i, s.as_slice()));
            let got = max_coverage(extra, now, dur, alpha, cands());
            let want = max_coverage_unpruned(extra, now, dur, alpha, cands());
            let bits = |b: Option<(usize, f64)>| b.map(|(i, c)| (i, c.to_bits()));
            assert_eq!(bits(got), bits(want), "case {n}: extra {extra:?}, dur {dur:?}, α {alpha}");
            // How often each prune had candidates to skip.
            let (Some((win, best)), true) = (got, dur.as_micros() > 0) else { continue };
            let bounds: Vec<_> = cands().map(|(_, s)| volume_bound(s, extra, now, alpha)).collect();
            dry_ties += u32::from(bounds.iter().filter(|b| b.is_none()).count() > 1);
            below += u32::from(bounds[win..].iter().flatten().any(|&b| b < best - 1e-9));
        }
        assert!(
            dry_ties > 500 && below > 500,
            "dry ties in {dry_ties} cases, bounds below in {below}"
        );
    }

    #[test]
    fn fresh_view_is_the_snapshot_only_while_pings_keep_coming() {
        let mut view = SchedView::new();
        assert!(view.fresh(0, SimTime::from_secs(9)).is_empty(), "never pinged");
        let pinged = SimTime::from_secs(10);
        *view.note_ping(NodeId(0), pinged) = idle(1_000);
        let limit = pinged + STALE_VIEW_AFTER;
        assert_eq!(view.fresh(0, limit), idle(1_000).as_slice());
        assert!(view.fresh(0, limit + SimDuration(1)).is_empty(), "stale");
        // A crash resets the slot to "never pinged"; its neighbours stay.
        *view.note_ping(NodeId(3), pinged) = idle(2_000);
        view.forget(NodeId(0));
        assert!(view.fresh(0, limit).is_empty());
        assert_eq!(view.fresh(3, limit), idle(2_000).as_slice());
        assert!(view.all_stale(limit + SimDuration(1)) && !view.all_stale(limit));
        // With every slot forgotten, nothing has pinged: nothing is stale.
        view.forget(NodeId(3));
        assert!(!view.all_stale(limit + SimDuration(1)));
    }
}
