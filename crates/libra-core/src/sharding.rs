//! The decentralized sharding scheduler (§6.4), natively.
//!
//! The simulator models scheduler shards as queueing servers over each
//! [`libra_sim::node::Node`]'s per-shard [`Slice`]s; this is the same thing
//! for real threads. Each of the N shards owns an even slice of every node's
//! capacity — the very cell type the simulator uses, so both substrates admit
//! and refuse by one arithmetic — plus its own [`SchedView`] of the
//! piggybacked pool snapshots, behind that shard's lock. **Shards share
//! nothing with each other** (the paper's core scalability argument:
//! "schedulers no longer need to share any data for synchronization"):
//! every operation locks one shard, mutates its books and returns, so a
//! shard's books have one write path and callers of different shards never
//! contend.
//!
//! Where a request goes is not decided here: a shard asks its view's
//! [`SchedView::place`] — the one §6.3 rule with the one §6.4 staleness rule,
//! which the simulator's coverage selector asks too — over its own slices,
//! and reserves what the rule picked.
//!
//! What the paper measures in Fig 12(c) — the wall-clock scheduling overhead
//! per decision, which must stay under a millisecond even at 50 nodes — is
//! measured by the caller: `exp fig12` and `benchmarks/perf`
//! (`sharding.schedule_on_us`) time whole calls from outside.

use crate::scheduler::SchedView;
pub use crate::scheduler::ScheduleRequest;
use libra_sim::node::Slice;
use libra_sim::resources::ResourceVec;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A completed decision.
#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// Selected node index, or `None` if no shard-slice fits.
    pub node: Option<u32>,
}

/// One shard's books: its slice of every node, its ping-fed view of every
/// node's harvest pool, and whether it is currently stalled.
struct ShardState {
    slices: Vec<Slice>,
    view: SchedView,
    alpha: f64,
    stalled: bool,
}

/// A fleet of scheduler shards.
///
/// A shard can be [`stall`](ShardedScheduler::stall)ed and
/// [`resume`](ShardedScheduler::resume)d at runtime — the simulator's
/// `FaultKind::ShardStall` / `ShardResume`, with the simulator's meaning: a
/// stalled shard makes no new placements (`schedule_on` answers
/// `node: None`, and the caller retries exactly as for an unplaceable
/// request) and nothing else changes. Charges, rebookings, releases and
/// pings land on its books as on any other shard's.
pub struct ShardedScheduler {
    shards: Vec<Mutex<ShardState>>,
    next: AtomicUsize,
}

impl ShardedScheduler {
    /// Start `shards` schedulers over `nodes` nodes of `capacity` each. Each
    /// shard owns `capacity / shards` of every node.
    pub fn spawn(shards: usize, nodes: usize, capacity: ResourceVec, alpha: f64) -> Self {
        assert!(shards > 0 && nodes > 0);
        let state = || ShardState {
            slices: vec![Slice::new(capacity.div(shards as u64)); nodes],
            view: SchedView::new(),
            alpha,
            stalled: false,
        };
        ShardedScheduler {
            shards: (0..shards).map(|_| Mutex::new(state())).collect(),
            next: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether `shard` is currently stalled (diagnostics).
    pub fn is_stalled(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(|s| s.lock().stalled)
    }

    /// Stall `shard`: it places nothing until
    /// [`resume`](ShardedScheduler::resume). Idempotent; a shard the fleet
    /// does not have is ignored, as the simulator ignores it.
    pub fn stall(&self, shard: usize) {
        self.set_stalled(shard, true);
    }

    /// Let a stalled shard place again. Idempotent.
    pub fn resume(&self, shard: usize) {
        self.set_stalled(shard, false);
    }

    fn set_stalled(&self, shard: usize, stalled: bool) {
        if let Some(s) = self.shards.get(shard) {
            s.lock().stalled = stalled;
        }
    }

    /// Schedule a request on the next shard (front-end round robin).
    pub fn schedule(&self, req: ScheduleRequest) -> Decision {
        let s = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.schedule_on(s, req)
    }

    /// Schedule on a specific shard, reserving the nominal allocation on the
    /// selected node. A stalled shard answers `node: None`, the same signal
    /// as "no capacity" — callers retry either way.
    pub fn schedule_on(&self, shard: usize, req: ScheduleRequest) -> Decision {
        let mut state = self.shards[shard].lock();
        if state.stalled {
            return Decision { node: None };
        }
        let fits = |i: usize| req.nominal.fits_within(&state.slices[i].free());
        let node = state
            .view
            .place(&req, state.alpha, state.slices.len(), fits)
            .and_then(|i| u32::try_from(i).ok())
            .filter(|&i| state.slices[i as usize].try_reserve(req.nominal));
        Decision { node }
    }

    /// Release a reservation previously granted by `shard`.
    pub fn release(&self, shard: usize, node: u32, res: ResourceVec) {
        self.shards[shard].lock().slices[node as usize].release(res);
    }

    /// Try to re-commit `res` on `node` within `shard`'s slice (used when
    /// pooled idle capacity is lent out — lending re-commits it). `false`
    /// means admissions already consumed the room.
    pub fn try_charge(&self, shard: usize, node: u32, res: ResourceVec) -> bool {
        self.shards[shard].lock().slices[node as usize].try_reserve(res)
    }

    /// Move one resident's booking on `node` within `shard`'s slice from
    /// `from` to `to` under one lock, without a capacity check
    /// ([`Slice::rebook`], the rule the simulator's `Node::rebook` runs): a
    /// safeguard release or OOM restart restores the nominal grant even when
    /// admissions already consumed the freed capacity. The slice may end up
    /// over-reserved; it then admits nothing until releases bring it back
    /// under its capacity.
    pub fn rebook(&self, shard: usize, node: u32, from: ResourceVec, to: ResourceVec) {
        self.shards[shard].lock().slices[node as usize].rebook(from, to);
    }

    /// A copy of `shard`'s books for `node`, which a node's warm pins are
    /// weighed against (`WarmPool::park` / `settle`).
    pub fn slice(&self, shard: usize, node: u32) -> Slice {
        self.shards[shard].lock().slices[node as usize]
    }

    /// Deliver `node`'s health ping at `now`, carrying its pool snapshot,
    /// to every shard (the broadcast ping of §6.4). Test-only until the live
    /// driver grows the ping path that sends `ControlPlane::snapshot`; until
    /// then no shard's view is ever pinged outside tests, so none is stale
    /// and none advertises anything.
    #[cfg(test)]
    pub fn note_ping(
        &self,
        node: u32,
        now: libra_sim::time::SimTime,
        snap: &crate::pool::PoolSnapshot,
    ) {
        for shard in &self.shards {
            shard.lock().view.note_ping(libra_sim::ids::NodeId(node), now).clone_from(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolEntryStatus, PoolSnapshot};
    use crate::scheduler::STALE_VIEW_AFTER;
    use libra_sim::time::{SimDuration, SimTime};

    fn req(func: u32, extra_cpu: u64) -> ScheduleRequest {
        ScheduleRequest {
            nominal: ResourceVec::from_cores_mb(2, 512),
            extra: ResourceVec::new(extra_cpu, 0),
            func,
            duration: SimDuration::from_secs(2),
            now: SimTime::ZERO,
        }
    }

    /// A pool advertising `cpu` idle millicores and 512 MB until 100 s.
    fn idle(cpu: u64) -> PoolSnapshot {
        vec![PoolEntryStatus {
            cpu_idle_millis: cpu,
            mem_idle_mb: 512,
            expiry: SimTime::from_secs(100),
        }]
    }

    #[test]
    fn schedules_and_reserves() {
        let sched = ShardedScheduler::spawn(2, 4, ResourceVec::from_cores_mb(16, 16_384), 0.9);
        let d = sched.schedule(req(1, 0));
        assert!(d.node.is_some());
    }

    #[test]
    fn same_function_sticks_to_home_node_within_a_shard() {
        let sched = ShardedScheduler::spawn(1, 8, ResourceVec::from_cores_mb(32, 32_768), 0.9);
        let a = sched.schedule_on(0, req(7, 0)).node.unwrap();
        let b = sched.schedule_on(0, req(7, 0)).node.unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_slice_exhaustion_forces_none_then_release_recovers() {
        // One shard, one node, 4-core slice: two 2-core requests fill it.
        let sched = ShardedScheduler::spawn(1, 1, ResourceVec::from_cores_mb(4, 4096), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "slice full");
        sched.release(0, 0, ResourceVec::from_cores_mb(2, 512));
        assert!(
            sched.schedule_on(0, req(0, 0)).node.is_some(),
            "released capacity must be schedulable by the very next call"
        );
    }

    #[test]
    fn forced_restore_blocks_admission_until_released() {
        // One shard, one node, 4-core / 4 GB slice holding one 2-core
        // admission; rebooking a resident from nothing to 3 cores
        // over-reserves the CPU side.
        let sched = ShardedScheduler::spawn(1, 1, ResourceVec::from_cores_mb(4, 4096), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        let restored = ResourceVec::from_cores_mb(3, 1024);
        sched.rebook(0, 0, ResourceVec::ZERO, restored);
        assert_eq!(sched.slice(0, 0).free().cpu_millis, 0, "free saturates at zero");
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "no admission beside the debt");
        assert!(!sched.try_charge(0, 0, ResourceVec::new(100, 0)), "no lending beside it either");
        // Giving back exactly the overshoot (1 core) frees nothing yet ...
        sched.release(0, 0, ResourceVec::from_cores_mb(1, 0));
        assert!(!sched.try_charge(0, 0, ResourceVec::new(100, 0)));
        // ... releasing the restore itself brings the slice back under.
        sched.release(0, 0, ResourceVec::from_cores_mb(2, 1024));
        assert!(sched.try_charge(0, 0, ResourceVec::new(100, 0)));
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "1.9 cores left");
        sched.release(0, 0, ResourceVec::new(100, 0));
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
    }

    #[test]
    fn coverage_prefers_node_with_harvested_resources() {
        let sched = ShardedScheduler::spawn(1, 3, ResourceVec::from_cores_mb(16, 16_384), 0.9);
        sched.note_ping(2, SimTime::ZERO, &idle(4_000));
        let d = sched.schedule_on(0, req(3, 2_000));
        assert_eq!(d.node, Some(2), "accelerable request must chase the harvested pool");
    }

    #[test]
    fn a_snapshot_is_chased_until_it_goes_stale() {
        // One shard over three 16-core nodes; function `f` is homed on node
        // 1, and node 2 pings at 10 s advertising 4 idle cores.
        let sched = ShardedScheduler::spawn(1, 3, ResourceVec::from_cores_mb(16, 16_384), 0.9);
        let place_at = |f, extra, now| {
            let r = ScheduleRequest { now, ..req(f, extra) };
            let node = sched.schedule_on(0, r.clone()).node;
            if let Some(n) = node {
                sched.release(0, n, r.nominal);
            }
            node
        };
        let f = (0..64).find(|&f| place_at(f, 0, SimTime::ZERO) == Some(1)).expect("a home on 1");
        let pinged = SimTime::from_secs(10);
        sched.note_ping(2, pinged, &idle(4_000));
        let limit = pinged + STALE_VIEW_AFTER;
        assert_eq!(place_at(f, 2_000, limit), Some(2), "still fresh");
        // One µs later the only pinged node is stale: no coverage can be
        // trusted, so the accelerable request takes its hash home.
        let late = limit + SimDuration(1);
        assert_eq!(place_at(f, 2_000, late), Some(1), "every pinged node stale");
        // Node 0 pings, advertising nothing: node 2's stale snapshot still
        // counts for nothing, every coverage is zero and node 0 wins the tie.
        sched.note_ping(0, limit, &PoolSnapshot::new());
        assert_eq!(place_at(f, 2_000, late), Some(0), "a stale snapshot is not chased");
    }

    #[test]
    fn stalled_shard_answers_none_and_resume_preserves_slice_state() {
        // One shard, one node, 4-core slice: one 2-core request fits.
        let sched = ShardedScheduler::spawn(1, 1, ResourceVec::from_cores_mb(4, 4096), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(!sched.is_stalled(0));

        sched.stall(0);
        assert!(sched.is_stalled(0));
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "stalled shard must answer None");
        sched.stall(0); // idempotent
        sched.stall(7); // a shard the fleet does not have is ignored

        sched.resume(0);
        assert!(!sched.is_stalled(0));
        // The pre-stall reservation survived: one more 2-core request fits,
        // the next exhausts the slice.
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "slice state was preserved");
    }

    #[test]
    fn a_stalled_shard_stops_placing_and_nothing_else() {
        // One shard, two nodes, 4-core slices, the function's home node
        // holding one 2-core admission. While stalled, every path but
        // placement lands on its books exactly as on a running shard's.
        let sched = ShardedScheduler::spawn(1, 2, ResourceVec::from_cores_mb(4, 4096), 0.9);
        let home = sched.schedule_on(0, req(0, 0)).node.expect("an empty slice admits");
        let other = 1 - home;
        sched.stall(0);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "no placement while stalled");
        assert!(sched.try_charge(0, home, ResourceVec::new(1_000, 0)), "a loan still charges");
        sched.rebook(0, home, ResourceVec::new(1_000, 0), ResourceVec::new(500, 0));
        sched.release(0, home, ResourceVec::new(500, 0));
        sched.note_ping(other, SimTime::ZERO, &idle(4_000));
        // The 2-core admission is all the home node still holds.
        assert_eq!(sched.slice(0, home).free(), ResourceVec::new(2_000, 3_584));
        sched.resume(0);
        // The ping delivered while stalled steers the accelerable request.
        assert_eq!(sched.schedule_on(0, req(3, 2_000)).node, Some(other), "the ping was taken");
    }

    #[test]
    fn shards_are_independent() {
        // Shard 0's reservations must not affect shard 1's slice.
        let sched = ShardedScheduler::spawn(2, 1, ResourceVec::from_cores_mb(8, 8192), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "shard 0's 4-core slice full");
        assert!(sched.schedule_on(1, req(0, 0)).node.is_some(), "shard 1 unaffected");
    }
}
