//! The decentralized sharding scheduler (§6.4), natively.
//!
//! The simulator models scheduler shards as queueing servers over each
//! [`libra_sim::node::Node`]'s per-shard [`Slice`]s; this is the same thing
//! for real threads. Each of the N shards owns an even slice of every node's
//! capacity — the very cell type the simulator uses, so both substrates admit
//! and refuse by one arithmetic — plus its own copy of the piggybacked pool
//! snapshots, behind that shard's lock. **Shards share nothing with each
//! other** (the paper's core scalability argument: "schedulers no longer need
//! to share any data for synchronization"): every operation locks one shard,
//! mutates its books and returns, so a shard's books have one write path and
//! callers of different shards never contend.
//!
//! Where a request goes is not decided here: a shard asks the one §6.3 rule,
//! [`crate::scheduler::place`], over its own slices and snapshots — the same
//! function, and the same function hash, the simulator's selectors ask — and
//! reserves what the rule picked.
//!
//! What the paper measures in Fig 12(c) — the wall-clock scheduling overhead
//! per decision, which must stay under a millisecond even at 50 nodes — is
//! measured by the caller: `exp fig12` and `benchmarks/perf`
//! (`sharding.schedule_on_us`) time whole calls from outside.

use crate::pool::PoolSnapshot;
use crate::scheduler::place;
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

/// One shard's books: its slice of every node, its view of every node's
/// harvest pool, and whether it is currently up.
struct ShardState {
    slices: Vec<Slice>,
    snapshots: Vec<PoolSnapshot>,
    alpha: f64,
    alive: bool,
}

/// A fleet of scheduler shards.
///
/// Shards can be [`kill`](ShardedScheduler::kill)ed and
/// [`respawn`](ShardedScheduler::respawn)ed at runtime (fault injection). A
/// dead shard keeps its books and degrades instead of panicking:
/// `schedule_on` answers `node: None` (the caller retries, exactly like an
/// unplaceable request), `try_charge` answers `false` (the loan is skipped),
/// while `release` and `rebook` still land — capacity that running
/// invocations give back or are restored to is never lost to a crash.
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
            snapshots: vec![PoolSnapshot::new(); nodes],
            alpha,
            alive: true,
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

    /// Whether `shard` is currently up.
    pub fn is_alive(&self, shard: usize) -> bool {
        self.shards[shard].lock().alive
    }

    /// Kill `shard`: it stops admitting and charging until
    /// [`respawn`](ShardedScheduler::respawn); its books survive. Idempotent.
    pub fn kill(&self, shard: usize) {
        self.shards[shard].lock().alive = false;
    }

    /// Bring a killed shard back over its preserved books. No-op if the
    /// shard is alive.
    pub fn respawn(&self, shard: usize) {
        self.shards[shard].lock().alive = true;
    }

    /// Schedule a request on the next shard (front-end round robin).
    pub fn schedule(&self, req: ScheduleRequest) -> Decision {
        let s = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.schedule_on(s, req)
    }

    /// Schedule on a specific shard, reserving the nominal allocation on the
    /// selected node. A dead shard answers `node: None`, the same signal as
    /// "no capacity" — callers retry either way.
    pub fn schedule_on(&self, shard: usize, req: ScheduleRequest) -> Decision {
        let mut state = self.shards[shard].lock();
        if !state.alive {
            return Decision { node: None };
        }
        let fits = |i: usize| req.nominal.fits_within(&state.slices[i].free());
        let node = place(&req, state.alpha, state.slices.len(), fits, |i| &state.snapshots[i])
            .and_then(|i| u32::try_from(i).ok())
            .filter(|&i| state.slices[i as usize].try_reserve(req.nominal));
        Decision { node }
    }

    /// Release a reservation previously granted by `shard` (dead or alive).
    pub fn release(&self, shard: usize, node: u32, res: ResourceVec) {
        self.shards[shard].lock().slices[node as usize].release(res);
    }

    /// Try to re-commit `res` on `node` within `shard`'s slice (used when
    /// pooled idle capacity is lent out — lending re-commits it). `false`
    /// means admissions already consumed the room, or the shard is down —
    /// the conservative answer.
    pub fn try_charge(&self, shard: usize, node: u32, res: ResourceVec) -> bool {
        let mut state = self.shards[shard].lock();
        state.alive && state.slices[node as usize].try_reserve(res)
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

    /// A snapshot of `shard`'s free slice per node (works even while the
    /// shard is down). Diagnostic: quiescence checks assert the slices
    /// return to `capacity / shards` after a graceful drain.
    pub fn slice_free(&self, shard: usize) -> Option<Vec<ResourceVec>> {
        self.shards.get(shard).map(|s| s.lock().slices.iter().map(Slice::free).collect())
    }

    /// Push a fresh pool snapshot for `node` to every shard (the broadcast
    /// health ping). Dead shards miss the update — their view goes stale,
    /// like a real partitioned scheduler.
    pub fn push_snapshot(&self, node: u32, snap: &PoolSnapshot) {
        for shard in &self.shards {
            let mut state = shard.lock();
            if state.alive {
                state.snapshots[node as usize].clone_from(snap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolEntryStatus;
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
        assert_eq!(sched.slice_free(0).unwrap()[0].cpu_millis, 0, "free saturates at zero");
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
        let snap = vec![PoolEntryStatus {
            cpu_idle_millis: 4_000,
            mem_idle_mb: 512,
            expiry: SimTime::from_secs(100),
        }];
        sched.push_snapshot(2, &snap);
        let d = sched.schedule_on(0, req(3, 2_000));
        assert_eq!(d.node, Some(2), "accelerable request must chase the harvested pool");
    }

    #[test]
    fn killed_shard_answers_none_and_respawn_preserves_slice_state() {
        // One shard, one node, 4-core slice: one 2-core request fits.
        let sched = ShardedScheduler::spawn(1, 1, ResourceVec::from_cores_mb(4, 4096), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.is_alive(0));

        sched.kill(0);
        assert!(!sched.is_alive(0));
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "dead shard must answer None");
        assert!(!sched.try_charge(0, 0, ResourceVec::from_cores_mb(1, 128)));
        sched.kill(0); // idempotent

        sched.respawn(0);
        assert!(sched.is_alive(0));
        // The pre-kill reservation survived: one more 2-core request fits,
        // the next exhausts the slice.
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_none(), "slice state was preserved");
    }

    #[test]
    fn release_to_a_dead_shard_is_not_lost() {
        let sched = ShardedScheduler::spawn(1, 1, ResourceVec::from_cores_mb(4, 4096), 0.9);
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        assert!(sched.schedule_on(0, req(0, 0)).node.is_some());
        sched.kill(0);
        // The completion path releases while the shard is down; the capacity
        // must land in the dead shard's books.
        sched.release(0, 0, ResourceVec::from_cores_mb(2, 512));
        sched.respawn(0);
        assert!(
            sched.schedule_on(0, req(0, 0)).node.is_some(),
            "capacity released during downtime must be schedulable after respawn"
        );
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
