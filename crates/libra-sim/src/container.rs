//! Warm-container tracking with memory pinning.
//!
//! OpenWhisk keeps a container pool on each invoker: an invocation of
//! function *k* can reuse an idle warm container for *k* on the same node and
//! skip the cold start (container creation + dependency installation, §6.3
//! footnote 4). Hash-based scheduling exists precisely to increase warm hits.
//!
//! Idle warm containers **pin memory**: a paused container's heap stays
//! resident, counted against the memory of the shard slice that admitted it,
//! until the container is reused (the new invocation's own charge takes its
//! place), expires past its keep-until deadline, or is evicted because
//! admission needs the room. The count is this pool's per-shard gauge, not a
//! booking in the slice, and only this pool weighs it against the slice:
//! [`WarmPool::park`] keeps a container only if the slice's reservations plus
//! the shard's pins leave room for it, and [`WarmPool::settle`] evicts the
//! pins a new booking crowds out. Both substrates call the two, so the pins
//! the other calls return are informational.
//!
//! *Who decides the deadline?* Not this pool. Each entry carries an absolute
//! `keep_until` stamped at park time by the keep-alive policy in charge
//! (`Platform::warm_keep`; see `libra-core`'s `keepalive` module). The pool
//! is pure mechanism: it stores deadlines, answers warm hits, and reaps
//! expired pins.
//!
//! The pool is one `Vec` in park order, with `swap_remove` on a warm hit and
//! order-keeping `remove` on a reap or an eviction. A warm hit takes the
//! first live entry of its function in position order and a warm count
//! scans the same way: a node's idle set is small, and on the `sim_engine`
//! and `sim_harvest` benchmarks a plain scan ran at least as fast as a
//! sorted `(function, position)` index. Two pieces of bookkeeping stay
//! because they pay: a per-shard pin gauge makes `pinned_for`, which `park`
//! and `settle` read on every rebook, O(1); and a cached lower bound on the
//! earliest deadline lets the periodic expiry sweep return without scanning
//! when nothing can have expired (without it `sim_engine` ran slower in 6
//! of 6 paired runs, median 391k → 346k inv/s on 2 cores). The pre-policy fixed-TTL pool survives as
//! the equivalence-proptest oracle, `tests/support/seed_warm_pool.rs` at the
//! repo root.

use crate::ids::FunctionId;
use crate::node::Slice;
use crate::time::{SimDuration, SimTime};

/// Fixed keep-alive window of an idle warm container (OpenWhisk's 60 s): the
/// default [`Platform::warm_keep`](crate::platform::Platform::warm_keep)
/// deadline and the policy layer's standard TTL.
pub const KEEPALIVE: SimDuration = SimDuration(60_000_000);

/// One idle warm container.
#[derive(Clone, Copy, Debug)]
struct WarmEntry {
    func: FunctionId,
    /// Scheduler shard whose slice carries the pinned memory.
    shard: usize,
    /// Pinned memory (the container's grant at completion).
    mem_mb: u64,
    /// When the container went idle (LRU order for demand eviction).
    idle_since: SimTime,
    /// Policy-assigned deadline: past this instant the container is expired
    /// (no longer serves warm hits; reaped by the next expiry sweep).
    keep_until: SimTime,
}

/// Per-node pool of idle warm containers.
#[derive(Default, Debug)]
pub struct WarmPool {
    idle: Vec<WarmEntry>,
    /// Memory pinned per shard, indexed by shard, *including*
    /// expired-but-unreaped entries.
    pinned_shard: Vec<u64>,
    /// Lower bound on the earliest `keep_until` across entries (never later
    /// than the true minimum; removals leave it stale-low, sweeps fix it).
    next_expiry: Option<SimTime>,
    warm_hits: u64,
    cold_starts: u64,
}

impl WarmPool {
    /// An empty pool.
    pub fn new() -> Self {
        WarmPool::default()
    }

    /// Drop a removed entry's pin from its shard's gauge.
    fn unpin(&mut self, e: &WarmEntry) {
        if let Some(p) = self.pinned_shard.get_mut(e.shard) {
            *p = p.saturating_sub(e.mem_mb);
        }
    }

    /// Try to take a warm container for `func`. On a hit, the entry and its
    /// pin leave the pool, and so its per-shard gauge (`pinned_for`), which
    /// is what [`park`](WarmPool::park) and [`settle`](WarmPool::settle)
    /// read; the returned `Some((shard, pinned_mem))` is informational, since
    /// a pin is never booked in a slice and nothing needs crediting back. Expired entries
    /// are ignored (the engine reaps them via [`WarmPool::evict_expired`]).
    pub fn acquire(&mut self, func: FunctionId, now: SimTime) -> Option<(usize, u64)> {
        let pos = self.idle.iter().position(|e| e.func == func && now <= e.keep_until);
        match pos {
            Some(i) => {
                let e = self.idle.swap_remove(i);
                self.unpin(&e);
                self.warm_hits += 1;
                Some((e.shard, e.mem_mb))
            }
            None => {
                self.cold_starts += 1;
                None
            }
        }
    }

    /// Park a completed (or prewarmed) container as warm until the policy's
    /// `keep_until`, pinning `mem_mb` against `shard` (whose books are
    /// `slice`) if its reservations plus the shard's pins leave that much
    /// memory free; else it is torn down: `false`, and nothing changes.
    pub fn park(
        &mut self,
        func: FunctionId,
        shard: usize,
        mem_mb: u64,
        slice: &Slice,
        now: SimTime,
        keep_until: SimTime,
    ) -> bool {
        let used = slice.reserved().mem_mb + self.pinned_for(shard);
        if mem_mb > slice.capacity().mem_mb.saturating_sub(used) {
            return false;
        }
        self.idle.push(WarmEntry { func, shard, mem_mb, idle_since: now, keep_until });
        if shard >= self.pinned_shard.len() {
            self.pinned_shard.resize(shard + 1, 0);
        }
        self.pinned_shard[shard] += mem_mb;
        self.next_expiry = Some(self.next_expiry.map_or(keep_until, |m| m.min(keep_until)));
        true
    }

    /// After a change of `shard`'s bookings, evict its least recently idle
    /// containers until its `slice`'s reservations plus its pins fit again.
    pub fn settle(&mut self, shard: usize, slice: &Slice) {
        let used = slice.reserved().mem_mb + self.pinned_for(shard);
        let over = used.saturating_sub(slice.capacity().mem_mb);
        if over > 0 {
            let _ = self.evict_for(shard, over);
        }
    }

    /// Reap entries past their keep-until deadline, dropping their pins from
    /// the per-shard gauge, and return the `(shard, mem)` pins reaped, for
    /// information: nothing needs crediting back. Returns without scanning
    /// when the cached earliest deadline proves nothing can have expired; a
    /// sweep that reaps nothing allocates nothing.
    pub fn evict_expired(&mut self, now: SimTime) -> Vec<(usize, u64)> {
        match self.next_expiry {
            Some(e) if now > e => {}
            _ => return Vec::new(),
        }
        let mut expired = Vec::new();
        let mut i = 0;
        while let Some(e) = self.idle.get(i) {
            if now > e.keep_until {
                let e = self.idle.remove(i);
                self.unpin(&e);
                expired.push((e.shard, e.mem_mb));
            } else {
                i += 1;
            }
        }
        self.next_expiry = self.idle.iter().map(|e| e.keep_until).min();
        expired
    }

    /// Evict LRU warm containers pinned to `shard` until at least `need_mb`
    /// of memory is freed (or the pool is out of candidates), dropping their
    /// pins from the per-shard gauge. Returns the freed pins, for
    /// information.
    pub fn evict_for(&mut self, shard: usize, need_mb: u64) -> Vec<(usize, u64)> {
        if self.pinned_for(shard) == 0 {
            return Vec::new();
        }
        let mut freed = Vec::new();
        let mut total = 0u64;
        while total < need_mb {
            let lru = self
                .idle
                .iter()
                .enumerate()
                .filter(|(_, e)| e.shard == shard)
                .min_by_key(|(_, e)| e.idle_since)
                .map(|(i, _)| i);
            match lru {
                Some(i) => {
                    let e = self.idle.remove(i);
                    self.unpin(&e);
                    total += e.mem_mb;
                    freed.push((e.shard, e.mem_mb));
                }
                None => break,
            }
        }
        freed
    }

    /// (warm hits, cold starts) served so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.warm_hits, self.cold_starts)
    }

    /// Non-mutating count of warm containers for `func` still within
    /// keep-alive at `now` (for read-only scheduler queries).
    pub fn count_at(&self, func: FunctionId, now: SimTime) -> usize {
        self.idle.iter().filter(|e| e.func == func && now <= e.keep_until).count()
    }

    /// Total memory currently pinned by live warm containers (diagnostics).
    pub fn pinned_mem_mb(&self, now: SimTime) -> u64 {
        self.idle.iter().filter(|e| now <= e.keep_until).map(|e| e.mem_mb).sum()
    }

    /// Memory physically pinned against `shard` — *including* expired
    /// entries that have not been reaped yet (an expired paused container
    /// still holds its heap until the pool tears it down).
    pub fn pinned_for(&self, shard: usize) -> u64 {
        self.pinned_shard.get(shard).copied().unwrap_or(0)
    }

    /// Tear every container down (its node crashed).
    pub fn drain_all(&mut self) {
        self.idle.clear();
        self.pinned_shard.fill(0);
        self.next_expiry = None;
    }

    /// Assert the bookkeeping invariants: every shard's gauge (one past the
    /// last shard too) is the sum of its entries' pins, and `next_expiry` is
    /// no later than any entry's deadline.
    #[cfg(test)]
    fn check_books(&self) {
        for s in 0..=self.pinned_shard.len() {
            let sum: u64 = self.idle.iter().filter(|e| e.shard == s).map(|e| e.mem_mb).sum();
            assert_eq!(self.pinned_for(s), sum, "pin gauge of shard {s}");
        }
        if let Some(min) = self.idle.iter().map(|e| e.keep_until).min() {
            assert!(self.next_expiry.is_some_and(|n| n <= min), "cached expiry past {min:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceVec;
    use crate::time::SimDuration;

    const F: FunctionId = FunctionId(1);
    const TTL: SimDuration = SimDuration(60 * 1_000_000);

    /// Park into a slice no pin here crowds: these tests exercise the
    /// hits and the books, not the room.
    fn put(
        p: &mut WarmPool,
        func: FunctionId,
        shard: usize,
        mem: u64,
        now: SimTime,
        until: SimTime,
    ) {
        let roomy = Slice::new(ResourceVec::new(0, u64::MAX / 2));
        assert!(p.park(func, shard, mem, &roomy, now, until));
    }

    /// Park with the classic fixed-TTL deadline (what the engine's default
    /// `warm_keep` hook computes).
    fn keep(p: &mut WarmPool, func: FunctionId, shard: usize, mem: u64, now: SimTime) {
        put(p, func, shard, mem, now, now + TTL);
    }

    /// A slice of 1000 MB with `reserved_mb` of it booked.
    fn slice(reserved_mb: u64) -> Slice {
        let mut s = Slice::new(ResourceVec::new(1_000, 1_000));
        assert!(s.try_reserve(ResourceVec::new(0, reserved_mb)));
        s
    }

    #[test]
    fn park_refuses_exactly_when_reservations_and_pins_leave_no_room() {
        let mut p = WarmPool::new();
        let s = slice(400);
        assert!(p.park(F, 0, 300, &s, SimTime::ZERO, SimTime::from_secs(60)));
        // 400 reserved + 300 pinned + 301 > 1000: torn down, nothing moves.
        assert!(!p.park(F, 0, 301, &s, SimTime::ZERO, SimTime::from_secs(60)));
        assert_eq!((p.pinned_for(0), p.count_at(F, SimTime::ZERO)), (300, 1));
        // 400 + 300 + 300 = 1000: exactly full still parks.
        assert!(p.park(F, 0, 300, &s, SimTime::ZERO, SimTime::from_secs(60)));
        assert_eq!((p.pinned_for(0), p.count_at(F, SimTime::ZERO)), (600, 2));
        assert!(!p.park(F, 0, 1, &s, SimTime::ZERO, SimTime::from_secs(60)));
        // Pins count per shard: shard 0's leave shard 1 (same books) empty.
        assert!(p.park(F, 1, 600, &s, SimTime::ZERO, SimTime::from_secs(60)));
        p.check_books();
    }

    #[test]
    fn settle_evicts_least_recently_idle_pins_of_its_shard_until_the_slice_fits() {
        let mut p = WarmPool::new();
        keep(&mut p, FunctionId(4), 1, 500, SimTime::ZERO); // oldest, other shard
        keep(&mut p, FunctionId(1), 0, 200, SimTime::from_secs(1));
        keep(&mut p, FunctionId(2), 0, 300, SimTime::from_secs(2));
        keep(&mut p, FunctionId(3), 0, 100, SimTime::from_secs(3));
        let live = |p: &WarmPool| {
            (1..=4).map(|f| p.count_at(FunctionId(f), SimTime::from_secs(4))).collect::<Vec<_>>()
        };
        p.settle(0, &slice(400)); // 400 + 600 = 1000: fits, nothing goes
        assert_eq!(live(&p), [1, 1, 1, 1]);
        p.settle(0, &slice(500)); // 100 over: the 200 MB pin alone covers it
        assert_eq!(live(&p), [0, 1, 1, 1]);
        p.settle(0, &slice(800)); // 200 over: the 300 MB pin, then it fits
        assert_eq!(live(&p), [0, 0, 1, 1]);
        assert_eq!((p.pinned_for(0), p.pinned_for(1)), (100, 500));
        p.check_books();
    }

    #[test]
    fn first_acquire_is_cold() {
        let mut p = WarmPool::new();
        assert!(p.acquire(F, SimTime::ZERO).is_none());
        assert_eq!(p.stats(), (0, 1));
    }

    #[test]
    fn park_then_acquire_is_warm_and_returns_pin() {
        let mut p = WarmPool::new();
        keep(&mut p, F, 1, 512, SimTime::from_secs(1));
        assert_eq!(p.pinned_mem_mb(SimTime::from_secs(2)), 512);
        let hit = p.acquire(F, SimTime::from_secs(2));
        assert_eq!(hit, Some((1, 512)));
        assert_eq!(p.stats(), (1, 0));
        // container consumed; next one is cold again
        assert!(p.acquire(F, SimTime::from_secs(3)).is_none());
    }

    #[test]
    fn keepalive_expires_containers() {
        let mut p = WarmPool::new();
        put(&mut p, F, 0, 256, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(p.count_at(F, SimTime::from_secs(10)), 1);
        assert_eq!(p.count_at(F, SimTime::from_secs(11)), 0);
        assert!(p.acquire(F, SimTime::from_secs(11)).is_none());
        let reaped = p.evict_expired(SimTime::from_secs(12));
        assert_eq!(reaped, vec![(0, 256)]);
        assert_eq!(p.pinned_mem_mb(SimTime::from_secs(12)), 0);
        assert_eq!(p.pinned_for(0), 0);
    }

    #[test]
    fn expiry_sweep_short_circuits_before_first_deadline() {
        let mut p = WarmPool::new();
        put(&mut p, F, 0, 256, SimTime::ZERO, SimTime::from_secs(100));
        // Nothing can be expired yet: the sweep must return empty (and the
        // entry must survive).
        assert!(p.evict_expired(SimTime::from_secs(50)).is_empty());
        assert_eq!(p.count_at(F, SimTime::from_secs(50)), 1);
    }

    #[test]
    fn functions_do_not_share_containers() {
        let mut p = WarmPool::new();
        keep(&mut p, FunctionId(1), 0, 128, SimTime::ZERO);
        assert!(p.acquire(FunctionId(2), SimTime::from_secs(1)).is_none());
        assert!(p.acquire(FunctionId(1), SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn evict_for_frees_lru_first_within_shard() {
        let mut p = WarmPool::new();
        keep(&mut p, FunctionId(1), 0, 300, SimTime::from_secs(1)); // oldest, shard 0
        keep(&mut p, FunctionId(2), 0, 300, SimTime::from_secs(2));
        keep(&mut p, FunctionId(3), 1, 300, SimTime::ZERO); // other shard
        let freed = p.evict_for(0, 300);
        assert_eq!(freed, vec![(0, 300)]);
        // the shard-0 survivor is the newer entry (func 2)
        assert_eq!(p.count_at(FunctionId(1), SimTime::from_secs(5)), 0);
        assert_eq!(p.count_at(FunctionId(2), SimTime::from_secs(5)), 1);
        assert_eq!(p.count_at(FunctionId(3), SimTime::from_secs(5)), 1, "shard 1 untouched");
        assert_eq!(p.pinned_for(0), 300);
        assert_eq!(p.pinned_for(1), 300);
    }

    #[test]
    fn evict_for_stops_when_shard_has_no_candidates() {
        let mut p = WarmPool::new();
        keep(&mut p, F, 1, 256, SimTime::ZERO);
        let freed = p.evict_for(0, 1000);
        assert!(freed.is_empty());
    }

    #[test]
    fn multiple_warm_containers_stack() {
        let mut p = WarmPool::new();
        keep(&mut p, F, 0, 100, SimTime::ZERO);
        keep(&mut p, F, 0, 100, SimTime::ZERO);
        assert_eq!(p.count_at(F, SimTime::from_secs(1)), 2);
        assert!(p.acquire(F, SimTime::from_secs(1)).is_some());
        assert!(p.acquire(F, SimTime::from_secs(1)).is_some());
        assert!(p.acquire(F, SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn per_entry_deadlines_can_differ() {
        // A policy may assign different lifetimes to containers of the same
        // function; the pool honours each deadline independently.
        let mut p = WarmPool::new();
        put(&mut p, F, 0, 100, SimTime::ZERO, SimTime::from_secs(5));
        put(&mut p, F, 0, 100, SimTime::ZERO, SimTime::from_secs(50));
        assert_eq!(p.count_at(F, SimTime::from_secs(10)), 1);
        // The expired entry is skipped; the live one serves the hit.
        assert_eq!(p.acquire(F, SimTime::from_secs(10)), Some((0, 100)));
        assert_eq!(p.stats(), (1, 0));
    }

    #[test]
    fn hits_survive_swap_remove_churn() {
        let mut p = WarmPool::new();
        for i in 0..8u32 {
            keep(&mut p, FunctionId(i % 3), (i % 2) as usize, 64, SimTime::from_secs(i as u64));
        }
        let now = SimTime::from_secs(9);
        // Drain function 0 (indices churn under swap_remove each time).
        let mut hits = 0;
        while p.acquire(FunctionId(0), now).is_some() {
            hits += 1;
        }
        assert_eq!(hits, 3);
        assert_eq!(p.count_at(FunctionId(0), now), 0);
        assert_eq!(p.count_at(FunctionId(1), now), 3);
        assert_eq!(p.count_at(FunctionId(2), now), 2);
        let total_pinned = p.pinned_for(0) + p.pinned_for(1);
        assert_eq!(total_pinned, 5 * 64);
    }

    /// Per-entry deadlines out of park order (what `KeepAlive::histogram` hands
    /// out and the fixed-TTL oracle never does), over sparse function ids,
    /// with hits, sweeps and demand evictions interleaved: the books stay
    /// exact after every op, each hit is the first live entry of its function
    /// in scan order, every function's warm count matches a scan, and each
    /// sweep reaps exactly the expired entries.
    #[test]
    fn books_stay_exact_under_out_of_order_deadlines() {
        let mut p = WarmPool::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) % n
        };
        let funcs = [FunctionId(0), FunctionId(1), FunctionId(2), FunctionId(399)];
        let mut reaped = 0;
        for step in 0..3_000u64 {
            let now = SimTime::from_millis(step * 250);
            let func = funcs[draw(4) as usize];
            match draw(5) {
                0 | 1 => {
                    // Anywhere in the next 30 s: a later park often expires first.
                    let keep_until = now + SimDuration::from_millis(draw(30_000));
                    put(&mut p, func, draw(3) as usize, 1 + draw(512), now, keep_until);
                }
                2 => {
                    let want = p
                        .idle
                        .iter()
                        .find(|e| e.func == func && now <= e.keep_until)
                        .map(|e| (e.shard, e.mem_mb));
                    assert_eq!(p.acquire(func, now), want, "hit at step {step}");
                }
                3 => {
                    let want: Vec<_> = p
                        .idle
                        .iter()
                        .filter(|e| now > e.keep_until)
                        .map(|e| (e.shard, e.mem_mb))
                        .collect();
                    assert_eq!(p.evict_expired(now), want, "sweep at step {step}");
                    reaped += want.len();
                }
                _ => {
                    // Shard 3 never holds a pin.
                    let shard = draw(4) as usize;
                    let freed = p.evict_for(shard, draw(1024));
                    assert!(freed.iter().all(|&(s, _)| s == shard));
                }
            }
            for f in funcs {
                let want = p.idle.iter().filter(|e| e.func == f && now <= e.keep_until).count();
                assert_eq!(p.count_at(f, now), want, "count of {f:?} at step {step}");
            }
            p.check_books();
        }
        assert!(p.stats().0 > 0 && p.stats().1 > 0 && reaped > 0, "every path exercised");
    }
}
