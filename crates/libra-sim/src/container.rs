//! Warm-container tracking with memory pinning.
//!
//! OpenWhisk keeps a container pool on each invoker: an invocation of
//! function *k* can reuse an idle warm container for *k* on the same node and
//! skip the cold start (container creation + dependency installation, §6.3
//! footnote 4). Hash-based scheduling exists precisely to increase warm hits.
//!
//! Idle warm containers **pin memory**: a paused container's heap stays
//! resident, charged against the shard slice that admitted it, until the
//! container is reused (the pin transfers to the new invocation's own
//! charge), expires past its keep-until deadline, or is evicted because
//! admission needs the room. The engine drives those three paths.
//!
//! *Who decides the deadline?* Not this pool. Each entry carries an absolute
//! `keep_until` stamped at park time by the keep-alive policy in charge
//! (`Platform::warm_keep`; see `libra-core`'s `keepalive` module). The pool
//! is pure mechanism: it stores deadlines, answers warm hits, and reaps
//! expired pins.
//!
//! Lookups are indexed: one sorted `(function, position)` index, in which
//! each function's positions form one ascending (= scan order) run found by
//! binary search, makes `acquire`/`count_at` proportional to that
//! *function's* idle set instead of the whole node's; a per-shard pin gauge,
//! indexed by shard, makes `pinned_for` O(1); and a cached earliest deadline
//! lets the periodic expiry sweep return without scanning when nothing can
//! have expired. Removals update both indexes in place — a warm hit moves
//! two positions, a reaped or demand-evicted entry shifts the later ones
//! down one — so nothing on the periodic path is rebuilt, re-sorted or
//! allocated (beyond the returned pins). The
//! pre-index linear-scan implementation survives as the equivalence-proptest
//! oracle, `tests/support/seed_warm_pool.rs` at the repo root.

use crate::ids::FunctionId;
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
    /// `(idle[i].func, i)` for every position `i`, sorted: each function's
    /// positions form one ascending (= scan order) run.
    by_func: Vec<(FunctionId, usize)>,
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

    /// `func`'s idle positions, ascending: its run in `by_func`.
    fn positions(&self, func: FunctionId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.by_func.partition_point(|&(f, _)| f < func);
        let hi = self.by_func.partition_point(|&(f, _)| f <= func);
        self.by_func[lo..hi].iter().map(|&(_, i)| i)
    }

    /// Add position `i` (already in `idle`) to the function index.
    fn index_insert(&mut self, i: usize) {
        let key = (self.idle[i].func, i);
        let at = self.by_func.partition_point(|&k| k < key);
        self.by_func.insert(at, key);
    }

    /// Drop position `i` from the function index (entry still in `idle`).
    fn index_remove(&mut self, i: usize) {
        if let Ok(at) = self.by_func.binary_search(&(self.idle[i].func, i)) {
            self.by_func.remove(at);
        }
    }

    /// Remove the entry at position `i` preserving the exact `swap_remove`
    /// semantics the scan implementation had: the last entry moves into the
    /// hole, so only two positions change.
    fn swap_remove_at(&mut self, i: usize) -> WarmEntry {
        let last = self.idle.len() - 1;
        self.index_remove(i);
        if i != last {
            self.index_remove(last);
        }
        let e = self.idle.swap_remove(i);
        if i < self.idle.len() {
            self.index_insert(i);
        }
        if let Some(p) = self.pinned_shard.get_mut(e.shard) {
            *p = p.saturating_sub(e.mem_mb);
        }
        e
    }

    /// Remove the entry at position `i` the way `Vec::remove` does: every
    /// later entry shifts down one, keeping its order, so the index stays
    /// sorted with each later position decremented in place.
    fn remove_at(&mut self, i: usize) -> WarmEntry {
        self.index_remove(i);
        for (_, p) in &mut self.by_func {
            if *p > i {
                *p -= 1;
            }
        }
        let e = self.idle.remove(i);
        if let Some(p) = self.pinned_shard.get_mut(e.shard) {
            *p = p.saturating_sub(e.mem_mb);
        }
        e
    }

    /// Try to take a warm container for `func`. On a hit, returns
    /// `Some((shard, pinned_mem))` — the caller must credit that release
    /// back to the shard's slice (the pin transfers to the new invocation).
    /// Expired entries are ignored (the engine reaps them via
    /// [`WarmPool::evict_expired`]).
    pub fn acquire(&mut self, func: FunctionId, now: SimTime) -> Option<(usize, u64)> {
        let pos = self.positions(func).find(|&i| now <= self.idle[i].keep_until);
        match pos {
            Some(i) => {
                let e = self.swap_remove_at(i);
                self.warm_hits += 1;
                Some((e.shard, e.mem_mb))
            }
            None => {
                self.cold_starts += 1;
                None
            }
        }
    }

    /// Park a completed (or prewarmed) container as warm, pinning `mem_mb`
    /// against `shard` until the policy-assigned `keep_until` deadline.
    pub fn release(
        &mut self,
        func: FunctionId,
        shard: usize,
        mem_mb: u64,
        now: SimTime,
        keep_until: SimTime,
    ) {
        self.idle.push(WarmEntry { func, shard, mem_mb, idle_since: now, keep_until });
        self.index_insert(self.idle.len() - 1);
        if shard >= self.pinned_shard.len() {
            self.pinned_shard.resize(shard + 1, 0);
        }
        self.pinned_shard[shard] += mem_mb;
        self.next_expiry = Some(self.next_expiry.map_or(keep_until, |m| m.min(keep_until)));
    }

    /// Reap entries past their keep-until deadline, returning the
    /// `(shard, mem)` pins to credit back. Returns without scanning when the
    /// cached earliest deadline proves nothing can have expired; a sweep
    /// that reaps nothing allocates nothing.
    pub fn evict_expired(&mut self, now: SimTime) -> Vec<(usize, u64)> {
        match self.next_expiry {
            Some(e) if now > e => {}
            _ => return Vec::new(),
        }
        let mut expired = Vec::new();
        let mut i = 0;
        while let Some(e) = self.idle.get(i) {
            if now > e.keep_until {
                let e = self.remove_at(i);
                expired.push((e.shard, e.mem_mb));
            } else {
                i += 1;
            }
        }
        self.next_expiry = self.idle.iter().map(|e| e.keep_until).min();
        expired
    }

    /// Evict LRU warm containers pinned to `shard` until at least `need_mb`
    /// of memory is freed (or the pool is out of candidates). Returns the
    /// freed pins.
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
                    let e = self.remove_at(i);
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
        self.positions(func).filter(|&i| now <= self.idle[i].keep_until).count()
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

    /// Pins of every entry (used when tearing a node down in tests).
    pub fn drain_all(&mut self) -> Vec<(usize, u64)> {
        let out = self.idle.drain(..).map(|e| (e.shard, e.mem_mb)).collect();
        self.by_func.clear();
        self.pinned_shard.fill(0);
        self.next_expiry = None;
        out
    }

    /// Assert the index invariants: `by_func` is exactly
    /// `{(idle[i].func, i)}`, ascending; every shard's gauge (one past the
    /// last shard too) is the sum of its entries' pins; and `next_expiry` is
    /// no later than any entry's deadline.
    #[cfg(test)]
    fn check_index(&self) {
        let mut want: Vec<_> = self.idle.iter().enumerate().map(|(i, e)| (e.func, i)).collect();
        want.sort_unstable();
        assert_eq!(self.by_func, want, "function index diverged from the pool");
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
    use crate::time::SimDuration;

    const F: FunctionId = FunctionId(1);
    const TTL: SimDuration = SimDuration(60 * 1_000_000);

    /// Park with the classic fixed-TTL deadline (what the engine's default
    /// `warm_keep` hook computes).
    fn park(p: &mut WarmPool, func: FunctionId, shard: usize, mem: u64, now: SimTime) {
        p.release(func, shard, mem, now, now + TTL);
    }

    #[test]
    fn first_acquire_is_cold() {
        let mut p = WarmPool::new();
        assert!(p.acquire(F, SimTime::ZERO).is_none());
        assert_eq!(p.stats(), (0, 1));
    }

    #[test]
    fn release_then_acquire_is_warm_and_returns_pin() {
        let mut p = WarmPool::new();
        park(&mut p, F, 1, 512, SimTime::from_secs(1));
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
        p.release(F, 0, 256, SimTime::ZERO, SimTime::from_secs(10));
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
        p.release(F, 0, 256, SimTime::ZERO, SimTime::from_secs(100));
        // Nothing can be expired yet: the sweep must return empty (and the
        // entry must survive).
        assert!(p.evict_expired(SimTime::from_secs(50)).is_empty());
        assert_eq!(p.count_at(F, SimTime::from_secs(50)), 1);
    }

    #[test]
    fn functions_do_not_share_containers() {
        let mut p = WarmPool::new();
        park(&mut p, FunctionId(1), 0, 128, SimTime::ZERO);
        assert!(p.acquire(FunctionId(2), SimTime::from_secs(1)).is_none());
        assert!(p.acquire(FunctionId(1), SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn evict_for_frees_lru_first_within_shard() {
        let mut p = WarmPool::new();
        park(&mut p, FunctionId(1), 0, 300, SimTime::from_secs(1)); // oldest, shard 0
        park(&mut p, FunctionId(2), 0, 300, SimTime::from_secs(2));
        park(&mut p, FunctionId(3), 1, 300, SimTime::ZERO); // other shard
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
        park(&mut p, F, 1, 256, SimTime::ZERO);
        let freed = p.evict_for(0, 1000);
        assert!(freed.is_empty());
    }

    #[test]
    fn multiple_warm_containers_stack() {
        let mut p = WarmPool::new();
        park(&mut p, F, 0, 100, SimTime::ZERO);
        park(&mut p, F, 0, 100, SimTime::ZERO);
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
        p.release(F, 0, 100, SimTime::ZERO, SimTime::from_secs(5));
        p.release(F, 0, 100, SimTime::ZERO, SimTime::from_secs(50));
        assert_eq!(p.count_at(F, SimTime::from_secs(10)), 1);
        // The expired entry is skipped; the live one serves the hit.
        assert_eq!(p.acquire(F, SimTime::from_secs(10)), Some((0, 100)));
        assert_eq!(p.stats(), (1, 0));
    }

    #[test]
    fn index_survives_swap_remove_churn() {
        let mut p = WarmPool::new();
        for i in 0..8u32 {
            park(&mut p, FunctionId(i % 3), (i % 2) as usize, 64, SimTime::from_secs(i as u64));
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

    /// Per-entry deadlines out of park order (what `HistogramPolicy` hands
    /// out and the fixed-TTL oracle never does), over sparse function ids,
    /// with hits, sweeps and demand evictions interleaved: the index stays
    /// exact after every op, each hit is the first live entry of its function
    /// in scan order, and each sweep reaps exactly the expired entries.
    #[test]
    fn index_stays_exact_under_out_of_order_deadlines() {
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
                    p.release(func, draw(3) as usize, 1 + draw(512), now, keep_until);
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
            p.check_index();
        }
        assert!(p.stats().0 > 0 && p.stats().1 > 0 && reaped > 0, "every path exercised");
    }
}
