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
//! Lookups are indexed: a per-function ordered position index makes
//! `acquire`/`count_at` proportional to that *function's* idle set instead
//! of the whole node's, a per-shard pin gauge makes `pinned_for` O(log s),
//! and a cached earliest deadline lets the periodic expiry sweep return
//! without scanning when nothing can have expired. The pre-index
//! linear-scan implementation survives as the equivalence-proptest oracle,
//! `tests/support/seed_warm_pool.rs` at the repo root.

use crate::ids::FunctionId;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

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
    /// Positions into `idle`, per function, in ascending (= scan) order.
    by_func: BTreeMap<FunctionId, BTreeSet<usize>>,
    /// Memory pinned per shard, *including* expired-but-unreaped entries.
    pinned_shard: BTreeMap<usize, u64>,
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

    /// Drop position `i` from the function index (entry still in `idle`).
    fn index_remove(&mut self, i: usize) {
        let func = self.idle[i].func;
        if let Some(set) = self.by_func.get_mut(&func) {
            set.remove(&i);
            if set.is_empty() {
                self.by_func.remove(&func);
            }
        }
    }

    /// Remove the entry at position `i` preserving the exact `swap_remove`
    /// semantics the scan implementation had: the last entry moves into the
    /// hole, so every index update is O(log n).
    fn swap_remove_at(&mut self, i: usize) -> WarmEntry {
        let last = self.idle.len() - 1;
        self.index_remove(i);
        if i != last {
            self.index_remove(last);
        }
        let e = self.idle.swap_remove(i);
        if i < self.idle.len() {
            let moved = self.idle[i].func;
            self.by_func.entry(moved).or_default().insert(i);
        }
        if let Some(p) = self.pinned_shard.get_mut(&e.shard) {
            *p = p.saturating_sub(e.mem_mb);
        }
        e
    }

    /// Recompute every index from `idle` (after bulk removals that shift
    /// positions: the expiry sweep and demand eviction).
    fn rebuild_index(&mut self) {
        self.by_func.clear();
        self.pinned_shard.clear();
        self.next_expiry = None;
        for (i, e) in self.idle.iter().enumerate() {
            self.by_func.entry(e.func).or_default().insert(i);
            *self.pinned_shard.entry(e.shard).or_default() += e.mem_mb;
            self.next_expiry =
                Some(self.next_expiry.map_or(e.keep_until, |m: SimTime| m.min(e.keep_until)));
        }
    }

    /// Try to take a warm container for `func`. On a hit, returns
    /// `Some((shard, pinned_mem))` — the caller must credit that release
    /// back to the shard's slice (the pin transfers to the new invocation).
    /// Expired entries are ignored (the engine reaps them via
    /// [`WarmPool::evict_expired`]).
    pub fn acquire(&mut self, func: FunctionId, now: SimTime) -> Option<(usize, u64)> {
        let pos = self
            .by_func
            .get(&func)
            .and_then(|set| set.iter().copied().find(|&i| now <= self.idle[i].keep_until));
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
        let pos = self.idle.len();
        self.idle.push(WarmEntry { func, shard, mem_mb, idle_since: now, keep_until });
        self.by_func.entry(func).or_default().insert(pos);
        *self.pinned_shard.entry(shard).or_default() += mem_mb;
        self.next_expiry = Some(self.next_expiry.map_or(keep_until, |m| m.min(keep_until)));
    }

    /// Reap entries past their keep-until deadline, returning the
    /// `(shard, mem)` pins to credit back. Returns without scanning when the
    /// cached earliest deadline proves nothing can have expired.
    pub fn evict_expired(&mut self, now: SimTime) -> Vec<(usize, u64)> {
        match self.next_expiry {
            Some(e) if now > e => {}
            _ => return Vec::new(),
        }
        let (expired, live): (Vec<WarmEntry>, Vec<WarmEntry>) =
            self.idle.drain(..).partition(|e| now > e.keep_until);
        self.idle = live;
        self.rebuild_index();
        expired.into_iter().map(|e| (e.shard, e.mem_mb)).collect()
    }

    /// Evict LRU warm containers pinned to `shard` until at least `need_mb`
    /// of memory is freed (or the pool is out of candidates). Returns the
    /// freed pins.
    pub fn evict_for(&mut self, shard: usize, need_mb: u64, _now: SimTime) -> Vec<(usize, u64)> {
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
                    total += e.mem_mb;
                    freed.push((e.shard, e.mem_mb));
                }
                None => break,
            }
        }
        if !freed.is_empty() {
            self.rebuild_index();
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
        self.by_func
            .get(&func)
            .map_or(0, |set| set.iter().filter(|&&i| now <= self.idle[i].keep_until).count())
    }

    /// Total memory currently pinned by live warm containers (diagnostics).
    pub fn pinned_mem_mb(&self, now: SimTime) -> u64 {
        self.idle.iter().filter(|e| now <= e.keep_until).map(|e| e.mem_mb).sum()
    }

    /// Memory physically pinned against `shard` — *including* expired
    /// entries that have not been reaped yet (an expired paused container
    /// still holds its heap until the pool tears it down).
    pub fn pinned_for(&self, shard: usize) -> u64 {
        self.pinned_shard.get(&shard).copied().unwrap_or(0)
    }

    /// Pins of every entry (used when tearing a node down in tests).
    pub fn drain_all(&mut self) -> Vec<(usize, u64)> {
        let out = self.idle.drain(..).map(|e| (e.shard, e.mem_mb)).collect();
        self.by_func.clear();
        self.pinned_shard.clear();
        self.next_expiry = None;
        out
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
        let freed = p.evict_for(0, 300, SimTime::from_secs(5));
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
        let freed = p.evict_for(0, 1000, SimTime::from_secs(1));
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
}
