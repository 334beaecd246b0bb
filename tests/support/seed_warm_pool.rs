//! The pre-policy warm pool: linear scans over a `Vec`, fixed keep-alive TTL
//! applied to every entry. Kept as the proptest oracle (the per-entry-deadline
//! pool under a fixed-TTL policy must be event-for-event equivalent).

use libra::sim::ids::FunctionId;
use libra::sim::time::{SimDuration, SimTime};

#[derive(Clone, Copy, Debug)]
struct WarmEntry {
    func: FunctionId,
    shard: usize,
    mem_mb: u64,
    idle_since: SimTime,
}

/// The pre-refactor pool, verbatim: one hard-coded TTL, linear scans.
#[derive(Default, Debug)]
pub struct WarmPool {
    idle: Vec<WarmEntry>,
    keepalive: SimDuration,
    warm_hits: u64,
    cold_starts: u64,
}

impl WarmPool {
    /// Create a pool with the given keep-alive window.
    pub fn new(keepalive: SimDuration) -> Self {
        WarmPool { idle: Vec::new(), keepalive, warm_hits: 0, cold_starts: 0 }
    }

    /// First-matching-scan warm hit (see `container::WarmPool::acquire`).
    pub fn acquire(&mut self, func: FunctionId, now: SimTime) -> Option<(usize, u64)> {
        let keepalive = self.keepalive;
        let pos =
            self.idle.iter().position(|e| e.func == func && now.since(e.idle_since) <= keepalive);
        match pos {
            Some(i) => {
                let e = self.idle.swap_remove(i);
                self.warm_hits += 1;
                Some((e.shard, e.mem_mb))
            }
            None => {
                self.cold_starts += 1;
                None
            }
        }
    }

    /// Park a container (TTL applied implicitly).
    pub fn release(&mut self, func: FunctionId, shard: usize, mem_mb: u64, now: SimTime) {
        self.idle.push(WarmEntry { func, shard, mem_mb, idle_since: now });
    }

    /// Full-scan expiry sweep.
    pub fn evict_expired(&mut self, now: SimTime) -> Vec<(usize, u64)> {
        let keepalive = self.keepalive;
        let (expired, live): (Vec<WarmEntry>, Vec<WarmEntry>) =
            self.idle.drain(..).partition(|e| now.since(e.idle_since) > keepalive);
        self.idle = live;
        expired.into_iter().map(|e| (e.shard, e.mem_mb)).collect()
    }

    /// LRU demand eviction within one shard.
    pub fn evict_for(&mut self, shard: usize, need_mb: u64) -> Vec<(usize, u64)> {
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
        freed
    }

    /// Full-scan live count.
    pub fn count_at(&self, func: FunctionId, now: SimTime) -> usize {
        self.idle
            .iter()
            .filter(|e| e.func == func && now.since(e.idle_since) <= self.keepalive)
            .count()
    }

    /// Full-scan per-shard pin gauge (expired included).
    pub fn pinned_for(&self, shard: usize) -> u64 {
        self.idle.iter().filter(|e| e.shard == shard).map(|e| e.mem_mb).sum()
    }

    /// (warm hits, cold starts) served so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.warm_hits, self.cold_starts)
    }
}
