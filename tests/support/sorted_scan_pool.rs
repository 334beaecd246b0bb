//! The pre-index sorted-scan pool: observationally equivalent to
//! `HarvestResourcePool` but re-sorting all
//! entries on every `get`/`snapshot`. Kept as the oracle for the
//! equivalence proptest — not for production use.

use libra::core::pool::{GetOrder, PoolEntryStatus, PoolSnapshot};
use libra::sim::ids::InvocationId;
use libra::sim::resources::ResourceVec;
use libra::sim::time::SimTime;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug)]
struct Entry {
    cpu_idle_millis: u64,
    mem_idle_mb: u64,
    priority: SimTime,
    last_touch: SimTime,
}

/// Sorted-scan twin of the indexed pool (same semantics, O(n log n) get).
#[derive(Debug, Default)]
pub struct SortedScanPool {
    entries: BTreeMap<InvocationId, Entry>,
    puts: u64,
    gets: u64,
    idle_cpu_integral: u128,
    idle_mem_integral: u128,
}

impl SortedScanPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn settle(&mut self, id: InvocationId, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&id) {
            let dt = now.since(e.last_touch).as_micros() as u128;
            self.idle_cpu_integral += e.cpu_idle_millis as u128 * dt;
            self.idle_mem_integral += e.mem_idle_mb as u128 * dt;
            e.last_touch = now;
        }
    }

    /// See `HarvestResourcePool::put`.
    pub fn put(&mut self, source: InvocationId, vol: ResourceVec, priority: SimTime, now: SimTime) {
        if vol.is_zero() {
            return;
        }
        self.puts += 1;
        self.settle(source, now);
        let e = self.entries.entry(source).or_insert(Entry {
            cpu_idle_millis: 0,
            mem_idle_mb: 0,
            priority,
            last_touch: now,
        });
        e.cpu_idle_millis += vol.cpu_millis;
        e.mem_idle_mb += vol.mem_mb;
        e.priority = priority;
    }

    /// Full-sort hand-out: evicts expired entries, sorts the survivors by
    /// the same total orders as the indexed pool, then scans.
    pub fn get_with(
        &mut self,
        want: ResourceVec,
        now: SimTime,
        order_by: GetOrder,
    ) -> Vec<(InvocationId, ResourceVec)> {
        if want.is_zero() || self.entries.is_empty() {
            return Vec::new();
        }
        self.gets += 1;
        let expired: Vec<InvocationId> =
            self.entries.iter().filter(|(_, e)| e.priority <= now).map(|(id, _)| *id).collect();
        for id in expired {
            self.settle(id, now);
            self.entries.remove(&id);
        }
        let mut order: Vec<InvocationId> = self.entries.keys().copied().collect();
        order.sort_by(|a, b| {
            let (ea, eb) = (&self.entries[a], &self.entries[b]);
            match order_by {
                GetOrder::LongestLived => eb.priority.cmp(&ea.priority).then(b.cmp(a)),
                GetOrder::Fifo => a.cmp(b),
                GetOrder::ShortestLived => ea.priority.cmp(&eb.priority).then(a.cmp(b)),
            }
        });
        let mut remaining = want;
        let mut out = Vec::new();
        for id in order {
            if remaining.is_zero() {
                break;
            }
            self.settle(id, now);
            let Some(e) = self.entries.get_mut(&id) else {
                debug_assert!(false, "pool entry for {id:?} vanished mid-get");
                continue;
            };
            let take = ResourceVec::new(
                remaining.cpu_millis.min(e.cpu_idle_millis),
                remaining.mem_mb.min(e.mem_idle_mb),
            );
            if take.is_zero() {
                continue;
            }
            e.cpu_idle_millis -= take.cpu_millis;
            e.mem_idle_mb -= take.mem_mb;
            remaining -= take;
            out.push((id, take));
        }
        out
    }

    /// See `HarvestResourcePool::give_back`.
    pub fn give_back(&mut self, source: InvocationId, vol: ResourceVec, now: SimTime) {
        self.settle(source, now);
        if let Some(e) = self.entries.get_mut(&source) {
            e.cpu_idle_millis += vol.cpu_millis;
            e.mem_idle_mb += vol.mem_mb;
        }
    }

    /// See `HarvestResourcePool::remove`.
    pub fn remove(&mut self, source: InvocationId, now: SimTime) -> ResourceVec {
        self.settle(source, now);
        self.entries
            .remove(&source)
            .map(|e| ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb))
            .unwrap_or(ResourceVec::ZERO)
    }

    /// Collect-and-sort snapshot with the same `(expiry, id)` total order
    /// as the indexed pool.
    pub fn snapshot(&self, now: SimTime) -> PoolSnapshot {
        let mut v: Vec<(SimTime, InvocationId)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.priority > now && (e.cpu_idle_millis > 0 || e.mem_idle_mb > 0))
            .map(|(id, e)| (e.priority, *id))
            .collect();
        v.sort_unstable();
        v.into_iter()
            .map(|(priority, id)| {
                let e = &self.entries[&id];
                PoolEntryStatus {
                    cpu_idle_millis: e.cpu_idle_millis,
                    mem_idle_mb: e.mem_idle_mb,
                    expiry: priority,
                }
            })
            .collect()
    }

    /// Total idle volume currently pooled.
    pub fn total_idle(&self) -> ResourceVec {
        self.entries
            .values()
            .fold(ResourceVec::ZERO, |a, e| a + ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb))
    }

    /// The Fig 10 ledger, as in the indexed pool.
    pub fn idle_ledger(&self) -> (f64, f64) {
        (self.idle_cpu_integral as f64 / 1e9, self.idle_mem_integral as f64 / 1e6)
    }

    /// `(puts, gets)` counters, as in the indexed pool.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.puts, self.gets)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}
