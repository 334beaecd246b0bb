//! The harvest resource pool (§5.1).
//!
//! One pool per worker node tracks idle resources harvested from
//! over-provisioned invocations as `(invo_id, hvst_resource_vol, priority)`
//! tuples, where the priority is the *estimated completion timestamp* of the
//! source invocation: entries that will stay valid longer are handed out
//! first (`get` is latest-expiry-first), because a borrower keeps harvested
//! resources only until their source completes (the timeliness law, §3.1).
//!
//! The pool also keeps the idle-time ledger behind Fig 10: for every entry it
//! accumulates `idle volume × time` while harvested resources sit unused, the
//! quantity the paper uses to compare how well schedulers exploit harvested
//! resources ("a lower value indicates a better utilization").
//!
//! # The expiry index
//!
//! `get` is the hot path of every accelerate decision, so the pool keeps an
//! expiry-ordered index `BTreeSet<(SimTime, InvocationId)>` in lockstep with
//! the entry map. Invariants (checked by [`HarvestResourcePool::check_index`]
//! in debug builds):
//!
//! * every `(id → entry)` in the map has exactly the key
//!   `(entry.priority, id)` in the index, and `|index| == |map|`;
//! * keys never go stale: `put` re-keys when it revises a priority, and
//!   `remove` deletes map and index together;
//! * expired entries (`priority ≤ now`) are **lazily evicted** from the index
//!   head on every `get_with` — they are never handed out and never survive a
//!   hand-out pass, while the read-only `snapshot()` simply skips them.
//!
//! This makes `put`/`remove` O(log n), `get` O(k log n) for k grants, and
//! `snapshot`/`sources` a single in-order walk with no per-call sort. The
//! observationally-equivalent O(n log n) sorted-scan implementation is the
//! proptest oracle, `tests/support/sorted_scan_pool.rs` at the repo root.

use libra_sim::ids::InvocationId;
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{Excluded, Unbounded};

/// One tracked entry: idle volume still available from a source invocation.
#[derive(Clone, Copy, Debug)]
struct PoolEntry {
    cpu_idle_millis: u64,
    mem_idle_mb: u64,
    /// Estimated completion timestamp of the source (the priority).
    priority: SimTime,
    /// Last time this entry's idle volume changed (ledger bookkeeping).
    last_touch: SimTime,
}

/// A point-in-time view of one entry, as piggybacked in health pings for the
/// schedulers' demand-coverage computation (§6.2, §6.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolEntryStatus {
    /// Idle CPU still available (millicores).
    pub cpu_idle_millis: u64,
    /// Idle memory still available (MB).
    pub mem_idle_mb: u64,
    /// When these resources expire (source's estimated completion).
    pub expiry: SimTime,
}

/// A snapshot of a whole pool (the health-ping payload), ordered by
/// `(expiry, source id)` — a total order, so equal-expiry entries appear in
/// the same position on every run.
pub type PoolSnapshot = Vec<PoolEntryStatus>;

/// Hand-out order for [`HarvestResourcePool::get_with`]. The paper's design
/// is [`GetOrder::LongestLived`] ("prioritizes harvested resources that can
/// potentially be utilized longer", Fig 4); the other orders exist for the
/// ablation that quantifies exactly how much that choice matters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOrder {
    /// Latest expiry first — Libra's choice. Ties broken by descending
    /// source id (the index walk order).
    LongestLived,
    /// Insertion order (oldest source id first) — a FIFO pool, what a
    /// timeliness-unaware implementation would do.
    Fifo,
    /// Earliest expiry first — the adversarial worst case. Ties broken by
    /// ascending source id.
    ShortestLived,
}

/// The per-node harvest resource pool.
#[derive(Debug, Default)]
pub struct HarvestResourcePool {
    entries: BTreeMap<InvocationId, PoolEntry>,
    /// Expiry-ordered index over `entries`, keyed `(priority, id)`.
    by_expiry: BTreeSet<(SimTime, InvocationId)>,
    puts: u64,
    gets: u64,
    /// Σ idle cpu × time, in millicore·µs.
    idle_cpu_integral: u128,
    /// Σ idle mem × time, in MB·µs.
    idle_mem_integral: u128,
}

impl HarvestResourcePool {
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

    /// Evict entries whose priority is `≤ now` — they sit at the head of the
    /// expiry index, so this pops until the head is live. Their remaining
    /// idle time is settled into the ledger first, exactly like `remove`.
    fn evict_expired(&mut self, now: SimTime) {
        while let Some(&(priority, id)) = self.by_expiry.first() {
            if priority > now {
                break;
            }
            self.settle(id, now);
            self.entries.remove(&id);
            self.by_expiry.remove(&(priority, id));
        }
    }

    /// `put`: track `vol` harvested from `source`, expiring at `priority`
    /// (the source's estimated completion timestamp). Merges with an existing
    /// entry for the same source; a re-put **adopts the latest estimate**, so
    /// a source whose completion was revised earlier no longer advertises its
    /// stale later expiry.
    pub fn put(&mut self, source: InvocationId, vol: ResourceVec, priority: SimTime, now: SimTime) {
        if vol.is_zero() {
            return;
        }
        self.puts += 1;
        self.settle(source, now);
        match self.entries.get_mut(&source) {
            Some(e) => {
                e.cpu_idle_millis += vol.cpu_millis;
                e.mem_idle_mb += vol.mem_mb;
                if e.priority != priority {
                    self.by_expiry.remove(&(e.priority, source));
                    e.priority = priority;
                    self.by_expiry.insert((priority, source));
                }
            }
            None => {
                self.entries.insert(
                    source,
                    PoolEntry {
                        cpu_idle_millis: vol.cpu_millis,
                        mem_idle_mb: vol.mem_mb,
                        priority,
                        last_touch: now,
                    },
                );
                self.by_expiry.insert((priority, source));
            }
        }
    }

    /// `get`: borrow up to `want` from the pool, best-effort, preferring
    /// entries that stay valid longest (largest priority first, Fig 4).
    /// Returns `(source, volume)` pairs; the sum never exceeds `want`.
    pub fn get(&mut self, want: ResourceVec, now: SimTime) -> Vec<(InvocationId, ResourceVec)> {
        self.get_with(want, now, GetOrder::LongestLived)
    }

    /// Next index key after `cursor` in the walk direction of `order_by`
    /// (`None` cursor = start of the walk). O(log n) per step.
    fn step(
        &self,
        order_by: GetOrder,
        cursor: Option<(SimTime, InvocationId)>,
    ) -> Option<(SimTime, InvocationId)> {
        match (order_by, cursor) {
            (GetOrder::LongestLived, None) => self.by_expiry.last().copied(),
            (GetOrder::LongestLived, Some(c)) => self.by_expiry.range(..c).next_back().copied(),
            (GetOrder::ShortestLived, None) => self.by_expiry.first().copied(),
            (GetOrder::ShortestLived, Some(c)) => {
                self.by_expiry.range((Excluded(c), Unbounded)).next().copied()
            }
            (GetOrder::Fifo, _) => unreachable!("fifo does not walk the expiry index"),
        }
    }

    /// `get` with an explicit hand-out order (see [`GetOrder`]). Entries
    /// whose expiry has passed (`priority ≤ now`) are never handed out — the
    /// timeliness law — and are lazily evicted from the pool here.
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
        self.evict_expired(now);
        let mut remaining = want;
        let mut out = Vec::new();
        let mut take_from = |pool: &mut Self, id: InvocationId| {
            pool.settle(id, now);
            let Some(e) = pool.entries.get_mut(&id) else {
                debug_assert!(false, "pool entry for {id:?} vanished mid-get");
                return remaining.is_zero();
            };
            let take = ResourceVec::new(
                remaining.cpu_millis.min(e.cpu_idle_millis),
                remaining.mem_mb.min(e.mem_idle_mb),
            );
            if !take.is_zero() {
                e.cpu_idle_millis -= take.cpu_millis;
                e.mem_idle_mb -= take.mem_mb;
                remaining -= take;
                out.push((id, take));
            }
            remaining.is_zero()
        };
        if order_by == GetOrder::Fifo {
            // The ablation-only FIFO order is id order, not expiry order; it
            // keeps the pre-index sorted scan.
            let mut order: Vec<InvocationId> = self.entries.keys().copied().collect();
            order.sort_unstable();
            for id in order {
                if take_from(self, id) {
                    break;
                }
            }
        } else {
            // Walk the index step by step: taking volume never changes a key
            // (only `put`/`remove` re-key), so the cursor stays valid.
            let mut cursor = None;
            while let Some(key) = self.step(order_by, cursor) {
                debug_assert!(key.0 > now, "expired entry survived eviction");
                if take_from(self, key.1) {
                    break;
                }
                cursor = Some(key);
            }
        }
        out
    }

    /// Return previously-borrowed volume to `source`'s entry (re-harvesting,
    /// §5.1): the borrower finished first and the resources are valid again
    /// until the source completes. No-op if the source is no longer tracked
    /// (it already completed — timeliness).
    pub fn give_back(&mut self, source: InvocationId, vol: ResourceVec, now: SimTime) {
        self.settle(source, now);
        if let Some(e) = self.entries.get_mut(&source) {
            e.cpu_idle_millis += vol.cpu_millis;
            e.mem_idle_mb += vol.mem_mb;
        }
    }

    /// Drop `source`'s entry entirely (source completed, OOMed, or was
    /// safeguarded). Returns the idle volume that was still pooled.
    pub fn remove(&mut self, source: InvocationId, now: SimTime) -> ResourceVec {
        self.settle(source, now);
        match self.entries.remove(&source) {
            Some(e) => {
                self.by_expiry.remove(&(e.priority, source));
                ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb)
            }
            None => ResourceVec::ZERO,
        }
    }

    /// Source invocations with entries, in expiry-index order — `(expiry,
    /// id)`, a total order, so sweeps are deterministic.
    pub fn sources(&self) -> Vec<InvocationId> {
        self.by_expiry.iter().map(|&(_, id)| id).collect()
    }

    /// Whether `source` still has an entry.
    pub fn contains(&self, source: InvocationId) -> bool {
        self.entries.contains_key(&source)
    }

    /// Total idle volume currently pooled.
    pub fn total_idle(&self) -> ResourceVec {
        self.entries
            .values()
            .fold(ResourceVec::ZERO, |a, e| a + ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb))
    }

    /// Point-in-time status for the health-ping piggyback, expired entries
    /// (priority ≤ now) excluded, written over `buf` (the scheduler's view
    /// keeps one buffer per node, so a ping allocates nothing). Read straight
    /// off the expiry index, so the result is ordered by the total key
    /// `(expiry, source id)` — deterministic downstream computation even
    /// across equal expiries.
    pub fn snapshot_into(&self, now: SimTime, buf: &mut PoolSnapshot) {
        buf.clear();
        let live = self.by_expiry.iter().skip_while(|&&(priority, _)| priority <= now);
        buf.extend(live.filter_map(|&(priority, id)| {
            let e = &self.entries[&id];
            (e.cpu_idle_millis > 0 || e.mem_idle_mb > 0).then_some(PoolEntryStatus {
                cpu_idle_millis: e.cpu_idle_millis,
                mem_idle_mb: e.mem_idle_mb,
                expiry: priority,
            })
        }));
    }

    /// [`Self::snapshot_into`] a fresh buffer.
    pub fn snapshot(&self, now: SimTime) -> PoolSnapshot {
        let mut buf = PoolSnapshot::new();
        self.snapshot_into(now, &mut buf);
        buf
    }

    /// Bring the ledger up to `now` for all entries (call before reading the
    /// integrals at end of run).
    pub fn settle_all(&mut self, now: SimTime) {
        let ids: Vec<InvocationId> = self.entries.keys().copied().collect();
        for id in ids {
            self.settle(id, now);
        }
    }

    /// The Fig 10 ledger: `(idle cpu core·seconds, idle memory MB·seconds)`.
    pub fn idle_ledger(&self) -> (f64, f64) {
        (self.idle_cpu_integral as f64 / 1e9, self.idle_mem_integral as f64 / 1e6)
    }

    /// `(puts, gets)` operation counters (§8.10 overhead accounting).
    pub fn op_counts(&self) -> (u64, u64) {
        (self.puts, self.gets)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assert the index invariants (map and index in lockstep). Cheap enough
    /// for tests and the proptest oracle; not called on the hot path.
    pub fn check_index(&self) {
        assert_eq!(self.entries.len(), self.by_expiry.len(), "index/map size diverged");
        for (id, e) in &self.entries {
            assert!(
                self.by_expiry.contains(&(e.priority, *id)),
                "entry {id:?} (priority {:?}) missing from the expiry index",
                e.priority
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn inv(n: u32) -> InvocationId {
        InvocationId(n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn r(cpu: u64, mem: u64) -> ResourceVec {
        ResourceVec::new(cpu, mem)
    }

    #[test]
    fn figure_4_scenario() {
        // Invocation 1 arrives at t1, one idle unit, completes at t4.
        // Invocation 2 arrives at t2, two idle units, completes at t3 (< t4).
        // At t2, invocation 4 wants two units: the pool must hand out one
        // unit from #1 (longest-lived) and one from #2.
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(1000, 0), t(40), t(10));
        pool.put(inv(2), r(2000, 0), t(30), t(20));
        let got = pool.get(r(2000, 0), t(20));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, inv(1), "latest-expiring entry first");
        assert_eq!(got[0].1, r(1000, 0));
        assert_eq!(got[1].0, inv(2));
        assert_eq!(got[1].1, r(1000, 0));
        assert_eq!(pool.total_idle(), r(1000, 0), "one unit of #2 remains");
        pool.check_index();
    }

    #[test]
    fn get_is_best_effort() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(500, 64), t(10), t(0));
        let got = pool.get(r(2000, 256), t(1));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, r(500, 64), "returns what exists, not what was asked");
        assert!(pool.total_idle().is_zero());
    }

    #[test]
    fn get_can_mix_dimensions_across_entries() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(1000, 0), t(50), t(0));
        pool.put(inv(2), r(0, 512), t(40), t(0));
        let got = pool.get(r(1000, 512), t(1));
        let total: ResourceVec = got.iter().fold(ResourceVec::ZERO, |a, (_, v)| a + *v);
        assert_eq!(total, r(1000, 512));
    }

    #[test]
    fn give_back_reharvests_only_if_tracked() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(1000, 128), t(60), t(0));
        let got = pool.get(r(1000, 128), t(5));
        assert_eq!(got.len(), 1);
        pool.give_back(inv(1), r(1000, 128), t(10));
        assert_eq!(pool.total_idle(), r(1000, 128));
        // After the source is gone, give_back is a no-op.
        pool.remove(inv(1), t(20));
        pool.give_back(inv(1), r(1000, 128), t(25));
        assert!(pool.total_idle().is_zero());
        assert!(!pool.contains(inv(1)));
        pool.check_index();
    }

    #[test]
    fn snapshot_excludes_expired_and_empty() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(1000, 0), t(10), t(0));
        pool.put(inv(2), r(2000, 64), t(100), t(0));
        let snap = pool.snapshot(t(50));
        assert_eq!(snap.len(), 1, "entry 1 expired at t10");
        assert_eq!(snap[0].expiry, t(100));
        // Drain entry 2 and snapshot again.
        pool.get(r(2000, 64), t(51));
        assert!(pool.snapshot(t(52)).is_empty());
    }

    #[test]
    fn get_never_lends_from_expired_entries() {
        // Regression (timeliness law, §3.1): `snapshot` always excluded
        // expired entries, but `get_with` used to hand them out anyway, so
        // schedulers and the pool disagreed about what was available.
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(2000, 256), t(10), t(0));
        pool.put(inv(2), r(1000, 128), t(100), t(0));
        let got = pool.get(r(3000, 384), t(50));
        assert_eq!(got.len(), 1, "expired entry 1 must not be lent");
        assert_eq!(got[0].0, inv(2));
        assert_eq!(got[0].1, r(1000, 128));
        // Expired entries are lazily evicted during the get.
        assert!(!pool.contains(inv(1)), "expired entry must be evicted");
        assert_eq!(pool.len(), 1);
        pool.check_index();
    }

    #[test]
    fn get_on_fully_expired_pool_returns_nothing_and_evicts() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(1000, 0), t(10), t(0));
        for order in [GetOrder::LongestLived, GetOrder::Fifo, GetOrder::ShortestLived] {
            assert!(pool.get_with(r(500, 0), t(20), order).is_empty(), "{order:?}");
        }
        assert!(pool.is_empty(), "expired entries evicted on first get");
    }

    #[test]
    fn idle_ledger_accumulates_volume_times_time() {
        let mut pool = HarvestResourcePool::new();
        // 2 cores idle for 10 s -> 20 core·s
        pool.put(inv(1), r(2000, 100), t(0), t(0));
        pool.settle_all(t(10));
        let (cpu, mem) = pool.idle_ledger();
        assert!((cpu - 20.0).abs() < 1e-9, "cpu ledger {cpu}");
        assert!((mem - 1000.0).abs() < 1e-9, "mem ledger {mem}");
        // Borrow everything: ledger stops growing.
        pool.get(r(2000, 100), t(10));
        pool.settle_all(t(30));
        let (cpu2, _) = pool.idle_ledger();
        assert!((cpu2 - 20.0).abs() < 1e-9, "borrowed time is not idle time, {cpu2}");
    }

    #[test]
    fn merge_put_adopts_latest_estimate() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(500, 0), t(10), t(0));
        pool.put(inv(1), r(500, 0), t(30), t(5));
        let snap = pool.snapshot(t(6));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].cpu_idle_millis, 1000);
        assert_eq!(snap[0].expiry, t(30));
        pool.check_index();
    }

    #[test]
    fn merge_put_adopts_earlier_revised_estimate() {
        // Regression: a re-put used to keep `max(old, new)` priority, so a
        // source whose completion estimate was *revised earlier* kept
        // advertising its stale later expiry — overstating demand coverage
        // and handing out volume past the source's real completion.
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(500, 0), t(30), t(0));
        pool.put(inv(1), r(500, 0), t(10), t(5));
        let snap = pool.snapshot(t(6));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].expiry, t(10), "re-put must adopt the latest estimate");
        // And at t20 the (now expired) entry is neither visible nor lendable.
        assert!(pool.snapshot(t(20)).is_empty());
        assert!(pool.get(r(1000, 0), t(20)).is_empty());
        pool.check_index();
    }

    #[test]
    fn snapshot_order_is_total_for_equal_expiries() {
        // Regression: the snapshot used to sort by expiry only, leaving
        // equal-expiry entries in HashMap iteration order — nondeterminism
        // that leaked into the batched scheduler's tie-breaks. The index
        // orders by (expiry, id), so volumes must come out in id order.
        let mut pool = HarvestResourcePool::new();
        for i in (0..40).rev() {
            pool.put(inv(i), r(100 + i as u64, 16), t(50), t(0));
        }
        let snap = pool.snapshot(t(1));
        assert_eq!(snap.len(), 40);
        let vols: Vec<u64> = snap.iter().map(|e| e.cpu_idle_millis).collect();
        let mut sorted = vols.clone();
        sorted.sort_unstable();
        assert_eq!(vols, sorted, "equal-expiry entries must come out in id order");
    }

    #[test]
    fn get_with_orders_differ_only_in_source_choice() {
        for order in [GetOrder::LongestLived, GetOrder::Fifo, GetOrder::ShortestLived] {
            let mut pool = HarvestResourcePool::new();
            pool.put(inv(1), r(1000, 0), t(40), t(0)); // long-lived
            pool.put(inv(2), r(1000, 0), t(10), t(0)); // short-lived
            let got = pool.get_with(r(1000, 0), t(1), order);
            assert_eq!(got.len(), 1);
            let expect = match order {
                GetOrder::LongestLived => inv(1),
                GetOrder::Fifo => inv(1), // id order: 1 before 2
                GetOrder::ShortestLived => inv(2),
            };
            assert_eq!(got[0].0, expect, "{order:?}");
            // Total taken identical regardless of order.
            assert_eq!(got[0].1, r(1000, 0));
        }
    }

    #[test]
    fn fifo_prefers_lowest_id_even_when_short_lived() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(5), r(500, 0), t(100), t(0));
        pool.put(inv(3), r(500, 0), t(5), t(0));
        let got = pool.get_with(r(500, 0), t(1), GetOrder::Fifo);
        assert_eq!(got[0].0, inv(3));
    }

    #[test]
    fn op_counters_track_put_get() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(1), r(100, 0), t(10), t(0));
        pool.put(inv(2), ResourceVec::ZERO, t(10), t(0)); // ignored
        pool.get(r(50, 0), t(1));
        pool.get(ResourceVec::ZERO, t(1)); // ignored
        assert_eq!(pool.op_counts(), (1, 1));
        assert_eq!(pool.len(), 1);
        assert!(!pool.is_empty());
    }

    #[test]
    fn sources_walk_the_expiry_index() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(7), r(100, 0), t(30), t(0));
        pool.put(inv(2), r(100, 0), t(50), t(0));
        pool.put(inv(9), r(100, 0), t(30), t(0));
        assert_eq!(pool.sources(), vec![inv(7), inv(9), inv(2)], "(expiry, id) order");
    }
}
