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
//! # One expiry-ordered vector
//!
//! A pool is one `Vec` of entries in ascending `(expiry, source id)`, a total
//! order, and every read the design makes is a walk of it in that order or
//! its reverse: `get` hands out latest-expiry-first from the back (the
//! ablations' shortest-lived order from the front), and the health-ping
//! snapshot is the vector copied in order — the order demand coverage folds
//! over ([`crate::coverage`]). Expired entries (`priority ≤ now`) are a
//! prefix: `get_with` settles and drains them in one go before handing
//! anything out, and `snapshot` skips them. A pool holds one entry per
//! harvested resident of its node, a few dozen at most, so finding a source
//! is a scan of the vector and `put` / `remove` shift the entries behind it
//! in place. [`HarvestResourcePool::check_order`] asserts the order; the
//! observationally-equivalent O(n log n) sorted-scan implementation is the
//! proptest oracle, `tests/support/sorted_scan_pool.rs` at the repo root.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use libra_sim::ids::InvocationId;
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimTime;

/// One tracked entry: idle volume still available from a source invocation.
#[derive(Clone, Copy, Debug)]
struct PoolEntry {
    source: InvocationId,
    cpu_idle_millis: u64,
    mem_idle_mb: u64,
    /// Estimated completion timestamp of the source (the priority).
    priority: SimTime,
    /// Last time this entry's idle volume changed (ledger bookkeeping).
    last_touch: SimTime,
}

impl PoolEntry {
    /// The pool's order: expiry, then source id.
    fn key(&self) -> (SimTime, InvocationId) {
        (self.priority, self.source)
    }
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
/// the same position on every run, and the order
/// [`crate::coverage::demand_coverage`] reads.
pub type PoolSnapshot = Vec<PoolEntryStatus>;

/// Hand-out order for [`HarvestResourcePool::get_with`]. The paper's design
/// is [`GetOrder::LongestLived`] ("prioritizes harvested resources that can
/// potentially be utilized longer", Fig 4); the other orders exist for the
/// ablation that quantifies exactly how much that choice matters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOrder {
    /// Latest expiry first — Libra's choice. Ties broken by descending
    /// source id (the pool's order, read from the back).
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
    /// Every entry, in ascending `(priority, source)`.
    entries: Vec<PoolEntry>,
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

    /// Position of `source`'s entry.
    fn find(&self, source: InvocationId) -> Option<usize> {
        self.entries.iter().position(|e| e.source == source)
    }

    /// Accrue the idle volume × time of the entry at `at` since its last
    /// change into the ledger.
    fn settle(&mut self, at: usize, now: SimTime) {
        if let Some(e) = self.entries.get_mut(at) {
            let dt = now.since(e.last_touch).as_micros() as u128;
            self.idle_cpu_integral += e.cpu_idle_millis as u128 * dt;
            self.idle_mem_integral += e.mem_idle_mb as u128 * dt;
            e.last_touch = now;
        }
    }

    /// Evict entries whose priority is `≤ now` — the vector's prefix. Their
    /// remaining idle time is settled into the ledger first, exactly like
    /// `remove`.
    fn evict_expired(&mut self, now: SimTime) {
        let expired = self.entries.partition_point(|e| e.priority <= now);
        for at in 0..expired {
            self.settle(at, now);
        }
        self.entries.drain(..expired);
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
        let mut e = match self.find(source) {
            Some(at) => {
                self.settle(at, now);
                self.entries.remove(at)
            }
            None => {
                PoolEntry { source, cpu_idle_millis: 0, mem_idle_mb: 0, priority, last_touch: now }
            }
        };
        e.cpu_idle_millis += vol.cpu_millis;
        e.mem_idle_mb += vol.mem_mb;
        e.priority = priority;
        let at = self.entries.partition_point(|x| x.key() < e.key());
        self.entries.insert(at, e);
    }

    /// `get`: borrow up to `want` from the pool, best-effort, preferring
    /// entries that stay valid longest (largest priority first, Fig 4).
    /// Returns `(source, volume)` pairs; the sum never exceeds `want`.
    pub fn get(&mut self, want: ResourceVec, now: SimTime) -> Vec<(InvocationId, ResourceVec)> {
        self.get_with(want, now, GetOrder::LongestLived)
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
        let n = self.entries.len();
        match order_by {
            GetOrder::LongestLived => self.hand_out((0..n).rev(), want, now),
            GetOrder::ShortestLived => self.hand_out(0..n, want, now),
            GetOrder::Fifo => {
                // The ablation-only FIFO order is source-id order, not the
                // pool's.
                let mut by_id: Vec<usize> = (0..n).collect();
                by_id.sort_unstable_by_key(|&at| self.entries.get(at).map(|e| e.source));
                self.hand_out(by_id.into_iter(), want, now)
            }
        }
    }

    /// Take from the entries at the positions `order` names, in that order,
    /// until `want` is met. Taking volume moves no entry, so the positions
    /// stay valid throughout.
    fn hand_out(
        &mut self,
        order: impl Iterator<Item = usize>,
        want: ResourceVec,
        now: SimTime,
    ) -> Vec<(InvocationId, ResourceVec)> {
        let mut remaining = want;
        let mut out = Vec::new();
        for at in order {
            debug_assert!(
                self.entries.get(at).is_some_and(|e| e.priority > now),
                "expired entry survived eviction"
            );
            self.settle(at, now);
            let Some(e) = self.entries.get_mut(at) else { continue };
            let take = ResourceVec::new(
                remaining.cpu_millis.min(e.cpu_idle_millis),
                remaining.mem_mb.min(e.mem_idle_mb),
            );
            if !take.is_zero() {
                e.cpu_idle_millis -= take.cpu_millis;
                e.mem_idle_mb -= take.mem_mb;
                remaining -= take;
                out.push((e.source, take));
            }
            if remaining.is_zero() {
                break;
            }
        }
        out
    }

    /// Return previously-borrowed volume to `source`'s entry (re-harvesting,
    /// §5.1): the borrower finished first and the resources are valid again
    /// until the source completes. No-op if the source is no longer tracked
    /// (it already completed — timeliness).
    pub fn give_back(&mut self, source: InvocationId, vol: ResourceVec, now: SimTime) {
        let Some(at) = self.find(source) else { return };
        self.settle(at, now);
        if let Some(e) = self.entries.get_mut(at) {
            e.cpu_idle_millis += vol.cpu_millis;
            e.mem_idle_mb += vol.mem_mb;
        }
    }

    /// Drop `source`'s entry entirely (source completed, OOMed, or was
    /// safeguarded). Returns the idle volume that was still pooled.
    pub fn remove(&mut self, source: InvocationId, now: SimTime) -> ResourceVec {
        let Some(at) = self.find(source) else { return ResourceVec::ZERO };
        self.settle(at, now);
        let e = self.entries.remove(at);
        ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb)
    }

    /// Drop every entry (the node crashed), settling each into the ledger
    /// first, as `remove` would.
    pub fn clear(&mut self, now: SimTime) {
        self.settle_all(now);
        self.entries.clear();
    }

    /// Whether `source` still has an entry.
    pub fn contains(&self, source: InvocationId) -> bool {
        self.find(source).is_some()
    }

    /// Total idle volume currently pooled.
    pub fn total_idle(&self) -> ResourceVec {
        self.entries
            .iter()
            .fold(ResourceVec::ZERO, |a, e| a + ResourceVec::new(e.cpu_idle_millis, e.mem_idle_mb))
    }

    /// Point-in-time status for the health-ping piggyback, expired entries
    /// (priority ≤ now) and emptied ones excluded, written over `buf` (the
    /// scheduler's view keeps one buffer per node, so a ping allocates
    /// nothing). The pool's own order, `(expiry, source id)`, so downstream
    /// computation is deterministic across equal expiries.
    pub fn snapshot_into(&self, now: SimTime, buf: &mut PoolSnapshot) {
        buf.clear();
        let live = self.entries.iter().skip_while(|e| e.priority <= now);
        buf.extend(live.filter(|e| e.cpu_idle_millis > 0 || e.mem_idle_mb > 0).map(|e| {
            PoolEntryStatus {
                cpu_idle_millis: e.cpu_idle_millis,
                mem_idle_mb: e.mem_idle_mb,
                expiry: e.priority,
            }
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
        for at in 0..self.entries.len() {
            self.settle(at, now);
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

    /// Assert the pool's invariant: entries in strictly ascending `(expiry,
    /// source id)`, one per source. Cheap enough for tests and the proptest
    /// oracle; not called on the hot path.
    pub fn check_order(&self) {
        assert!(
            self.entries.is_sorted_by(|a, b| a.key() < b.key()),
            "pool entries out of (expiry, source) order"
        );
        let mut sources: Vec<InvocationId> = self.entries.iter().map(|e| e.source).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), self.entries.len(), "a source has two pool entries");
    }
}

/// Every pool's Fig 10 ledger and operation counters, summed in `pools`'
/// order: `(idle cpu core·seconds, idle memory MB·seconds, puts, gets)`.
pub fn ledger_totals(pools: &[HarvestResourcePool]) -> (f64, f64, u64, u64) {
    pools.iter().fold((0.0, 0.0, 0, 0), |(cpu, mem, puts, gets), p| {
        let ((c, m), (pu, ge)) = (p.idle_ledger(), p.op_counts());
        (cpu + c, mem + m, puts + pu, gets + ge)
    })
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
        pool.check_order();
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
        pool.check_order();
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
        pool.check_order();
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
        pool.check_order();
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
        pool.check_order();
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
    fn entries_keep_expiry_then_id_order_through_re_puts() {
        let mut pool = HarvestResourcePool::new();
        pool.put(inv(7), r(100, 0), t(30), t(0));
        pool.put(inv(2), r(200, 0), t(50), t(0));
        pool.put(inv(9), r(300, 0), t(30), t(0));
        let vols = |p: &HarvestResourcePool| -> Vec<u64> {
            p.snapshot(t(1)).iter().map(|e| e.cpu_idle_millis).collect()
        };
        assert_eq!(vols(&pool), vec![100, 300, 200], "(expiry, id) order");
        // A revised estimate moves the entry to its new place.
        pool.put(inv(2), r(100, 0), t(20), t(1));
        assert_eq!(vols(&pool), vec![300, 100, 300]);
        pool.check_order();
    }

    #[test]
    fn clear_settles_every_entry_like_removing_each() {
        let (mut cleared, mut removed) = (HarvestResourcePool::new(), HarvestResourcePool::new());
        for pool in [&mut cleared, &mut removed] {
            pool.put(inv(1), r(1000, 64), t(50), t(0));
            pool.put(inv(2), r(500, 0), t(40), t(2));
        }
        cleared.clear(t(10));
        removed.remove(inv(1), t(10));
        removed.remove(inv(2), t(10));
        assert!(cleared.is_empty());
        assert_eq!(cleared.idle_ledger(), removed.idle_ledger());
        assert_eq!(cleared.idle_ledger(), (14.0, 640.0));
    }
}
