//! Demand coverage (§6.2).
//!
//! Resource availability has two dimensions — volume and timeliness — so a
//! node's attractiveness for an accelerable invocation is measured by how
//! much of the invocation's *extra* demand, integrated over its predicted
//! execution window, the node's harvested resources can cover:
//!
//! ```text
//!               ∫ₜᵗ⁺ᵈ min(available(τ), demand) dτ
//! coverage  =  ────────────────────────────────────
//!                         demand × d
//! ```
//!
//! where `available(τ)` sums pool entries whose expiry is after τ (Fig 5:
//! "we count the entire d from t3 to t5 and only part of e from t5 to t7").
//! CPU and memory coverages are combined as `D = α·D_cpu + (1−α)·D_mem` with
//! α > 0.5 because harvested idle cores are more precious than memory.
//!
//! A pool snapshot is already in ascending expiry ([`crate::pool`]), so the
//! step function `available(τ)` is read straight off it: walking back from
//! the latest expiry, each expiry inside the window closes a segment, and
//! the entry's volume joins what is valid before it. The walk stops at the
//! first entry expired by `now` and allocates nothing; the integral is exact
//! in unit·µs, and only the final ratio is a float.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::pool::PoolEntryStatus;
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// Coverage in `[0, 1]` of a one-dimensional demand (`units` over `[now,
/// now + dur]`) by an expiry-ordered snapshot, `vol` reading the dimension's
/// volume off an entry. A zero demand (or zero window) is trivially fully
/// covered.
fn coverage_1d(
    snapshot: &[PoolEntryStatus],
    vol: impl Fn(&PoolEntryStatus) -> u64,
    units: u64,
    now: SimTime,
    dur: SimDuration,
) -> f64 {
    if units == 0 || dur.as_micros() == 0 {
        return 1.0;
    }
    // `avail` is the volume valid through the segment ending at `seg_end`;
    // `covered` is Σ min(avail, units) × length of the segments closed so far.
    let (mut avail, mut covered, mut seg_end) = (0u64, 0u128, now + dur);
    for e in snapshot.iter().rev().take_while(|e| e.expiry > now) {
        if e.expiry < seg_end {
            covered +=
                u128::from(avail.min(units)) * u128::from(seg_end.since(e.expiry).as_micros());
            seg_end = e.expiry;
        }
        avail += vol(e);
    }
    covered += u128::from(avail.min(units)) * u128::from(seg_end.since(now).as_micros());
    let demand_area = u128::from(units) * u128::from(dur.as_micros());
    (covered as f64 / demand_area as f64).clamp(0.0, 1.0)
}

/// Weighted demand coverage for an invocation needing `extra` resources over
/// `[now, now + dur]`, given a node's pool snapshot, which must be in
/// ascending expiry as every pool snapshot is (debug-asserted).
/// `alpha` weights CPU vs memory (default 0.9, §8.2.3).
pub fn demand_coverage(
    snapshot: &[PoolEntryStatus],
    extra: ResourceVec,
    now: SimTime,
    dur: SimDuration,
    alpha: f64,
) -> f64 {
    debug_assert!(snapshot.is_sorted_by_key(|e| e.expiry), "snapshot out of expiry order");
    let dc = coverage_1d(snapshot, |e| e.cpu_idle_millis, extra.cpu_millis, now, dur);
    let dm = coverage_1d(snapshot, |e| e.mem_idle_mb, extra.mem_mb, now, dur);
    alpha * dc + (1.0 - alpha) * dm
}

/// An upper bound on [`demand_coverage`] over any window longer than zero:
/// each dimension is covered at most `min(1, Σ volume / demand)`, summed
/// over the entries the coverage reads (those expiring after `now`), and a
/// zero dimension fully. `None` when it reads no entry: then every snapshot
/// covers alike. The bound and the coverage differ in their roundings by a
/// few ulps.
pub(crate) fn volume_bound(
    snapshot: &[PoolEntryStatus],
    extra: ResourceVec,
    now: SimTime,
    alpha: f64,
) -> Option<f64> {
    let (mut cpu, mut mem, mut read) = (0u64, 0u64, false);
    for e in snapshot.iter().rev().take_while(|e| e.expiry > now) {
        cpu = cpu.saturating_add(e.cpu_idle_millis);
        mem = mem.saturating_add(e.mem_idle_mb);
        read = true;
    }
    let frac = |vol: u64, units: u64| {
        if units == 0 {
            1.0
        } else {
            (vol as f64 / units as f64).min(1.0)
        }
    };
    // A weight below zero takes the dimension's least coverage, 0.
    read.then(|| {
        alpha.max(0.0) * frac(cpu, extra.cpu_millis)
            + (1.0 - alpha).max(0.0) * frac(mem, extra.mem_mb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// CPU coverage of `units` by `(volume, expiry)` entries, given in any
    /// order (sorted here, as a pool would hold them).
    fn cpu_coverage(
        entries: &[(u64, SimTime)],
        units: u64,
        start: SimTime,
        dur: SimDuration,
    ) -> f64 {
        let mut snap: Vec<PoolEntryStatus> = entries
            .iter()
            .map(|&(v, e)| PoolEntryStatus { cpu_idle_millis: v, mem_idle_mb: 0, expiry: e })
            .collect();
        snap.sort_by_key(|e| e.expiry);
        coverage_1d(&snap, |e| e.cpu_idle_millis, units, start, dur)
    }

    #[test]
    fn coverage_figure5_example() {
        // Fig 5's arithmetic with expiries only (a snapshot is a point in
        // time, so an entry that *joins* later cannot be expressed): one unit
        // valid the whole window [t3, t7] and one unit valid for its first
        // half. First 2 s: both valid, min(2, 2) = 2; last 2 s: one valid, 1.
        // Covered 2·2 + 1·2 = 6 over a demand area of 2·4 = 8.
        let c = cpu_coverage(&[(1, t(8)), (1, t(5))], 2, t(3), d(4));
        assert!((c - 0.75).abs() < 1e-9, "coverage {c}");
    }

    #[test]
    fn zero_demand_is_fully_covered() {
        assert_eq!(cpu_coverage(&[], 0, t(0), d(10)), 1.0);
        assert_eq!(cpu_coverage(&[(5, t(1))], 3, t(0), SimDuration::ZERO), 1.0);
    }

    #[test]
    fn empty_pool_covers_nothing() {
        assert_eq!(cpu_coverage(&[], 2, t(0), d(10)), 0.0);
    }

    #[test]
    fn full_coverage_when_volume_and_time_suffice() {
        assert!((cpu_coverage(&[(4, t(100))], 2, t(0), d(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expired_entries_do_not_count() {
        assert_eq!(cpu_coverage(&[(4, t(1))], 2, t(5), d(10)), 0.0);
        // An entry expiring exactly at the start counts for nothing either.
        assert_eq!(cpu_coverage(&[(4, t(5))], 2, t(5), d(10)), 0.0);
    }

    #[test]
    fn partial_time_coverage_scales_linearly() {
        // 2 units valid for half the window, demand 2 -> coverage 0.5
        let c = cpu_coverage(&[(2, t(5))], 2, t(0), d(10));
        assert!((c - 0.5).abs() < 1e-9, "coverage {c}");
    }

    #[test]
    fn volume_caps_at_demand() {
        // 100 units available but only 2 demanded: still 1.0, not more.
        assert!((cpu_coverage(&[(100, t(100))], 2, t(0), d(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equal_expiries_and_an_expiry_at_the_window_end_count_whole() {
        // Two 1-unit entries expiring together at t4, one expiring exactly
        // at the window's end: 3 units for 4 s, then 1 for 6 s.
        let c = cpu_coverage(&[(1, t(4)), (1, t(4)), (1, t(10))], 3, t(0), d(10));
        assert!((c - 18.0 / 30.0).abs() < 1e-12, "coverage {c}");
    }

    #[test]
    fn weighted_coverage_combines_dimensions() {
        let snap = vec![PoolEntryStatus { cpu_idle_millis: 2000, mem_idle_mb: 0, expiry: t(100) }];
        // CPU fully covered, memory demand uncovered.
        let c = demand_coverage(&snap, ResourceVec::new(2000, 512), t(0), d(10), 0.9);
        assert!((c - 0.9).abs() < 1e-9, "coverage {c}");
        // alpha = 0.5 weights them evenly
        let c2 = demand_coverage(&snap, ResourceVec::new(2000, 512), t(0), d(10), 0.5);
        assert!((c2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn no_extra_demand_means_full_coverage() {
        let c = demand_coverage(&[], ResourceVec::ZERO, t(0), d(10), 0.9);
        assert!((c - 1.0).abs() < 1e-12);
    }
}
