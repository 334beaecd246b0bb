//! Demand coverage as first written: collect each dimension's nonzero
//! entries, collect, sort and dedup the expiry cuts inside the window, then
//! re-sum the entries valid through each segment — order-free and
//! O(n²) per dimension. Kept as the oracle the in-place fold of
//! `libra::core::coverage` must match bit for bit.

use libra::core::pool::PoolEntryStatus;
use libra::sim::resources::ResourceVec;
use libra::sim::time::{SimDuration, SimTime};

/// Coverage of a one-dimensional demand (`units` over `[start, start+dur]`)
/// by pool entries `(volume, expiry)`, in any order.
pub fn coverage_1d(
    entries: &[(u64, SimTime)],
    units: u64,
    start: SimTime,
    dur: SimDuration,
) -> f64 {
    if units == 0 || dur.as_micros() == 0 {
        return 1.0;
    }
    let end = start + dur;
    let mut cuts: Vec<SimTime> =
        entries.iter().map(|&(_, e)| e).filter(|&e| e > start && e < end).collect();
    cuts.push(end);
    cuts.sort();
    cuts.dedup();

    let mut covered: u128 = 0; // unit·µs
    let mut seg_start = start;
    for cut in cuts {
        let avail: u64 = entries.iter().filter(|&&(_, e)| e >= cut).map(|&(v, _)| v).sum();
        let seg = cut.since(seg_start).as_micros() as u128;
        covered += (avail.min(units) as u128) * seg;
        seg_start = cut;
    }
    let demand_area = units as u128 * dur.as_micros() as u128;
    (covered as f64 / demand_area as f64).clamp(0.0, 1.0)
}

/// Weighted demand coverage over `[now, now + dur]`, the snapshot in any
/// order.
pub fn demand_coverage(
    snapshot: &[PoolEntryStatus],
    extra: ResourceVec,
    now: SimTime,
    dur: SimDuration,
    alpha: f64,
) -> f64 {
    let cpu_entries: Vec<(u64, SimTime)> = snapshot
        .iter()
        .filter(|e| e.cpu_idle_millis > 0)
        .map(|e| (e.cpu_idle_millis, e.expiry))
        .collect();
    let mem_entries: Vec<(u64, SimTime)> =
        snapshot.iter().filter(|e| e.mem_idle_mb > 0).map(|e| (e.mem_idle_mb, e.expiry)).collect();
    let dc = coverage_1d(&cpu_entries, extra.cpu_millis, now, dur);
    let dm = coverage_1d(&mem_entries, extra.mem_mb, now, dur);
    alpha * dc + (1.0 - alpha) * dm
}
