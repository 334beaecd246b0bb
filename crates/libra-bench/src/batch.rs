//! Batch scheduling — the paper's acknowledged limitation, implemented.
//!
//! §1 ("Limitations of the proposed approach"): *"Libra's scheduler greedily
//! serves function invocations to reduce decision complexity, which may
//! result in sub-optimal objectives … We opt for such a greedy scheduler to
//! accommodate the sub-second latency requirement."* This module makes that
//! trade-off measurable: given a batch of accelerable requests and the
//! cluster's pool snapshots, it computes both the greedy assignment (each
//! request takes the max-coverage node in arrival order, consuming pool
//! volume as it goes) and the batch-optimal assignment (exhaustive search
//! over node choices, same consumption model), so the optimality gap —
//! and the cost of closing it — can be quantified (`exp ablations`). The
//! greedy side is not a second copy of the production algorithm: each request
//! runs [`libra_core::scheduler::max_coverage`], the scan `place` itself runs.
//! Nothing outside the harness schedules in batches, so it lives here.

use libra_core::coverage::demand_coverage;
use libra_core::pool::{PoolEntryStatus, PoolSnapshot};
use libra_core::scheduler::max_coverage;
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// One accelerable invocation awaiting placement.
#[derive(Clone, Copy, Debug)]
pub struct BatchRequest {
    /// User-defined allocation (admission unit).
    pub nominal: ResourceVec,
    /// Extra demand beyond the allocation.
    pub extra: ResourceVec,
    /// Predicted execution duration (the coverage window).
    pub duration: SimDuration,
}

/// A candidate node: free capacity plus its harvest-pool snapshot.
#[derive(Clone, Debug)]
pub struct BatchNode {
    /// Free capacity for nominal admission.
    pub free: ResourceVec,
    /// Pool snapshot (idle volumes with expiries), in ascending expiry as a
    /// pool's snapshot is.
    pub snapshot: PoolSnapshot,
}

/// The outcome of an assignment strategy.
#[derive(Clone, Debug, PartialEq)]
pub struct Assignment {
    /// Chosen node per request (`None` = unplaceable).
    pub nodes: Vec<Option<usize>>,
    /// Total weighted demand coverage achieved.
    pub total_coverage: f64,
}

/// Consume `extra` from a snapshot, longest-lived entries first — from the
/// back of the expiry-ordered snapshot, as the pool's `get` hands out — so
/// later requests see what an earlier co-located request would actually
/// leave behind.
fn consume(snapshot: &mut PoolSnapshot, extra: ResourceVec) {
    let mut remaining = extra;
    for e in snapshot.iter_mut().rev() {
        if remaining.is_zero() {
            break;
        }
        let take = ResourceVec::new(
            remaining.cpu_millis.min(e.cpu_idle_millis),
            remaining.mem_mb.min(e.mem_idle_mb),
        );
        e.cpu_idle_millis -= take.cpu_millis;
        e.mem_idle_mb -= take.mem_mb;
        remaining -= take;
    }
    snapshot.retain(|e: &PoolEntryStatus| e.cpu_idle_millis > 0 || e.mem_idle_mb > 0);
}

/// Evaluate one full assignment under sequential pool consumption.
/// Returns `None` if any chosen node lacks nominal capacity.
fn evaluate(
    reqs: &[BatchRequest],
    nodes: &[BatchNode],
    choice: &[usize],
    now: SimTime,
    alpha: f64,
) -> Option<f64> {
    let mut free: Vec<ResourceVec> = nodes.iter().map(|n| n.free).collect();
    let mut snaps: Vec<PoolSnapshot> = nodes.iter().map(|n| n.snapshot.clone()).collect();
    let mut total = 0.0;
    for (req, &n) in reqs.iter().zip(choice) {
        if !req.nominal.fits_within(&free[n]) {
            return None;
        }
        free[n] -= req.nominal;
        total += demand_coverage(&snaps[n], req.extra, now, req.duration, alpha);
        consume(&mut snaps[n], req.extra);
    }
    Some(total)
}

/// Greedy assignment: requests in order, each taking the max-coverage node
/// with room (ties to the lower node id) — the accelerable half of the
/// production rule ([`libra_core::scheduler::place`], the very scan it runs)
/// applied to a batch.
pub fn greedy_assign(
    reqs: &[BatchRequest],
    nodes: &[BatchNode],
    now: SimTime,
    alpha: f64,
) -> Assignment {
    let mut free: Vec<ResourceVec> = nodes.iter().map(|n| n.free).collect();
    let mut snaps: Vec<PoolSnapshot> = nodes.iter().map(|n| n.snapshot.clone()).collect();
    let mut out = Vec::with_capacity(reqs.len());
    let mut total = 0.0;
    for req in reqs {
        let fitting = (0..nodes.len())
            .filter(|&n| req.nominal.fits_within(&free[n]))
            .map(|n| (n, snaps[n].as_slice()));
        match max_coverage(req.extra, now, req.duration, alpha, fitting) {
            Some((n, c)) => {
                free[n] -= req.nominal;
                total += c;
                consume(&mut snaps[n], req.extra);
                out.push(Some(n));
            }
            None => out.push(None),
        }
    }
    Assignment { nodes: out, total_coverage: total }
}

/// Batch-optimal assignment by exhaustive search over node choices (every
/// request placed; `None` allowed only when nothing fits). Exponential —
/// `nodes^reqs` — so callers should keep `reqs.len() ≤ ~8` and
/// `nodes.len() ≤ ~4`; that is precisely why the paper ships the greedy.
pub fn optimal_assign(
    reqs: &[BatchRequest],
    nodes: &[BatchNode],
    now: SimTime,
    alpha: f64,
) -> Assignment {
    assert!(
        u32::try_from(reqs.len())
            .ok()
            .and_then(|r| nodes.len().checked_pow(r))
            .is_some_and(|n| n <= 1_000_000),
        "batch too large for exhaustive search ({} nodes ^ {} requests)",
        nodes.len(),
        reqs.len()
    );
    let mut best = greedy_assign(reqs, nodes, now, alpha);
    let mut choice = vec![0usize; reqs.len()];
    loop {
        if let Some(total) = evaluate(reqs, nodes, &choice, now, alpha) {
            if total > best.total_coverage + 1e-12 {
                best = Assignment {
                    nodes: choice.iter().map(|&n| Some(n)).collect(),
                    total_coverage: total,
                };
            }
        }
        // Odometer over node choices.
        let mut i = 0;
        loop {
            if i == choice.len() {
                return best;
            }
            if choice[i] + 1 < nodes.len() {
                choice[i] += 1;
                break;
            }
            choice[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn node(free_cores: u64, entries: &[(u64, u64)]) -> BatchNode {
        BatchNode {
            free: ResourceVec::from_cores_mb(free_cores, 8192),
            snapshot: entries
                .iter()
                .map(|&(cpu, exp)| PoolEntryStatus {
                    cpu_idle_millis: cpu,
                    mem_idle_mb: 256,
                    expiry: t(exp),
                })
                .collect(),
        }
    }

    fn req(extra_cores: u64, secs: u64) -> BatchRequest {
        BatchRequest {
            nominal: ResourceVec::from_cores_mb(2, 512),
            extra: ResourceVec::new(extra_cores * 1000, 0),
            duration: SimDuration::from_secs(secs),
        }
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let nodes = vec![node(8, &[(2000, 100)]), node(8, &[(2000, 6)])];
        let reqs = vec![req(2, 10), req(2, 2)];
        let g = greedy_assign(&reqs, &nodes, t(0), 0.9);
        let o = optimal_assign(&reqs, &nodes, t(0), 0.9);
        assert!(o.total_coverage + 1e-9 >= g.total_coverage);
    }

    #[test]
    fn optimal_fixes_the_classic_greedy_trap() {
        // Request A (long, 10 s) arrives first; request B (short, 4 s)
        // second. Node 0 has long-lived idle, node 1 short-lived (5 s).
        // Greedy gives A the long-lived node — fine — but a greedy order
        // trap appears when A is SHORT and B is LONG: greedy still hands
        // the long-lived pool to the first arrival.
        let nodes = vec![node(2, &[(2000, 100)]), node(2, &[(2000, 5)])];
        let reqs = vec![req(2, 4), req(2, 10)]; // short first, long second
        let g = greedy_assign(&reqs, &nodes, t(0), 0.9);
        let o = optimal_assign(&reqs, &nodes, t(0), 0.9);
        // Greedy: short takes node 0 (coverage 1.0), long left with the
        // 5s pool (coverage 0.5) -> 1.5. Optimal: short on node 1 (5s covers
        // 4s fully -> 1.0), long on node 0 -> 2.0.
        assert!(g.total_coverage < o.total_coverage - 0.1, "greedy {g:?} vs optimal {o:?}");
        assert_eq!(o.nodes, vec![Some(1), Some(0)]);
    }

    #[test]
    fn capacity_constraints_are_respected() {
        // One node fits only one request's nominal.
        let nodes = vec![node(2, &[(4000, 100)])];
        let reqs = vec![req(2, 5), req(2, 5)];
        let g = greedy_assign(&reqs, &nodes, t(0), 0.9);
        assert_eq!(g.nodes, vec![Some(0), None]);
        let o = optimal_assign(&reqs, &nodes, t(0), 0.9);
        assert!(o.total_coverage + 1e-9 >= g.total_coverage);
    }

    #[test]
    fn shared_pool_consumption_is_sequential() {
        // Two requests on one node share a single 2-core entry: the second
        // sees nothing left.
        let nodes = vec![node(8, &[(2000, 100)])];
        let reqs = vec![req(2, 5), req(2, 5)];
        let g = greedy_assign(&reqs, &nodes, t(0), 0.9);
        // First fully covered on CPU (0.9 weight) + mem trivially (0.1):
        // the entry carries only 256 MB and extra.mem = 0 -> mem coverage 1.
        assert!((g.total_coverage - (1.0 + 0.1)).abs() < 1e-9, "{g:?}");
    }

    #[test]
    fn consumption_takes_the_longest_lived_entry_first() {
        // Two 2-core entries, valid 5 s and 100 s. The first request takes
        // the long-lived one, so the second, over 10 s, is covered for half
        // its window: 0.9 · 0.5 on CPU plus the memory weight (no extra).
        let nodes = vec![node(8, &[(2000, 5), (2000, 100)])];
        let reqs = vec![req(2, 10), req(2, 10)];
        let g = greedy_assign(&reqs, &nodes, t(0), 0.9);
        assert!((g.total_coverage - (1.0 + 0.9 * 0.5 + 0.1)).abs() < 1e-9, "{g:?}");
    }

    #[test]
    #[should_panic(expected = "batch too large")]
    fn exhaustive_guard_trips() {
        let nodes: Vec<BatchNode> = (0..10).map(|_| node(8, &[])).collect();
        let reqs: Vec<BatchRequest> = (0..10).map(|_| req(1, 1)).collect();
        let _ = optimal_assign(&reqs, &nodes, t(0), 0.9);
    }
}
