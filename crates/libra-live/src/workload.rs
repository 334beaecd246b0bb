//! Live workloads: real-time invocation requests.
//!
//! The live platform validates Libra's *concurrent control plane* — the
//! races between harvesting, acceleration, safeguard releases, OOM restarts
//! and the timeliness revocations at completion — so its workload format
//! carries the resolved facts of each invocation (allocation, true CPU/memory
//! demand, work) plus the control plane's *belief* about it (an optional
//! [`Prediction`]). Predictions may deliberately mispredict: that is how the
//! live runtime exercises the safeguard and OOM paths the simulator
//! validates deterministically.

use libra_sim::invocation::{Prediction, PredictionPath};
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimDuration;

/// One invocation request for the live platform.
#[derive(Clone, Copy, Debug)]
pub struct LiveRequest {
    /// Arrival offset from workload start, in scaled milliseconds.
    pub at_ms: u64,
    /// Function id (drives hashing/warm locality and the safeguard's
    /// per-function history).
    pub func: u32,
    /// User-defined allocation.
    pub alloc: ResourceVec,
    /// True CPU demand in millicores (what the code can actually use).
    pub demand_cpu_millis: u64,
    /// True memory footprint peak in MB (ramps 25 % → 100 % over the
    /// execution, the same model the simulator uses).
    pub demand_mem_mb: u64,
    /// OOM memory floor the platform must leave with this function (§5.1).
    pub mem_floor_mb: u64,
    /// Total CPU work in millicore-milliseconds: running at `demand` for
    /// `work / demand` milliseconds completes it.
    pub work_mcore_ms: u64,
    /// The control plane's demand estimate (`None` = unprofiled: serve at
    /// the user allocation, no harvesting).
    pub pred: Option<Prediction>,
}

impl LiveRequest {
    /// Execution time in (scaled) milliseconds at full demand.
    pub fn base_duration_ms(&self) -> u64 {
        self.work_mcore_ms / self.demand_cpu_millis.max(1)
    }
}

/// A synthetic live workload mixing over-provisioned donors and
/// under-provisioned acceptors — the harvesting opportunity in miniature.
/// Predictions are exact on CPU and padded by a third on donor memory, so
/// the mix exercises CPU+memory harvesting and acceleration without
/// tripping the safeguard (dedicated tests mispredict on purpose).
pub fn mixed_workload(n: usize, seed: u64) -> Vec<LiveRequest> {
    let mut out = Vec::with_capacity(n);
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..n {
        let r = next();
        let donor = r % 10 < 6; // 60% donors
        let (alloc_c, demand_c) = if donor {
            (4_000u64, 800 + (r >> 8) % 1_400) // uses 0.8-2.2 of 4 cores
        } else {
            (2_000, 3_000 + (r >> 8) % 3_000) // wants 3-6, allocated 2
        };
        let demand_mem = 192 + (r >> 16) % 192; // 192-384 MB of 512
        let dur_ms = 400 + (r >> 20) % 1_600; // 0.4-2.0 s at demand
                                              // Donors keep a third of headroom above the true footprint so the
                                              // ramping usage stays under the 0.8 safeguard threshold; acceptors
                                              // are predicted at their full memory allocation (CPU-only loans).
        let pred_mem = if donor { (demand_mem + demand_mem / 3).min(512) } else { 512 };
        out.push(LiveRequest {
            at_ms: (i as u64) * 25 + (r >> 40) % 25,
            func: (r % 8) as u32,
            alloc: ResourceVec::new(alloc_c, 512),
            demand_cpu_millis: demand_c,
            demand_mem_mb: demand_mem,
            mem_floor_mb: 64,
            work_mcore_ms: demand_c * dur_ms,
            pred: Some(Prediction {
                cpu_millis: demand_c,
                mem_mb: pred_mem,
                duration: SimDuration::from_millis(dur_ms),
                path: PredictionPath::Histogram,
            }),
        });
    }
    out.sort_by_key(|r| r.at_ms);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_relate_to_allocation() {
        let r = LiveRequest {
            at_ms: 0,
            func: 0,
            alloc: ResourceVec::new(2_000, 512),
            demand_cpu_millis: 4_000,
            demand_mem_mb: 256,
            mem_floor_mb: 64,
            work_mcore_ms: 4_000 * 1_000,
            pred: None,
        };
        assert_eq!(r.base_duration_ms(), 1_000);
    }

    #[test]
    fn mixed_workload_is_sorted_and_mixed() {
        let w = mixed_workload(100, 7);
        assert_eq!(w.len(), 100);
        assert!(w.windows(2).all(|p| p[0].at_ms <= p[1].at_ms));
        let donors = w.iter().filter(|r| r.demand_cpu_millis < r.alloc.cpu_millis).count();
        let acceptors = w.iter().filter(|r| r.demand_cpu_millis > r.alloc.cpu_millis).count();
        assert!(donors > 20 && acceptors > 20, "{donors} donors, {acceptors} acceptors");
        // Predictions never undershoot the true footprint (the benign mix),
        // and donor predictions leave memory to harvest.
        assert!(w.iter().all(|r| r.pred.unwrap().mem_mb >= r.demand_mem_mb));
        assert!(w
            .iter()
            .any(|r| r.demand_cpu_millis < r.alloc.cpu_millis
                && r.pred.unwrap().mem_mb < r.alloc.mem_mb));
    }

    #[test]
    fn mixed_workload_is_deterministic() {
        let a = mixed_workload(50, 3);
        let b = mixed_workload(50, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_ms, y.at_ms);
            assert_eq!(x.work_mcore_ms, y.work_mcore_ms);
            assert_eq!(x.demand_mem_mb, y.demand_mem_mb);
            assert_eq!(x.pred, y.pred);
        }
    }
}
