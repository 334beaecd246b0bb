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
use libra_sim::metrics::remix64;
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
    for i in 0..n {
        let r = remix64(&mut z);
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

    /// `live_closed` and `gateway_closed` replay this stream, so it is
    /// pinned: `(at_ms, func, work_mcore_ms, pred cpu, pred mem, pred µs)`.
    #[test]
    fn mixed_workload_stream_is_pinned() {
        let want = [
            (19, 5, 2_843_652, 2_094, 484, 1_358_000),
            (40, 7, 1_752_960, 1_408, 454, 1_245_000),
            (50, 3, 2_702_375, 1_663, 452, 1_625_000),
            (90, 7, 5_864_352, 3_048, 512, 1_924_000),
            (106, 1, 626_056, 1_126, 358, 556_000),
            (127, 1, 2_926_380, 5_134, 512, 570_000),
            (158, 7, 3_992_373, 4_851, 512, 823_000),
            (183, 7, 1_742_807, 3_371, 512, 517_000),
        ];
        let got: Vec<_> = mixed_workload(8, 42)
            .iter()
            .map(|r| {
                let p = r.pred.unwrap();
                (r.at_ms, r.func, r.work_mcore_ms, p.cpu_millis, p.mem_mb, p.duration.as_micros())
            })
            .collect();
        assert_eq!(got, want);
        assert!(mixed_workload(8, 42)
            .iter()
            .all(|r| r.pred.unwrap().path == PredictionPath::Histogram));
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
