//! Bounded admission gate: global backpressure when the live shards
//! saturate.
//!
//! Tenant quotas bound each namespace individually; the gate bounds the
//! *sum* — how many invocations the whole gateway will hold in flight
//! against the cluster before it starts shedding load with 503s (and a
//! queue-depth header so clients can make informed retry decisions).
//! Deterministic by construction: one atomic counter, no clocks — the crate
//! denies `clippy::disallowed_types` (`clippy.toml`: `Instant`, `HashMap`, …).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A bounded counting gate over cluster admissions.
#[derive(Debug)]
pub struct AdmissionGate {
    capacity: usize,
    depth: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting up to `capacity` concurrent holders.
    pub fn new(capacity: usize) -> Self {
        AdmissionGate { capacity: capacity.max(1), depth: AtomicUsize::new(0) }
    }

    /// Try to enter; `Err(depth)` reports the saturated depth for the
    /// `X-Queue-Depth` response header.
    pub fn try_enter(&self) -> Result<GatePermit<'_>, usize> {
        let mut cur = self.depth.load(Ordering::SeqCst);
        loop {
            if cur >= self.capacity {
                return Err(cur);
            }
            match self.depth.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return Ok(GatePermit { gate: self }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current holder count.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Configured ceiling.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Occupancy of one gate slot; dropping it releases the slot.
#[derive(Debug)]
pub struct GatePermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.depth.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_bounds_and_releases() {
        let g = AdmissionGate::new(2);
        let a = g.try_enter().expect("slot 1");
        let _b = g.try_enter().expect("slot 2");
        assert_eq!(g.try_enter().expect_err("full"), 2);
        drop(a);
        assert_eq!(g.depth(), 1);
        let _c = g.try_enter().expect("freed slot");
    }

    #[test]
    fn gate_is_race_free_under_contention() {
        let g = std::sync::Arc::new(AdmissionGate::new(8));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let g = std::sync::Arc::clone(&g);
            let peak = std::sync::Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Ok(_p) = g.try_enter() {
                        peak.fetch_max(g.depth(), Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no panics");
        }
        assert!(peak.load(Ordering::SeqCst) <= 8, "depth may never exceed capacity");
        assert_eq!(g.depth(), 0, "all permits released");
    }
}
