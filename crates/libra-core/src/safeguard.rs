//! The safeguard (§5.2).
//!
//! A daemon-per-container in the real system; here, per-tick usage checks.
//! When a harvested invocation's CPU or memory usage approaches its
//! (reduced) allocation — the monitor window crossing the threshold,
//! default 0.8 — Libra immediately returns *everything* harvested from it
//! via preemptive release, before mispredictions can hurt it.
//!
//! This module owns the trigger rule and the per-function escalation
//! bookkeeping: functions that repeatedly trigger the safeguard (or OOM)
//! stop having their *memory* harvested at all (§5.1 "Mitigating OOM").

use libra_sim::engine::UsageSample;

/// Safeguard trips before a function's memory harvesting stops.
const MEM_BLACKLIST_AFTER: u32 = 3;

/// Safeguard state for one platform instance.
#[derive(Clone, Debug)]
pub struct Safeguard {
    /// Usage/allocation ratio that trips the safeguard.
    pub threshold: f64,
    triggers: u64,
    func_trips: Vec<u32>,
    mem_blacklist: Vec<bool>,
}

impl Safeguard {
    /// Create safeguard state for `n_funcs` functions.
    pub fn new(n_funcs: usize, threshold: f64) -> Self {
        Safeguard {
            threshold,
            triggers: 0,
            func_trips: vec![0; n_funcs],
            mem_blacklist: vec![false; n_funcs],
        }
    }

    /// The trigger rule: does this usage observation demand a preemptive
    /// release? (Checked only for invocations that actually had resources
    /// harvested — the caller guards that.)
    ///
    /// CPU uses the kernel's throttling signal (the cgroup wanted more than
    /// its quota — running *at* a correctly-predicted quota is fine, which
    /// is why Fig 1's harvested DH keeps its grant); memory uses the
    /// usage/allocation ratio, because footprint growth towards the grant
    /// must be stopped *before* it becomes an OOM.
    pub fn should_trigger(&self, usage: &UsageSample) -> bool {
        usage.cpu_throttled || usage.mem_ratio() >= self.threshold
    }

    /// Record a trigger for function `f`; escalates to the memory blacklist
    /// after `MEM_BLACKLIST_AFTER` trips.
    pub fn record_trigger(&mut self, f: usize) {
        self.triggers += 1;
        self.func_trips[f] += 1;
        if self.func_trips[f] >= MEM_BLACKLIST_AFTER {
            self.mem_blacklist[f] = true;
        }
    }

    /// Record an OOM for function `f` — immediate memory blacklist (an OOM
    /// is strictly worse than a near-miss).
    pub fn record_oom(&mut self, f: usize) {
        self.triggers += 1;
        self.func_trips[f] = self.func_trips[f].max(MEM_BLACKLIST_AFTER);
        self.mem_blacklist[f] = true;
    }

    /// Is memory harvesting disabled for `f`?
    pub fn mem_blacklisted(&self, f: usize) -> bool {
        self.mem_blacklist[f]
    }

    /// Total triggers so far.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::resources::ResourceVec;

    fn usage(
        cpu_busy: u64,
        cpu_alloc: u64,
        mem_used: u64,
        mem_alloc: u64,
        throttled: bool,
    ) -> UsageSample {
        UsageSample {
            cpu_busy_millis: cpu_busy,
            mem_used_mb: mem_used,
            cpu_throttled: throttled,
            effective: ResourceVec::new(cpu_alloc, mem_alloc),
            nominal: ResourceVec::new(cpu_alloc, mem_alloc),
        }
    }

    #[test]
    fn triggers_on_throttle_or_memory_pressure() {
        let s = Safeguard::new(1, 0.8);
        // Running at 90% of quota without throttling is fine (Fig 1's DH).
        assert!(!s.should_trigger(&usage(900, 1000, 100, 1000, false)));
        assert!(s.should_trigger(&usage(1000, 1000, 100, 1000, true)), "throttled cgroup");
        assert!(s.should_trigger(&usage(100, 1000, 820, 1000, false)), "mem ratio 0.82");
    }

    #[test]
    fn threshold_zero_always_triggers_threshold_above_one_only_throttle() {
        let zero = Safeguard::new(1, 0.0);
        assert!(zero.should_trigger(&usage(1, 1000, 1, 1000, false)));
        let never = Safeguard::new(1, 1.1);
        assert!(!never.should_trigger(&usage(1000, 1000, 1000, 1000, false)));
        assert!(never.should_trigger(&usage(1000, 1000, 1000, 1000, true)));
    }

    #[test]
    fn blacklist_escalates_after_repeated_trips() {
        let mut s = Safeguard::new(2, 0.8);
        s.record_trigger(0);
        s.record_trigger(0);
        assert!(!s.mem_blacklisted(0));
        s.record_trigger(0);
        assert!(s.mem_blacklisted(0));
        assert!(!s.mem_blacklisted(1), "other functions unaffected");
        assert_eq!(s.triggers(), 3);
    }

    #[test]
    fn oom_blacklists_immediately() {
        let mut s = Safeguard::new(1, 0.8);
        s.record_oom(0);
        assert!(s.mem_blacklisted(0));
    }
}
