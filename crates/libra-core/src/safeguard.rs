//! The safeguard (§5.2).
//!
//! A daemon-per-container in the real system; here, per-tick usage checks.
//! When a harvested invocation's CPU or memory usage approaches its
//! (reduced) allocation — the monitor window crossing the threshold,
//! default 0.8 — Libra immediately returns *everything* harvested from it
//! via preemptive release, before mispredictions can hurt it.
//!
//! This module owns the trigger rule ([`overloaded`], which Freyr's
//! non-preemptive detector asks too) and the per-function escalation
//! bookkeeping: functions that repeatedly trigger the safeguard (or OOM)
//! stop having their *memory* harvested at all (§5.1 "Mitigating OOM").

use crate::controlplane::Observation;

/// Safeguard trips before a function's memory harvesting stops.
const MEM_BLACKLIST_AFTER: u32 = 3;

/// The overload rule: the cgroup was CPU-throttled, or memory use reached
/// `threshold` of the memory grant `mem_mb` (a zero grant counts as 1 MB).
///
/// CPU uses the kernel's throttling signal (the cgroup wanted more than its
/// quota — running *at* a correctly-predicted quota is fine, which is why
/// Fig 1's harvested DH keeps its grant); memory uses the usage/grant
/// ratio, because footprint growth towards the grant must be stopped
/// *before* it becomes an OOM.
pub fn overloaded(throttled: bool, mem_used_mb: u64, mem_mb: u64, threshold: f64) -> bool {
    throttled || mem_used_mb as f64 / mem_mb.max(1) as f64 >= threshold
}

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

    /// Does `obs`, taken under an effective memory grant of `mem_grant_mb`,
    /// demand a preemptive release? [`overloaded`] at this safeguard's
    /// threshold. (Checked only for invocations that actually had resources
    /// harvested — the caller guards that.)
    pub fn should_trigger(&self, obs: &Observation, mem_grant_mb: u64) -> bool {
        overloaded(obs.cpu_throttled, obs.mem_used_mb, mem_grant_mb, self.threshold)
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

    fn obs(cpu_busy_millis: u64, mem_used_mb: u64, cpu_throttled: bool) -> Observation {
        Observation { cpu_busy_millis, mem_used_mb, cpu_throttled }
    }

    #[test]
    fn triggers_on_throttle_or_memory_pressure() {
        let s = Safeguard::new(1, 0.8);
        // Running at 90% of quota without throttling is fine (Fig 1's DH).
        assert!(!s.should_trigger(&obs(900, 100, false), 1000));
        assert!(s.should_trigger(&obs(1000, 100, true), 1000), "throttled cgroup");
        assert!(s.should_trigger(&obs(100, 820, false), 1000), "mem ratio 0.82");
        assert!(s.should_trigger(&obs(100, 800, false), 1000), "the threshold itself trips");
        assert!(s.should_trigger(&obs(0, 1, false), 0), "a zero grant is read as 1 MB");
    }

    #[test]
    fn threshold_zero_always_triggers_threshold_above_one_only_throttle() {
        let zero = Safeguard::new(1, 0.0);
        assert!(zero.should_trigger(&obs(1, 1, false), 1000));
        let never = Safeguard::new(1, 1.1);
        assert!(!never.should_trigger(&obs(1000, 1000, false), 1000));
        assert!(never.should_trigger(&obs(1000, 1000, true), 1000));
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
