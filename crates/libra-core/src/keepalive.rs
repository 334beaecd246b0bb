//! Keep-alive & autoscaling policies — when does an idle warm container die?
//!
//! Libra's harvestable supply is exactly the memory that idle warm containers
//! pin, so the keep-alive policy is not a substrate detail: it decides how
//! much idle memory exists for harvesters to see. This module extracts that
//! decision from the simulator's `WarmPool` (where it used to be a hard-coded
//! 60 s TTL) into a first-class [`KeepAlivePolicy`] — pure, clock-free and
//! deterministic, the same discipline as [`crate::controlplane`]: drivers
//! report per-function events (arrival, completion, container-going-idle)
//! with an explicit `now`, and the policy answers keep-until deadlines and
//! prewarm directives. Both substrates drive the same object: the simulator
//! through its `Platform` warm-lifecycle hooks (see
//! [`crate::platform::WithKeepAlive`], which composes a policy with any
//! simulated platform) and the live cluster through its warm-container
//! registry.
//!
//! Three implementations ship:
//!
//! * [`FixedTtl`] — OpenWhisk's classic fixed keep-alive window. With the
//!   default 60 s TTL it reproduces the pre-refactor engine byte-identically
//!   (the golden-trace test pins this).
//! * [`HistogramPolicy`] — the Serverless-in-the-Wild hybrid: a streaming
//!   histogram of per-function inter-arrival times picks the keep-alive
//!   window from the tail percentile, and when arrivals are so sparse that
//!   keeping warm is wasteful it shuts the container down early and issues a
//!   *prewarm* directive just before the predicted next arrival.
//! * [`ConcurrencyPolicy`] — concurrency-based autoscaling (Knative-style):
//!   the idle pool per function is capped at the peak in-flight concurrency
//!   observed over a sliding window, so the warm set scales in when load
//!   drops instead of lingering for a full TTL.
//!
//! Only the fixed window takes a value ([`PolicyKind::FixedTtl`]); the
//! histogram and concurrency tunings are constants beside each policy.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use libra_ml::histogram::StreamingHistogram;
use libra_sim::container::KEEPALIVE;
use libra_sim::ids::FunctionId;
use libra_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A keep-alive / autoscaling policy: pure event-in, directive-out.
///
/// Drivers feed it per-function lifecycle events, each stamped with an
/// explicit `now` (no wall clocks — the sim passes virtual time, the live
/// runtime passes its logical microsecond clock), and ask two questions:
/// how long to keep an idle container, and whether to prewarm one ahead of
/// the predicted next arrival. Implementations must be deterministic:
/// identical event sequences must produce identical answers on every run.
pub trait KeepAlivePolicy: Send {
    /// Short display name (used in experiment CSV columns).
    fn name(&self) -> &'static str;

    /// An invocation of `func` arrived at `now`.
    fn on_arrival(&mut self, func: FunctionId, now: SimTime);

    /// An invocation of `func` left the in-flight set at `now` (completed
    /// or aborted).
    fn on_complete(&mut self, func: FunctionId, now: SimTime);

    /// A container for `func` is going idle at `now`; `idle_peers` containers
    /// for the same function already sit idle on that node. Returns the
    /// deadline until which the container should be kept warm, or `None` to
    /// tear it down immediately (its memory unpins right away).
    fn keep_until(&mut self, func: FunctionId, idle_peers: usize, now: SimTime) -> Option<SimTime>;

    /// After an arrival of `func` at `now`: optionally direct the driver to
    /// prewarm a container for `func` this far in the future (just before
    /// the predicted next arrival). The default is no prewarming.
    fn prewarm_after(&mut self, func: FunctionId, now: SimTime) -> Option<SimDuration> {
        let _ = (func, now);
        None
    }
}

/// OpenWhisk's fixed keep-alive window: every idle container survives
/// exactly `ttl` past its last use. Stateless and byte-identical to the
/// pre-policy engine when `ttl` is the warm pool's [`KEEPALIVE`] window.
#[derive(Clone, Copy, Debug)]
pub struct FixedTtl {
    /// Idle lifetime of a warm container.
    pub ttl: SimDuration,
}

impl FixedTtl {
    /// The classic 60 s window (OpenWhisk default): the same [`KEEPALIVE`]
    /// constant the simulator's default `Platform::warm_keep` answers with.
    pub fn standard() -> Self {
        FixedTtl { ttl: KEEPALIVE }
    }
}

impl KeepAlivePolicy for FixedTtl {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn on_arrival(&mut self, _func: FunctionId, _now: SimTime) {}

    fn on_complete(&mut self, _func: FunctionId, _now: SimTime) {}

    fn keep_until(
        &mut self,
        _func: FunctionId,
        _idle_peers: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        Some(now + self.ttl)
    }
}

/// Histogram bin count for per-function inter-arrival times.
const IAT_BINS: usize = 64;
/// Head percentile (earliest plausible next arrival → prewarm point).
const HEAD_Q: f64 = 0.05;
/// Tail percentile (latest plausible next arrival → keep-alive window).
const TAIL_Q: f64 = 0.99;
/// Observations required before trusting the histogram; below this
/// [`HistogramPolicy`] behaves like [`FixedTtl::standard`].
const MIN_SAMPLES: u64 = 4;
/// Keep-alive window clamp (lower bound).
const MIN_WINDOW: SimDuration = SimDuration(10_000_000);
/// Keep-alive window clamp (upper bound).
const MAX_WINDOW: SimDuration = SimDuration(600_000_000);
/// When the head-percentile gap exceeds this, keeping the container warm the
/// whole time is wasteful: shut it down after [`MIN_WINDOW`] and prewarm at
/// [`PREWARM_MARGIN`] × head instead.
const PREWARM_CUTOFF: SimDuration = SimDuration(120_000_000);
/// Fraction of the head-percentile gap to wait before prewarming.
const PREWARM_MARGIN: f64 = 0.85;

/// Per-function state for [`HistogramPolicy`].
#[derive(Clone, Debug)]
struct FuncArrivals {
    last_arrival: Option<SimTime>,
    /// Inter-arrival times, in seconds.
    iat: StreamingHistogram,
}

/// Serverless-in-the-Wild-style hybrid keep-alive: per-function streaming
/// histograms of inter-arrival times ([`StreamingHistogram`], the same
/// substrate the profiler's demand models use) choose the keep-alive window
/// (tail percentile) and the prewarm point (head percentile) online.
#[derive(Debug, Default)]
pub struct HistogramPolicy {
    funcs: BTreeMap<FunctionId, FuncArrivals>,
}

impl HistogramPolicy {
    /// Percentile of `func`'s inter-arrival distribution, if the histogram
    /// has enough samples to be trusted.
    fn iat_percentile(&self, func: FunctionId, q: f64) -> Option<SimDuration> {
        let fa = self.funcs.get(&func)?;
        if fa.iat.count() < MIN_SAMPLES {
            return None;
        }
        fa.iat.percentile(q).map(SimDuration::from_secs_f64)
    }
}

impl KeepAlivePolicy for HistogramPolicy {
    fn name(&self) -> &'static str {
        "histogram"
    }

    fn on_arrival(&mut self, func: FunctionId, now: SimTime) {
        let fa = self.funcs.entry(func).or_insert_with(|| FuncArrivals {
            last_arrival: None,
            // Initial range 1 s; the histogram doubles its range as sparser
            // gaps arrive, so any arrival process fits.
            iat: StreamingHistogram::new(IAT_BINS, 1.0),
        });
        if let Some(last) = fa.last_arrival {
            fa.iat.insert(now.since(last).as_secs_f64());
        }
        fa.last_arrival = Some(now);
    }

    fn on_complete(&mut self, _func: FunctionId, _now: SimTime) {}

    fn keep_until(
        &mut self,
        func: FunctionId,
        _idle_peers: usize,
        now: SimTime,
    ) -> Option<SimTime> {
        let Some(tail) = self.iat_percentile(func, TAIL_Q) else {
            return Some(now + KEEPALIVE);
        };
        let head = self.iat_percentile(func, HEAD_Q).unwrap_or(tail);
        if head > PREWARM_CUTOFF {
            // Arrivals are sparse and regular enough that keeping the
            // container warm across the whole gap wastes memory: keep it
            // only briefly and rely on the prewarm directive.
            return Some(now + MIN_WINDOW);
        }
        let window = tail.clamp(MIN_WINDOW, MAX_WINDOW);
        Some(now + window)
    }

    fn prewarm_after(&mut self, func: FunctionId, now: SimTime) -> Option<SimDuration> {
        let _ = now;
        let head = self.iat_percentile(func, HEAD_Q)?;
        if head <= PREWARM_CUTOFF {
            return None;
        }
        let at = head.as_secs_f64() * PREWARM_MARGIN;
        Some(SimDuration::from_secs_f64(at))
    }
}

/// Width of the peak-concurrency observation window.
const PEAK_WINDOW: SimDuration = SimDuration(60_000_000);

/// Per-function state for [`ConcurrencyPolicy`].
#[derive(Clone, Copy, Debug, Default)]
struct FuncConcurrency {
    in_flight: u32,
    /// Peak in-flight within the current window.
    peak: u32,
    /// Peak in-flight within the previous (closed) window.
    prev_peak: u32,
    window_start: SimTime,
}

impl FuncConcurrency {
    /// Roll the observation window forward if `now` has left it. A gap
    /// longer than two windows decays the remembered peak entirely — the
    /// stale peak must not survive an idle stretch it was never observed in.
    fn roll(&mut self, now: SimTime) {
        let elapsed = now.since(self.window_start);
        if elapsed > PEAK_WINDOW {
            self.prev_peak = if elapsed > PEAK_WINDOW + PEAK_WINDOW { 0 } else { self.peak };
            self.peak = self.in_flight;
            self.window_start = now;
        }
    }
}

/// Concurrency-based autoscaling: the idle warm set per function is capped
/// at the peak in-flight concurrency seen over the last two observation
/// windows. Excess containers are torn down as soon as they go idle —
/// scale-in follows load down instead of waiting out a TTL.
#[derive(Debug, Default)]
pub struct ConcurrencyPolicy {
    funcs: BTreeMap<FunctionId, FuncConcurrency>,
}

impl ConcurrencyPolicy {
    /// The current warm-set target for `func`.
    fn target(&self, func: FunctionId) -> u32 {
        self.funcs.get(&func).map_or(0, |c| c.peak.max(c.prev_peak))
    }
}

impl KeepAlivePolicy for ConcurrencyPolicy {
    fn name(&self) -> &'static str {
        "concurrency"
    }

    fn on_arrival(&mut self, func: FunctionId, now: SimTime) {
        let c = self.funcs.entry(func).or_default();
        c.roll(now);
        c.in_flight = c.in_flight.saturating_add(1);
        c.peak = c.peak.max(c.in_flight);
    }

    fn on_complete(&mut self, func: FunctionId, now: SimTime) {
        let c = self.funcs.entry(func).or_default();
        c.roll(now);
        c.in_flight = c.in_flight.saturating_sub(1);
    }

    fn keep_until(&mut self, func: FunctionId, idle_peers: usize, now: SimTime) -> Option<SimTime> {
        if let Some(c) = self.funcs.get_mut(&func) {
            c.roll(now);
        }
        let target = self.target(func) as usize;
        if idle_peers >= target {
            return None; // scale in: the warm set already covers peak demand
        }
        Some(now + KEEPALIVE) // kept containers get the standard window
    }
}

/// Declarative policy choice — the config-file / CLI-facing counterpart of
/// the trait objects above, so `SimConfig`-style plumbing can stay `Clone`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicyKind {
    /// [`FixedTtl`] with the given window.
    FixedTtl(SimDuration),
    /// [`HistogramPolicy`].
    Histogram,
    /// [`ConcurrencyPolicy`].
    Concurrency,
}

impl Default for PolicyKind {
    fn default() -> Self {
        PolicyKind::FixedTtl(KEEPALIVE)
    }
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn KeepAlivePolicy> {
        match *self {
            PolicyKind::FixedTtl(ttl) => Box::new(FixedTtl { ttl }),
            PolicyKind::Histogram => Box::new(HistogramPolicy::default()),
            PolicyKind::Concurrency => Box::new(ConcurrencyPolicy::default()),
        }
    }

    /// Short label for CSV columns and CLI output.
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::FixedTtl(ttl) => format!("fixed{}", ttl.as_micros() / 1_000_000),
            PolicyKind::Histogram => "histogram".to_string(),
            PolicyKind::Concurrency => "concurrency".to_string(),
        }
    }

    /// Parse a CLI spec: `fixed[:secs]`, `histogram`, or `concurrency`.
    pub fn parse(s: &str) -> Result<PolicyKind, String> {
        match s.split_once(':') {
            None if s == "fixed" => Ok(PolicyKind::default()),
            None if s == "histogram" => Ok(PolicyKind::Histogram),
            None if s == "concurrency" => Ok(PolicyKind::Concurrency),
            Some(("fixed", secs)) => {
                let secs: u64 = secs.parse().map_err(|e| format!("keepalive fixed:<secs>: {e}"))?;
                Ok(PolicyKind::FixedTtl(SimDuration::from_secs(secs)))
            }
            _ => Err(format!(
                "bad keepalive policy `{s}` (expected fixed[:secs] | histogram | concurrency)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FunctionId = FunctionId(7);

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn fixed_ttl_is_now_plus_ttl() {
        let mut p = FixedTtl::standard();
        assert_eq!(p.keep_until(F, 0, t(10)), Some(t(70)));
        assert_eq!(p.keep_until(F, 99, t(10)), Some(t(70)), "peers do not matter");
        assert!(p.prewarm_after(F, t(10)).is_none());
    }

    #[test]
    fn histogram_falls_back_until_warmed_up() {
        let mut p = HistogramPolicy::default();
        p.on_arrival(F, t(0));
        p.on_arrival(F, t(30));
        // Only one IAT sample — below min_samples, fall back to the TTL.
        assert_eq!(p.keep_until(F, 0, t(31)), Some(t(31) + SimDuration::from_secs(60)));
    }

    #[test]
    fn histogram_tracks_dense_arrivals_with_short_window() {
        let mut p = HistogramPolicy::default();
        // 20 arrivals 5 s apart: tail percentile ≈ 5 s, clamped up to 10 s.
        for i in 0..20 {
            p.on_arrival(F, t(5 * i));
        }
        let ku = p.keep_until(F, 0, t(100)).expect("dense arrivals keep warm");
        let window = ku.since(t(100));
        assert!(
            window < SimDuration::from_secs(60),
            "dense arrivals should not need the fallback TTL, got {window:?}"
        );
        assert!(p.prewarm_after(F, t(100)).is_none(), "no prewarm when dense");
    }

    #[test]
    fn histogram_prewarms_sparse_arrivals() {
        let mut p = HistogramPolicy::default();
        // Arrivals 300 s apart: head percentile far past the cutoff.
        for i in 0..20 {
            p.on_arrival(F, t(300 * i));
        }
        let now = t(6000);
        let ku = p.keep_until(F, 0, now).expect("kept briefly");
        assert!(
            ku.since(now) <= SimDuration::from_secs(10),
            "sparse arrivals keep only min_window"
        );
        let gap = p.prewarm_after(F, now).expect("sparse arrivals prewarm");
        let secs = gap.as_secs_f64();
        assert!(secs > 120.0 && secs < 300.0, "prewarm inside the gap, got {secs}");
    }

    #[test]
    fn concurrency_caps_idle_set_at_observed_peak() {
        let mut p = ConcurrencyPolicy::default();
        // Two overlapping invocations: peak concurrency 2.
        p.on_arrival(F, t(1));
        p.on_arrival(F, t(2));
        p.on_complete(F, t(3));
        p.on_complete(F, t(4));
        assert!(p.keep_until(F, 0, t(5)).is_some(), "0 idle < target 2");
        assert!(p.keep_until(F, 1, t(5)).is_some(), "1 idle < target 2");
        assert!(p.keep_until(F, 2, t(5)).is_none(), "at target: scale in");
    }

    #[test]
    fn concurrency_target_decays_after_two_windows() {
        let mut p = ConcurrencyPolicy::default();
        p.on_arrival(F, t(0));
        p.on_arrival(F, t(1));
        p.on_complete(F, t(2));
        p.on_complete(F, t(3));
        // Two windows later the old peak has rolled out entirely.
        assert!(p.keep_until(F, 1, t(200)).is_none(), "target decayed to 0");
    }

    #[test]
    fn unknown_function_has_zero_target() {
        let mut p = ConcurrencyPolicy::default();
        assert!(p.keep_until(FunctionId(99), 0, t(1)).is_none());
    }

    #[test]
    fn kind_parses_and_labels() {
        assert_eq!(PolicyKind::parse("fixed").unwrap(), PolicyKind::default());
        assert_eq!(
            PolicyKind::parse("fixed:10").unwrap(),
            PolicyKind::FixedTtl(SimDuration::from_secs(10))
        );
        assert_eq!(PolicyKind::parse("fixed:10").unwrap().label(), "fixed10");
        assert_eq!(PolicyKind::parse("histogram").unwrap(), PolicyKind::Histogram);
        assert_eq!(PolicyKind::parse("concurrency").unwrap(), PolicyKind::Concurrency);
        assert!(PolicyKind::parse("bogus").is_err());
        assert!(PolicyKind::parse("fixed:x").is_err());
    }
}
