//! Keep-alive — when does an idle warm container die?
//!
//! Libra's harvestable supply is exactly the memory that idle warm containers
//! pin, so the keep-alive policy is not a substrate detail: it decides how
//! much idle memory exists for harvesters to see. This module holds that
//! decision as one value, [`KeepAlive`] — pure, clock-free and
//! deterministic, the same discipline as [`crate::controlplane`]: drivers
//! report each arrival with an explicit `now`, and the policy answers
//! keep-until deadlines and prewarm directives. Both substrates drive the
//! same value: the simulator through its `Platform` warm-lifecycle hooks
//! (see [`crate::platform::WithKeepAlive`], which composes a policy with
//! any simulated platform) and the live cluster through its warm-container
//! registry.
//!
//! Two policies ship, one constructor each:
//!
//! * [`KeepAlive::fixed`] — OpenWhisk's classic fixed keep-alive window.
//!   With the default 60 s TTL it reproduces the pre-policy engine
//!   byte-identically (the golden-trace test pins this).
//! * [`KeepAlive::histogram`] — the Serverless-in-the-Wild hybrid: a
//!   streaming histogram of per-function inter-arrival times picks the
//!   keep-alive window from the tail percentile, and when arrivals are so
//!   sparse that keeping warm is wasteful it shuts the container down early
//!   and issues a *prewarm* directive just before the predicted next arrival.
//!
//! Only the fixed window takes a value; the histogram's tunings are
//! constants beside its state.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use libra_ml::histogram::StreamingHistogram;
use libra_sim::container::KEEPALIVE;
use libra_sim::ids::FunctionId;
use libra_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A keep-alive policy and its per-function state: pure event-in,
/// directive-out.
///
/// Drivers feed it per-function arrivals, each stamped with an explicit
/// `now` (no wall clocks — the sim passes virtual time, the live
/// runtime passes its logical microsecond clock), and ask two questions:
/// how long to keep an idle container, and whether to prewarm one ahead of
/// the predicted next arrival. Identical event sequences produce identical
/// answers on every run, and a clone shares no state with its original.
#[derive(Clone, Debug)]
pub struct KeepAlive(Rule);

#[derive(Clone, Debug)]
enum Rule {
    /// Every idle container survives exactly this long past its last use.
    Fixed(SimDuration),
    /// Per-function inter-arrival histograms ([`StreamingHistogram`], the
    /// same substrate the profiler's demand models use) choose the window
    /// (tail percentile) and the prewarm point (head percentile) online.
    Histogram(BTreeMap<FunctionId, FuncArrivals>),
}

/// Histogram bin count for per-function inter-arrival times.
const IAT_BINS: usize = 64;
/// Head percentile, in [0, 100] (earliest plausible next arrival → prewarm
/// point).
const HEAD_Q: f64 = 5.0;
/// Tail percentile, in [0, 100] (latest plausible next arrival → keep-alive
/// window).
const TAIL_Q: f64 = 99.0;
/// Observations required before trusting the histogram; below this the
/// histogram policy keeps the standard [`KEEPALIVE`] window.
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

/// One function's arrivals under the histogram policy.
#[derive(Clone, Debug)]
struct FuncArrivals {
    last_arrival: Option<SimTime>,
    /// Inter-arrival times, in seconds.
    iat: StreamingHistogram,
}

impl FuncArrivals {
    /// The `q`-th percentile (q in [0, 100]) of the inter-arrival times, once
    /// there are enough samples to trust it.
    fn iat_percentile(&self, q: f64) -> Option<SimDuration> {
        if self.iat.count() < MIN_SAMPLES {
            return None;
        }
        self.iat.percentile(q).map(SimDuration::from_secs_f64)
    }
}

impl Default for KeepAlive {
    /// The classic 60 s window (OpenWhisk default): the same [`KEEPALIVE`]
    /// constant the simulator's default `Platform::warm_keep` answers with.
    fn default() -> Self {
        KeepAlive::fixed(KEEPALIVE)
    }
}

impl KeepAlive {
    /// OpenWhisk's fixed keep-alive window: every idle container survives
    /// exactly `ttl` past its last use.
    pub fn fixed(ttl: SimDuration) -> Self {
        KeepAlive(Rule::Fixed(ttl))
    }

    /// Serverless-in-the-Wild-style hybrid keep-alive over per-function
    /// inter-arrival histograms.
    pub fn histogram() -> Self {
        KeepAlive(Rule::Histogram(BTreeMap::new()))
    }

    /// An invocation of `func` arrived at `now`.
    pub fn on_arrival(&mut self, func: FunctionId, now: SimTime) {
        match &mut self.0 {
            Rule::Fixed(_) => {}
            Rule::Histogram(funcs) => {
                let fa = funcs.entry(func).or_insert_with(|| FuncArrivals {
                    last_arrival: None,
                    // Initial range 1 s; the histogram doubles its range as
                    // sparser gaps arrive, so any arrival process fits.
                    iat: StreamingHistogram::new(IAT_BINS, 1.0),
                });
                if let Some(last) = fa.last_arrival {
                    fa.iat.insert(now.since(last).as_secs_f64());
                }
                fa.last_arrival = Some(now);
            }
        }
    }

    /// A container for `func` is going idle at `now`: the deadline until
    /// which it is kept warm. Both policies keep every container for some
    /// window; whether its memory can stay pinned is the warm pool's call.
    pub fn keep_until(&self, func: FunctionId, now: SimTime) -> SimTime {
        match &self.0 {
            Rule::Fixed(ttl) => now + *ttl,
            Rule::Histogram(funcs) => {
                let fa = funcs.get(&func);
                let Some(tail) = fa.and_then(|fa| fa.iat_percentile(TAIL_Q)) else {
                    return now + KEEPALIVE;
                };
                let head = fa.and_then(|fa| fa.iat_percentile(HEAD_Q)).unwrap_or(tail);
                if head > PREWARM_CUTOFF {
                    // Arrivals are sparse and regular enough that keeping the
                    // container warm across the whole gap wastes memory: keep
                    // it only briefly and rely on the prewarm directive.
                    return now + MIN_WINDOW;
                }
                now + tail.clamp(MIN_WINDOW, MAX_WINDOW)
            }
        }
    }

    /// After an arrival of `func`: optionally direct the driver to prewarm a
    /// container for `func` this far in the future (just before the
    /// predicted next arrival). Only the histogram policy ever prewarms.
    pub fn prewarm_after(&self, func: FunctionId) -> Option<SimDuration> {
        let Rule::Histogram(funcs) = &self.0 else {
            return None;
        };
        let head = funcs.get(&func)?.iat_percentile(HEAD_Q)?;
        (head > PREWARM_CUTOFF)
            .then(|| SimDuration::from_secs_f64(head.as_secs_f64() * PREWARM_MARGIN))
    }

    /// Short label for CSV columns and CLI output: `fixed<secs>` or
    /// `histogram`. [`KeepAlive::parse`] reads it back.
    pub fn label(&self) -> String {
        match &self.0 {
            Rule::Fixed(ttl) => format!("fixed{}", ttl.as_micros() / 1_000_000),
            Rule::Histogram(_) => "histogram".to_string(),
        }
    }

    /// Parse a CLI spec: `fixed[:secs]` (or a label's `fixed<secs>`) or
    /// `histogram`.
    pub fn parse(s: &str) -> Result<KeepAlive, String> {
        match s {
            "fixed" => Ok(KeepAlive::default()),
            "histogram" => Ok(KeepAlive::histogram()),
            _ => {
                let expected = "expected fixed[:secs] | histogram";
                let secs = s
                    .strip_prefix("fixed:")
                    .or_else(|| s.strip_prefix("fixed"))
                    .ok_or_else(|| format!("bad keepalive policy `{s}` ({expected})"))?;
                let secs: u64 = secs.parse().map_err(|e| format!("keepalive fixed:<secs>: {e}"))?;
                Ok(KeepAlive::fixed(SimDuration::from_secs(secs)))
            }
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
        let p = KeepAlive::default();
        assert_eq!(p.keep_until(F, t(10)), t(70));
        assert!(p.prewarm_after(F).is_none());
    }

    #[test]
    fn histogram_falls_back_until_warmed_up() {
        let mut p = KeepAlive::histogram();
        p.on_arrival(F, t(0));
        p.on_arrival(F, t(30));
        // Only one IAT sample — below min_samples, fall back to the TTL.
        assert_eq!(p.keep_until(F, t(31)), t(31) + SimDuration::from_secs(60));
    }

    #[test]
    fn histogram_tracks_dense_arrivals_with_short_window() {
        let mut p = KeepAlive::histogram();
        // 20 arrivals 5 s apart: tail percentile ≈ 5 s, clamped up to 10 s.
        for i in 0..20 {
            p.on_arrival(F, t(5 * i));
        }
        let window = p.keep_until(F, t(100)).since(t(100));
        assert!(
            window < SimDuration::from_secs(60),
            "dense arrivals should not need the fallback TTL, got {window:?}"
        );
        assert!(p.prewarm_after(F).is_none(), "no prewarm when dense");
    }

    #[test]
    fn histogram_window_covers_the_tail_gap() {
        let mut p = KeepAlive::histogram();
        // 19 gaps of 20 s, then one of 50 s: the 99th-percentile gap is the
        // 50 s one, so the window must reach past 45 s, not stop at 20 s.
        let mut at = 0;
        for _ in 0..19 {
            p.on_arrival(F, t(at));
            at += 20;
        }
        p.on_arrival(F, t(at));
        at += 50;
        p.on_arrival(F, t(at));
        let window = p.keep_until(F, t(at)).since(t(at));
        assert!(window >= SimDuration::from_secs(45), "tail window {window:?}");
        assert!(p.prewarm_after(F).is_none(), "20 s gaps are dense: no prewarm");
    }

    #[test]
    fn histogram_prewarms_sparse_arrivals() {
        let mut p = KeepAlive::histogram();
        // Arrivals 300 s apart: head percentile far past the cutoff.
        for i in 0..20 {
            p.on_arrival(F, t(300 * i));
        }
        let now = t(6000);
        assert!(
            p.keep_until(F, now).since(now) <= SimDuration::from_secs(10),
            "sparse arrivals keep only min_window"
        );
        let gap = p.prewarm_after(F).expect("sparse arrivals prewarm");
        let secs = gap.as_secs_f64();
        assert!(secs > 120.0 && secs < 300.0, "prewarm inside the gap, got {secs}");
    }

    #[test]
    fn parses_and_labels() {
        let label = |s: &str| KeepAlive::parse(s).unwrap().label();
        assert_eq!(label("fixed"), KeepAlive::default().label());
        assert_eq!(label("fixed:10"), "fixed10");
        assert_eq!(label("histogram"), "histogram");
        let p = KeepAlive::parse("fixed:10").unwrap();
        assert_eq!(p.keep_until(F, t(1)), t(11));
        assert!(KeepAlive::parse("bogus").is_err());
        assert!(KeepAlive::parse("fixed:x").is_err());
        let gone = KeepAlive::parse("concurrency").unwrap_err();
        assert!(gone.contains("fixed[:secs] | histogram"), "{gone}");
    }

    #[test]
    fn parse_reads_back_every_label() {
        let policies = [
            KeepAlive::fixed(SimDuration::from_secs(10)),
            KeepAlive::default(),
            KeepAlive::histogram(),
        ];
        let labels: Vec<String> = policies.iter().map(KeepAlive::label).collect();
        assert_eq!(labels, ["fixed10", "fixed60", "histogram"]);
        for k in &policies {
            assert_eq!(KeepAlive::parse(&k.label()).unwrap().label(), k.label());
        }
        let p = KeepAlive::parse("fixed60").unwrap();
        assert_eq!(p.keep_until(F, t(1)), t(61));
    }

    #[test]
    fn a_clone_shares_no_state_with_its_original() {
        let mut original = KeepAlive::histogram();
        let mut clone = original.clone();
        // The original sees overlapping dense arrivals, the clone sparse
        // ones; each must answer from its own history.
        for i in 0..20 {
            original.on_arrival(F, t(5 * i));
            original.on_arrival(F, t(5 * i));
            clone.on_arrival(F, t(300 * i));
        }
        let now = t(6000);
        let answers = |p: &KeepAlive| (p.keep_until(F, now), p.prewarm_after(F));
        assert_ne!(answers(&original), answers(&clone));
    }
}
