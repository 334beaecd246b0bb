//! Measurement collection.
//!
//! Everything the paper's evaluation section reports is derived from two
//! streams recorded here: per-invocation completion records (latency,
//! speedup, reassignment integrals, categories — Figs 6, 8, 13, 15) and
//! periodic cluster utilization samples (Figs 7, 11).

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::event::EVENT_KINDS;
use crate::ids::{FunctionId, InvocationId, NodeId};
use crate::invocation::{InvFlags, Prediction, StageBreakdown};
use crate::time::{SimDuration, SimTime};
use crate::trace_spans::{ExecTrace, SpanKindStats};

/// Completion record for one invocation.
#[derive(Clone, Debug, serde::Serialize)]
pub struct InvRecord {
    /// Which invocation.
    pub inv: InvocationId,
    /// Which function.
    pub func: FunctionId,
    /// Function name (for per-function reports).
    pub func_name: String,
    /// Node that executed it.
    pub node: NodeId,
    /// Arrival time.
    pub arrival: SimTime,
    /// End-to-end response latency (arrival → completion).
    pub latency: SimDuration,
    /// Execution-only duration (first exec start → completion).
    pub exec: SimDuration,
    /// The response latency this invocation *would* have had with its
    /// user-defined allocation and identical overheads (t_user in Eq. 1).
    pub baseline_latency: SimDuration,
    /// speedup := (t_user − t_platform) / t_user (Eq. 1).
    pub speedup: f64,
    /// Whether the container cold-started.
    pub cold_start: bool,
    /// Category flags (Fig 8).
    pub flags: InvFlags,
    /// ∫(effective − nominal) CPU dt in core-seconds (signed, Fig 8 x-axis).
    pub cpu_reassigned_core_sec: f64,
    /// ∫(effective − nominal) memory dt in MB-seconds (signed).
    pub mem_reassigned_mb_sec: f64,
    /// Latency breakdown by stage (Fig 15).
    pub breakdown: StageBreakdown,
    /// The platform's prediction, if it made one.
    pub pred: Option<Prediction>,
    /// Observed CPU peak (millicores).
    pub cpu_peak_obs: u64,
    /// Observed memory peak (MB).
    pub mem_peak_obs: u64,
    /// Number of OOM restarts suffered.
    pub restarts: u32,
    /// Number of crash/abort requeues suffered (fault injection).
    pub requeues: u32,
}

impl InvRecord {
    /// Fig 8 category label.
    pub fn category(&self) -> InvCategory {
        if self.flags.safeguarded || self.flags.oomed {
            InvCategory::Safeguard
        } else if self.flags.accelerated {
            InvCategory::Accelerate
        } else if self.flags.harvested {
            InvCategory::Harvest
        } else {
            InvCategory::Default
        }
    }
}

/// Fig 8 scatter categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum InvCategory {
    /// Ran with the user-requested allocation, untouched.
    Default,
    /// Had idle resources harvested from it.
    Harvest,
    /// Ran with supplementary (borrowed) resources.
    Accelerate,
    /// Was protected by the safeguard (or OOM-restarted).
    Safeguard,
}

/// One cluster-wide utilization sample.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct UtilSample {
    /// Sample time.
    pub at: SimTime,
    /// Busy CPU millicores across all running invocations.
    pub cpu_used_millis: u64,
    /// Memory in use (MB) across all running invocations.
    pub mem_used_mb: u64,
    /// Nominally reserved CPU millicores.
    pub cpu_alloc_millis: u64,
    /// Nominally reserved memory (MB).
    pub mem_alloc_mb: u64,
    /// Total cluster CPU capacity (millicores).
    pub cpu_capacity_millis: u64,
    /// Total cluster memory capacity (MB).
    pub mem_capacity_mb: u64,
}

impl UtilSample {
    /// sys_util for CPU (Eq. 2): utilized / available.
    pub fn cpu_util(&self) -> f64 {
        self.cpu_used_millis as f64 / self.cpu_capacity_millis.max(1) as f64
    }

    /// sys_util for memory (Eq. 2).
    pub fn mem_util(&self) -> f64 {
        self.mem_used_mb as f64 / self.mem_capacity_mb.max(1) as f64
    }
}

/// How the engine aggregates measurements during a run.
///
/// `Full` keeps every per-invocation record and utilization sample — right
/// for the paper-scale experiments whose figures need the raw streams.
/// `Streaming` keeps only the constant-space [`RunSummary`]: at
/// million-invocation traces the record vector alone would pin hundreds of
/// MB (every record carries a `func_name` String), so the benchmark tier
/// folds each completion into online aggregates instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub enum MetricsMode {
    /// Record everything (the default; matches historical behaviour).
    #[default]
    Full,
    /// Keep only bounded-memory aggregates; `records` and `util` stay empty.
    Streaming,
}

/// Numerically stable online mean/variance/min/max (Welford's algorithm).
/// Constant space regardless of how many samples are pushed.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl OnlineStats {
    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (NaN when empty, like [`mean_slice`]).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance (NaN when empty).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest sample (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Capacity of a [`QuantileSketch`]'s reservoir. Exact percentiles up to
/// this many samples; a uniform subsample beyond it.
pub const SKETCH_CAPACITY: usize = 4096;

/// Bounded-memory percentile estimator: a deterministic Algorithm-R
/// reservoir. While `seen ≤ capacity` it holds every sample, so quantiles
/// are *exact* (the proptest oracle relies on this); past the capacity each
/// new sample replaces a uniformly chosen slot, giving an unbiased uniform
/// subsample whose percentile error shrinks as `1/√capacity`.
///
/// The replacement stream comes from an internal splitmix64 counter, never a
/// global RNG: pushing the same sequence always yields the same sketch.
#[derive(Clone, Debug, serde::Serialize)]
pub struct QuantileSketch {
    buf: Vec<f64>,
    seen: u64,
    state: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch { buf: Vec::new(), seen: 0, state: 0x9E37_79B9_7F4A_7C15 }
    }
}

/// splitmix64 step — tiny, seedable, and dependency-free: advance `state` by
/// the golden-ratio increment and return its mix. The workspace's one copy:
/// the sketch, fault plans, pilot noise, app demand and the function hash all
/// draw from it.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    remix64(&mut { *state })
}

/// The workspace's second generator: splitmix64's mix iterated on its own
/// state, never adding the golden-ratio increment, so it is not
/// [`splitmix64`]. `state` keeps the mix before its last xor-shift, and the
/// return value is the mix. The live mixed workload and the greedy-gap
/// ablation draw from it, and their streams are pinned to it.
#[inline]
pub fn remix64(state: &mut u64) -> u64 {
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z;
    z ^ (z >> 31)
}

/// One [`splitmix64`] step from the state `seed ^ salt·φ`: a stateless hash
/// of `(seed, salt)`, so one seed yields an independent draw per salt.
pub fn splitmix64_at(seed: u64, salt: u64) -> u64 {
    splitmix64(&mut (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The top 53 bits of `bits` as a uniform `f64` in `[0, 1)`.
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl QuantileSketch {
    /// Fold one sample in.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.buf.len() < SKETCH_CAPACITY {
            self.buf.push(x);
            return;
        }
        // Algorithm R: keep each of the `seen` samples with equal probability
        // by overwriting a uniformly drawn index < capacity (when the draw
        // lands past the reservoir, the sample is simply not kept).
        let j = splitmix64(&mut self.state) % self.seen;
        if let Some(slot) = usize::try_from(j).ok().and_then(|j| self.buf.get_mut(j)) {
            *slot = x;
        }
    }

    /// Total samples pushed (not the reservoir size).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// True while the reservoir still holds every pushed sample, making
    /// [`QuantileSketch::quantile`] exactly equal to [`percentile`].
    pub fn is_exact(&self) -> bool {
        self.seen <= SKETCH_CAPACITY as u64
    }

    /// The p-th percentile estimate (p in \[0,100\]; NaN when empty).
    pub fn quantile(&self, p: f64) -> f64 {
        let mut out = self.quantiles(&[p]);
        out.pop().unwrap_or(f64::NAN)
    }

    /// Several percentile estimates, sorting the reservoir once.
    pub fn quantiles(&self, ps: &[f64]) -> Vec<f64> {
        percentiles(&self.buf, ps)
    }
}

/// Constant-space aggregate view of one run, maintained incrementally by the
/// engine in *both* metrics modes. In [`MetricsMode::Streaming`] it is the
/// only completion/utilization output; in `Full` it coexists with the raw
/// record streams (and must agree with them — the proptests check this).
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct RunSummary {
    /// Completions folded in (excludes terminal aborts).
    pub completed: u64,
    /// Response-latency stats, in seconds.
    pub latency: OnlineStats,
    /// Response-latency percentile sketch, in seconds.
    pub latency_sketch: QuantileSketch,
    /// Speedup (Eq. 1) stats.
    pub speedup: OnlineStats,
    /// Per-sample cluster CPU utilization (Eq. 2) stats.
    pub cpu_util: OnlineStats,
    /// Per-sample cluster memory utilization (Eq. 2) stats.
    pub mem_util: OnlineStats,
    /// Per-sample memory pinned by idle warm containers, cluster-wide (MB) —
    /// the keep-alive policy's standing cost, and exactly the supply a
    /// harvester could tap if warm pins were lendable.
    pub warm_pinned_mb: OnlineStats,
    /// High-water mark of concurrently in-flight invocations (arena slots).
    pub peak_live_invocations: usize,
    /// Per-span-kind count/total/p50/p95/p99 over the execution-timeline
    /// trace. Empty unless the run was traced (`SimConfig::trace`).
    pub span_stats: Vec<SpanKindStats>,
}

impl RunSummary {
    /// Fold in one completion.
    pub fn observe_completion(&mut self, latency_sec: f64, speedup: f64) {
        self.completed += 1;
        self.latency.push(latency_sec);
        self.latency_sketch.push(latency_sec);
        self.speedup.push(speedup);
    }

    /// Fold in one utilization sample.
    pub fn observe_util(&mut self, s: &UtilSample) {
        self.cpu_util.push(s.cpu_util());
        self.mem_util.push(s.mem_util());
    }

    /// Fold in one warm-pin gauge reading (taken with each util sample).
    pub fn observe_warm_pinned(&mut self, mb: u64) {
        self.warm_pinned_mb.push(mb as f64);
    }
}

/// Pops of one [`Event`](crate::event::Event) kind over a run. Every
/// simulated pop counts once, on one side or the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct KindPops {
    /// Pops whose handler ran.
    pub handled: u64,
    /// Pops whose handler returned at its staleness check: a lazily
    /// cancelled `Finish`, `StartExec` or `Requeue`, or a node tick that found
    /// nothing resident and ended its chain.
    pub stale: u64,
}

/// Full result of one simulated run.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct RunResult {
    /// Platform under test.
    pub platform: String,
    /// Per-invocation completion records, in completion order. Empty in
    /// [`MetricsMode::Streaming`].
    pub records: Vec<InvRecord>,
    /// Periodic utilization samples. Empty in [`MetricsMode::Streaming`].
    pub util: Vec<UtilSample>,
    /// Constant-space aggregates, populated in both metrics modes.
    pub summary: RunSummary,
    /// Simulated events pushed onto the engine's queue over the run. A ping
    /// round is one queue entry but counts once per member node
    /// ([`Event::weight`](crate::event::Event::weight)), as the per-node
    /// pings it stands for would.
    pub event_pushes: u64,
    /// Simulated events popped from the engine's queue over the run, a ping
    /// round once per member node.
    pub event_pops: u64,
    /// `event_pops` by event kind, indexed by
    /// [`Event::kind`](crate::event::Event::kind) — where the engine's
    /// traffic goes, and how much of it is lazily-cancelled leftovers. Ping
    /// rounds count under `health_ping`, once per member node.
    pub pops_by_kind: [KindPops; EVENT_KINDS],
    /// First arrival → last completion (workload completion time, §8.4).
    pub completion_time: SimDuration,
    /// Warm container hits.
    pub warm_hits: u64,
    /// Cold starts.
    pub cold_starts: u64,
    /// Warm containers spun up by keep-alive policy prewarm directives
    /// (0 for policies that never prewarm, including the default).
    pub prewarms: u64,
    /// Mean scheduler decision queueing+service delay per invocation.
    pub mean_sched_delay: SimDuration,
    /// Invocations terminally aborted after exhausting crash retries.
    pub aborted: u64,
    /// Total crash/abort requeue attempts across all invocations.
    pub crash_requeues: u64,
    /// Injected faults that fired (0 in a fault-free run).
    pub faults_injected: u64,
    /// End-of-run safety-ledger violations (must always be 0; a non-zero
    /// value means a crash sweep corrupted the reservation/loan books).
    pub pool_violations: u64,
    /// Execution-timeline trace: per-attempt stage spans and harvest-loan
    /// lifetimes. `None` unless the run was traced (`SimConfig::trace`).
    pub trace: Option<ExecTrace>,
}

impl RunResult {
    /// All response latencies, in seconds.
    pub fn latencies_sec(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency.as_secs_f64()).collect()
    }

    /// All speedups (Eq. 1).
    pub fn speedups(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.speedup).collect()
    }

    /// The p-th percentile response latency in seconds (p in \[0,100\]).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies_sec(), p)
    }

    /// Several latency percentiles at once, sorting the sample a single time.
    pub fn latency_percentiles(&self, ps: &[f64]) -> Vec<f64> {
        percentiles(&self.latencies_sec(), ps)
    }

    /// Mean CPU utilization over the run (Eq. 2).
    pub fn mean_cpu_util(&self) -> f64 {
        mean(self.util.iter().map(UtilSample::cpu_util))
    }

    /// Mean memory utilization over the run (Eq. 2).
    pub fn mean_mem_util(&self) -> f64 {
        mean(self.util.iter().map(UtilSample::mem_util))
    }

    /// Peak CPU utilization over the run.
    pub fn peak_cpu_util(&self) -> f64 {
        self.util.iter().map(UtilSample::cpu_util).fold(0.0, f64::max)
    }

    /// Peak memory utilization over the run.
    pub fn peak_mem_util(&self) -> f64 {
        self.util.iter().map(UtilSample::mem_util).fold(0.0, f64::max)
    }

    /// Worst (most negative) speedup — the paper's "performance degradation
    /// at worst".
    pub fn worst_degradation(&self) -> f64 {
        self.speedups().into_iter().fold(0.0, f64::min)
    }

    /// Fraction of invocations that triggered the safeguard.
    pub fn safeguarded_ratio(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let n = self.records.iter().filter(|r| r.flags.safeguarded).count();
        n as f64 / self.records.len() as f64
    }
}

/// The p-th percentile (linear interpolation, p in \[0,100\]) of unsorted data.
pub fn percentile(data: &[f64], p: f64) -> f64 {
    percentiles(data, &[p]).pop().unwrap_or(f64::NAN)
}

/// Several percentiles of unsorted data, sorting it only once. Returns one
/// value per requested `p` (NaN for every entry when `data` is empty).
///
/// NaN inputs are tolerated: `total_cmp` sorts them after every finite value
/// (and +inf), so low percentiles of a partially-NaN sample stay meaningful
/// and high percentiles degrade to NaN instead of aborting the run.
pub fn percentiles(data: &[f64], ps: &[f64]) -> Vec<f64> {
    if data.is_empty() {
        return vec![f64::NAN; ps.len()];
    }
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    ps.iter().map(|&p| percentile_sorted(&v, p)).collect()
}

/// The p-th percentile of data already sorted ascending.
#[expect(
    clippy::cast_possible_truncation,
    reason = "p is clamped to [0, 100], so rank is in 0..len"
)]
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * v.len().saturating_sub(1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (Some(&a), Some(&b)) = (v.get(lo), v.get(hi)) else {
        return f64::NAN;
    };
    if lo == hi {
        a
    } else {
        let w = rank - lo as f64;
        a * (1.0 - w) + b * w
    }
}

/// Arithmetic mean of an iterator (0.0 when empty).
pub fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in it {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Arithmetic mean of a slice. Unlike [`mean`], an empty slice yields NaN —
/// aggregators must not mistake "no data" for "zero".
pub fn mean_slice(data: &[f64]) -> f64 {
    if data.is_empty() {
        return f64::NAN;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Empirical CDF points `(value, cumulative fraction)` for plotting.
pub fn cdf(data: &[f64]) -> Vec<(f64, f64)> {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    v.into_iter().enumerate().map(|(i, x)| (x, (i + 1) as f64 / n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 4.0);
        assert!((percentile(&data, 50.0) - 2.5).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_handles_unsorted() {
        let data = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&data, 100.0), 4.0);
    }

    #[test]
    fn percentiles_batch_matches_singles() {
        let data = [4.0, 1.0, 3.0, 2.0];
        let ps = [0.0, 25.0, 50.0, 99.0, 100.0];
        let batch = percentiles(&data, &ps);
        for (i, &p) in ps.iter().enumerate() {
            assert_eq!(batch[i], percentile(&data, p));
        }
        assert!(percentiles(&[], &ps).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn percentiles_tolerate_nan_input() {
        // A NaN sample (e.g. a speedup with a zero baseline) must degrade
        // gracefully, never abort the whole run's reporting.
        let data = [f64::NAN, 1.0, 3.0, 2.0];
        let out = percentiles(&data, &[0.0, 50.0, 100.0]);
        assert_eq!(out.len(), 3);
        // total_cmp sorts NaN last, so low percentiles stay meaningful…
        assert_eq!(out[0], 1.0);
        // …and the max degrades to NaN rather than panicking.
        assert!(out[2].is_nan());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
        // cdf over NaN-bearing data must not panic either.
        assert_eq!(cdf(&data).len(), 4);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(std::iter::empty()), 0.0);
        assert!((mean([1.0, 2.0, 3.0].into_iter()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mean_slice_empty_is_nan() {
        assert!(mean_slice(&[]).is_nan());
        assert!((mean_slice(&[2.0, 4.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_to_one() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], (1.0, 1.0 / 3.0));
        assert_eq!(c[2], (3.0, 1.0));
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn online_stats_match_exact_moments() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::default();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - mean_slice(&data)).abs() < 1e-12);
        let exact_var =
            data.iter().map(|x| (x - mean_slice(&data)).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((s.variance() - exact_var).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert!(OnlineStats::default().mean().is_nan());
        assert!(OnlineStats::default().min().is_nan());
    }

    #[test]
    fn sketch_is_exact_below_capacity() {
        let mut sk = QuantileSketch::default();
        let data: Vec<f64> = (0..1000).map(|i| (i * 7 % 1000) as f64).collect();
        for &x in &data {
            sk.push(x);
        }
        assert!(sk.is_exact());
        for p in [0.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(sk.quantile(p), percentile(&data, p), "p{p}");
        }
        assert!(QuantileSketch::default().quantile(50.0).is_nan());
    }

    #[test]
    fn sketch_stays_bounded_and_close_past_capacity() {
        // 100k samples uniform over [0, 1): the reservoir subsample's median
        // must land near 0.5 and memory must stay at the capacity.
        let mut sk = QuantileSketch::default();
        let mut state = 42u64;
        for _ in 0..100_000 {
            let x = unit_f64(splitmix64(&mut state));
            sk.push(x);
        }
        assert!(!sk.is_exact());
        assert_eq!(sk.seen(), 100_000);
        let med = sk.quantile(50.0);
        assert!((med - 0.5).abs() < 0.05, "median estimate {med}");
        let p99 = sk.quantile(99.0);
        assert!((p99 - 0.99).abs() < 0.02, "p99 estimate {p99}");
        // Determinism: an identical stream yields an identical sketch.
        let mut sk2 = QuantileSketch::default();
        let mut state2 = 42u64;
        for _ in 0..100_000 {
            let x = unit_f64(splitmix64(&mut state2));
            sk2.push(x);
        }
        assert_eq!(sk.quantiles(&[1.0, 50.0, 99.0]), sk2.quantiles(&[1.0, 50.0, 99.0]));
    }

    #[test]
    fn salted_draws_are_in_the_unit_interval_and_spread() {
        let vals: Vec<f64> = (0..1000).map(|i| unit_f64(splitmix64_at(i, 3))).collect();
        assert!(vals.iter().all(|v| (0.0..1.0).contains(v)));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn run_summary_folds_completions_and_util() {
        let mut s = RunSummary::default();
        s.observe_completion(1.0, 0.1);
        s.observe_completion(3.0, -0.2);
        assert_eq!(s.completed, 2);
        assert!((s.latency.mean() - 2.0).abs() < 1e-12);
        assert!((s.speedup.min() - -0.2).abs() < 1e-12);
        assert_eq!(s.latency_sketch.seen(), 2);
        let u = UtilSample {
            at: SimTime::ZERO,
            cpu_used_millis: 16_000,
            mem_used_mb: 8_192,
            cpu_alloc_millis: 32_000,
            mem_alloc_mb: 16_384,
            cpu_capacity_millis: 32_000,
            mem_capacity_mb: 32_768,
        };
        s.observe_util(&u);
        assert!((s.cpu_util.mean() - 0.5).abs() < 1e-12);
        assert!((s.mem_util.mean() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn util_sample_ratios() {
        let s = UtilSample {
            at: SimTime::ZERO,
            cpu_used_millis: 16_000,
            mem_used_mb: 8_192,
            cpu_alloc_millis: 32_000,
            mem_alloc_mb: 16_384,
            cpu_capacity_millis: 32_000,
            mem_capacity_mb: 32_768,
        };
        assert!((s.cpu_util() - 0.5).abs() < 1e-12);
        assert!((s.mem_util() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn category_priority() {
        let mut r = InvRecord {
            inv: InvocationId(0),
            func: FunctionId(0),
            func_name: "f".into(),
            node: NodeId(0),
            arrival: SimTime::ZERO,
            latency: SimDuration::from_secs(1),
            exec: SimDuration::from_secs(1),
            baseline_latency: SimDuration::from_secs(1),
            speedup: 0.0,
            cold_start: false,
            flags: InvFlags::default(),
            cpu_reassigned_core_sec: 0.0,
            mem_reassigned_mb_sec: 0.0,
            breakdown: StageBreakdown::default(),
            pred: None,
            cpu_peak_obs: 0,
            mem_peak_obs: 0,
            restarts: 0,
            requeues: 0,
        };
        assert_eq!(r.category(), InvCategory::Default);
        r.flags.harvested = true;
        assert_eq!(r.category(), InvCategory::Harvest);
        r.flags.accelerated = true;
        assert_eq!(r.category(), InvCategory::Accelerate);
        r.flags.safeguarded = true;
        assert_eq!(r.category(), InvCategory::Safeguard);
    }
}
