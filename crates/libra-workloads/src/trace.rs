//! Azure-Functions-like invocation trace generators.
//!
//! The paper samples eleven trace sets from the Azure Functions traces \[36\]:
//! one `single` set (165 invocations) for the single-node experiments and
//! ten `multi` sets (1,050 invocations in total, 10→300 requests per minute)
//! for the multi-node scheduling experiments (§8.2.2). The raw traces are
//! not redistributable, so this module generates seeded synthetic traces
//! with the statistics the evaluation depends on: Poisson arrivals at a
//! target RPM, a heavy-tailed function popularity mix (a few hot functions,
//! a long cold tail — "95 % of functions have 60 RPM or less"), and inputs
//! drawn from per-function pools.

use crate::apps::AppKind;
use crate::datasets::InputPool;
use libra_sim::ids::FunctionId;
use libra_sim::time::SimTime;
use libra_sim::trace::Trace;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TraceGen {
    /// Which applications participate (FunctionId = index into this slice).
    pub kinds: Vec<AppKind>,
    /// Per-function input pools (parallel to `kinds`).
    pub pools: Vec<InputPool>,
    /// Zipf-ish popularity weights (parallel to `kinds`).
    pub weights: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl TraceGen {
    /// Standard generator over the given kinds: pools of 100 inputs and a
    /// gentle Zipf popularity (`1/(rank+1)^0.7`).
    pub fn standard(kinds: &[AppKind], seed: u64) -> Self {
        let pools = crate::datasets::standard_pools(kinds, seed);
        let weights = (0..kinds.len()).map(|r| 1.0 / ((r + 1) as f64).powf(0.7)).collect();
        TraceGen { kinds: kinds.to_vec(), pools, weights, seed }
    }

    /// Heavy-input generator: same popularity mix, input pools biased
    /// towards large sizes (for the multi-node scheduling experiments, whose
    /// queueing behaviour the paper drives with heavier invocations).
    pub fn heavy(kinds: &[AppKind], seed: u64) -> Self {
        let pools = kinds.iter().map(|&k| InputPool::generate_biased(k, 100, seed, 2.5)).collect();
        let weights = (0..kinds.len()).map(|r| 1.0 / ((r + 1) as f64).powf(0.7)).collect();
        TraceGen { kinds: kinds.to_vec(), pools, weights, seed }
    }

    /// The running sums of the popularity weights: one weighted function pick
    /// draws `x` uniformly below the last and takes the first function whose
    /// sum exceeds it, in O(log m). Built once per generated trace.
    fn cumulative_weights(&self) -> Vec<f64> {
        self.weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect()
    }

    /// One weighted function pick from `cum` ([`Self::cumulative_weights`]).
    fn pick_function(cum: &[f64], rng: &mut impl Rng) -> usize {
        let x = rng.gen_range(0.0..cum.last().copied().unwrap_or_default());
        cum.partition_point(|&c| c <= x).min(cum.len() - 1)
    }

    /// Poisson-arrival trace: `n` invocations at `rpm` requests per minute.
    ///
    /// Arrival times are accumulated in integer microseconds: each
    /// exponential inter-arrival gap is rounded once and added to a `u64`
    /// clock. Accumulating in f64 and truncating per event (the old scheme)
    /// loses mantissa precision as `t` grows and biases every gap early by
    /// its truncated fraction — at million-event traces the tail silently
    /// skews by whole seconds.
    pub fn poisson(&self, n: usize, rpm: f64) -> Trace {
        assert!(rpm > 0.0, "rpm must be positive");
        let cum = self.cumulative_weights();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mean_gap_us = 60e6 / rpm;
        let mut t_us = 0u64;
        let mut trace = Trace::new();
        trace.entries.reserve(n);
        for _ in 0..n {
            // Exponential inter-arrival, rounded to whole microseconds
            // while still small — never after accumulation.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap_us = (-mean_gap_us * u.ln()).round() as u64;
            t_us = t_us.saturating_add(gap_us);
            let f = Self::pick_function(&cum, &mut rng);
            let input = self.pools[f].sample(&mut rng);
            trace.push(SimTime(t_us), FunctionId(f as u32), input);
        }
        trace
    }

    /// The `single` trace set: 165 invocations with two bursty phases,
    /// mirroring the shape of the paper's single-node workload (Fig 7 runs
    /// for a few hundred seconds with visible bursts).
    pub fn single_set(&self) -> Trace {
        let cum = self.cumulative_weights();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x51136);
        let mut trace = Trace::new();
        // Four arrival waves ~30 s apart (the bursty shape of production
        // serverless traces [36]): each wave's user-defined reservations
        // overload the 72-core node, so the default platform carries a
        // backlog from wave to wave while a harvesting platform packs each
        // wave into the reserved-but-idle capacity and drains in time.
        let phases =
            [(41usize, 300.0f64, 0.0f64), (41, 300.0, 15e6), (41, 300.0, 30e6), (42, 300.0, 45e6)];
        for (n, rpm, t0) in phases {
            let mean_gap_us = 60e6 / rpm;
            let mut t = t0;
            for _ in 0..n {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -mean_gap_us * u.ln();
                let f = Self::pick_function(&cum, &mut rng);
                let input = self.pools[f].sample(&mut rng);
                trace.push(SimTime(t as u64), FunctionId(f as u32), input);
            }
        }
        trace.sorted()
    }

    /// The ten `multi` trace sets: `(rpm, trace)` pairs with RPM increasing
    /// from 10 to 300 — each set is one minute of Poisson arrivals at its
    /// rate, which is exactly how the counts add up to the paper's 1,050
    /// invocations in total (10+20+…+240+300 = 1,050, §8.2.2).
    pub fn multi_sets(&self) -> Vec<(u32, Trace)> {
        const RPMS: [u32; 10] = [10, 20, 30, 40, 50, 60, 120, 180, 240, 300];
        RPMS.iter()
            .enumerate()
            .map(|(i, &rpm)| {
                let gen = TraceGen {
                    seed: self.seed ^ ((i as u64 + 1) << 16),
                    kinds: self.kinds.clone(),
                    pools: self.pools.clone(),
                    weights: self.weights.clone(),
                };
                (rpm, gen.poisson(rpm as usize, rpm as f64))
            })
            .collect()
    }

    /// Large-catalogue generator: `functions` synthetic functions cycling
    /// through [`ALL_APPS`](crate::apps::ALL_APPS), with popularity drawn
    /// from a seeded Zipf(`s`) over function rank — the heavy-tailed shape
    /// of the Azure traces ("a few hot functions, a long cold tail") at
    /// catalogue sizes where the 10-app suites are unrealistically flat.
    /// Input pools are salted per function index so clones of the same app
    /// kind still see distinct input mixes.
    pub fn zipf_catalogue(functions: usize, seed: u64, s: f64) -> Self {
        use crate::apps::ALL_APPS;
        assert!(functions > 0, "catalogue needs at least one function");
        let kinds: Vec<AppKind> = ALL_APPS.iter().copied().cycle().take(functions).collect();
        let pools = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                InputPool::generate(k, 100, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        let weights = (0..functions).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        TraceGen { kinds, pools, weights, seed }
    }
}

/// The `huge` benchmark tier: everything a driver needs to reproduce the
/// million-invocation, thousand-node stress workload (`exp scale`). The
/// tier exists to make the simulator's scale limits measurable — at this
/// size the engine must stream arrivals, recycle invocation slots and keep
/// metrics online, or it simply does not finish.
#[derive(Clone, Debug)]
pub struct HugeTier {
    /// The trace generator (Zipf catalogue over cycled app kinds).
    pub gen: TraceGen,
    /// Number of invocations in the trace.
    pub invocations: usize,
    /// Poisson arrival rate, requests per minute.
    pub rpm: f64,
    /// Number of worker nodes.
    pub nodes: usize,
    /// Cores per node.
    pub node_cores: u64,
    /// Memory per node (MB).
    pub node_mem_mb: u64,
    /// Scheduler shards.
    pub shards: usize,
}

impl HugeTier {
    /// The full tier: 1M invocations at 20k RPM across 400 functions
    /// (Zipf s = 1.1), on 1,000 nodes of 48 cores / 192 GB sliced into 4
    /// scheduler shards (≈50 simulated minutes of load).
    pub fn standard(seed: u64) -> Self {
        HugeTier {
            gen: TraceGen::zipf_catalogue(400, seed, 1.1),
            invocations: 1_000_000,
            rpm: 20_000.0,
            nodes: 1_000,
            node_cores: 48,
            node_mem_mb: 196_608,
            shards: 4,
        }
    }

    /// Generate the tier's trace.
    pub fn trace(&self) -> Trace {
        self.gen.poisson(self.invocations, self.rpm)
    }

    /// Per-node capacities for [`Simulation::new`](libra_sim::engine::Simulation).
    pub fn node_caps(&self) -> Vec<libra_sim::resources::ResourceVec> {
        vec![
            libra_sim::resources::ResourceVec::from_cores_mb(self.node_cores, self.node_mem_mb);
            self.nodes
        ]
    }

    /// Function specs for the whole catalogue (one per generator kind, in
    /// `FunctionId` order, uniquely named `"<APP>-<rank>"`).
    pub fn suite(&self) -> Vec<libra_sim::function::FunctionSpec> {
        use crate::apps::AppModel;
        use std::sync::Arc;
        self.gen
            .kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                libra_sim::function::FunctionSpec::new(
                    format!("{}-{i}", kind.name()),
                    kind.user_alloc(),
                    Arc::new(AppModel { kind }),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ALL_APPS;

    fn gen() -> TraceGen {
        TraceGen::standard(&ALL_APPS, 1)
    }

    #[test]
    fn single_set_has_165_invocations() {
        let t = gen().single_set();
        assert_eq!(t.len(), 165);
        let (first, last) = t.span().unwrap();
        assert!(last > first);
        // sorted
        assert!(t.entries.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn multi_sets_total_1050() {
        let sets = gen().multi_sets();
        assert_eq!(sets.len(), 10);
        assert_eq!(sets.iter().map(|(_, t)| t.len()).sum::<usize>(), 1050);
        assert_eq!(sets[0].0, 10);
        assert_eq!(sets[9].0, 300);
    }

    #[test]
    fn each_multi_set_is_one_minute_at_its_rpm() {
        // The paper's 1,050 total = Σ RPM over the ten sets: each set is one
        // minute of arrivals at its rate.
        for (rpm, t) in gen().multi_sets() {
            assert_eq!(t.len(), rpm as usize, "{rpm} RPM set size");
            let (first, last) = t.span().unwrap();
            let span_s = (last.as_micros() - first.as_micros()) as f64 / 1e6;
            assert!(span_s < 130.0, "{rpm} RPM set spans {span_s:.0}s (≈1 min expected)");
        }
    }

    #[test]
    fn heavy_generator_produces_heavier_work() {
        use crate::apps::AppModel;
        use libra_sim::demand::DemandModel;
        let mean_work = |g: &TraceGen| -> f64 {
            let t = g.poisson(400, 120.0);
            t.entries
                .iter()
                .map(|e| {
                    let kind = crate::apps::ALL_APPS[e.func.idx()];
                    let d = AppModel { kind }.demand(&e.input);
                    d.cpu_peak_millis as f64 * d.base_duration.as_secs_f64()
                })
                .sum::<f64>()
                / 400.0
        };
        let plain = mean_work(&TraceGen::standard(&ALL_APPS, 3));
        let heavy = mean_work(&TraceGen::heavy(&ALL_APPS, 3));
        assert!(heavy > plain * 1.3, "heavy {heavy:.0} vs plain {plain:.0}");
    }

    #[test]
    fn poisson_rate_is_approximately_right() {
        let t = gen().poisson(600, 60.0); // 60 rpm = 1/s -> ~600 s span
        let (first, last) = t.span().unwrap();
        let span_s = (last.as_micros() - first.as_micros()) as f64 / 1e6;
        assert!((span_s - 600.0).abs() < 120.0, "span {span_s}");
    }

    #[test]
    fn poisson_large_n_span_is_unbiased() {
        // One million arrivals at 60k RPM (1 ms mean gap) must span very
        // close to n·gap ≈ 1,000 s. With the old f64-accumulate-then-
        // truncate scheme every event lost its fractional microsecond,
        // skewing the tail; integer accumulation keeps the span within the
        // statistical noise of the exponential sum (σ ≈ 1 s here).
        let t = gen().poisson(1_000_000, 60_000.0);
        let (first, last) = t.span().unwrap();
        let span_us = (last.as_micros() - first.as_micros()) as f64;
        let expected_us = 1_000_000.0 * 1_000.0;
        let rel = (span_us - expected_us).abs() / expected_us;
        assert!(rel < 0.01, "span {span_us:.0}µs vs expected {expected_us:.0}µs (rel {rel:.4})");
        // Arrival times must be monotone non-decreasing as generated.
        assert!(t.entries.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = TraceGen::standard(&ALL_APPS, 7).single_set();
        let b = TraceGen::standard(&ALL_APPS, 7).single_set();
        assert_eq!(a.entries, b.entries);
        let c = TraceGen::standard(&ALL_APPS, 8).single_set();
        assert_ne!(a.entries, c.entries);
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let t = gen().poisson(5000, 100.0);
        let mut counts = vec![0usize; 10];
        for e in &t.entries {
            counts[e.func.idx()] += 1;
        }
        assert!(counts[0] > counts[9], "rank-0 function must be hotter than rank-9: {counts:?}");
    }

    #[test]
    fn zipf_catalogue_is_heavy_tailed_and_deterministic() {
        let g = TraceGen::zipf_catalogue(400, 11, 1.1);
        assert_eq!(g.kinds.len(), 400);
        let t = g.poisson(20_000, 2_000.0);
        assert_eq!(t.len(), 20_000);
        let mut counts = vec![0usize; 400];
        for e in &t.entries {
            counts[e.func.idx()] += 1;
        }
        // Zipf(1.1): the hot head dominates, the tail is long but populated.
        assert!(counts[0] > counts[50] && counts[50] >= counts[399], "{:?}", &counts[..5]);
        assert!(counts[0] > t.len() / 20, "rank-0 should take a large share: {}", counts[0]);
        let tail_hit = counts[200..].iter().filter(|&&c| c > 0).count();
        assert!(tail_hit > 50, "cold tail must still be exercised: {tail_hit}");
        // Same seed → byte-identical trace; different seed → different.
        let t2 = TraceGen::zipf_catalogue(400, 11, 1.1).poisson(20_000, 2_000.0);
        assert_eq!(t.entries, t2.entries);
        let t3 = TraceGen::zipf_catalogue(400, 12, 1.1).poisson(20_000, 2_000.0);
        assert_ne!(t.entries, t3.entries);
    }

    /// One splitmix fold of every `(size, content_seed)` in `g`'s pools, in
    /// pool order.
    fn pool_fold(g: &TraceGen) -> u64 {
        use libra_sim::metrics::splitmix64_at as mix;
        let inputs = g.pools.iter().flat_map(|p| &p.inputs);
        inputs.fold(0, |acc, i| mix(mix(acc, i.size), i.content_seed))
    }

    /// The inputs of the benchmark's catalogue and of the standard suite, as
    /// recorded before the log-uniform draw took its bounds' logarithms once
    /// per pool instead of once per draw.
    #[test]
    fn catalogue_and_standard_pools_keep_their_recorded_inputs() {
        assert_eq!(pool_fold(&TraceGen::zipf_catalogue(400, 0x11b7a, 1.1)), 0x1647_5bdf_e98b_158b);
        assert_eq!(pool_fold(&TraceGen::standard(&ALL_APPS, 42)), 0xb9bf_8376_2602_95f9);
    }

    #[test]
    fn huge_tier_shapes_are_consistent() {
        let tier = HugeTier::standard(1);
        assert_eq!(tier.invocations, 1_000_000);
        assert_eq!(tier.nodes, 1_000);
        assert_eq!(tier.suite().len(), tier.gen.kinds.len());
        assert_eq!(tier.node_caps().len(), tier.nodes);
        // Every function must fit a shard slice or the engine rejects it.
        let slice = libra_sim::resources::ResourceVec::from_cores_mb(
            tier.node_cores / tier.shards as u64,
            tier.node_mem_mb / tier.shards as u64,
        );
        for spec in tier.suite() {
            assert!(spec.user_alloc.fits_within(&slice), "{} won't place", spec.name);
        }
    }

    #[test]
    fn all_entries_use_valid_functions_and_pool_inputs() {
        let g = gen();
        let t = g.poisson(200, 50.0);
        for e in &t.entries {
            assert!(e.func.idx() < 10);
            assert!(g.pools[e.func.idx()].inputs.contains(&e.input));
        }
    }
}
