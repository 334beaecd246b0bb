//! Property-based tests (proptest) on Libra's core data structures and
//! invariants: the harvest resource pool, demand coverage, the streaming
//! histogram, and resource arithmetic.

use libra::core::coverage::demand_coverage;
use libra::core::pool::{HarvestResourcePool, PoolEntryStatus};
use libra::ml::StreamingHistogram;
use libra::sim::ids::InvocationId;
use libra::sim::resources::ResourceVec;
use libra::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

mod support;

#[derive(Clone, Debug)]
enum PoolOp {
    Put { src: u32, cpu: u64, mem: u64, expiry: u64 },
    Get { cpu: u64, mem: u64 },
    GiveBack { src: u32, cpu: u64, mem: u64 },
    Remove { src: u32 },
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0u32..16, 0u64..4000, 0u64..2048, 1u64..600)
            .prop_map(|(src, cpu, mem, expiry)| PoolOp::Put { src, cpu, mem, expiry }),
        (0u64..6000, 0u64..4096).prop_map(|(cpu, mem)| PoolOp::Get { cpu, mem }),
        (0u32..16, 0u64..2000, 0u64..1024).prop_map(|(src, cpu, mem)| PoolOp::GiveBack {
            src,
            cpu,
            mem
        }),
        (0u32..16).prop_map(|src| PoolOp::Remove { src }),
    ]
}

proptest! {
    /// Pool conservation: whatever ops run, (a) `get` never returns more
    /// than asked, (b) borrowed volume equals what left the pool, (c) the
    /// idle ledger is monotone non-decreasing, (d) total idle is exactly
    /// puts − gets + give-backs − removals.
    #[test]
    fn pool_conserves_volume(ops in prop::collection::vec(pool_op(), 1..120)) {
        let mut pool = HarvestResourcePool::new();
        let mut t = 0u64;
        let mut last_ledger = (0.0f64, 0.0f64);
        let mut balance = ResourceVec::ZERO; // expected total idle
        for op in ops {
            t += 7;
            let now = SimTime(t);
            match op {
                PoolOp::Put { src, cpu, mem, expiry } => {
                    let vol = ResourceVec::new(cpu, mem);
                    pool.put(InvocationId(src), vol, SimTime::from_secs(expiry), now);
                    balance += vol;
                }
                PoolOp::Get { cpu, mem } => {
                    let want = ResourceVec::new(cpu, mem);
                    let got = pool.get(want, now);
                    let total = got.iter().fold(ResourceVec::ZERO, |a, (_, v)| a + *v);
                    prop_assert!(total.fits_within(&want), "got {total:?} > want {want:?}");
                    balance -= total;
                }
                PoolOp::GiveBack { src, cpu, mem } => {
                    let vol = ResourceVec::new(cpu, mem);
                    let before = pool.total_idle();
                    pool.give_back(InvocationId(src), vol, now);
                    let after = pool.total_idle();
                    // give_back only lands if the source is still tracked
                    let landed = after - before;
                    balance += landed;
                }
                PoolOp::Remove { src } => {
                    let dropped = pool.remove(InvocationId(src), now);
                    balance -= dropped;
                }
            }
            prop_assert_eq!(pool.total_idle(), balance, "idle drifted from op balance");
            let ledger = pool.idle_ledger();
            prop_assert!(ledger.0 >= last_ledger.0 - 1e-9, "cpu ledger went backwards");
            prop_assert!(ledger.1 >= last_ledger.1 - 1e-9, "mem ledger went backwards");
            last_ledger = ledger;
        }
    }

    /// Coverage is a ratio in [0, 1], monotone in added pool volume.
    #[test]
    fn coverage_bounded_and_monotone(
        entries in prop::collection::vec((1u64..5000, 1u64..500), 0..12),
        units in 1u64..5000,
        start in 0u64..100,
        dur in 1u64..200,
    ) {
        let cpu = |entries: &[(u64, u64)]| {
            let mut snap: Vec<PoolEntryStatus> = entries
                .iter()
                .map(|&(v, e)| PoolEntryStatus { cpu_idle_millis: v, mem_idle_mb: 0, expiry: SimTime::from_secs(e) })
                .collect();
            snap.sort_by_key(|e| e.expiry);
            let extra = ResourceVec::new(units, 0);
            // α = 1 weighs the CPU coverage alone, exactly.
            demand_coverage(&snap, extra, SimTime::from_secs(start), SimDuration::from_secs(dur), 1.0)
        };
        let c = cpu(&entries);
        prop_assert!((0.0..=1.0).contains(&c), "coverage {c} out of range");

        // Adding an always-valid entry can only help.
        let mut more = entries.clone();
        more.push((units, start + dur + 10));
        let c2 = cpu(&more);
        prop_assert!(c2 + 1e-9 >= c, "adding volume reduced coverage: {c} -> {c2}");
        prop_assert!((c2 - 1.0).abs() < 1e-9, "a full always-valid entry must saturate coverage, got {c2}");
    }

    /// The in-place fold over an expiry-ordered snapshot is the cut-scan
    /// coverage it replaced, bit for bit: every placement decision compares
    /// these floats, so equal bits are equal decisions. Expiries are drawn
    /// from a few seconds' range so ties, entries expired before `now`, and
    /// expiries on the window's edges all occur; volumes, demands and the
    /// window may be zero.
    #[test]
    fn in_place_coverage_matches_the_cut_scan_bit_for_bit(
        entries in prop::collection::vec((0u64..4000, 0u64..2048, 0u64..12), 0..24),
        extra in (0u64..6000, 0u64..4096),
        now in 0u64..6,
        dur in 0u64..8,
        alpha in prop_oneof![Just(0.0), Just(0.5), Just(0.9), Just(1.0), 0.0f64..1.0],
    ) {
        use support::cut_scan_coverage as reference;
        let mut snap: Vec<PoolEntryStatus> = entries
            .iter()
            .map(|&(cpu, mem, e)| PoolEntryStatus { cpu_idle_millis: cpu, mem_idle_mb: mem, expiry: SimTime::from_secs(e) })
            .collect();
        snap.sort_by_key(|e| e.expiry);
        let (extra, now, dur) =
            (ResourceVec::new(extra.0, extra.1), SimTime::from_secs(now), SimDuration::from_secs(dur));
        let got = demand_coverage(&snap, extra, now, dur, alpha);
        let want = reference::demand_coverage(&snap, extra, now, dur, alpha);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
    }

    /// Histogram percentiles stay within [min, max] and are monotone in q.
    #[test]
    fn histogram_percentiles_sane(samples in prop::collection::vec(0.0f64..1e6, 1..300)) {
        let mut h = StreamingHistogram::new(64, 1.0);
        for &s in &samples {
            h.insert(s);
        }
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(0.0f64, f64::max);
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            let p = h.percentile(q).expect("non-empty");
            prop_assert!(p >= lo - 1e-6 && p <= hi + 1e-6, "p{q}={p} outside [{lo}, {hi}]");
            prop_assert!(p >= last - 1e-9, "percentiles not monotone at q={q}");
            last = p;
        }
    }

    /// ResourceVec arithmetic: saturating subtraction never underflows and
    /// `fits_within` agrees with component-wise ordering.
    #[test]
    fn resource_vec_laws(a in (0u64..1_000_000, 0u64..1_000_000), b in (0u64..1_000_000, 0u64..1_000_000)) {
        let (x, y) = (ResourceVec::new(a.0, a.1), ResourceVec::new(b.0, b.1));
        let d = x.saturating_sub(&y);
        prop_assert!(d.cpu_millis <= x.cpu_millis && d.mem_mb <= x.mem_mb);
        prop_assert_eq!(x.min(&y) + (x.max(&y) - x.min(&y)), x.max(&y));
        prop_assert_eq!(x.fits_within(&y), x.cpu_millis <= y.cpu_millis && x.mem_mb <= y.mem_mb);
        // (x min y) fits within both
        prop_assert!(x.min(&y).fits_within(&x) && x.min(&y).fits_within(&y));
    }
}

/// Ops for the pool-vs-reference equivalence test: like [`PoolOp`] but
/// with expiries on the same scale as the op clock (7 µs per op), so lazy
/// expiry eviction actually triggers, and with an explicit hand-out order on
/// every get.
#[derive(Clone, Debug)]
enum EqOp {
    Put { src: u32, cpu: u64, mem: u64, expiry_us: u64 },
    Get { cpu: u64, mem: u64, order: u8 },
    GiveBack { src: u32, cpu: u64, mem: u64 },
    Remove { src: u32 },
}

fn eq_op() -> impl Strategy<Value = EqOp> {
    prop_oneof![
        (0u32..16, 0u64..4000, 0u64..2048, 1u64..2500)
            .prop_map(|(src, cpu, mem, expiry_us)| EqOp::Put { src, cpu, mem, expiry_us }),
        (0u64..6000, 0u64..4096, 0u8..3).prop_map(|(cpu, mem, order)| EqOp::Get {
            cpu,
            mem,
            order
        }),
        (0u32..16, 0u64..2000, 0u64..1024).prop_map(|(src, cpu, mem)| EqOp::GiveBack {
            src,
            cpu,
            mem
        }),
        (0u32..16).prop_map(|src| EqOp::Remove { src }),
    ]
}

proptest! {
    /// The expiry-ordered pool is observationally equivalent to the
    /// sorted-scan reference implementation: identical grants (sources,
    /// volumes, and order) for every hand-out policy, identical snapshots,
    /// identical totals/counters, and matching idle-time ledgers, across
    /// arbitrary put/get/give_back/remove sequences — including ones where
    /// entries expire mid-sequence. The pool's order is re-checked after
    /// every op.
    #[test]
    fn expiry_ordered_pool_matches_sorted_scan_reference(ops in prop::collection::vec(eq_op(), 1..150)) {
        use support::sorted_scan_pool::SortedScanPool;
        use libra::core::pool::GetOrder;

        let mut pool = HarvestResourcePool::new();
        let mut oracle = SortedScanPool::new();
        let mut t = 0u64;
        for op in ops {
            t += 7;
            let now = SimTime(t);
            match op {
                EqOp::Put { src, cpu, mem, expiry_us } => {
                    let vol = ResourceVec::new(cpu, mem);
                    pool.put(InvocationId(src), vol, SimTime(expiry_us), now);
                    oracle.put(InvocationId(src), vol, SimTime(expiry_us), now);
                }
                EqOp::Get { cpu, mem, order } => {
                    let want = ResourceVec::new(cpu, mem);
                    let order = match order {
                        0 => GetOrder::LongestLived,
                        1 => GetOrder::Fifo,
                        _ => GetOrder::ShortestLived,
                    };
                    let a = pool.get_with(want, now, order);
                    let b = oracle.get_with(want, now, order);
                    prop_assert_eq!(a, b, "grants diverged ({:?} at t={})", order, t);
                }
                EqOp::GiveBack { src, cpu, mem } => {
                    let vol = ResourceVec::new(cpu, mem);
                    pool.give_back(InvocationId(src), vol, now);
                    oracle.give_back(InvocationId(src), vol, now);
                }
                EqOp::Remove { src } => {
                    let a = pool.remove(InvocationId(src), now);
                    let b = oracle.remove(InvocationId(src), now);
                    prop_assert_eq!(a, b, "removed volume diverged");
                }
            }
            pool.check_order();
            prop_assert_eq!(pool.snapshot(now), oracle.snapshot(now), "snapshots diverged");
            prop_assert_eq!(pool.total_idle(), oracle.total_idle());
            prop_assert_eq!(pool.len(), oracle.len());
            prop_assert_eq!(pool.op_counts(), oracle.op_counts());
            let (la, lb) = (pool.idle_ledger(), oracle.idle_ledger());
            prop_assert!((la.0 - lb.0).abs() < 1e-9, "cpu ledger diverged: {} vs {}", la.0, lb.0);
            prop_assert!((la.1 - lb.1).abs() < 1e-9, "mem ledger diverged: {} vs {}", la.1, lb.1);
        }
    }
}

// ------------------------------------------------------ warm-pool equivalence

/// One warm-container lifecycle op; times advance monotonically outside.
#[derive(Clone, Debug)]
enum WarmOp {
    Acquire { func: u32 },
    Release { func: u32, shard: u8, mem: u64 },
    EvictExpired,
    EvictFor { shard: u8, need: u64 },
}

/// Function ids the ops draw from: dense ones plus one far past them, so a
/// per-node index cannot assume ids are small.
const WARM_FUNCS: [u32; 6] = [0, 1, 2, 3, 4, 399];

fn warm_op() -> impl Strategy<Value = WarmOp> {
    let func = || (0..WARM_FUNCS.len()).prop_map(|i| WARM_FUNCS[i]);
    prop_oneof![
        func().prop_map(|func| WarmOp::Acquire { func }),
        (func(), 0u8..4, 1u64..1024).prop_map(|(func, shard, mem)| WarmOp::Release {
            func,
            shard,
            mem
        }),
        Just(WarmOp::EvictExpired),
        (0u8..4, 1u64..2048).prop_map(|(shard, need)| WarmOp::EvictFor { shard, need }),
    ]
}

proptest! {
    /// The keep-alive refactor is observationally equivalent to the seed
    /// pool: the park-ordered, per-entry-deadline `WarmPool` driven with
    /// `KeepAlive::fixed` deadlines (`keep_until = now + ttl`) matches the
    /// pre-refactor hard-coded-TTL reference event for event — identical
    /// warm hits (shard and pinned memory), identical eviction batches in
    /// identical order, identical counters and gauges — on arbitrary
    /// acquire/release/evict sequences with expiries interleaved.
    #[test]
    fn warm_pool_fixed_ttl_matches_seed_reference(
        ops in prop::collection::vec(warm_op(), 1..150),
        ttl_secs in 1u64..120,
    ) {
        use libra::sim::container::WarmPool;
        use support::seed_warm_pool as reference;
        use libra::sim::ids::FunctionId;
        use libra::sim::node::Slice;

        let ttl = SimDuration::from_secs(ttl_secs);
        // The seed pool parked unconditionally: park into a slice no pin fills.
        let roomy = Slice::new(ResourceVec::new(0, u64::MAX / 2));
        let mut new = WarmPool::new();
        let mut old = reference::WarmPool::new(ttl);
        let mut t = 0u64;
        for op in ops {
            // Uneven step so deadlines fall both inside and outside windows.
            t += 1 + (t % 13) * 7_000_000;
            let now = SimTime(t);
            match op {
                WarmOp::Acquire { func } => {
                    let f = FunctionId(func);
                    prop_assert_eq!(new.acquire(f, now), old.acquire(f, now), "hit diverged");
                }
                WarmOp::Release { func, shard, mem } => {
                    let f = FunctionId(func);
                    prop_assert!(new.park(f, shard as usize, mem, &roomy, now, now + ttl));
                    old.release(f, shard as usize, mem, now);
                }
                WarmOp::EvictExpired => {
                    prop_assert_eq!(new.evict_expired(now), old.evict_expired(now));
                }
                WarmOp::EvictFor { shard, need } => {
                    prop_assert_eq!(
                        new.evict_for(shard as usize, need),
                        old.evict_for(shard as usize, need)
                    );
                }
            }
            prop_assert_eq!(new.stats(), old.stats(), "hit/cold counters diverged");
            // Shard 4 never holds a pin.
            for shard in 0..5usize {
                prop_assert_eq!(new.pinned_for(shard), old.pinned_for(shard));
            }
            for func in WARM_FUNCS {
                let f = FunctionId(func);
                prop_assert_eq!(new.count_at(f, now), old.count_at(f, now));
            }
        }
    }
}

/// Engine-level property: random small traces on a small cluster always
/// complete, conserve records, and never violate the reservation
/// invariants (checked by the engine's debug assertions during the run).
#[test]
fn random_traces_always_complete() {
    use libra::core::{LibraConfig, LibraPlatform};
    use libra::sim::engine::{SimConfig, Simulation};
    use libra::workloads::trace::TraceGen;
    use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

    for seed in 0..8 {
        let gen = TraceGen::standard(&ALL_APPS, seed);
        let n = 20 + (seed as usize * 13) % 60;
        let trace = gen.poisson(n, 60.0 + seed as f64 * 40.0);
        let sim = Simulation::new(
            sebs_suite(),
            testbeds::multi_node(),
            SimConfig { shards: 2, ..SimConfig::default() },
        );
        let mut p = LibraPlatform::new(LibraConfig::libra());
        let r = sim.run(&trace, &mut p);
        assert_eq!(r.records.len(), n, "seed {seed}");
    }
}

// Chaos property (timeliness law + node invariants under faults): for an
// arbitrary seeded fault plan, every arrival terminates — completed or
// aborted with its retry budget exhausted — the engine's reservation
// invariants hold throughout (debug assertions are active in tests), and
// the final pool-consistency check reports zero violations.
proptest! {
    #[test]
    fn arbitrary_fault_plans_preserve_termination_and_safety(
        seed in 0u64..1000,
        crashes in 0.0f64..3.0,
        aborts in 0.0f64..4.0,
        stalls in 0.0f64..2.0,
        drops in 0.0f64..6.0,
        delays in 0.0f64..3.0,
        jitters in 0.0f64..4.0,
    ) {
        use libra::sim::fault::{build_plan, ChaosConfig, ClusterShape};
        use libra::core::{LibraConfig, LibraPlatform};
        use libra::sim::engine::{SimConfig, Simulation};
        use libra::workloads::trace::TraceGen;
        use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

        let n = 14 + (seed as usize % 10);
        let gen = TraceGen::standard(&ALL_APPS, seed);
        let trace = gen.poisson(n, 150.0);
        let span = trace.entries.last().map(|e| e.at.0).unwrap_or(0);
        let horizon = SimDuration(span) + SimDuration::from_secs(5);
        let cfg = ChaosConfig {
            node_crashes: crashes,
            node_downtime: SimDuration::from_millis(1500),
            invocation_aborts: aborts,
            shard_stalls: stalls,
            ping_drops: drops,
            ping_delays: delays,
            tick_jitters: jitters,
            ..ChaosConfig::quiet(seed, horizon)
        };
        let shape = ClusterShape { nodes: 4, shards: 2, invocations: n as u32 };
        let plan = build_plan(&cfg, &shape);

        let sim = Simulation::new(
            sebs_suite(),
            testbeds::multi_node(),
            SimConfig { shards: 2, ..SimConfig::default() },
        );
        let mut p = LibraPlatform::new(LibraConfig::libra());
        let r = sim.run_with_faults(&trace, &mut p, &plan);

        prop_assert_eq!(r.pool_violations, 0, "pool-consistency violation");
        prop_assert_eq!(
            r.records.len() as u64 + r.aborted,
            n as u64,
            "an arrival neither completed nor terminally aborted"
        );
        // Completed-record bookkeeping survives requeues: ids stay unique.
        let mut ids: Vec<u32> = r.records.iter().map(|rec| rec.inv.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), r.records.len(), "duplicate completion records");
    }

    /// Breakdown-vs-latency conservation under chaos: crashes, requeues and
    /// OOM restarts route an invocation through every retry path, yet the
    /// incremental stage charges must telescope exactly — for *every*
    /// completion record, `StageBreakdown::total()` equals the end-to-end
    /// latency, with no drift into the scheduler stage and no exec
    /// underflow. (This is the regression net over the two accounting bugs
    /// the absolute recomputation had on the requeue and OOM-restart paths.)
    #[test]
    fn chaos_breakdowns_telescope_to_latency(
        seed in 0u64..400,
        crashes in 0.0f64..3.0,
        aborts in 0.0f64..4.0,
        stalls in 0.0f64..2.0,
    ) {
        use libra::sim::fault::{build_plan, ChaosConfig, ClusterShape};
        use libra::core::{LibraConfig, LibraPlatform};
        use libra::sim::engine::{SimConfig, Simulation};
        use libra::workloads::trace::TraceGen;
        use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

        let n = 14 + (seed as usize % 10);
        let gen = TraceGen::standard(&ALL_APPS, seed);
        let trace = gen.poisson(n, 150.0);
        let span = trace.entries.last().map(|e| e.at.0).unwrap_or(0);
        let horizon = SimDuration(span) + SimDuration::from_secs(5);
        let cfg = ChaosConfig {
            node_crashes: crashes,
            node_downtime: SimDuration::from_millis(1500),
            invocation_aborts: aborts,
            shard_stalls: stalls,
            ..ChaosConfig::quiet(seed, horizon)
        };
        let shape = ClusterShape { nodes: 4, shards: 2, invocations: n as u32 };
        let plan = build_plan(&cfg, &shape);

        let sim = Simulation::new(
            sebs_suite(),
            testbeds::multi_node(),
            SimConfig { shards: 2, trace: true, ..SimConfig::default() },
        );
        let mut p = LibraPlatform::new(LibraConfig::libra());
        let r = sim.run_with_faults(&trace, &mut p, &plan);

        for rec in &r.records {
            prop_assert_eq!(
                rec.breakdown.total(),
                rec.latency,
                "breakdown drift for {:?}: requeues={} restarts={} breakdown={:?}",
                rec.inv, rec.requeues, rec.restarts, rec.breakdown
            );
        }
        // The span trace tells the same story: per completed invocation the
        // spans tile [arrival, completion] — same total, per-attempt view.
        let trace_out = r.trace.as_ref().expect("tracing was enabled");
        for rec in &r.records {
            let spans = trace_out.spans_for(rec.inv.0 as u64);
            let sum: u64 = spans.iter().map(|s| s.len_us()).sum();
            prop_assert_eq!(
                SimDuration(sum),
                rec.latency,
                "span tiling drift for {:?}",
                rec.inv
            );
            let path = trace_out.critical_path(rec.inv.0 as u64);
            prop_assert!(!path.is_empty(), "no critical path for {:?}", rec.inv);
        }
    }
}

proptest! {
    /// Below its capacity the streaming percentile sketch holds every
    /// sample, so its quantiles must agree bit-for-bit with the exact
    /// `percentiles` oracle over the same data — at every probe point,
    /// for arbitrary (finite) sample streams.
    #[test]
    fn quantile_sketch_matches_exact_oracle_below_capacity(
        xs in prop::collection::vec(-1e9f64..1e9, 1..600),
        ps in prop::collection::vec(0.0f64..=100.0, 1..8),
    ) {
        use libra::sim::metrics::{percentiles, QuantileSketch};
        let mut sketch = QuantileSketch::default();
        for &x in &xs {
            sketch.push(x);
        }
        prop_assert!(sketch.is_exact());
        let exact = percentiles(&xs, &ps);
        let approx = sketch.quantiles(&ps);
        prop_assert_eq!(exact, approx);
    }

    /// Past the capacity the reservoir is a subsample: quantiles stay inside
    /// the true data range, the estimator is deterministic (two identical
    /// streams yield identical sketches), and `seen` keeps exact count.
    #[test]
    fn quantile_sketch_is_bounded_and_deterministic_past_capacity(
        seed in 0u64..1_000,
        extra in 1usize..4_000,
    ) {
        use libra::sim::metrics::{QuantileSketch, SKETCH_CAPACITY};
        let n = SKETCH_CAPACITY + extra;
        // Deterministic pseudo-stream (no external RNG in the oracle).
        let stream = |k: u64| -> f64 {
            let mut z = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            z ^= z >> 30;
            (z % 100_000) as f64 / 7.0
        };
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for k in 0..n as u64 {
            let x = stream(k);
            lo = lo.min(x);
            hi = hi.max(x);
            a.push(x);
            b.push(x);
        }
        prop_assert!(!a.is_exact());
        prop_assert_eq!(a.seen(), n as u64);
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            let qa = a.quantile(p);
            let qb = b.quantile(p);
            prop_assert_eq!(qa, qb, "sketch must be deterministic at p{}", p);
            prop_assert!((lo..=hi).contains(&qa), "p{} = {} outside [{}, {}]", p, qa, lo, hi);
        }
    }

    /// Welford online moments agree with the naive two-pass computation to
    /// floating-point tolerance, and min/max/count are exact.
    #[test]
    fn online_stats_match_two_pass_moments(
        xs in prop::collection::vec(-1e6f64..1e6, 1..500),
    ) {
        use libra::sim::metrics::OnlineStats;
        let mut s = OnlineStats::default();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-4 * var.abs().max(1.0));
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }
}
