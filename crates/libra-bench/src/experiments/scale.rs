//! `exp scale` — the `huge` trace tier (1M invocations at 20k RPM across a
//! 400-function Zipf catalogue, on 1,000 × 48-core nodes) through the engine
//! in [`MetricsMode::Streaming`]: the workload the slab arena, streamed
//! arrivals, per-node resident vectors and online metrics exist for, and the
//! only code that runs it at full size. `LIBRA_SCALE` shrinks invocations,
//! arrival rate and node count together (0.02: 20k invocations, 20 nodes).
//!
//! It runs the tier twice, under `NullPlatform` (the engine alone) and
//! under Libra-NP (harvesting, the safeguard's monitor and the coverage
//! scheduler, without the ML profiler), asserts conservation after each and
//! prints one throughput line for each, with its monitor ticks that walked
//! their node; the second adds its monitor visits and safeguard trips. The
//! regression gate on simulator speed is the repo benchmark
//! (`benchmarks/perf`).

use libra_core::{LibraConfig, LibraPlatform};
use libra_sim::engine::{NullPlatform, SimConfig, Simulation};
use libra_sim::event::EVENT_KINDS;
use libra_sim::metrics::MetricsMode;
use libra_sim::platform::Platform;
use libra_sim::trace::Trace;
use libra_workloads::trace::HugeTier;
use std::time::Instant;

/// Event kind names, indexed by `Event::kind`.
const KIND_NAMES: [&str; EVENT_KINDS] = [
    "decision_done",
    "start_exec",
    "finish",
    "monitor_tick",
    "health_ping",
    "utilization_sample",
    "retry_blocked",
    "fault",
    "requeue",
    "prewarm",
];

/// Peak resident set size (VmHWM) in MB, from `/proc/self/status`.
/// Returns 0 on platforms without procfs — the field is informational.
fn peak_rss_mb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// Run the tier under both platforms and print their throughput lines.
pub fn run() {
    let scale = crate::scale();
    let mut tier = HugeTier::standard(42);
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(1);
    tier.invocations = scaled(tier.invocations);
    tier.nodes = scaled(tier.nodes);
    tier.rpm *= scale;
    eprintln!(
        "[scale] scale={scale} invocations={} functions={} nodes={}",
        tier.invocations,
        tier.gen.kinds.len(),
        tier.nodes
    );

    let trace = tier.trace();
    let (null, null_walks, null_pops) = simulate(&tier, &trace, &mut NullPlatform);
    println!("tier=huge scale={scale} {null} walks={null_walks} pops: {null_pops}");
    let mut libra = LibraPlatform::new(LibraConfig::np());
    let (np, np_walks, np_pops) = simulate(&tier, &trace, &mut libra);
    println!(
        "tier=huge platform=Libra-NP scale={scale} {np} visits={} walks={np_walks} safeguard_trips={} pops: {np_pops}",
        libra.visits(),
        libra.report().safeguard_triggers,
    );
}

/// Run the tier under `platform` and assert conservation; returns the
/// line's outcome and speed fields, its monitor ticks that walked, and its
/// pops per event kind.
fn simulate(tier: &HugeTier, trace: &Trace, platform: &mut dyn Platform) -> (String, u64, String) {
    let config =
        SimConfig { shards: tier.shards, metrics: MetricsMode::Streaming, ..SimConfig::default() };
    let sim = Simulation::new(tier.suite(), tier.node_caps(), config);

    let t_run = Instant::now();
    let result = sim.run(trace, platform);
    let wall_sec = t_run.elapsed().as_secs_f64();

    let total = result.summary.completed + result.aborted;
    assert_eq!(total as usize, tier.invocations, "every invocation must be accounted for");
    assert!(result.records.is_empty(), "streaming mode must not buffer records");
    assert_eq!(result.pool_violations, 0, "safety ledger must stay exact at scale");

    let inv_per_sec = result.summary.completed as f64 / wall_sec.max(1e-9);
    let event_ops = result.event_pushes + result.event_pops;
    let events_per_sec = event_ops as f64 / wall_sec.max(1e-9);

    // Where the pops went, for the next event diet: `kind=pops`, with the
    // lazily-cancelled share in brackets where there is one.
    let pops: Vec<String> = KIND_NAMES
        .iter()
        .zip(&result.pops_by_kind)
        .filter(|(_, k)| k.handled + k.stale > 0)
        .map(|(name, k)| match k.stale {
            0 => format!("{name}={}", k.handled),
            stale => format!("{name}={}({stale} stale)", k.handled + stale),
        })
        .collect();

    let fields = format!(
        "completed={} aborted={} wall={wall_sec:.2}s \
         inv/s={inv_per_sec:.0} events/s={events_per_sec:.0} peak_rss={}MB \
         peak_live={} p50={:.3}s p99={:.3}s mean_cpu_util={:.3}",
        result.summary.completed,
        result.aborted,
        peak_rss_mb(),
        result.summary.peak_live_invocations,
        result.summary.latency_sketch.quantile(50.0),
        result.summary.latency_sketch.quantile(99.0),
        result.summary.cpu_util.mean(),
    );
    (fields, result.tick_walks.0, pops.join(" "))
}
