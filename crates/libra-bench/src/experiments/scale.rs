//! `exp scale` — the `huge` trace tier (1M invocations at 20k RPM across a
//! 400-function Zipf catalogue, on 1,000 × 48-core nodes) through the engine
//! in streaming metrics mode: the workload the slab arena, streamed
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
//! (`benchmarks/perf`); the lines' counts at 0.02 are pinned through
//! [`crate::probe`], which runs [`tier`] and [`simulate`] itself.

use crate::probe::{self, KIND_NAMES};
use libra_core::{LibraConfig, LibraPlatform};
use libra_sim::engine::NullPlatform;
use libra_sim::metrics::RunResult;
use libra_sim::platform::Platform;
use libra_sim::trace::Trace;
use libra_workloads::trace::HugeTier;
use std::time::Instant;

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
    let tier = tier(scale, 42);
    eprintln!(
        "[scale] scale={scale} invocations={} functions={} nodes={}",
        tier.invocations,
        tier.gen.kinds.len(),
        tier.nodes
    );

    let trace = tier.trace();
    let t_run = Instant::now();
    let null = simulate(&tier, &trace, &mut NullPlatform);
    let null_fields = fields(&null, t_run.elapsed().as_secs_f64());
    println!(
        "tier=huge scale={scale} {null_fields} walks={} pops: {}",
        null.tick_walks.0,
        pops(&null)
    );
    let mut libra = LibraPlatform::new(LibraConfig::np());
    let t_run = Instant::now();
    let np = simulate(&tier, &trace, &mut libra);
    let np_fields = fields(&np, t_run.elapsed().as_secs_f64());
    println!(
        "tier=huge platform=Libra-NP scale={scale} {np_fields} visits={} walks={} safeguard_trips={} pops: {}",
        libra.visits(),
        np.tick_walks.0,
        libra.report().safeguard_triggers,
        pops(&np),
    );
}

/// The huge tier at `scale`: invocations, arrival rate and node count shrunk
/// together (0.02: 20k invocations, 20 nodes).
pub fn tier(scale: f64, seed: u64) -> HugeTier {
    let mut tier = HugeTier::standard(seed);
    let scaled = |n: usize| ((n as f64 * scale) as usize).max(1);
    tier.invocations = scaled(tier.invocations);
    tier.nodes = scaled(tier.nodes);
    tier.rpm *= scale;
    tier
}

/// Run the tier under `platform` on a fresh engine and assert conservation.
pub fn simulate(tier: &HugeTier, trace: &Trace, platform: &mut dyn Platform) -> RunResult {
    let result = probe::simulation(tier).run(trace, platform);

    let total = result.summary.completed + result.aborted;
    assert_eq!(total as usize, tier.invocations, "every invocation must be accounted for");
    assert!(result.records.is_empty(), "streaming mode must not buffer records");
    assert_eq!(result.pool_violations, 0, "safety ledger must stay exact at scale");
    result
}

/// Where the pops went, for the next event diet: `kind=pops`, with the
/// lazily-cancelled share in brackets where there is one.
fn pops(result: &RunResult) -> String {
    let pops: Vec<String> = KIND_NAMES
        .iter()
        .zip(&result.pops_by_kind)
        .filter(|(_, k)| k.handled + k.stale > 0)
        .map(|(name, k)| match k.stale {
            0 => format!("{name}={}", k.handled),
            stale => format!("{name}={}({stale} stale)", k.handled + stale),
        })
        .collect();
    pops.join(" ")
}

/// A line's outcome and speed fields for a run that took `wall_sec`.
fn fields(result: &RunResult, wall_sec: f64) -> String {
    let inv_per_sec = result.summary.completed as f64 / wall_sec.max(1e-9);
    let event_ops = result.event_pushes + result.event_pops;
    let events_per_sec = event_ops as f64 / wall_sec.max(1e-9);
    format!(
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
    )
}
