//! Golden-trace determinism regression.
//!
//! The engine refactors that let the simulator absorb million-invocation
//! traces (arena invocation storage, streaming metrics, intrusive resident
//! lists, borrowed trace/fault-plan setup) must be *observably inert*: the
//! seed workloads' per-invocation control-plane action traces and completion
//! records have to stay byte-identical. This test renders both to text and
//! compares against a committed golden file.
//!
//! Two scenarios are pinned:
//!
//! 1. `single_set(seed=42)` on the single-node testbed under the Libra
//!    platform — the paper's seed workload, exercising harvest, loans,
//!    safeguard and re-harvest on the happy path.
//! 2. `poisson(200, 120 rpm)` on the multi-node testbed under a seeded
//!    chaos plan — exercising the crash sweep, loan revocation, requeue
//!    and abort paths that the arena refactor rewires.
//!
//! Regenerate deliberately with `LIBRA_BLESS=1 cargo test --test
//! golden_trace` after verifying a behavioural change is intended.

use libra::core::{LibraConfig, LibraPlatform};
use libra::sim::engine::{SimConfig, Simulation};
use libra::sim::fault::{build_plan, ChaosConfig, ClusterShape};
use libra::sim::metrics::RunResult;
use libra::sim::time::SimDuration;
use libra::workloads::trace::TraceGen;
use libra::workloads::{sebs_suite, testbeds, ALL_APPS};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/seed_workloads.txt")
}

/// Render a run's control-plane action trace and completion records as
/// stable text, one line per action / record.
fn render_run(out: &mut String, platform: &LibraPlatform, r: &RunResult) {
    for a in platform.core().action_trace() {
        writeln!(out, "action {a:?}").unwrap();
    }
    writeln!(out, "records n={}", r.records.len()).unwrap();
    for rec in &r.records {
        writeln!(
            out,
            "record inv={:?} func={:?} name={} node={:?} arrival_us={} latency_us={} \
             exec_us={} baseline_us={} speedup={:?} cold={} flags={:?} \
             cpu_core_sec={:?} mem_mb_sec={:?} cpu_peak={} mem_peak={} \
             restarts={} requeues={}",
            rec.inv,
            rec.func,
            ALL_APPS[rec.func.idx()].name(),
            rec.node,
            rec.arrival.as_micros(),
            rec.latency.as_micros(),
            rec.exec.as_micros(),
            rec.baseline_latency.as_micros(),
            rec.speedup,
            rec.cold_start,
            rec.flags,
            rec.cpu_reassigned_core_sec,
            rec.mem_reassigned_mb_sec,
            rec.cpu_peak_obs,
            rec.mem_peak_obs,
            rec.restarts,
            rec.requeues,
        )
        .unwrap();
    }
    writeln!(
        out,
        "summary completion_us={} warm={} cold={} sched_delay_us={} aborted={} \
         requeues={} faults={} violations={}",
        r.completion_time.as_micros(),
        r.warm_hits,
        r.cold_starts,
        r.mean_sched_delay.as_micros(),
        r.aborted,
        r.crash_requeues,
        r.faults_injected,
        r.pool_violations,
    )
    .unwrap();
}

fn render_all() -> String {
    let mut out = String::new();

    // Scenario 1: the seed workload, fault-free, single node.
    writeln!(out, "=== single_set seed=42 single-node libra ===").unwrap();
    let trace = TraceGen::standard(&ALL_APPS, 42).single_set();
    let config = SimConfig { trace: true, ..SimConfig::default() };
    let sim = Simulation::new(sebs_suite(), testbeds::single_node(), config);
    let mut platform = LibraPlatform::new(LibraConfig::libra());
    let r = sim.run(&trace, &mut platform);
    assert_eq!(r.records.len(), 165, "all seed invocations must complete");
    render_run(&mut out, &platform, &r);

    // Scenario 2: chaos plan over a Poisson trace, multi node — pins the
    // crash sweep / revocation / requeue / abort paths.
    writeln!(out, "=== poisson(200,120rpm) seed=42 multi-node libra chaos ===").unwrap();
    let trace = TraceGen::standard(&ALL_APPS, 42).poisson(200, 120.0);
    let span = trace.entries.last().map(|e| e.at).unwrap_or_default();
    let horizon = SimDuration(span.0) + SimDuration::from_secs(5);
    let chaos = ChaosConfig {
        node_crashes: 2.0,
        invocation_aborts: 5.0,
        shard_stalls: 1.5,
        ping_drops: 8.0,
        ping_delays: 4.0,
        tick_jitters: 6.0,
        ..ChaosConfig::quiet(1000, horizon)
    };
    let shape = ClusterShape { nodes: 4, shards: 4, invocations: trace.len() as u32 };
    let plan = build_plan(&chaos, &shape);
    let config = SimConfig { shards: 4, trace: true, ..SimConfig::default() };
    let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config);
    let mut platform = LibraPlatform::new(LibraConfig::libra());
    let r = sim.run_with_faults(&trace, &mut platform, &plan);
    assert_eq!(
        r.records.len() as u64 + r.aborted,
        200,
        "every chaos arrival must complete or abort"
    );
    render_run(&mut out, &platform, &r);

    out
}

#[test]
fn seed_workload_traces_match_golden() {
    let rendered = render_all();
    let path = golden_path();
    if std::env::var("LIBRA_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden file");
        eprintln!("blessed {} ({} bytes)", path.display(), rendered.len());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run LIBRA_BLESS=1", path.display())
    });
    if rendered != golden {
        // Pinpoint the first divergent line — a full-file assert_eq dump is
        // unreadable at thousands of lines.
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "golden trace diverged at line {}", i + 1);
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "golden trace line count diverged"
        );
        panic!("golden trace diverged (trailing content)");
    }
}
