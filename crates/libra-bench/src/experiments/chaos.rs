//! `exp chaos` — resilience of the harvest control plane under injected
//! faults (`libra_sim::fault` plans).
//!
//! Two claims are checked. First, fault injection is *provably inert* when
//! disabled: running Libra through [`Simulation::run_with_faults`] with an
//! empty plan must be byte-identical to a plain [`Simulation::run`] (it is
//! the same code path, and this experiment verifies it record by record).
//! Second, under increasingly aggressive fault plans — node crashes with
//! recoveries, targeted invocation aborts, scheduler-shard stalls, dropped
//! and delayed health pings, monitor-tick jitter — the control plane must
//! keep its books: zero pool-consistency violations at every fault scale,
//! and every arrival terminates (completed or aborted with its retry budget
//! exhausted). The sweep reports how P99 latency and invocation loss degrade
//! as faults scale up.

use crate::*;
use libra_sim::engine::{SimConfig, Simulation};
use libra_sim::fault::{build_plan, ChaosConfig, ClusterShape, FaultPlan};
use libra_sim::time::SimDuration;
use libra_sim::trace::Trace;
use libra_workloads::{sebs_suite, testbeds};

/// Fault scales swept (multipliers on the base fault counts).
const SCALES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];

/// Arrivals per trace: Poisson at 120 RPM on the 4-node, 4-shard cluster.
const INVOCATIONS: usize = 200;

fn poisson_trace(rep: u64) -> Trace {
    trace_gen(rep).poisson(INVOCATIONS, 120.0)
}

fn config() -> SimConfig {
    SimConfig { shards: 4, ..SimConfig::default() }
}

/// Base fault mix at scale 1.0, drawn over the trace's span.
fn base_chaos(seed: u64, horizon: SimDuration) -> ChaosConfig {
    ChaosConfig {
        node_crashes: 2.0,
        invocation_aborts: 5.0,
        shard_stalls: 1.5,
        ping_drops: 8.0,
        ping_delays: 4.0,
        tick_jitters: 6.0,
        ..ChaosConfig::quiet(seed, horizon)
    }
}

fn run_libra_with(trace: &Trace, faults: &FaultPlan) -> PlatformRun {
    let mut platform = PlatformKind::Libra.build();
    let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config());
    let result = sim.run_with_faults(trace, platform.as_mut(), faults);
    PlatformRun { name: platform.name(), result, report: platform.report() }
}

/// Assert that an empty fault plan reproduces the plain run exactly.
fn check_inert(trace: &Trace) {
    let plain =
        run_on(sebs_suite(), testbeds::multi_node(), config(), trace, PlatformKind::Libra.build());
    let empty = run_libra_with(trace, &FaultPlan::empty());
    assert_eq!(plain.result.records.len(), empty.result.records.len());
    for (a, b) in plain.result.records.iter().zip(empty.result.records.iter()) {
        assert_eq!(a.inv, b.inv, "inertness violated: record order diverged");
        assert_eq!(a.latency, b.latency, "inertness violated: latency diverged for {:?}", a.inv);
        assert_eq!(a.node, b.node, "inertness violated: placement diverged for {:?}", a.inv);
        assert_eq!(a.flags, b.flags, "inertness violated: flags diverged for {:?}", a.inv);
    }
    assert_eq!(plain.result.completion_time, empty.result.completion_time);
    assert_eq!(empty.result.faults_injected, 0);
    println!("inertness check: empty fault plan is byte-identical to a plain run ✓");
}

/// Run the experiment.
pub fn run() {
    header("exp_chaos: fault-injection sweep (Libra, 4-node cluster, 4 shards)");
    let reps = repetitions();

    check_inert(&poisson_trace(0));

    // Fan (scale × rep) across the pool; the safety asserts run on the
    // ordered results so a violation still names its fault scale.
    let traces: Vec<Trace> = (0..reps).map(poisson_trace).collect();
    let runs = sweep(&SCALES, reps, |&scale, rep| {
        let trace = &traces[rep as usize];
        let span = trace.entries.last().map(|e| e.at).unwrap_or_default();
        let horizon = SimDuration(span.0) + SimDuration::from_secs(5);
        let shape =
            ClusterShape { nodes: 4, shards: config().shards, invocations: trace.len() as u32 };
        let plan = build_plan(&base_chaos(1000 + rep, horizon).scaled(scale), &shape);
        run_libra_with(trace, &plan)
    });
    for (&scale, scale_runs) in SCALES.iter().zip(&runs) {
        for run in scale_runs {
            assert_eq!(
                run.result.pool_violations, 0,
                "pool-consistency violation at fault scale {scale}"
            );
            let done = run.result.records.len() + run.result.aborted as usize;
            assert_eq!(done, INVOCATIONS, "an arrival neither completed nor aborted");
        }
    }

    header("P99 latency and loss vs fault scale (averaged over reps)");
    row(&["scale", "faults", "P99 (s)", "P99 degr.", "loss rate", "requeues", "pool viol."]
        .map(String::from));
    let p99 = |runs: &[PlatformRun]| mean_by(runs, |run| run.result.latency_percentile(99.0));
    let base_p99 = p99(&runs[0]);
    let mut rows = Vec::new();
    for (&scale, scale_runs) in SCALES.iter().zip(&runs) {
        let p = p99(scale_runs);
        let degr = if base_p99 > 0.0 { p / base_p99 } else { 1.0 };
        let l = mean_by(scale_runs, |run| run.result.aborted as f64 / INVOCATIONS as f64);
        let rq = mean_by(scale_runs, |run| run.result.crash_requeues as f64);
        let f = mean_by(scale_runs, |run| run.result.faults_injected as f64);
        let violations = mean_by(scale_runs, |run| run.result.pool_violations as f64);
        row(&[
            format!("{scale:.1}x"),
            format!("{f:.1}"),
            format!("{p:.2}"),
            format!("{degr:.2}x"),
            format!("{:.2}%", l * 100.0),
            format!("{rq:.1}"),
            format!("{violations}"),
        ]);
        rows.push(vec![scale, f, p, degr, l, rq, violations]);
    }
    write_csv(
        "exp_chaos",
        &[
            "scale",
            "faults_injected",
            "p99_s",
            "p99_degradation",
            "loss_rate",
            "requeues",
            "pool_violations",
        ],
        &rows,
    );

    compare("Pool-consistency violations under faults", "0 (safety, §5.1)", "0".into());
    compare(
        "P99 degradation at 4x fault scale",
        "graceful (bounded)",
        format!("{:.2}x", rows.last().map(|r| r[3]).unwrap_or(1.0)),
    );
}
