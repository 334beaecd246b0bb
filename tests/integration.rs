//! Cross-crate integration tests: the paper's safety and timeliness
//! guarantees, end to end, over the real workloads.

use libra::baselines::{Freyr, OpenWhiskDefault};
use libra::core::{LibraConfig, LibraPlatform};
use libra::sim::engine::{SimConfig, Simulation};
use libra::sim::metrics::RunResult;
use libra::sim::platform::Platform;
use libra::workloads::trace::TraceGen;
use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

fn run_single(platform: &mut dyn Platform, seed: u64) -> RunResult {
    let gen = TraceGen::standard(&ALL_APPS, seed);
    let trace = gen.single_set();
    let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
    sim.run(&trace, platform)
}

#[test]
fn libra_beats_default_on_the_single_trace() {
    let d = run_single(&mut OpenWhiskDefault, 42);
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let l = run_single(&mut libra, 42);
    assert_eq!(d.records.len(), l.records.len());
    assert!(
        l.latency_percentile(99.0) < d.latency_percentile(99.0),
        "Libra P99 {:.1}s must beat Default {:.1}s",
        l.latency_percentile(99.0),
        d.latency_percentile(99.0)
    );
    assert!(l.completion_time <= d.completion_time, "Libra must complete the workload no slower");
}

#[test]
fn libra_is_safe_worst_degradation_is_tiny() {
    // The paper's safety definition (§2.1): harvesting must not deteriorate
    // performance. Libra's worst speedup across seeds stays near zero.
    for seed in [42, 43, 44] {
        let mut libra = LibraPlatform::new(LibraConfig::libra());
        let l = run_single(&mut libra, seed);
        let worst = l.worst_degradation();
        assert!(worst > -0.12, "seed {seed}: Libra worst degradation {worst} too deep");
    }
}

#[test]
fn removing_the_safeguard_removes_the_safety_guarantee() {
    // Libra-NSP (no safeguard, no profiler) must show real degradations
    // somewhere across seeds — that contrast is the paper's ablation story.
    let mut worst = 0.0f64;
    for seed in [42, 43, 44] {
        let mut nsp = LibraPlatform::new(LibraConfig::nsp());
        let r = run_single(&mut nsp, seed);
        worst = worst.min(r.worst_degradation());
    }
    assert!(worst < -0.3, "NSP should degrade somewhere, worst {worst}");
}

#[test]
fn freyr_sits_between_default_and_libra_on_p99() {
    let d = run_single(&mut OpenWhiskDefault, 42);
    let mut freyr = Freyr::new();
    let f = run_single(&mut freyr, 42);
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let l = run_single(&mut libra, 42);
    assert!(
        l.latency_percentile(99.0) <= f.latency_percentile(99.0),
        "Libra must beat Freyr on P99"
    );
    // Freyr harvests but mispredicts: it must show a real degradation tail
    // that Libra does not have.
    assert!(f.worst_degradation() < l.worst_degradation() - 0.1);
    assert!(d.worst_degradation().abs() < 1e-9, "default never changes allocations");
}

#[test]
fn every_invocation_completes_exactly_once() {
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let r = run_single(&mut libra, 99);
    assert_eq!(r.records.len(), 165);
    let mut ids: Vec<u32> = r.records.iter().map(|rec| rec.inv.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 165, "duplicate completion records");
}

#[test]
fn runs_are_deterministic_given_the_seed() {
    let run = |_: u32| {
        let mut libra = LibraPlatform::new(LibraConfig::libra());
        run_single(&mut libra, 1234)
    };
    let (a, b) = (run(0), run(1));
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.inv, y.inv);
        assert_eq!(x.latency, y.latency);
        assert_eq!(x.speedup, y.speedup);
        assert_eq!(x.flags, y.flags);
    }
    assert_eq!(a.completion_time, b.completion_time);
}

#[test]
fn borrowed_time_never_exceeds_harvested_time() {
    // Conservation: every borrowed core-second was harvested from some
    // over-provisioned invocation first. Σ positive reassignment (borrow
    // integrals) can never exceed Σ negative reassignment (harvest
    // integrals) in absolute value.
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let r = run_single(&mut libra, 42);
    let borrowed: f64 = r.records.iter().map(|x| x.cpu_reassigned_core_sec.max(0.0)).sum();
    let harvested: f64 = r.records.iter().map(|x| (-x.cpu_reassigned_core_sec).max(0.0)).sum();
    assert!(borrowed > 0.0, "some acceleration must happen");
    assert!(
        borrowed <= harvested + 1e-6,
        "borrowed {borrowed:.1} core·s must not exceed harvested {harvested:.1} core·s"
    );
}

#[test]
fn harvesting_improves_utilization_not_just_latency() {
    let d = run_single(&mut OpenWhiskDefault, 42);
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let l = run_single(&mut libra, 42);
    assert!(
        l.mean_cpu_util() > d.mean_cpu_util() * 1.02,
        "Libra CPU util {:.3} must exceed Default {:.3}",
        l.mean_cpu_util(),
        d.mean_cpu_util()
    );
}

#[test]
fn multi_node_cluster_serves_all_scheduling_algorithms() {
    use libra::baselines::{JoinShortestQueue, MinWorkerSet, RoundRobin};
    use libra::core::{CoverageSelector, HashSelector};
    let gen = TraceGen::standard(&ALL_APPS, 5);
    let sets = gen.multi_sets();
    let (_, trace) = &sets[6]; // the 120-RPM set
    let config = SimConfig { shards: 2, ..SimConfig::default() };

    let mut results = Vec::new();
    macro_rules! run_sel {
        ($sel:expr) => {{
            let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config.clone());
            let mut p = LibraPlatform::with_selector(LibraConfig::libra(), $sel);
            results.push(sim.run(trace, &mut p));
        }};
    }
    run_sel!(HashSelector);
    run_sel!(RoundRobin::default());
    run_sel!(JoinShortestQueue);
    run_sel!(MinWorkerSet);
    run_sel!(CoverageSelector);
    for r in &results {
        assert_eq!(r.records.len(), trace.len(), "{} lost invocations", r.platform);
    }
}

#[test]
fn decentralized_shards_preserve_correctness() {
    // Same trace, 1 vs 4 shards: every invocation completes either way, and
    // safety holds under sharding.
    for shards in [1usize, 4] {
        let gen = TraceGen::standard(&ALL_APPS, 11);
        let trace = gen.poisson(120, 180.0);
        let config = SimConfig { shards, ..SimConfig::default() };
        let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config);
        let mut p = LibraPlatform::new(LibraConfig::libra());
        let r = sim.run(&trace, &mut p);
        assert_eq!(r.records.len(), 120, "shards={shards}");
        assert!(r.worst_degradation() > -0.15, "shards={shards}: unsafe");
    }
}

#[test]
fn platform_report_ledgers_are_consistent() {
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let r = run_single(&mut libra, 42);
    let rep = libra.report();
    assert!(rep.pool_puts > 0);
    assert!(rep.pool_idle_cpu_core_sec >= 0.0);
    assert!(rep.pool_idle_mem_mb_sec >= 0.0);
    // Idle time cannot exceed (pool volume bound) × run duration: use the
    // loosest sane bound — total cluster capacity × completion time.
    let cap_core_sec = 72.0 * r.completion_time.as_secs_f64();
    assert!(rep.pool_idle_cpu_core_sec <= cap_core_sec);
}

#[test]
fn lender_node_crash_mid_loan_is_fully_unwound() {
    // The chaos headline: kill nodes while loans are live. Because loans are
    // intra-node, a node crash takes lenders and borrowers down together; the
    // engine must unwind every affected loan through the normal revocation
    // protocol (LoanEnd::Crashed), sweep the node's pool collections, requeue
    // the victims, and leave the ledgers exact.
    use libra::sim::fault::{FaultKind, FaultPlan};
    use libra::sim::time::SimTime;

    let gen = TraceGen::standard(&ALL_APPS, 11);
    let trace = gen.poisson(120, 180.0);
    let mut plan = FaultPlan::empty();
    for (node, at) in [(0u32, 6u64), (2, 14), (1, 22), (3, 30)] {
        plan.push(SimTime::from_secs(at), FaultKind::NodeCrash(libra::sim::ids::NodeId(node)));
        plan.push(
            SimTime::from_secs(at + 4),
            FaultKind::NodeRecover(libra::sim::ids::NodeId(node)),
        );
    }

    let config = SimConfig { shards: 2, ..SimConfig::default() };
    let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config);
    let mut p = LibraPlatform::new(LibraConfig::libra());
    let r = sim.run_with_faults(&trace, &mut p, &plan);

    assert_eq!(r.faults_injected, 8);
    assert_eq!(r.pool_violations, 0, "crash sweep left the pool ledger inconsistent");
    assert_eq!(
        r.records.len() as u64 + r.aborted,
        120,
        "an arrival neither completed nor terminally aborted"
    );
    assert!(r.crash_requeues > 0, "crashes at peak load must displace someone");

    let rep = p.report();
    let extra = |k: &str| {
        rep.extra.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap_or_else(|| {
            panic!("missing report counter {k}");
        })
    };
    assert!(extra("loans_crashed") > 0.0, "no loan was live on any crashed node");
    assert!(extra("crash_sweeps") >= 1.0, "platform never swept a crashed node's pool");
}

#[test]
fn fault_injection_disabled_is_byte_identical() {
    // Zero-rate acceptance criterion: `run_with_faults` with an empty plan
    // must reproduce `run` exactly — same records, same times, same flags.
    use libra::sim::fault::FaultPlan;

    let run_once = |faulted: bool| {
        let gen = TraceGen::standard(&ALL_APPS, 77);
        let trace = gen.poisson(90, 150.0);
        let config = SimConfig { shards: 2, ..SimConfig::default() };
        let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), config);
        let mut p = LibraPlatform::new(LibraConfig::libra());
        if faulted {
            sim.run_with_faults(&trace, &mut p, &FaultPlan::empty())
        } else {
            sim.run(&trace, &mut p)
        }
    };
    let (a, b) = (run_once(false), run_once(true));
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.inv, y.inv);
        assert_eq!(x.latency, y.latency);
        assert_eq!(x.node, y.node);
        assert_eq!(x.speedup, y.speedup);
        assert_eq!(x.flags, y.flags);
        assert_eq!(x.requeues, 0);
    }
    assert_eq!(a.completion_time, b.completion_time);
    assert_eq!(b.faults_injected, 0);
    assert_eq!(b.aborted, 0);
}

#[test]
fn histogram_policy_prewarms_sparse_arrivals_end_to_end() {
    use libra::core::{PolicyKind, WithKeepAlive};
    use libra::sim::demand::InputMeta;
    use libra::sim::ids::FunctionId;
    use libra::sim::time::SimTime;
    use libra::sim::trace::Trace;

    // One function, arrivals 300 s apart — far past the prewarm cutoff, so
    // once the histogram warms up the policy stops paying for a 300 s idle
    // container and instead prewarms one at 85 % of the predicted gap (~255 s
    // after an arrival) and keeps it the 10 s minimum window. The last four
    // arrivals come 260 s apart, the first of them inside that landing window.
    let mut trace = Trace::new();
    let mut at = 0;
    for i in 0..10u64 {
        trace.push(SimTime::from_secs(at), FunctionId(0), InputMeta::new(1, 1));
        at += if i < 5 { 300 } else { 260 };
    }
    let policy = PolicyKind::Histogram;
    let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
    let mut platform = WithKeepAlive::new(OpenWhiskDefault, policy.build());
    let r = sim.run(&trace, &mut platform);

    assert_eq!(r.records.len(), 10, "every sparse invocation completes");
    assert!(r.prewarms >= 1, "the engine must execute prewarm directives, got 0");
    assert!(r.warm_hits >= 1, "a prewarmed container must convert a cold start into a warm hit");
    assert!(r.cold_starts >= 4, "warm-up arrivals (below min_samples) stay cold");
}

/// `WithKeepAlive::on_abort` reports a departure to the policy, but a
/// requeued attempt gets no new `on_arrival` and reports `on_complete` again
/// when it finishes, so `ConcurrencyPolicy` under-counts in-flight work
/// after every retried abort. A is aborted at 0.8 s and retried; B arrives
/// during A's retry and finishes first; C and D arrive together once both
/// are done. The true peak is two in flight (A's retry and B), so both
/// containers should stay warm and C and D should both hit warm: three cold
/// starts (A, its retry, B). The double count sees a peak of one, scales A's
/// container in, and D starts cold: four. The fix needs `on_abort` to know
/// whether the kill is terminal (ROADMAP item 12).
#[test]
#[ignore = "known defect: a retried abort is counted out of the in-flight set twice"]
fn keep_alive_counts_a_retried_abort_once() {
    use libra::core::{PolicyKind, WithKeepAlive};
    use libra::sim::demand::{FnDemand, InputMeta, TrueDemand};
    use libra::sim::fault::{FaultKind, FaultPlan};
    use libra::sim::function::FunctionSpec;
    use libra::sim::ids::{FunctionId, InvocationId};
    use libra::sim::resources::ResourceVec;
    use libra::sim::time::{SimDuration, SimTime};
    use libra::sim::trace::Trace;
    use std::sync::Arc;

    // One function: 2 cores, 256 MB, `size` × 100 ms of work.
    let model = Arc::new(FnDemand(|i: &InputMeta| TrueDemand {
        cpu_peak_millis: 2_000,
        mem_peak_mb: 256,
        base_duration: SimDuration::from_millis(100 * i.size),
    }));
    let funcs = vec![FunctionSpec::new("f", ResourceVec::from_cores_mb(2, 512), model)];
    let sim =
        Simulation::new(funcs, vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    let f = FunctionId(0);
    trace.push(SimTime::ZERO, f, InputMeta::new(10, 0)); // A: 1 s
    trace.push(SimTime::from_millis(2_000), f, InputMeta::new(2, 1)); // B: 0.2 s
    trace.push(SimTime::from_secs(5), f, InputMeta::new(2, 2)); // C
    trace.push(SimTime::from_secs(5), f, InputMeta::new(2, 3)); // D
    let mut plan = FaultPlan::empty();
    plan.push(SimTime::from_millis(800), FaultKind::AbortInvocation(InvocationId(0)));
    let mut platform = WithKeepAlive::new(OpenWhiskDefault, PolicyKind::Concurrency.build());
    let r = sim.run_with_faults(&trace, &mut platform, &plan);

    assert_eq!(r.records.len(), 4);
    assert_eq!(r.crash_requeues, 1, "A is retried once");
    assert_eq!(r.cold_starts, 3, "A's container should stay warm for C or D");
}
