//! Accounting invariants: the per-invocation latency breakdown must sum to
//! the end-to-end latency exactly, utilization samples must reconcile with
//! reservations, and the speedup definition must match Eq. 1.

use libra_sim::prelude::*;
use std::sync::Arc;

fn suite() -> Vec<FunctionSpec> {
    vec![
        FunctionSpec::new(
            "short",
            ResourceVec::from_cores_mb(2, 512),
            Arc::new(ConstantDemand(TrueDemand {
                cpu_peak_millis: 1500,
                mem_peak_mb: 128,
                base_duration: SimDuration::from_secs(1),
            })),
        ),
        FunctionSpec::new(
            "long",
            ResourceVec::from_cores_mb(4, 1024),
            Arc::new(ConstantDemand(TrueDemand {
                cpu_peak_millis: 6000,
                mem_peak_mb: 512,
                base_duration: SimDuration::from_secs(5),
            })),
        ),
    ]
}

#[test]
fn breakdown_sums_to_latency_exactly() {
    let sim =
        Simulation::new(suite(), vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    for i in 0..12 {
        trace.push(SimTime(i * 700_000), FunctionId((i % 2) as u32), InputMeta::new(1, i));
    }
    let res = sim.run(&trace, &mut NullPlatform);
    let funcs = suite();
    for r in &res.records {
        let sum = r.breakdown.total();
        assert_eq!(
            sum.as_micros(),
            r.latency.as_micros(),
            "{}: breakdown {:?} != latency {:?}",
            funcs[r.func.idx()].name,
            sum,
            r.latency
        );
    }
}

#[test]
fn speedup_matches_eq1_definition() {
    let sim =
        Simulation::new(suite(), vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(1), InputMeta::new(1, 0));
    let res = sim.run(&trace, &mut NullPlatform);
    let r = &res.records[0];
    let expected = (r.baseline_latency.as_secs_f64() - r.latency.as_secs_f64())
        / r.baseline_latency.as_secs_f64();
    assert!((r.speedup - expected).abs() < 1e-12);
}

#[test]
fn utilization_alloc_tracks_reservations() {
    // During a known window, exactly one 4-core invocation runs: allocated
    // must read 4 cores, used 4 cores (demand 6 capped by grant... grant 4,
    // demand 6 -> busy 4).
    let sim =
        Simulation::new(suite(), vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(1), InputMeta::new(1, 0));
    let res = sim.run(&trace, &mut NullPlatform);
    let mid: Vec<_> = res
        .util
        .iter()
        .filter(|s| s.at > SimTime::from_secs(2) && s.at < SimTime::from_secs(5))
        .collect();
    assert!(!mid.is_empty());
    for s in mid {
        assert_eq!(s.cpu_alloc_millis, 4000, "reserved 4 cores at {:?}", s.at);
        assert_eq!(s.cpu_used_millis, 4000, "busy = min(grant, demand) at {:?}", s.at);
        assert_eq!(s.cpu_capacity_millis, 8000);
    }
}

#[test]
fn cold_start_charged_once_per_new_container() {
    let sim =
        Simulation::new(suite(), vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
    trace.push(SimTime::from_secs(3), FunctionId(0), InputMeta::new(1, 1)); // warm reuse
    trace.push(SimTime::from_secs(3), FunctionId(0), InputMeta::new(1, 2)); // concurrent -> cold
    let res = sim.run(&trace, &mut NullPlatform);
    let colds = res.records.iter().filter(|r| r.cold_start).count();
    assert_eq!(colds, 2, "first + concurrent are cold; the sequential one is warm");
    for r in &res.records {
        let expect = if r.cold_start { 500_000 } else { 0 };
        assert_eq!(r.breakdown.container_init.as_micros(), expect, "{:?}", r.inv);
    }
}

#[test]
fn exec_stage_equals_base_duration_when_fully_provisioned() {
    let sim =
        Simulation::new(suite(), vec![ResourceVec::from_cores_mb(8, 8192)], SimConfig::default());
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
    let res = sim.run(&trace, &mut NullPlatform);
    let r = &res.records[0];
    // short: 1.5 cores demanded, 2 allocated -> runs at base speed
    assert!((r.breakdown.exec.as_secs_f64() - 1.0).abs() < 0.01, "{:?}", r.breakdown.exec);
}
