//! Graceful-drain regression tests (the shutdown path the gateway leans
//! on): drain must flush in-flight work when given time, quiesce stragglers
//! *through the control plane* when not, and in both cases conserve every
//! harvest loan and scheduler-slice charge — nothing stranded, nothing
//! double-freed.

use libra_live::cluster::{LiveCluster, SubmitError};
use libra_live::{mixed_workload, LiveConfig};
use libra_sim::resources::ResourceVec;
use proptest::prelude::*;
use std::time::Duration;

fn cfg() -> LiveConfig {
    LiveConfig {
        nodes: 2,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 2,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 8.0,
        watchdog: Duration::from_secs(30),
        ..LiveConfig::default()
    }
}

#[test]
fn drain_with_grace_flushes_everything() {
    let w = mixed_workload(30, 17);
    let cluster = LiveCluster::start(cfg(), 64);
    let receivers: Vec<_> = w
        .iter()
        .enumerate()
        .map(|(idx, req)| cluster.submit(idx, *req).expect("fresh cluster admits"))
        .collect();
    let result = cluster.shutdown(Duration::from_secs(30));
    assert_eq!(result.aborted, 0, "a generous grace period must flush everything");
    assert_eq!(result.records.len(), 30);
    assert_eq!(cluster.inflight(), 0);
    for rx in receivers {
        rx.recv().expect("every flushed invocation reports its record");
    }
    cluster.conservation_report().expect("drain conserves loans and slices");
}

/// The satellite regression: shutting down *mid-run*, while harvest loans
/// are outstanding between donors and borrowers, must quiesce through the
/// control plane — `on_abort` revokes the loans and the slice charges are
/// released — instead of abandoning shards with capacity still booked.
#[test]
fn drain_mid_run_aborts_stragglers_and_conserves_loans() {
    // Seed 7 at this scale reliably has donors lending to borrowers within
    // the first ~200 ms (the batch harness sees loans expire by then).
    let w = mixed_workload(60, 7);
    let cluster = LiveCluster::start(cfg(), 64);
    for (idx, req) in w.iter().enumerate() {
        cluster.submit(idx, *req).expect("fresh cluster admits");
    }
    while cluster.completed() < 5 && !cluster.is_expired() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let result = cluster.shutdown(Duration::ZERO);
    assert!(result.aborted > 0, "zero grace mid-run must abort stragglers");
    assert_eq!(
        result.records.len() + result.aborted as usize,
        60,
        "every submission either completed or was aborted"
    );
    cluster
        .conservation_report()
        .expect("aborting with loans outstanding must still conserve capacity");
}

#[test]
fn submit_after_drain_is_refused() {
    let cluster = LiveCluster::start(cfg(), 64);
    let w = mixed_workload(1, 3);
    let req = *w.first().expect("one request");
    cluster.submit(0, req).expect("accepts before drain");
    cluster.shutdown(Duration::from_secs(10));
    let refused = cluster.submit(1, req).err();
    assert_eq!(refused, Some(SubmitError::Draining));
}

#[test]
fn out_of_range_function_is_refused() {
    let cluster = LiveCluster::start(cfg(), 4);
    let w = mixed_workload(1, 3);
    let mut req = *w.first().expect("one request");
    req.func = 9;
    let refused = cluster.submit(0, req).err();
    assert_eq!(refused, Some(SubmitError::FuncOutOfRange { func: 9, n_funcs: 4 }));
    cluster.shutdown(Duration::ZERO);
}

#[test]
fn idx_beyond_an_invocation_id_is_refused_before_it_counts_in_flight() {
    let cluster = LiveCluster::start(cfg(), 64);
    let req = *mixed_workload(1, 3).first().expect("one request");
    let idx = u32::MAX as usize + 6;
    assert_eq!(cluster.submit(idx, req).err(), Some(SubmitError::IdxOutOfRange { idx }));
    assert_eq!((cluster.inflight(), cluster.stats().submitted), (0, 0));
    cluster.shutdown(Duration::ZERO);
}

proptest! {
    /// Whatever the workload size, seed, and grace period, drain terminates
    /// with zero in-flight, accounts for every submission exactly once, and
    /// conserves capacity.
    #[test]
    fn drain_always_terminates_with_zero_inflight(
        n in 1usize..12,
        seed in 0u64..1_000,
        grace_ms in 0u64..40,
    ) {
        let w = mixed_workload(n, seed);
        let cluster = LiveCluster::start(cfg(), 64);
        for (idx, req) in w.iter().enumerate() {
            cluster.submit(idx, *req).expect("fresh cluster admits");
        }
        let result = cluster.shutdown(Duration::from_millis(grace_ms));
        prop_assert_eq!(cluster.inflight(), 0);
        prop_assert_eq!(result.records.len() + result.aborted as usize, n);
        prop_assert!(cluster.conservation_report().is_ok(),
            "conservation after drain: {:?}", cluster.conservation_report());
    }
}
