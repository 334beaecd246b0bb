//! The cluster's thread count is fixed at `start` — one driver per node and
//! the front door — however many requests are in flight. Alone in this file:
//! the count is the whole process's, so no other test may run beside it.

#![cfg(target_os = "linux")]

use libra_live::{mixed_workload, LiveCluster, LiveConfig};
use std::time::Duration;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    line.trim().parse().expect("a thread count")
}

#[test]
fn threads_do_not_grow_with_requests() {
    let config = LiveConfig {
        nodes: 2,
        quantum: Duration::from_millis(1),
        time_scale: 32.0,
        ..LiveConfig::default()
    };
    let before = process_threads();
    let cluster = LiveCluster::start(config.clone(), 64);
    let receivers: Vec<_> = mixed_workload(300, 5)
        .into_iter()
        .enumerate()
        .map(|(idx, mut req)| {
            req.at_ms = 0;
            cluster.submit(idx, req).expect("a fresh cluster accepts")
        })
        .collect();
    // All 300 are accepted — resident or queued at the front door — and not
    // one has been waited for.
    let during = process_threads();
    assert!(
        during <= before + config.nodes + 4,
        "{during} threads with 300 requests in flight, {before} before start"
    );
    for rx in receivers {
        rx.recv().expect("every request completes");
    }
    let result = cluster.shutdown(Duration::from_secs(30));
    assert_eq!(result.records.len(), 300);
    assert_eq!(result.aborted, 0);
    cluster.conservation_report().expect("drain conserves loans and slices");
}
