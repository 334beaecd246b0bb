//! Libra's control plane under *real* concurrency: a multi-threaded mini
//! platform (one driver thread per node, per-shard-locked sharded
//! schedulers) runs the same workload with fixed allocations and with
//! harvesting, in scaled real time.
//!
//! ```sh
//! cargo run --release --example live_cluster
//! ```

use libra::live::{mixed_workload, run_live, LiveConfig};

fn main() {
    let workload = mixed_workload(80, 7);
    println!("80 invocations (≈60% over-provisioned donors, ≈40% starved");
    println!("acceptors) on 2 × 16-core nodes, 2 scheduler shards, live threads.\n");

    let fixed = run_live(&workload, &LiveConfig { harvesting: false, ..LiveConfig::default() });
    let libra = run_live(&workload, &LiveConfig { harvesting: true, ..LiveConfig::default() });

    println!(
        "{:<12} {:>10} {:>10} {:>12} {:>14}",
        "platform", "p50 (ms)", "p99 (ms)", "makespan", "loans expired"
    );
    for (name, r) in [("fixed", &fixed), ("harvesting", &libra)] {
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>10.0}ms {:>14}",
            name,
            r.latency_percentile(50.0),
            r.latency_percentile(99.0),
            r.makespan_ms,
            r.loans_expired
        );
    }
    let accelerated = libra.records.iter().filter(|r| r.accelerated).count();
    let harvested = libra.records.iter().filter(|r| r.harvested).count();
    println!();
    println!("harvested from {harvested} invocations, accelerated {accelerated};");
    println!(
        "peak committed CPU {} millicores (capacity 16,000/node) — the",
        libra.peak_committed_cpu
    );
    println!("conservation invariant holds under genuine thread interleavings,");
    println!("and {} loans were revoked mid-flight by the timeliness law.", libra.loans_expired);
}
