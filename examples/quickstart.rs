//! Quickstart: deploy functions, run a trace under Libra, read the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use libra::core::{LibraConfig, LibraPlatform};
use libra::sim::engine::{SimConfig, Simulation};
use libra::sim::platform::Platform as _;
use libra::workloads::trace::TraceGen;
use libra::workloads::{sebs_suite, testbeds, ALL_APPS};

fn main() {
    // 1. Deploy the ten SeBS-like functions of Table 1 with their
    //    user-defined allocations on a single 72-core worker.
    let functions = sebs_suite();
    let cluster = testbeds::single_node();

    // 2. Generate a small Azure-like invocation trace.
    let gen = TraceGen::standard(&ALL_APPS, 7);
    let trace = gen.poisson(60, 120.0);

    // 3. Run it under Libra: profiler + harvest pools + safeguard +
    //    timeliness-aware scheduling.
    let sim = Simulation::new(functions, cluster, SimConfig::default());
    let mut libra = LibraPlatform::new(LibraConfig::libra());
    let result = sim.run(&trace, &mut libra);
    let report = libra.report();

    // 4. Read the results.
    println!("platform            : {}", result.platform);
    println!("invocations         : {}", result.records.len());
    println!("completion time     : {:.1} s", result.completion_time.as_secs_f64());
    println!(
        "P50 / P99 latency   : {:.1} s / {:.1} s",
        result.latency_percentile(50.0),
        result.latency_percentile(99.0)
    );
    println!("mean CPU utilization: {:.1} %", 100.0 * result.mean_cpu_util());
    println!("cold starts         : {} ({} warm hits)", result.cold_starts, result.warm_hits);
    println!();
    println!(
        "harvesting activity : {} puts, {} gets, {} safeguard triggers",
        report.pool_puts, report.pool_gets, report.safeguard_triggers
    );

    let harvested = result.records.iter().filter(|r| r.flags.harvested).count();
    let accelerated = result.records.iter().filter(|r| r.flags.accelerated).count();
    println!("harvested from      : {harvested} invocations");
    println!("accelerated         : {accelerated} invocations");
    if let Some(best) = result
        .records
        .iter()
        .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("speedup is finite"))
    {
        println!(
            "best acceleration   : {} ran {:.1}s instead of {:.1}s (speedup {:.2})",
            ALL_APPS[best.func.idx()].name(),
            best.latency.as_secs_f64(),
            best.baseline_latency.as_secs_f64(),
            best.speedup
        );
    }
}
