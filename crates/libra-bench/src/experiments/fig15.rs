//! Fig 15 — latency breakdown per function (§8.9): front end, profiler,
//! scheduler, harvest pool, container init, and code execution, averaged per
//! function on the multi-node setup. Libra's own components should be
//! negligible next to container init and execution.

use crate::*;
use libra_workloads::ALL_APPS;

/// Run the breakdown: per-function mean stage times in seconds.
pub fn run() {
    header("Fig 15: latency breakdown per function (multi-node, mean seconds)");
    // The multi-node setup on a `standard` Poisson trace, not a multi set.
    let trace = trace_gen(0).poisson(300, 120.0);
    let run = run_multi_node(&trace, PlatformKind::Libra.build());

    row(&[
        "func".into(),
        "frontend".into(),
        "profiler".into(),
        "scheduler".into(),
        "pool".into(),
        "container".into(),
        "exec".into(),
    ]);
    let mut out = Vec::new();
    for kind in ALL_APPS {
        let members: Vec<_> = run.result.records.iter().filter(|r| r.func == kind.id()).collect();
        if members.is_empty() {
            continue;
        }
        let n = members.len() as f64;
        let mean = |f: fn(&libra_sim::invocation::StageBreakdown) -> f64| -> f64 {
            members.iter().map(|r| f(&r.breakdown)).sum::<f64>() / n
        };
        let stages = [
            mean(|b| b.frontend.as_secs_f64()),
            mean(|b| b.profiler.as_secs_f64()),
            mean(|b| b.scheduler.as_secs_f64()),
            mean(|b| b.pool.as_secs_f64()),
            mean(|b| b.container_init.as_secs_f64()),
            mean(|b| b.exec.as_secs_f64()),
        ];
        row(&[
            kind.name().into(),
            format!("{:.4}", stages[0]),
            format!("{:.4}", stages[1]),
            format!("{:.3}", stages[2]),
            format!("{:.4}", stages[3]),
            format!("{:.3}", stages[4]),
            format!("{:.2}", stages[5]),
        ]);
        out.push((kind.name().to_string(), stages));
    }
    println!();
    let libra_overhead: f64 =
        out.iter().map(|(_, s)| s[0] + s[1] + s[3]).sum::<f64>() / out.len() as f64;
    let exec_mean: f64 = out.iter().map(|(_, s)| s[5]).sum::<f64>() / out.len() as f64;
    compare(
        "Libra components negligible vs exec",
        "yes (Fig 15)",
        format!("{:.1} ms overhead vs {:.1} s exec", libra_overhead * 1e3, exec_mean),
    );
    write_csv(
        "fig15_breakdown",
        &["func", "frontend_s", "profiler_s", "scheduler_s", "pool_s", "container_s", "exec_s"],
        &out.iter()
            .enumerate()
            .map(|(i, (_, s))| {
                let mut v = vec![i as f64];
                v.extend_from_slice(s);
                v
            })
            .collect::<Vec<_>>(),
    );
}
