//! Fig 16 — demand-coverage weight sensitivity (§8.8): sweep α (the CPU
//! weight in `D = α·D_cpu + (1−α)·D_mem`) and report the idle-resource
//! ledgers and the P99 latency on the multi-node setup at 240 RPM.

use crate::*;
use libra_core::{LibraConfig, LibraPlatform};

/// Run the sweep.
pub fn run() {
    header("Fig 16: demand-coverage weight sweep (multi-node, 240 RPM)");
    row(&["alpha".into(), "CPU idle (core·s)".into(), "mem idle (GB·s)".into(), "P99 (s)".into()]);
    let trace = multi_trace(0, 240);
    // All eleven alphas run concurrently; rows print in sweep order.
    let out: Vec<(f64, f64, f64, f64)> = par_map((0..=10usize).collect(), |i| {
        let alpha = i as f64 / 10.0;
        let cfg = LibraConfig { alpha, ..LibraConfig::libra() };
        let PlatformRun { result, report, .. } =
            run_multi_node(&trace, Box::new(LibraPlatform::new(cfg)));
        (
            alpha,
            report.pool_idle_cpu_core_sec,
            report.pool_idle_mem_mb_sec,
            result.latency_percentile(99.0),
        )
    });
    for &(alpha, idle_cpu, idle_mem, p99) in &out {
        row(&[
            format!("{alpha:.1}"),
            format!("{idle_cpu:.0}"),
            format!("{:.1}", idle_mem / 1024.0),
            format!("{p99:.1}"),
        ]);
    }
    println!();
    let lo_alpha_cpu = out[1].1;
    let hi_alpha_cpu = out[9].1;
    compare(
        "CPU idle falls as alpha rises",
        "yes (Fig 16a)",
        format!("{lo_alpha_cpu:.0} -> {hi_alpha_cpu:.0} core·s"),
    );
    let best = out.iter().cloned().min_by(|a, b| a.3.partial_cmp(&b.3).unwrap()).unwrap();
    compare("best alpha", "0.9 (Fig 16b)", format!("{:.1} (P99 {:.1}s)", best.0, best.3));
    write_csv(
        "fig16_weight_sweep",
        &["alpha", "idle_cpu_core_s", "idle_mem_mb_s", "p99_s"],
        &out.iter().map(|&(a, c, m, p)| vec![a, c, m, p]).collect::<Vec<_>>(),
    );
}
