//! Fig 14 — safeguard threshold sensitivity (§8.8): sweep the trigger
//! threshold 0 → 1 and report the fraction of invocations safeguarded and
//! the P99 response latency. The paper's default 0.8 should be (close to)
//! the sweet spot, with the safeguarded ratio falling as the threshold rises.

use crate::*;
use libra_core::controlplane::ControlConfig;
use libra_core::{LibraConfig, LibraPlatform};

/// Run the sweep.
pub fn run() {
    header("Fig 14: safeguard threshold sweep (single-node, `single` trace)");
    row(&["threshold".into(), "safeguarded %".into(), "P99 (s)".into()]);
    let trace = single_trace(0);
    // All eleven thresholds run concurrently; rows print in sweep order.
    let out: Vec<(f64, f64, f64)> = par_map((0..=10usize).collect(), |i| {
        let thr = i as f64 / 10.0;
        let control = ControlConfig { safeguard_threshold: thr, ..ControlConfig::default() };
        let cfg = LibraConfig { control, ..LibraConfig::libra() };
        let res = run_single_node(&trace, Box::new(LibraPlatform::new(cfg))).result;
        let safeguarded = res.records.iter().filter(|r| r.flags.safeguarded).count();
        let ratio = safeguarded as f64 / res.records.len().max(1) as f64;
        (thr, ratio, res.latency_percentile(99.0))
    });
    for &(thr, ratio, p99) in &out {
        row(&[format!("{thr:.1}"), format!("{:.0}%", 100.0 * ratio), format!("{p99:.1}")]);
    }
    println!();
    let monotone_drop = out.windows(2).filter(|w| w[1].1 <= w[0].1 + 0.02).count();
    compare(
        "safeguarded ratio falls with threshold",
        "yes (Fig 14a)",
        format!("{monotone_drop}/10 steps non-increasing"),
    );
    let best = out.iter().cloned().min_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap();
    compare("best threshold", "≈0.8 (Fig 14b)", format!("{:.1} (P99 {:.1}s)", best.0, best.2));
    let series = vec![
        (
            "safeguarded %".to_string(),
            out.iter().map(|&(t, r, _)| (t, 100.0 * r)).collect::<Vec<_>>(),
        ),
        ("P99 (s)".to_string(), out.iter().map(|&(t, _, p)| (t, p)).collect()),
    ];
    println!("\n{}", crate::plot::line_chart("safeguard threshold sweep", &series, 56, 12));
    write_csv(
        "fig14_safeguard_sweep",
        &["threshold", "safeguarded_ratio", "p99_s"],
        &out.iter().map(|&(t, r, p)| vec![t, r, p]).collect::<Vec<_>>(),
    );
}
