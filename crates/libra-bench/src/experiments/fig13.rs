//! Fig 13 — profiler model ablation and input-size sensitivity (§8.6–8.7).
//!
//! * (a) Libra vs histogram-only vs ML-only on the hybrid workload,
//! * (b) Default / Freyr / Libra on the input size-related workload
//!   (UL, TN, CP, DV, DH only),
//! * (c) the same on the input size-unrelated workload (VP, IR, GP, GM, GB).
//!
//! Each panel writes its rows to `fig13{a,b,c}_*.csv`: `variant` indexes the
//! panel's platforms in the order printed (Hist, ML, Libra in (a); Default,
//! Freyr, Libra in (b) and (c)), then p99 latency (s) and p99 speedup.

use crate::*;
use libra_sim::engine::SimConfig;
use libra_workloads::trace::TraceGen;
use libra_workloads::{suite, testbeds, AppKind};

/// §8.7's two workloads: the ten applications split by Table 1's
/// size-relatedness (UL, TN, CP, DV, DH | VP, IR, GP, GM, GB), each in
/// `FunctionId` order and re-based to ids 0..5 in its own suite.
fn size_split() -> (Vec<AppKind>, Vec<AppKind>) {
    ALL_APPS.into_iter().partition(AppKind::input_size_related)
}

/// One panel's runs, in order, as `variant, p99_latency_s, p99_speedup`.
fn write_panel(name: &str, runs: &[PlatformRun]) {
    let row = |(i, run): (usize, &PlatformRun)| {
        let p99_speedup = libra_sim::metrics::percentile(&run.result.speedups(), 99.0);
        vec![i as f64, run.result.latency_percentile(99.0), p99_speedup]
    };
    let rows: Vec<Vec<f64>> = runs.iter().enumerate().map(row).collect();
    write_csv(name, &["variant", "p99_latency_s", "p99_speedup"], &rows);
}

/// Run all three panels.
pub fn run() {
    header("Fig 13(a): model ablation on the hybrid workload (speedup quantiles)");
    let trace = single_trace(0);
    let panel_a = [PlatformKind::LibraHist, PlatformKind::LibraMl, PlatformKind::Libra];
    let runs = par_map(panel_a.to_vec(), |kind| run_single_node(&trace, kind.build()));
    for (kind, run) in panel_a.iter().zip(&runs) {
        cdf_summary(kind.name(), &run.result.speedups(), "");
    }
    println!("Expected: full Libra at least matches either single-model variant.");
    write_panel("fig13a_model_ablation", &runs);

    let (related, unrelated) = size_split();
    for (panel, file, kinds) in [
        ("size-related", "fig13b_size_related", related),
        ("size-unrelated", "fig13c_size_unrelated", unrelated),
    ] {
        header(&format!(
            "Fig 13({}): {panel} workload",
            if panel == "size-related" { "b" } else { "c" }
        ));
        // Deviation from §8.3: the panel's own five-function suite and trace.
        let trace = TraceGen::standard(&kinds, 42).single_set();
        let specs = suite(&kinds);
        let panel_kinds = [PlatformKind::Default, PlatformKind::Freyr, PlatformKind::Libra];
        let runs = par_map(panel_kinds.to_vec(), |kind| {
            run_on(
                specs.clone(),
                testbeds::single_node(),
                SimConfig::default(),
                &trace,
                kind.build(),
            )
        });
        for (kind, run) in panel_kinds.iter().zip(&runs) {
            cdf_summary(kind.name(), &run.result.speedups(), "");
        }
        write_panel(file, &runs);
        let p99s: Vec<f64> = runs.iter().map(|run| run.result.latency_percentile(99.0)).collect();
        compare(
            &format!("{panel}: Libra P99 vs Default / Freyr"),
            if panel == "size-related" {
                "-94% speedup gain / -58%"
            } else {
                "+13% / +12% improvement"
            },
            format!(
                "{:.0}% / {:.0}% lower P99 latency",
                100.0 * (1.0 - p99s[2] / p99s[0]),
                100.0 * (1.0 - p99s[2] / p99s[1])
            ),
        );
    }
    println!("\nExpected shape: the more size-related the workload, the larger");
    println!("Libra's gain; the unrelated workload still improves (conservative");
    println!("histogram harvesting), just less.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_split_partitions_the_ten() {
        let (related, unrelated) = size_split();
        assert_eq!(suite(&related).len(), 5);
        assert_eq!(suite(&unrelated).len(), 5);
        assert!(related.iter().all(AppKind::input_size_related));
        assert!(unrelated.iter().all(|k| !k.input_size_related()));
    }
}
