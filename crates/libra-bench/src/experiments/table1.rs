//! Table 1 — characterization of the ten applications, plus the measured
//! demand signatures of our synthetic stand-ins.

use crate::*;
use libra_sim::demand::DemandModel;
use libra_workloads::apps::AppKind;
use libra_workloads::apps::{AppModel, ALL_APPS};
use libra_workloads::datasets::InputPool;

/// Table 1's one-line description of an application.
fn description(kind: AppKind) -> &'static str {
    match kind {
        AppKind::Ul => "Upload input files to storage",
        AppKind::Tn => "Thumbnail input images",
        AppKind::Cp => "Compress input files",
        AppKind::Dv => "Visualize input DNA sequence files",
        AppKind::Dh => "Generate HTMLs from input templates",
        AppKind::Vp => "Generate GIF of an input video",
        AppKind::Ir => "Recognize an input image",
        AppKind::Gp => "Pagerank a randomly generated graph",
        AppKind::Gm => "MST on a randomly generated graph",
        AppKind::Gb => "BFS on a randomly generated graph",
    }
}

/// Print Table 1 with measured demand ranges.
pub fn run() {
    header("Table 1: application characterization (measured over 200 sampled inputs)");
    row(&[
        "func".into(),
        "size-related".into(),
        "user alloc".into(),
        "cpu peak (c)".into(),
        "mem peak (MB)".into(),
        "duration (s)".into(),
    ]);
    for kind in ALL_APPS {
        let pool = InputPool::generate(kind, 200, 9);
        let model = AppModel { kind };
        let demands: Vec<_> = pool.inputs.iter().map(|i| model.demand(i)).collect();
        let (cmin, cmax) = (
            demands.iter().map(|d| d.cpu_peak_millis).min().unwrap() as f64 / 1000.0,
            demands.iter().map(|d| d.cpu_peak_millis).max().unwrap() as f64 / 1000.0,
        );
        let (mmin, mmax) = (
            demands.iter().map(|d| d.mem_peak_mb).min().unwrap(),
            demands.iter().map(|d| d.mem_peak_mb).max().unwrap(),
        );
        let (dmin, dmax) = (
            demands.iter().map(|d| d.base_duration.as_secs_f64()).fold(f64::INFINITY, f64::min),
            demands.iter().map(|d| d.base_duration.as_secs_f64()).fold(0.0, f64::max),
        );
        let alloc = kind.user_alloc();
        row(&[
            kind.name().into(),
            format!("{}", kind.input_size_related()),
            format!("{:.0}c/{}MB", alloc.cores_f64(), alloc.mem_mb),
            format!("{cmin:.1}-{cmax:.1}"),
            format!("{mmin}-{mmax}"),
            format!("{dmin:.1}-{dmax:.1}"),
        ]);
    }
    println!();
    for kind in ALL_APPS {
        println!("  {:>2}: {}", kind.name(), description(kind));
    }

    // Utilization-of-allocation summary (the [42] motivation: 20-60%).
    header("Mean CPU utilization of user allocations (the harvesting opportunity)");
    let mut total_busy = 0.0;
    let mut total_alloc = 0.0;
    for kind in ALL_APPS {
        let pool = InputPool::generate(kind, 200, 9);
        let model = AppModel { kind };
        let alloc = kind.user_alloc().cpu_millis as f64;
        let mean_busy: f64 = pool
            .inputs
            .iter()
            .map(|i| model.demand(i).cpu_peak_millis.min(kind.user_alloc().cpu_millis) as f64)
            .sum::<f64>()
            / pool.inputs.len() as f64;
        println!("  {:>2}: {:>4.0}%", kind.name(), 100.0 * mean_busy / alloc);
        total_busy += mean_busy;
        total_alloc += alloc;
    }
    compare(
        "aggregate utilization of allocations",
        "20-60% (Alibaba [42])",
        format!("{:.0}%", 100.0 * total_busy / total_alloc),
    );
}
