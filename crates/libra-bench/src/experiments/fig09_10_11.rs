//! Figs 9, 10 and 11 — the multi-node scheduling comparison (§8.4).
//!
//! Five node-selection algorithms run the ten `multi` trace sets
//! (10 → 300 RPM) on the four-node cluster, all *with Libra's harvesting and
//! acceleration enabled* ("for a fair comparison on scheduling"):
//!
//! * Fig 9  — P99 end-to-end response latency per RPM,
//! * Fig 10 — workload completion time and the idle-time ledgers
//!   (Σ harvested volume × time it sat unused in a pool),
//! * Fig 11 — average/peak CPU and memory utilization per RPM.

use crate::*;
use libra_baselines::{JoinShortestQueue, MinWorkerSet, RoundRobin};
use libra_core::{CoverageSelector, HashSelector, LibraConfig, LibraPlatform, NodeSelector};
use libra_sim::metrics::{mean, UtilSample};
use libra_sim::platform::Platform;

const ALGOS: [&str; 5] = ["Default", "RR", "JSQ", "MWS", "Libra"];

/// The largest of `util` over a run's samples (0 for none).
fn peak(samples: &[UtilSample], util: fn(&UtilSample) -> f64) -> f64 {
    samples.iter().map(util).fold(0.0, f64::max)
}

fn build(algo: &str) -> Box<dyn Platform> {
    let cfg = LibraConfig::libra();
    fn boxed<S: NodeSelector + 'static>(cfg: LibraConfig, s: S) -> Box<dyn Platform> {
        Box::new(LibraPlatform::with_selector(cfg, s))
    }
    match algo {
        "Default" => boxed(cfg, HashSelector),
        "RR" => boxed(cfg, RoundRobin::default()),
        "JSQ" => boxed(cfg, JoinShortestQueue),
        "MWS" => boxed(cfg, MinWorkerSet),
        "Libra" => boxed(cfg, CoverageSelector),
        _ => unreachable!(),
    }
}

/// One measured point of the sweep.
struct SweepPoint {
    /// Requests per minute of the trace set.
    rpm: u32,
    /// Scheduling algorithm.
    algo: &'static str,
    /// P99 response latency (s).
    p99: f64,
    /// Workload completion time (s).
    completion: f64,
    /// Idle harvested CPU ledger (core·s).
    idle_cpu: f64,
    /// Idle harvested memory ledger (MB·s).
    idle_mem: f64,
    /// Mean / peak CPU utilization.
    cpu_util: (f64, f64),
    /// Mean / peak memory utilization.
    mem_util: (f64, f64),
}

/// Run the full sweep (all RPMs × all algorithms, averaged over reps).
///
/// The whole `rpm × algo × rep` cross product fans across the worker pool
/// in one [`sweep`] — it is by far the largest sweep in the harness — so
/// every point (and the CSV) is identical to a serial sweep.
fn measure() -> Vec<SweepPoint> {
    let reps = repetitions();
    // One trace-set family per repetition, generated up front.
    let rep_sets: Vec<_> = (0..reps).map(multi_sets).collect();
    let variants: Vec<(usize, &'static str)> =
        (0..rep_sets[0].len()).flat_map(|ri| ALGOS.iter().map(move |&algo| (ri, algo))).collect();
    let measured = sweep(&variants, reps, |&(ri, algo), rep| {
        let (rpm, trace) = &rep_sets[rep as usize][ri];
        let run = run_multi_node(trace, build(algo));
        SweepPoint {
            rpm: *rpm,
            algo,
            p99: run.result.latency_percentile(99.0),
            completion: run.result.completion_time.as_secs_f64(),
            idle_cpu: run.report.pool_idle_cpu_core_sec,
            idle_mem: run.report.pool_idle_mem_mb_sec,
            cpu_util: (run.result.mean_cpu_util(), peak(&run.result.util, UtilSample::cpu_util)),
            mem_util: (
                mean(run.result.util.iter().map(UtilSample::mem_util)),
                peak(&run.result.util, UtilSample::mem_util),
            ),
        }
    });

    measured
        .iter()
        .map(|acc| SweepPoint {
            rpm: acc[0].rpm,
            algo: acc[0].algo,
            p99: mean_by(acc, |p| p.p99),
            completion: mean_by(acc, |p| p.completion),
            idle_cpu: mean_by(acc, |p| p.idle_cpu),
            idle_mem: mean_by(acc, |p| p.idle_mem),
            cpu_util: (mean_by(acc, |p| p.cpu_util.0), mean_by(acc, |p| p.cpu_util.1)),
            mem_util: (mean_by(acc, |p| p.mem_util.0), mean_by(acc, |p| p.mem_util.1)),
        })
        .collect()
}

fn table(points: &[SweepPoint], metric: impl Fn(&SweepPoint) -> f64, title: &str, fmt: &str) {
    header(title);
    let mut cols = vec!["rpm".to_string()];
    cols.extend(ALGOS.iter().map(|a| a.to_string()));
    row(&cols);
    let rpms: Vec<u32> = {
        let mut v: Vec<u32> = points.iter().map(|p| p.rpm).collect();
        v.dedup();
        v
    };
    for rpm in rpms {
        let mut cols = vec![format!("{rpm}")];
        for algo in ALGOS {
            let p = points.iter().find(|p| p.rpm == rpm && p.algo == algo).expect("point");
            cols.push(match fmt {
                "int" => format!("{:.0}", metric(p)),
                _ => format!("{:.2}", metric(p)),
            });
        }
        row(&cols);
    }
}

/// Run the sweep and print Figs 9, 10 and 11.
pub fn run() {
    let points = measure();

    table(&points, |p| p.p99, "Fig 9: P99 response latency (s) per RPM", "f");
    let libra_best = points.iter().filter(|p| p.algo == "Libra").all(|p| {
        points.iter().filter(|q| q.rpm == p.rpm && q.algo != "Libra").all(|q| p.p99 <= q.p99 * 1.05)
    });
    compare(
        "Libra lowest P99 across traces",
        "yes (Fig 9)",
        if libra_best { "yes".into() } else { "mostly".into() },
    );

    let p99_series: Vec<(String, Vec<(f64, f64)>)> = ALGOS
        .iter()
        .map(|algo| {
            (
                algo.to_string(),
                points.iter().filter(|p| p.algo == *algo).map(|p| (p.rpm as f64, p.p99)).collect(),
            )
        })
        .collect();
    println!("\n{}", crate::plot::line_chart("P99 latency (s) vs RPM", &p99_series, 64, 12));

    table(&points, |p| p.completion, "Fig 10(a): workload completion time (s)", "f");
    table(
        &points,
        |p| p.idle_cpu,
        "Fig 10(b): idle CPU ledger (core·s, lower = better use of harvest)",
        "int",
    );
    table(&points, |p| p.idle_mem / 1024.0, "Fig 10(c): idle memory ledger (GB·s)", "f");
    let libra_low_idle = points.iter().filter(|p| p.algo == "Libra" && p.rpm >= 60).all(|p| {
        points
            .iter()
            .filter(|q| q.rpm == p.rpm && q.algo != "Libra")
            .all(|q| p.idle_cpu <= q.idle_cpu * 1.10)
    });
    compare(
        "Libra lowest idle ledger (≥60 RPM)",
        "yes (Fig 10b/c)",
        if libra_low_idle { "yes".into() } else { "mostly".into() },
    );

    table(&points, |p| 100.0 * p.cpu_util.0, "Fig 11(a): average CPU utilization (%)", "f");
    table(&points, |p| 100.0 * p.cpu_util.1, "Fig 11(b): peak CPU utilization (%)", "f");
    table(&points, |p| 100.0 * p.mem_util.0, "Fig 11(c): average memory utilization (%)", "f");
    table(&points, |p| 100.0 * p.mem_util.1, "Fig 11(d): peak memory utilization (%)", "f");

    // CSV artifact.
    let rows: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            vec![
                p.rpm as f64,
                ALGOS.iter().position(|a| *a == p.algo).unwrap() as f64,
                p.p99,
                p.completion,
                p.idle_cpu,
                p.idle_mem,
                p.cpu_util.0,
                p.cpu_util.1,
                p.mem_util.0,
                p.mem_util.1,
            ]
        })
        .collect();
    write_csv(
        "fig09_10_11_scheduling_sweep",
        &[
            "rpm",
            "algo",
            "p99_s",
            "completion_s",
            "idle_cpu_core_s",
            "idle_mem_mb_s",
            "cpu_util_avg",
            "cpu_util_peak",
            "mem_util_avg",
            "mem_util_peak",
        ],
        &rows,
    );
}
