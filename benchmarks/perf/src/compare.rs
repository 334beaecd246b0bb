//! `libra-perf compare A.json B.json`: is B no worse than A?
//!
//! Every workload × end-to-end metric is held to the bound `BENCHMARK.json`
//! fixes for it: B may be worse than A by at most that share of A's value.
//! Tiny values also get an absolute floor, so that 3 ms of jitter on a 10 ms
//! set-up is not a regression. Simulated statistics come from a
//! deterministic engine: between two results of one seed they must be
//! identical — a pure speed-up leaves them untouched, and a change that moves
//! them is a policy change and has to say so.

use crate::json::Json;
use crate::manifest::{Manifest, MetricDef};
use std::path::Path;
use std::process::ExitCode;

/// Differences below these are never regressions, whatever the ratio.
const ABSOLUTE_FLOORS: [(&str, f64); 2] = [("setup_s", 0.05), ("peak_rss_mb", 1.0)];

/// Per-layer figures that are simulated, not timed, and so compare exactly.
const EXACT: [&str; 4] = ["sim.lat_p50_s", "sim.lat_p99_s", "sim.speedup_min", "sim.cpu_util"];

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(results: &Json, workload: &str, run: &str, name: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(run)?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// By what share of `a` is `b` worse? Negative when `b` is better.
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Whether `b` breaches `def`'s bound against `a`.
fn breaches(def: &MetricDef, a: f64, b: f64) -> bool {
    let floor = ABSOLUTE_FLOORS.iter().find(|(n, _)| *n == def.name).map_or(0.0, |(_, f)| *f);
    let bound = def.bound.unwrap_or(0.0);
    worse_by(def, a, b) > bound && (b - a).abs() > floor
}

pub fn run(manifest: &Manifest, a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |r: &Json| r.get("fingerprint").and_then(|f| f.get("seed")).and_then(Json::as_f64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut breaches_found = 0;
    println!("{:<16} {:<18} {:>16} {:>16} {:>9}  verdict", "workload", "metric", "A", "B", "B/A");
    for workload in &manifest.workloads {
        for def in &manifest.end_to_end {
            let (Some(va), Some(vb)) = (
                metric(&a, workload, "end_to_end", &def.name),
                metric(&b, workload, "end_to_end", &def.name),
            ) else {
                return Err(format!("{workload}/{} is missing from one of the files", def.name));
            };
            let breach = breaches(def, va, vb);
            breaches_found += breach as u32;
            println!(
                "{workload:<16} {:<18} {va:>16.6} {vb:>16.6} {:>9.4}  {}",
                def.name,
                vb / va,
                if breach {
                    format!("BREACH (bound {:.0} % of A)", def.bound.unwrap_or(0.0) * 100.0)
                } else {
                    "ok".to_string()
                },
            );
        }
        for name in EXACT.into_iter().filter(|_| workload.starts_with("sim_")) {
            let (Some(va), Some(vb)) =
                (metric(&a, workload, "per_layer", name), metric(&b, workload, "per_layer", name))
            else {
                return Err(format!("{workload}/{name} is missing from one of the files"));
            };
            let verdict = if !same_seed {
                "not compared (seeds differ)"
            } else if va.to_bits() == vb.to_bits() {
                "identical"
            } else {
                breaches_found += 1;
                "BREACH (simulated statistic moved)"
            };
            println!("{workload:<16} {name:<18} {va:>16.6} {vb:>16.6} {:>9}  {verdict}", "");
        }
    }
    println!("{breaches_found} breach(es); ratios are B over A");
    Ok(if breaches_found == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.to_string(),
            unit: "x".to_string(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_is_a_share_of_a_in_the_metrics_own_direction() {
        let lat = def("lat_p50_ms", false, 0.10);
        assert!(!breaches(&lat, 10.0, 10.9));
        assert!(breaches(&lat, 10.0, 11.1));
        assert!(!breaches(&lat, 10.0, 2.0), "better is never a breach");
        let rate = def("inv_per_s", true, 0.10);
        assert!(!breaches(&rate, 1000.0, 905.0));
        assert!(breaches(&rate, 1000.0, 890.0));
        assert!(!breaches(&rate, 1000.0, 5000.0));
    }

    #[test]
    fn tiny_values_get_an_absolute_floor() {
        let setup = def("setup_s", false, 0.25);
        assert!(!breaches(&setup, 0.010, 0.040), "30 ms on a 10 ms set-up is jitter");
        assert!(breaches(&setup, 0.010, 0.070));
        assert!(breaches(&setup, 1.0, 1.3));
        let rss = def("peak_rss_mb", false, 0.10);
        assert!(!breaches(&rss, 5.0, 5.9));
        assert!(breaches(&rss, 50.0, 56.0));
    }
}
