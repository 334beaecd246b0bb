//! Fig 8 — per-invocation resource reassignment scatter: the product of
//! reassigned resources × occupied time (core·sec, MB·sec, signed) against
//! the invocation's speedup, with each invocation categorized as
//! Default / Harvest / Accelerate / Safeguard.

use crate::*;
use libra_sim::metrics::InvCategory;

/// Print per-category statistics per platform from repetition 0 of the §8.3
/// run set ([`main_six_runs`]).
pub fn run(runs: &[Vec<PlatformRun>]) {
    header("Fig 8: per-invocation reassignment vs speedup (single trace)");
    for run in runs.iter().filter_map(|kind_runs| kind_runs.first()) {
        println!("\n-- {}", run.name);
        for cat in [
            InvCategory::Default,
            InvCategory::Harvest,
            InvCategory::Accelerate,
            InvCategory::Safeguard,
        ] {
            let members: Vec<_> =
                run.result.records.iter().filter(|r| r.category() == cat).collect();
            if members.is_empty() {
                println!("   {cat:<12?} (none)");
                continue;
            }
            let cpu_min =
                members.iter().map(|r| r.cpu_reassigned_core_sec).fold(f64::INFINITY, f64::min);
            let cpu_max =
                members.iter().map(|r| r.cpu_reassigned_core_sec).fold(f64::NEG_INFINITY, f64::max);
            let sp_min = members.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
            let sp_max = members.iter().map(|r| r.speedup).fold(f64::NEG_INFINITY, f64::max);
            println!(
                "   {cat:<12?} n={:<4} core·sec [{:+8.1}, {:+8.1}]  speedup [{:+.2}, {:+.2}]",
                members.len(),
                cpu_min,
                cpu_max,
                sp_min,
                sp_max
            );
        }
        let tag = run.name.replace(['(', ')'], "_");
        let rows: Vec<Vec<f64>> = run
            .result
            .records
            .iter()
            .map(|r| {
                let cat = match r.category() {
                    InvCategory::Default => 0.0,
                    InvCategory::Harvest => 1.0,
                    InvCategory::Accelerate => 2.0,
                    InvCategory::Safeguard => 3.0,
                };
                vec![r.cpu_reassigned_core_sec, r.mem_reassigned_mb_sec, r.speedup, cat]
            })
            .collect();
        write_csv(
            &format!("fig08_scatter_{tag}"),
            &["cpu_core_sec", "mem_mb_sec", "speedup", "category"],
            &rows,
        );
    }
    println!("\nExpected shape: Default has a single dot cloud at (0, 0); Freyr");
    println!("shows harvesting/acceleration without timeliness (degraded tail);");
    println!("Libra shows negative-x harvest dots at ≈0 speedup (safe) and");
    println!("positive-x accelerate dots with positive speedups.");
}
