//! Fig 8 — per-invocation resource reassignment scatter: the product of
//! reassigned resources × occupied time (core·sec, MB·sec, signed) against
//! the invocation's speedup, with each invocation categorized as
//! Default / Harvest / Accelerate / Safeguard.

use crate::*;
use libra_sim::invocation::InvFlags;

/// Fig 8 scatter categories; the discriminant is the CSV's `category` column.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Category {
    /// Ran with the user-requested allocation, untouched.
    Default,
    /// Had idle resources harvested from it.
    Harvest,
    /// Ran with supplementary (borrowed) resources.
    Accelerate,
    /// Was protected by the safeguard (or OOM-restarted).
    Safeguard,
}

/// The category of an invocation that ended with `flags`: protection wins
/// over acceleration, acceleration over harvesting.
fn category(flags: &InvFlags) -> Category {
    if flags.safeguarded || flags.oomed {
        Category::Safeguard
    } else if flags.accelerated {
        Category::Accelerate
    } else if flags.harvested {
        Category::Harvest
    } else {
        Category::Default
    }
}

/// Print per-category statistics per platform from repetition 0 of the §8.3
/// run set ([`main_six_runs`]).
pub fn run(runs: &[Vec<PlatformRun>]) {
    header("Fig 8: per-invocation reassignment vs speedup (single trace)");
    for run in runs.iter().filter_map(|kind_runs| kind_runs.first()) {
        println!("\n-- {}", run.name);
        for cat in [Category::Default, Category::Harvest, Category::Accelerate, Category::Safeguard]
        {
            // A derived `Debug` ignores width: pad the formatted name.
            let name = format!("{cat:?}");
            let members: Vec<_> =
                run.result.records.iter().filter(|r| category(&r.flags) == cat).collect();
            if members.is_empty() {
                println!("   {name:<12} (none)");
                continue;
            }
            let cpu_min =
                members.iter().map(|r| r.cpu_reassigned_core_sec).fold(f64::INFINITY, f64::min);
            let cpu_max =
                members.iter().map(|r| r.cpu_reassigned_core_sec).fold(f64::NEG_INFINITY, f64::max);
            let sp_min = members.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
            let sp_max = members.iter().map(|r| r.speedup).fold(f64::NEG_INFINITY, f64::max);
            println!(
                "   {name:<12} n={:<4} core·sec [{:+8.1}, {:+8.1}]  speedup [{:+.2}, {:+.2}]",
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
                let cat = category(&r.flags) as u8;
                vec![r.cpu_reassigned_core_sec, r.mem_reassigned_mb_sec, r.speedup, f64::from(cat)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_priority() {
        let mut flags = InvFlags::default();
        assert_eq!(category(&flags), Category::Default);
        flags.harvested = true;
        assert_eq!(category(&flags), Category::Harvest);
        flags.accelerated = true;
        assert_eq!(category(&flags), Category::Accelerate);
        flags.safeguarded = true;
        assert_eq!(category(&flags), Category::Safeguard);
        let oomed = InvFlags { oomed: true, ..InvFlags::default() };
        assert_eq!(category(&oomed), Category::Safeguard);
        assert_eq!(Category::Safeguard as u8, 3, "the CSV column's codes");
    }
}
