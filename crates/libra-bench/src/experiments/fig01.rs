//! Fig 1 — the motivating example: DH and VP invoked simultaneously with
//! three input cases, default allocation vs harvesting.
//!
//! Case 1 (DH input 4K / video-1): DH leaves cores idle, VP is starved —
//! harvesting DH's idle cores accelerates VP without hurting DH.
//! Case 2 (DH input 100 / video-2): even more idle to harvest.
//! Case 3 (DH input 10K / video-3): both saturate; nothing to harvest.

use crate::*;
use libra_sim::demand::{DemandModel, InputMeta};
use libra_sim::time::SimTime;
use libra_sim::trace::Trace;
use libra_workloads::apps::{AppKind, AppModel};

/// `(name, DH input, VP content seed)` for the three cases. The VP seeds are
/// chosen so video-1/2 are demanding (full utilization, accelerable) and
/// video-3 saturates its allocation exactly like Fig 1's Case 3.
fn cases() -> Vec<(&'static str, InputMeta, InputMeta)> {
    // Pick VP contents by their true demand: two heavy videos, one that
    // needs ≈ its 4-core allocation.
    let vp = AppModel { kind: AppKind::Vp };
    let mut heavy = Vec::new();
    let mut exact = None;
    for seed in 0..10_000u64 {
        let d = vp.demand(&InputMeta::new(50, seed));
        if d.cpu_peak_millis > 7_000 && heavy.len() < 2 {
            heavy.push(seed);
        }
        if exact.is_none() && (3_900..=4_100).contains(&d.cpu_peak_millis) {
            exact = Some(seed);
        }
        if heavy.len() == 2 && exact.is_some() {
            break;
        }
    }
    vec![
        ("Case 1 (4K/video-1)", InputMeta::new(4_000, 1), InputMeta::new(50, heavy[0])),
        ("Case 2 (100/video-2)", InputMeta::new(100, 2), InputMeta::new(50, heavy[1])),
        (
            "Case 3 (10K/video-3)",
            InputMeta::new(10_000, 3),
            InputMeta::new(50, exact.expect("exact-fit video")),
        ),
    ]
}

/// Run the experiment, printing the per-case comparison.
pub fn run() {
    header("Fig 1: motivating example — DH + VP, default vs harvesting");
    println!("DH is user-allocated 6 cores; VP 4 cores. Utilization shown is");
    println!("the invocation's busy cores / user-allocated cores.");

    for (name, dh_in, vp_in) in cases() {
        println!("\n-- {name}");
        for kind in [PlatformKind::Default, PlatformKind::Libra] {
            // Warm-up round trains the profiler; the measured round at t=60s
            // shows the harvesting effect (first-seen invocations are always
            // served as configured, §4.1).
            let mut trace = Trace::new();
            trace.push(SimTime::ZERO, AppKind::Dh.id(), dh_in);
            trace.push(SimTime::ZERO, AppKind::Vp.id(), vp_in);
            trace.push(SimTime::from_secs(120), AppKind::Dh.id(), dh_in);
            trace.push(SimTime::from_secs(120), AppKind::Vp.id(), vp_in);
            let run = run_single_node(&trace, kind.build());
            let measured: Vec<_> = run
                .result
                .records
                .iter()
                .filter(|r| r.arrival >= SimTime::from_secs(120))
                .collect();
            for r in &measured {
                let alloc_cores = if r.func == AppKind::Dh.id() { 6.0 } else { 4.0 };
                println!(
                    "   {:>8} {}: latency {:>6.1}s  peak-busy {:.1}/{:.0} cores  speedup {:+.2}  [{}{}]",
                    run.name,
                    ALL_APPS[r.func.idx()].name(),
                    r.latency.as_secs_f64(),
                    r.cpu_peak_obs as f64 / 1000.0,
                    alloc_cores,
                    r.speedup,
                    if r.flags.harvested { "harvested " } else { "" },
                    if r.flags.accelerated { "accelerated" } else { "" },
                );
            }
        }
    }
    println!("\nExpected shape: Cases 1–2 show VP accelerated (positive speedup)");
    println!("from DH's idle cores with DH unharmed; Case 3 shows no idle to");
    println!("harvest and unchanged latencies.");
}
