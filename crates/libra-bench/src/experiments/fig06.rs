//! Fig 6 — CDFs of response latency and speedup for six platforms on the
//! single-node cluster with the `single` trace set (165 invocations).

use crate::*;
use libra_sim::engine::SimConfig;
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

/// Run the experiment; returns `(names, mean P99s)` for EXPERIMENTS.md.
pub fn run() -> Vec<(String, f64)> {
    header("Fig 6: single-node comparison (165-invocation `single` trace)");
    let reps = repetitions();

    let n = PlatformKind::MAIN_SIX.len();
    let mut p99 = vec![Vec::new(); n];
    let mut worst = vec![Vec::new(); n];

    // Fan (rep × platform) across the worker pool; par_map returns results
    // in job order, so aggregation below matches a serial sweep exactly.
    let traces: Vec<_> =
        (0..reps).map(|rep| TraceGen::standard(&ALL_APPS, 42 + rep).single_set()).collect();
    let jobs: Vec<(usize, usize)> =
        (0..reps as usize).flat_map(|rep| (0..n).map(move |i| (rep, i))).collect();
    let runs = par_map(jobs, |(rep, i)| {
        run_on(
            sebs_suite(),
            testbeds::single_node(),
            SimConfig::default(),
            &traces[rep],
            PlatformKind::MAIN_SIX[i].build(),
        )
    });
    for (j, run) in runs.iter().enumerate() {
        let i = j % n;
        p99[i].push(run.result.latency_percentile(99.0));
        worst[i].push(run.result.worst_degradation());
    }
    let last_runs: Vec<PlatformRun> = runs.into_iter().skip((reps as usize - 1) * n).collect();

    header("Fig 6(a): response-latency CDF (quantiles, seconds)");
    for run in &last_runs {
        cdf_summary(&run.name, &run.result.latencies_sec(), "s");
    }
    let cdf_series: Vec<(String, Vec<(f64, f64)>)> = [0usize, 1, 2]
        .iter()
        .map(|&i| {
            (
                last_runs[i].name.clone(),
                libra_sim::metrics::cdf(&last_runs[i].result.latencies_sec()),
            )
        })
        .collect();
    println!(
        "\n{}",
        crate::plot::line_chart("latency CDF (x = seconds, y = fraction)", &cdf_series, 64, 14)
    );

    header("Fig 6(b): speedup CDF (quantiles)");
    for run in &last_runs {
        cdf_summary(&run.name, &run.result.speedups(), "");
    }

    header("Headline comparisons (averaged over reps)");
    let p99m: Vec<f64> = p99.iter().map(|v| mean_slice(v)).collect();
    let worstm: Vec<f64> = worst.iter().map(|v| mean_slice(v)).collect();
    let names: Vec<&str> = PlatformKind::MAIN_SIX.iter().map(|k| k.name()).collect();
    row(&["platform".into(), "P99 (s)".into(), "worst speedup".into()]);
    for i in 0..names.len() {
        row(&[names[i].into(), format!("{:.2}", p99m[i]), format!("{:.3}", worstm[i])]);
    }

    let libra = p99m[2];
    println!();
    compare("P99 reduction vs Default", "50%", format!("{:.0}%", 100.0 * (1.0 - libra / p99m[0])));
    compare("P99 reduction vs Freyr", "39%", format!("{:.0}%", 100.0 * (1.0 - libra / p99m[1])));
    compare("P99 reduction vs Libra-NS", "15%", format!("{:.0}%", 100.0 * (1.0 - libra / p99m[3])));
    compare("P99 reduction vs Libra-NP", "30%", format!("{:.0}%", 100.0 * (1.0 - libra / p99m[4])));
    compare(
        "P99 reduction vs Libra-NSP",
        "34%",
        format!("{:.0}%", 100.0 * (1.0 - libra / p99m[5])),
    );
    compare("Libra worst degradation", "-2%", format!("{:.0}%", 100.0 * worstm[2]));
    compare("Libra-NP worst degradation", "-6%", format!("{:.0}%", 100.0 * worstm[4]));
    compare("Libra-NS worst degradation", "-42%", format!("{:.0}%", 100.0 * worstm[3]));
    compare("Libra-NSP worst degradation", "-197%", format!("{:.0}%", 100.0 * worstm[5]));
    compare("Freyr worst degradation", "-180%", format!("{:.0}%", 100.0 * worstm[1]));

    // CSV artifacts: full CDFs of the last repetition.
    for run in &last_runs {
        let tag = run.name.replace(['(', ')'], "_");
        let lat = libra_sim::metrics::cdf(&run.result.latencies_sec());
        write_csv(
            &format!("fig06a_latency_cdf_{tag}"),
            &["latency_s", "cdf"],
            &lat.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
        let sp = libra_sim::metrics::cdf(&run.result.speedups());
        write_csv(
            &format!("fig06b_speedup_cdf_{tag}"),
            &["speedup", "cdf"],
            &sp.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
    }

    names.iter().map(|n| n.to_string()).zip(p99m).collect()
}
