//! Fig 7 — CPU and memory utilization of six platforms through the
//! experiment timeline (single-node, `single` trace), plus the §8.3.1 /
//! §8.3.2 utilization and workload-completion headlines.

use crate::*;
use libra_sim::engine::SimConfig;
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

/// Run the experiment; returns per-platform `(name, mean cpu util, mean mem
/// util, completion secs)`.
pub fn run() -> Vec<(String, f64, f64, f64)> {
    header("Fig 7: utilization timelines (single-node, `single` trace)");
    let reps = repetitions();
    let n = PlatformKind::MAIN_SIX.len();
    let (mut cpu, mut mem, mut compl) =
        (vec![Vec::new(); n], vec![Vec::new(); n], vec![Vec::new(); n]);

    // Same ordered fan-out as Fig 6: job order == aggregation order.
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
        cpu[i].push(run.result.mean_cpu_util());
        mem[i].push(run.result.mean_mem_util());
        compl[i].push(run.result.completion_time.as_secs_f64());
    }
    let last_runs: Vec<PlatformRun> = runs.into_iter().skip((reps as usize - 1) * n).collect();

    row(&["platform".into(), "cpu util".into(), "mem util".into(), "completion".into()]);
    let mut out = Vec::new();
    for (i, kind) in PlatformKind::MAIN_SIX.iter().enumerate() {
        let (c, m, t) = (mean_slice(&cpu[i]), mean_slice(&mem[i]), mean_slice(&compl[i]));
        row(&[kind.name().into(), format!("{c:.3}"), format!("{m:.3}"), format!("{t:.1}s")]);
        out.push((kind.name().to_string(), c, m, t));
    }

    println!();
    let (dc, fc, lc) = (out[0].1, out[1].1, out[2].1);
    let (dm, fm, lm) = (out[0].2, out[1].2, out[2].2);
    let (dt, ft, lt) = (out[0].3, out[1].3, out[2].3);
    compare(
        "CPU util vs Default / Freyr",
        "3.82x / 2.93x",
        format!("{:.2}x / {:.2}x", lc / dc, lc / fc),
    );
    compare(
        "Mem util vs Default / Freyr",
        "2.09x / 2.48x",
        format!("{:.2}x / {:.2}x", lm / dm, lm / fm),
    );
    compare(
        "Completion faster vs Default / Freyr",
        "51% / 43%",
        format!("{:.0}% / {:.0}%", 100.0 * (1.0 - lt / dt), 100.0 * (1.0 - lt / ft)),
    );
    compare(
        "CPU util vs NS / NP / NSP",
        "1.21x / 1.84x / 2.05x",
        format!("{:.2}x / {:.2}x / {:.2}x", lc / out[3].1, lc / out[4].1, lc / out[5].1),
    );
    compare(
        "Completion faster vs NS / NP / NSP",
        "17% / 30% / 42%",
        format!(
            "{:.0}% / {:.0}% / {:.0}%",
            100.0 * (1.0 - lt / out[3].3),
            100.0 * (1.0 - lt / out[4].3),
            100.0 * (1.0 - lt / out[5].3)
        ),
    );

    // Terminal timeline for the three headline platforms.
    let series: Vec<(String, Vec<(f64, f64)>)> = last_runs
        .iter()
        .take(3)
        .map(|run| {
            (
                run.name.clone(),
                run.result
                    .util
                    .iter()
                    .map(|s| (s.at.as_secs_f64(), s.cpu_used_millis as f64 / 1000.0))
                    .collect(),
            )
        })
        .collect();
    println!("\n{}", crate::plot::line_chart("CPU in use (cores) over time (s)", &series, 64, 12));

    // CSV timelines of the last repetition.
    for run in &last_runs {
        let tag = run.name.replace(['(', ')'], "_");
        let rows: Vec<Vec<f64>> = run
            .result
            .util
            .iter()
            .map(|s| {
                vec![
                    s.at.as_secs_f64(),
                    s.cpu_used_millis as f64 / 1000.0,
                    s.cpu_alloc_millis as f64 / 1000.0,
                    s.cpu_util(),
                    s.mem_used_mb as f64,
                    s.mem_alloc_mb as f64,
                    s.mem_util(),
                ]
            })
            .collect();
        write_csv(
            &format!("fig07_util_timeline_{tag}"),
            &[
                "t_s",
                "cpu_used_cores",
                "cpu_alloc_cores",
                "cpu_util",
                "mem_used_mb",
                "mem_alloc_mb",
                "mem_util",
            ],
            &rows,
        );
    }
    out
}
