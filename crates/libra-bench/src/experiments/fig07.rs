//! Fig 7 — CPU and memory utilization of six platforms through the
//! experiment timeline (single-node, `single` trace), plus the §8.3.1 /
//! §8.3.2 utilization and workload-completion headlines.

use crate::*;
use libra_sim::metrics::{mean, UtilSample};

/// Report from the §8.3 run set ([`main_six_runs`]); returns per-platform
/// `(name, mean cpu util, mean mem util, completion secs)`.
pub fn run(runs: &[Vec<PlatformRun>]) -> Vec<(String, f64, f64, f64)> {
    header("Fig 7: utilization timelines (single-node, `single` trace)");
    let last_runs: Vec<&PlatformRun> =
        runs.iter().filter_map(|kind_runs| kind_runs.last()).collect();

    row(&["platform".into(), "cpu util".into(), "mem util".into(), "completion".into()]);
    let mut out = Vec::new();
    for (kind, kind_runs) in PlatformKind::MAIN_SIX.iter().zip(runs) {
        let c = mean_by(kind_runs, |run| run.result.mean_cpu_util());
        let m = mean_by(kind_runs, |run| mean(run.result.util.iter().map(UtilSample::mem_util)));
        let t = mean_by(kind_runs, |run| run.result.completion_time.as_secs_f64());
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
