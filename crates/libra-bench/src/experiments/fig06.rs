//! Fig 6 — CDFs of response latency and speedup for six platforms on the
//! single-node cluster with the `single` trace set (165 invocations).

use crate::*;

/// Empirical CDF points `(value, cumulative fraction)` for plotting.
fn cdf(data: &[f64]) -> Vec<(f64, f64)> {
    let mut v = data.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    v.into_iter().enumerate().map(|(i, x)| (x, (i + 1) as f64 / n)).collect()
}

/// Report from the §8.3 run set ([`main_six_runs`]); returns `(names, mean
/// P99s)` for EXPERIMENTS.md.
pub fn run(runs: &[Vec<PlatformRun>]) -> Vec<(String, f64)> {
    header("Fig 6: single-node comparison (165-invocation `single` trace)");
    let last_runs: Vec<&PlatformRun> =
        runs.iter().filter_map(|kind_runs| kind_runs.last()).collect();

    header("Fig 6(a): response-latency CDF (quantiles, seconds)");
    for run in &last_runs {
        cdf_summary(&run.name, &run.result.latencies_sec(), "s");
    }
    let cdf_series: Vec<(String, Vec<(f64, f64)>)> = [0usize, 1, 2]
        .iter()
        .map(|&i| (last_runs[i].name.clone(), cdf(&last_runs[i].result.latencies_sec())))
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
    let p99m: Vec<f64> =
        runs.iter().map(|r| mean_by(r, |run| run.result.latency_percentile(99.0))).collect();
    let worstm: Vec<f64> =
        runs.iter().map(|r| mean_by(r, |run| run.result.worst_degradation())).collect();
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
        let lat = cdf(&run.result.latencies_sec());
        write_csv(
            &format!("fig06a_latency_cdf_{tag}"),
            &["latency_s", "cdf"],
            &lat.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
        let sp = cdf(&run.result.speedups());
        write_csv(
            &format!("fig06b_speedup_cdf_{tag}"),
            &["speedup", "cdf"],
            &sp.iter().map(|&(x, y)| vec![x, y]).collect::<Vec<_>>(),
        );
    }

    names.iter().map(|n| n.to_string()).zip(p99m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_to_one() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], (1.0, 1.0 / 3.0));
        assert_eq!(c[2], (3.0, 1.0));
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn cdf_tolerates_nan_input() {
        // A NaN sample (a speedup with a zero baseline) sorts last and must
        // not abort the run's reporting.
        let c = cdf(&[f64::NAN, 1.0, 3.0, 2.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], (1.0, 0.25));
        assert!(c[3].0.is_nan());
    }
}
