//! Keep-alive / autoscaling policy sweep against the harvesting platforms.
//!
//! The paper fixes the warm-container lifecycle to OpenWhisk's 60 s TTL and
//! studies harvesting on top of it; this experiment varies the keep-alive
//! policy itself — the knob that decides how much idle warm memory exists
//! for harvesters to see — and crosses it with the §8.3 platforms:
//!
//! * policies: fixed 60 s (the seed), fixed 10 s, histogram-based
//!   prewarm/keep-alive (Serverless-in-the-Wild style), concurrency-based
//!   autoscaling (Knative style);
//! * platforms: Default (no harvesting), Freyr, Libra.
//!
//! For every cell we report the cold-start rate, the mean/max idle warm
//! pinned memory (the engine's own `RunSummary::warm_pinned_mb`),
//! policy-directed prewarms, and P99 latency. The CSV is
//! byte-identical at any `--threads` count: jobs are fanned with the
//! order-preserving [`sweep`] and reduced in configuration order.

use crate::*;
use libra_core::{PolicyKind, WithKeepAlive};
use libra_sim::time::SimDuration;

/// The policy column of the sweep. `fixed60` is the seed behavior — under it
/// every platform must reproduce its no-wrapper numbers exactly.
fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::FixedTtl(SimDuration::from_secs(60)),
        PolicyKind::FixedTtl(SimDuration::from_secs(10)),
        PolicyKind::Histogram,
        PolicyKind::Concurrency,
    ]
}

/// The harvester row of the sweep.
const PLATFORMS: [PlatformKind; 3] =
    [PlatformKind::Default, PlatformKind::Freyr, PlatformKind::Libra];

/// One cell's measurements, averaged over repetitions.
struct Cell {
    cold_rate: f64,
    pinned_mean_mb: f64,
    pinned_max_mb: f64,
    prewarms: f64,
    p99_s: f64,
}

fn one_run(policy: PolicyKind, kind: PlatformKind, rep: u64) -> Cell {
    let platform = WithKeepAlive::new(kind.build(), policy.build());
    let run = run_single_node(&single_trace(rep), Box::new(platform));
    let r = &run.result;
    let served = (r.warm_hits + r.cold_starts).max(1) as f64;
    Cell {
        cold_rate: r.cold_starts as f64 / served,
        pinned_mean_mb: zero_if_nan(r.summary.warm_pinned_mb.mean()),
        pinned_max_mb: zero_if_nan(r.summary.warm_pinned_mb.max()),
        prewarms: r.prewarms as f64,
        p99_s: r.latency_percentile(99.0),
    }
}

fn zero_if_nan(x: f64) -> f64 {
    if x.is_nan() {
        0.0
    } else {
        x
    }
}

/// Run the sweep; returns `(label, value)` pairs for downstream checks.
pub fn run() -> Vec<(String, f64)> {
    header("Keep-alive policy x harvester sweep (cold starts vs harvestable supply)");
    row(&[
        "policy".into(),
        "platform".into(),
        "cold rate".into(),
        "pinned MB".into(),
        "peak MB".into(),
        "prewarms".into(),
        "P99 (s)".into(),
    ]);
    let pols = policies();
    let cells: Vec<(usize, usize)> =
        (0..pols.len()).flat_map(|pi| (0..PLATFORMS.len()).map(move |ki| (pi, ki))).collect();
    let runs = sweep(&cells, repetitions(), |&(pi, ki), rep| one_run(pols[pi], PLATFORMS[ki], rep));

    let mut out = Vec::new();
    let mut csv_rows = Vec::new();
    for (&(pi, ki), cell) in cells.iter().zip(&runs) {
        let label = format!("{}/{}", pols[pi].label(), PLATFORMS[ki].name());
        let cold = mean_by(cell, |c| c.cold_rate);
        let pinned = mean_by(cell, |c| c.pinned_mean_mb);
        let peak = mean_by(cell, |c| c.pinned_max_mb);
        let prewarms = mean_by(cell, |c| c.prewarms);
        let p99 = mean_by(cell, |c| c.p99_s);
        row(&[
            pols[pi].label(),
            PLATFORMS[ki].name().into(),
            format!("{cold:.3}"),
            format!("{pinned:.0}"),
            format!("{peak:.0}"),
            format!("{prewarms:.0}"),
            format!("{p99:.1}"),
        ]);
        csv_rows.push(vec![pi as f64, ki as f64, cold, pinned, peak, prewarms, p99]);
        out.push((format!("{label} cold_rate"), cold));
        out.push((format!("{label} pinned_mb"), pinned));
    }
    write_csv(
        "exp_keepalive",
        &[
            "policy_idx",
            "platform_idx",
            "cold_start_rate",
            "warm_pinned_mb_mean",
            "warm_pinned_mb_max",
            "prewarms",
            "p99_s",
        ],
        &csv_rows,
    );
    println!("policy_idx: 0=fixed60 1=fixed10 2=histogram 3=concurrency;");
    println!("platform_idx: 0=Default 1=Freyr 2=Libra");
    println!("Expected: shorter/adaptive keep-alive shrinks pinned warm memory");
    println!("(less harvestable idle-warm supply, more cold starts); the fixed60");
    println!("column reproduces the seed lifecycle under every harvester.");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::platform::Platform as _;

    /// The `fixed60` wrapper must be observationally identical to running
    /// the bare platform — same trace, same counters. This pins the sweep's
    /// baseline column to the seed behavior.
    #[test]
    fn fixed60_wrapper_matches_bare_platform() {
        let trace = libra_workloads::TraceGen::standard(&libra_workloads::ALL_APPS, 7).single_set();
        let bare = run_single_node(&trace, PlatformKind::Libra.build());
        let wrapped = run_single_node(
            &trace,
            Box::new(WithKeepAlive::new(
                PlatformKind::Libra.build(),
                PolicyKind::FixedTtl(SimDuration::from_secs(60)).build(),
            )),
        );
        assert_eq!(bare.result.warm_hits, wrapped.result.warm_hits);
        assert_eq!(bare.result.cold_starts, wrapped.result.cold_starts);
        assert_eq!(wrapped.result.prewarms, 0, "fixed TTL never prewarms");
        assert_eq!(bare.result.completion_time, wrapped.result.completion_time);
    }

    /// Boxed platforms compose with the wrapper (the forwarding impl).
    #[test]
    fn wrapper_over_boxed_platform_builds() {
        let p = WithKeepAlive::new(PlatformKind::Default.build(), PolicyKind::default().build());
        assert_eq!(p.policy().name(), "fixed");
        assert!(!p.name().is_empty());
    }
}
