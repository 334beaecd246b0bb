//! # libra-bench — the experiment harness
//!
//! One module per table/figure of the paper under [`experiments`] (see
//! DESIGN.md §3 for the index), run by name through the one `exp` binary;
//! this library holds the shared machinery: platform constructors, the run
//! driver, the evaluation's two setups (§8.3 single-node, §8.4 multi-node),
//! the one variant × repetition [`sweep`], plain-text table/CDF reporting,
//! and the batch assigners of the greedy-gap ablation ([`batch`]);
//! [`probe`] reduces the benchmark's simulated runs to exact counts.
//!
//! Every experiment prints the paper's expected shape next to the measured
//! numbers and writes CSV series under `results/` for external plotting.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the harness times what it runs from outside: fig12, overheads, ablations and scale report wall-clock"
)]
#![warn(missing_docs)]

pub mod batch;
pub mod experiments;
pub mod plot;
pub mod probe;

use libra_baselines::{Freyr, OpenWhiskDefault};
use libra_core::{LibraConfig, LibraPlatform, ModelChoice};
use libra_sim::engine::{SimConfig, Simulation};
use libra_sim::function::FunctionSpec;
use libra_sim::metrics::{percentiles, RunResult};
use libra_sim::platform::{Platform, PlatformReport};
use libra_sim::resources::ResourceVec;
use libra_sim::trace::Trace;
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The six §8.3 platforms plus the Fig 13(a) model ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformKind {
    /// OpenWhisk default.
    Default,
    /// The Freyr stand-in.
    Freyr,
    /// Full Libra.
    Libra,
    /// Libra without the safeguard.
    LibraNs,
    /// Libra without the profiler (moving window).
    LibraNp,
    /// Libra without either.
    LibraNsp,
    /// Libra with histogram models only.
    LibraHist,
    /// Libra with ML models only.
    LibraMl,
}

impl PlatformKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformKind::Default => "Default",
            PlatformKind::Freyr => "Freyr",
            PlatformKind::Libra => "Libra",
            PlatformKind::LibraNs => "Libra-NS",
            PlatformKind::LibraNp => "Libra-NP",
            PlatformKind::LibraNsp => "Libra-NSP",
            PlatformKind::LibraHist => "Hist",
            PlatformKind::LibraMl => "ML",
        }
    }

    /// The six platforms of §8.3.
    pub const MAIN_SIX: [PlatformKind; 6] = [
        PlatformKind::Default,
        PlatformKind::Freyr,
        PlatformKind::Libra,
        PlatformKind::LibraNs,
        PlatformKind::LibraNp,
        PlatformKind::LibraNsp,
    ];

    /// Build the platform.
    pub fn build(&self) -> Box<dyn Platform> {
        match self {
            PlatformKind::Default => Box::new(OpenWhiskDefault),
            PlatformKind::Freyr => Box::new(Freyr::new()),
            PlatformKind::Libra => Box::new(LibraPlatform::new(LibraConfig::libra())),
            PlatformKind::LibraNs => Box::new(LibraPlatform::new(LibraConfig::ns())),
            PlatformKind::LibraNp => Box::new(LibraPlatform::new(LibraConfig::np())),
            PlatformKind::LibraNsp => Box::new(LibraPlatform::new(LibraConfig::nsp())),
            PlatformKind::LibraHist => Box::new(LibraPlatform::new(LibraConfig {
                model_choice: ModelChoice::HistogramOnly,
                ..LibraConfig::libra()
            })),
            PlatformKind::LibraMl => Box::new(LibraPlatform::new(LibraConfig {
                model_choice: ModelChoice::MlOnly,
                ..LibraConfig::libra()
            })),
        }
    }
}

/// Result of one platform run, with the platform's self-report attached.
pub struct PlatformRun {
    /// Platform label.
    pub name: String,
    /// Simulator metrics.
    pub result: RunResult,
    /// Platform counters (pool ledger, safeguard triggers...).
    pub report: PlatformReport,
}

/// Run `trace` on a cluster of `nodes` under `platform`.
pub fn run_on(
    funcs: Vec<FunctionSpec>,
    nodes: Vec<ResourceVec>,
    config: SimConfig,
    trace: &Trace,
    mut platform: Box<dyn Platform>,
) -> PlatformRun {
    let sim = Simulation::new(funcs, nodes, config);
    let result = sim.run(trace, platform.as_mut());
    PlatformRun { name: platform.name(), result, report: platform.report() }
}

// ---------------------------------------------------------------- the setups

/// §8.3's single-node setup: `platform` runs `trace` on the SeBS suite and the
/// 72-core node under the default engine configuration.
pub fn run_single_node(trace: &Trace, platform: Box<dyn Platform>) -> PlatformRun {
    run_on(sebs_suite(), testbeds::single_node(), SimConfig::default(), trace, platform)
}

/// The evaluation's trace generator for repetition `rep`: the ten SeBS
/// applications' `standard` input pools and popularity, seeded `42 + rep`.
pub fn trace_gen(rep: u64) -> TraceGen {
    TraceGen::standard(&ALL_APPS, 42 + rep)
}

/// §8.3's `single` trace (165 invocations) of repetition `rep`.
pub fn single_trace(rep: u64) -> Trace {
    trace_gen(rep).single_set()
}

/// §8.4's multi-node setup: `platform` runs `trace` on the SeBS suite and the
/// four-node cluster, decentralized into two scheduler shards.
pub fn run_multi_node(trace: &Trace, platform: Box<dyn Platform>) -> PlatformRun {
    let config = SimConfig { shards: 2, ..SimConfig::default() };
    run_on(sebs_suite(), testbeds::multi_node(), config, trace, platform)
}

/// §8.4's ten `heavy` multi sets of repetition `rep`: `(rpm, trace)` pairs,
/// 10 → 300 RPM.
pub fn multi_sets(rep: u64) -> Vec<(u32, Trace)> {
    TraceGen::heavy(&ALL_APPS, 42 + rep).multi_sets()
}

/// §8.4's `heavy` multi set at `rpm` of repetition `rep`.
pub fn multi_trace(rep: u64, rpm: u32) -> Trace {
    multi_sets(rep).into_iter().find(|(r, _)| *r == rpm).expect("a multi set at that RPM").1
}

/// The §8.3 run set Figs 6, 7 and 8 all read: the six platforms of
/// [`PlatformKind::MAIN_SIX`] on the single-node setup, one run per
/// repetition of the `single` trace, grouped as [`sweep`] groups them.
pub fn main_six_runs() -> Vec<Vec<PlatformRun>> {
    let reps = repetitions();
    let traces: Vec<Trace> = (0..reps).map(single_trace).collect();
    sweep(&PlatformKind::MAIN_SIX, reps, |kind, rep| {
        run_single_node(&traces[rep as usize], kind.build())
    })
}

// ------------------------------------------------------------- parallel runs

/// Worker-thread count for the parallel sweep runner: `LIBRA_THREADS` env,
/// else the machine's available parallelism.
pub fn threads() -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    knob(std::env::var("LIBRA_THREADS").ok().as_deref(), |&n| n > 0, default)
}

/// An environment knob's value: `raw` parsed as `T` if it parses and is
/// `valid`, else `default`. Pure (takes the raw string, not the variable
/// name) so tests need no `set_var`, which races the parallel test runner.
fn knob<T: std::str::FromStr>(raw: Option<&str>, valid: impl Fn(&T) -> bool, default: T) -> T {
    raw.and_then(|v| v.trim().parse().ok()).filter(valid).unwrap_or(default)
}

/// Fan `jobs` across [`threads`] workers and collect results **in job
/// order** — the i-th result always comes from the i-th job, regardless of
/// scheduling, so sweep output (tables, CSVs) is byte-identical to a serial
/// run.
///
/// Jobs must be self-contained (build their own trace/platform from a
/// deterministic seed) and must not print; do all reporting from the ordered
/// results afterwards.
pub fn par_map<T, R, F>(jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_on(threads(), jobs, f)
}

/// [`par_map`] on `workers` scoped threads: each claims the next job index,
/// takes the job out of its slot and leaves the result in the slot of the
/// same index. A panicking job panics the caller once the scope has joined.
fn par_map_on<T, R, F>(workers: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let out: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    // Relaxed: the counter only hands out indices; the slots' own locks
    // publish the jobs and the results.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = jobs.get(i) else { break };
                let job = slot.lock().expect("no job runs under its slot's lock").take();
                let r = f(job.expect("each index is claimed once"));
                *out[i].lock().expect("no job runs under its slot's lock") = Some(r);
            });
        }
    });
    out.into_iter()
        .map(|r| r.into_inner().expect("no job runs under its slot's lock"))
        .map(|r| r.expect("the scope joined every worker, so every job ran"))
        .collect()
}

/// Run every variant `reps` times across the [`par_map`] workers. Element
/// `v` of the result holds variant `v`'s runs in repetition order, so a
/// per-variant aggregate folds the same values in the same order as a serial
/// loop over repetitions would.
pub fn sweep<V, R, F>(variants: &[V], reps: u64, run: F) -> Vec<Vec<R>>
where
    V: Sync,
    R: Send,
    F: Fn(&V, u64) -> R + Sync,
{
    let jobs: Vec<(usize, u64)> =
        (0..variants.len()).flat_map(|v| (0..reps).map(move |rep| (v, rep))).collect();
    let mut runs = par_map(jobs, |(v, rep)| run(&variants[v], rep)).into_iter();
    variants.iter().map(|_| runs.by_ref().take(reps as usize).collect()).collect()
}

/// The mean of `f` over one variant's runs, folded in repetition order; NaN
/// for no runs, which a report must not mistake for zero.
pub fn mean_by<R>(runs: &[R], f: impl Fn(&R) -> f64) -> f64 {
    if runs.is_empty() {
        return f64::NAN;
    }
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

// ---------------------------------------------------------------- reporting

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("== {title} ==");
    println!("{}", "-".repeat(72));
}

/// Print a row of aligned columns.
pub fn row(cols: &[String]) {
    let line = cols.iter().map(|c| format!("{c:>14}")).collect::<Vec<_>>().join(" ");
    println!("{line}");
}

/// Quantile summary of a CDF (what a plotted CDF conveys, in text).
pub fn cdf_summary(label: &str, data: &[f64], unit: &str) {
    if data.is_empty() {
        println!("{label:>12}: (no data)");
        return;
    }
    let qs = [10.0, 25.0, 50.0, 75.0, 90.0, 99.0];
    let vals = percentiles(data, &qs);
    let cells: Vec<String> =
        qs.iter().zip(&vals).map(|(&q, v)| format!("p{q:>2.0}={v:.2}{unit}")).collect();
    println!("{label:>12}: {}", cells.join("  "));
}

/// Where CSV artifacts go.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LIBRA_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a CSV artifact: `name.csv` with a header row and data rows.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).unwrap();
    for r in rows {
        let line = r.iter().map(|v| format!("{v}")).collect::<Vec<_>>().join(",");
        writeln!(f, "{line}").unwrap();
    }
    println!("[wrote {}]", path.display());
}

/// Paper-vs-measured comparison line for EXPERIMENTS.md-style output.
pub fn compare(label: &str, paper: &str, measured: String) {
    println!("{label:<44} paper: {paper:<22} measured: {measured}");
}

/// Environment-tunable repetition count (default 3; the paper used 5). Zero
/// is rejected: every figure indexes its last repetition.
pub fn repetitions() -> u64 {
    knob(std::env::var("LIBRA_REPS").ok().as_deref(), |&n| n > 0, 3)
}

/// Environment-tunable scale factor for heavyweight experiments (1.0 = paper
/// scale). Smoke tests set it below 1. Must be positive and finite.
pub fn scale() -> f64 {
    knob(std::env::var("LIBRA_SCALE").ok().as_deref(), |x| x.is_finite() && *x > 0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_reject_non_positive_and_non_finite_values() {
        let reps = |raw| knob(raw, |&n: &u64| n > 0, 3);
        assert_eq!(reps(None), 3);
        assert_eq!(reps(Some("5")), 5);
        assert_eq!(reps(Some(" 1\n")), 1);
        for bad in ["0", "-2", "1.5", "", "many"] {
            assert_eq!(reps(Some(bad)), 3, "LIBRA_REPS={bad:?}");
        }
        let scale = |raw| knob(raw, |x: &f64| x.is_finite() && *x > 0.0, 1.0);
        assert_eq!(scale(Some("0.25")), 0.25);
        for bad in ["0", "-1", "NaN", "inf", "-inf", "x"] {
            assert_eq!(scale(Some(bad)), 1.0, "LIBRA_SCALE={bad:?}");
        }
    }

    #[test]
    fn platform_kinds_build() {
        for k in PlatformKind::MAIN_SIX {
            let p = k.build();
            assert!(!p.name().is_empty());
        }
        assert_eq!(PlatformKind::Libra.name(), "Libra");
    }

    #[test]
    fn par_map_preserves_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let tripled: Vec<u64> = jobs.iter().map(|j| j * 3).collect();
        assert_eq!(par_map(jobs.clone(), |j| j * 3), tripled);
        for workers in [1, 3, 8] {
            assert_eq!(par_map_on(workers, jobs.clone(), |j| j * 3), tripled, "{workers} workers");
        }
        assert!(par_map(Vec::<u64>::new(), |j| j).is_empty());
        assert!(threads() >= 1);
    }

    #[test]
    fn sweep_groups_runs_variant_major_with_repetitions_in_order() {
        let grouped = sweep(&['a', 'b', 'c'], 4, |&v, rep| format!("{v}{rep}"));
        assert_eq!(
            grouped,
            [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"], ["c0", "c1", "c2", "c3"]]
        );
        assert_eq!(mean_by(&[1.0, 2.0, 6.0], |&x| x), 3.0);
        assert!(sweep(&[(); 0], 3, |_, rep| rep).is_empty());
    }

    #[test]
    fn mean_by_of_no_runs_is_nan() {
        assert!(mean_by(&[] as &[f64], |&x| x).is_nan());
        assert!((mean_by(&[2.0, 4.0], |&x| x) - 3.0).abs() < 1e-12);
    }
}
