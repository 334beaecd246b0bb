//! `libra-perf`: the repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! libra-perf --manifest BENCHMARK.json --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result
//! libra-perf --manifest BENCHMARK.json --out DIR [--seed N] [--seconds S]
//!     every workload, plain then traced, each in its own child process;
//!     prints every metric and writes DIR/RESULTS.json
//! libra-perf --manifest BENCHMARK.json compare A.json B.json
//!     B against A under each metric's bound; exits non-zero on a breach
//! ```
//!
//! `run.sh` builds this binary and supplies `--manifest` and `--out`.

mod compare;
mod drills;
mod gateway;
mod json;
mod live;
mod manifest;
mod outcome;
mod proc;
mod sim;
mod stats;
mod suite;
mod timed;

use json::Json;
use manifest::Manifest;
use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    manifest: Option<PathBuf>,
    out: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    /// `compare A B`.
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
        let number =
            |v: String| v.parse::<u64>().map_err(|_| format!("{arg}: {v:?} is not a whole number"));
        match arg.as_str() {
            "--manifest" => args.manifest = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    if let Some(spec) = sim::WORKLOADS.iter().find(|s| s.name == name) {
        return Ok(if traced {
            sim::run_traced(spec, seed, seconds)
        } else {
            sim::run_end_to_end(spec, seed, seconds)
        });
    }
    match (name, traced) {
        ("live_closed", false) => Ok(live::run_end_to_end(seed, seconds)),
        ("live_closed", true) => Ok(live::run_traced(seed, seconds)),
        ("gateway_closed", _) => {
            // Load is generated from this one process; more generator
            // threads than cores would measure the generator's own queueing.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            if gateway::CONNECTIONS > cores {
                return Err(format!(
                    "gateway_closed drives {} connections, one generator thread each, \
                     but this machine has {cores} core(s)",
                    gateway::CONNECTIONS
                ));
            }
            Ok(if traced {
                gateway::run_traced(seed, seconds)
            } else {
                gateway::run_end_to_end(seed, seconds)
            })
        }
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// Match what a run measured against what the manifest declares for its
/// mode, and render the result line. A per-layer metric the workload has no
/// such layer for reads 0; a metric the manifest does not declare, or an
/// end-to-end metric left unmeasured, is an error.
fn result_line(outcome: &mut Outcome, manifest: &Manifest, traced: bool) -> Json {
    let declared = manifest.metrics(traced);
    for (name, _) in &outcome.metrics {
        if !declared.iter().any(|d| &d.name == name) {
            outcome.errors.push(format!("metric {name:?} is not declared in BENCHMARK.json"));
        }
    }
    let mut metrics = Vec::new();
    for def in declared {
        let value = outcome.metrics.iter().find(|(n, _)| n == &def.name).map(|(_, v)| *v);
        let value = match value {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                outcome.errors.push(format!("metric {} is {v}", def.name));
                continue;
            }
            None if traced => 0.0,
            None => {
                outcome.errors.push(format!("end-to-end metric {} was not measured", def.name));
                continue;
            }
        };
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit.as_str()))]),
        ));
    }
    outcome.check(outcome.attempted >= 1, || "nothing was attempted".to_string());
    Json::obj([
        ("correct", Json::Bool(outcome.errors.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn single_run(args: &Args, manifest: &Manifest, workload: &str) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(suite::DEFAULT_SEED);
    let seconds = Duration::from_secs(args.seconds.unwrap_or(manifest.run_seconds));
    let traced = args.trace.unwrap_or(false);
    let mut outcome = run_workload(workload, seed, seconds, traced)?;
    let line = result_line(&mut outcome, manifest, traced);
    for e in &outcome.errors {
        eprintln!("[{workload}] CHECK FAILED: {e}");
    }
    if let (Some(trace), Some(dir)) = (&outcome.trace, &args.out) {
        write_file(&dir.join(format!("trace_{workload}.json")), &trace.pretty())?;
    }
    println!("{}", line.compact());
    Ok(if outcome.errors.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Write `text` to `path`, creating the directory it lives in.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let manifest_path = args.manifest.clone().unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let manifest = Manifest::load(&manifest_path)?;
    if let Some((a, b)) = &args.compare {
        return compare::run(&manifest, a, b);
    }
    match &args.workload {
        Some(workload) => single_run(&args, &manifest, workload),
        None => suite::run(&args, &manifest, &manifest_path),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("libra-perf: {e}");
        ExitCode::from(2)
    })
}
