//! The whole benchmark in one command: every workload, first plain for the
//! end-to-end metrics, then traced for the layer ledger, each run in a child
//! process of its own so that memory high-water and CPU time are per run.

use crate::json::Json;
use crate::manifest::Manifest;
use crate::{gateway, live, sim, write_file, Args};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

pub const DEFAULT_SEED: u64 = 42;

/// Run one workload in a child process and parse its result line.
fn child(
    manifest_path: &Path,
    out_dir: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--manifest")
        .arg(manifest_path)
        .arg("--out")
        .arg(out_dir)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    let result = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok((result, output.status.success() && correct))
}

/// Print one run's metrics by name, with units. In the layer ledger, a metric
/// of a layer the workload does not have reads 0 and is left out.
fn print_metrics(title: &str, result: &Json, skip_zeros: bool) {
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (attempted, failed) = (count("attempted"), count("failed"));
    println!(
        "  {title}: correct={} attempted={attempted} failed={failed} fail_frac={}",
        result.get("correct").and_then(Json::as_bool).unwrap_or(false),
        failed / attempted,
    );
    for (name, metric) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("?");
        if skip_zeros && value == 0.0 {
            continue;
        }
        println!("    {name:<34} {value:>16.6} {unit}");
    }
}

/// Trimmed stdout of a command, or "unknown".
fn tool_output(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a set of results must be read with: code, toolchain, machine, inputs.
fn fingerprint(manifest_path: &Path, seed: u64, seconds: u64) -> Json {
    let repo =
        manifest_path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let sims = sim::WORKLOADS.iter().map(|s| {
        (
            s.name,
            Json::obj([
                ("invocations", Json::Num(s.invocations as f64)),
                ("nodes", Json::Num(s.nodes as f64)),
                ("rpm", Json::Num(s.rpm)),
            ]),
        )
    });
    Json::obj([
        ("git_commit", Json::str(tool_output("git", &["rev-parse", "HEAD"], repo))),
        ("rustc", Json::str(tool_output("rustc", &["--version"], repo))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("kernel", Json::str(kernel)),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        (
            "sizes",
            Json::obj(sims.chain([
                (
                    "live_closed",
                    Json::obj([("request_pool", Json::Num(live::REQUEST_POOL as f64))]),
                ),
                (
                    "gateway_closed",
                    Json::obj([("connections", Json::Num(gateway::CONNECTIONS as f64))]),
                ),
            ])),
        ),
    ])
}

pub fn run(args: &Args, manifest: &Manifest, manifest_path: &Path) -> Result<ExitCode, String> {
    let out_dir = args.out.as_deref().ok_or("a full run needs --out DIR for RESULTS.json")?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(manifest.run_seconds);
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &manifest.workloads {
        println!("== {workload} (seed {seed}, {seconds} s per run) ==");
        let mut runs = Vec::new();
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let (result, ok) = child(manifest_path, out_dir, workload, seed, seconds, traced)?;
            print_metrics(key, &result, traced);
            all_correct &= ok;
            runs.push((key, result));
        }
        workloads.push((workload.as_str(), Json::obj(runs)));
    }
    let results = Json::obj([
        ("fingerprint", fingerprint(manifest_path, seed, seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir.join("RESULTS.json");
    write_file(&path, &results.pretty())?;
    println!("[wrote {}]", path.display());
    if !all_correct {
        eprintln!("libra-perf: at least one run failed its checks");
    }
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
