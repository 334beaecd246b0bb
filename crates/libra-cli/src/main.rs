//! `libra` — the command-line interface to the Libra reproduction.
//!
//! ```text
//! libra trace  --kind single|multi:<rpm>|poisson:<n>:<rpm> [--seed S] [--out FILE]
//! libra run    --platform default|freyr|libra|ns|np|nsp
//!              [--cluster single|multi|jetstream:<n>] [--shards K]
//!              [--trace FILE | --kind ...] [--seed S] [--out FILE]
//!              [--trace-out FILE.html]
//! libra compare [--cluster single|multi|jetstream:<n>] [--seed S] [--reps R]
//! ```

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

mod csvio;
mod opts;

use libra_bench::PlatformKind;
use libra_core::{PolicyKind, WithKeepAlive};
use libra_sim::engine::{SimConfig, Simulation};
use libra_sim::metrics::RunResult;
use libra_sim::platform::Platform;
use libra_sim::trace::Trace;
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};
use opts::{ClusterSpec, Opts, TraceKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", opts::USAGE);
            std::process::exit(2);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "trace" => cmd_trace(&opts),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", opts::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn make_trace(opts: &Opts) -> Result<Trace, String> {
    if let Some(path) = &opts.trace_file {
        let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        return csvio::read_trace(f).map_err(|e| format!("parse {path}: {e}"));
    }
    let gen = TraceGen::standard(&ALL_APPS, opts.seed);
    Ok(match opts.kind {
        TraceKind::Single => gen.single_set(),
        TraceKind::Multi(rpm) => {
            let sets = gen.multi_sets();
            sets.into_iter().find(|(r, _)| *r == rpm).map(|(_, t)| t).ok_or(format!(
                "no multi set at {rpm} RPM (valid: 10,20,30,40,50,60,120,180,240,300)"
            ))?
        }
        TraceKind::Poisson { n, rpm } => gen.poisson(n, rpm),
    })
}

/// The CLI's platform names, in [`PlatformKind::MAIN_SIX`] order.
const PLATFORMS: [&str; 6] = ["default", "freyr", "libra", "ns", "np", "nsp"];

fn build_platform(name: &str, keepalive: PolicyKind) -> Result<Box<dyn Platform>, String> {
    let (_, kind) = PLATFORMS
        .iter()
        .zip(PlatformKind::MAIN_SIX)
        .find(|(n, _)| **n == name)
        .ok_or(format!("unknown platform `{name}`"))?;
    // The default fixed-60 policy is observationally identical to the bare
    // engine, so wrapping unconditionally is safe (and pinned by tests).
    Ok(Box::new(WithKeepAlive::new(kind.build(), keepalive.build())))
}

fn cluster(opts: &Opts) -> Vec<libra_sim::resources::ResourceVec> {
    match opts.cluster {
        ClusterSpec::Single => testbeds::single_node(),
        ClusterSpec::Multi => testbeds::multi_node(),
        ClusterSpec::Jetstream(n) => testbeds::jetstream(n),
    }
}

fn execute(opts: &Opts, platform: &mut dyn Platform, trace: &Trace) -> Result<RunResult, String> {
    let config =
        SimConfig { shards: opts.shards, trace: opts.trace_out.is_some(), ..SimConfig::default() };
    let sim = Simulation::new(sebs_suite(), cluster(opts), config);
    match sim.unplaceable(trace) {
        Some(why) => Err(why),
        None => Ok(sim.run(trace, platform)),
    }
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let trace = make_trace(opts)?;
    match &opts.out {
        Some(path) => {
            let f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            csvio::write_trace(&trace, f).map_err(|e| e.to_string())?;
            eprintln!("wrote {} invocations to {path}", trace.len());
        }
        None => {
            csvio::write_trace(&trace, std::io::stdout()).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let trace = make_trace(opts)?;
    let mut platform = build_platform(&opts.platform, opts.keepalive)?;
    let result = execute(opts, platform.as_mut(), &trace)?;
    summarize(&result);
    if let Some(path) = &opts.out {
        let f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        csvio::write_results(&result, f).map_err(|e| e.to_string())?;
        eprintln!("wrote per-invocation records to {path}");
    }
    if let Some(path) = &opts.trace_out {
        let trace = result.trace.as_ref().expect("--trace-out enables span tracing");
        std::fs::write(path, trace.to_html()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "wrote execution timeline ({} spans, {} loans) to {path}",
            trace.spans.len(),
            trace.loans.len()
        );
    }
    Ok(())
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    println!(
        "{:<10} {:>9} {:>9} {:>12} {:>9} {:>9} {:>8}",
        "platform", "p50 (s)", "p99 (s)", "completion", "cpu util", "worst", "accel"
    );
    for name in PLATFORMS {
        let mut p50 = 0.0;
        let mut p99 = 0.0;
        let mut compl = 0.0;
        let mut util = 0.0;
        let mut worst: f64 = 0.0;
        let mut accel = 0usize;
        for rep in 0..opts.reps {
            let rep_opts = Opts { seed: opts.seed + rep, ..opts.clone() };
            let trace = make_trace(&rep_opts)?;
            let mut platform = build_platform(name, opts.keepalive)?;
            let r = execute(&rep_opts, platform.as_mut(), &trace)?;
            let ps = r.latency_percentiles(&[50.0, 99.0]);
            p50 += ps[0];
            p99 += ps[1];
            compl += r.completion_time.as_secs_f64();
            util += r.mean_cpu_util();
            worst = worst.min(r.worst_degradation());
            accel += r.records.iter().filter(|x| x.flags.accelerated).count();
        }
        let n = opts.reps as f64;
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>11.1}s {:>8.1}% {:>9.2} {:>8}",
            name,
            p50 / n,
            p99 / n,
            compl / n,
            100.0 * util / n,
            worst,
            accel / opts.reps as usize,
        );
    }
    Ok(())
}

fn summarize(r: &RunResult) {
    println!("platform    : {}", r.platform);
    println!("invocations : {}", r.records.len());
    println!("completion  : {:.1} s", r.completion_time.as_secs_f64());
    let ps = r.latency_percentiles(&[50.0, 99.0]);
    println!("p50 / p99   : {:.1} / {:.1} s", ps[0], ps[1]);
    println!("cpu util    : {:.1} %", 100.0 * r.mean_cpu_util());
    println!("worst spdup : {:+.2}", r.worst_degradation());
    let h = r.records.iter().filter(|x| x.flags.harvested).count();
    let a = r.records.iter().filter(|x| x.flags.accelerated).count();
    let s = r.records.iter().filter(|x| x.flags.safeguarded).count();
    println!("harvested/accelerated/safeguarded: {h}/{a}/{s}");
    println!("warm/cold/prewarm: {}/{}/{}", r.warm_hits, r.cold_starts, r.prewarms);
    if !r.summary.span_stats.is_empty() {
        println!("stage spans (count, p50/p95/p99 ms):");
        for st in &r.summary.span_stats {
            println!(
                "  {:<14} {:>8}  {:.1} / {:.1} / {:.1}",
                st.kind.label(),
                st.count,
                st.p50_us / 1e3,
                st.p95_us / 1e3,
                st.p99_us / 1e3,
            );
        }
    }
}
