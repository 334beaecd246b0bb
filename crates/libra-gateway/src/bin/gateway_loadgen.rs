//! Deterministic gateway load generator: replays a seeded
//! `libra_live::workload::mixed_workload` over loopback HTTP and checks the
//! run for correctness — used by the CI smoke step.
//!
//! ```text
//! gateway_loadgen [--seed N] [--requests N] [--clients N] [--time-scale X]
//! ```
//!
//! Exit status is non-zero when any request fails with a status that can
//! only come from a gateway bug (500, protocol errors), when not every
//! admitted invocation completes, or when the final `/metrics` scrape is
//! missing expected counters. Quota rejections (429/503) are *not* bugs —
//! the generous smoke quotas simply never trigger them, and the smoke
//! asserts that too.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use libra_gateway::client::{GatewayClient, InvokeOutcome};
use libra_gateway::server::{Gateway, GatewayConfig};
use libra_gateway::tenant::TenantQuota;
use libra_live::{mixed_workload, LiveConfig};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    seed: u64,
    requests: usize,
    clients: usize,
    time_scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 42, requests: 500, clients: 48, time_scale: 16.0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = take("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--requests" => {
                args.requests =
                    take("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?
            }
            "--clients" => {
                args.clients = take("--clients")?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--time-scale" => {
                args.time_scale =
                    take("--time-scale")?.parse().map_err(|e| format!("--time-scale: {e}"))?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("gateway_loadgen: {why}");
            std::process::exit(2);
        }
    };
    let workload = mixed_workload(args.requests, args.seed);
    let n_funcs = workload.iter().map(|r| r.func as usize + 1).max().unwrap_or(1);

    let live = LiveConfig {
        time_scale: args.time_scale,
        quantum: Duration::from_millis(1),
        ..LiveConfig::default()
    };
    let config = GatewayConfig {
        workers: args.requests.clamp(8, 512),
        admission_capacity: args.requests.max(8),
        max_funcs: n_funcs,
        tenants: vec![TenantQuota::generous("smoke")],
        live,
        drain_grace: Duration::from_secs(10),
        ..GatewayConfig::default()
    };
    let gw = match Gateway::start(config) {
        Ok(gw) => gw,
        Err(e) => {
            eprintln!("gateway_loadgen: bind failed: {e}");
            std::process::exit(2);
        }
    };
    let addr = gw.local_addr();
    println!("gateway_loadgen: {} requests, seed {}, gateway on {addr}", args.requests, args.seed);

    // Client pool: each worker owns one keep-alive connection and pulls the
    // next request off a shared cursor. Arrival *pacing* is enforced by the
    // cluster itself (requests carry `at_ms`), so clients just keep the
    // pipe full.
    let next = Arc::new(AtomicUsize::new(0));
    let completed = Arc::new(AtomicUsize::new(0));
    let bugs = Arc::new(AtomicU64::new(0));
    let throttled = Arc::new(AtomicU64::new(0));
    let workload = Arc::new(workload);
    let mut handles = Vec::new();
    for _ in 0..args.clients.max(1) {
        let next = Arc::clone(&next);
        let completed = Arc::clone(&completed);
        let bugs = Arc::clone(&bugs);
        let throttled = Arc::clone(&throttled);
        let workload = Arc::clone(&workload);
        handles.push(std::thread::spawn(move || {
            let mut client = match GatewayClient::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connect failed: {e}");
                    bugs.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            };
            loop {
                let idx = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = workload.get(idx) else { return };
                match client.invoke("smoke", req.func, idx, req) {
                    Ok(InvokeOutcome::Done(rec)) => {
                        if rec.idx != idx as u64 {
                            eprintln!("inv {idx}: record echoed idx {}", rec.idx);
                            bugs.fetch_add(1, Ordering::Relaxed);
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(InvokeOutcome::Throttled { .. } | InvokeOutcome::Overloaded { .. }) => {
                        throttled.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(InvokeOutcome::Failed { status, why }) => {
                        eprintln!("inv {idx}: HTTP {status}: {}", why.trim());
                        bugs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("inv {idx}: {e}");
                        bugs.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        if h.join().is_err() {
            bugs.fetch_add(1, Ordering::Relaxed);
        }
    }

    // Scrape /metrics before shutdown and check the expected counter set.
    let mut failures = bugs.load(Ordering::Relaxed);
    match GatewayClient::connect(addr)
        .and_then(|mut c| c.metrics().map_err(|e| std::io::Error::other(e.to_string())))
    {
        Ok(page) => {
            for needle in [
                "libra_gateway_requests_total{tenant=\"smoke\",outcome=\"admitted\"}",
                "libra_gateway_requests_total{tenant=\"smoke\",outcome=\"completed\"}",
                "libra_gateway_requests_total{tenant=\"smoke\",outcome=\"rejected_rate\"}",
                "libra_gateway_stage_micros_total{stage=\"frontend\"}",
                "libra_gateway_stage_micros_total{stage=\"scheduler\"}",
                "libra_gateway_stage_micros_total{stage=\"exec\"}",
                "libra_gateway_admission_queue_depth",
                "libra_live_loans_expired_total",
                "libra_live_completed_total",
            ] {
                if !page.contains(needle) {
                    eprintln!("metrics page missing {needle}");
                    failures += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("metrics scrape failed: {e}");
            failures += 1;
        }
    }

    let report = gw.shutdown();
    let done = completed.load(Ordering::Relaxed);
    let shed = throttled.load(Ordering::Relaxed);
    println!(
        "gateway_loadgen: {done}/{} completed, {shed} throttled, {} loans expired, \
         {} safeguard releases, makespan {:.0} ms",
        args.requests,
        report.live.loans_expired,
        report.live.safeguard_releases,
        report.live.makespan_ms
    );
    if done != args.requests {
        eprintln!(
            "gateway_loadgen: {done}/{} completed (generous quotas must admit everything; \
             {shed} throttled)",
            args.requests
        );
        failures += 1;
    }
    if failures > 0 {
        eprintln!("gateway_loadgen: FAILED with {failures} failure(s)");
        std::process::exit(1);
    }
    println!("gateway_loadgen: OK");
}
