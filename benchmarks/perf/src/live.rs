//! `live_closed`: the threaded `LiveCluster` driven directly, no HTTP.
//!
//! A closed loop: one generator thread keeps [`OUTSTANDING`] invocations
//! resident, waiting on the oldest receiver and submitting a replacement the
//! moment it completes — callers that each wait for their reply. Real
//! concurrency goes through `submit` → shard admission → the control plane
//! under each node's lock, with harvest loans actually flowing, so
//! `libra-live` does most of the work and `libra-gateway` none.

use crate::drills;
use crate::json::Json;
use crate::outcome::{repeat_setup, span, EndToEnd, Outcome};
use crate::proc::{self, Usage};
use crate::stats::Sorted;
use libra_live::{mixed_workload, LiveCluster, LiveConfig, LiveRequest, LiveResult};
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimDuration;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const NODES: usize = 16;
const NODE_CORES: u64 = 16;
/// Invocations kept resident: four per node, ~13 of its 16 cores allocated.
const OUTSTANDING: usize = 64;
/// Each invocation's work at full demand, in milliseconds.
const WORK_MS: u64 = 5;
/// Completions before anything is measured: every function has run on every
/// node and the warm registries are populated.
const WARMUP_COMPLETIONS: u64 = 2_000;
/// `peak_rss_mb` is read when this many invocations have completed in the
/// window (or at its end, if fewer do). The cluster keeps a record per
/// completion, so memory at the end of a fixed *time* grows with throughput;
/// read at a fixed amount of *work*, a faster cluster is not charged for
/// having done more.
const RSS_MARK: u64 = 50_000;
/// Distinct requests generated per run; the loop cycles through them under
/// unique, running invocation ids.
pub const REQUEST_POOL: usize = 4_096;
/// Per-request spans kept for the trace file.
pub const SPANS_KEPT: usize = 2_000;
/// How long `shutdown` may wait for resident invocations.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// `mixed_workload`'s donors and acceptors, arriving now, each carrying
/// `work_ms` of work at its demand.
pub fn requests(seed: u64, work_ms: u64) -> Vec<LiveRequest> {
    mixed_workload(REQUEST_POOL, seed)
        .into_iter()
        .map(|mut r| {
            r.at_ms = 0;
            r.work_mcore_ms = r.demand_cpu_millis * work_ms;
            if let Some(pred) = &mut r.pred {
                pred.duration = SimDuration::from_millis(work_ms);
            }
            r
        })
        .collect()
}

/// Cluster settings shared with the gateway workload: real time (scale 1),
/// 1 ms settling quantum, harvesting on.
pub fn config(nodes: usize) -> LiveConfig {
    LiveConfig {
        nodes,
        capacity: ResourceVec::from_cores_mb(NODE_CORES, NODE_CORES * 1024),
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 1.0,
        ..LiveConfig::default()
    }
}

/// When a phase of the closed loop ends.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    Completions(u64),
    Elapsed(Duration),
}

/// One phase: how long it runs and whether per-request spans are recorded.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub until: Until,
    pub traced: bool,
}

impl Phase {
    pub fn warmup(completions: u64) -> Phase {
        Phase { until: Until::Completions(completions), traced: false }
    }

    pub fn measure(window: Duration, traced: bool) -> Phase {
        Phase { until: Until::Elapsed(window), traced }
    }

    pub fn done(&self, completions: u64, started: Instant) -> bool {
        match self.until {
            Until::Completions(n) => completions >= n,
            Until::Elapsed(d) => started.elapsed() >= d,
        }
    }
}

/// What one phase of the live loop saw.
#[derive(Debug, Default)]
struct PhaseResult {
    window_s: f64,
    completions: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    sched_wait_ms: f64,
    accelerated: u64,
    harvested: u64,
    usage: Usage,
    /// `VmHWM` at the [`RSS_MARK`]th completion.
    rss_at_mark_mb: Option<f64>,
    /// Traced phases only: `submit` calls and time, time blocked on replies,
    /// the most threads seen alive, and the first [`SPANS_KEPT`] requests.
    submit_calls: u64,
    submit_busy: Duration,
    await_wait: Duration,
    threads_peak: u64,
    spans: Vec<Json>,
}

impl PhaseResult {
    fn inv_per_s(&self) -> f64 {
        self.completions as f64 / self.window_s
    }
}

/// Run `phases` back to back against `cluster`, keeping [`OUTSTANDING`]
/// invocations resident throughout, then wait for the stragglers.
/// `next_idx` keeps invocation ids unique across calls.
fn closed_loop(
    cluster: &LiveCluster,
    requests: &[LiveRequest],
    next_idx: &mut usize,
    phases: &[Phase],
) -> (Vec<PhaseResult>, u64) {
    let mut outstanding = VecDeque::with_capacity(OUTSTANDING);
    let mut results = Vec::new();
    for phase in phases {
        let mut r = PhaseResult::default();
        let started = Instant::now();
        let usage_before = proc::usage();
        while !phase.done(r.completions, started) {
            while outstanding.len() < OUTSTANDING {
                let idx = *next_idx;
                *next_idx += 1;
                let submit_start = phase.traced.then(Instant::now);
                let submitted = cluster.submit(idx, requests[idx % requests.len()]);
                let submit_span = submit_start.map(|start| (start, Instant::now()));
                if let Some((start, end)) = submit_span {
                    r.submit_calls += 1;
                    r.submit_busy += end - start;
                }
                match submitted {
                    Ok(rx) => outstanding.push_back((idx, rx, submit_span)),
                    Err(_) => r.failed += 1,
                }
            }
            let Some((idx, rx, submit_span)) = outstanding.pop_front() else {
                break;
            };
            let wait_start = phase.traced.then(Instant::now);
            let reply = rx.recv();
            match reply {
                Ok(rec) if rec.idx == idx => {
                    r.completions += 1;
                    r.latencies_ms.push(rec.latency_ms);
                    r.sched_wait_ms += rec.sched_ms;
                    r.accelerated += rec.accelerated as u64;
                    r.harvested += rec.harvested as u64;
                    if r.completions == RSS_MARK {
                        r.rss_at_mark_mb = proc::peak_rss_mb().ok();
                    }
                }
                _ => r.failed += 1,
            }
            if let Some(wait_start) = wait_start {
                let wait_end = Instant::now();
                r.await_wait += wait_end - wait_start;
                if r.completions % 1_024 == 1 {
                    r.threads_peak = r.threads_peak.max(proc::status().map_or(0, |s| s.threads));
                }
                // Requests submitted in an earlier, untraced phase carry
                // no submit span and are left out.
                let kept = submit_span.filter(|_| r.spans.len() < 3 * SPANS_KEPT);
                if let Some((submit_start, submit_end)) = kept {
                    let us = |t: Instant| (t - started).as_secs_f64() * 1e6;
                    let id = 3 * idx as u64 + 1;
                    let (from, to) = (us(submit_start), us(wait_end));
                    r.spans.push(span(id, Some(0), "request", from, to));
                    r.spans.push(span(
                        id + 1,
                        Some(id),
                        "LiveCluster::submit",
                        from,
                        us(submit_end),
                    ));
                    r.spans.push(span(id + 2, Some(id), "await reply", us(wait_start), to));
                }
            }
        }
        r.window_s = started.elapsed().as_secs_f64();
        r.usage = proc::usage().since(&usage_before);
        results.push(r);
    }
    let mut stragglers_failed = 0;
    for (idx, rx, ..) in outstanding {
        if !matches!(rx.recv(), Ok(rec) if rec.idx == idx) {
            stragglers_failed += 1;
        }
    }
    (results, stragglers_failed)
}

/// A started cluster that has completed its warm-up.
struct Warm {
    cluster: LiveCluster,
    requests: Vec<LiveRequest>,
    next_idx: usize,
    start_s: f64,
    failed: u64,
}

/// Generate requests, start the cluster, warm it up. Returns how long all
/// of that took.
fn set_up(seed: u64) -> (Warm, f64) {
    let started = Instant::now();
    let requests = requests(seed, WORK_MS);
    let start_start = Instant::now();
    let cluster = LiveCluster::start(config(NODES), 8);
    let start_s = start_start.elapsed().as_secs_f64();
    let mut next_idx = 0;
    let (warmup, stragglers_failed) =
        closed_loop(&cluster, &requests, &mut next_idx, &[Phase::warmup(WARMUP_COMPLETIONS)]);
    let warm =
        Warm { cluster, requests, next_idx, start_s, failed: warmup[0].failed + stragglers_failed };
    (warm, started.elapsed().as_secs_f64())
}

/// Drain the cluster. Returns its result, how long `shutdown` took, and
/// which of the post-drain checks failed.
fn shut_down(cluster: &LiveCluster) -> (LiveResult, f64, Vec<String>) {
    let started = Instant::now();
    let result = cluster.shutdown(DRAIN_GRACE);
    let shutdown_s = started.elapsed().as_secs_f64();
    let errors = check_drained(&result, cluster.conservation_report());
    (result, shutdown_s, errors)
}

/// What every live run must leave behind: a conserved, empty ledger, no node
/// ever overcommitted, nothing aborted. Returns the checks that failed.
pub fn check_drained(result: &LiveResult, conservation: Result<(), String>) -> Vec<String> {
    let mut errors = Vec::new();
    if let Err(e) = conservation {
        errors.push(format!("conservation_report after drain: {e}"));
    }
    let capacity = NODE_CORES * 1_000;
    if result.peak_committed_cpu > capacity {
        errors.push(format!(
            "peak_committed_cpu {} exceeds node capacity {capacity}",
            result.peak_committed_cpu
        ));
    }
    if result.aborted != 0 {
        errors.push(format!("{} invocations aborted", result.aborted));
    }
    errors
}

/// `--trace 0`.
pub fn run_end_to_end(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut drain_errors = Vec::new();
    let (mut warm, setup_s) = repeat_setup(
        || {
            let (warm, setup_s) = set_up(seed);
            out.attempted += warm.next_idx as u64;
            out.failed += warm.failed;
            (warm, setup_s)
        },
        |warm| drain_errors.extend(shut_down(&warm.cluster).2),
    );
    let before = warm.next_idx;
    let (mut phases, stragglers_failed) = closed_loop(
        &warm.cluster,
        &warm.requests,
        &mut warm.next_idx,
        &[Phase::measure(seconds, false)],
    );
    let mut window = phases.remove(0);
    let peak_rss_mb = window.rss_at_mark_mb.map_or_else(proc::peak_rss_mb, Ok);
    drain_errors.extend(shut_down(&warm.cluster).2);
    out.errors.append(&mut drain_errors);
    out.attempted += (warm.next_idx - before) as u64;
    out.failed += window.failed + stragglers_failed;

    let latencies = Sorted::new(std::mem::take(&mut window.latencies_ms));
    match (latencies.percentile(50.0), latencies.percentile(95.0), peak_rss_mb) {
        (Ok(lat_p50_ms), Ok(lat_p95_ms), Ok(peak_rss_mb)) => {
            EndToEnd { setup_s, inv_per_s: window.inv_per_s(), lat_p50_ms, lat_p95_ms, peak_rss_mb }
                .record(&mut out)
        }
        (p50, p95, rss) => {
            out.errors.extend([p50.err(), p95.err(), rss.err()].into_iter().flatten())
        }
    }
    eprintln!(
        "[live_closed] {} completions in {:.2}s, latency over {} samples{}",
        window.completions,
        window.window_s,
        latencies.len(),
        latencies.highest_tail().map_or(String::new(), |(p, v)| format!(", p{p} {v:.3} ms")),
    );
    out
}

/// `--trace 1`: half the window plain, half with per-request spans.
pub fn run_traced(seed: u64, seconds: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (mut warm, _) = set_up(seed);
    out.failed += warm.failed;
    let (mut phases, stragglers_failed) = closed_loop(
        &warm.cluster,
        &warm.requests,
        &mut warm.next_idx,
        &[Phase::measure(seconds / 2, false), Phase::measure(seconds / 2, true)],
    );
    let (result, shutdown_s, mut drain_errors) = shut_down(&warm.cluster);
    out.errors.append(&mut drain_errors);
    let mut traced = phases.remove(1);
    let plain = phases.remove(0);
    out.attempted += warm.next_idx as u64;
    out.failed += plain.failed + traced.failed + stragglers_failed;

    let completions = traced.completions.max(1) as f64;
    out.set("live.start_s", warm.start_s);
    out.set("live.submit.calls", traced.submit_calls as f64);
    out.set("live.submit.busy_s", traced.submit_busy.as_secs_f64());
    out.set("live.await.wait_s", traced.await_wait.as_secs_f64());
    out.set("live.sched_wait_ms_sum", traced.sched_wait_ms);
    out.set("live.shutdown_s", shutdown_s);
    out.set("live.cpu_s", traced.usage.cpu_s);
    out.set("live.cpu_ms_per_inv", traced.usage.cpu_s * 1e3 / completions);
    out.set("live.ctx_switches_per_inv", traced.usage.ctx_switches as f64 / completions);
    out.set("live.threads_peak", traced.threads_peak as f64);
    out.set("live.loans_expired", result.loans_expired as f64);
    out.set("live.safeguard_releases", result.safeguard_releases as f64);
    out.set("live.accelerated_frac", traced.accelerated as f64 / completions);
    out.set("live.harvested_frac", traced.harvested as f64 / completions);
    let starts = (result.warm_hits + result.cold_starts).max(1) as f64;
    out.set("live.warm_hit_frac", result.warm_hits as f64 / starts);
    out.set(
        "live.peak_committed_cpu_frac",
        result.peak_committed_cpu as f64 / (NODE_CORES * 1_000) as f64,
    );
    match Sorted::new(std::mem::take(&mut traced.latencies_ms)).percentile(99.0) {
        Ok(p99) => out.set("live.lat_p99_ms", p99),
        Err(e) => out.errors.push(e),
    }
    out.set("sharding.schedule_on_us", drills::sharding_schedule_on_us());
    out.set("trace.overhead_frac", plain.inv_per_s() / traced.inv_per_s() - 1.0);

    let mut spans = vec![span(0, None, "closed loop (traced half)", 0.0, traced.window_s * 1e6)];
    spans.append(&mut traced.spans);
    out.trace = Some(Json::obj([
        ("workload", Json::str("live_closed")),
        ("seed", Json::Num(seed as f64)),
        ("spans", Json::Arr(spans)),
    ]));
    eprintln!(
        "[live_closed] plain {:.0} inv/s, traced {:.0} inv/s over {} completions",
        plain.inv_per_s(),
        traced.inv_per_s(),
        traced.completions
    );
    out
}
