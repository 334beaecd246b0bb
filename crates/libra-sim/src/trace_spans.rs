//! Execution-timeline tracing: per-attempt stage spans and loan lifetimes.
//!
//! An opt-in recording layer underneath the latency breakdown: where
//! [`StageBreakdown`](crate::invocation::StageBreakdown) keeps per-stage
//! *sums*, the tracer keeps the individual `[start, end)` segments — one
//! [`Span`] per stage per attempt, so a crash-requeue or an OOM restart shows
//! up as distinct exec/container-init segments instead of being smeared into
//! one bar. Harvest loans get their own [`LoanSpan`]s (created → revoked or
//! returned, with source, borrower and node), which is what lets a timeline
//! view show resources moving between invocations.
//!
//! All three substrates (the simulator, `libra-live`, and the gateway) emit
//! this one schema; timestamps are microseconds on the substrate's own
//! clock (simulated time, or workload-scaled wall time).
//!
//! **Zero cost when disabled.** A disabled [`SpanSink`] never allocates:
//! its vectors stay at `Vec::new()` (no heap block) and every `record*`
//! call is an inlined early return on one boolean. The repo benchmark's
//! sim workloads (`benchmarks/perf`) run the hot path with tracing compiled
//! in but off.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::metrics::percentiles;
use crate::platform::LoanEnd;
use crate::time::SimTime;

/// Which pipeline stage a [`Span`] covers (the Fig 15 vocabulary, plus the
/// crash-backoff gap the retry path introduces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize)]
pub enum SpanKind {
    /// Front-end admission.
    Frontend,
    /// Profiler inference.
    Profiler,
    /// Scheduler queueing + decision.
    Scheduler,
    /// Harvest-pool bookkeeping at start.
    Pool,
    /// Container initialization (cold start, including OOM re-inits).
    ContainerInit,
    /// User code executing.
    Exec,
    /// Crash-backoff wait before a requeue.
    Backoff,
}

impl SpanKind {
    /// Every kind, in pipeline order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Frontend,
        SpanKind::Profiler,
        SpanKind::Scheduler,
        SpanKind::Pool,
        SpanKind::ContainerInit,
        SpanKind::Exec,
        SpanKind::Backoff,
    ];

    /// Stable lower-case label (used in HTML `data-kind` attributes and
    /// stats rows).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Frontend => "frontend",
            SpanKind::Profiler => "profiler",
            SpanKind::Scheduler => "scheduler",
            SpanKind::Pool => "pool",
            SpanKind::ContainerInit => "container_init",
            SpanKind::Exec => "exec",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One contiguous stage segment of one invocation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Span {
    /// Invocation the span belongs to.
    pub inv: u64,
    /// Attempt number (0 = first; incremented per crash requeue).
    pub attempt: u32,
    /// Stage covered.
    pub kind: SpanKind,
    /// Segment start, µs on the substrate clock.
    pub start_us: u64,
    /// Segment end, µs on the substrate clock.
    pub end_us: u64,
}

impl Span {
    /// Segment length in µs.
    pub fn len_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// How a harvest loan's lifetime ended: one of the revocation paths every
/// substrate shares ([`LoanEnd`]), or a voluntary return.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum LoanOutcome {
    /// The loan was revoked, for the wrapped reason.
    Revoked(LoanEnd),
    /// The borrower handed the whole loan back (usage-guided trimming).
    Returned,
}

impl LoanOutcome {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            LoanOutcome::Revoked(LoanEnd::SourceCompleted) => "source_completed",
            LoanOutcome::Revoked(LoanEnd::BorrowerCompleted) => "borrower_completed",
            LoanOutcome::Revoked(LoanEnd::Safeguard) => "safeguard",
            LoanOutcome::Revoked(LoanEnd::SourceOom) => "source_oom",
            LoanOutcome::Revoked(LoanEnd::Crashed) => "crashed",
            LoanOutcome::Returned => "returned",
        }
    }
}

/// The lifetime of one harvest loan: created → revoked/returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct LoanSpan {
    /// Invocation the volume was harvested from.
    pub source: u64,
    /// Invocation the volume accelerated.
    pub borrower: u64,
    /// Node the loan lived on.
    pub node: u32,
    /// CPU volume on loan (millicores).
    pub cpu_millis: u64,
    /// Memory volume on loan (MB).
    pub mem_mb: u64,
    /// Loan creation, µs on the substrate clock.
    pub start_us: u64,
    /// Loan end, µs on the substrate clock.
    pub end_us: u64,
    /// Why it ended.
    pub outcome: LoanOutcome,
}

/// Per-kind latency statistics over a trace's spans.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct SpanKindStats {
    /// Stage kind.
    pub kind: SpanKind,
    /// Number of segments recorded.
    pub count: u64,
    /// Sum of segment lengths, µs.
    pub total_us: u64,
    /// Median segment length, µs.
    pub p50_us: f64,
    /// 95th-percentile segment length, µs.
    pub p95_us: f64,
    /// 99th-percentile segment length, µs.
    pub p99_us: f64,
}

/// The recording side: an append sink the engine (or a live driver) feeds.
///
/// Disabled sinks are inert: `Vec::new()` holds no heap block and every
/// recording call returns after one branch, so a run with tracing off does
/// not allocate or store anything on the hot path.
#[derive(Clone, Debug, Default)]
pub struct SpanSink {
    enabled: bool,
    spans: Vec<Span>,
    loans: Vec<LoanSpan>,
}

impl SpanSink {
    /// A sink that records (`enabled = true`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        SpanSink { enabled, spans: Vec::new(), loans: Vec::new() }
    }

    /// Whether this sink is recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one stage segment. Zero-length segments are dropped so the
    /// span set is invariant to stages a substrate models with zero cost
    /// (e.g. the default profiler/pool overheads).
    #[inline]
    pub fn record(&mut self, inv: u64, attempt: u32, kind: SpanKind, start: SimTime, end: SimTime) {
        if !self.enabled || end <= start {
            return;
        }
        self.spans.push(Span {
            inv,
            attempt,
            kind,
            start_us: start.as_micros(),
            end_us: end.as_micros(),
        });
    }

    /// Record one completed loan lifetime.
    #[inline]
    pub fn record_loan(&mut self, loan: LoanSpan) {
        if !self.enabled {
            return;
        }
        self.loans.push(loan);
    }

    /// Finish recording: sort into canonical order and produce the trace.
    /// Returns `None` when the sink was disabled.
    pub fn into_trace(mut self) -> Option<ExecTrace> {
        if !self.enabled {
            return None;
        }
        // Canonical order: by invocation, then time, then pipeline order —
        // stable across substrates whatever order events fired in.
        self.spans.sort_by_key(|s| (s.inv, s.start_us, s.kind, s.end_us, s.attempt));
        self.loans.sort_by_key(|l| (l.start_us, l.end_us, l.source, l.borrower));
        Some(ExecTrace { spans: self.spans, loans: self.loans })
    }
}

/// A finished execution timeline: every stage segment of every invocation,
/// plus every loan lifetime, in canonical order.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct ExecTrace {
    /// Stage segments, sorted by `(inv, start_us, kind)`.
    pub spans: Vec<Span>,
    /// Loan lifetimes, sorted by `(start_us, end_us, source, borrower)`.
    pub loans: Vec<LoanSpan>,
}

impl ExecTrace {
    /// Stage segments of one invocation, in time order.
    pub fn spans_for(&self, inv: u64) -> &[Span] {
        let lo = self.spans.partition_point(|s| s.inv < inv);
        let hi = self.spans.partition_point(|s| s.inv <= inv);
        self.spans.get(lo..hi).unwrap_or(&[])
    }

    /// The invocation's critical path: the ordered sequence of stage kinds
    /// it passed through. Stages of one invocation never overlap (the
    /// engine's stage cursor hands each microsecond to exactly one stage),
    /// so the time-ordered kind sequence *is* the critical path.
    pub fn critical_path(&self, inv: u64) -> Vec<SpanKind> {
        self.spans_for(inv).iter().map(|s| s.kind).collect()
    }

    /// The critical path projected onto a stage alphabet: segments whose
    /// kind is not in `keep` are dropped. Used for cross-substrate
    /// comparison — the live runtime models no frontend/pool/cold-start
    /// delay, so substrates are compared on the stages they share.
    pub fn critical_path_projected(&self, inv: u64, keep: &[SpanKind]) -> Vec<SpanKind> {
        self.spans_for(inv).iter().map(|s| s.kind).filter(|k| keep.contains(k)).collect()
    }

    /// Distinct invocation ids present, ascending.
    pub fn invocations(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.inv).collect();
        ids.dedup();
        ids
    }

    /// Per-kind count/total/p50/p95/p99 over segment lengths. Kinds with no
    /// segments are omitted.
    pub fn kind_stats(&self) -> Vec<SpanKindStats> {
        let mut out = Vec::new();
        for kind in SpanKind::ALL {
            let lens: Vec<f64> =
                self.spans.iter().filter(|s| s.kind == kind).map(|s| s.len_us() as f64).collect();
            if lens.is_empty() {
                continue;
            }
            let ps = percentiles(&lens, &[50.0, 95.0, 99.0]);
            let (p50, p95, p99) = match ps.as_slice() {
                [a, b, c] => (*a, *b, *c),
                _ => (0.0, 0.0, 0.0),
            };
            out.push(SpanKindStats {
                kind,
                count: lens.len() as u64,
                total_us: self.spans.iter().filter(|s| s.kind == kind).map(|s| s.len_us()).sum(),
                p50_us: p50,
                p95_us: p95,
                p99_us: p99,
            });
        }
        out
    }

    /// Render the whole timeline as one self-contained HTML file: no
    /// external scripts or stylesheets, one `<div>` row per invocation,
    /// each segment an absolutely-positioned bar carrying
    /// `data-kind`/`data-inv`/`data-attempt` attributes (greppable), and a
    /// loan-lifetime section underneath. Deterministic: identical traces
    /// render identical bytes.
    pub fn to_html(&self) -> String {
        use std::fmt::Write as _;
        let t_min = self.spans.iter().map(|s| s.start_us).min().unwrap_or(0);
        let t_max = self
            .spans
            .iter()
            .map(|s| s.end_us)
            .chain(self.loans.iter().map(|l| l.end_us))
            .max()
            .unwrap_or(t_min + 1);
        let range = (t_max.saturating_sub(t_min)).max(1) as f64;
        let pct = |us: u64| 100.0 * (us.saturating_sub(t_min)) as f64 / range;

        let mut h = String::new();
        h.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
        h.push_str("<title>libra execution timeline</title>\n<style>\n");
        h.push_str("body{font:12px monospace;background:#111;color:#ddd;margin:16px}\n");
        h.push_str(".row{position:relative;height:18px;margin:2px 0;background:#1a1a1a}\n");
        h.push_str(
            ".row .lbl{position:absolute;left:0;z-index:2;color:#888;pointer-events:none}\n",
        );
        h.push_str(".span{position:absolute;top:2px;height:14px;min-width:1px;opacity:0.9}\n");
        h.push_str(".k-frontend{background:#7e57c2}.k-profiler{background:#26a69a}\n");
        h.push_str(".k-scheduler{background:#ffb300}.k-pool{background:#8d6e63}\n");
        h.push_str(".k-container_init{background:#42a5f5}.k-exec{background:#66bb6a}\n");
        h.push_str(".k-backoff{background:#ef5350}\n");
        h.push_str(".loan{position:absolute;top:5px;height:8px;background:#ec407a;opacity:0.8}\n");
        h.push_str("h1{font-size:14px}table{border-collapse:collapse;margin:12px 0}\n");
        h.push_str("td,th{border:1px solid #333;padding:2px 8px;text-align:right}\n");
        h.push_str("</style></head><body>\n<h1>libra execution timeline</h1>\n");
        let _ = writeln!(
            h,
            "<p>{} spans / {} loans over [{} µs, {} µs]</p>",
            self.spans.len(),
            self.loans.len(),
            t_min,
            t_max
        );

        h.push_str("<h1>per-stage latency (µs)</h1>\n<table><tr><th>stage</th><th>count</th><th>total</th><th>p50</th><th>p95</th><th>p99</th></tr>\n");
        for s in self.kind_stats() {
            let _ = writeln!(
                h,
                "<tr data-stat=\"{}\"><td>{}</td><td>{}</td><td>{}</td><td>{:.0}</td><td>{:.0}</td><td>{:.0}</td></tr>",
                s.kind.label(),
                s.kind.label(),
                s.count,
                s.total_us,
                s.p50_us,
                s.p95_us,
                s.p99_us
            );
        }
        h.push_str("</table>\n<h1>invocations</h1>\n");

        for inv in self.invocations() {
            let _ = writeln!(
                h,
                "<div class=\"row\" id=\"inv-{inv}\"><span class=\"lbl\">#{inv}</span>"
            );
            for s in self.spans_for(inv) {
                let _ = writeln!(
                    h,
                    "<div class=\"span k-{k}\" data-kind=\"{k}\" data-inv=\"{inv}\" data-attempt=\"{a}\" style=\"left:{l:.4}%;width:{w:.4}%\" title=\"{k} attempt {a}: {s0}..{s1} µs\"></div>",
                    k = s.kind.label(),
                    a = s.attempt,
                    l = pct(s.start_us),
                    w = (100.0 * s.len_us() as f64 / range).max(0.05),
                    s0 = s.start_us,
                    s1 = s.end_us,
                );
            }
            h.push_str("</div>\n");
        }

        if !self.loans.is_empty() {
            h.push_str("<h1>harvest loans</h1>\n");
            for l in &self.loans {
                let _ = writeln!(
                    h,
                    "<div class=\"row\"><span class=\"lbl\">#{src}&rarr;#{bor}</span><div class=\"loan\" data-loan-source=\"{src}\" data-loan-borrower=\"{bor}\" data-node=\"{node}\" data-outcome=\"{out}\" style=\"left:{lp:.4}%;width:{w:.4}%\" title=\"loan {src}&rarr;{bor} on node {node}: {cpu} mcores + {mem} MB, {s0}..{s1} µs, {out}\"></div></div>",
                    src = l.source,
                    bor = l.borrower,
                    node = l.node,
                    out = l.outcome.label(),
                    lp = pct(l.start_us),
                    w = (100.0 * l.end_us.saturating_sub(l.start_us) as f64 / range).max(0.05),
                    cpu = l.cpu_millis,
                    mem = l.mem_mb,
                    s0 = l.start_us,
                    s1 = l.end_us,
                );
            }
        }
        h.push_str("</body></html>\n");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn sink_with(segments: &[(u64, u32, SpanKind, u64, u64)]) -> SpanSink {
        let mut s = SpanSink::new(true);
        for &(inv, attempt, kind, a, b) in segments {
            s.record(inv, attempt, kind, SimTime(a), SimTime(b));
        }
        s
    }

    #[test]
    fn disabled_sink_records_nothing_and_yields_no_trace() {
        let mut s = SpanSink::new(false);
        s.record(0, 0, SpanKind::Exec, SimTime(0), SimTime(10));
        s.record_loan(LoanSpan {
            source: 0,
            borrower: 1,
            node: 0,
            cpu_millis: 100,
            mem_mb: 10,
            start_us: 0,
            end_us: 5,
            outcome: LoanOutcome::Returned,
        });
        assert!(!s.enabled());
        assert!(s.into_trace().is_none());
    }

    #[test]
    fn zero_length_segments_are_dropped() {
        let s = sink_with(&[(0, 0, SpanKind::Pool, 5, 5), (0, 0, SpanKind::Exec, 5, 9)]);
        let t = s.into_trace().expect("enabled");
        assert_eq!(t.critical_path(0), vec![SpanKind::Exec]);
    }

    #[test]
    fn spans_sort_into_canonical_order_and_project() {
        let s = sink_with(&[
            (1, 0, SpanKind::Exec, 30, 40),
            (0, 0, SpanKind::Exec, 10, 20),
            (0, 0, SpanKind::Frontend, 0, 1),
            (0, 0, SpanKind::Scheduler, 1, 4),
            (0, 0, SpanKind::ContainerInit, 4, 10),
            (0, 1, SpanKind::Exec, 25, 30),
        ]);
        let t = s.into_trace().expect("enabled");
        assert_eq!(
            t.critical_path(0),
            vec![
                SpanKind::Frontend,
                SpanKind::Scheduler,
                SpanKind::ContainerInit,
                SpanKind::Exec,
                SpanKind::Exec,
            ]
        );
        assert_eq!(
            t.critical_path_projected(0, &[SpanKind::Scheduler, SpanKind::Exec]),
            vec![SpanKind::Scheduler, SpanKind::Exec, SpanKind::Exec]
        );
        assert_eq!(t.invocations(), vec![0, 1]);
        assert_eq!(t.spans_for(1).len(), 1);
        assert!(t.spans_for(2).is_empty());
    }

    #[test]
    fn kind_stats_cover_counts_totals_and_percentiles() {
        let s = sink_with(&[
            (0, 0, SpanKind::Exec, 0, 10),
            (1, 0, SpanKind::Exec, 0, 30),
            (2, 0, SpanKind::Scheduler, 0, 4),
        ]);
        let t = s.into_trace().expect("enabled");
        let stats = t.kind_stats();
        assert_eq!(stats.len(), 2);
        let exec = stats.iter().find(|s| s.kind == SpanKind::Exec).expect("exec stats");
        assert_eq!(exec.count, 2);
        assert_eq!(exec.total_us, 40);
        assert_eq!(exec.p50_us, 20.0);
        let sched = stats.iter().find(|s| s.kind == SpanKind::Scheduler).expect("sched stats");
        assert_eq!(sched.count, 1);
        assert_eq!(sched.total_us, 4);
    }

    #[test]
    fn html_is_self_contained_and_greppable() {
        let mut s = sink_with(&[
            (0, 0, SpanKind::Frontend, 0, 1_000),
            (0, 0, SpanKind::Exec, 1_000, 500_000),
            (0, 1, SpanKind::Backoff, 500_000, 600_000),
        ]);
        s.record_loan(LoanSpan {
            source: 0,
            borrower: 3,
            node: 2,
            cpu_millis: 1500,
            mem_mb: 256,
            start_us: 2_000,
            end_us: 400_000,
            outcome: LoanOutcome::Revoked(LoanEnd::SourceCompleted),
        });
        let t = s.into_trace().expect("enabled");
        let html = t.to_html();
        for needle in [
            "<!DOCTYPE html>",
            "data-kind=\"exec\"",
            "data-kind=\"frontend\"",
            "data-kind=\"backoff\"",
            "data-attempt=\"1\"",
            "data-loan-source=\"0\"",
            "data-outcome=\"source_completed\"",
            "data-stat=\"exec\"",
        ] {
            assert!(html.contains(needle), "HTML must contain {needle}");
        }
        assert!(!html.contains("<script src"), "must not reference external scripts");
        assert_eq!(html, t.to_html(), "rendering must be deterministic");
    }
}
