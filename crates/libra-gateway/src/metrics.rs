//! The `GET /metrics` page: Prometheus text exposition over the gateway's
//! counters, the per-tenant admission ledgers, and the live cluster's
//! control-plane statistics.
//!
//! The stage counters reuse the latency-breakdown vocabulary of the paper's
//! Fig. 15 (`frontend`, `scheduler`, `exec` — the stages a networked
//! frontend can actually observe; profiler/pool/container-init belong to
//! the simulator's model). Rendering iterates `BTreeMap`-ordered tenants,
//! so two scrapes of identical state produce identical bytes.

use crate::backpressure::AdmissionGate;
use crate::tenant::TenantRegistry;
use libra_live::cluster::LiveStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Gateway-level monotone counters (per-tenant counters live with the
/// tenants).
#[derive(Debug, Default)]
pub struct GatewayCounters {
    /// µs spent in the frontend stage (parse + admission control), summed
    /// over admitted requests. Wall µs: this is observability, not
    /// accounting.
    pub frontend_us: AtomicU64,
    /// Workload-µs spent queueing for a scheduler shard slice, summed over
    /// completed invocations.
    pub scheduler_us: AtomicU64,
    /// Workload-µs spent executing (admission → completion minus
    /// queueing), summed over completed invocations.
    pub exec_us: AtomicU64,
    /// Requests answered 400 (malformed HTTP or body).
    pub http_400: AtomicU64,
    /// Requests answered 404 (unknown tenant or route).
    pub http_404: AtomicU64,
    /// Requests answered 409 (the cluster refused their `idx`: already in
    /// flight).
    pub http_409: AtomicU64,
    /// Requests answered 413 (head or body over the size limit).
    pub http_413: AtomicU64,
    /// Requests answered 500 (cluster declared wedged mid-request).
    pub http_500: AtomicU64,
    /// Requests answered 503 while draining.
    pub rejected_draining: AtomicU64,
}

impl GatewayCounters {
    /// Add a completed invocation's stage split (workload µs).
    pub fn record_stages(&self, sched_us: u64, exec_us: u64) {
        self.scheduler_us.fetch_add(sched_us, Ordering::Relaxed);
        self.exec_us.fetch_add(exec_us, Ordering::Relaxed);
    }
}

fn counter(out: &mut String, name: &str, help: &str, val: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {val}");
}

fn gauge(out: &mut String, name: &str, help: &str, val: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {val}");
}

/// Render the whole metrics page.
pub fn render(
    counters: &GatewayCounters,
    tenants: &TenantRegistry,
    gate: &AdmissionGate,
    live: &LiveStats,
    draining: bool,
) -> String {
    let mut out = String::new();

    // Request outcomes, per tenant and per rejection reason.
    out.push_str(
        "# HELP libra_gateway_requests_total Invocation requests by tenant and outcome.\n",
    );
    out.push_str("# TYPE libra_gateway_requests_total counter\n");
    for (name, t) in tenants.iter() {
        let c = &t.counters;
        for (outcome, v) in [
            ("admitted", c.admitted.load(Ordering::Relaxed)),
            ("completed", c.completed.load(Ordering::Relaxed)),
            ("rejected_rate", c.rejected_rate.load(Ordering::Relaxed)),
            ("rejected_concurrency", c.rejected_concurrency.load(Ordering::Relaxed)),
            ("rejected_memory", c.rejected_memory.load(Ordering::Relaxed)),
            ("rejected_backpressure", c.rejected_backpressure.load(Ordering::Relaxed)),
        ] {
            let _ = writeln!(
                out,
                "libra_gateway_requests_total{{tenant=\"{name}\",outcome=\"{outcome}\"}} {v}"
            );
        }
    }

    // Quota occupancy gauges.
    out.push_str("# HELP libra_gateway_tenant_inflight In-flight invocations per tenant.\n");
    out.push_str("# TYPE libra_gateway_tenant_inflight gauge\n");
    for (name, t) in tenants.iter() {
        let (inflight, _) = t.occupancy();
        let _ = writeln!(out, "libra_gateway_tenant_inflight{{tenant=\"{name}\"}} {inflight}");
    }
    out.push_str("# HELP libra_gateway_tenant_inflight_mem_mb Committed memory per tenant (MB).\n");
    out.push_str("# TYPE libra_gateway_tenant_inflight_mem_mb gauge\n");
    for (name, t) in tenants.iter() {
        let (_, mem) = t.occupancy();
        let _ = writeln!(out, "libra_gateway_tenant_inflight_mem_mb{{tenant=\"{name}\"}} {mem}");
    }

    // Latency breakdown stages (Fig. 15 vocabulary).
    out.push_str(
        "# HELP libra_gateway_stage_micros_total Cumulative latency per pipeline stage (µs).\n",
    );
    out.push_str("# TYPE libra_gateway_stage_micros_total counter\n");
    for (stage, v) in [
        ("frontend", counters.frontend_us.load(Ordering::Relaxed)),
        ("scheduler", counters.scheduler_us.load(Ordering::Relaxed)),
        ("exec", counters.exec_us.load(Ordering::Relaxed)),
    ] {
        let _ = writeln!(out, "libra_gateway_stage_micros_total{{stage=\"{stage}\"}} {v}");
    }

    // HTTP-level outcomes: one series per error status the request path answers.
    for (code, help, val) in [
        (400, "Malformed requests answered 400.", &counters.http_400),
        (404, "Unknown tenants/routes answered 404.", &counters.http_404),
        (409, "Duplicate in-flight invocation ids answered 409.", &counters.http_409),
        (413, "Oversized requests answered 413.", &counters.http_413),
        (500, "Requests failed by a wedged cluster.", &counters.http_500),
    ] {
        let name = format!("libra_gateway_http_{code}_total");
        counter(&mut out, &name, help, val.load(Ordering::Relaxed));
    }
    counter(
        &mut out,
        "libra_gateway_rejected_draining_total",
        "Requests refused because the gateway was draining.",
        counters.rejected_draining.load(Ordering::Relaxed),
    );

    // Backpressure gate.
    gauge(
        &mut out,
        "libra_gateway_admission_queue_depth",
        "Invocations currently held against the cluster.",
        gate.depth() as u64,
    );
    gauge(
        &mut out,
        "libra_gateway_admission_queue_capacity",
        "Admission gate ceiling.",
        gate.capacity() as u64,
    );
    gauge(&mut out, "libra_gateway_draining", "1 while the gateway drains.", draining as u64);

    // Control-plane statistics surfaced from the live cluster.
    gauge(
        &mut out,
        "libra_live_inflight",
        "Invocations resident in the live cluster.",
        live.inflight as u64,
    );
    counter(
        &mut out,
        "libra_live_completed_total",
        "Invocations completed by the live cluster.",
        live.completed as u64,
    );
    counter(
        &mut out,
        "libra_live_loans_expired_total",
        "Harvest loans revoked by the timeliness law.",
        live.loans_expired,
    );
    counter(
        &mut out,
        "libra_live_safeguard_releases_total",
        "Safeguard preemptive releases.",
        live.safeguard_releases,
    );
    counter(
        &mut out,
        "libra_live_aborted_total",
        "Invocations quiesced away by drain.",
        live.aborted,
    );
    counter(
        &mut out,
        "libra_live_faults_injected_total",
        "Fault-plan events fired (scheduler shard stalls and resumes).",
        live.faults_injected,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantQuota;

    #[test]
    fn render_is_deterministic_and_complete() {
        let counters = GatewayCounters::default();
        counters.record_stages(10, 20);
        counters.frontend_us.fetch_add(5, Ordering::Relaxed);
        let tenants = TenantRegistry::new(vec![
            TenantQuota::generous("beta"),
            TenantQuota::generous("alpha"),
        ]);
        let gate = AdmissionGate::new(4);
        let live = LiveStats::default();
        let a = render(&counters, &tenants, &gate, &live, false);
        let b = render(&counters, &tenants, &gate, &live, false);
        assert_eq!(a, b, "identical state must render identical bytes");
        for needle in [
            "libra_gateway_requests_total{tenant=\"alpha\",outcome=\"admitted\"}",
            "libra_gateway_stage_micros_total{stage=\"frontend\"} 5",
            "libra_gateway_stage_micros_total{stage=\"scheduler\"} 10",
            "libra_gateway_stage_micros_total{stage=\"exec\"} 20",
            "libra_gateway_admission_queue_capacity 4",
            "libra_live_loans_expired_total 0",
            "libra_live_faults_injected_total 0",
        ] {
            assert!(a.contains(needle), "metrics page must contain {needle}\n{a}");
        }
        let alpha = a.find("tenant=\"alpha\"").expect("alpha present");
        let beta = a.find("tenant=\"beta\"").expect("beta present");
        assert!(alpha < beta, "tenants render in stable name order");
    }
}
