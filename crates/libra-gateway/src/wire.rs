//! The gateway's request/record body codec: newline-separated `key=value`
//! pairs, ASCII, order-insensitive.
//!
//! Hand-rolled because the workspace builds offline (the serde stub has no
//! real serializer) — and deliberately trivial: every field is a decimal
//! integer, so encode/decode is exact and byte-stable, which the three-way
//! fidelity test leans on. Unknown keys are ignored (forward
//! compatibility); missing required keys are decode errors, never panics
//! (the crate denies clippy's panic family, `indexing_slicing` and the
//! determinism list — DESIGN.md §6).

use libra_live::LiveRequest;
use libra_sim::invocation::{Prediction, PredictionPath};
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimDuration;

/// Encode an invocation request (plus the caller-chosen stable index that
/// becomes its invocation id) as a request body.
pub fn encode_invoke(idx: usize, req: &LiveRequest) -> String {
    let mut s = String::new();
    push_kv(&mut s, "idx", idx as u64);
    push_kv(&mut s, "at_ms", req.at_ms);
    push_kv(&mut s, "cpu", req.alloc.cpu_millis);
    push_kv(&mut s, "mem", req.alloc.mem_mb);
    push_kv(&mut s, "demand_cpu", req.demand_cpu_millis);
    push_kv(&mut s, "demand_mem", req.demand_mem_mb);
    push_kv(&mut s, "mem_floor", req.mem_floor_mb);
    push_kv(&mut s, "work", req.work_mcore_ms);
    if let Some(p) = req.pred {
        push_kv(&mut s, "pred_cpu", p.cpu_millis);
        push_kv(&mut s, "pred_mem", p.mem_mb);
        push_kv(&mut s, "pred_dur_us", p.duration.as_micros());
        s.push_str("pred_path=");
        s.push_str(path_name(p.path));
        s.push('\n');
    }
    s
}

/// Decode an invocation request body. The function id comes from the URL
/// path, not the body, so the caller supplies it.
pub fn decode_invoke(body: &str, func: u32) -> Result<(usize, LiveRequest), &'static str> {
    let mut idx = None;
    let mut at_ms = None;
    let mut cpu = None;
    let mut mem = None;
    let mut demand_cpu = None;
    let mut demand_mem = None;
    let mut mem_floor = None;
    let mut work = None;
    let mut pred_cpu = None;
    let mut pred_mem = None;
    let mut pred_dur_us = None;
    let mut pred_path = None;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').ok_or("line without '='")?;
        if k == "pred_path" {
            pred_path = Some(parse_path(v)?);
            continue;
        }
        let n: u64 = v.parse().map_err(|_| "non-integer value")?;
        match k {
            "idx" => idx = Some(n),
            "at_ms" => at_ms = Some(n),
            "cpu" => cpu = Some(n),
            "mem" => mem = Some(n),
            "demand_cpu" => demand_cpu = Some(n),
            "demand_mem" => demand_mem = Some(n),
            "mem_floor" => mem_floor = Some(n),
            "work" => work = Some(n),
            "pred_cpu" => pred_cpu = Some(n),
            "pred_mem" => pred_mem = Some(n),
            "pred_dur_us" => pred_dur_us = Some(n),
            _ => {} // unknown keys: forward compatibility
        }
    }
    let pred = match (pred_cpu, pred_mem, pred_dur_us) {
        (None, None, None) => None,
        (Some(cpu_millis), Some(mem_mb), Some(dur_us)) => Some(Prediction {
            cpu_millis,
            mem_mb,
            duration: SimDuration(dur_us),
            path: pred_path.unwrap_or(PredictionPath::Histogram),
        }),
        _ => return Err("partial prediction"),
    };
    let req = LiveRequest {
        at_ms: at_ms.ok_or("missing at_ms")?,
        func,
        alloc: ResourceVec::new(cpu.ok_or("missing cpu")?, mem.ok_or("missing mem")?),
        demand_cpu_millis: demand_cpu.ok_or("missing demand_cpu")?,
        demand_mem_mb: demand_mem.ok_or("missing demand_mem")?,
        mem_floor_mb: mem_floor.ok_or("missing mem_floor")?,
        work_mcore_ms: work.ok_or("missing work")?,
        pred,
    };
    let idx = idx.ok_or("missing idx")?;
    Ok((idx as usize, req))
}

/// A completion record as seen over the wire (the subset of
/// [`libra_live::LiveRecord`] meaningful to a network client; latencies in
/// workload microseconds so the encoding stays integer-exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireRecord {
    /// Request index (echoed invocation id).
    pub idx: u64,
    /// End-to-end latency, workload µs.
    pub latency_us: u64,
    /// Admission-queueing share of the latency, workload µs.
    pub sched_us: u64,
    /// Was the invocation ever accelerated with harvested resources?
    pub accelerated: bool,
    /// Was it harvested from?
    pub harvested: bool,
    /// Did the safeguard preemptively release its harvested resources?
    pub safeguarded: bool,
    /// OOM-rule restarts it survived.
    pub oom_restarts: u64,
}

/// Encode a completion record as a response body.
pub fn encode_record(r: &WireRecord) -> String {
    let mut s = String::new();
    push_kv(&mut s, "idx", r.idx);
    push_kv(&mut s, "latency_us", r.latency_us);
    push_kv(&mut s, "sched_us", r.sched_us);
    push_kv(&mut s, "accelerated", r.accelerated as u64);
    push_kv(&mut s, "harvested", r.harvested as u64);
    push_kv(&mut s, "safeguarded", r.safeguarded as u64);
    push_kv(&mut s, "oom_restarts", r.oom_restarts);
    s
}

/// Decode a completion record from a response body.
pub fn decode_record(body: &str) -> Result<WireRecord, &'static str> {
    let mut r = WireRecord {
        idx: 0,
        latency_us: 0,
        sched_us: 0,
        accelerated: false,
        harvested: false,
        safeguarded: false,
        oom_restarts: 0,
    };
    let mut seen_idx = false;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').ok_or("line without '='")?;
        let n: u64 = v.parse().map_err(|_| "non-integer value")?;
        match k {
            "idx" => {
                r.idx = n;
                seen_idx = true;
            }
            "latency_us" => r.latency_us = n,
            "sched_us" => r.sched_us = n,
            "accelerated" => r.accelerated = n != 0,
            "harvested" => r.harvested = n != 0,
            "safeguarded" => r.safeguarded = n != 0,
            "oom_restarts" => r.oom_restarts = n,
            _ => {}
        }
    }
    if !seen_idx {
        return Err("missing idx");
    }
    Ok(r)
}

fn push_kv(s: &mut String, k: &str, v: u64) {
    s.push_str(k);
    s.push('=');
    s.push_str(&v.to_string());
    s.push('\n');
}

fn path_name(p: PredictionPath) -> &'static str {
    match p {
        PredictionPath::Ml => "ml",
        PredictionPath::Histogram => "histogram",
        PredictionPath::Window => "window",
        PredictionPath::None => "none",
    }
}

fn parse_path(s: &str) -> Result<PredictionPath, &'static str> {
    match s {
        "ml" => Ok(PredictionPath::Ml),
        "histogram" => Ok(PredictionPath::Histogram),
        "window" => Ok(PredictionPath::Window),
        "none" => Ok(PredictionPath::None),
        _ => Err("unknown prediction path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invoke_roundtrips_with_and_without_pred() {
        let with = LiveRequest {
            at_ms: 125,
            func: 3,
            alloc: ResourceVec::new(2_000, 2_048),
            demand_cpu_millis: 1_500,
            demand_mem_mb: 900,
            mem_floor_mb: 64,
            work_mcore_ms: 300_000,
            pred: Some(Prediction {
                cpu_millis: 1_400,
                mem_mb: 1_000,
                duration: SimDuration::from_millis(200),
                path: PredictionPath::Ml,
            }),
        };
        let without = LiveRequest { pred: None, ..with };
        for req in [with, without] {
            let body = encode_invoke(7, &req);
            let (idx, back) = decode_invoke(&body, 3).expect("roundtrip");
            assert_eq!(idx, 7);
            assert_eq!(back.at_ms, req.at_ms);
            assert_eq!(back.alloc, req.alloc);
            assert_eq!(back.work_mcore_ms, req.work_mcore_ms);
            assert_eq!(back.pred.is_some(), req.pred.is_some());
            if let (Some(a), Some(b)) = (back.pred, req.pred) {
                assert_eq!(a.cpu_millis, b.cpu_millis);
                assert_eq!(a.duration, b.duration);
                assert_eq!(a.path, b.path);
            }
        }
    }

    #[test]
    fn record_roundtrips() {
        let r = WireRecord {
            idx: 42,
            latency_us: 123_456,
            sched_us: 7_890,
            accelerated: true,
            harvested: false,
            safeguarded: true,
            oom_restarts: 2,
        };
        assert_eq!(decode_record(&encode_record(&r)), Ok(r));
    }

    #[test]
    fn malformed_bodies_are_errors() {
        assert!(decode_invoke("idx=1\nat_ms", 0).is_err());
        assert!(decode_invoke("idx=1\nat_ms=x", 0).is_err());
        assert!(decode_invoke("idx=1\nat_ms=0\npred_cpu=5", 0).is_err(), "partial pred");
        assert!(decode_invoke("", 0).is_err());
        assert!(decode_record("latency_us=1").is_err(), "missing idx");
    }
}
