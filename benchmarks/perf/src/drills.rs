//! Drills: sub-second micro-runs of one public function each.
//!
//! A drill answers "what does one call into this layer cost by itself", the
//! number a workload's ledger cannot give when the layer is called from
//! inside the crates. Each drill runs with the workload whose layer it
//! explains (see `README.md`); inputs are fixed, so a drill's figure moves
//! only when the code under it does.

use crate::gateway::invoke_message;
use libra_core::controlplane::{Admission, ControlConfig, ControlPlane, Observation};
use libra_core::demand_coverage;
use libra_core::pool::{HarvestResourcePool, PoolEntryStatus};
use libra_core::sharding::{ScheduleRequest, ShardedScheduler};
use libra_gateway::http::Conn;
use libra_gateway::tenant::{TenantQuota, TenantRegistry};
use libra_gateway::wire::{self, WireRecord};
use libra_gateway::AdmissionGate;
use libra_live::LiveRequest;
use libra_ml::{ForestParams, RandomForest, Task};
use libra_sim::event::{Event, EventQueue};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{Prediction, PredictionPath};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// How long a drill's measured batch must run for its per-call figure to be
/// trusted against timer resolution and scheduling jitter.
const MIN_BATCH: Duration = Duration::from_millis(50);

/// Nanoseconds per call of `op`: the batch is doubled until it runs for
/// [`MIN_BATCH`], and that last batch is the measurement.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            op();
        }
        let took = start.elapsed();
        if took >= MIN_BATCH {
            return took.as_nanos() as f64 / calls as f64;
        }
        calls *= 2;
    }
}

/// SplitMix64: the drills' fixed input stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `EventQueue` hold model at a standing depth: pop the earliest event and
/// push it back a random interval later. One call = one pop + one push.
pub fn event_push_pop_ns(depth: usize) -> f64 {
    let mut rng = Mix(depth as u64);
    let mut queue = EventQueue::new();
    for i in 0..depth {
        let at = SimTime(rng.next() % 1_000_000);
        queue.push(at, Event::MonitorTick { inv: InvocationId(i as u32), attempt: 0 });
    }
    ns_per_call(|| {
        if let Some((at, event)) = queue.pop() {
            queue.push(SimTime(at.0 + 1 + rng.next() % 1_000_000), event);
        }
    })
}

/// `HarvestResourcePool` at a standing size: a new source puts its idle
/// volume, a borrower gets half of that, the oldest source leaves.
/// One call = put + get + remove.
pub fn pool_put_get_ns(entries: usize) -> f64 {
    let mut rng = Mix(entries as u64);
    let mut pool = HarvestResourcePool::new();
    let vol = ResourceVec::new(1_000, 256);
    let want = ResourceVec::new(500, 128);
    let mut now = SimTime(0);
    let mut next_source = 0u32;
    let mut admit = |pool: &mut HarvestResourcePool, now: SimTime, rng: &mut Mix| {
        let expiry = SimTime(now.0 + 1_000_000 + rng.next() % 4_000_000);
        pool.put(InvocationId(next_source), vol, expiry, now);
        next_source += 1;
    };
    for _ in 0..entries {
        admit(&mut pool, now, &mut rng);
    }
    let mut oldest = 0u32;
    ns_per_call(|| {
        now = SimTime(now.0 + 10);
        admit(&mut pool, now, &mut rng);
        black_box(pool.get(want, now));
        black_box(pool.remove(InvocationId(oldest), now));
        oldest += 1;
    })
}

/// A `ControlPlane` node that always has seven invocations resident besides
/// the one whose life is being timed. Donors (4 cores allocated, 1.5 used)
/// alternate with acceptors (2 allocated, 4 wanted), so grants, pool puts,
/// loans and revocations all run.
struct ControlPlaneDrill {
    core: ControlPlane,
    now: SimTime,
    next: u32,
}

impl ControlPlaneDrill {
    const RESIDENT: u32 = 8;

    fn new() -> Self {
        let core = ControlPlane::new(ControlConfig::default(), 8, 1);
        let mut drill = ControlPlaneDrill { core, now: SimTime(0), next: 0 };
        for _ in 0..Self::RESIDENT - 1 {
            drill.admit();
        }
        drill
    }

    fn admit(&mut self) {
        let donor = self.next.is_multiple_of(2);
        let (alloc_cpu, demand_cpu) = if donor { (4_000, 1_500) } else { (2_000, 4_000) };
        black_box(self.core.on_admit(
            Admission {
                inv: InvocationId(self.next),
                node: NodeId(0),
                func: (self.next % 8) as usize,
                nominal: ResourceVec::new(alloc_cpu, 512),
                mem_floor_mb: 64,
                pred: Some(Prediction {
                    cpu_millis: demand_cpu,
                    mem_mb: if donor { 320 } else { 512 },
                    duration: SimDuration::from_millis(50),
                    path: PredictionPath::Histogram,
                }),
            },
            self.now,
        ));
        self.next += 1;
    }

    /// `on_admit`, four `on_observe`s, and `on_complete` of the oldest.
    fn cycle(&mut self) {
        self.now = SimTime(self.now.0 + 5_000);
        let inv = InvocationId(self.next);
        let donor = self.next.is_multiple_of(2);
        self.admit();
        for _ in 0..4 {
            self.now = SimTime(self.now.0 + 1_000);
            let obs = Observation {
                cpu_busy_millis: if donor { 1_500 } else { 2_000 },
                mem_used_mb: 200,
                cpu_throttled: !donor,
            };
            black_box(self.core.on_observe(inv, obs, self.now));
        }
        black_box(self.core.on_complete(InvocationId(self.next - Self::RESIDENT), self.now));
    }
}

/// One invocation's life in a busy node's `ControlPlane`: `on_admit`, four
/// `on_observe`s, `on_complete`.
pub fn controlplane_cycle_ns() -> f64 {
    let mut drill = ControlPlaneDrill::new();
    ns_per_call(|| drill.cycle())
}

/// `demand_coverage` of a 2-core / 256 MB shortfall over one second against
/// a 32-entry pool snapshot whose expiries straddle the window.
pub fn demand_coverage_ns() -> f64 {
    let mut rng = Mix(32);
    let now = SimTime(1_000_000);
    let snapshot: Vec<PoolEntryStatus> = (0..32)
        .map(|_| PoolEntryStatus {
            cpu_idle_millis: 200 + rng.next() % 800,
            mem_idle_mb: 64 + rng.next() % 192,
            expiry: SimTime(now.0 + 100_000 + rng.next() % 2_000_000),
        })
        .collect();
    let extra = ResourceVec::new(2_000, 256);
    let dur = SimDuration::from_millis(1_000);
    ns_per_call(|| {
        black_box(demand_coverage(black_box(&snapshot), extra, now, dur, 0.9));
    })
}

/// One blocking `ShardedScheduler::schedule_on` round trip to a shard thread
/// (16 nodes, 4 shards), the reservation released again. Microseconds.
pub fn sharding_schedule_on_us() -> f64 {
    let sched = ShardedScheduler::spawn(4, 16, ResourceVec::from_cores_mb(16, 16 * 1024), 0.9);
    let nominal = ResourceVec::new(2_000, 512);
    let mut i = 0usize;
    let ns = ns_per_call(|| {
        let shard = i % 4;
        let decision = sched.schedule_on(
            shard,
            ScheduleRequest {
                nominal,
                extra: ResourceVec::ZERO,
                func: (i % 8) as u32,
                duration: SimDuration::from_millis(5),
                now: SimTime::ZERO,
            },
        );
        if let Some(node) = decision.node {
            sched.release(shard, node, nominal);
        }
        i += 1;
    });
    ns / 1e3
}

/// Forest training set shaped like the profiler's: features `[size, ln
/// size]`, a duration target that grows with size plus noise.
fn forest_rows(rows: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Mix(rows as u64);
    let x: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            let size = (1_000 + rng.next() % 1_000_000) as f64;
            vec![size, size.ln()]
        })
        .collect();
    let y = x.iter().map(|r| r[0] * 1e-6 + (rng.next() % 100) as f64 * 1e-4).collect();
    (x, y)
}

/// The refit the profiler runs every eighth observation: 24 regression trees.
fn refit_params() -> ForestParams {
    ForestParams { n_trees: 24, seed: 1, ..ForestParams::default() }
}

/// `RandomForest::fit` on `rows` rows. Milliseconds.
pub fn forest_fit_ms(rows: usize) -> f64 {
    let (x, y) = forest_rows(rows);
    ns_per_call(|| {
        black_box(RandomForest::fit(&x, &y, Task::Regression, refit_params()));
    }) / 1e6
}

/// `RandomForest::predict` of one row on a forest fitted to 512 rows.
pub fn forest_predict_ns() -> f64 {
    let (x, y) = forest_rows(512);
    let forest = RandomForest::fit(&x, &y, Task::Regression, refit_params());
    let mut i = 0usize;
    ns_per_call(|| {
        black_box(forest.predict(black_box(&x[i % x.len()])));
        i += 1;
    })
}

/// The request the gateway drills parse and decode: the `mixed_workload`
/// shape the gateway workload sends.
fn sample_request() -> LiveRequest {
    libra_live::mixed_workload(1, 42)[0]
}

/// An in-memory stream: reads serve `data` from the start again whenever it
/// runs out, writes are discarded.
struct Replay {
    data: Vec<u8>,
    pos: usize,
}

impl Read for Replay {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.data.len() {
            self.pos = 0;
        }
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Replay {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `Conn::recv_request` of one `POST /invoke` request off an in-memory
/// stream holding 64 of them back to back (so reads split messages the way
/// a socket does).
pub fn http_parse_request_ns() -> f64 {
    let one = invoke_message(7, &sample_request());
    let mut conn = Conn::new(Replay { data: one.repeat(64), pos: 0 });
    ns_per_call(|| {
        black_box(conn.recv_request().is_ok());
    })
}

/// `wire::decode_invoke` of one request body.
pub fn wire_decode_invoke_ns() -> f64 {
    let body = wire::encode_invoke(7, &sample_request());
    ns_per_call(|| {
        black_box(wire::decode_invoke(black_box(&body), 3).is_ok());
    })
}

/// `wire::encode_record` of one completion record.
pub fn wire_encode_record_ns() -> f64 {
    let record = WireRecord {
        idx: 123_456,
        latency_us: 2_345,
        sched_us: 120,
        accelerated: true,
        harvested: false,
        safeguarded: false,
        oom_restarts: 0,
    };
    ns_per_call(|| {
        black_box(wire::encode_record(black_box(&record)));
    })
}

/// `TenantState::try_admit` (token bucket, then quota ledger) and the
/// permit's release. The injected clock advances 1 ms per call, a tenth of
/// the generous tenant's refill rate, so no call is refused.
pub fn tenant_try_admit_ns() -> f64 {
    let registry = TenantRegistry::new(vec![TenantQuota::generous("drill")]);
    let Some(tenant) = registry.get("drill") else {
        return 0.0;
    };
    let mut now_us = 0u64;
    ns_per_call(|| {
        now_us += 1_000;
        black_box(tenant.try_admit(512, now_us).is_ok());
    })
}

/// `AdmissionGate::try_enter` and the permit's release, uncontended.
pub fn gate_try_enter_ns() -> f64 {
    let gate = AdmissionGate::new(256);
    ns_per_call(|| {
        black_box(gate.try_enter().is_ok());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_stream_serves_whole_requests_across_split_reads() {
        let sample = sample_request();
        let one = invoke_message(7, &sample);
        let mut conn = Conn::new(Replay { data: one.repeat(3), pos: 0 });
        for _ in 0..10 {
            let req = conn.recv_request().expect("request parses");
            assert_eq!(req.target, format!("/invoke/default/{}", sample.func));
            assert_eq!(req.body, wire::encode_invoke(7, &sample).as_bytes());
        }
    }

    #[test]
    fn controlplane_drill_lends_and_revokes_with_a_bounded_ledger() {
        let mut drill = ControlPlaneDrill::new();
        for _ in 0..1_000 {
            drill.cycle();
        }
        let counters = drill.core.counters();
        assert!(counters.loans_expired > 100, "loans must flow: {counters:?}");
        assert_eq!(drill.core.ledger_len(), ControlPlaneDrill::RESIDENT as usize - 1);
        drill.core.check_conservation().expect("ledger conserved");
    }

    #[test]
    fn tenant_drill_stays_under_the_rate_limit() {
        let registry = TenantRegistry::new(vec![TenantQuota::generous("drill")]);
        let tenant = registry.get("drill").expect("tenant registered");
        assert!((1..=50_000u64).all(|i| tenant.try_admit(512, i * 1_000).is_ok()));
    }
}
