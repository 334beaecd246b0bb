//! Cross-substrate fidelity: the deterministic simulator, the live threaded
//! runtime, and the networked gateway are all thin drivers of the *same*
//! `libra_core::controlplane::ControlPlane`, so one deterministic workload
//! driven through all three substrates must produce the same per-invocation
//! action traces — harvest grants, loans (CPU *and* memory), the safeguard's
//! preemptive release and the timeliness revocation, with identical volumes.
//! (Admission-layer rejections are excluded by construction: the gateway
//! tenant is quota'd generously enough to admit everything.)
//!
//! The scenario (one 16-core/16-GB node, four invocations):
//!
//! * **A** (t=0): over-provisioned donor — harvested to its prediction,
//!   lends to B and D, completes while D still runs (timeliness revoke).
//! * **B** (t=100 ms): under-provisioned on CPU *and* memory — takes a
//!   mixed CPU+memory loan from A and completes before A (re-harvest).
//! * **C** (t=200 ms): memory misprediction — harvested too deep; its
//!   ramping footprint crosses the safeguard threshold and triggers a
//!   preemptive release (§5.2) before the OOM rule can fire.
//! * **D** (t=300 ms): CPU-hungry borrower that outlives its donor.

use libra::core::controlplane::Action;
use libra::core::{KeepAlive, LibraConfig, LibraPlatform, WithKeepAlive};
use libra::live::{run_live, LiveConfig, LiveRecord, LiveRequest};
use libra::sim::demand::{ConstantDemand, InputMeta, TrueDemand};
use libra::sim::engine::{SimConfig, SimCtx, Simulation, World};
use libra::sim::function::FunctionSpec;
use libra::sim::ids::{FunctionId, InvocationId, NodeId};
use libra::sim::invocation::{Actuals, Loan, Prediction, PredictionPath};
use libra::sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra::sim::resources::ResourceVec;
use libra::sim::time::{SimDuration, SimTime};
use libra::sim::trace::Trace;
use libra::sim::trace_spans::{ExecTrace, SpanKind};
use std::sync::Arc;
use std::time::Duration;

/// One scenario invocation: allocation, ground truth, and the prediction
/// both control planes are fed.
struct Actor {
    alloc: (u64, u64),
    demand: (u64, u64, u64), // cpu millicores, mem MB, duration ms
    pred: (u64, u64, u64),
}

const ACTORS: [Actor; 4] = [
    // A: donor — predicted exactly on CPU, memory padded 2x (never safeguards).
    Actor { alloc: (8_000, 4_096), demand: (2_000, 1_024, 1_500), pred: (2_000, 2_048, 1_500) },
    // B: borrower of CPU and memory; true footprint above its allocation.
    Actor { alloc: (2_000, 512), demand: (4_000, 1_024, 600), pred: (4_000, 1_024, 600) },
    // C: memory misprediction — 1200 MB predicted, 2048 MB real.
    Actor { alloc: (4_000, 4_096), demand: (1_000, 2_048, 1_000), pred: (1_000, 1_200, 1_000) },
    // D: CPU borrower that outlives donor A.
    Actor { alloc: (2_000, 512), demand: (3_000, 384, 2_000), pred: (3_000, 512, 2_000) },
];

const ARRIVALS_MS: [u64; 4] = [0, 100, 200, 300];

fn prediction(p: (u64, u64, u64)) -> Prediction {
    Prediction {
        cpu_millis: p.0,
        mem_mb: p.1,
        duration: SimDuration::from_millis(p.2),
        path: PredictionPath::Histogram,
    }
}

/// The scenario as the simulator takes it: one function per actor (constant
/// demand, 64 MB floor) and one arrival each.
fn sim_scenario(actors: &[Actor], arrivals_ms: &[u64]) -> (Vec<FunctionSpec>, Trace) {
    let funcs = actors
        .iter()
        .enumerate()
        .map(|(i, a)| {
            FunctionSpec::new(
                format!("actor-{i}"),
                ResourceVec::new(a.alloc.0, a.alloc.1),
                Arc::new(ConstantDemand(TrueDemand {
                    cpu_peak_millis: a.demand.0,
                    mem_peak_mb: a.demand.1,
                    base_duration: SimDuration::from_millis(a.demand.2),
                })),
            )
            .with_mem_floor(64)
        })
        .collect();
    let mut trace = Trace::new();
    for (i, at) in arrivals_ms.iter().enumerate() {
        trace.push(SimTime::from_millis(*at), FunctionId(i as u32), InputMeta::new(1, 1));
    }
    (funcs, trace)
}

/// The scenario as the live cluster takes it (one function id: distinct
/// behaviour comes from the per-request predictions).
fn live_requests(actors: &[Actor], arrivals_ms: &[u64]) -> Vec<LiveRequest> {
    actors
        .iter()
        .zip(arrivals_ms)
        .map(|(a, &at_ms)| LiveRequest {
            at_ms,
            func: 0,
            alloc: ResourceVec::new(a.alloc.0, a.alloc.1),
            demand_cpu_millis: a.demand.0,
            demand_mem_mb: a.demand.1,
            mem_floor_mb: 64,
            work_mcore_ms: a.demand.0 * a.demand.2,
            pred: Some(prediction(a.pred)),
        })
        .collect()
}

/// The live ledger is the engine's: every invocation's scheduler + exec
/// spans tile `[submit, completion]` with no gap or overlap, and the record's
/// `sched_ms`/`latency_ms` are reads of the same cursor. An invocation
/// admitted in the workload µs it was submitted has an empty scheduler stage,
/// whose zero-length span is dropped.
fn assert_live_spans_tile(trace: &ExecTrace, records: &[LiveRecord]) {
    for r in records {
        let spans = trace.spans_for(r.idx as u64);
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        let sched = usize::from(r.sched_ms > 0.0);
        let exec = kinds.get(sched..).unwrap_or_default();
        assert_eq!(kinds[..sched], [SpanKind::Scheduler][..sched], "inv {}: {kinds:?}", r.idx);
        assert!(exec.iter().all(|k| *k == SpanKind::Exec), "inv {}: {kinds:?}", r.idx);
        assert!(!exec.is_empty(), "inv {} must carry an exec span", r.idx);
        for w in spans.windows(2) {
            assert_eq!(w[0].end_us, w[1].start_us, "inv {}: gap or overlap in {spans:?}", r.idx);
        }
        let total_us: u64 = spans.iter().map(|s| s.len_us()).sum();
        assert!((r.latency_ms - total_us as f64 / 1e3).abs() < 1e-3, "inv {}: latency", r.idx);
        let sched_us: u64 = spans[..sched].iter().map(|s| s.len_us()).sum();
        assert!((r.sched_ms - sched_us as f64 / 1e3).abs() < 1e-3, "inv {}: sched", r.idx);
    }
}

/// A `LibraPlatform` with the profiler pinned: `predict` returns the
/// scenario's fixed per-function predictions so both substrates reason from
/// identical beliefs. Everything else delegates.
struct FixedPredPlatform {
    inner: LibraPlatform,
    preds: Vec<Prediction>,
}

impl Platform for FixedPredPlatform {
    fn name(&self) -> String {
        "libra-fixed-pred".into()
    }
    fn init(&mut self, world: &World) {
        self.inner.init(world);
    }
    fn overheads(&self) -> PlatformOverheads {
        self.inner.overheads()
    }
    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        Some(self.preds[world.inv(inv).func.idx()])
    }
    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        self.inner.select_node(world, shard, inv)
    }
    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_start(ctx, inv);
    }
    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_tick(ctx, inv);
    }
    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        self.inner.on_complete(ctx, inv, actuals);
    }
    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        self.inner.on_loan_ended(ctx, loan, reason);
    }
    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_oom(ctx, inv);
    }
    fn on_ping(&mut self, world: &World, node: NodeId) {
        self.inner.on_ping(world, node);
    }
    fn on_node_crash(&mut self, ctx: &mut SimCtx<'_>, node: NodeId) {
        self.inner.on_node_crash(ctx, node);
    }
    fn on_abort(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        self.inner.on_abort(ctx, inv);
    }
    fn report(&self) -> PlatformReport {
        self.inner.report()
    }
}

/// Drive the scenario through the simulator; return the recorded action trace.
fn sim_trace() -> Vec<Action> {
    sim_trace_with(KeepAlive::default())
}

/// Same, under an explicit keep-alive policy (wrapped via [`WithKeepAlive`],
/// the same composition the experiment harness uses).
fn sim_trace_with(policy: KeepAlive) -> Vec<Action> {
    let (funcs, trace) = sim_scenario(&ACTORS, &ARRIVALS_MS);
    let sim = Simulation::new(
        funcs,
        vec![ResourceVec::from_cores_mb(16, 16 * 1024)],
        SimConfig { shards: 1, trace: true, ..SimConfig::default() },
    );
    let mut platform = WithKeepAlive::new(
        Box::new(FixedPredPlatform {
            inner: LibraPlatform::new(LibraConfig::libra()),
            preds: ACTORS.iter().map(|a| prediction(a.pred)).collect(),
        }),
        policy,
    );
    let r = sim.run(&trace, &mut platform);
    assert_eq!(r.records.len(), 4, "all sim invocations must complete");
    platform.inner().inner.core().action_trace().to_vec()
}

/// Drive the same scenario through the live threaded runtime.
fn live_trace() -> (Vec<Action>, libra::live::LiveResult) {
    live_trace_with(KeepAlive::default())
}

/// Same, under an explicit keep-alive policy on the live cluster's
/// warm-container registry.
fn live_trace_with(policy: KeepAlive) -> (Vec<Action>, libra::live::LiveResult) {
    let workload = live_requests(&ACTORS, &ARRIVALS_MS);
    let cfg = LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        keepalive: policy,
        ..LiveConfig::default()
    };
    let r = run_live(&workload, &cfg);
    assert_eq!(r.records.len(), 4, "all live invocations must complete");
    (r.actions_by_node[0].clone(), r)
}

/// Drive the same scenario through the gateway over loopback HTTP: four
/// pre-connected clients send simultaneously; arrival pacing is enforced by
/// the cluster itself (requests carry `at_ms`), so network jitter only has
/// to stay under the 100 ms inter-arrival margin.
fn gateway_trace() -> Vec<Action> {
    gateway_trace_with(KeepAlive::default())
}

/// Same, under an explicit keep-alive policy threaded through the gateway's
/// embedded live cluster.
fn gateway_trace_with(policy: KeepAlive) -> Vec<Action> {
    use libra::gateway::client::{GatewayClient, InvokeOutcome};
    use libra::gateway::server::{Gateway, GatewayConfig};
    use libra::gateway::tenant::TenantQuota;
    use std::sync::Barrier;

    let cfg = LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        keepalive: policy,
        ..LiveConfig::default()
    };
    let gw = Gateway::start(GatewayConfig {
        workers: 8,
        admission_capacity: 16,
        max_funcs: 1,
        tenants: vec![TenantQuota::generous("fidelity")],
        live: cfg,
        drain_grace: Duration::from_secs(30),
        ..GatewayConfig::default()
    })
    .expect("bind on loopback");
    let addr = gw.local_addr();

    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = ACTORS
        .iter()
        .zip(ARRIVALS_MS)
        .enumerate()
        .map(|(idx, (a, at_ms))| {
            let req = LiveRequest {
                at_ms,
                func: 0,
                alloc: ResourceVec::new(a.alloc.0, a.alloc.1),
                demand_cpu_millis: a.demand.0,
                demand_mem_mb: a.demand.1,
                mem_floor_mb: 64,
                work_mcore_ms: a.demand.0 * a.demand.2,
                pred: Some(prediction(a.pred)),
            };
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                barrier.wait();
                client.invoke("fidelity", 0, idx, &req).expect("transport")
            })
        })
        .collect();
    for (idx, h) in handles.into_iter().enumerate() {
        let InvokeOutcome::Done(rec) = h.join().expect("no panic") else {
            panic!("gateway invocation {idx} must complete with a record");
        };
        assert_eq!(rec.idx, idx as u64);
    }
    let report = gw.shutdown();
    assert_eq!(report.live.records.len(), 4, "all gateway invocations must complete");
    report.live.actions_by_node.first().cloned().unwrap_or_default()
}

fn project(trace: &[Action], inv: u32) -> Vec<Action> {
    trace.iter().copied().filter(|a| a.subject() == InvocationId(inv)).collect()
}

#[test]
fn sim_live_and_gateway_action_traces_match() {
    let sim = sim_trace();
    let (live, result) = live_trace();
    let gateway = gateway_trace();

    // Same control plane, same inputs → identical per-invocation decisions,
    // down to the exact volumes — whether the driver is the simulator, the
    // in-process live harness, or HTTP clients over loopback. (Projection
    // by subject makes the comparison robust to cross-invocation
    // interleaving, which real threads reorder.)
    for inv in 0..4u32 {
        assert_eq!(
            project(&sim, inv),
            project(&live, inv),
            "sim/live diverged for invocation {inv}\n sim: {sim:#?}\nlive: {live:#?}"
        );
        assert_eq!(
            project(&live, inv),
            project(&gateway, inv),
            "live/gateway diverged for invocation {inv}\nlive: {live:#?}\ngateway: {gateway:#?}"
        );
        // Byte-identical, not just structurally equal: the gateway's wire
        // hop must not perturb a single volume or reason in the trace.
        assert_eq!(
            format!("{:?}", project(&sim, inv)),
            format!("{:?}", project(&gateway, inv)),
            "sim/gateway debug traces diverged for invocation {inv}"
        );
    }

    // The live run demonstrably exercised a *memory* loan (A → B)...
    assert!(
        live.iter().any(|a| matches!(a, Action::Lend { vol, .. } if vol.mem_mb > 0)),
        "live trace must contain a memory-dimension loan: {live:#?}"
    );
    // ...and a safeguard preemptive release (C's misprediction).
    assert!(
        live.iter().any(|a| matches!(a, Action::PreemptiveRelease { .. })),
        "live trace must contain a preemptive release: {live:#?}"
    );
    assert!(result.safeguard_releases >= 1);
    assert!(result.records[2].safeguarded, "C must be safeguarded live");

    // The timeliness law crossed substrates too: A's loan to D died with A.
    assert!(
        project(&live, 0)
            .iter()
            .any(|a| matches!(a, Action::Revoke { reason: LoanEnd::SourceCompleted, .. })),
        "A completing must revoke its loan to D mid-flight"
    );
    // And B's completion re-harvested its mixed loan back to A.
    assert!(
        project(&live, 1)
            .iter()
            .any(|a| matches!(a, Action::Revoke { reason: LoanEnd::BorrowerCompleted, vol, .. } if vol.mem_mb > 0)),
        "B completing must return its CPU+memory loan"
    );
}

/// The three substrates stay in lock-step under the *histogram* keep-alive
/// policy too — and the policy is lifecycle-only: it decides when warm
/// containers die (and what the harvestable-supply gauge reads), but it must
/// never perturb the control plane's harvest/loan/safeguard decisions. In
/// this scenario every invocation overlaps its predecessors, so all four are
/// cold starts under any policy and the action traces must match the
/// fixed-TTL run byte for byte.
#[test]
fn histogram_policy_keeps_substrates_in_lockstep() {
    let sim = sim_trace_with(KeepAlive::histogram());
    let (live, result) = live_trace_with(KeepAlive::histogram());
    let gateway = gateway_trace_with(KeepAlive::histogram());
    let fixed_sim = sim_trace();

    for inv in 0..4u32 {
        assert_eq!(
            project(&sim, inv),
            project(&live, inv),
            "sim/live diverged under histogram policy for invocation {inv}"
        );
        assert_eq!(
            project(&live, inv),
            project(&gateway, inv),
            "live/gateway diverged under histogram policy for invocation {inv}"
        );
        assert_eq!(
            format!("{:?}", project(&fixed_sim, inv)),
            format!("{:?}", project(&sim, inv)),
            "keep-alive policy must not perturb control-plane decisions (inv {inv})"
        );
    }

    // The live warm registry observed the lifecycle: four overlapping
    // invocations of one function can never hit a warm container.
    assert_eq!(result.cold_starts, 4, "all overlapping invocations are cold");
    assert_eq!(result.warm_hits, 0);
}

/// All three substrates emit the same span schema when tracing is on, so
/// the scenario's per-invocation critical paths must agree: projected onto
/// the stages every substrate measures with real duration
/// ({scheduler, exec}), the two wall-clock substrates (live, gateway) match
/// exactly, the exec-segment structure (one segment per attempt — OOM
/// restarts would split it) matches across all three including the
/// simulator, and the loan lifetimes carry identical endpoints, volumes and
/// outcomes everywhere.
#[test]
fn execution_trace_critical_paths_agree_across_substrates() {
    use libra::gateway::server::{Gateway, GatewayConfig};
    use libra::gateway::tenant::TenantQuota;
    // Simulator, tracing on.
    let (funcs, trace) = sim_scenario(&ACTORS, &ARRIVALS_MS);
    let sim = Simulation::new(
        funcs,
        vec![ResourceVec::from_cores_mb(16, 16 * 1024)],
        SimConfig { shards: 1, trace: true, ..SimConfig::default() },
    );
    let mut platform = WithKeepAlive::new(
        Box::new(FixedPredPlatform {
            inner: LibraPlatform::new(LibraConfig::libra()),
            preds: ACTORS.iter().map(|a| prediction(a.pred)).collect(),
        }),
        KeepAlive::default(),
    );
    let sim_result = sim.run(&trace, &mut platform);
    let sim_spans = sim_result.trace.expect("sim tracing enabled");
    assert!(!sim_result.summary.span_stats.is_empty(), "traced runs publish span stats");

    // Live threaded runtime, tracing on.
    let workload = live_requests(&ACTORS, &ARRIVALS_MS);
    let live_cfg = LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        ..LiveConfig::default()
    };
    let live_result = run_live(&workload, &live_cfg);
    let live_spans = live_result.trace.expect("live tracing enabled");
    assert_live_spans_tile(&live_spans, &live_result.records);

    // Gateway over loopback, tracing on; also probe the /trace endpoint.
    let gw = Gateway::start(GatewayConfig {
        workers: 8,
        admission_capacity: 16,
        max_funcs: 1,
        tenants: vec![TenantQuota::generous("fidelity")],
        live: live_cfg.clone(),
        drain_grace: Duration::from_secs(30),
        ..GatewayConfig::default()
    })
    .expect("bind on loopback");
    let addr = gw.local_addr();
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = ACTORS
        .iter()
        .zip(ARRIVALS_MS)
        .enumerate()
        .map(|(idx, (a, at_ms))| {
            use libra::gateway::client::GatewayClient;
            let req = LiveRequest {
                at_ms,
                func: 0,
                alloc: ResourceVec::new(a.alloc.0, a.alloc.1),
                demand_cpu_millis: a.demand.0,
                demand_mem_mb: a.demand.1,
                mem_floor_mb: 64,
                work_mcore_ms: a.demand.0 * a.demand.2,
                pred: Some(prediction(a.pred)),
            };
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = GatewayClient::connect(addr).expect("connect");
                barrier.wait();
                client.invoke("fidelity", 0, idx, &req).expect("transport")
            })
        })
        .collect();
    for (idx, h) in handles.into_iter().enumerate() {
        use libra::gateway::client::InvokeOutcome;
        let InvokeOutcome::Done(rec) = h.join().expect("no panic") else {
            panic!("gateway invocation {idx} must complete with a record");
        };
        assert_eq!(rec.idx, idx as u64);
    }
    // The /trace endpoint serves the timeline while the gateway is up. The
    // connection is keep-alive, so read until the document's closing tag
    // (with a timeout guard) rather than waiting for an EOF that never comes.
    let html = {
        use std::io::{Read as _, Write as _};
        let mut s = std::net::TcpStream::connect(addr).expect("connect for /trace");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        s.write_all(b"GET /trace HTTP/1.1\r\nHost: gw\r\n\r\n").expect("send /trace");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match s.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if buf.windows(7).any(|w| w == b"</html>") {
                        break;
                    }
                }
                Err(e) => panic!("reading /trace: {e}"),
            }
        }
        String::from_utf8_lossy(&buf).into_owned()
    };
    assert!(html.starts_with("HTTP/1.1 200"), "/trace must serve when tracing is on: {html:.80}");
    assert!(html.contains("data-kind=\"exec\""), "/trace HTML must carry exec spans");
    let gw_spans = gw.shutdown().live.trace.expect("gateway tracing enabled");

    let wall_stages = [SpanKind::Scheduler, SpanKind::Exec];
    let exec_only = [SpanKind::Exec];
    for inv in 0..4u64 {
        let live_path = live_spans.critical_path_projected(inv, &wall_stages);
        let gw_path = gw_spans.critical_path_projected(inv, &wall_stages);
        assert_eq!(live_path, gw_path, "live/gateway critical paths diverged for invocation {inv}");
        assert_eq!(live_path.last(), Some(&SpanKind::Exec), "paths end in exec (inv {inv})");
        // Exec-segment structure is substrate-independent: one attempt each
        // (an OOM restart or crash requeue would split it identically).
        assert_eq!(
            sim_spans.critical_path_projected(inv, &exec_only),
            live_spans.critical_path_projected(inv, &exec_only),
            "sim/live exec segments diverged for invocation {inv}"
        );
        assert!(
            !sim_spans.critical_path(inv).is_empty(),
            "sim must trace every invocation (inv {inv})"
        );
        // The gateway's admission frontend is visible in its spans.
        assert!(
            gw_spans.spans_for(inv).iter().any(|s| s.kind == SpanKind::Frontend),
            "gateway invocation {inv} must carry a frontend span"
        );
    }
    assert_eq!(sim_spans.invocations(), vec![0, 1, 2, 3]);
    assert_eq!(live_spans.invocations(), vec![0, 1, 2, 3]);
    assert_eq!(gw_spans.invocations(), vec![0, 1, 2, 3]);

    // Loan lifetimes: identical (source, borrower, volume, outcome) multisets
    // across substrates — only the timestamps are substrate-local.
    fn loan_keys(t: &ExecTrace) -> Vec<(u64, u64, u64, u64, &'static str)> {
        let mut keys: Vec<_> = t
            .loans
            .iter()
            .map(|l| (l.source, l.borrower, l.cpu_millis, l.mem_mb, l.outcome.label()))
            .collect();
        keys.sort_unstable();
        keys
    }
    assert!(!sim_spans.loans.is_empty(), "scenario must exercise loans");
    assert_eq!(loan_keys(&sim_spans), loan_keys(&live_spans), "sim/live loan spans diverged");
    assert_eq!(loan_keys(&live_spans), loan_keys(&gw_spans), "live/gateway loan spans diverged");
}

/// A loan outlives a partial trim on both substrates. The borrower's
/// prediction (4000 m) overshoots its true CPU (2000 m) on a 1000 m
/// allocation: it borrows 3000 m from the donor at start, the first usage
/// observation trims 1334 m of it (`keep = busy + busy/3`), and the remaining
/// 1666 m stays on loan until the borrower completes. The loan's span must
/// therefore run from the borrower's start to its completion and end as
/// `borrower_completed` with the remaining volume — not end at the trim as
/// `returned` with the lend-time volume — identically in sim and live.
#[test]
fn trimmed_loan_span_stays_open_until_the_loan_is_gone() {
    const PAIR: [Actor; 2] = [
        Actor { alloc: (8_000, 4_096), demand: (2_000, 1_024, 3_000), pred: (2_000, 2_048, 3_000) },
        Actor { alloc: (1_000, 512), demand: (2_000, 256, 600), pred: (4_000, 512, 600) },
    ];
    const PAIR_ARRIVALS_MS: [u64; 2] = [0, 100];

    let (funcs, trace) = sim_scenario(&PAIR, &PAIR_ARRIVALS_MS);
    let sim = Simulation::new(
        funcs,
        vec![ResourceVec::from_cores_mb(16, 16 * 1024)],
        SimConfig { shards: 1, trace: true, ..SimConfig::default() },
    );
    let mut platform = FixedPredPlatform {
        inner: LibraPlatform::new(LibraConfig::libra()),
        preds: PAIR.iter().map(|a| prediction(a.pred)).collect(),
    };
    let sim_result = sim.run(&trace, &mut platform);
    assert_eq!(sim_result.records.len(), 2);
    let sim_spans = sim_result.trace.expect("sim tracing enabled");

    let live_cfg = LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        ..LiveConfig::default()
    };
    let live_result = run_live(&live_requests(&PAIR, &PAIR_ARRIVALS_MS), &live_cfg);
    assert_eq!(live_result.records.len(), 2);
    let live_spans = live_result.trace.expect("live tracing enabled");
    assert_live_spans_tile(&live_spans, &live_result.records);

    // Both control planes took the same decisions, the partial trim included.
    let trim = Action::Return {
        borrower: InvocationId(1),
        source: InvocationId(0),
        vol: ResourceVec::new(1_334, 0),
    };
    let sim_actions = platform.inner.core().action_trace().to_vec();
    for inv in 0..2u32 {
        assert_eq!(project(&sim_actions, inv), project(&live_result.actions_by_node[0], inv));
    }
    assert!(sim_actions.contains(&trim), "scenario must exercise a partial trim: {sim_actions:#?}");

    for (name, t) in [("sim", &sim_spans), ("live", &live_spans)] {
        let [loan] = t.loans[..] else {
            panic!("{name}: exactly one loan span, got {:?}", t.loans)
        };
        assert_eq!((loan.source, loan.borrower), (0, 1), "{name}");
        assert_eq!((loan.cpu_millis, loan.mem_mb), (1_666, 0), "{name}: remaining volume");
        assert_eq!(loan.outcome.label(), "borrower_completed", "{name}");
        // Endpoints: the loan lives exactly as long as the borrower executes
        // (live stamps both from its one workload-µs clock).
        let exec: Vec<_> = t.spans_for(1).iter().filter(|s| s.kind == SpanKind::Exec).collect();
        let [exec] = exec[..] else { panic!("{name}: one exec segment, got {exec:?}") };
        assert_eq!((loan.start_us, loan.end_us), (exec.start_us, exec.end_us), "{name}: {loan:?}");
    }
}

/// One visit order on both substrates: observe, let the policy act, then the
/// OOM rule against the allocation the policy left. One actor is harvested to
/// a 100 MB prediction of a footprint that starts at 256 MB, so its first
/// visit finds it over both the safeguard threshold and its grant: the
/// safeguard's preemptive release (§5.2) must come first and leave nothing
/// for the OOM rule (§5.1) to kill, live as in the simulator.
#[test]
fn the_safeguard_releases_before_the_oom_rule_kills_on_both_substrates() {
    const ONE: [Actor; 1] =
        [Actor { alloc: (2_000, 2_048), demand: (2_000, 1_024, 600), pred: (2_000, 100, 600) }];
    let (funcs, trace) = sim_scenario(&ONE, &[0]);
    let sim = Simulation::new(
        funcs,
        vec![ResourceVec::from_cores_mb(16, 16 * 1024)],
        SimConfig { shards: 1, trace: true, ..SimConfig::default() },
    );
    let mut platform = FixedPredPlatform {
        inner: LibraPlatform::new(LibraConfig::libra()),
        preds: vec![prediction(ONE[0].pred)],
    };
    let sim_result = sim.run(&trace, &mut platform);
    assert_eq!(sim_result.records.len(), 1);
    assert_eq!(sim_result.records[0].restarts, 0, "the simulator never OOMs it");

    let live_cfg = LiveConfig {
        nodes: 1,
        capacity: ResourceVec::from_cores_mb(16, 16 * 1024),
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        ..LiveConfig::default()
    };
    let live = run_live(&live_requests(&ONE, &[0]), &live_cfg);
    assert_eq!(live.records.len(), 1);

    let sim_actions = project(platform.inner.core().action_trace(), 0);
    let live_actions = project(&live.actions_by_node[0], 0);
    assert!(
        matches!(
            sim_actions[..],
            [Action::Admitted { .. }, Action::SetGrant { .. }, Action::PreemptiveRelease { .. }]
        ),
        "{sim_actions:#?}"
    );
    assert_eq!(sim_actions, live_actions, "sim/live diverged");
    assert!(live.records[0].safeguarded, "the safeguard must fire live");
    assert_eq!((live.oom_restarts, live.records[0].oom_restarts), (0, 0));
}

/// §6.3 is one function (`libra_core::scheduler::place`) asked by both
/// substrates, so a function's hash home is the same node in the simulator
/// and in the live cluster. Four nodes, one shard, one unprofiled (hence
/// non-accelerable) invocation of each of functions 0–7, small and spaced so
/// capacity never binds and the probe never has to leave the home node.
#[test]
fn placement_agrees_on_four_nodes() {
    const ONE: Actor = Actor { alloc: (1_000, 256), demand: (1_000, 128, 50), pred: (0, 0, 0) };
    let actors: Vec<Actor> = (0..8).map(|_| ONE).collect();
    let arrivals_ms: Vec<u64> = (0..8).map(|i| i * 100).collect();
    let capacity = ResourceVec::from_cores_mb(16, 16 * 1024);

    let (funcs, trace) = sim_scenario(&actors, &arrivals_ms);
    let sim =
        Simulation::new(funcs, vec![capacity; 4], SimConfig { shards: 1, ..SimConfig::default() });
    // Libra-NP predicts from past completions only: a first invocation has none.
    let sim_result = sim.run(&trace, &mut LibraPlatform::new(LibraConfig::np()));
    assert_eq!(sim_result.records.len(), 8);

    let workload: Vec<LiveRequest> = live_requests(&actors, &arrivals_ms)
        .into_iter()
        .enumerate()
        .map(|(f, r)| LiveRequest { func: f as u32, pred: None, ..r })
        .collect();
    let cfg = LiveConfig {
        nodes: 4,
        capacity,
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        trace: true,
        ..LiveConfig::default()
    };
    let live_result = run_live(&workload, &cfg);
    assert_eq!(live_result.records.len(), 8);

    let sim_homes: Vec<u32> = (0..8u32)
        .map(|f| sim_result.records.iter().find(|r| r.func == FunctionId(f)).expect("ran").node.0)
        .collect();
    let live_homes: Vec<u32> = (0..8u32)
        .map(|inv| {
            let admitted = |a: &Action| matches!(a, Action::Admitted { inv: i, .. } if i.0 == inv);
            let n = live_result.actions_by_node.iter().position(|acts| acts.iter().any(admitted));
            n.expect("admitted somewhere") as u32
        })
        .collect();
    assert_eq!(sim_homes, live_homes, "a function's home node must not depend on the substrate");
    assert!(sim_homes.iter().any(|&n| n != sim_homes[0]), "scenario must spread: {sim_homes:?}");
}

/// One fault vocabulary: the plan `build_plan` draws for the simulator is the
/// plan the live cluster replays, at the same workload instants. Three shard
/// stalls of 150 ms each, drawn inside the first 400 ms of eight arrivals
/// 100 ms apart on two shards, so every stall and resume fires before the
/// last invocation completes on either substrate.
#[test]
fn one_shard_stall_plan_replays_on_sim_and_live() {
    use libra::sim::fault::{build_plan, ChaosConfig, ClusterShape, FaultKind};
    const ONE: Actor = Actor { alloc: (1_000, 256), demand: (1_000, 128, 50), pred: (0, 0, 0) };
    let actors: Vec<Actor> = (0..8).map(|_| ONE).collect();
    let arrivals_ms: Vec<u64> = (0..8).map(|i| i * 100).collect();
    let capacity = ResourceVec::from_cores_mb(16, 16 * 1024);
    let chaos = ChaosConfig {
        shard_stalls: 3.0,
        shard_stall_duration: SimDuration::from_millis(150),
        ..ChaosConfig::quiet(11, SimDuration::from_millis(400))
    };
    let plan = build_plan(&chaos, &ClusterShape { nodes: 2, shards: 2, invocations: 8 });
    assert_eq!(plan.len(), 6, "{plan:?}");
    assert!(plan
        .events()
        .iter()
        .all(|f| matches!(f.kind, FaultKind::ShardStall(_) | FaultKind::ShardResume(_))));

    let (funcs, trace) = sim_scenario(&actors, &arrivals_ms);
    let sim =
        Simulation::new(funcs, vec![capacity; 2], SimConfig { shards: 2, ..SimConfig::default() });
    let sim_result = sim.run_with_faults(&trace, &mut LibraPlatform::new(LibraConfig::np()), &plan);
    assert_eq!(sim_result.records.len(), 8, "every sim invocation completes");

    let workload: Vec<LiveRequest> = live_requests(&actors, &arrivals_ms)
        .into_iter()
        .map(|r| LiveRequest { pred: None, ..r })
        .collect();
    let cfg = LiveConfig {
        nodes: 2,
        capacity,
        shards: 2,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        faults: plan.clone(),
        ..LiveConfig::default()
    };
    let live_result = run_live(&workload, &cfg);
    assert_eq!(live_result.records.len(), 8, "every live invocation completes");

    assert_eq!(sim_result.faults_injected, plan.len() as u64);
    assert_eq!(live_result.faults_injected, sim_result.faults_injected);
}

/// One warm rule on both substrates: an idle container pins its grant in the
/// shard slice that admitted it, a completion finds room for that pin or
/// tears the container down, and a new booking evicts the pins it crowds
/// out. One node of 2 GB, one shard, the default 60 s keep-alive, which no
/// container here outlives. X is harvested to half its memory and its
/// safeguard restores it mid-run, after Y1 was admitted into the harvested
/// room: the slice is over-reserved when Y1 completes, so Y1's container
/// gets no room (these two runs overlap on purpose: only an over-reserved
/// slice can refuse a completion's pin). Every other run is alone: Y2's
/// booking crowds out X1's pin, Y3 finds Y2's container, and X2 finds none.
#[test]
fn warm_hits_agree_under_memory_pressure() {
    const PAIR: [Actor; 2] = [
        // X: 1.5 GB asked, 768 MB predicted, a footprint that trips the
        // safeguard's 0.8 line at ~47% of its run.
        Actor { alloc: (1_000, 1_536), demand: (1_000, 1_024, 2_000), pred: (1_000, 768, 2_000) },
        // Y: served as asked.
        Actor { alloc: (1_000, 1_024), demand: (1_000, 256, 1_000), pred: (1_000, 1_024, 1_000) },
    ];
    // (arrival ms, function): X1, Y1, then Y2, Y3 and X2 alone.
    const RUNS: [(u64, u32); 5] = [(0, 0), (600, 1), (3_000, 1), (5_000, 1), (6_500, 0)];
    let capacity = ResourceVec::from_cores_mb(16, 2_048);

    let (funcs, _) = sim_scenario(&PAIR, &[0, 0]);
    let mut trace = Trace::new();
    for &(at_ms, f) in &RUNS {
        trace.push(SimTime::from_millis(at_ms), FunctionId(f), InputMeta::new(1, 1));
    }
    let sim =
        Simulation::new(funcs, vec![capacity], SimConfig { shards: 1, ..SimConfig::default() });
    let mut platform = FixedPredPlatform {
        inner: LibraPlatform::new(LibraConfig::libra()),
        preds: PAIR.iter().map(|a| prediction(a.pred)).collect(),
    };
    let sim_result = sim.run(&trace, &mut platform);
    assert_eq!(sim_result.records.len(), RUNS.len());

    let workload: Vec<LiveRequest> = RUNS
        .iter()
        .map(|&(at_ms, f)| {
            let actor = std::slice::from_ref(&PAIR[f as usize]);
            LiveRequest { func: f, ..live_requests(actor, &[at_ms])[0] }
        })
        .collect();
    let cfg = LiveConfig {
        nodes: 1,
        capacity,
        shards: 1,
        harvesting: true,
        quantum: Duration::from_millis(1),
        time_scale: 4.0,
        ..LiveConfig::default()
    };
    let live = run_live(&workload, &cfg);
    assert_eq!(live.records.len(), RUNS.len());

    assert!(
        sim_result.records.iter().any(|r| r.flags.safeguarded),
        "X1's safeguard must fire in sim"
    );
    assert!(live.records[0].safeguarded, "X1's safeguard must fire live");
    assert_eq!(
        (live.warm_hits, live.cold_starts),
        (sim_result.warm_hits, sim_result.cold_starts),
        "live (warm hits, cold starts) against the simulator's"
    );
    // Only Y3 is warm: Y1's container found no room, X1's was crowded out.
    assert_eq!((sim_result.warm_hits, sim_result.cold_starts), (1, 4));
}
