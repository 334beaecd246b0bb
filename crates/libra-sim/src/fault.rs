//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a pre-computed, time-sorted list of faults that the
//! engine replays against a simulation via
//! [`Simulation::run_with_faults`](crate::engine::Simulation::run_with_faults),
//! and the live cluster replays in workload time (its shard kinds). Plans are
//! plain data: replaying one never touches a clock or an RNG, so the same plan
//! replayed against the same trace produces bit-identical results. An empty
//! plan is provably inert — `Simulation::run` itself delegates to
//! `run_with_faults` with [`FaultPlan::empty`], so the disabled path *is* the
//! normal path.
//!
//! The fault vocabulary mirrors the failure domains of the Libra control
//! plane: worker nodes (crash/recover), individual invocations (abort),
//! scheduler shards (stall/resume), the health-ping channel that carries
//! piggybacked pool snapshots (§6.4; drop/delay), and the per-invocation
//! monitor loop (tick jitter).
//!
//! Harvesting is "treading on thin ice" (§3.2): the control plane moves
//! resources between tenants on the promise that it can always unwind the
//! books. [`build_plan`] stress-tests that promise: from a seed and a set of
//! per-fault-type rates ([`ChaosConfig`]) it builds a plan against a
//! [`ClusterShape`]. Two properties are load-bearing:
//!
//! * **Determinism.** Construction draws from one [`splitmix64`] stream
//!   seeded from [`ChaosConfig::seed`]; no clocks, no global RNG. The same
//!   config and cluster shape always produce the same plan, so a chaotic
//!   run is exactly as reproducible as a clean one.
//! * **Pairing.** Every `NodeCrash` is followed by a `NodeRecover` and every
//!   `ShardStall` by a `ShardResume`. Without pairing, a plan could park the
//!   whole cluster forever (all nodes dead, or a stalled shard holding the
//!   only queue) and the run would never terminate.

use crate::ids::{InvocationId, NodeId};
use crate::metrics::{splitmix64, unit_f64};
use crate::resources::sat_u64;
use crate::time::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum FaultKind {
    /// The node dies: resident invocations lose their containers, all loans
    /// touching the node are revoked, and the node stops answering health
    /// pings until a matching [`FaultKind::NodeRecover`].
    NodeCrash(NodeId),
    /// The node comes back empty (no warm containers, fresh pool).
    NodeRecover(NodeId),
    /// Abort one invocation's current attempt (e.g. a container runtime
    /// failure). The invocation is requeued with backoff like a crash victim.
    AbortInvocation(InvocationId),
    /// The scheduler shard stops making placement decisions.
    ShardStall(usize),
    /// The stalled shard resumes and drains its queue.
    ShardResume(usize),
    /// Drop the node's next health ping: the warm-pool sweep still runs on
    /// the node, but the platform never sees the ping (or its piggybacked
    /// pool snapshot), aging the scheduler's view.
    PingDrop(NodeId),
    /// Delay the node's next health ping by `by`.
    PingDelay {
        /// Node whose next ping is late.
        node: NodeId,
        /// How late it arrives.
        by: SimDuration,
    },
    /// Add one-shot jitter to the next monitor tick any node fires.
    TickJitter(SimDuration),
}

/// A fault scheduled at a simulated instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of faults to replay against one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults. Running with this is byte-identical to running
    /// without fault injection at all.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Build a plan from arbitrary events; they are stably sorted by time so
    /// same-instant faults keep their insertion order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Append a fault, keeping the plan sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// The scheduled faults in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// Shape of the cluster a plan targets: how many entities of each kind exist
/// to pick victims from.
#[derive(Clone, Copy, Debug)]
pub struct ClusterShape {
    /// Worker node count.
    pub nodes: usize,
    /// Scheduler shard count.
    pub shards: usize,
    /// Invocation count in the trace (abort victims are drawn from it).
    pub invocations: u32,
}

/// Fault rates and shapes. Every `*_count` field is an *expected count* over
/// the horizon; fractional parts are resolved by one deterministic Bernoulli
/// draw (e.g. `1.25` yields 1 fault always and a 2nd with probability 0.25).
/// A config with all counts zero builds [`FaultPlan::empty`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Time window faults are drawn from (should cover the run).
    pub horizon: SimDuration,
    /// Expected node crashes (each paired with a recovery).
    pub node_crashes: f64,
    /// How long a crashed node stays down.
    pub node_downtime: SimDuration,
    /// Expected targeted invocation aborts.
    pub invocation_aborts: f64,
    /// Expected scheduler-shard stalls (each paired with a resume).
    pub shard_stalls: f64,
    /// How long a stalled shard stays frozen.
    pub shard_stall_duration: SimDuration,
    /// Expected dropped health pings.
    pub ping_drops: f64,
    /// Expected delayed health pings.
    pub ping_delays: f64,
    /// How late a delayed ping arrives.
    pub ping_delay: SimDuration,
    /// Expected one-shot monitor-tick jitters.
    pub tick_jitters: f64,
    /// Size of one tick jitter.
    pub tick_jitter: SimDuration,
}

impl ChaosConfig {
    /// All rates zero: builds an empty (provably inert) plan.
    pub fn quiet(seed: u64, horizon: SimDuration) -> Self {
        ChaosConfig {
            seed,
            horizon,
            node_crashes: 0.0,
            node_downtime: SimDuration::from_secs(5),
            invocation_aborts: 0.0,
            shard_stalls: 0.0,
            shard_stall_duration: SimDuration::from_secs(2),
            ping_drops: 0.0,
            ping_delays: 0.0,
            ping_delay: SimDuration::from_millis(400),
            tick_jitters: 0.0,
            tick_jitter: SimDuration::from_millis(250),
        }
    }

    /// Uniformly scale every fault count by `k` (the `exp chaos` sweep knob).
    pub fn scaled(mut self, k: f64) -> Self {
        self.node_crashes *= k;
        self.invocation_aborts *= k;
        self.shard_stalls *= k;
        self.ping_drops *= k;
        self.ping_delays *= k;
        self.tick_jitters *= k;
        self
    }
}

/// Uniform draw in [0, n).
fn below(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    splitmix64(state) % n
}

/// A victim index drawn uniformly from [0, n): lossless, since it is below
/// `n`, which the caller's index type holds.
fn victim<T: TryFrom<u64>>(state: &mut u64, n: u64) -> Option<T> {
    T::try_from(below(state, n)).ok()
}

/// Resolve an expected count into an integer: floor plus one Bernoulli draw
/// on the fractional part.
fn count(state: &mut u64, expected: f64) -> u64 {
    let expected = expected.max(0.0);
    let floor = expected.floor();
    let frac = expected - floor;
    sat_u64(floor) + u64::from(unit_f64(splitmix64(state)) < frac)
}

/// A fault instant drawn uniformly from the horizon.
fn instant(state: &mut u64, horizon: SimDuration) -> SimTime {
    SimTime(below(state, horizon.as_micros().max(1)))
}

/// Build the deterministic fault plan for `cfg` against `shape`.
///
/// Crash→recover and stall→resume pairs are emitted together, `downtime`
/// (resp. `stall_duration`) apart; the plan's sort keeps overall time order.
pub fn build_plan(cfg: &ChaosConfig, shape: &ClusterShape) -> FaultPlan {
    let mut rng = cfg.seed ^ 0xC3A0_5C3A_05C3_A05C;
    let mut plan = FaultPlan::empty();
    let nodes = shape.nodes as u64;

    if nodes > 0 {
        for _ in 0..count(&mut rng, cfg.node_crashes) {
            let node = NodeId(victim(&mut rng, nodes).unwrap_or(u32::MAX));
            let at = instant(&mut rng, cfg.horizon);
            plan.push(at, FaultKind::NodeCrash(node));
            plan.push(at + cfg.node_downtime, FaultKind::NodeRecover(node));
        }
        for _ in 0..count(&mut rng, cfg.ping_drops) {
            let node = NodeId(victim(&mut rng, nodes).unwrap_or(u32::MAX));
            plan.push(instant(&mut rng, cfg.horizon), FaultKind::PingDrop(node));
        }
        for _ in 0..count(&mut rng, cfg.ping_delays) {
            let node = NodeId(victim(&mut rng, nodes).unwrap_or(u32::MAX));
            let kind = FaultKind::PingDelay { node, by: cfg.ping_delay };
            plan.push(instant(&mut rng, cfg.horizon), kind);
        }
    }
    if shape.invocations > 0 {
        for _ in 0..count(&mut rng, cfg.invocation_aborts) {
            let inv = InvocationId(victim(&mut rng, u64::from(shape.invocations)).unwrap_or(0));
            plan.push(instant(&mut rng, cfg.horizon), FaultKind::AbortInvocation(inv));
        }
    }
    if shape.shards > 0 {
        for _ in 0..count(&mut rng, cfg.shard_stalls) {
            let shard = victim(&mut rng, shape.shards as u64).unwrap_or(usize::MAX);
            let at = instant(&mut rng, cfg.horizon);
            plan.push(at, FaultKind::ShardStall(shard));
            plan.push(at + cfg.shard_stall_duration, FaultKind::ShardResume(shard));
        }
    }
    for _ in 0..count(&mut rng, cfg.tick_jitters) {
        plan.push(instant(&mut rng, cfg.horizon), FaultKind::TickJitter(cfg.tick_jitter));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_stably_by_time() {
        let mut p = FaultPlan::new(vec![
            FaultEvent { at: SimTime::from_secs(2), kind: FaultKind::NodeCrash(NodeId(0)) },
            FaultEvent { at: SimTime::from_secs(1), kind: FaultKind::ShardStall(0) },
        ]);
        p.push(SimTime::from_secs(1), FaultKind::ShardResume(0));
        assert_eq!(p.len(), 3);
        assert_eq!(p.events()[0].kind, FaultKind::ShardStall(0));
        assert_eq!(p.events()[1].kind, FaultKind::ShardResume(0));
        assert_eq!(p.events()[2].kind, FaultKind::NodeCrash(NodeId(0)));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::empty());
    }

    fn shape() -> ClusterShape {
        ClusterShape { nodes: 4, shards: 2, invocations: 100 }
    }

    fn busy(seed: u64) -> ChaosConfig {
        ChaosConfig {
            node_crashes: 2.5,
            invocation_aborts: 3.7,
            shard_stalls: 1.5,
            ping_drops: 4.0,
            ping_delays: 2.0,
            tick_jitters: 3.0,
            ..ChaosConfig::quiet(seed, SimDuration::from_secs(120))
        }
    }

    #[test]
    fn zero_rates_build_an_empty_plan() {
        let plan = build_plan(&ChaosConfig::quiet(7, SimDuration::from_secs(60)), &shape());
        assert!(plan.is_empty());
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = build_plan(&busy(1), &shape());
        let b = build_plan(&busy(1), &shape());
        let c = build_plan(&busy(2), &shape());
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must reproduce the same plan");
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn plans_are_time_sorted() {
        let plan = build_plan(&busy(3), &shape());
        let times: Vec<_> = plan.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn every_crash_and_stall_is_paired() {
        for seed in 0..32 {
            let plan = build_plan(&busy(seed), &shape());
            // Replaying the plan in order, every down node must come back up
            // and every stalled shard must resume by the end.
            let mut down = std::collections::BTreeSet::new();
            let mut stalled = std::collections::BTreeSet::new();
            for e in plan.events() {
                match e.kind {
                    FaultKind::NodeCrash(n) => {
                        down.insert(n);
                    }
                    FaultKind::NodeRecover(n) => {
                        down.remove(&n);
                    }
                    FaultKind::ShardStall(s) => {
                        stalled.insert(s);
                    }
                    FaultKind::ShardResume(s) => {
                        stalled.remove(&s);
                    }
                    _ => {}
                }
            }
            assert!(down.is_empty(), "seed {seed}: unrecovered nodes {down:?}");
            assert!(stalled.is_empty(), "seed {seed}: unresumed shards {stalled:?}");
        }
    }

    #[test]
    fn scaled_zero_is_quiet() {
        let plan = build_plan(&busy(5).scaled(0.0), &shape());
        assert!(plan.is_empty());
    }
}
