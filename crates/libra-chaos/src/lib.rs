//! libra-chaos — deterministic fault-injection plans for the Libra
//! reproduction.
//!
//! Harvesting is "treading on thin ice" (§3.2): the control plane moves
//! resources between tenants on the promise that it can always unwind the
//! books. This crate stress-tests that promise. From a seed and a set of
//! per-fault-type rates it builds a [`FaultPlan`] — node crashes with paired
//! recoveries, targeted invocation aborts, scheduler-shard stalls with
//! paired resumes, health-ping drops/delays, and monitor-tick jitter — that
//! [`Simulation::run_with_faults`](libra_sim::engine::Simulation::run_with_faults)
//! replays at exact simulated instants.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Plan construction uses a private splitmix64 stream
//!   seeded from [`ChaosConfig::seed`]; no clocks, no global RNG. The same
//!   config and cluster shape always produce the same plan, so a chaotic
//!   run is exactly as reproducible as a clean one.
//! * **Pairing.** Every `NodeCrash` is followed by a `NodeRecover` and every
//!   `ShardStall` by a `ShardResume`. Without pairing, a plan could park the
//!   whole cluster forever (all nodes dead, or a stalled shard holding the
//!   only queue) and the run would never terminate.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use libra_sim::fault::{FaultKind, FaultPlan};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::time::{SimDuration, SimTime};

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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1).
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform draw in [0, n).
fn below(state: &mut u64, n: u64) -> u64 {
    debug_assert!(n > 0);
    splitmix64(state) % n
}

/// Resolve an expected count into an integer: floor plus one Bernoulli draw
/// on the fractional part.
fn count(state: &mut u64, expected: f64) -> u64 {
    let expected = expected.max(0.0);
    let floor = expected.floor();
    let frac = expected - floor;
    floor as u64 + u64::from(unit(state) < frac)
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

    if shape.nodes > 0 {
        for _ in 0..count(&mut rng, cfg.node_crashes) {
            let node = NodeId(below(&mut rng, shape.nodes as u64) as u32);
            let at = instant(&mut rng, cfg.horizon);
            plan.push(at, FaultKind::NodeCrash(node));
            plan.push(at + cfg.node_downtime, FaultKind::NodeRecover(node));
        }
        for _ in 0..count(&mut rng, cfg.ping_drops) {
            let node = NodeId(below(&mut rng, shape.nodes as u64) as u32);
            plan.push(instant(&mut rng, cfg.horizon), FaultKind::PingDrop(node));
        }
        for _ in 0..count(&mut rng, cfg.ping_delays) {
            let node = NodeId(below(&mut rng, shape.nodes as u64) as u32);
            let kind = FaultKind::PingDelay { node, by: cfg.ping_delay };
            plan.push(instant(&mut rng, cfg.horizon), kind);
        }
    }
    if shape.invocations > 0 {
        for _ in 0..count(&mut rng, cfg.invocation_aborts) {
            let inv = InvocationId(below(&mut rng, shape.invocations as u64) as u32);
            plan.push(instant(&mut rng, cfg.horizon), FaultKind::AbortInvocation(inv));
        }
    }
    if shape.shards > 0 {
        for _ in 0..count(&mut rng, cfg.shard_stalls) {
            let shard = below(&mut rng, shape.shards as u64) as usize;
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
