//! # libra-core — the paper's contribution
//!
//! Libra (HPDC '23) harvests idle resources from over-provisioned serverless
//! function invocations *safely* (a safeguard preemptively returns resources
//! before mispredictions hurt) and *timely* (harvested resources are tracked
//! with their expiry — the source invocation's estimated completion — and
//! scheduling maximizes time-weighted demand coverage).
//!
//! Components, one module per subsystem of the paper:
//!
//! * [`profiler`] — §4: the workload duplicator, RF/histogram demand
//!   estimators, and the input size-relatedness test,
//! * [`pool`] — §5.1: the per-node harvest resource pool (put/get by expiry
//!   priority, preemptive release, re-harvesting, idle-time ledger),
//! * [`safeguard`] — §5.2: the overload rule, usage-threshold protection +
//!   OOM blacklisting,
//! * [`coverage`] — §6.2: time-weighted demand coverage,
//! * [`scheduler`] — §6.3: the one placement rule ([`scheduler::place`]:
//!   hash home + linear probe for non-accelerable requests, greedy maximum
//!   coverage for accelerable ones) every substrate asks, and the
//!   scheduler's ping-fed pool view,
//! * [`sharding`] — §6.4: the native decentralized sharded scheduler, one lock
//!   per shard around the simulator's slice books; places by the same rule,
//! * [`controlplane`] — the substrate-agnostic policy core: a pure,
//!   clock-free state machine over the loan ledger + pools + safeguard that
//!   consumes admission/observation/completion events and emits explicit
//!   [`controlplane::Action`]s; the simulator and the live threaded runtime
//!   are both thin drivers of it,
//! * [`keepalive`] — the keep-alive / autoscaling policy layer: pure,
//!   clock-free [`keepalive::KeepAlivePolicy`] implementations (fixed TTL,
//!   histogram prewarm, concurrency autoscaling) that decide when idle warm
//!   containers die — and therefore how much idle memory harvesters see,
//! * [`platform`] — the one module that meets the simulator's engine and
//!   its `Platform` trait: the control plane's simulator driver
//!   ([`LibraPlatform`], with the paper's ablations NS / NP / NSP / Hist /
//!   ML as configuration presets), the pluggable [`NodeSelector`]s over
//!   [`scheduler::place`], and [`WithKeepAlive`], which puts a keep-alive
//!   policy under any simulated platform. `scripts/sim_seam.sh` holds every
//!   other module to the simulator's vocabulary (time, ids, resources,
//!   invocation records).

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod audit;
pub mod controlplane;
pub mod coverage;
pub mod keepalive;
pub mod platform;
pub mod pool;
pub mod profiler;
pub mod safeguard;
pub mod scheduler;
pub mod sharding;

pub use controlplane::{
    Action, Admission, ControlConfig, ControlCounters, ControlPlane, LendFailure, Observation,
};
pub use coverage::demand_coverage;
pub use keepalive::{ConcurrencyPolicy, FixedTtl, HistogramPolicy, KeepAlivePolicy, PolicyKind};
pub use platform::{
    hash_probe, CoverageSelector, HashSelector, LibraConfig, LibraPlatform, NodeSelector,
    VolumeSelector, WithKeepAlive,
};
pub use pool::{GetOrder, HarvestResourcePool, PoolEntryStatus, PoolSnapshot};
pub use profiler::{ModelChoice, ModelScores, Profiler, ProfilerConfig, WorkloadDuplicator};
pub use safeguard::Safeguard;
pub use scheduler::{SchedView, ScheduleRequest};
pub use sharding::{Decision, ShardedScheduler};
