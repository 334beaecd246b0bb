//! # libra-live — Libra's control plane under real concurrency
//!
//! The deterministic simulator (`libra-sim`) and this crate drive the *same*
//! policy core — [`libra_core::controlplane::ControlPlane`] — through the
//! same action-trace contract; what changes is the substrate. Here the
//! mechanics are real: node state behind `parking_lot` locks, one driver
//! thread per node that observes every resident at the node's monitor tick,
//! once a quantum, and between ticks steps a resident only when it is `due`
//! (the instant its work runs out at its current rate — re-armed whenever
//! an allocation on the node moves), one front-door thread
//! for arrivals that are not yet due or not yet admissible, the
//! decentralized sharded scheduler of §6.4 admitting against per-shard slice
//! books (the simulator's own reserved-vs-slice cell, one lock per shard),
//! and the full policy surface — CPU *and*
//! memory harvesting, safeguard preemptive release (§5.2), OOM restarts
//! (§5.1) and the timeliness law (§3.1) — enforced in real time while a
//! watchdog turns any wedged run into a diagnostic panic.
//!
//! ```no_run
//! use libra_live::{mixed_workload, run_live, LiveConfig};
//!
//! let workload = mixed_workload(60, 7);
//! let result = run_live(&workload, &LiveConfig::default());
//! let p = result.latency_percentiles(&[50.0, 99.0]);
//! println!("p50 {:.0} ms, p99 {:.0} ms, {} loans expired mid-flight",
//!          p[0], p[1], result.loans_expired);
//! ```

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the live substrate runs in real time: it reads the host clock and nothing replays its hash order"
)]
#![warn(missing_docs)]

pub mod cluster;
pub mod workload;

pub use cluster::{
    run_live, LiveCluster, LiveConfig, LiveRecord, LiveResult, LiveStats, SubmitError,
};
pub use workload::{mixed_workload, LiveRequest};

// The live driver replays these; re-exported so trace consumers need not
// depend on libra-core directly.
pub use libra_core::controlplane::{Action, ControlConfig};
