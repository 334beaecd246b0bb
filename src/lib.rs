//! # Libra — harvesting idle resources safely and timely in serverless
//! clusters
//!
//! A comprehensive Rust reproduction of *"Libra: Harvesting Idle Resources
//! Safely and Timely in Serverless Clusters"* (HPDC '23). This facade crate
//! re-exports the whole workspace:
//!
//! * [`sim`] — the deterministic serverless-cluster simulator substrate,
//! * [`ml`] — from-scratch profiler models (random forests, histograms, …),
//! * [`workloads`] — the Table 1 applications, datasets, and Azure-like traces,
//! * [`core`] — Libra itself: profiler, harvest resource pool, safeguard,
//!   demand coverage, decentralized sharding scheduler,
//! * [`baselines`] — OpenWhisk default, the Freyr stand-in, RR/JSQ/MWS,
//! * [`live`] — the real-thread sharded control plane,
//! * [`gateway`] — the multi-tenant HTTP admission frontend over [`live`]:
//!   quotas, rate limits, backpressure, graceful drain and `/metrics`.
//!
//! See `examples/quickstart.rs` for a end-to-end tour and DESIGN.md for the
//! system inventory.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

pub use libra_baselines as baselines;
pub use libra_core as core;
pub use libra_gateway as gateway;
pub use libra_live as live;
pub use libra_ml as ml;
pub use libra_sim as sim;
pub use libra_workloads as workloads;
