//! # libra-gateway — the multi-tenant admission frontend
//!
//! Turns the live Libra runtime into a networked service: a hand-rolled,
//! panic-free HTTP/1.1 server (`std::net` only — the workspace builds
//! offline) in front of [`libra_live::LiveCluster`], which is the third
//! driver of the shared control plane after the simulator and the direct
//! live harness. The gateway adds what the paper's in-process invoker
//! elides and ROADMAP item 2 calls for:
//!
//! * **tenant namespaces** with memory/concurrency quotas and token-bucket
//!   rate limits (429 + `Retry-After` on exhaustion),
//! * **backpressure** via a bounded admission gate when the live shards
//!   saturate (503 + `X-Queue-Depth`),
//! * **graceful drain** on shutdown — stop accepting, flush in-flight,
//!   quiesce stragglers *through the control plane* so no harvest loan is
//!   stranded,
//! * **observability**: `GET /metrics` in Prometheus text format, covering
//!   the latency-breakdown stages and per-tenant admission counters.
//!
//! ```no_run
//! use libra_gateway::client::{GatewayClient, InvokeOutcome};
//! use libra_gateway::server::{Gateway, GatewayConfig};
//! use libra_live::mixed_workload;
//!
//! let gw = Gateway::start(GatewayConfig::default()).expect("bind");
//! let mut client = GatewayClient::connect(gw.local_addr()).expect("connect");
//! for (idx, req) in mixed_workload(8, 42).iter().enumerate() {
//!     match client.invoke("default", req.func, idx, req).expect("transport") {
//!         InvokeOutcome::Done(rec) => println!("inv {idx}: {} µs", rec.latency_us),
//!         other => println!("inv {idx}: {other:?}"),
//!     }
//! }
//! let report = gw.shutdown();
//! println!("{}", report.metrics);
//! ```

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod backpressure;
pub mod client;
pub mod http;
pub mod metrics;
pub mod quota;
pub mod server;
pub mod tenant;
pub mod wire;

pub use backpressure::AdmissionGate;
pub use client::{GatewayClient, InvokeOutcome};
pub use quota::{QuotaDenied, QuotaLedger, TokenBucket};
pub use server::{Gateway, GatewayConfig, GatewayReport};
pub use tenant::{AdmitError, TenantQuota, TenantRegistry};
pub use wire::WireRecord;
