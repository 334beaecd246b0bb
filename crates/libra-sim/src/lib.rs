//! # libra-sim — a deterministic serverless cluster simulator
//!
//! This crate is the substrate for the Libra reproduction (HPDC '23): a
//! discrete-event model of an OpenWhisk-like serverless cluster — front end,
//! sharded schedulers, worker nodes, container pools, cold starts, cgroup-
//! style usage monitoring and live resource reallocation.
//!
//! The central design split: this crate owns the **physics** (capacity
//! conservation, execution rates, the timeliness law of §3.1, OOM), while a
//! [`Platform`](platform::Platform) implementation owns the **policy**
//! (predictions, node selection, harvesting, safeguarding). Libra, OpenWhisk
//! default, and the Freyr baseline are all policies over the same physics,
//! which is what makes their comparison meaningful.
//!
//! ## Quick tour
//!
//! ```
//! use libra_sim::prelude::*;
//! use std::sync::Arc;
//!
//! // A function that always needs 2 cores × 1 s and 256 MB.
//! let model = Arc::new(ConstantDemand(TrueDemand {
//!     cpu_peak_millis: 2000,
//!     mem_peak_mb: 256,
//!     base_duration: SimDuration::from_secs(1),
//! }));
//! let f = FunctionSpec::new("hello", ResourceVec::from_cores_mb(4, 1024), model);
//!
//! let sim = Simulation::new(vec![f], vec![ResourceVec::from_cores_mb(8, 8192)],
//!                           SimConfig::default());
//! let mut trace = Trace::new();
//! trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
//!
//! let result = sim.run(&trace, &mut NullPlatform);
//! assert_eq!(result.records.len(), 1);
//! ```

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod arena;
pub mod container;
pub mod demand;
pub mod engine;
pub mod event;
pub mod fault;
pub mod function;
pub mod ids;
pub mod invocation;
pub mod metrics;
pub mod node;
pub mod platform;
pub mod resources;
pub mod time;
pub mod trace;
pub mod trace_spans;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::arena::InvArena;
    pub use crate::demand::{ConstantDemand, DemandModel, FnDemand, InputMeta, TrueDemand};
    pub use crate::engine::{NullPlatform, SimConfig, SimCtx, Simulation, World};
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    pub use crate::function::FunctionSpec;
    pub use crate::ids::{FunctionId, InvocationId, NodeId};
    pub use crate::invocation::{
        Actuals, InvFlags, InvState, Invocation, Loan, Prediction, PredictionPath, StageBreakdown,
        Wake,
    };
    pub use crate::metrics::{
        mean, percentile, InvRecord, KindPops, MetricsMode, OnlineStats, QuantileSketch, RunResult,
        RunSummary, UtilSample,
    };
    pub use crate::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
    pub use crate::resources::{ResourceVec, MILLIS_PER_CORE};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{Trace, TraceEntry};
    pub use crate::trace_spans::{
        ExecTrace, LoanOutcome, LoanSpan, Span, SpanKind, SpanKindStats, SpanSink,
    };
}
