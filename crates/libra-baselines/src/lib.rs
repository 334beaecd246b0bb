//! # libra-baselines — comparison platforms and schedulers
//!
//! The systems Libra is evaluated against:
//!
//! * [`openwhisk`] — the OpenWhisk default platform (fixed user allocations,
//!   hash scheduling),
//! * [`freyr`] — a behaviourally-faithful stand-in for Freyr \[49\], the
//!   closest prior work (history-only estimates, no timeliness awareness,
//!   non-preemptive safeguard — see §9 and DESIGN.md §1),
//! * [`schedulers`] — Round-Robin, Join-the-Shortest-Queue and
//!   Min-Worker-Set node selectors, pluggable under Libra's harvesting for
//!   the §8.4 scheduling comparison.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod freyr;
pub mod openwhisk;
pub mod schedulers;

pub use freyr::Freyr;
pub use openwhisk::OpenWhiskDefault;
pub use schedulers::{JoinShortestQueue, MinWorkerSet, RoundRobin};
