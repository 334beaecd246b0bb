//! # libra-ml — the models Libra's profiler runs, built from scratch
//!
//! The paper's profiler (§4) trains, per function, two classifiers (CPU and
//! memory usage-peak classes) and one regressor (execution time) as random
//! forests, and models input size-unrelated functions with histograms. The
//! original implementation used scikit-learn and NumPy; this crate is the
//! pure-Rust replacement, so the profiler runs offline:
//!
//! * [`tree`] / [`forest`] — CART trees and bagged random forests,
//! * [`histogram`] — streaming histograms with tail/head percentile queries,
//! * [`dataset`], [`metrics`] — the 7:3 train/test split, accuracy and R².
//!
//! Table 2's other model families (LR, SVM, NN), which the profiler never
//! runs, live in the experiment that compares them (`libra-bench`'s
//! `experiments::table2`).
//!
//! All models are deterministic given their seeds, and every fit runs on the
//! caller's thread: the callers spread work over cores themselves.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod dataset;
pub mod forest;
pub mod histogram;
pub mod metrics;
pub mod tree;

pub use forest::{ForestParams, RandomForest};
pub use histogram::StreamingHistogram;
pub use metrics::{accuracy, r2_score};
pub use tree::Task;
