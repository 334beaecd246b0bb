//! # libra-ml — from-scratch ML models for Libra's profiler
//!
//! The paper's profiler (§4) trains, per function, two classifiers (CPU and
//! memory usage-peak classes) and one regressor (execution time), and the
//! model study of §8.6 / Table 2 compares four families — Logistic/Linear
//! Regression, SVM, Neural Network, and Random Forest — plus histogram
//! models for input size-unrelated functions. The original implementation
//! used scikit-learn and NumPy; this crate reimplements everything needed in
//! pure Rust so that the entire study is reproducible offline:
//!
//! * [`tree`] / [`forest`] — CART trees and bagged random forests,
//! * [`linear`] — linear regression (normal equations) and one-vs-rest
//!   logistic regression,
//! * [`svm`] — one-vs-rest linear SVM (Pegasos-style SGD),
//! * [`nn`] — a one-hidden-layer MLP,
//! * [`histogram`] — streaming histograms with tail/head percentile queries,
//! * [`dataset`], [`scaler`], [`metrics`] — plumbing (7:3 splits, feature
//!   standardization, accuracy and R²).
//!
//! All models are deterministic given their seeds; forest training fans out
//! across crossbeam scoped threads where there is more than one core, and
//! runs inline on one.

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
pub mod linear;
pub mod metrics;
pub mod nn;
pub mod scaler;
pub mod svm;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestParams, RandomForest};
pub use histogram::StreamingHistogram;
pub use linear::{LinearRegression, LogisticRegression};
pub use metrics::{accuracy, r2_score};
pub use nn::{Mlp, MlpTask};
pub use svm::LinearSvm;
pub use tree::{DecisionTree, Task, TreeParams};
