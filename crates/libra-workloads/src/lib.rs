//! # libra-workloads — applications, datasets, and traces for the Libra
//! evaluation
//!
//! Synthetic but statistically faithful stand-ins for the evaluation inputs
//! of the paper (§8.2): the ten SeBS-like applications of Table 1
//! ([`apps`]), seeded input datasets replacing CIFAR-100 / YouTube-8M /
//! NCBI / igraph ([`datasets`]), and Azure-Functions-like invocation traces
//! ([`trace`] — the `single` set, the ten `multi` sets, Poisson and
//! large-catalogue traces). See DESIGN.md §1 for the substitution rationale.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // in test code too
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
#![warn(missing_docs)]

pub mod apps;
pub mod datasets;
pub mod trace;

pub use apps::{sebs_suite, suite, AppKind, AppModel, ALL_APPS};
pub use datasets::{standard_pools, InputPool};
pub use trace::TraceGen;

/// Testbed presets matching §8.2.1.
pub mod testbeds {
    use libra_sim::resources::ResourceVec;

    /// Single-node cluster: one worker with 72 cores / 72 GB.
    pub fn single_node() -> Vec<ResourceVec> {
        vec![ResourceVec::from_cores_mb(72, 72 * 1024)]
    }

    /// Multi-node cluster: four workers with 32 cores / 32 GB each.
    pub fn multi_node() -> Vec<ResourceVec> {
        vec![ResourceVec::from_cores_mb(32, 32 * 1024); 4]
    }

    /// Jetstream-like cluster: `n` workers with 24 cores / 24 GB each
    /// (n up to 50 in the paper).
    pub fn jetstream(n: usize) -> Vec<ResourceVec> {
        vec![ResourceVec::from_cores_mb(24, 24 * 1024); n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbeds_match_paper_shapes() {
        assert_eq!(testbeds::single_node().len(), 1);
        assert_eq!(testbeds::multi_node().len(), 4);
        assert_eq!(testbeds::jetstream(50).len(), 50);
        let n = testbeds::jetstream(1)[0];
        assert_eq!(n.cpu_millis, 24_000);
        assert_eq!(n.mem_mb, 24 * 1024);
    }
}
