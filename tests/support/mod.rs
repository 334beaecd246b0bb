//! Oracles the equivalence proptests compare the shipped data structures
//! against: the implementations those replaced, kept verbatim.

pub mod cut_scan_coverage;
pub mod seed_warm_pool;
pub mod sorted_scan_pool;
