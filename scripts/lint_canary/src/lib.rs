//! One violation per lint of the DESIGN.md §6 deny set and per entry of the root
//! `clippy.toml`. `scripts/lint_canary.sh` runs clippy here and fails unless clippy
//! fails and names every one of them: what it tests is that this toolchain's
//! clippy still knows each lint, still fires it on the plainest violation, and
//! reads the determinism list from `clippy.toml`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unimplemented, clippy::indexing_slicing, clippy::cast_possible_truncation)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods, clippy::float_cmp)]
#![deny(clippy::wildcard_enum_match_arm, clippy::allow_attributes_without_reason)]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub enum Verdict {
    Lend,
    Revoke,
    Requeue,
}

pub fn panic_family(o: Option<u32>, v: &[u32], i: usize) -> u32 {
    match i {
        0 => panic!("boom"),
        1 => todo!(),
        2 => unimplemented!(),
        3 => o.unwrap(),
        4 => o.expect("present"),
        _ => v[i + 1],
    }
}

pub fn determinism(m: HashMap<u32, u32>, s: HashSet<u32>) -> (usize, Instant, SystemTime) {
    (m.len() + s.len(), Instant::now(), SystemTime::now())
}

pub fn wildcard_float_cast(a: Verdict, x: f64, n: u64) -> (bool, u32) {
    match a {
        Verdict::Lend => (x == 0.5, n as u32),
        _ => (false, 0),
    }
}

#[allow(clippy::unwrap_used)]
pub fn excused_without_a_reason(o: Option<u32>) -> u32 {
    o.unwrap()
}

#[expect(clippy::float_cmp, reason = "stale: nothing below compares floats")]
pub fn expectation_nothing_fulfils() {}
