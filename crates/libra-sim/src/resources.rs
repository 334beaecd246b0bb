//! Two-dimensional resource vectors.
//!
//! Libra decouples CPU and memory (§7 "Frontend"): a function invocation is
//! allocated `(cpu, memory)` independently, and both dimensions are harvested
//! and reassigned separately. CPU is tracked in **millicores** (1000 = one
//! core) so fine-grained harvesting like "half a core" is representable;
//! memory is tracked in whole **MB** like OpenWhisk.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Millicores per physical core.
pub const MILLIS_PER_CORE: u64 = 1_000;

/// Checked float→integer conversion for resource volumes: NaN and negative
/// values clamp to 0, overflow saturates at `u64::MAX`. The single audited
/// home for float→int truncation in `libra-sim` and `libra-core`, where a raw
/// `as` that can truncate is `clippy::cast_possible_truncation`, denied.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "the audited cast: see the body")]
pub fn sat_u64(x: f64) -> u64 {
    if x.is_nan() {
        0
    } else {
        // `as` on a finite/infinite float already saturates at the integer
        // range bounds and truncates toward zero.
        x as u64
    }
}

/// A `(cpu, memory)` pair. All arithmetic saturates at zero so transient
/// bookkeeping imbalances can never underflow and panic mid-simulation; the
/// engine separately asserts its conservation invariants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize)]
pub struct ResourceVec {
    /// CPU in millicores (1000 = 1 core).
    pub cpu_millis: u64,
    /// Memory in MB.
    pub mem_mb: u64,
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec { cpu_millis: 0, mem_mb: 0 };

    /// Construct from whole cores and MB.
    pub fn from_cores_mb(cores: u64, mem_mb: u64) -> Self {
        ResourceVec { cpu_millis: cores * MILLIS_PER_CORE, mem_mb }
    }

    /// Construct from millicores and MB.
    pub fn new(cpu_millis: u64, mem_mb: u64) -> Self {
        ResourceVec { cpu_millis, mem_mb }
    }

    /// CPU expressed in fractional cores (for reporting).
    pub fn cores_f64(&self) -> f64 {
        self.cpu_millis as f64 / MILLIS_PER_CORE as f64
    }

    /// True when both dimensions are zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// True when both dimensions fit inside `other` (component-wise `<=`).
    pub fn fits_within(&self, other: &ResourceVec) -> bool {
        self.cpu_millis <= other.cpu_millis && self.mem_mb <= other.mem_mb
    }

    /// Component-wise minimum.
    pub fn min(&self, other: &ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_millis: self.cpu_millis.min(other.cpu_millis),
            mem_mb: self.mem_mb.min(other.mem_mb),
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_millis: self.cpu_millis.max(other.cpu_millis),
            mem_mb: self.mem_mb.max(other.mem_mb),
        }
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_millis: self.cpu_millis.saturating_sub(other.cpu_millis),
            mem_mb: self.mem_mb.saturating_sub(other.mem_mb),
        }
    }

    /// Scale both dimensions by an integer divisor, rounding down.
    /// Used to shard a node's capacity across schedulers (§6.4).
    pub fn div(&self, k: u64) -> ResourceVec {
        assert!(k > 0, "division of a ResourceVec by zero shards");
        ResourceVec { cpu_millis: self.cpu_millis / k, mem_mb: self.mem_mb / k }
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            cpu_millis: self.cpu_millis + rhs.cpu_millis,
            mem_mb: self.mem_mb + rhs.mem_mb,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        self.cpu_millis += rhs.cpu_millis;
        self.mem_mb += rhs.mem_mb;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        self.saturating_sub(&rhs)
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        *self = self.saturating_sub(&rhs);
    }
}

impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}c, {}MB)", self.cores_f64(), self.mem_mb)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_cores() {
        let r = ResourceVec::from_cores_mb(2, 1024);
        assert_eq!(r.cpu_millis, 2000);
        assert_eq!(r.mem_mb, 1024);
        assert!((r.cores_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fits_within_is_component_wise() {
        let small = ResourceVec::new(500, 256);
        let big = ResourceVec::new(1000, 512);
        let mixed = ResourceVec::new(2000, 128);
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
        assert!(!mixed.fits_within(&big));
        assert!(!big.fits_within(&mixed));
        assert!(small.fits_within(&small), "fits_within must be reflexive");
    }

    #[test]
    fn saturating_arithmetic() {
        let a = ResourceVec::new(100, 100);
        let b = ResourceVec::new(300, 50);
        assert_eq!(a - b, ResourceVec::new(0, 50));
        assert_eq!(a + b, ResourceVec::new(400, 150));
        let mut c = a;
        c -= b;
        assert_eq!(c, ResourceVec::new(0, 50));
    }

    #[test]
    fn min_max_div() {
        let a = ResourceVec::new(100, 400);
        let b = ResourceVec::new(300, 50);
        assert_eq!(a.min(&b), ResourceVec::new(100, 50));
        assert_eq!(a.max(&b), ResourceVec::new(300, 400));
        assert_eq!(
            ResourceVec::from_cores_mb(32, 32_768).div(4),
            ResourceVec::from_cores_mb(8, 8192)
        );
    }

    #[test]
    #[should_panic(expected = "zero shards")]
    fn div_by_zero_panics() {
        let _ = ResourceVec::new(1, 1).div(0);
    }
}
