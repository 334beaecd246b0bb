//! Debug-build conservation auditor for the harvest control plane.
//!
//! Every public [`ControlPlane`] event
//! method runs its full batch of ledger mutations and then calls
//! [`post_event`]. Under `debug_assertions` the auditor re-validates the
//! conservation invariants the proptests pin down (§3.1 timeliness, §4/§5
//! safeguard accounting):
//!
//! * Σ of loans recorded against a source equals that source's `lent_out`,
//! * every live loan's source is itself live and on the same node,
//! * no invocation's charge (own grant + lent out) exceeds its nominal.
//!
//! A violation is a control-plane bug, never an input error, so the auditor
//! fails loudly with the ledger dump. Release builds compile it away — the
//! hot path pays one branch on a constant.

use crate::controlplane::ControlPlane;

/// Number of conservation audits performed (debug builds only); lets tests
/// assert the auditor is actually wired in.
#[cfg(debug_assertions)]
static AUDITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Validate the ledger after `event` mutated it. Panics (debug builds only)
/// with the failing invariant and a full ledger dump.
pub fn post_event(cp: &ControlPlane, event: &str) {
    if cfg!(debug_assertions) {
        #[cfg(debug_assertions)]
        AUDITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Err(why) = cp.check_conservation() {
            debug_assert!(
                false,
                "conservation audit failed after {event}: {why}\nledger:\n{}",
                cp.dump()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controlplane::{Admission, ControlConfig};
    use libra_sim::ids::{InvocationId, NodeId};
    use libra_sim::resources::ResourceVec;
    use libra_sim::time::SimTime;

    /// Audits run so far in this process (always 0 in release builds).
    fn audit_count() -> u64 {
        #[cfg(debug_assertions)]
        {
            AUDITS.load(std::sync::atomic::Ordering::Relaxed)
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    #[test]
    fn events_are_audited_in_debug_builds() {
        let before = audit_count();
        let mut cp = ControlPlane::new(ControlConfig::default(), 1, 1);
        cp.on_admit(
            Admission {
                inv: InvocationId(1),
                node: NodeId(0),
                func: 0,
                nominal: ResourceVec::new(1_000, 512),
                mem_floor_mb: 64,
                pred: None,
            },
            SimTime(0),
        );
        cp.on_complete(InvocationId(1), SimTime(10));
        if cfg!(debug_assertions) {
            assert!(audit_count() >= before + 2, "auditor not wired into event methods");
        }
    }
}
