//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a pre-computed, time-sorted list of faults that the
//! engine replays against a simulation via
//! [`Simulation::run_with_faults`](crate::engine::Simulation::run_with_faults).
//! Plans are plain data: building one never touches a clock or an RNG, so the
//! same plan replayed against the same trace produces bit-identical results.
//! An empty plan is provably inert — `Simulation::run` itself delegates to
//! `run_with_faults` with [`FaultPlan::empty`], so the disabled path *is* the
//! normal path.
//!
//! The fault vocabulary mirrors the failure domains of the Libra control
//! plane: worker nodes (crash/recover), individual invocations (abort),
//! scheduler shards (stall/resume), the health-ping channel that carries
//! piggybacked pool snapshots (§6.4; drop/delay), and the per-invocation
//! monitor loop (tick jitter).

use crate::ids::{InvocationId, NodeId};
use crate::time::{SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum FaultKind {
    /// The node dies: resident invocations lose their containers, all loans
    /// touching the node are revoked, and the node stops answering health
    /// pings until a matching [`FaultKind::NodeRecover`].
    NodeCrash(NodeId),
    /// The node comes back empty (no warm containers, fresh pool).
    NodeRecover(NodeId),
    /// Abort one invocation's current attempt (e.g. a container runtime
    /// failure). The invocation is requeued with backoff like a crash victim.
    AbortInvocation(InvocationId),
    /// The scheduler shard stops making placement decisions.
    ShardStall(usize),
    /// The stalled shard resumes and drains its queue.
    ShardResume(usize),
    /// Drop the node's next health ping: the warm-pool sweep still runs on
    /// the node, but the platform never sees the ping (or its piggybacked
    /// pool snapshot), aging the scheduler's view.
    PingDrop(NodeId),
    /// Delay the node's next health ping by `by`.
    PingDelay {
        /// Node whose next ping is late.
        node: NodeId,
        /// How late it arrives.
        by: SimDuration,
    },
    /// Add one-shot jitter to the next monitor tick any node fires.
    TickJitter(SimDuration),
}

/// A fault scheduled at a simulated instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of faults to replay against one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults. Running with this is byte-identical to running
    /// without fault injection at all.
    pub fn empty() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Build a plan from arbitrary events; they are stably sorted by time so
    /// same-instant faults keep their insertion order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Append a fault, keeping the plan sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// The scheduled faults in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_stably_by_time() {
        let mut p = FaultPlan::new(vec![
            FaultEvent { at: SimTime::from_secs(2), kind: FaultKind::NodeCrash(NodeId(0)) },
            FaultEvent { at: SimTime::from_secs(1), kind: FaultKind::ShardStall(0) },
        ]);
        p.push(SimTime::from_secs(1), FaultKind::ShardResume(0));
        assert_eq!(p.len(), 3);
        assert_eq!(p.events()[0].kind, FaultKind::ShardStall(0));
        assert_eq!(p.events()[1].kind, FaultKind::ShardResume(0));
        assert_eq!(p.events()[2].kind, FaultKind::NodeCrash(NodeId(0)));
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert_eq!(FaultPlan::default(), FaultPlan::empty());
    }
}
