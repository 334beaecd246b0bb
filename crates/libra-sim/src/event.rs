//! The discrete-event queue.
//!
//! One total order, `(time, sequence)`: the monotonically increasing sequence
//! number breaks ties deterministically in insertion order, which makes every
//! simulation run bit-reproducible for a given trace and seed.
//!
//! Behind that order sit a binary min-heap and three FIFO *timer lanes*: one
//! for [`Event::NodeTick`], one for the health pings ([`Event::PingRound`],
//! and [`Event::HealthPing`] once a fault has moved a node off the round)
//! and one for [`Event::UtilizationSample`]. Those are the periodic events,
//! and each kind is pushed at `now + interval` with one interval, so its
//! pushes already arrive in time order: appending to a `VecDeque` keeps the
//! lane sorted without sifting anything. A push that would land behind its
//! lane's last entry (a jitter-stretched tick, a fault-delayed ping) goes to
//! the heap instead, so correctness never depends on the interval constants.
//! [`EventQueue::pop_before`] takes the minimum `(time, sequence)` over the
//! heap head and the three lane fronts — exactly what one heap holding
//! everything would pop — in one probe.
//!
//! A ping round is one queue entry standing for one `HealthPing` per member
//! node. It takes one sequence number per member and counts one push and one
//! pop per member ([`Event::weight`]), so [`EventQueue::ops`] counts the
//! simulated events, not the physical queue entries.
//!
//! Completion events must be *rescheduled* whenever a running invocation's
//! rate changes (harvest, acceleration, preemptive release, timeliness
//! revocation, a CPU-share squeeze). Rather than deleting queue entries, each
//! invocation carries a generation counter: stale `Finish` events whose
//! generation no longer matches are ignored when popped. This is the standard
//! lazy-deletion technique for reschedulable timers.

use crate::fault::FaultKind;
use crate::ids::{InvocationId, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Everything that can happen in the simulated cluster.
///
/// Trace arrivals are *not* events: the engine streams them from the sorted
/// trace, admitting each one when its arrival time is due, so the queue only
/// ever holds the dynamic future — its size tracks in-flight work, not trace
/// length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A sharded scheduler finished its decision service time for the
    /// invocation at the head of its queue.
    DecisionDone {
        /// Scheduler shard index.
        shard: u32,
    },
    /// A container (warm or freshly cold-started) begins executing. Carries
    /// the attempt epoch it was scheduled under; after a crash requeue the
    /// epoch advances and stale starts are discarded.
    StartExec {
        /// The invocation entering execution.
        inv: InvocationId,
        /// Attempt epoch at scheduling time (lazy cancellation token).
        attempt: u32,
    },
    /// A running invocation finishes. Carries the generation it was scheduled
    /// under; stale generations are discarded.
    Finish {
        /// The finishing invocation.
        inv: InvocationId,
        /// Generation at scheduling time (lazy cancellation token).
        generation: u64,
    },
    /// The per-invocation monitor timer [`Event::NodeTick`] replaced. The
    /// engine never pushes it and drops it as stale; it stays only because
    /// the `event.push_pop_ns` drill of `benchmarks/perf` constructs it — a
    /// `benchmark` PR moves the drill to `NodeTick` and deletes this variant.
    MonitorTick {
        /// The monitored invocation.
        inv: InvocationId,
        /// Attempt epoch the monitor loop belonged to.
        attempt: u32,
    },
    /// One node's monitor daemon fires (the safeguard's cgroup window, §5.2):
    /// every running resident is observed now, in admission order. Armed by
    /// the first resident to run, re-armed while anything is resident.
    NodeTick(NodeId),
    /// Periodic per-node health ping carrying the harvest pool status
    /// piggyback (§6.4), for a node an injected delay moved off the
    /// [`Event::PingRound`].
    HealthPing(NodeId),
    /// One health-ping round: every node still in the common ping phase
    /// pings now, in node order. Stands for `members` [`Event::HealthPing`]s
    /// that would fire at this instant with consecutive sequence numbers.
    PingRound {
        /// Nodes in the round (the engine keeps the list).
        members: u32,
    },
    /// Periodic cluster-wide utilization sample (for Figs 7 and 11).
    UtilizationSample,
    /// Re-run blocked scheduler queues after capacity was released.
    RetryBlocked {
        /// Scheduler shard index.
        shard: u32,
    },
    /// An injected fault fires, carrying the fault itself — the engine does
    /// not need to keep the whole [`FaultPlan`](crate::fault::FaultPlan)
    /// alive to look it up by index. Boxed: faults are rare, and inline
    /// the widest one would set every event's size.
    Fault(Box<FaultKind>),
    /// A crash/abort victim's backoff expired; re-admit it to a scheduler.
    Requeue(InvocationId),
    /// A keep-alive policy's prewarm directive fires: spin up a warm
    /// container for the function at its last execution site (if the node
    /// is alive and the slice has room). Only pushed when
    /// [`Platform::prewarm_after_arrival`](crate::platform::Platform::prewarm_after_arrival)
    /// returns `Some` — the default policy never schedules one, keeping
    /// event sequence numbers (and therefore golden traces) unchanged.
    Prewarm {
        /// Function to prewarm.
        func: crate::ids::FunctionId,
        /// Node to place the warm container on.
        node: NodeId,
        /// Scheduler shard whose slice carries the pin.
        shard: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);
const _: () = assert!(std::mem::size_of::<Scheduled>() == 32);

#[derive(Clone, Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Number of [`Event`] kinds — the length of a per-kind table.
pub const EVENT_KINDS: usize = 10;

impl Event {
    /// Dense index of this event's kind (the two monitor timers share one,
    /// as a ping round shares the single-node ping's).
    pub fn kind(&self) -> usize {
        match self {
            Event::DecisionDone { .. } => 0,
            Event::StartExec { .. } => 1,
            Event::Finish { .. } => 2,
            Event::MonitorTick { .. } | Event::NodeTick(_) => 3,
            Event::HealthPing(_) | Event::PingRound { .. } => 4,
            Event::UtilizationSample => 5,
            Event::RetryBlocked { .. } => 6,
            Event::Fault(_) => 7,
            Event::Requeue(_) => 8,
            Event::Prewarm { .. } => 9,
        }
    }

    /// Simulated events this queue entry stands for: a ping round's member
    /// count, 1 for everything else.
    pub fn weight(&self) -> u64 {
        match self {
            Event::PingRound { members } => u64::from(*members),
            Event::DecisionDone { .. }
            | Event::StartExec { .. }
            | Event::Finish { .. }
            | Event::MonitorTick { .. }
            | Event::NodeTick(_)
            | Event::HealthPing(_)
            | Event::UtilizationSample
            | Event::RetryBlocked { .. }
            | Event::Fault(_)
            | Event::Requeue(_)
            | Event::Prewarm { .. } => 1,
        }
    }

    /// The timer lane a periodic event queues in; `None` for everything the
    /// heap orders.
    fn lane(&self) -> Option<usize> {
        match self {
            Event::MonitorTick { .. } | Event::NodeTick(_) => Some(0),
            Event::HealthPing(_) | Event::PingRound { .. } => Some(1),
            Event::UtilizationSample => Some(2),
            Event::DecisionDone { .. }
            | Event::StartExec { .. }
            | Event::Finish { .. }
            | Event::RetryBlocked { .. }
            | Event::Fault(_)
            | Event::Requeue(_)
            | Event::Prewarm { .. } => None,
        }
    }
}

/// Deterministic future-event list.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// FIFO timer lanes, indexed by [`Event::lane`]. Each is sorted by
    /// `(at, seq)`: `push` appends only in time order, and sequence numbers
    /// only grow.
    lanes: [VecDeque<Scheduled>; 3],
    next_seq: u64,
    pops: u64,
}

/// Where the earliest pending event sits.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Lane(usize),
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `at`. It takes one sequence number
    /// per simulated event it stands for ([`Event::weight`]).
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += event.weight();
        let scheduled = Scheduled { at, seq, event };
        match scheduled.event.lane().map(|l| &mut self.lanes[l]) {
            Some(lane) if lane.back().is_none_or(|last| last.at <= at) => {
                lane.push_back(scheduled);
            }
            _ => self.heap.push(scheduled),
        }
    }

    /// The earliest pending `(at, seq)` over the heap head and the lane
    /// fronts, and where it sits.
    fn earliest(&self) -> Option<(SimTime, Source)> {
        let mut best = self.heap.peek().map(|s| (s.at, s.seq, Source::Heap));
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(s) = lane.front() {
                if best.is_none_or(|(at, seq, _)| (s.at, s.seq) < (at, seq)) {
                    best = Some((s.at, s.seq, Source::Lane(l)));
                }
            }
        }
        best.map(|(at, _, source)| (at, source))
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(None)
    }

    /// Pop the earliest event only if it is strictly earlier than `limit`
    /// (`None`: no limit). The engine passes the next trace arrival, which
    /// wins a tie; one probe finds the head and takes it.
    pub fn pop_before(&mut self, limit: Option<SimTime>) -> Option<(SimTime, Event)> {
        let (at, source) = self.earliest()?;
        if limit.is_some_and(|limit| at >= limit) {
            return None;
        }
        let popped = match source {
            Source::Heap => self.heap.pop(),
            Source::Lane(l) => self.lanes[l].pop_front(),
        }?;
        self.pops += popped.event.weight();
        Some((popped.at, popped.event))
    }

    /// Lifetime operation counters `(pushes, pops)` in simulated events (a
    /// ping round counts once per member) — the denominator for the
    /// benchmark's events/sec figure. Pushes equal the total sequence
    /// numbers handed out; pops count successful removals only.
    pub fn ops(&self) -> (u64, u64) {
        (self.next_seq, self.pops)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::splitmix64;

    fn inv(n: u32) -> InvocationId {
        InvocationId(n)
    }

    /// The queue as it was before the timer lanes — one heap holding
    /// everything, counting a ping round once per member — kept as the
    /// oracle the lanes must agree with.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
        pops: u64,
    }

    impl HeapOracle {
        fn push(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += event.weight();
            self.heap.push(Scheduled { at, seq, event });
        }

        fn pop_before(&mut self, limit: Option<SimTime>) -> Option<(SimTime, Event)> {
            if limit.is_some_and(|limit| self.head_time().is_some_and(|at| at >= limit)) {
                return None;
            }
            let popped = self.heap.pop()?;
            self.pops += popped.event.weight();
            Some((popped.at, popped.event))
        }

        fn ops(&self) -> (u64, u64) {
            (self.next_seq, self.pops)
        }

        fn head_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|s| s.at)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

    #[test]
    fn lanes_pop_exactly_what_one_heap_would() {
        let in_lanes = |q: &EventQueue| q.lanes.iter().map(VecDeque::len).sum::<usize>();
        for seed in [1u64, 7, 42, 43, 2026] {
            let mut rng = seed;
            let (mut q, mut oracle) = (EventQueue::new(), HeapOracle::default());
            // The clock only moves forward, in steps that often are zero, and
            // offsets come from a handful of values: many events — across
            // lanes and heap — share one instant.
            let mut now = 0u64;
            let (mut via_lane, mut fell_back, mut held) = (0usize, 0usize, 0usize);
            for step in 0..12_000u32 {
                let r = splitmix64(&mut rng);
                now += [0, 0, 0, 25][(r >> 32) as usize % 4];
                if r % 16 < 9 {
                    let event = match (r >> 8) % 7 {
                        0 | 1 => Event::NodeTick(NodeId(step)),
                        2 => Event::HealthPing(NodeId(step % 4)),
                        3 => Event::UtilizationSample,
                        4 => Event::Finish { inv: inv(step), generation: r >> 40 },
                        5 => Event::PingRound { members: 1 + (r >> 44) as u32 % 300 },
                        _ => Event::Requeue(inv(step)),
                    };
                    // Mostly the kind's fixed interval (in order); sometimes a
                    // stretched or shortened one (out of order for a lane).
                    let offset = match (r >> 16) % 16 {
                        0 => 0,
                        1 => 50 * ((r >> 24) % 5),
                        2 => 300,
                        _ => 100,
                    };
                    let before = in_lanes(&q);
                    q.push(SimTime(now + offset), event.clone());
                    if in_lanes(&q) > before {
                        via_lane += 1;
                    } else if event.lane().is_some() {
                        fell_back += 1;
                    }
                    oracle.push(SimTime(now + offset), event);
                } else {
                    // A limit before, at or after the head, or none: only a
                    // head strictly earlier than the limit pops.
                    let limit = oracle.head_time().and_then(|head| match (r >> 8) % 4 {
                        0 => None,
                        1 => Some(SimTime(head.0.saturating_sub(1))),
                        2 => Some(head),
                        _ => Some(SimTime(head.0 + 1)),
                    });
                    let popped = q.pop_before(limit);
                    held += usize::from(popped.is_none() && !q.is_empty());
                    assert_eq!(popped, oracle.pop_before(limit), "seed {seed} step {step}");
                }
                assert_eq!(q.len(), oracle.len(), "seed {seed} step {step}");
                assert_eq!(q.is_empty(), oracle.is_empty());
                assert_eq!(q.ops(), oracle.ops());
            }
            // Every path must have carried real traffic for the run to mean
            // anything: lane appends, lane-class events the heap took, and
            // heads a limit held back.
            assert!(via_lane > 1_000, "seed {seed}: only {via_lane} lane appends");
            assert!(fell_back > 1_000, "seed {seed}: only {fell_back} heap fallbacks");
            assert!(held > 1_000, "seed {seed}: a limit held the head back only {held} times");
            while let Some(want) = oracle.pop_before(None) {
                assert_eq!(q.pop(), Some(want), "seed {seed} drain");
            }
            assert_eq!(q.pop(), None);
            assert_eq!(q.ops(), oracle.ops());
        }
    }

    #[test]
    fn out_of_order_tick_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        let tick = |n| Event::NodeTick(NodeId(n));
        q.push(SimTime::from_millis(100), tick(0));
        // A jitter-stretched tick, then ordinary ones behind it in time.
        q.push(SimTime::from_millis(350), tick(1));
        q.push(SimTime::from_millis(200), tick(2));
        q.push(SimTime::from_millis(350), tick(3));
        q.push(SimTime::from_millis(300), tick(4));
        assert_eq!(q.lanes[0].len(), 3, "in-order ticks queue in the lane");
        assert_eq!(q.heap.len(), 2, "ticks behind the lane's last entry go to the heap");
        assert_eq!(q.len(), 5);
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::NodeTick(node) => (t.as_micros() / 1_000, node.0),
                _ => unreachable!(),
            })
            .collect();
        // (at, seq) order: the two 350 ms ticks keep their insertion order.
        assert_eq!(order, vec![(100, 0), (200, 2), (300, 4), (350, 1), (350, 3)]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), Event::Requeue(inv(3)));
        q.push(SimTime::from_millis(10), Event::Requeue(inv(1)));
        q.push(SimTime::from_millis(20), Event::Requeue(inv(2)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.as_micros()).collect();
        assert_eq!(order, vec![10_000, 20_000, 30_000]);
        assert_eq!(q.ops(), (3, 3));
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, Event::Requeue(inv(i)));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Requeue(i) => i.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn an_arrival_at_the_head_wins_the_tie() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop_before(None), None);
        let at = SimTime::from_secs(1);
        q.push(at, Event::UtilizationSample);
        assert_eq!(q.pop_before(Some(SimTime::from_millis(999))), None);
        assert_eq!(q.pop_before(Some(at)), None, "a limit equal to the head keeps it");
        assert_eq!(q.len(), 1);
        assert_eq!(q.ops(), (1, 0));
        assert_eq!(q.pop_before(Some(SimTime(at.0 + 1))), Some((at, Event::UtilizationSample)));
        assert!(q.pop().is_none());
        assert_eq!(q.ops(), (1, 1));
    }

    #[test]
    fn a_ping_round_counts_once_per_member() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(500);
        q.push(t, Event::PingRound { members: 300 });
        q.push(t, Event::HealthPing(NodeId(7)));
        assert_eq!(q.ops(), (301, 0), "one push per member");
        assert_eq!(q.len(), 2, "in two queue entries");
        assert_eq!(q.pop(), Some((t, Event::PingRound { members: 300 })));
        assert_eq!(q.pop(), Some((t, Event::HealthPing(NodeId(7)))));
        assert_eq!(q.ops(), (301, 301), "one pop per member");
    }
}
