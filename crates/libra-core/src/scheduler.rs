//! Timeliness-aware function scheduling (§6).
//!
//! The scheduler classifies invocations by comparing user-defined resources
//! with the profiler's estimates (§6.3):
//!
//! * **non-accelerable** (user allocation covers the demand): hashed to a
//!   stable node for warm-container locality, rehashing on full nodes;
//! * **accelerable** (demand exceeds the allocation): greedily sent to the
//!   node with the maximum *weighted demand coverage* (§6.2) among those
//!   with room for the user allocation.
//!
//! Every scheduler shard sees the same per-node pool status, learned from
//! piggybacked health pings (§6.4) — snapshots are therefore slightly stale,
//! exactly like production.
//!
//! That rule is written once, as [`place`] over two closures (does node *i*
//! fit; what does its pool advertise), and every substrate asks it: the
//! selectors below and the live [`crate::sharding::ShardedScheduler`]; the
//! harness's batch ablation (`libra_bench::batch`) runs its coverage scan,
//! [`max_coverage`]. `hash_func` is the only function hash, so a function's
//! home node is the same everywhere.

use crate::coverage::demand_coverage;
use crate::pool::{PoolEntryStatus, PoolSnapshot};
use libra_sim::engine::World;
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::metrics::splitmix64;
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// A pool snapshot older than this (i.e. this many missed health pings at
/// the default 500 ms interval) is stale: the node may be partitioned or
/// dead, and its advertised idle resources cannot be trusted.
pub const STALE_VIEW_AFTER: SimDuration = SimDuration(2_000_000);

/// The scheduler-side view of cluster pool state, refreshed by health pings:
/// one slot per node, indexed by node id — when the node's last ping arrived
/// (`None`: never, or forgotten since) and the pool snapshot it carried. A
/// slot's snapshot buffer is kept and overwritten in place, so a ping
/// allocates nothing and a lookup is an index and a compare.
#[derive(Debug, Default)]
pub struct SchedView {
    nodes: Vec<(Option<SimTime>, PoolSnapshot)>,
}

impl SchedView {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a health ping from `node` at `now` and hand out the node's
    /// snapshot buffer for the ping's payload to overwrite (growing the view
    /// to cover a node it has not heard from before).
    pub fn note_ping(&mut self, node: NodeId, now: SimTime) -> &mut PoolSnapshot {
        if node.idx() >= self.nodes.len() {
            self.nodes.resize_with(node.idx() + 1, Default::default);
        }
        let slot = &mut self.nodes[node.idx()];
        slot.0 = Some(now);
        &mut slot.1
    }

    /// Reset `node`'s slot to "never pinged": it crashed, so its snapshot
    /// describes a pool that no longer exists, and a recovered node starts
    /// from a clean slate rather than stale.
    pub fn forget(&mut self, node: NodeId) {
        if let Some(slot) = self.nodes.get_mut(node.idx()) {
            *slot = Default::default();
        }
    }

    /// True when the node has pinged before but not recently — missed pings
    /// mean its snapshot describes a pool that may no longer exist. A node
    /// that has never pinged is *not* stale: at startup there is simply no
    /// snapshot yet, which the coverage loop already treats as empty.
    pub fn is_stale(&self, node: NodeId, now: SimTime) -> bool {
        let last = self.nodes.get(node.idx()).and_then(|slot| slot.0);
        last.is_some_and(|last| now.since(last) > STALE_VIEW_AFTER)
    }

    /// True when every known node's view is stale — the scheduler has lost
    /// contact with the pool layer entirely and must stop trusting it.
    pub fn all_stale(&self, now: SimTime) -> bool {
        let mut pinged = self.nodes.iter().filter_map(|slot| slot.0).peekable();
        pinged.peek().is_some() && pinged.all(|last| now.since(last) > STALE_VIEW_AFTER)
    }

    /// What `node`'s pool can be trusted to hold at `now`: its last
    /// snapshot, or nothing when it never pinged or its view is stale (the
    /// pool may be gone — crashed node, dropped pings).
    pub fn fresh(&self, node: NodeId, now: SimTime) -> &[PoolEntryStatus] {
        if self.is_stale(node, now) {
            return &[];
        }
        self.nodes.get(node.idx()).map_or(&[], |slot| &slot.1)
    }
}

/// A scheduling request, as the front end would deliver it.
#[derive(Clone, Debug)]
pub struct ScheduleRequest {
    /// User-defined allocation (admission unit).
    pub nominal: ResourceVec,
    /// Extra demand beyond the allocation (zero ⇒ non-accelerable).
    pub extra: ResourceVec,
    /// Function id (drives the non-accelerable hash).
    pub func: u32,
    /// Predicted execution duration (the coverage window).
    pub duration: SimDuration,
    /// Logical now for coverage integration.
    pub now: SimTime,
}

/// Deterministic function-id hash: one splitmix64 step from state `f`. The
/// golden traces pin it.
fn hash_func(f: u32) -> u64 {
    splitmix64(&mut u64::from(f))
}

/// The candidate whose pool snapshot gives `extra` the greatest weighted
/// demand coverage (§6.2) over `[now, now + dur]`, and that coverage. Equal
/// coverages (within 1e-12) go to the earlier candidate.
pub fn max_coverage<'a>(
    extra: ResourceVec,
    now: SimTime,
    dur: SimDuration,
    alpha: f64,
    candidates: impl IntoIterator<Item = (usize, &'a [PoolEntryStatus])>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, snap) in candidates {
        let c = demand_coverage(snap, extra, now, dur, alpha);
        if best.is_none_or(|(_, bc)| c > bc + 1e-12) {
            best = Some((i, c));
        }
    }
    best
}

/// The §6.3 placement rule over node indices `0..nodes`: `fits(i)` says
/// whether node *i* has room for the user allocation, `snapshot(i)` what its
/// harvest pool advertises. A non-accelerable request (`extra` zero) takes
/// the first fitting node probing linearly from its function's hash home (no
/// pool knowledge needed); an accelerable one the fitting node with the
/// maximum coverage, ties to the lowest index. `None` when nothing fits.
pub fn place<'a>(
    req: &ScheduleRequest,
    alpha: f64,
    nodes: usize,
    fits: impl Fn(usize) -> bool,
    snapshot: impl Fn(usize) -> &'a [PoolEntryStatus],
) -> Option<usize> {
    if nodes == 0 {
        return None;
    }
    if req.extra.is_zero() {
        #[expect(clippy::cast_possible_truncation, reason = "a remainder of `nodes`, a usize")]
        let home = (hash_func(req.func) % nodes as u64) as usize;
        return (0..nodes).map(|k| (home + k) % nodes).find(|&i| fits(i));
    }
    let fitting = (0..nodes).filter(|&i| fits(i)).map(|i| (i, snapshot(i)));
    max_coverage(req.extra, req.now, req.duration, alpha, fitting).map(|(i, _)| i)
}

/// Classification of an invocation (§6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvClass {
    /// User-defined resources cover (or exceed) the estimated demand.
    NonAccelerable,
    /// Estimated demand exceeds the user-defined resources in some dimension;
    /// carries the extra volume wanted.
    Accelerable(ResourceVec),
}

/// Classify from the prediction stored on the invocation (engine stores it
/// at arrival). Unprofiled invocations are non-accelerable by definition.
pub fn classify(world: &World, inv: InvocationId) -> InvClass {
    let rec = world.inv(inv);
    match rec.pred {
        None => InvClass::NonAccelerable,
        Some(p) => {
            let extra = p.peak().saturating_sub(&rec.nominal);
            if extra.is_zero() {
                InvClass::NonAccelerable
            } else {
                InvClass::Accelerable(extra)
            }
        }
    }
}

/// A pluggable node-selection strategy. Libra's coverage-greedy algorithm,
/// OpenWhisk's hashing, and the RR/JSQ/MWS baselines of §8.4 all implement
/// this; the surrounding platform (profiler + harvesting + safeguard) stays
/// identical, which is how the paper isolates the scheduling comparison.
pub trait NodeSelector: Send {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Pick a node for `inv` within `shard`, or `None` to park it until
    /// capacity frees up.
    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId>;
}

/// [`place`] for `inv` over `shard`'s slice of each simulated node; `extra`
/// zero asks the non-accelerable half whatever the invocation's class.
fn place_in_world<'a>(
    world: &World,
    shard: usize,
    inv: InvocationId,
    extra: ResourceVec,
    alpha: f64,
    snapshot: impl Fn(NodeId) -> &'a [PoolEntryStatus],
) -> Option<NodeId> {
    let rec = world.inv(inv);
    let req = ScheduleRequest {
        nominal: rec.nominal,
        extra,
        func: rec.func.0,
        duration: rec.pred.map_or(SimDuration::ZERO, |p| p.duration),
        now: world.now(),
    };
    // `place` asks about `i < num_nodes` only, which `World` numbers in u32.
    let node = |i: usize| NodeId(u32::try_from(i).unwrap_or(u32::MAX));
    place(
        &req,
        alpha,
        world.num_nodes(),
        |i| rec.nominal.fits_within(&world.free_in_shard(node(i), shard)),
        |i| snapshot(node(i)),
    )
    .map(node)
}

/// Hash with linear probing: the first node (starting at the function's hash
/// home) whose shard slice fits the user allocation. This is both the
/// OpenWhisk default algorithm and Libra's path for non-accelerable
/// invocations — [`place`] with nothing extra to chase.
pub fn hash_probe(world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
    place_in_world(world, shard, inv, ResourceVec::ZERO, 0.0, |_| &[])
}

/// OpenWhisk's default algorithm as a pluggable selector: pure
/// function-hashing with linear probing for every invocation (baseline 1 of
/// §8.4).
#[derive(Debug, Default)]
pub struct HashSelector;

impl NodeSelector for HashSelector {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        hash_probe(world, shard, inv)
    }
}

/// Libra's scheduler: hashing for non-accelerable invocations, greedy
/// maximum weighted demand coverage for accelerable ones (§6.3).
#[derive(Debug, Default)]
pub struct CoverageSelector;

impl NodeSelector for CoverageSelector {
    fn name(&self) -> &'static str {
        "libra"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        alpha: f64,
    ) -> Option<NodeId> {
        let now = world.now();
        // Non-accelerable — or contact lost with every pool, so no coverage
        // to trust: ask the half that needs no pool knowledge.
        let extra = match classify(world, inv) {
            InvClass::Accelerable(extra) if !view.all_stale(now) => extra,
            InvClass::Accelerable(_) | InvClass::NonAccelerable => ResourceVec::ZERO,
        };
        place_in_world(world, shard, inv, extra, alpha, |n| view.fresh(n, now))
    }
}

/// Timeliness-blind ablation of Libra's scheduler: accelerable invocations
/// chase the node with the largest idle *volume*, ignoring expiries. Exists
/// to quantify how much the time dimension of demand coverage (§6.2) is
/// worth; not part of the paper's system.
#[derive(Debug, Default)]
pub struct VolumeSelector;

impl NodeSelector for VolumeSelector {
    fn name(&self) -> &'static str {
        "volume-only"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        match classify(world, inv) {
            InvClass::NonAccelerable => hash_probe(world, shard, inv),
            InvClass::Accelerable(_) => {
                let rec = world.inv(inv);
                let mut best: Option<(u64, NodeId)> = None;
                for node in world.node_ids() {
                    if !rec.nominal.fits_within(&world.free_in_shard(node, shard)) {
                        continue;
                    }
                    let vol: u64 = view
                        .nodes
                        .get(node.idx())
                        .map_or(0, |(_, s)| s.iter().map(|e| e.cpu_idle_millis).sum());
                    if best.is_none_or(|(bv, _)| vol > bv) {
                        best = Some((vol, node));
                    }
                }
                best.map(|(_, n)| n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::prelude::*;
    use std::sync::Arc;

    fn build_world(nodes: usize) -> Simulation {
        let model = Arc::new(ConstantDemand(TrueDemand {
            cpu_peak_millis: 1000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_secs(1),
        }));
        let funcs = vec![
            FunctionSpec::new("a", ResourceVec::from_cores_mb(2, 512), model.clone()),
            FunctionSpec::new("b", ResourceVec::from_cores_mb(2, 512), model),
        ];
        Simulation::new(
            funcs,
            vec![ResourceVec::from_cores_mb(8, 8192); nodes],
            SimConfig::default(),
        )
    }

    /// Drives one arrival through a custom platform so `world.inv` exists.
    struct Probe {
        selected: Vec<NodeId>,
        pred: Option<Prediction>,
    }

    impl Platform for Probe {
        fn name(&self) -> String {
            "probe".into()
        }
        fn predict(&mut self, _w: &World, _i: InvocationId) -> Option<Prediction> {
            self.pred
        }
        fn select_node(
            &mut self,
            world: &World,
            shard: usize,
            inv: InvocationId,
        ) -> Option<NodeId> {
            let mut sel = CoverageSelector;
            let view = SchedView::new();
            let n = sel.select(world, shard, inv, &view, 0.9);
            if let Some(node) = n {
                self.selected.push(node);
            }
            n
        }
    }

    fn req(func: u32, extra_cpu: u64) -> ScheduleRequest {
        ScheduleRequest {
            nominal: ResourceVec::from_cores_mb(2, 512),
            extra: ResourceVec::new(extra_cpu, 0),
            func,
            duration: SimDuration::from_secs(2),
            now: SimTime::ZERO,
        }
    }

    fn idle(cpu: u64) -> PoolSnapshot {
        vec![PoolEntryStatus {
            cpu_idle_millis: cpu,
            mem_idle_mb: 0,
            expiry: SimTime::from_secs(100),
        }]
    }

    #[test]
    fn place_probes_from_the_hash_home_wrapping_past_the_last_node() {
        let none = |_: usize| -> &[PoolEntryStatus] { &[] };
        // Find a function homed on the last of 4 nodes.
        let f = (0..64).find(|&f| place(&req(f, 0), 0.9, 4, |_| true, none) == Some(3)).unwrap();
        // Home full: the probe wraps to node 0; nodes 0 and 1 full too: node 2.
        assert_eq!(place(&req(f, 0), 0.9, 4, |i| i != 3, none), Some(0));
        assert_eq!(place(&req(f, 0), 0.9, 4, |i| i == 2, none), Some(2));
        assert_eq!(place(&req(f, 0), 0.9, 4, |_| false, none), None);
        assert_eq!(place(&req(f, 0), 0.9, 0, |_| true, none), None, "no nodes, no answer");
        assert_eq!(place(&req(f, 2_000), 0.9, 0, |_| true, none), None);
    }

    #[test]
    fn place_chases_coverage_among_fitting_nodes_and_ties_go_low() {
        let snaps = [idle(1_000), idle(2_000), idle(2_000), idle(4_000)];
        let snap = |i: usize| snaps[i].as_slice();
        // Node 3 covers most but does not fit; 1 and 2 tie: the lower wins.
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |i| i != 3, snap), Some(1));
        assert_eq!(place(&req(9, 4_000), 0.9, 4, |_| true, snap), Some(3));
        // Nothing advertised anywhere: every coverage is equal, node 0 wins
        // whatever the function's hash home is.
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |_| true, |_| &[]), Some(0));
        assert_eq!(place(&req(9, 2_000), 0.9, 4, |_| false, snap), None);
    }

    #[test]
    fn fresh_view_is_the_snapshot_only_while_pings_keep_coming() {
        let mut view = SchedView::new();
        let n = NodeId(0);
        assert!(view.fresh(n, SimTime::from_secs(9)).is_empty(), "never pinged");
        let pinged = SimTime::from_secs(10);
        *view.note_ping(n, pinged) = idle(1_000);
        let limit = pinged + STALE_VIEW_AFTER;
        assert_eq!(view.fresh(n, limit), idle(1_000).as_slice());
        assert!(view.fresh(n, limit + SimDuration(1)).is_empty(), "stale");
        // A crash resets the slot to "never pinged"; its neighbours stay.
        *view.note_ping(NodeId(3), pinged) = idle(2_000);
        view.forget(n);
        assert!(!view.is_stale(n, limit + SimDuration(1)) && view.fresh(n, limit).is_empty());
        assert_eq!(view.fresh(NodeId(3), limit), idle(2_000).as_slice());
        assert!(view.all_stale(limit + SimDuration(1)) && !view.all_stale(limit));
    }

    #[test]
    fn same_function_hashes_to_same_node() {
        let sim = build_world(4);
        let mut t = Trace::new();
        for i in 0..6 {
            t.push(SimTime::from_secs(i * 3), FunctionId(0), InputMeta::new(1, i));
        }
        let mut p = Probe { selected: Vec::new(), pred: None };
        let res = sim.run(&t, &mut p);
        assert_eq!(res.records.len(), 6);
        assert!(
            p.selected.windows(2).all(|w| w[0] == w[1]),
            "non-accelerable invocations of one function stay on one node: {:?}",
            p.selected
        );
    }

    #[test]
    fn classify_uses_prediction() {
        let sim = build_world(1);
        let mut t = Trace::new();
        t.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
        // prediction above nominal -> accelerable
        struct C {
            seen: Option<InvClass>,
        }
        impl Platform for C {
            fn name(&self) -> String {
                "c".into()
            }
            fn predict(&mut self, _w: &World, _i: InvocationId) -> Option<Prediction> {
                Some(Prediction {
                    cpu_millis: 4000,
                    mem_mb: 128,
                    duration: SimDuration::from_secs(1),
                    path: PredictionPath::Ml,
                })
            }
            fn select_node(
                &mut self,
                world: &World,
                shard: usize,
                inv: InvocationId,
            ) -> Option<NodeId> {
                self.seen = Some(classify(world, inv));
                hash_probe(world, shard, inv)
            }
        }
        let mut c = C { seen: None };
        sim.run(&t, &mut c);
        assert_eq!(c.seen, Some(InvClass::Accelerable(ResourceVec::new(2000, 0))));
    }

    #[test]
    fn hash_probe_falls_through_full_nodes() {
        // Fill node capacity via long-running invocations, then check probing.
        let sim = build_world(2);
        let mut t = Trace::new();
        // Four 2-core invocations of fn 0 fill its home node's 8-core slice;
        // the fifth must land elsewhere.
        for i in 0..5 {
            t.push(SimTime(i), FunctionId(0), InputMeta::new(1, i));
        }
        struct H {
            nodes: Vec<NodeId>,
        }
        impl Platform for H {
            fn name(&self) -> String {
                "h".into()
            }
            fn select_node(
                &mut self,
                world: &World,
                shard: usize,
                inv: InvocationId,
            ) -> Option<NodeId> {
                let n = hash_probe(world, shard, inv);
                if let Some(node) = n {
                    self.nodes.push(node);
                }
                n
            }
        }
        let mut h = H { nodes: Vec::new() };
        sim.run(&t, &mut h);
        let first = h.nodes[0];
        assert!(h.nodes[..4].iter().all(|&n| n == first));
        assert_ne!(h.nodes[4], first, "fifth invocation must rehash to the other node");
    }
}
