//! Baseline scheduling algorithms (§8.4): Round-Robin, Join-the-Shortest-
//! Queue \[23\], and Min-Worker-Set \[50\].
//!
//! Each implements `libra_core`'s [`NodeSelector`] so it can be plugged under
//! the full Libra harvesting stack — the paper "enables the cluster with
//! Libra's function harvesting and acceleration when evaluating all five
//! algorithms for a fair comparison on scheduling".

use libra_core::{NodeSelector, SchedView};
use libra_sim::engine::World;
use libra_sim::ids::{InvocationId, NodeId};

/// Classic round robin: successive requests go to successive nodes,
/// skipping nodes whose shard slice cannot fit the user allocation.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl NodeSelector for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        let need = world.inv(inv).nominal;
        let n = world.num_nodes();
        for k in 0..n {
            let i = (self.next + k) % n;
            let node = NodeId(i as u32);
            if need.fits_within(&world.free_in_shard(node, shard)) {
                self.next = (i + 1) % n;
                return Some(node);
            }
        }
        None
    }
}

/// Join-the-Shortest-Queue: the node with the fewest resident invocations
/// (ties broken by id).
#[derive(Debug, Default)]
pub struct JoinShortestQueue;

impl NodeSelector for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "JSQ"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        let need = world.inv(inv).nominal;
        world
            .node_ids()
            .filter(|&n| need.fits_within(&world.free_in_shard(n, shard)))
            .min_by_key(|&n| (world.node(n).load(), n))
    }
}

/// Min-Worker-Set \[50\]: prefer the node already hosting warm containers of
/// the function (the minimal worker set), picking the least resource-pressured
/// of those; fall back to the least-pressured node overall, growing the set.
#[derive(Debug, Default)]
pub struct MinWorkerSet;

/// Resource pressure: reserved fraction of capacity (max over dimensions),
/// scaled for integer ordering.
fn pressure(world: &World, n: NodeId) -> u64 {
    let node = world.node(n);
    let r = node.total_reserved();
    let cap = node.capacity;
    let pc = r.cpu_millis * 10_000 / cap.cpu_millis.max(1);
    let pm = r.mem_mb * 10_000 / cap.mem_mb.max(1);
    pc.max(pm)
}

impl NodeSelector for MinWorkerSet {
    fn name(&self) -> &'static str {
        "MWS"
    }

    fn select(
        &mut self,
        world: &World,
        shard: usize,
        inv: InvocationId,
        _view: &SchedView,
        _alpha: f64,
    ) -> Option<NodeId> {
        let rec = world.inv(inv);
        let need = rec.nominal;
        let fits = |n: &NodeId| need.fits_within(&world.free_in_shard(*n, shard));
        // The worker set: nodes with warm containers for this function.
        let in_set = world
            .node_ids()
            .filter(|&n| world.warm_count(n, rec.func) > 0)
            .filter(fits)
            .min_by_key(|&n| (pressure(world, n), n));
        in_set.or_else(|| world.node_ids().filter(fits).min_by_key(|&n| (pressure(world, n), n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_core::platform::{LibraConfig, LibraPlatform};
    use libra_sim::engine::{SimConfig, Simulation};
    use libra_workloads::trace::TraceGen;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

    fn run_with<S: NodeSelector + 'static>(sel: S) -> libra_sim::metrics::RunResult {
        let gen = TraceGen::standard(&ALL_APPS, 5);
        let trace = gen.poisson(60, 120.0);
        let sim = Simulation::new(sebs_suite(), testbeds::multi_node(), SimConfig::default());
        let mut platform = LibraPlatform::with_selector(LibraConfig::libra(), sel);
        sim.run(&trace, &mut platform)
    }

    #[test]
    fn all_baseline_selectors_complete_the_workload() {
        for (name, res) in [
            ("RR", run_with(RoundRobin::default())),
            ("JSQ", run_with(JoinShortestQueue)),
            ("MWS", run_with(MinWorkerSet)),
        ] {
            assert_eq!(res.records.len(), 60, "{name} must complete all invocations");
        }
    }

    #[test]
    fn round_robin_spreads_across_nodes() {
        let res = run_with(RoundRobin::default());
        let mut used = std::collections::BTreeSet::new();
        for r in &res.records {
            used.insert(r.node);
        }
        assert!(used.len() >= 3, "RR should touch most nodes, got {used:?}");
    }

    #[test]
    fn mws_reuses_warm_containers_more_than_rr() {
        let rr = run_with(RoundRobin::default());
        let mws = run_with(MinWorkerSet);
        assert!(
            mws.warm_hits >= rr.warm_hits,
            "MWS should reuse containers at least as much as RR: {} vs {}",
            mws.warm_hits,
            rr.warm_hits
        );
    }
}
