//! The OpenWhisk default platform (§8.3 baseline 1).
//!
//! "The default resource management in OpenWhisk (also in existing
//! serverless platforms) that allocates user-defined resources to functions.
//! The resource allocation stays fixed during individual function
//! executions, and all invocations of the same function receive a fixed
//! amount of resources." Scheduling is the controller's function-hash with
//! rehash-on-full; there is no profiler, no pool, no safeguard.

use libra_core::platform::hash_probe;
use libra_sim::engine::World;
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::platform::{Platform, PlatformOverheads};
use libra_sim::time::SimDuration;

/// The default platform: fixed user-defined allocations, hash scheduling.
#[derive(Debug, Default)]
pub struct OpenWhiskDefault;

impl Platform for OpenWhiskDefault {
    fn name(&self) -> String {
        "Default".into()
    }

    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads {
            frontend: SimDuration(300),
            profiler: SimDuration::ZERO,
            pool: SimDuration::ZERO,
        }
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        hash_probe(world, shard, inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::engine::{SimConfig, Simulation};
    use libra_workloads::trace::TraceGen;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

    #[test]
    fn default_never_touches_allocations() {
        let gen = TraceGen::standard(&ALL_APPS, 11);
        let trace = gen.poisson(40, 60.0);
        let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
        let res = sim.run(&trace, &mut OpenWhiskDefault);
        assert_eq!(res.records.len(), 40);
        for r in &res.records {
            assert!(!r.flags.harvested && !r.flags.accelerated && !r.flags.safeguarded);
            assert!(r.speedup.abs() < 1e-9, "default is the speedup baseline, got {}", r.speedup);
            assert_eq!(r.cpu_reassigned_core_sec, 0.0);
        }
    }
}
