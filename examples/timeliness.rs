//! Fig 2, executable: the timeliness of harvested resources.
//!
//! Invocation A (2 cores allocated, 1 used) lends its idle core to
//! invocation B (1 core allocated, wants 2). When A completes, the engine
//! revokes the loan at that instant — B continues on its own single core.
//!
//! ```sh
//! cargo run --release --example timeliness
//! ```

use libra::sim::prelude::*;
use std::sync::Arc;

/// A minimal platform that performs exactly the Fig 2 reassignment.
struct Fig2;

impl Platform for Fig2 {
    fn name(&self) -> String {
        "fig2".into()
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        let need = world.inv(inv).nominal;
        world.node_ids().find(|&n| need.fits_within(&world.free_in_shard(n, shard)))
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        if inv == InvocationId(0) {
            // Harvest A down to the 1 core it actually uses.
            let nominal = ctx.inv(inv).nominal;
            ctx.set_own_grant(inv, ResourceVec::new(1_000, nominal.mem_mb));
            println!("t={}: harvested 1 idle core from A", ctx.now());
        } else {
            // Accelerate B with A's idle core.
            let ok = ctx.lend(InvocationId(0), inv, ResourceVec::new(1_000, 0));
            println!(
                "t={}: lending A's core to B -> {}",
                ctx.now(),
                if ok { "granted" } else { "refused" }
            );
        }
    }

    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        println!(
            "t={}: loan of {:?} from {:?} to {:?} ended: {reason:?} (the timeliness law)",
            ctx.now(),
            loan.res,
            loan.source,
            loan.borrower
        );
    }
}

fn main() {
    // A: allocated 2 cores, uses 1, runs 10 s.
    let a = FunctionSpec::new(
        "A",
        ResourceVec::from_cores_mb(2, 512),
        Arc::new(ConstantDemand(TrueDemand {
            cpu_peak_millis: 1_000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_secs(10),
        })),
    );
    // B: allocated 1 core, can use 2, needs 20 core-seconds of work.
    let b = FunctionSpec::new(
        "B",
        ResourceVec::from_cores_mb(1, 512),
        Arc::new(ConstantDemand(TrueDemand {
            cpu_peak_millis: 2_000,
            mem_peak_mb: 128,
            base_duration: SimDuration::from_secs(10),
        })),
    );

    let names = [a.name.clone(), b.name.clone()];
    let sim = Simulation::new(
        vec![a, b],
        vec![ResourceVec::from_cores_mb(8, 8192)],
        SimConfig::default(),
    );
    let mut trace = Trace::new();
    trace.push(SimTime::ZERO, FunctionId(0), InputMeta::new(1, 0));
    trace.push(SimTime::from_secs(1), FunctionId(1), InputMeta::new(1, 0));

    let result = sim.run(&trace, &mut Fig2);
    println!();
    for r in &result.records {
        println!(
            "{}: latency {:.1}s (baseline {:.1}s, speedup {:+.2}) {}",
            names[r.func.idx()],
            r.latency.as_secs_f64(),
            r.baseline_latency.as_secs_f64(),
            r.speedup,
            if r.flags.accelerated { "[accelerated until A completed]" } else { "" }
        );
    }
    println!();
    println!("B ran at 2 cores while A lived, then fell back to its own core —");
    println!("exactly Fig 2: harvested resources die with their source.");
}
