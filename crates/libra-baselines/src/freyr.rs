//! A behaviourally-faithful Freyr stand-in (§8.3 baseline 2, §9).
//!
//! Freyr \[49\] harvests idle resources with a DRL agent. Re-training a DRL
//! agent is out of scope (and beside the point: the paper's comparison turns
//! on three *structural* properties of Freyr, all named in §9, not on the
//! agent's exact weights). This stand-in reproduces those properties:
//!
//! 1. **No timeliness awareness** — Freyr estimates demand volumes but
//!    "ignores whether the harvested resources would be available throughout
//!    the whole execution": its pool entries carry no expiry and `get` hands
//!    out arbitrary (oldest-first) entries, so accelerated invocations keep
//!    losing their loans when sources complete, and scheduling ignores
//!    resource lifetime entirely.
//! 2. **No input-size feature** — demand estimates are an exploring EWMA of
//!    observed peaks per function ("the observed states lack of input size
//!    information"), so size-driven variance turns into mispredictions.
//! 3. **Non-preemptive safeguard** — on a detected overload, Freyr "only
//!    resumes the resource allocation to the user-defined value for the next
//!    invocation, leaving the current invocation suffering".

use libra_core::platform::hash_probe;
use libra_core::pool::{ledger_totals, HarvestResourcePool};
use libra_core::profiler::MovingWindow;
use libra_core::safeguard::overloaded;
use libra_sim::engine::{SimCtx, World};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{Actuals, Loan, Prediction, PredictionPath, Wake};
use libra_sim::platform::{LoanEnd, Platform, PlatformOverheads, PlatformReport};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};

/// Per-function exploring estimator (the DRL-agent stand-in): the maximum
/// over a recent window of observed peaks, scaled by exploration noise. The
/// window maximum is what a well-trained volume-only agent converges to; the
/// structural flaw it cannot escape is that *input size is not a feature*,
/// so a bigger-than-recently-seen input is under-predicted no matter what.
#[derive(Clone, Debug)]
struct Estimator {
    window: MovingWindow,
    /// Overload detected: serve the next invocation with user resources.
    skip_next: bool,
    step: u64,
}

const FREYR_WINDOW: usize = 8;

impl Estimator {
    fn new() -> Self {
        Estimator { window: MovingWindow::new(FREYR_WINDOW), skip_next: false, step: 0 }
    }

    /// ε-greedy-style exploration noise, deterministic per step.
    fn explore(&mut self) -> f64 {
        self.step += 1;
        let z = self
            .step
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        0.9 + 0.2 * u // multiplicative factor in [0.9, 1.1]
    }

    fn predict(&mut self) -> Option<Prediction> {
        let (cpu, mem, dur) = self.window.maxima()?;
        let f = self.explore();
        Some(Prediction {
            cpu_millis: ((cpu as f64 * f) as u64).max(100),
            mem_mb: ((mem as f64 * f) as u64).max(32),
            duration: SimDuration::from_secs_f64((dur.as_secs_f64() * f).max(0.001)),
            path: PredictionPath::Window,
        })
    }
}

/// The Freyr-like platform.
pub struct Freyr {
    estimators: Vec<Estimator>,
    pools: Vec<HarvestResourcePool>,
    overload_events: u64,
}

impl Freyr {
    /// Create an unfitted Freyr.
    pub fn new() -> Self {
        Freyr { estimators: Vec::new(), pools: Vec::new(), overload_events: 0 }
    }

    /// A pseudo-expiry far in the future: Freyr tracks volumes, not
    /// lifetimes, so every entry looks immortal to it.
    fn no_expiry() -> SimTime {
        SimTime(u64::MAX / 2)
    }
}

impl Default for Freyr {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for Freyr {
    fn name(&self) -> String {
        "Freyr".into()
    }

    fn init(&mut self, world: &World) {
        self.estimators = vec![Estimator::new(); world.functions().len()];
        self.pools = (0..world.num_nodes()).map(|_| HarvestResourcePool::new()).collect();
    }

    fn overheads(&self) -> PlatformOverheads {
        PlatformOverheads {
            frontend: SimDuration(300),
            profiler: SimDuration(2_000), // DRL inference is pricier than RF
            pool: SimDuration(200),
        }
    }

    fn predict(&mut self, world: &World, inv: InvocationId) -> Option<Prediction> {
        let rec = world.inv(inv);
        let f = rec.func.idx();
        if self.estimators[f].window.is_empty() {
            // The paper's Freyr arrives pre-trained ("trained the models ...
            // using the same workloads", §8.3): emulate the offline DRL
            // training by observing a handful of pilot executions around the
            // first-seen input. The estimator still collapses everything
            // into one volume per function — the no-input-size-feature flaw.
            let spec = world.func(rec.func);
            let s = rec.input.size.max(1);
            for k in 0..FREYR_WINDOW as u64 {
                let z = (rec.input.content_seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                let size = ((s as f64) * (0.1f64).powf(1.0 - 2.0 * u)).round().max(1.0) as u64;
                let d = spec.model.demand(&libra_sim::demand::InputMeta::new(size, z));
                self.estimators[f].window.push(d.cpu_peak_millis, d.mem_peak_mb, d.base_duration);
            }
        }
        let e = &mut self.estimators[f];
        if e.skip_next {
            // The non-preemptive "safeguard": resume user allocation for the
            // NEXT invocation only.
            e.skip_next = false;
            return None;
        }
        e.predict()
    }

    fn select_node(&mut self, world: &World, shard: usize, inv: InvocationId) -> Option<NodeId> {
        hash_probe(world, shard, inv)
    }

    fn on_start(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let rec = ctx.inv(inv);
        let Some(pred) = rec.pred else { return };
        let nominal = rec.nominal;
        let Some(node) = rec.node else {
            debug_assert!(false, "start without node for {inv:?}");
            return;
        };
        let node = node.idx();
        let now = ctx.now();

        // Harvest down to the predicted peak with a thin margin — thinner
        // than Libra's headroom and, crucially, never preemptively undone:
        // the posture that earns Freyr its worst-case ≈ −180 % degradations
        // when the estimate is low.
        let padded = ResourceVec::new(
            (pred.cpu_millis as f64 * 1.15) as u64,
            (pred.mem_mb as f64 * 1.15) as u64,
        );
        let target = padded.min(&nominal);
        if target.cpu_millis < nominal.cpu_millis || target.mem_mb < nominal.mem_mb {
            ctx.set_own_grant(inv, target);
            let freed = ctx.harvestable(inv);
            if !freed.is_zero() {
                self.pools[node].put(inv, freed, Self::no_expiry(), now);
            }
        }

        let extra = pred.peak().saturating_sub(&nominal);
        if !extra.is_zero() {
            let grants = self.pools[node].get(extra, now);
            for (source, vol) in grants {
                if !ctx.lend(source, inv, vol) {
                    self.pools[node].remove(source, now);
                }
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let rec = ctx.inv(inv);
        if !rec.is_running() {
            return;
        }
        let harvested = rec.own_grant != rec.nominal || !rec.lent_out.is_zero();
        if !harvested {
            // Harvesting happens in `on_start` only, and a later lend or
            // return resets the wake condition: no visit of it can act.
            ctx.watch(inv, Wake::NEVER);
            return;
        }
        // The safeguard's overload rule at its default threshold.
        let u = ctx.usage(inv);
        if overloaded(u.cpu_throttled, u.mem_used_mb, rec.effective_alloc().mem_mb, 0.8) {
            // Detected — but NOT preemptively released. Only the next
            // invocation of this function is spared (§9).
            let f = rec.func.idx();
            if !self.estimators[f].skip_next {
                self.overload_events += 1;
            }
            self.estimators[f].skip_next = true;
        }
    }

    fn on_complete(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId, actuals: &Actuals) {
        let rec = ctx.inv(inv);
        let Some(node) = rec.node else {
            debug_assert!(false, "complete without node for {inv:?}");
            return;
        };
        let node = node.idx();
        let f = rec.func.idx();
        let now = ctx.now();
        self.pools[node].remove(inv, now);
        let window = &mut self.estimators[f].window;
        window.push(actuals.cpu_peak_millis, actuals.mem_peak_mb, actuals.exec_duration);
    }

    fn on_loan_ended(&mut self, ctx: &mut SimCtx<'_>, loan: &Loan, reason: LoanEnd) {
        if reason == LoanEnd::BorrowerCompleted {
            if let Some(node) = ctx.inv(loan.source).node {
                let now = ctx.now();
                self.pools[node.idx()].give_back(loan.source, loan.res, now);
            }
        }
    }

    fn on_oom(&mut self, ctx: &mut SimCtx<'_>, inv: InvocationId) {
        let rec = ctx.inv(inv);
        let Some(node) = rec.node else {
            debug_assert!(false, "oom without node for {inv:?}");
            return;
        };
        let node = node.idx();
        let f = rec.func.idx();
        self.pools[node].remove(inv, ctx.now());
        self.estimators[f].skip_next = true;
    }

    fn on_ping(&mut self, _world: &World, _node: NodeId) {
        // Freyr's scheduler ignores pool status; nothing to piggyback.
    }

    fn report(&self) -> PlatformReport {
        let (cpu, mem, puts, gets) = ledger_totals(&self.pools);
        PlatformReport {
            pool_idle_cpu_core_sec: cpu,
            pool_idle_mem_mb_sec: mem,
            safeguard_triggers: self.overload_events,
            pool_puts: puts,
            pool_gets: gets,
            extra: vec![("overload_events".into(), self.overload_events as f64)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_sim::engine::{SimConfig, Simulation};
    use libra_workloads::trace::TraceGen;
    use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

    fn run(n: usize) -> libra_sim::metrics::RunResult {
        let gen = TraceGen::standard(&ALL_APPS, 42);
        let full = gen.single_set();
        let mut trace = libra_sim::trace::Trace::new();
        for e in full.entries.into_iter().take(n) {
            trace.entries.push(e);
        }
        let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
        sim.run(&trace, &mut Freyr::new())
    }

    #[test]
    fn freyr_harvests_after_warmup() {
        let res = run(80);
        assert_eq!(res.records.len(), 80);
        let harvested = res.records.iter().filter(|r| r.flags.harvested).count();
        assert!(harvested > 5, "EWMA warms up and harvests, got {harvested}");
    }

    #[test]
    fn freyr_suffers_degradations_without_preemptive_release() {
        let res = run(120);
        let worst = res.worst_degradation();
        assert!(
            worst < -0.10,
            "no preemptive release should show real degradations, worst {worst}"
        );
    }

    #[test]
    fn pretraining_gives_estimates_from_the_first_invocation() {
        // The DRL stand-in arrives pre-trained (§8.3: Freyr was trained on
        // the same workloads), so even first invocations carry predictions.
        let res = run(30);
        let with_pred = res.records.iter().filter(|r| r.pred.is_some()).count();
        // skip_next (the non-preemptive safeguard) legitimately suppresses
        // some predictions, so "most", not "all".
        assert!(
            with_pred as f64 >= res.records.len() as f64 * 0.6,
            "most invocations should be predicted, got {with_pred}/{}",
            res.records.len()
        );
    }
}
