//! §8.10 — overheads of Libra's components, plus the §8.6 profiler timing
//! claims, measured natively on this machine.

use crate::*;
use libra_core::profiler::{ModelChoice, Profiler, ProfilerConfig};
use libra_core::{HarvestResourcePool, LibraConfig, LibraPlatform};
use libra_sim::demand::InputMeta;
use libra_sim::ids::InvocationId;
use libra_sim::invocation::Actuals;
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimTime;
use libra_workloads::apps::AppKind;
use libra_workloads::sebs_suite;
use std::time::{Duration, Instant};

/// Run the overhead measurements.
pub fn run() {
    header("§8.6: profiler timing claims (native measurements)");
    let suite = sebs_suite();
    let mut p = Profiler::new(10, ProfilerConfig::default(), ModelChoice::Auto);
    // `train` records the first sight; the first prediction reaches the
    // verdict, scoring the CPU-class forest first and the other two only if
    // it passes (VP's does not), and a size-related function's three serving
    // forests are fitted then too: time `train` and that prediction, one of
    // each.
    for (kind, fits) in [(AppKind::Dh, "size-related, 6 fits"), (AppKind::Vp, "unrelated, 1 fit")] {
        let f = kind.id().idx();
        let t0 = Instant::now();
        p.train(f, &suite[f], InputMeta::new(1000, 1));
        let _ = p.predict(f, InputMeta::new(1000, 1));
        compare(
            &format!("offline training + 1st prediction, {} ({fits})", kind.name()),
            "< 120 ms",
            format!("{:.1} ms", t0.elapsed().as_secs_f64() * 1e3),
        );
    }
    let t0 = Instant::now();
    let n_pred = 1000;
    for i in 0..n_pred {
        let _ = p.predict(AppKind::Dh.id().idx(), InputMeta::new(100 + i, 1));
    }
    let pred = t0.elapsed() / n_pred as u32;
    compare("prediction overhead", "< 2 ms", format!("{:.3} ms", pred.as_secs_f64() * 1e3));

    // Online update on the ML path: every eighth `observe` resets DH's three
    // serving forests to a refit on all rows so far, which the next
    // prediction grows. Time each call of four refit periods, and the
    // prediction after each eighth; the refits are what the histogram row
    // never pays.
    let dh = AppKind::Dh.id().idx();
    let (mut all, mut refits) = (Duration::ZERO, Duration::ZERO);
    let periods = 4u32;
    for k in 0..u64::from(8 * periods) {
        let input = InputMeta::new(100 + k * 300, 7 + k);
        let d = suite[dh].model.demand(&input);
        let actuals = Actuals {
            cpu_peak_millis: d.cpu_peak_millis,
            mem_peak_mb: d.mem_peak_mb,
            exec_duration: d.base_duration,
            input_size: input.size,
        };
        let refit = k % 8 == 7;
        let t0 = Instant::now();
        p.observe(dh, input, &actuals);
        if refit {
            let _ = p.predict(dh, input);
        }
        let took = t0.elapsed();
        all += took;
        if refit {
            refits += took;
        }
    }
    compare(
        "online update, DH (ML path, mean of 32 + 4 refit reads)",
        "< 1 ms",
        format!("{:.3} ms", all.as_secs_f64() * 1e3 / f64::from(8 * periods)),
    );
    compare(
        "online update, DH refit (8th call + next prediction)",
        "< 1 ms",
        format!("{:.3} ms", refits.as_secs_f64() * 1e3 / f64::from(periods)),
    );

    // Online update on the histogram path (GP): an insert per target.
    let mut p2 = Profiler::new(10, ProfilerConfig::default(), ModelChoice::HistogramOnly);
    p2.train(AppKind::Gp.id().idx(), &suite[AppKind::Gp.id().idx()], InputMeta::new(5_000, 1));
    let t0 = Instant::now();
    let n_obs = 10_000;
    for i in 0..n_obs {
        p2.observe(
            AppKind::Gp.id().idx(),
            InputMeta::new(5_000, i),
            &Actuals {
                cpu_peak_millis: 3_000,
                mem_peak_mb: 700,
                exec_duration: libra_sim::time::SimDuration::from_secs(5),
                input_size: 5_000,
            },
        );
    }
    let online = t0.elapsed() / n_obs as u32;
    compare(
        "online update, GP (histogram path)",
        "< 1 ms",
        format!("{:.4} ms", online.as_secs_f64() * 1e3),
    );

    header("Harvest pool operation costs (native)");
    let mut pool = HarvestResourcePool::new();
    let t0 = Instant::now();
    let n = 100_000u32;
    for i in 0..n {
        pool.put(
            InvocationId(i % 64),
            ResourceVec::new(500, 128),
            SimTime::from_secs(100),
            SimTime(i as u64),
        );
        if i % 2 == 0 {
            let _ = pool.get(ResourceVec::new(300, 64), SimTime(i as u64));
        }
        if i % 64 == 63 {
            for k in 0..64 {
                pool.remove(InvocationId(k), SimTime(i as u64));
            }
        }
    }
    let per_op = t0.elapsed() / n;
    compare(
        "pool put+get cost",
        "negligible (§8.10)",
        format!("{:.2} µs/op", per_op.as_secs_f64() * 1e6),
    );

    header("§8.10: component bookkeeping volume (multi-node workload)");
    // The multi-node setup on a `standard` Poisson trace, not a multi set.
    let trace = trace_gen(0).poisson(300, 120.0);
    let t0 = Instant::now();
    let run = run_multi_node(&trace, Box::new(LibraPlatform::new(LibraConfig::libra())));
    let wall = t0.elapsed();
    let (res, rep) = (run.result, run.report);
    println!(
        "  {} invocations, simulated {:.0} s in {:.2} s wall clock",
        res.records.len(),
        res.completion_time.as_secs_f64(),
        wall.as_secs_f64()
    );
    println!(
        "  pool ops: {} puts, {} gets; safeguard triggers: {}",
        rep.pool_puts, rep.pool_gets, rep.safeguard_triggers
    );
    let control_ops = rep.pool_puts + rep.pool_gets;
    let per_inv = control_ops as f64 / res.records.len() as f64;
    compare(
        "control-plane ops per invocation",
        "< 3% CPU overhead (§8.10)",
        format!("{per_inv:.1} pool ops/invocation at ~µs each"),
    );
}
