//! Behavioural tests for the Libra platform and its ablation presets over
//! real workloads.

use libra_core::profiler::{ModelChoice, Profiler, ProfilerConfig};
use libra_core::{LibraConfig, LibraPlatform};
use libra_sim::demand::InputMeta;
use libra_sim::engine::{SimConfig, Simulation};
use libra_sim::invocation::PredictionPath;
use libra_sim::platform::Platform as _;
use libra_workloads::apps::AppKind;
use libra_workloads::trace::TraceGen;
use libra_workloads::{sebs_suite, testbeds, ALL_APPS};

fn run(
    cfg: LibraConfig,
    n: usize,
    seed: u64,
) -> (libra_sim::metrics::RunResult, libra_sim::platform::PlatformReport) {
    let gen = TraceGen::standard(&ALL_APPS, seed);
    let trace = gen.poisson(n, 200.0);
    let sim = Simulation::new(sebs_suite(), testbeds::single_node(), SimConfig::default());
    let mut p = LibraPlatform::new(cfg);
    let r = sim.run(&trace, &mut p);
    let rep = p.report();
    (r, rep)
}

#[test]
fn ns_variant_never_sets_the_safeguard_flag() {
    let (res, rep) = run(LibraConfig::ns(), 80, 42);
    assert_eq!(rep.safeguard_triggers, 0);
    assert!(res.records.iter().all(|r| !r.flags.safeguarded));
}

#[test]
fn np_variant_never_uses_ml_or_histogram_predictions() {
    let (res, _) = run(LibraConfig::np(), 80, 42);
    for r in &res.records {
        if let Some(p) = r.pred {
            assert_eq!(p.path, PredictionPath::Window, "{:?}", r.inv);
        }
    }
}

#[test]
fn full_libra_uses_both_model_paths() {
    let (res, _) = run(LibraConfig::libra(), 120, 42);
    let ml = res
        .records
        .iter()
        .filter(|r| matches!(r.pred.map(|p| p.path), Some(PredictionPath::Ml)))
        .count();
    let hist = res
        .records
        .iter()
        .filter(|r| matches!(r.pred.map(|p| p.path), Some(PredictionPath::Histogram)))
        .count();
    assert!(ml > 0, "size-related functions should use forests");
    assert!(hist > 0, "content functions should use histograms");
}

#[test]
fn first_invocation_of_each_function_is_served_as_configured() {
    let (res, _) = run(LibraConfig::libra(), 60, 7);
    let mut seen = std::collections::BTreeSet::new();
    let mut by_arrival: Vec<_> = res.records.iter().collect();
    by_arrival.sort_by_key(|r| r.arrival);
    for r in by_arrival {
        if seen.insert(r.func) {
            let name = ALL_APPS[r.func.idx()].name();
            assert!(r.pred.is_none(), "{name} first invocation must have no estimate");
            assert!(!r.flags.harvested, "{name} first invocation harvested");
        }
    }
}

#[test]
fn extrapolation_scales_predictions_beyond_trained_span() {
    let suite = sebs_suite();
    let mut p = Profiler::new(10, ProfilerConfig::default(), ModelChoice::Auto);
    let f = AppKind::Cp.id().idx();
    // Train on a tiny first input: span ≈ [1, 20].
    p.train(f, &suite[f], InputMeta::new(2, 9));
    assert_eq!(p.is_size_related(f), Some(true));
    let small = p.predict(f, InputMeta::new(20, 1)).expect("trained");
    let big = p.predict(f, InputMeta::new(200, 1)).expect("trained");
    assert!(
        big.cpu_millis >= small.cpu_millis * 3,
        "10x the span must scale up: {small:?} vs {big:?}"
    );
    assert!(big.duration.as_secs_f64() > small.duration.as_secs_f64() * 3.0);
}

#[test]
fn online_observations_extend_the_trained_span() {
    let suite = sebs_suite();
    let mut p = Profiler::new(10, ProfilerConfig::default(), ModelChoice::Auto);
    let f = AppKind::Cp.id().idx();
    p.train(f, &suite[f], InputMeta::new(2, 9));
    let before = p.predict(f, InputMeta::new(200, 1)).expect("trained");
    // Feed real observations at size 200 (true demand ≈ 4.5 cores).
    for k in 0..8 {
        let d = libra_sim::demand::DemandModel::demand(
            &libra_workloads::apps::AppModel { kind: AppKind::Cp },
            &InputMeta::new(200, k),
        );
        p.observe(
            f,
            InputMeta::new(200, k),
            &libra_sim::invocation::Actuals {
                cpu_peak_millis: d.cpu_peak_millis,
                mem_peak_mb: d.mem_peak_mb,
                exec_duration: d.base_duration,
                input_size: 200,
            },
        );
    }
    let after = p.predict(f, InputMeta::new(200, 1)).expect("trained");
    // The linear extrapolation overshoots (20x ratio); refitting on real
    // size-200 data pulls the estimate down to ≈ the true 5-core class.
    assert!(
        after.cpu_millis < before.cpu_millis,
        "refit should correct the extrapolation: {before:?} -> {after:?}"
    );
    assert!(after.cpu_millis <= 6000, "≈ true demand after refit, got {}", after.cpu_millis);
}

#[test]
fn hist_and_ml_only_variants_complete_and_differ() {
    let (hist, _) = run(
        LibraConfig { model_choice: ModelChoice::HistogramOnly, ..LibraConfig::libra() },
        80,
        42,
    );
    let (ml, _) =
        run(LibraConfig { model_choice: ModelChoice::MlOnly, ..LibraConfig::libra() }, 80, 42);
    assert_eq!(hist.records.len(), 80);
    assert_eq!(ml.records.len(), 80);
    assert!(hist
        .records
        .iter()
        .all(|r| !matches!(r.pred.map(|p| p.path), Some(PredictionPath::Ml))));
    assert!(ml
        .records
        .iter()
        .all(|r| !matches!(r.pred.map(|p| p.path), Some(PredictionPath::Histogram))));
}

#[test]
fn report_extras_expose_timeliness_counters() {
    let (_, rep) = run(LibraConfig::libra(), 100, 42);
    let get = |k: &str| rep.extra.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert!(get("loans_expired").is_some());
    assert!(get("loans_reharvested").is_some());
}
