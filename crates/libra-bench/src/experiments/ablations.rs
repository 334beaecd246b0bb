//! Design-choice ablations (beyond the paper's own NS/NP/NSP study):
//! quantify the pieces of Libra's design that the paper motivates but never
//! isolates.
//!
//! 1. **Pool hand-out order** — Fig 4 argues for longest-lived-first
//!    ("prioritizes harvested resources that can potentially be utilized
//!    longer"); we compare it against FIFO and the adversarial
//!    shortest-lived-first, counting mid-flight loan expirations.
//! 2. **Continuous acceleration** — topping up accelerable invocations at
//!    each monitor window vs the literal one-shot reading of §5.1.
//! 3. **Harvest headroom** — how much padding above the predicted peak to
//!    keep (interacts with the safeguard's trigger rate).
//! 4. **Coverage vs volume-only scheduling** — the time dimension of demand
//!    coverage (§6.2) against a scheduler that chases raw idle volume.
//! 5. **Greedy vs batch-optimal scheduling** — the greedy scheduler's
//!    optimality gap (§1's acknowledged limitation) on random batches, and
//!    what each assigner's decision costs.
//!
//! Ablations 1–3 each change one `ControlConfig` field of Libra's default on
//! the single-node setup, so one sweep runs their eight distinct
//! configurations and the default's runs fill the first row of all three
//! tables. `results/exp_ablations.csv` holds every simulated number the
//! tables print (`CSV_HEADER`); the µs decision costs are wall-clock and stay
//! on stdout.

use crate::*;
use libra_core::controlplane::ControlConfig;
use libra_core::pool::GetOrder;
use libra_core::{
    hash_probe, CoverageSelector, LibraConfig, LibraPlatform, NodeSelector, SchedView,
};
use libra_sim::engine::World;
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::platform::Platform;

/// The columns of `exp_ablations.csv`: the ablation (1–5), its variant in
/// table order, the seven [`COLUMNS`], then ablation 5's gaps.
const CSV_HEADER: &str = "ablation,variant_idx,p99_s,mean_speedup,loans_expired,\
    loans_reharvested,accelerated,safeguard_triggers,cpu_util,gap_mean_pct,gap_worst_pct";

/// A measured column: the name a table prints, its decimals, and the number
/// one run gives.
type Column = (&'static str, usize, fn(&PlatformRun) -> f64);

/// What every run of ablations 1–4 measures, in CSV order.
const COLUMNS: [Column; 7] = [
    ("P99 (s)", 1, |run| run.result.latency_percentile(99.0)),
    ("mean speedup", 3, |run| libra_sim::metrics::mean(run.result.speedups().into_iter())),
    ("loans expired", 0, |run| extra(run, "loans_expired")),
    ("re-harvested", 0, |run| extra(run, "loans_reharvested")),
    ("accelerated", 0, |run| {
        run.result.records.iter().filter(|r| r.flags.accelerated).count() as f64
    }),
    ("safeguarded", 0, |run| run.report.safeguard_triggers as f64),
    ("cpu util", 3, |run| run.result.mean_cpu_util()),
];

fn extra(run: &PlatformRun, key: &str) -> f64 {
    run.report.extra.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0.0)
}

/// Run every variant over the repetitions; element `v` holds variant `v`'s
/// [`COLUMNS`], each averaged over its runs in repetition order.
fn measure<V: Sync>(variants: &[V], run: impl Fn(&V, u64) -> PlatformRun + Sync) -> Vec<[f64; 7]> {
    let runs = sweep(variants, repetitions(), |v, rep| {
        let run = run(v, rep);
        COLUMNS.map(|(_, _, column)| column(&run))
    });
    runs.iter().map(|runs| std::array::from_fn(|c| mean_by(runs, |r| r[c]))).collect()
}

/// The eight distinct configurations of ablations 1–3: Libra's default, then
/// one field of it changed at a time.
fn single_node_configs() -> [ControlConfig; 8] {
    let base = ControlConfig::default();
    [
        base.clone(),
        ControlConfig { pool_order: GetOrder::Fifo, ..base },
        ControlConfig { pool_order: GetOrder::ShortestLived, ..base },
        ControlConfig { continuous_acceleration: false, ..base },
        ControlConfig { harvest_headroom: 1.1, ..base },
        ControlConfig { harvest_headroom: 1.2, ..base },
        ControlConfig { harvest_headroom: 1.3, ..base },
        ControlConfig { harvest_headroom: 1.5, ..base },
    ]
}

/// One ablation's table: its title, the name of its variant column, its rows
/// (a label and the variant whose measurements fill it), the [`COLUMNS`] it
/// prints, and what the design leads one to expect.
struct Table {
    title: &'static str,
    variant: &'static str,
    rows: &'static [(&'static str, usize)],
    columns: &'static [&'static str],
    expected: &'static str,
}

/// Ablations 1–3, over the variants of [`single_node_configs`].
const SINGLE_NODE_TABLES: [Table; 3] = [
    Table {
        title: "Ablation: pool hand-out order (Fig 4's longest-lived-first vs FIFO/worst)",
        variant: "order",
        rows: &[("longest-lived", 0), ("fifo", 1), ("shortest-lived", 2)],
        columns: &["P99 (s)", "mean speedup", "loans expired", "re-harvested"],
        expected: "longest-lived-first loses the fewest loans to source\n\
            completions and achieves the best speedups — the paper's Fig 4 logic.",
    },
    Table {
        title: "Ablation: continuous acceleration (per-tick top-ups) vs one-shot at start",
        variant: "variant",
        rows: &[("continuous", 0), ("one-shot", 3)],
        columns: &["P99 (s)", "accelerated", "mean speedup"],
        expected: "one-shot acceleration strands long invocations whose\n\
            donors churn — continuous top-ups capture far more of the harvest.",
    },
    Table {
        title: "Ablation: harvest headroom (grant = prediction × h)",
        variant: "headroom",
        rows: &[("1.0", 0), ("1.1", 4), ("1.2", 5), ("1.3", 6), ("1.5", 7)],
        columns: &["P99 (s)", "safeguarded", "cpu util"],
        expected: "more headroom = fewer safeguard trips but less harvest\n\
            volume; the aggressive 1.0 posture relies on the safeguard.",
    },
];

/// Ablation 4, over coverage (variant 0) and volume-only (variant 1).
const COVERAGE_TABLE: Table = Table {
    title: "Ablation: demand coverage (volume × timeliness) vs volume-only scheduling",
    variant: "selector",
    rows: &[("coverage", 0), ("volume-only", 1)],
    columns: &["P99 (s)", "loans expired", "mean speedup"],
    expected: "coverage-aware placement sends accelerable invocations\n\
        where the harvest *lasts*, losing fewer loans to expiry.",
};

/// Print `table` from its variants' `measured` columns and return its CSV
/// rows as ablation `ablation`, the gap columns `NaN`.
fn report(ablation: usize, table: &Table, measured: &[[f64; 7]]) -> Vec<Vec<f64>> {
    header(table.title);
    let shown: Vec<usize> = (table.columns.iter())
        .map(|name| COLUMNS.iter().position(|c| c.0 == *name).expect("a name in COLUMNS"))
        .collect();
    let names = shown.iter().map(|&c| COLUMNS[c].0.to_string());
    row(&std::iter::once(table.variant.to_string()).chain(names).collect::<Vec<_>>());
    for &(label, v) in table.rows {
        let cells = shown.iter().map(|&c| format!("{:.*}", COLUMNS[c].1, measured[v][c]));
        row(&std::iter::once(label.to_string()).chain(cells).collect::<Vec<_>>());
    }
    println!("Expected: {}", table.expected);
    let csv_row = |(i, &(_, v)): (usize, &(&str, usize))| {
        [ablation as f64, i as f64].into_iter().chain(measured[v]).chain([f64::NAN; 2]).collect()
    };
    table.rows.iter().enumerate().map(csv_row).collect()
}

/// Timeliness-blind ablation of Libra's scheduler: accelerable invocations
/// chase the node with the largest idle *volume*, ignoring expiries. Exists
/// to quantify how much the time dimension of demand coverage (§6.2) is
/// worth; not part of the paper's system.
struct VolumeSelector;

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
        let rec = world.inv(inv);
        if rec.pred.is_none_or(|p| p.peak().saturating_sub(&rec.nominal).is_zero()) {
            return hash_probe(world, shard, inv);
        }
        let mut best: Option<(u64, NodeId)> = None;
        for node in world.node_ids() {
            if !rec.nominal.fits_within(&world.free_in_shard(node, shard)) {
                continue;
            }
            let vol: u64 = view.snapshot(node).iter().map(|e| e.cpu_idle_millis).sum();
            if best.is_none_or(|(bv, _)| vol > bv) {
                best = Some((vol, node));
            }
        }
        best.map(|(_, n)| n)
    }
}

/// Ablation 4's measurements: Libra with coverage and with volume-only
/// placement on the multi-node setup.
fn coverage_vs_volume() -> Vec<[f64; 7]> {
    fn boxed<S: NodeSelector + 'static>(s: S) -> Box<dyn Platform> {
        Box::new(LibraPlatform::with_selector(LibraConfig::libra(), s))
    }
    measure(&["coverage", "volume-only"], |&name, rep| {
        // Deviation from §8.4: the `standard` multi sets, not the `heavy` ones.
        let sets = trace_gen(rep).multi_sets();
        let trace = &sets.iter().find(|(rpm, _)| *rpm == 240).expect("240 RPM set").1;
        let platform = match name {
            "coverage" => boxed(CoverageSelector),
            _ => boxed(VolumeSelector),
        };
        run_multi_node(trace, platform)
    })
}

/// Ablation 5: the greedy scheduler's optimality gap (the paper's
/// acknowledged limitation, §1), measured on random batches against the
/// exhaustive batch-optimal assigner — with the decision-time cost that
/// justifies shipping the greedy. Returns its CSV row: the mean and the
/// worst gap, in percent.
fn greedy_gap() -> Vec<f64> {
    use crate::batch::{greedy_assign, optimal_assign, BatchNode, BatchRequest};
    use libra_core::pool::PoolEntryStatus;
    use libra_sim::metrics::remix64;
    use libra_sim::resources::ResourceVec;
    use libra_sim::time::{SimDuration, SimTime};

    header("Ablation: greedy vs batch-optimal scheduling (random 6-request batches, 4 nodes)");
    let mut z = 0x5eedu64;
    let mut next = move || remix64(&mut z);
    let scenarios = 200;
    let (mut gap_sum, mut worst_gap) = (0.0f64, 0.0f64);
    let (mut greedy_ns, mut optimal_ns) = (0u128, 0u128);
    for _ in 0..scenarios {
        let mut nodes: Vec<BatchNode> = (0..4)
            .map(|_| BatchNode {
                free: ResourceVec::from_cores_mb(4 + next() % 8, 16_384),
                snapshot: (0..(1 + next() % 4))
                    .map(|_| PoolEntryStatus {
                        cpu_idle_millis: 500 + next() % 3_000,
                        mem_idle_mb: 128 + next() % 512,
                        expiry: SimTime::from_secs(2 + next() % 40),
                    })
                    .collect(),
            })
            .collect();
        // A pool snapshot is in ascending expiry; so must these be.
        nodes.iter_mut().for_each(|n| n.snapshot.sort_by_key(|e| e.expiry));
        let reqs: Vec<BatchRequest> = (0..6)
            .map(|_| BatchRequest {
                nominal: ResourceVec::from_cores_mb(1 + next() % 3, 512),
                extra: ResourceVec::new(500 + next() % 3_000, next() % 512),
                duration: SimDuration::from_secs(2 + next() % 25),
            })
            .collect();
        let t0 = std::time::Instant::now();
        let g = greedy_assign(&reqs, &nodes, SimTime::ZERO, 0.9);
        greedy_ns += t0.elapsed().as_nanos();
        let t0 = std::time::Instant::now();
        let o = optimal_assign(&reqs, &nodes, SimTime::ZERO, 0.9);
        optimal_ns += t0.elapsed().as_nanos();
        if o.total_coverage > 1e-9 {
            let gap = 1.0 - g.total_coverage / o.total_coverage;
            gap_sum += gap;
            worst_gap = worst_gap.max(gap);
        }
    }
    let (mean_pct, worst_pct) = (100.0 * gap_sum / scenarios as f64, 100.0 * worst_gap);
    compare(
        "mean greedy optimality gap",
        "unquantified (limitation, §1)",
        format!("{mean_pct:.1}%"),
    );
    compare("worst observed gap", "—", format!("{worst_pct:.1}%"));
    compare(
        "decision cost greedy vs optimal",
        "greedy kept for sub-second latency",
        format!(
            "{:.1} µs vs {:.1} µs per batch",
            greedy_ns as f64 / scenarios as f64 / 1e3,
            optimal_ns as f64 / scenarios as f64 / 1e3
        ),
    );
    [5.0, 0.0].into_iter().chain([f64::NAN; 7]).chain([mean_pct, worst_pct]).collect()
}

/// Run all five ablations and write `exp_ablations.csv`.
pub fn run() {
    let single = measure(&single_node_configs(), |control, rep| {
        let cfg = LibraConfig { control: control.clone(), ..LibraConfig::libra() };
        run_single_node(&single_trace(rep), Box::new(LibraPlatform::new(cfg)))
    });
    let mut rows: Vec<Vec<f64>> = (SINGLE_NODE_TABLES.iter().enumerate())
        .flat_map(|(i, table)| report(i + 1, table, &single))
        .collect();
    rows.extend(report(4, &COVERAGE_TABLE, &coverage_vs_volume()));
    rows.push(greedy_gap());
    write_csv("exp_ablations", &CSV_HEADER.split(',').collect::<Vec<_>>(), &rows);
}
