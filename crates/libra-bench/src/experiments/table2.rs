//! Table 2 — the profiler's model study (§8.6): LR, SVM, NN and RF compared
//! on CPU-class accuracy, memory-class accuracy and duration R² for each of
//! the ten functions, with a 7:3 train/test split on duplicator datasets.
//! RF is `libra-ml`'s forest, the one the profiler runs; the three baselines
//! live in this experiment's private `models` module and nowhere else.
//!
//! `table2_model_study.csv` has one row per function × family: `func` is the
//! function's index in `ALL_APPS` (UL = 0 … GB = 9), `related` is 1 for the
//! five size-related ones, `family` indexes LR, SVM, NN, RF (0–3), and the
//! scores are unrounded (`dur_r2` unclamped).

mod models;

use crate::*;
use libra_core::profiler::{WorkloadDuplicator, MEM_CLASS_MB};
use libra_ml::dataset::split_indices;
use libra_ml::forest::{ForestParams, RandomForest};
use libra_ml::metrics::{accuracy, r2_score};
use libra_ml::tree::Task;
use libra_sim::demand::InputMeta;
use libra_sim::resources::MILLIS_PER_CORE;
use libra_workloads::apps::ALL_APPS;
use libra_workloads::sebs_suite;
use models::{LinearRegression, Mlp, OneVsRest};

/// One function's scores for one model family.
struct Scores {
    /// CPU-class accuracy.
    cpu: f64,
    /// Memory-class accuracy.
    mem: f64,
    /// Duration R².
    dur: f64,
}

/// The four model families, in column order: a family's position is its
/// `family` index in the CSV.
#[derive(Clone, Copy, Debug)]
enum Family {
    Lr,
    Svm,
    Nn,
    Rf,
}

impl Family {
    const ALL: [Family; 4] = [Family::Lr, Family::Svm, Family::Nn, Family::Rf];

    /// The column header.
    fn name(self) -> &'static str {
        match self {
            Family::Lr => "LR",
            Family::Svm => "SVM",
            Family::Nn => "NN",
            Family::Rf => "RF",
        }
    }

    /// The classes a model of this family, fitted on `(train, y)`, predicts
    /// for the rows of `test`.
    fn classify(
        self,
        train: &[Vec<f64>],
        y: &[f64],
        n_classes: usize,
        test: &[Vec<f64>],
    ) -> Vec<usize> {
        let labels: Vec<usize> = y.iter().map(|&v| v as usize).collect();
        match self {
            Family::Lr => {
                let m = OneVsRest::logistic(train, &labels, n_classes);
                test.iter().map(|r| m.predict(r)).collect()
            }
            Family::Svm => {
                let m = OneVsRest::svm(train, &labels, n_classes);
                test.iter().map(|r| m.predict(r)).collect()
            }
            Family::Nn => {
                let m = Mlp::classifier(train, &labels, n_classes);
                test.iter().map(|r| m.predict_class(r)).collect()
            }
            Family::Rf => {
                let task = Task::Classification { n_classes };
                let m = RandomForest::fit(train, y, task, ForestParams::default());
                test.iter().map(|r| m.predict_class(r)).collect()
            }
        }
    }

    /// The durations a model of this family, fitted on `(train, y)`,
    /// predicts for the rows of `test`.
    fn regress(self, train: &[Vec<f64>], y: &[f64], test: &[Vec<f64>]) -> Vec<f64> {
        match self {
            Family::Lr => {
                let m = LinearRegression::fit(train, y, 1e-6);
                test.iter().map(|r| m.predict(r)).collect()
            }
            Family::Svm => {
                // SVR stand-in: the paper's SVR is emulated by a linear model
                // with a stronger L2 term (the same hypothesis class).
                let m = LinearRegression::fit(train, y, 1e-2);
                test.iter().map(|r| m.predict(r)).collect()
            }
            Family::Nn => {
                let m = Mlp::regressor(train, y);
                test.iter().map(|r| m.predict(r)).collect()
            }
            Family::Rf => {
                let m = RandomForest::fit(train, y, Task::Regression, ForestParams::default());
                test.iter().map(|r| m.predict(r)).collect()
            }
        }
    }
}

fn features(size: u64) -> Vec<f64> {
    let s = size.max(1) as f64;
    vec![s, s.ln()]
}

/// The entries of `col` at `ids`.
fn pick<T: Clone>(col: &[T], ids: &[usize]) -> Vec<T> {
    ids.iter().map(|&i| col[i].clone()).collect()
}

fn eval_family(family: Family, x: &[Vec<f64>], cpu: &[f64], mem: &[f64], dur: &[f64]) -> Scores {
    let (tr, te) = split_indices(x.len(), 0.7, 0xdead);
    let (train, test) = (pick(x, &tr), pick(x, &te));
    let classify = |y: &[f64]| -> f64 {
        let n_classes = y.iter().map(|&v| v as usize).max().unwrap_or(1) + 2;
        let preds = family.classify(&train, &pick(y, &tr), n_classes, &test);
        let truth: Vec<usize> = te.iter().map(|&i| y[i] as usize).collect();
        accuracy(&preds, &truth)
    };
    let dur_r2 = r2_score(&family.regress(&train, &pick(dur, &tr), &test), &pick(dur, &te));
    Scores { cpu: classify(cpu), mem: classify(mem), dur: dur_r2 }
}

/// Run the study.
pub fn run() {
    header("Table 2: model comparison (cpu acc / mem acc / duration R², 7:3 split)");
    let suite = sebs_suite();
    let mut cols = vec!["func".to_string()];
    cols.extend(Family::ALL.map(|f| f.name().to_string()));
    row(&cols);

    let mut sums = [(0.0, 0.0, 0.0); Family::ALL.len()]; // related avg
    let mut sums_un = [(0.0, 0.0, 0.0); Family::ALL.len()];

    // One job per function (each trains all four model families); results
    // come back in app order, so the printed table matches a serial run.
    let app_scores = par_map(ALL_APPS.to_vec(), |kind| {
        let f = kind.id().idx();
        let (lo, hi) = kind.size_range();
        let first = InputMeta::new(((lo as f64 * hi as f64).sqrt()) as u64, 4242);
        let dup = WorkloadDuplicator { points: 100, noise: 0.02, seed: 77 ^ f as u64 };
        let obs = dup.run(suite[f].model.as_ref(), first);
        let x: Vec<Vec<f64>> = obs.iter().map(|o| features(o.size)).collect();
        let cpu: Vec<f64> =
            obs.iter().map(|o| o.cpu_peak_millis.div_ceil(MILLIS_PER_CORE) as f64).collect();
        let mem: Vec<f64> =
            obs.iter().map(|o| o.mem_peak_mb.div_ceil(MEM_CLASS_MB) as f64).collect();
        let dur: Vec<f64> = obs.iter().map(|o| o.duration.as_secs_f64()).collect();
        Family::ALL.map(|family| eval_family(family, &x, &cpu, &mem, &dur))
    });

    let mut csv = Vec::new();
    for (fi, (kind, scores)) in ALL_APPS.iter().zip(&app_scores).enumerate() {
        let mut cols = vec![kind.name().to_string()];
        let related = kind.input_size_related();
        for (family, s) in Family::ALL.into_iter().zip(scores) {
            let mi = family as usize;
            cols.push(format!("{:.2}/{:.2}/{:.2}", s.cpu, s.mem, s.dur.max(-99.0)));
            let tgt = if related { &mut sums[mi] } else { &mut sums_un[mi] };
            tgt.0 += s.cpu;
            tgt.1 += s.mem;
            tgt.2 += s.dur.max(-99.0);
            csv.push(vec![fi as f64, f64::from(u8::from(related)), mi as f64, s.cpu, s.mem, s.dur]);
        }
        row(&cols);
    }
    let mut cols = vec!["Avg(rel)".to_string()];
    for s in &sums {
        cols.push(format!("{:.2}/{:.2}/{:.2}", s.0 / 5.0, s.1 / 5.0, s.2 / 5.0));
    }
    row(&cols);
    let mut cols = vec!["Avg(unrel)".to_string()];
    for s in &sums_un {
        cols.push(format!("{:.2}/{:.2}/{:.2}", s.0 / 5.0, s.1 / 5.0, s.2 / 5.0));
    }
    row(&cols);
    write_csv(
        "table2_model_study",
        &["func", "related", "family", "cpu_acc", "mem_acc", "dur_r2"],
        &csv,
    );

    // Headline: RF best on average for related functions.
    let rf = &sums[Family::Rf as usize];
    let best_cpu = sums.iter().all(|s| rf.0 >= s.0 - 1e-9);
    let best_r2 = sums.iter().all(|s| rf.2 >= s.2 - 1e-9);
    println!();
    compare(
        "RF best average cpu accuracy (related)",
        "yes (Table 2)",
        if best_cpu { "yes".into() } else { "no".into() },
    );
    compare(
        "RF best average duration R² (related)",
        "yes (Table 2)",
        if best_r2 { "yes".into() } else { "no".into() },
    );
    compare(
        "related vs unrelated gap visible",
        "acc ~0.95 vs ~0.59 (RF)",
        format!("{:.2} vs {:.2}", rf.0 / 5.0, sums_un[Family::Rf as usize].0 / 5.0),
    );
}
