//! The profiler (§4): transparent estimation of per-invocation resource
//! demands and execution time from input *size* only.
//!
//! Workflow (Fig 3, steps a–d):
//!
//! 1. **First invocation** of a function is served with user-configured
//!    resources while the [workload duplicator](WorkloadDuplicator) scales
//!    its input uniformly (up to 100×), runs one fully-provisioned pilot
//!    execution per duplicated point, and labels a training dataset with the
//!    observed `(cpu peak, mem peak, duration)`.
//! 2. **Score.** Three models — two random-forest classifiers (CPU peak
//!    class = cores, memory peak class = 128 MB steps) and one random-forest
//!    regressor (duration) — are fitted on 70 % of the rows and evaluated on
//!    the held-out 30 %. The scores are kept for every function under every
//!    [`ModelChoice`] (Table 2 and Fig 13 read them) and are all this fit is for.
//! 3. **Serve.** If accuracy and R² clear the thresholds, the function is
//!    **input size-related**: the same three models are fitted on all rows
//!    and serve predictions. Otherwise it is treated as a black box and three
//!    **histogram models** estimate conservatively — 99th-percentile peaks,
//!    5th-percentile duration (§4.3.2) — and no serving forest is ever built
//!    for it. Each forest seeds its own RNG, so nothing crosses from step 2.
//! 4. Observed actuals feed **online updates** after every completion:
//!    histogram inserts always, periodic forest refits for the ML path.
//!
//! [`DemandEstimator`] is what a platform asks: this profiler, or for the
//! Libra-NP ablation (§8.3) a [`MovingWindow`] of each function's latest
//! actuals, the window type the Freyr stand-in's agent reads too.
//!
//! On a real platform pilot executions run the user's container with maximum
//! allocation; here a pilot run queries the function's ground-truth demand
//! model (what a fully-provisioned execution would reveal) plus measurement
//! noise — see DESIGN.md §1 for the substitution note.

use libra_ml::dataset::split_indices;
use libra_ml::forest::{ForestParams, RandomForest};
use libra_ml::histogram::StreamingHistogram;
use libra_ml::metrics::{accuracy, r2_score};
use libra_ml::tree::Task;
use libra_sim::demand::InputMeta;
use libra_sim::function::FunctionSpec;
use libra_sim::invocation::{Actuals, Prediction, PredictionPath};
use libra_sim::metrics::{splitmix64_at, unit_f64};
use libra_sim::resources::{sat_u64, MILLIS_PER_CORE};
use libra_sim::time::SimDuration;
use std::collections::VecDeque;

/// Memory class granularity: OpenWhisk-style 128 MB steps.
pub const MEM_CLASS_MB: u64 = 128;

/// Maximum CPU class (cores) a prediction may take; matches the 8-core
/// maximum allocation of §8.2.3.
pub const MAX_CPU_CLASS: usize = 16;

/// Held-out fraction for the relatedness test (paper: 7:3 split).
const TRAIN_FRAC: f64 = 0.7;
/// CPU-class accuracy threshold for declaring a function input
/// size-related.
const ACC_THRESHOLD: f64 = 0.7;
/// Memory-class accuracy threshold. Lower than the CPU threshold because
/// fine-grained 128 MB classes put many boundary-adjacent samples within
/// measurement noise, capping achievable accuracy even for perfectly
/// size-determined footprints; the decisive signal is the wide gap to
/// size-unrelated functions (compare Table 2's two halves).
const MEM_ACC_THRESHOLD: f64 = 0.55;
/// R² threshold for declaring a function input size-related.
const R2_THRESHOLD: f64 = 0.8;
/// Refit forests after this many online observations — low, so they extend
/// a narrow first-seen size domain quickly.
const RETRAIN_EVERY: usize = 8;
/// Tail percentile for CPU/memory peak estimates (histogram path).
const PEAK_PERCENTILE: f64 = 99.0;
/// Head percentile for duration estimates (histogram path).
const DURATION_PERCENTILE: f64 = 5.0;
/// Relative measurement noise applied to pilot observations.
const PILOT_NOISE: f64 = 0.02;
/// RNG seed of the duplicator and the forests (mixed with the function id).
const SEED: u64 = 0x11b7a;

/// Profiler tuning.
#[derive(Clone, Debug)]
pub struct ProfilerConfig {
    /// Number of duplicated data points the duplicator produces (the paper
    /// scales inputs "with a maximum of 100 times").
    pub duplicate_points: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig { duplicate_points: 100 }
    }
}

/// Quality scores of the relatedness test (reported in Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelScores {
    /// CPU-class prediction accuracy on held-out data.
    pub cpu_acc: f64,
    /// Memory-class prediction accuracy on held-out data.
    pub mem_acc: f64,
    /// Duration R² on held-out data.
    pub dur_r2: f64,
}

impl ModelScores {
    /// The relatedness decision (§8.6): all three models must clear their
    /// thresholds.
    pub fn input_size_related(&self, acc_thr: f64, mem_acc_thr: f64, r2_thr: f64) -> bool {
        self.cpu_acc >= acc_thr && self.mem_acc >= mem_acc_thr && self.dur_r2 >= r2_thr
    }
}

/// The three labelled targets of one pilot execution.
#[derive(Clone, Copy, Debug)]
pub struct PilotObservation {
    /// Input size the pilot ran with.
    pub size: u64,
    /// Observed CPU peak (millicores).
    pub cpu_peak_millis: u64,
    /// Observed memory peak (MB).
    pub mem_peak_mb: u64,
    /// Observed duration.
    pub duration: SimDuration,
}

/// The workload duplicator (§4.2): scales a first-seen input into a labelled
/// training set by running fully-provisioned pilot executions.
pub struct WorkloadDuplicator {
    /// Number of data points to generate.
    pub points: usize,
    /// Relative measurement noise on pilot observations.
    pub noise: f64,
    /// Seed for noise.
    pub seed: u64,
}

impl WorkloadDuplicator {
    /// Duplicate `first_input` of `spec` into labelled observations. Sizes
    /// span `[max(1, s/10), 10·s]` **uniformly** ("duplicated uniformly",
    /// §4.2) — a 100× total span ("a maximum of 100 times", §8.2.3) centred
    /// on the first-seen size, covering both shrunk and grown variants. Each
    /// duplicated point derives a fresh content seed, because duplicating
    /// data changes its content too.
    pub fn run(&self, spec: &FunctionSpec, first_input: InputMeta) -> Vec<PilotObservation> {
        let s = first_input.size.max(1);
        let lo = (s / 10).max(1);
        let hi = s.saturating_mul(10).max(lo + 1);
        (0..self.points)
            .map(|k| {
                let frac = k as f64 / (self.points - 1).max(1) as f64;
                let size = sat_u64((lo as f64 + frac * (hi - lo) as f64).round());
                let content = splitmix64_at(first_input.content_seed ^ self.seed, k as u64);
                let d = spec.model.demand(&InputMeta::new(size.max(1), content));
                // measurement noise (memory measurements are steadier)
                let n1 = 1.0 + self.noise * (unit_f64(splitmix64_at(content, 11)) - 0.5) * 2.0;
                let n2 =
                    1.0 + self.noise * 0.25 * (unit_f64(splitmix64_at(content, 12)) - 0.5) * 2.0;
                PilotObservation {
                    size: size.max(1),
                    cpu_peak_millis: sat_u64(d.cpu_peak_millis as f64 * n1).max(1),
                    mem_peak_mb: sat_u64(d.mem_peak_mb as f64 * n2).max(1),
                    duration: SimDuration::from_secs_f64(d.base_duration.as_secs_f64() * n1),
                }
            })
            .collect()
    }
}

/// Class encodings.
fn cpu_class(millis: u64) -> u64 {
    millis.div_ceil(MILLIS_PER_CORE).clamp(1, MAX_CPU_CLASS as u64)
}

fn mem_class(mb: u64) -> u64 {
    mb.div_ceil(MEM_CLASS_MB).clamp(1, 512)
}

/// A class label read back from a [`Dataset3`] column.
#[expect(
    clippy::cast_possible_truncation,
    reason = "labels are class indices (≤ 512) stored as f64"
)]
fn label(v: f64) -> usize {
    v as usize
}

/// Classes the memory forest needs: the largest label seen, plus headroom.
fn n_mem_classes(mem: &[f64]) -> usize {
    mem.iter().map(|&v| label(v)).max().unwrap_or(1) + 2
}

fn features(size: u64) -> Vec<f64> {
    let s = size.max(1) as f64;
    vec![s, s.ln()]
}

/// One function's three forests: CPU-class and memory-class classifiers and
/// the duration regressor.
struct Forests {
    cpu: RandomForest,
    mem: RandomForest,
    dur: RandomForest,
}

impl Forests {
    /// Fit the three on rows `x` with one target column each, in one
    /// `fit_many`: the three share `seed`, so tree `k` of each draws and
    /// sorts the same bootstrap, once. Each forest is the one `fit` would
    /// give alone, so a fit depends on nothing fitted before.
    fn fit(x: &[Vec<f64>], cpu: &[f64], mem: &[f64], dur: &[f64], n_mem: usize, seed: u64) -> Self {
        let params = ForestParams { n_trees: 24, seed };
        let classes = |n_classes| Task::Classification { n_classes };
        let targets =
            [(cpu, classes(MAX_CPU_CLASS + 1)), (mem, classes(n_mem)), (dur, Task::Regression)];
        let [cpu, mem, dur] = RandomForest::fit_many(x, &targets, params);
        Forests { cpu, mem, dur }
    }
}

/// The fitted ML path: the serving forests plus the accumulated dataset for
/// online refits.
struct MlModels {
    forests: Forests,
    data: Dataset3,
    since_refit: usize,
    /// Size domain covered by the training data; predictions outside it
    /// extrapolate linearly (trees otherwise flat-line at the boundary,
    /// silently under-predicting demand for never-seen-this-big inputs —
    /// the unsafe direction).
    size_min: u64,
    size_max: u64,
}

/// Three parallel target columns over shared features.
#[derive(Default)]
struct Dataset3 {
    x: Vec<Vec<f64>>,
    cpu: Vec<f64>,
    mem: Vec<f64>,
    dur: Vec<f64>,
}

impl Dataset3 {
    fn push(&mut self, size: u64, cpu_cls: u64, mem_cls: u64, dur_s: f64) {
        self.x.push(features(size));
        self.cpu.push(cpu_cls as f64);
        self.mem.push(mem_cls as f64);
        self.dur.push(dur_s);
    }

    fn len(&self) -> usize {
        self.x.len()
    }

    /// The forests on every row — what serves predictions.
    fn fit_all(&self, seed: u64) -> Forests {
        Forests::fit(&self.x, &self.cpu, &self.mem, &self.dur, n_mem_classes(&self.mem), seed)
    }

    /// The relatedness test (§4.3): forests fitted on a 7:3 split's train
    /// rows, scored on its test rows. One split serves the three targets.
    fn relatedness(&self, seed: u64) -> ModelScores {
        let (tr, te) = split_indices(self.len(), TRAIN_FRAC, seed);
        let rows = |ids: &[usize]| ids.iter().map(|&i| self.x[i].clone()).collect::<Vec<_>>();
        let pick = |ids: &[usize], col: &[f64]| ids.iter().map(|&i| col[i]).collect::<Vec<_>>();
        let rf = Forests::fit(
            &rows(&tr),
            &pick(&tr, &self.cpu),
            &pick(&tr, &self.mem),
            &pick(&tr, &self.dur),
            n_mem_classes(&self.mem),
            seed,
        );
        let tex = rows(&te);
        let class_acc = |forest: &RandomForest, col: &[f64]| {
            accuracy(
                &tex.iter().map(|r| forest.predict_class(r)).collect::<Vec<_>>(),
                &te.iter().map(|&i| label(col[i])).collect::<Vec<_>>(),
            )
        };
        ModelScores {
            cpu_acc: class_acc(&rf.cpu, &self.cpu),
            mem_acc: class_acc(&rf.mem, &self.mem),
            dur_r2: r2_score(
                &tex.iter().map(|r| rf.dur.predict(r)).collect::<Vec<_>>(),
                &pick(&te, &self.dur),
            ),
        }
    }
}

/// The histogram path: conservative percentile estimators (§4.3.2).
struct HistModels {
    cpu: StreamingHistogram,
    mem: StreamingHistogram,
    dur: StreamingHistogram,
}

impl HistModels {
    fn new() -> Self {
        HistModels {
            cpu: StreamingHistogram::new(64, 1_000.0),
            mem: StreamingHistogram::new(64, 256.0),
            dur: StreamingHistogram::new(64, 1.0),
        }
    }

    fn observe(&mut self, cpu_millis: u64, mem_mb: u64, dur_s: f64) {
        self.cpu.insert(cpu_millis as f64);
        self.mem.insert(mem_mb as f64);
        self.dur.insert(dur_s);
    }
}

enum FuncState {
    /// Never invoked.
    Untrained,
    /// Input size-related: ML models serve predictions.
    Ml(Box<MlModels>),
    /// Input size-unrelated: histogram models serve predictions.
    Hist(Box<HistModels>),
}

/// Which model families the profiler may use (the Fig 13(a) ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelChoice {
    /// Full Libra: ML for related functions, histograms for unrelated.
    Auto,
    /// Histogram models for every function ("Hist" in Fig 13a).
    HistogramOnly,
    /// ML models for every function ("ML" in Fig 13a).
    MlOnly,
}

/// The per-platform profiler: one model set per deployed function.
pub struct Profiler {
    cfg: ProfilerConfig,
    choice: ModelChoice,
    states: Vec<FuncState>,
    scores: Vec<Option<ModelScores>>,
}

impl Profiler {
    /// Create a deterministic profiler for `n_funcs` deployed functions.
    /// It never reads a clock: the §8.6 training overhead is timed by the
    /// caller (`exp overheads`, `benchmarks/perf`).
    /// Fewer than two duplicated points are raised to two: the 7:3 split
    /// needs a row to train on and a row to test on.
    pub fn new(n_funcs: usize, cfg: ProfilerConfig, choice: ModelChoice) -> Self {
        Profiler {
            cfg: ProfilerConfig { duplicate_points: cfg.duplicate_points.max(2) },
            choice,
            states: (0..n_funcs).map(|_| FuncState::Untrained).collect(),
            scores: vec![None; n_funcs],
        }
    }

    /// Whether function `f` has been profiled yet.
    pub fn is_trained(&self, f: usize) -> bool {
        !matches!(self.states[f], FuncState::Untrained)
    }

    /// The relatedness-test scores for `f`, if trained.
    pub fn scores(&self, f: usize) -> Option<ModelScores> {
        self.scores[f]
    }

    /// Whether `f` was classified input size-related (ML path).
    pub fn is_size_related(&self, f: usize) -> Option<bool> {
        match &self.states[f] {
            FuncState::Untrained => None,
            FuncState::Ml(_) => Some(true),
            FuncState::Hist(_) => Some(false),
        }
    }

    /// One-time offline profiling on the first invocation of `f` (§4.1):
    /// duplicate, pilot-run, train, and decide the model path.
    pub fn train(&mut self, f: usize, spec: &FunctionSpec, first_input: InputMeta) {
        let dup = WorkloadDuplicator {
            points: self.cfg.duplicate_points,
            noise: PILOT_NOISE,
            seed: SEED ^ (f as u64) << 8,
        };
        let obs = dup.run(spec, first_input);

        let mut data = Dataset3::default();
        for o in &obs {
            data.push(
                o.size,
                cpu_class(o.cpu_peak_millis),
                mem_class(o.mem_peak_mb),
                o.duration.as_secs_f64(),
            );
        }
        // Score first; the serving forests are fitted only for a function
        // they will serve. Nothing random crosses the two steps.
        let seed = SEED ^ f as u64;
        let scores = data.relatedness(seed);
        self.scores[f] = Some(scores);

        let related = scores.input_size_related(ACC_THRESHOLD, MEM_ACC_THRESHOLD, R2_THRESHOLD);
        let use_ml = match self.choice {
            ModelChoice::Auto => related,
            ModelChoice::HistogramOnly => false,
            ModelChoice::MlOnly => true,
        };
        self.states[f] = if use_ml {
            let sizes = obs.iter().map(|o| o.size);
            FuncState::Ml(Box::new(MlModels {
                forests: data.fit_all(seed),
                data,
                since_refit: 0,
                size_min: sizes.clone().min().unwrap_or(1),
                size_max: sizes.max().unwrap_or(1),
            }))
        } else {
            let mut h = HistModels::new();
            for o in &obs {
                h.observe(o.cpu_peak_millis, o.mem_peak_mb, o.duration.as_secs_f64());
            }
            FuncState::Hist(Box::new(h))
        };
    }

    /// Predict the three metrics for an invocation of `f` with `input`
    /// (Step c/d of Fig 3). Returns `None` when `f` is untrained.
    pub fn predict(&self, f: usize, input: InputMeta) -> Option<Prediction> {
        match &self.states[f] {
            FuncState::Untrained => None,
            FuncState::Ml(m) => {
                // Inside the trained domain: query the forests directly.
                // Beyond it: evaluate at the boundary and scale linearly by
                // the size ratio — conservative over-estimation beats the
                // silent under-estimation a flat-lining tree would give.
                let clamped = input.size.clamp(m.size_min, m.size_max.max(m.size_min));
                let ratio = if input.size > m.size_max {
                    input.size as f64 / m.size_max.max(1) as f64
                } else {
                    1.0
                };
                let x = features(clamped);
                let cpu_raw =
                    (m.forests.cpu.predict_class(&x)).max(1) as f64 * MILLIS_PER_CORE as f64;
                let mem_raw = (m.forests.mem.predict_class(&x)).max(1) as f64 * MEM_CLASS_MB as f64;
                let cpu = cpu_class(sat_u64(cpu_raw * ratio)) * MILLIS_PER_CORE;
                let mem = mem_class(sat_u64(mem_raw * ratio)) * MEM_CLASS_MB;
                let dur =
                    SimDuration::from_secs_f64((m.forests.dur.predict(&x) * ratio).max(0.001));
                Some(Prediction {
                    cpu_millis: cpu,
                    mem_mb: mem,
                    duration: dur,
                    path: PredictionPath::Ml,
                })
            }
            FuncState::Hist(h) => {
                let cpu_raw = h.cpu.percentile(PEAK_PERCENTILE)?;
                let mem_raw = h.mem.percentile(PEAK_PERCENTILE)?;
                let dur_raw = h.dur.percentile(DURATION_PERCENTILE)?;
                let cpu = cpu_class(sat_u64(cpu_raw.ceil())) * MILLIS_PER_CORE;
                let mem = mem_class(sat_u64(mem_raw.ceil())) * MEM_CLASS_MB;
                Some(Prediction {
                    cpu_millis: cpu,
                    mem_mb: mem,
                    duration: SimDuration::from_secs_f64(dur_raw.max(0.001)),
                    path: PredictionPath::Histogram,
                })
            }
        }
    }

    /// Online update after a completion (§4.1 "model update").
    pub fn observe(&mut self, f: usize, input: InputMeta, actuals: &Actuals) {
        match &mut self.states[f] {
            FuncState::Untrained => {}
            FuncState::Hist(h) => {
                h.observe(
                    actuals.cpu_peak_millis,
                    actuals.mem_peak_mb,
                    actuals.exec_duration.as_secs_f64(),
                );
            }
            FuncState::Ml(m) => {
                m.data.push(
                    input.size,
                    cpu_class(actuals.cpu_peak_millis),
                    mem_class(actuals.mem_peak_mb),
                    actuals.exec_duration.as_secs_f64(),
                );
                m.size_min = m.size_min.min(input.size);
                m.size_max = m.size_max.max(input.size);
                m.since_refit += 1;
                if m.since_refit >= RETRAIN_EVERY {
                    m.since_refit = 0;
                    m.forests = m.data.fit_all(1);
                }
            }
        }
    }
}

/// Moving-window length of the Libra-NP ablation (paper: n = 5).
const NP_WINDOW: usize = 5;

/// The `cap` latest `(CPU peak, memory peak, duration)` observations of one
/// function and their maxima: Libra-NP's estimate (§8.3) and the Freyr
/// stand-in's volume-only agent.
#[derive(Clone, Debug)]
pub struct MovingWindow {
    entries: VecDeque<(u64, u64, SimDuration)>,
    cap: usize,
}

impl MovingWindow {
    /// An empty window of `cap` entries.
    pub fn new(cap: usize) -> Self {
        MovingWindow { entries: VecDeque::new(), cap }
    }

    /// Add one observation, dropping the oldest when the window is full.
    pub fn push(&mut self, cpu_millis: u64, mem_mb: u64, duration: SimDuration) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((cpu_millis, mem_mb, duration));
    }

    /// Whether nothing was observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The window's `(CPU peak, memory peak, duration)` maxima, each taken
    /// on its own; `None` while it is empty.
    pub fn maxima(&self) -> Option<(u64, u64, SimDuration)> {
        let mut all = self.entries.iter().copied();
        let first = all.next()?;
        Some(all.fold(first, |(c, m, d), (c2, m2, d2)| (c.max(c2), m.max(m2), d.max(d2))))
    }
}

/// Libra's demand estimator: the profiler (§4) or, in the Libra-NP ablation
/// (§8.3), one moving window per function.
pub enum DemandEstimator {
    /// Trains on a function's first sight, then predicts and learns from
    /// every completion.
    Profiler(Profiler),
    /// The `NP_WINDOW` latest actuals of each function, predicting their
    /// maxima with floors of 100 millicores and 32 MB.
    Windows(Vec<MovingWindow>),
}

impl DemandEstimator {
    /// Libra-NP's estimator over `n_funcs` functions.
    pub fn windows(n_funcs: usize) -> Self {
        DemandEstimator::Windows(vec![MovingWindow::new(NP_WINDOW); n_funcs])
    }

    /// The estimate for an invocation of `f` (deployed as `spec`) with
    /// `input`, or `None` to serve it with user resources: the profiler
    /// answers `None` on a function's first sight, which it spends profiling
    /// (§4.1), the windows until the function first completes.
    pub fn predict(
        &mut self,
        f: usize,
        spec: &FunctionSpec,
        input: InputMeta,
    ) -> Option<Prediction> {
        match self {
            DemandEstimator::Profiler(p) if !p.is_trained(f) => {
                p.train(f, spec, input);
                None
            }
            DemandEstimator::Profiler(p) => p.predict(f, input),
            DemandEstimator::Windows(w) => {
                let (cpu, mem, duration) = w[f].maxima()?;
                Some(Prediction {
                    cpu_millis: cpu.max(100),
                    mem_mb: mem.max(32),
                    duration,
                    path: PredictionPath::Window,
                })
            }
        }
    }

    /// Learn from a completed invocation of `f` with `input`.
    pub fn observe(&mut self, f: usize, input: InputMeta, actuals: &Actuals) {
        match self {
            DemandEstimator::Profiler(p) => p.observe(f, input, actuals),
            DemandEstimator::Windows(w) => {
                w[f].push(actuals.cpu_peak_millis, actuals.mem_peak_mb, actuals.exec_duration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use libra_workloads::apps::{AppKind, AppModel};
    use libra_workloads::sebs_suite;

    fn profiler() -> Profiler {
        Profiler::new(10, ProfilerConfig::default(), ModelChoice::Auto)
    }

    fn first_input(kind: AppKind) -> InputMeta {
        // Geometric mean: the median of the log-uniform input pools.
        let (lo, hi) = kind.size_range();
        InputMeta::new(((lo as f64 * hi as f64).sqrt()) as u64, 12345)
    }

    #[test]
    fn classifies_dh_as_size_related() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Dh.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Dh));
        assert_eq!(p.is_size_related(f), Some(true), "scores {:?}", p.scores(f));
        let s = p.scores(f).unwrap();
        assert!(s.cpu_acc >= 0.8 && s.dur_r2 >= 0.8, "{s:?}");
    }

    #[test]
    fn classifies_vp_as_size_unrelated() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Vp.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Vp));
        assert_eq!(p.is_size_related(f), Some(false), "scores {:?}", p.scores(f));
    }

    #[test]
    fn all_ten_functions_classified_correctly() {
        let suite = sebs_suite();
        let mut p = profiler();
        for kind in libra_workloads::ALL_APPS {
            let f = kind.id().idx();
            p.train(f, &suite[f], first_input(kind));
            assert_eq!(
                p.is_size_related(f),
                Some(kind.input_size_related()),
                "{} misclassified, scores {:?}",
                kind.name(),
                p.scores(f)
            );
        }
    }

    #[test]
    fn ml_predictions_track_size() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Dh.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Dh));
        let small = p.predict(f, InputMeta::new(100, 1)).unwrap();
        let large = p.predict(f, InputMeta::new(10_000, 1)).unwrap();
        assert!(large.cpu_millis > small.cpu_millis, "{small:?} vs {large:?}");
        assert!(large.duration > small.duration);
        assert_eq!(small.path, PredictionPath::Ml);
    }

    #[test]
    fn ml_prediction_is_reasonably_accurate() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Dh.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Dh));
        let model = AppModel { kind: AppKind::Dh };
        let input = InputMeta::new(4_000, 777);
        let truth = libra_sim::demand::DemandModel::demand(&model, &input);
        let pred = p.predict(f, input).unwrap();
        // class prediction should cover the true peak without huge slack
        assert!(pred.cpu_millis >= truth.cpu_peak_millis, "pred {pred:?} truth {truth:?}");
        assert!(pred.cpu_millis <= truth.cpu_peak_millis + 2 * MILLIS_PER_CORE);
        let rel_err = (pred.duration.as_secs_f64() - truth.base_duration.as_secs_f64()).abs()
            / truth.base_duration.as_secs_f64();
        assert!(rel_err < 0.25, "duration rel err {rel_err}");
    }

    #[test]
    fn histogram_path_is_conservative() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Gp.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Gp));
        let pred = p.predict(f, InputMeta::new(5_000, 9)).unwrap();
        assert_eq!(pred.path, PredictionPath::Histogram);
        // p99 of GP cpu (1..6 cores) should be near the top of the range
        assert!(pred.cpu_millis >= 4_000, "conservative peak, got {}", pred.cpu_millis);
        // p5 duration should be near the bottom of the 2–20 s range
        assert!(pred.duration.as_secs_f64() < 5.0, "conservative duration, got {}", pred.duration);
    }

    #[test]
    fn untrained_predicts_none() {
        let p = profiler();
        assert!(p.predict(0, InputMeta::new(1, 1)).is_none());
        assert!(!p.is_trained(0));
        assert_eq!(p.is_size_related(0), None);
    }

    #[test]
    fn np_windows_predict_the_floored_maxima_of_the_five_latest_actuals() {
        let suite = sebs_suite();
        let mut est = DemandEstimator::windows(2);
        let input = InputMeta::new(1, 0);
        assert!(est.predict(0, &suite[0], input).is_none(), "nothing completed yet");
        let mut got = Vec::new();
        for k in 0..8 {
            let z = splitmix64_at(1, k);
            let a = Actuals {
                cpu_peak_millis: z % 400,
                mem_peak_mb: (z >> 16) % 96,
                exec_duration: SimDuration((z >> 32) % 2_000_000),
                input_size: 1,
            };
            est.observe(0, input, &a);
            let p = est.predict(0, &suite[0], input).expect("a completion was observed");
            assert_eq!(p.path, PredictionPath::Window);
            got.push((p.cpu_millis, p.mem_mb, p.duration.0));
        }
        // The actuals: (65, 2, 1363436), (169, 86, 1575143), (190, 82, 425070),
        // (242, 41, 663020), (361, 33, 102360), (275, 24, 1937597),
        // (245, 54, 183916), (116, 62, 1878712). The first is floored to
        // 100 millicores and 32 MB; from the sixth on, the oldest leave.
        let want = [
            (100, 32, 1_363_436),
            (169, 86, 1_575_143),
            (190, 86, 1_575_143),
            (242, 86, 1_575_143),
            (361, 86, 1_575_143),
            (361, 86, 1_937_597),
            (361, 82, 1_937_597),
            (361, 62, 1_937_597),
        ];
        assert_eq!(got, want);
        assert!(est.predict(1, &suite[1], input).is_none(), "one window per function");
    }

    #[test]
    fn online_observation_updates_histograms() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Gb.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Gb));
        // Feed many large observations; p99 cpu must move up.
        let before = p.predict(f, InputMeta::new(1, 1)).unwrap();
        for i in 0..500 {
            p.observe(
                f,
                InputMeta::new(1, i),
                &Actuals {
                    cpu_peak_millis: 7_900,
                    mem_peak_mb: 900,
                    exec_duration: SimDuration::from_secs(9),
                    input_size: 1,
                },
            );
        }
        let after = p.predict(f, InputMeta::new(1, 1)).unwrap();
        assert!(after.cpu_millis > before.cpu_millis, "{before:?} -> {after:?}");
    }

    #[test]
    fn duplicator_spans_sizes_log_uniformly() {
        let suite = sebs_suite();
        let dup = WorkloadDuplicator { points: 50, noise: 0.0, seed: 3 };
        let obs = dup.run(&suite[AppKind::Cp.id().idx()], InputMeta::new(50, 1));
        assert_eq!(obs.len(), 50);
        let min = obs.iter().map(|o| o.size).min().unwrap();
        let max = obs.iter().map(|o| o.size).max().unwrap();
        assert!(min <= 6, "should shrink to ~s/10, got {min}");
        assert!(max >= 450, "should grow to ~10x, got {max}");
    }

    /// The path that builds no forest for serving still answers, from the
    /// same pilot observations: p99 peaks and p5 duration of the duplicator's run.
    #[test]
    fn histogram_path_predicts_the_percentiles_of_its_pilot_observations() {
        let suite = sebs_suite();
        let f = AppKind::Vp.id().idx();
        let input = first_input(AppKind::Vp);
        let dup =
            WorkloadDuplicator { points: 100, noise: PILOT_NOISE, seed: SEED ^ (f as u64) << 8 };
        let mut h = HistModels::new();
        for o in dup.run(&suite[f], input) {
            h.observe(o.cpu_peak_millis, o.mem_peak_mb, o.duration.as_secs_f64());
        }
        let peak = |h: &StreamingHistogram| sat_u64(h.percentile(PEAK_PERCENTILE).unwrap().ceil());
        for choice in [ModelChoice::Auto, ModelChoice::HistogramOnly] {
            let mut p = Profiler::new(10, ProfilerConfig::default(), choice);
            p.train(f, &suite[f], input);
            let pred = p.predict(f, InputMeta::new(777, 1)).unwrap();
            assert_eq!(pred.path, PredictionPath::Histogram);
            assert_eq!(pred.cpu_millis, cpu_class(peak(&h.cpu)) * MILLIS_PER_CORE);
            assert_eq!(pred.mem_mb, mem_class(peak(&h.mem)) * MEM_CLASS_MB);
            let p5 = h.dur.percentile(DURATION_PERCENTILE).unwrap();
            assert_eq!(pred.duration, SimDuration::from_secs_f64(p5));
        }
    }

    /// `duplicate_points` below two would leave the relatedness test without
    /// a row to train on or a row to score: `new` raises it, nothing panics.
    #[test]
    fn fewer_than_two_duplicate_points_are_raised_to_two() {
        let suite = sebs_suite();
        let f = AppKind::Dh.id().idx();
        for duplicate_points in [0, 1] {
            for choice in [ModelChoice::Auto, ModelChoice::MlOnly] {
                let mut p = Profiler::new(10, ProfilerConfig { duplicate_points }, choice);
                p.train(f, &suite[f], first_input(AppKind::Dh));
                let s = p.scores(f).unwrap();
                assert!(s.cpu_acc.is_finite() && s.mem_acc.is_finite() && s.dur_r2.is_finite());
                let pred = p.predict(f, InputMeta::new(4_000, 1)).unwrap();
                assert!(pred.cpu_millis >= MILLIS_PER_CORE && pred.duration > SimDuration(0));
            }
        }
    }

    #[test]
    #[ignore = "known gap (ROADMAP item 7): `observe` widens the size domain on every observation \
                but refits every eighth, so until then a never-fitted size counts as inside the \
                domain and the forests flat-line at the old boundary; the fix moves every Libra \
                CSV and lands with the bounded-window / refit-schedule PR"]
    fn a_size_beyond_what_was_fitted_is_scaled_before_and_after_the_refit() {
        let suite = sebs_suite();
        let mut p = profiler();
        let f = AppKind::Dh.id().idx();
        let first = first_input(AppKind::Dh);
        p.train(f, &suite[f], first);
        let fitted_max = first.size * 10;
        let boundary = p.predict(f, InputMeta::new(fitted_max, 1)).unwrap();
        let floor = SimDuration::from_secs_f64(boundary.duration.as_secs_f64() * 10.0);

        let big = InputMeta::new(fitted_max * 10, 7);
        let observe = |p: &mut Profiler, input: InputMeta| {
            let d = suite[f].model.demand(&input);
            let actuals = Actuals {
                cpu_peak_millis: d.cpu_peak_millis,
                mem_peak_mb: d.mem_peak_mb,
                exec_duration: d.base_duration,
                input_size: input.size,
            };
            p.observe(f, input, &actuals);
        };
        observe(&mut p, big);
        let before = p.predict(f, big).unwrap();
        assert!(before.duration >= floor, "before the refit: {before:?} under {floor}");
        assert!(before.cpu_millis >= boundary.cpu_millis);

        for k in 0..(RETRAIN_EVERY as u64 - 1) {
            observe(&mut p, InputMeta::new(first.size + k, 8 + k));
        }
        let after = p.predict(f, big).unwrap();
        assert!(after.duration >= floor, "after the refit: {after:?} under {floor}");
        assert!(after.cpu_millis >= boundary.cpu_millis);
    }

    /// Every `Prediction` field of the ten functions at three sizes after
    /// `train`, then DH's again after the eight completions that refit its
    /// forests: the forests pinned at unit-test speed.
    #[test]
    fn predictions_keep_their_recorded_bits_across_a_refit() {
        let suite = sebs_suite();
        let mut p = profiler();
        let mut got = Vec::new();
        let mut predict = |p: &Profiler, f: usize, s: u64| {
            for size in [s / 4, s, 4 * s] {
                let pred = p.predict(f, InputMeta::new(size, 1)).unwrap();
                got.push((pred.cpu_millis, pred.mem_mb, pred.duration.0, pred.path));
            }
        };
        for kind in libra_workloads::ALL_APPS {
            let (f, input) = (kind.id().idx(), first_input(kind));
            p.train(f, &suite[f], input);
            predict(&p, f, input.size);
        }
        let (f, s) = (AppKind::Dh.id().idx(), first_input(AppKind::Dh).size);
        for k in 0..RETRAIN_EVERY as u64 {
            let input = InputMeta::new(s / 2 + k * s, 50 + k);
            let d = suite[f].model.demand(&input);
            let actuals = Actuals {
                cpu_peak_millis: d.cpu_peak_millis,
                mem_peak_mb: d.mem_peak_mb,
                exec_duration: d.base_duration,
                input_size: input.size,
            };
            p.observe(f, input, &actuals);
        }
        predict(&p, f, s);
        assert_eq!(got, PINNED_PREDICTIONS);
    }

    /// What that test predicts, as recorded before the forests shared one
    /// bootstrap layout across targets: UL … GB three rows each in
    /// `ALL_APPS` order, then DH after its refit.
    #[rustfmt::skip]
    const PINNED_PREDICTIONS: [(u64, u64, u64, PredictionPath); 33] = {
        use PredictionPath::{Histogram as H, Ml};
        [
            (1000, 128, 1253718, Ml), (1000, 128, 1929544, Ml), (1000, 128, 4817253, Ml),
            (1000, 128, 426332, Ml), (1000, 128, 808586, Ml), (1000, 128, 2250902, Ml),
            (2000, 128, 1384237, Ml), (2000, 128, 2765622, Ml), (3000, 256, 7720902, Ml),
            (1000, 256, 2063351, Ml), (2000, 256, 4025827, Ml), (3000, 512, 10950575, Ml),
            (2000, 128, 1679169, Ml), (2000, 128, 3897958, Ml), (5000, 256, 13240075, Ml),
            (11000, 896, 6000000, H), (11000, 896, 6000000, H), (11000, 896, 6000000, H),
            (7000, 1408, 3437500, H), (7000, 1408, 3437500, H), (7000, 1408, 3437500, H),
            (4000, 1280, 3250000, H), (4000, 1280, 3250000, H), (4000, 1280, 3250000, H),
            (3000, 768, 1750000, H), (3000, 768, 1750000, H), (3000, 768, 1750000, H),
            (3000, 640, 1416667, H), (3000, 640, 1416667, H), (3000, 640, 1416667, H),
            (2000, 128, 1692973, Ml), (2000, 128, 3898044, Ml), (5000, 256, 13268238, Ml),
        ]
    };

    #[test]
    fn hist_only_choice_forces_histograms() {
        let suite = sebs_suite();
        let mut p = Profiler::new(10, ProfilerConfig::default(), ModelChoice::HistogramOnly);
        let f = AppKind::Dh.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Dh));
        assert_eq!(p.is_size_related(f), Some(false));
        assert_eq!(p.predict(f, InputMeta::new(100, 1)).unwrap().path, PredictionPath::Histogram);
    }

    #[test]
    fn ml_only_choice_forces_forests() {
        let suite = sebs_suite();
        let mut p = Profiler::new(10, ProfilerConfig::default(), ModelChoice::MlOnly);
        let f = AppKind::Vp.id().idx();
        p.train(f, &suite[f], first_input(AppKind::Vp));
        assert_eq!(p.is_size_related(f), Some(true));
        assert_eq!(p.predict(f, InputMeta::new(100, 1)).unwrap().path, PredictionPath::Ml);
    }
}
