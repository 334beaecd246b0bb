//! The profiler (§4): transparent estimation of per-invocation resource
//! demands and execution time from input *size* only.
//!
//! Workflow (Fig 3, steps a–d):
//!
//! 1. **First invocation** of a function is served with user-configured
//!    resources while the [workload duplicator](WorkloadDuplicator) scales
//!    its input uniformly (up to 100×), runs one fully-provisioned pilot
//!    execution per duplicated point, and labels a training dataset with the
//!    observed `(cpu peak, mem peak, duration)`. [`Profiler::train`] records
//!    only the first sight, the demand model and input that regenerate that
//!    pilot set bit for bit; steps 2 and 3 wait for the function's first
//!    prediction, and the completions observed until then are kept in
//!    arrival order. A function never invoked again fits no forest.
//! 2. **Score.** Three models — two random-forest classifiers (CPU peak
//!    class = cores, memory peak class = 128 MB steps) and one random-forest
//!    regressor (duration) — are fitted on 70 % of the rows and evaluated on
//!    the held-out 30 %. The verdict is a conjunction, so it is evaluated
//!    lazily: the CPU-class forest first, alone, and the memory and duration
//!    forests only when its accuracy clears the threshold. A classifier
//!    grows tree by tree and stops at the first tree after which no votes of
//!    the trees still to come could change whether its held-out accuracy
//!    clears the threshold ([`HeldOutVotes`]); the duration forest grows
//!    whole, for its R². Every tree grown is the tree the whole test grows,
//!    so the verdict is the whole test's, bit for bit. Under a forced
//!    [`ModelChoice`] nothing is scored. [`Profiler::scores`] reruns the
//!    whole test on demand, from the pilot set the function's first sight
//!    regenerates; no run reads them, only `tests/profiler_pins.rs`, the
//!    `profiler_tour` example and this crate's tests.
//! 3. **Serve.** If accuracy and R² clear the thresholds, the function is
//!    **input size-related**: the same three models, fitted on all pilot
//!    rows, serve predictions. They are fitted when a prediction first reads
//!    them, so a function never predicted for grows no serving forest.
//!    Otherwise it is treated as a black box and three **histogram models**
//!    estimate conservatively — 99th-percentile peaks, 5th-percentile
//!    duration (§4.3.2) — and no serving forest is ever built for it. Each
//!    forest seeds its own RNG, so nothing crosses from step 2. The
//!    completions kept since the first sight are then replayed into the
//!    chosen models, in arrival order, as step 4 would have fed them.
//! 4. Observed actuals feed **online updates** after every completion:
//!    histogram inserts always; on the ML path every `RETRAIN_EVERY`-th
//!    observation resets the serving forests to a refit on the rows so far,
//!    grown at the next prediction from exactly those rows. A refit that no
//!    prediction reads before the next one is never grown.
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
use libra_ml::forest::{ForestParams, HeldOutVotes, RandomForest};
use libra_ml::histogram::StreamingHistogram;
use libra_ml::metrics::{accuracy, r2_score};
use libra_ml::tree::Task;
use libra_sim::demand::{DemandModel, InputMeta};
use libra_sim::function::FunctionSpec;
use libra_sim::invocation::{Actuals, Prediction, PredictionPath};
use libra_sim::metrics::{splitmix64_at, unit_f64};
use libra_sim::resources::{sat_u64, MILLIS_PER_CORE};
use libra_sim::time::SimDuration;
use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;

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

/// Quality scores of the relatedness test (§4.3), as [`Profiler::scores`]
/// reports them.
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
    /// Duplicate `first_input` of a function whose pilot runs `model` reveals
    /// into labelled observations. Sizes
    /// span `[max(1, s/10), 10·s]` **uniformly** ("duplicated uniformly",
    /// §4.2) — a 100× total span ("a maximum of 100 times", §8.2.3) centred
    /// on the first-seen size, covering both shrunk and grown variants. Each
    /// duplicated point derives a fresh content seed, because duplicating
    /// data changes its content too.
    pub fn run(&self, model: &dyn DemandModel, first_input: InputMeta) -> Vec<PilotObservation> {
        let s = first_input.size.max(1);
        let lo = (s / 10).max(1);
        let hi = s.saturating_mul(10).max(lo + 1);
        (0..self.points)
            .map(|k| {
                let frac = k as f64 / (self.points - 1).max(1) as f64;
                let size = sat_u64((lo as f64 + frac * (hi - lo) as f64).round());
                let content = splitmix64_at(first_input.content_seed ^ self.seed, k as u64);
                let d = model.demand(&InputMeta::new(size.max(1), content));
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

/// Every profiler forest: 24 trees, all randomness from `seed`.
fn forest_params(seed: u64) -> ForestParams {
    ForestParams { n_trees: 24, seed }
}

/// The CPU-class forest's task: a class per core count up to the maximum.
const CPU_TASK: Task = Task::Classification { n_classes: MAX_CPU_CLASS + 1 };

impl Forests {
    /// Fit the three on rows `x` with one target column each, in one
    /// `fit_many`: the three share `seed`, so tree `k` of each draws and
    /// sorts the same bootstrap, once. Each forest is the one `fit` would
    /// give alone, so a fit depends on nothing fitted before.
    fn fit(x: &[Vec<f64>], cpu: &[f64], mem: &[f64], dur: &[f64], n_mem: usize, seed: u64) -> Self {
        let mem_task = Task::Classification { n_classes: n_mem };
        let targets = [(cpu, CPU_TASK), (mem, mem_task), (dur, Task::Regression)];
        let [cpu, mem, dur] = RandomForest::fit_many(x, &targets, forest_params(seed));
        Forests { cpu, mem, dur }
    }

    /// The prediction at `size` from forests whose rows cover sizes
    /// `lo..=hi`. Inside that domain the forests are queried directly.
    /// Beyond it they are evaluated at the boundary and scaled linearly by
    /// the size ratio: conservative over-estimation beats the silent
    /// under-estimation a flat-lining tree would give.
    fn predict(&self, size: u64, lo: u64, hi: u64) -> Prediction {
        let ratio = if size > hi { size as f64 / hi.max(1) as f64 } else { 1.0 };
        let x = features(size.clamp(lo, hi.max(lo)));
        let cpu_raw = (self.cpu.predict_class(&x)).max(1) as f64 * MILLIS_PER_CORE as f64;
        let mem_raw = (self.mem.predict_class(&x)).max(1) as f64 * MEM_CLASS_MB as f64;
        Prediction {
            cpu_millis: cpu_class(sat_u64(cpu_raw * ratio)) * MILLIS_PER_CORE,
            mem_mb: mem_class(sat_u64(mem_raw * ratio)) * MEM_CLASS_MB,
            duration: SimDuration::from_secs_f64((self.dur.predict(&x) * ratio).max(0.001)),
            path: PredictionPath::Ml,
        }
    }
}

/// The ML path: the accumulated dataset for online refits, and the serving
/// forests fitted from its first rows when a prediction first reads them.
struct MlModels {
    data: Dataset3,
    /// What the serving forests are fitted from: the first `n` rows of
    /// `data`, and the seed.
    fit: (usize, u64),
    /// The forests of `fit`, once a prediction has read them.
    forests: Option<Forests>,
    since_refit: usize,
    /// Size domain covered by the training data; predictions outside it
    /// extrapolate linearly (trees otherwise flat-line at the boundary,
    /// silently under-predicting demand for never-seen-this-big inputs —
    /// the unsafe direction).
    size_min: u64,
    size_max: u64,
}

impl MlModels {
    /// The serving forests, fitted on first read and counted in `fits`.
    /// Rows observed after `fit` was recorded stay out of them, so they are
    /// bit for bit the forests a fit at that moment would have grown.
    fn forests(&mut self, fits: &mut FitCounts) -> &Forests {
        let (n, seed) = self.fit;
        self.forests.get_or_insert_with(|| {
            fits.serving += 1;
            fits.serving_rows += n as u64;
            self.data.fit_first(n, seed)
        })
    }
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
    /// The labelled rows of a pilot run.
    fn pilot(obs: &[PilotObservation]) -> Self {
        let mut data = Dataset3::default();
        for o in obs {
            data.push(
                o.size,
                cpu_class(o.cpu_peak_millis),
                mem_class(o.mem_peak_mb),
                o.duration.as_secs_f64(),
            );
        }
        data
    }

    fn push(&mut self, size: u64, cpu_cls: u64, mem_cls: u64, dur_s: f64) {
        self.x.push(features(size));
        self.cpu.push(cpu_cls as f64);
        self.mem.push(mem_cls as f64);
        self.dur.push(dur_s);
    }

    fn len(&self) -> usize {
        self.x.len()
    }

    /// The serving forests on the first `n` rows.
    fn fit_first(&self, n: usize, seed: u64) -> Forests {
        let mem = &self.mem[..n];
        Forests::fit(&self.x[..n], &self.cpu[..n], mem, &self.dur[..n], n_mem_classes(mem), seed)
    }

    /// The 7:3 split of the relatedness test (§4.3): its train rows and
    /// test rows, with the row numbers of each. One split serves the three
    /// targets.
    fn split(&self, seed: u64) -> Split {
        let (tr, te) = split_indices(self.len(), TRAIN_FRAC, seed);
        let rows = |ids: &[usize]| ids.iter().map(|&i| self.x[i].clone()).collect::<Vec<_>>();
        Split { train: rows(&tr), test: rows(&te), tr, te }
    }

    /// The relatedness test's scores: the three forests fitted on the
    /// split's train rows in one `fit_many`, each scored on its test rows.
    fn scores(&self, seed: u64) -> ModelScores {
        let split = self.split(seed);
        let (tr, te) = (&split.tr, &split.te);
        let pick = |ids: &[usize], col: &[f64]| ids.iter().map(|&i| col[i]).collect::<Vec<_>>();
        let (cpu, mem, dur) = (pick(tr, &self.cpu), pick(tr, &self.mem), pick(tr, &self.dur));
        let rf = Forests::fit(&split.train, &cpu, &mem, &dur, n_mem_classes(&self.mem), seed);
        let class_acc = |forest: &RandomForest, col: &[f64]| {
            accuracy(
                &split.test.iter().map(|r| forest.predict_class(r)).collect::<Vec<_>>(),
                &te.iter().map(|&i| label(col[i])).collect::<Vec<_>>(),
            )
        };
        ModelScores {
            cpu_acc: class_acc(&rf.cpu, &self.cpu),
            mem_acc: class_acc(&rf.mem, &self.mem),
            dur_r2: r2_score(
                &split.test.iter().map(|r| rf.dur.predict(r)).collect::<Vec<_>>(),
                &pick(te, &self.dur),
            ),
        }
    }

    /// The relatedness verdict, grown only as far as it needs: whether the
    /// scores would clear their thresholds, and what deciding it cost. The
    /// verdict is a conjunction, read in order. The CPU-class forest grows
    /// alone, tree by tree, until its held-out accuracy is settled
    /// (`HeldOutVotes`); a fail ends the test. The memory-class forest
    /// follows alike, then the duration forest, whole, for its R². Each
    /// forest is the one a three-target fit grows, cut where it settled.
    fn related(&self, seed: u64, fits: &mut FitCounts) -> bool {
        let split = self.split(seed);
        let (tr, te) = (&split.tr, &split.te);
        let pick = |ids: &[usize], col: &[f64]| ids.iter().map(|&i| col[i]).collect::<Vec<_>>();
        let params = forest_params(seed);
        let mut clears = |col: &[f64], n_classes: usize, thr: f64| {
            let truth: Vec<usize> = te.iter().map(|&i| label(col[i])).collect();
            let mut votes = HeldOutVotes::new(&split.test, &truth, n_classes, params.n_trees, thr);
            let targets = [(&pick(tr, col)[..], Task::Classification { n_classes })];
            let [forest] = RandomForest::fit_many_while(&split.train, &targets, params, |[f]| {
                votes.tally(f);
                votes.settled().is_none()
            });
            fits.relatedness_trees += forest.len() as u64;
            votes.settled() == Some(true)
        };
        fits.relatedness += 1;
        if !clears(&self.cpu, MAX_CPU_CLASS + 1, ACC_THRESHOLD) {
            return false;
        }
        fits.relatedness += 1;
        if !clears(&self.mem, n_mem_classes(&self.mem), MEM_ACC_THRESHOLD) {
            return false;
        }
        let dur = RandomForest::fit(&split.train, &pick(tr, &self.dur), Task::Regression, params);
        fits.relatedness_trees += dur.len() as u64;
        let pred: Vec<f64> = split.test.iter().map(|r| dur.predict(r)).collect();
        r2_score(&pred, &pick(te, &self.dur)) >= R2_THRESHOLD
    }
}

/// A split of a dataset's rows: the train rows and test rows, and their row
/// numbers.
struct Split {
    train: Vec<Vec<f64>>,
    test: Vec<Vec<f64>>,
    tr: Vec<usize>,
    te: Vec<usize>,
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
    /// First seen, its verdict not reached yet: the completions observed
    /// since, in arrival order.
    Seen(Vec<(InputMeta, Actuals)>),
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

/// What a profiler's forests have cost it, in fits, counted with no clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FitCounts {
    /// Forest fits of the relatedness test, each run when a prediction first
    /// read its function's verdict: one for the CPU-class forest, and one
    /// more for the memory and duration forests when its accuracy passes.
    pub relatedness: u64,
    /// Trees those fits grew: a classifier stops at the tree that settles
    /// its held-out accuracy, the duration forest grows whole.
    pub relatedness_trees: u64,
    /// Serving forest sets (the three in one `fit_many`) fitted, each when a
    /// prediction first read it.
    pub serving: u64,
    /// Rows summed over those serving fits: what they cost, as a refit on a
    /// function's whole history grows it.
    pub serving_rows: u64,
}

/// The per-platform profiler: one model set per deployed function.
pub struct Profiler {
    cfg: ProfilerConfig,
    choice: ModelChoice,
    states: Vec<FuncState>,
    /// Per trained function, what regenerates its pilot set: its demand
    /// model and the input it was first seen with.
    first_sights: Vec<Option<(Arc<dyn DemandModel>, InputMeta)>>,
    /// What its forests have cost it so far.
    fits: FitCounts,
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
            first_sights: vec![None; n_funcs],
            fits: FitCounts::default(),
        }
    }

    /// The forests fitted so far.
    pub fn fits(&self) -> FitCounts {
        self.fits
    }

    /// Whether function `f` has been seen yet. Its verdict and models wait
    /// for its first prediction.
    pub fn is_trained(&self, f: usize) -> bool {
        !matches!(self.states[f], FuncState::Untrained)
    }

    /// The relatedness-test scores for `f`, if seen: the whole test, run on
    /// the pilot set `f`'s first sight regenerates. A verdict reads only as
    /// much of it as decides it, so every call computes them anew and counts
    /// no fit.
    pub fn scores(&self, f: usize) -> Option<ModelScores> {
        Some(self.first_pilot(f)?.1.scores(SEED ^ f as u64))
    }

    /// The pilot observations of `f` first seen at `input` (§4.2) and their
    /// labelled rows: the same on every call.
    fn pilot(
        &self,
        f: usize,
        model: &dyn DemandModel,
        input: InputMeta,
    ) -> (Vec<PilotObservation>, Dataset3) {
        let dup = WorkloadDuplicator {
            points: self.cfg.duplicate_points,
            noise: PILOT_NOISE,
            seed: SEED ^ (f as u64) << 8,
        };
        let obs = dup.run(model, input);
        let data = Dataset3::pilot(&obs);
        (obs, data)
    }

    /// The pilot set of `f`'s recorded first sight, if seen.
    fn first_pilot(&self, f: usize) -> Option<(Vec<PilotObservation>, Dataset3)> {
        let (model, input) = self.first_sights[f].as_ref()?;
        Some(self.pilot(f, model.as_ref(), *input))
    }

    /// Whether `f` was classified input size-related (ML path). For a
    /// function not yet predicted for, the verdict is computed on demand, as
    /// [`Profiler::scores`] are, and its fits are not counted.
    pub fn is_size_related(&self, f: usize) -> Option<bool> {
        match &self.states[f] {
            FuncState::Untrained => None,
            FuncState::Seen(_) => {
                let data = self.first_pilot(f)?.1;
                Some(self.verdict(&data, SEED ^ f as u64, &mut FitCounts::default()))
            }
            FuncState::Ml(_) => Some(true),
            FuncState::Hist(_) => Some(false),
        }
    }

    /// Whether a function with pilot rows `data` is served by forests,
    /// counting in `fits` the relatedness test's forests that decided it: the
    /// test runs with `seed`, only as far as the verdict needs, and only
    /// under [`ModelChoice::Auto`].
    fn verdict(&self, data: &Dataset3, seed: u64, fits: &mut FitCounts) -> bool {
        match self.choice {
            ModelChoice::Auto => data.related(seed, fits),
            ModelChoice::HistogramOnly => false,
            ModelChoice::MlOnly => true,
        }
    }

    /// The first invocation of `f` (§4.1): record what regenerates its pilot
    /// set. Duplicating, scoring and building the models the verdict picks
    /// wait for `f`'s first prediction, so a function never invoked again
    /// fits no forest.
    pub fn train(&mut self, f: usize, spec: &FunctionSpec, first_input: InputMeta) {
        self.first_sights[f] = Some((Arc::clone(&spec.model), first_input));
        self.states[f] = FuncState::Seen(Vec::new());
    }

    /// Predict the three metrics for an invocation of `f` with `input`
    /// (Step c/d of Fig 3). Returns `None` when `f` is untrained. The first
    /// prediction after the first sight reaches `f`'s verdict; on the ML
    /// path, the first prediction after a first sight or a refit grows the
    /// serving forests.
    pub fn predict(&mut self, f: usize, input: InputMeta) -> Option<Prediction> {
        if matches!(self.states[f], FuncState::Seen(_)) {
            self.resolve(f);
        }
        match &mut self.states[f] {
            FuncState::Untrained | FuncState::Seen(_) => None,
            FuncState::Ml(m) => {
                let (lo, hi) = (m.size_min, m.size_max);
                Some(m.forests(&mut self.fits).predict(input.size, lo, hi))
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

    /// Reach the verdict of `f`, seen and not yet predicted for, from the
    /// pilot set its first sight regenerates, and build the models it picks:
    /// the serving forests are recorded to fit on the pilot rows with the
    /// first-sight seed, the histograms take the pilot observations. Then
    /// replay the completions observed since, in arrival order, through
    /// `observe`, so refits, the size domain and the histograms' insert order
    /// are those of a verdict reached at the first sight.
    fn resolve(&mut self, f: usize) {
        let Some((obs, data)) = self.first_pilot(f) else { return };
        let seed = SEED ^ f as u64;
        let mut fits = self.fits;
        let use_ml = self.verdict(&data, seed, &mut fits);
        self.fits = fits;
        let models = if use_ml {
            let sizes = obs.iter().map(|o| o.size);
            FuncState::Ml(Box::new(MlModels {
                fit: (data.len(), seed),
                forests: None,
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
        if let FuncState::Seen(buffered) = mem::replace(&mut self.states[f], models) {
            for (input, actuals) in &buffered {
                self.observe(f, *input, actuals);
            }
        }
    }

    /// Online update after a completion (§4.1 "model update").
    pub fn observe(&mut self, f: usize, input: InputMeta, actuals: &Actuals) {
        match &mut self.states[f] {
            FuncState::Untrained => {}
            FuncState::Seen(buffered) => buffered.push((input, *actuals)),
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
                    m.fit = (m.data.len(), 1);
                    m.forests = None;
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
        let mut p = profiler();
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
        let obs = dup.run(suite[AppKind::Cp.id().idx()].model.as_ref(), InputMeta::new(50, 1));
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
        for o in dup.run(suite[f].model.as_ref(), input) {
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
        let mut predict = |p: &mut Profiler, f: usize, s: u64| {
            for size in [s / 4, s, 4 * s] {
                let pred = p.predict(f, InputMeta::new(size, 1)).unwrap();
                got.push((pred.cpu_millis, pred.mem_mb, pred.duration.0, pred.path));
            }
        };
        for kind in libra_workloads::ALL_APPS {
            let (f, input) = (kind.id().idx(), first_input(kind));
            p.train(f, &suite[f], input);
            predict(&mut p, f, input.size);
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
        predict(&mut p, f, s);
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

    /// Forty catalogue functions — four profiles of each app, told apart by
    /// their function id — first seen at their pool's first input or, every
    /// third, at a size of 1–5, whose duplicated sizes tie in runs. Per
    /// function, one splitmix fold of every `Prediction` field at three sizes
    /// after `train`, then again after the eight completions that refit an
    /// ML-path function's forests.
    #[test]
    fn catalogue_predictions_keep_their_recorded_bits_across_a_refit() {
        use libra_sim::metrics::splitmix64_at as mix;
        let suite = sebs_suite();
        let gen = libra_workloads::TraceGen::zipf_catalogue(40, SEED, 1.1);
        let mut p = Profiler::new(40, ProfilerConfig::default(), ModelChoice::Auto);
        let (mut got, mut tiny_ml) = ([0u64; 40], 0);
        for (f, fold) in got.iter_mut().enumerate() {
            let spec = &suite[gen.kinds[f].id().idx()];
            let pooled = gen.pools[f].inputs[0];
            let s = if f % 3 == 2 { 1 + f as u64 % 5 } else { pooled.size };
            p.train(f, spec, InputMeta::new(s, pooled.content_seed));
            let mut predict = |p: &mut Profiler| {
                for size in [s / 4, s, 4 * s] {
                    let pred = p.predict(f, InputMeta::new(size, 1)).unwrap();
                    let path = u64::from(pred.path == PredictionPath::Ml);
                    for v in [pred.cpu_millis, pred.mem_mb, pred.duration.0, path] {
                        *fold = mix(*fold, v);
                    }
                }
            };
            predict(&mut p);
            for k in 0..RETRAIN_EVERY as u64 {
                let input = InputMeta::new((s / 2).max(1) + k * s, 50 + k);
                let d = spec.model.demand(&input);
                let actuals = Actuals {
                    cpu_peak_millis: d.cpu_peak_millis,
                    mem_peak_mb: d.mem_peak_mb,
                    exec_duration: d.base_duration,
                    input_size: input.size,
                };
                p.observe(f, input, &actuals);
            }
            predict(&mut p);
            tiny_ml += usize::from(f % 3 == 2 && p.is_size_related(f) == Some(true));
        }
        assert!(tiny_ml >= 3, "tied duplicated sizes reach the forests: {tiny_ml}");
        assert_eq!(got, PINNED_CATALOGUE);
    }

    /// What that test folds, as recorded before a forest's order-twin
    /// features (`ln s` of `s`) shared their leader's sorted layout.
    #[rustfmt::skip]
    const PINNED_CATALOGUE: [u64; 40] = [
        0x606b_8d74_4f2d_358f, 0x0fdf_9490_9788_ec0a, 0x28a9_1e2b_057b_5897, 0xe831_110a_f08f_0b37,
        0x043b_8bfb_c80b_7e11, 0x12a1_abed_ca43_648b, 0x45c9_bf12_bb89_3f75, 0xaac6_4ad4_7a38_2b28,
        0x37f3_d47f_e981_f0b8, 0x61bd_d576_fff8_506f, 0xf7b3_a28b_2203_9b26, 0xa2ac_baa0_2920_d7f1,
        0x94e3_80f7_1d92_f8a9, 0x3d1c_bb17_5c1a_832c, 0xba01_cf7f_b4c0_440a, 0xfd0d_8e08_c5b1_90a2,
        0xdb62_a805_02ea_4444, 0x676b_909f_4f6f_ab51, 0xfda5_ce81_4b51_b90a, 0xee91_1b79_a2f8_8536,
        0x6096_fdea_406f_3444, 0xae98_70eb_138e_6160, 0x38ad_0119_b042_a1ad, 0x9344_2696_a559_b5b8,
        0xbe41_fc11_fe1c_41be, 0xeeaa_1b41_7108_73e7, 0x40b8_876a_dfa5_e27f, 0xc6c2_4551_eea5_2a63,
        0x58e9_33d2_65be_d357, 0xb91c_b641_c40a_7cb9, 0x4bd6_bb53_6a98_af9d, 0x6129_d834_d4a1_e349,
        0xb94c_1168_fa1e_5231, 0x6ee3_3d70_0bdd_1d68, 0x388e_0eea_3ecb_22c6, 0x97c3_2aeb_f161_391b,
        0x9266_c1c3_e4ad_64dd, 0x56ae_04af_6d32_6dcd, 0x4eb2_c1fe_41b0_6325, 0xf321_8db8_b099_68d3,
    ];

    /// The relatedness test as it was before it turned lazy: the three
    /// forests in one three-target fit on the train rows, every score
    /// computed whatever the first says.
    fn eager_relatedness(data: &Dataset3, seed: u64) -> ModelScores {
        let (tr, te) = split_indices(data.len(), TRAIN_FRAC, seed);
        let rows = |ids: &[usize]| ids.iter().map(|&i| data.x[i].clone()).collect::<Vec<_>>();
        let pick = |ids: &[usize], col: &[f64]| ids.iter().map(|&i| col[i]).collect::<Vec<_>>();
        let rf = Forests::fit(
            &rows(&tr),
            &pick(&tr, &data.cpu),
            &pick(&tr, &data.mem),
            &pick(&tr, &data.dur),
            n_mem_classes(&data.mem),
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
            cpu_acc: class_acc(&rf.cpu, &data.cpu),
            mem_acc: class_acc(&rf.mem, &data.mem),
            dur_r2: r2_score(
                &tex.iter().map(|r| rf.dur.predict(r)).collect::<Vec<_>>(),
                &pick(&te, &data.dur),
            ),
        }
    }

    /// Every app first seen at the low end, the geometric mean and the high
    /// end of its size range, under every choice: `scores` gives the eager
    /// test's scores bit for bit and the model path is the eager verdict's.
    #[test]
    fn lazy_relatedness_keeps_the_eager_scores_and_verdict() {
        let suite = sebs_suite();
        let bits = |s: ModelScores| [s.cpu_acc, s.mem_acc, s.dur_r2].map(f64::to_bits);
        let mut verdicts = [0; 2];
        for kind in libra_workloads::ALL_APPS {
            let f = kind.id().idx();
            let (lo, hi) = kind.size_range();
            for input in [InputMeta::new(lo, 12345), first_input(kind), InputMeta::new(hi, 12345)] {
                let (_, pilot) = profiler().pilot(f, suite[f].model.as_ref(), input);
                let want = eager_relatedness(&pilot, SEED ^ f as u64);
                let related =
                    want.input_size_related(ACC_THRESHOLD, MEM_ACC_THRESHOLD, R2_THRESHOLD);
                verdicts[usize::from(related)] += 1;
                for (choice, use_ml) in [
                    (ModelChoice::Auto, related),
                    (ModelChoice::HistogramOnly, false),
                    (ModelChoice::MlOnly, true),
                ] {
                    let mut p = Profiler::new(10, ProfilerConfig::default(), choice);
                    p.train(f, &suite[f], input);
                    let what = format!("{} at {} under {choice:?}", kind.name(), input.size);
                    assert_eq!(bits(p.scores(f).unwrap()), bits(want), "{what}");
                    assert_eq!(p.is_size_related(f), Some(use_ml), "{what}");
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n >= 10), "both verdicts are reached: {verdicts:?}");
    }

    /// First-sight training as it was before the verdict waited for a
    /// prediction: the pilot set, the relatedness test as far as the verdict
    /// needs, and the models it picks, all at `f`'s first sight.
    fn train_eagerly(p: &mut Profiler, f: usize, spec: &FunctionSpec, first_input: InputMeta) {
        let (obs, data) = p.pilot(f, spec.model.as_ref(), first_input);
        p.first_sights[f] = Some((Arc::clone(&spec.model), first_input));
        let seed = SEED ^ f as u64;
        let mut fits = p.fits;
        let use_ml = p.verdict(&data, seed, &mut fits);
        p.fits = fits;
        p.states[f] = if use_ml {
            let sizes = obs.iter().map(|o| o.size);
            FuncState::Ml(Box::new(MlModels {
                fit: (data.len(), seed),
                forests: None,
                data,
                since_refit: 0,
                size_min: sizes.clone().min().unwrap(),
                size_max: sizes.max().unwrap(),
            }))
        } else {
            let mut h = HistModels::new();
            for o in &obs {
                h.observe(o.cpu_peak_millis, o.mem_peak_mb, o.duration.as_secs_f64());
            }
            FuncState::Hist(Box::new(h))
        };
    }

    /// A verdict reached at the first prediction, after the completions
    /// observed since the first sight are replayed, predicts bit for bit
    /// what first-sight training did: every app under every choice, with 0,
    /// 1, 7, 8, 9 and 17 completions before that prediction (so refits fall
    /// inside the replay), and again across the refit the next completions
    /// force. `is_size_related` agrees before any prediction, and reaching it
    /// then fits nothing; the first prediction fits what training did.
    #[test]
    fn a_verdict_read_late_predicts_what_first_sight_training_did() {
        let suite = sebs_suite();
        let fields = |p: Prediction| (p.cpu_millis, p.mem_mb, p.duration.0, p.path);
        let mut paths = [0; 2];
        for kind in libra_workloads::ALL_APPS {
            let (f, first) = (kind.id().idx(), first_input(kind));
            let s = first.size;
            let observe = |p: &mut Profiler, k: u64| {
                let input = InputMeta::new(s / 3 + k * s / 2 + 1, 90 + k);
                let d = suite[f].model.demand(&input);
                let actuals = Actuals {
                    cpu_peak_millis: d.cpu_peak_millis,
                    mem_peak_mb: d.mem_peak_mb,
                    exec_duration: d.base_duration,
                    input_size: input.size,
                };
                p.observe(f, input, &actuals);
            };
            for choice in [ModelChoice::Auto, ModelChoice::MlOnly, ModelChoice::HistogramOnly] {
                for buffered in [0, 1, 7, 8, 9, 17] {
                    let what = format!("{} under {choice:?}, {buffered} buffered", kind.name());
                    let mut late = Profiler::new(10, ProfilerConfig::default(), choice);
                    let mut eager = Profiler::new(10, ProfilerConfig::default(), choice);
                    late.train(f, &suite[f], first);
                    train_eagerly(&mut eager, f, &suite[f], first);
                    for k in 0..buffered {
                        observe(&mut late, k);
                        observe(&mut eager, k);
                    }
                    let related = eager.is_size_related(f);
                    assert_eq!(late.is_size_related(f), related, "{what}");
                    assert_eq!(late.fits(), FitCounts::default(), "{what}: nothing predicted");
                    for k in [buffered, buffered + RETRAIN_EVERY as u64] {
                        for size in [1, s / 4, s, 40 * s] {
                            let input = InputMeta::new(size, 1);
                            let got = late.predict(f, input).unwrap();
                            let want = eager.predict(f, input).unwrap();
                            assert_eq!(
                                fields(got),
                                fields(want),
                                "{what}, {k} observed, at {size}"
                            );
                        }
                        assert_eq!(late.fits(), eager.fits(), "{what}, {k} observed");
                        for j in k..k + RETRAIN_EVERY as u64 {
                            observe(&mut late, j);
                            observe(&mut eager, j);
                        }
                    }
                    assert_eq!(late.is_size_related(f), related, "{what}");
                    paths[usize::from(related == Some(true))] += 1;
                }
            }
        }
        assert!(paths.iter().all(|&n| n >= 60), "both paths are replayed into: {paths:?}");
    }

    /// The serving forests as they were fitted before they turned lazy: at
    /// `train`, on the pilot rows with the first-sight seed, and at every
    /// `RETRAIN_EVERY`-th observation, on every row so far with seed 1.
    /// Predictions read the latest; `epochs_read` counts the fits a
    /// prediction read before the next replaced them.
    struct EagerServing {
        data: Dataset3,
        forests: Forests,
        since_refit: usize,
        size_min: u64,
        size_max: u64,
        fits: u64,
        read: bool,
        epochs_read: u64,
    }

    impl EagerServing {
        fn train(p: &Profiler, f: usize, spec: &FunctionSpec, input: InputMeta) -> Self {
            let (obs, data) = p.pilot(f, spec.model.as_ref(), input);
            let sizes = obs.iter().map(|o| o.size);
            EagerServing {
                forests: data.fit_first(data.len(), SEED ^ f as u64),
                data,
                since_refit: 0,
                size_min: sizes.clone().min().unwrap(),
                size_max: sizes.max().unwrap(),
                fits: 1,
                read: false,
                epochs_read: 0,
            }
        }

        fn observe(&mut self, input: InputMeta, a: &Actuals) {
            let (cpu, mem) = (cpu_class(a.cpu_peak_millis), mem_class(a.mem_peak_mb));
            self.data.push(input.size, cpu, mem, a.exec_duration.as_secs_f64());
            self.size_min = self.size_min.min(input.size);
            self.size_max = self.size_max.max(input.size);
            self.since_refit += 1;
            if self.since_refit == RETRAIN_EVERY {
                self.since_refit = 0;
                self.forests = self.data.fit_first(self.data.len(), 1);
                self.fits += 1;
                self.read = false;
            }
        }

        fn predict(&mut self, size: u64) -> Prediction {
            self.epochs_read += u64::from(!self.read);
            self.read = true;
            self.forests.predict(size, self.size_min, self.size_max)
        }
    }

    /// One step after a first sight: a completion, or a prediction, at a size.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Observe(u64),
        Predict(u64),
    }

    /// Run `steps` through a `Profiler` under `choice` and the eager oracle,
    /// `kind` first seen at its geometric mean; every prediction must match
    /// bit for bit. Returns the profiler's serving fits and the oracle's
    /// fits and read fits.
    fn lazy_against_eager(choice: ModelChoice, kind: AppKind, steps: &[Step]) -> [u64; 3] {
        let suite = sebs_suite();
        let (f, input) = (kind.id().idx(), first_input(kind));
        let mut p = Profiler::new(10, ProfilerConfig::default(), choice);
        p.train(f, &suite[f], input);
        assert_eq!(p.is_size_related(f), Some(true), "{}", kind.name());
        let mut eager = EagerServing::train(&p, f, &suite[f], input);
        let fields = |p: Prediction| (p.cpu_millis, p.mem_mb, p.duration.0, p.path);
        for (k, &step) in steps.iter().enumerate() {
            match step {
                Step::Observe(size) => {
                    let input = InputMeta::new(size, 70 + k as u64);
                    let d = suite[f].model.demand(&input);
                    let actuals = Actuals {
                        cpu_peak_millis: d.cpu_peak_millis,
                        mem_peak_mb: d.mem_peak_mb,
                        exec_duration: d.base_duration,
                        input_size: size,
                    };
                    p.observe(f, input, &actuals);
                    eager.observe(input, &actuals);
                }
                Step::Predict(size) => {
                    let got = p.predict(f, InputMeta::new(size, 1)).unwrap();
                    let want = eager.predict(size);
                    let what = format!("{} under {choice:?}, step {k}: {step:?}", kind.name());
                    assert_eq!(fields(got), fields(want), "{what}");
                }
            }
        }
        [p.fits().serving, eager.fits, eager.epochs_read]
    }

    /// The serving forests are grown when a prediction first reads them, from
    /// the rows and seed of the moment they were due: every prediction is the
    /// eager one bit for bit, before any refit, right after the eighth
    /// observation, five observations past it, after refits no prediction
    /// read, below and above the fitted sizes and past a widened domain, and
    /// over seeded interleavings. A fit no prediction reads is never grown.
    #[test]
    fn lazy_serving_forests_predict_what_eager_fits_did() {
        use Step::{Observe as O, Predict as P};
        let (mut lazy_total, mut eager_total) = (0, 0);
        for choice in [ModelChoice::Auto, ModelChoice::MlOnly] {
            for kind in libra_workloads::ALL_APPS.into_iter().filter(|k| k.input_size_related()) {
                let s = first_input(kind).size;
                let observe = |n: u64| (0..n).map(move |k| O(s / 2 + k * s / 3 + 1));
                let mut scripted = vec![P(s)];
                scripted.extend(observe(RETRAIN_EVERY as u64));
                scripted.push(P(s));
                scripted.extend(observe(5));
                scripted.push(P(2 * s));
                scripted.extend(observe(3 + 2 * RETRAIN_EVERY as u64));
                scripted.extend([P(s), P(1), P(s / 20), P(30 * s)]);
                scripted.extend(observe(2).chain([O(200 * s)]));
                scripted.extend([P(100 * s), P(400 * s)]);
                let mut schedules = vec![scripted];
                for seed in 0..2u64 {
                    let schedule = (0..40).map(|k| {
                        let z = splitmix64_at(seed ^ (kind.id().idx() as u64) << 8, k);
                        let size = sat_u64(s as f64 * 10f64.powf(3.0 * unit_f64(z >> 2) - 1.5));
                        if z.is_multiple_of(3) {
                            P(size)
                        } else {
                            O(size.max(1))
                        }
                    });
                    schedules.push(schedule.collect());
                }
                for steps in &schedules {
                    let [lazy, eager, read] = lazy_against_eager(choice, kind, steps);
                    assert_eq!(lazy, read, "{} under {choice:?}", kind.name());
                    assert!(lazy <= eager);
                    (lazy_total, eager_total) = (lazy_total + lazy, eager_total + eager);
                }
                let unpredicted: Vec<_> = observe(3 * RETRAIN_EVERY as u64).collect();
                let fits = lazy_against_eager(choice, kind, &unpredicted);
                assert_eq!(fits, [0, 4, 0], "{}: nothing predicted, nothing grown", kind.name());
            }
        }
        assert!(lazy_total < eager_total, "some fits go unread: {lazy_total} of {eager_total}");
    }

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
