//! The ten serverless applications of Table 1.
//!
//! The paper evaluates with the SeBS benchmark suite \[14\]: five functions
//! whose resource demands and execution time are dominated by *input size*
//! (UL, TN, CP, DV, DH) and five dominated by *input content* (VP, IR, GP,
//! GM, GB). SeBS itself is Python + real datasets (CIFAR-100, YouTube-8M,
//! NCBI genomes, igraph); neither the code nor the datasets are available
//! here, so each application is modelled analytically by the observable
//! signature Libra consumes: `(cpu peak, memory peak, duration) = f(input)`.
//!
//! The models encode the paper's qualitative shapes:
//! * size-related functions: smooth monotone curves of input size with a
//!   few percent of content noise (so RF accuracy lands near but not at 1.0),
//! * size-unrelated functions: distributions driven entirely by the hidden
//!   `content_seed` (so no model can predict them from size, reproducing the
//!   bottom half of Table 2),
//! * a mix of over-provisioned (harvestable) and under-provisioned
//!   (accelerable) defaults, matching the 20–60 % utilization reported for
//!   production serverless platforms \[42\].

use libra_sim::demand::{DemandModel, InputMeta, TrueDemand};
use libra_sim::function::FunctionSpec;
use libra_sim::ids::FunctionId;
use libra_sim::metrics::{splitmix64_at, unit_f64};
use libra_sim::resources::ResourceVec;
use libra_sim::time::SimDuration;
use std::sync::Arc;

/// The ten applications, in canonical order (their `FunctionId` is their
/// index in [`sebs_suite`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppKind {
    /// Uploader — upload input files to storage.
    Ul,
    /// Thumbnailer — thumbnail input images.
    Tn,
    /// Compression — compress input files.
    Cp,
    /// DNA Visualization — visualize input DNA sequence files.
    Dv,
    /// Dynamic HTML — generate HTML pages from input templates.
    Dh,
    /// Video Processing — generate a GIF from an input video.
    Vp,
    /// Image Recognition — recognize an input image.
    Ir,
    /// Graph Pagerank — pagerank on a randomly generated graph.
    Gp,
    /// Graph MST — minimum spanning tree on a random graph.
    Gm,
    /// Graph BFS — breadth-first search on a random graph.
    Gb,
}

/// All ten kinds, in `FunctionId` order.
pub const ALL_APPS: [AppKind; 10] = [
    AppKind::Ul,
    AppKind::Tn,
    AppKind::Cp,
    AppKind::Dv,
    AppKind::Dh,
    AppKind::Vp,
    AppKind::Ir,
    AppKind::Gp,
    AppKind::Gm,
    AppKind::Gb,
];

impl AppKind {
    /// Short name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Ul => "UL",
            AppKind::Tn => "TN",
            AppKind::Cp => "CP",
            AppKind::Dv => "DV",
            AppKind::Dh => "DH",
            AppKind::Vp => "VP",
            AppKind::Ir => "IR",
            AppKind::Gp => "GP",
            AppKind::Gm => "GM",
            AppKind::Gb => "GB",
        }
    }

    /// Table 1's classification: is the function's behaviour dominated by
    /// input size?
    pub fn input_size_related(&self) -> bool {
        matches!(self, AppKind::Ul | AppKind::Tn | AppKind::Cp | AppKind::Dv | AppKind::Dh)
    }

    /// The `FunctionId` this kind receives in [`sebs_suite`].
    pub fn id(&self) -> FunctionId {
        FunctionId(*self as u32) // ALL_APPS is in declaration order
    }

    /// User-defined (default) allocation from the suite's settings. Users
    /// over-provision (most production functions utilize only 20–60 % of
    /// their allocation \[42\]); VP and IR are the chronically
    /// under-provisioned ones the paper's motivation highlights.
    pub fn user_alloc(&self) -> ResourceVec {
        match self {
            AppKind::Ul => ResourceVec::from_cores_mb(6, 1536),
            AppKind::Tn => ResourceVec::from_cores_mb(6, 1536),
            AppKind::Cp => ResourceVec::from_cores_mb(8, 2048),
            AppKind::Dv => ResourceVec::from_cores_mb(8, 2048),
            AppKind::Dh => ResourceVec::from_cores_mb(8, 2048),
            AppKind::Vp => ResourceVec::from_cores_mb(4, 512),
            AppKind::Ir => ResourceVec::from_cores_mb(2, 1024),
            AppKind::Gp => ResourceVec::from_cores_mb(6, 1536),
            AppKind::Gm => ResourceVec::from_cores_mb(4, 1024),
            AppKind::Gb => ResourceVec::from_cores_mb(4, 1024),
        }
    }

    /// Typical input-size range `(lo, hi)` in application units (see
    /// `datasets` for the meaning per app).
    pub fn size_range(&self) -> (u64, u64) {
        match self {
            AppKind::Ul => (1, 400),         // MB uploaded
            AppKind::Tn => (10, 5_000),      // KB of image
            AppKind::Cp => (1, 200),         // MB to compress
            AppKind::Dv => (1, 40),          // MB of sequence
            AppKind::Dh => (100, 10_000),    // pages to render
            AppKind::Vp => (1, 100),         // MB of video (irrelevant to demand)
            AppKind::Ir => (10, 3_000),      // KB of image (irrelevant)
            AppKind::Gp => (1_000, 100_000), // serialized bytes (irrelevant)
            AppKind::Gm => (1_000, 100_000),
            AppKind::Gb => (1_000, 100_000),
        }
    }
}

/// The analytic demand model of one application.
#[derive(Clone, Copy, Debug)]
pub struct AppModel {
    /// Which application this models.
    pub kind: AppKind,
}

impl AppModel {
    fn size_related_demand(&self, size: f64, noise: f64) -> (f64, f64, f64) {
        // (cpu cores, mem MB, duration ms) before noise
        match self.kind {
            AppKind::Ul => {
                // I/O-bound: ~1 busy core regardless of size; duration
                // linear. A classic over-provisioned donor (≈22 % CPU
                // utilization of its 4-core allocation, cf. [42]).
                (0.9, 64.0 + size * 0.32, 1_000.0 + size * 48.0)
            }
            AppKind::Tn => {
                // Image decode+resize: mild CPU growth with pixels; donor.
                (0.5 + size / 9_000.0, 80.0 + size * 0.04, 300.0 + size * 2.2)
            }
            AppKind::Cp => {
                // Parallel compressor: parallelism saturates around 4.5 of
                // its 6 allocated cores (limited pipeline width), while
                // duration keeps growing with input size — a long-running
                // donor, the dominant over-provisioning pattern of [42].
                (1.5 + 3.0 * (size / 200.0), 96.0 + size * 1.5, 1_000.0 + size * 120.0)
            }
            AppKind::Dv => {
                // Sequence render: mostly serial with a bounded helper pool;
                // caps near 4 of 6 allocated cores.
                (0.8 + 3.2 * (size / 40.0), 128.0 + size * 16.0, 1_500.0 + size * 400.0)
            }
            AppKind::Dh => {
                // Page generation: CPU with page count; 10K-page inputs
                // exceed the 6-core default (Fig 1 Case 3).
                (0.8 + size / 1_100.0, 96.0 + size * 0.03, 800.0 + size * 3.0)
            }
            AppKind::Vp | AppKind::Ir | AppKind::Gp | AppKind::Gm | AppKind::Gb => {
                unreachable!("size_related_demand on content app")
            }
        }
        // noise applied by caller
        .pipe_noise(noise)
    }

    fn content_demand(&self, seed: u64) -> (f64, f64, f64) {
        // Draw from app-specific distributions keyed only on content.
        let a = unit_f64(splitmix64_at(seed, 1));
        let b = unit_f64(splitmix64_at(seed, 2));
        let c = unit_f64(splitmix64_at(seed, 3));
        match self.kind {
            AppKind::Vp => {
                // Heavy video workloads: long executions, chronically beyond
                // the 4-core / 512 MB default (the paper's canonical
                // accelerable app) — these form Default's latency tail.
                (3.0 + 7.0 * a, 200.0 + 600.0 * b, 5_000.0 + 13_000.0 * c)
            }
            AppKind::Ir => (1.5 + 4.5 * a, 300.0 + 1_100.0 * b, 3_000.0 + 9_000.0 * c),
            AppKind::Gp => (0.8 + 3.2 * a, 200.0 + 1_000.0 * b, 2_000.0 + 18_000.0 * c),
            AppKind::Gm => (0.5 + 2.0 * a, 100.0 + 600.0 * b, 1_500.0 + 10_000.0 * c),
            AppKind::Gb => (0.5 + 2.0 * a, 100.0 + 500.0 * b, 1_000.0 + 8_000.0 * c),
            AppKind::Ul | AppKind::Tn | AppKind::Cp | AppKind::Dv | AppKind::Dh => {
                unreachable!("content_demand on size app")
            }
        }
    }
}

trait PipeNoise {
    fn pipe_noise(self, noise: f64) -> Self;
}

impl PipeNoise for (f64, f64, f64) {
    /// Apply multiplicative content noise: ±4 % on CPU and duration, ±1 % on
    /// memory (footprints are far more deterministic given a size than
    /// timings are).
    fn pipe_noise(self, noise: f64) -> Self {
        let f = 1.0 + 0.08 * (noise - 0.5);
        let fm = 1.0 + 0.02 * (noise - 0.5);
        (self.0 * f, self.1 * fm, self.2 * f)
    }
}

impl DemandModel for AppModel {
    fn demand(&self, input: &InputMeta) -> TrueDemand {
        let (cores, mem, ms) = if self.kind.input_size_related() {
            let noise = unit_f64(splitmix64_at(input.content_seed, 0xA0));
            self.size_related_demand(input.size as f64, noise)
        } else {
            self.content_demand(input.content_seed)
        };
        TrueDemand {
            cpu_peak_millis: ((cores * 1_000.0).round() as u64).clamp(100, 16_000),
            mem_peak_mb: (mem.round() as u64).clamp(32, 32_768),
            base_duration: SimDuration::from_secs_f64(ms / 1_000.0),
        }
    }
}

/// The suite of `kinds` with their default user allocations: function id
/// *i* is `kinds[i]`.
pub fn suite(kinds: &[AppKind]) -> Vec<FunctionSpec> {
    kinds
        .iter()
        .map(|&kind| FunctionSpec::new(kind.name(), kind.user_alloc(), Arc::new(AppModel { kind })))
        .collect()
}

/// The full ten-function suite; its indices are the canonical `FunctionId`s.
pub fn sebs_suite() -> Vec<FunctionSpec> {
    suite(&ALL_APPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_functions_in_order() {
        let suite = sebs_suite();
        assert_eq!(suite.len(), 10);
        assert_eq!(suite[0].name, "UL");
        assert_eq!(suite[4].name, "DH");
        assert_eq!(suite[5].name, "VP");
        assert_eq!(suite[9].name, "GB");
        assert_eq!(AppKind::Dh.id(), FunctionId(4));
    }

    #[test]
    fn size_related_functions_scale_with_size() {
        for kind in ALL_APPS.iter().filter(|k| k.input_size_related()) {
            let m = AppModel { kind: *kind };
            let (lo, hi) = kind.size_range();
            let small = m.demand(&InputMeta::new(lo, 42));
            let large = m.demand(&InputMeta::new(hi, 42));
            assert!(
                large.base_duration > small.base_duration,
                "{}: duration must grow with size",
                kind.name()
            );
            assert!(large.mem_peak_mb >= small.mem_peak_mb, "{}", kind.name());
        }
    }

    #[test]
    fn size_unrelated_functions_ignore_size() {
        for kind in ALL_APPS.iter().filter(|k| !k.input_size_related()) {
            let m = AppModel { kind: *kind };
            let a = m.demand(&InputMeta::new(1, 7));
            let b = m.demand(&InputMeta::new(1_000_000, 7));
            assert_eq!(
                a,
                b,
                "{}: same content must give same demand regardless of size",
                kind.name()
            );
            let c = m.demand(&InputMeta::new(1, 8));
            assert_ne!(a, c, "{}: different content must change demand", kind.name());
        }
    }

    #[test]
    fn demand_is_deterministic() {
        for kind in ALL_APPS {
            let m = AppModel { kind };
            let i = InputMeta::new(100, 5);
            assert_eq!(m.demand(&i), m.demand(&i));
        }
    }

    #[test]
    fn dh_motivating_cases_match_figure_1() {
        // Fig 1: DH with input 100 uses ~1 core, 4K uses ~4 cores (of 6),
        // 10K saturates the 6-core allocation.
        let m = AppModel { kind: AppKind::Dh };
        let d100 = m.demand(&InputMeta::new(100, 0));
        let d4k = m.demand(&InputMeta::new(4_000, 0));
        let d10k = m.demand(&InputMeta::new(10_000, 0));
        assert!(d100.cpu_peak_millis < 1_500, "small input ~1 core, got {}", d100.cpu_peak_millis);
        assert!(
            (2_500..5_000).contains(&d4k.cpu_peak_millis),
            "4K input ~3-4 cores, got {}",
            d4k.cpu_peak_millis
        );
        assert!(d10k.cpu_peak_millis >= 6_000, "10K input saturates, got {}", d10k.cpu_peak_millis);
    }

    #[test]
    fn suite_follows_its_kinds() {
        let s = suite(&[AppKind::Vp, AppKind::Ul]);
        assert_eq!(s.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(), ["VP", "UL"]);
        assert_eq!(s[0].user_alloc, AppKind::Vp.user_alloc());
    }

    #[test]
    fn vp_is_frequently_under_provisioned() {
        // The canonical accelerable app: most contents need > 4 cores.
        let m = AppModel { kind: AppKind::Vp };
        let over =
            (0..100).filter(|&s| m.demand(&InputMeta::new(10, s)).cpu_peak_millis > 4_000).count();
        assert!(over > 40, "VP should often exceed its 4-core default, got {over}/100");
    }
}
