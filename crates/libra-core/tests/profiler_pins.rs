//! "No forest moved", pinned inside `cargo test` rather than only through
//! `results/`: for each of the ten `sebs_suite()` functions, the bits of the
//! relatedness scores, the model-path decision, and `predict` over a fixed
//! grid of eight sizes — below, inside and 10× beyond the trained size domain
//! — straight after `train` and again after 16 synthetic `observe`s (two
//! refits on the ML path), under every `ModelChoice`.
//!
//! `PINS` was recorded at commit f8f3ebd (PR 23), before first-sight
//! profiling stopped fitting serving forests for histogram-path functions and
//! before trees carried presorted ranges; a change that moves a prediction on
//! purpose re-records it together with `results/` and `tests/golden/`.

use libra_core::profiler::{ModelChoice, Profiler, ProfilerConfig};
use libra_sim::demand::InputMeta;
use libra_sim::function::FunctionSpec;
use libra_sim::invocation::{Actuals, PredictionPath};
use libra_workloads::apps::AppKind;
use libra_workloads::{sebs_suite, ALL_APPS};

/// `(cpu_millis, mem_mb, duration µs)` of one prediction.
type Pred = (u64, u64, u64);

/// What one function's profile looked like at the recording commit.
#[derive(Debug, PartialEq)]
struct Pin {
    /// `to_bits` of `cpu_acc`, `mem_acc`, `dur_r2` (the same under every choice).
    scores: [u64; 3],
    /// `is_size_related` under `ModelChoice::Auto`.
    related: bool,
    /// Forest predictions over the grid: after `train`, after the observes.
    ml: [[Pred; 8]; 2],
    /// Histogram prediction (size-blind): after `train`, after the observes.
    hist: [Pred; 2],
}

fn first_input(kind: AppKind) -> InputMeta {
    // Geometric mean: the median of the log-uniform input pools.
    let (lo, hi) = kind.size_range();
    InputMeta::new(((lo as f64 * hi as f64).sqrt()) as u64, 12345)
}

/// The duplicator's domain for first-seen size `s` is `[max(1, s/10), 10·s]`.
fn grid(s: u64) -> [u64; 8] {
    let (lo, hi) = ((s / 10).max(1), s * 10);
    [(lo / 2).max(1), lo, s / 2, s, 2 * s, hi, 3 * hi, 20 * hi]
}

fn predictions(p: &mut Profiler, f: usize, s: u64, path: PredictionPath) -> [Pred; 8] {
    grid(s).map(|size| {
        let pred = p.predict(f, InputMeta::new(size, 1)).expect("trained");
        assert_eq!(pred.path, path);
        (pred.cpu_millis, pred.mem_mb, pred.duration.0)
    })
}

/// Sixteen completions spread over `[lo, 2·hi]` — the upper half widens the
/// size domain — labelled by the function's own demand model.
fn observe_16(p: &mut Profiler, f: usize, spec: &FunctionSpec, s: u64) {
    let (lo, hi) = ((s / 10).max(1), s * 10);
    for k in 0..16u64 {
        let input = InputMeta::new(lo + k * (2 * hi - lo) / 15, 1000 + k);
        let d = spec.model.demand(&input);
        let actuals = Actuals {
            cpu_peak_millis: d.cpu_peak_millis,
            mem_peak_mb: d.mem_peak_mb,
            exec_duration: d.base_duration,
            input_size: input.size,
        };
        p.observe(f, input, &actuals);
    }
}

/// Train `kind` under `choice`, check scores and model path, and return the
/// grid predictions before and after the observes.
fn profile(kind: AppKind, choice: ModelChoice, use_ml: bool, scores: [u64; 3]) -> [[Pred; 8]; 2] {
    let suite = sebs_suite();
    let f = kind.id().idx();
    let input = first_input(kind);
    let mut p = Profiler::new(suite.len(), ProfilerConfig::default(), choice);
    p.train(f, &suite[f], input);

    let s = p.scores(f).expect("scored under every choice");
    let what = format!("{} under {choice:?}", kind.name());
    assert_eq!([s.cpu_acc.to_bits(), s.mem_acc.to_bits(), s.dur_r2.to_bits()], scores, "{what}");
    assert_eq!(p.is_size_related(f), Some(use_ml), "{what}");

    let path = if use_ml { PredictionPath::Ml } else { PredictionPath::Histogram };
    let before = predictions(&mut p, f, input.size, path);
    observe_16(&mut p, f, &suite[f], input.size);
    [before, predictions(&mut p, f, input.size, path)]
}

#[test]
fn every_function_profiles_to_the_recorded_bits_under_every_choice() {
    for (kind, pin) in ALL_APPS.into_iter().zip(&PINS) {
        for choice in [ModelChoice::Auto, ModelChoice::MlOnly, ModelChoice::HistogramOnly] {
            let use_ml = match choice {
                ModelChoice::Auto => pin.related,
                ModelChoice::MlOnly => true,
                ModelChoice::HistogramOnly => false,
            };
            let want = if use_ml { pin.ml } else { pin.hist.map(|h| [h; 8]) };
            let got = profile(kind, choice, use_ml, pin.scores);
            assert_eq!(got, want, "{} under {choice:?}", kind.name());
        }
    }
}

#[rustfmt::skip]
const PINS: [Pin; 10] = [
    // UL
    Pin {
        scores: [0x3ff0000000000000, 0x3ff0000000000000, 0x3fefdd397c0c1cd8],
        related: true,
        ml: [
            [(1000, 128, 1131086), (1000, 128, 1131086), (1000, 128, 1540383), (1000, 128, 1929544), (1000, 128, 2997769), (1000, 128, 10259139), (3000, 384, 30777418), (16000, 2560, 205182783)],
            [(1000, 128, 1108922), (1000, 128, 1108922), (1000, 128, 1547532), (1000, 128, 1920467), (1000, 128, 3000887), (1000, 128, 10299112), (2000, 384, 29142898), (10000, 2560, 194285989)],
        ],
        hist: [(1000, 128, 1583333), (1000, 256, 1557143)],
    },
    // TN
    Pin {
        scores: [0x3ff0000000000000, 0x3ff0000000000000, 0x3fefdf84115742f7],
        related: true,
        ml: [
            [(1000, 128, 355054), (1000, 128, 355054), (1000, 128, 547774), (1000, 128, 808586), (1000, 128, 1296707), (1000, 256, 5327559), (3000, 768, 15982676), (16000, 5120, 106551175)],
            [(1000, 128, 349362), (1000, 128, 349362), (1000, 128, 555176), (1000, 128, 815389), (1000, 128, 1292876), (1000, 256, 5352086), (2000, 640, 14586935), (10000, 3840, 97246234)],
        ],
        hist: [(1000, 256, 583333), (1000, 256, 575000)],
    },
    // CP
    Pin {
        scores: [0x3feeeeeeeeeeeeef, 0x3ff0000000000000, 0x3fefe8e6863daa00],
        related: true,
        ml: [
            [(2000, 128, 1196267), (2000, 128, 1196267), (2000, 128, 1845877), (2000, 128, 2765622), (2000, 256, 4393795), (4000, 384, 18061560), (12000, 1152, 54184679), (16000, 7680, 361231190)],
            [(2000, 128, 1144933), (2000, 128, 1144933), (2000, 128, 1878038), (2000, 128, 2740231), (2000, 256, 4358963), (4000, 384, 18006693), (9000, 1024, 49872826), (16000, 6400, 332485507)],
        ],
        hist: [(4000, 384, 1833333), (6000, 512, 1828571)],
    },
    // DV
    Pin {
        scores: [0x3feaaaaaaaaaaaab, 0x3ff0000000000000, 0x3fefd91f75ecd0f7],
        related: true,
        ml: [
            [(1000, 256, 2063351), (1000, 256, 2063351), (2000, 256, 2770319), (2000, 256, 4025827), (2000, 384, 6244302), (6000, 1152, 25350191), (16000, 3456, 76050574), (16000, 23040, 507003825)],
            [(1000, 256, 1940937), (1000, 256, 1940937), (2000, 256, 2771473), (2000, 256, 3934621), (2000, 384, 6178487), (6000, 1152, 25463011), (16000, 3072, 71396362), (16000, 20480, 475975748)],
        ],
        hist: [(6000, 1152, 3000000), (10000, 2048, 2950000)],
    },
    // DH
    Pin {
        scores: [0x3fe999999999999a, 0x3feccccccccccccd, 0x3fefe291322f9300],
        related: true,
        ml: [
            [(1000, 128, 1324306), (1000, 128, 1324306), (2000, 128, 2308626), (2000, 128, 3897958), (3000, 256, 6902283), (10000, 512, 30138447), (16000, 1536, 90415341), (16000, 10240, 602768938)],
            [(1000, 128, 1141483), (1000, 128, 1141483), (2000, 128, 2410281), (2000, 128, 3855745), (3000, 256, 6902691), (10000, 512, 30141727), (16000, 1152, 87656954), (16000, 7680, 584379693)],
        ],
        hist: [(10000, 512, 2333333), (16000, 768, 2450000)],
    },
    // VP
    Pin {
        scores: [0x3fc999999999999a, 0x3fc1111111111111, 0xbfe19cd5f1e4c04c],
        related: false,
        ml: [
            [(9000, 896, 9249573), (9000, 896, 9249573), (7000, 512, 8834312), (9000, 768, 10771100), (7000, 768, 14354366), (4000, 640, 10768411), (12000, 1920, 32305234), (16000, 12800, 215368225)],
            [(9000, 896, 10057595), (9000, 896, 10057595), (7000, 512, 9152052), (9000, 768, 11309535), (7000, 768, 15029144), (4000, 640, 9321035), (9000, 1408, 18938513), (16000, 8960, 126256754)],
        ],
        hist: [(11000, 896, 6000000), (11000, 896, 5850000)],
    },
    // IR
    Pin {
        scores: [0x3fd3333333333333, 0x3fc1111111111111, 0xbfc5a171171be408],
        related: false,
        ml: [
            [(3000, 1024, 10751328), (3000, 1024, 10751328), (3000, 640, 9154708), (6000, 768, 9531755), (4000, 768, 9312969), (4000, 640, 9943360), (12000, 1920, 29830081), (16000, 12800, 198867203)],
            [(6000, 1024, 9018396), (6000, 1024, 9018396), (3000, 640, 9508585), (6000, 768, 9510046), (4000, 768, 10218683), (4000, 640, 10441103), (5000, 2176, 12418970), (16000, 14080, 82793136)],
        ],
        hist: [(7000, 1408, 3437500), (7000, 1408, 3440000)],
    },
    // GP
    Pin {
        scores: [0x3fd5555555555555, 0x3fb1111111111111, 0xbfd5f96cfba0b8e0],
        related: false,
        ml: [
            [(3000, 512, 11999231), (3000, 512, 11999231), (4000, 512, 15789448), (4000, 384, 12592668), (4000, 384, 5968660), (4000, 512, 14037857), (12000, 1536, 42113572), (16000, 10240, 280757147)],
            [(4000, 512, 12180994), (4000, 512, 12180994), (4000, 512, 15976937), (4000, 384, 12453855), (4000, 384, 5954268), (4000, 512, 15272410), (3000, 1920, 18837941), (16000, 12800, 125586272)],
        ],
        hist: [(4000, 1280, 3250000), (4000, 1280, 3133333)],
    },
    // GM
    Pin {
        scores: [0x3fd7777777777777, 0x3fcdddddddddddde, 0xbfdec6eb3d322498],
        related: false,
        ml: [
            [(2000, 256, 6600783), (2000, 256, 6600783), (2000, 256, 3541698), (2000, 256, 5454056), (2000, 256, 5000686), (2000, 256, 6636556), (6000, 768, 19909667), (16000, 5120, 132731115)],
            [(3000, 256, 6331993), (3000, 256, 6331993), (2000, 256, 3853233), (2000, 256, 5778482), (2000, 256, 4822002), (2000, 256, 7167425), (3000, 1152, 11048856), (16000, 7680, 73659042)],
        ],
        hist: [(3000, 768, 1750000), (3000, 768, 1850000)],
    },
    // GB
    Pin {
        scores: [0x3fd7777777777777, 0x3fd3333333333333, 0xbfdaa46f43fab280],
        related: false,
        ml: [
            [(2000, 512, 6207402), (2000, 512, 6207402), (2000, 512, 5878798), (1000, 640, 7687490), (2000, 256, 3275974), (2000, 384, 3818271), (6000, 1152, 11454812), (16000, 7680, 76365416)],
            [(2000, 512, 4792495), (2000, 512, 4792495), (2000, 512, 5763080), (1000, 640, 7492280), (2000, 256, 3577049), (2000, 384, 3832721), (3000, 1024, 8539085), (16000, 6400, 56927233)],
        ],
        hist: [(3000, 640, 1416667), (3000, 640, 1425000)],
    },
];
