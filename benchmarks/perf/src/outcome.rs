//! What one run of one workload hands back to `main`.

use crate::json::Json;

use std::time::Duration;

/// A run sets its workload up at least this often.
pub const SETUP_REPEATS: usize = 3;
/// A set-up that takes milliseconds is repeated until the repeats add up to
/// this much, at most [`SETUP_REPEATS_MAX`] times.
const SETUP_TIME: Duration = Duration::from_millis(500);
const SETUP_REPEATS_MAX: usize = 50;

/// Set the workload up repeatedly, handing each superseded instance to
/// `discard`. `set_up` returns what it built and how many seconds it took.
/// Returns the last instance and the fastest set-up time.
///
/// The fastest, not the median: a set-up is deterministic work, and whatever
/// else runs on the machine only ever adds to it. Fifty repeats of a 1.3 ms
/// simulator set-up had a minimum of 1.23–1.28 ms in every run, while their
/// median read 1.3 ms in a quiet minute and 1.6–2.4 ms in a busy one.
pub fn repeat_setup<T>(
    mut set_up: impl FnMut() -> (T, f64),
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let (mut kept, first_s) = set_up();
    let mut times = vec![first_s];
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_TIME.as_secs_f64() && times.len() < SETUP_REPEATS_MAX)
    {
        let (next, took_s) = set_up();
        discard(std::mem::replace(&mut kept, next));
        times.push(took_s);
    }
    (kept, times.into_iter().fold(f64::INFINITY, f64::min))
}

/// Result of one run: counts, correctness failures and metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (invocations or requests).
    pub attempted: u64,
    /// Operations that failed: aborted, refused, dropped or mis-echoed.
    pub failed: u64,
    /// Output checks that did not hold. Empty means the run is correct.
    pub errors: Vec<String>,
    /// Metrics, by the names `BENCHMARK.json` declares.
    pub metrics: Vec<(String, f64)>,
    /// The span document for `out/trace_<workload>.json` (traced runs).
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Record a failed output check.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.errors.push(what());
        }
    }
}

/// The end-to-end metrics, which every workload defines.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Generate inputs, build and start the system, connect and warm up;
    /// the fastest of the repeats of [`repeat_setup`].
    pub setup_s: f64,
    /// Completed invocations per host second of the measured section.
    pub inv_per_s: f64,
    /// Median invocation latency in the substrate's own clock: simulated
    /// milliseconds for `sim_*`, host milliseconds for live and gateway.
    pub lat_p50_ms: f64,
    /// 95th percentile of the same.
    pub lat_p95_ms: f64,
    /// `VmHWM` when the measured section ended.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn record(&self, out: &mut Outcome) {
        out.set("setup_s", self.setup_s);
        out.set("inv_per_s", self.inv_per_s);
        out.set("lat_p50_ms", self.lat_p50_ms);
        out.set("lat_p95_ms", self.lat_p95_ms);
        out.set("peak_rss_mb", self.peak_rss_mb);
    }
}

/// One span of a trace file: times in microseconds since the run's root
/// span opened; `parent` is the id of the span that caused this one.
pub fn span(id: u64, parent: Option<u64>, name: &str, start_us: f64, end_us: f64) -> Json {
    Json::obj([
        ("id", Json::Num(id as f64)),
        ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
        ("name", Json::str(name)),
        ("start_us", Json::Num(start_us)),
        ("end_us", Json::Num(end_us)),
    ])
}
