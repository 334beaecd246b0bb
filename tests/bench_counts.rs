//! The benchmark's simulated runs reproduce their committed counts.
//!
//! `BENCH_counts.json` holds, one record per workload and line, every count
//! `libra_bench::probe::counts` reads at seed 42 from the repo benchmark's
//! three simulator workloads and from `exp scale`'s two runs at 2 %. This
//! test runs all five and compares every count exactly. The counts say which
//! simulation ran, so a speed claim whose counts did not move was made on
//! the same run before and after. A change that moves simulated behaviour on
//! purpose re-pins the file with
//! `LIBRA_BLESS=1 cargo test --release --test bench_counts` and argues each
//! move; a mismatch lists every moved, missing or extra count as
//! `workload name: want → got`.
//!
//! Release only: the five runs took 173 s in a debug build on 2 cores (0.6 s
//! in release), longer than any other root test binary (22 s), so a debug
//! build ignores the check and `scripts/verify.sh` runs it as a release test.

use libra_bench::probe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

/// Events the engine may push per invocation on `sim_engine` (20.07 today;
/// 93.99 with a monitor timer per resident and a `Finish` per resident per
/// start and completion): the bound a re-pin must not cross.
const MAX_PUSHES_PER_INVOCATION: u64 = 25;

/// What the file says of itself.
const ABOUT: &str = "Exact counts of the repo benchmark's three simulator workloads and of \
exp scale's two runs at LIBRA_SCALE=0.02, at seed 42, one record per workload and line. \
libra_bench::probe::counts reads them from RunResult, PlatformReport and a counting \
Platform wrapper; tests/bench_counts.rs recomputes and compares them exactly, and \
LIBRA_BLESS=1 rewrites this file. Names follow the harness's per-layer metrics where it \
has one; pops.<kind>.handled and .stale are RunResult::pops_by_kind.";

type Counts = BTreeMap<String, u64>;

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_counts.json")
}

/// Every workload's counts, the runs spread over threads.
fn measure() -> Vec<(&'static str, Vec<(&'static str, u64)>)> {
    std::thread::scope(|s| {
        let runs: Vec<_> = probe::WORKLOADS
            .iter()
            .map(|&w| (w, s.spawn(move || probe::counts(w, SEED))))
            .collect();
        runs.into_iter().map(|(w, run)| (w, run.join().expect("a probe run panicked"))).collect()
    })
}

fn render(runs: &[(&str, Vec<(&str, u64)>)]) -> String {
    let mut out = format!("{{\n  \"about\": \"{ABOUT}\",\n  \"records\": [\n");
    for (i, (workload, counts)) in runs.iter().enumerate() {
        let body: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let comma = if i + 1 < runs.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"workload\": \"{workload}\", \"counts\": {{{}}}}}{comma}",
            body.join(", ")
        )
        .unwrap();
    }
    out + "  ]\n}\n"
}

/// The records of a file [`render`] wrote, by workload.
fn parse(text: &str) -> BTreeMap<String, Counts> {
    let record = |line: &str| -> Option<(String, Counts)> {
        let rest = line.trim().trim_end_matches(',').strip_prefix("{\"workload\": \"")?;
        let (workload, rest) = rest.split_once("\", \"counts\": {")?;
        let counts = rest.strip_suffix("}}")?.split(", ").map(|kv| {
            let (name, value) = kv.split_once(": ")?;
            Some((name.strip_prefix('"')?.strip_suffix('"')?.to_string(), value.parse().ok()?))
        });
        Some((workload.to_string(), counts.collect::<Option<Counts>>()?))
    };
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"workload\""))
        .map(|l| record(l).unwrap_or_else(|| panic!("unreadable record in BENCH_counts.json: {l}")))
        .collect()
}

/// `workload name: want → got` for every count that differs, is missing or
/// is extra.
fn differences(want: &BTreeMap<String, Counts>, got: &BTreeMap<String, Counts>) -> Vec<String> {
    let none = Counts::new();
    let show = |v: Option<&u64>| v.map_or_else(|| "(none)".to_string(), u64::to_string);
    let mut out = Vec::new();
    for workload in want.keys().chain(got.keys().filter(|w| !want.contains_key(*w))) {
        let (w, g) = (want.get(workload).unwrap_or(&none), got.get(workload).unwrap_or(&none));
        for name in w.keys().chain(g.keys().filter(|n| !w.contains_key(*n))) {
            let (a, b) = (w.get(name), g.get(name));
            if a != b {
                out.push(format!("{workload} {name}: {} → {}", show(a), show(b)));
            }
        }
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "173 s in debug; run with cargo test --release")]
fn benchmark_runs_reproduce_their_committed_counts() {
    let runs = measure();
    let got: BTreeMap<String, Counts> = runs
        .iter()
        .map(|(w, counts)| {
            let map: Counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
            assert_eq!(map.len(), counts.len(), "{w}: a count name repeats");
            (w.to_string(), map)
        })
        .collect();

    let engine = probe::SHAPES.iter().find(|s| s.name == "sim_engine").unwrap();
    let pushes = got["sim_engine"]["engine.event_pushes"];
    assert!(
        pushes <= MAX_PUSHES_PER_INVOCATION * engine.invocations as u64,
        "sim_engine pushed {pushes} events for {} invocations, more than {MAX_PUSHES_PER_INVOCATION} \
         each: a per-resident monitor timer or per-resident Finish is back",
        engine.invocations
    );

    let path = path();
    if std::env::var("LIBRA_BLESS").is_ok() {
        std::fs::write(&path, render(&runs)).expect("write BENCH_counts.json");
        eprintln!("blessed {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run LIBRA_BLESS=1", path.display()));
    let moved = differences(&parse(&text), &got);
    assert!(
        moved.is_empty(),
        "{} counts differ from BENCH_counts.json (workload name: want → got):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn differences_name_every_moved_missing_and_extra_count() {
    let record = |pairs: &[(&str, u64)]| -> Counts {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    };
    let want = BTreeMap::from([
        ("a".to_string(), record(&[("x", 1), ("y", 2), ("gone", 3)])),
        ("dropped".to_string(), record(&[("z", 4)])),
    ]);
    let got = BTreeMap::from([
        ("a".to_string(), record(&[("x", 1), ("y", 5), ("new", 6)])),
        ("added".to_string(), record(&[("w", 7)])),
    ]);
    assert_eq!(
        differences(&want, &got),
        [
            "a gone: 3 → (none)",
            "a y: 2 → 5",
            "a new: (none) → 6",
            "dropped z: 4 → (none)",
            "added w: (none) → 7"
        ]
    );
    let runs = [("a", vec![("x", 1), ("y", 2)]), ("b", vec![("z", 3)])];
    let parsed = parse(&render(&runs));
    assert_eq!(parsed["a"], record(&[("x", 1), ("y", 2)]));
    assert_eq!(parsed["b"], record(&[("z", 3)]));
}
