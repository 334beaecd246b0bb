//! The parallel sweep runner must be a pure wall-clock optimization: CSV
//! artifacts (and the aggregates they derive from) must be byte-identical to
//! a serial run. This simulates the §8.3 run set through the actual
//! `sweep`/`par_map` machinery twice — once on one worker thread, once on
//! several — writes Figs 6, 7 and 8 from each, and diffs every produced file.
//!
//! Both phases live in ONE test so the env-var handoff (results dir, thread
//! count) is never raced by a sibling test.

use libra_bench::experiments::{fig06, fig07, fig08};
use std::collections::BTreeMap;
use std::path::Path;

fn read_dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read results dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("read csv"));
    }
    out
}

#[test]
fn parallel_sweep_csvs_match_serial_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("libra_par_csv_{}", std::process::id()));
    let serial_dir = base.join("serial");
    let parallel_dir = base.join("parallel");
    std::fs::create_dir_all(&serial_dir).unwrap();
    std::fs::create_dir_all(&parallel_dir).unwrap();

    // Keep the sweep small: one repetition of the six-platform run set.
    std::env::set_var("LIBRA_REPS", "1");
    // One phase: simulate the run set once and write all three figures from it.
    let phase = || {
        let runs = libra_bench::main_six_runs();
        (fig06::run(&runs), fig07::run(&runs), fig08::run(&runs))
    };

    // Serial phase: every par_map call reads LIBRA_THREADS for its worker count.
    std::env::set_var("LIBRA_THREADS", "1");
    std::env::set_var("LIBRA_RESULTS_DIR", &serial_dir);
    let serial_out = phase();
    let serial_files = read_dir_files(&serial_dir);

    // Parallel phase: four workers.
    std::env::set_var("LIBRA_THREADS", "4");
    std::env::set_var("LIBRA_RESULTS_DIR", &parallel_dir);
    let parallel_out = phase();
    let parallel_files = read_dir_files(&parallel_dir);

    assert_eq!(serial_out, parallel_out, "returned aggregates diverged");
    for fig in ["fig06a", "fig06b", "fig07", "fig08"] {
        let n = serial_files.keys().filter(|name| name.starts_with(fig)).count();
        assert_eq!(n, 6, "{fig}: one CSV per platform");
    }
    assert_eq!(
        serial_files.keys().collect::<Vec<_>>(),
        parallel_files.keys().collect::<Vec<_>>(),
        "artifact sets diverged"
    );
    for (name, bytes) in &serial_files {
        assert_eq!(bytes, &parallel_files[name], "{name} differs between serial and parallel runs");
    }

    let _ = std::fs::remove_dir_all(&base);
}
