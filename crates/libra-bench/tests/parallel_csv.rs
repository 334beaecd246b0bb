//! The parallel sweep runner must be a pure wall-clock optimization: CSV
//! artifacts (and the aggregates they derive from) must be byte-identical to
//! a serial run. This drives a real experiment (Fig 6) through the actual
//! `run_on`/`par_map`/`write_csv` machinery twice — once on one worker
//! thread, once on several — and diffs every produced file.
//!
//! Both phases live in ONE test so the env-var handoff (results dir, thread
//! count) is never raced by a sibling test.

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

    // Keep the sweep small: one repetition of the six-platform Fig 6 run.
    std::env::set_var("LIBRA_REPS", "1");

    // Serial phase: every par_map call reads LIBRA_THREADS for its worker count.
    std::env::set_var("LIBRA_THREADS", "1");
    std::env::set_var("LIBRA_RESULTS_DIR", &serial_dir);
    let serial_out = libra_bench::experiments::fig06::run();
    let serial_files = read_dir_files(&serial_dir);

    // Parallel phase: four workers.
    std::env::set_var("LIBRA_THREADS", "4");
    std::env::set_var("LIBRA_RESULTS_DIR", &parallel_dir);
    let parallel_out = libra_bench::experiments::fig06::run();
    let parallel_files = read_dir_files(&parallel_dir);

    assert_eq!(serial_out, parallel_out, "returned aggregates diverged");
    assert!(!serial_files.is_empty(), "experiment produced no CSV artifacts");
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
