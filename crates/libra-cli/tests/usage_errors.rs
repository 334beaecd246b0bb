//! Option values the simulator cannot run are refused as usage errors (exit
//! 2, the simulator's own message on stderr), never as a panic (exit 101).

use std::process::Command;

fn refuses(args: &str, message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_libra"))
        .args(args.split_whitespace())
        .output()
        .expect("run the libra binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "`libra {args}` exited {:?}: {stderr}", out.status);
    assert!(stderr.contains(message), "`libra {args}` said: {stderr}");
}

#[test]
fn an_empty_jetstream_cluster_is_refused() {
    refuses("run --cluster jetstream:0", "need at least one worker node");
}

#[test]
fn a_zero_poisson_rate_is_refused() {
    refuses("run --kind poisson:20:0", "rpm must be positive");
}

#[test]
fn a_nan_poisson_rate_is_refused() {
    refuses("run --kind poisson:20:nan", "rpm must be positive");
}

#[test]
fn shard_slices_below_the_largest_allocation_are_refused() {
    // 72 cores / 10 shards is below the 8-core DH/CP/DV allocation.
    refuses("run --shards 10", "it could never be placed");
}

#[test]
fn multi_node_shard_slices_below_the_largest_allocation_are_refused() {
    refuses("run --cluster multi --shards 5", "it could never be placed");
}

#[test]
fn a_trace_invoking_an_undeployed_function_is_refused() {
    let path = std::env::temp_dir().join(format!("libra_undeployed_{}.csv", std::process::id()));
    std::fs::write(&path, "at_us,func,size,content_seed\n0,42,1000,1\n").expect("write trace");
    refuses(&format!("run --trace {}", path.display()), "only 10 are deployed");
    let _ = std::fs::remove_file(path);
}
