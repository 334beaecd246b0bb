//! `exp <name>` — run one experiment of the paper's evaluation (DESIGN.md §3
//! maps names to tables/figures), `exp all` for every one in the paper's
//! order, `exp scale` for the simulator scale run; no argument lists the
//! names. Sweeps honour `LIBRA_REPS`, `LIBRA_SCALE` and `LIBRA_THREADS`, and
//! their output is byte-identical at any thread count.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use libra_bench::experiments as e;

/// Every runnable entry, in the order `all` runs them.
const TABLE: &[(&str, fn())] = &[
    ("table1", e::table1::run),
    ("fig01", e::fig01::run),
    ("fig06", || drop(e::fig06::run())),
    ("fig07", || drop(e::fig07::run())),
    ("fig08", e::fig08::run),
    ("fig09_10_11", || drop(e::fig09_10_11::run())),
    ("fig12", e::fig12::run),
    ("table2", || drop(e::table2::run())),
    ("fig13", || drop(e::fig13::run())),
    ("fig14", || drop(e::fig14::run())),
    ("fig15", || drop(e::fig15::run())),
    ("fig16", || drop(e::fig16::run())),
    ("overheads", e::overheads::run),
    ("ablations", e::ablations::run),
    ("keepalive", || drop(e::keepalive::run())),
    ("chaos", || drop(e::chaos::run())),
    // Not part of the paper's evaluation, so not part of `all`.
    ("scale", e::scale::run),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        println!("[sweep runner: {} worker thread(s)]", libra_bench::threads());
        for (_, run) in TABLE.iter().filter(|(n, _)| *n != "scale") {
            run();
        }
        println!("\nAll experiments complete. CSV artifacts are under results/.");
    } else if let Some((_, run)) = TABLE.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        let names: Vec<&str> = TABLE.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: exp <name>|all\n  names: {}", names.join(" "));
        std::process::exit(2);
    }
}
