//! `exp <name>` — run one experiment of the paper's evaluation (DESIGN.md §3
//! maps names to tables/figures), `exp all` for every one in the paper's
//! order, `exp scale` for the simulator scale run; no argument lists the
//! names. Sweeps honour `LIBRA_REPS`, `LIBRA_SCALE` and `LIBRA_THREADS`, and
//! their output is byte-identical at any thread count.

// DESIGN.md §6: denied on the non-test build; the clippy step of scripts/verify.sh enforces it.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm, clippy::float_cmp))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]

use libra_bench::experiments as e;
use libra_bench::PlatformRun;

/// Run sets several experiments report from, simulated on first use and
/// kept for the rest of this one `exp` invocation.
#[derive(Default)]
struct Shared {
    main_six: Option<Vec<Vec<PlatformRun>>>,
}

impl Shared {
    /// The §8.3 run set of Figs 6, 7 and 8.
    fn main_six(&mut self) -> &[Vec<PlatformRun>] {
        self.main_six.get_or_insert_with(libra_bench::main_six_runs)
    }
}

/// A runnable entry: its name and what runs it.
type Entry = (&'static str, fn(&mut Shared));

/// Every runnable entry, in the order `all` runs them.
const TABLE: &[Entry] = &[
    ("table1", |_| e::table1::run()),
    ("fig01", |_| e::fig01::run()),
    ("fig06", |s| drop(e::fig06::run(s.main_six()))),
    ("fig07", |s| drop(e::fig07::run(s.main_six()))),
    ("fig08", |s| e::fig08::run(s.main_six())),
    ("fig09_10_11", |_| e::fig09_10_11::run()),
    ("fig12", |_| e::fig12::run()),
    ("table2", |_| e::table2::run()),
    ("fig13", |_| e::fig13::run()),
    ("fig14", |_| e::fig14::run()),
    ("fig15", |_| e::fig15::run()),
    ("fig16", |_| e::fig16::run()),
    ("overheads", |_| e::overheads::run()),
    ("ablations", |_| e::ablations::run()),
    ("keepalive", |_| e::keepalive::run()),
    ("chaos", |_| e::chaos::run()),
    // Not part of the paper's evaluation, so not part of `all`.
    ("scale", |_| e::scale::run()),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let mut shared = Shared::default();
    if name == "all" {
        println!("[sweep runner: {} worker thread(s)]", libra_bench::threads());
        for (_, run) in TABLE.iter().filter(|(n, _)| *n != "scale") {
            run(&mut shared);
        }
        println!("\nAll experiments complete. CSV artifacts are under results/.");
    } else if let Some((_, run)) = TABLE.iter().find(|(n, _)| *n == name) {
        run(&mut shared);
    } else {
        let names: Vec<&str> = TABLE.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: exp <name>|all\n  names: {}", names.join(" "));
        std::process::exit(2);
    }
}
