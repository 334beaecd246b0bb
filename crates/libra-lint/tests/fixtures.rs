//! Fixture tests: every rule gets (a) a seeded violation that must fire with
//! the right rule name and line, (b) an allow-comment that must suppress it,
//! and (c) a clean variant that must stay silent. The reachability rules
//! additionally pin their call-path witnesses: a diagnostic must say *how*
//! the offending function is reached from a declared root, not just where
//! the sink is.

use libra_lint::{lint_files, lint_source, Diagnostic};

fn rules_at(path: &str, src: &str) -> Vec<(String, u32)> {
    lint_source(path, src).into_iter().map(|d| (d.rule.to_string(), d.line)).collect()
}

/// In a deterministic crate, but not matched by any root spec.
const DET_PATH: &str = "crates/libra-sim/src/fixture.rs";
/// Panic root by file (and in a deterministic crate, so the cast audit
/// applies too).
const PANIC_PATH: &str = "crates/libra-core/src/controlplane.rs";
/// Not a deterministic crate and not a root file: the quiet corner.
const NEUTRAL_PATH: &str = "crates/libra-baselines/src/fixture.rs";

// ---- determinism: crate-strict token half --------------------------------

#[test]
fn determinism_flags_instant_now() {
    let src = "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("determinism".into(), 2)]);
}

#[test]
fn determinism_flags_system_time_and_thread_rng() {
    let src = "fn a() { let _ = SystemTime::now(); }\nfn b() { let _ = thread_rng(); }\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("determinism".into(), 1), ("determinism".into(), 2)]);
}

#[test]
fn determinism_flags_hash_collections() {
    let src = "use std::collections::HashMap;\nstruct S { m: HashSet<u32> }\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("determinism".into(), 1), ("determinism".into(), 2)]);
}

#[test]
fn determinism_suppressed_by_reasoned_allow() {
    let same_line =
        "fn t() { let _ = Instant::now(); } // libra-lint: allow(determinism): fixture\n";
    assert!(rules_at(DET_PATH, same_line).is_empty());
    let line_above =
        "// libra-lint: allow(determinism): fixture\nfn t() { let _ = Instant::now(); }\n";
    assert!(rules_at(DET_PATH, line_above).is_empty());
}

#[test]
fn determinism_ignores_nondeterministic_unrooted_crates() {
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    assert!(rules_at("crates/libra-live/src/metrics_fixture.rs", src).is_empty());
    assert!(rules_at("crates/libra-bench/src/fixture.rs", src).is_empty());
}

#[test]
fn determinism_ignores_test_code_and_comments() {
    let in_test = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _ = Instant::now(); }\n}\n";
    assert!(rules_at(DET_PATH, in_test).is_empty());
    let in_comment = "// HashMap would break replay here\nfn t() {}\n";
    assert!(rules_at(DET_PATH, in_comment).is_empty());
    let in_string = "fn t() -> &'static str { \"Instant::now\" }\n";
    assert!(rules_at(DET_PATH, in_string).is_empty());
}

#[test]
fn determinism_clean_source_is_silent() {
    let src =
        "use std::collections::BTreeMap;\npub fn t(c: &dyn Clock) -> u64 { c.now_micros() }\n";
    assert!(rules_at(DET_PATH, src).is_empty());
}

// ---- determinism: reachability half --------------------------------------

#[test]
fn determinism_root_files_are_checked_by_reachability() {
    // The gateway admission files declare determinism roots in the ROOTS
    // table; clock reads there would make grant/deny decisions unreplayable.
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    for file in ["tenant.rs", "quota.rs", "backpressure.rs", "wire.rs"] {
        let path = format!("crates/libra-gateway/src/{file}");
        let ds = lint_source(&path, src);
        assert_eq!(ds.len(), 1, "{path} must be determinism-checked: {ds:?}");
        assert_eq!((ds[0].rule, ds[0].line), ("determinism", 1));
        assert!(!ds[0].witness.is_empty(), "reachability diagnostics carry a witness");
        assert!(
            ds[0].witness[0].contains(&path) && ds[0].witness[0].ends_with(" t"),
            "witness starts at the root fn: {:?}",
            ds[0].witness
        );
    }
}

#[test]
fn determinism_root_files_scan_top_level_tokens() {
    // `use` declarations and struct fields sit outside any fn body; the
    // root-declaring file still gets a top-level sweep (this is what the old
    // DETERMINISTIC_FILES list bought us, now computed from the roots).
    let src = "use std::collections::HashMap;\nstruct S { m: HashSet<u32> }\nfn t() {}\n";
    assert_eq!(
        rules_at("crates/libra-gateway/src/tenant.rs", src),
        vec![("determinism".into(), 1), ("determinism".into(), 2)]
    );
}

#[test]
fn determinism_reachability_crosses_files_with_witness() {
    // A root in tenant.rs calls a helper in a non-root gateway file; the
    // clock read in the helper is flagged *there*, with the call path.
    let root = "pub fn admit(b: &Bucket) -> u64 { stamp_fixture() }\n";
    let helper =
        "pub fn stamp_fixture() -> u64 {\n    let _ = std::time::Instant::now();\n    0\n}\n";
    let report = lint_files(
        &[
            ("crates/libra-gateway/src/tenant.rs", root),
            ("crates/libra-gateway/src/util_fixture.rs", helper),
        ],
        false,
    );
    let ds: Vec<&Diagnostic> =
        report.diagnostics.iter().filter(|d| d.rule == "determinism").collect();
    assert_eq!(ds.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(ds[0].path, "crates/libra-gateway/src/util_fixture.rs");
    assert_eq!(ds[0].line, 2);
    assert_eq!(ds[0].witness.len(), 2, "root hop + helper hop: {:?}", ds[0].witness);
    assert!(ds[0].witness[0].contains("tenant.rs:1 admit"));
    assert!(ds[0].witness[1].contains("util_fixture.rs:1 stamp_fixture"));
}

#[test]
fn determinism_reachability_defers_to_crate_rule_inside_det_crates() {
    // A det-crate helper reachable from a gateway determinism root must be
    // reported exactly once — by the crate-strict token rule, not twice.
    let root = "pub fn admit() -> u64 { sim_stamp_fixture() }\n";
    let helper = "pub fn sim_stamp_fixture() -> u64 {\n    let _ = Instant::now();\n    0\n}\n";
    let report = lint_files(
        &[
            ("crates/libra-gateway/src/tenant.rs", root),
            ("crates/libra-sim/src/util_fixture.rs", helper),
        ],
        false,
    );
    let ds: Vec<&Diagnostic> =
        report.diagnostics.iter().filter(|d| d.rule == "determinism").collect();
    assert_eq!(ds.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(ds[0].path, "crates/libra-sim/src/util_fixture.rs");
    assert!(ds[0].witness.is_empty(), "token rule owns det-crate sinks");
}

#[test]
fn gateway_socket_io_files_may_read_clocks() {
    // server/http/client do real socket I/O; they are panic roots but not
    // determinism roots.
    let src = "fn t() { let _ = std::time::Instant::now(); }\n";
    for file in ["server.rs", "http.rs", "client.rs"] {
        let path = format!("crates/libra-gateway/src/{file}");
        let ds = lint_source(&path, src);
        assert!(
            ds.iter().all(|d| d.rule != "determinism"),
            "{path} is free to read clocks: {ds:?}"
        );
    }
}

// ---- panic reachability --------------------------------------------------

#[test]
fn panic_flags_unwrap_expect_and_computed_index_with_witness() {
    let src = "fn a(m: &std::collections::BTreeMap<u32, u32>, b: &[u8], i: usize) {\n    let _ = m.get(&1).unwrap();\n    let _ = m.get(&2).expect(\"x\");\n    let _ = b[i + 1];\n}\n";
    let ds = lint_source(PANIC_PATH, src);
    assert_eq!(
        ds.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(),
        vec![("panic", 2), ("panic", 3), ("panic", 4)]
    );
    for d in &ds {
        assert_eq!(d.witness.len(), 1, "root fn is its own witness: {d:?}");
        assert!(d.witness[0].contains("controlplane.rs:1 a"));
    }
}

#[test]
fn panic_flags_panic_todo_unimplemented_macros() {
    let src = "fn a(x: u32) {\n    if x > 3 { panic!(\"boom {x}\"); }\n    todo!()\n}\n";
    assert_eq!(rules_at(PANIC_PATH, src), vec![("panic".into(), 2), ("panic".into(), 3)]);
}

#[test]
fn panic_exempts_plain_subscripts_and_asserts() {
    // Plain subscripts are the arena idiom — `nodes[id.idx()]` is validated
    // structurally; only *computed* offsets walk off the end. Assert-family
    // macros state invariants and are deliberately not sinks.
    let src = "fn a(v: &[u32], i: usize, id: NodeId) -> u32 {\n    assert!(i < v.len());\n    debug_assert_eq!(i, id.idx());\n    v[i] + v[id.idx()]\n}\n";
    assert!(rules_at(PANIC_PATH, src).is_empty());
}

#[test]
fn panic_sinks_unreachable_from_any_root_are_silent() {
    let src = "fn a(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(rules_at("crates/libra-core/src/pool.rs", src).is_empty());
    assert!(rules_at(NEUTRAL_PATH, src).is_empty());
}

#[test]
fn panic_reachability_crosses_files_with_witness() {
    // controlplane.rs is a root file; the unwrap lives two hops away.
    let root = "pub fn on_start(o: Option<u32>) -> u32 { helper_fixture(o) }\n";
    let helper = "pub fn helper_fixture(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    let report = lint_files(
        &[
            ("crates/libra-core/src/controlplane.rs", root),
            ("crates/libra-core/src/helper_fixture.rs", helper),
        ],
        false,
    );
    let ds: Vec<&Diagnostic> = report.diagnostics.iter().filter(|d| d.rule == "panic").collect();
    assert_eq!(ds.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(ds[0].path, "crates/libra-core/src/helper_fixture.rs");
    assert_eq!(ds[0].line, 2);
    assert!(ds[0].witness[0].contains("controlplane.rs:1 on_start"));
    assert!(ds[0].witness[1].contains("helper_fixture.rs:1 helper_fixture"));
}

#[test]
fn panic_roots_match_impl_and_trait_blocks() {
    // ImplOf("Simulation") and TraitImpl("Platform") seed roots wherever
    // those blocks live, method resolution follows the receiver type.
    let src = "struct Helper2;\nimpl Helper2 {\n    fn poke(&self, o: Option<u32>) -> u32 { o.unwrap() }\n}\nstruct Simulation;\nimpl Simulation {\n    fn step(&self, h: &Helper2) -> u32 { h.poke(None) }\n}\n";
    let ds = lint_source(DET_PATH, src);
    let panics: Vec<&Diagnostic> = ds.iter().filter(|d| d.rule == "panic").collect();
    assert_eq!(panics.len(), 1, "{ds:?}");
    assert_eq!(panics[0].line, 3);
    assert!(panics[0].witness[0].contains("Simulation::step"));
    assert!(panics[0].witness[1].contains("Helper2::poke"));

    let trait_src = "struct P;\nimpl Platform for P {\n    fn on_start(&mut self, o: Option<u32>) -> u32 { o.unwrap() }\n}\n";
    assert_eq!(rules_at(NEUTRAL_PATH, trait_src), vec![("panic".into(), 3)]);
}

#[test]
fn panic_resolves_through_a_field_declared_after_nested_generics() {
    // `>>` lexes as one token; in a field type it closes two angles. `books`
    // must survive `slots: Vec<Option<u32>>` so `self.books.get(..)` resolves
    // by receiver type (`get` is too ubiquitous for the by-name fallback).
    let src = "struct Books;\nimpl Books {\n    fn get(&self, o: Option<u32>) -> u32 { o.unwrap() }\n}\nstruct Simulation {\n    slots: Vec<Option<u32>>,\n    books: Books,\n}\nimpl Simulation {\n    fn step(&self) -> u32 { self.books.get(None) }\n}\n";
    let ds = lint_source(DET_PATH, src);
    let panics: Vec<&Diagnostic> = ds.iter().filter(|d| d.rule == "panic").collect();
    assert_eq!(panics.len(), 1, "{ds:?}");
    assert_eq!(panics[0].line, 3);
    assert!(panics[0].witness[0].contains("Simulation::step"));
    assert!(panics[0].witness[1].contains("Books::get"));
}

#[test]
fn panic_root_comment_declares_a_single_fn_root() {
    let rooted = "// libra-lint: root(panic)\npub fn entry(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert_eq!(rules_at(NEUTRAL_PATH, rooted), vec![("panic".into(), 2)]);
    let unrooted = "pub fn entry(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(rules_at(NEUTRAL_PATH, unrooted).is_empty());
}

#[test]
fn panic_ignores_test_code_and_non_panicking_lookalikes() {
    let in_test = "#[test]\nfn t() { Vec::<u32>::new().pop().unwrap(); }\n";
    assert!(rules_at(PANIC_PATH, in_test).is_empty());
    // unwrap_or / attribute brackets / vec! are not panics.
    let clean = "#[derive(Debug)]\nstruct S;\nfn a(o: Option<u32>) -> u32 {\n    let _ = vec![1, 2];\n    o.unwrap_or(0)\n}\n";
    assert!(rules_at(PANIC_PATH, clean).is_empty());
}

#[test]
fn panic_suppressed_by_reasoned_allow() {
    let src = "fn a(v: &[u32], i: usize) -> u32 {\n    // libra-lint: allow(panic): fixture — bounds proven above\n    v[i + 1]\n}\n";
    assert!(rules_at(PANIC_PATH, src).is_empty());
}

// ---- narrowing-cast audit ------------------------------------------------

#[test]
fn cast_flags_narrowing_on_deterministic_hot_paths() {
    let src = "fn a(x: u64) -> u32 { x as u32 }\n";
    let ds = lint_source(PANIC_PATH, src);
    assert_eq!(ds.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(), vec![("cast", 1)]);
    assert!(!ds[0].witness.is_empty(), "cast diagnostics carry the hot-path witness");
}

#[test]
fn cast_flags_float_to_int() {
    let src = "fn a(x: u64, h: f64) -> u64 { (x as f64 * h) as u64 }\n";
    assert_eq!(rules_at(PANIC_PATH, src), vec![("cast".into(), 1)]);
}

#[test]
fn cast_exempts_literals_widening_and_cold_or_foreign_code() {
    // Integer-literal casts are value-visible; int→wide never truncates.
    let visible = "fn a(x: u32) -> u64 { let _ = 5 as u8; x as u64 }\n";
    assert!(rules_at(PANIC_PATH, visible).is_empty());
    // Unreachable det-crate code and non-det crates are out of scope.
    let narrowing = "fn a(x: u64) -> u32 { x as u32 }\n";
    assert!(rules_at(DET_PATH, narrowing).is_empty());
    assert!(rules_at("crates/libra-gateway/src/server.rs", narrowing).is_empty());
}

#[test]
fn cast_suppressed_by_reasoned_allow() {
    let src = "fn a(x: u64) -> u32 {\n    // libra-lint: allow(cast): fixture — bounded by config validation\n    x as u32\n}\n";
    assert!(rules_at(PANIC_PATH, src).is_empty());
}

// ---- action exhaustiveness ----------------------------------------------

#[test]
fn action_wildcard_flags_catch_all_arm() {
    let src = "fn apply(a: Action) {\n    match a {\n        Action::Lend { .. } => {}\n        _ => {}\n    }\n}\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("action-wildcard".into(), 4)]);
}

#[test]
fn action_wildcard_flags_or_pattern_wildcard() {
    let src =
        "fn apply(a: Action) {\n    match a {\n        Action::Lend { .. } | _ => {}\n    }\n}\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("action-wildcard".into(), 3)]);
}

#[test]
fn action_wildcard_ignores_exhaustive_match_and_other_enums() {
    let exhaustive = "fn apply(a: Action) {\n    match a {\n        Action::Lend { .. } => {}\n        Action::Return { .. } => {}\n    }\n}\n";
    assert!(rules_at(DET_PATH, exhaustive).is_empty());
    let other =
        "fn f(x: Reason) {\n    match x {\n        Reason::Oom => {}\n        _ => {}\n    }\n}\n";
    assert!(rules_at(DET_PATH, other).is_empty());
    let field = "fn apply(a: Action) {\n    match a {\n        Action::Lend { inv: _, .. } => {}\n        Action::Return { .. } => {}\n    }\n}\n";
    assert!(rules_at(DET_PATH, field).is_empty());
}

#[test]
fn action_wildcard_suppressed_by_reasoned_allow() {
    let src = "fn apply(a: Action) {\n    match a {\n        Action::Lend { .. } => {}\n        // libra-lint: allow(action-wildcard): fixture\n        _ => {}\n    }\n}\n";
    assert!(rules_at(DET_PATH, src).is_empty());
}

// ---- float equality ------------------------------------------------------

#[test]
fn float_eq_flags_exact_compares() {
    let src = "fn f(x: f64) -> bool { x == 0.0 }\nfn g(x: f64) -> bool { 1.0 != x }\n";
    assert_eq!(rules_at(DET_PATH, src), vec![("float-eq".into(), 1), ("float-eq".into(), 2)]);
}

#[test]
fn float_eq_ignores_int_compares_and_epsilon_form() {
    let src = "fn f(x: u64) -> bool { x == 0 }\nfn g(x: f64) -> bool { (x - 1.0).abs() < 1e-9 }\n";
    assert!(rules_at(DET_PATH, src).is_empty());
}

#[test]
fn float_eq_applies_in_every_crate() {
    let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
    assert_eq!(rules_at("crates/libra-bench/src/fixture.rs", src), vec![("float-eq".into(), 1)]);
}

// ---- allow-comment hygiene ----------------------------------------------

#[test]
fn allow_without_reason_is_flagged_even_when_it_suppresses() {
    let src = "fn t() { let _ = Instant::now(); } // libra-lint: allow(determinism)\n";
    let ds = lint_source(DET_PATH, src);
    assert_eq!(ds.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(), vec![("allow-hygiene", 1)]);
    assert!(ds[0].msg.contains("without a reason"), "{}", ds[0].msg);
}

#[test]
fn stale_allow_is_flagged() {
    // The allow suppresses nothing — the code it excused was fixed.
    let src = "// libra-lint: allow(determinism): fixture\nfn t() {}\n";
    let ds = lint_source(DET_PATH, src);
    assert_eq!(ds.iter().map(|d| (d.rule, d.line)).collect::<Vec<_>>(), vec![("allow-hygiene", 1)]);
    assert!(ds[0].msg.contains("stale allow"), "{}", ds[0].msg);
}

#[test]
fn allow_comment_is_rule_specific() {
    // An allow for one rule must not silence a different rule on that line —
    // and having suppressed nothing, it is also stale.
    let src = "fn f(x: f64) -> bool { x == 0.0 } // libra-lint: allow(determinism): fixture\n";
    let mut got = rules_at(DET_PATH, src);
    got.sort();
    assert_eq!(got, vec![("allow-hygiene".into(), 1), ("float-eq".into(), 1)]);
}

#[test]
fn doc_comments_and_prose_never_parse_as_markers() {
    // `///` docs describing the escape hatch, and trailing mentions inside
    // ordinary comments, are prose — not allow sites (so not stale either).
    let src = "/// Write `// libra-lint: allow(panic): why` to excuse a sink.\n// note: libra-lint: allow(panic) is documented in the guide\nfn t() {}\n";
    assert!(rules_at(DET_PATH, src).is_empty());
    let report = lint_files(&[(DET_PATH, src)], false);
    assert!(report.allows.is_empty(), "prose must not register allow sites: {:?}", report.allows);
}

#[test]
fn allows_are_surfaced_in_the_report() {
    let src = "fn t() { let _ = Instant::now(); } // libra-lint: allow(determinism): fixture\n";
    let report = lint_files(&[(DET_PATH, src)], false);
    assert_eq!(report.allows.len(), 1);
    assert_eq!(report.allows[0].line, 1);
    assert_eq!(report.allows[0].rules, vec!["determinism".to_string()]);
    assert_eq!(report.allows[0].reason.as_deref(), Some("fixture"));
    let json = report.to_json();
    assert!(json.contains("\"allow_count\": 1"), "{json}");
    assert!(json.contains("\"reason\": \"fixture\""), "{json}");
}

// ---- workspace staleness (roots table) -----------------------------------

#[test]
fn workspace_mode_reports_stale_root_specs() {
    // A fixture "workspace" containing only controlplane.rs matches that one
    // spec; every other ROOTS entry is reported stale. Single-file fixture
    // mode (workspace=false) must skip this check entirely.
    let src = "pub fn on_start() {}\n";
    let report = lint_files(&[("crates/libra-core/src/controlplane.rs", src)], true);
    let stale: Vec<&Diagnostic> =
        report.diagnostics.iter().filter(|d| d.msg.contains("stale root spec")).collect();
    assert!(!stale.is_empty(), "unmatched specs must be reported");
    assert!(
        stale.iter().all(|d| !d.msg.contains("controlplane.rs")),
        "the matched spec must not be reported: {stale:?}"
    );
    let single = lint_files(&[("crates/libra-core/src/controlplane.rs", src)], false);
    assert!(single.diagnostics.is_empty(), "{:?}", single.diagnostics);
}
