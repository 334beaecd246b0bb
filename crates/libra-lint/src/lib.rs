//! # libra-lint — workspace static analysis for Libra's invariants
//!
//! Libra's correctness argument rests on invariants the compiler cannot see:
//!
//! * the control plane must be **clock-free and deterministic** — the
//!   sim-vs-live fidelity test replays identical event sequences through
//!   `libra-core` and asserts identical action traces (paper §3.1);
//! * control-plane **action paths must not panic** — a panic mid-revocation
//!   strands loans on the ledger (paper §4 safeguard);
//! * drivers must handle **every `Action` variant** — a wildcard arm would
//!   silently drop a newly added Action;
//! * resource-volume floats must not be compared **bit-exactly**, and hot
//!   paths must not truncate counters through raw `as` casts.
//!
//! The analyzer is layered (the workspace builds with no crates.io access,
//! so `syn` is unavailable):
//!
//! 1. [`lexer`] — a hand-rolled token stream with comment/string/test
//!    fidelity, plus the `allow(..)`/`root(..)` comment tables;
//! 2. [`items`] — a recursive-descent item pass: modules, `fn`s, `impl`
//!    blocks, structs, and every call/method-call site with receiver info;
//! 3. [`graph`] — the workspace call graph with heuristic name+receiver
//!    resolution, BFS reachability, and call-path witnesses;
//! 4. [`rules`] — token rules per file and reachability rules per
//!    workspace, seeded from the declared [`roots`].
//!
//! Run it as `cargo run -p libra-lint` (add `--json LINT.json` for the
//! machine-readable report) — it exits non-zero on any diagnostic and is
//! gated in `scripts/verify.sh` between clippy and the doc build.
//!
//! Scope: every `.rs` file under `crates/*/src/` plus the root facade
//! `src/`, minus test code (`#[cfg(test)]` / `#[test]` items). The `stubs/`
//! tree (offline stand-ins for external crates) and `tests/`/`benches/`/
//! `examples/` targets are not product control-plane code and are skipped.
//!
//! Escape hatch: `// libra-lint: allow(<rule>): <reason>` on the offending
//! line or the line directly above. The reason clause is mandatory and
//! stale allows (ones that no longer suppress anything) fail the build —
//! see [`rules::rule_allow_hygiene`]. The self-check test additionally pins
//! that `libra-core` carries **zero** allow-comments — the deterministic
//! core must be clean, not excused.

#![warn(missing_docs)]

pub mod graph;
pub mod items;
pub mod lexer;
pub mod roots;
pub mod rules;

pub use graph::{CallGraph, FileEntry};
pub use rules::{Diagnostic, ALLOWLIST, DETERMINISTIC_CRATES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One allow-comment, as surfaced in the report summary.
#[derive(Clone, Debug)]
pub struct AllowRecord {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Rules it allows.
    pub rules: Vec<String>,
    /// The mandatory reason clause (absence is itself a diagnostic).
    pub reason: Option<String>,
}

/// The result of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files: usize,
    /// Call-graph nodes (non-test functions) analysed.
    pub functions: usize,
    /// Diagnostics, sorted by `(path, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Every allow-comment in scope, in source order.
    pub allows: Vec<AllowRecord>,
}

impl LintReport {
    /// Serialize as JSON for `LINT.json` (hand-rolled; no serde offline).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str(&format!("  \"allow_count\": {},\n", self.allows.len()));
        s.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!(
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"msg\": {}, \"witness\": [{}]",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                json_str(&d.msg),
                d.witness.iter().map(|w| json_str(w)).collect::<Vec<_>>().join(", ")
            ));
            s.push('}');
            if i + 1 < self.diagnostics.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!(
                "\"file\": {}, \"line\": {}, \"rules\": [{}], \"reason\": {}",
                json_str(&a.path),
                a.line,
                a.rules.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(", "),
                a.reason.as_deref().map_or("null".to_string(), json_str)
            ));
            s.push('}');
            if i + 1 < self.allows.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Build a [`FileEntry`] (lex → test-mask → item pass) from one source file.
pub fn analyze_file(rel_path: &str, src: &str) -> FileEntry {
    let krate = crate_of(rel_path);
    let lexed = lexer::lex(src);
    let mask = rules::test_mask(&lexed);
    let items = items::parse(&lexed, &mask);
    FileEntry { path: rel_path.to_string(), krate, lexed, mask, items }
}

/// Lint a set of in-memory sources as one workspace. `workspace` enables
/// the whole-workspace staleness checks (root specs / `ALLOWLIST`), which
/// single-file fixture runs must skip.
pub fn lint_files(sources: &[(&str, &str)], workspace: bool) -> LintReport {
    let files: Vec<FileEntry> = sources.iter().map(|(path, src)| analyze_file(path, src)).collect();
    let (em, functions) = rules::run_all(&files, workspace);
    let mut diagnostics = em.diags;
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let allows = files
        .iter()
        .flat_map(|f| {
            f.lexed.allow_sites.iter().map(|s| AllowRecord {
                path: f.path.clone(),
                line: s.line,
                rules: s.rules.iter().cloned().collect(),
                reason: s.reason.clone(),
            })
        })
        .collect();
    LintReport { files: sources.len(), functions, diagnostics, allows }
}

/// Lint one source file given its workspace-relative path (fixture entry
/// point: no cross-file edges, no workspace staleness checks).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    lint_files(&[(rel_path, src)], false).diagnostics
}

/// The crate name derived from the path (`crates/<name>/src/...`; anything
/// else is `root`).
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "root".to_string()
}

/// Collect the workspace `.rs` files in lint scope, sorted for deterministic
/// diagnostics: `crates/*/src/**` plus the root `src/**`.
pub fn scope_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let paths = scope_files(root)?;
    let mut owned: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let src = fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        owned.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = owned.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(lint_files(&borrowed, true))
}

/// The workspace root this binary was built in: `crates/libra-lint/../..`.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}
