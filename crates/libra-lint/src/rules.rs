//! The lint rules (see `DESIGN.md` §"Enforced invariants" for the paper
//! clause each rule protects).
//!
//! Two kinds of rule run over each workspace snapshot:
//!
//! * **token rules** walk one file's lexed token stream (determinism in the
//!   deterministic crates, `Action` match exhaustiveness, float equality);
//! * **reachability rules** walk the workspace [`crate::graph::CallGraph`]
//!   from declared [`crate::roots`]: panic-reachability, clock/determinism
//!   reachability, and the narrowing-cast audit. Their diagnostics carry
//!   the full call-path witness from a root to the offending function.
//!
//! A diagnostic is suppressed by a
//! `// libra-lint: allow(<rule>): <reason>` comment on the same line or the
//! line directly above, or by an entry in the per-rule [`ALLOWLIST`]. The
//! `allow-hygiene` rule then audits the escape hatches themselves: every
//! allow must carry a reason, every allow must still suppress something,
//! and every `ALLOWLIST` entry must still match a diagnostic — stale
//! entries fail the build instead of silently widening the holes.

use crate::graph::{CallGraph, FnId};
use crate::items::{is_expr_keyword, FnItem};
use crate::lexer::{Tok, Token};
use std::collections::BTreeSet;

pub use crate::graph::FileEntry;

/// Rule names, as used in allow-comments and diagnostics.
pub const RULE_DETERMINISM: &str = "determinism";
/// Panic-reachability rule name.
pub const RULE_PANIC: &str = "panic";
/// Action-exhaustiveness rule name.
pub const RULE_ACTION_WILDCARD: &str = "action-wildcard";
/// Float-equality rule name.
pub const RULE_FLOAT_EQ: &str = "float-eq";
/// Narrowing-cast audit rule name.
pub const RULE_CAST: &str = "cast";
/// Allow-comment hygiene rule name.
pub const RULE_ALLOW_HYGIENE: &str = "allow-hygiene";

/// Crates whose library sources must stay clock-free and deterministic: the
/// sim-vs-live fidelity test replays identical event sequences through them
/// and asserts identical action traces. Inside these crates the determinism
/// rule is token-strict (it also catches `HashMap` struct fields and `use`
/// declarations); outside them, coverage is *computed* — anything reachable
/// from a declared determinism root is checked, wherever it lives.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["libra-core", "libra-sim", "libra-workloads", "libra-chaos"];

/// Per-rule allowlist: `(path suffix, rule)` pairs exempted wholesale.
/// Deliberately empty — prefer the in-source
/// `// libra-lint: allow(<rule>): <reason>` escape hatch, which keeps the
/// justification next to the code. Entries here are for generated files,
/// and entries that stop matching any diagnostic fail the build as stale.
pub const ALLOWLIST: &[(&str, &str)] = &[];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message with remediation.
    pub msg: String,
    /// Call-path witness from a declared root down to the diagnostic site
    /// (`file:line Type::fn` per hop); empty for token rules.
    pub witness: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)?;
        for (i, hop) in self.witness.iter().enumerate() {
            write!(f, "\n    {} {hop}", if i == 0 { "root" } else { " via" })?;
        }
        Ok(())
    }
}

/// Collects diagnostics and tracks which escape hatches earned their keep.
#[derive(Default)]
pub struct Emitter {
    /// Diagnostics that survived suppression.
    pub diags: Vec<Diagnostic>,
    /// `(path, allow-comment line)` pairs that suppressed ≥ 1 diagnostic.
    pub used_allows: BTreeSet<(String, u32)>,
    /// [`ALLOWLIST`] indices that suppressed ≥ 1 diagnostic.
    pub used_allowlist: BTreeSet<usize>,
}

impl Emitter {
    /// Emit one diagnostic against `file`, honouring the allow-comment (same
    /// line or line above) and [`ALLOWLIST`] escape hatches.
    pub fn emit(
        &mut self,
        file: &FileEntry,
        rule: &'static str,
        line: u32,
        msg: String,
        witness: Vec<String>,
    ) {
        for l in [line, line.saturating_sub(1)] {
            if file.lexed.allows.get(&l).is_some_and(|rules| rules.contains(rule)) {
                self.used_allows.insert((file.path.clone(), l));
                return;
            }
        }
        for (i, (suffix, r)) in ALLOWLIST.iter().enumerate() {
            if *r == rule && file.path.ends_with(suffix) {
                self.used_allowlist.insert(i);
                return;
            }
        }
        self.diags.push(Diagnostic { rule, path: file.path.clone(), line, msg, witness });
    }
}

/// Mark tokens covered by test-only items: any item whose attributes mention
/// `test` outside a `not(...)` (covers `#[cfg(test)]`, `#[test]`,
/// `#[cfg(all(test, ...))]`), plus everything when an inner `#![cfg(test)]`
/// marks the whole file. The item body is skipped by brace matching.
pub fn test_mask(lexed: &crate::lexer::Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let inner = j < toks.len() && toks[j].is_punct("!");
        if inner {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("[") {
            i += 1;
            continue;
        }
        // Collect the attribute tokens up to the matching `]`.
        let attr_start = j + 1;
        let mut depth = 1;
        j += 1;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        if !attr_mentions_test(attr) {
            i = j;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the whole file is test code.
            for m in mask.iter_mut() {
                *m = true;
            }
            return mask;
        }
        // Skip any further outer attributes, then the item itself.
        let item_start = i;
        let mut k = j;
        while k + 1 < toks.len() && toks[k].is_punct("#") && toks[k + 1].is_punct("[") {
            let mut d = 1;
            let mut m = k + 2;
            while m < toks.len() && d > 0 {
                if toks[m].is_punct("[") {
                    d += 1;
                } else if toks[m].is_punct("]") {
                    d -= 1;
                }
                m += 1;
            }
            k = m;
        }
        // The item ends at the first `;` before any `{`, or at the matching
        // `}` of its first brace block.
        let mut d = 0i32;
        let mut saw_brace = false;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                saw_brace = true;
                d += 1;
            } else if t.is_punct("}") {
                d -= 1;
                if saw_brace && d == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct(";") && !saw_brace {
                k += 1;
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(k).skip(item_start) {
            *m = true;
        }
        i = k;
    }
    mask
}

/// Does an attribute token list mention `test` outside a `not(...)`?
fn attr_mentions_test(attr: &[Token]) -> bool {
    for (idx, t) in attr.iter().enumerate() {
        if t.is_ident("test") {
            let negated = idx >= 2 && attr[idx - 1].is_punct("(") && attr[idx - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

// ====================================================================
// Token rules (per file)
// ====================================================================

/// Rule — determinism, crate-strict half: the deterministic crates must not
/// read wall clocks, draw from ambient RNGs, or use hash-ordered containers
/// whose iteration order could leak into behaviour. Token-strict so `use`
/// declarations and struct fields are covered, not just calls.
pub fn rule_determinism_crates(file: &FileEntry, out: &mut Emitter) {
    if !DETERMINISTIC_CRATES.contains(&file.krate.as_str()) {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.mask[i] {
            continue;
        }
        if let Some((line, msg)) = determinism_sink(toks, i, &file.krate) {
            out.emit(file, RULE_DETERMINISM, line, msg, Vec::new());
        }
    }
}

/// Recognise one determinism sink at token `i`; returns `(line, message)`.
fn determinism_sink(toks: &[Token], i: usize, scope: &str) -> Option<(u32, String)> {
    let t = &toks[i];
    let line = t.line;
    let path2 = |a: &str, b: &str| {
        toks[i].is_ident(a)
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident(b))
    };
    if path2("Instant", "now") {
        return Some((line, format!(
            "`Instant::now()` in deterministic scope `{scope}`: time the call from the caller, outside the deterministic crates, instead of reading the wall clock here"
        )));
    }
    if path2("SystemTime", "now") {
        return Some((line, format!(
            "`SystemTime::now()` in deterministic scope `{scope}`: derive time from the event's explicit `now: SimTime`"
        )));
    }
    if t.is_ident("thread_rng") {
        return Some((line, format!(
            "`thread_rng` in deterministic scope `{scope}`: use a seeded `ChaCha8Rng` threaded through the config"
        )));
    }
    if t.is_ident("HashMap") || t.is_ident("HashSet") {
        let name = match &t.tok {
            Tok::Ident(s) => s.as_str(),
            _ => "",
        };
        return Some((line, format!(
            "`{name}` in deterministic scope `{scope}`: iteration order is nondeterministic and silently leaks into replay — use the BTree equivalent (or an explicitly ordered index)"
        )));
    }
    None
}

/// Rule — action exhaustiveness: a `match` whose patterns name
/// `Action::...` must not carry a wildcard arm. New `Action` variants must
/// fail the build in every driver rather than being silently dropped.
pub fn rule_action_wildcard(file: &FileEntry, out: &mut Emitter) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.mask[i] || !toks[i].is_ident("match") {
            continue;
        }
        // Find the body `{` (scrutinees cannot contain a bare `{`).
        let mut j = i + 1;
        let mut d = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                d -= 1;
            } else if t.is_punct("{") && d == 0 {
                break;
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        analyze_match_body(file, toks, j, out);
    }
}

/// Analyze one match body starting at its `{` token: collect arm patterns at
/// depth 1 and flag a top-level `_` alternative when any pattern names
/// `Action::`.
fn analyze_match_body(file: &FileEntry, toks: &[Token], open: usize, out: &mut Emitter) {
    #[derive(PartialEq)]
    enum St {
        Pattern,
        Guard,
        Body,
    }
    let mut depth = 1i32;
    let mut k = open + 1;
    let mut st = St::Pattern;
    // Pattern tokens with their depth at record time.
    let mut pat: Vec<(usize, i32)> = Vec::new();
    let mut mentions_action = false;
    let mut wildcard_line: Option<u32> = None;

    let finish_arm = |pat: &mut Vec<(usize, i32)>,
                      wildcard_line: &mut Option<u32>,
                      mentions_action: &mut bool| {
        // Split top-level alternatives on `|` at depth 1.
        let mut alt: Vec<usize> = Vec::new();
        let flush = |alt: &mut Vec<usize>, wildcard_line: &mut Option<u32>| {
            let top: Vec<usize> = alt.clone();
            if top.len() == 1 && toks[top[0]].is_ident("_") && wildcard_line.is_none() {
                *wildcard_line = Some(toks[top[0]].line);
            }
            alt.clear();
        };
        for &(idx, d) in pat.iter() {
            if toks[idx].is_ident("Action") && toks.get(idx + 1).is_some_and(|t| t.is_punct("::")) {
                *mentions_action = true;
            }
            if d == 1 {
                if toks[idx].is_punct("|") {
                    flush(&mut alt, wildcard_line);
                } else if !toks[idx].is_punct(",") {
                    alt.push(idx);
                }
            }
        }
        flush(&mut alt, wildcard_line);
        pat.clear();
    };

    while k < toks.len() && depth > 0 {
        let t = &toks[k];
        let is_open = t.is_punct("{") || t.is_punct("(") || t.is_punct("[");
        let is_close = t.is_punct("}") || t.is_punct(")") || t.is_punct("]");
        if is_open {
            depth += 1;
        }
        if is_close {
            depth -= 1;
            if depth == 0 {
                break; // end of match body
            }
        }
        match st {
            St::Pattern => {
                if depth == 1 && t.is_punct("=>") {
                    finish_arm(&mut pat, &mut wildcard_line, &mut mentions_action);
                    st = St::Body;
                } else if depth == 1 && t.is_ident("if") && !pat.is_empty() {
                    finish_arm(&mut pat, &mut wildcard_line, &mut mentions_action);
                    st = St::Guard;
                } else if !is_open || depth > 1 {
                    // Record pattern tokens (opens recorded at their outer
                    // depth keeps struct-pattern contents at depth > 1).
                    pat.push((k, depth));
                }
            }
            St::Guard => {
                if depth == 1 && t.is_punct("=>") {
                    st = St::Body;
                }
            }
            St::Body => {
                // A braced body closing back to depth 1, or a `,` at depth 1,
                // ends the arm.
                if depth == 1 && (t.is_punct(",") || is_close) {
                    st = St::Pattern;
                }
            }
        }
        k += 1;
    }
    if mentions_action {
        if let Some(line) = wildcard_line {
            out.emit(file, RULE_ACTION_WILDCARD, line, "wildcard arm in a `match` over `controlplane::Action`: enumerate every variant so new Actions fail the build instead of being silently dropped".to_string(), Vec::new());
        }
    }
}

/// Rule — float equality: `==`/`!=` against a float literal compares
/// resource volumes exactly; use an approx helper (`(a - b).abs() < eps`).
pub fn rule_float_eq(file: &FileEntry, out: &mut Emitter) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if file.mask[i] {
            continue;
        }
        let t = &toks[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let float_adjacent = (i >= 1 && toks[i - 1].tok == Tok::Float)
            || toks.get(i + 1).is_some_and(|n| n.tok == Tok::Float);
        if float_adjacent {
            out.emit(file, RULE_FLOAT_EQ, t.line, "exact float equality: compare with an epsilon helper (`(a - b).abs() < EPS`) — bit-exact float compares silently diverge across refactors".to_string(), Vec::new());
        }
    }
}

// ====================================================================
// Reachability rules (workspace)
// ====================================================================

/// One panic sink found in a function body.
struct Sink {
    line: u32,
    msg: String,
}

/// Scan one function body for panic sinks: `.unwrap()`, `.expect()`,
/// `panic!`/`todo!`/`unimplemented!`, and panicking index expressions.
/// `assert!`-family and `unreachable!` are deliberately not sinks — they
/// state invariants; the rule targets recoverable-situation panics.
fn panic_sinks(file: &FileEntry, f: &FnItem) -> Vec<Sink> {
    let toks = &file.lexed.tokens;
    let mut out = Vec::new();
    for i in f.body.0..f.body.1 {
        if file.mask[i] {
            continue;
        }
        let t = &toks[i];
        if i >= 1
            && toks[i - 1].is_punct(".")
            && (t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let what = match &t.tok {
                Tok::Ident(s) => s.clone(),
                _ => String::new(),
            };
            out.push(Sink {
                line: t.line,
                msg: format!("`.{what}()` on a panic-free path: restructure with `let .. else` / `if let`, or return a typed error"),
            });
        }
        if let Tok::Ident(name) = &t.tok {
            if (name == "panic" || name == "todo" || name == "unimplemented")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                out.push(Sink {
                    line: t.line,
                    msg: format!("`{name}!` on a panic-free path: degrade (skip, return an error) instead of aborting"),
                });
            }
        }
        if t.is_punct("[") && i >= 1 && is_index_expr(toks, i) && computed_subscript(toks, i) {
            out.push(Sink {
                line: t.line,
                msg: "computed-index `[..]` on a panic-free path: the offset arithmetic can overflow the buffer — use `.get()`/`.get_mut()` and handle the miss".to_string(),
            });
        }
    }
    out
}

/// Does the subscript starting at the `[` at `i` *compute* its index —
/// arithmetic inside the brackets? Plain subscripts (`xs[i]`,
/// `nodes[id.idx()]`) are the arena idiom whose validity is structural
/// (typed ids handed out by the arena itself, checked by the invariant
/// auditor); computed offsets (`buf[off + 2]`, `bins[(v / w) as usize]`)
/// are the class that actually walks off the end.
fn computed_subscript(toks: &[Token], open: usize) -> bool {
    const ARITH: &[&str] = &["+", "/", "%", "<<", ">>"];
    // `*` and `-` are arithmetic only in infix position — after an operand
    // — otherwise they are deref (`row[*feature]`) / negation.
    const INFIX_ONLY: &[&str] = &["*", "-"];
    let operand_end = |t: &Token| match &t.tok {
        Tok::Ident(name) => !is_expr_keyword(name),
        Tok::Int | Tok::Float | Tok::Punct(")") | Tok::Punct("]") => true,
        _ => false,
    };
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("[") || t.is_punct("(") {
            depth += 1;
        } else if t.is_punct("]") || t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if let Tok::Punct(p) = &t.tok {
            if ARITH.contains(p) || (INFIX_ONLY.contains(p) && j > 0 && operand_end(&toks[j - 1])) {
                return true;
            }
        }
        j += 1;
    }
    false
}

/// Panicking indexing heuristic: a `[` directly after an identifier, `)`,
/// `]` or `?` is an index expression — except after keywords (`&mut [u8]`,
/// `in [..]`), which are types, patterns or literals.
fn is_index_expr(toks: &[Token], i: usize) -> bool {
    let p = &toks[i - 1];
    match &p.tok {
        Tok::Ident(name) => !is_expr_keyword(name) && name != "_",
        Tok::Punct(")") | Tok::Punct("]") | Tok::Punct("?") => true,
        _ => false,
    }
}

/// Rule — panic-reachability: any panic sink in a function transitively
/// reachable from a declared panic root is a diagnostic carrying the full
/// call-path witness.
pub fn rule_panic_reachability(g: &CallGraph<'_>, out: &mut Emitter) {
    let roots = g.roots_for(RULE_PANIC);
    let (seen, parent) = g.reachable_from(&roots);
    for (id, &is_seen) in seen.iter().enumerate() {
        if !is_seen {
            continue;
        }
        let file = g.file(id);
        let f = g.item(id);
        let witness = g.witness(id, &parent);
        for sink in panic_sinks(file, f) {
            out.emit(file, RULE_PANIC, sink.line, sink.msg, witness.clone());
        }
    }
}

/// Rule — determinism-reachability: clock reads, ambient RNG, and
/// hash-ordered containers in functions reachable from declared determinism
/// roots, *outside* the deterministic crates (inside them the token-strict
/// crate rule already covers every token). Top-level tokens (`use`
/// declarations, struct fields) of root-declaring files are scanned too —
/// computed, not curated, coverage of the old `DETERMINISTIC_FILES` list.
pub fn rule_determinism_reachability(g: &CallGraph<'_>, out: &mut Emitter) {
    let roots = g.roots_for(RULE_DETERMINISM);
    let (seen, parent) = g.reachable_from(&roots);
    for (id, &is_seen) in seen.iter().enumerate() {
        if !is_seen {
            continue;
        }
        let file = g.file(id);
        if DETERMINISTIC_CRATES.contains(&file.krate.as_str()) {
            continue; // the crate-strict rule owns these
        }
        let f = g.item(id);
        let witness = g.witness(id, &parent);
        let toks = &file.lexed.tokens;
        for i in f.body.0..f.body.1 {
            if file.mask[i] {
                continue;
            }
            if let Some((line, msg)) =
                determinism_sink(toks, i, "reachable-from-deterministic-root")
            {
                out.emit(file, RULE_DETERMINISM, line, msg, witness.clone());
            }
        }
    }
    // Top-level scan of files that declare a determinism root: struct
    // fields and `use` lines must be hash-free too.
    let root_files: BTreeSet<usize> = roots.iter().map(|&r| g.nodes[r].0).collect();
    for &fi in &root_files {
        let file = &g.files[fi];
        if DETERMINISTIC_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        let toks = &file.lexed.tokens;
        let in_fn = |i: usize| file.items.fns.iter().any(|f| i >= f.body.0 && i < f.body.1);
        for i in 0..toks.len() {
            if file.mask[i] || in_fn(i) {
                continue;
            }
            if let Some((line, msg)) = determinism_sink(toks, i, "determinism-root file") {
                out.emit(file, RULE_DETERMINISM, line, msg, Vec::new());
            }
        }
    }
}

/// Integer types a raw `as` cast can silently truncate into.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
/// Wide integer targets — flagged only for float→int casts.
const WIDE_INTS: &[&str] = &["u64", "u128", "i64", "i128", "usize", "isize"];

/// Rule — narrowing-cast audit: on the deterministic crates' hot paths
/// (functions reachable from the panic roots — the event loop, the control
/// plane, the policy hooks), a raw `as` cast to a narrow integer type, or a
/// float→int `as` cast, must become `try_from`/checked arithmetic or carry
/// a reasoned allow. Silent truncation on a million-invocation trace is a
/// wrong-answer generator, not a crash.
pub fn rule_cast(g: &CallGraph<'_>, out: &mut Emitter) {
    let roots = g.roots_for(RULE_PANIC);
    let (seen, parent) = g.reachable_from(&roots);
    for (id, &is_seen) in seen.iter().enumerate() {
        if !is_seen {
            continue;
        }
        let file = g.file(id);
        if !DETERMINISTIC_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        let f = g.item(id);
        let witness = g.witness(id, &parent);
        let toks = &file.lexed.tokens;
        for i in f.body.0..f.body.1 {
            if file.mask[i] || !toks[i].is_ident("as") {
                continue;
            }
            let Some(Tok::Ident(target)) = toks.get(i + 1).map(|t| &t.tok) else { continue };
            let line = toks[i].line;
            if NARROW_INTS.contains(&target.as_str()) {
                // A cast of an integer *literal* is value-visible: exempt.
                if i >= 1 && matches!(toks[i - 1].tok, Tok::Int) {
                    continue;
                }
                out.emit(file, RULE_CAST, line, format!(
                    "raw `as {target}` narrowing cast on a deterministic hot path: use `{target}::try_from(..)` and degrade on overflow, or add `// libra-lint: allow(cast): <reason>`"
                ), witness.clone());
            } else if WIDE_INTS.contains(&target.as_str()) && float_source(toks, i) {
                out.emit(file, RULE_CAST, line, format!(
                    "float→`{target}` `as` cast on a deterministic hot path: saturating semantics are easy to get wrong — route through a checked helper or add `// libra-lint: allow(cast): <reason>`"
                ), witness.clone());
            }
        }
    }
}

/// Does the expression cast by the `as` at `i` visibly involve floats?
/// Recognises `(.. f64 ..) as T` and `<float-literal> as T`.
fn float_source(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = &toks[i - 1];
    if p.tok == Tok::Float {
        return true;
    }
    if !p.is_punct(")") {
        return false;
    }
    // Walk back to the matching `(` and look for f64/f32/float literals.
    let mut depth = 0i32;
    let mut k = i - 1;
    loop {
        let t = &toks[k];
        if t.is_punct(")") {
            depth += 1;
        } else if t.is_punct("(") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if k == 0 {
            return false;
        }
        k -= 1;
    }
    toks[k..i].iter().any(|t| t.is_ident("f64") || t.is_ident("f32") || t.tok == Tok::Float)
}

// ====================================================================
// Allow hygiene
// ====================================================================

/// Rule — allow-comment hygiene, run after every other rule: each allow
/// must carry a `: <reason>` clause, and each must still suppress at least
/// one diagnostic (an allow that suppresses nothing is stale — the code it
/// excused moved or was fixed, and the hole should close with it).
pub fn rule_allow_hygiene(files: &[FileEntry], em: &mut Emitter) {
    for file in files {
        for site in &file.lexed.allow_sites {
            if site.reason.is_none() {
                em.diags.push(Diagnostic {
                    rule: RULE_ALLOW_HYGIENE,
                    path: file.path.clone(),
                    line: site.line,
                    msg: format!(
                        "allow({}) without a reason: write `// libra-lint: allow({}): <why this is safe>`",
                        comma(&site.rules), comma(&site.rules)
                    ),
                    witness: Vec::new(),
                });
            }
            if !em.used_allows.contains(&(file.path.clone(), site.line)) {
                em.diags.push(Diagnostic {
                    rule: RULE_ALLOW_HYGIENE,
                    path: file.path.clone(),
                    line: site.line,
                    msg: format!(
                        "stale allow({}): it no longer suppresses any diagnostic — delete it",
                        comma(&site.rules)
                    ),
                    witness: Vec::new(),
                });
            }
        }
    }
    for (i, (suffix, rule)) in ALLOWLIST.iter().enumerate() {
        if !em.used_allowlist.contains(&i) {
            em.diags.push(Diagnostic {
                rule: RULE_ALLOW_HYGIENE,
                path: "(workspace)".to_string(),
                line: 0,
                msg: format!(
                    "stale ALLOWLIST entry (\"{suffix}\", \"{rule}\"): it matches no diagnostic — delete it from crates/libra-lint/src/rules.rs"
                ),
                witness: Vec::new(),
            });
        }
    }
}

fn comma(set: &BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join(", ")
}

/// Root specs that match no function are reported so the roots table cannot
/// rot. Called by the workspace pass (not per-file fixtures, which lint
/// single files where most specs legitimately match nothing).
pub fn stale_roots(g: &CallGraph<'_>, em: &mut Emitter) {
    for spec in crate::roots::ROOTS {
        let matched = g.nodes.iter().any(|&(fi, ii)| {
            let file = &g.files[fi];
            let f = &file.items.fns[ii];
            match spec.matcher {
                crate::roots::RootMatch::InFile(suffix) => file.path.ends_with(suffix),
                crate::roots::RootMatch::ImplOf(ty) => f.self_ty.as_deref() == Some(ty),
                crate::roots::RootMatch::TraitImpl(tr) => f.trait_name.as_deref() == Some(tr),
            }
        });
        if !matched {
            em.diags.push(Diagnostic {
                rule: RULE_ALLOW_HYGIENE,
                path: "(workspace)".to_string(),
                line: 0,
                msg: format!(
                    "stale root spec {:?} for rule `{}`: it matches no function — update crates/libra-lint/src/roots.rs",
                    spec.matcher, spec.rule
                ),
                witness: Vec::new(),
            });
        }
    }
}

/// Run every rule over the file set: token rules per file, then the
/// reachability rules over the workspace call graph, then hygiene.
pub fn run_all(files: &[FileEntry], workspace: bool) -> (Emitter, FnId) {
    let mut em = Emitter::default();
    let g = CallGraph::build(files);
    for file in files {
        rule_determinism_crates(file, &mut em);
        rule_action_wildcard(file, &mut em);
        rule_float_eq(file, &mut em);
    }
    rule_panic_reachability(&g, &mut em);
    rule_determinism_reachability(&g, &mut em);
    rule_cast(&g, &mut em);
    if workspace {
        stale_roots(&g, &mut em);
    }
    rule_allow_hygiene(files, &mut em);
    let n = g.nodes.len();
    (em, n)
}
