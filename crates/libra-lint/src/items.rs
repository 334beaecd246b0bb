//! Item-tree extraction: a lightweight recursive-descent pass over the
//! [`crate::lexer`] token stream that recovers the shape the reachability
//! rules need — functions (with their impl/trait context and body token
//! ranges), struct field types, and every call/method-call site inside each
//! function body.
//!
//! This is deliberately *not* a Rust parser. It is a heuristic recogniser
//! with the same design contract as the lexer: enough fidelity that the
//! call-graph rules resolve real workspace calls, conservative enough that
//! a construct it does not understand degrades to "no edge" rather than a
//! false diagnostic. The known approximations are documented on each
//! recogniser.

use crate::lexer::{Lexed, Tok, Token};

/// A lightweight type reference: the last path segment plus the last path
/// segments of its generic arguments (`Vec<HarvestResourcePool>` becomes
/// `head: "Vec", args: ["HarvestResourcePool"]`). Enough to drive the
/// receiver heuristic, including one level of container-element lookup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TyRef {
    /// Last path segment of the type itself.
    pub head: String,
    /// Last path segments of the top-level generic arguments.
    pub args: Vec<String>,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// `self.m(..)` — resolves against the enclosing impl type.
    SelfMethod(String),
    /// `recv.m(..)` — `recv` describes the receiver as far as the parser
    /// could see: a simple variable name, `self.field`, or `None` when the
    /// receiver is a longer expression. `indexed` is true when the receiver
    /// was subscripted (`xs[i].m(..)`) — resolution then uses the
    /// container's element type.
    Method {
        /// Receiver description (`x`, `self.field`) when recoverable.
        recv: Option<String>,
        /// Method name.
        name: String,
        /// Whether the receiver was index-subscripted.
        indexed: bool,
    },
    /// `Qual::m(..)` — `qual` is the last path segment before the name.
    Qualified {
        /// Last path segment before the function name.
        qual: String,
        /// Function name.
        name: String,
    },
    /// Bare `m(..)`.
    Free(String),
    /// `m!(..)` / `m![..]` / `m!{..}`.
    Macro(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// What is being called.
    pub callee: Callee,
    /// 1-based source line.
    pub line: u32,
}

/// One function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type's last path segment, when this is a method or
    /// associated function.
    pub self_ty: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the body including braces; empty for
    /// bodiless trait-method declarations.
    pub body: (usize, usize),
    /// Token range `[start, end)` of the signature (from `fn` to the body
    /// `{` or the `;`).
    pub sig: (usize, usize),
    /// Whether the whole item sits inside test code (`#[cfg(test)]` module,
    /// `#[test]` attribute) per the test mask.
    pub is_test: bool,
    /// Call sites inside the body, in token order.
    pub calls: Vec<Call>,
    /// Parameter types by name (`(name, type)`), for receiver resolution.
    pub params: Vec<(String, TyRef)>,
    /// Inferable `let` binding types by name.
    pub lets: Vec<(String, TyRef)>,
}

/// One struct item with its named-field types.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// `(field, type)` pairs for named fields.
    pub fields: Vec<(String, TyRef)>,
}

/// Everything the rules need from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// All function items, in source order.
    pub fns: Vec<FnItem>,
    /// All struct items.
    pub structs: Vec<StructItem>,
}

/// Keywords that can directly precede `(` or `[` without being calls or
/// index expressions.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in", "as",
    "move", "mut", "ref", "dyn", "impl", "where", "fn", "let", "const", "static", "use", "pub",
    "mod", "struct", "enum", "trait", "type", "unsafe", "await", "async", "yield", "box",
];

/// Is `name` a keyword that cannot be a callee / indexed value?
pub fn is_expr_keyword(name: &str) -> bool {
    EXPR_KEYWORDS.contains(&name)
}

/// Parse one lexed file (with its test mask) into an item tree.
pub fn parse(lexed: &Lexed, mask: &[bool]) -> FileItems {
    let toks = &lexed.tokens;
    let mut out = FileItems::default();
    // Stack of enclosing impl contexts: (self_ty, trait_name, close_tok).
    let mut impls: Vec<(String, Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, _, close)) = impls.last() {
            if i >= close {
                impls.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.is_ident("impl") {
            if let Some((self_ty, trait_name, close)) = parse_impl_header(toks, i) {
                impls.push((self_ty, trait_name, close));
                // Descend into the impl body: advance past the header `{`.
                i = impl_body_open(toks, i).map_or(i + 1, |open| open + 1);
                continue;
            }
        }
        if t.is_ident("trait") {
            // Default trait methods behave like methods of the trait itself:
            // `self_ty` = `trait_name` = the trait, so `TraitImpl` root specs
            // and receiver-typed resolution cover default bodies too.
            if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                if let Some(open) = impl_body_open(toks, i + 1) {
                    if let Some(close) = match_brace(toks, open) {
                        impls.push((name.clone(), Some(name.clone()), close));
                        i = open + 1;
                        continue;
                    }
                }
            }
        }
        if t.is_ident("struct") {
            if let Some((item, next)) = parse_struct(toks, i) {
                out.structs.push(item);
                i = next;
                continue;
            }
        }
        if t.is_ident("fn") {
            if let Some((item, next)) = parse_fn(toks, mask, i, impls.last()) {
                out.fns.push(item);
                i = next;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Angle-depth change of `t` in type position. The lexer munches `>>` and
/// `>>=` into one operator token each (the cast rule wants `>>` whole); in a
/// type they are two closers, so `Vec<Option<T>>` balances.
fn angle_delta(t: &Token) -> i32 {
    match &t.tok {
        Tok::Punct("<") => 1,
        Tok::Punct(">") => -1,
        Tok::Punct(">>" | ">>=") => -2,
        _ => 0,
    }
}

/// [`angle_delta`] plus one level per `(`/`[`/`{` opener or closer: the depth
/// used to split types, parameters and fields on top-level `,`/`:`/`=`.
fn depth_delta(t: &Token) -> i32 {
    match &t.tok {
        Tok::Punct("(" | "[" | "{") => 1,
        Tok::Punct(")" | "]" | "}") => -1,
        _ => angle_delta(t),
    }
}

/// Parse `impl [<..>] [Trait for] Type [<..>] [where ..] {` starting at the
/// `impl` token. Returns `(type, trait, body-close-token-exclusive)`.
fn parse_impl_header(toks: &[Token], at: usize) -> Option<(String, Option<String>, usize)> {
    let open = impl_body_open(toks, at)?;
    // Collect path-segment idents between `impl` and `{`, splitting on `for`.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut angle = 0i32;
    let mut j = at + 1;
    while j < open {
        let t = &toks[j];
        let da = angle_delta(t);
        if da != 0 {
            angle += da;
        } else if angle == 0 {
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                break;
            } else if let Tok::Ident(name) = &t.tok {
                if !is_expr_keyword(name) {
                    if saw_for {
                        after_for.push(name.clone());
                    } else {
                        before_for.push(name.clone());
                    }
                }
            }
        }
        j += 1;
    }
    let close = match_brace(toks, open)?;
    if saw_for {
        let ty = after_for.last()?.clone();
        Some((ty, before_for.last().cloned(), close))
    } else {
        let ty = before_for.last()?.clone();
        Some((ty, None, close))
    }
}

/// Find the `{` opening an impl body (angle-depth 0 after the `impl` token).
fn impl_body_open(toks: &[Token], at: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        let da = angle_delta(t);
        if da != 0 {
            angle += da;
        } else if t.is_punct("{") && angle <= 0 {
            return Some(j);
        } else if t.is_punct(";") {
            return None;
        }
        j += 1;
    }
    None
}

/// Token index one past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            depth += 1;
        } else if toks[j].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Token index one past the matching closer for the opener at `open`
/// (any of `(`/`[`/`{`, tracked together so mixed nesting balances).
fn match_group(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parse `struct Name [<..>] { field: Ty, .. }` starting at `struct`.
/// Tuple structs and unit structs yield no fields. Returns the item and the
/// index to resume scanning at.
fn parse_struct(toks: &[Token], at: usize) -> Option<(StructItem, usize)> {
    let name = match toks.get(at + 1).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.clone(),
        _ => return None,
    };
    // Scan to `{`, `(` or `;` at angle-depth 0.
    let mut angle = 0i32;
    let mut j = at + 2;
    while j < toks.len() {
        let t = &toks[j];
        let da = angle_delta(t);
        if da != 0 {
            angle += da;
        } else if angle <= 0 && (t.is_punct(";") || t.is_punct("(")) {
            // Unit or tuple struct: no named fields.
            return Some((StructItem { name, fields: Vec::new() }, j + 1));
        } else if t.is_punct("{") && angle <= 0 {
            break;
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let close = match_brace(toks, j)?;
    let mut fields = Vec::new();
    // Fields at depth 1: `ident :` not preceded by `::` and at top level.
    let mut k = j + 1;
    let mut depth = 0i32;
    while k + 1 < close.saturating_sub(1) {
        let t = &toks[k];
        let dd = depth_delta(t);
        if dd != 0 {
            depth += dd;
        } else if depth == 0 {
            if let Tok::Ident(fname) = &t.tok {
                if toks[k + 1].is_punct(":") && !toks[k + 1].is_punct("::") {
                    // Type tokens run to the `,` at depth 0 or the close.
                    let ty_start = k + 2;
                    let mut m = ty_start;
                    let mut d = 0i32;
                    while m < close - 1 {
                        let tt = &toks[m];
                        let dd = depth_delta(tt);
                        if dd != 0 {
                            d += dd;
                        } else if tt.is_punct(",") && d <= 0 {
                            break;
                        }
                        m += 1;
                    }
                    fields.push((fname.clone(), parse_ty(&toks[ty_start..m])));
                    k = m;
                    continue;
                }
            }
        }
        k += 1;
    }
    Some((StructItem { name, fields }, close))
}

/// Distill a token slice into a [`TyRef`]: the last path-segment ident at
/// angle-depth 0 becomes the head, the last segment of each top-level
/// generic argument becomes an arg. `&mut Vec<Foo>` → `Vec<Foo>`.
pub fn parse_ty(toks: &[Token]) -> TyRef {
    let mut head = String::new();
    let mut head_end = 0usize;
    let mut angle = 0i32;
    for (i, t) in toks.iter().enumerate() {
        let da = angle_delta(t);
        if da != 0 {
            angle += da;
        } else if angle == 0 {
            if let Tok::Ident(n) = &t.tok {
                if !is_expr_keyword(n) && n != "dyn" {
                    head = n.clone();
                    head_end = i;
                }
            }
        }
    }
    let mut args = Vec::new();
    // Generic args: inside the `<..>` that directly follows the head.
    if let Some(open) = toks.get(head_end + 1).filter(|t| t.is_punct("<")) {
        let _ = open;
        let mut depth = 0i32;
        let mut last_seg = String::new();
        for t in &toks[head_end + 1..] {
            let da = angle_delta(t);
            if da != 0 {
                depth += da;
                if depth <= 0 {
                    if !last_seg.is_empty() {
                        args.push(std::mem::take(&mut last_seg));
                    }
                    break;
                }
            } else if depth == 1 {
                if t.is_punct(",") {
                    if !last_seg.is_empty() {
                        args.push(std::mem::take(&mut last_seg));
                    }
                } else if let Tok::Ident(n) = &t.tok {
                    if !is_expr_keyword(n) {
                        last_seg = n.clone();
                    }
                }
            }
        }
    }
    TyRef { head, args }
}

/// Parse one `fn` item starting at the `fn` token. Returns the item and the
/// index to resume scanning at (one past the body / the `;`).
fn parse_fn(
    toks: &[Token],
    mask: &[bool],
    at: usize,
    ctx: Option<&(String, Option<String>, usize)>,
) -> Option<(FnItem, usize)> {
    let name = match toks.get(at + 1).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.clone(),
        _ => return None,
    };
    // Parameter list: first `(` after the name (skipping generics).
    let mut angle = 0i32;
    let mut j = at + 2;
    while j < toks.len() {
        let t = &toks[j];
        let da = angle_delta(t);
        if da != 0 {
            angle += da;
        } else if t.is_punct("(") && angle <= 0 {
            break;
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let params_open = j;
    let params_close = match_group(toks, params_open)?; // one past `)`
    let params = parse_params(&toks[params_open + 1..params_close - 1]);
    // Body `{` or declaration `;` — scan past the return type / where clause.
    let mut k = params_close;
    let mut angle2 = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        let da = angle_delta(t);
        if da != 0 {
            angle2 += da;
        } else if t.is_punct(";") && angle2 <= 0 {
            // Bodiless declaration (trait method).
            let item = FnItem {
                name,
                self_ty: ctx.map(|c| c.0.clone()),
                trait_name: ctx.and_then(|c| c.1.clone()),
                line: toks[at].line,
                body: (k, k),
                sig: (at, k),
                is_test: mask.get(at).copied().unwrap_or(false),
                calls: Vec::new(),
                params,
                lets: Vec::new(),
            };
            return Some((item, k + 1));
        } else if t.is_punct("{") && angle2 <= 0 {
            break;
        }
        k += 1;
    }
    if k >= toks.len() {
        return None;
    }
    let body_open = k;
    let body_close = match_brace(toks, body_open)?;
    let calls = extract_calls(&toks[body_open..body_close], toks[body_open].line, body_open, toks);
    let lets = extract_lets(&toks[body_open..body_close]);
    let item = FnItem {
        name,
        self_ty: ctx.map(|c| c.0.clone()),
        trait_name: ctx.and_then(|c| c.1.clone()),
        line: toks[at].line,
        body: (body_open, body_close),
        sig: (at, body_open),
        is_test: mask.get(at).copied().unwrap_or(false),
        calls,
        params,
        lets,
    };
    Some((item, body_close))
}

/// Parse a parameter token slice into `(name, type)` pairs. Handles
/// `self`-style receivers (skipped), `mut x: T`, and skips destructuring
/// patterns it cannot name.
fn parse_params(toks: &[Token]) -> Vec<(String, TyRef)> {
    let mut out = Vec::new();
    // Split on `,` at depth 0.
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let dd = depth_delta(t);
        if dd != 0 {
            depth += dd;
        } else if t.is_punct(",") && depth == 0 {
            groups.push((start, i));
            start = i + 1;
        }
    }
    if start < toks.len() {
        groups.push((start, toks.len()));
    }
    for (s, e) in groups {
        let g = &toks[s..e];
        // Find the top-level `:` separating pattern from type.
        let mut d = 0i32;
        let mut colon = None;
        for (i, t) in g.iter().enumerate() {
            let dd = depth_delta(t);
            if dd != 0 {
                d += dd;
            } else if t.is_punct(":") && d == 0 {
                colon = Some(i);
                break;
            }
        }
        let Some(c) = colon else { continue };
        // The pattern must be a simple (possibly `mut`) identifier.
        let name = g[..c]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(n) if n != "mut" && n != "ref" => Some(n.clone()),
                _ => None,
            })
            .collect::<Vec<_>>();
        if name.len() == 1 {
            out.push((name[0].clone(), parse_ty(&g[c + 1..])));
        }
    }
    out
}

/// Extract inferable `let` binding types from a body slice:
/// `let [mut] x: T = ..`, `let [mut] x = T::ctor(..)`, `let [mut] x = T {`.
fn extract_lets(body: &[Token]) -> Vec<(String, TyRef)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        if !body[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if body.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(Tok::Ident(name)) = body.get(j).map(|t| &t.tok) else {
            i += 1;
            continue;
        };
        let name = name.clone();
        let after = j + 1;
        if body.get(after).is_some_and(|t| t.is_punct(":")) {
            // `let x: T = ..` — type runs to the top-level `=` or `;`.
            let mut d = 0i32;
            let mut m = after + 1;
            while m < body.len() {
                let t = &body[m];
                d += depth_delta(t);
                // `>>=` is two closers and then the `=`.
                if (t.is_punct("=") || t.is_punct(";") || t.is_punct(">>=")) && d <= 0 {
                    break;
                }
                m += 1;
            }
            out.push((name, parse_ty(&body[after + 1..m.min(body.len())])));
            i = m;
            continue;
        }
        if body.get(after).is_some_and(|t| t.is_punct("=")) {
            // `let x = Type::ctor(..)` or `let x = Type { ..`.
            if let Some(Tok::Ident(ty)) = body.get(after + 1).map(|t| &t.tok) {
                let starts_upper = ty.chars().next().is_some_and(|c| c.is_uppercase());
                let next = body.get(after + 2);
                if starts_upper
                    && (next.is_some_and(|t| t.is_punct("::"))
                        || next.is_some_and(|t| t.is_punct("{")))
                {
                    out.push((name, TyRef { head: ty.clone(), args: Vec::new() }));
                }
            }
            i = after + 1;
            continue;
        }
        i = after;
    }
    out
}

/// Extract call sites from a body token slice. `body` is the slice starting
/// at the opening `{`; `full` and `base` let the scanner look one token
/// *before* the body (never needed in practice, kept for symmetry).
fn extract_calls(body: &[Token], _first_line: u32, _base: usize, _full: &[Token]) -> Vec<Call> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        let t = &body[i];
        let Tok::Ident(name) = &t.tok else { continue };
        if is_expr_keyword(name) {
            continue;
        }
        let next = body.get(i + 1);
        // Macro invocation: `name ! ( | [ | {`.
        if next.is_some_and(|n| n.is_punct("!")) {
            if body
                .get(i + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
            {
                out.push(Call { callee: Callee::Macro(name.clone()), line: t.line });
            }
            continue;
        }
        if !next.is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &body[p]);
        match prev {
            Some(p) if p.is_punct(".") => {
                // Method call: classify the receiver.
                let (recv, indexed) = classify_receiver(body, i - 1);
                if recv.as_deref() == Some("self") && !indexed {
                    out.push(Call { callee: Callee::SelfMethod(name.clone()), line: t.line });
                } else {
                    out.push(Call {
                        callee: Callee::Method { recv, name: name.clone(), indexed },
                        line: t.line,
                    });
                }
            }
            Some(p) if p.is_punct("::") => {
                // Qualified call: the segment before `::`.
                if let Some(q) = i.checked_sub(2).map(|q| &body[q]) {
                    if let Tok::Ident(qual) = &q.tok {
                        out.push(Call {
                            callee: Callee::Qualified { qual: qual.clone(), name: name.clone() },
                            line: t.line,
                        });
                        continue;
                    }
                    // `>::name(` — qualified-path form; treat as unresolvable.
                }
                out.push(Call {
                    callee: Callee::Method { recv: None, name: name.clone(), indexed: false },
                    line: t.line,
                });
            }
            Some(p) if matches!(&p.tok, Tok::Ident(n) if n == "fn") => {
                // A nested fn definition's name, not a call.
            }
            _ => {
                out.push(Call { callee: Callee::Free(name.clone()), line: t.line });
            }
        }
    }
    out
}

/// Describe the receiver of the `.` at `dot`: returns `(recv, indexed)`.
/// Recognised shapes, scanning left: `x.`, `self.`, `self.field.`,
/// `xs[..].`, `self.field[..].`. Everything else is `None`.
fn classify_receiver(body: &[Token], dot: usize) -> (Option<String>, bool) {
    let mut j = dot;
    let mut indexed = false;
    // Skip one `[..]` subscript group directly before the dot.
    if j >= 1 && body[j - 1].is_punct("]") {
        // Walk back to the matching `[`.
        let mut depth = 0i32;
        let mut k = j - 1;
        loop {
            if body[k].is_punct("]") {
                depth += 1;
            } else if body[k].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return (None, false);
            }
            k -= 1;
        }
        indexed = true;
        j = k;
    }
    // Now expect `ident` or `self . ident` or `self` directly before `j`.
    if j >= 1 {
        if let Tok::Ident(a) = &body[j - 1].tok {
            if a == "self" {
                return (Some("self".to_string()), indexed);
            }
            // `self . a` ?
            if j >= 3 && body[j - 2].is_punct(".") && body[j - 3].is_ident("self") {
                return (Some(format!("self.{a}")), indexed);
            }
            // Preceded by `.`/`)`/`]` means a longer chain we do not model.
            if j >= 2
                && (body[j - 2].is_punct(".")
                    || body[j - 2].is_punct(")")
                    || body[j - 2].is_punct("]"))
            {
                return (None, indexed);
            }
            return (Some(a.clone()), indexed);
        }
    }
    (None, indexed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn parse_src(src: &str) -> FileItems {
        let lexed = lex(src);
        let mask = test_mask(&lexed);
        parse(&lexed, &mask)
    }

    #[test]
    fn free_fns_and_methods_are_itemized() {
        let it = parse_src(
            "fn top() {}\nimpl Foo {\n    fn m(&self) {}\n}\nimpl Bar for Baz {\n    fn t(&self) {}\n}\n",
        );
        assert_eq!(it.fns.len(), 3);
        assert_eq!(it.fns[0].name, "top");
        assert!(it.fns[0].self_ty.is_none());
        assert_eq!(it.fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(it.fns[2].self_ty.as_deref(), Some("Baz"));
        assert_eq!(it.fns[2].trait_name.as_deref(), Some("Bar"));
    }

    #[test]
    fn call_sites_are_classified() {
        let it = parse_src(
            "fn f(x: Widget) {\n    helper();\n    self.step();\n    x.poke();\n    Widget::build();\n    panic!(\"no\");\n    xs[0].tick();\n    self.pool.drain_one();\n}\n",
        );
        let calls = &it.fns[0].calls;
        assert!(calls.iter().any(|c| c.callee == Callee::Free("helper".into())));
        assert!(calls.iter().any(|c| c.callee == Callee::SelfMethod("step".into())));
        assert!(calls.iter().any(|c| c.callee
            == Callee::Method { recv: Some("x".into()), name: "poke".into(), indexed: false }));
        assert!(
            calls
                .iter()
                .any(|c| c.callee
                    == Callee::Qualified { qual: "Widget".into(), name: "build".into() })
        );
        assert!(calls.iter().any(|c| c.callee == Callee::Macro("panic".into())));
        assert!(calls.iter().any(|c| c.callee
            == Callee::Method { recv: Some("xs".into()), name: "tick".into(), indexed: true }));
        assert!(calls.iter().any(|c| c.callee
            == Callee::Method {
                recv: Some("self.pool".into()),
                name: "drain_one".into(),
                indexed: false
            }));
    }

    #[test]
    fn param_and_let_types_are_inferred() {
        let it = parse_src(
            "fn f(w: &mut World, pools: Vec<HarvestResourcePool>) {\n    let s: Scheduler = mk();\n    let t = Tracker::new();\n}\n",
        );
        let f = &it.fns[0];
        assert_eq!(f.params[0], ("w".to_string(), TyRef { head: "World".into(), args: vec![] }));
        assert_eq!(
            f.params[1],
            (
                "pools".to_string(),
                TyRef { head: "Vec".into(), args: vec!["HarvestResourcePool".into()] }
            )
        );
        assert!(f.lets.iter().any(|(n, t)| n == "s" && t.head == "Scheduler"));
        assert!(f.lets.iter().any(|(n, t)| n == "t" && t.head == "Tracker"));

        // `>>` closes two angles (`>>=` two and then the `=`): the parameter
        // after it, the body after such a return type and the next `let` stay.
        let it = parse_src(
            "fn g(m: Vec<Option<Node>>, w: World) -> Vec<Vec<u8>> {\n    let v: Vec<Vec<u8>>= mk();\n    let s: Scheduler = mk();\n}\nfn h() {}\n",
        );
        assert_eq!(it.fns.len(), 2);
        let g = &it.fns[0];
        assert_eq!(g.params[0].1, TyRef { head: "Vec".into(), args: vec!["Option".into()] });
        assert_eq!(g.params[1], ("w".to_string(), TyRef { head: "World".into(), args: vec![] }));
        assert!(g.lets.iter().any(|(n, t)| n == "v" && t.head == "Vec"));
        assert!(g.lets.iter().any(|(n, t)| n == "s" && t.head == "Scheduler"));
    }

    #[test]
    fn struct_fields_capture_types() {
        let it = parse_src("struct S {\n    pool: WarmPool,\n    nodes: Vec<Node>,\n}\n");
        let s = &it.structs[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.fields[0].0, "pool");
        assert_eq!(s.fields[0].1.head, "WarmPool");
        assert_eq!(s.fields[1].1.head, "Vec");
        assert_eq!(s.fields[1].1.args, vec!["Node".to_string()]);
    }

    #[test]
    fn test_items_are_masked() {
        let it = parse_src("#[test]\nfn t() { x.unwrap(); }\nfn real() {}\n");
        assert!(it.fns[0].is_test);
        assert!(!it.fns[1].is_test);
    }

    #[test]
    fn bodiless_trait_methods_have_empty_bodies() {
        let it = parse_src("trait T {\n    fn a(&self);\n    fn b(&self) { self.a() }\n}\n");
        // Trait items read as methods of the trait itself.
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].self_ty.as_deref(), Some("T"));
        assert_eq!(it.fns[0].trait_name.as_deref(), Some("T"));
        assert_eq!(it.fns[0].body.0, it.fns[0].body.1);
        assert!(it.fns[1].body.1 > it.fns[1].body.0);
    }
}
