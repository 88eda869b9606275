//! The item model: per-file `fn` extraction over the blanked token stream.
//!
//! This is deliberately *not* a parser. It walks the flat token stream
//! `scan::prepare` produces, tracks brace depth and the enclosing
//! `impl`/`mod`/`trait` scope, and records for every `fn` item its name,
//! qualifier, visibility, `#[cfg(test)]` status, parameter/return-type
//! words, body token range, and the call/method-call sites inside the
//! body. The `graph` module resolves those sites name-wise across the
//! workspace.

use crate::scan::{fpunct, fword, word, FTok, Prepared, Tok};
use std::collections::BTreeSet;

/// How a call site is written at the call point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `foo(...)` — a free-function call.
    Free,
    /// `recv.foo(...)` — a method call; the receiver type is unknown.
    Method,
    /// `Qual::foo(...)`, or `self.foo(...)` inside `impl Qual` — a
    /// qualified call; `qual` narrows resolution.
    Path,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub(crate) name: String,
    /// The `Qual` in `Qual::foo(...)`, or the enclosing impl's type for
    /// `self.foo(...)`.
    pub(crate) qual: Option<String>,
    pub(crate) kind: CallKind,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    pub(crate) name: String,
    /// Enclosing `impl Type` / `trait Type` / `mod name` (innermost), or
    /// empty at top level.
    pub(crate) qual: String,
    /// 1-indexed line of the `fn` keyword.
    pub(crate) line: usize,
    pub(crate) is_pub: bool,
    /// Inside a `#[cfg(test)]` region.
    pub(crate) is_test: bool,
    /// Word tokens of the parameter list (types and names alike).
    pub(crate) params: Vec<String>,
    /// Word tokens of the return type (empty for `()`-returning fns).
    pub(crate) ret: Vec<String>,
    /// Flat-token index range of the body, exclusive end; `None` for
    /// bodyless trait-method declarations.
    pub(crate) body: Option<(usize, usize)>,
    /// Call sites inside the body, in source order.
    pub(crate) calls: Vec<CallSite>,
    /// Uppercase-initial words mentioned in the body — struct literals,
    /// path heads, enum variants. Used for taint-sink matching.
    pub(crate) mentions: BTreeSet<String>,
}

/// Everything the graph layers need from one file.
#[derive(Debug, Default)]
pub(crate) struct FileItems {
    pub(crate) fns: Vec<FnItem>,
    /// `struct`/`enum` type names declared in this file (test regions
    /// excluded). Used to infer the workspace error-type universe.
    pub(crate) type_decls: BTreeSet<String>,
}

const KEYWORDS_NOT_CALLS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let",
    "move", "in", "as", "ref", "mut", "box", "await", "unsafe", "where",
];

/// Skip a balanced `<...>` generics region starting at the `<` at `i`;
/// returns the index just past the matching `>`. A `>` directly preceded
/// by `-` is an arrow inside an `Fn(...) -> T` bound, not a closer.
fn skip_generics(flat: &[FTok], mut i: usize) -> usize {
    debug_assert!(fpunct(flat, i, '<'));
    let mut depth = 0usize;
    while i < flat.len() {
        match &flat[i].0 {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                if i > 0 && fpunct(flat, i - 1, '-') {
                    // `->` arrow inside the bound — not a closer.
                } else {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            // A generics list never contains braces or semicolons; bail
            // out rather than swallow the rest of the file on confusion.
            Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(';') => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Skip a balanced `(...)` region starting at the `(` at `i`; returns the
/// index just past the matching `)`.
fn skip_parens(flat: &[FTok], mut i: usize) -> usize {
    debug_assert!(fpunct(flat, i, '('));
    let mut depth = 0usize;
    while i < flat.len() {
        match &flat[i].0 {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the flat index just past the `}` matching the `{` at `i`.
fn skip_braces(flat: &[FTok], mut i: usize) -> usize {
    debug_assert!(fpunct(flat, i, '{'));
    let mut depth = 0usize;
    while i < flat.len() {
        match &flat[i].0 {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Extract the items of one prepared file.
pub(crate) fn extract(p: &Prepared) -> FileItems {
    let flat = &p.flat;
    let mut out = FileItems::default();

    // Scope stack: (brace depth at which the scope closes, qualifier,
    // whether the scope is an `impl`).
    let mut depth = 0usize;
    let mut scopes: Vec<(usize, String, bool)> = Vec::new();
    let mut i = 0usize;
    while i < flat.len() {
        match &flat[i].0 {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                if scopes.last().map(|(d, _, _)| *d) == Some(depth) {
                    scopes.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Tok::Word(w) if w == "impl" || w == "mod" || w == "trait" => {
                // Capture the qualifier: for `impl Trait for Type` the word
                // after `for`; otherwise the first type word after the
                // keyword (generics skipped).
                let mut j = i + 1;
                if fpunct(flat, j, '<') {
                    j = skip_generics(flat, j);
                }
                let mut qual = String::new();
                let mut saw_for = false;
                while j < flat.len() {
                    match &flat[j].0 {
                        Tok::Punct('{') => break,
                        Tok::Punct(';') => break, // `mod name;`
                        Tok::Word(t) if t == "for" => {
                            saw_for = true;
                            qual.clear();
                        }
                        // Path prefixes and pointer-ness never name the
                        // scope; wait for the real type word.
                        Tok::Word(t)
                            if (qual.is_empty() || saw_for)
                                && !matches!(
                                    t.as_str(),
                                    "dyn" | "mut" | "crate" | "super" | "self"
                                ) =>
                        {
                            qual = t.clone();
                            saw_for = false;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < flat.len() && fpunct(flat, j, '{') {
                    // The scope closes when depth drops back below this.
                    scopes.push((depth + 1, qual, w == "impl"));
                }
                i = j; // The `{`/`;` is re-handled by the outer loop.
            }
            Tok::Word(w) if w == "struct" || w == "enum" => {
                if let Some(name) = fword(flat, i + 1) {
                    if !p.in_test[flat[i + 1].1] {
                        out.type_decls.insert(name.to_string());
                    }
                }
                i += 1;
            }
            Tok::Word(w) if w == "fn" => {
                let Some(name) = fword(flat, i + 1) else {
                    i += 1;
                    continue;
                };
                let fn_line_idx = flat[i].1;
                // Visibility: `pub` / `pub(crate)` within the few tokens
                // before `fn` (possibly with `const`/`async`/`unsafe`).
                let mut is_pub = false;
                {
                    let mut k = i;
                    let mut steps = 0;
                    while k > 0 && steps < 8 {
                        k -= 1;
                        steps += 1;
                        match &flat[k].0 {
                            Tok::Word(t) if t == "pub" => {
                                is_pub = true;
                                break;
                            }
                            Tok::Word(t)
                                if t == "const"
                                    || t == "async"
                                    || t == "unsafe"
                                    || t == "extern"
                                    || t == "crate"
                                    || t == "super" => {}
                            Tok::Punct('(') | Tok::Punct(')') => {}
                            _ => break,
                        }
                    }
                }
                let mut j = i + 2;
                if fpunct(flat, j, '<') {
                    j = skip_generics(flat, j);
                }
                // Parameter list.
                let mut params = Vec::new();
                if fpunct(flat, j, '(') {
                    let end = skip_parens(flat, j);
                    for t in &flat[j + 1..end.saturating_sub(1)] {
                        if let Some(w) = word(&t.0) {
                            params.push(w.to_string());
                        }
                    }
                    j = end;
                }
                // Return type: words after `->` until `{`, `;`, or a
                // `where` clause at nesting depth 0.
                let mut ret = Vec::new();
                if fpunct(flat, j, '-') && fpunct(flat, j + 1, '>') {
                    j += 2;
                    let mut angle = 0i64;
                    let mut paren = 0i64;
                    while j < flat.len() {
                        match &flat[j].0 {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') if !fpunct(flat, j - 1, '-') => angle -= 1,
                            Tok::Punct('(') => paren += 1,
                            Tok::Punct(')') => paren -= 1,
                            Tok::Punct('{') | Tok::Punct(';') if angle <= 0 && paren <= 0 => break,
                            Tok::Word(t) if t == "where" && angle <= 0 && paren <= 0 => break,
                            Tok::Word(t) => ret.push(t.clone()),
                            _ => {}
                        }
                        j += 1;
                    }
                }
                // Where clause: skip to the body `{` or decl `;`.
                while j < flat.len()
                    && !fpunct(flat, j, '{')
                    && !fpunct(flat, j, ';')
                {
                    if fpunct(flat, j, '<') {
                        j = skip_generics(flat, j);
                    } else {
                        j += 1;
                    }
                }
                let mut item = FnItem {
                    name: name.to_string(),
                    qual: scopes.last().map(|(_, q, _)| q.clone()).unwrap_or_default(),
                    line: fn_line_idx + 1,
                    is_pub,
                    is_test: p.in_test[fn_line_idx],
                    params,
                    ret,
                    body: None,
                    calls: Vec::new(),
                    mentions: BTreeSet::new(),
                };
                if j < flat.len() && fpunct(flat, j, '{') {
                    let end = skip_braces(flat, j);
                    item.body = Some((j, end));
                    // `self.foo(...)` names the enclosing impl's type. In a
                    // trait's default method it names any implementor, so
                    // it stays unqualified there.
                    let impl_qual = match scopes.last() {
                        Some((_, q, true)) => Some(q.as_str()),
                        _ => None,
                    };
                    collect_calls(flat, j, end, impl_qual, &mut item);
                    i = end;
                } else {
                    i = j.max(i + 1);
                }
                out.fns.push(item);
            }
            _ => {
                i += 1;
            }
        }
    }
    out
}

/// Collect call sites and uppercase mentions in `flat[start..end]`, the
/// body of a fn inside `impl_qual` when that is `Some`.
fn collect_calls(
    flat: &[FTok],
    start: usize,
    end: usize,
    impl_qual: Option<&str>,
    item: &mut FnItem,
) {
    for i in start..end.min(flat.len()) {
        let Some(w) = fword(flat, i) else { continue };
        if w.starts_with(char::is_uppercase) {
            item.mentions.insert(w.to_string());
        }
        if !fpunct(flat, i + 1, '(') {
            continue;
        }
        if KEYWORDS_NOT_CALLS.contains(&w) {
            continue;
        }
        // Macro invocation `w!(` is not a call; `fn w(` is a definition
        // (nested item — its body is still part of this range, which is
        // what reachability wants).
        if i > 0 {
            if let Some(prev) = word(&flat[i - 1].0) {
                if prev == "fn" {
                    continue;
                }
            }
        }
        if i > 0 && fpunct(flat, i - 1, '!') {
            continue;
        }
        let on_self = i >= 2 && fpunct(flat, i - 1, '.') && fword(flat, i - 2) == Some("self");
        if let Some(q) = impl_qual.filter(|_| on_self) {
            item.calls.push(CallSite {
                name: w.to_string(),
                qual: Some(q.to_string()),
                kind: CallKind::Path,
            });
        } else if i > 0 && fpunct(flat, i - 1, '.') {
            item.calls.push(CallSite {
                name: w.to_string(),
                qual: None,
                kind: CallKind::Method,
            });
        } else if i >= 3 && fpunct(flat, i - 1, ':') && fpunct(flat, i - 2, ':') {
            let qual = fword(flat, i - 3).map(|q| q.to_string());
            item.calls.push(CallSite {
                name: w.to_string(),
                qual,
                kind: CallKind::Path,
            });
        } else {
            item.calls.push(CallSite {
                name: w.to_string(),
                qual: None,
                kind: CallKind::Free,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::prepare;

    fn items(src: &str) -> FileItems {
        extract(&prepare(src))
    }

    #[test]
    fn extracts_name_qual_vis_and_ret() {
        let src = "impl Pool {\n    pub fn read(&self, a: Addr) -> Result<Frame, PoolError> {\n        self.translate(a)\n    }\n    fn translate(&self, a: Addr) -> Result<Frame, PoolError> { Err(PoolError::Fault) }\n}\n";
        let fi = items(src);
        assert_eq!(fi.fns.len(), 2);
        let read = &fi.fns[0];
        assert_eq!(read.name, "read");
        assert_eq!(read.qual, "Pool");
        assert!(read.is_pub);
        assert_eq!(read.ret, vec!["Result", "Frame", "PoolError"]);
        assert!(!fi.fns[1].is_pub);
    }

    #[test]
    fn impl_trait_for_type_quals_to_the_type() {
        let src = "impl Display for Frame {\n    fn fmt(&self) {}\n}\n";
        let fi = items(src);
        assert_eq!(fi.fns[0].qual, "Frame");
    }

    #[test]
    fn generic_bounds_arrow_does_not_break_signature_parse() {
        let src = "pub fn run_while<F: FnMut(u64) -> bool>(f: F) -> Result<u64, SchedulePastError> {\n    helper()\n}\nfn helper() -> Result<u64, SchedulePastError> { Ok(0) }\n";
        let fi = items(src);
        assert_eq!(fi.fns[0].name, "run_while");
        assert_eq!(
            fi.fns[0].ret,
            vec!["Result", "u64", "SchedulePastError"]
        );
        assert_eq!(fi.fns[0].calls.len(), 1);
        assert_eq!(fi.fns[0].calls[0].name, "helper");
    }

    #[test]
    fn call_kinds_are_distinguished() {
        let src = "fn f() {\n    free();\n    x.method();\n    Type::assoc();\n    mac!(ignored());\n}\n";
        let fi = items(src);
        let calls = &fi.fns[0].calls;
        // `ignored()` inside the macro body is still a call site (token
        // level), but `mac!(` itself is not.
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"free"));
        assert!(names.contains(&"method"));
        assert!(names.contains(&"assoc"));
        assert!(!names.contains(&"mac"));
        let assoc = calls.iter().find(|c| c.name == "assoc").unwrap();
        assert_eq!(assoc.kind, CallKind::Path);
        assert_eq!(assoc.qual.as_deref(), Some("Type"));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let fi = items(src);
        assert!(!fi.fns[0].is_test);
        assert!(fi.fns[1].is_test);
        assert_eq!(fi.fns[1].qual, "tests");
    }

    #[test]
    fn type_decls_exclude_test_regions() {
        let src = "pub struct Pool;\npub enum PoolError { A }\n#[cfg(test)]\nmod tests {\n    struct Fake;\n}\n";
        let fi = items(src);
        assert!(fi.type_decls.contains("Pool"));
        assert!(fi.type_decls.contains("PoolError"));
        assert!(!fi.type_decls.contains("Fake"));
    }

    #[test]
    fn mentions_capture_struct_literals() {
        let src = "fn build() -> Plan {\n    TelemetrySnapshot { a: 1 };\n    FaultPlan::new()\n}\n";
        let fi = items(src);
        assert!(fi.fns[0].mentions.contains("TelemetrySnapshot"));
        assert!(fi.fns[0].mentions.contains("FaultPlan"));
    }
}
