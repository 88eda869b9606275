//! The token scanner: comment/string blanking, `#[cfg(test)]` region
//! tracking, per-rule token matching, and suppression handling.
//!
//! The call-graph layers (`items`, `graph`, `reach`) build on the same
//! blanked, flat token stream this module produces; the internals are
//! `pub(crate)` for that reason.

use std::collections::BTreeSet;

/// The enforced rule catalog. `BareAllow`/`UnusedAllow` police the
/// suppression mechanism itself (R5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: wall-clock time or ambient randomness.
    WallClock,
    /// R2: iteration over an unordered map/set on a digest-feeding path.
    UnorderedIter,
    /// R3: panic-family call in a recoverable module.
    NoPanic,
    /// R4: bare `+`/`-`/`*` in bounds/translation arithmetic.
    UncheckedArith,
    /// R5: suppression without a justification (or with an unknown rule).
    BareAllow,
    /// R5: suppression that matched no finding.
    UnusedAllow,
    /// R6: a `Result` from a fallible workspace call discarded with
    /// `let _ =` or a statement-final `.ok()`.
    SwallowedError,
    /// R7: metric registration on a constructor-reachable path that does
    /// not go through the lazy-registration idiom.
    EagerMetric,
}

impl Rule {
    /// The stable rule name used in findings and `allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIter => "unordered-iter",
            Rule::NoPanic => "no-panic",
            Rule::UncheckedArith => "unchecked-arith",
            Rule::BareAllow => "bare-allow",
            Rule::UnusedAllow => "unused-allow",
            Rule::SwallowedError => "swallowed-error",
            Rule::EagerMetric => "eager-metric",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "wall-clock" => Some(Rule::WallClock),
            "unordered-iter" => Some(Rule::UnorderedIter),
            "no-panic" => Some(Rule::NoPanic),
            "unchecked-arith" => Some(Rule::UncheckedArith),
            "swallowed-error" => Some(Rule::SwallowedError),
            "eager-metric" => Some(Rule::EagerMetric),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding, rendered as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// For call-graph findings: the seed-to-site call chain, one
    /// `qual::name (file:line)` hop per entry, seed first. Empty for
    /// file-local findings. Rendered by `--explain` and the JSON format.
    pub chain: Vec<String>,
}

impl Finding {
    /// A file-local finding (no call chain); `file` is filled in by the
    /// caller once the label is known.
    pub(crate) fn local(line: usize, rule: Rule, message: String) -> Finding {
        Finding {
            file: String::new(),
            line,
            rule,
            message,
            chain: Vec::new(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Which scoped rules apply to a file (R1 and R5 always apply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// R2: the file constructs snapshots, digests, fault plans, or
    /// migration/balancing decisions.
    pub digest_path: bool,
    /// R3: the file is a recoverable module.
    pub recoverable: bool,
    /// R4: the file is bounds/translation arithmetic.
    pub arith_path: bool,
}

/// One source line after blanking: executable code with comments and
/// string/char literals replaced by spaces, plus the comment text.
#[derive(Debug, Default, Clone)]
pub(crate) struct Line {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// A parsed `lmp-lint: allow(...)` suppression.
#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) comment_line: usize,
    pub(crate) target_line: usize,
    pub(crate) rule: Option<Rule>,
    pub(crate) raw_rule: String,
    pub(crate) justified: bool,
    pub(crate) used: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Word(String),
    Punct(char),
}

/// A token plus its 0-indexed source line. Rules run over the flat stream
/// so they see through multi-line method chains and `for` headers.
pub(crate) type FTok = (Tok, usize);

/// A file's blanked, tokenized form — the shared substrate for both the
/// local rules here and the call-graph layers (`items`, `reach`).
pub(crate) struct Prepared {
    pub(crate) lines: Vec<Line>,
    pub(crate) in_test: Vec<bool>,
    pub(crate) per_line: Vec<Vec<Tok>>,
    pub(crate) flat: Vec<FTok>,
}

/// Blank, mark test regions, and tokenize `source` once.
pub(crate) fn prepare(source: &str) -> Prepared {
    let lines = blank(source);
    let in_test = test_regions(&lines);
    let per_line: Vec<Vec<Tok>> = lines.iter().map(|l| tokenize(&l.code)).collect();
    let flat: Vec<FTok> = per_line
        .iter()
        .enumerate()
        .flat_map(|(i, v)| v.iter().cloned().map(move |t| (t, i)))
        .collect();
    Prepared {
        lines,
        in_test,
        per_line,
        flat,
    }
}

impl FileClass {
    /// Whether a single-file scan under this class runs `rule`. R2 and R3
    /// run only where the class turns them on, and the graph rules R6 and
    /// R7 never, so an allow of such a rule cannot be judged unused there.
    pub(crate) fn runs(self, rule: Rule) -> bool {
        match rule {
            Rule::UnorderedIter => self.digest_path,
            Rule::NoPanic => self.recoverable,
            Rule::SwallowedError | Rule::EagerMetric => false,
            _ => true,
        }
    }
}

/// Run the file-local rules (no suppression handling, no call graph).
pub(crate) fn local_findings(p: &Prepared, class: FileClass) -> Vec<Finding> {
    let mut findings = Vec::new();
    let hash_names = collect_hash_names(&p.flat, &p.in_test);
    rule_wall_clock(&p.flat, &mut findings);
    if class.digest_path {
        rule_unordered_iter(&p.flat, &hash_names, &p.in_test, &mut findings);
    }
    if class.recoverable {
        rule_no_panic(&p.flat, &p.in_test, &mut findings);
    }
    if class.arith_path {
        rule_unchecked_arith(&p.flat, &p.per_line, &p.in_test, &mut findings);
    }
    findings
}

/// Apply suppressions: a justified allow removes that rule's findings on
/// its target line; everything else about the mechanism is an error. An
/// allow that suppresses nothing is `unused-allow` only when its rule
/// `ran` on the file.
pub(crate) fn apply_allows(
    lines: &[Line],
    findings: &mut Vec<Finding>,
    ran: impl Fn(Rule) -> bool,
) {
    let mut allows = collect_allows(lines);
    findings.retain(|f| {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.justified && a.rule == Some(f.rule) && a.target_line == f.line {
                a.used = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for a in &allows {
        if a.rule.is_none() {
            findings.push(Finding::local(a.comment_line, Rule::BareAllow, format!("allow(...) names unknown rule `{}`", a.raw_rule)));
        } else if !a.justified {
            findings.push(Finding::local(a.comment_line, Rule::BareAllow, format!(
                    "allow({}) carries no justification — write `// lmp-lint: allow({}) — <why>`",
                    a.raw_rule, a.raw_rule
                )));
        } else if !a.used && a.rule.is_some_and(&ran) {
            findings.push(Finding::local(a.comment_line, Rule::UnusedAllow, format!(
                    "allow({}) suppresses nothing on line {} — remove it",
                    a.raw_rule, a.target_line
                )));
        }
    }
}

/// Stamp the file label, order, and dedup a finding batch.
pub(crate) fn finalize(label: &str, mut findings: Vec<Finding>) -> Vec<Finding> {
    for f in &mut findings {
        f.file = label.to_string();
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings.dedup();
    findings
}

/// Scan one file's source. `label` is used verbatim in findings.
pub fn scan_source(label: &str, source: &str, class: FileClass) -> Vec<Finding> {
    let p = prepare(source);
    let mut findings = local_findings(&p, class);
    apply_allows(&p.lines, &mut findings, |rule| class.runs(rule));
    finalize(label, findings)
}

// ---------------------------------------------------------------- blanking

/// Replace comments and string/char literal contents with spaces, keeping
/// line structure and column positions; capture comment text per line.
pub(crate) fn blank(source: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }
    let mut st = St::Code;
    let mut out: Vec<Line> = Vec::new();
    for raw in source.lines() {
        let mut line = Line::default();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        // A line comment never continues to the next line.
        if st == St::LineComment {
            st = St::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            match st {
                St::Code => {
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        st = St::LineComment;
                        line.comment.push_str(&raw[byte_of(raw, i)..]);
                        line.code.push_str(&" ".repeat(chars.len() - i));
                        break;
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        st = St::BlockComment(1);
                        line.code.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        st = St::Str;
                        line.code.push('"');
                        i += 1;
                    } else if c == 'r'
                        && matches!(chars.get(i + 1), Some('"') | Some('#'))
                        && raw_str_hashes(&chars, i + 1).is_some()
                    {
                        let hashes = raw_str_hashes(&chars, i + 1).unwrap_or(0);
                        st = St::RawStr(hashes);
                        let consumed = 1 + hashes as usize + 1; // r##"
                        line.code.push_str(&" ".repeat(consumed));
                        i += consumed;
                    } else if c == '\'' {
                        // Char literal vs lifetime: a literal closes within a
                        // few chars; a lifetime has no closing quote.
                        if let Some(close) = char_literal_end(&chars, i) {
                            line.code.push('\'');
                            line.code.push_str(&" ".repeat(close - i - 1));
                            line.code.push('\'');
                            i = close + 1;
                        } else {
                            line.code.push('\'');
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
                St::LineComment => unreachable!("handled at line start"),
                St::BlockComment(depth) => {
                    if c == '*' && chars.get(i + 1) == Some(&'/') {
                        line.comment.push_str("*/");
                        line.code.push_str("  ");
                        i += 2;
                        if depth == 1 {
                            st = St::Code;
                        } else {
                            st = St::BlockComment(depth - 1);
                        }
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        line.comment.push_str("/*");
                        line.code.push_str("  ");
                        i += 2;
                        st = St::BlockComment(depth + 1);
                    } else {
                        line.comment.push(c);
                        line.code.push(' ');
                        i += 1;
                    }
                }
                St::Str => {
                    if c == '\\' {
                        // A trailing `\` at end of line is a string
                        // continuation: only one char is present, so only
                        // one blank keeps columns aligned.
                        let consumed = if i + 1 < chars.len() { 2 } else { 1 };
                        line.code.push_str(&" ".repeat(consumed));
                        i += consumed;
                    } else if c == '"' {
                        line.code.push('"');
                        i += 1;
                        st = St::Code;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if c == '"' && closes_raw(&chars, i, hashes) {
                        let consumed = 1 + hashes as usize;
                        line.code.push_str(&" ".repeat(consumed));
                        i += consumed;
                        st = St::Code;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        out.push(line);
    }
    out
}

fn byte_of(s: &str, char_idx: usize) -> usize {
    s.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(s.len())
}

/// For `r`-prefixed strings: number of `#`s before the opening quote, or
/// `None` if this is not a raw string start (e.g. the identifier `r#loop`).
fn raw_str_hashes(chars: &[char], mut i: usize) -> Option<u32> {
    let mut hashes = 0;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if chars.get(i) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Where a char literal starting at `i` (a `'`) closes, if it is one.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: find the closing quote within a small window
            // (\n, \', \u{10FFFF} are all short). A `"` cannot occur
            // inside an escape, so stop there rather than swallow a
            // real string opener into a bogus literal.
            (i + 3..chars.len().min(i + 12))
                .take_while(|&j| chars[j] != '"')
                .find(|&j| chars[j] == '\'')
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(i + 2),
        _ => None,
    }
}

// ----------------------------------------------------------- test regions

/// Per-line flag: inside a `#[cfg(test)]`-gated brace region.
pub(crate) fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut region_starts: Vec<i64> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let squeezed: String = line.code.chars().filter(|c| !c.is_whitespace()).collect();
        if squeezed.contains("#[cfg(test)]") {
            pending = true;
        }
        if !region_starts.is_empty() {
            flags[idx] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        region_starts.push(depth);
                        pending = false;
                        flags[idx] = true;
                    }
                }
                '}' => {
                    if region_starts.last() == Some(&depth) {
                        region_starts.pop();
                    }
                    depth -= 1;
                }
                ';' if pending && region_starts.is_empty() => {
                    // `#[cfg(test)] use …;` — attribute consumed by a
                    // braceless item.
                    pending = false;
                    flags[idx] = true;
                }
                _ => {}
            }
        }
    }
    flags
}

// ------------------------------------------------------------- tokenizing

pub(crate) fn tokenize(code: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut word = String::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            if !word.is_empty() {
                toks.push(Tok::Word(std::mem::take(&mut word)));
            }
            if !c.is_whitespace() {
                toks.push(Tok::Punct(c));
            }
        }
    }
    if !word.is_empty() {
        toks.push(Tok::Word(word));
    }
    toks
}

pub(crate) fn word(t: &Tok) -> Option<&str> {
    match t {
        Tok::Word(w) => Some(w),
        Tok::Punct(_) => None,
    }
}

pub(crate) fn fword(flat: &[FTok], i: usize) -> Option<&str> {
    flat.get(i).and_then(|(t, _)| word(t))
}

pub(crate) fn fpunct(flat: &[FTok], i: usize, c: char) -> bool {
    matches!(flat.get(i), Some((Tok::Punct(p), _)) if *p == c)
}

// ------------------------------------------------------------------ rules

pub(crate) fn rule_wall_clock(flat: &[FTok], out: &mut Vec<Finding>) {
    for (i, (t, li)) in flat.iter().enumerate() {
        let Some(w) = word(t) else { continue };
        let hit = match w {
            "SystemTime" => Some("std::time::SystemTime is wall-clock time"),
            "thread_rng" => Some("thread_rng() is ambient, unseeded randomness"),
            "Instant" => {
                let now_follows = fpunct(flat, i + 1, ':')
                    && fpunct(flat, i + 2, ':')
                    && fword(flat, i + 3) == Some("now");
                let time_precedes = i >= 3
                    && fword(flat, i - 3) == Some("time")
                    && fpunct(flat, i - 2, ':')
                    && fpunct(flat, i - 1, ':');
                if now_follows || time_precedes {
                    Some("std::time::Instant is wall-clock time")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(why) = hit {
            out.push(Finding::local(li + 1, Rule::WallClock, format!("{why}; the simulation is sim-time/seeded only")));
        }
    }
}

pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers bound to `HashMap`/`HashSet` on non-test lines: struct
/// fields and `let`/params via `name: HashMap<…>`, plus constructor
/// assignments `name = HashMap::new()`.
pub(crate) fn collect_hash_names(flat: &[FTok], in_test: &[bool]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, (t, li)) in flat.iter().enumerate() {
        if in_test[*li] {
            continue;
        }
        let Some(w) = word(t) else { continue };
        if w != "HashMap" && w != "HashSet" {
            continue;
        }
        // `name : [& mut std :: collections ::] HashMap`
        let mut j = i;
        let mut crossed_colon = false;
        while j > 0 {
            j -= 1;
            match &flat[j].0 {
                Tok::Punct(':') => crossed_colon = true,
                Tok::Punct('&') => {}
                Tok::Word(p) if p == "std" || p == "collections" || p == "mut" => {}
                Tok::Word(name) if crossed_colon => {
                    names.insert(name.clone());
                    break;
                }
                _ => break,
            }
        }
        // `name = HashMap::new()` / `::with_capacity` / `::default`
        let ctor_follows = fpunct(flat, i + 1, ':')
            && fpunct(flat, i + 2, ':')
            && matches!(
                fword(flat, i + 3),
                Some("new") | Some("with_capacity") | Some("default")
            );
        if ctor_follows && i >= 2 && fpunct(flat, i - 1, '=') {
            if let Some(name) = fword(flat, i - 2) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

pub(crate) fn rule_unordered_iter(
    flat: &[FTok],
    hash_names: &BTreeSet<String>,
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    // `name.iter()` and friends (also matches `self.name\n.iter()` across
    // line breaks).
    for (i, (t, li)) in flat.iter().enumerate() {
        if in_test[*li] {
            continue;
        }
        let Some(w) = word(t) else { continue };
        if hash_names.contains(w)
            && fpunct(flat, i + 1, '.')
            && fpunct(flat, i + 3, '(')
        {
            if let Some(m) = fword(flat, i + 2) {
                if ITER_METHODS.contains(&m) {
                    out.push(Finding::local(flat[i + 2].1 + 1, Rule::UnorderedIter, format!(
                            "`{w}.{m}()` iterates an unordered map/set on a digest-feeding \
                             path; use BTreeMap/BTreeSet or sort before use"
                        )));
                }
            }
        }
        // `for … in <expr mentioning a hash-typed name> {`
        if w == "for" {
            // Find `in` before the loop body opens.
            let mut q = i + 1;
            let mut in_at = None;
            while q < flat.len() && q < i + 40 {
                match &flat[q].0 {
                    Tok::Word(kw) if kw == "in" => {
                        in_at = Some(q);
                        break;
                    }
                    Tok::Punct('{') | Tok::Punct(';') => break,
                    _ => {}
                }
                q += 1;
            }
            if let Some(ip) = in_at {
                let mut r = ip + 1;
                while r < flat.len() && r < ip + 60 {
                    match &flat[r].0 {
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        Tok::Word(name) if hash_names.contains(name) => {
                            out.push(Finding::local(flat[r].1 + 1, Rule::UnorderedIter, format!(
                                    "`for … in` over unordered `{name}` on a digest-feeding \
                                     path; use BTreeMap/BTreeSet or sort before use"
                                )));
                            break;
                        }
                        _ => {}
                    }
                    r += 1;
                }
            }
        }
    }
}

pub(crate) const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

pub(crate) fn rule_no_panic(flat: &[FTok], in_test: &[bool], out: &mut Vec<Finding>) {
    for (i, (t, li)) in flat.iter().enumerate() {
        if in_test[*li] {
            continue;
        }
        let Some(w) = word(t) else { continue };
        let hit = if (w == "unwrap" || w == "expect")
            && i > 0
            && fpunct(flat, i - 1, '.')
            && fpunct(flat, i + 1, '(')
        {
            Some(format!(".{w}()"))
        } else if PANIC_MACROS.contains(&w) && fpunct(flat, i + 1, '!') {
            Some(format!("{w}!"))
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(Finding::local(li + 1, Rule::NoPanic, format!(
                    "`{what}` in a recoverable module; return PoolError/FabricError instead"
                )));
        }
    }
}

/// Left-operand words that mean the following `+`/`-`/`*` is *not* binary
/// arithmetic (`&mut *x`, `return -1`, …).
const NON_OPERAND_KEYWORDS: &[&str] = &[
    "mut", "return", "in", "let", "if", "else", "match", "break", "move",
];

pub(crate) fn rule_unchecked_arith(
    flat: &[FTok],
    per_line: &[Vec<Tok>],
    in_test: &[bool],
    out: &mut Vec<Finding>,
) {
    for (i, (t, li)) in flat.iter().enumerate() {
        if in_test[*li] {
            continue;
        }
        let Tok::Punct(op) = t else { continue };
        if !matches!(op, '+' | '-' | '*') {
            continue;
        }
        // `->` is not arithmetic.
        if *op == '-' && fpunct(flat, i + 1, '>') {
            continue;
        }
        // Binary only: unary minus/deref have no left operand.
        let prev_is_operand = match i.checked_sub(1).and_then(|p| flat.get(p)) {
            Some((Tok::Word(w), _)) => !NON_OPERAND_KEYWORDS.contains(&w.as_str()),
            Some((Tok::Punct(p), _)) => matches!(p, ')' | ']'),
            None => false,
        };
        if !prev_is_operand {
            continue;
        }
        // `T: A + B` trait bounds (generic/impl/where context on this line).
        let bound_ctx = per_line[*li]
            .iter()
            .any(|t| matches!(word(t), Some("dyn") | Some("impl") | Some("where")));
        if *op == '+' && bound_ctx {
            continue;
        }
        // Two numeric literals: const evaluation traps overflow at compile
        // time, so `2 * 1024` is safe.
        let is_num = |t: Option<&FTok>| {
            matches!(t, Some((Tok::Word(w), _)) if w.starts_with(|c: char| c.is_ascii_digit()))
        };
        if is_num(flat.get(i - 1)) && is_num(flat.get(i + 1)) {
            continue;
        }
        out.push(Finding::local(li + 1, Rule::UncheckedArith, format!(
                "bare `{op}` on a bounds/translation path; use checked_*/saturating_* \
                 arithmetic"
            )));
    }
}

// ----------------------------------------------------------- suppressions

pub(crate) fn collect_allows(lines: &[Line]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        // Doc comments (`///`, `//!`) never carry suppressions — they
        // *describe* the grammar (this crate's own docs included).
        let ctrim = line.comment.trim_start();
        if ctrim.starts_with("///") || ctrim.starts_with("//!") {
            continue;
        }
        let mut rest = line.comment.as_str();
        while let Some(at) = rest.find("lmp-lint:") {
            rest = &rest[at + "lmp-lint:".len()..];
            let Some(ap) = rest.find("allow(") else { break };
            let after = &rest[ap + "allow(".len()..];
            let Some(close) = after.find(')') else { break };
            let raw_rule = after[..close].trim().to_string();
            let tail = after[close + 1..].trim_start();
            // Justification: separator (— / - / :) plus non-empty text, or
            // any non-empty trailing prose.
            let tail = tail
                .trim_start_matches(['—', '–', '-', ':'])
                .trim();
            let target_line = if line.code.trim().is_empty() {
                // Standalone comment: applies to the next code line.
                lines[i + 1..]
                    .iter()
                    .position(|l| !l.code.trim().is_empty())
                    .map(|p| i + 1 + p + 1)
                    .unwrap_or(usize::MAX)
            } else {
                i + 1
            };
            allows.push(Allow {
                comment_line: i + 1,
                target_line,
                rule: Rule::from_name(&raw_rule),
                raw_rule,
                justified: !tail.is_empty(),
                used: false,
            });
            rest = after;
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_all() -> FileClass {
        FileClass {
            digest_path: true,
            recoverable: true,
            arith_path: true,
        }
    }

    fn rules(findings: &[Finding]) -> Vec<(usize, Rule)> {
        findings.iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn wall_clock_tokens_are_flagged_everywhere() {
        let src = "fn f() {\n    let t = Instant::now();\n    let r = thread_rng();\n}\n";
        let f = scan_source("x.rs", src, FileClass::default());
        assert_eq!(
            rules(&f),
            vec![(2, Rule::WallClock), (3, Rule::WallClock)]
        );
    }

    #[test]
    fn strings_and_comments_do_not_trigger() {
        let src = "fn f() {\n    let s = \"call .unwrap() or panic! now\";\n    // SystemTime::now() and x.unwrap()\n}\n";
        assert!(scan_source("x.rs", src, class_all()).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt_from_r3() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(scan_source("x.rs", src, class_all()).is_empty());
    }

    #[test]
    fn hash_iteration_is_flagged_in_digest_files_only() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S {\n    fn f(&self) { for v in self.m.values() { let _ = v; } }\n}\n";
        let hit = scan_source("x.rs", src, class_all());
        assert!(hit.iter().any(|f| f.rule == Rule::UnorderedIter));
        let miss = scan_source("x.rs", src, FileClass::default());
        assert!(miss.is_empty());
    }

    #[test]
    fn multi_line_method_chains_are_seen() {
        let src = "struct S { m: HashMap<u32, u32> }\nimpl S {\n    fn f(&self) -> Vec<u32> {\n        self.m\n            .iter()\n            .map(|(k, _)| *k)\n            .collect()\n    }\n}\n";
        let f = scan_source("x.rs", src, class_all());
        assert_eq!(rules(&f), vec![(5, Rule::UnorderedIter)]);
    }

    #[test]
    fn justified_allow_suppresses_and_unused_allow_errors() {
        let good = "fn f(x: Option<u32>) {\n    // lmp-lint: allow(no-panic) — constructor precondition, documented.\n    x.unwrap();\n}\n";
        assert!(scan_source("x.rs", good, class_all()).is_empty());
        let unused = "// lmp-lint: allow(no-panic) — nothing here needs it.\nfn f() {}\n";
        let f = scan_source("x.rs", unused, class_all());
        assert_eq!(rules(&f), vec![(1, Rule::UnusedAllow)]);
    }

    #[test]
    fn bare_allow_is_an_error_and_does_not_suppress() {
        let src = "fn f(x: Option<u32>) {\n    // lmp-lint: allow(no-panic)\n    x.unwrap();\n}\n";
        let f = scan_source("x.rs", src, class_all());
        assert_eq!(rules(&f), vec![(2, Rule::BareAllow), (3, Rule::NoPanic)]);
    }

    #[test]
    fn doc_comments_describing_the_grammar_are_ignored() {
        let src = "//! Use `// lmp-lint: allow(no-panic)` to suppress.\nfn f() {}\n";
        assert!(scan_source("x.rs", src, class_all()).is_empty());
    }

    #[test]
    fn arith_rule_flags_bare_ops_not_checked_ones() {
        let src = "fn f(a: u64, b: u64) -> u64 {\n    let c = a + b;\n    a.checked_mul(c).unwrap_or(0)\n}\n";
        let f = scan_source(
            "x.rs",
            src,
            FileClass {
                arith_path: true,
                ..FileClass::default()
            },
        );
        assert_eq!(rules(&f), vec![(2, Rule::UncheckedArith)]);
    }
}
