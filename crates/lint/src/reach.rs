//! Reachability analysis: seed inference, digest taint, and the graph
//! rules (R2 v2, R3 v2, R6 `swallowed-error`, R7 `eager-metric`).
//!
//! Seeds and sinks are *inferred*, never hand-listed:
//!
//! * **R3 seeds** — (1) every public library `fn` returning
//!   `Result<_, E>` where `E` is a workspace-declared type (`PoolError`,
//!   `FabricError`, `ClusterError`, `SchedulePastError`, `OutOfRegion`,
//!   …); (2) every public method of the sim `Engine` (the event
//!   dispatch); (3) every public `fn` taking a recovery orchestration
//!   type (`ProtectionManager`, `RecoveryOrchestrator`, `FailureDetector`,
//!   `Membership`). Anything reachable from a seed is a recoverable path:
//!   a panic there turns an injected fault into a process abort.
//! * **R2 sinks** — functions that construct snapshots, digests, or
//!   plans: they mention `TelemetrySnapshot` / `FaultPlan` /
//!   `MigrationPlan` / `SizingPlan`, live in an `impl` of one, or are
//!   named like a digest helper (`*digest*`, `fnv1a`, `place_member`,
//!   `place_recovery`). The digest-tainted set is the sinks plus their
//!   callers and callees, plus the whole recoverable set (every
//!   recoverable path is replayed and digest-checked by the chaos
//!   harness).

use crate::graph::{file_role, FileRole, Graph};
use crate::items::FileItems;
use crate::scan::{
    apply_allows, collect_hash_names, finalize, fpunct, fword, local_findings,
    prepare, FTok, Finding, Prepared, Rule, Tok, ITER_METHODS, PANIC_MACROS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Parameter types that mark a public `fn` as recovery orchestration.
const RECOVERY_PARAM_TYPES: &[&str] = &[
    "ProtectionManager",
    "RecoveryOrchestrator",
    "FailureDetector",
    "Membership",
];

/// Types whose construction makes a `fn` a digest/plan sink.
const SINK_TYPES: &[&str] = &[
    "TelemetrySnapshot",
    "FaultPlan",
    "MigrationPlan",
    "SizingPlan",
];

/// Digest-helper function names (exact or substring).
fn is_sink_name(name: &str) -> bool {
    name.contains("digest")
        || name == "fnv1a"
        || name == "place_member"
        || name == "place_recovery"
}

/// The full workspace analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, suppressions applied, sorted per file.
    pub findings: Vec<Finding>,
    /// Files containing at least one digest-tainted `fn` (inferred R2 set).
    pub r2_files: BTreeSet<String>,
    /// Files containing at least one recoverable-reachable `fn` (inferred
    /// R3 set).
    pub r3_files: BTreeSet<String>,
    /// Human-readable seed labels, for `--explain` diagnostics.
    pub seed_labels: Vec<String>,
}

/// Analyze a workspace given `(relative-path, source)` pairs in sorted
/// order. `classify` supplies the file-local rule classes (today: R4).
pub fn analyze(files: &[(String, String)]) -> Analysis {
    let prepared: Vec<Prepared> = files.iter().map(|(_, s)| prepare(s)).collect();
    let items: Vec<(String, FileItems)> = files
        .iter()
        .zip(&prepared)
        .map(|((p, _), prep)| (p.clone(), crate::items::extract(prep)))
        .collect();
    let graph = Graph::build(&items);

    // The workspace type universe (library declarations only).
    let mut decl_types: BTreeSet<String> = BTreeSet::new();
    for (path, it) in &items {
        if file_role(path) == FileRole::Lib {
            decl_types.extend(it.type_decls.iter().cloned());
        }
    }

    // ---- R3 seeds ----
    let mut r3_seeds: BTreeSet<usize> = BTreeSet::new();
    for (idx, n) in graph.nodes.iter().enumerate() {
        let f = &n.item;
        if !f.is_pub {
            continue;
        }
        let result_of_workspace_err = f.ret.first().map(String::as_str) == Some("Result")
            && f.ret.last().map(|e| decl_types.contains(e)).unwrap_or(false);
        let engine_dispatch = f.qual == "Engine";
        let recovery_param = f
            .params
            .iter()
            .any(|p| RECOVERY_PARAM_TYPES.contains(&p.as_str()));
        if result_of_workspace_err || engine_dispatch || recovery_param {
            r3_seeds.insert(idx);
        }
    }
    let r3_parent = graph.reach(&r3_seeds, false);
    let r3_set: BTreeSet<usize> = (0..graph.nodes.len())
        .filter(|&i| r3_parent[i].is_some())
        .collect();

    // ---- R2 sinks and taint ----
    let mut sinks: BTreeSet<usize> = BTreeSet::new();
    for (idx, n) in graph.nodes.iter().enumerate() {
        let f = &n.item;
        let mentions_sink = SINK_TYPES.iter().any(|t| f.mentions.contains(*t));
        let impl_of_sink = SINK_TYPES.contains(&f.qual.as_str());
        if mentions_sink || impl_of_sink || is_sink_name(&f.name) {
            sinks.insert(idx);
        }
    }
    let anc_parent = graph.reach(&sinks, true); // callers of sinks
    let desc_parent = graph.reach(&sinks, false); // callees of sinks
    let mut r2_set: BTreeSet<usize> = r3_set.clone();
    for i in 0..graph.nodes.len() {
        if anc_parent[i].is_some() || desc_parent[i].is_some() {
            r2_set.insert(i);
        }
    }

    // ---- R7 constructor reachability ----
    let mut ctor_seeds: BTreeSet<usize> = BTreeSet::new();
    for (idx, n) in graph.nodes.iter().enumerate() {
        let f = &n.item;
        if f.is_pub && (f.name == "new" || f.name.starts_with("new_")) {
            ctor_seeds.insert(idx);
        }
    }
    let ctor_parent = graph.reach(&ctor_seeds, false);

    // Nodes grouped by file for site scanning.
    let mut nodes_by_file: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, n) in graph.nodes.iter().enumerate() {
        nodes_by_file.entry(n.file.as_str()).or_default().push(idx);
    }

    let mut findings = Vec::new();
    let mut r2_files = BTreeSet::new();
    let mut r3_files = BTreeSet::new();
    for ((path, _), prep) in files.iter().zip(&prepared) {
        // File-local rules: R1 everywhere, R4 on the designated arith
        // files. R2/R3 scoping is the graph's job now.
        let mut fs = local_findings(prep, crate::classify(Path::new(path)));
        for &idx in nodes_by_file.get(path.as_str()).map(|v| v.as_slice()).unwrap_or(&[]) {
            let node = &graph.nodes[idx];
            let Some((b0, b1)) = node.item.body else {
                continue;
            };
            if r3_set.contains(&idx) {
                r3_files.insert(path.clone());
                let chain = graph.chain(&r3_parent, idx);
                let seed = chain.first().cloned().unwrap_or_default();
                panic_sites(&prep.flat, b0, b1, |line, what| {
                    let mut f = Finding::local(
                        line,
                        Rule::NoPanic,
                        format!(
                            "`{what}` is reachable from recoverable seed `{seed}`; \
                             return a typed error (PoolError/FabricError/…) instead"
                        ),
                    );
                    f.chain = chain.clone();
                    fs.push(f);
                });
            }
            if r2_set.contains(&idx) {
                r2_files.insert(path.clone());
                let (why, chain) = if sinks.contains(&idx) {
                    (
                        "constructs a snapshot/digest/plan".to_string(),
                        vec![graph.label(idx)],
                    )
                } else if anc_parent[idx].is_some() {
                    let chain = graph.chain(&anc_parent, idx);
                    (
                        format!(
                            "transitively feeds digest/plan sink `{}`",
                            chain.first().cloned().unwrap_or_default()
                        ),
                        chain,
                    )
                } else if desc_parent[idx].is_some() {
                    let chain = graph.chain(&desc_parent, idx);
                    (
                        format!(
                            "is called from digest/plan sink `{}`",
                            chain.first().cloned().unwrap_or_default()
                        ),
                        chain,
                    )
                } else {
                    let chain = graph.chain(&r3_parent, idx);
                    (
                        format!(
                            "is on the replayed recoverable path from `{}`",
                            chain.first().cloned().unwrap_or_default()
                        ),
                        chain,
                    )
                };
                let hash_names = collect_hash_names(&prep.flat, &prep.in_test);
                iter_sites(&prep.flat, b0, b1, &hash_names, |line, what| {
                    let mut f = Finding::local(
                        line,
                        Rule::UnorderedIter,
                        format!(
                            "{what} in a fn that {why}; use BTreeMap/BTreeSet or \
                             sort before use"
                        ),
                    );
                    f.chain = chain.clone();
                    fs.push(f);
                });
            }
            // R6 applies to every library fn: a silently dropped Result is
            // a bug magnet wherever it sits.
            swallowed_sites(&prep.flat, b0, b1, &graph, |line, what| {
                fs.push(Finding::local(line, Rule::SwallowedError, what));
            });
            // R7: metric registration reachable from a constructor must be
            // the lazy idiom — eager registration widens every pre-existing
            // snapshot and breaks the committed digests.
            if ctor_parent[idx].is_some() && node.item.qual != "MetricRegistry" {
                let chain = graph.chain(&ctor_parent, idx);
                metric_sites(&prep.flat, b0, b1, &graph, |line, method| {
                    let mut f = Finding::local(
                        line,
                        Rule::EagerMetric,
                        format!(
                            "`.{method}(...)` registers a metric on a \
                             constructor-reachable path (from `{}`); use the lazy \
                             `Option<…Id>` + `get_or_insert_with` idiom so \
                             pre-existing snapshot digests stay byte-identical",
                            chain.first().cloned().unwrap_or_default()
                        ),
                    );
                    f.chain = chain.clone();
                    fs.push(f);
                });
            }
        }
        apply_allows(&prep.lines, &mut fs, |_| true);
        findings.extend(finalize(path, fs));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let seed_labels = r3_seeds.iter().map(|&i| graph.label(i)).collect();
    Analysis {
        findings,
        r2_files,
        r3_files,
        seed_labels,
    }
}

/// Panic-family sites in `flat[b0..b1]` (same patterns as the local R3
/// rule).
fn panic_sites(
    flat: &[FTok],
    b0: usize,
    b1: usize,
    mut hit: impl FnMut(usize, String),
) {
    for i in b0..b1.min(flat.len()) {
        let Some(w) = fword(flat, i) else { continue };
        let what = if (w == "unwrap" || w == "expect")
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
        if let Some(what) = what {
            hit(flat[i].1 + 1, what);
        }
    }
}

/// Unordered-iteration sites in `flat[b0..b1]`.
fn iter_sites(
    flat: &[FTok],
    b0: usize,
    b1: usize,
    hash_names: &BTreeSet<String>,
    mut hit: impl FnMut(usize, String),
) {
    for i in b0..b1.min(flat.len()) {
        let Some(w) = fword(flat, i) else { continue };
        if hash_names.contains(w) && fpunct(flat, i + 1, '.') && fpunct(flat, i + 3, '(') {
            if let Some(m) = fword(flat, i + 2) {
                if ITER_METHODS.contains(&m) {
                    hit(
                        flat[i + 2].1 + 1,
                        format!("`{w}.{m}()` iterates an unordered map/set"),
                    );
                }
            }
        }
        if w == "for" {
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
                            hit(
                                flat[r].1 + 1,
                                format!("`for … in` over unordered `{name}`"),
                            );
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

/// Does a call at flat index `i` (word followed by `(`) resolve to a
/// workspace library fn returning `Result`?
fn resolves_to_fallible(flat: &[FTok], i: usize, graph: &Graph) -> Option<String> {
    let w = fword(flat, i)?;
    if !fpunct(flat, i + 1, '(') || fpunct(flat, i.wrapping_sub(1), '!') {
        return None;
    }
    let qual = if i >= 3 && fpunct(flat, i - 1, ':') && fpunct(flat, i - 2, ':') {
        fword(flat, i - 3)
    } else {
        None
    };
    let cands = graph.named(w);
    let narrowed: Vec<usize> = match qual {
        Some(q) => {
            let n: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&t| graph.nodes[t].item.qual == q)
                .collect();
            if n.is_empty() { cands.to_vec() } else { n }
        }
        None => cands.to_vec(),
    };
    narrowed
        .iter()
        .find(|&&t| {
            graph.nodes[t].item.ret.first().map(String::as_str) == Some("Result")
        })
        .map(|&t| graph.label(t))
}

/// R6 sites: `let _ = <expr with a fallible workspace call>;` and
/// statement-final `<expr>.ok();`.
fn swallowed_sites(
    flat: &[FTok],
    b0: usize,
    b1: usize,
    graph: &Graph,
    mut hit: impl FnMut(usize, String),
) {
    let end = b1.min(flat.len());
    let mut i = b0;
    while i < end {
        // `let _ = expr ;` — flag when expr contains a fallible call.
        if fword(flat, i) == Some("let")
            && fword(flat, i + 1) == Some("_")
            && fpunct(flat, i + 2, '=')
        {
            let mut depth = 0i64;
            let mut j = i + 3;
            while j < end {
                match &flat[j].0 {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                    Tok::Punct(';') if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            for k in i + 3..j {
                if let Some(callee) = resolves_to_fallible(flat, k, graph) {
                    hit(
                        flat[i].1 + 1,
                        format!(
                            "`let _ =` discards the `Result` of `{callee}`; handle \
                             or propagate it, or justify with allow(swallowed-error)"
                        ),
                    );
                    break;
                }
            }
            i = j + 1;
            continue;
        }
        // `<expr>.ok();` as a bare statement.
        if fpunct(flat, i, '.')
            && fword(flat, i + 1) == Some("ok")
            && fpunct(flat, i + 2, '(')
            && fpunct(flat, i + 3, ')')
            && fpunct(flat, i + 4, ';')
        {
            // Statement start: walk back to the previous `;`/`{`/`}` at
            // this nesting level; a binding/return/condition uses the
            // value, a bare statement discards it.
            let mut s = i;
            let mut depth = 0i64;
            while s > b0 {
                s -= 1;
                match &flat[s].0 {
                    Tok::Punct(')') | Tok::Punct(']') => depth += 1,
                    Tok::Punct('(') | Tok::Punct('[') => depth -= 1,
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') if depth <= 0 => {
                        s += 1;
                        break;
                    }
                    _ => {}
                }
            }
            let used = (s..i).any(|k| {
                matches!(
                    fword(flat, k),
                    Some("let") | Some("return") | Some("if") | Some("while")
                        | Some("match")
                ) || fpunct(flat, k, '=')
            });
            if !used {
                for k in s..i {
                    if let Some(callee) = resolves_to_fallible(flat, k, graph) {
                        hit(
                            flat[i + 1].1 + 1,
                            format!(
                                "statement-final `.ok()` swallows the `Result` of \
                                 `{callee}`; handle or propagate it, or justify \
                                 with allow(swallowed-error)"
                            ),
                        );
                        break;
                    }
                }
            }
        }
        i += 1;
    }
}

/// Window (in flat tokens) within which a preceding `get_or_insert_with`
/// marks a registration call as the lazy idiom.
const LAZY_WINDOW: usize = 40;

/// R7 sites: `.counter(` / `.gauge(` / `.histogram(` resolving to
/// `MetricRegistry`, outside the lazy-registration idiom.
fn metric_sites(
    flat: &[FTok],
    b0: usize,
    b1: usize,
    graph: &Graph,
    mut hit: impl FnMut(usize, String),
) {
    // Baseline exemption: a body that calls `MetricRegistry::new()` is
    // *establishing* the instrument set of a fresh registry — there are no
    // pre-existing snapshots its registrations could widen. The hazard R7
    // polices is a later-added constructor registering into a registry
    // that already has committed digest baselines.
    let owns_registry = (b0..b1.min(flat.len())).any(|k| {
        fword(flat, k) == Some("MetricRegistry")
            && fpunct(flat, k + 1, ':')
            && fpunct(flat, k + 2, ':')
            && fword(flat, k + 3) == Some("new")
    });
    if owns_registry {
        return;
    }
    for i in b0..b1.min(flat.len()) {
        let Some(w) = fword(flat, i) else { continue };
        if !matches!(w, "counter" | "gauge" | "histogram") {
            continue;
        }
        if !(fpunct(flat, i + 1, '(')
            && i > 0
            && (fpunct(flat, i - 1, '.')
                || (i >= 3 && fpunct(flat, i - 1, ':') && fpunct(flat, i - 2, ':'))))
        {
            continue;
        }
        let is_registration = graph
            .named(w)
            .iter()
            .any(|&t| graph.nodes[t].item.qual == "MetricRegistry");
        if !is_registration {
            continue;
        }
        let lazy = (b0.max(i.saturating_sub(LAZY_WINDOW))..i)
            .any(|k| fword(flat, k) == Some("get_or_insert_with"));
        if !lazy {
            hit(flat[i].1 + 1, w.to_string());
        }
    }
}

/// Analyze from on-disk files (as the CLI does): read every path under
/// `root`, strip the root prefix for labels.
pub fn analyze_files(root: &Path, paths: &[std::path::PathBuf]) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    for p in paths {
        let source = std::fs::read_to_string(p)?;
        let label = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((label, source));
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(analyze(&files))
}
