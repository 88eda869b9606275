// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! `lmp-lint`: the workspace determinism-and-atomicity gate.
//!
//! The repo's correctness story — byte-stable [`TelemetrySnapshot`] JSON,
//! FNV trace digests in every chaos scenario, batch/single equivalence
//! proptests — rests on invariants that used to be tribal knowledge. This
//! crate machine-checks them as a CI gate:
//!
//! * **R1 `wall-clock`** — no `SystemTime`, `Instant::now`, or
//!   `thread_rng` anywhere in workspace source. All time is sim-time, all
//!   randomness is seeded; a single wall-clock read makes every digest
//!   unreproducible.
//! * **R2 `unordered-iter`** — no iteration (`.iter()`, `.values()`,
//!   `.keys()`, `.drain()`, `.retain()`, `for … in`) over `HashMap` /
//!   `HashSet` in functions on the *digest-tainted* set: anything that
//!   transitively constructs or feeds snapshots, digests, fault plans, or
//!   migration/balancing decisions. The set is **inferred from the call
//!   graph** (see [`reach`]), not hand-listed.
//! * **R3 `no-panic`** — no `unwrap()` / `expect()` / `panic!` /
//!   `assert!` family in any function *reachable from a recoverable
//!   seed*: public fns returning `Result<_, E>` for a workspace error
//!   type, the sim `Engine` dispatch surface, and recovery orchestration
//!   entry points. Reachability is inferred; findings carry the full
//!   seed-to-site call chain (`--explain`).
//! * **R4 `unchecked-arith`** — no bare `+` / `-` / `*` on designated
//!   bounds/translation files; offsets and lengths must use `checked_*` /
//!   `saturating_*` arithmetic.
//! * **R5 suppressions** — `// lmp-lint: allow(<rule>) — <justification>`
//!   silences one rule on one line. A suppression without a justification
//!   (`bare-allow`) or that suppresses nothing (`unused-allow`) is itself
//!   an error, so allows cannot rot.
//! * **R6 `swallowed-error`** — `let _ = <fallible call>` or a bare
//!   statement ending in `.ok()` that discards a `Result` produced by a
//!   workspace function. Recoverable paths only work if errors *surface*.
//! * **R7 `eager-metric`** — metric registration (`counter` / `gauge` /
//!   `histogram` on the `MetricRegistry`) on a path reachable from a
//!   constructor must use the lazy `Option<…Id>` + `get_or_insert_with`
//!   idiom; eager registration widens every pre-existing snapshot and
//!   breaks the committed digest baselines.
//!
//! The implementation is a token scanner plus a name-resolved call graph,
//! not a parser: it blanks comments and string/char literals, tracks
//! `#[cfg(test)]` brace regions, extracts `fn` items and call edges, and
//! runs BFS reachability. No `syn`, no proc-macro stack — the tool stays
//! buildable offline against the vendored `shims/`.
//!
//! R2/R3 used to be driven by hand-maintained file lists that every PR
//! had to extend — a forgotten enrollment was a *silent* coverage gap.
//! Inference was checked to cover every file on those lists before they
//! were deleted.
//!
//! [`TelemetrySnapshot`]: ../lmp_telemetry/struct.TelemetrySnapshot.html

mod graph;
mod items;
mod reach;
mod scan;

pub use reach::{analyze, analyze_files, Analysis};
pub use scan::{scan_source, FileClass, Finding, Rule};

use std::path::{Path, PathBuf};

/// Bounds/translation arithmetic files (rule R4): every `+`/`-`/`*` on an
/// offset or length here must be `checked_*`/`saturating_*` — a wrap in
/// these files is exactly the PR-4 `check_bounds` overflow class. R4 stays
/// a designated-file rule: "is this arithmetic an address computation?" is
/// a semantic property no call graph can infer.
pub const R4_ARITH_FILES: &[&str] = &[
    "crates/core/src/addr.rs",
    "crates/core/src/translate.rs",
    "crates/mem/src/frame.rs",
    "crates/mem/src/store.rs",
];

/// Classify `path` (any separator style) for the file-local rules. Since
/// the call-graph analysis took over R2/R3 scoping, only the R4 arith
/// designation remains path-driven.
pub fn classify(path: &Path) -> FileClass {
    let p = path.to_string_lossy().replace('\\', "/");
    let suffix_match = |list: &[&str]| list.iter().any(|f| p.ends_with(f) || p == *f);
    FileClass {
        digest_path: false,
        recoverable: false,
        arith_path: suffix_match(R4_ARITH_FILES),
    }
}

/// Walk the workspace rooted at `root` and return every `.rs` file the
/// gate covers, sorted for deterministic output. Vendored shims, build
/// output, and lint fixtures (intentional violations) are excluded.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan one on-disk file with its path-derived classification. Single-file
/// mode runs the file-local rules only (R1, R4, R5); the graph rules need
/// `--workspace`, and an allow of one of them is not reported unused here.
pub fn scan_path(root: &Path, path: &Path) -> std::io::Result<Vec<Finding>> {
    let source = std::fs::read_to_string(path)?;
    let label = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(scan_source(&label, &source, classify(path)))
}

/// Render findings as the machine-readable JSON the CI job consumes.
/// Hand-rolled (no serde) so the gate has zero dependencies.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mut chain = String::from("[");
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                chain.push(',');
            }
            chain.push('"');
            chain.push_str(&json_escape(hop));
            chain.push('"');
        }
        chain.push(']');
        s.push_str(&format!(
            "\n  {{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\",\"chain\":{}}}",
            json_escape(&f.file),
            f.line,
            f.rule.name(),
            json_escape(&f.message),
            chain
        ));
    }
    if !findings.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}
