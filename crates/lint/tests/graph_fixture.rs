// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Call-graph analysis over the fixture workspace in
//! `tests/fixtures/graphws/`: a two-crate layout whose only panic sites
//! sit behind cross-file free-fn, inherent-method, and trait-impl edges.
//! The analysis must walk all three edge kinds from the single
//! recoverable seed, report full chains, and leave the unreachable
//! panic and the registry-owning constructor unflagged. A `self.name()`
//! call resolves to the enclosing impl's `name`, or to every `name` when
//! that impl has none.

use std::path::Path;

use lmp_lint::{analyze, Analysis};

/// Fixture sources keyed by their workspace-relative label (the path the
/// role classifier and findings see).
fn fixture_workspace() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graphws");
    let rels = [
        "crates/alpha/src/api.rs",
        "crates/alpha/src/util.rs",
        "crates/beta/src/clock.rs",
        "crates/beta/src/imp.rs",
        "crates/beta/src/metrics.rs",
    ];
    rels.iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(rel)).expect("fixture readable");
            (rel.to_string(), src)
        })
        .collect()
}

fn run() -> Analysis {
    analyze(&fixture_workspace())
}

#[test]
fn seed_inference_finds_exactly_the_workspace_error_surface() {
    let a = run();
    // `entry` returns Result<_, AlphaError> with AlphaError declared in
    // the workspace; `stdlib_result` (Result<_, String>) must not seed.
    assert_eq!(a.seed_labels, vec!["entry (crates/alpha/src/api.rs:7)"]);
}

#[test]
fn panics_behind_all_three_edge_kinds_are_reported() {
    let a = run();
    let got: Vec<(&str, usize, &str)> = a
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.rule.name()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/alpha/src/api.rs", 19, "swallowed-error"),
            ("crates/beta/src/clock.rs", 37, "eager-metric"), // self fallback
            ("crates/beta/src/imp.rs", 8, "no-panic"),        // inherent method
            ("crates/beta/src/imp.rs", 18, "no-panic"),       // trait impl
            ("crates/beta/src/imp.rs", 23, "no-panic"),       // free fn
            ("crates/beta/src/metrics.rs", 16, "eager-metric"),
        ]
    );
}

#[test]
fn unreachable_panic_and_registry_owner_stay_quiet() {
    let a = run();
    // `dormant_panic` (imp.rs:27) has no inbound edge from any seed;
    // `Baseline::new` (metrics.rs:27) owns its registry, so its eager
    // registration is the baseline instrument set, not a widening.
    assert!(!a.findings.iter().any(|f| f.line >= 26 && f.file.ends_with("imp.rs")));
    assert!(!a
        .findings
        .iter()
        .any(|f| f.file.ends_with("metrics.rs") && f.line != 16));
}

#[test]
fn self_calls_resolve_to_the_enclosing_impl_first() {
    let a = run();
    let clock: Vec<&lmp_lint::Finding> = a
        .findings
        .iter()
        .filter(|f| f.file.ends_with("clock.rs"))
        .collect();
    // `self.tick()` in `Clock` reaches `Clock::tick` only, so
    // `Controller::tick`'s registration (line 28) stays quiet. `Clock` has
    // no `flush`, so `self.flush()` reaches `Journal::flush` (line 37).
    assert_eq!(clock.len(), 1, "{clock:?}");
    assert_eq!(clock[0].line, 37);
    assert_eq!(
        clock[0].chain,
        vec![
            "Clock::new (crates/beta/src/clock.rs:7)",
            "Clock::prime (crates/beta/src/clock.rs:13)",
            "Journal::flush (crates/beta/src/clock.rs:36)",
        ]
    );
}

#[test]
fn chains_walk_seed_to_site_through_every_hop() {
    let a = run();
    let trait_panic = a
        .findings
        .iter()
        .find(|f| f.file.ends_with("imp.rs") && f.line == 18)
        .expect("trait-impl panic reported");
    assert_eq!(
        trait_panic.chain,
        vec![
            "entry (crates/alpha/src/api.rs:7)",
            "helper (crates/alpha/src/util.rs:4)",
            "spin (crates/alpha/src/util.rs:11)",
            "Widget::run (crates/beta/src/imp.rs:17)",
        ]
    );
    let method_panic = a
        .findings
        .iter()
        .find(|f| f.file.ends_with("imp.rs") && f.line == 8)
        .expect("inherent-method panic reported");
    assert_eq!(method_panic.chain.len(), 3, "entry -> helper -> deep_check");
}

#[test]
fn digest_taint_spreads_to_ancestors_and_seed_closure() {
    let a = run();
    // `digest_of` is a sink by name; `publish` is its ancestor; the R3
    // closure (api -> util -> imp) also rides the R2 set. `metrics.rs`
    // never touches a digest and stays off both sets.
    let r2: Vec<&str> = a.r2_files.iter().map(String::as_str).collect();
    assert_eq!(
        r2,
        vec![
            "crates/alpha/src/api.rs",
            "crates/alpha/src/util.rs",
            "crates/beta/src/imp.rs",
        ]
    );
    let r3: Vec<&str> = a.r3_files.iter().map(String::as_str).collect();
    assert_eq!(
        r3,
        vec![
            "crates/alpha/src/api.rs",
            "crates/alpha/src/util.rs",
            "crates/beta/src/imp.rs",
        ]
    );
}
