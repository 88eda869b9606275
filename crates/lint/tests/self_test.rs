// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Fixture-based self-test: each `tests/fixtures/*.rs` file carries seeded
//! violations (and tricky negatives); the scanner must report exactly the
//! expected `file:line: rule` set — no more, no less.

use std::path::Path;

use lmp_lint::{
    analyze_files, classify, scan_source, to_json, workspace_sources, FileClass, Rule,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture readable")
}

/// `(line, rule-name)` pairs, in the scanner's reporting order.
fn found(name: &str, class: FileClass) -> Vec<(usize, &'static str)> {
    scan_source(name, &fixture(name), class)
        .into_iter()
        .map(|f| (f.line, f.rule.name()))
        .collect()
}

#[test]
fn r1_wall_clock_fixture() {
    // The justified allow at the end of the fixture silences its line, so
    // the timer read under it reports nothing, and the allow is not unused.
    let f = found("r1_wall_clock.rs", FileClass::default());
    assert_eq!(
        f,
        vec![
            (3, "wall-clock"),
            (6, "wall-clock"),
            (7, "wall-clock"),
            (8, "wall-clock"),
        ]
    );
}

#[test]
fn r2_unordered_fixture() {
    let class = FileClass {
        digest_path: true,
        ..FileClass::default()
    };
    let f = found("r2_unordered.rs", class);
    assert_eq!(
        f,
        vec![
            (14, "unordered-iter"),
            (17, "unordered-iter"),
            (25, "unordered-iter"),
            (31, "unordered-iter"),
        ]
    );
    // Without the digest-path classification the same file is clean.
    assert!(found("r2_unordered.rs", FileClass::default()).is_empty());
}

#[test]
fn r3_no_panic_fixture() {
    let class = FileClass {
        recoverable: true,
        ..FileClass::default()
    };
    let f = found("r3_no_panic.rs", class);
    assert_eq!(
        f,
        vec![
            (4, "no-panic"),
            (5, "no-panic"),
            (6, "no-panic"),
            (7, "no-panic"),
            (9, "no-panic"),
            (11, "no-panic"),
            (20, "bare-allow"),
            (21, "no-panic"),
            (25, "unused-allow"),
            (30, "bare-allow"),
        ]
    );
}

#[test]
fn r4_arith_fixture() {
    let class = FileClass {
        arith_path: true,
        ..FileClass::default()
    };
    let f = found("r4_arith.rs", class);
    assert_eq!(
        f,
        vec![
            (6, "unchecked-arith"),
            (7, "unchecked-arith"),
            (8, "unchecked-arith"),
        ]
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    let class = FileClass {
        digest_path: true,
        recoverable: true,
        arith_path: true,
    };
    assert_eq!(found("clean.rs", class), Vec::new());
}

#[test]
fn findings_render_as_file_line_rule() {
    let class = FileClass {
        recoverable: true,
        ..FileClass::default()
    };
    let f = scan_source("r3_no_panic.rs", &fixture("r3_no_panic.rs"), class);
    let first = f.first().expect("fixture has findings").to_string();
    assert!(
        first.starts_with("r3_no_panic.rs:4: no-panic: "),
        "rendered: {first}"
    );
}

#[test]
fn json_output_is_well_formed_per_finding() {
    let class = FileClass {
        recoverable: true,
        ..FileClass::default()
    };
    let f = scan_source("r3_no_panic.rs", &fixture("r3_no_panic.rs"), class);
    let json = to_json(&f);
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"file\":\"r3_no_panic.rs\""));
    assert!(json.contains("\"rule\":\"no-panic\""));
    assert!(json.contains("\"line\":4"));
    // File-local findings carry an empty seed chain.
    assert!(json.contains("\"chain\":[]"));
}

#[test]
fn classify_no_longer_hand_designates_r2_r3() {
    // R2/R3 coverage is inferred from the call graph now; `classify`
    // only keeps the R4 arithmetic designation.
    let pool = classify(Path::new("crates/core/src/pool.rs"));
    assert!(!pool.recoverable && !pool.digest_path && !pool.arith_path);
    let addr = classify(Path::new("/abs/prefix/crates/core/src/addr.rs"));
    assert!(addr.arith_path && !addr.recoverable && !addr.digest_path);
    let kv = classify(Path::new("crates/workloads/src/kv.rs"));
    assert_eq!(kv, FileClass::default());
}

#[test]
fn workspace_walk_skips_fixtures_and_build_output() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace_sources(&root).expect("walk workspace");
    assert!(!files.is_empty());
    for f in &files {
        let p = f.to_string_lossy();
        assert!(!p.contains("fixtures"), "fixture file scanned: {p}");
        assert!(!p.contains("target"), "build output scanned: {p}");
    }
    // The walk reaches all covered top-level trees.
    assert!(files.iter().any(|f| f.ends_with(Path::new("crates/core/src/pool.rs"))));
    assert!(files.iter().any(|f| f.ends_with(Path::new("src/lib.rs"))));
}

#[test]
fn event_kernel_files_are_inferred_and_clean() {
    // The event kernel feeds every chaos digest and sits under the
    // engine's recoverable surface; inference must rediscover both files
    // on both the R2 and R3 sets — and the full analysis must report
    // nothing in them.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = workspace_sources(&root).expect("walk workspace");
    let analysis = analyze_files(&root, &files).expect("read workspace sources");
    for rel in ["crates/sim/src/engine.rs", "crates/sim/src/queue.rs"] {
        assert!(
            analysis.r2_files.contains(rel),
            "{rel} fell off the inferred digest path"
        );
        assert!(
            analysis.r3_files.contains(rel),
            "{rel} fell off the inferred recoverable surface"
        );
        let in_file: Vec<String> = analysis
            .findings
            .iter()
            .filter(|f| f.file == rel)
            .map(|f| f.to_string())
            .collect();
        assert!(in_file.is_empty(), "{rel} has findings: {in_file:?}");
    }
}

#[test]
fn adversarial_scanner_fixture_reports_only_the_seeded_sites() {
    // Raw strings (0, 1, and 2 hashes), the raw identifier `r#fn`,
    // lifetime ticks beside char literals ('"', '\'', '\\', unicode),
    // escaped quotes, trailing-backslash string continuations, nested
    // block comments, and `#[cfg(test)]` regions all hide panic tokens;
    // only the two genuine sites outside them may fire.
    let class = FileClass {
        recoverable: true,
        ..FileClass::default()
    };
    let f = found("scanner_adversarial.rs", class);
    assert_eq!(f, vec![(28, "no-panic"), (35, "no-panic")]);
}

/// Explicit paths run the file-local rules only, so the allows of the
/// graph-scoped rules in a clean file are not judged unused: the CLI exits 0
/// on the fixture and on a real file with justified `allow(no-panic)`s.
#[test]
fn clean_file_as_explicit_path_exits_zero() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for path in [
        "crates/lint/tests/fixtures/explicit_path.rs",
        "crates/core/src/pool.rs",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lmp-lint"))
            .arg(path)
            .current_dir(&root)
            .output()
            .expect("lmp-lint runs");
        assert!(
            out.status.success(),
            "{path}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // With R2 and R3 on, its allows suppress real findings: still clean.
    let scoped = FileClass {
        digest_path: true,
        recoverable: true,
        ..FileClass::default()
    };
    assert!(found("explicit_path.rs", scoped).is_empty());
}

#[test]
fn rule_name_round_trip() {
    for r in [
        Rule::WallClock,
        Rule::UnorderedIter,
        Rule::NoPanic,
        Rule::UncheckedArith,
        Rule::BareAllow,
        Rule::UnusedAllow,
        Rule::SwallowedError,
        Rule::EagerMetric,
    ] {
        assert!(!r.name().is_empty());
    }
}
