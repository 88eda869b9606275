// Tests may unwrap/expect freely; production code must not (see crates/lint).
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # lmp-bench — harness utilities
//!
//! Shared table/JSON output helpers for the per-table and per-figure
//! binaries (`table1`, `table2`, `figures`, `cost`, `nearmem`, `latency`,
//! and the ablations). Each binary prints a human-readable table matching
//! the paper's artifact plus one JSON line per row for machine diffing
//! against EXPERIMENTS.md.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;

/// Print one experiment row: aligned text plus a `#json` trailer line.
// Experiment rows are plain data structs; serialization cannot fail.
#[allow(clippy::expect_used)]
pub fn emit_row<T: Serialize>(text: &str, row: &T) {
    println!("{text}");
    println!(
        "#json {}",
        serde_json::to_string(row).expect("row serializes")
    );
}

/// Print a section header for an experiment artifact.
pub fn emit_header(id: &str, title: &str, paper_expectation: &str) {
    println!("== {id}: {title}");
    println!("   paper: {paper_expectation}");
}

/// Render an `Option<f64>` bandwidth as the figures do ("INFEASIBLE" when a
/// deployment cannot run the workload).
pub fn fmt_gbps(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:7.1} GB/s"),
        None => " INFEASIBLE".to_string(),
    }
}

/// The committed-baseline gate the `--smoke` modes share, and the FNV-1a
/// fold behind their per-configuration digests.
///
/// Baselines are flat JSON objects, string-searchable: the gate extracts
/// fields without a JSON parser (the vendored serde_json shim is
/// write-only).
pub mod gate {
    /// FNV-1a offset basis: the digest of nothing.
    pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold `v`'s little-endian bytes into the FNV-1a digest `h`.
    pub fn fnv_fold(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Pull `"key":<value>` out of flat JSON; values may be quoted strings.
    pub fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
        let pat = format!("\"{key}\":");
        let start = json.find(&pat)? + pat.len();
        let rest = &json[start..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"'))
    }

    /// One `--smoke` run's comparison against its committed baseline.
    #[derive(Debug)]
    pub struct Smoke {
        bin: &'static str,
        baseline: String,
        ok: bool,
    }

    impl Smoke {
        /// Read the committed baseline `file` from the working directory.
        /// Exits the process with status 2 when it is missing.
        pub fn read_baseline(bin: &'static str, file: &str) -> Smoke {
            match std::fs::read_to_string(file) {
                Ok(baseline) => Smoke {
                    bin,
                    baseline,
                    ok: true,
                },
                Err(e) => {
                    eprintln!("{bin} --smoke: no committed {file} baseline ({e})");
                    std::process::exit(2);
                }
            }
        }

        /// The baseline's value for `key`.
        pub fn baseline_for(&self, key: &str) -> Option<&str> {
            json_field(&self.baseline, key)
        }

        /// Fail the gate unless the baseline holds `got` under `key`.
        pub fn pin(&mut self, key: &str, got: &str) {
            match json_field(&self.baseline, key) {
                Some(b) if b == got => {}
                Some(b) => self.reject(&format!("drift for {key}: baseline {b}, got {got}")),
                None => self.reject(&format!("baseline missing {key}")),
            }
        }

        /// Fail the gate, saying why on stderr.
        pub fn reject(&mut self, why: &str) {
            eprintln!("{}: {why}", self.bin);
            self.ok = false;
        }

        /// Print `summary — PASS` (or `— FAIL`) to stdout. Exits the
        /// process with status 1 when the gate failed.
        pub fn verdict(self, summary: &str) {
            println!("{summary} — {}", if self.ok { "PASS" } else { "FAIL" });
            if !self.ok {
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_reads_flat_baselines() {
        let json = "{\n  \"digest_a\": \"0x01\",\n  \"speedup\": 2.5\n}";
        assert_eq!(gate::json_field(json, "digest_a"), Some("0x01"));
        assert_eq!(gate::json_field(json, "speedup"), Some("2.5"));
        assert_eq!(gate::json_field(json, "digest_b"), None);
    }

    #[test]
    fn fnv_fold_is_fnv_1a_over_le_bytes() {
        let mut h = gate::FNV_OFFSET;
        gate::fnv_fold(&mut h, 0);
        // FNV-1a of eight zero bytes.
        assert_eq!(h, 0xa8c7_f832_281a_39c5);
    }

    #[test]
    fn fmt_gbps_renders_both_cases() {
        assert_eq!(fmt_gbps(Some(4.25)), "    4.2 GB/s");
        assert_eq!(fmt_gbps(None), " INFEASIBLE");
    }
}
