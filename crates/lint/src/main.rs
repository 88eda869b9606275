//! CLI entry point:
//! `lmp-lint [--workspace] [--format text|json] [--explain] [paths…]`.
//!
//! `--workspace` runs the full call-graph analysis (R1–R7) over the
//! workspace under the current directory; explicit paths run the
//! file-local rules only (R1, R4, R5), and do not judge allows of the
//! graph-scoped rules unused. `--explain` prints the seed-to-site call
//! chain under each graph finding.
//!
//! Exit status: 0 when clean, 1 on any finding, 2 on usage/IO errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lmp_lint::{analyze_files, scan_path, to_json, workspace_sources, Finding};

struct Args {
    workspace: bool,
    json: bool,
    explain: bool,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        explain: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--explain" => args.explain = true,
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                other => {
                    return Err(format!(
                        "--format expects `text` or `json`, got {:?}",
                        other.unwrap_or("<missing>")
                    ))
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: lmp-lint [--workspace] [--format text|json] [--explain] [paths…]\n\
                     \n\
                     Scans Rust sources for the workspace determinism rules.\n\
                     With --workspace, builds the cross-file call graph and runs\n\
                     the full rule set (wall-clock, unordered-iter, no-panic,\n\
                     unchecked-arith, swallowed-error, eager-metric, plus the\n\
                     allow-suppression rules); explicit paths run the file-local\n\
                     rules only. --explain prints seed-to-site call chains.\n\
                     Exits 1 on any finding."
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if !args.workspace && args.paths.is_empty() {
        return Err("nothing to scan: pass --workspace or explicit paths".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lmp-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned = 0usize;

    if args.workspace {
        let files = match workspace_sources(&root) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("lmp-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        scanned += files.len();
        let analysis = match analyze_files(&root, &files) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("lmp-lint: reading workspace sources: {e}");
                return ExitCode::from(2);
            }
        };
        findings.extend(analysis.findings);
    }

    let mut path_targets: Vec<PathBuf> = Vec::new();
    for p in &args.paths {
        if p.is_dir() {
            let mut sub = Vec::new();
            if let Err(e) = collect_dir(p, &mut sub) {
                eprintln!("lmp-lint: walking {}: {e}", p.display());
                return ExitCode::from(2);
            }
            sub.sort();
            path_targets.extend(sub);
        } else {
            path_targets.push(p.clone());
        }
    }
    path_targets.dedup();
    scanned += path_targets.len();
    for path in &path_targets {
        match scan_path(&root, path) {
            Ok(mut f) => findings.append(&mut f),
            Err(e) => {
                eprintln!("lmp-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule))
    });

    if args.json {
        println!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
            if args.explain && !f.chain.is_empty() {
                for (i, hop) in f.chain.iter().enumerate() {
                    println!("    {}{hop}", if i == 0 { "chain: " } else { "  -> " });
                }
            }
        }
        if !findings.is_empty() {
            eprintln!(
                "lmp-lint: {} finding{} across {} file{}",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" },
                scanned,
                if scanned == 1 { "" } else { "s" },
            );
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn collect_dir(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_dir(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
