//! `paris-audit` CLI: `lint`, `fuzz`, and `corpus`.
//!
//! Exit status is the contract CI relies on: 0 when clean, 1 when any
//! lint finding or fuzz crash was produced, 2 for usage errors.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use paris_audit::{config::Config, fuzz, rules};

const USAGE: &str = "\
paris-audit — workspace invariant lints and decoder fuzzing

USAGE:
    paris-audit lint [--root DIR] [--config FILE]
    paris-audit fuzz <target>|all [--seed N] [--iters N] [--corpus DIR]
    paris-audit corpus [DIR]

COMMANDS:
    lint      Run the audit.toml-driven invariant lints over every .rs
              file under the workspace root. Nonzero exit on findings.
    fuzz      Deterministically fuzz one decoder (or `all`). Crashing
              inputs are minimized and written into the corpus
              directory as crash-*.bin regressions. Nonzero exit on
              any crash. Targets: snapshot-v2, pair-v2, delta,
              ntriples, http, json.
    corpus    (Re)write the canonical seed inputs under DIR
              (default tests/corpus).

OPTIONS:
    --root DIR      Workspace root to lint (default: .)
    --config FILE   Lint allowlist (default: <root>/audit.toml)
    --seed N        Fuzz RNG seed, decimal or 0x-hex (default: 1)
    --iters N       Mutation iterations per target (default: 10000)
    --corpus DIR    Corpus root holding <target>/ seed and regression
                    files (default: tests/corpus)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or("."));
    let config_path = flag_value(args, "--config")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("audit.toml"));
    let config_text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("paris-audit: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&config_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("paris-audit: {e}");
            return ExitCode::from(2);
        }
    };
    match rules::lint_root(&root, &cfg) {
        Ok(findings) if findings.is_empty() => {
            println!("paris-audit: lint clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("paris-audit: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("paris-audit: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let Some(target) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!(
            "paris-audit: fuzz needs a target ({} or all)",
            fuzz::TARGETS.join(", ")
        );
        return ExitCode::from(2);
    };
    let seed = match flag_value(args, "--seed") {
        Some(text) => match parse_u64(text) {
            Some(v) => v,
            None => {
                eprintln!("paris-audit: bad --seed `{text}`");
                return ExitCode::from(2);
            }
        },
        None => 1,
    };
    let iters = match flag_value(args, "--iters") {
        Some(text) => match parse_u64(text) {
            Some(v) => v,
            None => {
                eprintln!("paris-audit: bad --iters `{text}`");
                return ExitCode::from(2);
            }
        },
        None => 10_000,
    };
    let corpus_root = PathBuf::from(flag_value(args, "--corpus").unwrap_or("tests/corpus"));
    let targets: Vec<&str> = if target == "all" {
        fuzz::TARGETS.to_vec()
    } else {
        vec![target.as_str()]
    };
    let mut failed = false;
    for t in targets {
        let extra = read_corpus_dir(&corpus_root.join(t));
        let report = match fuzz::run(t, seed, iters, &extra) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("paris-audit: {e}");
                return ExitCode::from(2);
            }
        };
        if report.crashes.is_empty() {
            println!(
                "paris-audit: fuzz {t}: {} iterations ({} executions), seed {seed:#x}, 0 crashes",
                report.iters, report.executions
            );
            continue;
        }
        failed = true;
        for (i, crash) in report.crashes.iter().enumerate() {
            let name = format!("crash-{:016x}.bin", fnv1a(&crash.input));
            let path = corpus_root.join(t).join(&name);
            let wrote = std::fs::create_dir_all(corpus_root.join(t))
                .and_then(|()| std::fs::write(&path, &crash.input));
            println!(
                "paris-audit: fuzz {t}: CRASH #{i} at iteration {} ({} bytes minimized): {}",
                crash.iteration,
                crash.input.len(),
                crash.message
            );
            match wrote {
                Ok(()) => println!("  reproducer written to {}", path.display()),
                Err(e) => eprintln!("  could not write reproducer {}: {e}", path.display()),
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_corpus(args: &[String]) -> ExitCode {
    let root = PathBuf::from(
        args.first()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("tests/corpus"),
    );
    for &target in fuzz::TARGETS {
        let dir = root.join(target);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("paris-audit: creating {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        for (i, bytes) in fuzz::seeds(target).iter().enumerate() {
            let path = dir.join(format!("seed-{i}.bin"));
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("paris-audit: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {} ({} bytes)", path.display(), bytes.len());
        }
    }
    ExitCode::SUCCESS
}

/// Every regular file directly inside `dir`, sorted by name for
/// deterministic corpus order.
fn read_corpus_dir(dir: &Path) -> Vec<Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| std::fs::read(p).ok())
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h
}
