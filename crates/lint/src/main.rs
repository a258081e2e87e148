//! `lightdb-lint` CLI.
//!
//! ```text
//! cargo run -p lint                # run rules R1–R10 over the workspace
//! cargo run -p lint -- interleave  # run the interleaving harness
//! cargo run -p lint -- --root DIR  # lint a different workspace root
//! ```
//!
//! Exit status is 0 when clean, 1 on any violation (or invariant
//! failure / deadlock in the harness), 2 on usage or I/O errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut mode_interleave = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "interleave" => mode_interleave = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: lint [interleave] [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    if mode_interleave {
        return run_interleave();
    }

    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| lint::walk::find_workspace_root(&d))
    });
    let Some(root) = root else {
        eprintln!("lint: could not locate a workspace root (try --root)");
        return ExitCode::from(2);
    };
    match lint::check_workspace(&root) {
        Ok((violations, files)) => {
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!("lint: {files} files scanned, 0 violations");
                ExitCode::SUCCESS
            } else {
                println!("lint: {files} files scanned, {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_interleave() -> ExitCode {
    let scenarios = lint::interleave::run_all();
    let mut total: u64 = 0;
    let mut failed = false;
    for s in &scenarios {
        total += s.outcome.schedules;
        let status = if s.outcome.ok() { "ok" } else { "FAIL" };
        println!(
            "{status:4} {:32} {:>6} schedules  {:>8} steps  {} failures  {} deadlocks",
            s.name,
            s.outcome.schedules,
            s.outcome.steps,
            s.outcome.failures.len(),
            s.outcome.deadlocks
        );
        for (trace, msg) in s.outcome.failures.iter().take(3) {
            println!("       schedule {trace}: {msg}");
        }
        failed |= !s.outcome.ok();
    }
    println!("interleave: {total} schedules explored across {} scenarios", scenarios.len());
    if failed {
        ExitCode::FAILURE
    } else if total < 100 {
        println!("interleave: FAIL — fewer than 100 schedules explored");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
