//! End-to-end tests for the `lint` binary: exit codes over a seeded
//! bad workspace, the real (repaired) workspace, and the interleaving
//! harness subcommand.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lint"))
}

/// Builds a throwaway mini-workspace seeded with one violation per
/// rule, so the binary's non-zero exit covers all of R1–R10 (the
/// storage `bad.rs` fires R3 and R6 on the same untimed wait).
fn seeded_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lint-cli-{tag}-{}", std::process::id()));
    match fs::remove_dir_all(&root) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => panic!("failed to clear {}: {e}", root.display()),
    }
    let write = |rel: &str, content: &str| {
        let p = root.join(rel);
        fs::create_dir_all(p.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(p, content).expect("write fixture");
    };
    write("Cargo.toml", "[workspace]\nmembers = []\n");
    write(
        "crates/codec/src/bad.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         // lint: hot-loop — seeded\n\
         pub fn g() -> Vec<u8> { vec![0u8; 4] }\n\
         // lint: end-hot-loop\n\
         pub unsafe fn h(p: *const u8) -> u8 { *p }\n",
    );
    write(
        "crates/storage/src/bad.rs",
        "pub fn w(shard: &Mutex<Shard>, flight: &Flight) {\n\
             let s = shard.lock();\n\
             let done = flight.cv.wait(flight.done.lock());\n\
             drop(done);\n\
             drop(s);\n\
         }\n\
         pub fn r(a: &std::path::Path, b: &std::path::Path) {\n\
             std::fs::rename(a, b).expect(\"seeded\");\n\
         }\n\
         pub fn s(f: &std::fs::File) {\n\
             f.sync_all().expect(\"seeded\");\n\
         }\n",
    );
    write(
        "crates/cluster/src/bad.rs",
        "pub fn dial(a: &str) -> std::io::Result<std::net::TcpStream> {\n\
             std::net::TcpStream::connect(a)\n\
         }\n",
    );
    write("crates/engine/src/bad.rs", "pub fn f() {\n    std::thread::spawn(|| ());\n}\n");
    write(
        "crates/exec/src/bad.rs",
        "pub fn workers() -> usize {\n\
             std::thread::available_parallelism().map_or(1, |n| n.get())\n\
         }\n",
    );
    root
}

fn run_on(root: &Path) -> (i32, String) {
    let out = bin().arg("--root").arg(root).output().expect("spawn lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

#[test]
fn nonzero_on_seeded_violations_with_file_line_output() {
    let root = seeded_workspace("seeded");
    let (code, text) = run_on(&root);
    assert_eq!(code, 1, "expected violations exit:\n{text}");
    for needle in [
        "crates/codec/src/bad.rs:1: R1:",
        "crates/codec/src/bad.rs:3: R2:",
        "crates/storage/src/bad.rs:3: R3:",
        "crates/codec/src/bad.rs:5: R4:",
        "crates/storage/src/bad.rs:8: R5:",
        "crates/storage/src/bad.rs:3: R6:",
        "crates/storage/src/bad.rs:11: R7:",
        "crates/cluster/src/bad.rs:2: R8:",
        "crates/exec/src/bad.rs:2: R9:",
        "crates/engine/src/bad.rs:2: R10:",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn zero_on_the_repaired_workspace() {
    // The test runs with CWD = crates/lint; the binary discovers the
    // enclosing workspace root on its own.
    let out = bin().output().expect("spawn lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(0), "workspace must be lint-clean:\n{text}");
    assert!(text.contains("0 violations"), "{text}");
}

#[test]
fn usage_error_exits_2() {
    let out = bin().arg("--no-such-flag").output().expect("spawn lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn interleave_subcommand_reports_schedules() {
    let out = bin().arg("interleave").output().expect("spawn lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(text.contains("schedules"), "{text}");
}
