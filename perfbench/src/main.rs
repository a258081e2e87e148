//! `perfbench` — the seeded benchmark for the whole LightDB stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is this workload's
//! and no cache state leaks between workloads). It prints two JSON
//! lines: every number it took, by name, then — as the last line — the
//! result object the driver reads: `correct`, `attempted`, `failed` and
//! the metrics `BENCHMARK.json` names (`end_to_end` with `--trace 0`,
//! `per_layer` with `--trace 1`). See README.md beside this crate.

mod harness;
mod inputs;
mod json;
mod stats;
mod trace;
mod workloads;

use harness::{Args, Outcome, Workload};
use json::J;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*workloads::NAMES.iter().find(|n| *n == value).ok_or_else(
                    || format!("unknown workload {value}; one of {:?}", workloads::NAMES),
                )?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
    })
}

/// What to do to the environment before the engine reads it: every
/// ambient `LIGHTDB_*` variable goes (a stray `LIGHTDB_FAULTS` or cache
/// size would silently change what is measured), then the two the
/// benchmark itself owns are set.
fn env_plan(
    ambient: impl Iterator<Item = String>,
    workload: &str,
    nproc: usize,
) -> (Vec<String>, Vec<(&'static str, String)>) {
    let remove = ambient.filter(|k| k.starts_with("LIGHTDB_")).collect();
    let mut set = vec![("LIGHTDB_THREADS", nproc.to_string())];
    if workload == "fleet_scatter" {
        // The tile cache's existing knob: 1 MiB against ~10 MB of tiles.
        set.push(("LIGHTDB_TILE_CACHE_MB", "1".to_string()));
    }
    (remove, set)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    })
}

fn git_rev() -> String {
    // The driver's checkout is not a git repository; say so rather
    // than guess.
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or(head.trim().to_string(), |s| s.trim().to_string()),
        None if head.trim().is_empty() => "not a git checkout".to_string(),
        None => head.trim().to_string(),
    }
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        harness::run_traced::<W>(args)
    } else {
        harness::run_end_to_end::<W>(args)
    }
}

fn dispatch(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        "tiling" => run::<workloads::tiling::Tiling>(args),
        "decode_map" => run::<workloads::decode_map::DecodeMap>(args),
        "hop_select" => run::<workloads::hop_select::HopSelect>(args),
        "fleet_hot" | "fleet_scatter" => run::<workloads::fleet::Fleet>(args),
        "publish_rw" => run::<workloads::publish_rw::PublishRw>(args),
        "cluster_scan" => run::<workloads::cluster_scan::ClusterScan>(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists and before the engine reads a knob.
    let nproc = inputs::nproc();
    let (remove, set) = env_plan(std::env::vars().map(|(k, _)| k), args.workload, nproc);
    remove.iter().for_each(|k| std::env::remove_var(k));
    set.iter().for_each(|(k, v)| std::env::set_var(k, v));

    let outcome = match dispatch(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let document = J::obj([
        ("benchmark", J::str("perfbench")),
        ("workload", J::str(args.workload)),
        ("seed", J::Int(args.seed)),
        ("seconds", J::Num(args.seconds)),
        ("trace", J::Bool(args.trace)),
        ("gating", J::Bool(!args.quick)),
        ("digest", J::str(outcome.digest)),
        (
            "environment",
            J::obj([
                ("nproc", J::Int(nproc as u64)),
                (
                    "rustc",
                    J::str(first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
                ),
                ("git_rev", J::str(git_rev())),
                ("scrubbed", J::Arr(remove.into_iter().map(J::str).collect())),
                ("set", J::obj(set.into_iter().map(|(k, v)| (k, J::str(v))))),
            ]),
        ),
        ("detail", outcome.detail),
    ]);
    println!("{document}");
    let result = J::obj([
        ("correct", J::Bool(outcome.correct)),
        ("attempted", J::Int(outcome.attempted)),
        ("failed", J::Int(outcome.failed)),
        (
            "metrics",
            J::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv(
            "--workload hop_select --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.quick),
            ("hop_select", 7, 10.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload tiling --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload tiling --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload tiling --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload tiling --seed -1 --seconds 10 --trace 0")).is_err());
    }

    #[test]
    fn environment_is_scrubbed() {
        let ambient = [
            "PATH",
            "LIGHTDB_FAULTS",
            "LIGHTDB_THREADS",
            "LIGHTDB_TILE_CACHE_MB",
            "HOME",
            "XLIGHTDB_Y",
        ];
        let (remove, set) = env_plan(ambient.iter().map(|s| s.to_string()), "tiling", 2);
        assert_eq!(
            remove,
            ["LIGHTDB_FAULTS", "LIGHTDB_THREADS", "LIGHTDB_TILE_CACHE_MB"]
        );
        assert_eq!(set, [("LIGHTDB_THREADS", "2".to_string())]);
        let (_, set) = env_plan(ambient.iter().map(|s| s.to_string()), "fleet_scatter", 4);
        assert_eq!(
            set,
            [
                ("LIGHTDB_THREADS", "4".to_string()),
                ("LIGHTDB_TILE_CACHE_MB", "1".to_string())
            ]
        );
    }

    /// `name` and `unit` of every entry of one list of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let body = &text[text.find(&format!("\"{section}\"")).unwrap()..];
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .unwrap_or_default()
        };
        body[..body.find(']').unwrap()]
            .split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    /// `--quick`: every workload, untraced and traced, every output check,
    /// at a scale small enough for a debug build. Keeps the benchmark
    /// compiling and running, and the names and units it prints equal to
    /// the ones BENCHMARK.json declares; its numbers gate nothing.
    #[test]
    fn every_workload_runs_at_smoke_scale() {
        let names: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(names, workloads::NAMES);
        for workload in workloads::NAMES {
            let mut digests = Vec::new();
            for (trace, seed) in [(false, 5), (true, 5), (false, 6)] {
                let args = Args {
                    workload,
                    seed,
                    seconds: 0.2,
                    trace,
                    quick: true,
                };
                let out =
                    dispatch(&args).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(
                    out.correct && out.failed == 0,
                    "{workload} trace={trace}: {}",
                    out.detail
                );
                assert!(out.attempted > 0);
                let printed: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(
                    printed,
                    declared(if trace { "per_layer" } else { "end_to_end" }),
                    "{workload}"
                );
                if !trace {
                    assert!(
                        out.metrics
                            .iter()
                            .all(|m| m.value > 0.0 && m.value.is_finite()),
                        "{workload}: {:?}",
                        out.metrics
                    );
                }
                digests.push(out.digest);
            }
            // Same seed, same outputs (untraced or traced); another seed, others.
            assert_eq!(digests[0], digests[1], "{workload}");
            assert_ne!(digests[0], digests[2], "{workload}");
        }
    }
}
