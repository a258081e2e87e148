//! # lightdb-bench
//!
//! Shared harness for the evaluation experiments. Each `expt_*`
//! binary regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index). Performance claims are made with
//! the `perfbench` package, not with these binaries.
//!
//! Scale knobs:
//!
//! * `LIGHTDB_BENCH_SECONDS` — dataset duration (default 6);
//! * `LIGHTDB_FULL_SCALE=1` — paper-scale 3840×2048 resolution;
//! * `LIGHTDB_BENCH_CACHE` — dataset cache directory (datasets are
//!   generated and encoded once, then reused across runs).

pub mod codec_kernels;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod parallel_scaling;
pub mod setup;
pub mod tables;

use std::time::Instant;

/// Times a closure, returning `(seconds, output)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Frames-per-second for `frames` processed in `seconds`.
pub fn fps(frames: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    frames as f64 / seconds
}

/// Prints one aligned row of a results table.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Formats an FPS value compactly.
pub fn fmt_fps(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_math() {
        assert_eq!(fps(30, 1.0), 30.0);
        assert_eq!(fps(0, 0.0), 0.0);
        let (secs, v) = timed(|| 42);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fps_formatting() {
        assert_eq!(fmt_fps(1234.6), "1235");
        assert_eq!(fmt_fps(45.67), "45.7");
        assert_eq!(fmt_fps(0.314), "0.31");
    }
}
