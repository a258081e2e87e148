//! Unified parsing for `LIGHTDB_*` environment knobs.
//!
//! Every numeric knob in the workspace reads through this module so
//! malformed values are handled one way everywhere: the value is
//! rejected, a warning is printed to stderr **once per knob per
//! process**, and the caller falls back to its documented default.
//! Before this existed each reader silently swallowed parse errors,
//! so `LIGHTDB_DEADLINE_MS=5s` ran with no deadline at all and the
//! operator had no idea their limit was off.
//!
//! The warn-and-fall-back policy (rather than failing startup) was
//! chosen because knobs are read at many points in a long-running
//! server's life — per statement, per session, per catalog open — and
//! a typo'd environment should not take down sessions that never
//! depended on the knob. The warning is loud, classified, and
//! queryable in-process via [`malformed`] so tests (and health
//! endpoints) can assert on it.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// The outcome of reading one knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnobValue<T> {
    /// Variable not present in the environment.
    Unset,
    /// Present and well-formed.
    Parsed(T),
    /// Present but malformed; the raw text is preserved for the
    /// warning. Callers treat this exactly like `Unset` *after* the
    /// loud warning has fired.
    Malformed(String),
}

fn warned_set() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Pure parse step, separated from the environment and the warning
/// side-effect so it can be tested exhaustively.
pub fn parse_u64(raw: &str) -> Option<u64> {
    raw.trim().parse::<u64>().ok()
}

/// Reads `name` from the environment and classifies it. Does not warn;
/// use [`read_u64`] for the warn-once reading path.
pub fn classify_u64(name: &str) -> KnobValue<u64> {
    match std::env::var(name) {
        Err(_) => KnobValue::Unset,
        Ok(raw) => match parse_u64(&raw) {
            Some(v) => KnobValue::Parsed(v),
            None => KnobValue::Malformed(raw),
        },
    }
}

/// Reads an unsigned-integer knob. Malformed values warn loudly once
/// per knob name per process and read as `None` (knob disabled /
/// fall back to the default), so a typo is visible instead of silent.
pub fn read_u64(name: &str) -> Option<u64> {
    match classify_u64(name) {
        KnobValue::Unset => None,
        KnobValue::Parsed(v) => Some(v),
        KnobValue::Malformed(raw) => {
            warn_malformed(name, &raw, "an unsigned integer");
            None
        }
    }
}

/// [`read_u64`] converted to `usize` with a checked conversion clamped
/// to `usize::MAX` — byte-count knobs must never wrap on 32-bit
/// targets (`bytes as usize` used to truncate there).
pub fn read_usize(name: &str) -> Option<usize> {
    read_u64(name).map(clamp_to_usize)
}

/// [`read_u64`] interpreted as milliseconds.
pub fn read_duration_ms(name: &str) -> Option<Duration> {
    read_u64(name).map(Duration::from_millis)
}

/// Checked `u64 → usize` conversion, clamping (not truncating) values
/// that do not fit the target's pointer width.
pub fn clamp_to_usize(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// Knob names that have produced a malformed-value warning so far, in
/// sorted order. Tests and health checks assert on this.
pub fn malformed() -> Vec<String> {
    warned_set().lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
}

/// Warns once per knob name per process that `name` holds `raw`, which
/// is not `expected`, and records `name` for [`malformed`]. Knobs with
/// a grammar of their own (`LIGHTDB_FAULTS`) report through this too.
pub fn warn_malformed(name: &str, raw: &str, expected: &str) {
    let mut warned = warned_set().lock().unwrap_or_else(|e| e.into_inner());
    if warned.insert(name.to_string()) {
        eprintln!(
            "lightdb: warning: ignoring malformed environment knob {name}={raw:?} \
             (expected {expected}); falling back to the knob's default"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_integers_and_whitespace() {
        assert_eq!(parse_u64("5"), Some(5));
        assert_eq!(parse_u64("  42 "), Some(42));
        assert_eq!(parse_u64("0"), Some(0));
        assert_eq!(parse_u64(&u64::MAX.to_string()), Some(u64::MAX));
    }

    #[test]
    fn parse_rejects_suffixes_negatives_and_garbage() {
        for bad in ["5s", "5ms", "-1", "", " ", "0x10", "1_000", "ten", "5.0"] {
            assert_eq!(parse_u64(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn clamp_never_truncates() {
        assert_eq!(clamp_to_usize(0), 0);
        assert_eq!(clamp_to_usize(4096), 4096);
        // On 32-bit targets this clamps to usize::MAX instead of
        // wrapping to a tiny working-set declaration.
        let huge = u64::MAX;
        let clamped = clamp_to_usize(huge);
        assert!(clamped == usize::MAX || clamped as u64 == huge);
    }

    #[test]
    fn malformed_knob_reads_as_none_and_is_recorded() {
        let name = "LIGHTDB_TEST_KNOB_MALFORMED";
        std::env::set_var(name, "5s");
        assert_eq!(read_u64(name), None);
        assert_eq!(read_usize(name), None);
        assert_eq!(read_duration_ms(name), None);
        assert!(malformed().iter().any(|n| n == name), "{:?}", malformed());
        std::env::remove_var(name);
    }

    #[test]
    fn wellformed_knob_reads_through_all_views() {
        let name = "LIGHTDB_TEST_KNOB_OK";
        std::env::set_var(name, "250");
        assert_eq!(read_u64(name), Some(250));
        assert_eq!(read_usize(name), Some(250));
        assert_eq!(read_duration_ms(name), Some(Duration::from_millis(250)));
        assert!(!malformed().iter().any(|n| n == name));
        std::env::remove_var(name);
    }

    #[test]
    fn unset_knob_is_none_without_warning() {
        let name = "LIGHTDB_TEST_KNOB_UNSET";
        std::env::remove_var(name);
        assert_eq!(read_u64(name), None);
        assert!(matches!(classify_u64(name), KnobValue::Unset));
        assert!(!malformed().iter().any(|n| n == name));
    }
}
