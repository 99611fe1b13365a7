//! Minimal leveled logging shared by every crate.
//!
//! The engine used to scatter bare `eprintln!` calls for its warnings (invalid
//! env knobs, export failures, worker-side errors). They all route through
//! here now: one [`emit`] entry point behind the [`crate::warn!`] /
//! [`crate::info!`] / [`crate::debug!`] macros, filtered by the `RDO_LOG`
//! environment variable (`error`, `warn`, `info` — the default — or `debug`)
//! and capturable in tests without touching the process environment.
//!
//! The filter level is read once per process. Tests never call `set_var`
//! (concurrent `setenv`/`getenv` is undefined behaviour on glibc); instead
//! [`capture`] installs an in-memory sink with its own level override and
//! returns everything emitted inside the closure.

use std::fmt;
use std::sync::{Mutex, OnceLock};

/// Severity of one log line, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error,
    /// Something is misconfigured or degraded but execution continues.
    Warn,
    /// High-level progress messages (default filter level).
    Info,
    /// Verbose diagnostics for debugging runs.
    Debug,
}

impl Level {
    /// Parses a level name (case-insensitive). Used for `RDO_LOG`.
    pub fn parse(raw: &str) -> Option<Level> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

struct CaptureState {
    lines: Vec<String>,
    level: Level,
}

/// Active in-memory sink, if a [`capture`] is in flight.
static CAPTURE: Mutex<Option<CaptureState>> = Mutex::new(None);
/// Serializes concurrent captures so parallel tests do not interleave.
static CAPTURE_TURN: Mutex<()> = Mutex::new(());

fn env_level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| match std::env::var("RDO_LOG") {
        Ok(raw) => Level::parse(&raw).unwrap_or_else(|| {
            // Self-hosted warning: an invalid filter must not pass silently,
            // mirroring the warn-on-invalid convention of `crate::env`.
            eprintln!("warning: RDO_LOG={raw:?} is not a level (error/warn/info/debug expected); the filter stays at info");
            Level::Info
        }),
        Err(_) => Level::Info,
    })
}

/// Whether a line at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    if let Some(state) = CAPTURE.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
        return level <= state.level;
    }
    level <= env_level()
}

/// Formats and emits one log line (to the active capture buffer, or stderr).
/// Callers go through the [`crate::warn!`]-family macros, which pass their
/// `module_path!` as the source tag.
pub fn emit(level: Level, module: &str, args: fmt::Arguments<'_>) {
    let mut capture = CAPTURE.lock().unwrap_or_else(|p| p.into_inner());
    let filter = match capture.as_ref() {
        Some(state) => state.level,
        None => env_level(),
    };
    if level > filter {
        return;
    }
    let line = format!("[{} {module}] {args}", level.tag());
    match capture.as_mut() {
        Some(state) => state.lines.push(line),
        None => eprintln!("{line}"),
    }
}

/// Runs `f` with log output redirected to an in-memory buffer filtered at
/// `level`, returning `f`'s result and the captured lines. Captures are
/// serialized process-wide, so concurrent tests see only their own lines.
pub fn capture<R>(level: Level, f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let _turn = CAPTURE_TURN.lock().unwrap_or_else(|p| p.into_inner());
    *CAPTURE.lock().unwrap_or_else(|p| p.into_inner()) = Some(CaptureState {
        lines: Vec::new(),
        level,
    });
    let result = f();
    let state = CAPTURE
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take()
        .expect("capture state installed above");
    (result, state.lines)
}

/// Emits a [`Level::Error`] line through the shared log filter.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Emits a [`Level::Warn`] line through the shared log filter.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Emits a [`Level::Info`] line through the shared log filter.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Emits a [`Level::Debug`] line (filtered out unless `RDO_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Debug, module_path!(), format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_case_insensitively() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("Info"), Some(Level::Info));
        assert_eq!(Level::parse("error"), Some(Level::Error));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn capture_collects_lines_at_or_above_the_filter() {
        let ((), lines) = capture(Level::Info, || {
            crate::warn!("knob {} looks wrong", "RDO_X");
            crate::info!("progress: {} rows", 42);
            crate::debug!("this is filtered out");
        });
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("[warn ") && lines[0].contains("RDO_X looks wrong"));
        assert!(lines[1].contains("[info ") && lines[1].contains("42 rows"));
    }

    #[test]
    fn capture_at_debug_sees_debug_lines() {
        let ((), lines) = capture(Level::Debug, || {
            crate::debug!("verbose detail");
        });
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("[debug ") && lines[0].contains("verbose detail"));
    }

    #[test]
    fn capture_returns_the_closure_result() {
        let (value, lines) = capture(Level::Warn, || {
            crate::error!("bad");
            crate::info!("suppressed at warn");
            7
        });
        assert_eq!(value, 7);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("[error "));
    }

    #[test]
    fn lines_carry_the_emitting_module_path() {
        let ((), lines) = capture(Level::Warn, || {
            crate::warn!("tagged");
        });
        assert!(
            lines[0].contains("rdo_common::log::tests"),
            "module path names the call site: {lines:?}"
        );
    }

    #[test]
    fn env_parser_warnings_are_capturable() {
        let (value, lines) = capture(Level::Warn, || {
            crate::env::parse_or_warn(
                "RDO_T",
                "garbage",
                "default kept",
                crate::env::parse_env_u64,
            )
        });
        assert_eq!(value, None);
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains("RDO_T") && lines[0].contains("default kept"),
            "{lines:?}"
        );
    }
}
