//! Shared warn-on-invalid environment-variable parsers.
//!
//! Every `RDO_*` knob reads through these helpers. A set-but-invalid value
//! silently falling back to a default would make a CI leg that exports the
//! variable test something else entirely (a spill-exercising job testing
//! nothing, a pinned worker count testing the machine default), so each parser
//! returns the warning to print instead of swallowing the mistake, and
//! [`read_env`] prints it loudly before keeping the default.

/// Parses a byte count / plain `u64` value. `fallback` names what happens when
/// the value is invalid (e.g. `"spilling stays disabled"`).
pub fn parse_env_u64(var: &str, raw: &str, fallback: &str) -> Result<u64, String> {
    raw.trim().parse::<u64>().map_err(|_| {
        format!(
            "warning: {var}={raw:?} is not a byte count \
             (plain integer expected); {fallback}"
        )
    })
}

/// Parses a count that must be at least 1 (worker counts and the like).
pub fn parse_env_positive_usize(var: &str, raw: &str, fallback: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(value) if value >= 1 => Ok(value),
        _ => Err(format!(
            "warning: {var}={raw:?} is not a count \
             (plain integer >= 1 expected); {fallback}"
        )),
    }
}

/// Parses an on/off switch: `1`/`true`/`on` and `0`/`false`/`off`
/// (case-insensitive).
pub fn parse_env_bool(var: &str, raw: &str, fallback: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "0" | "false" | "off" => Ok(false),
        _ => Err(format!(
            "warning: {var}={raw:?} is not a switch \
             (0/1, true/false or on/off expected); {fallback}"
        )),
    }
}

/// Applies one of the parsers above to an already-read value, emitting the
/// warning through [`crate::log`] and returning `None` on garbage (the caller
/// keeps its default). Split from [`read_env`] so configuration code can be
/// tested without mutating the process environment.
pub fn parse_or_warn<T>(
    var: &str,
    raw: &str,
    fallback: &str,
    parse: fn(&str, &str, &str) -> Result<T, String>,
) -> Option<T> {
    match parse(var, raw, fallback) {
        Ok(value) => Some(value),
        Err(warning) => {
            // The parser messages already start with "warning:"; strip the
            // prefix so the level tag is not doubled in the rendered line.
            let text = warning.strip_prefix("warning: ").unwrap_or(&warning);
            crate::warn!("{text}");
            None
        }
    }
}

/// Reads `var` from the environment and parses it with one of the helpers
/// above. Unset returns `None` silently; set-but-invalid prints the parser's
/// warning to stderr and returns `None` (the caller keeps its default).
pub fn read_env<T>(
    var: &str,
    fallback: &str,
    parse: fn(&str, &str, &str) -> Result<T, String>,
) -> Option<T> {
    let raw = std::env::var(var).ok()?;
    parse_or_warn(var, &raw, fallback, parse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_values_parse_or_warn() {
        assert_eq!(parse_env_u64("RDO_X", "1048576", "off"), Ok(1_048_576));
        assert_eq!(parse_env_u64("RDO_X", " 42 ", "off"), Ok(42));
        for invalid in ["", "-1", "1MB", "1.5", "lots"] {
            let warning = parse_env_u64("RDO_X", invalid, "X stays disabled").expect_err(invalid);
            assert!(
                warning.contains("warning") && warning.contains("RDO_X"),
                "warning names the variable: {warning}"
            );
            assert!(warning.contains("X stays disabled"), "{warning}");
        }
    }

    #[test]
    fn positive_usize_rejects_zero() {
        assert_eq!(parse_env_positive_usize("RDO_W", "4", "default"), Ok(4));
        for invalid in ["0", "-2", "two", ""] {
            let warning = parse_env_positive_usize("RDO_W", invalid, "default").expect_err(invalid);
            assert!(warning.contains("RDO_W") && warning.contains("warning"));
        }
    }

    #[test]
    fn bool_switch_values_parse_or_warn() {
        for (raw, expected) in [
            ("1", true),
            ("true", true),
            ("ON", true),
            ("0", false),
            ("false", false),
            ("Off", false),
            (" 1 ", true),
        ] {
            assert_eq!(
                parse_env_bool("RDO_C", raw, "default"),
                Ok(expected),
                "{raw}"
            );
        }
        for invalid in ["", "yes", "2", "enabled"] {
            let warning =
                parse_env_bool("RDO_C", invalid, "compression stays on").expect_err(invalid);
            assert!(
                warning.contains("RDO_C") && warning.contains("compression stays on"),
                "{warning}"
            );
        }
    }

    #[test]
    fn read_env_returns_none_for_unset_variables() {
        // Read-only env access (no set_var: concurrent setenv/getenv is
        // undefined behaviour on glibc, so tests never mutate the
        // environment — the parse path is covered via parse_or_warn).
        assert_eq!(
            read_env("RDO_ENV_HELPER_TEST_UNSET", "default", parse_env_u64),
            None
        );
    }

    #[test]
    fn parse_or_warn_keeps_defaults_on_garbage() {
        assert_eq!(
            parse_or_warn("RDO_X", "7", "default", parse_env_u64),
            Some(7)
        );
        assert_eq!(
            parse_or_warn("RDO_X", "sideways", "default", parse_env_u64),
            None,
            "invalid values warn and keep the default"
        );
        assert_eq!(
            parse_or_warn("RDO_C", "on", "default", parse_env_bool),
            Some(true)
        );
    }
}
