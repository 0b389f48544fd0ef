//! The one strict environment reader: every `MHA_*` knob of the campaign
//! runner, the `fig*`/`ablate*` binaries and the conformance suite is read
//! through [`knob`]. Unset knobs take their default; a set value that does
//! not parse panics, naming the variable and its value — a typo must never
//! silently run the default configuration (and, in CI, compare the default
//! run against itself).

use std::fmt::Display;
use std::str::FromStr;

/// The value of knob `name`, or `default` when it is unset. A set value
/// that does not parse panics, naming the variable and its value, so a
/// typo never silently runs the default configuration. Every `MHA_*` knob
/// of the campaign runner, the binaries and the conformance suite is read
/// here.
pub fn knob<T: FromStr>(name: &str, default: T) -> T
where
    T::Err: Display,
{
    let raw = std::env::var_os(name);
    let value = raw.as_ref().map(|v| {
        v.to_str()
            .unwrap_or_else(|| panic!("{name}={v:?} is not valid UTF-8"))
    });
    parse_knob(name, value, default)
}

/// [`knob`] over an explicit value (`None` = unset).
pub(crate) fn parse_knob<T: FromStr>(name: &str, value: Option<&str>, default: T) -> T
where
    T::Err: Display,
{
    match value {
        None => default,
        Some(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{name}={v:?} does not parse: {e}")),
    }
}

/// An on/off knob value: `1`/`true`/`on`/`yes` or `0`/`false`/`off`/`no`;
/// any other word is an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Switch(pub(crate) bool);

impl FromStr for Switch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "1" | "true" | "on" | "yes" => Ok(Switch(true)),
            "0" | "false" | "off" | "no" => Ok(Switch(false)),
            _ => Err("expected one of 1/true/on/yes or 0/false/off/no".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_knobs_take_their_default_and_set_ones_parse() {
        assert_eq!(knob("MHA_KNOB_NEVER_SET", 7usize), 7);
        assert_eq!(parse_knob("MHA_CRASH_CASES", None, 100usize), 100);
        assert_eq!(parse_knob("MHA_CRASH_CASES", Some("1000"), 100usize), 1000);
        assert_eq!(parse_knob("MHA_CRASH_SEED", Some(" 57005 "), 0u64), 57005);
        assert_eq!(parse_knob("MHA_MODEL_ENVELOPE", Some("1.5"), 2.0f64), 1.5);
        assert_eq!(
            parse_knob("MHA_CAMPAIGN_CACHE", Some("off"), Switch(true)),
            Switch(false)
        );
        assert_eq!(
            parse_knob("MHA_CAMPAIGN_CACHE", Some("1"), Switch(false)),
            Switch(true)
        );
    }

    #[test]
    #[should_panic(expected = "MHA_CRASH_CASES=\"1e3\" does not parse")]
    fn a_malformed_knob_panics_naming_the_variable_and_value() {
        parse_knob("MHA_CRASH_CASES", Some("1e3"), 100usize);
    }

    #[test]
    #[should_panic(expected = "MHA_CAMPAIGN_WORKERS=\"eight\" does not parse")]
    fn a_worded_worker_count_panics_naming_the_variable() {
        parse_knob("MHA_CAMPAIGN_WORKERS", Some("eight"), 1usize);
    }

    #[test]
    #[should_panic(expected = "MHA_CAMPAIGN_CACHE=\"of\" does not parse")]
    fn a_misspelt_switch_panics_instead_of_reading_as_on() {
        parse_knob("MHA_CAMPAIGN_CACHE", Some("of"), Switch(true));
    }
}
