//! The one environment reader of the conformance suite: every knob is read
//! here, at a test entry point, never inside the library.

use std::fmt::Display;
use std::str::FromStr;

/// The value of knob `name`, or `default` when it is unset. A set value
/// that does not parse panics, naming the variable and its value — a typo
/// must never silently run the default sweep.
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
pub fn parse_knob<T: FromStr>(name: &str, value: Option<&str>, default: T) -> T
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
