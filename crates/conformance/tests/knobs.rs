//! The suite's environment reader: unset knobs take their default, set
//! ones must parse — a malformed value panics instead of silently running
//! the default sweep.

mod common;

use common::{knob, parse_knob};

#[test]
fn unset_knobs_take_their_default_and_set_ones_parse() {
    assert_eq!(knob("MHA_CONFORMANCE_NEVER_SET", 7usize), 7);
    assert_eq!(parse_knob("MHA_CRASH_CASES", None, 100usize), 100);
    assert_eq!(parse_knob("MHA_CRASH_CASES", Some("1000"), 100usize), 1000);
    assert_eq!(parse_knob("MHA_CRASH_SEED", Some(" 57005 "), 0u64), 57005);
    assert_eq!(parse_knob("MHA_MODEL_ENVELOPE", Some("1.5"), 2.0f64), 1.5);
}

#[test]
#[should_panic(expected = "MHA_CRASH_CASES=\"1e3\" does not parse")]
fn a_malformed_knob_panics_naming_the_variable_and_value() {
    parse_knob("MHA_CRASH_CASES", Some("1e3"), 100usize);
}
