//! Conventional flat Allgather algorithms (paper Section 2.2).
//!
//! These treat all links as homogeneous — no intra/inter-node distinction —
//! which is exactly the deficiency the paper's Figure 2 demonstrates. They
//! serve both as baselines and as building blocks (the library surrogates
//! pick among them by message size).

mod bruck;
mod direct_spread;
mod recursive_doubling;
mod ring;

pub(crate) use bruck::build_bruck;
pub(crate) use bruck::emit_bruck;
pub(crate) use direct_spread::build_direct_spread;
pub(crate) use direct_spread::emit_direct_spread;
pub(crate) use recursive_doubling::build_recursive_doubling;
pub(crate) use recursive_doubling::emit_recursive_doubling;
pub(crate) use ring::build_ring;
pub(crate) use ring::emit_ring;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::ctx::Built;
    use mha_exec::{verify_allgather, Mode};

    /// Full validation battery for an Allgather build: structural checks,
    /// race-freedom, and semantic verification in both execution modes.
    pub fn assert_allgather_correct(built: &Built) {
        mha_sched::validate(&built.sched, Some(2)).unwrap();
        let races = mha_sched::check_races(&built.sched);
        assert!(races.is_empty(), "races: {races:?}");
        verify_allgather(
            &built.sched,
            &built.send,
            &built.recv,
            built.msg,
            Mode::Single,
        )
        .unwrap();
        verify_allgather(
            &built.sched,
            &built.send,
            &built.recv,
            built.msg,
            Mode::Threaded(4),
        )
        .unwrap();
    }

    /// The whole op stream — kinds, steps, dependency edges and labels —
    /// as text, for byte-identity assertions between two builds (the
    /// schedule name is left out).
    pub fn op_stream(built: &Built) -> String {
        use std::fmt::Write as _;
        let s = &built.sched;
        let mut out = String::new();
        for op in s.ops() {
            let _ = writeln!(
                out,
                "{op:?} deps={:?} label={}",
                s.preds(op.id.0),
                s.label(op.id)
            );
        }
        out
    }
}
