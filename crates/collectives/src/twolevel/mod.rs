//! Two-level (leader-based) Allgather baselines from the related work the
//! paper builds on and criticizes (Section 1.1 / Section 6).

mod multi_leader;
mod single_leader;

pub(crate) use multi_leader::build_multi_leader;
pub(crate) use multi_leader::emit_multi_leader;
pub(crate) use single_leader::build_single_leader;
pub(crate) use single_leader::emit_single_leader;
