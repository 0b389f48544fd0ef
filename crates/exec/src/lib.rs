//! # mha-exec — real-data executors for collective schedules
//!
//! While `mha-simnet` prices a schedule in virtual time, this crate *runs*
//! it: every buffer becomes a real `Vec<u8>`, transfers and copies move real
//! bytes, reductions do real arithmetic. Three calls run a schedule in
//! either [`Mode`] — the sequential reference interpreter or a
//! dependency-driven worker pool that may execute any topological
//! interleaving, which (together with `mha_sched::check_races`)
//! demonstrates that the paper's overlapped chunk-counter pipeline is
//! deterministic:
//!
//! * [`run`] — plain execution;
//! * [`run_probed`] — execution narrated through an `mha_sched::Probe`;
//! * [`run_journaled`] — execution that records per-op completions in a
//!   [`CompletionJournal`], optionally under a seeded [`KillPlan`].
//!
//! [`verify_allgather`] / [`verify_allreduce_sum_f32`] wrap the executors
//! with MPI-semantics postcondition checks; every collective algorithm in
//! `mha-collectives` is tested through them.
//!
//! Execution is crash-tolerant: the [`journal`] module records completions
//! as ops retire, a [`KillPlan`] murders workers at deterministic points,
//! and calling [`run_journaled`] again on the partly filled journal
//! rebuilds the readiness frontier and finishes only the unfinished suffix
//! — byte-identical to a run that never crashed.

#![warn(missing_docs)]

mod executor;
pub mod journal;
mod memory;
mod verify;

pub use executor::{run, run_journaled, run_probed, ExecError, Mode};
pub use journal::{CompletionJournal, JournalError, KillPlan};
pub use memory::BufferStore;
pub use verify::{
    rank_pattern, rank_values_f32, verify_allgather, verify_allreduce_sum_f32, verify_alltoall,
    verify_bcast, VerifyError,
};
