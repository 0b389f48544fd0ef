//! # mha-conformance — correctness as a continuously-exercised subsystem
//!
//! The paper's claims (Eqs. 1–7, the Ring-vs-RD overlap argument) are only
//! as credible as the simulator they are reproduced on. This crate makes
//! that credibility checkable, in three layers:
//!
//! 1. **Invariant probes** ([`mha_sched::InvariantProbe`], wired into the
//!    discrete-event engine): per-op causality, per-resource capacity and
//!    per-flow byte conservation, audited on every simulated run when
//!    `MHA_CHECK` is set (every `fig*` binary's `--check` flag).
//! 2. **A three-way differential oracle** ([`oracle`]): random
//!    configurations across the flat / two-level / MHA collective families,
//!    each cross-checked between the threaded executor (real bytes, MPI
//!    semantics via [`mha_exec::verify_allgather`]), the simulator (invariant
//!    audit + dependency-respecting op ordering) and the α–β model
//!    (latency monotone in message size, within a configurable envelope of
//!    the [`mha_model`] prediction). [`coverage`] adds a static check that
//!    the schedule writes every receive-buffer byte exactly once.
//! 3. **A deterministic schedule fuzzer with shrinking** ([`fuzz`]):
//!    mutates known-good schedules (drop an edge, swap transfer endpoints,
//!    shrink a copy range, …) and asserts the checker stack —
//!    [`mha_sched::validate`], [`mha_sched::check_races`],
//!    [`mha_exec::verify_allgather`] — kills every seeded mutant, greedily
//!    shrinking killed mutants to minimal reproductions.
//!
//! Every seeded sweep — the differential oracle and its five siblings
//! ([`faults`], [`crash`], [`traffic`], [`tuned`], [`waterfill`]) — is an
//! [`Oracle`] impl driven by the one pooled [`runner::run`]: cases are
//! pre-sampled serially from one seeded RNG, checked across the campaign
//! worker pool, and reported in case order with summed [`Tally`]s.
//!
//! Run everything with `cargo test -p mha-conformance`. The library reads
//! no environment; the test entry points do, through one strict reader (a
//! set but malformed value panics, naming the variable):
//!
//! | Knob | Default | Oracle |
//! |---|---|---|
//! | `MHA_CONFORMANCE_CASES` | 200 | differential, tuned |
//! | `MHA_CONFORMANCE_SEED` | `0xC0FFEE` | differential, tuned |
//! | `MHA_MODEL_ENVELOPE` | 2.0 | differential ([`check_model_envelope`]) |
//! | `MHA_FAULT_CASES` | 100 | faults |
//! | `MHA_FAULT_SEED` | `0xFA17` | faults |
//! | `MHA_FAULT_ENVELOPE` | 2.0 | faults |
//! | `MHA_CRASH_CASES` | 100 | crash |
//! | `MHA_CRASH_SEED` | `0xDEAD` | crash |
//! | `MHA_CRASH_THREADS` | 4 | crash |
//! | `MHA_TRAFFIC_CASES` | 100 | traffic |
//! | `MHA_TRAFFIC_SEED` | `0x7EA7` | traffic |
//! | `MHA_WATERFILL_CASES` | 120 | waterfill |
//! | `MHA_WATERFILL_SEED` | `0x7A7E2` | waterfill |
//! | `MHA_FUZZ_BUDGET` | 150 | fuzzer |
//!
//! Seeds are decimal integers. The campaign pool itself is sized by
//! `MHA_CAMPAIGN_WORKERS` (see `mha_bench::campaign::CampaignConfig`);
//! reports are identical at every width.

#![warn(missing_docs)]

pub mod cases;
pub mod coverage;
pub mod crash;
pub mod faults;
pub mod fuzz;
pub mod oracle;
pub mod runner;
pub mod traffic;
pub mod tuned;
pub mod waterfill;

pub use cases::{sample_case, Case, Family};
pub use coverage::check_allgather_coverage;
pub use crash::{CrashCase, CrashOracle};
pub use faults::{FaultCase, FaultOracle};
pub use fuzz::{judge, seeded_mutants, shrink, FuzzTarget, Mutation, SchedSpec, Verdict};
pub use oracle::{check_model_envelope, DifferentialOracle};
pub use runner::{run, Disagreement, Oracle, Report, Tally};
pub use traffic::{TrafficCase, TrafficOracle};
pub use tuned::TunedOracle;
pub use waterfill::WaterfillOracle;
