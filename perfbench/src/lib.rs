//! The repository benchmark: four workloads priced end to end, with a
//! separately traced run that splits their cost by layer.
//!
//! See `README.md` next to this crate for the metrics, the workloads and
//! how to run it.

pub mod alloc;
mod run;
pub mod trace;
mod workloads;

pub use run::main;
