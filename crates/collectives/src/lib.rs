//! # mha-collectives — the paper's Allgather/Allreduce designs and baselines
//!
//! Every algorithm compiles an MPI-style collective into an `mha-sched`
//! schedule: flat baselines (Ring, Recursive Doubling, Bruck, Direct
//! Spread), two-level designs (single-leader and Kandalla-style
//! multi-leader), the paper's multi-HCA-aware contributions (MHA-intra with
//! HCA offload, hierarchical MHA-inter with an overlapped shared-memory
//! pipeline), Ring Allreduce with a pluggable Allgather phase, and the
//! HPC-X / MVAPICH2-X library surrogates the evaluation compares against.
//!
//! Every Allgather in that design space is named by one serializable
//! [`AlgoConfig`] (e.g. `AlgoConfig::flat(Family::Ring)`,
//! `AlgoConfig::mha_inter(cfg)`, `AlgoConfig::flat(Family::Library(l))`)
//! and built by one entry point, [`build`]`(&cfg, grid, msg, &spec)`; a
//! degraded-rail MHA-inter build is the same config with `down_rails` set.
//! Beside it stay only the builders outside that design space
//! ([`build_composed`] over explicit topology trees,
//! [`mha::build_mha_numa3`], the Allreduce/Bcast/Alltoall builders) and the
//! paper's §5.3 tuning loop ([`build_tuned_mha`]).
//!
//! Hierarchical families are emitted by one **generic composer**
//! ([`build_composed`]): a [`ComposePlan`] assigns a [`LevelAlgo`] to each
//! level of an `mha_sched::Topology` tree (exchange at the top, import
//! rounds through the middle, leader gather at the leaves), so two-level
//! MHA-inter and the 3-level NUMA-aware design are instantiations of the
//! same recursion rather than separate emitters.

#![warn(missing_docs)]

mod allreduce;
mod alltoall;
mod baselines;
mod bcast;
mod chunks;
mod compose;
mod config;
mod ctx;
mod flat;
pub mod mha;
mod tuned;
pub mod tuning;
mod twolevel;

pub use allreduce::{build_ring_allreduce, AllgatherPhase};
pub use alltoall::{build_direct_alltoall, build_mha_alltoall, AlltoallBuilt};
pub use baselines::Library;
pub use bcast::{build_binomial_bcast, build_mha_bcast, BcastBuilt};
pub use chunks::{chunk_bounds, chunk_bounds_aligned, chunk_len};
pub use compose::{build_composed, ComposePlan, LevelAlgo};
pub use config::{build, AlgoConfig, Family};
pub use ctx::{BuildError, Built};
pub use tuned::{msg_bucket, TableError, TableKey, TunedTable, TABLE_FORMAT_VERSION};
pub use tuning::{build_tuned_mha, select_inter_algo, InterChoice, TuneError};
