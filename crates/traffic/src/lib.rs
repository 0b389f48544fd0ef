//! Multi-tenant traffic engine for the MHA Allgather reproduction.
//!
//! The figure-level benchmarks price one collective at a time on an idle
//! cluster. Real clusters run *many* jobs at once: an arrival process
//! emits collective jobs, a placement policy scatters them over node
//! subsets of one shared machine, and their flows contend on the same
//! HCAs, memory buses and CPUs. This crate models exactly that on top of
//! `mha-simnet` without touching the engine's pricing at all:
//!
//! 1. [`sample_jobs`] expands a [`TrafficSpec`] — arrival process
//!    ([`Arrival::Closed`] clients with think times, [`Arrival::Poisson`]
//!    open loop, or an explicit [`Arrival::Trace`]), workload mix
//!    ([`WorkloadMix`]), placement policy ([`PlacementPolicy`]) — into a
//!    deterministic, seed-reproducible list of [`JobSpec`]s.
//! 2. Each job's schedule is built solo on its own grid, then
//!    [`mha_sched::relocate_onto`] its placed node subset.
//! 3. [`mha_sched::merge_parts`] fuses all jobs into **one** schedule
//!    over the cluster grid — arrivals become per-root release delays,
//!    closed-loop feedback becomes DAG edges onto the predecessor's
//!    sinks — and a single [`mha_simnet::Simulator`] run prices it.
//!    Cross-job contention *emerges* from the existing max-min
//!    water-filler; nothing in the engine knows jobs exist.
//! 4. A per-tenant probe attributes op completions back through the
//!    merge spans: [`TrafficReport`] carries per-job arrival/end, and
//!    [`tenant_stats`]/[`jain`] turn that into p50/p95/p99 latency,
//!    throughput and Jain's fairness index per tenant.
//!
//! Because a merged single job with zero release is *identical* to its
//! solo schedule, every existing single-job path is bit-preserved, and
//! jobs on disjoint placements price bit-identically to their solo runs
//! (the tenant oracle in `mha-conformance` holds both bars).

#![warn(missing_docs)]

mod arrival;
mod metrics;
mod placement;
mod run;
mod workload;

pub use arrival::{sample_jobs, Arrival, JobSpec};
pub use metrics::{
    jain, job_trace_csv, percentile, tenant_csv, tenant_fairness, tenant_stats, TenantStats,
};
pub use placement::{place, placement_digest, PlacementPolicy};
pub use run::{
    default_builder, run_jobs, run_traffic, tenant_jobs, BuildJob, JobRecord, TrafficReport,
    TrafficSpec,
};
pub use workload::{WorkloadEntry, WorkloadMix};
