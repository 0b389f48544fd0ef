//! Running a traffic scenario through one shared simulator instance.
//!
//! [`run_traffic`] samples the job stream, builds each job's collective
//! schedule solo, [relocates](mha_sched::relocate_onto) it onto its
//! placement, [merges](mha_sched::merge_parts) every job into a single
//! schedule over the cluster grid, and prices that once — cross-job
//! contention emerges from the ordinary max-min water-filler, not from
//! any traffic-specific engine machinery. [`run_jobs`] is the same with
//! an explicit job list and a pluggable builder (the bench layer passes
//! a schedule-cache-backed builder; the conformance oracle passes job
//! subsets to obtain solo baselines with *identical* arrival times,
//! which is what makes bit-equality comparisons well-posed).

use std::collections::HashMap;
use std::sync::Arc;

use mha_sched::{merge_parts, probe::Probe, FrozenSchedule, MergePart, ProcGrid, ResourceUtil};
use mha_simnet::{ClusterSpec, SimResult, Simulator};

use crate::arrival::{sample_jobs, Arrival, JobSpec};
use crate::placement::PlacementPolicy;
use crate::workload::WorkloadMix;

/// A complete multi-tenant traffic scenario.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// The shared cluster's link/CPU/NUMA parameters.
    pub cluster: ClusterSpec,
    /// Cluster width in nodes.
    pub nodes: u32,
    /// Processes per node (every job runs at this ppn; placements are
    /// whole-node).
    pub ppn: u32,
    /// When jobs arrive.
    pub arrival: Arrival,
    /// What jobs run.
    pub mix: WorkloadMix,
    /// Where jobs land.
    pub policy: PlacementPolicy,
    /// Tenant count for open-loop arrivals (job `i` belongs to tenant
    /// `i % tenants`); closed loops use one tenant per client instead.
    pub tenants: u32,
    /// Seed of the whole scenario — arrivals, workload draws, placements.
    pub seed: u64,
}

impl TrafficSpec {
    /// The shared cluster's process grid.
    pub fn grid(&self) -> ProcGrid {
        ProcGrid::new(self.nodes, self.ppn)
    }

    /// How many tenants the scenario's reports aggregate over.
    pub fn tenant_count(&self) -> u32 {
        match self.arrival {
            Arrival::Closed { clients, .. } => clients,
            _ => self.tenants.max(1),
        }
    }
}

/// Builds one job's schedule, already relocated onto the cluster grid.
/// Implementations may cache: the result is keyed by the job's config,
/// message size **and placement** (see `ConfigKey::with_placement` in
/// `mha-bench` — two jobs differing only in node subset must not alias).
pub type BuildJob<'a> = dyn FnMut(&JobSpec) -> Result<Arc<FrozenSchedule>, String> + 'a;

/// The default (uncached) builder: solo collective on the job grid via
/// `mha_collectives::build`, then relocated onto the job's placement.
pub fn default_builder(
    spec: &TrafficSpec,
) -> impl FnMut(&JobSpec) -> Result<Arc<FrozenSchedule>, String> + '_ {
    let cluster_grid = spec.grid();
    move |job: &JobSpec| {
        let built = mha_collectives::build(&job.cfg, job.grid(spec.ppn), job.msg, &spec.cluster)
            .map_err(|e| format!("job {}: {e}", job.id))?;
        let solo = built.sched.into_schedule();
        let placed = mha_sched::relocate_onto(&solo, cluster_grid, &job.nodes)
            .map_err(|e| format!("job {}: {e}", job.id))?;
        Ok(Arc::new(placed.freeze()))
    }
}

/// One finished job of a traffic run.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job as sampled.
    pub job: JobSpec,
    /// When the job became runnable: its absolute arrival for open-loop
    /// jobs, predecessor completion + think time for chained ones.
    pub arrival: f64,
    /// When its last op completed.
    pub end: f64,
}

impl JobRecord {
    /// Queueing + service time: what a tenant experiences per job.
    pub fn latency(&self) -> f64 {
        self.end - self.arrival
    }
}

/// The outcome of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Per-job records, in job-id order.
    pub jobs: Vec<JobRecord>,
    /// Completion time of the whole merged schedule.
    pub makespan: f64,
    /// Tenants the scenario declared (some may have zero jobs).
    pub tenants: u32,
    /// Per-resource bytes, capacity and utilization, in resource-map
    /// order (the oracle's capacity audit reads these).
    pub resources: Vec<ResourceUtil>,
    /// Events the engine processed (diagnostics).
    pub events: u64,
}

/// Per-tenant accounting probe: records each op's ready and end times so
/// job arrivals/completions can be attributed through the merge spans,
/// plus the end-of-run resource samples. Flow-level callbacks stay off
/// (`wants_flows = false`) — the always-on op lifecycle plus the resource
/// samples carry everything the tenant metrics need.
struct TenantProbe {
    ready: Vec<f64>,
    end: Vec<f64>,
    resources: Vec<ResourceUtil>,
}

impl TenantProbe {
    fn new(n_ops: usize) -> Self {
        TenantProbe {
            ready: vec![0.0; n_ops],
            end: vec![0.0; n_ops],
            resources: Vec::new(),
        }
    }
}

impl Probe for TenantProbe {
    fn op_ready(&mut self, op: u32, t: f64) {
        self.ready[op as usize] = t;
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.end[op as usize] = t;
    }

    fn resource_sample(&mut self, label: &str, bytes: f64, capacity: f64) {
        self.resources
            .push(ResourceUtil::sample(label, bytes, capacity));
    }

    fn end_run(&mut self, makespan: f64) {
        for r in &mut self.resources {
            r.settle(makespan);
        }
    }
}

/// Runs an explicit job list on the scenario's cluster through `build`.
///
/// The list may be any subset of a sampled stream as long as every
/// chained job's predecessor is present (the conformance oracle passes
/// single-tenant subsets; closed-loop chains never cross tenants).
/// Placements and releases ride in the [`JobSpec`]s untouched, so a
/// subset run prices the same jobs at the same arrivals with fewer
/// competitors — the basis of the solo-vs-merged comparisons.
pub fn run_jobs(
    spec: &TrafficSpec,
    jobs: &[JobSpec],
    build: &mut BuildJob,
) -> Result<TrafficReport, String> {
    if jobs.is_empty() {
        return Err("traffic run with zero jobs".to_string());
    }
    let grid = spec.grid();
    let mut index_of = HashMap::with_capacity(jobs.len());
    for (k, j) in jobs.iter().enumerate() {
        index_of.insert(j.id, k);
    }

    let mut frozen: Vec<Arc<FrozenSchedule>> = Vec::with_capacity(jobs.len());
    for j in jobs {
        frozen.push(build(j)?);
    }

    let mut parts = Vec::with_capacity(jobs.len());
    for (k, j) in jobs.iter().enumerate() {
        let after = match j.after {
            None => None,
            Some(pred) => Some(*index_of.get(&pred).ok_or_else(|| {
                format!(
                    "job {} chains on job {pred}, which is not in this run",
                    j.id
                )
            })?),
        };
        if let Some(a) = after {
            if a >= k {
                return Err(format!("job {} chains forward onto position {a}", j.id));
            }
        }
        parts.push(MergePart {
            sched: frozen[k].schedule(),
            release: j.release,
            after,
        });
    }

    let merged = merge_parts(grid, &parts).map_err(|e| e.to_string())?;
    let merged_fs = merged.schedule.freeze();

    let sim = Simulator::new(spec.cluster.clone()).map_err(|e| e.to_string())?;
    let mut probe = TenantProbe::new(merged_fs.n_ops());
    let res: SimResult = sim
        .run_probed(&merged_fs, &mut probe)
        .map_err(|e| e.to_string())?;

    let mut records = Vec::with_capacity(jobs.len());
    for (k, j) in jobs.iter().enumerate() {
        let span = &merged.spans[k];
        // Arrival = the instant the job's last-gating root is released:
        // ready (0 for open loop, predecessor completion for chains) plus
        // the root's release delay.
        let arrival = frozen[k]
            .roots()
            .iter()
            .map(|&r| {
                let g = (span.start + r) as usize;
                probe.ready[g] + merged_fs.schedule().release_of(mha_sched::OpId(g as u32))
            })
            .fold(0.0f64, f64::max);
        let end = (span.start..span.end)
            .map(|g| probe.end[g as usize])
            .fold(0.0f64, f64::max);
        records.push(JobRecord {
            job: j.clone(),
            arrival,
            end,
        });
    }

    Ok(TrafficReport {
        jobs: records,
        makespan: res.makespan,
        tenants: spec.tenant_count(),
        resources: probe.resources,
        events: res.events,
    })
}

/// Samples and runs the full scenario with the default builder.
pub fn run_traffic(spec: &TrafficSpec) -> Result<TrafficReport, String> {
    let jobs = sample_jobs(spec);
    let mut build = default_builder(spec);
    run_jobs(spec, &jobs, &mut build)
}

/// The subset of `jobs` belonging to `tenant`, for solo-baseline runs.
/// Chains are tenant-local by construction, so the subset is closed
/// under `after`.
pub fn tenant_jobs(jobs: &[JobSpec], tenant: u32) -> Vec<JobSpec> {
    jobs.iter()
        .filter(|j| j.tenant == tenant)
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementPolicy;

    fn spec(arrival: Arrival, policy: PlacementPolicy, seed: u64) -> TrafficSpec {
        TrafficSpec {
            cluster: ClusterSpec::thor(),
            nodes: 8,
            ppn: 2,
            arrival,
            mix: WorkloadMix::paper_default(8),
            policy,
            tenants: 2,
            seed,
        }
    }

    #[test]
    fn single_job_matches_plain_simulation_bitwise() {
        // One open-loop job arriving at t=0 must price bit-identically to
        // the relocated schedule run outside the traffic layer entirely.
        let s = spec(Arrival::Trace(vec![0.0]), PlacementPolicy::Packed, 5);
        let jobs = sample_jobs(&s);
        assert_eq!(jobs.len(), 1);
        let report = run_jobs(&s, &jobs, &mut default_builder(&s)).unwrap();

        let fs = default_builder(&s)(&jobs[0]).unwrap();
        let solo = Simulator::new(s.cluster.clone()).unwrap().run(&fs).unwrap();
        assert_eq!(report.makespan.to_bits(), solo.makespan.to_bits());
        assert_eq!(report.jobs[0].arrival, 0.0);
        assert_eq!(report.jobs[0].end.to_bits(), solo.makespan.to_bits());
    }

    #[test]
    fn closed_loop_jobs_serialize_per_client() {
        let s = spec(
            Arrival::Closed {
                clients: 2,
                jobs_per_client: 3,
                think: 1e-4,
            },
            PlacementPolicy::Striped,
            7,
        );
        let jobs = sample_jobs(&s);
        let report = run_jobs(&s, &jobs, &mut default_builder(&s)).unwrap();
        assert_eq!(report.jobs.len(), 6);
        for w in report.jobs.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.job.after == Some(a.job.id) {
                // Think time separates completion from the next arrival.
                assert!(
                    (b.arrival - (a.end + 1e-4)).abs() < 1e-12,
                    "arrival {} vs end+think {}",
                    b.arrival,
                    a.end + 1e-4
                );
                assert!(b.end > a.end);
            }
        }
        assert!(report.jobs.iter().all(|r| r.latency() > 0.0));
        assert!(report.makespan >= report.jobs.iter().map(|r| r.end).fold(0.0, f64::max));
    }

    #[test]
    fn chains_must_be_complete() {
        let s = spec(
            Arrival::Closed {
                clients: 1,
                jobs_per_client: 2,
                think: 0.0,
            },
            PlacementPolicy::Packed,
            1,
        );
        let jobs = sample_jobs(&s);
        let err = run_jobs(&s, &jobs[1..], &mut default_builder(&s)).unwrap_err();
        assert!(err.contains("not in this run"), "got: {err}");
    }
}
