//! The four benchmark workloads, each driven through the stack's public
//! entry points only.
//!
//! A workload is set up once per repetition ([`setup`]) and then priced in
//! passes ([`Workload::pass`]). The untraced pass takes the path a user
//! takes; the traced pass records a span around every layer call and
//! prices with a counting [`Probe`]. Both produce the same output digest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mha_apps::{paper_contestants, Contestant};
use mha_bench::campaign::{
    run_campaign_with, simulator_for, CampaignConfig, CampaignPoint, ConfigKey, ScheduleCache,
};
use mha_collectives::{AlgoConfig, Family, Library, TunedTable};
use mha_sched::probe::Probe;
use mha_sched::{merge_parts, relocate_onto, Fingerprinter, FrozenSchedule, MergePart, ProcGrid};
use mha_simnet::{ClusterSpec, SimResult, Simulator};
use mha_traffic::{
    default_builder, run_jobs, sample_jobs, tenant_fairness, tenant_stats, Arrival, JobSpec,
    PlacementPolicy, TrafficSpec, WorkloadMix,
};
use mha_tune::{reduced_points, run_search, TunePoint};

use crate::trace::span;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 4] = [
    "ring_1024",
    "paper_sweep",
    "traffic_contended",
    "tune_reduced",
];

/// Offered load of `traffic_contended`: Poisson arrivals per simulated
/// second. Jobs queue (p90 latency ≈ 4× p50) but the cluster is not
/// saturated: near saturation (8 kHz) the host cost of one scenario swings
/// by 2× from seed to seed, too much for any bound.
const TRAFFIC_RATE_HZ: f64 = 2.0e3;
/// Jobs per `traffic_contended` scenario.
const TRAFFIC_JOBS: u32 = 128;
/// Scenarios per `traffic_contended` pass; their mean cost is steady
/// across seeds where one scenario's is not.
const TRAFFIC_SCENARIOS: u32 = 6;

/// Deterministic per-pass counters of the layers a workload reaches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Ops emitted by `collectives` builds.
    pub build_ops: u64,
    /// Ops and edges of the merged traffic schedule.
    pub merged_ops: u64,
    /// Dependency edges of the merged traffic schedule.
    pub merged_edges: u64,
    /// Engine events over every simulation.
    pub events: u64,
    /// Water-fill recomputations reported to the probe.
    pub waterfill_calls: u64,
    /// Σ component flows over those recomputations.
    pub waterfill_flows: u64,
    /// Σ touched resources over those recomputations.
    pub waterfill_touched: u64,
    /// Largest number of simultaneously active flows in any simulation.
    pub max_concurrent_flows: u64,
    /// Campaign points run.
    pub points: u64,
    /// Schedule-cache hits.
    pub cache_hits: u64,
    /// Schedule-cache misses.
    pub cache_misses: u64,
    /// Traffic jobs priced.
    pub jobs: u64,
    /// Tuner candidates priced (Σ rung 0 + rung 1).
    pub candidates: u64,
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a digest of the simulated outputs, as f64 bits.
    pub digest: u64,
    /// Operations that broke a rule check (the tuner's tuned ≤ untuned).
    pub violations: u64,
    /// Simulated metrics: name, value, unit. Deterministic.
    pub sim: Vec<(&'static str, f64, &'static str)>,
}

/// One set-up workload.
pub trait Workload {
    /// Priced collectives per pass (the unit of `attempted`).
    fn ops(&self) -> u64;
    /// Prices the workload once.
    fn pass(&self, traced: bool, c: &mut Counts) -> Result<Outcome, String>;
    /// Traced runs only: re-prices through `run_probed` what the pass
    /// priced inside a library call the benchmark cannot instrument.
    fn replay(&self, _c: &mut Counts) -> Result<(), String> {
        Ok(())
    }
    /// Digest of the generated inputs that depend on the seed.
    fn input_digest(&self) -> u64;
}

/// Builds the named workload's inputs from `seed`.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "ring_1024" => Box::new(Ring::new()?),
        "paper_sweep" => Box::new(Paper::new()?),
        "traffic_contended" => Box::new(Traffic::new(seed)?),
        "tune_reduced" => Box::new(Tune::new()),
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

static BUILT_OPS: AtomicU64 = AtomicU64::new(0);

/// Ops built since the last call (campaign builds run on a worker thread,
/// so the tally is global).
pub fn take_built_ops() -> u64 {
    BUILT_OPS.swap(0, Ordering::Relaxed)
}

/// `mha_collectives` build under a `collectives.build` span.
fn build_span(
    op: u64,
    f: impl FnOnce() -> Result<FrozenSchedule, String>,
) -> Result<FrozenSchedule, String> {
    let fs = span("collectives.build", op, f)?;
    BUILT_OPS.fetch_add(fs.n_ops() as u64, Ordering::Relaxed);
    Ok(fs)
}

#[derive(Default)]
struct CountingProbe {
    calls: u64,
    flows: u64,
    touched: u64,
}

impl Probe for CountingProbe {
    fn waterfill(&mut self, _t: f64, flows: usize, touched: usize) {
        self.calls += 1;
        self.flows += flows as u64;
        self.touched += touched as u64;
    }
}

/// Validates then simulates `fs`: `Simulator::run` untraced, `run_probed`
/// with a [`CountingProbe`] traced.
fn simulate(
    sim: &Simulator,
    fs: &FrozenSchedule,
    traced: bool,
    op: u64,
    c: &mut Counts,
) -> Result<SimResult, String> {
    span("sched.validate", op, || {
        fs.validate_for(Some(sim.spec().rails))
    })
    .map_err(|e| e.to_string())?;
    let res = if traced {
        let mut probe = CountingProbe::default();
        let res = span("simnet.run", op, || sim.run_probed(fs, &mut probe));
        c.waterfill_calls += probe.calls;
        c.waterfill_flows += probe.flows;
        c.waterfill_touched += probe.touched;
        res
    } else {
        sim.run(fs)
    }
    .map_err(|e| e.to_string())?;
    c.events += res.events;
    c.max_concurrent_flows = c.max_concurrent_flows.max(res.max_concurrent_flows as u64);
    Ok(res)
}

fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut fp = Fingerprinter::new();
    for v in values {
        fp.push_f64(v);
    }
    fp.finish().0
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

// ---------------------------------------------------------------------------

/// One flat Ring allgather, 32 nodes × 32 ppn, 64 KiB per rank.
struct Ring {
    sim: Simulator,
    cfg: AlgoConfig,
    grid: ProcGrid,
    msg: usize,
}

impl Ring {
    fn new() -> Result<Self, String> {
        Ok(Ring {
            sim: Simulator::new(ClusterSpec::thor()).map_err(|e| e.to_string())?,
            cfg: AlgoConfig::flat(Family::Ring),
            grid: ProcGrid::new(32, 32),
            msg: 64 * 1024,
        })
    }
}

impl Workload for Ring {
    fn ops(&self) -> u64 {
        1
    }

    fn pass(&self, traced: bool, c: &mut Counts) -> Result<Outcome, String> {
        let fs = build_span(0, || {
            mha_collectives::build(&self.cfg, self.grid, self.msg, self.sim.spec())
                .map(|b| b.sched)
                .map_err(|e| e.to_string())
        })?;
        let res = simulate(&self.sim, &fs, traced, 0, c)?;
        Ok(Outcome {
            digest: digest([res.makespan]),
            violations: 0,
            sim: vec![("sim_us", res.latency_us(), "us")],
        })
    }

    fn input_digest(&self) -> u64 {
        self.cfg.digest()
    }
}

// ---------------------------------------------------------------------------

type RawBuild = Arc<dyn Fn() -> Result<FrozenSchedule, String> + Send + Sync>;

/// A campaign point's cache key, pricing spec and uninstrumented build,
/// kept for the traced replay.
struct PointDesc {
    key: ConfigKey,
    spec: ClusterSpec,
    build: RawBuild,
}

/// The Figure 13 grid (16 × 32): paper contestants plus the MHA-tuned
/// column, medium ∪ large sizes, as campaign points.
struct Paper {
    points: Vec<CampaignPoint>,
    descs: Vec<PointDesc>,
    cfg: CampaignConfig,
    ncols: usize,
    hpcx_col: usize,
}

impl Paper {
    fn new() -> Result<Self, String> {
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(16, 32);
        let table = TunedTable::load("results/tuned_thor.mtab")
            .map_err(|e| format!("results/tuned_thor.mtab: {e}"))?;
        let contestants = paper_contestants();
        let hpcx_col = contestants
            .iter()
            .position(|c| *c == Contestant::Library(Library::HpcX))
            .ok_or("paper contestants lack HPC-X")?;
        let mut sizes = mha_bench::medium_sizes();
        sizes.extend(mha_bench::large_sizes());
        let mut descs = Vec::new();
        for &msg in &sizes {
            for &c in &contestants {
                let build_spec = spec.clone();
                descs.push(PointDesc {
                    key: ConfigKey::new(format!("allgather/{}", c.name()), grid, msg, &spec),
                    spec: spec.clone(),
                    build: Arc::new(move || {
                        c.build_allgather(grid, msg, &build_spec)
                            .map(|b| b.sched)
                            .map_err(|e| e.to_string())
                    }),
                });
            }
            let served = table.lookup(grid, msg, spec.rails);
            let sim_spec = served.effective_spec(&spec).into_owned();
            let build_spec = sim_spec.clone();
            descs.push(PointDesc {
                key: ConfigKey::for_algo(&served, grid, msg, &spec),
                spec: sim_spec,
                build: Arc::new(move || {
                    mha_collectives::build(&served, grid, msg, &build_spec)
                        .map(|b| b.sched)
                        .map_err(|e| e.to_string())
                }),
            });
        }
        let points = descs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let build = Arc::clone(&d.build);
                CampaignPoint::sim(
                    d.key.family.clone(),
                    d.key.clone(),
                    d.spec.clone(),
                    move || build_span(i as u64, || build()),
                )
            })
            .collect();
        Ok(Paper {
            points,
            descs,
            cfg: CampaignConfig::default().with_workers(1).with_cache(true),
            ncols: contestants.len() + 1,
            hpcx_col,
        })
    }
}

impl Workload for Paper {
    fn ops(&self) -> u64 {
        self.points.len() as u64
    }

    fn pass(&self, _traced: bool, c: &mut Counts) -> Result<Outcome, String> {
        let cache = ScheduleCache::new(true);
        let report = span("campaign.run", 0, || {
            run_campaign_with(&self.points, &self.cfg, &cache)
        })?;
        c.points += self.points.len() as u64;
        c.cache_hits += report.cache_hits;
        c.cache_misses += report.cache_misses;
        let cells: Vec<f64> = (0..self.points.len()).map(|i| report.value(i)).collect();
        let bad = cells
            .iter()
            .filter(|v| !(v.is_finite() && **v > 0.0))
            .count();
        let tuned_col = self.ncols - 1;
        let ratios: Vec<f64> = cells
            .chunks(self.ncols)
            .map(|row| row[self.hpcx_col] / row[tuned_col])
            .collect();
        Ok(Outcome {
            digest: digest(cells.iter().copied()),
            violations: bad as u64,
            sim: vec![
                ("sim_us", geomean(&cells), "us"),
                ("mha_speedup", geomean(&ratios), "ratio"),
            ],
        })
    }

    fn replay(&self, c: &mut Counts) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for (i, d) in self.descs.iter().enumerate() {
            if !seen.insert(d.key.clone()) {
                continue;
            }
            let fs = (d.build)()?;
            let sim = simulator_for(&d.spec, None)?;
            simulate(&sim, &fs, true, i as u64, c)?;
        }
        Ok(())
    }

    fn input_digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        for d in &self.descs {
            fp.push_u64(d.key.digest());
        }
        fp.finish().0
    }
}

// ---------------------------------------------------------------------------

/// One sampled traffic scenario.
struct Scenario {
    spec: TrafficSpec,
    jobs: Vec<JobSpec>,
}

/// [`TRAFFIC_SCENARIOS`] independent scenarios of [`TRAFFIC_JOBS`]
/// Poisson-arriving jobs from four tenants on a shared 16 × 8 cluster,
/// each seeded from the run seed and its index.
struct Traffic {
    scenarios: Vec<Scenario>,
    sim: Simulator,
}

impl Traffic {
    fn new(seed: u64) -> Result<Self, String> {
        let nodes = 16;
        let scenarios = (0..TRAFFIC_SCENARIOS)
            .map(|k| {
                let spec = TrafficSpec {
                    cluster: ClusterSpec::thor(),
                    nodes,
                    ppn: 8,
                    arrival: Arrival::Poisson {
                        rate_hz: TRAFFIC_RATE_HZ,
                        jobs: TRAFFIC_JOBS,
                    },
                    mix: WorkloadMix::paper_default(nodes),
                    policy: PlacementPolicy::Random,
                    tenants: 4,
                    seed: Fingerprinter::new().push_u64(seed).push_u32(k).finish().0,
                };
                let jobs = span("traffic.sample", u64::from(k), || sample_jobs(&spec));
                Scenario { spec, jobs }
            })
            .collect();
        let sim = Simulator::new(ClusterSpec::thor()).map_err(|e| e.to_string())?;
        Ok(Traffic { scenarios, sim })
    }

    /// `run_jobs` decomposed into its public layer calls, each under a
    /// span: per job build → relocate → freeze, then merge → freeze →
    /// validate → simulate. Returns `(makespan, per-job end)`.
    fn run_traced(&self, k: usize, c: &mut Counts) -> Result<(f64, Vec<f64>), String> {
        let Scenario { spec, jobs } = &self.scenarios[k];
        let grid = spec.grid();
        let op0 = (k * jobs.len()) as u64;
        let mut frozen = Vec::with_capacity(jobs.len());
        for j in jobs {
            let op = op0 + u64::from(j.id);
            let fs = build_span(op, || {
                mha_collectives::build(&j.cfg, j.grid(spec.ppn), j.msg, &spec.cluster)
                    .map(|b| b.sched)
                    .map_err(|e| e.to_string())
            })?;
            let solo = fs.into_schedule();
            let placed = span("sched.relocate", op, || {
                relocate_onto(&solo, grid, &j.nodes)
            })
            .map_err(|e| e.to_string())?;
            frozen.push(span("sched.freeze", op, || placed.freeze()));
        }
        let parts: Vec<MergePart> = jobs
            .iter()
            .zip(&frozen)
            .map(|(j, fs)| {
                if j.after.is_some() {
                    return Err(format!("job {} is chained; Poisson jobs never are", j.id));
                }
                Ok(MergePart {
                    sched: fs.schedule(),
                    release: j.release,
                    after: None,
                })
            })
            .collect::<Result<_, String>>()?;
        let merged =
            span("sched.merge", op0, || merge_parts(grid, &parts)).map_err(|e| e.to_string())?;
        let merged_fs = span("sched.freeze", op0, || merged.schedule.freeze());
        c.merged_ops += merged_fs.n_ops() as u64;
        c.merged_edges += merged_fs.n_edges() as u64;
        let res = simulate(&self.sim, &merged_fs, true, op0, c)?;
        let ends = merged
            .spans
            .iter()
            .map(|s| {
                (s.start..s.end)
                    .map(|g| res.op_end[g as usize])
                    .fold(0.0f64, f64::max)
            })
            .collect();
        Ok((res.makespan, ends))
    }
}

impl Workload for Traffic {
    fn ops(&self) -> u64 {
        self.scenarios.iter().map(|s| s.jobs.len() as u64).sum()
    }

    fn pass(&self, traced: bool, c: &mut Counts) -> Result<Outcome, String> {
        c.jobs += self.ops();
        let mut outputs = Vec::new();
        let (mut makespans, mut lat, mut jain) = (Vec::new(), Vec::new(), 0.0);
        for (k, sc) in self.scenarios.iter().enumerate() {
            if traced {
                let (makespan, ends) = self.run_traced(k, c)?;
                outputs.push(makespan);
                outputs.extend(ends);
                continue;
            }
            let report = run_jobs(&sc.spec, &sc.jobs, &mut default_builder(&sc.spec))?;
            c.events += report.events;
            outputs.push(report.makespan);
            outputs.extend(report.jobs.iter().map(|r| r.end));
            makespans.push(report.makespan * 1e6);
            lat.extend(report.jobs.iter().map(|r| r.latency() * 1e6));
            jain +=
                tenant_fairness(&tenant_stats(&report, sc.spec.ppn)) / self.scenarios.len() as f64;
        }
        let sim = if traced {
            Vec::new()
        } else {
            lat.sort_by(f64::total_cmp);
            vec![
                ("sim_us", geomean(&makespans), "us"),
                ("job_p50_us", mha_traffic::percentile(&lat, 50.0), "us"),
                ("job_p90_us", mha_traffic::percentile(&lat, 90.0), "us"),
                ("jain", jain, "ratio"),
            ]
        };
        Ok(Outcome {
            digest: digest(outputs),
            violations: 0,
            sim,
        })
    }

    fn input_digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        for j in self.scenarios.iter().flat_map(|s| &s.jobs) {
            fp.push_str(&j.describe());
        }
        fp.finish().0
    }
}

// ---------------------------------------------------------------------------

/// `mha-tune`'s reduced successive-halving search, one campaign worker.
struct Tune {
    spec: ClusterSpec,
    points: Vec<TunePoint>,
    cfg: CampaignConfig,
}

impl Tune {
    fn new() -> Self {
        let spec = ClusterSpec::thor();
        Tune {
            points: reduced_points(&spec),
            spec,
            cfg: CampaignConfig::default().with_workers(1).with_cache(true),
        }
    }
}

impl Workload for Tune {
    fn ops(&self) -> u64 {
        self.points.len() as u64
    }

    fn pass(&self, _traced: bool, c: &mut Counts) -> Result<Outcome, String> {
        let out = span("tune.search", 0, || {
            run_search(&self.points, &self.spec, &self.cfg)
        })?;
        c.candidates += out
            .summaries
            .iter()
            .map(|s| (s.rung0 + s.rung1) as u64)
            .sum::<u64>();
        let violations = out
            .summaries
            .iter()
            .filter(|s| {
                // NaN counts as a violation.
                !matches!(
                    s.tuned_us.partial_cmp(&s.best_untuned_us()),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                )
            })
            .count();
        let tuned: Vec<f64> = out.summaries.iter().map(|s| s.tuned_us).collect();
        let mut fp = Fingerprinter::new();
        fp.push_u64(out.table.digest());
        for &t in &tuned {
            fp.push_f64(t);
        }
        Ok(Outcome {
            digest: fp.finish().0,
            violations: violations as u64,
            sim: vec![("sim_us", geomean(&tuned), "us")],
        })
    }

    fn input_digest(&self) -> u64 {
        let mut fp = Fingerprinter::new();
        for p in &self.points {
            fp.push_u32(p.grid.nodes())
                .push_u32(p.grid.ppn())
                .push_usize(p.msg)
                .push_u8(p.rails_up);
        }
        fp.finish().0
    }
}
