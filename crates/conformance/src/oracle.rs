//! The three-way differential oracle: simnet × executor × α–β model.
//!
//! For each randomly drawn [`Case`] the oracle checks that
//! three independent interpretations of the same frozen schedule agree:
//!
//! * the **threaded executor** moves real bytes and lands on MPI_Allgather
//!   semantics ([`mha_exec::verify_allgather`], single-threaded and
//!   thread-pool execution) — plus the static byte-coverage partition
//!   ([`crate::check_allgather_coverage`]);
//! * the **simulator** survives a full invariant audit
//!   ([`mha_sched::InvariantProbe`]: causality, capacity, conservation)
//!   and orders op completions consistently with the executor — every
//!   dependency edge finishes in order in both backends, and the simulated
//!   critical path's completion order is reproduced by the executor's
//!   wall-clock stamps;
//! * the **α–β model** brackets the simulated latency: for representative
//!   large-message sweeps per family, simulated latency is monotone in
//!   message size and within a configurable multiplicative envelope of the
//!   [`mha_model`] prediction.

use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig, Built, Family as AlgoFamily};
use mha_exec::{run_probed, BufferStore, Mode};
use mha_model::{mha_inter_latency, mha_intra_latency_auto, ModelParams, Phase2};
use mha_sched::{FrozenSchedule, InvariantProbe, Probe, ProcGrid};
use mha_simnet::{ClusterSpec, Simulator};
use rand::rngs::StdRng;

use crate::cases::{sample_case, Case, Family};
use crate::coverage::check_allgather_coverage;
use crate::runner::{Oracle, Tally};

/// Worker threads for the thread-pool verification runs.
const VERIFY_THREADS: usize = 4;

/// The differential oracle: cases round-robin across the four families,
/// each checked on the executor and the simulator. The model layer is the
/// separate [`check_model_envelope`] series.
#[derive(Debug, Clone)]
pub struct DifferentialOracle {
    /// The thor simulator every case is built for and run on, shared across
    /// cases (the sampler draws its cases for thor).
    sim: Simulator,
}

impl Default for DifferentialOracle {
    fn default() -> Self {
        DifferentialOracle {
            sim: Simulator::new(ClusterSpec::thor()).expect("thor spec validates"),
        }
    }
}

impl Oracle for DifferentialOracle {
    type Case = Case;

    fn sample(&self, rng: &mut StdRng, i: usize) -> Case {
        sample_case(rng, Family::ALL[i % Family::ALL.len()])
    }

    /// Checks one configuration across the executor and the simulator;
    /// fails with the first disagreement found.
    fn check(&self, case: &Case) -> Result<Tally, String> {
        let (sim, spec) = (&self.sim, self.sim.spec());
        let built = case
            .build(spec)
            .map_err(|e| format!("build failed: {e:?}"))?;
        let sch = &built.sched;

        // Structural + executor layers, plus static byte coverage.
        verify_built(&built, spec)?;
        check_allgather_coverage(&built).map_err(|e| format!("coverage: {e}"))?;

        // Simulator layer: full invariant audit.
        let mut audit = InvariantProbe::new();
        let result = sim
            .run_probed(sch, &mut audit)
            .map_err(|e| format!("simnet: {e}"))?;
        if !audit.is_clean() {
            return Err(format!("invariant violations: {}", audit.violations()[0]));
        }

        // Ordering agreement: every dependency edge completes in order in both
        // backends, and the simulated critical path's completion order is
        // reproduced by the executor's wall-clock stamps.
        let mut stamps = EndStamps::default();
        let store = BufferStore::new(sch);
        run_probed(sch, &store, Mode::Threaded(VERIFY_THREADS), &mut stamps)
            .map_err(|e| format!("probed exec: {e:?}"))?;
        for op in 0..sch.n_ops() as u32 {
            for &p in sch.preds(op) {
                let (ps, os) = (result.op_end[p as usize], result.op_end[op as usize]);
                if ps > os {
                    return Err(format!(
                        "simnet finished {op} at {os} before pred {p} at {ps}"
                    ));
                }
                let (pe, oe) = (stamps.end[p as usize], stamps.end[op as usize]);
                if pe > oe {
                    return Err(format!(
                        "executor finished {op} at {oe} before pred {p} at {pe}"
                    ));
                }
            }
        }
        let chain = critical_path(sch, &result.op_end);
        for w in chain.windows(2) {
            if stamps.end[w[0] as usize] > stamps.end[w[1] as usize] {
                return Err(format!(
                    "critical-path order diverged: executor finished {} after {}",
                    w[0], w[1]
                ));
            }
        }
        Ok(Tally::family(case.family))
    }

    fn describe(&self, case: &Case) -> String {
        case.describe()
    }
}

/// Records per-op completion stamps from a probed execution.
#[derive(Default)]
struct EndStamps {
    end: Vec<f64>,
}

impl Probe for EndStamps {
    fn begin_run(&mut self, fs: &FrozenSchedule, _backend: &'static str) {
        self.end = vec![f64::NAN; fs.n_ops()];
    }

    fn op_end(&mut self, op: u32, t: f64) {
        self.end[op as usize] = t;
    }
}

/// The structural and executor layers every built collective must pass:
/// validation, the race check, then MPI_Allgather semantics on the
/// sequential and the thread-pool executor (real bytes).
pub(crate) fn verify_built(built: &Built, spec: &ClusterSpec) -> Result<(), String> {
    let sch = &built.sched;
    mha_sched::validate(sch, Some(spec.rails)).map_err(|e| format!("validate: {e}"))?;
    let races = mha_sched::check_races(sch);
    if !races.is_empty() {
        return Err(format!("{} races, first on {}", races.len(), races[0].buf));
    }
    for (mode, name) in [
        (Mode::Single, "single"),
        (Mode::Threaded(VERIFY_THREADS), "threaded"),
    ] {
        mha_exec::verify_allgather(sch, &built.send, &built.recv, built.msg, mode)
            .map_err(|e| format!("verify {name}: {e:?}"))?;
    }
    Ok(())
}

/// The simulated critical path: from the last op to finish, walk backwards
/// through the latest-finishing predecessor. Returned root → sink.
pub fn critical_path(sch: &FrozenSchedule, op_end: &[f64]) -> Vec<u32> {
    let Some((mut cur, _)) = op_end.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) else {
        return Vec::new();
    };
    let mut chain = vec![cur as u32];
    while let Some(&p) = sch
        .preds(cur as u32)
        .iter()
        .max_by(|a, b| op_end[**a as usize].total_cmp(&op_end[**b as usize]))
    {
        chain.push(p);
        cur = p as usize;
    }
    chain.reverse();
    chain
}

/// The model layer: per-family large-message series checking that simulated
/// latency is monotone in message size and within `envelope` of the α–β
/// prediction (`[model / envelope, model · envelope]`). Returns one
/// description per failure (empty = pass).
///
/// Measured ratios on the seed engine are 0.91–1.47 across the series; an
/// envelope of 2.0 brackets them with headroom against incidental engine
/// drift while still catching a misplaced factor of L, H or N.
pub fn check_model_envelope(envelope: f64) -> Vec<String> {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let p = ModelParams::from_spec(&spec);
    let sizes = [16 * 1024usize, 64 * 1024, 256 * 1024];

    // (name, configuration, grid, model prediction in seconds)
    type Model<'a> = Box<dyn Fn(usize) -> f64 + 'a>;
    let series: Vec<(&str, AlgoConfig, ProcGrid, Model<'_>)> = vec![
        (
            "flat/ring 4x1",
            AlgoConfig::flat(AlgoFamily::Ring),
            ProcGrid::new(4, 1),
            // Textbook α–β ring over P ranks: (P−1) fully-striped steps.
            Box::new(|m| 3.0 * (p.rail_startup(m) + m as f64 / (p.bw_h * f64::from(p.h)))),
        ),
        (
            "mha/intra 1x8",
            AlgoConfig::mha_intra(Offload::Auto),
            ProcGrid::single_node(8),
            Box::new(|m| mha_intra_latency_auto(&p, 8, m)),
        ),
        (
            "mha/inter-ring 4x8",
            AlgoConfig::mha_inter(MhaInterConfig {
                inter: InterAlgo::Ring,
                offload: Offload::Auto,
                overlap: true,
            }),
            ProcGrid::new(4, 8),
            Box::new(|m| mha_inter_latency(&p, 4, 8, m, Phase2::Ring)),
        ),
    ];

    let mut failures = Vec::new();
    for (name, cfg, grid, model) in &series {
        let mut prev = 0.0f64;
        for &m in &sizes {
            let built = match build(cfg, *grid, m, &spec) {
                Ok(b) => b,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: build failed: {e:?}"));
                    continue;
                }
            };
            let t = match sim.run(&built.sched) {
                Ok(r) => r.makespan,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: simnet failed: {e}"));
                    continue;
                }
            };
            if t < prev {
                failures.push(format!(
                    "{name}: latency not monotone, {t:.3e}s at msg={m} after {prev:.3e}s"
                ));
            }
            prev = t;
            let predicted = model(m);
            let ratio = t / predicted;
            if !(1.0 / envelope..=envelope).contains(&ratio) {
                failures.push(format!(
                    "{name} msg={m}: simulated {t:.3e}s vs model {predicted:.3e}s \
                     (ratio {ratio:.2} outside ±{envelope}x)"
                ));
            }
        }
    }

    // Hierarchical series: the composer's 3-level NUMA schedule on the
    // NUMA spec, priced by the per-level model over the spec's own tree.
    {
        let name = "hier/numa3 4x2x8";
        let spec = ClusterSpec::thor_numa();
        let sim = Simulator::new(spec.clone()).unwrap();
        let p = ModelParams::from_spec(&spec);
        let topo = spec.topology_of(&ProcGrid::new(4, 16));
        let plan = mha_collectives::ComposePlan::numa3(true);
        let mut prev = 0.0f64;
        for &m in &sizes {
            let (built, predicted) = match (
                mha_collectives::build_composed(&topo, m, &plan, &spec),
                mha_model::composed_latency(&p, &topo, &plan, m),
            ) {
                (Ok(b), Some(t)) => (b, t),
                (Err(e), _) => {
                    failures.push(format!("{name} msg={m}: build failed: {e:?}"));
                    continue;
                }
                (_, None) => {
                    failures.push(format!("{name} msg={m}: model declined the plan"));
                    continue;
                }
            };
            let t = match sim.run(&built.sched) {
                Ok(r) => r.makespan,
                Err(e) => {
                    failures.push(format!("{name} msg={m}: simnet failed: {e}"));
                    continue;
                }
            };
            if t < prev {
                failures.push(format!(
                    "{name}: latency not monotone, {t:.3e}s at msg={m} after {prev:.3e}s"
                ));
            }
            prev = t;
            let ratio = t / predicted;
            if !(1.0 / envelope..=envelope).contains(&ratio) {
                failures.push(format!(
                    "{name} msg={m}: simulated {t:.3e}s vs model {predicted:.3e}s \
                     (ratio {ratio:.2} outside ±{envelope}x)"
                ));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_case_passes_every_layer() {
        let case = Case {
            family: Family::Mha,
            algo: AlgoConfig::default(),
            grid: ProcGrid::new(2, 4),
            msg: 512,
            tree: None,
        };
        DifferentialOracle::default().check(&case).unwrap();
    }

    #[test]
    fn critical_path_follows_latest_predecessors() {
        use mha_sched::{RankId, ScheduleBuilder};
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "cp");
        let a = b.compute(RankId(0), 100, &[], 0);
        let c = b.compute(RankId(1), 10_000, &[], 0);
        b.compute(RankId(0), 100, &[a, c], 1);
        let sch = b.finish().freeze();
        let sim = Simulator::new(ClusterSpec::thor()).unwrap();
        let r = sim.run(&sch).unwrap();
        assert_eq!(critical_path(&sch, &r.op_end), vec![1, 2]);
    }
}
