//! The fault-case oracle: random rail-fault schedules must not break the
//! collective.
//!
//! For each randomly drawn fault case (`H`-rail cluster, `k` rails down at
//! t = 0, a hierarchical Allgather built failure-aware against the
//! surviving set) the oracle checks:
//!
//! * **correctness** — the degraded schedule still passes validation, the
//!   race check, and MPI_Allgather semantics on both executors (the
//!   fault-oblivious build is checked alongside it as a control);
//! * **invariants** — simulating the degraded schedule under the fault
//!   timeline passes the full [`mha_sched::InvariantProbe`] audit,
//!   including the "no flow progresses on a down rail" probe;
//! * **degradation envelope** — for bandwidth-regime messages, the
//!   simulated latency with `k` failed rails is within a multiplicative
//!   envelope of the α–β model evaluated at `H − k` rails.

use mha_bench::campaign::simulator_for;
use mha_collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha_collectives::{build, AlgoConfig};
use mha_model::{mha_inter_latency, ModelParams, Phase2};
use mha_sched::{InvariantProbe, ProcGrid};
use mha_simnet::{ClusterSpec, FaultSpec};
use rand::{rngs::StdRng, Rng};

use crate::cases::{either, pick};
use crate::oracle::verify_built;
use crate::runner::{Oracle, Tally};

/// The fault-case oracle.
#[derive(Debug, Clone)]
pub struct FaultOracle {
    /// Degraded latency must lie within `[model / envelope,
    /// model · envelope]` of the α–β prediction at `H − k` rails.
    pub envelope: f64,
}

/// One randomly drawn fault case.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// Rails per node of the cluster under test.
    pub rails: u8,
    /// Rails taken down at t = 0 (distinct, strictly fewer than `rails`).
    pub down: Vec<u8>,
    /// Process layout.
    pub grid: ProcGrid,
    /// Per-rank contribution size in bytes.
    pub msg: usize,
    /// Phase-2 exchange pattern.
    pub inter: InterAlgo,
    /// Intra-node offload policy.
    pub offload: Offload,
}

impl Oracle for FaultOracle {
    type Case = FaultCase;

    /// Node counts stay powers of two so both phase-2 patterns are always
    /// buildable.
    fn sample(&self, rng: &mut StdRng, _i: usize) -> FaultCase {
        let rails = pick(rng, &[2u8, 4, 8]);
        let k = rng.gen_range(0..rails) as usize;
        let mut all: Vec<u8> = (0..rails).collect();
        for i in 0..k {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        let mut down = all[..k].to_vec();
        down.sort_unstable();
        FaultCase {
            rails,
            down,
            grid: ProcGrid::new(pick(rng, &[2u32, 4]), pick(rng, &[1u32, 2, 4])),
            msg: pick(rng, &[1024usize, 16 * 1024, 64 * 1024]),
            inter: either(rng, InterAlgo::Ring, InterAlgo::RecursiveDoubling),
            offload: either(rng, Offload::Auto, Offload::None),
        }
    }

    /// Tallies `envelope` when the degradation envelope was evaluated (it
    /// is skipped in the startup-dominated small-message regime, where an
    /// α–β bandwidth model is not the right yardstick).
    fn check(&self, case: &FaultCase) -> Result<Tally, String> {
        let spec = ClusterSpec::thor_with_rails(case.rails);
        let cfg = AlgoConfig::mha_inter(MhaInterConfig {
            inter: case.inter,
            offload: case.offload,
            overlap: true,
        });

        // Control: the fault-oblivious build stays healthy.
        let base = build(&cfg, case.grid, case.msg, &spec)
            .map_err(|e| format!("baseline build failed: {e:?}"))?;
        verify_built(&base, &spec).map_err(|e| format!("baseline {e}"))?;

        // The failure-aware build must be just as correct.
        let degraded = AlgoConfig {
            down_rails: case.down.clone(),
            ..cfg
        };
        let deg = build(&degraded, case.grid, case.msg, &spec)
            .map_err(|e| format!("degraded build failed: {e:?}"))?;
        verify_built(&deg, &spec).map_err(|e| format!("degraded {e}"))?;

        // Simulate the degraded schedule under the fault timeline with the
        // full invariant audit (includes the down-rail progress probe). An
        // empty down-set must not pay for a fault interpreter: `simulator_for`
        // takes the engine's fault-free branch when the timeline is empty.
        let mut faults = FaultSpec::new(mha_simnet::DEFAULT_RETRY_TIMEOUT);
        for &r in &case.down {
            faults = faults.with_event(mha_simnet::FaultEvent {
                time: 0.0,
                rail: r,
                node: None,
                kind: mha_simnet::FaultKind::Down,
            });
        }
        let sim = simulator_for(&spec, Some(&faults)).map_err(|e| format!("simulator: {e}"))?;
        let mut audit = InvariantProbe::new();
        let result = sim
            .run_probed(&deg.sched, &mut audit)
            .map_err(|e| format!("faulted simnet: {e}"))?;
        if !audit.is_clean() {
            return Err(format!(
                "invariant violations under faults: {}",
                audit.violations()[0]
            ));
        }

        // Degradation envelope: latency with k failed rails vs the α–β model
        // at H − k rails. Only meaningful once bandwidth dominates startup.
        if case.msg < spec.stripe_threshold {
            return Ok(Tally::default());
        }
        let survivors = case.rails - case.down.len() as u8;
        let p = ModelParams::from_spec(&ClusterSpec::thor_with_rails(survivors));
        let phase2 = match case.inter {
            InterAlgo::Ring => Phase2::Ring,
            InterAlgo::RecursiveDoubling => Phase2::RecursiveDoubling,
        };
        let predicted = mha_inter_latency(&p, case.grid.nodes(), case.grid.ppn(), case.msg, phase2);
        let (ratio, envelope) = (result.makespan / predicted, self.envelope);
        if !(1.0 / envelope..=envelope).contains(&ratio) {
            return Err(format!(
                "degraded latency {:.3e}s vs model at {survivors} rails {predicted:.3e}s \
                 (ratio {ratio:.2} outside ±{envelope}x)",
                result.makespan
            ));
        }
        Ok(Tally {
            envelope: 1,
            ..Tally::default()
        })
    }

    fn describe(&self, case: &FaultCase) -> String {
        format!(
            "{:?} {}x{} msg={} rails={} down={:?}",
            case.inter,
            case.grid.nodes(),
            case.grid.ppn(),
            case.msg,
            case.rails,
            case.down
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const ORACLE: FaultOracle = FaultOracle { envelope: 2.0 };

    #[test]
    fn a_single_fault_case_passes_every_layer() {
        let case = FaultCase {
            rails: 4,
            down: vec![1],
            grid: ProcGrid::new(4, 2),
            msg: 64 * 1024,
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
        };
        assert_eq!(ORACLE.check(&case).unwrap().envelope, 1);
    }

    #[test]
    fn sampled_cases_always_leave_a_survivor() {
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..200 {
            let c = ORACLE.sample(&mut rng, i);
            assert!(c.down.len() < c.rails as usize);
            let mut d = c.down.clone();
            d.dedup();
            assert_eq!(d.len(), c.down.len(), "duplicate down rails");
        }
    }

    #[test]
    fn a_zero_fault_case_stays_on_the_fault_free_path() {
        // An empty down-set is a valid draw; it must check out clean and
        // its simulator must take the fault-free branch (no interpreter).
        let spec = ClusterSpec::thor_with_rails(4);
        let empty = FaultSpec::new(mha_simnet::DEFAULT_RETRY_TIMEOUT);
        assert!(!simulator_for(&spec, Some(&empty)).unwrap().faults_active());
        let case = FaultCase {
            rails: 4,
            down: vec![],
            grid: ProcGrid::new(2, 2),
            msg: 64 * 1024,
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
        };
        assert_eq!(ORACLE.check(&case).unwrap().envelope, 1);
    }
}
