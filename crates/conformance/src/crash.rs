//! The crash oracle: seeded worker kills must recover byte-identically.
//!
//! Each crash case draws a collective configuration from one of the four
//! oracle families (flat / two-level / MHA / Hier) plus a kill seed, then
//! checks the same crash on both sides of the modeled-vs-executed pairing:
//!
//! * **executed (correctness)** — an unfailed sequential [`mha_exec::run`]
//!   is the reference; a deterministic single-executor kill at a seeded op
//!   index and a seeded [`KillPlan`] on the worker pool must both, after
//!   resuming with [`mha_exec::run_journaled`] from the completion journal,
//!   leave **every** buffer byte-identical to the reference —
//!   non-idempotent Reduce ops make any double-execution or skipped op
//!   visible;
//! * **modeled (latency)** — the same scenario as a node crash in `simnet`
//!   ([`FaultSpec::node_crash`]): the run must stay invariant-clean and
//!   the makespan must absorb the full recovery penalty.

use mha_collectives::Built;
use mha_exec::{run, run_journaled, BufferStore, CompletionJournal, ExecError, KillPlan, Mode};
use mha_sched::{FrozenSchedule, InvariantProbe};
use mha_simnet::{ClusterSpec, FaultSpec, Simulator};
use rand::{rngs::StdRng, Rng};

use crate::cases::{sample_case, Case, Family};
use crate::runner::{Oracle, Tally};

/// The crash oracle.
#[derive(Debug, Clone)]
pub struct CrashOracle {
    /// Worker threads for the kill-harness runs.
    pub threads: usize,
}

/// One randomly drawn crash case: a collective configuration plus the seed
/// driving both kill points (single-executor stop index, threaded
/// [`KillPlan`], crashed simnet node).
#[derive(Debug, Clone)]
pub struct CrashCase {
    /// The collective under test.
    pub case: Case,
    /// Seed for every kill decision in the case.
    pub kill_seed: u64,
}

impl Oracle for CrashOracle {
    type Case = CrashCase;

    /// Families round-robin, each case with its own kill seed.
    fn sample(&self, rng: &mut StdRng, i: usize) -> CrashCase {
        CrashCase {
            case: sample_case(rng, Family::ALL[i % Family::ALL.len()]),
            kill_seed: rng.gen_range(0..u64::MAX),
        }
    }

    /// The executed side, then the modeled side, of one crash.
    fn check(&self, crash: &CrashCase) -> Result<Tally, String> {
        let spec = ClusterSpec::thor();
        let built = crash
            .case
            .build(&spec)
            .map_err(|e| format!("build failed: {e:?}"))?;
        if built.sched.n_ops() > 0 {
            check_executed(&built, crash.kill_seed, self.threads)?;
            check_modeled(&built, crash, spec)?;
        }
        Ok(Tally::family(crash.case.family))
    }

    fn describe(&self, crash: &CrashCase) -> String {
        format!("{} kill_seed={:#x}", crash.case.describe(), crash.kill_seed)
    }
}

/// All buffer contents, in buffer-id order — the byte-exact recovery
/// oracle compares entire stores, not just the receive buffers, so a
/// resumed run may not even scribble differently on scratch space.
pub fn snapshot(sch: &FrozenSchedule, store: &BufferStore) -> Vec<Vec<u8>> {
    sch.buffers().iter().map(|b| store.read_all(b.id)).collect()
}

/// A store with every rank's send buffer filled with its distinct pattern.
pub fn seeded_store(built: &Built) -> BufferStore {
    let store = BufferStore::new(&built.sched);
    for (rank, &buf) in built.send.iter().enumerate() {
        store.fill(buf, 0, &mha_exec::rank_pattern(rank, built.msg));
    }
    store
}

/// The executed side: kill at a seeded point on both executors, resume
/// from the journal, require every buffer byte-identical to an unfailed run.
fn check_executed(built: &Built, kill_seed: u64, threads: usize) -> Result<(), String> {
    let sch = &built.sched;
    let n = sch.n_ops();

    // Reference: the unfailed run.
    let ref_store = seeded_store(built);
    run(sch, &ref_store, Mode::Single).map_err(|e| format!("reference run: {e}"))?;
    let want = snapshot(sch, &ref_store);
    // Recovery is complete and byte-identical to the unfailed run.
    let recovered = |what: &str, store: &BufferStore, journal: &CompletionJournal| {
        if !journal.is_complete() {
            let left = n - journal.len();
            return Err(format!("{what} left {left} of {n} ops unjournaled"));
        }
        if snapshot(sch, store) != want {
            return Err(format!("{what} diverged from the unfailed run"));
        }
        Ok(())
    };

    // Deterministic kill on the sequential executor: exactly `k` ops
    // retire, then the run dies; resume must finish the suffix.
    let k = (kill_seed % n as u64) as usize;
    let store = seeded_store(built);
    let journal = CompletionJournal::for_schedule(sch);
    match run_journaled(
        sch,
        &store,
        Mode::Single,
        &journal,
        Some(&KillPlan::new(k, vec![0])),
    ) {
        Err(ExecError::Killed { done, total }) => {
            if done != k || total != n {
                return Err(format!("single kill at {k}/{n} reported {done}/{total}"));
            }
        }
        Ok(()) => return Err(format!("single kill at {k} of {n} never fired")),
        Err(e) => return Err(format!("single kill: {e}")),
    }
    if journal.len() != k {
        return Err(format!(
            "journal holds {} ops, kill was at {k}",
            journal.len()
        ));
    }
    run_journaled(sch, &store, Mode::Single, &journal, None)
        .map_err(|e| format!("single resume: {e}"))?;
    recovered("single-executor recovery", &store, &journal)?;

    // Seeded worker-thread murder on the pool. A late kill point may let
    // the pool finish first (Ok) — the bytes must match either way.
    let plan = KillPlan::seeded(kill_seed, n, threads);
    let store = seeded_store(built);
    let journal = CompletionJournal::for_schedule(sch);
    match run_journaled(sch, &store, Mode::Threaded(threads), &journal, Some(&plan)) {
        Err(ExecError::Killed { done, total }) => {
            if done != journal.len() || total != n || done >= total {
                return Err(format!(
                    "threaded kill reported {done}/{total}, journal {}",
                    journal.len()
                ));
            }
            run_journaled(sch, &store, Mode::Threaded(threads), &journal, None)
                .map_err(|e| format!("threaded resume: {e}"))?;
        }
        Ok(()) => {}
        Err(e) => return Err(format!("threaded kill: {e}")),
    }
    recovered(
        &format!("threaded recovery (plan {plan:?})"),
        &store,
        &journal,
    )
}

/// The modeled side: the same crash as a simnet node outage. The seeded
/// node goes down at t = 0 and restarts after twice the fault-free
/// makespan, so a correct engine cannot finish before the restart; the run
/// must also stay invariant-clean.
fn check_modeled(built: &Built, crash: &CrashCase, spec: ClusterSpec) -> Result<(), String> {
    let m0 = Simulator::new(spec.clone())
        .map_err(|e| format!("simulator: {e}"))?
        .run(&built.sched)
        .map_err(|e| format!("fault-free sim: {e}"))?
        .makespan;
    let node = (crash.kill_seed % u64::from(crash.case.grid.nodes())) as u32;
    let recovery = 2.0 * m0;
    let sim = Simulator::with_faults(spec, FaultSpec::node_crash(node, 0.0, recovery))
        .map_err(|e| format!("simulator: {e}"))?;
    let mut audit = InvariantProbe::new();
    let m = sim
        .run_probed(&built.sched, &mut audit)
        .map_err(|e| format!("crashed sim: {e}"))?
        .makespan;
    if !audit.is_clean() {
        return Err(format!(
            "invariant violations under node crash: {}",
            audit.violations()[0]
        ));
    }
    if m < recovery {
        return Err(format!(
            "node {node} was down until {recovery:.3e}s but the run finished at {m:.3e}s"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_single_crash_case_recovers_on_both_sides() {
        let mut rng = StdRng::seed_from_u64(1);
        let crash = CrashOracle { threads: 4 }.sample(&mut rng, 2);
        assert_eq!(crash.case.family, Family::Mha);
        CrashOracle { threads: 4 }.check(&crash).unwrap();
    }

    #[test]
    fn every_family_survives_a_crash() {
        let oracle = CrashOracle { threads: 3 };
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..Family::ALL.len() {
            let crash = oracle.sample(&mut rng, i);
            oracle
                .check(&crash)
                .unwrap_or_else(|e| panic!("{}: {e}", oracle.describe(&crash)));
        }
    }
}
