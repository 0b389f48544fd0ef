//! The crash-oracle acceptance bar plus the journal property suite.
//!
//! * ≥ 100 seeded kill schedules across all four collective families must
//!   recover **byte-identically** to an unfailed run on both the Single and
//!   Threaded executors, and the same crash modeled as a simnet node outage
//!   must stay invariant-clean with a makespan that absorbs the recovery
//!   penalty.
//! * 200 seeded (schedule, kill-point) pairs: journal replay is idempotent
//!   (resume twice ≡ resume once) and a journal claiming an op whose
//!   dependencies are incomplete is rejected with a typed error.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_conformance::crash::{seeded_store, snapshot};
use mha_conformance::{run, sample_case, CrashOracle, Family};
use mha_exec::{run_journaled, CompletionJournal, ExecError, JournalError, KillPlan, Mode};
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn crash_oracle_sweep_has_zero_disagreements() {
    let cases = knob("MHA_CRASH_CASES", 100);
    assert!(cases >= 100, "acceptance bar requires >= 100 cases");
    let oracle = CrashOracle {
        threads: knob("MHA_CRASH_THREADS", 4),
    };
    let report = run(
        &oracle,
        cases,
        knob("MHA_CRASH_SEED", 0xDEAD),
        &CampaignConfig::from_env(),
    );
    report.assert_clean();
}

/// 200 seeded (schedule, kill-point) pairs: after a kill at op `k`,
/// resuming twice (and once more on the pool for good measure) leaves the
/// journal and every buffer exactly as a single resume does.
#[test]
fn journal_replay_is_idempotent_over_200_pairs() {
    let spec = ClusterSpec::thor();
    let mut rng = StdRng::seed_from_u64(0xD0_0DEAD);
    let mut checked = 0usize;
    while checked < 200 {
        let case = sample_case(&mut rng, Family::ALL[checked % Family::ALL.len()]);
        let built = case.build(&spec).expect("oracle cases always build");
        let sch = &built.sched;
        let n = sch.n_ops();
        if n == 0 {
            continue;
        }
        let k = rng.gen_range(0..n);

        let store = seeded_store(&built);
        let journal = CompletionJournal::for_schedule(sch);
        match run_journaled(
            sch,
            &store,
            Mode::Single,
            &journal,
            Some(&KillPlan::new(k, vec![0])),
        ) {
            Err(ExecError::Killed { .. }) => {}
            other => panic!("{}: kill at {k} of {n}: {other:?}", case.describe()),
        }
        run_journaled(sch, &store, Mode::Single, &journal, None)
            .unwrap_or_else(|e| panic!("{}: first resume: {e}", case.describe()));
        let once = snapshot(sch, &store);
        let len_once = journal.len();
        let digest_once = journal.digest();

        // Second (and third, threaded) resume: nothing left to do, nothing
        // may change — not the bytes, not the journal.
        run_journaled(sch, &store, Mode::Single, &journal, None)
            .unwrap_or_else(|e| panic!("{}: second resume: {e}", case.describe()));
        run_journaled(sch, &store, Mode::Threaded(3), &journal, None)
            .unwrap_or_else(|e| panic!("{}: threaded resume: {e}", case.describe()));
        assert_eq!(journal.len(), len_once, "{}: journal grew", case.describe());
        assert_eq!(
            journal.digest(),
            digest_once,
            "{}: journal mutated",
            case.describe()
        );
        assert_eq!(
            snapshot(sch, &store),
            once,
            "{}: bytes changed on re-resume",
            case.describe()
        );

        // And the recovered bytes match an unfailed run.
        let ref_store = seeded_store(&built);
        mha_exec::run(sch, &ref_store, Mode::Single).unwrap();
        assert_eq!(
            once,
            snapshot(sch, &ref_store),
            "{}: recovery diverged",
            case.describe()
        );
        checked += 1;
    }
}

/// A journal claiming an op whose dependencies are incomplete must be
/// rejected with the typed [`JournalError::DepIncomplete`] by validation
/// and by every resume entry point.
#[test]
fn dependency_incomplete_journals_are_rejected_typed() {
    let spec = ClusterSpec::thor();
    let mut rng = StdRng::seed_from_u64(0xBAD_5EED);
    let mut checked = 0usize;
    while checked < 50 {
        let case = sample_case(&mut rng, Family::ALL[checked % Family::ALL.len()]);
        let built = case.build(&spec).expect("oracle cases always build");
        let sch = &built.sched;
        // Find an op with at least one dependency and journal it alone.
        let Some(op) = (0..sch.n_ops() as u32).find(|&i| !sch.preds(i).is_empty()) else {
            continue;
        };
        let dep = sch.preds(op)[0];
        let journal = CompletionJournal::from_entries(sch.n_ops(), vec![op]);
        let err = journal.validate(sch).unwrap_err();
        assert_eq!(
            err,
            JournalError::DepIncomplete { op, dep },
            "{}",
            case.describe()
        );
        let store = seeded_store(&built);
        assert!(matches!(
            run_journaled(sch, &store, Mode::Single, &journal, None),
            Err(ExecError::Journal(JournalError::DepIncomplete { .. }))
        ));
        assert!(matches!(
            run_journaled(sch, &store, Mode::Threaded(2), &journal, None),
            Err(ExecError::Journal(JournalError::DepIncomplete { .. }))
        ));
        checked += 1;
    }
}
