//! Journal torture: kill *every* worker of an 8-thread pool at a random
//! point and prove byte-exact recovery.
//!
//! The schedule is an allgather-shaped mesh (every rank's pattern copied
//! into every rank's receive window) overlaid with per-rank non-idempotent
//! Reduce chains — wide enough that all 8 workers are busy when the
//! staggered kill wave hits, with enough partial-completion states to
//! exercise write-coverage races: any op that re-executes (double-summed
//! accumulator) or is lost (hole in a receive window) breaks byte-identity
//! with the sequential reference run.

use mha_exec::{run, run_journaled, BufferStore, CompletionJournal, ExecError, KillPlan, Mode};
use mha_sched::{
    BufId, Channel, DType, FrozenSchedule, Loc, ProcGrid, RankId, RedOp, ScheduleBuilder,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const RANKS: u32 = 8;
const MSG: usize = 512;
const TERMS: usize = 6;
const THREADS: usize = 8;

struct Mesh {
    sch: FrozenSchedule,
    send: Vec<BufId>,
    recv: Vec<BufId>,
    accs: Vec<BufId>,
    terms: Vec<Vec<BufId>>,
}

/// `RANKS` ranks on one node: a full P×P copy/CMA mesh into per-rank
/// receive windows plus a `TERMS`-long Reduce chain per rank.
fn mesh() -> Mesh {
    let grid = ProcGrid::single_node(RANKS);
    let mut b = ScheduleBuilder::new(grid, "torture");
    let send: Vec<BufId> = (0..RANKS)
        .map(|r| b.private_buf(RankId(r), MSG, format!("send{r}")))
        .collect();
    let recv: Vec<BufId> = (0..RANKS)
        .map(|r| b.private_buf(RankId(r), MSG * RANKS as usize, format!("recv{r}")))
        .collect();
    for dst in 0..RANKS {
        for src in 0..RANKS {
            let to = Loc::new(recv[dst as usize], src as usize * MSG);
            if src == dst {
                b.copy(
                    RankId(dst),
                    Loc::new(send[src as usize], 0),
                    to,
                    MSG,
                    &[],
                    0,
                );
            } else {
                b.transfer(
                    RankId(src),
                    RankId(dst),
                    Loc::new(send[src as usize], 0),
                    to,
                    MSG,
                    Channel::Cma,
                    &[],
                    0,
                );
            }
        }
    }
    let mut accs = Vec::new();
    let mut terms = Vec::new();
    for r in 0..RANKS {
        let acc = b.private_buf(RankId(r), 8, format!("acc{r}"));
        let mut ts = Vec::new();
        let mut prev = None;
        for t in 0..TERMS {
            let term = b.private_buf(RankId(r), 8, format!("t{r}_{t}"));
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.reduce(
                RankId(r),
                Loc::new(acc, 0),
                Loc::new(term, 0),
                8,
                DType::F64,
                RedOp::Sum,
                &deps,
                1 + t as u32,
            ));
            ts.push(term);
        }
        accs.push(acc);
        terms.push(ts);
    }
    Mesh {
        sch: b.finish().freeze(),
        send,
        recv,
        accs,
        terms,
    }
}

fn seeded_store(m: &Mesh) -> BufferStore {
    let store = BufferStore::new(&m.sch);
    for (r, &buf) in m.send.iter().enumerate() {
        store.fill(buf, 0, &mha_exec::rank_pattern(r, MSG));
    }
    for (r, (&acc, ts)) in m.accs.iter().zip(&m.terms).enumerate() {
        store.fill(acc, 0, &(r as f64).to_ne_bytes());
        for (t, &term) in ts.iter().enumerate() {
            store.fill(term, 0, &((r + t) as f64 + 0.5).to_ne_bytes());
        }
    }
    store
}

fn snapshot(m: &Mesh, store: &BufferStore) -> Vec<Vec<u8>> {
    m.sch
        .buffers()
        .iter()
        .map(|b| store.read_all(b.id))
        .collect()
}

#[test]
fn killing_every_worker_recovers_byte_identically() {
    let m = mesh();
    let n = m.sch.n_ops();
    assert!(n > THREADS, "mesh too small to torture");

    let ref_store = seeded_store(&m);
    run(&m.sch, &ref_store, Mode::Single).unwrap();
    let want = snapshot(&m, &ref_store);
    // Sanity on the reference itself: every receive window filled, every
    // accumulator holds its closed-form sum.
    for (dst, &recv) in m.recv.iter().enumerate() {
        let bytes = ref_store.read_all(recv);
        for src in 0..RANKS as usize {
            assert_eq!(
                &bytes[src * MSG..(src + 1) * MSG],
                &mha_exec::rank_pattern(src, MSG)[..],
                "reference hole at recv[{dst}] from {src}"
            );
        }
    }
    for (r, &acc) in m.accs.iter().enumerate() {
        let got = f64::from_ne_bytes(ref_store.read_all(acc).try_into().unwrap());
        let terms: f64 = (0..TERMS).map(|t| (r + t) as f64 + 0.5).sum();
        assert_eq!(got, r as f64 + terms, "reference acc[{r}]");
    }

    let mut rng = StdRng::seed_from_u64(0x7047);
    for round in 0..40 {
        let k = rng.gen_range(0..n);
        let plan = KillPlan::kill_all(k, THREADS);
        let store = seeded_store(&m);
        let journal = CompletionJournal::for_schedule(&m.sch);
        match run_journaled(
            &m.sch,
            &store,
            Mode::Threaded(THREADS),
            &journal,
            Some(&plan),
        ) {
            Err(ExecError::Killed { done, total }) => {
                assert_eq!(total, n);
                assert!(done < n, "round {round}: killed run claims completion");
                assert_eq!(done, journal.len());
                run_journaled(&m.sch, &store, Mode::Threaded(THREADS), &journal, None)
                    .unwrap_or_else(|e| panic!("round {round} (k={k}): resume: {e}"));
            }
            // Kill points at the very end can lose the race with the pool.
            Ok(()) => {}
            Err(e) => panic!("round {round} (k={k}): {e}"),
        }
        assert!(journal.is_complete(), "round {round} (k={k})");
        assert_eq!(
            snapshot(&m, &store),
            want,
            "round {round}: kill-all at {k} diverged after recovery"
        );
    }
}

#[test]
fn repeated_crashes_of_the_same_run_converge() {
    // Crash, resume under a *new* kill plan, crash again — each resume
    // carries the same journal forward until the pool finally wins.
    let m = mesh();
    let n = m.sch.n_ops();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..10 {
        let store = seeded_store(&m);
        let journal = CompletionJournal::for_schedule(&m.sch);
        let mut crashes = 0usize;
        loop {
            let plan = KillPlan::seeded(rng.gen_range(0..u64::MAX), n, THREADS);
            match run_journaled(
                &m.sch,
                &store,
                Mode::Threaded(THREADS),
                &journal,
                Some(&plan),
            ) {
                Err(ExecError::Killed { .. }) => {
                    // A plan whose kill point is already behind the journal
                    // kills instantly with little or no progress — legal,
                    // just unproductive. Guard against a true livelock only.
                    crashes += 1;
                    assert!(crashes <= 10_000, "round {round}: no forward progress");
                }
                Ok(()) => break,
                Err(e) => panic!("round {round}: {e}"),
            }
        }
        assert!(journal.is_complete());
        let ref_store = seeded_store(&m);
        run(&m.sch, &ref_store, Mode::Single).unwrap();
        assert_eq!(
            snapshot(&m, &store),
            snapshot(&m, &ref_store),
            "round {round} diverged after {crashes} crashes"
        );
    }
}
