//! Crash-path regression pins — the crash analogue of `fault_golden.rs`.
//!
//! One canonical kill-at-op-k/resume run (thor, the default MHA-inter 4×4
//! build at 64 KB, sequential executor killed halfway) is pinned
//! **bit-exactly**: the journal length at the kill, the completed journal's
//! order-sensitive digest, and an FNV-1a hash over every recovered buffer
//! byte. The recovery machinery must stay deterministic; on an intentional
//! schedule or journal change, re-pin from the bits printed by the
//! assertion failure.

use mha::collectives::{build, AlgoConfig};
use mha::exec::{run, run_journaled, BufferStore, CompletionJournal, ExecError, KillPlan, Mode};
use mha::sched::{FrozenSchedule, ProcGrid};
use mha::simnet::ClusterSpec;

/// FNV-1a over every buffer of the store, in buffer-id order.
fn store_hash(sch: &FrozenSchedule, store: &BufferStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sch.buffers() {
        for byte in store.read_all(b.id) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn canonical_kill_resume_run_is_bit_identical() {
    const WANT_OPS: usize = 124;
    const WANT_KILL: usize = 62;
    const WANT_JOURNAL_DIGEST: u64 = 0x99230d19d7061cc5;
    const WANT_STORE_HASH: u64 = 0x80c8643ed99954a9;

    let spec = ClusterSpec::thor();
    let built = build(
        &AlgoConfig::default(),
        ProcGrid::new(4, 4),
        64 * 1024,
        &spec,
    )
    .unwrap();
    let sch = &built.sched;
    assert_eq!(sch.n_ops(), WANT_OPS, "canonical schedule changed shape");

    let store = BufferStore::new(sch);
    for (rank, &buf) in built.send.iter().enumerate() {
        store.fill(buf, 0, &mha::exec::rank_pattern(rank, built.msg));
    }

    let k = sch.n_ops() / 2;
    assert_eq!(k, WANT_KILL);
    let journal = CompletionJournal::for_schedule(sch);
    match run_journaled(
        sch,
        &store,
        Mode::Single,
        &journal,
        Some(&KillPlan::new(k, vec![0])),
    ) {
        Err(ExecError::Killed { done, total }) => {
            assert_eq!((done, total), (WANT_KILL, WANT_OPS));
        }
        other => panic!("kill at {k} did not fire: {other:?}"),
    }
    assert_eq!(
        journal.len(),
        WANT_KILL,
        "journal length at the kill drifted"
    );

    run_journaled(sch, &store, Mode::Single, &journal, None).unwrap();
    assert!(journal.is_complete());

    // The recovered bytes must equal an unfailed run...
    let ref_store = BufferStore::new(sch);
    for (rank, &buf) in built.send.iter().enumerate() {
        ref_store.fill(buf, 0, &mha::exec::rank_pattern(rank, built.msg));
    }
    run(sch, &ref_store, Mode::Single).unwrap();
    assert_eq!(
        store_hash(sch, &store),
        store_hash(sch, &ref_store),
        "recovery diverged from the unfailed run"
    );

    // ...and both are pinned bit-exactly against history.
    let got_digest = journal.digest();
    let got_hash = store_hash(sch, &store);
    assert_eq!(
        got_digest, WANT_JOURNAL_DIGEST,
        "journal digest drifted: got 0x{got_digest:016x}, golden 0x{WANT_JOURNAL_DIGEST:016x}"
    );
    assert_eq!(
        got_hash, WANT_STORE_HASH,
        "recovered store hash drifted: got 0x{got_hash:016x}, golden 0x{WANT_STORE_HASH:016x}"
    );
}
