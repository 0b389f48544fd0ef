//! The engine-vs-reference acceptance bars: ≥ 100 random schedules — a
//! third of them under random rail-fault timelines — simulated through
//! the engine and through the plain [`ReferenceSim`] with zero bitwise
//! divergence, plus two hand-built schedules replayed through one warm
//! engine arena.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_conformance::{run, waterfill::bit_diff, ReferenceSim, WaterfillOracle};
use mha_sched::{Channel, FrozenSchedule, Loc, NullProbe, ProcGrid, RankId, ScheduleBuilder};
use mha_simnet::{ClusterSpec, EngineArena, FaultSpec, Simulator};

#[test]
fn engine_matches_the_reference_simulator_on_random_schedules() {
    let cases = knob("MHA_WATERFILL_CASES", 120);
    assert!(cases >= 100, "acceptance bar requires >= 100 cases");
    let seed = knob("MHA_WATERFILL_SEED", 0x7A7E2);
    let report = run(&WaterfillOracle, cases, seed, &CampaignConfig::from_env());
    report.assert_clean();
    assert!(
        report.tally.faulted >= cases / 4,
        "too few faulted cases: {}",
        report.tally.faulted
    );
}

/// A `len`-byte transfer from rank `src` to rank `dst` on `ch`, between
/// fresh private buffers.
fn transfer(
    b: &mut ScheduleBuilder,
    src: u32,
    dst: u32,
    len: usize,
    ch: Channel,
    deps: &[mha_sched::OpId],
    step: u32,
) -> mha_sched::OpId {
    let s = b.private_buf(RankId(src), len, "s");
    let d = b.private_buf(RankId(dst), len, "d");
    b.transfer(
        RankId(src),
        RankId(dst),
        Loc::new(s, 0),
        Loc::new(d, 0),
        len,
        ch,
        deps,
        step,
    )
}

/// A striped + round-robin + CMA mix on 2×2 ranks: flow-slot recycling
/// and multi-flow components.
fn mixed_sched() -> FrozenSchedule {
    let mut b = ScheduleBuilder::new(ProcGrid::new(2, 2), "mix");
    for r in 0..2u32 {
        let t1 = transfer(&mut b, r, r + 2, 256 * 1024, Channel::AllRails, &[], 0);
        transfer(&mut b, r, r + 2, 4096, Channel::AllRails, &[t1], 1);
    }
    transfer(&mut b, 0, 1, 256 * 1024, Channel::Cma, &[], 0);
    b.finish().freeze()
}

/// One striped 1 MiB inter-node transfer on 2×1 ranks.
fn rail_sched() -> FrozenSchedule {
    let mut b = ScheduleBuilder::new(ProcGrid::new(2, 1), "fault");
    transfer(&mut b, 0, 1, 1 << 20, Channel::AllRails, &[], 0);
    b.finish().freeze()
}

/// The engine agrees bit for bit with the reference on a mixed schedule
/// and on a flapping rail (stall, retry, resume), cold and through three
/// warm reps of one arena — the memo replays components solved in earlier
/// reps, the reference re-solves them all.
#[test]
fn engine_and_reference_agree_bit_for_bit_through_warm_arenas() {
    let mut faults = FaultSpec::flap(0, 50e-6, 120e-6);
    faults.retry_timeout = 10e-6;
    let cases = [
        (
            Simulator::new(ClusterSpec::thor()).unwrap(),
            mixed_sched(),
            "mixed schedule",
        ),
        (
            Simulator::with_faults(ClusterSpec::thor(), faults).unwrap(),
            rail_sched(),
            "flapping rail",
        ),
    ];
    for (sim, sch, what) in &cases {
        let reference = ReferenceSim::new(sim).run(sch).unwrap();
        let mut arena = EngineArena::new();
        for rep in 0..3 {
            let engine = sim.run_probed_in(sch, &mut NullProbe, &mut arena).unwrap();
            if let Some(d) = bit_diff(&engine, &reference) {
                panic!("{what} rep {rep}: {d}");
            }
        }
    }
}
