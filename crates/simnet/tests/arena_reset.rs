//! Arena-reset regression: replaying one frozen schedule through a single
//! [`EngineArena`] must be a pure reset — every repetition lands on the
//! same makespan bits as a fresh-state run and passes the full invariant
//! audit. This is the property the campaign runner's per-worker arenas
//! lean on.

use mha_sched::{Channel, InvariantProbe, Loc, NullProbe, ProcGrid, RankId, ScheduleBuilder};
use mha_simnet::{ClusterSpec, EngineArena, Simulator};

/// A small but non-trivial schedule: a 4-rank inter-node ring step with a
/// dependent intra-node copy fan-out, exercising rails, CMA and deps.
fn ring_step_schedule(msg: usize) -> mha_sched::FrozenSchedule {
    let grid = ProcGrid::new(2, 2);
    let mut b = ScheduleBuilder::new(grid, "arena-reset");
    for node in 0..2u32 {
        let src = RankId(node * 2);
        let dst = RankId(((node + 1) % 2) * 2);
        let s = b.private_buf(src, msg, "s");
        let d = b.private_buf(dst, msg, "d");
        let t = b.transfer(
            src,
            dst,
            Loc::new(s, 0),
            Loc::new(d, 0),
            msg,
            Channel::AllRails,
            &[],
            0,
        );
        let leader = RankId(((node + 1) % 2) * 2);
        let peer = RankId(((node + 1) % 2) * 2 + 1);
        let p = b.private_buf(peer, msg, "p");
        b.transfer(
            leader,
            peer,
            Loc::new(d, 0),
            Loc::new(p, 0),
            msg,
            Channel::Cma,
            &[t],
            1,
        );
    }
    b.finish().freeze()
}

#[test]
fn a_hundred_replays_through_one_arena_are_bit_identical_and_clean() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec).unwrap();
    let sch = ring_step_schedule(256 * 1024);

    // Fresh-state reference.
    let reference = sim.run(&sch).unwrap().makespan;

    let mut arena = EngineArena::new();
    for rep in 0..100 {
        let mut audit = InvariantProbe::new();
        let r = sim.run_probed_in(&sch, &mut audit, &mut arena).unwrap();
        audit.assert_clean();
        assert_eq!(
            r.makespan.to_bits(),
            reference.to_bits(),
            "rep {rep}: arena replay drifted off the fresh-state makespan"
        );
    }
}

#[test]
fn one_arena_serves_different_schedules_and_clusters() {
    // The arena revalidates its cached resource map against (grid, spec);
    // interleaving two schedules and two cluster models through one arena
    // must still match fresh-state runs bit-for-bit.
    let thor = Simulator::new(ClusterSpec::thor()).unwrap();
    let single = Simulator::new(ClusterSpec::thor_single_rail()).unwrap();
    let small = ring_step_schedule(4096);
    let big = ring_step_schedule(1 << 20);

    let fresh: Vec<f64> = [
        thor.run(&small).unwrap().makespan,
        thor.run(&big).unwrap().makespan,
        single.run(&small).unwrap().makespan,
        single.run(&big).unwrap().makespan,
    ]
    .to_vec();

    let mut arena = EngineArena::new();
    for round in 0..5 {
        let replayed = [
            thor.run_probed_in(&small, &mut NullProbe, &mut arena)
                .unwrap()
                .makespan,
            thor.run_probed_in(&big, &mut NullProbe, &mut arena)
                .unwrap()
                .makespan,
            single
                .run_probed_in(&small, &mut NullProbe, &mut arena)
                .unwrap()
                .makespan,
            single
                .run_probed_in(&big, &mut NullProbe, &mut arena)
                .unwrap()
                .makespan,
        ];
        for (i, (f, r)) in fresh.iter().zip(&replayed).enumerate() {
            assert_eq!(
                f.to_bits(),
                r.to_bits(),
                "round {round}, workload {i}: interleaved arena reuse drifted"
            );
        }
    }
}
