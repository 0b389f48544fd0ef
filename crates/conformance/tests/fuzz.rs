//! The fuzzer acceptance bar: every seeded mutant killed, killed mutants
//! shrink to verdict-preserving minimal reproductions, and survivors of
//! random fuzzing are genuinely correct schedules.

mod common;

use common::knob;
use mha_collectives::mha::MhaInterConfig;
use mha_collectives::AllgatherAlgo;
use mha_conformance::fuzz::{apply, find_killable_edge_drop, random_mutation};
use mha_conformance::{judge, seeded_mutants, shrink, FuzzTarget, Verdict};
use mha_exec::Mode;
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn targets() -> Vec<(String, FuzzTarget)> {
    let spec = ClusterSpec::thor();
    [
        (AllgatherAlgo::Ring, ProcGrid::new(2, 2)),
        (AllgatherAlgo::Bruck, ProcGrid::single_node(4)),
        (
            AllgatherAlgo::MhaInter(MhaInterConfig::default()),
            ProcGrid::new(2, 4),
        ),
    ]
    .into_iter()
    .map(|(algo, grid)| {
        let built = algo.build(grid, 64, &spec).unwrap();
        (
            format!("{} {}x{}", algo.name(), grid.nodes(), grid.ppn()),
            FuzzTarget::from_built(&built, spec.rails),
        )
    })
    .collect()
}

#[test]
fn every_seeded_mutant_is_killed() {
    for (name, target) in targets() {
        let seeded = seeded_mutants(&target.spec);
        assert!(
            seeded.len() >= 3,
            "{name}: expected several applicable mutant classes, got {seeded:?}"
        );
        for (class, m) in seeded {
            let mutant = apply(&target.spec, m).unwrap();
            let verdict = judge(&target, &mutant);
            assert!(
                verdict.killed(),
                "{name}: seeded mutant {class} survived every checker"
            );
        }
        // The orphaned-op class: some dependency edge must be load-bearing.
        let drop = find_killable_edge_drop(&target)
            .unwrap_or_else(|| panic!("{name}: every single edge drop survived"));
        let mutant = apply(&target.spec, drop).unwrap();
        assert!(judge(&target, &mutant).killed());
    }
}

#[test]
fn killed_mutants_shrink_to_minimal_reproductions() {
    let (name, target) = targets().remove(0);
    for (class, m) in seeded_mutants(&target.spec) {
        let mutant = apply(&target.spec, m).unwrap();
        if !judge(&target, &mutant).killed() {
            continue; // every_seeded_mutant_is_killed covers the bar
        }
        let minimal = shrink(&target, &mutant);
        assert!(
            minimal.n_ops() <= mutant.n_ops(),
            "{name}/{class}: shrinking grew the schedule"
        );
        assert!(
            judge(&target, &minimal).killed(),
            "{name}/{class}: shrunk mutant no longer killed"
        );
    }
}

#[test]
fn random_fuzzing_survivors_are_genuinely_correct() {
    let budget: usize = knob("MHA_FUZZ_BUDGET", 150);
    let targets = targets();
    let mut rng = StdRng::seed_from_u64(0xF022);
    let (mut applied, mut killed) = (0usize, 0usize);
    for _ in 0..budget {
        let (_, target) = &targets[rng.gen_range(0..targets.len())];
        let Some(m) = random_mutation(&mut rng, &target.spec) else {
            continue;
        };
        let mutant = apply(&target.spec, m).unwrap();
        applied += 1;
        match judge(target, &mutant) {
            Verdict::Survived => {
                // A survivor claims to still be a correct allgather; hold it
                // to that in the thread-pool mode too.
                let frozen = mutant.build().freeze();
                mha_exec::verify_allgather(
                    &frozen,
                    &target.send,
                    &target.recv,
                    target.msg,
                    Mode::Threaded(4),
                )
                .unwrap_or_else(|e| panic!("survivor {m:?} fails threaded verify: {e:?}"));
            }
            _ => killed += 1,
        }
    }
    assert!(
        applied >= budget / 2,
        "mutation generator mostly inapplicable"
    );
    assert!(
        killed * 10 >= applied * 3,
        "kill rate collapsed: {killed}/{applied} — are the checkers rotting?"
    );
}
