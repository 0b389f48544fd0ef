//! The waterfill-equivalence acceptance bar: ≥ 100 random schedules —
//! a third of them under random rail-fault timelines — simulated through
//! an incremental and a reference engine arena with zero bitwise
//! divergence.

mod common;

use common::knob;
use mha_bench::campaign::CampaignConfig;
use mha_conformance::{run, WaterfillOracle};

#[test]
fn incremental_engine_matches_scratch_on_random_schedules() {
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
