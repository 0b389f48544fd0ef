//! The fault-oracle acceptance bar: ≥ 100 random fault schedules, zero
//! disagreements — degraded builds stay correct on both executors, faulted
//! simulation passes the invariant audit, and k-failed-rail latency stays
//! within the envelope of the α–β model at H − k rails.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_conformance::{run, FaultOracle};

#[test]
fn fault_oracle_sweep_has_zero_disagreements() {
    let cases = knob("MHA_FAULT_CASES", 100);
    assert!(cases >= 100, "acceptance bar requires >= 100 cases");
    let oracle = FaultOracle {
        envelope: knob("MHA_FAULT_ENVELOPE", 2.0),
    };
    let report = run(
        &oracle,
        cases,
        knob("MHA_FAULT_SEED", 0xFA17),
        &CampaignConfig::from_env(),
    );
    report.assert_clean();
    assert!(
        report.tally.envelope >= cases / 4,
        "too few bandwidth-regime cases reached the envelope check: {}",
        report.tally.envelope
    );
}
