//! The differential-oracle acceptance bar: ≥ 200 random configurations,
//! all four families, zero disagreements, plus the model envelope.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_conformance::{check_model_envelope, run, DifferentialOracle, Family};

#[test]
fn oracle_sweep_has_zero_disagreements() {
    let cases = knob("MHA_CONFORMANCE_CASES", 200);
    assert!(cases >= 200, "acceptance bar requires >= 200 cases");
    let seed = knob("MHA_CONFORMANCE_SEED", 0xC0FFEE);
    let report = run(
        &DifferentialOracle::default(),
        cases,
        seed,
        &CampaignConfig::from_env(),
    );
    report.assert_clean();
    for f in Family::ALL {
        assert!(
            report.tally.by_family[f.index()] >= cases / 4,
            "{f:?} under-covered: {:?}",
            report.tally.by_family
        );
    }
    let failures = check_model_envelope(knob("MHA_MODEL_ENVELOPE", 2.0));
    assert!(
        failures.is_empty(),
        "model envelope:\n{}",
        failures.join("\n")
    );
}
