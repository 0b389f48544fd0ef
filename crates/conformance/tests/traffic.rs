//! The tenant-oracle acceptance bar.
//!
//! ≥ 100 seeded multi-tenant traffic scenarios, alternating hand-built
//! disjoint placements with random contended ones, must all pass with
//! the engine's invariant audit armed: disjoint tenants finish
//! bit-identically to their solo runs, and no simulator resource ever
//! carries more bytes than `capacity × makespan`.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_conformance::{run, TrafficOracle};

#[test]
fn traffic_oracle_sweep_has_zero_disagreements() {
    let cases = knob("MHA_TRAFFIC_CASES", 100);
    assert!(cases >= 100, "acceptance bar requires >= 100 cases");
    let seed = knob("MHA_TRAFFIC_SEED", 0x7EA7);
    // Arm the invariant audit for the sweep: a violation panics its case.
    mha_simnet::set_check_enabled(true);
    let report = run(&TrafficOracle, cases, seed, &CampaignConfig::from_env());
    mha_simnet::set_check_enabled(false);
    report.assert_clean();
}
