//! The tuned-choice acceptance bar: the shipped tuning table serves a
//! correct Allgather for every seeded random query — on-grid and off.

use mha_bench::campaign::CampaignConfig;
use mha_bench::knob;
use mha_collectives::TunedTable;
use mha_conformance::{run, TunedOracle};

#[test]
fn shipped_table_serves_only_correct_allgathers() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/tuned_thor.mtab");
    let table = TunedTable::load(&path).unwrap_or_else(|e| {
        panic!(
            "shipped table {} unusable ({e}); regenerate with `cargo run --release -p mha-tune --bin mha_tune`",
            path.display()
        )
    });
    let cases = knob("MHA_CONFORMANCE_CASES", 200);
    assert!(cases >= 200, "acceptance bar requires >= 200 queries");
    let seed = knob("MHA_CONFORMANCE_SEED", 0xC0FFEE);
    let oracle = TunedOracle::new(table, mha_simnet::ClusterSpec::thor());
    let report = run(&oracle, cases, seed, &CampaignConfig::from_env());
    report.assert_clean();
    // The query sampler roams off the tuned grid on purpose: both serving
    // regimes must be exercised.
    assert!(report.tally.exact_hits > 0, "no query ever hit the table");
    assert!(
        report.tally.fallbacks > 0,
        "no query ever exercised the fallback"
    );
}
