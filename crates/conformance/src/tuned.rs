//! Tuned-choice oracle: every config a [`TunedTable`] can serve is a
//! *correct* Allgather.
//!
//! The autotuner (`mha-tune`) only prices candidates it already built, so
//! on-grid entries are trivially buildable — the risk is the serving
//! path's off-grid behavior: nearest-neighbor fallback plus
//! [`AlgoConfig::coerce_for`] on grids the search never saw. This oracle
//! hammers `lookup` with seeded random queries (including off-grid,
//! non-power-of-two and single-node shapes) and asserts the served config
//! (a) is valid for the queried grid, (b) dispatches through
//! [`mha_collectives::build`], and (c) produces a schedule whose writes
//! exactly tile every receive buffer ([`check_allgather_coverage`]) —
//! i.e. a mistuned table can be slow, but it can never be wrong.

use mha_collectives::{build, AlgoConfig, TableKey, TunedTable};
use mha_sched::ProcGrid;
use mha_simnet::ClusterSpec;
use rand::{rngs::StdRng, Rng};

use crate::coverage::check_allgather_coverage;
use crate::runner::{Oracle, Tally};

/// The tuned-choice oracle over one table.
#[derive(Debug, Clone)]
pub struct TunedOracle {
    /// The table under test.
    table: TunedTable,
    /// The cluster served configs are built for.
    spec: ClusterSpec,
    /// Stored keys on ≤ 256-rank grids, the targets of on-key queries
    /// (kept small so per-case build cost stays low).
    small_keys: Vec<TableKey>,
}

impl TunedOracle {
    /// An oracle serving from `table` on `spec`.
    pub fn new(table: TunedTable, spec: ClusterSpec) -> Self {
        let small_keys = table
            .sorted_entries()
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.nodes * k.ppn <= 256)
            .collect();
        TunedOracle {
            table,
            spec,
            small_keys,
        }
    }
}

impl Oracle for TunedOracle {
    /// `(grid, message size, surviving rails)`: one lookup query.
    type Case = (ProcGrid, usize, u8);

    /// Every fourth query aims at a stored key (exact-probe regime); the
    /// rest roam the shape space (fallback + coercion regime).
    fn sample(&self, rng: &mut StdRng, i: usize) -> Self::Case {
        if i.is_multiple_of(4) {
            sample_on_key(rng, &self.small_keys).unwrap_or_else(|| sample_roaming(rng))
        } else {
            sample_roaming(rng)
        }
    }

    fn check(&self, &(grid, msg, rails_up): &Self::Case) -> Result<Tally, String> {
        let exact = self
            .table
            .get(&TableKey::for_query(grid, msg, rails_up))
            .is_some();
        let served = self.table.lookup(grid, msg, rails_up);
        check_served(&served, grid, msg, &self.spec)
            .map_err(|e| format!("{e} [served {}]", served.to_kv()))?;
        Ok(Tally {
            exact_hits: usize::from(exact),
            fallbacks: usize::from(!exact),
            ..Tally::default()
        })
    }

    fn describe(&self, (grid, msg, rails_up): &Self::Case) -> String {
        let (nodes, ppn) = (grid.nodes(), grid.ppn());
        format!("{nodes}x{ppn} msg={msg} rails_up={rails_up}")
    }
}

/// One random roaming query: grids are capped at 128 ranks so each case
/// builds quickly, and shapes deliberately include off-tuned-grid node
/// counts (non-power-of-two, single node, ppn 1).
fn sample_roaming(rng: &mut StdRng) -> (ProcGrid, usize, u8) {
    let nodes = rng.gen_range(1..=16u32);
    let max_ppn = (128 / nodes).max(1);
    let ppn = rng.gen_range(1..=max_ppn.min(32));
    let msg = 1usize << rng.gen_range(0..=20u32);
    let msg = msg + rng.gen_range(0..=msg / 2);
    let rails_up = rng.gen_range(0..=3u8);
    (ProcGrid::new(nodes, ppn), msg, rails_up)
}

/// A query aimed at a stored key (message drawn inside the key's bucket),
/// so the exact-probe serving regime is exercised too.
fn sample_on_key(rng: &mut StdRng, keys: &[TableKey]) -> Option<(ProcGrid, usize, u8)> {
    if keys.is_empty() {
        return None;
    }
    let k = keys[rng.gen_range(0..keys.len())];
    let lo = 1usize << k.msg_bucket;
    let msg = lo + rng.gen_range(0..lo);
    Some((ProcGrid::new(k.nodes, k.ppn), msg, k.rails_up))
}

fn check_served(
    served: &AlgoConfig,
    grid: ProcGrid,
    msg: usize,
    spec: &ClusterSpec,
) -> Result<(), String> {
    if !served.valid_for(grid) {
        return Err("served config invalid for queried grid".into());
    }
    let built = build(served, grid, msg, &served.effective_spec(spec))
        .map_err(|e| format!("dispatch failed: {e}"))?;
    check_allgather_coverage(&built).map_err(|e| format!("coverage: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;
    use mha_bench::campaign::CampaignConfig;

    #[test]
    fn empty_table_serves_correct_defaults_everywhere() {
        let oracle = TunedOracle::new(TunedTable::new(0), ClusterSpec::thor());
        let report = run(&oracle, 40, 11, &CampaignConfig::default());
        report.assert_clean();
        assert_eq!(report.tally.fallbacks, 40);
    }

    #[test]
    fn adversarial_entries_are_coerced_into_correct_serves() {
        // Store configs that are invalid on most grids; the serving path
        // must coerce them rather than hand out something unbuildable.
        let mut table = TunedTable::new(0);
        table.insert(
            TableKey {
                nodes: 8,
                ppn: 32,
                msg_bucket: 10,
                rails_up: 2,
            },
            AlgoConfig {
                inter: mha_collectives::mha::InterAlgo::RecursiveDoubling,
                chunk: Some(1 << 20),
                down_rails: vec![0, 1, 2, 3],
                ..AlgoConfig::default()
            },
        );
        let oracle = TunedOracle::new(table, ClusterSpec::thor());
        let report = run(&oracle, 60, 23, &CampaignConfig::default());
        report.assert_clean();
        assert!(report.tally.fallbacks > 0);
    }
}
