//! The one seeded, pooled runner every oracle goes through.
//!
//! An [`Oracle`] samples case `i` from a seeded RNG and checks one case.
//! [`run`] pre-samples every case serially from a single [`StdRng`] — so
//! the case sequence depends only on the seed — then fans `check` across
//! the campaign worker pool as [`CampaignPoint::custom`] points and
//! reassembles the outcomes in case order, so the [`Report`] is
//! independent of pool width. A disagreement is data, not a pool failure:
//! each case reports through its row ([`Row::note`] on failure), so one
//! bad case never aborts the sweep.

use std::fmt;
use std::sync::Arc;

use mha_bench::campaign::{run_campaign, CampaignConfig, CampaignPoint, Row};
use rand::{rngs::StdRng, SeedableRng};

use crate::cases::Family;

/// A seeded conformance check: how to draw a case and how to judge it.
///
/// The oracle value carries everything a check needs beyond the case
/// itself (envelopes, thread counts, tables), so it is cloned once into
/// the worker pool.
pub trait Oracle: Clone + Send + Sync + 'static {
    /// One drawn configuration.
    type Case: Send + Sync + 'static;

    /// Draws case `i` of a sweep. Called serially, in index order, on one
    /// RNG seeded from the sweep seed.
    fn sample(&self, rng: &mut StdRng, i: usize) -> Self::Case;

    /// Judges one case: what it exercised, or the first disagreement.
    fn check(&self, case: &Self::Case) -> Result<Tally, String>;

    /// A short, greppable description for disagreement reports.
    fn describe(&self, case: &Self::Case) -> String;
}

/// What one passing case exercised; [`Report::tally`] sums them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Cases per collective family, indexed by [`Family::index`].
    pub by_family: [usize; 4],
    /// Cases whose model envelope was evaluated.
    pub envelope: usize,
    /// Cases run under a fault timeline.
    pub faulted: usize,
    /// Tuned-table queries answered by an exact probe.
    pub exact_hits: usize,
    /// Tuned-table queries answered by the nearest-neighbor fallback.
    pub fallbacks: usize,
}

impl Tally {
    /// One case of `family`.
    pub fn family(family: Family) -> Self {
        let mut t = Tally::default();
        t.by_family[family.index()] = 1;
        t
    }

    /// Every counter, in a fixed order: the tally's campaign-row layout.
    fn counters(&mut self) -> [&mut usize; 8] {
        let [a, b, c, d] = &mut self.by_family;
        let (e, f) = (&mut self.envelope, &mut self.faulted);
        [a, b, c, d, e, f, &mut self.exact_hits, &mut self.fallbacks]
    }
}

/// One failed case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// The case's index in the sweep.
    pub case: usize,
    /// The case's description ([`Oracle::describe`]).
    pub label: String,
    /// What went wrong.
    pub error: String,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "case {} [{}]: {}", self.case, self.label, self.error)
    }
}

/// The outcome of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Summed tallies of the passing cases.
    pub tally: Tally,
    /// Every failed case, in case order (empty = pass).
    pub disagreements: Vec<Disagreement>,
}

impl Report {
    /// Panics listing every disagreement unless the sweep is clean.
    pub fn assert_clean(&self) {
        let lines: Vec<String> = self.disagreements.iter().map(|d| d.to_string()).collect();
        assert!(
            lines.is_empty(),
            "{} disagreement(s):\n{}",
            lines.len(),
            lines.join("\n")
        );
    }
}

/// Runs `cases` cases of `oracle` from `seed` on the campaign pool
/// described by `pool` (its repetition count is pinned to 1 — the case
/// count is the sweep's repetition policy).
pub fn run<O: Oracle>(oracle: &O, cases: usize, seed: u64, pool: &CampaignConfig) -> Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let sampled: Vec<O::Case> = (0..cases).map(|i| oracle.sample(&mut rng, i)).collect();

    let shared = Arc::new(oracle.clone());
    let points: Vec<CampaignPoint> = sampled
        .into_iter()
        .map(|case| {
            let oracle = Arc::clone(&shared);
            CampaignPoint::custom(oracle.describe(&case), move |_seed| {
                Ok(vec![match oracle.check(&case) {
                    Ok(mut t) => Row::new("ok", t.counters().map(|c| *c as f64).to_vec()),
                    Err(e) => Row::note("disagreement", e),
                }])
            })
        })
        .collect();
    let mut pool = pool.clone();
    pool.reps = 1;
    let report = run_campaign(&points, &pool).expect("oracle pool failed");

    let mut out = Report {
        tally: Tally::default(),
        disagreements: Vec::new(),
    };
    for pr in &report.results {
        for row in &pr.rows {
            match &row.note {
                Some(e) => out.disagreements.push(Disagreement {
                    case: pr.point,
                    label: points[pr.point].label.clone(),
                    error: e.clone(),
                }),
                None => {
                    for (c, v) in out.tally.counters().into_iter().zip(&row.values) {
                        *c += *v as usize;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A toy oracle: case `i` fails iff it is in `fail`, and every case
    /// carries a random payload so the sampled sequence depends on the seed.
    #[derive(Clone)]
    struct Toy {
        fail: Vec<usize>,
    }

    impl Oracle for Toy {
        type Case = (usize, u64);

        fn sample(&self, rng: &mut StdRng, i: usize) -> (usize, u64) {
            (i, rng.gen_range(0..u64::MAX))
        }

        fn check(&self, &(i, _): &(usize, u64)) -> Result<Tally, String> {
            if self.fail.contains(&i) {
                return Err(format!("planted failure {i}"));
            }
            Ok(Tally::family(Family::ALL[i % Family::ALL.len()]))
        }

        fn describe(&self, &(i, x): &(usize, u64)) -> String {
            format!("toy {i} {x:#x}")
        }
    }

    #[test]
    fn the_runner_reports_planted_failures_in_case_order_at_any_width() {
        let toy = Toy {
            fail: vec![41, 3, 17, 96],
        };
        let cases = 100;
        let serial = run(&toy, cases, 9, &CampaignConfig::default().with_workers(1));
        let pooled = run(&toy, cases, 9, &CampaignConfig::default().with_workers(8));

        let failed: Vec<usize> = serial.disagreements.iter().map(|d| d.case).collect();
        assert_eq!(failed, vec![3, 17, 41, 96]);
        assert!(serial.disagreements[0]
            .to_string()
            .starts_with("case 3 [toy 3 0x"));
        // Every case is accounted for exactly once: as a passing tally or
        // as a disagreement.
        let passed: usize = serial.tally.by_family.iter().sum();
        assert_eq!(passed + failed.len(), cases);
        assert_eq!(serial.tally.by_family, [24, 23, 25, 24]);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn a_clean_sweep_tallies_every_case() {
        let pool = CampaignConfig::default().with_workers(3);
        let report = run(&Toy { fail: vec![] }, 64, 1, &pool);
        report.assert_clean();
        assert_eq!(report.tally.by_family.iter().sum::<usize>(), 64);
    }
}
