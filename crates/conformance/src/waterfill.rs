//! The incremental-vs-scratch water-fill equivalence oracle.
//!
//! The incremental engine (calendar event queue, keyed memo, argmin
//! prediction scheduling) is documented to be *bit-identical* to the
//! scratch reference engine (binary heap, re-solve every component) on
//! every observable: makespan, per-op completion times, event count and
//! per-resource byte totals. This oracle enforces that claim over random
//! collective schedules from all four case families — with a slice of the
//! sweep run under random rail-fault timelines so the stall/retry paths
//! are differenced too.

use mha_simnet::{ClusterSpec, EngineArena, FaultSpec, SimResult, Simulator};
use rand::{rngs::StdRng, Rng};

use crate::cases::{sample_case, Case, Family};
use crate::runner::{Oracle, Tally};

/// The equivalence oracle: each case is simulated through a default
/// (incremental) [`EngineArena`] and a [`EngineArena::reference`] one, and
/// every observable is compared bit for bit. The mode is fixed per arena,
/// so cases run concurrently on the campaign pool.
#[derive(Debug, Clone)]
pub struct WaterfillOracle;

impl Oracle for WaterfillOracle {
    /// A schedule to difference, optionally under a fault timeline.
    type Case = (Case, Option<FaultSpec>);

    /// Cases round-robin across the four families; every third runs under
    /// a random fault timeline so the stall/retry/backoff machinery is
    /// differenced too.
    fn sample(&self, rng: &mut StdRng, i: usize) -> Self::Case {
        let case = sample_case(rng, Family::ALL[i % Family::ALL.len()]);
        let faults = (i % 3 == 2).then(|| sample_faults(rng, ClusterSpec::thor().rails));
        (case, faults)
    }

    fn check(&self, (case, faults): &Self::Case) -> Result<Tally, String> {
        let spec = ClusterSpec::thor();
        let built = case
            .build(&spec)
            .map_err(|e| format!("build failed: {e}"))?;
        let sim = match faults {
            Some(f) => Simulator::with_faults(spec, f.clone()),
            None => Simulator::new(spec),
        }
        .map_err(|e| format!("simulator: {e}"))?;
        let inc = sim.run_in(&built.sched, &mut EngineArena::new());
        let scr = sim.run_in(&built.sched, &mut EngineArena::reference());
        match (inc, scr) {
            (Ok(inc), Ok(scr)) => diff(&inc, &scr).map_or(Ok(()), Err)?,
            (Err(_), Err(_)) => {}
            (inc, scr) => {
                let (i, s) = (inc.err(), scr.err());
                return Err(format!("one engine errored ({i:?} vs {s:?})"));
            }
        }
        Ok(Tally {
            faulted: usize::from(faults.is_some()),
            ..Tally::default()
        })
    }

    fn describe(&self, (case, faults): &Self::Case) -> String {
        let tag = if faults.is_some() { " [faulted]" } else { "" };
        format!("{}{tag}", case.describe())
    }
}

/// First bitwise difference between the two engines' results, if any.
fn diff(inc: &SimResult, scr: &SimResult) -> Option<String> {
    if inc.events != scr.events {
        let (a, b) = (inc.events, scr.events);
        return Some(format!("event count {a} (inc) vs {b} (scratch)"));
    }
    let first = |name: &str, a: &[f64], b: &[f64]| {
        if a.len() != b.len() {
            return Some(format!("{name} length mismatch"));
        }
        let i = a
            .iter()
            .zip(b)
            .position(|(x, y)| x.to_bits() != y.to_bits())?;
        Some(format!("{name}[{i}] {} (inc) vs {} (scratch)", a[i], b[i]))
    };
    first("makespan", &[inc.makespan], &[scr.makespan])
        .or_else(|| first("op_end", &inc.op_end, &scr.op_end))
        .or_else(|| first("resource_bytes", &inc.resource_bytes, &scr.resource_bytes))
}

/// A random fault timeline against a `rails`-rail cluster: one rail goes
/// down early (sometimes at t = 0) and usually comes back, with a short
/// retry timeout so stall/retry/backoff all fire within the run.
fn sample_faults(rng: &mut StdRng, rails: u8) -> FaultSpec {
    let rail = rng.gen_range(0..rails);
    let t_down = if rng.gen_range(0..3u32) == 0 {
        0.0
    } else {
        rng.gen_range(1.0e-6..50.0e-6)
    };
    let mut faults = if rng.gen_range(0..4u32) == 0 {
        FaultSpec::rail_down_at(rail, t_down) // stays down for the run
    } else {
        FaultSpec::flap(rail, t_down, t_down + rng.gen_range(10.0e-6..200.0e-6))
    };
    faults.retry_timeout = rng.gen_range(5.0e-6..50.0e-6);
    faults
}
