//! Differential tests pinning the engine's memoized water-filler
//! ([`IncrementalFiller::fill_keyed`]) to the from-scratch reference
//! solver, bit for bit.
//!
//! The engine's whole memo argument rests on one invariant: a memoized
//! replay returns *exactly* the floats the reference `fill_with` would
//! compute for the same component. These tests attack that invariant with
//! seeded random components (including shapes that collide in the memo on
//! purpose), EPS-boundary near-ties, and state-leakage probes across
//! interleaved components and runs.

use mha_simnet::{FlowSpec, IncrementalFiller, ResourceId, WaterFiller};

/// splitmix64 — deterministic, dependency-free PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// One random max-min component: per-flow caps and weighted resource
/// memberships, plus per-resource capacities.
struct Component {
    flows: Vec<(f64, Vec<(ResourceId, f64)>)>,
    caps: Vec<f64>,
}

impl Component {
    fn random(rng: &mut Rng) -> Self {
        let n_res = 1 + rng.below(12) as usize;
        let n_flows = 1 + rng.below(10) as usize;
        // Occasionally quantize capacities so several resources saturate at
        // *exactly* the same level — the tie-handling hot seat.
        let quantize = rng.below(4) == 0;
        let caps: Vec<f64> = (0..n_res)
            .map(|_| {
                let c = 0.5 + 10.0 * rng.unit();
                if quantize {
                    (c * 4.0).round() / 4.0
                } else {
                    c
                }
            })
            .collect();
        let flows = (0..n_flows)
            .map(|_| {
                let cap = 0.1 + 5.0 * rng.unit();
                let deg = 1 + rng.below(3) as usize;
                let mut rs: Vec<(ResourceId, f64)> = Vec::new();
                for _ in 0..deg {
                    let r = ResourceId(rng.below(n_res as u64) as u32);
                    if rs.iter().any(|&(x, _)| x == r) {
                        continue; // membership is a set
                    }
                    let w = if rng.below(3) == 0 {
                        1.0
                    } else {
                        0.25 + rng.unit()
                    };
                    rs.push((r, w));
                }
                (cap, rs)
            })
            .collect();
        Component { flows, caps }
    }

    fn specs(&self) -> Vec<FlowSpec<'_>> {
        self.flows
            .iter()
            .map(|(cap, rs)| FlowSpec {
                cap: *cap,
                resources: rs,
            })
            .collect()
    }

    fn capacity(&self, r: ResourceId) -> f64 {
        self.caps[r.index()]
    }
}

fn scratch_rates(c: &Component) -> Vec<f64> {
    let mut f = WaterFiller::new();
    let mut rates = Vec::new();
    f.fill(&c.specs(), |r| c.capacity(r), &mut rates).unwrap();
    rates
}

/// Fills `flows` through `inc`'s memo the way the engine does: the caller
/// builds the canonical key under its own local resource numbering —
/// here ascending global id, deliberately not the solver's
/// first-appearance order, so replays must map levels back through
/// `lidx_of`/`ids_of`.
fn fill_keyed(
    inc: &mut IncrementalFiller,
    flows: &[FlowSpec<'_>],
    capacity: impl Fn(ResourceId) -> f64,
    rates: &mut Vec<f64>,
) {
    let mut ids: Vec<ResourceId> = flows
        .iter()
        .flat_map(|f| f.resources.iter().map(|&(r, _)| r))
        .collect();
    ids.sort();
    ids.dedup();
    let lidx = |r: ResourceId| ids.binary_search(&r).unwrap() as u32;
    let mut key = vec![flows.len() as u64];
    for f in flows {
        key.extend([f.cap.to_bits(), f.resources.len() as u64]);
        for &(r, w) in f.resources {
            key.extend([u64::from(lidx(r)), w.to_bits()]);
        }
    }
    key.extend(ids.iter().map(|&r| capacity(r).to_bits()));
    inc.fill_keyed(
        &key,
        flows.len(),
        |i| flows[i],
        &capacity,
        lidx,
        |li| ids[li as usize],
        rates,
    )
    .unwrap();
}

fn assert_rates_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: flow count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: rate[{i}] {x} vs {y}");
    }
}

/// 500 seeded random components: the memoized filler must return the
/// reference solver's exact bits on the cold (miss) solve AND on the warm
/// (hit) replay, with every component folded into one shared cache.
#[test]
fn five_hundred_random_components_match_scratch_bit_for_bit() {
    let mut rng = Rng(0x5eed_0001);
    let mut inc = IncrementalFiller::new();
    inc.reset(16);
    let mut rates = Vec::new();
    for case in 0..500 {
        let c = Component::random(&mut rng);
        let want = scratch_rates(&c);
        for pass in 0..2 {
            fill_keyed(&mut inc, &c.specs(), |r| c.capacity(r), &mut rates);
            assert_rates_eq(&rates, &want, &format!("case {case} pass {pass}"));
        }
    }
    let stats = inc.stats();
    assert!(stats.hits >= 500, "every second pass must hit the memo");
}

/// Near-tie determinism at the EPS boundary: resources whose saturation
/// levels differ by amounts straddling the solver's internal tolerance
/// must still produce one well-defined answer — the same bits from a
/// fresh solver every time, and from a memo replay.
#[test]
fn eps_boundary_ties_are_deterministic() {
    // Two resources at capacity c and c*(1+delta) shared by symmetric
    // flows, with delta swept from well below f64 ULP scale through the
    // solver's EPS (1e-9) and beyond.
    for &delta in &[0.0, 1e-16, 1e-13, 1e-11, 1e-10, 1e-9, 5e-9, 1e-6] {
        let r0 = ResourceId(0);
        let r1 = ResourceId(1);
        let shared = [(r0, 1.0), (r1, 1.0)];
        let only0 = [(r0, 1.0)];
        let only1 = [(r1, 1.0)];
        let flows = [
            FlowSpec {
                cap: 10.0,
                resources: &shared,
            },
            FlowSpec {
                cap: 10.0,
                resources: &only0,
            },
            FlowSpec {
                cap: 10.0,
                resources: &only1,
            },
        ];
        let caps = [2.0, 2.0 * (1.0 + delta)];
        let capacity = |r: ResourceId| caps[r.index()];

        let mut reference = Vec::new();
        WaterFiller::new()
            .fill(&flows, capacity, &mut reference)
            .unwrap();
        // Same bits from any number of fresh solvers…
        for rep in 0..3 {
            let mut rates = Vec::new();
            WaterFiller::new()
                .fill(&flows, capacity, &mut rates)
                .unwrap();
            assert_rates_eq(&rates, &reference, &format!("delta {delta:e} rep {rep}"));
        }
        // …and from the memoized path, cold and warm.
        let mut inc = IncrementalFiller::new();
        inc.reset(2);
        for pass in 0..2 {
            let mut rates = Vec::new();
            fill_keyed(&mut inc, &flows, capacity, &mut rates);
            assert_rates_eq(&rates, &reference, &format!("delta {delta:e} memo {pass}"));
        }
        // Total allocation never exceeds the tighter capacity by more than
        // rounding noise (sanity that the near-tie did not over-fill).
        let used: f64 = [reference[0], reference[1]].iter().sum();
        assert!(used <= caps[0] * (1.0 + 1e-9), "over-filled r0: {used}");
    }
}

/// Interleaving distinct components through one filler must not let state
/// leak between them: each component keeps answering with exactly the
/// bits a dedicated fresh solver produces, in any order, across resets.
#[test]
fn no_state_leaks_across_interleaved_components_and_resets() {
    let mut rng = Rng(0xabcd_ef01);
    let components: Vec<Component> = (0..8).map(|_| Component::random(&mut rng)).collect();
    let want: Vec<Vec<f64>> = components.iter().map(scratch_rates).collect();

    let mut inc = IncrementalFiller::new();
    inc.reset(16);
    let mut rates = Vec::new();
    // A/B/A/C… access pattern, then a reset (new "run", warm cache), then
    // the same pattern again.
    let order = [0usize, 1, 0, 2, 3, 2, 4, 5, 6, 7, 0, 7];
    for round in 0..2 {
        for &ci in &order {
            let c = &components[ci];
            fill_keyed(&mut inc, &c.specs(), |r| c.capacity(r), &mut rates);
            assert_rates_eq(&rates, &want[ci], &format!("round {round} component {ci}"));
        }
        inc.reset(16);
    }
}
