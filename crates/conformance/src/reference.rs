//! A deliberately plain reference simulator.
//!
//! [`ReferenceSim`] runs the same fluid max-min model as
//! [`mha_simnet::Simulator`] the simple way: a `BinaryHeap` event queue,
//! one `Finish` event pushed per rate change (stale pops are dropped by a
//! version check), and one from-scratch [`WaterFiller::fill_with`] per
//! connected component. It has no memo, calendar queue, keyed
//! cancellation or argmin prediction scheduling — the engine's
//! optimizations — so differencing the two (the [`crate::WaterfillOracle`])
//! checks that those optimizations change only speed.
//!
//! Op costing is not re-implemented: startup latencies, op → flow
//! expansion, fault capacity scaling and surviving-rail lookup all come
//! from the [`CostModel`] the engine itself calls. What the reference does
//! mirror, by construction, is every ordering the floating-point results
//! depend on: the `(time, seq)` event order with a sequence number per
//! push, the component DFS's settle order, and each resource's flow-list
//! order (append on issue, swap-remove on finish).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mha_sched::{FrozenSchedule, ReadySet};
use mha_simnet::{
    CostModel, FlowPlan, FlowSpec, RailRoute, ResourceId, ResourceMap, SimError, SimResult,
    Simulator, WaterFiller, RATE_EPS,
};

/// The reference simulator over one [`Simulator`]'s cluster and fault
/// timeline (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct ReferenceSim<'a> {
    sim: &'a Simulator,
}

impl<'a> ReferenceSim<'a> {
    /// The reference for `sim`.
    pub fn new(sim: &'a Simulator) -> Self {
        ReferenceSim { sim }
    }

    /// Simulates `sch`. Errors exactly where [`Simulator::run`] does; on
    /// success every field the engine fills is filled (no trace).
    pub fn run(&self, sch: &FrozenSchedule) -> Result<SimResult, SimError> {
        self.sim.validate(sch)?;
        let grid = *sch.grid();
        let rmap = ResourceMap::new(&grid, self.sim.spec());
        let cost = CostModel::new(self.sim, &rmap, grid);
        let mut st = State {
            cost,
            flows: Vec::new(),
            res_flows: vec![Vec::new(); rmap.len()],
            resource_bytes: vec![0.0; rmap.len()],
            cap_scale: vec![1.0; rmap.len()],
            res_stamp: vec![0; rmap.len()],
            epoch: 0,
            queue: BinaryHeap::new(),
            seq: 0,
            filler: WaterFiller::new(),
            rates: Vec::new(),
        };
        let mut ready = ReadySet::new(sch);
        let mut op_end = vec![f64::NAN; sch.n_ops()];
        let mut flows_left = vec![0u32; sch.n_ops()];
        let mut rr_next_rail = vec![0u8; grid.nodes() as usize];
        let mut plans: Vec<FlowPlan> = Vec::new();
        let mut seeds: Vec<ResourceId> = Vec::new();
        let (mut events, mut makespan) = (0u64, 0.0f64);
        let (mut active, mut max_active) = (0usize, 0usize);

        // Fault boundaries first, so a fault at t=0 precedes any op start.
        let mut faults = self.sim.faults().map_or(Vec::new(), |f| f.events.clone());
        faults.sort_by(|a, b| a.time.total_cmp(&b.time));
        for (i, ev) in faults.iter().enumerate() {
            st.push(ev.time, Ev::Fault { idx: i });
        }
        for &op in sch.roots() {
            st.push(cost.start_time(sch, op, 0.0), Ev::Start { op });
        }

        while let Some(Reverse((time_bits, _, ev))) = st.queue.pop() {
            let time = f64::from_bits(time_bits);
            match ev {
                Ev::Start { op } => {
                    events += 1;
                    cost.expand(sch, op, &mut rr_next_rail, &st.cap_scale, &mut plans);
                    seeds.clear();
                    let mut created = 0;
                    for plan in plans.iter().filter(|p| p.bytes > 0.0) {
                        created += 1;
                        let fi = st.flows.len() as u32;
                        st.flows.push(Flow {
                            op,
                            resources: plan.resources().to_vec(),
                            cap: plan.cap,
                            remaining: plan.bytes,
                            rate: 0.0,
                            last_update: time,
                            version: 0,
                            alive: true,
                            stalled: false,
                            retries: 0,
                            route: plan.route,
                            stamp: 0,
                        });
                        for &(r, _) in plan.resources() {
                            st.res_flows[r.index()].push(fi);
                            seeds.push(r);
                        }
                        if plan.resources().is_empty() {
                            // Pure compute never contends: run at cap now.
                            let f = &mut st.flows[fi as usize];
                            f.rate = f.cap;
                            let t_fin = time + f.remaining / f.rate;
                            st.push(
                                t_fin,
                                Ev::Finish {
                                    flow: fi,
                                    version: 0,
                                },
                            );
                        }
                        active += 1;
                    }
                    max_active = max_active.max(active);
                    if created == 0 {
                        op_end[op as usize] = time;
                        makespan = makespan.max(time);
                        st.release(sch, &mut ready, op, time);
                        continue;
                    }
                    flows_left[op as usize] = created;
                    if !seeds.is_empty() {
                        st.recompute(time, &seeds)?;
                    }
                }
                Ev::Finish { flow, version } => {
                    let f = &mut st.flows[flow as usize];
                    if !f.alive || f.version != version {
                        continue; // stale prediction
                    }
                    events += 1;
                    let moved = (f.rate * (time - f.last_update)).min(f.remaining);
                    f.remaining -= moved;
                    f.last_update = time;
                    f.alive = false;
                    let (op, resources) = (f.op, std::mem::take(&mut f.resources));
                    for &(r, w) in &resources {
                        st.resource_bytes[r.index()] += moved * w;
                        st.unregister(r, flow);
                    }
                    active -= 1;
                    flows_left[op as usize] -= 1;
                    if flows_left[op as usize] == 0 {
                        op_end[op as usize] = time;
                        makespan = makespan.max(time);
                        st.release(sch, &mut ready, op, time);
                    }
                    seeds.clear();
                    seeds.extend(resources.iter().map(|&(r, _)| r));
                    if !seeds.is_empty() {
                        st.recompute(time, &seeds)?;
                    }
                }
                Ev::Fault { idx } => {
                    events += 1;
                    cost.apply_fault(&faults[idx], &mut st.cap_scale, &mut seeds);
                    st.recompute(time, &seeds)?;
                }
                Ev::Retry { flow, version } => {
                    let f = &st.flows[flow as usize];
                    if !f.alive || f.version != version || !f.stalled {
                        continue; // the flow finished or already woke up
                    }
                    events += 1;
                    let Some(route) = f.route else {
                        continue;
                    };
                    match cost.retry_route(route, &st.cap_scale) {
                        Some(new_route) => {
                            seeds.clear();
                            seeds.extend(f.resources.iter().map(|&(r, _)| r));
                            for &r in &seeds {
                                st.unregister(r, flow);
                            }
                            let pair = cost.rail_resources(new_route);
                            let f = &mut st.flows[flow as usize];
                            f.resources = pair.to_vec();
                            f.route = Some(new_route);
                            f.retries = 0;
                            for &(r, _) in &pair {
                                st.res_flows[r.index()].push(flow);
                                seeds.push(r);
                            }
                            st.recompute(time, &seeds)?;
                        }
                        None => {
                            let f = &mut st.flows[flow as usize];
                            f.retries = f.retries.saturating_add(1);
                            let t = time + cost.retry_wait(f.retries);
                            st.push(t, Ev::Retry { flow, version });
                        }
                    }
                }
            }
        }
        assert!(ready.is_done(), "reference simulation deadlocked");

        Ok(SimResult {
            makespan,
            op_end,
            events,
            max_concurrent_flows: max_active,
            resource_bytes: st.resource_bytes,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Start { op: u32 },
    Finish { flow: u32, version: u64 },
    Fault { idx: usize },
    Retry { flow: u32, version: u64 },
}

/// One fluid flow. Flows are never recycled: the index is the identity.
#[derive(Debug)]
struct Flow {
    op: u32,
    resources: Vec<(ResourceId, f64)>,
    cap: f64,
    remaining: f64,
    rate: f64,
    last_update: f64,
    /// Bumped on every rate change; a `Finish` carrying an older version
    /// is stale.
    version: u64,
    alive: bool,
    /// Starved by a fault; a `Retry` is pending.
    stalled: bool,
    retries: u32,
    route: Option<RailRoute>,
    /// Epoch of the last component traversal that visited this flow.
    stamp: u64,
}

struct State<'a> {
    cost: CostModel<'a>,
    flows: Vec<Flow>,
    /// Live flows on each resource, in the engine's list order.
    res_flows: Vec<Vec<u32>>,
    resource_bytes: Vec<f64>,
    cap_scale: Vec<f64>,
    res_stamp: Vec<u64>,
    epoch: u64,
    /// Events keyed `(time bits, seq)`, earliest first: times are
    /// non-negative, so their bit patterns order like the floats, and
    /// `seq` is unique, so the event itself never decides the order.
    queue: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    seq: u64,
    filler: WaterFiller,
    rates: Vec<f64>,
}

impl State<'_> {
    fn push(&mut self, time: f64, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse((time.to_bits(), self.seq, ev)));
    }

    fn unregister(&mut self, r: ResourceId, flow: u32) {
        let list = &mut self.res_flows[r.index()];
        if let Some(pos) = list.iter().position(|&x| x == flow) {
            list.swap_remove(pos);
        }
    }

    /// Marks `op` complete and queues the starts of the successors it
    /// releases.
    fn release(&mut self, sch: &FrozenSchedule, ready: &mut ReadySet, op: u32, time: f64) {
        let cost = self.cost;
        ready.complete(sch, op, |s| {
            self.push(cost.start_time(sch, s, time), Ev::Start { op: s })
        });
    }

    /// Settles and re-solves the connected component reachable from
    /// `seeds`, pushing a fresh `Finish` for every flow whose rate changed.
    fn recompute(&mut self, now: f64, seeds: &[ResourceId]) -> Result<(), SimError> {
        self.epoch += 1;
        let e = self.epoch;
        let mut stack = Vec::new();
        for &r in seeds {
            if self.res_stamp[r.index()] != e {
                self.res_stamp[r.index()] = e;
                stack.push(r);
            }
        }
        // Depth-first over the flow/resource graph, settling each flow's
        // bytes up to `now` as it is first visited.
        let mut comp: Vec<u32> = Vec::new();
        while let Some(r) = stack.pop() {
            for &fi in &self.res_flows[r.index()] {
                let f = &mut self.flows[fi as usize];
                if f.stamp == e {
                    continue;
                }
                f.stamp = e;
                comp.push(fi);
                let dt = now - f.last_update;
                let moved = if dt > 0.0 && f.rate > 0.0 {
                    (f.rate * dt).min(f.remaining)
                } else {
                    0.0
                };
                f.remaining -= moved;
                f.last_update = now;
                for &(r2, w) in &f.resources {
                    if moved > 0.0 {
                        self.resource_bytes[r2.index()] += moved * w;
                    }
                    if self.res_stamp[r2.index()] != e {
                        self.res_stamp[r2.index()] = e;
                        stack.push(r2);
                    }
                }
            }
        }
        if comp.is_empty() {
            return Ok(());
        }

        let (flows, cost, cap_scale) = (&self.flows, self.cost, &self.cap_scale);
        self.filler
            .fill_with(
                comp.len(),
                |k| FlowSpec {
                    cap: flows[comp[k] as usize].cap,
                    resources: &flows[comp[k] as usize].resources,
                },
                |r| cost.capacity(r, cap_scale),
                &mut self.rates,
            )
            .map_err(|source| SimError::InvalidFlow {
                op: flows[comp[source.flow()] as usize].op,
                source,
            })?;

        for (k, &fi) in comp.iter().enumerate() {
            let new_rate = self.rates[k];
            let f = &mut self.flows[fi as usize];
            if cost.faults_active() && new_rate <= 0.0 {
                if !f.stalled {
                    f.stalled = true;
                    f.version += 1;
                    f.rate = 0.0;
                    let version = f.version;
                    self.push(now + cost.retry_wait(0), Ev::Retry { flow: fi, version });
                }
                continue;
            }
            let changed = f.stalled || (new_rate - f.rate).abs() > RATE_EPS * f.cap;
            f.rate = new_rate;
            f.stalled = false;
            f.retries = 0;
            if changed {
                assert!(new_rate > 0.0, "flow starved by water-filling");
                f.version += 1;
                let (t_fin, version) = (now + f.remaining / new_rate, f.version);
                self.push(t_fin, Ev::Finish { flow: fi, version });
            }
        }
        Ok(())
    }
}
