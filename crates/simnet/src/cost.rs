//! Op costing: what each schedule op costs on a cluster.
//!
//! [`CostModel`] holds every pricing rule the event loop applies — an op's
//! startup latency, the fluid flows it expands into (round-robin rail
//! choice for small `AllRails` messages, surviving-rail striping for large
//! ones), what a fault event does to resource capacities, and where a
//! stalled rail flow re-issues. The rules live here once: the engine
//! ([`crate::Simulator`]) and any independent reference simulator price
//! ops through the same calls, so differencing the two compares their
//! event loops and allocators, not two copies of the cost rules.

use mha_sched::{Channel, Loc, NodeId, OpKind, ProcGrid, Schedule};

use crate::engine::Simulator;
use crate::fault::{FaultEvent, FaultKind};
use crate::resources::{socket_of, ResourceId, ResourceMap};
use crate::topology::ClusterSpec;

/// A rail flow's routing coordinates `(src node, dst node, rail)` — what a
/// retry needs to re-issue the flow on a surviving rail.
pub type RailRoute = (NodeId, NodeId, u8);

/// The documented cap on retry exponential backoff: the wait multiplier
/// saturates at `2^MAX_BACKOFF_SHIFT` × the retry timeout.
const MAX_BACKOFF_SHIFT: u32 = 10;

/// One flow an op expands into: rate cap, byte count, rail route and the
/// `(resource, weight)` pairs it loads. Every flow kind uses at most three
/// resources (tx+rx rail pair, or cpu+mem+optional cross-socket link), so
/// the list is stored inline.
#[derive(Debug, Clone, Copy)]
pub struct FlowPlan {
    /// Intrinsic rate cap (bytes/s).
    pub cap: f64,
    /// Bytes the flow moves. Zero-byte plans create no flow.
    pub bytes: f64,
    /// Rail routing coordinates; `None` for flows that never touch a rail
    /// (CMA, copies, reductions, compute).
    pub route: Option<RailRoute>,
    res: [(ResourceId, f64); 3],
    n_res: u8,
}

impl FlowPlan {
    fn new(cap: f64, bytes: f64, route: Option<RailRoute>) -> Self {
        FlowPlan {
            cap,
            bytes,
            route,
            res: [(ResourceId(0), 0.0); 3],
            n_res: 0,
        }
    }

    fn with(mut self, r: ResourceId, w: f64) -> Self {
        self.res[self.n_res as usize] = (r, w);
        self.n_res += 1;
        self
    }

    /// The `(resource, weight)` pairs the flow loads: it consumes
    /// `weight · rate` of each while active.
    pub fn resources(&self) -> &[(ResourceId, f64)] {
        &self.res[..self.n_res as usize]
    }
}

/// The pricing rules of one simulator on one grid (see the module docs).
///
/// Stateless: the per-run state the rules read or advance — each
/// resource's fault scaling of nominal capacity (`cap_scale`, 1.0 without
/// faults) and each node's round-robin rail cursor (`rr_next_rail`) — is
/// owned by the caller and passed in.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    spec: &'a ClusterSpec,
    rmap: &'a ResourceMap,
    grid: ProcGrid,
    faults_active: bool,
    retry_timeout: f64,
}

impl<'a> CostModel<'a> {
    /// The rules of `sim` on `grid`, whose resources `rmap` lays out.
    pub fn new(sim: &'a Simulator, rmap: &'a ResourceMap, grid: ProcGrid) -> Self {
        CostModel {
            spec: sim.spec(),
            rmap,
            grid,
            faults_active: sim.faults_active(),
            retry_timeout: sim.faults().map_or(0.0, |f| f.retry_timeout),
        }
    }

    /// Whether a non-empty fault timeline is active: flows starved by a
    /// dead resource stall and retry instead of being a modelling error.
    pub fn faults_active(&self) -> bool {
        self.faults_active
    }

    /// When op `op`, whose dependencies completed at `ready`, starts
    /// moving bytes: after its startup latency (α_C / α_H / α_L, plus the
    /// rendezvous handshake for large rail messages) and its release delay
    /// (job arrival / think time from the traffic layer), if any.
    pub fn start_time(&self, sch: &Schedule, op: u32, ready: f64) -> f64 {
        let t = ready + self.alpha(sch, op as usize);
        // The guard keeps release-free schedules on exactly
        // `ready + alpha`, the sum the golden latencies pin.
        let rel = sch.release_of(mha_sched::OpId(op));
        if rel > 0.0 {
            t + rel
        } else {
            t
        }
    }

    /// Startup latency of op `oi`.
    fn alpha(&self, sch: &Schedule, oi: usize) -> f64 {
        let spec = self.spec;
        match &sch.ops()[oi].kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                len,
                channel,
                ..
            } => match channel {
                Channel::Cma => {
                    let xs = spec
                        .numa
                        .as_ref()
                        .filter(|n| n.cross_socket(&self.grid, *src_rank, *dst_rank))
                        .map_or(0.0, |n| n.xsocket_alpha);
                    spec.cma_alpha + xs
                }
                Channel::Rail(_) | Channel::AllRails => spec.rail_startup(*len),
            },
            OpKind::Copy { .. } | OpKind::Reduce { .. } => spec.copy_alpha,
            OpKind::Compute { .. } => 0.0,
        }
    }

    /// Effective capacity of `r` (bytes/s) under the current fault scaling.
    pub fn capacity(&self, r: ResourceId, cap_scale: &[f64]) -> f64 {
        self.rmap.capacity(r) * cap_scale[r.index()]
    }

    /// The tx/rx pair a rail flow on `route` loads.
    pub fn rail_resources(&self, (sn, dn, h): RailRoute) -> [(ResourceId, f64); 2] {
        [(self.rmap.tx(sn, h), 1.0), (self.rmap.rx(dn, h), 1.0)]
    }

    fn rail_up(&self, sn: NodeId, dn: NodeId, h: u8, cap_scale: &[f64]) -> bool {
        cap_scale[self.rmap.tx(sn, h).index()] > 0.0 && cap_scale[self.rmap.rx(dn, h).index()] > 0.0
    }

    /// Expands op `op` into its flows, replacing `out`'s contents.
    ///
    /// The round-robin rail for small `AllRails` messages is chosen here —
    /// when the transfer actually starts, matching an MPI pt2pt layer
    /// choosing the rail as the message hits the wire — and advances
    /// `rr_next_rail`. Under an active fault timeline, `AllRails` resolves
    /// against the rails currently up for this src/dst pair
    /// (`cap_scale > 0`): the round robin skips dead rails and a stripe
    /// re-tiles over the survivors. With every rail down it issues on the
    /// full set and lets the stall/retry machinery wait out the outage.
    pub fn expand(
        &self,
        sch: &Schedule,
        op: u32,
        rr_next_rail: &mut [u8],
        cap_scale: &[f64],
        out: &mut Vec<FlowPlan>,
    ) {
        out.clear();
        let (spec, rmap, grid) = (self.spec, self.rmap, &self.grid);
        let rail_flow = |bytes: usize, route: RailRoute| {
            let [tx, rx] = self.rail_resources(route);
            FlowPlan::new(spec.rail_bw, bytes as f64, Some(route))
                .with(tx.0, tx.1)
                .with(rx.0, rx.1)
        };
        match &sch.ops()[op as usize].kind {
            OpKind::Transfer {
                src_rank,
                dst_rank,
                len,
                channel,
                ..
            } => {
                let sn = grid.node_of(*src_rank);
                let dn = grid.node_of(*dst_rank);
                match channel {
                    Channel::Cma => {
                        let sck = socket_of(spec, grid, *dst_rank);
                        let mut f = FlowPlan::new(spec.cma_bw, *len as f64, None)
                            .with(rmap.cpu(*dst_rank), 1.0)
                            .with(rmap.mem(dn, sck), spec.cma_mem_weight);
                        if let Some(numa) = &spec.numa {
                            if numa.cross_socket(grid, *src_rank, *dst_rank) {
                                f = f.with(rmap.xsocket(dn), 1.0);
                            }
                        }
                        out.push(f);
                    }
                    Channel::Rail(h) => out.push(rail_flow(*len, (sn, dn, *h))),
                    Channel::AllRails if spec.stripes(*len) => {
                        // Only consulted under a fault timeline; otherwise
                        // every rail is up and the tiling is the fault-free
                        // one.
                        let any_up = self.faults_active
                            && (0..spec.rails).any(|r| self.rail_up(sn, dn, r, cap_scale));
                        let on = |r: &u8| !any_up || self.rail_up(sn, dn, *r, cap_scale);
                        let k = (0..spec.rails).filter(on).count();
                        let base = *len / k;
                        let rem = *len % k;
                        for (i, r) in (0..spec.rails).filter(on).enumerate() {
                            let bytes = base + usize::from(i < rem);
                            if bytes > 0 {
                                out.push(rail_flow(bytes, (sn, dn, r)));
                            }
                        }
                    }
                    Channel::AllRails => {
                        let mut h = rr_next_rail[sn.index()];
                        if self.faults_active {
                            // Skip dead rails; if all are down, keep the
                            // scheduled one and stall.
                            for _ in 0..spec.rails {
                                if self.rail_up(sn, dn, h, cap_scale) {
                                    break;
                                }
                                h = (h + 1) % spec.rails;
                            }
                        }
                        rr_next_rail[sn.index()] = (h + 1) % spec.rails;
                        out.push(rail_flow(*len, (sn, dn, h)));
                    }
                }
            }
            OpKind::Copy {
                actor,
                src,
                dst,
                len,
            } => out.push(self.local_flow(sch, *actor, [src, dst], 1.0, spec.copy_bw, *len)),
            OpKind::Reduce {
                actor,
                acc,
                operand,
                len,
                ..
            } => out.push(self.local_flow(
                sch,
                *actor,
                [acc, operand],
                spec.reduce_mem_weight,
                spec.reduce_bw(),
                *len,
            )),
            OpKind::Compute { actor, flops } => {
                // FLOPs become CPU byte-equivalents so compute and copy
                // contend for the same core in one unit system.
                let bytes = *flops as f64 * spec.copy_bw / spec.flops_rate;
                out.push(FlowPlan::new(spec.copy_bw, bytes, None).with(rmap.cpu(*actor), 1.0));
            }
        }
    }

    /// A copy or reduction by `actor` over `locs`: its core, its socket's
    /// memory controller at `mem_weight`, and — when first-touch shm pages
    /// live on another socket — the cross-socket interconnect.
    fn local_flow(
        &self,
        sch: &Schedule,
        actor: mha_sched::RankId,
        locs: [&Loc; 2],
        mem_weight: f64,
        cap: f64,
        len: usize,
    ) -> FlowPlan {
        let (spec, rmap) = (self.spec, self.rmap);
        let node = self.grid.node_of(actor);
        let sck = socket_of(spec, &self.grid, actor);
        let f = FlowPlan::new(cap, len as f64, None)
            .with(rmap.cpu(actor), 1.0)
            .with(rmap.mem(node, sck), mem_weight);
        let remote_home = || {
            locs.iter()
                .any(|loc| sch.buffer(loc.buf).home_socket.is_some_and(|h| h != sck))
        };
        if spec.numa.is_some() && remote_home() {
            f.with(rmap.xsocket(node), 1.0)
        } else {
            f
        }
    }

    /// Applies fault event `ev` to `cap_scale` and lists the resources it
    /// rescaled in `hit` (replacing its contents), in a fixed order.
    ///
    /// A rail event scales that rail's tx/rx pair on one node or on every
    /// node: derate to a fraction, down to 0, up to nominal. A whole-node
    /// crash or restart takes every resource the node owns — CPUs, memory
    /// ports, the cross-socket link and all rails of its HCAs — to 0 or
    /// back to nominal.
    pub fn apply_fault(&self, ev: &FaultEvent, cap_scale: &mut [f64], hit: &mut Vec<ResourceId>) {
        hit.clear();
        let (spec, rmap) = (self.spec, self.rmap);
        let scale = match ev.kind {
            FaultKind::Derate(f) => f,
            FaultKind::Down | FaultKind::NodeDown => 0.0,
            FaultKind::Up | FaultKind::NodeUp => 1.0,
        };
        if matches!(ev.kind, FaultKind::NodeDown | FaultKind::NodeUp) {
            let n = NodeId(ev.node.expect("validated: node faults carry a node"));
            hit.extend(self.grid.ranks_of(n).map(|rank| rmap.cpu(rank)));
            hit.extend((0..spec.sockets()).map(|s| rmap.mem(n, s)));
            for h in 0..spec.rails {
                hit.push(rmap.tx(n, h));
                hit.push(rmap.rx(n, h));
            }
            if spec.sockets() > 1 {
                hit.push(rmap.xsocket(n));
            }
        } else {
            let (n_lo, n_hi) = match ev.node {
                Some(n) => (n, n + 1),
                None => (0, self.grid.nodes()),
            };
            for n in (n_lo..n_hi).map(NodeId) {
                hit.push(rmap.tx(n, ev.rail));
                hit.push(rmap.rx(n, ev.rail));
            }
        }
        for r in hit.iter() {
            cap_scale[r.index()] = scale;
        }
    }

    /// Where a flow stalled on `route` re-issues: the first surviving rail
    /// between its two nodes, scanning round-robin from the rail after the
    /// one it stalled on. `None` when no rail survives.
    pub fn retry_route(&self, (sn, dn, cur): RailRoute, cap_scale: &[f64]) -> Option<RailRoute> {
        let rails = self.spec.rails;
        (1..=rails)
            .map(|off| ((u16::from(cur) + u16::from(off)) % u16::from(rails)) as u8)
            .find(|&h| self.rail_up(sn, dn, h, cap_scale))
            .map(|h| (sn, dn, h))
    }

    /// How long a stalled flow waits before its next re-issue attempt
    /// after `retries` consecutive failed ones: the retry timeout, doubled
    /// per failure and saturating at 2^10 × (the counter itself may keep
    /// growing past the cap).
    pub fn retry_wait(&self, retries: u32) -> f64 {
        self.retry_timeout * (1u64 << retries.min(MAX_BACKOFF_SHIFT)) as f64
    }
}
