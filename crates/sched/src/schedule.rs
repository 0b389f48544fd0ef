//! The schedule container: a validated DAG of operations over declared
//! buffers, produced by an algorithm in `mha-collectives` and consumed by
//! both the simulator (`mha-simnet`) and the executors (`mha-exec`).

use crate::buffer::{BufKind, BufferDecl};
use crate::grid::ProcGrid;
use crate::ids::{BufId, NodeId, OpId, RankId};
use crate::op::{Channel, Op, OpKind, OpLabel};

/// Aggregate statistics of a schedule, used by tests to assert algorithmic
/// properties (step counts, traffic volume per channel) without executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Total operations.
    pub ops: usize,
    /// Bytes moved over CMA transfers.
    pub cma_bytes: u64,
    /// Bytes moved over rail transfers (specific rail or striped).
    pub rail_bytes: u64,
    /// Bytes moved by CPU copies.
    pub copy_bytes: u64,
    /// Bytes combined by reductions.
    pub reduce_bytes: u64,
    /// Number of transfer ops on rails.
    pub rail_transfers: usize,
    /// Number of CMA transfer ops.
    pub cma_transfers: usize,
    /// Number of copy ops.
    pub copies: usize,
    /// Highest assigned step number plus one (0 if no steps assigned).
    pub steps: u32,
    /// Length (in ops) of the longest dependency chain.
    pub critical_path: usize,
}

/// A complete schedule.
///
/// The op table is the execution form already: each [`Op`] is a plain
/// `{id, kind, step}` row, and the dependency edges live in one CSR arena
/// (`pred_off`/`pred`) the builder appends to. [`Schedule::freeze`] only
/// adds the successor index and the roots.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub(crate) grid: ProcGrid,
    pub(crate) buffers: Vec<BufferDecl>,
    pub(crate) ops: Vec<Op>,
    /// Dependencies of op `i`: `pred[pred_off[i]..pred_off[i + 1]]`,
    /// ascending and duplicate-free. `pred_off` has `ops.len() + 1` entries.
    pub(crate) pred_off: Vec<u32>,
    pub(crate) pred: Vec<u32>,
    /// Explicit op names, `(op, name)` ascending by op; every other op's
    /// label is derived from its kind (see [`OpLabel`]).
    pub(crate) names: Vec<(u32, &'static str)>,
    /// Human-readable name of the algorithm that produced this schedule.
    pub(crate) name: String,
    /// Per-op release delays in seconds (empty ⇒ all zero): op `i` may not
    /// start before `ready(i) + alpha(i) + release[i]`. The multi-tenant
    /// traffic layer uses this to model job arrival times (on the roots of
    /// an open-loop job) and client think times (on the roots of a chained
    /// closed-loop job). Virtual-time only — the real executors ignore it.
    pub(crate) release: Vec<f64>,
}

impl Schedule {
    /// An op-less schedule over `grid`, ready to be appended to.
    pub(crate) fn empty(grid: ProcGrid, name: String) -> Self {
        Schedule {
            grid,
            buffers: Vec::new(),
            ops: Vec::new(),
            pred_off: vec![0],
            pred: Vec::new(),
            names: Vec::new(),
            name,
            release: Vec::new(),
        }
    }

    /// The release delay of `id` in seconds — `0.0` unless a delay was set
    /// through [`crate::builder::ScheduleBuilder::set_release`].
    #[inline]
    pub fn release_of(&self, id: OpId) -> f64 {
        self.release.get(id.index()).copied().unwrap_or(0.0)
    }

    /// Whether any op carries a non-zero release delay.
    #[inline]
    pub fn has_releases(&self) -> bool {
        !self.release.is_empty()
    }

    /// The process layout this schedule was built for.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.grid
    }

    /// Algorithm name (e.g. `"mha-inter-ring"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All buffer declarations, indexed by [`BufId`].
    #[inline]
    pub fn buffers(&self) -> &[BufferDecl] {
        &self.buffers
    }

    /// All operations in creation (= topological) order.
    #[inline]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Dependencies of `op`, ascending.
    #[inline]
    pub fn preds(&self, op: u32) -> &[u32] {
        let (a, b) = (self.pred_off[op as usize], self.pred_off[op as usize + 1]);
        &self.pred[a as usize..b as usize]
    }

    /// Dependency count of `op`.
    #[inline]
    pub fn indegree(&self, op: u32) -> u32 {
        self.pred_off[op as usize + 1] - self.pred_off[op as usize]
    }

    /// All dependency counts, in op order.
    pub fn indegrees(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.pred_off.windows(2).map(|w| w[1] - w[0])
    }

    /// Number of dependency edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.pred.len()
    }

    /// The human-readable label of `id`: its explicit name if it was pushed
    /// with one, otherwise derived from its kind (`r3->r0`, `copy@r0`, …).
    pub fn label(&self, id: OpId) -> OpLabel<'_> {
        match self.names.binary_search_by_key(&id.0, |&(op, _)| op) {
            Ok(k) => OpLabel::Named(self.names[k].1),
            Err(_) => OpLabel::Derived(&self.ops[id.index()].kind),
        }
    }

    /// Looks up a buffer declaration.
    #[inline]
    pub fn buffer(&self, id: BufId) -> &BufferDecl {
        &self.buffers[id.index()]
    }

    /// Looks up an operation.
    #[inline]
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// Buffers private to `rank`, in declaration order.
    pub fn private_buffers_of(&self, rank: RankId) -> impl Iterator<Item = &BufferDecl> {
        self.buffers
            .iter()
            .filter(move |b| b.kind == BufKind::Private(rank))
    }

    /// Shared buffers of `node`, in declaration order.
    pub fn shared_buffers_of(&self, node: NodeId) -> impl Iterator<Item = &BufferDecl> {
        self.buffers
            .iter()
            .filter(move |b| b.kind == BufKind::NodeShared(node))
    }

    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats {
            ops: self.ops.len(),
            ..Default::default()
        };
        // depth[i] = longest chain ending at op i (ops are topologically
        // ordered because deps always point backwards).
        let mut depth = vec![0usize; self.ops.len()];
        for op in &self.ops {
            let d = self
                .preds(op.id.0)
                .iter()
                .map(|&p| depth[p as usize])
                .max()
                .unwrap_or(0)
                + 1;
            depth[op.id.index()] = d;
            s.critical_path = s.critical_path.max(d);
            if op.has_step() {
                s.steps = s.steps.max(op.step + 1);
            }
            match &op.kind {
                OpKind::Transfer { len, channel, .. } => match channel {
                    Channel::Cma => {
                        s.cma_bytes += *len as u64;
                        s.cma_transfers += 1;
                    }
                    Channel::Rail(_) | Channel::AllRails => {
                        s.rail_bytes += *len as u64;
                        s.rail_transfers += 1;
                    }
                },
                OpKind::Copy { len, .. } => {
                    s.copy_bytes += *len as u64;
                    s.copies += 1;
                }
                OpKind::Reduce { len, .. } => s.reduce_bytes += *len as u64,
                OpKind::Compute { .. } => {}
            }
        }
        s
    }

    /// Total bytes a correctness-checking executor will move (all channels).
    pub fn total_bytes(&self) -> u64 {
        let s = self.stats();
        s.cma_bytes + s.rail_bytes + s.copy_bytes + s.reduce_bytes
    }

    /// Renders the DAG in Graphviz DOT format (for debugging small
    /// schedules; quadratic label text makes this impractical above a few
    /// hundred ops).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=LR; node [shape=box, fontsize=9];");
        for op in &self.ops {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{} {}B s{}\"];",
                op.id.index(),
                self.label(op.id),
                op.kind.kind_name(),
                op.kind.bytes(),
                if op.has_step() { op.step as i64 } else { -1 },
            );
            for &d in self.preds(op.id.0) {
                let _ = writeln!(out, "  {} -> {};", d, op.id.index());
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;

    fn tiny() -> Schedule {
        let grid = ProcGrid::new(2, 2);
        let mut b = ScheduleBuilder::new(grid, "tiny");
        let s0 = b.private_buf(RankId(0), 16, "send0");
        let r1 = b.private_buf(RankId(1), 16, "recv1");
        let shm = b.shared_buf(NodeId(0), 32, "shm0");
        let t = b.push(
            OpKind::Transfer {
                src_rank: RankId(0),
                dst_rank: RankId(1),
                src: Loc::new(s0, 0),
                dst: Loc::new(r1, 0),
                len: 16,
                channel: Channel::Cma,
            },
            &[],
            0,
            "t",
        );
        b.push(
            OpKind::Copy {
                actor: RankId(1),
                src: Loc::new(r1, 0),
                dst: Loc::new(shm, 0),
                len: 16,
            },
            &[t],
            1,
            "c",
        );
        b.finish()
    }

    #[test]
    fn stats_counts_bytes_by_channel() {
        let s = tiny().stats();
        assert_eq!(s.ops, 2);
        assert_eq!(s.cma_bytes, 16);
        assert_eq!(s.copy_bytes, 16);
        assert_eq!(s.rail_bytes, 0);
        assert_eq!(s.cma_transfers, 1);
        assert_eq!(s.copies, 1);
        assert_eq!(s.steps, 2);
        assert_eq!(s.critical_path, 2);
    }

    #[test]
    fn freeze_inverts_deps() {
        // Adjacency queries moved to the frozen IR; freezing keeps the
        // schedule reachable through Deref.
        let fs = tiny().freeze();
        assert_eq!(fs.succs(0), &[1]);
        assert!(fs.succs(1).is_empty());
        assert_eq!(fs.indegrees().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(fs.ops().len(), 2);
    }

    #[test]
    fn buffer_queries_filter_by_owner() {
        let sch = tiny();
        assert_eq!(sch.private_buffers_of(RankId(0)).count(), 1);
        assert_eq!(sch.private_buffers_of(RankId(1)).count(), 1);
        assert_eq!(sch.private_buffers_of(RankId(2)).count(), 0);
        assert_eq!(sch.shared_buffers_of(NodeId(0)).count(), 1);
        assert_eq!(sch.shared_buffers_of(NodeId(1)).count(), 0);
    }

    #[test]
    fn dot_output_mentions_every_op() {
        let sch = tiny();
        let dot = sch.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("[label=\"t\\ncma 16B s0\"]"));
    }

    #[test]
    fn labels_are_derived_unless_named() {
        let sch = tiny();
        assert_eq!(sch.label(OpId(0)).to_string(), "t");
        assert_eq!(sch.label(OpId(1)).to_string(), "c");
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "l");
        let buf = b.private_buf(RankId(1), 16, "x");
        let loc = Loc::new(buf, 0);
        b.transfer(RankId(0), RankId(1), loc, loc, 8, Channel::Cma, &[], 0);
        b.reduce(
            RankId(1),
            loc,
            loc,
            8,
            crate::op::DType::F32,
            crate::op::RedOp::Sum,
            &[],
            0,
        );
        b.push(
            OpKind::Compute {
                actor: RankId(1),
                flops: 0,
            },
            &[],
            0,
            "sync",
        );
        b.compute(RankId(0), 1, &[], 0);
        let sch = b.finish();
        let labels: Vec<String> = (0..4).map(|i| sch.label(OpId(i)).to_string()).collect();
        assert_eq!(labels, ["r0->r1", "red@r1", "sync", "comp@r0"]);
        assert_eq!(sch.label(OpId(2)).name(), Some("sync"));
        assert_eq!(sch.label(OpId(3)).name(), None);
    }

    #[test]
    fn total_bytes_sums_channels() {
        assert_eq!(tiny().total_bytes(), 32);
    }

    #[test]
    fn unassigned_steps_do_not_count() {
        let grid = ProcGrid::single_node(1);
        let mut b = ScheduleBuilder::new(grid, "t");
        b.push(
            OpKind::Compute {
                actor: RankId(0),
                flops: 1,
            },
            &[],
            u32::MAX, // unassigned
            "x",
        );
        let stats = b.finish().stats();
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.critical_path, 1);
    }

    #[test]
    fn critical_path_tracks_longest_chain_not_op_count() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "t");
        // Two independent chains of depth 3 and 2.
        let mut prev = None;
        for i in 0..3u32 {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(b.compute(RankId(0), 1, &deps, i));
        }
        let a = b.compute(RankId(1), 1, &[], 0);
        b.compute(RankId(1), 1, &[a], 1);
        let stats = b.finish().stats();
        assert_eq!(stats.ops, 5);
        assert_eq!(stats.critical_path, 3);
    }
}
