//! Fluent construction of schedules.
//!
//! The builder enforces the one structural invariant that makes everything
//! downstream simple: **dependencies always point backwards** (an op may only
//! depend on ops created before it), so creation order is a topological order
//! and the DAG is acyclic by construction.
//!
//! It writes the execution form directly: each op's dependencies are
//! appended, sorted and deduplicated, to the schedule's one CSR arena, and
//! no label text is stored unless an op is pushed with an explicit name.

use crate::buffer::{BufKind, BufferDecl, Loc};
use crate::grid::ProcGrid;
use crate::ids::{BufId, NodeId, OpId, RankId};
use crate::op::{Channel, DType, Op, OpKind, RedOp};
use crate::schedule::Schedule;

/// Builds a [`Schedule`] incrementally.
pub struct ScheduleBuilder {
    sched: Schedule,
}

impl ScheduleBuilder {
    /// Starts a schedule for `grid`, labelled `name`.
    pub fn new(grid: ProcGrid, name: impl Into<String>) -> Self {
        ScheduleBuilder {
            sched: Schedule::empty(grid, name.into()),
        }
    }

    /// Sets the release delay of `op`: it may not start before
    /// `ready + alpha + secs` of simulated time. The traffic layer models
    /// job arrival times and client think times with this; plain collective
    /// schedules never set it. Virtual-time only — the real executors
    /// run ops as soon as their dependencies complete.
    ///
    /// # Panics
    ///
    /// Panics if `op` was not created yet or `secs` is negative or
    /// non-finite.
    pub fn set_release(&mut self, op: OpId, secs: f64) {
        assert!(op.index() < self.len(), "release for unknown op {op}");
        assert!(
            secs.is_finite() && secs >= 0.0,
            "release delay must be finite and non-negative, got {secs}"
        );
        let n = self.len();
        let release = &mut self.sched.release;
        if secs == 0.0 && release.is_empty() {
            return; // stay on the release-free fast path
        }
        if release.is_empty() {
            release.resize(n, 0.0);
        }
        release[op.index()] = secs;
    }

    /// The grid being scheduled against.
    #[inline]
    pub fn grid(&self) -> &ProcGrid {
        &self.sched.grid
    }

    /// Number of ops created so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.sched.ops.len()
    }

    /// Whether no ops were created yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sched.ops.is_empty()
    }

    /// Declares a buffer private to `rank`.
    pub fn private_buf(&mut self, rank: RankId, len: usize, label: impl Into<String>) -> BufId {
        assert!(
            rank.0 < self.grid().nranks(),
            "buffer owner {rank} outside grid"
        );
        self.decl(BufKind::Private(rank), len, None, label)
    }

    /// Declares a node-shared (shm) buffer on `node` with interleaved
    /// (NUMA-agnostic) placement.
    pub fn shared_buf(&mut self, node: NodeId, len: usize, label: impl Into<String>) -> BufId {
        assert!(
            node.0 < self.grid().nodes(),
            "buffer node {node} outside grid"
        );
        self.decl(BufKind::NodeShared(node), len, None, label)
    }

    /// Declares a node-shared buffer whose pages live on `socket`'s memory
    /// (first-touch placement by a rank of that socket). On NUMA clusters,
    /// ranks of other sockets pay the cross-socket interconnect to copy
    /// into or out of it.
    pub fn shared_buf_homed(
        &mut self,
        node: NodeId,
        socket: u32,
        len: usize,
        label: impl Into<String>,
    ) -> BufId {
        assert!(
            node.0 < self.grid().nodes(),
            "buffer node {node} outside grid"
        );
        self.decl(BufKind::NodeShared(node), len, Some(socket), label)
    }

    fn decl(
        &mut self,
        kind: BufKind,
        len: usize,
        home_socket: Option<u32>,
        label: impl Into<String>,
    ) -> BufId {
        let buffers = &mut self.sched.buffers;
        let id = BufId::from(buffers.len());
        buffers.push(BufferDecl {
            id,
            kind,
            len,
            home_socket,
            label: label.into(),
        });
        id
    }

    /// Adds an op with explicit dependencies and step tag. `name` is
    /// either `None` — the op's label is then derived from its kind — or
    /// an explicit marker name such as `"sync"`.
    ///
    /// # Panics
    ///
    /// Panics if a dependency refers to an op not yet created (this is what
    /// keeps the graph acyclic).
    pub fn push(
        &mut self,
        kind: OpKind,
        deps: &[OpId],
        step: u32,
        name: impl Into<Option<&'static str>>,
    ) -> OpId {
        let id = OpId::from(self.len());
        let s = &mut self.sched;
        let start = s.pred.len();
        for &d in deps {
            assert!(
                d < id,
                "op {id} depends on {d}, which does not exist yet (forward deps are forbidden)"
            );
            s.pred.push(d.0);
        }
        // Sort and deduplicate this op's tail of the arena in place.
        s.pred[start..].sort_unstable();
        let mut end = start;
        for i in start..s.pred.len() {
            if end == start || s.pred[i] != s.pred[end - 1] {
                s.pred[end] = s.pred[i];
                end += 1;
            }
        }
        s.pred.truncate(end);
        s.pred_off
            .push(u32::try_from(end).expect("edge count overflows u32"));
        if let Some(name) = name.into() {
            s.names.push((id.0, name));
        }
        s.ops.push(Op { id, kind, step });
        id
    }

    /// Convenience: a transfer op.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer(
        &mut self,
        src_rank: RankId,
        dst_rank: RankId,
        src: Loc,
        dst: Loc,
        len: usize,
        channel: Channel,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        self.push(
            OpKind::Transfer {
                src_rank,
                dst_rank,
                src,
                dst,
                len,
                channel,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: a CPU copy op.
    pub fn copy(
        &mut self,
        actor: RankId,
        src: Loc,
        dst: Loc,
        len: usize,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        self.push(
            OpKind::Copy {
                actor,
                src,
                dst,
                len,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: an elementwise reduction op.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        actor: RankId,
        acc: Loc,
        operand: Loc,
        len: usize,
        dtype: DType,
        op: RedOp,
        deps: &[OpId],
        step: u32,
    ) -> OpId {
        assert!(
            len.is_multiple_of(dtype.size()),
            "reduce length {len} not a multiple of element size {}",
            dtype.size()
        );
        self.push(
            OpKind::Reduce {
                actor,
                acc,
                operand,
                len,
                dtype,
                op,
            },
            deps,
            step,
            None,
        )
    }

    /// Convenience: a pure-compute op.
    pub fn compute(&mut self, actor: RankId, flops: u64, deps: &[OpId], step: u32) -> OpId {
        self.push(OpKind::Compute { actor, flops }, deps, step, None)
    }

    /// Finalizes the schedule.
    pub fn finish(mut self) -> Schedule {
        // `set_release` may have run before trailing ops were pushed.
        if !self.sched.release.is_empty() {
            let n = self.len();
            self.sched.release.resize(n, 0.0);
        }
        self.sched
    }
}

/// How many dependencies a [`Deps`] holds without touching the heap.
const INLINE_DEPS: usize = 4;

/// A short dependency list held on the stack: up to four ids inline,
/// spilling to the heap only for wide joins. Derefs to `[OpId]`, so
/// `&deps` passes straight to [`ScheduleBuilder::push`] and friends.
#[derive(Debug, Clone)]
pub struct Deps {
    len: usize,
    inline: [OpId; INLINE_DEPS],
    spill: Vec<OpId>,
}

impl Deps {
    /// An empty list.
    pub fn new() -> Self {
        Deps {
            len: 0,
            inline: [OpId(0); INLINE_DEPS],
            spill: Vec::new(),
        }
    }

    /// Appends `id`.
    pub fn push(&mut self, id: OpId) {
        if self.len < INLINE_DEPS {
            self.inline[self.len] = id;
        } else {
            if self.len == INLINE_DEPS {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }
}

impl Default for Deps {
    fn default() -> Self {
        Deps::new()
    }
}

impl std::ops::Deref for Deps {
    type Target = [OpId];

    fn deref(&self) -> &[OpId] {
        if self.len <= INLINE_DEPS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl FromIterator<OpId> for Deps {
    fn from_iter<I: IntoIterator<Item = OpId>>(iter: I) -> Self {
        let mut d = Deps::new();
        d.extend(iter);
        d
    }
}

impl Extend<OpId> for Deps {
    fn extend<I: IntoIterator<Item = OpId>>(&mut self, iter: I) {
        for id in iter {
            self.push(id);
        }
    }
}

/// Tracks the last op issued by each rank so algorithms can express MPI-style
/// program order ("this rank's next call starts after its previous one")
/// without threading `OpId`s by hand.
///
/// This mirrors how a blocking MPI algorithm serializes each rank's calls
/// while leaving cross-rank ordering to explicit dependencies.
pub struct RankCursors {
    last: Vec<Option<OpId>>,
}

impl RankCursors {
    /// Cursors for every rank of `grid`, all initially unset.
    pub fn new(grid: &ProcGrid) -> Self {
        RankCursors {
            last: vec![None; grid.nranks() as usize],
        }
    }

    /// The rank's previous op, if any, as a dependency list.
    pub fn deps_of(&self, rank: RankId) -> Deps {
        let mut d = Deps::new();
        d.extend(self.last[rank.index()]);
        d
    }

    /// Dependencies = the rank's previous op plus `extra`.
    pub fn deps_with(&self, rank: RankId, extra: &[OpId]) -> Deps {
        let mut d = self.deps_of(rank);
        d.extend(extra.iter().copied());
        d
    }

    /// Records `op` as the rank's latest.
    pub fn advance(&mut self, rank: RankId, op: OpId) {
        self.last[rank.index()] = Some(op);
    }

    /// The rank's latest op.
    pub fn last(&self, rank: RankId) -> Option<OpId> {
        self.last[rank.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_are_deduped_and_sorted() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "t");
        let a = b.compute(RankId(0), 1, &[], 0);
        let c = b.compute(RankId(0), 1, &[], 0);
        let d = b.compute(RankId(1), 1, &[c, a, c], 1);
        let e = b.compute(RankId(1), 1, &[a], 1);
        let sch = b.finish();
        assert_eq!(sch.preds(d.0), &[a.0, c.0]);
        assert_eq!(sch.preds(e.0), &[a.0]);
        assert_eq!(sch.n_edges(), 3);
    }

    #[test]
    #[should_panic(expected = "forward deps are forbidden")]
    fn forward_dependency_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        b.compute(RankId(0), 1, &[OpId(5)], 0);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn buffer_for_foreign_rank_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(2), "t");
        b.private_buf(RankId(7), 8, "x");
    }

    #[test]
    #[should_panic(expected = "not a multiple of element size")]
    fn misaligned_reduce_rejected() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        let buf = b.private_buf(RankId(0), 16, "x");
        b.reduce(
            RankId(0),
            Loc::new(buf, 0),
            Loc::new(buf, 8),
            6,
            DType::F32,
            RedOp::Sum,
            &[],
            0,
        );
    }

    #[test]
    fn cursors_express_program_order() {
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "t");
        let mut cur = RankCursors::new(&grid);
        assert!(cur.deps_of(RankId(0)).is_empty());
        let a = b.compute(RankId(0), 1, &cur.deps_of(RankId(0)), 0);
        cur.advance(RankId(0), a);
        assert_eq!(&*cur.deps_of(RankId(0)), &[a]);
        assert_eq!(cur.last(RankId(1)), None);
        let mixed = cur.deps_with(RankId(0), &[a]);
        assert_eq!(&*mixed, &[a, a]); // push() dedups later
        let c = b.compute(RankId(0), 1, &mixed, 1);
        assert_eq!(b.finish().preds(c.0), &[a.0]);
    }

    #[test]
    fn deps_spill_past_the_inline_capacity() {
        let ids: Vec<OpId> = (0..7).map(OpId).collect();
        let mut d = Deps::new();
        for (k, &id) in ids.iter().enumerate() {
            d.push(id);
            assert_eq!(&*d, &ids[..=k]);
        }
    }

    #[test]
    fn builder_len_tracks_ops() {
        let mut b = ScheduleBuilder::new(ProcGrid::single_node(1), "t");
        assert!(b.is_empty());
        b.compute(RankId(0), 1, &[], 0);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
