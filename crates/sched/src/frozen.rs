//! The frozen schedule IR: an immutable, cache-friendly compilation of a
//! [`Schedule`] that both execution backends consume.
//!
//! The builder already writes a [`Schedule`] in execution form: a dense op
//! table and one CSR (compressed sparse row) predecessor arena
//! ([`Schedule::preds`]). Freezing only finishes the indices every
//! interpreter needs on the hot path:
//!
//! * `succ_off`/`succ`: for op `i`, the ops depending on it are
//!   `succ[succ_off[i]..succ_off[i+1]]`, in creation order (so event
//!   ordering — and therefore simulated timing — is bit-identical to the
//!   pre-CSR engine);
//! * `roots`: the Kahn bootstrap set every readiness driver needs (see
//!   [`crate::runtime`]); indegrees are the predecessor-offset differences
//!   and the topological order is creation order, so neither is stored.
//!
//! `FrozenSchedule` derefs to [`Schedule`], so everything that inspects a
//! schedule (`validate`, `stats`, `preds`, buffer lookups) keeps working
//! unchanged.

use std::ops::Deref;

use crate::schedule::Schedule;

/// An immutable, execution-ready schedule: the original [`Schedule`] plus
/// the successor index and the roots.
///
/// Produced by [`Schedule::freeze`]; consumed by `mha-simnet`'s engine and
/// `mha-exec`'s executors via the readiness drivers in [`crate::runtime`].
#[derive(Debug, Clone)]
pub struct FrozenSchedule {
    sched: Schedule,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    roots: Vec<u32>,
    /// Rail count this schedule last validated cleanly against (see
    /// [`FrozenSchedule::validate_for`]).
    validated: std::sync::OnceLock<Option<u8>>,
}

impl Schedule {
    /// Compiles the schedule into its frozen execution form. O(ops + edges).
    pub fn freeze(self) -> FrozenSchedule {
        let n = self.ops.len();

        // Count successors into `succ_off[p + 1]`, prefix-sum to starts,
        // then scatter the edges in creation order using `succ_off[p]` as
        // p's cursor, so each op's successors stay in id order — the order
        // the simulator's event sequence (and every golden latency)
        // depends on. Afterwards every cursor sits at the next op's start,
        // so shifting by one restores the offsets.
        let mut succ_off = vec![0u32; n + 1];
        for &p in &self.pred {
            succ_off[p as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ = vec![0u32; self.pred.len()];
        for i in 0..n as u32 {
            for &p in self.preds(i) {
                debug_assert!(p < i, "dependencies must point backwards");
                let cur = &mut succ_off[p as usize];
                succ[*cur as usize] = i;
                *cur += 1;
            }
        }
        succ_off.copy_within(..n, 1);
        succ_off[0] = 0;

        let roots: Vec<u32> = (0..n as u32).filter(|&i| self.indegree(i) == 0).collect();

        FrozenSchedule {
            sched: self,
            succ_off,
            succ,
            roots,
            validated: std::sync::OnceLock::new(),
        }
    }
}

impl FrozenSchedule {
    /// Number of ops.
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.sched.ops().len()
    }

    /// Ops that depend on `op`, in the order the builder recorded them.
    #[inline]
    pub fn succs(&self, op: u32) -> &[u32] {
        let (a, b) = (self.succ_off[op as usize], self.succ_off[op as usize + 1]);
        &self.succ[a as usize..b as usize]
    }

    /// Ops with no dependencies, in creation order.
    #[inline]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// A topological order of the ops: creation order, because the
    /// builder only accepts backward-pointing dependencies.
    #[inline]
    pub fn topo_order(&self) -> std::ops::Range<u32> {
        0..self.n_ops() as u32
    }

    /// [`crate::validate`] with a success memo: an immutable frozen
    /// schedule that validated cleanly for `rails` once stays valid, so
    /// repeated runs (the simulation campaign hot path, thousands of runs
    /// of one schedule) skip the O(ops) structural walk. Failures are
    /// never memoized, and a later call with a *different* rail count
    /// re-validates in full.
    pub fn validate_for(&self, rails: Option<u8>) -> Result<(), crate::ValidateError> {
        if self.validated.get() == Some(&rails) {
            return Ok(());
        }
        crate::validate(self, rails)?;
        let _ = self.validated.set(rails);
        Ok(())
    }

    /// The underlying schedule (also reachable through `Deref`).
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// Unwraps the underlying schedule, discarding the compiled arrays.
    pub fn into_schedule(self) -> Schedule {
        self.sched
    }
}

impl Deref for FrozenSchedule {
    type Target = Schedule;

    #[inline]
    fn deref(&self) -> &Schedule {
        &self.sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::Loc;
    use crate::builder::ScheduleBuilder;
    use crate::grid::ProcGrid;
    use crate::ids::{NodeId, RankId};
    use crate::op::{Channel, OpClass, OpKind};

    fn diamond() -> FrozenSchedule {
        // 0 -> {1, 2} -> 3
        let grid = ProcGrid::single_node(2);
        let mut b = ScheduleBuilder::new(grid, "diamond");
        let p = b.private_buf(RankId(0), 64, "p");
        let q = b.private_buf(RankId(0), 64, "q");
        let shm = b.shared_buf(NodeId(0), 64, "shm");
        let a = b.copy(RankId(0), Loc::new(p, 0), Loc::new(q, 0), 64, &[], 0);
        let l = b.copy(RankId(0), Loc::new(q, 0), Loc::new(shm, 0), 64, &[a], 1);
        let r = b.compute(RankId(1), 100, &[a], 1);
        b.push(
            OpKind::Transfer {
                src_rank: RankId(0),
                dst_rank: RankId(1),
                src: Loc::new(q, 0),
                dst: Loc::new(q, 0),
                len: 64,
                channel: Channel::Cma,
            },
            &[l, r],
            2,
            "t",
        );
        b.finish().freeze()
    }

    #[test]
    fn csr_matches_dependency_lists() {
        let fs = diamond();
        assert_eq!(fs.n_ops(), 4);
        assert_eq!(fs.n_edges(), 4);
        assert_eq!(fs.succs(0), &[1, 2]);
        assert_eq!(fs.succs(1), &[3]);
        assert_eq!(fs.succs(2), &[3]);
        assert_eq!(fs.succs(3), &[] as &[u32]);
        assert_eq!(fs.preds(3), &[1, 2]);
        assert_eq!(fs.preds(0), &[] as &[u32]);
        assert_eq!(fs.indegrees().collect::<Vec<_>>(), [0, 1, 1, 2]);
        assert_eq!(fs.roots(), &[0]);
        assert_eq!(fs.topo_order(), 0..4);
    }

    #[test]
    fn kinds_classify_class_bytes_and_lane() {
        let fs = diamond();
        let kind = |i: usize| fs.ops()[i].kind;
        assert_eq!(kind(0).class(), OpClass::Copy);
        assert_eq!(kind(0).bytes(), 64);
        assert_eq!(kind(0).lane_rank(), RankId(0));
        assert_eq!(kind(2).class(), OpClass::Compute);
        assert_eq!(kind(2).bytes(), 0);
        assert_eq!(kind(2).lane_rank(), RankId(1));
        // CMA transfers run on the destination CPU's lane.
        assert_eq!(kind(3).class(), OpClass::Cma);
        assert_eq!(kind(3).lane_rank(), RankId(1));
        assert!(!kind(3).class().is_network());
        assert_eq!(kind(3).class().name(), "cma");
        assert!(OpClass::Rails.is_network());
    }

    #[test]
    fn deref_exposes_the_schedule() {
        let fs = diamond();
        assert_eq!(fs.ops().len(), 4);
        assert_eq!(fs.name(), "diamond");
        assert_eq!(fs.schedule().ops().len(), 4);
        assert_eq!(fs.clone().into_schedule().ops().len(), 4);
    }

    #[test]
    fn empty_schedule_freezes() {
        let fs = ScheduleBuilder::new(ProcGrid::single_node(1), "empty")
            .finish()
            .freeze();
        assert_eq!(fs.n_ops(), 0);
        assert_eq!(fs.n_edges(), 0);
        assert!(fs.roots().is_empty());
    }

    #[test]
    fn network_transfers_classify_onto_the_posting_lane() {
        let grid = ProcGrid::new(2, 1);
        let mut b = ScheduleBuilder::new(grid, "net");
        let s = b.private_buf(RankId(0), 32, "s");
        let d = b.private_buf(RankId(1), 32, "d");
        b.transfer(
            RankId(0),
            RankId(1),
            Loc::new(s, 0),
            Loc::new(d, 0),
            32,
            Channel::AllRails,
            &[],
            0,
        );
        b.transfer(
            RankId(1),
            RankId(0),
            Loc::new(d, 0),
            Loc::new(s, 0),
            32,
            Channel::Rail(1),
            &[],
            0,
        );
        let fs = b.finish().freeze();
        let kind = |i: usize| fs.ops()[i].kind;
        assert_eq!(kind(0).class(), OpClass::Rails);
        assert_eq!(kind(0).lane_rank(), RankId(0)); // posting (source) rank
        assert_eq!(kind(1).class(), OpClass::Rail);
        assert_eq!(kind(1).lane_rank(), RankId(1));
        assert!(kind(0).class().is_network());
    }
}
