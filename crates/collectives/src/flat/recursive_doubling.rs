//! Flat Recursive-Doubling Allgather.
//!
//! `log₂ N` steps; in step `k`, rank `r` exchanges its entire gathered
//! region (2ᵏ blocks) with partner `r XOR 2ᵏ`, so the transferred size
//! doubles every step (Section 2.2). Power-of-two rank counts only — the
//! paper notes non-powers need extra steps; callers fall back to Bruck or
//! Ring (as the library surrogates do).

use mha_sched::{ProcGrid, RankId};

use crate::ctx::{BuildError, Built, Ctx};

/// Builds a flat Recursive-Doubling Allgather.
///
/// # Errors
///
/// [`BuildError::RequiresPowerOfTwo`] unless `grid.nranks()` is a power of
/// two.
pub(crate) fn build_recursive_doubling(grid: ProcGrid, msg: usize) -> Result<Built, BuildError> {
    let r = grid.nranks();
    if !r.is_power_of_two() {
        return Err(BuildError::RequiresPowerOfTwo {
            what: "ranks",
            got: r,
        });
    }
    let mut ctx = Ctx::new(grid, msg, "flat-recursive-doubling");
    if ctx.is_degenerate() {
        return Ok(ctx.finish_degenerate());
    }
    emit_recursive_doubling(&mut ctx);
    Ok(ctx.finish())
}

/// Emits the RD exchange into an existing context. The caller has already
/// checked the power-of-two precondition and non-degeneracy.
pub(crate) fn emit_recursive_doubling(ctx: &mut Ctx) {
    let r = ctx.grid().nranks();
    let msg = ctx.msg;
    ctx.self_copies_all(0);
    let steps = r.trailing_zeros();
    for k in 0..steps {
        let dist = 1u32 << k;
        // Build both directions of every pairwise exchange, reading
        // cursors (= state after step k−1) before advancing anyone.
        let mut new_ops = Vec::with_capacity(r as usize);
        for me in 0..r {
            let partner = me ^ dist;
            let src_base = partner & !(dist - 1);
            let (src_r, dst_r) = (RankId(partner), RankId(me));
            let ch = ctx.channel_between(src_r, dst_r);
            // The sendrecv blocks both sides: depend on both cursors.
            let deps = {
                let mut d = ctx.cur.deps_of(dst_r);
                d.extend(ctx.cur.last(src_r));
                d
            };
            let t = ctx.b.transfer(
                src_r,
                dst_r,
                ctx.recv_block(src_r, src_base),
                ctx.recv_block(dst_r, src_base),
                dist as usize * msg,
                ch,
                &deps,
                k + 1,
            );
            new_ops.push(t);
        }
        for me in 0..r {
            ctx.cur.advance(RankId(me), new_ops[me as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;

    #[test]
    fn rd_is_correct_for_powers_of_two() {
        for (nodes, ppn) in [(1, 2), (1, 8), (2, 2), (2, 8), (4, 4), (1, 1)] {
            let built = build_recursive_doubling(ProcGrid::new(nodes, ppn), 12).unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn rd_rejects_non_powers_of_two() {
        let err = build_recursive_doubling(ProcGrid::new(1, 6), 8).unwrap_err();
        assert_eq!(
            err,
            BuildError::RequiresPowerOfTwo {
                what: "ranks",
                got: 6
            }
        );
    }

    #[test]
    fn rd_takes_log2_steps() {
        let built = build_recursive_doubling(ProcGrid::new(2, 8), 8).unwrap();
        // self-copy step + log2(16) = 4 exchange steps.
        assert_eq!(built.sched.stats().steps, 5);
    }

    #[test]
    fn rd_message_sizes_double_per_step() {
        let built = build_recursive_doubling(ProcGrid::new(1, 8), 10).unwrap();
        for op in built.sched.ops() {
            if let mha_sched::OpKind::Transfer { len, .. } = op.kind {
                assert_eq!(len, 10 << (op.step - 1));
            }
        }
    }

    #[test]
    fn rd_moves_same_total_bytes_as_ring() {
        // Both are bandwidth-optimal: (N-1) * msg received per rank.
        let grid = ProcGrid::new(2, 4);
        let rd = build_recursive_doubling(grid, 8).unwrap();
        let ring = crate::flat::build_ring(grid, 8);
        let rd_bytes = rd.sched.stats().cma_bytes + rd.sched.stats().rail_bytes;
        let ring_bytes = ring.sched.stats().cma_bytes + ring.sched.stats().rail_bytes;
        assert_eq!(rd_bytes, ring_bytes);
    }
}
