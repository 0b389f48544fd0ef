//! Bruck's Allgather.
//!
//! `⌈log₂ N⌉` steps for *any* N: each rank accumulates blocks in a rotated
//! temporary buffer (own block first), receiving from rank `r + 2ᵏ` in step
//! `k`, then un-rotates into the receive buffer with two local copies. The
//! preferred flat algorithm for small messages — the latency term dominates
//! and Bruck has the fewest steps without RD's power-of-two restriction.

use mha_sched::{Loc, ProcGrid, RankId};

use crate::ctx::{Built, Ctx};

/// Builds a Bruck Allgather.
pub(crate) fn build_bruck(grid: ProcGrid, msg: usize) -> Built {
    let mut ctx = Ctx::new(grid, msg, "flat-bruck");
    if ctx.is_degenerate() {
        return ctx.finish_degenerate();
    }
    emit_bruck(&mut ctx);
    ctx.finish()
}

/// Emits the Bruck rounds into an existing non-degenerate context.
pub(crate) fn emit_bruck(ctx: &mut Ctx) {
    let r = ctx.grid().nranks();
    let msg = ctx.msg;

    // Per-rank rotated staging buffer: slot j holds block (rank + j) mod N.
    let tmp: Vec<_> = (0..r)
        .map(|rank| {
            ctx.b
                .private_buf(RankId(rank), r as usize * msg, format!("bruck-tmp/{rank}"))
        })
        .collect();

    // Slot 0 = own contribution.
    for rank in 0..r {
        let rid = RankId(rank);
        let op = ctx.b.copy(
            rid,
            ctx.send_loc(rid),
            Loc::new(tmp[rank as usize], 0),
            msg,
            &[],
            0,
        );
        ctx.cur.advance(rid, op);
    }

    // Doubling rounds.
    let mut step = 1;
    let mut dist = 1u32;
    while dist < r {
        let cnt = dist.min(r - dist) as usize;
        let mut new_ops = Vec::with_capacity(r as usize);
        for me in 0..r {
            let peer = (me + dist) % r;
            let (src_r, dst_r) = (RankId(peer), RankId(me));
            let ch = ctx.channel_between(src_r, dst_r);
            let deps = {
                let mut d = ctx.cur.deps_of(dst_r);
                d.extend(ctx.cur.last(src_r));
                d
            };
            let t = ctx.b.transfer(
                src_r,
                dst_r,
                Loc::new(tmp[peer as usize], 0),
                Loc::new(tmp[me as usize], dist as usize * msg),
                cnt * msg,
                ch,
                &deps,
                step,
            );
            new_ops.push(t);
        }
        for me in 0..r {
            ctx.cur.advance(RankId(me), new_ops[me as usize]);
        }
        dist *= 2;
        step += 1;
    }

    // Un-rotate: recv[(rank + j) mod N] = tmp[j].
    for rank in 0..r {
        let rid = RankId(rank);
        let head = (r - rank) as usize; // slots landing at recv[rank..r]
        let deps = ctx.cur.deps_of(rid);
        let c1 = ctx.b.copy(
            rid,
            Loc::new(tmp[rank as usize], 0),
            ctx.recv_block(rid, rank),
            head * msg,
            &deps,
            step,
        );
        ctx.cur.advance(rid, c1);
        if rank > 0 {
            let deps = ctx.cur.deps_of(rid);
            let c2 = ctx.b.copy(
                rid,
                Loc::new(tmp[rank as usize], head * msg),
                ctx.recv_block(rid, 0),
                rank as usize * msg,
                &deps,
                step,
            );
            ctx.cur.advance(rid, c2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::assert_allgather_correct;

    #[test]
    fn bruck_is_correct_for_any_rank_count() {
        for (nodes, ppn) in [
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 5),
            (1, 8),
            (2, 3),
            (3, 2),
            (2, 8),
        ] {
            let built = build_bruck(ProcGrid::new(nodes, ppn), 20);
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn bruck_takes_ceil_log2_steps() {
        // 6 ranks → 3 doubling rounds (1, 2, 4) + init + unrotate.
        let built = build_bruck(ProcGrid::new(1, 6), 8);
        let max_transfer_step = built
            .sched
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, mha_sched::OpKind::Transfer { .. }))
            .map(|o| o.step)
            .max()
            .unwrap();
        assert_eq!(max_transfer_step, 3);
    }

    #[test]
    fn bruck_last_round_is_partial_for_non_powers() {
        // 5 ranks: rounds transfer 1, 2, then only 1 block (5 − 4).
        let built = build_bruck(ProcGrid::new(1, 5), 8);
        let sizes: Vec<usize> = built
            .sched
            .ops()
            .iter()
            .filter_map(|o| match o.kind {
                mha_sched::OpKind::Transfer { len, .. } if o.step == 3 => Some(len),
                _ => None,
            })
            .collect();
        assert!(!sizes.is_empty());
        assert!(sizes.iter().all(|&l| l == 8));
    }

    #[test]
    fn bruck_moves_same_volume_as_ring() {
        let grid = ProcGrid::new(1, 8);
        let b = build_bruck(grid, 8).sched.stats();
        let ring = crate::flat::build_ring(grid, 8).sched.stats();
        assert_eq!(b.cma_bytes + b.rail_bytes, ring.cma_bytes + ring.rail_bytes);
    }
}
