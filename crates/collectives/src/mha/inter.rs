//! MHA-inter: the hierarchical multi-HCA aware Allgather (Section 3.2).
//!
//! Three phases, with phases 2 and 3 overlapped:
//!
//! 1. **Node-level aggregation** — MHA-intra (Section 3.1) within each node,
//!    writing straight into each rank's receive buffer at the node's global
//!    offset, so every rank already holds its node's full `L · M` block.
//! 2. **Inter-leader exchange** — one leader per node moves `L · M`-byte
//!    node blocks over the rails (striped across all HCAs), using Recursive
//!    Doubling (`log N` steps, doubling sizes) or Ring (`N − 1` steps,
//!    constant size).
//! 3. **Node-level distribution** — as soon as a chunk lands, the leader
//!    copies it into the node's shared-memory segment (the paper's
//!    chunk-counter, expressed here as a dependency edge) and the members
//!    copy it out, *while the NIC fetches the next chunk* (Figure 6).
//!
//! Ring's constant chunk size keeps the copy pipeline full; RD's doubling
//! chunks starve it (Figure 7) — both fall out of the dependency structure
//! here, nothing is hard-coded.

use mha_sched::{ProcGrid, RailSet, Topology};
use mha_simnet::ClusterSpec;

use crate::compose::{emit_plan, ComposePlan};
use crate::ctx::{BuildError, Built, Ctx};
use crate::mha::offload::{resolve_offload, Offload};

/// The inter-leader exchange algorithm for phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterAlgo {
    /// `N − 1` constant-size steps; best overlap (Section 3.2).
    Ring,
    /// `log₂ N` doubling steps; wins for small messages, loses overlap at
    /// scale. Requires a power-of-two node count.
    RecursiveDoubling,
}

/// Configuration of the hierarchical design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhaInterConfig {
    /// Phase-2 algorithm.
    pub inter: InterAlgo,
    /// Phase-1 offload policy.
    pub offload: Offload,
    /// Whether phase 3 overlaps phase 2 (the paper's design) or strictly
    /// follows it (the Kandalla-style baseline behaviour).
    pub overlap: bool,
}

impl Default for MhaInterConfig {
    fn default() -> Self {
        MhaInterConfig {
            inter: InterAlgo::Ring,
            offload: Offload::Auto,
            overlap: true,
        }
    }
}

/// Builds the hierarchical MHA Allgather. Thin wrapper over the unified
/// [`crate::build`] dispatcher (schedules are bit-identical either way).
///
/// # Errors
///
/// [`BuildError::RequiresPowerOfTwo`] if `cfg.inter` is Recursive Doubling
/// and the node count is not a power of two.
pub fn build_mha_inter(
    grid: ProcGrid,
    msg: usize,
    cfg: MhaInterConfig,
    spec: &ClusterSpec,
) -> Result<Built, BuildError> {
    crate::config::build(&crate::config::AlgoConfig::mha_inter(cfg), grid, msg, spec)
}

/// Failure-aware variant of [`build_mha_inter`]: phase-2 leader exchanges
/// resolve `Channel::AllRails` against the surviving-rail set, re-tiling
/// each node-block stripe over the `H − k` rails not listed in
/// `down_rails`. With `down_rails` empty the schedule is byte-identical to
/// [`build_mha_inter`].
///
/// # Errors
///
/// Same as [`build_mha_inter`].
pub fn build_mha_inter_degraded(
    grid: ProcGrid,
    msg: usize,
    cfg: MhaInterConfig,
    spec: &ClusterSpec,
    down_rails: &[u8],
) -> Result<Built, BuildError> {
    let rails = RailSet::excluding(spec.rails, down_rails);
    let d = resolve_offload(cfg.offload, spec, grid.ppn(), msg);
    let name = format!(
        "mha-inter-{}(d={d}{},rails={}/{})",
        match cfg.inter {
            InterAlgo::Ring => "ring",
            InterAlgo::RecursiveDoubling => "rd",
        },
        if cfg.overlap { "" } else { ",seq" },
        rails.len(),
        rails.total(),
    );
    let mut ctx = Ctx::new(grid, msg, name);
    emit_mha_inter_with_rails(&mut ctx, cfg, spec, &rails)?;
    Ok(ctx.finish())
}

/// Emits the hierarchical exchange into an existing context (also used as
/// the Allgather phase of the MHA-accelerated Ring-Allreduce).
pub(crate) fn emit_mha_inter(
    ctx: &mut Ctx,
    cfg: MhaInterConfig,
    spec: &ClusterSpec,
) -> Result<(), BuildError> {
    emit_mha_inter_with_rails(ctx, cfg, spec, &RailSet::full(spec.rails))
}

/// [`emit_mha_inter`] generalized over the surviving-rail set: the 2-level
/// `[Exchange, Gather]` instantiation of the generic composer.
pub(crate) fn emit_mha_inter_with_rails(
    ctx: &mut Ctx,
    cfg: MhaInterConfig,
    spec: &ClusterSpec,
    rails: &RailSet,
) -> Result<(), BuildError> {
    let grid = ctx.grid();
    let topo = Topology::two_level(grid.nodes(), grid.ppn());
    emit_plan(
        ctx,
        &topo,
        &ComposePlan::mha_inter(cfg),
        Some(spec),
        Some(rails),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::testutil::{assert_allgather_correct, op_stream};
    use mha_sched::Channel;
    use mha_simnet::Simulator;

    fn thor() -> ClusterSpec {
        ClusterSpec::thor()
    }

    fn cfg(inter: InterAlgo, overlap: bool) -> MhaInterConfig {
        MhaInterConfig {
            inter,
            offload: Offload::Auto,
            overlap,
        }
    }

    #[test]
    fn ring_variant_is_correct() {
        for (nodes, ppn) in [(2, 2), (3, 2), (4, 4), (5, 3), (8, 2), (2, 1)] {
            let built = build_mha_inter(
                ProcGrid::new(nodes, ppn),
                16,
                cfg(InterAlgo::Ring, true),
                &thor(),
            )
            .unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn rd_variant_is_correct_for_power_of_two_nodes() {
        for (nodes, ppn) in [(2, 2), (4, 3), (8, 2), (4, 1)] {
            let built = build_mha_inter(
                ProcGrid::new(nodes, ppn),
                16,
                cfg(InterAlgo::RecursiveDoubling, true),
                &thor(),
            )
            .unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn sequential_variants_are_also_correct() {
        for inter in [InterAlgo::Ring, InterAlgo::RecursiveDoubling] {
            let built =
                build_mha_inter(ProcGrid::new(4, 2), 16, cfg(inter, false), &thor()).unwrap();
            assert_allgather_correct(&built);
        }
    }

    #[test]
    fn rd_rejects_non_power_of_two_nodes() {
        let err = build_mha_inter(
            ProcGrid::new(3, 2),
            8,
            cfg(InterAlgo::RecursiveDoubling, true),
            &thor(),
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::RequiresPowerOfTwo { .. }));
    }

    #[test]
    fn single_node_degenerates_to_mha_intra() {
        let built =
            build_mha_inter(ProcGrid::new(1, 4), 16, cfg(InterAlgo::Ring, true), &thor()).unwrap();
        assert_allgather_correct(&built);
        assert_eq!(built.sched.stats().steps, 4); // intra steps only
    }

    #[test]
    fn overlap_beats_sequential_phases() {
        // The core claim of Section 3.2 / Figure 6.
        let sim = Simulator::new(thor()).unwrap();
        let grid = ProcGrid::new(8, 8);
        let msg = 256 * 1024;
        let over = build_mha_inter(grid, msg, cfg(InterAlgo::Ring, true), &thor()).unwrap();
        let seq = build_mha_inter(grid, msg, cfg(InterAlgo::Ring, false), &thor()).unwrap();
        let t_over = sim.run(&over.sched).unwrap().latency_us();
        let t_seq = sim.run(&seq.sched).unwrap().latency_us();
        assert!(
            t_over < t_seq * 0.95,
            "overlap {t_over} should beat sequential {t_seq}"
        );
    }

    #[test]
    fn ring_beats_rd_for_large_messages_at_scale() {
        // Figure 8's large-message regime.
        let sim = Simulator::new(thor()).unwrap();
        let grid = ProcGrid::new(16, 8);
        let msg = 128 * 1024;
        let ring = build_mha_inter(grid, msg, cfg(InterAlgo::Ring, true), &thor()).unwrap();
        let rd =
            build_mha_inter(grid, msg, cfg(InterAlgo::RecursiveDoubling, true), &thor()).unwrap();
        let t_ring = sim.run(&ring.sched).unwrap().latency_us();
        let t_rd = sim.run(&rd.sched).unwrap().latency_us();
        assert!(t_ring < t_rd, "ring {t_ring} vs rd {t_rd}");
    }

    #[test]
    fn rd_beats_ring_for_small_messages() {
        // Figure 8's small-message regime: log N startup terms win.
        let sim = Simulator::new(thor()).unwrap();
        let grid = ProcGrid::new(16, 8);
        let msg = 16;
        let ring = build_mha_inter(grid, msg, cfg(InterAlgo::Ring, true), &thor()).unwrap();
        let rd =
            build_mha_inter(grid, msg, cfg(InterAlgo::RecursiveDoubling, true), &thor()).unwrap();
        let t_ring = sim.run(&ring.sched).unwrap().latency_us();
        let t_rd = sim.run(&rd.sched).unwrap().latency_us();
        assert!(t_rd < t_ring, "rd {t_rd} vs ring {t_ring}");
    }

    #[test]
    fn phase2_traffic_is_rail_only() {
        // The hierarchy's point: inter-node traffic never rides CMA.
        let built = build_mha_inter(
            ProcGrid::new(4, 4),
            64,
            MhaInterConfig {
                offload: Offload::None,
                ..Default::default()
            },
            &thor(),
        )
        .unwrap();
        for op in built.sched.ops() {
            if let mha_sched::OpKind::Transfer {
                src_rank,
                dst_rank,
                channel,
                ..
            } = &op.kind
            {
                if !built.sched.grid().same_node(*src_rank, *dst_rank) {
                    assert!(matches!(channel, Channel::AllRails));
                    // Only leaders speak across nodes.
                    assert!(built.sched.grid().is_leader(*src_rank));
                    assert!(built.sched.grid().is_leader(*dst_rank));
                }
            }
        }
    }

    #[test]
    fn degraded_with_no_failures_is_byte_identical() {
        // Only the schedule name differs; the op stream must not.
        for inter in [InterAlgo::Ring, InterAlgo::RecursiveDoubling] {
            for msg in [16usize, 64 * 1024] {
                let grid = ProcGrid::new(4, 2);
                let base = build_mha_inter(grid, msg, cfg(inter, true), &thor()).unwrap();
                let deg =
                    build_mha_inter_degraded(grid, msg, cfg(inter, true), &thor(), &[]).unwrap();
                assert_eq!(op_stream(&base), op_stream(&deg), "{inter:?}/{msg}");
            }
        }
    }

    #[test]
    fn degraded_build_avoids_down_rails_and_stays_correct() {
        for inter in [InterAlgo::Ring, InterAlgo::RecursiveDoubling] {
            for msg in [16usize, 64 * 1024] {
                let built = build_mha_inter_degraded(
                    ProcGrid::new(4, 2),
                    msg,
                    MhaInterConfig {
                        inter,
                        offload: Offload::None,
                        overlap: true,
                    },
                    &thor(),
                    &[0],
                )
                .unwrap();
                assert_allgather_correct(&built);
                for op in built.sched.ops() {
                    if let mha_sched::OpKind::Transfer {
                        src_rank,
                        dst_rank,
                        channel,
                        ..
                    } = &op.kind
                    {
                        if !built.sched.grid().same_node(*src_rank, *dst_rank) {
                            assert!(
                                matches!(channel, Channel::Rail(h) if *h != 0),
                                "inter-node op {:?} rides {channel:?} with rail 0 down",
                                op.id
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn degraded_with_every_rail_down_falls_back_to_the_full_set() {
        // The builder has to route the traffic somewhere; total outage is
        // the simulator's stall/retry problem, not the scheduler's.
        let grid = ProcGrid::new(2, 2);
        let base = build_mha_inter(grid, 32, cfg(InterAlgo::Ring, true), &thor()).unwrap();
        let deg = build_mha_inter_degraded(grid, 32, cfg(InterAlgo::Ring, true), &thor(), &[0, 1])
            .unwrap();
        assert_eq!(op_stream(&base), op_stream(&deg));
    }
}
