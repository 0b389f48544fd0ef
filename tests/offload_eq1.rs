//! Property sweep for the Eq. 1 offload split: for all `(L, H, msg)` the
//! analytic `d` stays within its feasible range and balances the CPU and
//! HCA finish times to within the rounding granularity.
//!
//! Eq. 1 equates `T_C(M) · (L − 1 − d) = T_H(M) · L · d`; the implemented
//! `d` is the rounded real solution, so the residual imbalance can never
//! exceed half a chunk on each side — `0.5 · (T_C + T_H·L)`.

use mha::collectives::mha::{optimal_offload, resolve_offload, Offload};
use mha::collectives::{build, AlgoConfig};
use mha::sched::ProcGrid;
use mha::simnet::ClusterSpec;

#[test]
fn offload_split_is_feasible_and_balanced_for_all_l_h_msg() {
    let specs = [
        ("thor", ClusterSpec::thor()),
        ("thor_single_rail", ClusterSpec::thor_single_rail()),
        ("thor_numa", ClusterSpec::thor_numa()),
    ];
    for (name, spec) in &specs {
        for l in 2..=32u32 {
            for msg in [4 * 1024usize, 64 * 1024, 1 << 20, 4 << 20] {
                let d = optimal_offload(spec, l, msg);
                assert!(
                    d < l,
                    "{name}: d={d} exceeds L-1={} at L={l} msg={msg}",
                    l - 1
                );
                assert_eq!(d, resolve_offload(Offload::Auto, spec, l, msg));

                let tc = spec.t_c(msg);
                let th = spec.t_h(msg);
                let cpu_time = tc * f64::from(l - 1 - d);
                let hca_time = th * f64::from(l) * f64::from(d);
                let half_chunk = 0.5 * (tc + th * f64::from(l));
                assert!(
                    (cpu_time - hca_time).abs() <= half_chunk * (1.0 + 1e-12),
                    "{name}: imbalance {:.3e}s exceeds half a chunk {:.3e}s \
                     at L={l} msg={msg} (d={d})",
                    (cpu_time - hca_time).abs(),
                    half_chunk
                );
            }
        }
    }
}

#[test]
fn built_schedule_offloads_exactly_d_transfers_per_rank() {
    let spec = ClusterSpec::thor();
    for l in [2u32, 4, 8, 16] {
        for msg in [64 * 1024usize, 1 << 20] {
            let d = optimal_offload(&spec, l, msg);
            let auto = AlgoConfig::mha_intra(Offload::Auto);
            let built = build(&auto, ProcGrid::single_node(l), msg, &spec).unwrap();
            let stats = built.sched.stats();
            assert_eq!(
                stats.rail_transfers,
                (l as usize) * (d as usize),
                "L={l} msg={msg}: expected L*d rail transfers"
            );
            assert_eq!(
                stats.cma_transfers,
                (l as usize) * ((l - 1 - d) as usize),
                "L={l} msg={msg}: the rest must stay on CMA"
            );
        }
    }
}
