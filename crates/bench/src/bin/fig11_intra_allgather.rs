//! Figure 11 (a–d): intra-node Allgather vs HPC-X and MVAPICH2-X for
//! 2/4/8/16 processes, 256 KB – 16 MB. Each panel runs as one campaign
//! (see `mha_bench::campaign`): cells fan out over the worker pool,
//! schedules are cached per configuration fingerprint.

use mha_apps::paper_contestants;
use mha_bench::campaign::{allgather_sweep, CampaignConfig};
use mha_sched::ProcGrid;
use mha_simnet::{size_sweep, ClusterSpec};

fn main() {
    mha_bench::apply_check_flag();
    let spec = ClusterSpec::thor();
    let cfg = CampaignConfig::from_env();
    let sizes = size_sweep(256 * 1024, 16 << 20);
    for ppn in [2u32, 4, 8, 16] {
        let grid = ProcGrid::single_node(ppn);
        let t = allgather_sweep(
            &format!("Figure 11: intra-node Allgather latency (us), {ppn} processes"),
            grid,
            &sizes,
            &paper_contestants(),
            &spec,
            &cfg,
        )
        .unwrap();
        mha_bench::emit(&t, &format!("fig11_intra_allgather_{ppn}p"));
    }
    let sim = mha_simnet::Simulator::new(spec.clone()).unwrap();
    let built = mha_collectives::build(
        &mha_collectives::AlgoConfig::mha_intra(mha_collectives::mha::Offload::Auto),
        ProcGrid::single_node(16),
        4 << 20,
        &spec,
    )
    .unwrap();
    mha_bench::emit_run_summary(&sim, &built.sched, "fig11_intra_allgather");
}
