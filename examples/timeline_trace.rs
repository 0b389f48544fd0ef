//! Figure 2 in your terminal: the flat Ring Allgather timeline showing
//! inter-node transfers (r) waiting on intra-node CMA hops (c), next to
//! the overlapped MHA-inter pipeline.
//!
//! ```sh
//! cargo run --release --example timeline_trace
//! ```

use mha::collectives::{build, AlgoConfig, Family};
use mha::sched::{FrozenSchedule, ProcGrid};
use mha::simnet::{ClusterSpec, Simulator, TraceBuilder};

/// Simulates `sch` with the timeline sink plugged in and renders it.
fn timeline(sim: &Simulator, sch: &FrozenSchedule) -> String {
    let mut tb = TraceBuilder::new();
    sim.run_probed(sch, &mut tb).unwrap();
    tb.finish(sch).render_ascii(96)
}

fn main() {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).unwrap();
    let grid = ProcGrid::new(2, 2);
    let msg = 1 << 20;

    let ring = build(&AlgoConfig::flat(Family::Ring), grid, msg, &spec).unwrap();
    println!("flat Ring Allgather, 2 nodes x 2 PPN, 1 MB (the paper's Figure 2):");
    println!("{}", timeline(&sim, &ring.sched));

    let mha = build(&AlgoConfig::default(), grid, msg, &spec).unwrap();
    println!("hierarchical MHA-inter on the same problem:");
    println!("{}", timeline(&sim, &mha.sched));
    println!("legend: c = CMA transfer, r = rail transfer, o = memcpy, . = idle");
}
