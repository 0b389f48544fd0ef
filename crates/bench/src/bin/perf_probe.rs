//! Quick performance probe: full-scale flat ring at 1024 ranks.
use std::time::Instant;

fn main() {
    mha_bench::apply_check_flag();
    let spec = mha_simnet::ClusterSpec::thor();
    let sim = mha_simnet::Simulator::new(spec).unwrap();
    for (nodes, ppn, msg) in [(8u32, 32u32, 64 * 1024usize), (32, 32, 64 * 1024)] {
        let grid = mha_sched::ProcGrid::new(nodes, ppn);
        let t0 = Instant::now();
        let ring = mha_collectives::AlgoConfig::flat(mha_collectives::Family::Ring);
        let built = mha_collectives::build(&ring, grid, msg, sim.spec()).unwrap();
        let t_build = t0.elapsed();
        let t0 = Instant::now();
        let res = sim.run(&built.sched).unwrap();
        println!(
            "{nodes}x{ppn} msg={msg}: ops={} build={:?} sim={:?} events={} latency={:.0}us",
            built.sched.ops().len(),
            t_build,
            t0.elapsed(),
            res.events,
            res.latency_us()
        );
    }
}
