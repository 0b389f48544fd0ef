//! OSU-micro-benchmark-style contestants over the simulator.
//!
//! The paper reports `osu_allgather` / `osu_allreduce` latencies averaged
//! over ≥ 3 runs of 1000 iterations (Section 5.1); the simulator is
//! deterministic, so one virtual iteration *is* the converged average.
//! The sweeps themselves (one table row per size, one column per
//! contestant) are `mha_bench::campaign::{allgather_sweep,
//! allreduce_sweep}`.

use mha_collectives::mha::{MhaInterConfig, Offload};
use mha_collectives::{
    build, build_ring_allreduce, build_tuned_mha, AlgoConfig, AllgatherPhase, BuildError, Family,
    Library, TuneError,
};
use mha_sched::ProcGrid;
use mha_simnet::{ClusterSpec, SimError, Simulator};

/// An error from building or pricing a contestant.
#[derive(Debug)]
pub enum AppError {
    /// A collective failed to build.
    Build(BuildError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Build(e) => write!(f, "build failed: {e}"),
            AppError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<BuildError> for AppError {
    fn from(e: BuildError) -> Self {
        AppError::Build(e)
    }
}

impl From<SimError> for AppError {
    fn from(e: SimError) -> Self {
        AppError::Sim(e)
    }
}

impl From<TuneError> for AppError {
    fn from(e: TuneError) -> Self {
        match e {
            TuneError::Build(b) => AppError::Build(b),
            TuneError::Sim(s) => AppError::Sim(s),
        }
    }
}

/// One entrant in a comparison sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contestant {
    /// A library surrogate's tuned selection.
    Library(Library),
    /// The paper's design: MHA-intra on one node, tuned MHA-inter across
    /// nodes (Ring/RD chosen per point, Figures 12–14's procedure).
    MhaTuned,
}

impl Contestant {
    /// Column label.
    pub fn name(&self) -> String {
        match self {
            Contestant::Library(l) => l.name().to_string(),
            Contestant::MhaTuned => "MHA".to_string(),
        }
    }

    /// Builds (without running) this contestant's Allgather schedule —
    /// the build half of [`Contestant::allgather_latency_us`], exposed so
    /// campaign runners can cache the frozen schedule and price it in a
    /// reused engine arena.
    pub fn build_allgather(
        &self,
        grid: ProcGrid,
        msg: usize,
        spec: &ClusterSpec,
    ) -> Result<mha_collectives::Built, AppError> {
        Ok(match self {
            Contestant::Library(l) => {
                build(&AlgoConfig::flat(Family::Library(*l)), grid, msg, spec)?
            }
            Contestant::MhaTuned => {
                if grid.nodes() == 1 {
                    // The paper's proposed intra design sizes the offload
                    // with Eq. 1 (Section 4.1); this is what produces the
                    // decaying-gain trend of Section 5.2 as L grows. (The
                    // Figure 5 empirical tuner — `tune_offload` — can find
                    // still-larger offloads under congestion; fig05 and the
                    // ablation bench quantify that gap.)
                    build(&AlgoConfig::mha_intra(Offload::Auto), grid, msg, spec)?
                } else {
                    let (built, _) = build_tuned_mha(grid, msg, spec)?;
                    built
                }
            }
        })
    }

    /// Builds (without running) this contestant's Ring-Allreduce schedule
    /// for a vector of `elems` f32 elements.
    pub fn build_allreduce(
        &self,
        grid: ProcGrid,
        elems: usize,
        spec: &ClusterSpec,
    ) -> Result<mha_collectives::Built, AppError> {
        let phase = match self {
            Contestant::Library(_) => AllgatherPhase::FlatRing,
            Contestant::MhaTuned => AllgatherPhase::MhaInter(MhaInterConfig::default()),
        };
        Ok(build_ring_allreduce(grid, elems, phase, spec)?)
    }

    /// Simulated Allgather latency at one point, in microseconds.
    pub fn allgather_latency_us(
        &self,
        grid: ProcGrid,
        msg: usize,
        spec: &ClusterSpec,
    ) -> Result<f64, AppError> {
        let sim = Simulator::new(spec.clone())?;
        let built = self.build_allgather(grid, msg, spec)?;
        Ok(sim.run(&built.sched)?.latency_us())
    }

    /// Simulated Allreduce latency for a vector of `elems` f32 elements.
    pub fn allreduce_latency_us(
        &self,
        grid: ProcGrid,
        elems: usize,
        spec: &ClusterSpec,
    ) -> Result<f64, AppError> {
        let sim = Simulator::new(spec.clone())?;
        let built = self.build_allreduce(grid, elems, spec)?;
        Ok(sim.run(&built.sched)?.latency_us())
    }
}

/// The standard contestant line-up of Figures 11–15.
pub fn paper_contestants() -> Vec<Contestant> {
    vec![
        Contestant::Library(Library::HpcX),
        Contestant::Library(Library::Mvapich2X),
        Contestant::MhaTuned,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mha_wins_the_inter_node_sweep() {
        // The qualitative content of Figures 12–14, at miniature scale.
        let spec = ClusterSpec::thor();
        let grid = ProcGrid::new(4, 8);
        for msg in [1024usize, 64 * 1024] {
            let hpcx = Contestant::Library(Library::HpcX)
                .allgather_latency_us(grid, msg, &spec)
                .unwrap();
            let mva = Contestant::Library(Library::Mvapich2X)
                .allgather_latency_us(grid, msg, &spec)
                .unwrap();
            let mha = Contestant::MhaTuned
                .allgather_latency_us(grid, msg, &spec)
                .unwrap();
            assert!(mha < hpcx, "msg={msg}: mha {mha} vs hpcx {hpcx}");
            assert!(mha < mva, "msg={msg}: mha {mha} vs mvapich {mva}");
        }
    }

    #[test]
    fn contestant_names_match_figures() {
        let names: Vec<String> = paper_contestants().iter().map(Contestant::name).collect();
        assert_eq!(names, vec!["HPC-X", "MVAPICH2-X", "MHA"]);
    }
}
