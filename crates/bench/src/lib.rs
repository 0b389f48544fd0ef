//! # mha-bench — the campaign runner and per-figure reproduction binaries
//!
//! One binary per table/figure in the paper's evaluation (see DESIGN.md's
//! experiment index): `cargo run --release -p mha-bench --bin fig11_intra_allgather`
//! prints the paper-style table and drops a CSV under `results/`.

#![warn(missing_docs)]

pub mod campaign;
mod knob;
pub mod traffic;

pub use knob::knob;

use std::path::PathBuf;

use mha_apps::report::{render_run_summary, Table};
use mha_sched::{FrozenSchedule, SummaryProbe};
use mha_simnet::Simulator;

/// Turns on invariant-check mode when `--check` is on the command line:
/// every simulated run is then audited by an
/// [`mha_sched::InvariantProbe`] (causality, per-resource capacity, byte
/// conservation) and panics on any violation. Implemented through
/// [`mha_simnet::set_check_enabled`], the process-wide check switch.
pub fn apply_check_flag() {
    if std::env::args().any(|a| a == "--check") {
        mha_simnet::set_check_enabled(true);
        eprintln!("[--check: invariant probes active on every simulated run]");
    }
}

/// Loads the tuning table when `--tuned` is on the command line: the
/// serving half of the `mha-tune` autotuner. The table comes from
/// `MHA_TUNED_TABLE` if set, else `results/tuned_thor.mtab` (honoring
/// `MHA_RESULTS_DIR`). Returns `None` without the flag — the sweeps then
/// stay byte-identical to their untuned output. A flagged run that cannot
/// load its table is an error, not a silent fallback: the user asked for
/// tuned numbers.
pub fn apply_tuned_flag() -> Option<mha_collectives::TunedTable> {
    if !std::env::args().any(|a| a == "--tuned") {
        return None;
    }
    let path = std::env::var_os("MHA_TUNED_TABLE")
        .map(PathBuf::from)
        .unwrap_or_else(|| results_dir().join("tuned_thor.mtab"));
    match mha_collectives::TunedTable::load(&path) {
        Ok(t) => {
            eprintln!(
                "[--tuned: serving {} entries from {} (digest {:016x})]",
                t.len(),
                path.display(),
                t.digest()
            );
            Some(t)
        }
        Err(e) => {
            eprintln!(
                "error: --tuned requested but {} is unusable: {e}",
                path.display()
            );
            std::process::exit(2);
        }
    }
}

/// Directory the `fig*` binaries write CSVs into (`results/` at the
/// workspace root, honoring `MHA_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MHA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Prints the table and saves `results/<name>.csv`.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_text());
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Prints a free-form artifact (timelines, op dumps) and saves it as
/// `results/<name>.txt`.
pub fn emit_text(content: &str, name: &str) {
    println!("{content}");
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if std::fs::write(&path, content).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
}

/// Re-simulates `sched` with a [`SummaryProbe`] attached and prints the
/// per-rail/CPU/memory utilization + overlap block, saving it as
/// `results/<name>_summary.txt`. The `fig*` binaries call this once on a
/// representative workload after their sweep tables.
pub fn emit_run_summary(sim: &Simulator, sched: &FrozenSchedule, name: &str) {
    let mut probe = SummaryProbe::new();
    match sim.run_probed(sched, &mut probe) {
        Ok(_) => emit_text(
            &render_run_summary(&probe.finish()),
            &format!("{name}_summary"),
        ),
        Err(e) => eprintln!("warning: summary run for {name} failed: {e}"),
    }
}

/// A single inter-node `msg`-byte transfer striped over all rails — the
/// representative workload the microbenchmark figures (1/3) summarize.
pub fn pt2pt_rails_schedule(msg: usize) -> FrozenSchedule {
    use mha_sched::{Channel, Loc, ProcGrid, RankId, ScheduleBuilder};
    let mut b = ScheduleBuilder::new(ProcGrid::new(2, 1), "pt2pt-rails");
    let s = b.private_buf(RankId(0), msg, "s");
    let d = b.private_buf(RankId(1), msg, "d");
    b.transfer(
        RankId(0),
        RankId(1),
        Loc::new(s, 0),
        Loc::new(d, 0),
        msg,
        Channel::AllRails,
        &[],
        0,
    );
    b.finish().freeze()
}

/// The paper's "medium" message sweep for Figures 12–14 (256 B – 8 KB).
pub fn medium_sizes() -> Vec<usize> {
    mha_simnet::size_sweep(256, 8 * 1024)
}

/// The paper's "large" message sweep for Figures 12–14 (16 KB – 256 KB).
pub fn large_sizes() -> Vec<usize> {
    mha_simnet::size_sweep(16 * 1024, 256 * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper_ranges() {
        let m = medium_sizes();
        assert_eq!(m.first(), Some(&256));
        assert_eq!(m.last(), Some(&8192));
        let l = large_sizes();
        assert_eq!(l.first(), Some(&16384));
        assert_eq!(l.last(), Some(&262144));
    }

    #[test]
    fn emit_text_writes_artifact() {
        std::env::set_var("MHA_RESULTS_DIR", "/tmp/mha-bench-selftest");
        emit_text("hello", "selftest");
        let body = std::fs::read_to_string("/tmp/mha-bench-selftest/selftest.txt").unwrap();
        assert_eq!(body, "hello");
        std::env::remove_var("MHA_RESULTS_DIR");
    }
}
