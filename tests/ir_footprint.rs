//! Allocation and footprint gate for the schedule IR.
//!
//! Building a collective writes its ops straight into the frozen form: one
//! op table and one CSR dependency arena, no label text and no per-op
//! dependency list. So the allocation count of a build grows with the
//! number of `Vec` doublings (logarithmic in ops) plus a few per-rank
//! tables, never with the op count itself. This binary installs a counting
//! allocator (thread-local counters, so concurrently running tests do not
//! disturb each other) and pins that, together with the per-op resident
//! bytes, `size_of::<Op>()` and the allocations of a warm simulation run.
//! Every number is an exact count, so the gate does not depend on the
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mha::collectives::mha::{InterAlgo, MhaInterConfig, Offload};
use mha::collectives::{build, AlgoConfig, Family};
use mha::sched::{BufId, NullProbe, Op, ProcGrid};
use mha::simnet::{ClusterSpec, EngineArena, Simulator};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn record(allocs: u64, bytes: i64) {
    // `try_with`: the counters have no destructor, but the allocator may
    // still run while a thread tears down its other thread-locals.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// The system allocator plus per-thread allocation and live-byte counters.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        // SAFETY: forwarded verbatim; `ptr` came from `System` via the
        // methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What one build cost on this thread.
#[derive(Debug)]
struct Footprint {
    ops: usize,
    ranks: usize,
    /// Allocations and reallocations during the build.
    allocs: u64,
    /// Heap bytes the finished schedule still holds.
    resident: i64,
}

fn measure(cfg: &AlgoConfig, grid: ProcGrid) -> Footprint {
    let spec = ClusterSpec::thor();
    let (a0, b0) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let built = build(cfg, grid, 4096, &spec).expect("builds");
    let (a1, b1) = (ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    // The send/recv handle tables are per rank and not part of the IR.
    let handles =
        ((built.send.capacity() + built.recv.capacity()) * std::mem::size_of::<BufId>()) as i64;
    Footprint {
        ops: built.sched.n_ops(),
        ranks: grid.nranks() as usize,
        allocs: a1 - a0,
        resident: b1 - b0 - handles,
    }
}

fn configs() -> [(&'static str, AlgoConfig); 2] {
    [
        ("flat ring", AlgoConfig::flat(Family::Ring)),
        (
            "mha-inter",
            AlgoConfig::mha_inter(MhaInterConfig {
                inter: InterAlgo::Ring,
                offload: Offload::Auto,
                overlap: true,
            }),
        ),
    ]
}

#[test]
fn op_rows_fit_in_64_bytes() {
    assert!(
        std::mem::size_of::<Op>() <= 64,
        "Op is {} B",
        std::mem::size_of::<Op>()
    );
}

#[test]
fn build_allocations_do_not_grow_with_ops() {
    for (name, cfg) in configs() {
        for grid in [ProcGrid::new(8, 32), ProcGrid::new(16, 32)] {
            let fp = measure(&cfg, grid);
            // Per rank: its send/recv declarations (each names its buffer)
            // and the algorithm's per-rank tables. Per power of two of the
            // op count: one doubling of each growing array. No term is
            // per op.
            let log2_ops = u64::from(usize::BITS - fp.ops.leading_zeros());
            let bound = 4 * fp.ranks as u64 + 16 * log2_ops;
            assert!(
                fp.allocs <= bound,
                "{name}: {fp:?} exceeds {bound} allocations"
            );
        }
    }
}

#[test]
fn frozen_schedules_hold_under_160_bytes_per_op() {
    // A flat ring holds 64 B of op row, 4 B per edge each way (two edges
    // per op) and 8 B of offsets: 88 B per op. The labelled layout with a
    // dependency `Vec` per op and a second copy of every edge held about
    // 190 B per op before malloc rounding.
    for (name, cfg) in configs() {
        let fp = measure(&cfg, ProcGrid::new(16, 32));
        let per_op = fp.resident as f64 / fp.ops as f64;
        assert!(per_op <= 160.0, "{name}: {per_op:.1} B/op ({fp:?})");
    }
}

/// Allocations of one unprobed run of a flat Ring on `grid` through an
/// engine arena already warmed by a run of the same schedule.
fn warm_run_allocs(grid: ProcGrid) -> u64 {
    let spec = ClusterSpec::thor();
    let sim = Simulator::new(spec.clone()).expect("valid spec");
    let built = build(&AlgoConfig::flat(Family::Ring), grid, 4096, &spec).expect("builds");
    let mut arena = EngineArena::new();
    sim.run_probed_in(&built.sched, &mut NullProbe, &mut arena)
        .expect("runs");
    let a0 = ALLOCS.with(Cell::get);
    let res = sim.run_probed_in(&built.sched, &mut NullProbe, &mut arena);
    let a1 = ALLOCS.with(Cell::get);
    res.expect("runs");
    a1 - a0
}

#[test]
fn warm_runs_allocate_a_constant_amount() {
    // A warm run allocates only its result (per-op end times, per-resource
    // byte totals), so the count must not grow with the resource count.
    let small = warm_run_allocs(ProcGrid::new(4, 4));
    let large = warm_run_allocs(ProcGrid::new(8, 16));
    assert_eq!(
        small, large,
        "warm runs allocate {small} times on Ring 4x4 but {large} on Ring 8x16"
    );
}
