//! The CI perf gate: kernel throughput and allocation counts versus the
//! thresholds committed under the `kernel_gate` key of
//! `BENCH_engine.json` (DESIGN.md §17), and checkpoint decode scaling
//! versus the `checkpoint_gate` key (DESIGN.md §13).
//!
//! Three properties are enforced, each with an observed-vs-allowed failure
//! message so a regression is diagnosable from the CI log alone:
//!
//! * **zero-allocation kernel** — a counting `#[global_allocator]`
//!   proves the steady-state slice loop performs no heap allocation once
//!   the arena is warm (delta method: the counter is sampled at slices
//!   N/2 and 3N/4 of a macro-step-off run), and that turbulent slices —
//!   where fault machinery legitimately allocates — stay under a small
//!   committed constant;
//! * **kernel throughput** — wall time per executed steady slice stays
//!   under a committed ceiling sized for slow 1-core CI hosts (~8×
//!   headroom over a developer-laptop observation), so only a real
//!   regression (a reintroduced per-slice allocation, an accidentally
//!   quadratic scan) trips it, not scheduler noise;
//! * **linear checkpoint decode** — decode ns/byte of a checkpoint ~4×
//!   larger than another stays within a committed factor of the
//!   smaller one's. Both timings come from one process, so the ratio is
//!   host-independent.

use criterion::measurement::WallTime;
use eadt_bench::checkpoint::{bracket_checkpoints, time_codec, CheckpointGate};
use eadt_bench::kernel::{
    count_executed_slices, kernel_env, measure_allocs_per_slice, steady_scenario,
    turbulent_scenario, KernelGate,
};
use eadt_transfer::{Engine, NullController};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counting allocator: `System` plus a per-thread allocation odometer.
/// Duplicated in `benches/slice_kernel.rs` — a `#[global_allocator]` must
/// live in the binary target it measures, and the library forbids unsafe
/// code.
///
/// The odometer is thread-local, so allocations made by other threads
/// (the test harness runs the gate tests in parallel) never leak into a
/// window measured on this one.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; the
    // count is then irrelevant, and an allocator must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// The odometer touches only a const-initialised thread-local `Cell<u64>`
// without a destructor, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// The zero-allocation claim of DESIGN.md §17, measured not asserted:
/// once the scratch arena is warm, an executed steady-state slice
/// performs no heap allocation at all. The threshold is a committed
/// fraction (default 0.01) only to keep the float division honest — the
/// expected observation is exactly 0.
#[test]
fn steady_slice_kernel_allocates_nothing() {
    let gate = KernelGate::load();
    let (env, plan) = steady_scenario();
    let observed = measure_allocs_per_slice(&env, &plan, alloc_count);
    assert!(
        observed <= gate.max_steady_allocs_per_slice,
        "perf-gate: steady allocs/slice regression: observed {observed:.4} > allowed {:.4} \
         (the slice kernel must not touch the heap; see DESIGN.md §17)",
        gate.max_steady_allocs_per_slice
    );
}

/// Turbulent slices may allocate (retry queues, fault episodes, breaker
/// transitions), but only a bounded constant per slice — never something
/// proportional to dataset size or elapsed time.
#[test]
fn turbulent_slices_allocate_a_bounded_constant() {
    let gate = KernelGate::load();
    let (env, plan) = turbulent_scenario();
    let observed = measure_allocs_per_slice(&env, &plan, alloc_count);
    assert!(
        observed <= gate.max_turbulent_allocs_per_slice,
        "perf-gate: turbulent allocs/slice regression: observed {observed:.2} > allowed {:.2}",
        gate.max_turbulent_allocs_per_slice
    );
}

/// Kernel wall time per executed steady slice versus the committed
/// ceiling. Minimum over several passes, so scheduler noise on a busy CI
/// host must hit every pass to fake a regression.
#[test]
fn kernel_throughput_within_committed_threshold() {
    const PASSES: usize = 5;
    let gate = KernelGate::load();
    let (env, plan) = steady_scenario();
    let slices = count_executed_slices(&env, &plan);
    let env = kernel_env(&env);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let (report, s) = WallTime::time(|| Engine::new(&env).run(&plan, &mut NullController));
        assert!(report.completed);
        best = best.min(s);
    }
    let observed = best * 1e9 / slices as f64;
    assert!(
        observed <= gate.max_kernel_ns_per_slice,
        "perf-gate: kernel ns/slice regression: observed {observed:.0} ns > allowed {:.0} ns \
         (min of {PASSES} passes over {slices} slices)",
        gate.max_kernel_ns_per_slice
    );
}

/// Checkpoint decode cost per byte must not grow with checkpoint size
/// (DESIGN.md §13): a decoder that rescans the rest of the input per
/// character costs ~4× more per byte on the large bracket checkpoint
/// than on the small one; a linear decoder costs about the same.
#[test]
fn checkpoint_decode_scales_linearly() {
    const PASSES: usize = 9;
    let gate = CheckpointGate::load();
    let [small, large] = bracket_checkpoints();
    let wall = |f: &mut dyn FnMut()| WallTime::time(f).1;
    let s = time_codec(&small, PASSES, wall);
    let l = time_codec(&large, PASSES, wall);
    let size_ratio = l.bytes as f64 / s.bytes as f64;
    assert!(
        size_ratio >= 3.0,
        "bracket checkpoints only {size_ratio:.1}x apart ({} vs {} bytes); the gate needs >= 3x",
        l.bytes,
        s.bytes
    );
    let observed = l.decode_ns_per_byte() / s.decode_ns_per_byte();
    assert!(
        observed <= gate.max_decode_ns_per_byte_ratio,
        "perf-gate: checkpoint decode is superlinear: ns/byte at {} B is {observed:.2}x that \
         at {} B (allowed {:.2}x; {:.2} vs {:.2} ns/byte, min of {PASSES} passes)",
        l.bytes,
        s.bytes,
        gate.max_decode_ns_per_byte_ratio,
        l.decode_ns_per_byte(),
        s.decode_ns_per_byte()
    );
}
