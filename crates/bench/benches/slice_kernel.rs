//! Slice-kernel benchmark: wall time and allocation rate per *executed*
//! slice, with macro-stepping forced off so every slice streams through
//! the SoA kernel (DESIGN.md §17).
//!
//! Records the numbers under the `kernel` key of `BENCH_engine.json`
//! (schema 2: `kernel_ns_per_slice`, `allocs_per_slice`) for the
//! bench-smoke CI job; the committed `kernel_gate` thresholds that the
//! perf-gate job enforces live in the same file and are never touched by
//! regeneration.
//!
//! This target installs a counting `#[global_allocator]` so the same run
//! that times the kernel also proves the zero-allocation claim. The
//! counter is one thread-local increment per allocation — and the steady
//! window performs none, which is the point.

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, Criterion};
use eadt_bench::kernel::{
    count_executed_slices, kernel_env, measure_allocs_per_slice, merge_into_bench_json,
    steady_scenario, turbulent_scenario,
};
use eadt_transfer::{Engine, NullController, TransferEnv, TransferPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counting allocator: `System` plus a per-thread allocation odometer.
/// Duplicated in `tests/perf_gate.rs` — a `#[global_allocator]` must live
/// in the binary target it measures, and the library forbids unsafe code.
///
/// The odometer is thread-local, so allocations made by other threads
/// never leak into a window measured on this one.
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

/// Timed passes; the minimum is recorded so scheduler noise on small CI
/// hosts cannot fake a regression.
const PASSES: usize = 5;

/// Minimum wall seconds for one full kernel run over `PASSES` passes.
fn best_run_seconds(env: &TransferEnv, plan: &TransferPlan) -> f64 {
    let env = kernel_env(env);
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let (report, s) = WallTime::time(|| Engine::new(&env).run(plan, &mut NullController));
        black_box(&report);
        assert!(report.completed, "bench transfer must finish");
        best = best.min(s);
    }
    best
}

fn bench(c: &mut Criterion) {
    let (steady_env, steady_plan) = steady_scenario();
    let (turb_env, turb_plan) = turbulent_scenario();

    let mut g = c.benchmark_group("slice_kernel");
    g.sample_size(10);
    for (name, env, plan) in [
        ("steady", &steady_env, &steady_plan),
        ("turbulent", &turb_env, &turb_plan),
    ] {
        let env = kernel_env(env);
        g.bench_function(name, |b| {
            b.iter(|| black_box(Engine::new(&env).run(plan, &mut NullController)))
        });
    }
    g.finish();

    let slices = count_executed_slices(&steady_env, &steady_plan);
    let ns_per_slice = best_run_seconds(&steady_env, &steady_plan) * 1e9 / slices as f64;
    let steady_allocs = measure_allocs_per_slice(&steady_env, &steady_plan, alloc_count);
    let turb_allocs = measure_allocs_per_slice(&turb_env, &turb_plan, alloc_count);

    merge_into_bench_json(
        "kernel",
        serde_json::json!({
            "passes": PASSES,
            "steady_slices": slices,
            "kernel_ns_per_slice": ns_per_slice,
            "allocs_per_slice": steady_allocs,
            "turbulent_allocs_per_slice": turb_allocs,
        }),
    );
    println!(
        "slice kernel: {slices} steady slices, {ns_per_slice:.0} ns/slice, \
         {steady_allocs:.4} allocs/slice steady, {turb_allocs:.2} allocs/slice turbulent"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
