//! The retained-heap gate: heap bytes a finished `ServiceSession::run`
//! still holds per job stay under the committed `memory_gate` bound of
//! `BENCH_fleet.json`.
//!
//! A counting `#[global_allocator]` tracks live heap bytes across every
//! thread. The gate runs the serve workload at two job counts and divides
//! the difference in bytes the returned run holds by the difference in
//! jobs, so fixed costs cancel and only per-job retention remains. Live
//! byte counts are deterministic — unlike RSS they do not depend on the
//! host, the allocator's page reuse or the worker count — so the bound
//! can sit close to the observation and still never trip on noise.
//!
//! Run with `cargo test --release -p eadt-bench --test memory_gate`.

use eadt_bench::fleet::{serve_session, serve_workload, MemoryGate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System` plus a process-wide count of live heap bytes. Duplicated in
/// `benches/serve_scale.rs`: a `#[global_allocator]` must live in the
/// binary target it measures, and the library forbids unsafe code.
struct LiveBytes;

/// Live heap bytes. `Relaxed` suffices: the count publishes no other
/// data, and the measuring thread reads it only after joining every
/// thread that allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds an atomic counter update, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// The two job counts the slope is taken between: multiples of the
/// 28-job cycle of (algorithm, tenant), past the first few rounds where
/// preemption churn still grows with the job count.
const SMALL_JOBS: usize = 56;
const LARGE_JOBS: usize = 224;

/// Heap bytes the run of `jobs` serve jobs still holds once it returned.
fn retained_bytes(jobs: usize, workers: usize) -> usize {
    let workload = serve_workload(jobs);
    let session = serve_session(workers);
    let before = LIVE.load(Ordering::Relaxed);
    let run = session.run(&workload).expect("the serve workload is valid");
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(
        run.report.completed_count(),
        jobs,
        "every serve job finishes"
    );
    after - before
}

/// The only test in this binary, so no other test thread allocates while
/// it measures.
#[test]
fn retained_heap_per_service_job_is_bounded() {
    let gate = MemoryGate::load();
    let (small, large) = (SMALL_JOBS, LARGE_JOBS);
    let mut per_job = Vec::new();
    for workers in [1, 2] {
        let (a, b) = (
            retained_bytes(small, workers),
            retained_bytes(large, workers),
        );
        let observed = (b as f64 - a as f64) / (large - small) as f64;
        println!(
            "memory gate: {workers} worker(s): {a} B retained at {small} jobs, \
             {b} B at {large} jobs: {observed:.0} B per job"
        );
        assert!(
            observed <= gate.max_retained_bytes_per_job,
            "perf-gate: retained heap per service job regression at {workers} worker(s): \
             observed {observed:.0} B > allowed {:.0} B (a finished job must keep summaries, \
             not per-slice series; see DESIGN.md §13)",
            gate.max_retained_bytes_per_job
        );
        per_job.push(observed);
    }
    assert_eq!(
        per_job[0], per_job[1],
        "retained heap must not depend on the worker count"
    );
}
