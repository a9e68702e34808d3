//! `eadt serve` scaling curve: the serve workload of
//! [`eadt_bench::fleet::serve_workload`] — strict priority at quantum 50
//! on one 16-slot XSEDE site, every job arriving at time zero — run to
//! completion at 1k, 10k and 100k jobs on all host cores.
//!
//! Each point runs its job count until it has run [`JOBS_PER_POINT`]
//! jobs, so every point averages the host over about the same stretch of
//! time. For each job count it records jobs/s, process CPU ms per job,
//! the heap the workload itself holds, the heap a finished run still
//! holds, and the peak live heap of building and running it, under the
//! `serve_scale` key of `BENCH_fleet.json`, with the host and this
//! command. Regenerate with:
//!
//! ```text
//! cargo bench -p eadt-bench --bench serve_scale
//! ```
//!
//! It takes about eight minutes on two cores.

use criterion::measurement::WallTime;
use eadt_bench::fleet::{merge_into_bench_json, serve_session, serve_workload};
use eadt_bench::kernel::host;
use eadt_fleet::ServiceSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Job counts of the curve.
const JOB_COUNTS: [usize; 3] = [1_000, 10_000, 100_000];
/// Jobs run per point: a multiple of every job count.
const JOBS_PER_POINT: usize = 100_000;

/// `System` plus process-wide live and peak heap bytes. Duplicated from
/// `tests/memory_gate.rs`: a `#[global_allocator]` must live in the
/// binary target it measures, and the library forbids unsafe code.
struct LiveBytes;

/// Live heap bytes. `Relaxed` suffices for both counters: they publish
/// no other data, and they are read only after the threads that
/// allocated have been joined.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds atomic counter updates, which neither allocate
// nor unwind.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
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
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Starts a new peak window at the current live heap; returns it.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// User plus system CPU seconds of the whole process, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz `USER_HZ` ticks).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) as f64 / 100.0,
        _ => f64::NAN,
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// What the repeats of one job count measured.
#[derive(Default)]
struct Point {
    repeats: usize,
    wall_s: f64,
    cpu_s: f64,
    peak_bytes: usize,
    /// Heap of the workload, of the finished run, and the run's schedule
    /// shape, from the latest repeat (each repeat is identical).
    workload_bytes: usize,
    retained_bytes: usize,
    rounds: u64,
    preemptions: u64,
    journal_records: usize,
}

/// Builds and runs the serve workload of `jobs` once, adding to `point`.
fn measure(session: &ServiceSession, jobs: usize, point: &mut Point) {
    let base = reset_peak();
    let workload = serve_workload(jobs);
    let workload_bytes = LIVE.load(Ordering::Relaxed) - base;
    let cpu_before = cpu_seconds();
    let (run, wall_s) = WallTime::time(|| session.run(&workload));
    point.cpu_s += cpu_seconds() - cpu_before;
    point.wall_s += wall_s;
    let run = run.expect("the serve workload is valid");
    assert_eq!(
        run.report.completed_count(),
        jobs,
        "every serve job finishes"
    );
    point.repeats += 1;
    point.retained_bytes = LIVE.load(Ordering::Relaxed) - base - workload_bytes;
    point.peak_bytes = point.peak_bytes.max(PEAK.load(Ordering::Relaxed) - base);
    point.workload_bytes = workload_bytes;
    point.rounds = run.report.rounds;
    point.preemptions = run
        .report
        .jobs
        .iter()
        .map(|j| u64::from(j.preemptions))
        .sum();
    point.journal_records = run.journal.len();
}

fn main() {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let session = serve_session(workers);
    let mut acc: Vec<Point> = JOB_COUNTS.iter().map(|_| Point::default()).collect();
    // Up the curve and back down: every count but the largest runs half
    // its repeats on each side of the largest, so a host whose speed
    // drifts steadily over the run biases no point against another.
    let up = JOB_COUNTS
        .iter()
        .enumerate()
        .map(|(k, &jobs)| (k, jobs, (JOBS_PER_POINT / jobs).div_ceil(2)));
    let down = JOB_COUNTS
        .iter()
        .enumerate()
        .rev()
        .map(|(k, &jobs)| (k, jobs, JOBS_PER_POINT / jobs / 2));
    for (k, jobs, repeats) in up.chain(down) {
        for _ in 0..repeats {
            measure(&session, jobs, &mut acc[k]);
        }
    }

    let mut points = Vec::new();
    let mut last_peak: Option<(usize, usize)> = None;
    for (&jobs, p) in JOB_COUNTS.iter().zip(&acc) {
        let total_jobs = (jobs * p.repeats) as f64;
        let mut point = serde_json::json!({
            "jobs": jobs,
            "repeats": p.repeats,
            "wall_s": p.wall_s,
            "jobs_per_s": total_jobs / p.wall_s,
            "cpu_ms_per_job": p.cpu_s * 1e3 / total_jobs,
            "rounds": p.rounds,
            "preemptions": p.preemptions,
            "journal_records": p.journal_records,
            "workload_heap_mb": p.workload_bytes as f64 / MB,
            "retained_heap_mb": p.retained_bytes as f64 / MB,
            "peak_heap_mb": p.peak_bytes as f64 / MB,
        });
        if let Some((prev_jobs, prev_peak)) = last_peak {
            // The slope of the peak against the previous point: what one
            // more job costs at the peak, fixed costs cancelled.
            let slope = (p.peak_bytes as f64 - prev_peak as f64) / (jobs - prev_jobs) as f64;
            if let Some(map) = point.as_object_mut() {
                map.insert(
                    "peak_heap_growth_bytes_per_job".to_string(),
                    serde_json::json!(slope),
                );
            }
        }
        last_peak = Some((jobs, p.peak_bytes));
        println!("serve_scale: {point}");
        points.push(point);
    }
    let cpu_per_job = |p: &serde_json::Value| p["cpu_ms_per_job"].as_f64().unwrap_or(f64::NAN);
    let growth = cpu_per_job(&points[points.len() - 1]) / cpu_per_job(&points[0]);
    println!("serve_scale: CPU per job grows {growth:.2}x from the first to the last point");
    merge_into_bench_json(
        "serve_scale",
        serde_json::json!({
            "command": "cargo bench -p eadt-bench --bench serve_scale",
            "host": host(),
            "workers": workers,
            "policy": "priority",
            "quantum_slices": eadt_bench::fleet::SERVE_QUANTUM,
            "slots": eadt_bench::fleet::SERVE_SLOTS,
            "scale": eadt_bench::fleet::SERVE_SCALE,
            "tenants": eadt_bench::fleet::SERVE_TENANTS,
            "root_seed": eadt_bench::fleet::SERVE_SEED,
            "points": points,
            "cpu_per_job_growth": growth,
        }),
    );
}
