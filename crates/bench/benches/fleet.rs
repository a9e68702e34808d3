//! Fleet batch-runner benchmark: the figures matrix executed serially and
//! on all host cores, with the measurements appended to `BENCH_fleet.json`
//! at the workspace root.
//!
//! The vendored Criterion subset prints rough ns/iter numbers; the JSON
//! artifact is the machine-readable record CI uploads. Both paths also
//! assert the tentpole property: the aggregate report is byte-identical
//! however many workers ran it.

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, Criterion};
use eadt_bench::fleet::merge_into_bench_json;
use eadt_bench::kernel::host;
use eadt_fleet::{figures_matrix, Session};

/// Dataset scale for the benched matrix: large enough to exercise every
/// algorithm, small enough for a smoke run on one core.
const SCALE: f64 = 0.01;

fn bench(c: &mut Criterion) {
    let jobs = figures_matrix(SCALE);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    g.bench_function("figures_matrix_serial", |b| {
        b.iter(|| {
            Session::builder()
                .root_seed(42)
                .workers(1)
                .build()
                .run(&jobs)
        })
    });
    g.bench_function("figures_matrix_all_cores", |b| {
        b.iter(|| Session::builder().root_seed(42).build().run(&jobs))
    });
    g.finish();

    // The machine-readable record: one timed pass each way, plus the
    // byte-identity check that makes the parallel numbers trustworthy.
    let serial = Session::builder().root_seed(42).workers(1).build();
    let parallel = Session::builder().root_seed(42).build();
    let (serial_report, serial_s) = WallTime::time(|| serial.run(&jobs));
    let (parallel_report, parallel_s) = WallTime::time(|| parallel.run(&jobs));
    assert_eq!(
        serial_report.to_json(),
        parallel_report.to_json(),
        "aggregate report must not depend on worker count"
    );
    let mut entry = serde_json::json!({
        "command": "cargo bench -p eadt-bench --bench fleet",
        "host": host(),
        "jobs": jobs.len(),
        "scale": SCALE,
        "root_seed": 42,
        "completed": serial_report.completed_count(),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "workers": workers,
    });
    let map = entry.as_object_mut().expect("entry is an object");
    if workers == 1 {
        // On a single core the two passes race the same CPU; publishing
        // their ratio as a "speedup" is noise, not a measurement.
        map.insert("skipped".to_string(), serde_json::json!(true));
        map.insert(
            "skip_reason".to_string(),
            serde_json::json!("single-core host: wall-clock ratio is not a parallel speedup"),
        );
    } else {
        map.insert(
            "speedup".to_string(),
            serde_json::json!(serial_s / parallel_s.max(1e-9)),
        );
    }
    merge_into_bench_json("figures_matrix", entry);
    println!(
        "fleet figures_matrix: {} jobs, serial {serial_s:.2}s, {workers}-worker {parallel_s:.2}s",
        jobs.len()
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
