//! Checkpoint-codec benchmark: `EngineCheckpoint::{to_json, from_json}`
//! wall time and text size at two checkpoint sizes ~4× apart (the same
//! job halted at the same slice with its dataset at two scales).
//!
//! Records the numbers under the `checkpoint` key of `BENCH_engine.json`
//! for the bench-smoke CI job. The committed `checkpoint_gate` bound that
//! the perf-gate job enforces lives in the same file and is never touched
//! by regeneration. Regenerate with:
//!
//! ```text
//! cargo bench -p eadt-bench --bench checkpoint_codec
//! ```

use criterion::measurement::WallTime;
use criterion::{criterion_group, criterion_main, Criterion};
use eadt_bench::checkpoint::{bracket_checkpoints, time_codec, CodecTiming};
use eadt_bench::kernel::{host, merge_into_bench_json};

/// Timed passes per call; the minimum is recorded.
const PASSES: usize = 9;

fn wall(f: &mut dyn FnMut()) -> f64 {
    WallTime::time(f).1
}

fn record(t: &CodecTiming) -> serde_json::Value {
    serde_json::json!({
        "bytes": t.bytes,
        "encode_us": t.encode_s * 1e6,
        "decode_us": t.decode_s * 1e6,
        "decode_ns_per_byte": t.decode_ns_per_byte(),
    })
}

fn bench(_c: &mut Criterion) {
    let [small, large] = bracket_checkpoints();
    let s = time_codec(&small, PASSES, wall);
    let l = time_codec(&large, PASSES, wall);
    let ratio = l.decode_ns_per_byte() / s.decode_ns_per_byte();
    merge_into_bench_json(
        "checkpoint",
        serde_json::json!({
            "command": "cargo bench -p eadt-bench --bench checkpoint_codec",
            "host": host(),
            "passes": PASSES,
            "small": record(&s),
            "large": record(&l),
            "decode_ns_per_byte_ratio": ratio,
        }),
    );
    println!(
        "checkpoint codec: small {} B encode {:.0} us decode {:.0} us; \
         large {} B encode {:.0} us decode {:.0} us; decode ns/byte ratio {ratio:.2}",
        s.bytes,
        s.encode_s * 1e6,
        s.decode_s * 1e6,
        l.bytes,
        l.encode_s * 1e6,
        l.decode_s * 1e6,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
