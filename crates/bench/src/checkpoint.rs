//! Checkpoint-codec measurement support shared by the `checkpoint_codec`
//! bench and the `perf_gate` regression test.
//!
//! Resuming a job decodes its [`EngineCheckpoint`] (DESIGN.md §13), so
//! decode cost must grow linearly with checkpoint size. This module holds
//! the two bracket checkpoints — the same job halted at the same slice
//! with its dataset at two scales, so the text differs ~4× in size — the
//! min-over-passes codec timing, and the committed `checkpoint_gate`
//! bound on decode ns/byte at the large size ÷ at the small one. Linear
//! decode keeps that ratio near 1; a decoder that rescans the input per
//! character pushes it toward the size ratio.
//!
//! As in [`crate::kernel`], the wall clock stays out of this module: the
//! caller passes a timer (the bench and test targets route it through
//! `criterion::measurement::WallTime`).

use crate::kernel::bench_json_path;
use eadt_core::{Algorithm, Htee, RunCtx};
use eadt_transfer::{EngineCheckpoint, RunControl, RunOutcome};

/// Slice at which both bracket jobs halt.
const HALT_SLICE: u64 = 30;

/// Dataset scales of the small and large bracket checkpoints.
const SCALES: [f64; 2] = [0.05, 0.25];

/// HTEE on XSEDE with the testbed's dataset at `scale`, halted at
/// [`HALT_SLICE`]. The file queues dominate the text, so its size scales
/// with the dataset.
fn checkpoint_at_scale(scale: f64) -> EngineCheckpoint {
    let tb = eadt_testbeds::xsede();
    let dataset = tb.dataset_spec.scaled(scale).generate(42);
    let algo = Htee {
        partition: tb.partition,
        ..Htee::new(8)
    };
    let mut ctx = RunCtx::new(&tb.env, &dataset);
    match algo.run_controlled(&mut ctx, RunControl::halt_at(HALT_SLICE)) {
        RunOutcome::Halted(ck) => *ck,
        RunOutcome::Done(_) => panic!("scale {scale}: job finished before slice {HALT_SLICE}"),
    }
}

/// The small and large bracket checkpoints, in that order.
pub fn bracket_checkpoints() -> [EngineCheckpoint; 2] {
    SCALES.map(checkpoint_at_scale)
}

/// Best-of-passes codec timing of one checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CodecTiming {
    /// Length of the JSON text.
    pub bytes: usize,
    /// Fastest [`EngineCheckpoint::to_json`], in seconds.
    pub encode_s: f64,
    /// Fastest [`EngineCheckpoint::from_json`], in seconds.
    pub decode_s: f64,
}

impl CodecTiming {
    /// Decode wall time per byte of JSON text.
    pub fn decode_ns_per_byte(&self) -> f64 {
        self.decode_s * 1e9 / self.bytes as f64
    }
}

/// Encodes and decodes `ck` `passes` times, timing each call with
/// `time` (which runs its argument once and returns elapsed seconds), and
/// keeps the fastest of each so scheduler noise must hit every pass to
/// show. Panics if the decoded checkpoint differs from `ck`.
pub fn time_codec(
    ck: &EngineCheckpoint,
    passes: usize,
    time: impl Fn(&mut dyn FnMut()) -> f64,
) -> CodecTiming {
    let mut text = String::new();
    let mut decoded = None;
    let mut best = CodecTiming {
        bytes: 0,
        encode_s: f64::INFINITY,
        decode_s: f64::INFINITY,
    };
    for _ in 0..passes.max(1) {
        best.encode_s = best.encode_s.min(time(&mut || text = ck.to_json()));
        decoded = None; // drop the previous pass's result outside the timing
        best.decode_s = best.decode_s.min(time(&mut || {
            decoded = Some(EngineCheckpoint::from_json(&text))
        }));
    }
    best.bytes = text.len();
    match decoded {
        Some(Ok(d)) => assert!(d == *ck, "decoded checkpoint differs from the encoded one"),
        Some(Err(e)) => panic!("checkpoint failed to decode: {e}"),
        None => unreachable!("at least one pass ran"),
    }
    best
}

/// The committed decode-scaling bound (the `checkpoint_gate` key of
/// `BENCH_engine.json`). A ratio of two timings taken in one process is
/// machine-independent, so one bound serves every host and profile.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointGate {
    /// Ceiling on decode ns/byte of the large bracket checkpoint divided
    /// by that of the small one.
    pub max_decode_ns_per_byte_ratio: f64,
}

impl CheckpointGate {
    /// Loads the committed bound, falling back to the default the repo
    /// ships when the file or key is absent.
    pub fn load() -> Self {
        let fallback = 2.0;
        let ratio = std::fs::read_to_string(bench_json_path())
            .ok()
            .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
            .and_then(|root| root["checkpoint_gate"]["max_decode_ns_per_byte_ratio"].as_f64());
        CheckpointGate {
            max_decode_ns_per_byte_ratio: ratio.unwrap_or(fallback),
        }
    }
}
