//! Parser-level robustness of persisted checkpoints: a real
//! [`JobCheckpoint`] that is truncated (a torn write) or has one ASCII
//! byte substituted (bit rot) must be rejected or decoded, never panic.
//!
//! Scope: this is the parser half of checkpoint robustness. A mutation
//! that keeps the text well-formed — a flipped digit in a byte count, a
//! changed letter inside a label — decodes to a *different* checkpoint
//! and is accepted here; catching that needs a content digest over the
//! checkpoint, which the format does not carry yet.

use eadt_ckpt::{JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_core::prelude::*;
use eadt_sim::{SimDuration, SimRng};
use eadt_telemetry::Telemetry;
use eadt_transfer::{FaultModel, FaultPlan, OutageModel, RunControl, RunOutcome, SiteSide};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A mid-flight HTEE checkpoint on XSEDE with channel faults, an outage
/// and metrics on, so the text carries fault-runtime, controller and
/// registry state besides the chunk table.
fn real_checkpoint() -> String {
    let tb = eadt_testbeds::xsede();
    let mut env = tb.env.clone();
    env.faults = Some(
        FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(8), 7)).with_outage(
            OutageModel::new(
                SiteSide::Src,
                0,
                SimDuration::from_secs(6),
                SimDuration::from_secs(2),
                13,
            ),
        ),
    );
    let dataset = tb.dataset_spec.scaled(0.01).generate(11);
    let algo = Htee {
        partition: tb.partition,
        fault_aware: true,
        ..Htee::new(8)
    };
    let mut tel = Telemetry::enabled(SimDuration::from_millis(500));
    let mut ctx = RunCtx::with_telemetry(&env, &dataset, &mut tel);
    let RunOutcome::Halted(engine) = algo.run_controlled(&mut ctx, RunControl::halt_at(40)) else {
        panic!("run finished before the halt slice");
    };
    JobCheckpoint {
        schema: JOB_CHECKPOINT_SCHEMA_VERSION,
        job: 3,
        label: "htee/xsede \"quoted\" \\ é".to_string(),
        algorithm: "HTEE".to_string(),
        seed: 11,
        engine: *engine,
    }
    .to_json()
}

/// Every truncation that drops the closing brace is an error. The stride
/// keeps a debug run well under a second while still landing cuts inside
/// keys, strings, numbers, literals and escapes.
#[test]
fn every_truncation_is_rejected() {
    let text = real_checkpoint();
    assert!(JobCheckpoint::from_json(&text).is_ok());
    let end = text.rfind('}').expect("checkpoint is a JSON object");
    let mut cuts: Vec<usize> = (0..end).step_by(113).collect();
    // Dense near both ends, where the wrapper fields and the last
    // closing brackets live.
    cuts.extend((0..end.min(64)).chain(end.saturating_sub(64)..=end));
    let mut checked = 0;
    for cut in cuts {
        let Some(prefix) = text.get(..cut) else {
            continue; // not a char boundary
        };
        assert!(
            JobCheckpoint::from_json(prefix).is_err(),
            "checkpoint truncated to {cut} of {} bytes decoded",
            text.len()
        );
        checked += 1;
    }
    assert!(checked > 300, "only {checked} truncations checked");
}

/// Seeded single-byte ASCII substitutions never panic the decoder; most
/// are rejected (broken syntax, a misspelt key, a wrong type).
#[test]
fn ascii_substitutions_never_panic() {
    const MUTATIONS: usize = 400;
    let text = real_checkpoint();
    let mut rng = SimRng::new(0x5eed);
    let mut rejected = 0;
    for _ in 0..MUTATIONS {
        let mut bytes = text.clone().into_bytes();
        let at = rng.range_u64(0, bytes.len() as u64) as usize;
        if !bytes[at].is_ascii() {
            continue; // keep the text valid UTF-8
        }
        let byte = rng.range_u64(0, 0x80) as u8;
        bytes[at] = byte;
        let mutated = String::from_utf8(bytes).expect("ASCII for ASCII keeps UTF-8");
        let decoded = catch_unwind(AssertUnwindSafe(|| JobCheckpoint::from_json(&mutated)))
            .unwrap_or_else(|_| panic!("decoder panicked on byte {byte:#04x} at offset {at}"));
        if decoded.is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected > MUTATIONS / 2,
        "only {rejected} of {MUTATIONS} substitutions were rejected"
    );
}
