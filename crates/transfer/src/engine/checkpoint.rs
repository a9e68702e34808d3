//! Engine checkpoints: versioned, deterministic serialization of the
//! full in-flight state of a run at a slice boundary (DESIGN.md §13).
//!
//! A checkpoint is taken *between* slices — after one slice's controller
//! action has been applied and before the next slice's fault window
//! opens. At that instant the engine's state is a [`RunState`] (clock,
//! accumulators, chunk runtimes, channel columns, fault runtime) plus
//! the controller and the telemetry sinks; [`EngineCheckpoint`] captures
//! all of them. [`Engine::checkpoint`] is the one conversion into the
//! persistence format and [`Engine::restore`] the one conversion back:
//! a run restored with the identical plan and environment continues so
//! that the completed report, the journal suffix, and every metric are
//! **bit-identical** to an uninterrupted run (the chaos suite in
//! `eadt-ckpt` asserts this across algorithms, testbeds and fault
//! regimes).
//!
//! All floating-point accumulators survive the JSON transport exactly:
//! the vendored `serde_json` prints `f64` with shortest-roundtrip
//! formatting, so `parse(print(x)) == x` bit-for-bit.

use super::{ChannelSoA, ChunkState, Engine, FileProgress, RunState, StageColumns};
use crate::control::{Controller, ControllerSnapshot};
use crate::env::TransferEnv;
use crate::plan::TransferPlan;
use crate::report::{ChunkStat, TransferReport};
use crate::retry::{FaultRuntime, FaultRuntimeSnapshot};
use eadt_sim::{Bytes, SimDuration, SimTime, TimeSeries};
use eadt_telemetry::{EnergyLedger, MetricsRegistry, MetricsSnapshot, SpanCursor, Telemetry};
use serde::{Deserialize, Serialize};

/// Version of the checkpoint schema. Bumped on any change to the
/// serialized layout; [`Engine::run_controlled`] refuses checkpoints
/// from another version instead of misinterpreting them. Version 2
/// replaced the flat `src_energy_j`/`dst_energy_j` accumulators with the
/// energy-attribution ledger and added the observability cursors
/// (`horizon_end`, `open_spans`).
///
/// [`Engine::run_controlled`]: super::Engine::run_controlled
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Progress of one file: full size (for restart-on-failure) and bytes
/// still to push.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSnapshot {
    /// Full file size.
    pub size: Bytes,
    /// Bytes left to move.
    pub remaining: Bytes,
}

/// State of one data channel at the checkpoint boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelSnapshot {
    /// The file in flight, if any.
    pub current: Option<FileSnapshot>,
    /// Remaining control-channel gap (connection setup, inter-file, or
    /// failure backoff).
    pub gap: SimDuration,
    /// Remaining time-to-failure (fault injection only).
    pub ttf: Option<SimDuration>,
    /// Consecutive failures without intervening progress.
    pub consecutive: u32,
    /// Whether the current gap is a failure backoff.
    pub in_backoff: bool,
}

/// Runtime state of one chunk within the running stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkSnapshot {
    /// Chunk label from the plan.
    pub label: String,
    /// Pipelining depth.
    pub pipelining: u32,
    /// Streams per channel.
    pub parallelism: u32,
    /// Whether the chunk accepts freed channels.
    pub accepts_reallocation: bool,
    /// Total bytes the chunk carries.
    pub total_bytes: Bytes,
    /// Number of files in the chunk.
    pub file_count: u64,
    /// When the chunk drained, if it already has.
    pub completed_at: Option<SimTime>,
    /// Mean file size (drives the duty-cycle model).
    pub avg_file: Bytes,
    /// Files not yet assigned to a channel, front first.
    pub queue: Vec<FileSnapshot>,
    /// The chunk's channels in engine order.
    pub channels: Vec<ChannelSnapshot>,
    /// Channel target the controller has set.
    pub target: u32,
}

impl ChunkSnapshot {
    /// Captures a chunk's runtime state: the chunk itself plus its block
    /// of channel columns (`start..start + len`) in the arena's SoA. The
    /// serialized layout is unchanged from the pre-SoA engine — channels
    /// re-materialize as per-channel records in engine order, so
    /// checkpoints stay byte-identical across the layout refactor.
    pub(super) fn of(c: &ChunkState, ch: &ChannelSoA, start: usize, len: usize) -> Self {
        ChunkSnapshot {
            label: c.label.clone(),
            pipelining: c.pipelining,
            parallelism: c.parallelism,
            accepts_reallocation: c.accepts_reallocation,
            total_bytes: c.total_bytes,
            file_count: c.file_count as u64,
            completed_at: c.completed_at,
            avg_file: c.avg_file,
            queue: c.queue.iter().map(file_snapshot).collect(),
            channels: (start..start + len)
                .map(|i| ChannelSnapshot {
                    current: ch.has_file[i].then(|| FileSnapshot {
                        size: ch.file_size[i],
                        remaining: ch.file_remaining[i],
                    }),
                    gap: ch.gap[i],
                    ttf: ch.ttf[i],
                    consecutive: ch.consecutive[i],
                    in_backoff: ch.in_backoff[i],
                })
                .collect(),
            target: c.target,
        }
    }

    /// Rebuilds the chunk's runtime state, appending its channels (as
    /// chunk `ci`) to the arena's SoA columns. Callers restore chunks in
    /// index order, preserving the chunk-major block layout.
    pub(super) fn into_state(self, ch: &mut ChannelSoA, ci: u32) -> ChunkState {
        for snap in self.channels {
            let pos = ch.len();
            ch.insert_fresh(pos, ci, snap.gap, snap.ttf);
            ch.consecutive[pos] = snap.consecutive;
            ch.in_backoff[pos] = snap.in_backoff;
            if let Some(f) = snap.current {
                ch.has_file[pos] = true;
                ch.file_size[pos] = f.size;
                ch.file_remaining[pos] = f.remaining;
            }
        }
        let mut queue = std::collections::VecDeque::with_capacity(self.file_count as usize);
        queue.extend(self.queue.into_iter().map(file_progress));
        ChunkState {
            label: self.label,
            pipelining: self.pipelining,
            parallelism: self.parallelism,
            accepts_reallocation: self.accepts_reallocation,
            total_bytes: self.total_bytes,
            file_count: self.file_count as usize,
            completed_at: self.completed_at,
            avg_file: self.avg_file,
            queue,
            target: self.target,
        }
    }
}

fn file_snapshot(fp: &FileProgress) -> FileSnapshot {
    FileSnapshot {
        size: fp.size,
        remaining: fp.remaining,
    }
}

fn file_progress(fs: FileSnapshot) -> FileProgress {
    FileProgress {
        size: fs.size,
        remaining: fs.remaining,
    }
}

/// The full in-flight state of a run at a slice boundary.
///
/// Everything a resumed [`Engine::run_controlled`] needs beyond the
/// (reconstructible) plan, environment, and controller configuration.
/// The `fingerprint` binds the checkpoint to that configuration so a
/// resume against the wrong plan fails loudly instead of silently
/// diverging.
///
/// [`Engine::run_controlled`]: super::Engine::run_controlled
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// [`CHECKPOINT_SCHEMA_VERSION`] at capture time.
    pub version: u32,
    /// [`config_fingerprint`] of the plan and environment.
    pub fingerprint: u64,
    /// Index of the running stage.
    pub stage: u64,
    /// Simulated time at the boundary (start of the next slice).
    pub now: SimTime,
    /// Slices executed since the run began (replayed macro-step slices
    /// count individually).
    pub slices_done: u64,
    /// Secondary-estimator energy accumulated so far, Joules.
    pub estimated_energy_j: f64,
    /// Bytes booked as retransmission so far.
    pub retransmitted: Bytes,
    /// Energy-attribution ledger so far: both sites' phase and component
    /// buckets. The resumed run's report derives its per-site energy from
    /// the restored phase sums.
    pub ledger: EnergyLedger,
    /// End boundary (in `slices_done`) of the horizon span open at the
    /// halt, if any (journaled runs only). The resumed run closes the
    /// span at this boundary instead of opening a new one.
    pub horizon_end: Option<u64>,
    /// Span cursors open at the boundary (journaled runs only): restored
    /// into the telemetry façade so `span_end` events in the resumed
    /// suffix match their `span_begin` ids from the prefix.
    pub open_spans: Vec<SpanCursor>,
    /// Goodput so far.
    pub moved_total: Bytes,
    /// Wire bytes (goodput inflated by congestion efficiency), exact
    /// f64 accumulator.
    pub wire_bytes_f: f64,
    /// `debug-invariants` auditor: gross bytes moved.
    pub audit_gross: Bytes,
    /// `debug-invariants` auditor: bytes entered into started stages.
    pub audit_stage_requested: Bytes,
    /// Per-chunk stats of stages that already finished.
    pub chunk_stats: Vec<ChunkStat>,
    /// Per-slice throughput samples so far.
    pub throughput_series: TimeSeries,
    /// Per-slice total-power samples so far.
    pub power_series: TimeSeries,
    /// Per-slice concurrency samples so far.
    pub concurrency_series: TimeSeries,
    /// Runtime state of the running stage's chunks.
    pub chunks: Vec<ChunkSnapshot>,
    /// Last reported per-server power state, source side (edge memory
    /// for `power_state` events).
    pub prev_src_active: Vec<bool>,
    /// Last reported per-server power state, destination side.
    pub prev_dst_active: Vec<bool>,
    /// Fault-runtime state, present iff the environment has an active
    /// fault plan.
    pub faults: Option<FaultRuntimeSnapshot>,
    /// The controller's mutable state.
    pub controller: ControllerSnapshot,
    /// Metrics-registry state, present iff the run sampled metrics.
    pub metrics: Option<MetricsSnapshot>,
    /// Journal sequence cursor: the `seq` the next journaled event will
    /// carry. A resumed run journals only the suffix; concatenated with
    /// the prefix on disk it is byte-identical to an uninterrupted
    /// journal.
    pub journal_seq: u64,
}

impl EngineCheckpoint {
    /// Serializes the checkpoint as pretty JSON (newline-terminated),
    /// byte-deterministic for identical states.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("checkpoints always serialize");
        s.push('\n');
        s
    }

    /// Parses a checkpoint serialized by [`EngineCheckpoint::to_json`].
    /// Rejects other schema versions.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let ck: EngineCheckpoint =
            serde_json::from_str(text).map_err(|e| format!("checkpoint: {e}"))?;
        if ck.version != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "checkpoint schema version {} is not the supported {CHECKPOINT_SCHEMA_VERSION}",
                ck.version
            ));
        }
        Ok(ck)
    }
}

impl Engine<'_> {
    /// Converts a checkpoint back to the live state it captured — the
    /// one way a run resumes from persisted state. The controller's state
    /// is restored from its snapshot, and the telemetry's metrics
    /// registry and open spans from theirs.
    ///
    /// The plan, environment, telemetry configuration and controller
    /// *type* must be the ones the checkpoint was taken under: the config
    /// fingerprint and the controller snapshot kind are checked and a
    /// mismatch panics (callers that need a typed error — `eadt-ckpt` —
    /// validate first).
    ///
    /// # Panics
    /// Panics when resuming against a different configuration (schema
    /// version, fingerprint, stage index or chunk count, fault-plan
    /// presence, controller kind, or telemetry sinks not matching the
    /// checkpoint).
    pub fn restore(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
        ck: EngineCheckpoint,
    ) -> RunState {
        let env = self.env;
        assert_eq!(
            ck.version, CHECKPOINT_SCHEMA_VERSION,
            "checkpoint schema version mismatch"
        );
        assert_eq!(
            ck.fingerprint,
            config_fingerprint(env, plan),
            "checkpoint was taken under a different plan/environment"
        );
        let stage = ck.stage as usize;
        assert!(
            stage < plan.stages.len(),
            "checkpoint stage {} out of range ({} stages)",
            ck.stage,
            plan.stages.len()
        );
        assert_eq!(
            ck.chunks.len(),
            plan.stages[stage].chunks.len(),
            "checkpoint chunk count does not match the stage"
        );
        let runtime = match (env.faults.as_ref().filter(|p| p.is_active()), &ck.faults) {
            (Some(faults), Some(snap)) => Some(FaultRuntime::restore(
                faults,
                env.src.servers.len(),
                env.dst.servers.len(),
                snap,
            )),
            (None, None) => None,
            (have_plan, _) => panic!(
                "checkpoint fault state ({}) does not match the environment ({})",
                if ck.faults.is_some() {
                    "present"
                } else {
                    "absent"
                },
                if have_plan.is_some() {
                    "active plan"
                } else {
                    "no plan"
                },
            ),
        };
        controller
            .restore(&ck.controller)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            tel.metrics_ref().is_some(),
            ck.metrics.is_some(),
            "checkpoint metrics state does not match the telemetry configuration"
        );
        if let (Some(m), Some(snap)) = (tel.metrics(), &ck.metrics) {
            *m = MetricsRegistry::restore(snap);
        }
        tel.set_open_spans(ck.open_spans);

        // Channels re-enter the columns chunk by chunk, in index order,
        // which is the chunk-major block layout the engine maintains.
        let mut cols = StageColumns::default();
        cols.begin_stage(ck.chunks.len());
        let mut chunks = Vec::with_capacity(ck.chunks.len());
        for (ci, snap) in ck.chunks.into_iter().enumerate() {
            let ch = &mut cols.ch;
            let start = ch.len();
            let c = snap.into_state(ch, ci as u32);
            let end = ch.len();
            cols.chunk_start[ci] = start;
            cols.chunk_len[ci] = end - start;
            cols.chunk_in_flight[ci] = (start..end).filter(|&i| ch.has_file[i]).count() as u32;
            let queued: Bytes = c.queue.iter().map(|f| f.remaining).sum();
            let in_flight: Bytes = (start..end)
                .filter(|&i| ch.has_file[i])
                .map(|i| ch.file_remaining[i])
                .sum();
            cols.chunk_remaining[ci] = queued + in_flight;
            chunks.push(c);
        }
        RunState {
            stage,
            chunks: Some(chunks),
            cols,
            now: ck.now,
            slices_done: ck.slices_done,
            estimated_energy: ck.estimated_energy_j,
            retransmitted: ck.retransmitted,
            chunk_stats: ck.chunk_stats,
            ledger: ck.ledger,
            horizon_end: ck.horizon_end,
            moved_total: ck.moved_total,
            wire_bytes_f: ck.wire_bytes_f,
            throughput_series: ck.throughput_series,
            power_series: ck.power_series,
            concurrency_series: ck.concurrency_series,
            audit_gross: ck.audit_gross,
            audit_stage_requested: ck.audit_stage_requested,
            prev_src_active: ck.prev_src_active,
            prev_dst_active: ck.prev_dst_active,
            runtime,
        }
    }

    /// Converts a halted leg's live state to its checkpoint — the one
    /// way a checkpoint is made, and only worth doing when something is
    /// persisted. `controller` and `tel` must be the ones the run is
    /// driven with.
    ///
    /// The per-slice series and finished-stage stats *move* into the
    /// checkpoint instead of being copied, so the cost does not grow
    /// with the run's length twice over. The state is left without
    /// them: hand the checkpoint back with [`RunState::reclaim`] before
    /// the next leg, or drop the state.
    pub fn checkpoint(
        &self,
        plan: &TransferPlan,
        state: &mut RunState,
        controller: &dyn Controller,
        tel: &Telemetry,
    ) -> EngineCheckpoint {
        let cols = &state.cols;
        EngineCheckpoint {
            version: CHECKPOINT_SCHEMA_VERSION,
            fingerprint: config_fingerprint(self.env, plan),
            stage: state.stage as u64,
            now: state.now,
            slices_done: state.slices_done,
            estimated_energy_j: state.estimated_energy,
            retransmitted: state.retransmitted,
            ledger: state.ledger,
            horizon_end: state.horizon_end,
            open_spans: tel.open_spans().to_vec(),
            moved_total: state.moved_total,
            wire_bytes_f: state.wire_bytes_f,
            audit_gross: state.audit_gross,
            audit_stage_requested: state.audit_stage_requested,
            chunk_stats: std::mem::take(&mut state.chunk_stats),
            throughput_series: std::mem::take(&mut state.throughput_series),
            power_series: std::mem::take(&mut state.power_series),
            concurrency_series: std::mem::take(&mut state.concurrency_series),
            // Every state a caller holds comes from a halt or a restore,
            // so it is inside a stage and its chunks are present.
            chunks: state
                .chunks
                .iter()
                .flatten()
                .enumerate()
                .map(|(ci, c)| {
                    ChunkSnapshot::of(c, &cols.ch, cols.chunk_start[ci], cols.chunk_len[ci])
                })
                .collect(),
            prev_src_active: state.prev_src_active.clone(),
            prev_dst_active: state.prev_dst_active.clone(),
            faults: state.runtime.as_ref().map(FaultRuntime::snapshot),
            controller: controller.snapshot(),
            metrics: tel.metrics_ref().map(MetricsRegistry::snapshot),
            journal_seq: tel.journal().map_or(0, |j| j.next_seq()),
        }
    }
}

impl RunState {
    /// Takes back what [`Engine::checkpoint`] moved out of this state
    /// (the per-slice series and finished-stage stats), so the run can
    /// continue live after its checkpoint was persisted. `ck` must be
    /// the checkpoint made from this state.
    pub fn reclaim(&mut self, ck: EngineCheckpoint) {
        debug_assert_eq!(
            ck.slices_done, self.slices_done,
            "reclaiming a checkpoint of another boundary"
        );
        self.chunk_stats = ck.chunk_stats;
        self.throughput_series = ck.throughput_series;
        self.power_series = ck.power_series;
        self.concurrency_series = ck.concurrency_series;
    }
}

/// Fractional grant of externally-shared site resources applied to one
/// engine run.
///
/// When a transfer shares its site with other tenants
/// (`eadt_endsys::pool`), an arbiter outside the engine decides what
/// fraction of the link and disk capacity this transfer may use for the
/// leg being executed. The engine multiplies these factors into its
/// shared-capacity terms each slice: `bandwidth` scales the congested
/// link capacity, `src_disk`/`dst_disk` scale the per-server disk
/// aggregates. The default grant is `1.0` everywhere, which is an exact
/// floating-point identity — un-pooled runs are byte-for-byte unchanged.
///
/// The share is deliberately **not** part of the checkpoint or the
/// config fingerprint: a service recomputes grants deterministically
/// from pool membership on every leg, so a job may resume under a
/// different share than it halted with (that is the whole point of
/// re-arbitrating each round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceShare {
    /// Fraction of the link bandwidth granted (0–1].
    pub bandwidth: f64,
    /// Fraction of the source site's disk aggregate granted (0–1].
    pub src_disk: f64,
    /// Fraction of the destination site's disk aggregate granted (0–1].
    pub dst_disk: f64,
}

impl ResourceShare {
    /// The whole-machine grant: every factor exactly `1.0`.
    pub const FULL: ResourceShare = ResourceShare {
        bandwidth: 1.0,
        src_disk: 1.0,
        dst_disk: 1.0,
    };

    /// A uniform grant: the same fraction on link and both disks.
    pub fn uniform(fraction: f64) -> Self {
        ResourceShare {
            bandwidth: fraction,
            src_disk: fraction,
            dst_disk: fraction,
        }
    }
}

impl Default for ResourceShare {
    fn default() -> Self {
        ResourceShare::FULL
    }
}

/// How [`Engine::run_controlled`] starts and stops.
///
/// [`Engine::run_controlled`]: super::Engine::run_controlled
#[derive(Debug, Default)]
pub struct RunControl {
    /// Resume from this checkpoint instead of starting fresh. The plan,
    /// environment and controller passed alongside must be the ones the
    /// checkpoint was taken under (fingerprint-checked).
    pub resume: Option<Box<EngineCheckpoint>>,
    /// Halt at the first slice boundary where the total executed slice
    /// count reaches this value, returning a checkpoint. `None` runs to
    /// completion. A halt inside a macro-stepped horizon cuts the replay
    /// at exactly this boundary — resuming recomputes the rest.
    pub halt_after: Option<u64>,
    /// Fraction of shared site resources granted to this run (defaults
    /// to the full machine). See [`ResourceShare`].
    pub share: ResourceShare,
}

impl RunControl {
    /// Resume from a checkpoint and run to completion.
    pub fn resume_from(ck: EngineCheckpoint) -> Self {
        RunControl {
            resume: Some(Box::new(ck)),
            halt_after: None,
            share: ResourceShare::FULL,
        }
    }

    /// Start fresh and halt once `slices` slices have executed.
    pub fn halt_at(slices: u64) -> Self {
        RunControl {
            resume: None,
            halt_after: Some(slices),
            share: ResourceShare::FULL,
        }
    }

    /// Caps this control with a halt boundary (keeps any resume state).
    pub fn with_halt(mut self, slices: u64) -> Self {
        self.halt_after = Some(slices);
        self
    }

    /// Applies a resource share grant (keeps resume/halt state).
    pub fn with_share(mut self, share: ResourceShare) -> Self {
        self.share = share;
        self
    }
}

/// What [`Engine::run_controlled`] produced.
///
/// [`Engine::run_controlled`]: super::Engine::run_controlled
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The run finished (or hit the time guard): the full report.
    Done(TransferReport),
    /// The run halted at the requested boundary: the state to resume
    /// from.
    Halted(Box<EngineCheckpoint>),
}

impl RunOutcome {
    /// The report, when the run finished.
    pub fn into_report(self) -> Option<TransferReport> {
        match self {
            RunOutcome::Done(r) => Some(r),
            RunOutcome::Halted(_) => None,
        }
    }

    /// The checkpoint, when the run halted.
    pub fn into_checkpoint(self) -> Option<Box<EngineCheckpoint>> {
        match self {
            RunOutcome::Done(_) => None,
            RunOutcome::Halted(ck) => Some(ck),
        }
    }

    /// True when the run halted at a boundary.
    pub fn halted(&self) -> bool {
        matches!(self, RunOutcome::Halted(_))
    }
}

/// A stable digest of the run configuration: plan shape (stages, chunk
/// labels/bytes/files/parameters), slice length, time guard, server
/// counts and link bandwidth. FNV-1a over the fields in declaration
/// order — not cryptographic, just a loud tripwire against resuming a
/// checkpoint under a different configuration.
pub fn config_fingerprint(env: &TransferEnv, plan: &TransferPlan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&plan.total_bytes().as_u64().to_le_bytes());
    eat(&(plan.stages.len() as u64).to_le_bytes());
    for stage in &plan.stages {
        for c in &stage.chunks {
            eat(c.label.as_bytes());
            eat(&c.total_bytes().as_u64().to_le_bytes());
            eat(&(c.files.len() as u64).to_le_bytes());
            eat(&c.channels.to_le_bytes());
            eat(&c.pipelining.to_le_bytes());
            eat(&c.parallelism.to_le_bytes());
        }
    }
    eat(&env.tuning.slice.as_micros().to_le_bytes());
    eat(&env.tuning.max_duration.as_micros().to_le_bytes());
    eat(&(env.src.servers.len() as u64).to_le_bytes());
    eat(&(env.dst.servers.len() as u64).to_le_bytes());
    eat(&env.link.bandwidth.as_bps().to_bits().to_le_bytes());
    eat(&env.link.rtt.as_micros().to_le_bytes());
    eat(&[u8::from(env.faults.as_ref().is_some_and(|p| p.is_active()))]);
    h
}
