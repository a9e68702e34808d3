//! The time-sliced transfer engine.
//!
//! Each slice (default 100 ms) the engine:
//!
//! 1. synchronises every chunk's channel set with its target allocation
//!    (channels may be added/removed mid-transfer by the [`Controller`]);
//! 2. computes per-channel demand: `min(parallelism × stream rate, process
//!    cap, source disk share, destination disk share)`;
//! 3. grants rates max-min fairly against the path capacity scaled by the
//!    congestion efficiency of the total stream count;
//! 4. advances every channel through its file queue, paying the
//!    `RTT/pipelining` inter-file control-channel gap;
//! 5. converts per-server load into utilization and power (Eq. 1) and
//!    accumulates energy on both sites;
//! 6. reports the slice to the controller, which may re-allocate channels.
//!
//! With a [`crate::faults::FaultPlan`] configured, the slice additionally
//! advances the fault runtime (episode windows, breaker cooldowns),
//! routes placement around quarantined servers, kills channels whose TTF
//! expired or that connected into an outage window, and schedules their
//! reconnects through the retry policy's jittered exponential backoff.
//! Channels waiting out a backoff longer than the slice are *blocked*:
//! they hold no demand, draw no power, and do not count against their
//! server's disk contention.
//!
//! Everything is deterministic: no wall clock, and the only RNGs are the
//! fault plan's seeded streams.
//!
//! # Data layout (DESIGN.md §17)
//!
//! The hot state is struct-of-arrays: every per-channel field lives in a
//! flat column of the engine-owned [`SliceArena`] ([`ChannelSoA`]),
//! grouped chunk-major, and every per-chunk quantity the kernel needs
//! (remaining bytes, in-flight count, channel capacity, duty cycle,
//! demand, inter-file gap) is a flat array indexed by chunk. The slice
//! kernel, the fair-share fill, the duty-cycle accounting and the
//! macro-step replay all stream through these contiguous columns; a
//! steady-state slice performs **zero heap allocations** (asserted by the
//! counting-allocator harness in `eadt-bench`). Remaining bytes are
//! maintained incrementally in exact integer arithmetic instead of being
//! recomputed from the queues, and the controller's [`SliceCtx`] vectors
//! are lent out of the arena and reclaimed after each decision.

use crate::control::{ControlAction, Controller, FaultView, SliceCtx};
use crate::env::TransferEnv;
use crate::faults::{FaultCause, SiteSide};
use crate::plan::{StagePlan, TransferPlan};
use crate::report::TransferReport;
use crate::retry::FaultRuntime;
use eadt_dataset::FileSpec;
use eadt_endsys::{ServerLoad, Utilization};
use eadt_net::fair::{fair_share_into, FairScratch};
use eadt_power::{PowerBreakdown, PowerModel};
use eadt_sim::{Bytes, Rate, SimDuration, SimTime, TimeSeries};
use eadt_telemetry::{
    EnergyLedger, EnergyPhase, Event, GaugeId, HistogramId, MetricsRegistry, Side, Telemetry,
};
use std::collections::VecDeque;

mod checkpoint;

pub use checkpoint::{
    config_fingerprint, ChannelSnapshot, ChunkSnapshot, EngineCheckpoint, FileSnapshot,
    ResourceShare, RunControl, RunOutcome, CHECKPOINT_SCHEMA_VERSION,
};

/// A file being moved: its full size (for restart after a channel
/// failure) and how much is left to push.
#[derive(Debug, Clone)]
struct FileProgress {
    size: Bytes,
    remaining: Bytes,
}

impl FileProgress {
    fn fresh(file: FileSpec) -> Self {
        FileProgress {
            size: file.size,
            remaining: file.size,
        }
    }
}

/// Flat struct-of-arrays channel state: index `i` across every column is
/// one data channel. Channels are grouped chunk-major — all of chunk 0's
/// channels, then chunk 1's, and so on — so a channel's position within
/// its chunk is `i - chunk_start[chunk]`. A channel carries at most one
/// file in flight (`has_file` plus the size/remaining columns) and a
/// control-channel gap.
#[derive(Debug, Default, Clone)]
struct ChannelSoA {
    /// Owning chunk of each channel.
    chunk: Vec<u32>,
    /// Remaining control-channel gap (connection setup, inter-file, or
    /// failure backoff).
    gap: Vec<SimDuration>,
    /// Remaining time until the channel fails (fault injection only).
    ttf: Vec<Option<SimDuration>>,
    /// Consecutive failures without intervening progress (drives backoff).
    consecutive: Vec<u32>,
    /// Whether the current gap is a failure backoff (for time accounting).
    in_backoff: Vec<bool>,
    /// Whether a file is in flight on this channel.
    has_file: Vec<bool>,
    /// Full size of the in-flight file (restart after failure).
    file_size: Vec<Bytes>,
    /// Bytes left to push of the in-flight file.
    file_remaining: Vec<Bytes>,
}

impl ChannelSoA {
    fn len(&self) -> usize {
        self.chunk.len()
    }

    fn clear(&mut self) {
        self.chunk.clear();
        self.gap.clear();
        self.ttf.clear();
        self.consecutive.clear();
        self.in_backoff.clear();
        self.has_file.clear();
        self.file_size.clear();
        self.file_remaining.clear();
    }

    /// Inserts an idle channel (no file, fresh counters) at `pos`.
    /// Structural — only the cold channel-sync path inserts.
    fn insert_fresh(&mut self, pos: usize, chunk: u32, gap: SimDuration, ttf: Option<SimDuration>) {
        self.chunk.insert(pos, chunk);
        self.gap.insert(pos, gap);
        self.ttf.insert(pos, ttf);
        self.consecutive.insert(pos, 0);
        self.in_backoff.insert(pos, false);
        self.has_file.insert(pos, false);
        self.file_size.insert(pos, Bytes::ZERO);
        self.file_remaining.insert(pos, Bytes::ZERO);
    }

    fn remove(&mut self, pos: usize) {
        self.chunk.remove(pos);
        self.gap.remove(pos);
        self.ttf.remove(pos);
        self.consecutive.remove(pos);
        self.in_backoff.remove(pos);
        self.has_file.remove(pos);
        self.file_size.remove(pos);
        self.file_remaining.remove(pos);
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.chunk.swap(a, b);
        self.gap.swap(a, b);
        self.ttf.swap(a, b);
        self.consecutive.swap(a, b);
        self.in_backoff.swap(a, b);
        self.has_file.swap(a, b);
        self.file_size.swap(a, b);
        self.file_remaining.swap(a, b);
    }
}

/// Runtime state of one chunk plan within a stage. Per-channel state
/// lives in the arena's flat [`ChannelSoA`] columns (chunk-major) and the
/// per-chunk hot quantities in the arena's chunk arrays; the chunk itself
/// keeps only its file queue and scalar plan facts.
#[derive(Debug, Clone)]
struct ChunkState {
    label: String,
    pipelining: u32,
    parallelism: u32,
    accepts_reallocation: bool,
    total_bytes: Bytes,
    file_count: usize,
    completed_at: Option<SimTime>,
    /// Mean file size of the chunk — sets the channels' steady-state duty
    /// cycle (share of time spent moving bytes vs. per-file gaps).
    avg_file: Bytes,
    queue: VecDeque<FileProgress>,
    target: u32,
}

/// The running stage's channel columns and the per-chunk quantities
/// that carry from slice to slice: channel state in chunk-major blocks,
/// each block's position, and each chunk's in-flight file count and
/// remaining bytes (maintained incrementally in exact integers).
#[derive(Debug, Default)]
struct StageColumns {
    /// Flat per-channel columns, chunk-major.
    ch: ChannelSoA,
    /// First channel index of each chunk's block.
    chunk_start: Vec<usize>,
    /// Number of channels in each chunk's block.
    chunk_len: Vec<usize>,
    /// Files currently in flight on each chunk's channels.
    chunk_in_flight: Vec<u32>,
    /// Bytes still queued or in flight per chunk.
    chunk_remaining: Vec<Bytes>,
}

impl StageColumns {
    /// Empties the columns for a stage of `n` chunks.
    fn begin_stage(&mut self, n: usize) {
        self.ch.clear();
        reset(&mut self.chunk_start, n, 0);
        reset(&mut self.chunk_len, n, 0);
        reset(&mut self.chunk_in_flight, n, 0);
        reset(&mut self.chunk_remaining, n, Bytes::ZERO);
    }

    /// Sets the columns up for `stage` and returns its chunks as the plan
    /// lays them out: full file queues, no channels yet.
    fn start_stage(&mut self, stage: &StagePlan) -> Vec<ChunkState> {
        self.begin_stage(stage.chunks.len());
        stage
            .chunks
            .iter()
            .enumerate()
            .map(|(ci, cp)| {
                let total = cp.total_bytes();
                self.chunk_remaining[ci] = total;
                ChunkState {
                    label: cp.label.clone(),
                    pipelining: cp.pipelining.max(1),
                    parallelism: cp.parallelism.max(1),
                    accepts_reallocation: cp.accepts_reallocation,
                    total_bytes: total,
                    file_count: cp.files.len(),
                    completed_at: None,
                    avg_file: if cp.files.is_empty() {
                        Bytes::ZERO
                    } else {
                        Bytes(total.as_u64() / cp.files.len() as u64)
                    },
                    queue: cp.files.iter().copied().map(FileProgress::fresh).collect(),
                    target: cp.channels,
                }
            })
            .collect()
    }
}

/// The live state of a run at a slice boundary (DESIGN.md §13): clock,
/// accumulators, per-slice series, energy ledger, fault runtime and the
/// running stage's chunks with their channel columns.
///
/// [`Engine::run_leg`] moves it into the slice loop at entry and hands
/// it back at a halt, so a caller that keeps it between legs — the fleet
/// service between quanta, a checkpoint cadence between persists —
/// continues the run with no serialization at all. It is an
/// [`EngineCheckpoint`] in memory: [`Engine::checkpoint`] converts it
/// when something is persisted, and [`Engine::restore`] is the only way
/// back. The controller and telemetry sinks stay with the caller.
#[derive(Debug)]
pub struct RunState {
    /// Index of the running stage.
    stage: usize,
    /// The running stage's chunks; `None` until its preamble has run.
    chunks: Option<Vec<ChunkState>>,
    cols: StageColumns,
    now: SimTime,
    slices_done: u64,
    estimated_energy: f64,
    retransmitted: Bytes,
    chunk_stats: Vec<crate::report::ChunkStat>,
    /// Energy attribution (DESIGN.md §14): the per-site energy lives in
    /// the ledger's phase buckets; the report totals are derived from
    /// their fixed-order sum at the end of the run.
    ledger: EnergyLedger,
    /// End boundary (in `slices_done`) of the currently open horizon
    /// span. Tracked only on journaled runs; `None` otherwise.
    horizon_end: Option<u64>,
    moved_total: Bytes,
    wire_bytes_f: f64,
    throughput_series: TimeSeries,
    power_series: TimeSeries,
    concurrency_series: TimeSeries,
    /// Invariant-auditor state (DESIGN.md §10), updated only with the
    /// `debug-invariants` feature.
    audit_gross: Bytes,
    audit_stage_requested: Bytes,
    /// Last journaled power state per server (edge memory).
    prev_src_active: Vec<bool>,
    prev_dst_active: Vec<bool>,
    runtime: Option<FaultRuntime>,
}

impl RunState {
    /// Slices executed since the run began (replayed macro-step slices
    /// count individually) — the base of the next leg's halt boundary.
    pub fn slices_done(&self) -> u64 {
        self.slices_done
    }
}

/// What one [`Engine::run_leg`] produced.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum LegOutcome {
    /// The run finished (or hit the time guard): the full report.
    Done(TransferReport),
    /// The run halted at the requested boundary: its live state.
    Halted(RunState),
}

/// Executes [`TransferPlan`]s in a [`TransferEnv`].
#[derive(Debug, Clone)]
pub struct Engine<'a> {
    env: &'a TransferEnv,
}

impl<'a> Engine<'a> {
    /// Creates an engine for the environment.
    pub fn new(env: &'a TransferEnv) -> Self {
        Engine { env }
    }

    /// Runs the plan to completion (or the time guard) with a controller.
    pub fn run(&self, plan: &TransferPlan, controller: &mut dyn Controller) -> TransferReport {
        self.run_instrumented(plan, controller, &mut Telemetry::disabled())
    }

    /// Runs the plan with telemetry: every channel open/close/fail/retry,
    /// chunk start/drain, controller decision, breaker transition,
    /// fault-episode edge and power-state change is journaled, and the
    /// metrics registry (when attached) samples throughput/power/
    /// concurrency/backoff/queue gauges on its cadence.
    ///
    /// With [`Telemetry::disabled`] every hook is one branch and the
    /// behaviour is bit-identical to [`Engine::run`] — the simulation
    /// itself never reads telemetry state.
    pub fn run_instrumented(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
    ) -> TransferReport {
        match self.run_controlled(plan, controller, tel, RunControl::default()) {
            RunOutcome::Done(report) => report,
            RunOutcome::Halted(_) => unreachable!("no halt boundary was configured"),
        }
    }

    /// Runs the plan with checkpoint control: optionally resuming from an
    /// [`EngineCheckpoint`] and/or halting at a slice boundary to produce
    /// one (see [`RunControl`]).
    ///
    /// On resume, the plan, environment, telemetry configuration and
    /// controller *type* must be the ones the checkpoint was taken under:
    /// the config fingerprint and the controller snapshot kind are
    /// checked and a mismatch panics (callers that need a typed error —
    /// `eadt-ckpt` — validate first). A resumed run continues bit-exactly:
    /// the completed report, the journal suffix (sequence numbers
    /// continuing at [`EngineCheckpoint::journal_seq`]) and all metrics
    /// are identical to an uninterrupted run.
    ///
    /// # Panics
    /// Panics when resuming against a different configuration (schema
    /// version, fingerprint, stage index, fault-plan presence, controller
    /// kind, or telemetry sinks not matching the checkpoint).
    pub fn run_controlled(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
        ctl: RunControl,
    ) -> RunOutcome {
        self.run_controlled_in(plan, controller, tel, ctl, &mut SliceArena::default())
    }

    /// [`Engine::run_controlled`] with a caller-owned [`SliceArena`]:
    /// all per-slice scratch state lives in `arena` and its buffer
    /// capacity survives across calls, so repeated runs — benchmark
    /// loops, one job's legs — allocate nothing once the arena is warm.
    /// The arena carries no state between runs; reusing one arena
    /// across different plans, environments or resumed checkpoints is
    /// always sound and byte-identical to a fresh arena.
    ///
    /// This is one [`Engine::run_leg`] bracketed by the checkpoint
    /// conversions: [`Engine::restore`] when `ctl` resumes, and
    /// [`Engine::checkpoint`] when the leg halts.
    ///
    /// # Panics
    /// As [`Engine::run_controlled`].
    pub fn run_controlled_in(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
        ctl: RunControl,
        arena: &mut SliceArena,
    ) -> RunOutcome {
        let state = ctl
            .resume
            .map(|ck| self.restore(plan, controller, tel, *ck));
        match self.run_leg(
            plan,
            controller,
            tel,
            state,
            ctl.halt_after,
            ctl.share,
            arena,
        ) {
            LegOutcome::Done(report) => RunOutcome::Done(report),
            LegOutcome::Halted(mut state) => {
                RunOutcome::Halted(Box::new(self.checkpoint(plan, &mut state, controller, tel)))
            }
        }
    }

    /// The state of a run that has not started: time zero, nothing
    /// moved, and a fresh fault runtime when the environment's fault plan
    /// is active.
    fn start(&self) -> RunState {
        let env = self.env;
        RunState {
            stage: 0,
            chunks: None,
            cols: StageColumns::default(),
            now: SimTime::ZERO,
            slices_done: 0,
            estimated_energy: 0.0,
            retransmitted: Bytes::ZERO,
            chunk_stats: Vec::new(),
            ledger: EnergyLedger::default(),
            horizon_end: None,
            moved_total: Bytes::ZERO,
            wire_bytes_f: 0.0,
            throughput_series: TimeSeries::new(),
            power_series: TimeSeries::new(),
            concurrency_series: TimeSeries::new(),
            audit_gross: Bytes::ZERO,
            audit_stage_requested: Bytes::ZERO,
            prev_src_active: vec![false; env.src.servers.len()],
            prev_dst_active: vec![false; env.dst.servers.len()],
            runtime: env
                .faults
                .as_ref()
                .filter(|p| p.is_active())
                .map(|p| FaultRuntime::new(p, env.src.servers.len(), env.dst.servers.len())),
        }
    }

    /// Runs one leg of the plan — from the start when `state` is `None`,
    /// otherwise continuing it — to completion, or until the
    /// executed-slice count reaches `halt_after` (an absolute count, see
    /// [`RunControl::halt_after`]), under the resource `share`.
    ///
    /// A halted leg hands its state back live: passing it to the next
    /// `run_leg` with the same plan, environment, controller and
    /// telemetry sinks continues the run exactly as if it had never
    /// stopped, and exactly as a resume from its [`Engine::checkpoint`]
    /// would. The state moves in and out; nothing is serialized.
    #[allow(clippy::too_many_arguments)]
    pub fn run_leg(
        &self,
        plan: &TransferPlan,
        controller: &mut dyn Controller,
        tel: &mut Telemetry,
        state: Option<RunState>,
        halt_after: Option<u64>,
        share: ResourceShare,
        arena: &mut SliceArena,
    ) -> LegOutcome {
        let env = self.env;
        let slice = env.tuning.slice;
        let slice_secs = slice.as_secs_f64();
        let rtt = env.link.rtt;
        let requested = plan.total_bytes();
        let mut completed = true;

        // The slice loop works on locals: the state moves in here and
        // back out at a halt.
        let RunState {
            stage: start_stage,
            chunks: mut running,
            mut cols,
            mut now,
            mut slices_done,
            mut estimated_energy,
            mut retransmitted,
            mut chunk_stats,
            mut ledger,
            mut horizon_end,
            mut moved_total,
            mut wire_bytes_f,
            mut throughput_series,
            mut power_series,
            mut concurrency_series,
            mut audit_gross,
            mut audit_stage_requested,
            mut prev_src_active,
            mut prev_dst_active,
            mut runtime,
        } = state.unwrap_or_else(|| self.start());

        // Telemetry wiring. `journaling` is the single branch every event
        // hook reduces to when telemetry is off. Capture flags are not
        // part of the state; they are re-derived at every leg.
        let journaling = tel.journaling();
        let gauges = tel.metrics().map(EngineGauges::register);
        if journaling {
            controller.enable_event_capture();
            if let Some(rt) = &mut runtime {
                rt.capture_events(true);
            }
        }

        for (stage_idx, stage) in plan.stages.iter().enumerate() {
            if stage_idx < start_stage {
                continue;
            }
            // A leg that continues a stage picks up its chunks as they
            // are (and skips the stage preamble — its events and audit
            // booking happened in an earlier leg).
            let continued = running.take();
            let resumed_mid_stage = continued.is_some();

            // Reset the arena's per-chunk scratch and split it into
            // per-field borrows the whole stage holds at once. Buffer
            // capacity persists across stages and legs.
            arena.begin_stage(stage.chunks.len());
            let SliceArena {
                chunk_cap,
                chunk_gap,
                chunk_duty,
                chunk_demand,
                chunk_moved,
                src_assign,
                dst_assign,
                src_chan,
                src_streams,
                dst_chan,
                dst_streams,
                working,
                demands,
                grants,
                src_moved,
                dst_moved,
                ch_moved,
                place,
                src_avail,
                dst_avail,
                ctx_channels,
                ctx_remaining,
                ctx_q_src,
                ctx_q_dst,
                fair,
                disk,
            } = &mut *arena;

            let mut chunks = match continued {
                Some(chunks) => chunks,
                None => cols.start_stage(stage),
            };
            let StageColumns {
                ch,
                chunk_start,
                chunk_len,
                chunk_in_flight,
                chunk_remaining,
            } = &mut cols;
            // The channel rate ceiling depends only on the chunk's (fixed)
            // parallelism: computed once per stage and leg, read every
            // slice.
            for (ci, c) in chunks.iter().enumerate() {
                chunk_cap[ci] = env.channel_cap(c.parallelism);
            }

            if cfg!(feature = "debug-invariants") && !resumed_mid_stage {
                audit_stage_requested += chunks.iter().map(|c| c.total_bytes).sum();
            }

            if journaling && !resumed_mid_stage {
                tel.record(
                    now,
                    Event::StageStart {
                        stage: stage_idx as u32,
                    },
                );
                for (ci, c) in chunks.iter().enumerate() {
                    tel.record_with(now, || Event::ChunkStart {
                        chunk: ci as u32,
                        label: c.label.clone(),
                        bytes: c.total_bytes.as_u64(),
                        files: c.file_count as u64,
                    });
                }
            }

            while chunks
                .iter()
                .enumerate()
                .any(|(ci, c)| !c.queue.is_empty() || chunk_in_flight[ci] > 0)
            {
                // Halt boundary: between slices, before the next slice's
                // fault window opens, with every controller/runtime event
                // buffer drained. The state moves back out as it is.
                if halt_after.is_some_and(|h| slices_done >= h) {
                    return LegOutcome::Halted(RunState {
                        stage: stage_idx,
                        chunks: Some(chunks),
                        cols,
                        now,
                        slices_done,
                        estimated_energy,
                        retransmitted,
                        chunk_stats,
                        ledger,
                        horizon_end,
                        moved_total,
                        wire_bytes_f,
                        throughput_series,
                        power_series,
                        concurrency_series,
                        audit_gross,
                        audit_stage_requested,
                        prev_src_active,
                        prev_dst_active,
                        runtime,
                    });
                }
                // A horizon span closes at the first boundary at/after its
                // promised end. This sits after the halt check — a halted
                // run leaves the span open in the checkpoint and the
                // resumed run emits the `span_end` at the same sequence
                // number an uninterrupted run would.
                if horizon_end.is_some_and(|h| slices_done >= h) {
                    horizon_end = None;
                    tel.record_with(now, || Event::SpanEnd {
                        id: 0,
                        kind: "horizon".to_string(),
                        detail: String::new(),
                    });
                }
                if now.since(SimTime::ZERO) >= env.tuning.max_duration {
                    completed = false;
                    break; // stats for this stage are still collected below
                }

                rebalance_targets(
                    &mut chunks,
                    chunk_in_flight,
                    chunk_remaining,
                    plan.reallocate_on_completion,
                );
                if let Some(rt) = &mut runtime {
                    rt.begin_slice(now);
                }
                // Sync each chunk's channel block with its target. Blocks
                // stay contiguous and chunk-major: `start` accumulates the
                // post-sync lengths of the chunks already processed, so
                // inserts/removals in earlier chunks shift later blocks
                // without breaking the invariant.
                let mut start = 0usize;
                for (ci, c) in chunks.iter_mut().enumerate() {
                    chunk_start[ci] = start;
                    let before = chunk_len[ci] as u32;
                    sync_chunk_channels(
                        ch,
                        start,
                        &mut chunk_len[ci],
                        &mut chunk_in_flight[ci],
                        &mut c.queue,
                        ci as u32,
                        c.target,
                        rtt,
                        || runtime.as_mut().and_then(FaultRuntime::sample_ttf),
                    );
                    if journaling {
                        let after = chunk_len[ci] as u32;
                        if after > before {
                            tel.record(
                                now,
                                Event::ChannelOpen {
                                    chunk: ci as u32,
                                    opened: after - before,
                                    count: after,
                                },
                            );
                        } else if before > after {
                            tel.record(
                                now,
                                Event::ChannelClose {
                                    chunk: ci as u32,
                                    closed: before - after,
                                    count: after,
                                },
                            );
                        }
                    }
                    start += chunk_len[ci];
                }

                let total_channels = ch.len() as u32;
                concurrency_series.push(now, f64::from(total_channels));
                if total_channels == 0 {
                    // No channels but work remains (controller zeroed
                    // everything): force one channel on the fattest chunk.
                    if let Some(idx) =
                        busiest_chunk(&chunks, chunk_in_flight, chunk_remaining, false)
                    {
                        chunks[idx].target = 1;
                        continue;
                    }
                    break;
                }

                // Placement on both sites, routed around servers whose
                // circuit breaker is open. Only *learned* state masks —
                // an outage the client has not collided with yet does
                // not; it is discovered by failing against it below.
                match &runtime {
                    Some(rt) => {
                        rt.avail_masks_into(src_avail, dst_avail);
                        env.src.place_channels_masked_into(
                            total_channels,
                            plan.placement,
                            src_avail,
                            place,
                        );
                        assign_servers_into(place, src_assign);
                        env.dst.place_channels_masked_into(
                            total_channels,
                            plan.placement,
                            dst_avail,
                            place,
                        );
                        assign_servers_into(place, dst_assign);
                    }
                    None => {
                        env.src
                            .place_channels_into(total_channels, plan.placement, place);
                        assign_servers_into(place, src_assign);
                        env.dst
                            .place_channels_into(total_channels, plan.placement, place);
                        assign_servers_into(place, dst_assign);
                    }
                }

                // Fault injection, now that channels have servers: a
                // channel dies when its TTF runs out or when it would
                // connect to a server inside an outage window. The kill
                // returns the in-flight file (restarting it without
                // markers — the lost progress leaves `moved_total` and is
                // booked as retransmission) and schedules the reconnect
                // through the retry policy.
                let mut slice_kills = false;
                if let Some(rt) = &mut runtime {
                    for i in 0..ch.len() {
                        let ci = ch.chunk[i] as usize;
                        let connects = ch.gap[i] < slice;
                        let busy = ch.has_file[i] || !chunks[ci].queue.is_empty();
                        let mut cause = None;
                        if let Some(ttf) = ch.ttf[i] {
                            if ttf <= slice {
                                cause = Some(FaultCause::Channel);
                            } else {
                                ch.ttf[i] = Some(ttf - slice);
                            }
                        }
                        if cause.is_none()
                            && connects
                            && busy
                            && (rt.outage_active(SiteSide::Src, src_assign[i])
                                || rt.outage_active(SiteSide::Dst, dst_assign[i]))
                        {
                            cause = Some(FaultCause::Outage);
                        }
                        let Some(cause) = cause else { continue };
                        slice_kills = true;
                        if ch.has_file[i] {
                            let size = ch.file_size[i];
                            let mut rem = ch.file_remaining[i];
                            if !rt.restart_markers() {
                                let lost = size.saturating_sub(rem);
                                moved_total = moved_total.saturating_sub(lost);
                                retransmitted += lost;
                                rt.book_retransmit(lost);
                                // The file restarts from zero; its lost
                                // progress re-enters the chunk's remaining.
                                rem = size;
                                chunk_remaining[ci] += lost;
                            }
                            chunks[ci].queue.push_front(FileProgress {
                                size,
                                remaining: rem,
                            });
                            ch.has_file[i] = false;
                            chunk_in_flight[ci] -= 1;
                        }
                        let attempt = ch.consecutive[i];
                        let (delay, exhausted) = rt.next_delay(attempt);
                        ch.gap[i] = delay;
                        ch.in_backoff[i] = true;
                        ch.consecutive[i] = if exhausted { 0 } else { ch.consecutive[i] + 1 };
                        rt.record_failure(cause, src_assign[i], dst_assign[i], now);
                        if cause == FaultCause::Channel {
                            ch.ttf[i] = rt.sample_ttf();
                        }
                        if journaling {
                            let chi = (i - chunk_start[ci]) as u32;
                            tel.record_with(now, || Event::ChannelFail {
                                chunk: ci as u32,
                                channel: chi,
                                cause: match cause {
                                    FaultCause::Channel => "channel".to_string(),
                                    FaultCause::Outage => "outage".to_string(),
                                },
                                src_server: src_assign[i] as u32,
                                dst_server: dst_assign[i] as u32,
                            });
                            tel.record(
                                now,
                                Event::ChannelRetry {
                                    chunk: ci as u32,
                                    channel: chi,
                                    attempt,
                                    delay_us: delay.as_micros(),
                                    exhausted,
                                },
                            );
                        }
                    }
                }

                // Per-server working-channel and stream counts. A channel
                // whose gap outlasts the slice is *blocked* — it moves
                // nothing, holds no demand, and its server neither counts
                // it for disk contention nor burns power on it.
                reset(src_chan, env.src.servers.len(), 0);
                reset(src_streams, env.src.servers.len(), 0);
                reset(dst_chan, env.dst.servers.len(), 0);
                reset(dst_streams, env.dst.servers.len(), 0);
                reset(working, ch.len(), false);
                let mut total_streams = 0u32;
                let mut in_backoff = 0u32;
                for i in 0..ch.len() {
                    let ci = ch.chunk[i] as usize;
                    let busy = ch.has_file[i] || !chunks[ci].queue.is_empty();
                    if ch.in_backoff[i] {
                        if let Some(rt) = &mut runtime {
                            rt.book_backoff(ch.gap[i].min(slice));
                        }
                        if ch.gap[i] <= slice {
                            ch.in_backoff[i] = false;
                        }
                        in_backoff += 1;
                    }
                    working[i] = busy && ch.gap[i] < slice;
                    if working[i] {
                        let p = chunks[ci].parallelism;
                        src_chan[src_assign[i]] += 1;
                        src_streams[src_assign[i]] += p;
                        dst_chan[dst_assign[i]] += 1;
                        dst_streams[dst_assign[i]] += p;
                        total_streams += p;
                    }
                }

                // Power-state edges: a server transitions between idle
                // and active when it gains/loses its first working
                // channel (its power draw follows).
                if journaling {
                    for (srv, (&cnt, prev)) in
                        src_chan.iter().zip(prev_src_active.iter_mut()).enumerate()
                    {
                        let active = cnt > 0;
                        if active != *prev {
                            *prev = active;
                            tel.record(
                                now,
                                Event::PowerState {
                                    side: Side::Src,
                                    server: srv as u32,
                                    active,
                                },
                            );
                        }
                    }
                    for (srv, (&cnt, prev)) in
                        dst_chan.iter().zip(prev_dst_active.iter_mut()).enumerate()
                    {
                        let active = cnt > 0;
                        if active != *prev {
                            *prev = active;
                            tel.record(
                                now,
                                Event::PowerState {
                                    side: Side::Dst,
                                    server: srv as u32,
                                    active,
                                },
                            );
                        }
                    }
                }

                let eff = env.congestion.efficiency(total_streams);
                let bg = env.background.map_or(1.0, |b| b.capacity_factor(now));
                // Pool arbitration (multi-tenant sites) scales the shared
                // link capacity; the default 1.0 grant is an exact FP
                // identity, so solo runs are byte-for-byte unchanged.
                let capacity = env.link.bandwidth * (eff * bg * share.bandwidth);

                // Demands: per-channel ceiling from the window/process
                // model scaled by the channel's control-plane duty cycle
                // (a small-file channel spends most of its time in
                // per-file gaps and must not reserve bandwidth it cannot
                // use), then shaped max-min fairly through each server's
                // disk subsystem on both ends, then through the path.
                //
                // Every input is per-chunk constant, so the gap, duty and
                // demand are hoisted to one computation per chunk — the
                // same operations on the same values the per-channel loop
                // used to run, hence FP-identical.
                let stall_mult = runtime.as_ref().map_or(1.0, FaultRuntime::gap_multiplier);
                for (ci, c) in chunks.iter().enumerate() {
                    chunk_gap[ci] = (rtt / u64::from(c.pipelining)).mul_f64(stall_mult)
                        + env.tuning.per_file_overhead;
                    let gap = chunk_gap[ci].as_secs_f64();
                    // Steady-state duty cycle from the chunk's mean file
                    // size (NOT the in-flight remainder: that would decay
                    // the demand to zero as a file nears completion).
                    let t_x = c.avg_file.as_f64() * 8.0 / chunk_cap[ci].as_bps().max(1.0);
                    chunk_duty[ci] = if t_x + gap <= 0.0 {
                        1.0
                    } else {
                        (t_x / (t_x + gap)).max(0.05)
                    };
                    chunk_demand[ci] = chunk_cap[ci] * chunk_duty[ci];
                }
                reset(demands, ch.len(), Rate::ZERO);
                for i in 0..ch.len() {
                    if working[i] {
                        demands[i] = chunk_demand[ch.chunk[i] as usize];
                    }
                }
                apply_disk_fairness(demands, src_assign, src_chan, disk, |srv| {
                    let factor = runtime
                        .as_ref()
                        .map_or(1.0, |rt| rt.disk_factor(SiteSide::Src, srv));
                    env.src.servers[srv].disk.aggregate_rate(src_chan[srv])
                        * (factor * share.src_disk)
                });
                apply_disk_fairness(demands, dst_assign, dst_chan, disk, |srv| {
                    let factor = runtime
                        .as_ref()
                        .map_or(1.0, |rt| rt.disk_factor(SiteSide::Dst, srv));
                    env.dst.servers[srv].disk.aggregate_rate(dst_chan[srv])
                        * (factor * share.dst_disk)
                });

                // Grants are time-averaged rates; while a channel is
                // actively moving a file it bursts at grant/duty (its gaps
                // bring the average back down to the grant). Non-working
                // channels hold an exact-zero grant, which any duty maps
                // back to exact zero.
                fair_share_into(capacity, demands, grants, fair);
                for (i, g) in grants.iter_mut().enumerate() {
                    let ci = ch.chunk[i] as usize;
                    *g = (*g / chunk_duty[ci]).min(chunk_cap[ci]);
                }

                // Advance channels through their queues. Chunk remaining
                // bytes are maintained incrementally: `moved` leaves the
                // queue/in-flight total exactly, in integer arithmetic.
                let mut slice_bytes = Bytes::ZERO;
                reset(src_moved, env.src.servers.len(), Bytes::ZERO);
                reset(dst_moved, env.dst.servers.len(), Bytes::ZERO);
                reset(ch_moved, ch.len(), Bytes::ZERO);
                reset(chunk_moved, chunks.len(), Bytes::ZERO);
                for i in 0..ch.len() {
                    let ci = ch.chunk[i] as usize;
                    let c = &mut chunks[ci];
                    let moved = advance_channel(
                        ch,
                        i,
                        &mut c.queue,
                        &mut chunk_in_flight[ci],
                        grants[i],
                        slice,
                        chunk_gap[ci],
                    );
                    if !moved.is_zero() {
                        ch.consecutive[i] = 0;
                    }
                    slice_bytes += moved;
                    src_moved[src_assign[i]] += moved;
                    dst_moved[dst_assign[i]] += moved;
                    ch_moved[i] = moved;
                    chunk_moved[ci] += moved;
                    chunk_remaining[ci] = chunk_remaining[ci].saturating_sub(moved);
                    if let Some(g) = &gauges {
                        if working[i] {
                            if let Some(m) = tel.metrics() {
                                m.observe(g.channel_mbps, moved.as_f64() * 8.0 / slice_secs / 1e6);
                            }
                        }
                    }
                }
                if let Some(rt) = &mut runtime {
                    // Bytes through a server close its half-open breaker
                    // and clear its failure run.
                    for (srv, moved) in src_moved.iter().enumerate() {
                        if !moved.is_zero() {
                            rt.record_success(SiteSide::Src, srv);
                        }
                    }
                    for (srv, moved) in dst_moved.iter().enumerate() {
                        if !moved.is_zero() {
                            rt.record_success(SiteSide::Dst, srv);
                        }
                    }
                    if journaling {
                        for ev in rt.take_events() {
                            tel.record(now, ev);
                        }
                    }
                }
                moved_total += slice_bytes;
                if cfg!(feature = "debug-invariants") {
                    audit_gross += slice_bytes;
                }
                wire_bytes_f += slice_bytes.as_f64() / eff.max(1e-6);
                for (ci, c) in chunks.iter_mut().enumerate() {
                    if c.completed_at.is_none() && c.queue.is_empty() && chunk_in_flight[ci] == 0 {
                        c.completed_at = Some(now + slice);
                    }
                }

                // Utilization → power → energy, per site.
                let (src_power, src_est, src_parts) =
                    site_power(env, src_chan, src_streams, src_moved, slice_secs, eff, true);
                let (dst_power, dst_est, dst_parts) = site_power(
                    env,
                    dst_chan,
                    dst_streams,
                    dst_moved,
                    slice_secs,
                    eff,
                    false,
                );
                // Attribute the slice's joules to exactly one phase per
                // site (DESIGN.md §14), by priority. Every classification
                // input is constant across a macro-stepped window (kills
                // cannot happen inside one; the probe flag, outage state,
                // backoff occupancy and first-byte state are all pinned by
                // the window bounds), so the frozen replay below books the
                // same buckets addend-for-addend.
                let phase = if slice_kills {
                    EnergyPhase::Retransmit
                } else if controller.probing() {
                    EnergyPhase::Probe
                } else if runtime.as_ref().is_some_and(FaultRuntime::any_outage) {
                    EnergyPhase::OutageIdle
                } else if in_backoff > 0 {
                    EnergyPhase::BackoffIdle
                } else if moved_total.is_zero() {
                    EnergyPhase::Startup
                } else {
                    EnergyPhase::Steady
                };
                *ledger.src.phase_mut(phase) += src_power * slice_secs;
                *ledger.dst.phase_mut(phase) += dst_power * slice_secs;
                ledger.src.add_components(
                    src_parts.cpu_w * slice_secs,
                    src_parts.nic_w * slice_secs,
                    src_parts.disk_w * slice_secs,
                    src_parts.other_w * slice_secs,
                );
                ledger.dst.add_components(
                    dst_parts.cpu_w * slice_secs,
                    dst_parts.nic_w * slice_secs,
                    dst_parts.disk_w * slice_secs,
                    dst_parts.other_w * slice_secs,
                );
                estimated_energy += (src_est + dst_est) * slice_secs;
                power_series.push(now, src_power + dst_power);
                throughput_series.push(now, slice_bytes.as_f64() * 8.0 / slice_secs / 1e6);

                // Metrics: refresh gauges, observe slice-level histograms,
                // and let the sampler decide whether this slice lands on
                // the cadence grid (which also journals a `sample` event).
                if let (Some(g), Some(m)) = (&gauges, tel.metrics()) {
                    let power = src_power + dst_power;
                    let thr_mbps = slice_bytes.as_f64() * 8.0 / slice_secs / 1e6;
                    let queue_depth: u64 = chunks.iter().map(|c| c.queue.len() as u64).sum();
                    m.set(g.throughput, thr_mbps);
                    m.set(g.power, power);
                    m.set(g.concurrency, f64::from(total_channels));
                    m.set(g.in_backoff, f64::from(in_backoff));
                    m.set(g.queue_depth, queue_depth as f64);
                    m.observe(g.watts, power);
                    m.observe(g.backoff_occ, f64::from(in_backoff));
                    m.observe(g.queue_hist, queue_depth as f64);
                    let due = m.tick(now);
                    if due && journaling {
                        tel.record(
                            now,
                            Event::Sample {
                                throughput_mbps: thr_mbps,
                                power_w: power,
                                concurrency: total_channels,
                                in_backoff,
                                queue_depth,
                            },
                        );
                    }
                }

                // Chunks that moved their last byte this slice drained at
                // the slice boundary.
                if journaling {
                    for (ci, c) in chunks.iter().enumerate() {
                        if c.completed_at == Some(now + slice) {
                            tel.record_with(now + slice, || Event::ChunkDrain {
                                chunk: ci as u32,
                                label: c.label.clone(),
                            });
                        }
                    }
                }

                let slice_start = now;
                now += slice;
                slices_done += 1;

                // Controller. Remaining bytes are read off the incremental
                // per-chunk column (exact integers, no queue walk).
                let remaining: Bytes = chunk_remaining.iter().copied().sum();

                // Conservation and monotonicity audits, per slice:
                // bytes that entered the stage equal goodput plus what is
                // still queued/in flight (channel kills restore every
                // lost byte to one side of the ledger); gross bytes moved
                // equal goodput plus booked retransmissions; power — and
                // with it accumulated energy — stays finite and
                // non-negative, so energy is monotone in sim-time. The
                // incremental per-chunk remaining column is cross-checked
                // against a full recount of the queues and channel columns.
                if cfg!(feature = "debug-invariants") {
                    assert!(
                        src_power >= 0.0
                            && dst_power >= 0.0
                            && src_power.is_finite()
                            && dst_power.is_finite(),
                        "invariant: site power finite and non-negative, got src={src_power} dst={dst_power}"
                    );
                    let (src_e, dst_e) = (ledger.src.total_j(), ledger.dst.total_j());
                    assert!(
                        src_e >= 0.0 && dst_e >= 0.0 && (src_e + dst_e).is_finite(),
                        "invariant: accumulated energy finite and non-negative, got src={src_e} dst={dst_e}"
                    );
                    assert_eq!(
                        audit_stage_requested,
                        moved_total + remaining,
                        "invariant: bytes entered != bytes moved + bytes remaining at t={now:?}"
                    );
                    assert_eq!(
                        audit_gross,
                        moved_total + retransmitted,
                        "invariant: gross bytes != goodput + retransmitted at t={now:?}"
                    );
                    for (ci, c) in chunks.iter().enumerate() {
                        let queued: Bytes = c.queue.iter().map(|f| f.remaining).sum();
                        let s = chunk_start[ci];
                        let in_flight: Bytes = (s..s + chunk_len[ci])
                            .filter(|&i| ch.has_file[i])
                            .map(|i| ch.file_remaining[i])
                            .sum();
                        assert_eq!(
                            chunk_remaining[ci],
                            queued + in_flight,
                            "invariant: incremental chunk remaining diverged from channel state at t={now:?}"
                        );
                    }
                }

                // The controller's view borrows the arena's lending
                // buffers (reclaimed after the decision below), so a
                // steady slice builds the ctx without allocating.
                let fault = match &runtime {
                    Some(rt) => {
                        let mut q_src = std::mem::take(ctx_q_src);
                        let mut q_dst = std::mem::take(ctx_q_dst);
                        rt.quarantined_into(SiteSide::Src, &mut q_src);
                        rt.quarantined_into(SiteSide::Dst, &mut q_dst);
                        FaultView {
                            capacity_fraction: rt.capacity_fraction(),
                            quarantined_src: q_src,
                            quarantined_dst: q_dst,
                            failures: rt.stats.total_failures(),
                            in_backoff,
                        }
                    }
                    None => FaultView::default(),
                };
                let mut targets = std::mem::take(ctx_channels);
                targets.clear();
                targets.extend(chunks.iter().map(|c| c.target));
                let mut per_chunk = std::mem::take(ctx_remaining);
                per_chunk.clear();
                per_chunk.extend_from_slice(chunk_remaining);
                let ctx = SliceCtx {
                    now,
                    stage: stage_idx,
                    slice_bytes,
                    slice_energy_j: (src_power + dst_power) * slice_secs,
                    total_bytes: moved_total,
                    remaining_bytes: remaining,
                    channels: targets,
                    remaining_per_chunk: per_chunk,
                    fault,
                };
                let action = controller.on_slice(&ctx);
                if journaling {
                    for ev in controller.drain_events() {
                        tel.record(now, ev);
                    }
                }
                match action {
                    ControlAction::Reallocate(new_targets) => {
                        assert_eq!(
                            new_targets.len(),
                            chunks.len(),
                            "reallocation must cover every chunk of the stage"
                        );
                        if journaling {
                            tel.record_with(now, || Event::Reallocate {
                                targets: new_targets.clone(),
                            });
                        }
                        for (ci, (c, &t)) in chunks.iter_mut().zip(&new_targets).enumerate() {
                            let live = !c.queue.is_empty() || chunk_in_flight[ci] > 0;
                            c.target = if live { t } else { 0 };
                        }
                    }
                    ControlAction::Continue
                        if (env.tuning.macro_step || journaling) && horizon_end.is_none() =>
                    {
                        // Event-horizon macro-stepping (DESIGN.md §12):
                        // count how many upcoming slices are provably in
                        // steady state and replay them arithmetically.
                        // Every bound is conservative — when in doubt the
                        // horizon is 0 and the engine falls back to the
                        // plain slice loop above.
                        //
                        // Journaled runs run the same computation even with
                        // macro-stepping off: the window then only drives
                        // the horizon span (the slices execute normally),
                        // so macro and non-macro journals stay
                        // byte-identical. While a span is open (that mode,
                        // or a resumed mid-window run) nothing is
                        // recomputed until it closes at its boundary.
                        let mut k = controller.next_decision_in(&ctx, slice);

                        // A state boundary at time `b` caps the window:
                        // every skipped slice must start strictly before it.
                        let bound_at = move |b: SimTime| -> u64 {
                            if b <= now {
                                0
                            } else {
                                b.since(now).slices_before(slice).saturating_add(1)
                            }
                        };
                        // Which bound won names the horizon span's source;
                        // ties keep the earlier (checked-first) source.
                        let mut k_src = "controller";
                        let b = bound_at(SimTime::ZERO + env.tuning.max_duration);
                        if b < k {
                            k = b;
                            k_src = "max_duration";
                        }
                        if let Some(m) = tel.metrics_ref() {
                            let b = bound_at(m.next_tick());
                            if b < k {
                                k = b;
                                k_src = "metrics";
                            }
                        }
                        if let Some(bg) = env.background {
                            let b = bound_at(bg.next_change(slice_start));
                            if b < k {
                                k = b;
                                k_src = "background";
                            }
                        }
                        if let Some(rt) = &runtime {
                            let b = bound_at(rt.next_change(slice_start));
                            if b < k {
                                k = b;
                                k_src = "faults";
                            }
                        }

                        let k_before_channels = k;
                        if k > 0 {
                            for i in 0..ch.len() {
                                let ci = ch.chunk[i] as usize;
                                if let Some(ttf) = ch.ttf[i] {
                                    k = k.min(ttf.slices_before(slice));
                                }
                                let busy = ch.has_file[i] || !chunks[ci].queue.is_empty();
                                let next_working = busy && ch.gap[i] < slice;
                                if next_working
                                    && runtime.as_ref().is_some_and(|rt| {
                                        rt.outage_active(SiteSide::Src, src_assign[i])
                                            || rt.outage_active(SiteSide::Dst, dst_assign[i])
                                    })
                                {
                                    // The next slice's kill check fires for
                                    // busy connecting channels inside an
                                    // active outage window — a channel can
                                    // reach that state mid-slice (e.g. it
                                    // inherited a killed channel's file
                                    // after its own kill check passed), so
                                    // post-slice state must be re-checked.
                                    k = 0;
                                } else if next_working != working[i] {
                                    // The channel would enter or leave the
                                    // working set next slice.
                                    k = 0;
                                } else if working[i] {
                                    // Steady mover: mid-file, no pending
                                    // gap, and the executed slice moved
                                    // exactly the per-slice quantum.
                                    let quantum = grants[i].bytes_in(slice);
                                    if ch.has_file[i]
                                        && ch.gap[i].is_zero()
                                        && ch_moved[i] == quantum
                                    {
                                        k = k.min(steady_move_bound(
                                            ch.file_remaining[i],
                                            quantum,
                                            grants[i],
                                            slice,
                                        ));
                                    } else {
                                        k = 0;
                                    }
                                } else if busy || ch.in_backoff[i] {
                                    // Blocked channel: its gap must outlast
                                    // every skipped slice (an idle channel's
                                    // draining gap is inert and replayed).
                                    k = k.min(ch.gap[i].slices_within(slice));
                                }
                                if k == 0 {
                                    break;
                                }
                            }
                        }
                        if k < k_before_channels {
                            k_src = "channel";
                        }

                        if k > 0 && journaling {
                            let detail = format!("{k_src} k={k}");
                            tel.record_with(now, || Event::SpanBegin {
                                id: 0,
                                parent: 0,
                                kind: "horizon".to_string(),
                                detail,
                            });
                            horizon_end = Some(slices_done + k);
                        }

                        if k > 0 && env.tuning.macro_step {
                            // Replay `k` slices. Every accumulator receives
                            // exactly the addends — same values, same order —
                            // that `k` executed slices would have produced,
                            // so reports and journals stay bit-identical.
                            let wire_add = slice_bytes.as_f64() / eff.max(1e-6);
                            let src_add = src_power * slice_secs;
                            let dst_add = dst_power * slice_secs;
                            let est_add = (src_est + dst_est) * slice_secs;
                            // Frozen phase classification for the window:
                            // kills cannot happen inside one, and every
                            // other input is pinned by the bounds above, so
                            // one classification serves all `k` slices. The
                            // backoff occupancy is re-read from the current
                            // flags (not the executed slice's count): a
                            // channel that left backoff during the decision
                            // slice was counted there but is a plain mover
                            // inside the window.
                            let next_backoff = ch.in_backoff.iter().any(|&b| b);
                            let span_phase = if controller.probing() {
                                EnergyPhase::Probe
                            } else if runtime.as_ref().is_some_and(FaultRuntime::any_outage) {
                                EnergyPhase::OutageIdle
                            } else if next_backoff {
                                EnergyPhase::BackoffIdle
                            } else if moved_total.is_zero() {
                                EnergyPhase::Startup
                            } else {
                                EnergyPhase::Steady
                            };
                            let src_comp_add = [
                                src_parts.cpu_w * slice_secs,
                                src_parts.nic_w * slice_secs,
                                src_parts.disk_w * slice_secs,
                                src_parts.other_w * slice_secs,
                            ];
                            let dst_comp_add = [
                                dst_parts.cpu_w * slice_secs,
                                dst_parts.nic_w * slice_secs,
                                dst_parts.disk_w * slice_secs,
                                dst_parts.other_w * slice_secs,
                            ];
                            let power_sum = src_power + dst_power;
                            let thr_mbps = slice_bytes.as_f64() * 8.0 / slice_secs / 1e6;
                            let queue_depth: u64 =
                                chunks.iter().map(|c| c.queue.len() as u64).sum();
                            let mut audit_remaining = remaining;
                            for _ in 0..k {
                                concurrency_series.push(now, f64::from(total_channels));
                                for i in 0..ch.len() {
                                    if let Some(ttf) = ch.ttf[i] {
                                        ch.ttf[i] = Some(ttf - slice);
                                    }
                                    if ch.in_backoff[i] {
                                        if let Some(rt) = &mut runtime {
                                            rt.book_backoff(ch.gap[i].min(slice));
                                        }
                                        if ch.gap[i] <= slice {
                                            ch.in_backoff[i] = false;
                                        }
                                    }
                                    if working[i] {
                                        // Steady movers are mid-file by the
                                        // window bounds; each replayed slice
                                        // drains exactly the quantum.
                                        if ch.has_file[i] {
                                            ch.file_remaining[i] =
                                                ch.file_remaining[i].saturating_sub(ch_moved[i]);
                                        }
                                        if let (Some(g), Some(m)) = (&gauges, tel.metrics()) {
                                            m.observe(
                                                g.channel_mbps,
                                                ch_moved[i].as_f64() * 8.0 / slice_secs / 1e6,
                                            );
                                        }
                                    } else {
                                        ch.gap[i] = ch.gap[i].saturating_sub(slice);
                                    }
                                }
                                // Working channels drained their quantum
                                // from the chunk's remaining, exactly as
                                // the executed slice did.
                                for (ci, moved) in chunk_moved.iter().enumerate() {
                                    chunk_remaining[ci] =
                                        chunk_remaining[ci].saturating_sub(*moved);
                                }
                                moved_total += slice_bytes;
                                if cfg!(feature = "debug-invariants") {
                                    audit_gross += slice_bytes;
                                }
                                wire_bytes_f += wire_add;
                                *ledger.src.phase_mut(span_phase) += src_add;
                                *ledger.dst.phase_mut(span_phase) += dst_add;
                                ledger.src.add_components(
                                    src_comp_add[0],
                                    src_comp_add[1],
                                    src_comp_add[2],
                                    src_comp_add[3],
                                );
                                ledger.dst.add_components(
                                    dst_comp_add[0],
                                    dst_comp_add[1],
                                    dst_comp_add[2],
                                    dst_comp_add[3],
                                );
                                estimated_energy += est_add;
                                power_series.push(now, power_sum);
                                throughput_series.push(now, thr_mbps);
                                if let (Some(g), Some(m)) = (&gauges, tel.metrics()) {
                                    m.observe(g.watts, power_sum);
                                    m.observe(g.backoff_occ, f64::from(in_backoff));
                                    m.observe(g.queue_hist, queue_depth as f64);
                                }
                                now += slice;
                                slices_done += 1;
                                if cfg!(feature = "debug-invariants") {
                                    audit_remaining = audit_remaining.saturating_sub(slice_bytes);
                                    assert_eq!(
                                        audit_stage_requested,
                                        moved_total + audit_remaining,
                                        "invariant: bytes entered != bytes moved + bytes remaining at t={now:?} (macro)"
                                    );
                                    assert_eq!(
                                        audit_gross,
                                        moved_total + retransmitted,
                                        "invariant: gross bytes != goodput + retransmitted at t={now:?} (macro)"
                                    );
                                }
                                // A halt boundary inside the horizon cuts
                                // the replay at exactly that slice; the
                                // resumed run recomputes the remainder (a
                                // promised slice re-executed normally is
                                // state-identical by the promise contract).
                                if halt_after.is_some_and(|h| slices_done >= h) {
                                    break;
                                }
                            }
                        }
                    }
                    ControlAction::Continue => {}
                }

                // Reclaim the ctx buffers lent to the controller view (the
                // contents are dead; only the capacity is recycled).
                let SliceCtx {
                    channels: lent_targets,
                    remaining_per_chunk: lent_remaining,
                    fault: lent_fault,
                    ..
                } = ctx;
                *ctx_channels = lent_targets;
                *ctx_remaining = lent_remaining;
                *ctx_q_src = lent_fault.quarantined_src;
                *ctx_q_dst = lent_fault.quarantined_dst;
            }
            for c in &chunks {
                chunk_stats.push(crate::report::ChunkStat {
                    label: c.label.clone(),
                    bytes: c.total_bytes,
                    files: c.file_count,
                    completed_at: c.completed_at.map(|t| t.since(SimTime::ZERO)),
                });
            }
            if !completed {
                break;
            }
        }

        if journaling {
            tel.record(
                now,
                Event::RunEnd {
                    moved_bytes: moved_total.as_u64(),
                    duration_s: now.since(SimTime::ZERO).as_secs_f64(),
                    energy_j: ledger.total_j(),
                    completed: completed && moved_total == requested,
                },
            );
        }

        let packets = env
            .packets
            .total_packets(Bytes(wire_bytes_f.round() as u64));
        let fault_stats = runtime.map(|rt| rt.stats).unwrap_or_default();
        debug_assert_eq!(retransmitted, fault_stats.retransmitted_bytes);
        // The report's per-site energy IS the ledger's fixed-order phase
        // sum, so the profile accounts for 100% of it within 0 ULP.
        let src_energy = ledger.src.total_j();
        let dst_energy = ledger.dst.total_j();
        if cfg!(feature = "debug-invariants") {
            let manual = EnergyPhase::ALL
                .iter()
                .fold(0.0f64, |a, &p| a + ledger.src.phase_j(p));
            assert_eq!(
                manual.to_bits(),
                src_energy.to_bits(),
                "invariant: ledger phases must sum to the report energy bit-exactly"
            );
        }
        LegOutcome::Done(TransferReport {
            schema: crate::report::REPORT_SCHEMA_VERSION,
            requested_bytes: requested,
            moved_bytes: moved_total,
            duration: now.since(SimTime::ZERO),
            completed: completed && moved_total == requested,
            src_energy_j: src_energy,
            dst_energy_j: dst_energy,
            ledger,
            wire_bytes: Bytes(wire_bytes_f.round() as u64),
            packets,
            throughput_series,
            power_series,
            concurrency_series,
            failures: fault_stats.total_failures(),
            faults: fault_stats,
            estimated_energy_j: env.estimator.map(|_| estimated_energy),
            chunk_stats,
        })
    }
}

/// Moves the channel targets of finished chunks to the busiest live
/// chunk (the Multi-Chunk reallocation of the custom client).
fn rebalance_targets(
    chunks: &mut [ChunkState],
    in_flight: &[u32],
    remaining: &[Bytes],
    reallocate: bool,
) {
    let mut freed = 0u32;
    for (ci, c) in chunks.iter_mut().enumerate() {
        if c.queue.is_empty() && in_flight[ci] == 0 && c.target > 0 {
            freed += c.target;
            c.target = 0;
        }
    }
    if !reallocate || freed == 0 {
        return;
    }
    if let Some(idx) = busiest_chunk(chunks, in_flight, remaining, true) {
        chunks[idx].target += freed;
    }
    // If no chunk accepts reallocation, freed channels simply retire —
    // exactly MinE's behaviour once only pinned Large chunks remain.
}

/// The engine's reusable scratch arena (DESIGN.md §17): every per-slice
/// buffer the kernel touches, owned in one place so buffer capacity
/// survives across slices, stages, and — via [`Engine::run_leg`] —
/// across legs and whole runs. The state that carries from slice to
/// slice (the channel columns among it) lives in [`RunState`]; the
/// arena holds none, so reusing it is always byte-identical to starting
/// fresh.
#[derive(Debug, Default, Clone)]
pub struct SliceArena {
    /// Per-channel rate ceiling of each chunk (stage-constant).
    chunk_cap: Vec<Rate>,
    /// Inter-file control gap of each chunk this slice.
    chunk_gap: Vec<SimDuration>,
    /// Control-plane duty cycle of each chunk this slice.
    chunk_duty: Vec<f64>,
    /// Duty-scaled per-channel demand of each chunk this slice.
    chunk_demand: Vec<Rate>,
    /// Bytes moved per chunk this slice (macro-step replay).
    chunk_moved: Vec<Bytes>,
    /// Per-channel source / destination server assignment.
    src_assign: Vec<usize>,
    dst_assign: Vec<usize>,
    /// Per-server working-channel and stream counts.
    src_chan: Vec<u32>,
    src_streams: Vec<u32>,
    dst_chan: Vec<u32>,
    dst_streams: Vec<u32>,
    /// Whether each channel moves bytes this slice.
    working: Vec<bool>,
    /// Per-channel demand and granted rate.
    demands: Vec<Rate>,
    grants: Vec<Rate>,
    /// Per-server bytes moved this slice.
    src_moved: Vec<Bytes>,
    dst_moved: Vec<Bytes>,
    /// Per-channel bytes moved this slice (macro-step steadiness check).
    ch_moved: Vec<Bytes>,
    /// Per-server placement counts (shared by both sites sequentially).
    place: Vec<u32>,
    /// Per-server availability masks (breaker state).
    src_avail: Vec<bool>,
    dst_avail: Vec<bool>,
    /// Lending buffers for the controller's [`SliceCtx`]/[`FaultView`]
    /// vectors, reclaimed after each decision.
    ctx_channels: Vec<u32>,
    ctx_remaining: Vec<Bytes>,
    ctx_q_src: Vec<bool>,
    ctx_q_dst: Vec<bool>,
    /// Scratch for the path-level max-min fill.
    fair: FairScratch,
    /// Scratch for the per-server disk shaping.
    disk: DiskScratch,
}

impl SliceArena {
    /// Resets the per-chunk scratch arrays for a stage of `n` chunks,
    /// keeping every buffer's capacity.
    fn begin_stage(&mut self, n: usize) {
        reset(&mut self.chunk_cap, n, Rate::ZERO);
        reset(&mut self.chunk_gap, n, SimDuration::ZERO);
        reset(&mut self.chunk_duty, n, 1.0);
        reset(&mut self.chunk_demand, n, Rate::ZERO);
        reset(&mut self.chunk_moved, n, Bytes::ZERO);
    }
}

/// Reusable buffers for [`apply_disk_fairness`].
#[derive(Debug, Default, Clone)]
struct DiskScratch {
    members: Vec<usize>,
    local: Vec<Rate>,
    grants: Vec<Rate>,
    fair: FairScratch,
}

/// Clears and refills a scratch vector to `len` copies of `value`
/// without giving up its capacity.
fn reset<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Grows or shrinks one chunk's channel block (at `start`, length
/// `len`) to match `target`. New channels pay a connection-setup gap of
/// one RTT; removed channels return their in-flight file (with
/// progress) to the front of the queue. Structural Vec inserts/removals
/// only happen on target changes — the steady state never enters the
/// loops.
#[allow(clippy::too_many_arguments)]
fn sync_chunk_channels(
    ch: &mut ChannelSoA,
    start: usize,
    len: &mut usize,
    in_flight: &mut u32,
    queue: &mut VecDeque<FileProgress>,
    chunk: u32,
    target: u32,
    rtt: SimDuration,
    mut ttf: impl FnMut() -> Option<SimDuration>,
) {
    while (*len as u32) < target {
        ch.insert_fresh(start + *len, chunk, rtt, ttf());
        *len += 1;
    }
    while (*len as u32) > target {
        let last = start + *len - 1;
        // Prefer dropping idle channels (swap-remove within the block,
        // reproducing the old per-chunk `Vec::swap_remove` ordering).
        if let Some(off) = (0..*len).position(|o| !ch.has_file[start + o]) {
            ch.swap(start + off, last);
            ch.remove(last);
        } else {
            // Every channel is busy: the last one returns its file.
            queue.push_front(FileProgress {
                size: ch.file_size[last],
                remaining: ch.file_remaining[last],
            });
            *in_flight -= 1;
            ch.remove(last);
        }
        *len -= 1;
    }
}

/// Handles for the engine's registered metrics, resolved once per run so
/// the per-slice updates are plain indexed stores (no hashing).
struct EngineGauges {
    throughput: GaugeId,
    power: GaugeId,
    concurrency: GaugeId,
    in_backoff: GaugeId,
    queue_depth: GaugeId,
    channel_mbps: HistogramId,
    watts: HistogramId,
    backoff_occ: HistogramId,
    queue_hist: HistogramId,
}

impl EngineGauges {
    fn register(m: &mut MetricsRegistry) -> Self {
        EngineGauges {
            throughput: m.gauge("throughput_mbps"),
            power: m.gauge("power_w"),
            concurrency: m.gauge("concurrency"),
            in_backoff: m.gauge("in_backoff"),
            queue_depth: m.gauge("queue_depth"),
            channel_mbps: m.histogram(
                "channel_throughput_mbps",
                &[50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0],
            ),
            watts: m.histogram(
                "site_power_w",
                &[100.0, 200.0, 300.0, 450.0, 600.0, 800.0, 1200.0],
            ),
            backoff_occ: m.histogram("backoff_occupancy", &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]),
            queue_hist: m.histogram("queue_depth_files", &[0.0, 10.0, 100.0, 1000.0, 10000.0]),
        }
    }
}

/// Index of the live chunk with the most remaining bytes (read off the
/// arena's incremental columns). With `respect_pinning`, chunks that
/// refuse reallocation are skipped (used when handing out freed
/// channels); without it, any live chunk qualifies (a liveness guard).
fn busiest_chunk(
    chunks: &[ChunkState],
    in_flight: &[u32],
    remaining: &[Bytes],
    respect_pinning: bool,
) -> Option<usize> {
    chunks
        .iter()
        .enumerate()
        .filter(|&(ci, c)| {
            (!c.queue.is_empty() || in_flight[ci] > 0)
                && (!respect_pinning || c.accepts_reallocation)
        })
        .max_by_key(|&(ci, _)| remaining[ci])
        .map(|(i, _)| i)
}

/// Shapes per-channel demands max-min fairly through each server's disk
/// subsystem: channels on the same server share its aggregate disk rate by
/// progressive filling, so a 3 Gbps bulk channel coexisting with slow
/// small-file channels gets the disk headroom they leave behind.
fn apply_disk_fairness(
    demands: &mut [Rate],
    assign: &[usize],
    chan_counts: &[u32],
    scratch: &mut DiskScratch,
    disk_rate: impl Fn(usize) -> Rate,
) {
    for (srv, &count) in chan_counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        scratch.members.clear();
        scratch
            .members
            .extend((0..demands.len()).filter(|&i| assign[i] == srv && !demands[i].is_zero()));
        if scratch.members.is_empty() {
            continue;
        }
        scratch.local.clear();
        scratch
            .local
            .extend(scratch.members.iter().map(|&i| demands[i]));
        fair_share_into(
            disk_rate(srv),
            &scratch.local,
            &mut scratch.grants,
            &mut scratch.fair,
        );
        for (k, &i) in scratch.members.iter().enumerate() {
            demands[i] = scratch.grants[k];
        }
    }
}

/// Expands per-server channel counts into a per-channel server index,
/// reusing the output buffer.
fn assign_servers_into(counts: &[u32], out: &mut Vec<usize>) {
    out.clear();
    out.reserve(counts.iter().map(|&c| c as usize).sum());
    for (server, &count) in counts.iter().enumerate() {
        for _ in 0..count {
            out.push(server);
        }
    }
}

/// Expands per-server channel counts into a per-channel server index.
#[cfg(test)]
fn assign_servers(counts: &[u32]) -> Vec<usize> {
    let mut out = Vec::new();
    assign_servers_into(counts, &mut out);
    out
}

/// Largest number of consecutive slices a mid-file channel can replay as
/// "move exactly `per_slice` bytes". The slice that completes the file
/// (`time_at(remaining) <= slice`) — or that would move fewer than
/// `per_slice` bytes because the remainder ran short — must execute
/// normally, so it is excluded. A `per_slice` of zero (zero or sub-byte
/// grant) never completes and never changes state: unbounded, the global
/// bounds cap the window.
fn steady_move_bound(remaining: Bytes, per_slice: Bytes, grant: Rate, slice: SimDuration) -> u64 {
    // True iff replayed slice `j` (1-based) is still a steady partial move.
    // `time_at` rounds to the micro while `bytes_in` floors, so both the
    // byte-count and the time-need condition are checked explicitly.
    let pred = |j: u64| -> bool {
        let Some(consumed) = per_slice.as_u64().checked_mul(j - 1) else {
            return false;
        };
        if consumed >= remaining.as_u64() {
            return false;
        }
        let r = Bytes(remaining.as_u64() - consumed);
        per_slice.as_u64() <= r.as_u64() && r.time_at(grant) > slice
    };
    if !pred(1) {
        return 0;
    }
    if per_slice.is_zero() {
        return u64::MAX;
    }
    // `pred` is monotone in `j`: binary search the last true value.
    let mut lo = 1u64;
    let mut hi = remaining.as_u64() / per_slice.as_u64() + 1; // pred(hi) is false
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Advances channel `i` for one slice at its granted rate; returns bytes
/// moved. Completing a file schedules `inter_file_gap` — the
/// `RTT/pipelining` control gap (stall-inflated when applicable) plus the
/// un-pipelinable per-file server overhead. `in_flight` tracks the
/// owning chunk's in-flight file count as files pop and complete.
fn advance_channel(
    ch: &mut ChannelSoA,
    i: usize,
    queue: &mut VecDeque<FileProgress>,
    in_flight: &mut u32,
    grant: Rate,
    slice: SimDuration,
    inter_file_gap: SimDuration,
) -> Bytes {
    let mut moved = Bytes::ZERO;
    let mut budget = slice;
    loop {
        if budget.is_zero() {
            break;
        }
        if !ch.gap[i].is_zero() {
            let g = ch.gap[i].min(budget);
            ch.gap[i] -= g;
            budget -= g;
            continue;
        }
        if !ch.has_file[i] {
            match queue.pop_front() {
                Some(fp) => {
                    ch.has_file[i] = true;
                    ch.file_size[i] = fp.size;
                    ch.file_remaining[i] = fp.remaining;
                    *in_flight += 1;
                }
                None => break,
            }
        }
        if grant.is_zero() {
            break;
        }
        let t_need = ch.file_remaining[i].time_at(grant);
        if t_need <= budget {
            moved += ch.file_remaining[i];
            budget -= t_need;
            ch.has_file[i] = false;
            *in_flight -= 1;
            ch.gap[i] = inter_file_gap;
        } else {
            let b = grant.bytes_in(budget).min(ch.file_remaining[i]);
            moved += b;
            ch.file_remaining[i] = ch.file_remaining[i].saturating_sub(b);
            budget = SimDuration::ZERO;
        }
    }
    moved
}

/// Total power of one site's active servers for the slice: the reference
/// model's Watts plus (when configured) the secondary estimator's Watts
/// over the same utilization snapshots, plus the reference model's
/// per-component split (the energy profiler's approximate cpu/nic/disk
/// attribution — the scalar total stays the authoritative number).
#[allow(clippy::too_many_arguments)]
fn site_power(
    env: &TransferEnv,
    channels: &[u32],
    streams: &[u32],
    moved: &[Bytes],
    slice_secs: f64,
    eff: f64,
    is_src: bool,
) -> (f64, f64, PowerBreakdown) {
    let site = if is_src { &env.src } else { &env.dst };
    let mut total = 0.0;
    let mut estimated = 0.0;
    let mut parts = PowerBreakdown::default();
    for (i, spec) in site.servers.iter().enumerate() {
        if channels[i] == 0 {
            continue;
        }
        let goodput = Rate::from_bps(moved[i].as_f64() * 8.0 / slice_secs);
        let wire = goodput / eff.max(1e-6);
        let load = ServerLoad {
            channels: channels[i],
            streams: streams[i],
            goodput,
            wire_rate: wire,
        };
        let util = Utilization::compute(spec, load, &env.util);
        total += env.power.power_watts(&util);
        parts.add(&env.power.power_components(&util));
        if let Some(est) = &env.estimator {
            estimated += est.power_watts(&util);
        }
    }
    (total, estimated, parts)
}

#[cfg(test)]
mod tests;
