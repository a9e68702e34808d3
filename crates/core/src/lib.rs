//! The paper's contribution: three energy-aware data transfer algorithms.
//!
//! * [`MinE`] — **Minimum Energy** (Algorithm 1): per-chunk closed-form
//!   parameter selection that floods the Small chunk with pipelined
//!   channels and pins Large chunks to a single channel, minimising energy
//!   with no throughput concern.
//! * [`Htee`] — **High Throughput Energy-Efficient** (Algorithm 2):
//!   weight-proportional channel allocation plus an online search over
//!   concurrency levels (5-second probes, stride 2) for the level with the
//!   best measured throughput/energy ratio.
//! * [`Slaee`] — **SLA-based Energy-Efficient** (Algorithm 3): delivers a
//!   caller-specified fraction of the maximum achievable throughput with
//!   the fewest channels that reach it.
//!
//! [`baselines`] holds the five comparison points of §3: `GlobusUrlCopy`
//! (GUC, untuned), `GlobusOnline` (GO, fixed parameters, channels spread
//! over all servers), `SingleChunk` (SC, tuned but sequential), `ProMc`
//! (Pro-active Multi-Chunk) and `BruteForce` (the efficiency oracle).
//!
//! Every algorithm implements [`Algorithm`]: it plans against a
//! [`TransferEnv`] and executes on the `eadt-transfer` engine, returning
//! the same [`TransferReport`] the figures are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod ctx;
pub mod htee;
pub mod kind;
pub mod mine;
pub mod planner;
pub mod slaee;

#[cfg(test)]
mod proptests;
#[cfg(test)]
pub(crate) mod test_support;

use eadt_dataset::Dataset;
use eadt_sim::SimTime;
use eadt_telemetry::{Event, Telemetry};
use eadt_transfer::{
    Controller, Engine, EngineCheckpoint, FaultAware, LegOutcome, ResourceShare, RunControl,
    RunOutcome, RunState, SliceArena, TransferEnv, TransferPlan, TransferReport,
};

pub use ctx::RunCtx;
pub use htee::Htee;
pub use kind::AlgorithmKind;
pub use mine::MinE;
pub use planner::Planner;
#[allow(deprecated)]
pub use planner::{
    chunk_params, linear_weight_allocation, mine_allocation, weight_allocation, ChunkParams,
};
pub use slaee::Slaee;

/// The one-stop import for experiment code: the trait, the run context,
/// every algorithm and baseline, the planner, and the kind selector.
pub mod prelude {
    pub use crate::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
    pub use crate::ctx::RunCtx;
    pub use crate::kind::AlgorithmKind;
    pub use crate::planner::{ChunkParams, Planner};
    pub use crate::{Algorithm, Htee, MinE, PlannedRun, Slaee};
}

/// A data-transfer scheduling algorithm: plans a dataset against an
/// environment and executes it on the simulated GridFTP engine.
pub trait Algorithm {
    /// Display name used in figures and tables.
    fn name(&self) -> &'static str;

    /// Makes every decision taken before the first slice: partitions the
    /// dataset, allocates channels, builds the [`TransferPlan`] and the
    /// controller that steers it (fault-aware wrapper included).
    ///
    /// Planning is a pure function of `(self, env, dataset)`, so the
    /// result serves any number of legs of one transfer: a caller may
    /// keep it and run leg after leg (each continuing the previous leg's
    /// live state, or resuming from its
    /// [`eadt_transfer::EngineCheckpoint`]), or plan again per leg and
    /// resume from the checkpoint, with byte-identical output either way.
    fn plan(&self, env: &TransferEnv, dataset: &Dataset) -> PlannedRun;

    /// Runs the whole transfer described by `ctx` — environment, dataset,
    /// telemetry sink, fault plan — and returns its measurements.
    /// Telemetry is a no-op handle when the context was built with
    /// [`RunCtx::new`], so implementations pay nothing on the plain path.
    fn run(&self, ctx: &mut RunCtx<'_>) -> TransferReport {
        self.run_controlled(ctx, RunControl::default())
            .into_report()
            .expect("no halt boundary configured")
    }

    /// Runs with checkpoint control: resuming from an
    /// [`eadt_transfer::EngineCheckpoint`] and/or halting at a slice
    /// boundary to produce one (DESIGN.md §13). Plans afresh from `ctx`
    /// and runs one leg ([`PlannedRun::run`]).
    fn run_controlled(&self, ctx: &mut RunCtx<'_>, ctl: RunControl) -> RunOutcome {
        let (env, dataset, tel, arena) = ctx.parts_arena();
        self.plan(env, dataset).run(env, tel, ctl, arena)
    }

    /// Shim for the pre-`RunCtx` two-argument entry point.
    #[deprecated(since = "0.2.0", note = "build a `RunCtx` and call `run`")]
    fn run_plain(&self, env: &TransferEnv, dataset: &Dataset) -> TransferReport {
        self.run(&mut RunCtx::new(env, dataset))
    }

    /// Shim for the pre-`RunCtx` instrumented entry point.
    #[deprecated(since = "0.2.0", note = "use `RunCtx::with_telemetry` and call `run`")]
    fn run_instrumented(
        &self,
        env: &TransferEnv,
        dataset: &Dataset,
        tel: &mut Telemetry,
    ) -> TransferReport {
        self.run(&mut RunCtx::with_telemetry(env, dataset, tel))
    }
}

/// What [`Algorithm::plan`] decided: the static plan plus the controller
/// that steers it.
///
/// [`PlannedRun::run`] executes one leg on the engine under checkpoint
/// control; [`PlannedRun::leg`] executes one leg from, and back into, a
/// live [`RunState`], with the controller carrying its state from leg to
/// leg. The controller is `Send`, so a planned run can travel with its
/// job between worker threads. Keeping one across checkpoint legs is
/// sound because a resumed leg restores the controller from the
/// checkpoint's snapshot before the engine moves, exactly as a freshly
/// planned controller would be.
pub struct PlannedRun {
    /// The plan the engine executes.
    pub plan: TransferPlan,
    /// The controller steering the plan.
    controller: Box<dyn Controller + Send>,
    /// Reason of the planning decision journaled at time zero of a fresh
    /// run (with the first stage's channel counts as targets).
    decision: Option<&'static str>,
}

impl PlannedRun {
    /// Pairs a plan with its controller, wrapped in [`FaultAware`] when
    /// `fault_aware` is set.
    pub fn new<C: Controller + Send + 'static>(
        plan: TransferPlan,
        controller: C,
        fault_aware: bool,
    ) -> Self {
        let controller: Box<dyn Controller + Send> = if fault_aware {
            Box::new(FaultAware::new(controller))
        } else {
            Box::new(controller)
        };
        PlannedRun {
            plan,
            controller,
            decision: None,
        }
    }

    /// Journals `reason` as the plan's decision when a run starts fresh.
    pub(crate) fn with_decision(mut self, reason: &'static str) -> Self {
        self.decision = Some(reason);
        self
    }

    /// Journals the planning decision at time zero, with the first
    /// stage's channel counts as targets.
    fn record_decision(&self, tel: &mut Telemetry, reason: &'static str) {
        tel.record_with(SimTime::ZERO, || Event::Decision {
            reason: reason.to_string(),
            targets: self.plan.stages[0]
                .chunks
                .iter()
                .map(|c| c.channels)
                .collect(),
        });
    }

    /// Runs one leg: fresh or resuming, halting or to completion, per
    /// `ctl` (see [`Engine::run_controlled_in`]). A resumed leg skips the
    /// planning telemetry, which is already in the journal prefix the
    /// checkpoint was cut from.
    pub fn run(
        &mut self,
        env: &TransferEnv,
        tel: &mut Telemetry,
        ctl: RunControl,
        arena: &mut SliceArena,
    ) -> RunOutcome {
        if let (Some(reason), None) = (self.decision, &ctl.resume) {
            self.record_decision(tel, reason);
        }
        Engine::new(env).run_controlled_in(&self.plan, &mut *self.controller, tel, ctl, arena)
    }

    /// Runs one live leg (see [`Engine::run_leg`]): from the start when
    /// `state` is `None`, journaling the planning decision like a fresh
    /// [`PlannedRun::run`]; otherwise continuing the state a previous
    /// leg of this planned run handed back, or [`PlannedRun::restore`]
    /// rebuilt.
    pub fn leg(
        &mut self,
        env: &TransferEnv,
        tel: &mut Telemetry,
        state: Option<RunState>,
        halt_after: Option<u64>,
        share: ResourceShare,
        arena: &mut SliceArena,
    ) -> LegOutcome {
        if let (Some(reason), None) = (self.decision, &state) {
            self.record_decision(tel, reason);
        }
        Engine::new(env).run_leg(
            &self.plan,
            &mut *self.controller,
            tel,
            state,
            halt_after,
            share,
            arena,
        )
    }

    /// Converts a persisted checkpoint of this planned run back to its
    /// live state, restoring the controller (see [`Engine::restore`]).
    ///
    /// # Panics
    /// As [`Engine::restore`].
    pub fn restore(
        &mut self,
        env: &TransferEnv,
        tel: &mut Telemetry,
        ck: EngineCheckpoint,
    ) -> RunState {
        Engine::new(env).restore(&self.plan, &mut *self.controller, tel, ck)
    }

    /// The checkpoint of a live state of this planned run, for
    /// persisting it (see [`Engine::checkpoint`]: the series move into
    /// it; [`RunState::reclaim`] takes them back).
    pub fn checkpoint(
        &self,
        env: &TransferEnv,
        state: &mut RunState,
        tel: &Telemetry,
    ) -> EngineCheckpoint {
        Engine::new(env).checkpoint(&self.plan, state, &*self.controller, tel)
    }
}
