//! The run context: everything an [`Algorithm`](crate::Algorithm) needs
//! for one transfer, in one place.
//!
//! The old API split every algorithm into `run(env, dataset)` and
//! `run_instrumented(env, dataset, tel)`; fault-plan overrides had to be
//! baked into a cloned `TransferEnv` by every caller. [`RunCtx`] collapses
//! the split: it carries the environment (borrowed until a caller overrides
//! something, cloned-on-write after), the dataset, the telemetry sink, and
//! the fault plan, and `Algorithm::run(&self, ctx)` is the single entry
//! point.

use eadt_dataset::Dataset;
use eadt_telemetry::Telemetry;
use eadt_transfer::{FaultPlan, SliceArena, TransferEnv};
use std::borrow::Cow;

enum TelSlot<'a> {
    Owned(Telemetry),
    Borrowed(&'a mut Telemetry),
}

/// Everything one [`Algorithm::run`](crate::Algorithm::run) call needs:
/// environment, dataset, telemetry, fault plan.
///
/// Build one with [`RunCtx::new`] (telemetry disabled) or
/// [`RunCtx::with_telemetry`], optionally override the fault plan with
/// [`RunCtx::override_faults`], and pass it to `Algorithm::run`. The
/// context is reusable across runs (e.g. SLAEE's reference run and its
/// own run share one context).
pub struct RunCtx<'a> {
    env: Cow<'a, TransferEnv>,
    dataset: &'a Dataset,
    tel: TelSlot<'a>,
    // Boxed: the arena's inline columns would otherwise dominate every
    // RunCtx on the stack.
    arena: Box<SliceArena>,
}

impl<'a> RunCtx<'a> {
    /// A plain run: telemetry disabled, fault plan as the environment
    /// declares it.
    pub fn new(env: &'a TransferEnv, dataset: &'a Dataset) -> Self {
        RunCtx {
            env: Cow::Borrowed(env),
            dataset,
            tel: TelSlot::Owned(Telemetry::disabled()),
            arena: Box::default(),
        }
    }

    /// An instrumented run: planning decisions, probe windows, engine
    /// events and metric samples land in `tel`.
    pub fn with_telemetry(
        env: &'a TransferEnv,
        dataset: &'a Dataset,
        tel: &'a mut Telemetry,
    ) -> Self {
        RunCtx {
            env: Cow::Borrowed(env),
            dataset,
            tel: TelSlot::Borrowed(tel),
            arena: Box::default(),
        }
    }

    /// Replaces the environment's fault plan for this run (clones the
    /// environment on first override). `None` disables fault injection.
    pub fn override_faults(&mut self, faults: Option<FaultPlan>) -> &mut Self {
        self.env.to_mut().faults = faults;
        self
    }

    /// The environment the transfer runs in.
    pub fn env(&self) -> &TransferEnv {
        self.env.as_ref()
    }

    /// The dataset being transferred.
    pub fn dataset(&self) -> &Dataset {
        self.dataset
    }

    /// The telemetry sink (a no-op handle when the context was built with
    /// [`RunCtx::new`]).
    pub fn telemetry(&mut self) -> &mut Telemetry {
        match &mut self.tel {
            TelSlot::Owned(t) => t,
            TelSlot::Borrowed(t) => t,
        }
    }

    /// All three pieces at once — the implementor-side accessor that keeps
    /// the borrow checker happy when an algorithm needs the environment
    /// and the telemetry sink simultaneously.
    pub fn parts(&mut self) -> (&TransferEnv, &'a Dataset, &mut Telemetry) {
        let (env, dataset, tel, _) = self.parts_arena();
        (env, dataset, tel)
    }

    /// [`RunCtx::parts`] plus the scratch arena — for implementors that
    /// drive the engine through
    /// [`Engine::run_controlled_in`](eadt_transfer::Engine::run_controlled_in).
    pub fn parts_arena(&mut self) -> (&TransferEnv, &'a Dataset, &mut Telemetry, &mut SliceArena) {
        let tel = match &mut self.tel {
            TelSlot::Owned(t) => t,
            TelSlot::Borrowed(t) => &mut **t,
        };
        (self.env.as_ref(), self.dataset, tel, &mut self.arena)
    }
}
