//! Executing one job spec: dataset generation, fault handling, algorithm
//! dispatch through [`Algorithm::plan`].

use crate::spec::{FaultOverride, JobSpec};
use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
use eadt_core::{Algorithm, AlgorithmKind, Htee, MinE, PlannedRun, RunCtx, Slaee};
use eadt_dataset::Dataset;
use eadt_sim::Rate;
use eadt_telemetry::Telemetry;
use eadt_transfer::{
    EngineCheckpoint, LegOutcome, NullController, ResourceShare, RunControl, RunOutcome, RunState,
    SliceArena, TransferEnv, TransferReport,
};
use std::borrow::Cow;

/// Runs one job at the given seed and returns the engine's report.
///
/// The seed drives dataset generation; fault streams keep the seeds baked
/// into the (possibly overridden) fault plan so a replayed job is
/// bit-identical. SLAEE derives its reference maximum from a ProMC run at
/// the testbed's reference concurrency, exactly as the CLI does.
pub fn run_job(spec: &JobSpec, seed: u64) -> TransferReport {
    JobRunner::prepare(spec, seed)
        .run_controlled(RunControl::default())
        .into_report()
        .expect("no halt boundary configured")
}

/// A job prepared for controlled (checkpointable) execution.
///
/// Preparation does everything *before* planning once — dataset
/// generation, the fault-plan override and, for SLAEE, the ProMC
/// reference measurement — so a checkpoint/resume cycle repeats only the
/// deterministic plan build and the engine itself. Both preparation and
/// execution are bit-reproducible from `(spec, seed)`, which is what lets
/// a resumed job re-join its checkpoint exactly.
pub struct JobRunner<'a> {
    spec: &'a JobSpec,
    /// The testbed environment with the job's fault override applied.
    env: Cow<'a, TransferEnv>,
    dataset: Dataset,
    reference: Option<Rate>,
}

impl<'a> JobRunner<'a> {
    /// Generates the dataset (and SLAEE's reference throughput) for a job.
    pub fn prepare(spec: &'a JobSpec, seed: u64) -> Self {
        let tb = &spec.env;
        let dataset = match &spec.dataset {
            Some(d) => d.clone(),
            None => tb.dataset_spec.scaled(spec.scale).generate(seed),
        };
        let faults = match &spec.faults {
            FaultOverride::Inherit => None,
            FaultOverride::Disable => Some(None),
            FaultOverride::Replace(plan) => Some(Some(plan.clone())),
        };
        let env = match faults {
            None => Cow::Borrowed(&tb.env),
            Some(faults) => Cow::Owned(TransferEnv {
                faults,
                ..tb.env.clone()
            }),
        };
        let reference = (spec.kind == AlgorithmKind::Slaee).then(|| {
            ProMc {
                partition: tb.partition,
                ..ProMc::new(tb.reference_concurrency)
            }
            .run(&mut RunCtx::new(&env, &dataset))
            .avg_throughput()
        });
        JobRunner {
            spec,
            env,
            dataset,
            reference,
        }
    }

    /// Plans the job's algorithm against its environment and dataset.
    fn plan(&self) -> PlannedRun {
        let spec = self.spec;
        let partition = spec.env.partition;
        let (env, dataset) = (self.env.as_ref(), &self.dataset);
        match spec.kind {
            AlgorithmKind::MinE => MinE {
                partition,
                ..MinE::new(spec.max_channel)
            }
            .plan(env, dataset),
            AlgorithmKind::Htee => Htee {
                partition,
                fault_aware: spec.fault_aware,
                ..Htee::new(spec.max_channel)
            }
            .plan(env, dataset),
            AlgorithmKind::Slaee => Slaee {
                partition,
                fault_aware: spec.fault_aware,
                ..Slaee::new(
                    spec.sla_level,
                    self.reference.expect("prepare measures the reference"),
                    spec.max_channel,
                )
            }
            .plan(env, dataset),
            AlgorithmKind::Guc => GlobusUrlCopy::new().plan(env, dataset),
            AlgorithmKind::Go => GlobusOnline::new().plan(env, dataset),
            AlgorithmKind::Sc => SingleChunk {
                partition,
                ..SingleChunk::new(spec.max_channel)
            }
            .plan(env, dataset),
            AlgorithmKind::ProMc => ProMc {
                partition,
                fault_aware: spec.fault_aware,
                ..ProMc::new(spec.max_channel)
            }
            .plan(env, dataset),
            AlgorithmKind::Bf => BruteForce {
                partition,
                ..BruteForce::new(spec.max_channel)
            }
            .plan(env, dataset),
            AlgorithmKind::Manual => {
                let plan = eadt_transfer::uniform_plan(
                    dataset,
                    eadt_transfer::TransferParams::new(
                        spec.pipelining,
                        spec.parallelism,
                        spec.max_channel,
                    ),
                    eadt_endsys::Placement::PackFirst,
                );
                PlannedRun::new(plan, NullController, spec.fault_aware)
            }
        }
    }

    /// Runs the job under checkpoint control (fresh, halting, or resuming
    /// per `ctl`). Calling this repeatedly with the default control always
    /// reproduces the same report.
    pub fn run_controlled(&self, ctl: RunControl) -> RunOutcome {
        self.run_instrumented(ctl, &mut Telemetry::disabled())
    }

    /// Like [`JobRunner::run_controlled`], but recording into `tel` —
    /// the fleet's metrics-collection path. When `tel` carries a metrics
    /// registry the engine samples its gauges and histograms into it,
    /// and a resume restores the registry from the checkpoint before
    /// continuing, so the final snapshot is interrupt-invariant.
    pub fn run_instrumented(&self, ctl: RunControl, tel: &mut Telemetry) -> RunOutcome {
        self.plan()
            .run(&self.env, tel, ctl, &mut SliceArena::default())
    }
}

/// A job kept live between legs: prepared and planned once (only the
/// plan and its environment are kept), with its engine state between
/// legs and a warm engine scratch arena.
///
/// [`ServiceSession`](crate::ServiceSession) builds one at a job's first
/// advance and keeps it, across preemptions, until the job finishes;
/// [`Session`](crate::Session)'s checkpoint cadence runs every leg of a
/// job through one. A halted leg leaves its live [`RunState`] in the
/// resident and the next leg continues it: no checkpoint is made unless
/// the caller persists one ([`Resident::checkpoint`]), and a leg's output
/// is exactly that of a freshly prepared [`JobRunner`] resuming from that
/// checkpoint.
pub(crate) struct Resident<'a> {
    /// The job's environment, fault override applied.
    env: Cow<'a, TransferEnv>,
    planned: PlannedRun,
    /// The engine state the last leg halted with; `None` before the
    /// first leg.
    state: Option<RunState>,
    arena: SliceArena,
}

impl<'a> Resident<'a> {
    /// Prepares and plans `spec` at `seed`.
    pub(crate) fn new(spec: &'a JobSpec, seed: u64) -> Self {
        let runner = JobRunner::prepare(spec, seed);
        // The plan owns everything later legs need from the dataset.
        let planned = runner.plan();
        Resident {
            env: runner.env,
            planned,
            state: None,
            arena: SliceArena::default(),
        }
    }

    /// Makes a persisted checkpoint the state the next leg continues
    /// from (restoring the controller, and `tel`'s metrics and spans).
    pub(crate) fn restore(&mut self, ck: EngineCheckpoint, tel: &mut Telemetry) {
        self.state = Some(self.planned.restore(&self.env, tel, ck));
    }

    /// Runs one leg of at most `slices` slices under `share`, from the
    /// start or continuing the live state. Returns the report when the
    /// transfer finished, `None` when it halted (its state stays here).
    pub(crate) fn leg(
        &mut self,
        slices: u64,
        share: ResourceShare,
        tel: &mut Telemetry,
    ) -> Option<TransferReport> {
        let state = self.state.take();
        let halt = state.as_ref().map_or(0, RunState::slices_done) + slices;
        match self
            .planned
            .leg(&self.env, tel, state, Some(halt), share, &mut self.arena)
        {
            LegOutcome::Done(report) => Some(report),
            LegOutcome::Halted(state) => {
                self.state = Some(state);
                None
            }
        }
    }

    /// The checkpoint of the live state, for persisting it; `None` before
    /// the first leg. The per-slice series move into it: hand it back
    /// with [`Resident::reclaim`] before the next leg.
    pub(crate) fn checkpoint(&mut self, tel: &Telemetry) -> Option<EngineCheckpoint> {
        let state = self.state.as_mut()?;
        Some(self.planned.checkpoint(&self.env, state, tel))
    }

    /// Takes back a checkpoint made by [`Resident::checkpoint`].
    pub(crate) fn reclaim(&mut self, ck: EngineCheckpoint) {
        if let Some(state) = &mut self.state {
            state.reclaim(ck);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;

    #[test]
    fn every_kind_dispatches_and_completes() {
        let tb = eadt_testbeds::didclab();
        for kind in AlgorithmKind::ALL {
            let spec = JobSpec::new(kind, tb.clone())
                .with_scale(0.005)
                .with_max_channel(4)
                .with_sla_level(0.8);
            let r = run_job(&spec, 1);
            assert!(r.completed, "{kind:?}");
        }
    }

    #[test]
    fn fault_override_disable_strips_injection() {
        let mut tb = eadt_testbeds::didclab();
        tb.env.faults = Some(eadt_transfer::FaultPlan::channel_only(
            eadt_transfer::FaultModel::new(eadt_sim::SimDuration::from_secs(5), 3),
        ));
        let spec = JobSpec::new(AlgorithmKind::ProMc, tb)
            .with_scale(0.02)
            .without_faults();
        let r = run_job(&spec, 1);
        assert_eq!(r.failures, 0, "disabled faults must not fire");
    }

    /// The share a leg runs under changes from leg to leg, as the
    /// service's arbitration would change it.
    fn share_for_leg(leg: usize) -> ResourceShare {
        let f = [1.0, 0.5, 0.25, 0.8][leg % 4];
        ResourceShare {
            bandwidth: f,
            src_disk: [0.6, 1.0, 0.9][leg % 3],
            dst_disk: 1.0,
        }
    }

    const QUANTUM: u64 = 13;
    const SEED: u64 = 3;

    fn json<T: serde::Serialize>(value: &T) -> String {
        serde_json::to_string(value).expect("checkpoints and reports serialize")
    }

    /// A resident run leg by leg, the live state continuing from each
    /// halt: every boundary's state converted to a checkpoint, then the
    /// final report, serialized.
    fn live_legs(spec: &JobSpec, tel: &mut Telemetry) -> Vec<String> {
        let mut resident = Resident::new(spec, SEED);
        let mut out = Vec::new();
        for i in 0.. {
            if let Some(report) = resident.leg(QUANTUM, share_for_leg(i), tel) {
                out.push(json(&report));
                break;
            }
            let ck = resident
                .checkpoint(tel)
                .expect("a halted resident holds its state");
            out.push(json(&ck));
            resident.reclaim(ck);
        }
        out
    }

    /// The same legs, each freshly prepared and resumed from the
    /// previous leg's checkpoint.
    fn fresh_legs(spec: &JobSpec, tel: &mut Telemetry) -> Vec<String> {
        let mut out = Vec::new();
        let mut engine: Option<Box<EngineCheckpoint>> = None;
        for i in 0.. {
            let halt = engine.as_ref().map_or(0, |e| e.slices_done) + QUANTUM;
            let ctl = RunControl {
                resume: engine.take(),
                halt_after: Some(halt),
                share: share_for_leg(i),
            };
            match JobRunner::prepare(spec, SEED).run_instrumented(ctl, tel) {
                RunOutcome::Halted(ck) => {
                    out.push(json(&ck));
                    engine = Some(ck);
                }
                RunOutcome::Done(report) => {
                    out.push(json(&report));
                    break;
                }
            }
        }
        out
    }

    /// The oracle for live legs: continuing the engine state a halt
    /// handed back must be indistinguishable from the checkpoint round
    /// trip it replaces — same checkpoint at every boundary, same report,
    /// and (with telemetry on) the same journal and metrics.
    #[test]
    fn live_legs_match_checkpoint_round_trips() {
        let tb = eadt_testbeds::xsede();
        let faults = eadt_transfer::FaultPlan::channel_only(eadt_transfer::FaultModel::new(
            eadt_sim::SimDuration::from_secs(15),
            5,
        ));
        for kind in AlgorithmKind::ALL {
            for (faulty, instrumented) in [(false, false), (true, false), (true, true)] {
                let mut spec = JobSpec::new(kind, tb.clone())
                    .with_scale(0.01)
                    .with_max_channel(4)
                    .with_manual_params(4, 2);
                if faulty {
                    spec = spec.with_faults(faults.clone()).with_fault_aware(true);
                }
                // As the batch cadence and `eadt fleet --metrics-out` run:
                // one registry (and journal) across every leg.
                let tel = || match instrumented {
                    false => Telemetry::disabled(),
                    true => Telemetry::from_parts(
                        Some(eadt_telemetry::Journal::new()),
                        Some(eadt_telemetry::MetricsRegistry::new(
                            eadt_sim::SimDuration::from_secs(1),
                        )),
                    ),
                };
                let (mut live_tel, mut fresh_tel) = (tel(), tel());
                let live = live_legs(&spec, &mut live_tel);
                let fresh = fresh_legs(&spec, &mut fresh_tel);
                let case = format!("{kind} faulty={faulty} instrumented={instrumented}");
                assert!(live.len() > 3, "{case}: too few legs to test");
                assert_eq!(live, fresh, "{case}");
                let sinks = |t: &Telemetry| {
                    (
                        t.journal().map(eadt_telemetry::Journal::to_jsonl),
                        t.metrics_ref().map(|m| json(&m.snapshot())),
                    )
                };
                assert_eq!(sinks(&live_tel), sinks(&fresh_tel), "{case}");
                if instrumented {
                    assert!(sinks(&live_tel)
                        .0
                        .is_some_and(|j| j.contains("\"ev\":\"span_begin\"")));
                }
            }
        }
    }
}
