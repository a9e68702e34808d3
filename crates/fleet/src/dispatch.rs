//! Executing one job spec: dataset generation, fault handling, algorithm
//! dispatch through [`Algorithm::plan`].

use crate::spec::{FaultOverride, JobSpec};
use eadt_core::baselines::{BruteForce, GlobusOnline, GlobusUrlCopy, ProMc, SingleChunk};
use eadt_core::{Algorithm, AlgorithmKind, Htee, MinE, PlannedRun, RunCtx, Slaee};
use eadt_dataset::Dataset;
use eadt_sim::Rate;
use eadt_telemetry::Telemetry;
use eadt_transfer::{
    EngineCheckpoint, NullController, ResourceShare, RunControl, RunOutcome, SliceArena,
    TransferEnv, TransferReport,
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

/// A job kept live between checkpoint legs: prepared and planned once
/// (only the plan and its environment are kept), with a warm engine
/// scratch arena.
///
/// [`ServiceSession`](crate::ServiceSession) builds one at a job's first
/// advance and keeps it, across preemptions, until the job finishes;
/// [`Session`](crate::Session)'s checkpoint cadence runs every leg of a
/// job through one. Each leg still resumes from the previous leg's
/// [`EngineCheckpoint`], so a leg's output is exactly that of a freshly
/// prepared [`JobRunner`] resuming the same checkpoint.
pub(crate) struct Resident<'a> {
    /// The job's environment, fault override applied.
    env: Cow<'a, TransferEnv>,
    planned: PlannedRun,
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
            arena: SliceArena::default(),
        }
    }

    /// Runs one leg of at most `slices` slices under `share`: from the
    /// start when `engine` is `None`, otherwise resuming from it.
    pub(crate) fn leg(
        &mut self,
        engine: Option<Box<EngineCheckpoint>>,
        slices: u64,
        share: ResourceShare,
        tel: &mut Telemetry,
    ) -> RunOutcome {
        let halt = engine.as_ref().map_or(0, |e| e.slices_done) + slices;
        let ctl = RunControl {
            resume: engine,
            halt_after: Some(halt),
            share,
        };
        self.planned.run(&self.env, tel, ctl, &mut self.arena)
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

    /// Every leg's checkpoint and the final report, serialized.
    fn legs(
        mut leg: impl FnMut(Option<Box<EngineCheckpoint>>, usize) -> RunOutcome,
    ) -> Vec<String> {
        let mut out = Vec::new();
        let mut engine = None;
        for i in 0.. {
            match leg(engine.take(), i) {
                RunOutcome::Halted(ck) => {
                    out.push(serde_json::to_string(&ck).expect("checkpoint serializes"));
                    engine = Some(ck);
                }
                RunOutcome::Done(report) => {
                    out.push(serde_json::to_string(&report).expect("report serializes"));
                    break;
                }
            }
        }
        out
    }

    #[test]
    fn resident_legs_match_freshly_prepared_legs() {
        const QUANTUM: u64 = 13;
        let tb = eadt_testbeds::xsede();
        let faults = eadt_transfer::FaultPlan::channel_only(eadt_transfer::FaultModel::new(
            eadt_sim::SimDuration::from_secs(15),
            5,
        ));
        for kind in AlgorithmKind::ALL {
            for faulty in [false, true] {
                let mut spec = JobSpec::new(kind, tb.clone())
                    .with_scale(0.01)
                    .with_max_channel(4)
                    .with_manual_params(4, 2);
                if faulty {
                    spec = spec.with_faults(faults.clone()).with_fault_aware(true);
                }
                let mut resident = Resident::new(&spec, 3);
                let kept = legs(|engine, i| {
                    resident.leg(
                        engine,
                        QUANTUM,
                        share_for_leg(i),
                        &mut Telemetry::disabled(),
                    )
                });
                let fresh = legs(|engine, i| {
                    let halt = engine.as_ref().map_or(0, |e| e.slices_done) + QUANTUM;
                    JobRunner::prepare(&spec, 3).run_controlled(RunControl {
                        resume: engine,
                        halt_after: Some(halt),
                        share: share_for_leg(i),
                    })
                });
                assert!(
                    kept.len() > 3,
                    "{kind} faulty={faulty}: too few legs to test"
                );
                assert_eq!(kept, fresh, "{kind} faulty={faulty}");
            }
        }
    }
}
