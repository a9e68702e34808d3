//! The four workloads: what each builds in set-up, the one timed call
//! into `eadt-fleet` it makes, and the checks its output must pass.
//!
//! Every job seed derives from the workload's root seed, either through
//! the session's own derivation (`derive_job_seed`) or, for the fault
//! streams, from a fork of the root seed.

use eadt_ckpt::{CheckpointStore, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_core::AlgorithmKind;
use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
use eadt_fleet::{
    derive_job_seed, figures_matrix, FleetReport, JobOutcome, JobRunner, JobSpec, ServiceJob,
    ServiceReport, ServiceSession, Session,
};
use eadt_sim::{SimDuration, SimRng};
use eadt_transfer::{FaultModel, FaultPlan, OutageModel, RunControl, RunOutcome, SiteSide};
use std::path::{Path, PathBuf};

/// The seed whose report digests `digests.txt` pins.
pub const DEFAULT_SEED: u64 = 42;

/// The figure panel, in the order `figures_matrix` sweeps it.
pub const FIGURE_KINDS: [AlgorithmKind; 7] = [
    AlgorithmKind::MinE,
    AlgorithmKind::Htee,
    AlgorithmKind::Slaee,
    AlgorithmKind::Guc,
    AlgorithmKind::Go,
    AlgorithmKind::Sc,
    AlgorithmKind::ProMc,
];

/// `serve-churn`: jobs submitted to the shared site. A multiple of 28
/// (7 algorithms × 4 tenants), so every quarter of it has the same mix.
pub const SERVE_JOBS: usize = 560;
/// `serve-churn`: dataset scale of every job.
pub const SERVE_SCALE: f64 = 0.02;
/// `serve-churn`: scheduling quantum, engine slices.
pub const SERVE_QUANTUM: u64 = 50;
/// `serve-churn`: core slots of the shared site.
const SERVE_SLOTS: u32 = 16;
/// `serve-churn`: tenants; a job's priority is its tenant.
const SERVE_TENANTS: u32 = 4;

/// `fleet-figures`: copies of the 147-job figures matrix in one batch.
pub const FIGURES_COPIES: usize = 4;
/// `fleet-figures`: dataset scale.
pub const FIGURES_SCALE: f64 = 1.0;

/// `fleet-durable` and `fleet-resume`: concurrency levels of the
/// 7-algorithm XSEDE unit (21 jobs).
const UNIT_LEVELS: [u32; 3] = [1, 4, 16];
/// `fleet-durable`: copies of the 21-job unit.
pub const DURABLE_COPIES: usize = 4;
/// `fleet-durable`: dataset scale.
pub const DURABLE_SCALE: f64 = 0.1;
/// `fleet-durable`: checkpoint cadence, engine slices.
pub const DURABLE_CADENCE: u64 = 300;
/// `fleet-durable`: metrics sampling cadence, simulated seconds.
pub const METRICS_CADENCE_S: u64 = 1;

/// `fleet-resume`: copies of the 21-job unit.
pub const RESUME_COPIES: usize = 4;
/// `fleet-resume`: dataset scale.
pub const RESUME_SCALE: f64 = 0.08;
/// `fleet-resume`: slice at which set-up halts every job and persists
/// its checkpoint.
pub const RESUME_HALT: u64 = 150;
/// `fleet-resume`: cadence of the resuming session, set beyond any job's
/// length so the timed call reads checkpoints and writes none.
const RESUME_NO_CADENCE: u64 = 1 << 40;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ServiceSession::run` of many small contending jobs.
    ServeChurn,
    /// `Session::run` of the paper's figure matrix.
    FleetFigures,
    /// `Session::run` with faults, checkpoint cadence and metrics.
    FleetDurable,
    /// `Session::resume` from one mid-flight checkpoint per job.
    FleetResume,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeChurn,
        Workload::FleetFigures,
        Workload::FleetDurable,
        Workload::FleetResume,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeChurn => "serve-churn",
            Workload::FleetFigures => "fleet-figures",
            Workload::FleetDurable => "fleet-durable",
            Workload::FleetResume => "fleet-resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (one of {})", names.join(", "))
            })
    }

    /// The job list at `fraction` of the full size (1.0 or 0.25).
    pub fn job_specs(self, seed: u64, fraction: f64) -> Vec<JobSpec> {
        let copies = |full: usize| ((full as f64 * fraction).round() as usize).max(1);
        match self {
            Workload::ServeChurn => {
                let n = (copies(SERVE_JOBS / 28) * 28).max(28);
                let tb = eadt_testbeds::xsede();
                FIGURE_KINDS
                    .iter()
                    .cycle()
                    .take(n)
                    .map(|&kind| JobSpec::new(kind, tb.clone()).with_scale(SERVE_SCALE))
                    .collect()
            }
            Workload::FleetFigures => {
                let matrix = figures_matrix(FIGURES_SCALE);
                (0..copies(FIGURES_COPIES))
                    .flat_map(|_| matrix.iter().cloned())
                    .collect()
            }
            Workload::FleetDurable => fault_jobs(seed, DURABLE_SCALE, copies(DURABLE_COPIES)),
            Workload::FleetResume => fault_jobs(seed, RESUME_SCALE, copies(RESUME_COPIES)),
        }
    }

    /// The slice at which the workload's jobs halt: the service quantum,
    /// the checkpoint cadence, or the set-up halt. `fleet-figures` never
    /// halts (`None`).
    pub fn halt_every(self) -> Option<u64> {
        match self {
            Workload::ServeChurn => Some(SERVE_QUANTUM),
            Workload::FleetFigures => None,
            Workload::FleetDurable => Some(DURABLE_CADENCE),
            Workload::FleetResume => Some(RESUME_HALT),
        }
    }
}

/// `copies` of the unit XSEDE × the 7 figure algorithms × levels
/// {1, 4, 16}, with a 20 s channel MTBF, recurring destination outages
/// and the fault-aware controller wrapper. Each job's fault streams have
/// their own seed, derived from the root seed and the job's index, so
/// the copies do not repeat one fault history.
fn fault_jobs(seed: u64, scale: f64, copies: usize) -> Vec<JobSpec> {
    let fault_root = SimRng::new(seed).fork("perfbench-faults").seed();
    let tb = eadt_testbeds::xsede();
    let mut jobs = Vec::with_capacity(copies * UNIT_LEVELS.len() * FIGURE_KINDS.len());
    for _ in 0..copies {
        for level in UNIT_LEVELS {
            for kind in FIGURE_KINDS {
                let fault_seed = derive_job_seed(fault_root, jobs.len() as u64);
                jobs.push(
                    JobSpec::new(kind, tb.clone())
                        .with_scale(scale)
                        .with_max_channel(level)
                        .with_faults(fault_plan(fault_seed))
                        .with_fault_aware(true),
                );
            }
        }
    }
    jobs
}

fn fault_plan(fault_seed: u64) -> FaultPlan {
    FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(20), fault_seed)).with_outage(
        OutageModel::new(
            SiteSide::Dst,
            0,
            SimDuration::from_secs(60),
            SimDuration::from_secs(5),
            fault_seed ^ 0x0074_a63e,
        ),
    )
}

/// The shared XSEDE site of `serve-churn`.
pub fn serve_capacity() -> PoolCapacity {
    let tb = eadt_testbeds::xsede();
    PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, SERVE_SLOTS)
}

/// What set-up built: everything the timed call needs.
pub enum Prepared {
    /// A service session and its workload.
    Service(ServiceSession, eadt_fleet::Workload),
    /// A batch session and its jobs; `resume` selects `Session::resume`.
    Batch {
        /// The configured session.
        session: Session,
        /// The jobs, index order.
        jobs: Vec<JobSpec>,
        /// Whether the timed call is `Session::resume`.
        resume: bool,
    },
}

/// The report of the timed call.
pub enum Report {
    /// From `ServiceSession::run`.
    Service(ServiceReport),
    /// From `Session::run` or `Session::resume`.
    Fleet(FleetReport),
}

impl Report {
    /// The canonical report JSON.
    pub fn to_json(&self) -> String {
        match self {
            Report::Service(r) => r.to_json(),
            Report::Fleet(r) => r.to_json(),
        }
    }

    /// Per-job outcomes, job order.
    pub fn outcomes(&self) -> Vec<&JobOutcome> {
        match self {
            Report::Service(r) => r.jobs.iter().map(|j| &j.outcome).collect(),
            Report::Fleet(r) => r.jobs.iter().collect(),
        }
    }

    /// Scheduler rounds and preemptions (service only; zero otherwise).
    pub fn service_counts(&self) -> (u64, u64) {
        match self {
            Report::Service(r) => (
                r.rounds,
                r.jobs.iter().map(|j| u64::from(j.preemptions)).sum(),
            ),
            Report::Fleet(_) => (0, 0),
        }
    }

    /// Jobs that failed: returned an error, did not complete, or moved
    /// fewer bytes than requested.
    pub fn failed_jobs(&self) -> u64 {
        self.outcomes()
            .iter()
            .filter(|o| !job_ok(o.completed, o.moved_bytes, o.requested_bytes, &o.error))
            .count() as u64
    }

    /// Digest of what the simulation decided for every job, job order:
    /// completion, bytes, simulated duration and energy. The traced
    /// replay computes the same digest from its own engine reports.
    pub fn outcome_digest(&self) -> u64 {
        let mut h = OutcomeDigest::default();
        for o in self.outcomes() {
            h.push(
                o.completed,
                o.moved_bytes,
                o.requested_bytes,
                o.duration_s,
                o.energy_j,
            );
        }
        h.finish()
    }
}

/// Whether one job succeeded.
pub fn job_ok(completed: bool, moved: u64, requested: u64, error: &Option<String>) -> bool {
    completed && moved == requested && requested > 0 && error.is_none()
}

/// Running [`Report::outcome_digest`].
#[derive(Default)]
pub struct OutcomeDigest(crate::host::Fnv);

impl OutcomeDigest {
    /// Adds the next job.
    pub fn push(&mut self, completed: bool, moved: u64, requested: u64, dur_s: f64, energy: f64) {
        self.0
            .u64(u64::from(completed))
            .u64(moved)
            .u64(requested)
            .u64(dur_s.to_bits())
            .u64(energy.to_bits());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// A store directory that is fresh (removed, then created) when built
/// and removed again when dropped.
pub struct FreshDir(PathBuf);

impl FreshDir {
    /// Creates `path` empty.
    pub fn new(path: PathBuf) -> Result<FreshDir, String> {
        if path.exists() {
            std::fs::remove_dir_all(&path)
                .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
        }
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(FreshDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for FreshDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the workload: job specs, service workload or session, and for
/// the checkpointing workloads a fresh store (which `fleet-resume` fills
/// with one mid-flight checkpoint per job).
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    fraction: f64,
    store: Option<&FreshDir>,
) -> Result<Prepared, String> {
    let jobs = workload.job_specs(seed, fraction);
    let need_store = || store.ok_or("this workload needs a store directory");
    Ok(match workload {
        Workload::ServeChurn => {
            let site = "XSEDE";
            let mut w = eadt_fleet::Workload::new().site(site, serve_capacity());
            for (i, spec) in jobs.into_iter().enumerate() {
                let tenant = i as u32 % SERVE_TENANTS;
                w = w.job(
                    ServiceJob::new(spec, site)
                        .with_tenant(tenant)
                        .with_priority(tenant),
                );
            }
            let session = ServiceSession::builder()
                .root_seed(seed)
                .workers(workers)
                .policy(ArbitrationPolicy::StrictPriority)
                .quantum(SERVE_QUANTUM)
                .build();
            Prepared::Service(session, w)
        }
        Workload::FleetFigures => Prepared::Batch {
            session: Session::builder().root_seed(seed).workers(workers).build(),
            jobs,
            resume: false,
        },
        Workload::FleetDurable => Prepared::Batch {
            session: Session::builder()
                .root_seed(seed)
                .workers(workers)
                .checkpoints(need_store()?.path(), DURABLE_CADENCE)
                .metrics(SimDuration::from_secs(METRICS_CADENCE_S))
                .build(),
            jobs,
            resume: false,
        },
        Workload::FleetResume => {
            let dir = need_store()?.path();
            let store = CheckpointStore::create(dir).map_err(|e| e.to_string())?;
            for (index, spec) in jobs.iter().enumerate() {
                let seed = derive_job_seed(seed, index as u64);
                if let RunOutcome::Halted(engine) =
                    JobRunner::prepare(spec, seed).run_controlled(RunControl::halt_at(RESUME_HALT))
                {
                    store
                        .save_job_checkpoint(&JobCheckpoint {
                            schema: JOB_CHECKPOINT_SCHEMA_VERSION,
                            job: index,
                            label: spec.display_label(),
                            algorithm: spec.kind.name().to_string(),
                            seed,
                            engine: *engine,
                        })
                        .map_err(|e| e.to_string())?;
                }
            }
            Prepared::Batch {
                session: Session::builder()
                    .root_seed(seed)
                    .workers(workers)
                    .checkpoints(dir, RESUME_NO_CADENCE)
                    .build(),
                jobs,
                resume: true,
            }
        }
    })
}

/// The one timed call.
pub fn call(prepared: &Prepared) -> Result<Report, String> {
    match prepared {
        Prepared::Service(session, workload) => session
            .run(workload)
            .map(|run| Report::Service(run.report))
            .map_err(|e| e.to_string()),
        Prepared::Batch {
            session,
            jobs,
            resume,
        } => Ok(Report::Fleet(if *resume {
            session.resume(jobs)
        } else {
            session.run(jobs)
        })),
    }
}

/// The straight, checkpoint-free run the checkpointing workloads must
/// reproduce byte for byte: same jobs, same seed, same metrics setting.
pub fn straight_reference(workload: Workload, seed: u64, workers: usize) -> Option<FleetReport> {
    let jobs = workload.job_specs(seed, 1.0);
    let builder = Session::builder().root_seed(seed).workers(workers);
    match workload {
        Workload::FleetDurable => Some(
            builder
                .metrics(SimDuration::from_secs(METRICS_CADENCE_S))
                .build()
                .run(&jobs),
        ),
        Workload::FleetResume => Some(builder.build().run(&jobs)),
        Workload::ServeChurn | Workload::FleetFigures => None,
    }
}

/// The committed report digest of `workload` at [`DEFAULT_SEED`].
pub fn committed_digest(workload: Workload) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload.name())
            .then(|| u64::from_str_radix(hex.trim(), 16).ok())
            .flatten()
    })
}
