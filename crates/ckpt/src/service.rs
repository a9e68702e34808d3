//! Service-session snapshots: the scheduler state of a continuous fleet
//! service (DESIGN.md §16) at a round boundary.
//!
//! An engine checkpoint captures *one transfer's* in-flight state; a
//! [`ServiceCheckpoint`] captures the layer above it — which jobs are
//! still pending, queued, resident in a site pool, or finished, plus the
//! per-job admission timeline — and embeds the engine checkpoint of
//! every job suspended mid-transfer. Written in one atomic step, it is
//! the commit point: together with the finished jobs' outcome files and
//! the persisted service journal prefix, the checkpoint directory holds a
//! consistent snapshot of the whole service as of the round it was
//! written, and a resumed service replays the remaining rounds
//! byte-identically.

use crate::error::CkptError;
use crate::store::{CheckpointStore, JobCheckpoint};
use serde::{Deserialize, Serialize};

/// Schema version of [`ServiceCheckpoint`] (versioning policy: §13 —
/// additive growth bumps the version, readers reject versions they do
/// not understand). Version 2 embeds the suspended jobs' engine
/// checkpoints (`engines`) instead of pointing at per-job files.
pub const SERVICE_CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// One job's service-side timeline, as known at the checkpoint round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceJobState {
    /// Service-wide job index.
    pub job: u32,
    /// Round the job first entered a site pool (`None` while waiting).
    pub admitted_round: Option<u64>,
    /// Round the job finished (`None` while unfinished).
    pub finished_round: Option<u64>,
    /// Times the scheduler evicted the job from its pool.
    pub preemptions: u32,
}

/// The scheduler state of a continuous fleet service at a round
/// boundary.
///
/// Job indices refer to the workload's job list; jobs absent from
/// `queue`, `resident` and `finished` have not arrived yet (their
/// arrival rounds are recomputed from the root seed on resume, so the
/// arrival process itself needs no state here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Schema version ([`SERVICE_CHECKPOINT_SCHEMA_VERSION`]).
    pub version: u32,
    /// Workload fingerprint: hash of root seed, policy, quantum, site
    /// and job shape. A resume against an edited workload is rejected
    /// before any engine state loads.
    pub fingerprint: u64,
    /// The root seed the service ran at.
    pub root_seed: u64,
    /// The next round to execute (all rounds below it are complete).
    pub round: u64,
    /// Jobs waiting for admission, queue order.
    pub queue: Vec<u32>,
    /// Jobs resident in site pools, admission order. Each has its engine
    /// checkpoint in `engines`.
    pub resident: Vec<u32>,
    /// Jobs that finished, index order. Each has a
    /// `job-<i>.outcome.json` beside this file.
    pub finished: Vec<u32>,
    /// Per-job admission timeline (admitted/finished rounds, preemption
    /// counts), index order over all jobs.
    pub jobs: Vec<ServiceJobState>,
    /// Sequence number the service journal will assign next; the
    /// persisted journal prefix ends exactly here.
    pub journal_seq: u64,
    /// Engine checkpoint of every job suspended mid-transfer — each
    /// resident job, and each queued job preempted after it started —
    /// job-index order. A queued job without one restarts from scratch.
    /// Written one per line after the scheduler line (see
    /// [`Self::to_json`]).
    #[serde(skip)]
    pub engines: Vec<JobCheckpoint>,
}

impl ServiceCheckpoint {
    /// Serializes as JSON Lines: the scheduler state on the first line,
    /// then each embedded engine checkpoint on a line of its own, each
    /// line compact and newline-terminated (deterministic: sorted keys,
    /// shortest-roundtrip floats). The serializer builds a value tree
    /// before it writes, so one line per engine keeps that tree to one
    /// engine: a single tree for all 16 engines of a full XSEDE site took
    /// about 40% longer to write, and pretty-printing would make
    /// indentation more than half of the bytes.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string());
        text.push('\n');
        for engine in &self.engines {
            text.push_str(&serde_json::to_string(engine).unwrap_or_else(|_| "{}".to_string()));
            text.push('\n');
        }
        text
    }

    /// Parses and version-checks a snapshot produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().filter(|line| !line.trim().is_empty());
        let head = lines.next().ok_or("service checkpoint is empty")?;
        let mut ck: ServiceCheckpoint = serde_json::from_str(head).map_err(|e| e.to_string())?;
        if ck.version != SERVICE_CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "service checkpoint schema {} (this build reads {})",
                ck.version, SERVICE_CHECKPOINT_SCHEMA_VERSION
            ));
        }
        ck.engines = lines
            .map(|line| serde_json::from_str(line).map_err(|e| format!("engine line: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(ck)
    }

    /// Checks the snapshot against the workload it is about to resume.
    pub fn validate(&self, fingerprint: u64, root_seed: u64) -> Result<(), CkptError> {
        if self.fingerprint != fingerprint {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "service checkpoint fingerprint {:#018x} does not match workload {fingerprint:#018x}",
                    self.fingerprint
                ),
            });
        }
        if self.root_seed != root_seed {
            return Err(CkptError::Mismatch {
                detail: format!(
                    "service checkpoint root seed {}, resuming with {root_seed}",
                    self.root_seed
                ),
            });
        }
        Ok(())
    }
}

impl CheckpointStore {
    /// File name of the service-session snapshot.
    pub fn service_checkpoint_name() -> &'static str {
        "service.ckpt.json"
    }

    /// File name of the persisted service journal prefix.
    pub fn service_journal_name() -> &'static str {
        "service.journal.jsonl"
    }

    /// Reads and parses the service checkpoint; `Ok(None)` when absent.
    pub fn load_service_checkpoint(&self) -> Result<Option<ServiceCheckpoint>, CkptError> {
        let name = Self::service_checkpoint_name();
        match self.read(name)? {
            None => Ok(None),
            Some(text) => ServiceCheckpoint::from_json(&text)
                .map(Some)
                .map_err(|detail| CkptError::Corrupt {
                    path: self.dir().join(name),
                    detail,
                }),
        }
    }

    /// Writes the service checkpoint atomically.
    pub fn save_service_checkpoint(&self, ck: &ServiceCheckpoint) -> Result<(), CkptError> {
        self.write(Self::service_checkpoint_name(), &ck.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JOB_CHECKPOINT_SCHEMA_VERSION;
    use eadt_core::baselines::ProMc;
    use eadt_core::{Algorithm, RunCtx};
    use eadt_transfer::{RunControl, RunOutcome};

    /// A real engine checkpoint for job `job`, halted mid-transfer.
    fn engine(job: usize) -> JobCheckpoint {
        let tb = eadt_testbeds::didclab();
        let dataset = tb.dataset_spec.scaled(0.01).generate(job as u64);
        let RunOutcome::Halted(engine) = ProMc::new(2)
            .run_controlled(&mut RunCtx::new(&tb.env, &dataset), RunControl::halt_at(20))
        else {
            panic!("run finished before the halt slice");
        };
        JobCheckpoint {
            schema: JOB_CHECKPOINT_SCHEMA_VERSION,
            job,
            label: format!("promc/{job}"),
            algorithm: "ProMC".to_string(),
            seed: job as u64,
            engine: *engine,
        }
    }

    fn sample() -> ServiceCheckpoint {
        ServiceCheckpoint {
            version: SERVICE_CHECKPOINT_SCHEMA_VERSION,
            fingerprint: 0xfeed_beef,
            root_seed: 42,
            round: 7,
            queue: vec![3],
            resident: vec![1, 2],
            finished: vec![0],
            jobs: vec![
                ServiceJobState {
                    job: 0,
                    admitted_round: Some(0),
                    finished_round: Some(5),
                    preemptions: 0,
                },
                ServiceJobState {
                    job: 1,
                    admitted_round: Some(1),
                    finished_round: None,
                    preemptions: 1,
                },
            ],
            journal_seq: 19,
            engines: vec![engine(1), engine(2)],
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let ck = sample();
        let text = ck.to_json();
        assert_eq!(
            text.lines().count(),
            3,
            "scheduler line plus one per engine"
        );
        let back = ServiceCheckpoint::from_json(&text).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.to_json(), text);
        let truncated = &text[..text.len() - 40];
        assert!(ServiceCheckpoint::from_json(truncated).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut ck = sample();
        ck.version = SERVICE_CHECKPOINT_SCHEMA_VERSION + 1;
        let err = ServiceCheckpoint::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn validation_catches_workload_drift() {
        let ck = sample();
        ck.validate(0xfeed_beef, 42).unwrap();
        assert!(ck.validate(0xdead_beef, 42).is_err());
        assert!(ck.validate(0xfeed_beef, 43).is_err());
    }

    #[test]
    fn store_round_trip() {
        let dir = std::env::temp_dir().join(format!("eadt-ckpt-service-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        assert!(store.load_service_checkpoint().unwrap().is_none());
        let ck = sample();
        store.save_service_checkpoint(&ck).unwrap();
        assert_eq!(store.load_service_checkpoint().unwrap(), Some(ck));
        let _ = std::fs::remove_dir_all(dir);
    }
}
