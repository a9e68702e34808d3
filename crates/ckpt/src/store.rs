//! The on-disk checkpoint directory: atomic writes, tolerant reads.
//!
//! Layout (one directory per fleet run, service run or single transfer):
//!
//! ```text
//! <dir>/job-<index>.ckpt.json     latest engine checkpoint of a batch job
//! <dir>/job-<index>.journal.jsonl event journal as of that checkpoint
//! <dir>/job-<index>.outcome.json  final outcome (job finished; ckpt gone)
//! <dir>/service.ckpt.json         service scheduler snapshot, with the
//!                                 suspended jobs' engine checkpoints
//! <dir>/service.journal.jsonl     service journal prefix
//! ```
//!
//! Every write goes through a temp file in the same directory followed by
//! a rename, so a crash mid-write leaves either the old file or the new
//! one — never a half-written checkpoint. (Journals are the exception by
//! design: a crashed *appender* tears its final line, which
//! [`Journal::recover_jsonl`](eadt_telemetry::Journal::recover_jsonl)
//! repairs on resume.)

use crate::error::CkptError;
use eadt_transfer::EngineCheckpoint;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Schema version of the [`JobCheckpoint`] wrapper (the engine checkpoint
/// inside carries its own version).
pub const JOB_CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// An engine checkpoint bound to the fleet job that produced it, so a
/// resume against a reordered or edited job list is caught before the
/// engine ever sees the snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCheckpoint {
    /// Wrapper schema version ([`JOB_CHECKPOINT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Job index within the batch.
    pub job: usize,
    /// Display label of the job spec.
    pub label: String,
    /// Algorithm display name.
    pub algorithm: String,
    /// The seed the job ran at.
    pub seed: u64,
    /// The engine state at the halt boundary.
    pub engine: EngineCheckpoint,
}

impl JobCheckpoint {
    /// Serializes as pretty JSON with a trailing newline (deterministic:
    /// shortest-roundtrip floats, declaration field order).
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        text.push('\n');
        text
    }

    /// Parses and version-checks a wrapper produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let ck: JobCheckpoint = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if ck.schema != JOB_CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "job checkpoint schema {} (this build reads {})",
                ck.schema, JOB_CHECKPOINT_SCHEMA_VERSION
            ));
        }
        Ok(ck)
    }

    /// Checks the wrapper against the job it is about to resume.
    pub fn validate(&self, job: usize, label: &str, seed: u64) -> Result<(), CkptError> {
        if self.job != job {
            return Err(CkptError::Mismatch {
                detail: format!("checkpoint is for job {}, resuming job {job}", self.job),
            });
        }
        if self.label != label {
            return Err(CkptError::Mismatch {
                detail: format!("checkpoint label {:?}, job label {label:?}", self.label),
            });
        }
        if self.seed != seed {
            return Err(CkptError::Mismatch {
                detail: format!("checkpoint seed {}, job seed {seed}", self.seed),
            });
        }
        Ok(())
    }
}

/// A checkpoint directory with atomic writes.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if necessary) a checkpoint directory.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CkptError::Io {
            path: dir.clone(),
            detail: e.to_string(),
        })?;
        Ok(CheckpointStore { dir })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint file name for a job.
    pub fn checkpoint_name(job: usize) -> String {
        format!("job-{job}.ckpt.json")
    }

    /// Journal file name for a job.
    pub fn journal_name(job: usize) -> String {
        format!("job-{job}.journal.jsonl")
    }

    /// Final-outcome file name for a job.
    pub fn outcome_name(job: usize) -> String {
        format!("job-{job}.outcome.json")
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Writes `contents` to `name` atomically (temp file + rename).
    pub fn write(&self, name: &str, contents: &str) -> Result<(), CkptError> {
        let target = self.path(name);
        let tmp = self.path(&format!(".{name}.tmp"));
        let io = |e: std::io::Error| CkptError::Io {
            path: target.clone(),
            detail: e.to_string(),
        };
        fs::write(&tmp, contents).map_err(io)?;
        fs::rename(&tmp, &target).map_err(io)
    }

    /// Reads `name`; `Ok(None)` when the file does not exist, `Err` for
    /// any other failure — an unreadable checkpoint is a hard error, not
    /// an absent one.
    pub fn read(&self, name: &str) -> Result<Option<String>, CkptError> {
        let path = self.path(name);
        match fs::read_to_string(&path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CkptError::Io {
                path,
                detail: e.to_string(),
            }),
        }
    }

    /// Removes `name` if present (used when a job finishes and its
    /// checkpoint becomes garbage).
    pub fn remove(&self, name: &str) -> Result<(), CkptError> {
        let path = self.path(name);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CkptError::Io {
                path,
                detail: e.to_string(),
            }),
        }
    }

    /// Reads and parses a job checkpoint; `Ok(None)` when absent.
    pub fn load_job_checkpoint(&self, job: usize) -> Result<Option<JobCheckpoint>, CkptError> {
        let name = Self::checkpoint_name(job);
        match self.read(&name)? {
            None => Ok(None),
            Some(text) => {
                JobCheckpoint::from_json(&text)
                    .map(Some)
                    .map_err(|detail| CkptError::Corrupt {
                        path: self.path(&name),
                        detail,
                    })
            }
        }
    }

    /// Writes a job checkpoint atomically.
    pub fn save_job_checkpoint(&self, ck: &JobCheckpoint) -> Result<(), CkptError> {
        self.write(&Self::checkpoint_name(ck.job), &ck.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eadt-ckpt-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_read_remove_round_trip() {
        let dir = tmp_dir("rw");
        let store = CheckpointStore::create(&dir).unwrap();
        assert_eq!(store.read("a.json").unwrap(), None);
        store.write("a.json", "{}\n").unwrap();
        assert_eq!(store.read("a.json").unwrap().as_deref(), Some("{}\n"));
        store.remove("a.json").unwrap();
        assert_eq!(store.read("a.json").unwrap(), None);
        store.remove("a.json").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = tmp_dir("atomic");
        let store = CheckpointStore::create(&dir).unwrap();
        store.write("b.json", "x").unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["b.json".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_checkpoint_validation_catches_drift() {
        let ck = JobCheckpoint {
            schema: JOB_CHECKPOINT_SCHEMA_VERSION,
            job: 3,
            label: "mine/didclab".to_string(),
            algorithm: "MinE".to_string(),
            seed: 11,
            engine: sample_engine_checkpoint(),
        };
        ck.validate(3, "mine/didclab", 11).unwrap();
        assert!(ck.validate(2, "mine/didclab", 11).is_err());
        assert!(ck.validate(3, "other", 11).is_err());
        assert!(ck.validate(3, "mine/didclab", 12).is_err());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut ck = JobCheckpoint {
            schema: JOB_CHECKPOINT_SCHEMA_VERSION,
            job: 0,
            label: String::new(),
            algorithm: String::new(),
            seed: 0,
            engine: sample_engine_checkpoint(),
        };
        assert!(JobCheckpoint::from_json(&ck.to_json()).is_ok());
        ck.schema = JOB_CHECKPOINT_SCHEMA_VERSION + 1;
        let err = JobCheckpoint::from_json(&ck.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    fn sample_engine_checkpoint() -> EngineCheckpoint {
        use eadt_sim::{Bytes, SimTime, TimeSeries};
        EngineCheckpoint {
            version: eadt_transfer::CHECKPOINT_SCHEMA_VERSION,
            fingerprint: 1,
            stage: 0,
            now: SimTime::ZERO,
            slices_done: 0,
            estimated_energy_j: 0.0,
            retransmitted: Bytes::ZERO,
            ledger: eadt_telemetry::EnergyLedger::default(),
            horizon_end: None,
            open_spans: Vec::new(),
            moved_total: Bytes::ZERO,
            wire_bytes_f: 0.0,
            audit_gross: Bytes::ZERO,
            audit_stage_requested: Bytes::ZERO,
            chunk_stats: Vec::new(),
            throughput_series: TimeSeries::new(),
            power_series: TimeSeries::new(),
            concurrency_series: TimeSeries::new(),
            chunks: Vec::new(),
            prev_src_active: Vec::new(),
            prev_dst_active: Vec::new(),
            faults: None,
            controller: eadt_transfer::ControllerSnapshot::stateless(),
            metrics: None,
            journal_seq: 0,
        }
    }
}
