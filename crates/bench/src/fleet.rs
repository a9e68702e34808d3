//! `BENCH_fleet.json` records: the file's merge helper, the `eadt serve`
//! scaling workload that `benches/serve_scale.rs` times at growing job
//! counts, and the committed bound on the heap a finished service run
//! keeps per job, which `tests/memory_gate.rs` enforces.

use eadt_core::AlgorithmKind;
use eadt_endsys::{ArbitrationPolicy, PoolCapacity};
use eadt_fleet::{JobSpec, ServiceJob, ServiceSession, Workload};

/// Core slots of the shared serve site.
pub const SERVE_SLOTS: u32 = 16;
/// Scheduling quantum of the serve workload, engine slices. Short enough
/// that strict priority preempts and resumes jobs all the time.
pub const SERVE_QUANTUM: u64 = 50;
/// Dataset scale of every serve job.
pub const SERVE_SCALE: f64 = 0.02;
/// Tenants of the serve workload; a job's priority is its tenant.
pub const SERVE_TENANTS: u32 = 4;
/// Root seed of the serve workload.
pub const SERVE_SEED: u64 = 42;

/// Algorithms the serve workload cycles through, so any multiple of
/// their count is the same job mix.
const SERVE_KINDS: [AlgorithmKind; 7] = [
    AlgorithmKind::MinE,
    AlgorithmKind::Htee,
    AlgorithmKind::Slaee,
    AlgorithmKind::Guc,
    AlgorithmKind::Go,
    AlgorithmKind::Sc,
    AlgorithmKind::ProMc,
];

/// `jobs` XSEDE transfers all arriving at time zero on one shared site of
/// [`SERVE_SLOTS`] slots: what `eadt serve --jobs N --tenants 4 --slots 16
/// --arrival-gap 0 --scale 0.02` submits, over every algorithm.
pub fn serve_workload(jobs: usize) -> Workload {
    let tb = eadt_testbeds::xsede();
    let site = tb.name.clone();
    let capacity =
        PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, SERVE_SLOTS);
    (0..jobs).fold(Workload::new().site(site.clone(), capacity), |w, i| {
        let tenant = i as u32 % SERVE_TENANTS;
        let spec =
            JobSpec::new(SERVE_KINDS[i % SERVE_KINDS.len()], tb.clone()).with_scale(SERVE_SCALE);
        w.job(
            ServiceJob::new(spec, site.clone())
                .with_tenant(tenant)
                .with_priority(tenant),
        )
    })
}

/// The serve session: strict priority at quantum [`SERVE_QUANTUM`].
pub fn serve_session(workers: usize) -> ServiceSession {
    ServiceSession::builder()
        .root_seed(SERVE_SEED)
        .workers(workers)
        .policy(ArbitrationPolicy::StrictPriority)
        .quantum(SERVE_QUANTUM)
        .build()
}

/// Workspace-root path of `BENCH_fleet.json`.
fn bench_json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json")
}

/// Merges one top-level key into `BENCH_fleet.json`, preserving every
/// other key — in particular the committed `memory_gate` bound, which
/// regeneration must never overwrite.
pub fn merge_into_bench_json(key: &str, value: serde_json::Value) {
    let path = bench_json_path();
    let mut root: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!({ "schema": 1 }));
    if let Some(map) = root.as_object_mut() {
        map.insert(key.to_string(), value);
    }
    let mut text = serde_json::to_string_pretty(&root).expect("serializable");
    text.push('\n');
    std::fs::write(path, text).expect("workspace root is writable");
}

/// The committed retained-heap bound (the `memory_gate` key of
/// `BENCH_fleet.json`): heap bytes a finished [`ServiceSession::run`]
/// still holds per job of [`serve_workload`]. Live-byte counts are
/// deterministic, so the bound holds on any host.
#[derive(Debug, Clone, Copy)]
pub struct MemoryGate {
    /// Allowed retained heap per job, bytes.
    pub max_retained_bytes_per_job: f64,
}

impl MemoryGate {
    /// Loads the committed bound, falling back to the default the repo
    /// ships when the key is absent.
    pub fn load() -> Self {
        let bound = std::fs::read_to_string(bench_json_path())
            .ok()
            .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
            .and_then(|root| root["memory_gate"]["max_retained_bytes_per_job"].as_f64());
        MemoryGate {
            max_retained_bytes_per_job: bound.unwrap_or(4096.0),
        }
    }
}
