//! Fleet *service* determinism: a multi-tenant workload's report and
//! journal are pure functions of (root seed, workload, policy, quantum) —
//! worker count must leave no trace in the bytes, even when the schedule
//! preempts and resumes jobs mid-simulation (DESIGN.md §16).

use eadt::core::AlgorithmKind;
use eadt::endsys::{ArbitrationPolicy, PoolCapacity};
use eadt::fleet::{JobSpec, ServiceJob, ServiceRun, ServiceSession, Workload};

fn pool(slots: u32) -> PoolCapacity {
    let tb = eadt::testbeds::didclab();
    PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, slots)
}

fn spec(kind: AlgorithmKind, scale: f64) -> JobSpec {
    JobSpec::new(kind, eadt::testbeds::didclab())
        .with_scale(scale)
        .with_max_channel(2)
}

/// Two tenants contending for one site; slots for both, so contention is
/// purely in the bandwidth/disk arbitration.
fn contended_workload() -> Workload {
    Workload::new()
        .site("didclab", pool(2))
        .job(ServiceJob::new(spec(AlgorithmKind::Sc, 0.01), "didclab").with_tenant(0))
        .job(
            ServiceJob::new(spec(AlgorithmKind::ProMc, 0.01), "didclab")
                .with_tenant(1)
                .with_priority(5),
        )
}

/// One core slot and a late-arriving high-priority job: under strict
/// priority the low-priority incumbent is preempted mid-transfer and
/// later resumed from its engine checkpoint.
fn preemption_workload() -> Workload {
    Workload::new()
        .site("didclab", pool(1))
        .arrival_gap_s(20.0)
        .job(
            ServiceJob::new(spec(AlgorithmKind::Sc, 0.05), "didclab")
                .with_tenant(0)
                .with_priority(1),
        )
        .job(
            ServiceJob::new(spec(AlgorithmKind::ProMc, 0.01), "didclab")
                .with_tenant(1)
                .with_priority(9),
        )
}

fn run(workload: &Workload, seed: u64, workers: usize, policy: ArbitrationPolicy) -> ServiceRun {
    ServiceSession::builder()
        .root_seed(seed)
        .workers(workers)
        .policy(policy)
        .quantum(100)
        .build()
        .run(workload)
        .expect("workload is valid")
}

#[test]
fn service_report_and_journal_are_identical_across_worker_counts() {
    let workload = contended_workload();
    let baseline = run(&workload, 7, 1, ArbitrationPolicy::FairShare);
    let base_json = baseline.report.to_json();
    let base_journal = baseline.journal.to_jsonl();
    assert!(base_json.contains("\"root_seed\": 7"), "{base_json}");
    assert_eq!(baseline.report.completed_count(), 2);
    for workers in [2, 4] {
        let got = run(&workload, 7, workers, ArbitrationPolicy::FairShare);
        assert_eq!(
            base_json,
            got.report.to_json(),
            "{workers}-worker service report diverged from serial"
        );
        assert_eq!(
            base_journal,
            got.journal.to_jsonl(),
            "{workers}-worker service journal diverged from serial"
        );
    }
}

#[test]
fn preemption_and_resume_leave_no_worker_count_trace() {
    let workload = preemption_workload();
    let baseline = run(&workload, 5, 1, ArbitrationPolicy::StrictPriority);
    let journal = baseline.journal.to_jsonl();
    assert!(
        baseline.report.jobs.iter().any(|j| j.preemptions > 0),
        "scenario must actually preempt: {}",
        baseline.report.to_json()
    );
    assert!(journal.contains("\"ev\":\"job_preempted\""), "{journal}");
    assert!(journal.contains("\"ev\":\"job_resumed\""), "{journal}");
    assert_eq!(baseline.report.completed_count(), 2, "victim must finish");
    for workers in [2, 4] {
        let got = run(&workload, 5, workers, ArbitrationPolicy::StrictPriority);
        assert_eq!(
            baseline.report.to_json(),
            got.report.to_json(),
            "{workers}-worker preempting schedule diverged from serial"
        );
        assert_eq!(
            journal,
            got.journal.to_jsonl(),
            "{workers}-worker journal diverged from serial"
        );
    }
}

#[test]
fn contended_tenants_differ_from_isolated_baseline() {
    let shared = run(&contended_workload(), 3, 2, ArbitrationPolicy::FairShare).report;
    // Same specs and explicit seeds, each alone on an identical site.
    let mut isolated = Vec::new();
    for job in contended_workload().jobs() {
        let solo = Workload::new()
            .site("didclab", pool(2))
            .job(ServiceJob::new(
                job.spec
                    .clone()
                    .with_seed(shared.jobs[isolated.len()].outcome.seed),
                "didclab",
            ));
        isolated.push(run(&solo, 3, 1, ArbitrationPolicy::FairShare).report);
    }
    let shared_site = &shared.sites[0];
    let solo_energy: f64 = isolated.iter().map(|r| r.sites[0].energy_j).sum();
    assert!(
        (shared_site.energy_j - solo_energy).abs() > 1e-6,
        "sharing the site must change aggregate energy: shared {} vs isolated {}",
        shared_site.energy_j,
        solo_energy
    );
    for (j, solo) in shared.jobs.iter().zip(&isolated) {
        assert!(
            (j.outcome.throughput_mbps - solo.jobs[0].outcome.throughput_mbps).abs() > 1e-6,
            "tenant {} throughput unchanged by contention",
            j.tenant
        );
    }
}

#[test]
fn fair_and_priority_schedules_differ_but_each_is_deterministic() {
    let workload = preemption_workload();
    let fair = run(&workload, 11, 2, ArbitrationPolicy::FairShare);
    let strict = run(&workload, 11, 2, ArbitrationPolicy::StrictPriority);
    assert_ne!(
        fair.report.to_json(),
        strict.report.to_json(),
        "arbitration policy must reach the report"
    );
    assert_ne!(fair.journal.to_jsonl(), strict.journal.to_jsonl());
    for (name, first) in [("fair", &fair), ("priority", &strict)] {
        let policy = match name {
            "fair" => ArbitrationPolicy::FairShare,
            _ => ArbitrationPolicy::StrictPriority,
        };
        let again = run(&workload, 11, 2, policy);
        assert_eq!(
            first.report.to_json(),
            again.report.to_json(),
            "{name} policy rerun diverged"
        );
        assert_eq!(first.journal.to_jsonl(), again.journal.to_jsonl());
    }
}

/// Two long low-priority jobs take both slots at round 0; at round 1
/// three equal-priority high jobs (2, 3, 4) and one more low job (5)
/// arrive. The pool has bandwidth for every resident, so each eviction
/// below is a priority preemption, never a zero-grant requeue.
fn tie_break_workload() -> Workload {
    let tb = eadt::testbeds::didclab();
    let cap = PoolCapacity::from_servers(tb.env.link.bandwidth * 8.0, &tb.env.src.servers, 2);
    [1, 1, 5, 5, 5, 1].into_iter().enumerate().fold(
        Workload::new().site("didclab", cap).arrival_gap_s(2.0),
        |w, (i, priority)| {
            let scale = if priority == 1 { 0.05 } else { 0.01 };
            w.job(
                ServiceJob::new(spec(AlgorithmKind::Sc, scale), "didclab")
                    .with_tenant(i as u32)
                    .with_priority(priority),
            )
        },
    )
}

/// The journal as `round:<event><job>` tokens (`P<victim><<by>` for a
/// preemption), rounds counted at quantum 100 of 100 ms slices.
fn schedule(run: &ServiceRun) -> Vec<String> {
    use eadt::telemetry::Event;
    const ROUND_US: u64 = 10_000_000;
    run.journal
        .records()
        .iter()
        .map(|r| {
            let round = r.t_us / ROUND_US;
            match &r.event {
                Event::JobSubmitted { job, .. } => format!("{round}:S{job}"),
                Event::JobAdmitted { job, .. } => format!("{round}:A{job}"),
                Event::JobPreempted { job, by, .. } => {
                    format!(
                        "{round}:P{job}<{}",
                        by.map_or("-".into(), |b| b.to_string())
                    )
                }
                Event::JobResumed { job, .. } => format!("{round}:R{job}"),
                Event::JobFinished { job, .. } => format!("{round}:F{job}"),
                other => panic!("unexpected service event {other:?}"),
            }
        })
        .collect()
}

/// Pins the strict-priority tie-breaks among equal priorities:
/// - the preemption challenger is the *last* queued of the highest
///   waiting priority (job 4 displaces both low residents);
/// - the victim is the *first* resident of the lowest priority (0, then 1);
/// - admission takes the *earliest* queued of the highest priority (2, then 3);
/// - an evicted job rejoins at the back of the queue: job 5, queued
///   before 0 was evicted, is admitted ahead of it, and 0 resumes ahead of 1.
#[test]
fn strict_priority_tie_breaks_follow_queue_order() {
    let workload = tie_break_workload();
    let baseline = run(&workload, 12, 1, ArbitrationPolicy::StrictPriority);
    let expected = "0:S0 0:S1 0:A0 0:A1 \
                    1:S2 1:S3 1:S4 1:S5 1:P0<4 1:A2 \
                    2:P1<4 2:A3 \
                    4:F2 4:A4 \
                    9:F3 9:F4 9:A5 9:R0 \
                    14:F5 14:F0 14:R1 \
                    17:F1";
    assert_eq!(schedule(&baseline).join(" "), expected);
    assert_eq!(baseline.report.completed_count(), 6);
    let got = run(&workload, 12, 2, ArbitrationPolicy::StrictPriority);
    assert_eq!(baseline.journal.to_jsonl(), got.journal.to_jsonl());
    assert_eq!(baseline.report.to_json(), got.report.to_json());
}

/// The mix of `eadt serve --testbed xsede --algorithms mine,htee,slaee,promc
/// --jobs 12 --tenants 3 --slots 3 --arrival-gap 5 --scale 0.02`: every
/// tenant's priority is its index, and jobs keep finishing between the
/// checkpoint cadence's commits.
fn controller_mix_workload() -> Workload {
    let tb = eadt::testbeds::xsede();
    let cap = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 3);
    let kinds = [
        AlgorithmKind::MinE,
        AlgorithmKind::Htee,
        AlgorithmKind::Slaee,
        AlgorithmKind::ProMc,
    ];
    (0..12).fold(
        Workload::new().site("xsede", cap).arrival_gap_s(5.0),
        |w, i| {
            let tenant = (i % 3) as u32;
            w.job(
                ServiceJob::new(
                    JobSpec::new(kinds[i % kinds.len()], tb.clone())
                        .with_scale(0.02)
                        .with_max_channel(8),
                    "xsede",
                )
                .with_tenant(tenant)
                .with_priority(tenant),
            )
        },
    )
}

/// Resuming a checkpointed run that already finished replays the rounds
/// after its last commit. The commit must hold every engine those rounds
/// need — also for the jobs that finished after it — and the replay must
/// reproduce the straight run byte for byte.
#[test]
fn resuming_a_finished_checkpointed_run_reproduces_it() {
    let workload = controller_mix_workload();
    let session = |dir: Option<&std::path::Path>| {
        let builder = ServiceSession::builder()
            .root_seed(8)
            .workers(2)
            .policy(ArbitrationPolicy::StrictPriority)
            .quantum(20);
        match dir {
            Some(dir) => builder.checkpoints(dir, 7),
            None => builder,
        }
        .build()
    };
    let straight = session(None).run(&workload).expect("workload is valid");
    assert_eq!(straight.report.completed_count(), 12);
    assert!(straight
        .journal
        .to_jsonl()
        .contains("\"ev\":\"job_resumed\""));

    let dir = std::env::temp_dir().join(format!(
        "eadt-service-finished-resume-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpointed = session(Some(&dir));
    let first = checkpointed.run(&workload).expect("checkpointed run");
    assert_eq!(first.report.to_json(), straight.report.to_json());
    assert_eq!(first.journal.to_jsonl(), straight.journal.to_jsonl());
    let resumed = checkpointed
        .resume(&workload)
        .expect("resume of a finished run");
    assert_eq!(resumed.report.to_json(), straight.report.to_json());
    assert_eq!(resumed.journal.to_jsonl(), straight.journal.to_jsonl());
    let _ = std::fs::remove_dir_all(&dir);
}
