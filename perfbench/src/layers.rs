//! The traced run: per-layer metrics, measured from outside the program
//! by timing the public calls each layer offers, with every call wrapped
//! in a span kept in memory and written as a Chrome trace at the end.
//!
//! It has four parts.
//!
//! 1. **Isolated calls.** The workload's timed call runs untraced in
//!    child processes at 1 worker (full size and a quarter) and at the
//!    run's worker count. These give the pool speed-up, the growth of
//!    per-job cost and memory with job count, and the untraced rate the
//!    tracing overhead is taken against. The service counts come from a
//!    `serve-churn` call, whichever workload runs.
//! 2. **Replay.** `serve-churn` makes its call once more, traced, on this
//!    thread (its scheduler is private, so the span is the whole call).
//!    The batch workloads replay each job's protocol through the public
//!    calls `Session` makes: prepare → run; prepare → halt →
//!    `save_job_checkpoint` → resume; `load_job_checkpoint` → validate →
//!    resume. Their checkpoint counts are therefore exact. The replayed
//!    outcomes must equal the untraced call's.
//! 3. **Probes.** On a sample of the workload's own jobs: dataset
//!    generation, `JobRunner::prepare`, a straight run, the same run
//!    with metrics, with macro-stepping off, and split at the workload's
//!    halt slice with the checkpoint encoded, decoded, saved and loaded
//!    in between. Every variant must reproduce the straight run.
//! 4. **Kernel and arbiter.** The slice-kernel scenarios of `eadt-bench`
//!    and `arbitrate()` on the service site, independent of the
//!    workload.

use crate::host;
use crate::trace::{Summary, Tracer};
use crate::workload::{
    self, FreshDir, OutcomeDigest, Workload, DEFAULT_SEED, FIGURE_KINDS, METRICS_CADENCE_S,
    RESUME_HALT,
};
use crate::{out_dir, spawn_iteration, Iteration, Metric, Outcome};
use eadt_bench::kernel::{
    count_executed_slices, kernel_env, measure_allocs_per_slice, steady_scenario,
    turbulent_scenario,
};
use eadt_ckpt::{CheckpointStore, JobCheckpoint, JOB_CHECKPOINT_SCHEMA_VERSION};
use eadt_core::AlgorithmKind;
use eadt_endsys::{arbitrate, ArbitrationPolicy, PoolMember};
use eadt_fleet::{derive_job_seed, JobRunner, JobSpec};
use eadt_sim::{Rate, SimDuration};
use eadt_telemetry::{MetricsRegistry, Telemetry};
use eadt_transfer::{
    Engine, EngineCheckpoint, NullController, RunControl, RunOutcome, TransferReport,
};
use std::hint::black_box;

/// Probed jobs: the first whole unit of each workload's job list, so
/// every algorithm (and every tenant, level or testbed) is present.
fn probe_count(w: Workload) -> usize {
    match w {
        Workload::ServeChurn => 140,
        Workload::FleetFigures => 147,
        Workload::FleetDurable | Workload::FleetResume => 21,
    }
}

/// Every how many probed jobs one also runs with macro-stepping off.
/// Coprime with the 7-algorithm panel, so every algorithm is covered.
fn macro_stride(w: Workload) -> usize {
    match w {
        Workload::FleetFigures => 5,
        Workload::ServeChurn | Workload::FleetDurable | Workload::FleetResume => 1,
    }
}

/// Whether probed job `index` is also split at the halt slice, with its
/// checkpoint encoded, decoded, saved and loaded. A scale-1 checkpoint
/// takes seconds to decode, so `fleet-figures` (which never
/// checkpoints) probes one job: the first of the DIDCLAB sweep, whose
/// checkpoint is the smallest of the three testbeds'.
fn ckpt_probed(w: Workload, index: usize) -> bool {
    match w {
        Workload::FleetFigures => index == 98,
        Workload::ServeChurn | Workload::FleetDurable | Workload::FleetResume => true,
    }
}

/// Halt slice of the resuming session's single leg: beyond any job.
const NO_HALT: u64 = 1 << 40;

/// Timed kernel runs per scenario.
const KERNEL_RUNS: usize = 5;

/// `arbitrate()` probe: timed batches per policy, and calls per batch.
const ARBITRATE_BATCHES: usize = 200;
const ARBITRATE_CALLS: usize = 100;

/// Residents the arbiter probe splits the service site among (its core
/// slot count).
const ARBITRATE_MEMBERS: u32 = 16;

/// Collected check failures.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

/// The traced run of `w`.
pub fn run(w: Workload, seed: u64, workers: usize) -> Result<Outcome, String> {
    let mut checks = Checks::default();

    // 1. Isolated untraced calls.
    let full_1 = spawn_iteration(w, seed, 1, 1.0)?;
    let quarter_1 = spawn_iteration(w, seed, 1, 0.25)?;
    let full_n = spawn_iteration(w, seed, workers, 1.0)?;
    let serve = if w == Workload::ServeChurn {
        full_n.clone()
    } else {
        spawn_iteration(Workload::ServeChurn, seed, workers, 1.0)?
    };
    let calls = [&full_1, &quarter_1, &full_n, &serve];
    for it in calls {
        checks.expect(it.failed == 0, || {
            format!(
                "{} of {} jobs failed in an isolated call",
                it.failed, it.jobs
            )
        });
    }
    checks.expect(full_1.digest == full_n.digest, || {
        format!("report at 1 worker differs from report at {workers}")
    });
    if let Some(reference) = workload::straight_reference(w, seed, workers) {
        checks.expect(host::fnv(&reference.to_json()) == full_n.digest, || {
            "report differs from a straight Session::run".to_string()
        });
    }
    if seed == DEFAULT_SEED {
        for (wl, it) in [(w, &full_n), (Workload::ServeChurn, &serve)] {
            let (what, digest) = crate::committed(wl)?;
            checks.expect(it.digest == digest, || {
                format!("{} report differs from the {what}", wl.name())
            });
        }
    }

    // 2. Replay.
    let mut t = Tracer::default();
    let jobs = w.job_specs(seed, 1.0);
    let seeds: Vec<u64> = (0..jobs.len() as u64)
        .map(|i| derive_job_seed(seed, i))
        .collect();
    let store_dir = FreshDir::new(out_dir().join("trace-store"))?;
    let store = CheckpointStore::create(store_dir.path()).map_err(|e| e.to_string())?;
    let (replay_digest, replay_s) = match w {
        Workload::ServeChurn => {
            let prepared = workload::setup(w, seed, 1, 1.0, None)?;
            let report = t.span("fleet", "ServiceSession::run", "1 worker", |_| {
                workload::call(&prepared)
            })?;
            let s = t.durations("ServiceSession::run").iter().sum::<f64>();
            (report.outcome_digest(), s)
        }
        Workload::FleetFigures | Workload::FleetDurable | Workload::FleetResume => {
            let mut digest = OutcomeDigest::default();
            for (i, spec) in jobs.iter().enumerate() {
                if w == Workload::FleetResume {
                    t.span("fleet", "set-up", format!("job {i}"), |t| {
                        halt_and_save(t, spec, i, seeds[i], &store)
                    })?;
                }
                let r = t.span("fleet", "job", format!("job {i}"), |t| {
                    replay_job(t, w, spec, i, seeds[i], &store)
                })?;
                digest.push(
                    r.completed,
                    r.moved_bytes.as_u64(),
                    r.requested_bytes.as_u64(),
                    r.duration.as_secs_f64(),
                    r.total_energy_j(),
                );
            }
            (digest.finish(), t.durations("job").iter().sum::<f64>())
        }
    };
    checks.expect(replay_digest == full_1.outcome_digest, || {
        "traced replay outcomes differ from the untraced call's".to_string()
    });
    let saves = t.durations("CheckpointStore::save_job_checkpoint").len();
    let loads = t.durations("CheckpointStore::load_job_checkpoint").len();

    // 3. Probes.
    let probes = t.span("probe", "probes", w.name(), |t| {
        let mut p = Probes::default();
        for (i, spec) in jobs.iter().enumerate().take(probe_count(w)) {
            probe_job(t, w, spec, i, seeds[i], &store, &mut p, &mut checks)?;
        }
        Ok::<Probes, String>(p)
    })?;

    // 4. Kernel and arbiter.
    let kernel = t.span("transfer", "kernel scenarios", "", kernel_probe)?;
    let arbiter = t.span("endsys", "arbitrate probe", "", arbitrate_probe);
    drop(store_dir);

    let path = out_dir().join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, t.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace {} ({} spans)", path.display(), t.spans().len());

    let mut m = Vec::new();
    summary(
        &mut m,
        "dataset.generate_us",
        "us",
        1e6,
        &t.durations("DatasetMix::generate"),
    )?;
    summary(&mut m, "fleet.prepare_us", "us", 1e6, &probes.prepare_s)?;
    let slaee = probes.of(&probes.prepare_s, AlgorithmKind::Slaee);
    p50(&mut m, "fleet.prepare_us.slaee", "us", 1e6, &slaee)?;
    let prepare: f64 = probes.prepare_s.iter().sum();
    let straight: f64 = probes.run_s.iter().sum();
    m.push(Metric::new(
        "fleet.prepare_share",
        prepare / (prepare + straight),
        "ratio",
        probes.run_s.len(),
    ));
    summary(&mut m, "transfer.run_ms", "ms", 1e3, &probes.run_s)?;
    for kind in FIGURE_KINDS {
        p50(
            &mut m,
            &format!("transfer.run_ms.{}", kind.name().to_lowercase()),
            "ms",
            1e3,
            &probes.of(&probes.run_s, kind),
        )?;
    }
    m.push(Metric::new(
        "transfer.host_ns_per_sim_slice",
        straight * 1e9 / probes.sim_slices as f64,
        "ns",
        probes.run_s.len(),
    ));
    let (slow, fast): (Vec<f64>, Vec<f64>) = probes.macro_pairs.iter().copied().unzip();
    m.push(Metric::new(
        "transfer.macro_speedup",
        slow.iter().sum::<f64>() / fast.iter().sum::<f64>(),
        "ratio",
        slow.len(),
    ));
    for (name, value, unit) in kernel {
        m.push(Metric::new(name, value, unit, KERNEL_RUNS));
    }
    summary(
        &mut m,
        "transfer.halt_resume_us",
        "us",
        1e6,
        &probes.halt_resume_s,
    )?;
    summary(
        &mut m,
        "transfer.ckpt_encode_us",
        "us",
        1e6,
        &t.durations("EngineCheckpoint::to_json"),
    )?;
    p50(&mut m, "transfer.ckpt_bytes", "B", 1.0, &probes.ckpt_bytes)?;
    summary(
        &mut m,
        "transfer.ckpt_decode_us",
        "us",
        1e6,
        &t.durations("EngineCheckpoint::from_json"),
    )?;
    summary(
        &mut m,
        "ckpt.save_us",
        "us",
        1e6,
        &t.durations("CheckpointStore::save_job_checkpoint"),
    )?;
    m.push(Metric::new("ckpt.saves", saves as f64, "count", 1));
    summary(
        &mut m,
        "ckpt.load_us",
        "us",
        1e6,
        &t.durations("CheckpointStore::load_job_checkpoint"),
    )?;
    m.push(Metric::new("ckpt.loads", loads as f64, "count", 1));
    m.push(Metric::new(
        "telemetry.metrics_overhead",
        probes.instrumented_s.iter().sum::<f64>() / straight,
        "ratio",
        probes.instrumented_s.len(),
    ));
    p50(
        &mut m,
        "telemetry.snapshot_bytes",
        "B",
        1.0,
        &probes.snapshot_bytes,
    )?;
    for (policy, per_call_s) in &arbiter {
        summary(
            &mut m,
            &format!("endsys.arbitrate_us.{policy}"),
            "us",
            1e6,
            per_call_s,
        )?;
    }
    let rounds = serve.rounds.max(1);
    m.push(Metric::new(
        "fleet.service.rounds",
        serve.rounds as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "fleet.service.preemptions",
        serve.preemptions as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "fleet.service.us_per_round",
        serve.call_s * 1e6 / rounds as f64,
        "us",
        serve.rounds as usize,
    ));
    let per_job = |it: &Iteration| it.call_s / it.jobs as f64;
    m.push(Metric::new(
        "fleet.per_job_growth",
        per_job(&full_1) / per_job(&quarter_1),
        "ratio",
        2,
    ));
    m.push(Metric::new(
        "fleet.rss_per_job_kb",
        (full_1.peak_rss_mb - quarter_1.peak_rss_mb) * 1024.0
            / (full_1.jobs - quarter_1.jobs).max(1) as f64,
        "KiB",
        2,
    ));
    m.push(Metric::new(
        "fleet.pool.speedup",
        full_1.call_s / full_n.call_s,
        "ratio",
        2,
    ));
    m.push(Metric::new(
        "trace.overhead",
        (jobs.len() as f64 / replay_s) / full_1.jobs_per_s(),
        "ratio",
        2,
    ));

    let attempted =
        calls.iter().map(|it| it.jobs).sum::<u64>() + jobs.len() as u64 + probes.kinds.len() as u64;
    let correct = checks.0.is_empty();
    Ok(Outcome {
        correct,
        attempted,
        failed: if correct {
            calls.iter().map(|it| it.failed).sum()
        } else {
            attempted
        },
        metrics: m,
        problems: checks.0,
    })
}

/// Pushes `<name>.p50` and `<name>.tail`, scaled from seconds by `scale`.
fn summary(
    m: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    scale: f64,
    values: &[f64],
) -> Result<(), String> {
    let s = Summary::of(values).ok_or_else(|| format!("no samples for {name}"))?;
    println!(
        "{name}: p50 {:.3} {unit}, p{:.1} {:.3} {unit}, n={}",
        s.p50 * scale,
        s.tail_pct,
        s.tail * scale,
        s.n
    );
    m.push(Metric::new(format!("{name}.p50"), s.p50 * scale, unit, s.n));
    m.push(Metric::new(
        format!("{name}.tail"),
        s.tail * scale,
        unit,
        s.n,
    ));
    Ok(())
}

/// Pushes the median alone, as `name`.
fn p50(
    m: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    scale: f64,
    values: &[f64],
) -> Result<(), String> {
    let s = Summary::of(values).ok_or_else(|| format!("no samples for {name}"))?;
    m.push(Metric::new(name, s.p50 * scale, unit, s.n));
    Ok(())
}

/// Set-up of one `fleet-resume` job: run to the halt slice and persist
/// the checkpoint (a job that finishes first leaves none).
fn halt_and_save(
    t: &mut Tracer,
    spec: &JobSpec,
    index: usize,
    seed: u64,
    store: &CheckpointStore,
) -> Result<(), String> {
    let alg = spec.kind.name();
    let runner = t.span("fleet", "JobRunner::prepare", alg, |_| {
        JobRunner::prepare(spec, seed)
    });
    let out = t.span("transfer", "JobRunner::run_controlled/halt", alg, |_| {
        runner.run_controlled(RunControl::halt_at(RESUME_HALT))
    });
    if let RunOutcome::Halted(engine) = out {
        let ck = job_checkpoint(spec, index, seed, *engine);
        t.span("ckpt", "CheckpointStore::save_job_checkpoint", alg, |_| {
            store.save_job_checkpoint(&ck)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn job_checkpoint(
    spec: &JobSpec,
    index: usize,
    seed: u64,
    engine: EngineCheckpoint,
) -> JobCheckpoint {
    JobCheckpoint {
        schema: JOB_CHECKPOINT_SCHEMA_VERSION,
        job: index,
        label: spec.display_label(),
        algorithm: spec.kind.name().to_string(),
        seed,
        engine,
    }
}

fn done(out: RunOutcome) -> Result<TransferReport, String> {
    out.into_report()
        .ok_or_else(|| "run halted with no halt boundary set".to_string())
}

/// One job's protocol, through the public calls `Session` makes for it.
fn replay_job(
    t: &mut Tracer,
    w: Workload,
    spec: &JobSpec,
    index: usize,
    seed: u64,
    store: &CheckpointStore,
) -> Result<TransferReport, String> {
    let alg = spec.kind.name();
    let runner = t.span("fleet", "JobRunner::prepare", alg, |_| {
        JobRunner::prepare(spec, seed)
    });
    match w {
        Workload::FleetFigures | Workload::ServeChurn => {
            done(t.span("transfer", "JobRunner::run_controlled", alg, |_| {
                runner.run_controlled(RunControl::default())
            }))
        }
        Workload::FleetDurable => {
            let every = workload::DURABLE_CADENCE;
            let mut tel = metrics_telemetry();
            let mut ctl = RunControl::halt_at(every);
            loop {
                let out = t.span("transfer", "JobRunner::run_instrumented/leg", alg, |_| {
                    runner.run_instrumented(ctl, &mut tel)
                });
                match out {
                    RunOutcome::Done(report) => return Ok(report),
                    RunOutcome::Halted(engine) => {
                        let halt = engine.slices_done + every;
                        let ck = job_checkpoint(spec, index, seed, *engine);
                        t.span("ckpt", "CheckpointStore::save_job_checkpoint", alg, |_| {
                            store.save_job_checkpoint(&ck)
                        })
                        .map_err(|e| e.to_string())?;
                        ctl = RunControl::resume_from(ck.engine).with_halt(halt);
                    }
                }
            }
        }
        Workload::FleetResume => {
            let loaded = t
                .span("ckpt", "CheckpointStore::load_job_checkpoint", alg, |_| {
                    store.load_job_checkpoint(index)
                })
                .map_err(|e| e.to_string())?;
            let ctl = match loaded {
                Some(ck) => {
                    ck.validate(index, &spec.display_label(), seed)
                        .map_err(|e| e.to_string())?;
                    let halt = ck.engine.slices_done + NO_HALT;
                    RunControl::resume_from(ck.engine).with_halt(halt)
                }
                None => RunControl::halt_at(NO_HALT),
            };
            done(
                t.span("transfer", "JobRunner::run_controlled/resume", alg, |_| {
                    runner.run_controlled(ctl)
                }),
            )
        }
    }
}

fn metrics_telemetry() -> Telemetry {
    Telemetry::from_parts(
        None,
        Some(MetricsRegistry::new(SimDuration::from_secs(
            METRICS_CADENCE_S,
        ))),
    )
}

/// What the probes measured beyond their spans.
#[derive(Default)]
struct Probes {
    /// Algorithm of each probed job, index-aligned with `prepare_s` and
    /// `run_s`.
    kinds: Vec<AlgorithmKind>,
    prepare_s: Vec<f64>,
    run_s: Vec<f64>,
    instrumented_s: Vec<f64>,
    sim_slices: u64,
    halt_resume_s: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    /// (macro-stepping off, on) run seconds of the same job.
    macro_pairs: Vec<(f64, f64)>,
}

impl Probes {
    /// The entries of `values` that belong to jobs of `kind`.
    fn of(&self, values: &[f64], kind: AlgorithmKind) -> Vec<f64> {
        self.kinds
            .iter()
            .zip(values)
            .filter(|(k, _)| **k == kind)
            .map(|(_, v)| *v)
            .collect()
    }
}

fn same(a: &TransferReport, b: &TransferReport) -> bool {
    a.completed == b.completed
        && a.moved_bytes == b.moved_bytes
        && a.duration == b.duration
        && a.total_energy_j().to_bits() == b.total_energy_j().to_bits()
}

fn last(t: &Tracer) -> f64 {
    t.spans().last().map_or(0.0, |s| s.dur_s)
}

/// Probes one job; see the module documentation.
#[allow(clippy::too_many_arguments)]
fn probe_job(
    t: &mut Tracer,
    w: Workload,
    spec: &JobSpec,
    index: usize,
    seed: u64,
    store: &CheckpointStore,
    p: &mut Probes,
    checks: &mut Checks,
) -> Result<(), String> {
    let alg = spec.kind.name();
    p.kinds.push(spec.kind);
    let mix = spec.env.dataset_spec.scaled(spec.scale);
    black_box(t.span("dataset", "DatasetMix::generate", alg, |_| {
        mix.generate(seed)
    }));

    let runner = t.span("fleet", "JobRunner::prepare", alg, |_| {
        JobRunner::prepare(spec, seed)
    });
    p.prepare_s.push(last(t));
    // One untimed run first, so the timed straight run and the timed
    // variants after it all start warm.
    black_box(runner.run_controlled(RunControl::default()));
    let straight = done(t.span("transfer", "JobRunner::run_controlled", alg, |_| {
        runner.run_controlled(RunControl::default())
    }))?;
    let straight_s = last(t);
    p.run_s.push(straight_s);
    let slice = spec.env.env.tuning.slice.as_secs_f64();
    let slices = (straight.duration.as_secs_f64() / slice).round() as u64;
    p.sim_slices += slices;

    let mut tel = metrics_telemetry();
    let instrumented = done(
        t.span("telemetry", "JobRunner::run_instrumented", alg, |_| {
            runner.run_instrumented(RunControl::default(), &mut tel)
        }),
    )?;
    let instrumented_s = last(t);
    p.instrumented_s.push(instrumented_s);
    let snapshot = tel.metrics_ref().map(MetricsRegistry::snapshot);
    p.snapshot_bytes.push(
        serde_json::to_string(&snapshot)
            .map_err(|e| e.to_string())?
            .len() as f64,
    );
    checks.expect(same(&instrumented, &straight), || {
        format!("job {index}: run with metrics differs from the straight run")
    });

    // Split at the workload's halt slice (mid-run for fleet-figures).
    // fleet-durable's legs carry metrics, as its checkpoints do.
    let k = w.halt_every().unwrap_or(slices / 2).max(1);
    if ckpt_probed(w, index) && slices > k {
        let metrics = w == Workload::FleetDurable;
        let (baseline, baseline_s) = if metrics {
            (&instrumented, instrumented_s)
        } else {
            (&straight, straight_s)
        };
        let mut tel = if metrics {
            metrics_telemetry()
        } else {
            Telemetry::from_parts(None, None)
        };
        let halted = t.span("transfer", "JobRunner::run_controlled/halt", alg, |_| {
            runner.run_instrumented(RunControl::halt_at(k), &mut tel)
        });
        let mut legs_s = last(t);
        let RunOutcome::Halted(engine) = halted else {
            return Err(format!("job {index} did not halt at slice {k}"));
        };
        let text = t.span("transfer", "EngineCheckpoint::to_json", alg, |_| {
            engine.to_json()
        });
        p.ckpt_bytes.push(text.len() as f64);
        let decoded = t.span("transfer", "EngineCheckpoint::from_json", alg, |_| {
            EngineCheckpoint::from_json(&text)
        })?;
        checks.expect(decoded == *engine, || {
            format!("job {index}: decoded checkpoint differs from the encoded one")
        });
        if w != Workload::FleetResume {
            // fleet-resume's replay already saved and loaded this
            // checkpoint; the other workloads probe the store once.
            let ck = job_checkpoint(spec, index, seed, decoded);
            t.span("ckpt", "CheckpointStore::save_job_checkpoint", alg, |_| {
                store.save_job_checkpoint(&ck)
            })
            .map_err(|e| e.to_string())?;
            let loaded = t
                .span("ckpt", "CheckpointStore::load_job_checkpoint", alg, |_| {
                    store.load_job_checkpoint(index)
                })
                .map_err(|e| e.to_string())?;
            checks.expect(loaded.is_some_and(|l| l.engine == *engine), || {
                format!("job {index}: loaded checkpoint differs from the saved one")
            });
            store
                .remove(&CheckpointStore::checkpoint_name(index))
                .map_err(|e| e.to_string())?;
        }
        let mut tel = if metrics {
            metrics_telemetry()
        } else {
            Telemetry::from_parts(None, None)
        };
        let resumed = done(
            t.span("transfer", "JobRunner::run_controlled/resume", alg, |_| {
                runner.run_instrumented(RunControl::resume_from(*engine), &mut tel)
            }),
        )?;
        legs_s += last(t);
        p.halt_resume_s.push(legs_s - baseline_s);
        checks.expect(same(&resumed, baseline), || {
            format!("job {index}: halted and resumed run differs from the straight run")
        });
    }

    if index.is_multiple_of(macro_stride(w)) {
        let mut slow = spec.clone();
        slow.env.env.tuning.macro_step = false;
        let slow_runner = JobRunner::prepare(&slow, seed);
        let report = done(t.span(
            "transfer",
            "JobRunner::run_controlled/no-macro",
            alg,
            |_| slow_runner.run_controlled(RunControl::default()),
        ))?;
        p.macro_pairs.push((last(t), straight_s));
        checks.expect(same(&report, &straight), || {
            format!("job {index}: run without macro-stepping differs from the straight run")
        });
    }
    Ok(())
}

/// Slice-kernel wall time and allocations per executed slice, for the
/// `eadt-bench` steady and turbulent scenarios with macro-stepping off.
fn kernel_probe(t: &mut Tracer) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut out = Vec::new();
    let mut allocs = Vec::new();
    for (name, (env, plan)) in [
        ("steady", steady_scenario()),
        ("turbulent", turbulent_scenario()),
    ] {
        let slices = count_executed_slices(&env, &plan);
        let slow = kernel_env(&env);
        let mut runs = Vec::with_capacity(KERNEL_RUNS);
        for _ in 0..KERNEL_RUNS {
            let report = t.span("transfer", "Engine::run", name, |_| {
                Engine::new(&slow).run(&plan, &mut NullController)
            });
            if !report.completed {
                return Err(format!("kernel scenario {name} did not complete"));
            }
            runs.push(t.spans().last().map_or(0.0, |s| s.dur_s));
        }
        let median = crate::trace::median(&runs);
        out.push((
            format!("transfer.kernel_ns_per_slice.{name}"),
            median * 1e9 / slices as f64,
            "ns",
        ));
        allocs.push((
            format!("transfer.kernel_allocs_per_slice.{name}"),
            measure_allocs_per_slice(&env, &plan, host::thread_allocs),
            "count",
        ));
    }
    out.extend(allocs);
    Ok(out)
}

/// Per-call seconds of `arbitrate()` on the service site with its core
/// slots full, under each policy.
fn arbitrate_probe(t: &mut Tracer) -> Vec<(&'static str, Vec<f64>)> {
    let capacity = workload::serve_capacity();
    let tb = eadt_testbeds::xsede();
    let disk: f64 = tb
        .env
        .src
        .servers
        .iter()
        .map(|s| s.disk.peak_rate().as_bps())
        .sum();
    let members: Vec<PoolMember> = (0..ARBITRATE_MEMBERS)
        .map(|id| PoolMember {
            id,
            weight: 1.0,
            priority: id % 4,
            bandwidth_demand: tb.env.link.bandwidth,
            disk_demand: Rate::from_bps(disk),
        })
        .collect();
    let mut out = Vec::new();
    for (name, policy) in [
        ("fair", ArbitrationPolicy::FairShare),
        ("priority", ArbitrationPolicy::StrictPriority),
    ] {
        let mut per_call = Vec::with_capacity(ARBITRATE_BATCHES);
        for _ in 0..ARBITRATE_BATCHES {
            t.span("endsys", "arbitrate", name, |_| {
                for _ in 0..ARBITRATE_CALLS {
                    black_box(arbitrate(black_box(&capacity), black_box(&members), policy));
                }
            });
            per_call.push(t.spans().last().map_or(0.0, |s| s.dur_s) / ARBITRATE_CALLS as f64);
        }
        out.push((name, per_call));
    }
    out
}
