//! End-to-end and per-layer benchmark of the eadt fleet, service and
//! checkpoint layers. See `README.md` beside this crate for the
//! workloads and metrics.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-churn --seed 42 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats the workload's timed call, each time
//! in a fresh child process, until `--seconds` of child time have passed
//! (at least three times), and reports medians of the end-to-end metrics.
//! With `--trace 1` it makes the traced run of `layers` instead. Either
//! way the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod layers;
mod trace;
mod workload;

use criterion::measurement::WallTime;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use trace::median;
use workload::{Report, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

/// Fewest timed calls one untraced run makes, however long they take.
const MIN_ITERATIONS: usize = 3;

/// Calibration units timed just before and just after each timed call.
const CALIBRATIONS: usize = 3;

/// Each child sets up at least `SETUP_REPEATS` times and until
/// `SETUP_MIN_S` host seconds of set-up have passed, and keeps the last
/// build. Its `setup_s` is the fastest set-up: most take well under a
/// millisecond, much of it file-system operations, and stalls such as
/// the previous call's writeback only ever add to them.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 0.02;

/// Marks the result line a child process prints for its parent.
const ITERATION_TAG: &str = "perfbench-iteration ";

/// Where runs keep scratch stores and write traces and results,
/// relative to the working directory (the root of the checkout).
fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run one timed call in this process and print its
    /// [`Iteration`].
    iteration: bool,
    workers: usize,
    fraction: f64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        let mut iteration = false;
        let mut workers = host::nproc();
        let mut fraction: f64 = 1.0;
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value()?)?),
                "--seed" => seed = parse(&flag, &value()?)?,
                "--seconds" => seconds = parse(&flag, &value()?)?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--iteration" => iteration = true,
                "--workers" => workers = parse::<usize>(&flag, &value()?)?.max(1),
                "--fraction" => fraction = parse(&flag, &value()?)?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".to_string());
        }
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err("--fraction must be in (0, 1]".to_string());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            iteration,
            workers,
            fraction,
        })
    }
}

fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse `{text}`"))
}

/// What one timed call measured and produced, as a child process
/// reports it to its parent.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the timed call.
    pub call_s: f64,
    /// Process CPU seconds (user + system) across the timed call.
    pub cpu_s: f64,
    /// Median host seconds of the calibration unit, run just before and
    /// just after the timed call.
    pub calib_s: f64,
    /// Peak resident set across the timed call, MiB.
    pub peak_rss_mb: f64,
    /// Jobs in the call.
    pub jobs: u64,
    /// Jobs that failed the per-job check.
    pub failed: u64,
    /// FNV digest of the report JSON.
    pub digest: u64,
    /// Digest of the per-job simulated outcomes.
    pub outcome_digest: u64,
    /// Service rounds (service workload only).
    pub rounds: u64,
    /// Service preemptions (service workload only).
    pub preemptions: u64,
}

impl Iteration {
    /// Jobs completed per host second of the timed call.
    pub fn jobs_per_s(&self) -> f64 {
        (self.jobs - self.failed) as f64 / self.call_s
    }

    /// Factor that scales this child's host seconds to the reference
    /// host speed (see [`host::calibration_work`]).
    pub fn speed(&self) -> f64 {
        host::CALIBRATION_REFERENCE_S / self.calib_s
    }

    fn to_json(&self) -> String {
        serde_json::json!({
            "setup_s": self.setup_s,
            "call_s": self.call_s,
            "cpu_s": self.cpu_s,
            "calib_s": self.calib_s,
            "peak_rss_mb": self.peak_rss_mb,
            "jobs": self.jobs,
            "failed": self.failed,
            "digest": format!("{:016x}", self.digest),
            "outcome_digest": format!("{:016x}", self.outcome_digest),
            "rounds": self.rounds,
            "preemptions": self.preemptions,
        })
        .to_string()
    }

    fn from_json(text: &str) -> Result<Iteration, String> {
        let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let num = |k: &str| {
            v[k].as_f64()
                .ok_or_else(|| format!("iteration lacks `{k}`"))
        };
        let int = |k: &str| {
            v[k].as_u64()
                .ok_or_else(|| format!("iteration lacks `{k}`"))
        };
        let hex = |k: &str| {
            v[k].as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("iteration lacks `{k}`"))
        };
        Ok(Iteration {
            setup_s: num("setup_s")?,
            call_s: num("call_s")?,
            cpu_s: num("cpu_s")?,
            calib_s: num("calib_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            jobs: int("jobs")?,
            failed: int("failed")?,
            digest: hex("digest")?,
            outcome_digest: hex("outcome_digest")?,
            rounds: int("rounds")?,
            preemptions: int("preemptions")?,
        })
    }
}

/// Child side: set up, make the timed call, check the output.
fn iteration(args: &Args) -> Result<Iteration, String> {
    let w = args.workload;
    let mut setups: Vec<f64> = Vec::new();
    let mut built = None;
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous build first: its store directory is the
        // path the next one recreates. Emptying the store is the
        // benchmark's own scaffolding and stays outside the timing; the
        // program's work in it (fleet-resume's checkpoints) is timed.
        drop(built.take());
        let store = match w {
            Workload::FleetDurable | Workload::FleetResume => {
                Some(workload::FreshDir::new(out_dir().join("store"))?)
            }
            Workload::ServeChurn | Workload::FleetFigures => None,
        };
        let (prepared, s) = WallTime::time(|| {
            workload::setup(w, args.seed, args.workers, args.fraction, store.as_ref())
        });
        setups.push(s);
        built = Some((prepared?, store));
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let (prepared, _store) = built.ok_or("no set-up ran")?;
    let mut calib: Vec<f64> = (0..CALIBRATIONS)
        .map(|_| WallTime::time(host::calibration_work).1)
        .collect();
    host::reset_peak_rss()?;
    let cpu_before = host::cpu_seconds()?;
    let (report, call_s) = WallTime::time(|| workload::call(&prepared));
    let cpu_s = host::cpu_seconds()? - cpu_before;
    let peak_rss_mb = host::peak_rss_mb()?;
    calib.extend((0..CALIBRATIONS).map(|_| WallTime::time(host::calibration_work).1));
    let report: Report = report?;
    let (rounds, preemptions) = report.service_counts();
    Ok(Iteration {
        setup_s,
        call_s,
        cpu_s,
        calib_s: median(&calib),
        peak_rss_mb,
        jobs: report.outcomes().len() as u64,
        failed: report.failed_jobs(),
        digest: host::fnv(&report.to_json()),
        outcome_digest: report.outcome_digest(),
        rounds,
        preemptions,
    })
}

/// Parent side: one timed call in a fresh child process, which the
/// parent waits for.
pub fn spawn_iteration(
    workload: Workload,
    seed: u64,
    workers: usize,
    fraction: f64,
) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--iteration",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--workers",
            &workers.to_string(),
            "--fraction",
            &fraction.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run iteration child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} iteration child failed ({})",
            workload.name(),
            out.status
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(ITERATION_TAG))
        .ok_or("iteration child printed no result")?;
    Iteration::from_json(line)
}

/// One metric of the final result line.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric over `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// What a run reports.
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed (all of a call's jobs when one of its checks failed).
    pub failed: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Check failures, for the log.
    pub problems: Vec<String>,
}

/// The untraced run: repeated timed calls, medians of their metrics.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut elapsed = 0.0;
    while iterations.len() < MIN_ITERATIONS || elapsed < args.seconds {
        let (it, dt) = WallTime::time(|| spawn_iteration(w, args.seed, args.workers, 1.0));
        elapsed += dt;
        let it = it?;
        eprintln!("perfbench: {} iteration {}", w.name(), it.to_json());
        iterations.push(it);
    }

    let mut expected = Vec::new();
    if let Some(reference) = workload::straight_reference(w, args.seed, args.workers) {
        expected.push(("straight Session::run", host::fnv(&reference.to_json())));
    }
    if args.seed == DEFAULT_SEED {
        expected.push(committed(w)?);
    }
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, it) in iterations.iter().enumerate() {
        attempted += it.jobs;
        let mut bad = Vec::new();
        if it.failed > 0 {
            bad.push(format!("{} of {} jobs failed", it.failed, it.jobs));
        }
        if it.digest != iterations[0].digest {
            bad.push(format!(
                "report digest {:016x} differs from the first call's {:016x}",
                it.digest, iterations[0].digest
            ));
        }
        for (what, digest) in &expected {
            if it.digest != *digest {
                bad.push(format!(
                    "report digest {:016x} differs from the {what}'s {digest:016x}",
                    it.digest
                ));
            }
        }
        if bad.is_empty() {
            failed += it.failed;
        } else {
            failed += it.jobs;
            problems.extend(bad.into_iter().map(|b| format!("call {i}: {b}")));
        }
    }
    let n = iterations.len();
    let med = |f: fn(&Iteration) -> f64| median(&iterations.iter().map(f).collect::<Vec<_>>());
    println!(
        "unscaled medians: {:.3} jobs/s, setup {:.6} s, cpu {:.3} s; calibration unit {:.6} s",
        med(Iteration::jobs_per_s),
        med(|it| it.setup_s),
        med(|it| it.cpu_s),
        med(|it| it.calib_s)
    );
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: vec![
            Metric::new(
                "jobs_per_s",
                med(|it| it.jobs_per_s() / it.speed()),
                "jobs/s",
                n,
            ),
            Metric::new("setup_s", med(|it| it.setup_s * it.speed()), "s", n),
            Metric::new("peak_rss_mb", med(|it| it.peak_rss_mb), "MB", n),
            Metric::new("cpu_s", med(|it| it.cpu_s * it.speed()), "s", n),
        ],
        problems,
    })
}

/// The committed digest check for the default seed.
pub fn committed(w: Workload) -> Result<(&'static str, u64), String> {
    workload::committed_digest(w)
        .map(|d| ("committed digest", d))
        .ok_or_else(|| format!("digests.txt has no digest for {}", w.name()))
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    if args.iteration {
        let it = iteration(&args)?;
        println!("{ITERATION_TAG}{}", it.to_json());
        return Ok(());
    }
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let host = host::record(args.workload.name(), args.seed, args.workers);
    println!("host {host}");
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.workers)?
    } else {
        untraced(&args)?
    };
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    let mut metrics = serde_json::Map::new();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        println!("{:<40} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
        metrics.insert(
            m.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    println!(
        "jobs_attempted {} jobs  jobs_failed {} jobs",
        outcome.attempted, outcome.failed
    );
    let result = serde_json::json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let record = serde_json::json!({"host": host, "result": result.clone()});
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
