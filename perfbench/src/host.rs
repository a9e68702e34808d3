//! What the benchmark reads from the host: process CPU time and peak
//! resident set from `/proc`, the allocation odometer of the measuring
//! thread, and the host record printed beside every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus a per-thread allocation odometer.
///
/// The counter is thread-local so that allocations made by other threads
/// (worker pools, or a second probe running at the same time) can never
/// leak into a window measured on this one.
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; the
    // count is then irrelevant, and an allocator must not panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract. The odometer touches only a
// const-initialised thread-local `Cell<u64>` without a destructor, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// `/proc/self/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 per second on every architecture it exports to user
/// space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, threads that have
/// already exited included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("no CPU-time field {i} in /proc/self/stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident set of the process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Hardware threads the OS grants this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The facts every committed number must carry: where and how it was
/// measured.
pub fn record(workload: &str, seed: u64, workers: usize) -> serde_json::Value {
    let cpu = read("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({
        "workload": workload,
        "seed": seed,
        "workers": workers as u64,
        "nproc": nproc() as u64,
        "cpu_model": cpu,
        "rustc": env!("PERFBENCH_RUSTC"),
        "profile": env!("PERFBENCH_PROFILE"),
    })
}

/// FNV-1a over bytes: the digest the benchmark pins reports with.
pub struct Fnv(u64);

impl Default for Fnv {
    /// Starts from the FNV-1a 64-bit offset basis.
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a word into the digest, little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of a text.
pub fn fnv(text: &str) -> u64 {
    Fnv::default().bytes(text.as_bytes()).finish()
}

/// Host seconds the calibration unit takes on the reference host (the
/// 2-core Xeon the benchmark was sized on, at its typical speed).
pub const CALIBRATION_REFERENCE_S: f64 = 0.025;

/// The calibration unit: a fixed piece of CPU and memory work that uses
/// none of the program under test: random floats, a sort, a reduction,
/// small allocations, and UTF-8 validation streaming through a text
/// larger than the first-level caches.
///
/// The machine this benchmark runs on is shared, and its speed drifts by
/// a third over minutes, for CPU time as much as for wall time. Timing
/// this unit right before and right after a timed call gives the host's
/// speed during the call; the end-to-end times are scaled by
/// [`CALIBRATION_REFERENCE_S`] / (that time), so they read as seconds on
/// the reference host and a change to the program still moves them in
/// full.
pub fn calibration_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut v: Vec<f64> = Vec::with_capacity(1 << 16);
    let mut acc = 0.0f64;
    for round in 0..8u8 {
        v.clear();
        for _ in 0..(1 << 16) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push((x >> 11) as f64 / (1u64 << 53) as f64);
        }
        v.sort_by(f64::total_cmp);
        acc += v.iter().enumerate().map(|(i, y)| y * i as f64).sum::<f64>();
        let boxed: Vec<Box<[u8; 64]>> = (0..1000).map(|_| Box::new([round; 64])).collect();
        acc += std::hint::black_box(boxed).len() as f64;
    }
    let text = vec![b'7'; 128 << 10];
    for _ in 0..4 {
        for start in (0..text.len()).step_by(1024) {
            let tail = std::hint::black_box(&text[start..]);
            acc += std::str::from_utf8(tail).map_or(0, str::len) as f64;
        }
    }
    acc.to_bits()
}
