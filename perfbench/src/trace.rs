//! In-memory spans around the benchmark's calls into each layer, their
//! summary statistics, and their Chrome `trace_event` export.
//!
//! The only clock is criterion's `WallTime`, which times a closure (the
//! workspace bans reading the wall clock directly). A span therefore
//! knows its exact duration but not its absolute start: spans are laid
//! out back to back inside their parent, in call order, and a parent's
//! time outside its children shows after its last child. Durations and
//! self times are exact; gaps between sibling calls (benchmark
//! bookkeeping, not program work) are not shown.

use crate::host::thread_allocs;
use criterion::measurement::WallTime;
use std::fmt::Write as _;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call belongs to (`dataset`, `fleet`, `transfer`, ...).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// What the call was about (algorithm, job index).
    pub detail: String,
    /// Laid-out start, seconds from the first span.
    pub start_s: f64,
    /// Measured duration, seconds.
    pub dur_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Allocations the calling thread made inside the span.
    pub allocs: u64,
}

/// Span recorder for one thread of calls.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    cursor_s: f64,
}

impl Tracer {
    /// Runs `body` inside a span and returns what it returned.
    pub fn span<O>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        detail: impl Into<String>,
        body: impl FnOnce(&mut Tracer) -> O,
    ) -> O {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            detail: detail.into(),
            start_s: self.cursor_s,
            dur_s: 0.0,
            parent: self.stack.last().copied(),
            allocs: 0,
        });
        self.stack.push(id);
        let allocs = thread_allocs();
        let (out, dur_s) = WallTime::time(|| body(self));
        let allocs = thread_allocs() - allocs;
        self.stack.pop();
        let span = &mut self.spans[id];
        span.dur_s = dur_s;
        span.allocs = allocs;
        self.cursor_s = span.start_s + dur_s;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of the spans called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    /// Chrome `trace_event` JSON (the object form chrome://tracing and
    /// Perfetto open), one complete slice per span on one thread row,
    /// allocation counts and self time under `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut child_s = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.dur_s;
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"detail\":{},\"allocs\":{},\"self_us\":{:.3}}}}}",
                quote(span.name),
                quote(span.layer),
                span.start_s * 1e6,
                span.dur_s * 1e6,
                quote(&span.detail),
                span.allocs,
                (span.dur_s - child_s[i]).max(0.0) * 1e6,
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn quote(s: &str) -> String {
    serde_json::Value::from(s).to_string()
}

/// Order statistics of one timing: the median and the highest
/// percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (nearest rank, so it is one of the samples).
    pub p50: f64,
    /// The tail value: the sample with exactly ten samples above it, or
    /// the maximum when there are eleven samples or fewer.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let p50 = sorted[(n - 1) / 2];
        let rank = n.saturating_sub(11);
        let (tail, tail_pct) = if n > 11 {
            (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
        } else {
            (sorted[n - 1], 100.0)
        };
        Some(Summary {
            n,
            p50,
            tail,
            tail_pct,
        })
    }
}

/// Median of a sample (the mean of the middle two when the count is
/// even); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
