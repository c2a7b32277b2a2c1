#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! End-to-end and per-layer benchmark of the TNPU reproduction.
//!
//! The benchmark sits outside the program: it times calls into each
//! layer's public functions and leaves every crate untouched. Three
//! workloads (see [`workloads`]) each run as a sequence of *passes*; a pass
//! is a fixed set of *ops* (figure cells, attack cells or decode-churn
//! steps) whose outputs are checked against an oracle. An untraced run
//! reports the end-to-end metrics; a traced run (see [`trace`]) reports the
//! per-layer metrics (see [`layers`]).

pub mod layers;
pub mod trace;
pub mod workloads;
pub mod wrap;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Worker threads every workload's load uses, recorded as `tnpu-bench`'s
/// sweep pool width. Fixed, so a run on a machine with more cores measures
/// the same load. One worker: on a shared 2-core machine a second worker
/// contends with other tenants for the other core. The benchmark's own op
/// loops run on the calling thread.
pub const POOL_WIDTH: usize = 1;

/// The outcome of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output was wrong, whose verdict contradicted its
    /// expectation, or that returned an error or panicked.
    pub failed: u64,
    /// Host wall time of the pass.
    pub wall: Duration,
}

impl Pass {
    /// Ops per host second of this pass alone.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Ops completed per host second over `passes`: their ops over their
/// summed wall time.
#[must_use]
pub fn throughput(passes: &[Pass]) -> f64 {
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let wall: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    ops as f64 / wall.max(1e-9)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Run `f` and turn a panic into an error message, so one failing op
/// counts as failed and the run continues.
///
/// # Errors
///
/// The panic payload, as text.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-text panic".to_owned())
    })
}

/// Run passes until `budget` has elapsed, and at least one.
pub fn run_passes(budget: Duration, mut pass: impl FnMut() -> Pass) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(pass());
    }
    passes
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest sample with at least ten samples above it (the largest
/// sample when there are fewer than eleven).
#[must_use]
pub fn tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n <= 10 => v[n - 1],
        n => v[n - 11],
    }
}

/// Mean of `values`, 0 for none.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
