//! The benchmark's workloads. Each is set up once (timed as set-up), then
//! run as repeated passes of a fixed op set whose outputs are checked.

pub mod attack_gate;
pub mod decode_churn;
pub mod figures;

use crate::{Metric, Pass};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A benchmark workload.
pub trait Workload: Sized {
    /// Set up everything timing must not include: model construction,
    /// golden and reference loading, warm-up.
    ///
    /// # Errors
    ///
    /// A missing or unreadable golden or reference.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Run one pass through the public functions, untraced.
    fn pass(&mut self) -> Pass;

    /// Run one pass with a span around every layer call and the timing
    /// wrappers in place. Called only with tracing enabled, after at least
    /// one untraced [`Workload::pass`].
    fn traced_pass(&mut self) -> Pass;

    /// Per-layer metrics only this workload can measure, gathered after the
    /// traced pass (tracing still enabled).
    ///
    /// # Errors
    ///
    /// A check made while gathering them failed.
    fn layer_extras(&mut self) -> Result<Vec<Metric>, String>;
}

static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh op id for spans.
pub fn next_op() -> u64 {
    // Relaxed: ids only need to be unique.
    NEXT_OP.fetch_add(1, Relaxed)
}
