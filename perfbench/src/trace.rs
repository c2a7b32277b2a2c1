//! In-memory span tracer for the traced benchmark run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public functions: name, layer, start, end, parent span and op id. Spans
//! are kept in memory and written out when the run ends.
//!
//! Per-block calls (functional-memory reads and writes, cost-engine
//! accesses) happen millions of times per run, so they are not recorded one
//! by one: each is timed and aggregated into a [`Leaf`] counter (calls,
//! blocks, nanoseconds), and its time is charged to the innermost open span
//! on the calling thread as covered child time. A span's self time is its
//! duration minus the union of its child spans' intervals and minus the leaf
//! time charged to it.
//!
//! Tracing is off unless [`enable`] was called; a disabled [`span`] only
//! runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers spans are attributed to, named after the crates and modules
/// the benchmark calls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `tnpu-bench`: sweeps, renders and the benchmark's own op loops.
    Bench,
    /// `tnpu-npu`: trace lowering and replay.
    Npu,
    /// `tnpu-core`: session set-up, passes, steps and attack cells.
    Core,
    /// `tnpu-memprot::functional`: block reads and writes.
    Functional,
    /// `tnpu-memprot` cost engines: per-block protection costs.
    Engine,
    /// `tnpu-crypto`: primitives timed directly.
    Crypto,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Npu,
        Layer::Core,
        Layer::Functional,
        Layer::Engine,
        Layer::Crypto,
    ];

    /// Metric prefix of the layer.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Npu => "npu",
            Layer::Core => "core",
            Layer::Functional => "functional",
            Layer::Engine => "engine",
            Layer::Crypto => "crypto",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// The span open around this one.
    pub parent: Option<u64>,
    /// The op (cell, step or pass) the span belongs to.
    pub op: u64,
    /// Layer called.
    pub layer: Layer,
    /// Call name, e.g. `core.pass.tnpu`.
    pub name: String,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Time of aggregated per-block calls made directly inside this span.
    pub leaf_ns: u64,
}

impl Span {
    /// Wall duration.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregated per-block calls of one kind: call count, blocks covered and
/// total time.
#[derive(Debug, Default)]
pub struct Leaf {
    calls: AtomicU64,
    blocks: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Leaf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafTotals {
    /// Calls made.
    pub calls: u64,
    /// 64 B blocks the calls covered.
    pub blocks: u64,
    /// Time spent in the calls.
    pub ns: u64,
}

impl Leaf {
    /// A zeroed counter.
    #[must_use]
    pub const fn new() -> Self {
        Leaf {
            calls: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    /// Record one call covering `blocks` blocks that took `ns`, and charge
    /// the time to the innermost open span on this thread.
    pub fn record(&self, blocks: u64, ns: u64) {
        // Relaxed: these are statistics and publish no other data.
        self.calls.fetch_add(1, Relaxed);
        self.blocks.fetch_add(blocks, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.leaf_ns += ns;
            }
        });
    }

    /// Current totals.
    #[must_use]
    pub fn totals(&self) -> LeafTotals {
        LeafTotals {
            calls: self.calls.load(Relaxed),
            blocks: self.blocks.load(Relaxed),
            ns: self.ns.load(Relaxed),
        }
    }

    /// Zero the counter.
    pub fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.blocks.store(0, Relaxed);
        self.ns.store(0, Relaxed);
    }
}

struct Open {
    id: u64,
    op: u64,
    leaf_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Turn span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Relaxed);
}

/// Turn span recording off.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Id and op of the innermost open span.
fn current() -> (Option<u64>, u64) {
    STACK.with(|s| {
        s.borrow()
            .last()
            .map_or((None, 0), |top| (Some(top.id), top.op))
    })
}

/// Run `f` inside a span of the innermost open span's op.
pub fn span<R>(layer: Layer, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let op = current().1;
    span_op(op, layer, name, f)
}

/// Run `f` inside a span that starts op `op`, under the innermost open span.
pub fn span_op<R>(op: u64, layer: Layer, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let parent = current().0;
    let id = NEXT_ID.fetch_add(1, Relaxed);
    STACK.with(|s| s.borrow_mut().push(Open { id, op, leaf_ns: 0 }));
    let start_ns = now_ns();
    // Pop the frame even if `f` unwinds, so a caught panic leaves the
    // thread's stack balanced.
    struct Frame {
        id: u64,
        parent: Option<u64>,
        op: u64,
        layer: Layer,
        name: String,
        start_ns: u64,
    }
    impl Drop for Frame {
        fn drop(&mut self) {
            let end_ns = now_ns();
            let leaf_ns = STACK.with(|s| s.borrow_mut().pop().map_or(0, |o| o.leaf_ns));
            let span = Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                layer: self.layer,
                name: std::mem::take(&mut self.name),
                start_ns: self.start_ns,
                end_ns,
                leaf_ns,
            };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
    let _frame = Frame {
        id,
        parent,
        op,
        layer,
        name: name.into(),
        start_ns,
    };
    f()
}

/// Take every finished span recorded so far.
#[must_use]
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("no thread panics holding the span list"),
    )
}

/// Self time of every span: its duration minus the union of its child
/// spans' intervals and minus its leaf time.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, s.dur_ns().saturating_sub(covered + s.leaf_ns))
        })
        .collect()
}

/// Write spans as one JSON object per line.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"leaf_ns\":{}}}",
            s.id,
            parent,
            s.op,
            s.layer.label(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.leaf_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64, leaf_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: Layer::Bench,
            name: String::new(),
            start_ns,
            end_ns,
            leaf_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_leaves() {
        let spans = vec![
            span(1, None, 0, 100, 5),
            span(2, Some(1), 10, 40, 0),
            span(3, Some(1), 30, 60, 0),
            span(4, Some(1), 80, 90, 0),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 60) and [80, 90): 60 ns; leaves 5 ns.
        assert_eq!(selfs[&1], 35);
        assert_eq!(selfs[&2], 30);
    }
}
