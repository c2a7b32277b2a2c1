//! The per-layer metrics of a traced run: their catalog, the direct timing
//! of the `tnpu-crypto` primitives, and their computation from spans and
//! wrapper counters.
//!
//! Every metric is reported on every workload; a layer a workload does not
//! call reports zero calls and zero times there. Counts and self times
//! cover the one traced pass (plus, on `attack-gate`, the clean functional
//! sessions driven beside it). Shares state their base in [`catalog`].

use crate::trace::{self, Layer, Span};
use crate::wrap;
use crate::{mean, median, tail, Metric, Pass};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tnpu_crypto::ctr::CtrMode;
use tnpu_crypto::mac::BlockMac;
use tnpu_crypto::sha256::Sha256;
use tnpu_crypto::xts::XtsMode;
use tnpu_crypto::Key128;
use tnpu_memprot::SchemeKind;

/// Bytes of one 64-ary counter-tree node hashed by `sha256_node`.
const TREE_NODE_BYTES: usize = 64 * 32;

/// Every per-layer metric: (name, unit, better). Bases of the shares:
/// `functional.<s>.share` is functional time over the wall time of the
/// scheme's sessions; `npu.*_share` is span time over the traced pass's
/// wall time; `core.harness_share` is attack-cell time
/// outside the clean work a cell repeats (the unsecure reference's set-up
/// and two passes, the victim's set-up and first pass), over all cell time.
#[must_use]
pub fn catalog() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push((name, unit, better));
    for p in ["xts_enc", "xts_dec", "ctr", "mac_tag", "sha256_node"] {
        add(format!("crypto.{p}_ns"), "ns", "lower");
    }
    for s in SchemeKind::ALL.map(SchemeKind::label) {
        add(format!("functional.{s}.read_us"), "us", "lower");
        add(format!("functional.{s}.write_us"), "us", "lower");
        add(format!("functional.{s}.reads"), "count", "lower");
        add(format!("functional.{s}.writes"), "count", "lower");
        add(format!("functional.{s}.share"), "ratio", "lower");
    }
    for s in SchemeKind::ALL.map(SchemeKind::label) {
        add(format!("engine.{s}.ns_per_block"), "ns", "lower");
        add(format!("engine.{s}.blocks"), "count", "lower");
    }
    for h in [
        "baseline.counter_hit",
        "baseline.hash_hit",
        "baseline.mac_hit",
        "tnpu.mac_hit",
    ] {
        add(format!("engine.{h}"), "ratio", "higher");
    }
    add("npu.trace_build_ms".into(), "ms", "lower");
    add("npu.replay_ms".into(), "ms", "lower");
    add("npu.build_share".into(), "ratio", "lower");
    add("npu.replay_share".into(), "ratio", "lower");
    add("npu.groups".into(), "count", "lower");
    add("npu.cells".into(), "count", "lower");
    for what in ["context_init_ms", "pass_ms", "cell_ms"] {
        for s in SchemeKind::ALL.map(SchemeKind::label) {
            add(format!("core.{what}.{s}"), "ms", "lower");
        }
    }
    add("core.harness_share".into(), "ratio", "lower");
    add("core.step_p50_ms".into(), "ms", "lower");
    add("core.step_tail_ms".into(), "ms", "lower");
    add("core.sweep_step_ms".into(), "ms", "lower");
    add("core.sweeps".into(), "count", "lower");
    add("core.sweep_cycles".into(), "cycles", "lower");
    add("core.vt_bytes".into(), "B", "lower");
    add("bench.render_ms".into(), "ms", "lower");
    for layer in Layer::ALL {
        add(format!("{}.self_ms", layer.label()), "ms", "lower");
        add(format!("{}.calls", layer.label()), "count", "lower");
    }
    add("trace.overhead_frac".into(), "ratio", "lower");
    add("trace.spans".into(), "count", "lower");
    out
}

/// Calls and total time of one directly timed primitive.
#[derive(Debug, Clone, Copy)]
pub struct Primitive {
    /// Metric stem, e.g. `xts_enc`.
    pub name: &'static str,
    /// Calls made.
    pub calls: u64,
    /// Total time of the calls.
    pub ns: u64,
}

/// Time each `tnpu-crypto` primitive the functional schemes use, calling it
/// once per 64 B block the functional wrapper counted for the schemes that
/// use it: XTS for `tnpu` and `encrypt-only`, counter-mode AES and the
/// SHA-256 tree-node hash for `baseline`, the block MAC for `tnpu` and
/// `baseline`. One span per primitive.
#[must_use]
pub fn time_crypto() -> Vec<Primitive> {
    let reads = |s| wrap::functional_reads(s).blocks;
    let writes = |s| wrap::functional_writes(s).blocks;
    let both = |s| reads(s) + writes(s);
    let (tnpu, base, enc) = (
        SchemeKind::Treeless,
        SchemeKind::TreeBased,
        SchemeKind::EncryptOnly,
    );
    let key = Key128::derive(b"perfbench-crypto");
    let xts = XtsMode::from_master(key);
    let ctr = CtrMode::new(key);
    let mac = BlockMac::new(key);
    let mut block = [0u8; 64];
    let mut node = vec![0u8; TREE_NODE_BYTES];
    let timed = |name: &'static str, calls: u64, f: &mut dyn FnMut(u64)| {
        if calls == 0 {
            return Primitive { name, calls, ns: 0 };
        }
        let start = Instant::now();
        trace::span(Layer::Crypto, format!("crypto.{name}"), || {
            for i in 0..calls {
                f(i);
            }
        });
        Primitive {
            name,
            calls,
            ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    };
    vec![
        timed("xts_enc", writes(tnpu) + writes(enc), &mut |i| {
            xts.encrypt_block(i, black_box(&mut block));
        }),
        timed("xts_dec", reads(tnpu) + reads(enc), &mut |i| {
            xts.decrypt_block(i, black_box(&mut block));
        }),
        timed("ctr", both(base), &mut |i| {
            ctr.apply(i * 64, i, black_box(&mut block));
        }),
        timed("mac_tag", both(tnpu) + both(base), &mut |i| {
            let tag = mac.tag(i * 64, i, black_box(&block));
            block[..8].copy_from_slice(&tag.0);
        }),
        timed("sha256_node", both(base), &mut |i| {
            let mut h = Sha256::new();
            h.update(black_box(&node));
            node[..32].copy_from_slice(&h.finalize());
            node[32..40].copy_from_slice(&i.to_le_bytes());
        }),
    ]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Compute every catalogued metric from the traced run.
///
/// `untraced` and `traced` are the passes of the run's two phases; `extras`
/// are the workload's own metrics and override the computed ones.
#[must_use]
pub fn per_layer(
    spans: &[Span],
    untraced: &[Pass],
    traced: &[Pass],
    crypto: &[Primitive],
    extras: Vec<Metric>,
) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: String, value: f64| {
        values.insert(name, value);
    };
    let durs = |pred: &dyn Fn(&str) -> bool| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| pred(&s.name))
            .map(Span::dur_ns)
            .collect()
    };
    let ms_of = |v: &[u64]| v.iter().map(|&ns| ms(ns)).collect::<Vec<f64>>();
    let capacity_ns = traced.iter().map(|p| p.wall.as_nanos() as f64).sum::<f64>();

    // crypto
    for p in crypto {
        let per_call = if p.calls == 0 {
            0.0
        } else {
            p.ns as f64 / p.calls as f64
        };
        set(format!("crypto.{}_ns", p.name), per_call);
    }

    // functional and engine, from the wrapper counters
    let mut leaf_ns = BTreeMap::new();
    let mut leaf_calls = BTreeMap::new();
    for scheme in SchemeKind::ALL {
        let s = scheme.label();
        let (r, w) = (
            wrap::functional_reads(scheme),
            wrap::functional_writes(scheme),
        );
        let per = |t: trace::LeafTotals| {
            if t.calls == 0 {
                0.0
            } else {
                t.ns as f64 / t.calls as f64 / 1e3
            }
        };
        set(format!("functional.{s}.read_us"), per(r));
        set(format!("functional.{s}.write_us"), per(w));
        set(format!("functional.{s}.reads"), r.blocks as f64);
        set(format!("functional.{s}.writes"), w.blocks as f64);
        let session: u64 = durs(&|n| n == format!("core.session.{s}")).iter().sum();
        let share = if session == 0 {
            0.0
        } else {
            (r.ns + w.ns) as f64 / session as f64
        };
        set(format!("functional.{s}.share"), share);
        *leaf_ns.entry(Layer::Functional).or_insert(0) += r.ns + w.ns;
        *leaf_calls.entry(Layer::Functional).or_insert(0) += r.calls + w.calls;

        let e = wrap::engine_accesses(scheme);
        let per_block = if e.blocks == 0 {
            0.0
        } else {
            e.ns as f64 / e.blocks as f64
        };
        set(format!("engine.{s}.ns_per_block"), per_block);
        set(format!("engine.{s}.blocks"), e.blocks as f64);
        *leaf_ns.entry(Layer::Engine).or_insert(0) += e.ns;
        *leaf_calls.entry(Layer::Engine).or_insert(0) += e.calls;
    }

    // npu
    let builds = durs(&|n| n == "npu.build_trace");
    let replays = durs(&|n| n.starts_with("npu.replay."));
    let share = |v: &[u64]| {
        if capacity_ns == 0.0 {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / capacity_ns
        }
    };
    set("npu.trace_build_ms".into(), mean(&ms_of(&builds)));
    set("npu.replay_ms".into(), mean(&ms_of(&replays)));
    set("npu.build_share".into(), share(&builds));
    set("npu.replay_share".into(), share(&replays));
    set("npu.groups".into(), builds.len() as f64);
    set("npu.cells".into(), replays.len() as f64);

    // core
    let core_ms = |what: &str, s: &str| mean(&ms_of(&durs(&|n| n == format!("core.{what}.{s}"))));
    // A cell's clean work: the unsecure reference (set-up and two passes)
    // and the victim's set-up and first pass. The rest is harness.
    let reference = core_ms("context_init", "unsecure") + 2.0 * core_ms("pass", "unsecure");
    let (mut cell_total, mut clean_total) = (0.0, 0.0);
    for s in SchemeKind::ALL.map(SchemeKind::label) {
        let cells = ms_of(&durs(&|n| n == format!("core.cell.{s}")));
        set(
            format!("core.context_init_ms.{s}"),
            core_ms("context_init", s),
        );
        set(format!("core.pass_ms.{s}"), core_ms("pass", s));
        set(format!("core.cell_ms.{s}"), mean(&cells));
        cell_total += cells.iter().sum::<f64>();
        clean_total +=
            cells.len() as f64 * (reference + core_ms("context_init", s) + core_ms("pass", s));
    }
    let harness = if cell_total > 0.0 {
        ((cell_total - clean_total) / cell_total).max(0.0)
    } else {
        0.0
    };
    set("core.harness_share".into(), harness);
    let steps = ms_of(&durs(&|n| n.starts_with("core.step.")));
    set(
        "core.step_p50_ms".into(),
        if steps.is_empty() {
            0.0
        } else {
            median(&steps)
        },
    );
    set("core.step_tail_ms".into(), tail(&steps));

    // bench
    let renders: u64 = durs(&|n| n.starts_with("bench.render.")).iter().sum();
    set(
        "bench.render_ms".into(),
        ms(renders) / traced.len().max(1) as f64,
    );

    // self time and calls per layer
    let selfs = trace::self_times(spans);
    let mut self_ns: BTreeMap<Layer, u64> = leaf_ns;
    let mut calls: BTreeMap<Layer, u64> = leaf_calls;
    for s in spans {
        if s.layer == Layer::Crypto {
            continue; // counted per primitive call below
        }
        *self_ns.entry(s.layer).or_insert(0) += selfs[&s.id];
        *calls.entry(s.layer).or_insert(0) += 1;
    }
    for p in crypto {
        *self_ns.entry(Layer::Crypto).or_insert(0) += p.ns;
        *calls.entry(Layer::Crypto).or_insert(0) += p.calls;
    }
    for layer in Layer::ALL {
        let l = layer.label();
        set(
            format!("{l}.self_ms"),
            ms(self_ns.get(&layer).copied().unwrap_or(0)),
        );
        set(
            format!("{l}.calls"),
            calls.get(&layer).copied().unwrap_or(0) as f64,
        );
    }

    // tracing
    // Pass against pass: the traced pass's rate over the untraced passes'
    // median rate.
    let rates = |p: &[Pass]| p.iter().map(Pass::rate).collect::<Vec<f64>>();
    set(
        "trace.overhead_frac".into(),
        1.0 - median(&rates(traced)) / median(&rates(untraced)),
    );
    set("trace.spans".into(), spans.len() as f64);

    for m in extras {
        values.insert(m.name, m.value);
    }
    catalog()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.get(&name).copied().unwrap_or(0.0);
            Metric::new(name, value, unit)
        })
        .collect()
}
