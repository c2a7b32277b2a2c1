//! Simulator invariants: property tests over the tiler and scheduling
//! edge cases of the NPU machine.

use proptest::prelude::*;
use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_models::ELEM_BYTES;
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::controller::MemoryController;
use tnpu_npu::machine::NpuMachine;
use tnpu_npu::tiler::{self, choose_tiles};
use tnpu_npu::{NpuConfig, TileTrace, DEFAULT_BASE_SEED};
use tnpu_sim::Addr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any GEMM dimension triple yields a tiling that fits the SPM under
    /// double buffering and respects the dimension bounds.
    #[test]
    fn chosen_tiles_always_fit(
        m in 1u64..20_000,
        k in 1u64..8_000,
        n in 1u64..40_000,
    ) {
        for npu in NpuConfig::paper_configs() {
            let d = choose_tiles(&npu, m, k, n, m * k * ELEM_BYTES);
            prop_assert!(d.mt >= 1 && d.mt <= m);
            prop_assert!(d.kt >= 1 && d.kt <= k);
            prop_assert!(d.nt >= 1 && d.nt <= n);
            let bytes = (2 * (d.mt * d.kt + d.kt * d.nt) + d.mt * d.nt) * ELEM_BYTES;
            prop_assert!(
                bytes <= npu.spm_bytes,
                "{m}x{k}x{n} on {}: {bytes} B > {} B SPM",
                npu.name,
                npu.spm_bytes
            );
        }
    }

    /// The tile search is deterministic.
    #[test]
    fn tiling_is_deterministic(m in 1u64..5_000, k in 1u64..4_000, n in 1u64..8_000) {
        let npu = NpuConfig::small_npu();
        let a = choose_tiles(&npu, m, k, n, m * k * ELEM_BYTES);
        let b = choose_tiles(&npu, m, k, n, m * k * ELEM_BYTES);
        prop_assert_eq!(a, b);
    }
}

/// Every model's plan: stores cover each output tensor exactly once, and
/// total load bytes cover at least the weights.
#[test]
fn plans_cover_outputs_for_all_models() {
    let npu = NpuConfig::small_npu();
    for name in tnpu_models::registry::MODEL_NAMES {
        let model = tnpu_models::registry::model(name).expect("registered");
        let layout = ModelLayout::allocate(&model, Addr(0));
        let plan = tiler::plan(&model, &npu, &layout, 11);
        for (li, layer) in model.layers.iter().enumerate() {
            if matches!(layer.kind, tnpu_models::LayerKind::Concat { .. }) {
                continue;
            }
            let (s, e) = plan.layer_jobs[li];
            let stored: u64 = plan.jobs[s..e].iter().map(|j| j.store_bytes()).sum();
            assert_eq!(
                stored,
                layer.kind.out_elements() * ELEM_BYTES,
                "{name}/{}",
                layer.name
            );
        }
    }
}

/// A plan with a single job (tiny model) still schedules correctly.
#[test]
fn single_job_machine_completes() {
    // The smallest registered model is deepface's final layers; build a
    // tiny synthetic model instead.
    let model = tnpu_models::ModelBuilder::new("tiny", "Tiny", (4, 8, 8))
        .conv("only", 4, 3, 1, 1)
        .build();
    let npu = NpuConfig::small_npu();
    let layout = ModelLayout::allocate(&model, Addr(0));
    let plan = tiler::plan(&model, &npu, &layout, 1);
    assert_eq!(plan.jobs.len(), 1);
    let engine = build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default());
    let mut ctl = MemoryController::new(engine, &npu);
    let mut m = NpuMachine::new(plan);
    let mut served = 0;
    while !m.is_done() {
        m.serve_next(&mut ctl);
        served += 1;
        assert!(served < 100, "machine must terminate");
    }
    let report = m.into_report(&ctl);
    assert!(report.total.0 > 0);
    assert!(report.data_read > 0 && report.data_write > 0);
}

/// Layer barriers: a two-layer chain must not start loading layer 1
/// before layer 0's stores complete; the finish times are ordered.
#[test]
fn layer_barrier_orders_finishes() {
    let model = tnpu_models::ModelBuilder::new("chain", "Chain", (8, 16, 16))
        .conv("a", 8, 3, 1, 1)
        .conv("b", 8, 3, 1, 1)
        .conv("c", 8, 3, 1, 1)
        .build();
    let npu = NpuConfig::small_npu();
    let layout = ModelLayout::allocate(&model, Addr(0));
    let plan = tiler::plan(&model, &npu, &layout, 1);
    let engine = build_engine(SchemeKind::Unsecure, &ProtectionConfig::paper_default());
    let mut ctl = MemoryController::new(engine, &npu);
    let mut m = NpuMachine::new(plan);
    while !m.is_done() {
        m.serve_next(&mut ctl);
    }
    let report = m.into_report(&ctl);
    let finishes: Vec<u64> = report.layers.iter().map(|l| l.finish.0).collect();
    assert!(finishes[0] < finishes[1]);
    assert!(finishes[1] < finishes[2]);
}

/// `count` NPUs each inferring `model` once over one shared engine.
fn replicated(
    model: &tnpu_models::Model,
    npu: &NpuConfig,
    scheme: SchemeKind,
    count: usize,
) -> Vec<tnpu_npu::RunReport> {
    let engine = build_engine(scheme, &ProtectionConfig::paper_default());
    TileTrace::build_replicated(model, npu, count, DEFAULT_BASE_SEED).replay(engine, npu, count)
}

/// Multi-NPU determinism: the same configuration always produces the same
/// cycle counts.
#[test]
fn multi_npu_is_deterministic() {
    let model = tnpu_models::registry::model("df").expect("registered");
    let npu = NpuConfig::small_npu();
    let run = |_: u32| {
        replicated(&model, &npu, SchemeKind::TreeBased, 2)
            .iter()
            .map(|r| r.total.0)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(0), run(1));
}

/// Fairness: with identical work, no NPU finishes wildly later than its
/// peers (FCFS keeps the spread bounded).
#[test]
fn multi_npu_fairness() {
    let model = tnpu_models::registry::model("df").expect("registered");
    let npu = NpuConfig::small_npu();
    let totals: Vec<u64> = replicated(&model, &npu, SchemeKind::Treeless, 3)
        .iter()
        .map(|r| r.total.0)
        .collect();
    let min = *totals.iter().min().expect("non-empty") as f64;
    let max = *totals.iter().max().expect("non-empty") as f64;
    assert!(
        max / min < 1.25,
        "same work should finish within ~25 %: {totals:?}"
    );
}
