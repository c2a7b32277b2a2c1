//! The timing wrappers delegate every call unchanged: a wrapped session or
//! replay gives byte-identical outputs and identical simulated statistics
//! to an unwrapped one, on all four schemes.

use perfbench::wrap::{TimedEngine, TimedMemory};
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::secure_runner::{LayerTrace, SecureRunner};
use tnpu_core::stepped::{StepTrace, SteppedSession};
use tnpu_core::RunSpec;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{build_functional, FunctionalMemory};
use tnpu_memprot::{build_engine, ProtectionConfig, ProtectionEngine, SchemeKind};
use tnpu_models::{registry, Model};
use tnpu_npu::alloc::ModelLayout;
use tnpu_npu::NpuConfig;
use tnpu_sim::{Addr, BLOCK_SIZE};

fn model(name: &str) -> Model {
    registry::model(name).expect("registered model")
}

fn memory(model: &Model, scheme: SchemeKind) -> Box<dyn FunctionalMemory> {
    let layout = ModelLayout::allocate(model, Addr(0));
    let blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
    build_functional(scheme, Key128::derive(b"wrapper-test"), blocks)
}

fn engine(scheme: SchemeKind) -> Box<dyn ProtectionEngine> {
    build_engine(scheme, &ProtectionConfig::paper_default())
}

/// Layer traces of two passes, the verified output and the final
/// version-table bytes.
fn two_passes<M: FunctionalMemory>(model: &Model, mem: M) -> (Vec<Vec<LayerTrace>>, Vec<u8>, u64) {
    let mut r = SecureRunner::with_memory(model, mem, 11);
    let first = r.run().expect("clean pass 1");
    r.next_inference(12).expect("input bump");
    let second = r.run().expect("clean pass 2");
    let out = r.read_output().expect("clean read-back");
    (vec![first, second], out, r.version_table().storage_bytes())
}

#[test]
fn wrapped_secure_runner_matches_unwrapped_on_every_scheme() {
    let df = model("df");
    for scheme in SchemeKind::ALL {
        let plain = two_passes(&df, memory(&df, scheme));
        let timed = two_passes(&df, TimedMemory::new(memory(&df, scheme)));
        assert_eq!(plain, timed, "{scheme}");
    }
}

#[test]
fn wrapped_engine_replay_matches_unwrapped_on_every_scheme() {
    let npu = NpuConfig::small_npu();
    for scheme in SchemeKind::ALL {
        let spec = RunSpec::new("wrapper-test", "df", &npu, scheme, 2);
        let trace = spec.build_trace(2);
        let plain = trace.replay(engine(scheme), &npu, 2);
        let timed = trace.replay(TimedEngine::boxed(engine(scheme)), &npu, 2);
        assert_eq!(plain, timed, "{scheme}");
    }
}

/// Step traces, output, recovery statistics and final version-table bytes
/// of a short training loop that sweeps.
fn train<M: FunctionalMemory>(
    mem: M,
    engine: Box<dyn ProtectionEngine>,
) -> (Vec<StepTrace>, Vec<u8>, String, u64) {
    let mut s = SteppedSession::with_memory(&model("train"), mem, 5);
    s.enable_recovery(RetryPolicy::default(), engine);
    s.set_version_limit(3);
    let steps = (0..5).map(|_| s.step().expect("clean step")).collect();
    let out = s.read_output().expect("clean read-back");
    let stats = format!("{:?}", s.recovery_stats());
    (steps, out, stats, s.version_table().storage_bytes())
}

#[test]
fn wrapped_stepped_session_matches_unwrapped_on_every_scheme() {
    let m = model("train");
    for scheme in SchemeKind::ALL {
        let plain = train(memory(&m, scheme), engine(scheme));
        let timed = train(
            TimedMemory::new(memory(&m, scheme)),
            TimedEngine::boxed(engine(scheme)),
        );
        assert!(
            plain.0.iter().any(|t| t.swept),
            "{scheme}: the run must sweep"
        );
        assert_eq!(plain, timed, "{scheme}");
    }
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let per_layer = json
        .split("\"per_layer\"")
        .nth(1)
        .expect("a per_layer list");
    let listed = per_layer.matches("\"name\"").count();
    let catalog = perfbench::layers::catalog();
    assert_eq!(listed, catalog.len(), "per_layer entries");
    for (name, unit, better) in catalog {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(per_layer.contains(&entry), "missing {entry}");
    }
}
