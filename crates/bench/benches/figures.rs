//! One benchmark per paper figure/table: each measures the simulator
//! regenerating that experiment's data on a reduced model subset (so
//! `cargo bench` stays minutes, not hours). The full-suite numbers come
//! from `cargo run --release -p tnpu-bench --bin experiments -- all`.

use criterion::{criterion_group, criterion_main, Criterion};
use tnpu_bench::experiments;
use tnpu_bench::tables;
use tnpu_core::endtoend::run_end_to_end;
use tnpu_memprot::{build_engine, ProtectionConfig, SchemeKind};
use tnpu_npu::{NpuConfig, TileTrace, DEFAULT_BASE_SEED};

/// The cheap pair used by the per-figure benches: one conv model and one
/// gather-heavy model.
const QUICK: [&str; 2] = ["df", "ncf"];

/// The parallel-runner payoff: the same figure sweep serially and on the
/// session pool width. The ratio is the speedup `experiments -- all`
/// reports on its stderr summary.
fn bench_sweep_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_runner");
    group.sample_size(10);
    group.bench_function("figure_sweep_1_thread", |b| {
        b.iter(|| std::hint::black_box(experiments::sweep_with_threads(1, &QUICK, &[1, 2])));
    });
    let width = tnpu_bench::sweep::threads();
    group.bench_function(format!("figure_sweep_{width}_threads"), |b| {
        b.iter(|| std::hint::black_box(experiments::sweep_with_threads(width, &QUICK, &[1, 2])));
    });
    group.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    group.bench_function("fig4_motivation_baseline", |b| {
        b.iter(|| {
            let model = tnpu_models::registry::model("df").expect("registered");
            std::hint::black_box(tnpu_npu::simulate(
                &model,
                &NpuConfig::small_npu(),
                SchemeKind::TreeBased,
            ))
        });
    });

    group.bench_function("fig5_counter_miss_rates", |b| {
        b.iter(|| {
            let sweep = experiments::sweep(&QUICK, &[1]);
            std::hint::black_box(tables::fig5(&sweep, &QUICK))
        });
    });

    group.bench_function("fig14_exec_times", |b| {
        b.iter(|| {
            let sweep = experiments::sweep(&QUICK, &[1]);
            std::hint::black_box(tables::fig14(&sweep, &QUICK))
        });
    });

    group.bench_function("fig15_traffic", |b| {
        b.iter(|| {
            let sweep = experiments::sweep(&QUICK, &[1]);
            std::hint::black_box(tables::fig15(&sweep, &QUICK))
        });
    });

    group.bench_function("fig16_scalability_3npu", |b| {
        b.iter(|| {
            let model = tnpu_models::registry::model("df").expect("registered");
            let npu = NpuConfig::small_npu();
            let engine = build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default());
            std::hint::black_box(
                TileTrace::build_replicated(&model, &npu, 3, DEFAULT_BASE_SEED)
                    .replay(engine, &npu, 3),
            )
        });
    });

    group.bench_function("fig17_end_to_end", |b| {
        b.iter(|| {
            let model = tnpu_models::registry::model("df").expect("registered");
            std::hint::black_box(run_end_to_end(
                &model,
                &NpuConfig::small_npu(),
                SchemeKind::Treeless,
            ))
        });
    });

    group.bench_function("table3_footprints", |b| {
        b.iter(|| std::hint::black_box(tables::table3(&tnpu_models::registry::MODEL_NAMES)));
    });

    group.bench_function("vtable_storage", |b| {
        b.iter(|| std::hint::black_box(tables::vtable(&QUICK)));
    });

    group.bench_function("hwcost", |b| {
        b.iter(|| std::hint::black_box(tables::hwcost()));
    });

    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("plan_resnet50", |b| {
        let model = tnpu_models::registry::model("res").expect("registered");
        let npu = NpuConfig::small_npu();
        let layout = tnpu_npu::alloc::ModelLayout::allocate(&model, tnpu_sim::Addr(0));
        b.iter(|| std::hint::black_box(tnpu_npu::tiler::plan(&model, &npu, &layout, 1)));
    });
    group.bench_function("functional_secure_run_agz", |b| {
        let model = tnpu_models::registry::model("agz").expect("registered");
        b.iter(|| {
            let mut runner = tnpu_core::secure_runner::SecureRunner::new(
                &model,
                tnpu_crypto::Key128::derive(b"bench"),
                1,
            );
            runner.run().expect("clean run");
            std::hint::black_box(runner.read_output().expect("verifies"))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_runner, bench_figures, bench_simulator);
criterion_main!(benches);
