//! `figures`: the `experiments all` matrix, 368 cells, rendered through
//! `tnpu-bench`'s public sweep and table functions and diffed against
//! `results_full.txt`. All of its time is in the cost plane (`npu`
//! lowering and replay, the `memprot` cost engines); none is in `crypto` or
//! functional memory. Pinned by its golden: it takes no seed.

use super::{next_op, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{scheme_index, TimedEngine};
use crate::{guarded, Metric, Pass};
use std::collections::BTreeMap;
use std::time::Instant;
use tnpu_bench::experiments::FIGURE_SCHEMES;
use tnpu_bench::experiments::{self, model_list, ENDTOEND_EXPERIMENT, FIGURES_EXPERIMENT};
use tnpu_bench::{ablations, sweep as pool, tables, Sweep};
use tnpu_core::RunSpec;
use tnpu_memprot::{build_engine, EngineStats, SchemeKind};
use tnpu_npu::{NpuConfig, RunReport};
use tnpu_sim::cache::CacheStats;

/// The golden the rendered output must equal byte for byte.
pub const RESULTS: &str = "results_full.txt";

/// Cells in the matrix: the op count of one pass.
pub const CELLS: u64 = 368;

/// The `experiments all` targets, in output order.
const TARGETS: [&str; 11] = [
    "table2",
    "table3",
    "fig4",
    "fig5",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "vtable",
    "hwcost",
    "ablations",
];

/// Sections rendered from the single/multi-NPU figure sweep.
const SWEEP_SECTIONS: [&str; 5] = ["fig4", "fig5", "fig14", "fig15", "fig16"];

const NPU_COUNTS: [usize; 3] = [1, 2, 3];

/// The workload's state.
pub struct Figures {
    expected: String,
    models: Vec<&'static str>,
    /// The last untraced sweep: the oracle for the traced replays and the
    /// data the traced pass renders from.
    sweep: Option<Sweep>,
    /// Engine statistics of the traced replays, per scheme.
    engine_stats: [EngineStats; 4],
}

/// `==== target ====` sections of a rendered run.
fn sections(out: &str) -> BTreeMap<String, &str> {
    let mut map = BTreeMap::new();
    for chunk in out.split("==== ").skip(1) {
        if let Some((name, body)) = chunk.split_once(" ====\n") {
            map.insert(name.to_owned(), body);
        }
    }
    map
}

/// Ops of a pass that rendered `out` and fail the diff against `expected`.
/// A wrong figure section fails the cells of the pool it renders; a wrong
/// section that no pool feeds (or a missing one) fails every cell.
fn failed_cells(out: &str, expected: &str, pools: &BTreeMap<&'static str, u64>) -> u64 {
    if out == expected {
        return 0;
    }
    let (got, want) = (sections(out), sections(expected));
    let mut failed = 0;
    for (name, body) in &want {
        if got.get(name) == Some(body) {
            continue;
        }
        let pool = if SWEEP_SECTIONS.contains(&name.as_str()) {
            FIGURES_EXPERIMENT
        } else if name == "fig17" {
            ENDTOEND_EXPERIMENT
        } else if name == "ablations" {
            "ablations"
        } else {
            return CELLS;
        };
        failed += pools.get(pool).copied().unwrap_or(CELLS);
    }
    if failed == 0 {
        CELLS // extra sections or a framing difference
    } else {
        failed.min(CELLS)
    }
}

/// The five ablation tables, exactly as `experiments all` renders them.
fn ablation_tables() -> String {
    let mut s = ablations::cache_sensitivity("ncf");
    s += "\n";
    s += &ablations::tree_arity("sent");
    s += "\n";
    s += &ablations::counter_granularity("ncf");
    s += "\n";
    s += &ablations::tree_organization("sent");
    s += "\n";
    s += &ablations::integrity_price(&["alex", "df", "sent", "ncf"]);
    s
}

impl Figures {
    /// Render every target from `sweep`, running Fig. 17 and the ablations
    /// through their public functions; a span around each call when
    /// tracing.
    fn render_all(&self, sweep: &Sweep) -> String {
        let models = &self.models;
        let mut out = String::new();
        for target in TARGETS {
            let rendered = match target {
                "fig17" => {
                    let data = trace::span(Layer::Bench, "bench.fig17_sweep", || {
                        experiments::fig17_sweep(models)
                    });
                    trace::span(Layer::Bench, "bench.render.fig17", || {
                        tables::fig17_from(&data, models)
                    })
                }
                "ablations" => trace::span(Layer::Bench, "bench.ablations", ablation_tables),
                _ => trace::span(
                    Layer::Bench,
                    format!("bench.render.{target}"),
                    || match target {
                        "table2" => tables::table2(),
                        "table3" => tables::table3(models),
                        "fig4" | "fig14" => tables::fig14(sweep, models),
                        "fig5" => tables::fig5(sweep, models),
                        "fig15" => tables::fig15(sweep, models),
                        "fig16" => tables::fig16(sweep, models, &NPU_COUNTS),
                        "vtable" => tables::vtable(models),
                        "hwcost" => tables::hwcost(),
                        other => unreachable!("unlisted target {other}"),
                    },
                ),
            };
            out += &format!("==== {target} ====\n{rendered}\n");
        }
        out
    }

    /// Close a pass: collect the pool reports it recorded and score its
    /// output (or its panic).
    fn score(&self, start: Instant, rendered: Result<String, String>, extra_cells: u64) -> Pass {
        let mut pools: BTreeMap<&'static str, u64> = BTreeMap::new();
        for report in pool::take_session() {
            let name = match report.name.as_str() {
                FIGURES_EXPERIMENT => FIGURES_EXPERIMENT,
                ENDTOEND_EXPERIMENT => ENDTOEND_EXPERIMENT,
                _ => "ablations",
            };
            *pools.entry(name).or_default() += report.cells as u64;
        }
        *pools.entry(FIGURES_EXPERIMENT).or_default() += extra_cells;
        let wall = start.elapsed();
        let cells: u64 = pools.values().sum();
        let failed = match rendered {
            Ok(_) if cells != CELLS => {
                eprintln!("figures: pass ran {cells} cells, expected {CELLS}");
                CELLS
            }
            Ok(out) => failed_cells(&out, &self.expected, &pools),
            Err(msg) => {
                eprintln!("figures: pass panicked: {msg}");
                CELLS
            }
        };
        if failed > 0 {
            eprintln!("figures: {failed} cell(s) differ from {RESULTS}");
        }
        Pass {
            ops: CELLS,
            failed,
            wall,
        }
    }

    /// The figure sweep driven cell by cell: one trace build per (model,
    /// config) group at the largest NPU count, one replay per scheme x
    /// count through a timed engine, each checked against the public
    /// sweep's report. Returns (cells, failed cells).
    fn driven_sweep(&mut self, oracle: &Sweep) -> (u64, u64) {
        let npus_max = *NPU_COUNTS.last().expect("non-empty");
        let (mut total, mut failed) = (0, 0);
        for &model in &self.models {
            for config in &NpuConfig::paper_configs() {
                let spec = RunSpec::new(FIGURES_EXPERIMENT, model, config, SchemeKind::Unsecure, 1);
                let trace = guarded(|| {
                    trace::span_op(next_op(), Layer::Npu, "npu.build_trace", || {
                        spec.build_trace(npus_max)
                    })
                });
                for scheme in FIGURE_SCHEMES {
                    for npus in NPU_COUNTS {
                        let replayed = trace.as_ref().map_err(Clone::clone).and_then(|trace| {
                            guarded(|| {
                                let engine =
                                    TimedEngine::boxed(build_engine(scheme, &spec.protection));
                                let name = format!("npu.replay.{}", scheme.label());
                                trace::span_op(next_op(), Layer::Npu, name, || {
                                    trace.replay(engine, config, npus)
                                })
                            })
                        });
                        let slowest: Option<RunReport> = replayed
                            .ok()
                            .and_then(|reports| reports.into_iter().max_by_key(|r| r.total));
                        total += 1;
                        match slowest {
                            Some(r) => {
                                failed += u64::from(r != *oracle.get(model, config, scheme, npus));
                                self.engine_stats[scheme_index(scheme)].merge(&r.engine);
                            }
                            None => failed += 1,
                        }
                    }
                }
            }
        }
        (total, failed)
    }
}

fn hit_ratio(stats: &CacheStats) -> f64 {
    if stats.accesses() == 0 {
        0.0
    } else {
        stats.hits as f64 / stats.accesses() as f64
    }
}

impl Workload for Figures {
    fn setup(_seed: u64) -> Result<Self, String> {
        pool::set_threads(crate::POOL_WIDTH);
        let expected =
            std::fs::read_to_string(RESULTS).map_err(|e| format!("cannot read {RESULTS}: {e}"))?;
        let models = model_list(false);
        // Warm-up: the quick-model sweep on the same pool.
        std::hint::black_box(experiments::sweep(&model_list(true), &NPU_COUNTS));
        drop(pool::take_session());
        Ok(Figures {
            expected,
            models,
            sweep: None,
            engine_stats: Default::default(),
        })
    }

    fn pass(&mut self) -> Pass {
        let start = Instant::now();
        let result = guarded(|| {
            let sweep = experiments::sweep(&self.models, &NPU_COUNTS);
            let out = self.render_all(&sweep);
            (sweep, out)
        });
        let rendered = result.map(|(sweep, out)| {
            self.sweep = Some(sweep);
            out
        });
        self.score(start, rendered, 0)
    }

    fn traced_pass(&mut self) -> Pass {
        let oracle = self
            .sweep
            .take()
            .expect("an untraced pass ran before the traced ones");
        let start = Instant::now();
        let (cells, failed) = self.driven_sweep(&oracle);
        let rendered = guarded(|| self.render_all(&oracle));
        let mut pass = self.score(start, rendered, cells);
        pass.failed = (pass.failed + failed).min(CELLS);
        self.sweep = Some(oracle);
        pass
    }

    fn layer_extras(&mut self) -> Result<Vec<Metric>, String> {
        let baseline = &self.engine_stats[scheme_index(SchemeKind::TreeBased)];
        let tnpu = &self.engine_stats[scheme_index(SchemeKind::Treeless)];
        Ok(vec![
            Metric::new(
                "engine.baseline.counter_hit",
                hit_ratio(&baseline.counter_cache),
                "ratio",
            ),
            Metric::new(
                "engine.baseline.hash_hit",
                hit_ratio(&baseline.hash_cache),
                "ratio",
            ),
            Metric::new(
                "engine.baseline.mac_hit",
                hit_ratio(&baseline.mac_cache),
                "ratio",
            ),
            Metric::new("engine.tnpu.mac_hit", hit_ratio(&tnpu.mac_cache), "ratio"),
        ])
    }
}
