//! CLI driver regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--threads N] [--bench-json PATH] [target ...]
//! targets: table2 table3 fig4 fig5 fig14 fig15 fig16 fig17 csv check
//!          vtable hwcost ext_scaling ablations all
//! ```
//!
//! No target, or `all`, runs every target but `csv`, `check` and
//! `ext_scaling`. An unknown target is refused before anything runs.
//! Cells of each experiment run in parallel on a worker pool sized by
//! `--threads N` (or the `TNPU_THREADS` environment variable, defaulting
//! to all cores). stdout is byte-identical at any thread count; the
//! timing summary — per-job wall times and the aggregate speedup — goes
//! to stderr. `--bench-json PATH` additionally appends one JSON record of
//! the run's pool timings to the array in `PATH` (creating it if absent),
//! growing the perf-trajectory log `make bench` maintains.

use tnpu_bench::cli::{Cli, Flag, Positional};
use tnpu_bench::experiments::{self, model_list};
use tnpu_bench::tables;

/// Every accepted target. `all` (or no target) expands to the first
/// [`ALL`] of them.
const TARGETS: [&str; 15] = [
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
    "csv",
    "check",
    "ext_scaling",
    "all",
];
const ALL: usize = 11;

fn main() {
    let args = Cli {
        flags: &[Flag::Quick, Flag::BenchJson],
        positional: Positional::Targets(&TARGETS),
    }
    .args();
    let quick = args.has(Flag::Quick);
    let mut targets = args.positional_or(&[]);
    if targets.is_empty() || targets.contains(&"all") {
        targets = TARGETS[..ALL].to_vec();
    }
    let models = model_list(quick);

    // Figures 4/5/14/15 share the single-NPU sweep; fig16 extends it.
    let needs_single = targets
        .iter()
        .any(|t| ["fig4", "fig5", "fig14", "fig15", "fig16", "csv", "check"].contains(t));
    let needs_multi = targets.contains(&"fig16");
    let counts: Vec<usize> = if needs_multi { vec![1, 2, 3] } else { vec![1] };
    let sweep = if needs_single {
        Some(experiments::sweep(&models, &counts))
    } else {
        None
    };

    for target in targets {
        let rendered = match target {
            "table2" => tables::table2(),
            "table3" => tables::table3(&models),
            // Fig. 4 is the motivation figure: the baseline bars of Fig. 14.
            "fig4" | "fig14" => tables::fig14(sweep.as_ref().expect("swept"), &models),
            "fig5" => tables::fig5(sweep.as_ref().expect("swept"), &models),
            "fig15" => tables::fig15(sweep.as_ref().expect("swept"), &models),
            "fig16" => tables::fig16(sweep.as_ref().expect("swept"), &models, &counts),
            "csv" => tables::csv(sweep.as_ref().expect("swept"), &models),
            "check" => {
                let violations = tables::check(sweep.as_ref().expect("swept"), &models);
                if violations.is_empty() {
                    "reproduction check PASSED: all paper-shape invariants hold\n".to_owned()
                } else {
                    eprintln!("reproduction check FAILED:");
                    for v in &violations {
                        eprintln!("  {v}");
                    }
                    std::process::exit(1);
                }
            }
            "fig17" => tables::fig17(&models),
            "vtable" => tables::vtable(&models),
            "hwcost" => tables::hwcost(),
            "ext_scaling" => tnpu_bench::ablations::extended_scaling(&["df", "ncf", "sent"], 6),
            "ablations" => {
                let mut s = tnpu_bench::ablations::cache_sensitivity("ncf");
                s += "\n";
                s += &tnpu_bench::ablations::tree_arity("sent");
                s += "\n";
                s += &tnpu_bench::ablations::counter_granularity("ncf");
                s += "\n";
                s += &tnpu_bench::ablations::tree_organization("sent");
                s += "\n";
                s += &tnpu_bench::ablations::integrity_price(&["alex", "df", "sent", "ncf"]);
                s
            }
            other => unreachable!("target {other} passed validation"),
        };
        println!("==== {target} ====");
        println!("{rendered}");
    }

    args.finish(&[]);
}
