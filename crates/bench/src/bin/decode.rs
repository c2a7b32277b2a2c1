//! CLI driver for the dynamic-dataflow crossover sweep.
//!
//! ```text
//! decode [--quick] [--deny-undetected] [--deny-corrupted] [--threads N]
//!        [--bench-json PATH]
//! ```
//!
//! Prints the sequence-length × version-limit × scheme crossover figure
//! for the autoregressive-decode and training-churn workloads — per-step
//! replay cycles with the tree-less scheme's amortized epoch-sweep bill
//! folded in, `<<` marking the cells where version churn pushes tree-less
//! behind the counter tree — then joins the attack and environmental-fault
//! matrices for the dynamic models. `--deny-undetected` exits non-zero if
//! any attack cell contradicts the paper's claims, `--deny-corrupted` if
//! any fault cell contradicts the fault model. stdout is byte-identical
//! at any thread count; timing goes to stderr.

use tnpu_bench::cli::{Cli, Flag, Positional};
use tnpu_bench::{attacks, decode, faults, sweep};

fn main() {
    let args = Cli {
        flags: &[
            Flag::Quick,
            Flag::DenyUndetected,
            Flag::DenyCorrupted,
            Flag::BenchJson,
        ],
        positional: Positional::Nothing,
    }
    .args();
    let quick = args.has(Flag::Quick);

    // Quick keeps the joined matrices to the decode model, the sparser
    // fault period, and two passes — the dynamic models push megabytes
    // through software crypto per inference, so the full five-pass
    // dense-period matrix is a multi-minute serial run. The full run
    // adds the training workload and both periods at [`faults::PASSES`],
    // matching the static binaries' default coverage.
    let models: &[&str] = if quick {
        &["decode"]
    } else {
        &["decode", "train"]
    };
    let periods: &[u64] = if quick {
        &faults::DEFAULT_PERIODS[1..]
    } else {
        &faults::DEFAULT_PERIODS
    };
    let passes = if quick {
        faults::QUICK_PASSES
    } else {
        faults::PASSES
    };

    let (replays, lifecycles) = decode::crossover(quick);
    println!("==== decode crossover ====");
    println!("{}", decode::render_crossover(&replays, &lifecycles));

    let attack_cells = attacks::matrix(models);
    println!("==== decode attacks ====");
    println!("{}", attacks::render(&attack_cells));

    let fault_cells = sweep::recorded(faults::matrix_with_threads(
        sweep::threads(),
        models,
        periods,
        passes,
    ));
    println!("==== decode faults ====");
    println!("{}", faults::render(&fault_cells));

    let undetected = attack_cells.iter().filter(|(_, c)| !c.matches()).count();
    let corrupted = fault_cells.iter().filter(|c| !c.matches()).count();
    args.finish(&[
        (
            Flag::DenyUndetected,
            (undetected > 0).then(|| format!("{undetected} cell(s) contradict the paper's claims")),
        ),
        (
            Flag::DenyCorrupted,
            (corrupted > 0).then(|| format!("{corrupted} cell(s) contradict the fault model")),
        ),
    ]);
}
