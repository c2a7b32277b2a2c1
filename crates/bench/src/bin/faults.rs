//! CLI driver for the environmental-fault resilience matrix.
//!
//! ```text
//! faults [--deny-corrupted] [--threads N] [model ...]
//! ```
//!
//! Injects every environmental fault process of the taxonomy (transient
//! and persistent bit errors, dropped and stalled DMA transfers, crypto
//! soft errors) at every default rate against every protection scheme,
//! with the recovery layer enabled, and prints the scheme × fault
//! resilience matrix. With `--deny-corrupted` the process exits non-zero
//! if any cell contradicts the fault model — the CI gate that protected
//! schemes never compute on corrupted data. stdout is byte-identical at
//! any thread count; timing goes to stderr.

use tnpu_bench::cli::{Cli, Flag, Positional};
use tnpu_bench::faults;

fn main() {
    let args = Cli {
        flags: &[Flag::DenyCorrupted],
        positional: Positional::Models,
    }
    .args();
    let cells = faults::matrix(&args.positional_or(&faults::DEFAULT_MODELS));
    println!("==== faults ====");
    println!("{}", faults::render(&cells));

    let bad = cells.iter().filter(|c| !c.matches()).count();
    args.finish(&[(
        Flag::DenyCorrupted,
        (bad > 0).then(|| format!("{bad} cell(s) contradict the fault model")),
    )]);
}
