//! CLI driver for the adversarial attack-injection matrix.
//!
//! ```text
//! attacks [--deny-undetected] [--threads N] [model ...]
//! ```
//!
//! Runs every attack of the taxonomy against every protection scheme on
//! full functional inferences of the given models (default: df ncf) and
//! prints the scheme × attack detection matrix. With `--deny-undetected`
//! the process exits non-zero if any cell contradicts the paper's claims
//! — the CI gate. stdout is byte-identical at any thread count; timing
//! goes to stderr.

use tnpu_bench::attacks;
use tnpu_bench::cli::{Cli, Flag, Positional};

fn main() {
    let args = Cli {
        flags: &[Flag::DenyUndetected],
        positional: Positional::Models,
    }
    .args();
    let cells = attacks::matrix(&args.positional_or(&attacks::DEFAULT_MODELS));
    println!("==== attacks ====");
    println!("{}", attacks::render(&cells));

    let bad = cells.iter().filter(|(_, c)| !c.matches()).count();
    args.finish(&[(
        Flag::DenyUndetected,
        (bad > 0).then(|| format!("{bad} cell(s) contradict the paper's claims")),
    )]);
}
