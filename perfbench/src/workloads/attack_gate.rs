//! `attack-gate`: the resident attack matrix on `df`, 7 attacks x 4
//! schemes = 28 cells, each one call to
//! `tnpu_core::attacks::run_cell_on(.., Surface::Resident)`. Verdicts must
//! equal the `df` rows of the frozen attack golden, and detection causes
//! the harness's expected causes. Pinned by its golden: it takes no seed.
//!
//! `run_cell_on` builds its memory internally, so the traced run measures
//! the functional layer by driving the same clean two-pass sessions (same
//! model, seeds, keys and schemes) through [`TimedMemory`] beside the
//! timed cells.

use super::{next_op, Workload};
use crate::trace::{self, Layer};
use crate::wrap::TimedMemory;
use crate::{guarded, Metric, Pass};
use std::collections::BTreeMap;
use std::time::Instant;
use tnpu_core::attacks::{expected_cause, run_cell_on, Surface};
use tnpu_core::secure_runner::SecureRunner;
use tnpu_core::Scheme;
use tnpu_crypto::Key128;
use tnpu_memprot::adversary::AttackKind;
use tnpu_memprot::functional::{build_functional, UnsecureMemory};
use tnpu_models::{registry, Model};
use tnpu_npu::alloc::ModelLayout;
use tnpu_sim::rng::SplitMix64;
use tnpu_sim::{Addr, BLOCK_SIZE};

/// The frozen attack golden; only its `df` rows are read.
pub const GOLDEN: &str = "crates/bench/tests/golden/attacks_df_ncf.txt";

/// The attacked model.
pub const MODEL: &str = "df";

/// Cells in the matrix: the op count of one pass.
pub const CELLS: u64 = 28;

/// The workload's state.
pub struct AttackGate {
    model: Model,
    /// Golden verdict per (attack, scheme) label.
    golden: BTreeMap<(String, String), String>,
    cells: Vec<(Scheme, AttackKind)>,
    /// The unattacked two-pass output every clean session must produce.
    reference: Vec<u8>,
}

/// The verdict table of `model` in a rendered attack matrix.
fn parse_golden(text: &str, model: &str) -> Result<BTreeMap<(String, String), String>, String> {
    let mut lines = text
        .lines()
        .skip_while(|l| *l != format!("-- {model} --"))
        .skip(1);
    let header: Vec<&str> = lines
        .next()
        .ok_or(format!("no `{model}` table in {GOLDEN}"))?
        .split_whitespace()
        .skip(1)
        .collect();
    let mut verdicts = BTreeMap::new();
    for line in lines.take_while(|l| !l.starts_with("--") && !l.starts_with("all ")) {
        let mut cols = line.split_whitespace();
        let attack = cols.next().ok_or("empty golden row")?;
        for (scheme, verdict) in header.iter().zip(cols) {
            verdicts.insert(
                (attack.to_owned(), (*scheme).to_owned()),
                verdict.to_owned(),
            );
        }
    }
    if verdicts.len() as u64 != CELLS {
        return Err(format!(
            "{GOLDEN}: {} `{model}` verdicts, expected {CELLS}",
            verdicts.len()
        ));
    }
    Ok(verdicts)
}

fn seeds(model: &Model) -> (u64, u64) {
    (
        SplitMix64::seed_from_labels(&["attacks", &model.name, "pass1"]),
        SplitMix64::seed_from_labels(&["attacks", &model.name, "pass2"]),
    )
}

impl AttackGate {
    /// Run one cell and check it against the golden verdict and the
    /// expected cause.
    fn cell_ok(&self, scheme: Scheme, attack: AttackKind) -> bool {
        match guarded(|| run_cell_on(&self.model, scheme, attack, Surface::Resident)) {
            Ok(cell) => {
                let want = &self.golden[&(attack.label().to_owned(), scheme.label().to_owned())];
                let ok = cell.outcome.label() == want
                    && cell.matches()
                    && cell.cause == expected_cause(scheme, attack);
                if !ok {
                    eprintln!(
                        "attack-gate: {scheme} x {attack}: got {} ({:?}), golden {want}",
                        cell.outcome, cell.cause
                    );
                }
                ok
            }
            Err(msg) => {
                eprintln!("attack-gate: {scheme} x {attack} panicked: {msg}");
                false
            }
        }
    }

    fn run(&self, traced: bool) -> Pass {
        let start = Instant::now();
        let mut failed = 0;
        for &(scheme, attack) in &self.cells {
            let ok = if traced {
                let name = format!("core.cell.{}", scheme.label());
                trace::span_op(next_op(), Layer::Core, name, || {
                    self.cell_ok(scheme, attack)
                })
            } else {
                self.cell_ok(scheme, attack)
            };
            failed += u64::from(!ok);
        }
        Pass {
            ops: CELLS,
            failed,
            wall: start.elapsed(),
        }
    }

    /// One clean two-pass session of `scheme` over a timed memory, with a
    /// span around context set-up, each pass and the read-back.
    fn clean_session(&self, scheme: Scheme) -> Result<(), String> {
        let (s1, s2) = seeds(&self.model);
        let layout = ModelLayout::allocate(&self.model, Addr(0));
        let data_blocks = layout.total_bytes.div_ceil(BLOCK_SIZE as u64).max(1);
        let s = scheme.label();
        trace::span_op(next_op(), Layer::Core, format!("core.session.{s}"), || {
            let mem = TimedMemory::new(build_functional(
                scheme,
                Key128::derive(b"attacks-victim"),
                data_blocks,
            ));
            let mut runner = trace::span(Layer::Core, format!("core.context_init.{s}"), || {
                SecureRunner::with_memory(&self.model, mem, s1)
            });
            let pass = |runner: &mut SecureRunner<_>| {
                trace::span(Layer::Core, format!("core.pass.{s}"), || runner.run())
                    .map_err(|e| format!("{s} clean pass: {e}"))
            };
            pass(&mut runner)?;
            runner
                .next_inference(s2)
                .map_err(|e| format!("{s} input bump: {e}"))?;
            pass(&mut runner)?;
            let out = trace::span(Layer::Core, format!("core.read_output.{s}"), || {
                runner.read_output()
            })
            .map_err(|e| format!("{s} read-back: {e}"))?;
            if out == self.reference {
                Ok(())
            } else {
                Err(format!("{s} clean output differs from the reference"))
            }
        })
    }
}

impl Workload for AttackGate {
    fn setup(_seed: u64) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
        let golden = parse_golden(&text, MODEL)?;
        let model = registry::model(MODEL).ok_or(format!("unknown model {MODEL}"))?;
        let (s1, s2) = seeds(&model);
        let mut r = SecureRunner::with_memory(&model, UnsecureMemory::new(), s1);
        let reference = r
            .run()
            .and_then(|_| r.next_inference(s2))
            .and_then(|()| r.run())
            .and_then(|_| r.read_output())
            .map_err(|e| format!("unsecure reference: {e}"))?;
        let mut cells = Vec::new();
        for scheme in Scheme::ALL {
            for attack in AttackKind::ALL {
                cells.push((scheme, attack));
            }
        }
        let gate = AttackGate {
            model,
            golden,
            cells,
            reference,
        };
        // Warm-up: the cheapest cell.
        if !gate.cell_ok(Scheme::Unsecure, AttackKind::BitFlip) {
            return Err("warm-up cell contradicts the golden".to_owned());
        }
        Ok(gate)
    }

    fn pass(&mut self) -> Pass {
        self.run(false)
    }

    fn traced_pass(&mut self) -> Pass {
        self.run(true)
    }

    fn layer_extras(&mut self) -> Result<Vec<Metric>, String> {
        trace::span(Layer::Bench, "bench.functional_drive", || {
            Scheme::ALL
                .into_iter()
                .try_for_each(|scheme| guarded(|| self.clean_session(scheme)).and_then(|r| r))
        })?;
        Ok(Vec::new())
    }
}
