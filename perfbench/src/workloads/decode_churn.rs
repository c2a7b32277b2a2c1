//! `decode-churn`: tree-less (`tnpu`) stepped sessions with recovery on.
//! `decode` runs 40 steps at version limit 12 (the KV cache grows across a
//! 16 KB tile and three epoch sweeps run); `train` runs 8 iterations at
//! limit 4 (two sweeps). Each session's final output must equal an
//! unsecure-memory session stepped the same way at the same seed, and its
//! sweep count and final version-table bytes must repeat exactly. The
//! session seed is the benchmark's seed argument.
//!
//! A pass runs each program once, with context creation inside the timed
//! work (a real run pays it every time).

use super::{next_op, Workload};
use crate::trace::{self, Layer};
use crate::wrap::{TimedEngine, TimedMemory};
use crate::{guarded, mean, ms, Metric, Pass};
use std::time::Instant;
use tnpu_core::recovery::RetryPolicy;
use tnpu_core::stepped::SteppedSession;
use tnpu_crypto::Key128;
use tnpu_memprot::functional::{FunctionalMemory, TreelessMemory, UnsecureMemory};
use tnpu_memprot::{build_engine, ProtectionConfig, ProtectionEngine, SchemeKind};
use tnpu_models::{registry, Model};

/// One stepped program: a registered dynamic model, its step count and
/// version limit, and the lifecycle counts it must repeat.
struct Program {
    model: Model,
    steps: u64,
    limit: u64,
    sweeps: u64,
    vt_bytes: u64,
    /// Output of the unsecure-memory session stepped the same way.
    reference: Vec<u8>,
}

/// (model, steps, version limit, epoch sweeps, final version-table bytes).
const PROGRAMS: [(&str, u64, u64, u64, u64); 2] =
    [("decode", 40, 12, 3, 288), ("train", 8, 4, 2, 80)];

/// What one program run did.
#[derive(Debug, Default)]
struct Run {
    steps: u64,
    failed: u64,
    /// (host ms, swept) per step.
    step_ms: Vec<(f64, bool)>,
    sweeps: u64,
    sweep_cycles: u64,
    vt_bytes: u64,
}

/// The workload's state.
pub struct DecodeChurn {
    seed: u64,
    programs: Vec<Program>,
    /// Runs of the traced pass.
    traced_runs: Vec<Run>,
}

fn unsecure_output(model: &Model, steps: u64, seed: u64) -> Result<Vec<u8>, String> {
    let mut session = SteppedSession::with_memory(model, UnsecureMemory::new(), seed);
    for _ in 0..steps {
        session
            .step()
            .map_err(|e| format!("{} reference step: {e}", model.name))?;
    }
    session
        .read_output()
        .map_err(|e| format!("{} reference read-back: {e}", model.name))
}

fn master() -> Key128 {
    Key128::derive(b"decode-churn")
}

fn engine() -> Box<dyn ProtectionEngine> {
    build_engine(SchemeKind::Treeless, &ProtectionConfig::paper_default())
}

impl DecodeChurn {
    /// Step `program` from a fresh context over `mem`, checking every step,
    /// the output and the lifecycle counts.
    fn run_program<M: FunctionalMemory>(
        &self,
        program: &Program,
        mem: M,
        engine: Box<dyn ProtectionEngine>,
    ) -> Run {
        let mut run = Run {
            steps: program.steps,
            ..Run::default()
        };
        let name = &program.model.name;
        let session = guarded(|| {
            trace::span(Layer::Core, "core.context_init.tnpu", || {
                let mut s = SteppedSession::with_memory(&program.model, mem, self.seed);
                s.enable_recovery(RetryPolicy::default(), engine);
                s.set_version_limit(program.limit);
                s
            })
        });
        let mut session = match session {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("decode-churn: {name} set-up panicked: {msg}");
                run.failed = program.steps;
                return run;
            }
        };
        for i in 0..program.steps {
            let start = Instant::now();
            let stepped = guarded(|| {
                trace::span_op(next_op(), Layer::Core, "core.step.tnpu", || session.step())
            });
            let took = ms(start.elapsed());
            match stepped {
                Ok(Ok(t)) => run.step_ms.push((took, t.swept)),
                Ok(Err(e)) => {
                    eprintln!("decode-churn: {name} step {i}: {e}");
                    run.failed += 1;
                }
                Err(msg) => {
                    eprintln!("decode-churn: {name} step {i} panicked: {msg}");
                    run.failed = program.steps - i;
                    return run;
                }
            }
        }
        let out = guarded(|| {
            trace::span(Layer::Core, "core.read_output.tnpu", || {
                session.read_output()
            })
        });
        let stats = session.recovery_stats().unwrap_or_default();
        run.sweeps = stats.sweeps;
        run.sweep_cycles = stats.sweep_cycles;
        run.vt_bytes = session.version_table().storage_bytes();
        let output_ok = matches!(&out, Ok(Ok(o)) if *o == program.reference);
        let counts_ok = run.sweeps == program.sweeps && run.vt_bytes == program.vt_bytes;
        if !output_ok || !counts_ok {
            eprintln!(
                "decode-churn: {name}: output {}, sweeps {} (want {}), vt bytes {} (want {})",
                if output_ok { "matches" } else { "DIFFERS" },
                run.sweeps,
                program.sweeps,
                run.vt_bytes,
                program.vt_bytes
            );
            // The check belongs to the last step's op.
            run.failed = (run.failed + 1).min(program.steps);
        }
        run
    }

    fn run(&mut self, traced: bool) -> (Pass, Vec<Run>) {
        let start = Instant::now();
        let runs: Vec<Run> = self
            .programs
            .iter()
            .map(|program| {
                if traced {
                    trace::span_op(next_op(), Layer::Core, "core.session.tnpu", || {
                        let mem = TimedMemory::new(TreelessMemory::new(master()));
                        self.run_program(program, mem, TimedEngine::boxed(engine()))
                    })
                } else {
                    self.run_program(program, TreelessMemory::new(master()), engine())
                }
            })
            .collect();
        let pass = Pass {
            ops: runs.iter().map(|r| r.steps).sum(),
            failed: runs.iter().map(|r| r.failed).sum(),
            wall: start.elapsed(),
        };
        (pass, runs)
    }
}

impl Workload for DecodeChurn {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut programs = Vec::new();
        for (name, steps, limit, sweeps, vt_bytes) in PROGRAMS {
            let model = registry::model(name).ok_or(format!("unknown model {name}"))?;
            let reference = unsecure_output(&model, steps, seed)?;
            programs.push(Program {
                model,
                steps,
                limit,
                sweeps,
                vt_bytes,
                reference,
            });
        }
        Ok(DecodeChurn {
            seed,
            programs,
            traced_runs: Vec::new(),
        })
    }

    fn pass(&mut self) -> Pass {
        self.run(false).0
    }

    fn traced_pass(&mut self) -> Pass {
        let (pass, runs) = self.run(true);
        self.traced_runs = runs;
        pass
    }

    fn layer_extras(&mut self) -> Result<Vec<Metric>, String> {
        let sweep_steps: Vec<f64> = self
            .traced_runs
            .iter()
            .flat_map(|r| &r.step_ms)
            .filter(|(_, swept)| *swept)
            .map(|(t, _)| *t)
            .collect();
        // Lifecycle counts of one decode and one train session.
        let (mut sweeps, mut cycles, mut vt) = (0, 0, 0);
        for r in &self.traced_runs {
            sweeps += r.sweeps;
            cycles += r.sweep_cycles;
            vt += r.vt_bytes;
        }
        Ok(vec![
            Metric::new("core.sweep_step_ms", mean(&sweep_steps), "ms"),
            Metric::new("core.sweeps", sweeps as f64, "count"),
            Metric::new("core.sweep_cycles", cycles as f64, "cycles"),
            Metric::new("core.vt_bytes", vt as f64, "B"),
        ])
    }
}
