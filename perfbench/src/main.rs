//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures|attack-gate|decode-churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root: the workloads read `results_full.txt` and
//! the attack golden from there. The last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! human-readable summary goes to stderr; the traced run also writes its
//! spans to `perfbench/out/trace-<workload>.jsonl`.

use perfbench::workloads::attack_gate::AttackGate;
use perfbench::workloads::decode_churn::DecodeChurn;
use perfbench::workloads::figures::Figures;
use perfbench::workloads::Workload;
use perfbench::{layers, median, peak_rss_mb, run_passes, throughput, trace, Metric, Pass};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(W::setup(args.seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = state.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let total = |passes: &[Pass]| -> (u64, u64) {
        (
            passes.iter().map(|p| p.ops).sum(),
            passes.iter().map(|p| p.failed).sum(),
        )
    };

    if !args.trace {
        let passes = run_passes(budget, || w.pass());
        let (attempted, failed) = total(&passes);
        let rates: Vec<f64> = passes.iter().map(Pass::rate).collect();
        eprintln!(
            "{}: set-ups {setups:.4?} s, pass rates {rates:.2?}",
            args.workload
        );
        let ops_per_s = throughput(&passes);
        eprintln!(
            "{}: setup_s {:.4}  ops_per_s {:.3}  peak_rss_mb {:.1}  fail_frac {}  \
             ({attempted} ops in {} passes, {failed} failed)",
            args.workload,
            median(&setups),
            ops_per_s,
            peak_rss_mb(),
            failed as f64 / attempted as f64,
            passes.len()
        );
        return Ok(Report {
            attempted,
            failed,
            metrics: vec![
                Metric::new("setup_s", median(&setups), "s"),
                Metric::new("ops_per_s", ops_per_s, "ops/s"),
                Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
                Metric::new(
                    "ok_frac",
                    (attempted - failed) as f64 / attempted as f64,
                    "ratio",
                ),
            ],
        });
    }

    let untraced = run_passes(budget / 2, || w.pass());
    perfbench::wrap::reset_counters();
    trace::enable();
    let traced = vec![trace::span(trace::Layer::Bench, "bench.pass", || {
        w.traced_pass()
    })];
    let extras = w.layer_extras();
    let crypto = layers::time_crypto();
    trace::disable();
    let spans = trace::take();
    let path = std::path::Path::new("perfbench/out").join(format!("trace-{}.jsonl", args.workload));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => eprintln!(
            "{}: {} spans written to {}",
            args.workload,
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{}: cannot write {}: {e}", args.workload, path.display()),
    }
    let (attempted, mut failed) = total(&traced);
    let extras = extras.unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.workload);
        failed = (failed + 1).min(attempted);
        Vec::new()
    });
    let metrics = layers::per_layer(&spans, &untraced, &traced, &crypto, extras);
    for m in &metrics {
        eprintln!("  {:34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// A finite number as JSON (non-finite values cannot be written).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "figures" => run::<Figures>(&args),
        "attack-gate" => run::<AttackGate>(&args),
        "decode-churn" => run::<DecodeChurn>(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
