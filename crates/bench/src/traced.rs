//! Trace-grouped execution of [`RunSpec`] matrices.
//!
//! The experiment grids sweep schemes (and often NPU counts) as their
//! fastest-varying dimensions, yet a cell's tile trace depends on neither
//! (see [`RunSpec::trace_key`]): every scheme of one `(experiment, model,
//! config)` group lowers the identical plans. [`run_specs`] therefore
//! batches each group into one pool job that lowers the trace **once** —
//! at the group's largest NPU count, so smaller counts replay a prefix —
//! and replays it per member, instead of re-running the tiler for every
//! cell.
//!
//! Results still come back in input (matrix) order, so downstream
//! aggregation — and the byte-stable stdout — sees exactly what the
//! per-cell runner produced. Only the stderr timing summary changes
//! shape: one timed job per trace group, with the group's cell count in
//! its label.

use crate::sweep::{self as pool, PoolReport};
use std::collections::BTreeMap;
use tnpu_core::RunSpec;
use tnpu_npu::RunReport;

/// Indices into the spec list sharing one trace key, in first-appearance
/// order (both across and within groups), so the scatter-back is a pure
/// function of the input order.
fn trace_groups(specs: &[RunSpec]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_key: BTreeMap<(String, String, String), usize> = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        match by_key.get(&spec.trace_key()) {
            Some(&g) => groups[g].push(i),
            None => {
                by_key.insert(spec.trace_key(), groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// `model/config (xN)` — the timing label of one trace group's job.
fn group_label(specs: &[RunSpec], members: &[usize]) -> String {
    let spec = &specs[members[0]];
    format!("{}/{} (x{})", spec.model, spec.config.name, members.len())
}

/// Execute every cell of `specs` on `threads` workers, one pool job per
/// trace group; results come back in input order. The returned report
/// counts jobs per group but cells per spec.
///
/// # Panics
///
/// Panics if a spec's model is not registered or its trace replay fails
/// (simulator invariants).
#[must_use]
pub fn run_specs_with(
    threads: usize,
    experiment: &str,
    specs: &[RunSpec],
) -> (Vec<RunReport>, PoolReport) {
    let groups = trace_groups(specs);
    let (batches, mut report) = pool::run_ordered_with(
        threads,
        experiment,
        &groups,
        |members| group_label(specs, members),
        |members| {
            let npus = members
                .iter()
                .map(|&i| specs[i].npus)
                .max()
                .expect("groups are never empty");
            let trace = specs[members[0]].build_trace(npus);
            members
                .iter()
                .map(|&i| specs[i].execute_with(&trace).into_slowest())
                .collect::<Vec<RunReport>>()
        },
    );
    report.cells = specs.len();
    let mut slots: Vec<Option<RunReport>> = Vec::with_capacity(specs.len());
    slots.resize_with(specs.len(), || None);
    for (members, batch) in groups.iter().zip(batches) {
        for (&i, result) in members.iter().zip(batch) {
            slots[i] = Some(result);
        }
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every cell ran exactly once"))
        .collect();
    (results, report)
}

/// [`run_specs_with`] at the session pool width, recording the timing
/// report in the session registry for the end-of-run summary.
///
/// # Panics
///
/// See [`run_specs_with`].
#[must_use]
pub fn run_specs(experiment: &str, specs: &[RunSpec]) -> Vec<RunReport> {
    pool::recorded(run_specs_with(pool::threads(), experiment, specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnpu_memprot::SchemeKind;
    use tnpu_npu::NpuConfig;

    /// The reduced figure-style matrix the equivalence tests sweep:
    /// 2 models x 2 schemes x 2 counts = 8 cells in 2 trace groups.
    fn matrix() -> Vec<RunSpec> {
        let npu = NpuConfig::small_npu();
        let mut specs = Vec::new();
        for model in ["df", "ncf"] {
            for scheme in [SchemeKind::Unsecure, SchemeKind::Treeless] {
                for npus in [1usize, 2] {
                    specs.push(RunSpec::new("traced-test", model, &npu, scheme, npus));
                }
            }
        }
        specs
    }

    #[test]
    fn grouping_preserves_matrix_order_and_batches_by_key() {
        let specs = matrix();
        let groups = trace_groups(&specs);
        assert_eq!(groups, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        assert_eq!(group_label(&specs, &groups[0]), "df/small (x4)");
    }

    #[test]
    fn traced_runner_matches_per_cell_execution() {
        let specs = matrix();
        let (results, report) = run_specs_with(2, "traced-test", &specs);
        assert_eq!(report.cells, specs.len());
        assert_eq!(report.jobs.len(), 2, "one job per trace group");
        let direct: Vec<RunReport> = specs.iter().map(|s| s.execute().into_slowest()).collect();
        assert_eq!(results, direct, "trace replay must be bit-identical");
    }
}
