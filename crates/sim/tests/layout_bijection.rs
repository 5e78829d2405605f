//! The storage contract, end to end: a result depends only on the scenario,
//! never on how the tree is stored or how many workers run the grid.
//!
//! The tree is stored in heap order (node `v` at slab index `v`), so the
//! oracle here runs the full simulation grid (all 7 algorithms × the paper's
//! workload families × two small tree sizes, four checkpoints per run) at
//! serial, two-thread and auto worker budgets and requires **byte-identical**
//! checkpoint fingerprints and cost summaries in every cell. Its grid is
//! smaller and more densely checkpointed than the sim-smoke grid in
//! `parallel_determinism.rs`, so the two compare different mid-run states.

use satn_sim::{
    AlgorithmKind, Checkpoints, Parallelism, ScenarioGrid, ScenarioResult, SimRunner, WorkloadSpec,
};

/// Runs the full grid at `parallelism` and returns every cell's
/// `(name, result)` pair in grid order.
fn grid_results(parallelism: Parallelism) -> Vec<(String, ScenarioResult)> {
    let mut grid = ScenarioGrid::new(
        AlgorithmKind::ALL,
        WorkloadSpec::paper_families(),
        [4u32, 6],
        600,
        2022,
    );
    grid.checkpoints = Checkpoints::every(150);
    SimRunner::new()
        .with_parallelism(parallelism)
        .run_grid(&grid, false)
        .unwrap_or_else(|failure| panic!("scenario {} failed: {}", failure.0.name(), failure.1))
        .into_iter()
        .map(|(scenario, result)| (scenario.name(), result))
        .collect()
}

/// The end-to-end invariance oracle: all 7 algorithms, every paper workload
/// family, two tree sizes, four checkpoints per run — byte-identical at
/// every worker budget.
#[test]
fn full_grid_fingerprints_are_layout_invariant_at_every_thread_count() {
    let reference = grid_results(Parallelism::Serial);
    assert!(
        reference.len() >= 7,
        "the grid must cover all algorithms for the oracle to mean anything"
    );
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ] {
        let results = grid_results(parallelism);
        assert_eq!(results.len(), reference.len());
        for ((name, result), (reference_name, reference_result)) in results.iter().zip(&reference) {
            assert_eq!(name, reference_name);
            assert_eq!(
                result, reference_result,
                "cell {name} diverged at {parallelism:?}"
            );
        }
    }
}
