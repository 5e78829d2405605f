//! Regression test for the determinism guarantee of the parallel execution
//! layer: running the sim-smoke scenario grid with 1, 2, and all-core worker
//! pools must produce byte-identical checkpoint fingerprints and cost
//! summaries. Rotor walks are deterministic — parallelism may only change
//! wall-clock time, never a result.

use satn_core::AlgorithmKind;
use satn_sim::{
    Checkpoints, Parallelism, Scenario, ScenarioGrid, ScenarioResult, SimRunner, WorkloadSpec,
};

/// The sim-smoke grid at a test-friendly scale: all 7 algorithms × the four
/// paper workload families × two tree sizes, with interior checkpoints so
/// the fingerprint comparison covers mid-run state, not just the final one.
fn smoke_grid() -> ScenarioGrid {
    let requests = 1_500;
    let mut grid = ScenarioGrid::new(
        AlgorithmKind::ALL,
        WorkloadSpec::paper_families(),
        [5u32, 8],
        requests,
        2022,
    );
    grid.checkpoints = Checkpoints::every(500);
    grid
}

fn run_at(parallelism: Parallelism, check_invariants: bool) -> Vec<(Scenario, ScenarioResult)> {
    SimRunner::new()
        .with_parallelism(parallelism)
        .run_grid(&smoke_grid(), check_invariants)
        .expect("the smoke grid runs clean")
}

#[test]
fn grid_fingerprints_are_identical_at_one_two_and_all_threads() {
    let serial = run_at(Parallelism::Serial, false);
    assert_eq!(serial.len(), smoke_grid().len());
    for parallelism in [Parallelism::Threads(2), Parallelism::Auto] {
        let parallel = run_at(parallelism, false);
        assert_eq!(serial.len(), parallel.len(), "{parallelism:?}");
        for ((serial_scenario, serial_result), (parallel_scenario, parallel_result)) in
            serial.iter().zip(&parallel)
        {
            assert_eq!(
                serial_scenario.name(),
                parallel_scenario.name(),
                "{parallelism:?}: grid order must be preserved"
            );
            assert_eq!(
                serial_result.summary,
                parallel_result.summary,
                "{parallelism:?}: cost summary diverged for {}",
                serial_scenario.name()
            );
            // Checkpoint fingerprints are the replay fingerprint of a run:
            // every (step, fingerprint) pair must match exactly.
            assert_eq!(
                serial_result.checkpoints,
                parallel_result.checkpoints,
                "{parallelism:?}: checkpoint fingerprints diverged for {}",
                serial_scenario.name()
            );
        }
    }
}

#[test]
fn invariant_checked_runs_are_equally_deterministic() {
    // The stepwise (observer-driven) engine path takes a different serving
    // route through each cell; it must agree across thread counts too.
    let serial = run_at(Parallelism::Serial, true);
    let parallel = run_at(Parallelism::Threads(2), true);
    assert_eq!(serial, parallel);
}

#[test]
fn erroring_cells_are_reported_in_grid_order_at_any_parallelism() {
    // A fixed workload whose requests fall outside the tree fails every
    // cell it appears in; the reported failing cell must be the grid-order
    // first at every thread count (completion order must not leak through).
    let workload =
        satn_workloads::Workload::new("oversized", 1_000, vec![satn_tree::ElementId::new(999); 10]);
    let grid = ScenarioGrid::new(
        [AlgorithmKind::RotorPush, AlgorithmKind::MoveToFront],
        [WorkloadSpec::Uniform, WorkloadSpec::Fixed(workload)],
        [4u32],
        10,
        7,
    );
    let mut failing_names = Vec::new();
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ] {
        let failure = SimRunner::new()
            .with_parallelism(parallelism)
            .run_grid(&grid, false)
            .expect_err("the oversized workload must fail");
        failing_names.push(failure.0.name());
    }
    assert_eq!(failing_names[0], failing_names[1]);
    assert_eq!(failing_names[0], failing_names[2]);
}
