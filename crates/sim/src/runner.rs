//! The simulation engine: drives any [`SelfAdjustingTree`] through a
//! streaming request source, batching between checkpoints and invoking
//! observers.

use crate::observer::{InvariantViolation, Observer, StepRecord};
use crate::scenario::{Checkpoints, Scenario, ScenarioGrid};
use satn_core::SelfAdjustingTree;
use satn_exec::{ordered_map, Parallelism};
use satn_tree::{CostSummary, ElementId, Fingerprint, Occupancy, TreeError};
use std::fmt;

/// An error produced while running a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying tree operation failed (e.g. a request to an element
    /// outside the universe).
    Tree(TreeError),
    /// An observer reported an invariant violation.
    Invariant(InvariantViolation),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Tree(err) => write!(f, "tree error: {err}"),
            SimError::Invariant(violation) => violation.fmt(f),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Tree(err) => Some(err),
            SimError::Invariant(violation) => Some(violation),
        }
    }
}

impl From<TreeError> for SimError {
    fn from(err: TreeError) -> Self {
        SimError::Tree(err)
    }
}

impl From<InvariantViolation> for SimError {
    fn from(violation: InvariantViolation) -> Self {
        SimError::Invariant(violation)
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Aggregated per-request costs.
    pub summary: CostSummary,
    /// The placement's [`Fingerprint`] at every checkpoint, as
    /// `(requests served, fingerprint)` pairs — the replay fingerprint of
    /// the run.
    pub checkpoints: Vec<(u64, Fingerprint)>,
    /// The placement at the end of the run — what the snapshot-read
    /// oracle ([`crate::ShardedScenario::prefix_occupancies`]) returns.
    pub final_occupancy: Occupancy,
}

/// The scenario-simulation engine.
///
/// `SimRunner` serves requests in batches between checkpoints through
/// [`SelfAdjustingTree::serve_batch`] — the fast path — unless an attached
/// observer asks for per-step records, in which case it serves one request at
/// a time and surrounds each with the observation bookkeeping.
///
/// Grid runs ([`SimRunner::run_grid`]) fan scenario cells out over the
/// `satn-exec` worker pool (default: one worker per core). Every cell
/// constructs its own algorithm instance, workload stream, and observers, so
/// nothing is shared mutably between workers, and
/// [`satn_exec::ordered_map`]'s in-order merge makes the parallel grid
/// bit-identical to the serial one — checkpoint fingerprints included.
///
/// The engine is stateless between runs; all per-run state lives in the
/// scenario, the algorithm instance, and the observers.
#[derive(Debug, Clone, Copy)]
pub struct SimRunner {
    /// Worker budget for grid runs (never affects results, only wall-clock).
    parallelism: Parallelism,
}

/// Requests buffered per `serve_batch` call.
const BATCH_SIZE: usize = 1_024;

impl Default for SimRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SimRunner {
    /// Creates an engine that uses all available cores for grid runs.
    pub fn new() -> Self {
        SimRunner {
            parallelism: Parallelism::Auto,
        }
    }

    /// Sets the worker budget for grid runs (builder style). The choice
    /// never changes results — only how many cells run concurrently.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The configured grid-run worker budget.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Runs a scenario with no custom observers: serves the whole stream on
    /// the batched fast path and fingerprints the placement at every
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Tree`] if the workload does not fit the tree.
    pub fn run(&self, scenario: &Scenario) -> Result<ScenarioResult, SimError> {
        self.run_with(scenario, &mut [])
    }

    /// Runs a scenario with the given observers attached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Tree`] for tree-level failures and
    /// [`SimError::Invariant`] as soon as any observer reports a violation.
    pub fn run_with(
        &self,
        scenario: &Scenario,
        observers: &mut [&mut dyn Observer],
    ) -> Result<ScenarioResult, SimError> {
        // Offline algorithms need the whole sequence for their layout;
        // materialize it once and serve from the same buffer instead of
        // regenerating the stream a second time.
        let materialized = scenario.offline_sequence();
        let mut network = match &materialized {
            Some(sequence) => scenario.instantiate_with(sequence)?,
            None => scenario.instantiate()?,
        };
        let mut checkpoints = Vec::new();
        let summary = match &materialized {
            Some(sequence) => self.drive(
                network.as_mut(),
                sequence.iter().copied(),
                scenario.requests,
                scenario.checkpoints,
                observers,
                Some(&mut checkpoints),
            )?,
            None => self.drive(
                network.as_mut(),
                scenario.stream(),
                scenario.requests,
                scenario.checkpoints,
                observers,
                Some(&mut checkpoints),
            )?,
        };
        Ok(ScenarioResult {
            summary,
            checkpoints,
            final_occupancy: network.occupancy().clone(),
        })
    }

    /// Drives an already-instantiated network through an arbitrary request
    /// stream — the escape hatch for sources outside the scenario grammar
    /// (corpus books, loaded traces, live feeds).
    ///
    /// `length` bounds the number of requests taken from the stream;
    /// checkpoints fire per `checkpoints` plus once at the end.
    ///
    /// # Errors
    ///
    /// Same contract as [`SimRunner::run_with`].
    pub fn run_stream(
        &self,
        network: &mut dyn SelfAdjustingTree,
        stream: impl Iterator<Item = ElementId>,
        length: usize,
        checkpoints: Checkpoints,
        observers: &mut [&mut dyn Observer],
    ) -> Result<CostSummary, SimError> {
        self.drive(network, stream, length, checkpoints, observers, None)
    }

    /// Runs every cell of a grid on the worker pool, returning
    /// `(scenario, result)` pairs in grid order; `check_invariants` attaches
    /// a fresh [`crate::InvariantObserver`] to every cell.
    ///
    /// Cells are independent by construction — each worker instantiates its
    /// own algorithm, stream, and observer from the scenario value — and the
    /// pool merges results in grid order, so the outcome is byte-identical
    /// at every [`Parallelism`] (the `parallel_determinism` regression test
    /// asserts this).
    ///
    /// # Errors
    ///
    /// Returns the erroring cell that comes first in grid order, identifying
    /// it by the returned scenario (boxed: scenarios can carry whole fixed
    /// workloads). A one-worker run fails fast at that cell; a parallel run
    /// lets in-flight cells finish but still reports by grid order, not
    /// completion order, so the reported cell is identical either way.
    #[allow(clippy::type_complexity)]
    pub fn run_grid(
        &self,
        grid: &ScenarioGrid,
        check_invariants: bool,
    ) -> Result<Vec<(Scenario, ScenarioResult)>, Box<(Scenario, SimError)>> {
        let run_cell = |scenario: &Scenario| {
            if check_invariants {
                let mut invariants = crate::InvariantObserver::new();
                self.run_with(scenario, &mut [&mut invariants])
            } else {
                self.run(scenario)
            }
        };
        if self.parallelism.threads() <= 1 {
            // Serial: preserve fail-fast — stop at the first erroring cell
            // instead of running the rest of the grid.
            let mut results = Vec::with_capacity(grid.len());
            for scenario in grid.scenarios() {
                match run_cell(&scenario) {
                    Ok(result) => results.push((scenario, result)),
                    Err(err) => return Err(Box::new((scenario, err))),
                }
            }
            return Ok(results);
        }
        let scenarios: Vec<Scenario> = grid.scenarios().collect();
        let outcomes = ordered_map(&scenarios, self.parallelism, run_cell);
        let mut results = Vec::with_capacity(scenarios.len());
        for (scenario, outcome) in scenarios.into_iter().zip(outcomes) {
            match outcome {
                Ok(result) => results.push((scenario, result)),
                Err(err) => return Err(Box::new((scenario, err))),
            }
        }
        Ok(results)
    }

    /// Verifies deterministic replay: runs `scenario` twice and checks that
    /// every checkpoint fingerprint, the final placement and the cost
    /// summary coincide. All algorithms are seed-deterministic, so any
    /// divergence indicates hidden state outside the scenario's control.
    ///
    /// # Errors
    ///
    /// Propagates run errors; `Ok(false)` means the runs diverged.
    pub fn replay_matches(&self, scenario: &Scenario) -> Result<bool, SimError> {
        let first = self.run(scenario)?;
        let second = self.run(scenario)?;
        Ok(first == second)
    }

    fn drive(
        &self,
        network: &mut dyn SelfAdjustingTree,
        mut stream: impl Iterator<Item = ElementId>,
        length: usize,
        checkpoints: Checkpoints,
        observers: &mut [&mut dyn Observer],
        mut fingerprints: Option<&mut Vec<(u64, Fingerprint)>>,
    ) -> Result<CostSummary, SimError> {
        let stepwise = observers.iter().any(|observer| observer.wants_steps());
        for observer in observers.iter_mut() {
            observer.on_start(network)?;
        }
        let mut summary = CostSummary::new();
        let mut served = 0usize;
        let mut batch: Vec<ElementId> = Vec::with_capacity(BATCH_SIZE.min(length));

        loop {
            let span = checkpoints.next_span(served, length);
            let mut remaining_in_span = span;
            while remaining_in_span > 0 {
                batch.clear();
                batch.extend(stream.by_ref().take(remaining_in_span.min(BATCH_SIZE)));
                if batch.is_empty() {
                    // The stream ran dry before `length`; close out early.
                    served = length;
                    break;
                }
                if stepwise {
                    for &element in &batch {
                        let access_cost_before = network
                            .occupancy()
                            .check_element(element)
                            .map(|()| network.occupancy().access_cost(element))?;
                        let cost = network.serve(element)?;
                        summary.record(cost);
                        let record = StepRecord {
                            step: summary.requests() - 1,
                            element,
                            cost,
                            access_cost_before,
                        };
                        for observer in observers.iter_mut() {
                            observer.on_step(&record, network)?;
                        }
                    }
                } else {
                    network.serve_batch(&batch, &mut summary)?;
                }
                served += batch.len();
                remaining_in_span -= batch.len();
            }

            let step = summary.requests();
            for observer in observers.iter_mut() {
                observer.on_checkpoint(step, network)?;
            }
            if let Some(fingerprints) = fingerprints.as_deref_mut() {
                fingerprints.push((step, network.occupancy().fingerprint()));
            }
            if served >= length {
                return Ok(summary);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::InvariantObserver;
    use crate::scenario::{InitialPlacement, WorkloadSpec};
    use satn_core::AlgorithmKind;

    fn scenario(kind: AlgorithmKind) -> Scenario {
        Scenario::new(kind, WorkloadSpec::Temporal { p: 0.7 }, 6, 2_000, 11)
    }

    #[test]
    fn batched_and_stepwise_runs_agree() {
        for kind in AlgorithmKind::ALL {
            let scenario = scenario(kind);
            let batched = SimRunner::new().run(&scenario).unwrap();
            let mut invariants = InvariantObserver::new();
            let stepwise = SimRunner::new()
                .run_with(&scenario, &mut [&mut invariants])
                .unwrap();
            assert_eq!(batched, stepwise, "{kind}");
            assert_eq!(invariants.checked_steps(), 2_000);
        }
    }

    #[test]
    fn checkpoints_fire_at_the_configured_cadence() {
        let mut s = scenario(AlgorithmKind::RotorPush);
        s.checkpoints = Checkpoints::every(600);
        let result = SimRunner::new().run(&s).unwrap();
        let steps: Vec<u64> = result.checkpoints.iter().map(|&(step, _)| step).collect();
        assert_eq!(steps, vec![600, 1_200, 1_800, 2_000]);
        assert_eq!(result.summary.requests(), 2_000);
        // Each checkpoint digests the placement a run over the same prefix
        // of the stream ends in.
        for &(step, fingerprint) in &result.checkpoints {
            let mut network = s.instantiate().unwrap();
            SimRunner::new()
                .run_stream(
                    network.as_mut(),
                    s.stream(),
                    step as usize,
                    Checkpoints::final_only(),
                    &mut [],
                )
                .unwrap();
            assert_eq!(
                network.occupancy().fingerprint(),
                fingerprint,
                "step {step}"
            );
        }
        assert_eq!(
            result.checkpoints.last().unwrap().1,
            result.final_occupancy.fingerprint()
        );
    }

    #[test]
    fn replay_is_deterministic_for_every_algorithm() {
        for kind in AlgorithmKind::ALL {
            let mut s = scenario(kind);
            s.checkpoints = Checkpoints::every(700);
            assert!(
                SimRunner::new().replay_matches(&s).unwrap(),
                "{kind} diverged between identical runs"
            );
        }
    }

    #[test]
    fn run_stream_drives_external_sources() {
        let s = scenario(AlgorithmKind::RotorPush);
        let mut network = s.instantiate().unwrap();
        let requests: Vec<ElementId> = s.stream().collect();
        let summary = SimRunner::new()
            .run_stream(
                network.as_mut(),
                requests.iter().copied(),
                requests.len(),
                Checkpoints::final_only(),
                &mut [],
            )
            .unwrap();
        assert_eq!(summary, SimRunner::new().run(&s).unwrap().summary);
    }

    #[test]
    fn short_streams_end_the_run_early() {
        let s = scenario(AlgorithmKind::StaticOblivious);
        let mut network = s.instantiate().unwrap();
        let summary = SimRunner::new()
            .run_stream(
                network.as_mut(),
                s.stream().take(123),
                10_000,
                Checkpoints::every(50),
                &mut [],
            )
            .unwrap();
        assert_eq!(summary.requests(), 123);
    }

    #[test]
    fn grid_runs_cover_every_cell_with_invariants() {
        let grid = ScenarioGrid {
            algorithms: vec![AlgorithmKind::RotorPush, AlgorithmKind::MoveHalf],
            workloads: vec![WorkloadSpec::Uniform, WorkloadSpec::Zipf { a: 2.0 }],
            levels: vec![4, 5],
            requests: 300,
            seed: 3,
            checkpoints: Checkpoints::every(100),
            initial: InitialPlacement::Random,
        };
        let results = SimRunner::new().run_grid(&grid, true).unwrap();
        assert_eq!(results.len(), 8);
        for (scenario, result) in &results {
            assert_eq!(result.summary.requests(), 300, "{}", scenario.name());
        }
    }

    #[test]
    fn out_of_range_requests_surface_as_tree_errors() {
        let s = scenario(AlgorithmKind::RotorPush);
        let mut network = s.instantiate().unwrap();
        let err = SimRunner::new()
            .run_stream(
                network.as_mut(),
                std::iter::once(ElementId::new(60_000)),
                1,
                Checkpoints::final_only(),
                &mut [],
            )
            .unwrap_err();
        assert!(matches!(err, SimError::Tree(_)));
    }

    #[test]
    fn default_runner_actually_serves() {
        let s = scenario(AlgorithmKind::StaticOblivious);
        let result = SimRunner::default().run(&s).unwrap();
        assert_eq!(result.summary.requests(), 2_000);
    }
}
