//! # satn-sim
//!
//! The scenario-simulation engine for self-adjusting tree networks: a
//! declarative `algorithm × workload × tree-size` grid runner with batched
//! serving, streaming request sources, pluggable observers, invariant
//! checking, and deterministic replay.
//!
//! The paper's evaluation (Section 6) — and any scaling experiment beyond
//! it — is a grid of runs. This crate turns each cell of that grid into a
//! value:
//!
//! * [`Scenario`] — one fully determined run: an [`AlgorithmKind`], a
//!   [`WorkloadSpec`] (instantiated lazily as a stream), a tree size in
//!   levels, a request count, a base seed, a [`Checkpoints`] cadence and an
//!   [`InitialPlacement`],
//! * [`ScenarioGrid`] — the cartesian product of the three axes,
//! * [`SimRunner`] — the engine: drives any
//!   [`SelfAdjustingTree`](satn_core::SelfAdjustingTree) through the
//!   scenario's stream, using the allocation-free
//!   [`serve_batch`](satn_core::SelfAdjustingTree::serve_batch) fast path
//!   between checkpoints unless an attached [`Observer`] asks for per-step
//!   records,
//! * [`InvariantObserver`] — the built-in model checker: occupancy
//!   bijection, rotor-state flip-rank permutations, the `access = level + 1`
//!   cost law, and adjustment-cost accounting,
//! * [`SnapshotObserver`] / [`ScenarioResult::checkpoints`] — occupancy
//!   snapshots at every checkpoint, giving every run a replay fingerprint
//!   ([`SimRunner::replay_matches`] verifies determinism end to end).
//!
//! ## Example
//!
//! ```
//! use satn_sim::{Checkpoints, InvariantObserver, Scenario, SimRunner, WorkloadSpec};
//! use satn_core::AlgorithmKind;
//!
//! // Rotor-Push on a 63-node tree, 2000 temporally local requests.
//! let mut scenario = Scenario::new(
//!     AlgorithmKind::RotorPush,
//!     WorkloadSpec::Temporal { p: 0.9 },
//!     6,      // levels => 2^6 - 1 = 63 nodes
//!     2_000,  // requests
//!     42,     // seed
//! );
//! scenario.checkpoints = Checkpoints::every(500);
//!
//! let runner = SimRunner::new();
//! let mut invariants = InvariantObserver::new();
//! let result = runner.run_with(&scenario, &mut [&mut invariants])?;
//!
//! assert_eq!(result.summary.requests(), 2_000);
//! assert_eq!(result.checkpoints.len(), 4); // 500, 1000, 1500, 2000
//! // High temporal locality => far cheaper than the worst case.
//! assert!(result.summary.mean_total() < 12.0);
//! // The same scenario replays to the identical state, snapshot for snapshot.
//! assert!(runner.replay_matches(&scenario)?);
//! # Ok::<(), satn_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod observer;
mod runner;
mod scenario;
mod sharded;

pub use observer::{InvariantObserver, InvariantViolation, Observer, SnapshotObserver, StepRecord};
pub use runner::{ScenarioResult, SimError, SimRunner, DEFAULT_BATCH_SIZE};
pub use scenario::{
    Checkpoints, InitialPlacement, ParseWorkloadError, Scenario, ScenarioGrid, WorkloadSpec,
};
pub use sharded::{HandoverMode, ReshardSchedule, ShardedReplay, ShardedScenario};

// Re-exported so sharded scenarios can be configured without a direct
// `satn-workloads` dependency.
pub use satn_workloads::shard::{
    EpochedPartition, PartitionEpoch, ReshardEvent, ReshardPlan, ReshardPolicy, ShardRouter,
};

// Re-exported so scenario construction needs no extra imports.
pub use satn_core::AlgorithmKind;
// Re-exported so callers can configure grid-run parallelism without a
// direct `satn-exec` dependency.
pub use satn_exec::Parallelism;

// Grid cells cross `satn-exec` worker threads as whole values: the scenario
// goes out, the result (or error) comes back. Everything involved must stay
// `Send`; the runner itself must be shareable (`Sync`) since workers borrow
// it for per-cell configuration.
#[allow(dead_code)]
fn _assert_parallel_safe() {
    fn assert_send<T: Send + 'static>() {}
    fn assert_sync<T: Sync + 'static>() {}
    assert_send::<Scenario>();
    assert_sync::<Scenario>();
    assert_send::<ScenarioGrid>();
    assert_send::<ScenarioResult>();
    assert_send::<SimError>();
    assert_sync::<SimRunner>();
    assert_send::<InvariantObserver>();
    assert_send::<SnapshotObserver>();
    assert_send::<ShardedScenario>();
    assert_sync::<ShardedScenario>();
}
