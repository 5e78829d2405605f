//! # satn — self-adjusting single-source tree networks
//!
//! A from-scratch Rust implementation of *Deterministic Self-Adjusting Tree
//! Networks Using Rotor Walks* (Avin, Bienkowski, Salem, Sama, Schmid,
//! Schmidt — ICDCS 2022), including every algorithm the paper studies, the
//! rotor-walk machinery, the workload generators of the empirical section and
//! the analysis toolkit that turns the paper's theorems into executable
//! checks.
//!
//! This facade crate simply re-exports the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`tree`] | `satn-tree` | complete-binary-tree substrate: nodes, occupancy, marked swaps, costs |
//! | [`rotor`] | `satn-rotor` | rotor pointers, flips, flip-ranks, rotor-router walks |
//! | [`core`] | `satn-core` | Rotor-Push, Random-Push, Move-Half, Max-Push, static baselines, Move-To-Front |
//! | [`workloads`] | `satn-workloads` | uniform / temporal / Zipf / combined / corpus workload generators |
//! | [`analysis`] | `satn-analysis` | working-set bounds, credit audits, Lemma 8 adversary, trace complexity map |
//! | [`network`] | `satn-network` | multi-source datacenter networks: one ego-tree per source, each a shard of one `ShardedEngine` |
//! | [`sim`] | `satn-sim` | scenario-simulation engine: declarative grids, batched serving, invariant hooks, replay |
//! | [`exec`] | `satn-exec` | deterministic parallel execution layer: one scoped fan-out with an order-preserving merge |
//! | [`serve`] | `satn-serve` | sharded multi-tree serving engine: transport-agnostic ingestion, wire protocol + `satnd` TCP front door, lock-free snapshot reads, replay fingerprints |
//! | [`obs`] | `satn-obs` | lock-free runtime metrics (atomic counters/gauges/histograms), deterministic handover tracing, wire-pollable snapshots |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use satn::{CompleteTree, ElementId, Occupancy, RotorPush, SelfAdjustingTree};
//!
//! // A tree with 1023 nodes (10 levels), elements placed by identity.
//! let tree = CompleteTree::with_nodes(1023)?;
//! let mut network = RotorPush::new(Occupancy::identity(tree));
//!
//! // Serve a few requests; each returns its access + adjustment cost.
//! let mut total = 0;
//! for id in [513u32, 514, 513, 900, 513] {
//!     total += network.serve(ElementId::new(id))?.total();
//! }
//! assert!(total > 0);
//! // The self-adjustment moved the popular element 513 to the root.
//! assert_eq!(network.occupancy().level_of(ElementId::new(513)), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use satn_analysis as analysis;
pub use satn_core as core;
pub use satn_exec as exec;
pub use satn_network as network;
pub use satn_obs as obs;
pub use satn_rotor as rotor;
pub use satn_serve as serve;
pub use satn_sim as sim;
pub use satn_tree as tree;
pub use satn_workloads as workloads;

pub use satn_analysis::{
    access_cost_differences, competitive_report, run_lemma8, working_set_bound, Histogram,
    RandomPushAuditor, RotorPushAuditor, WorkingSetTracker,
};
pub use satn_core::{
    AlgorithmKind, MaxPush, MoveHalf, MoveToFront, RandomPush, RotorPush, SelfAdjustingTree,
    StaticOblivious, StaticOpt,
};
pub use satn_exec::{ordered_map, Parallelism};
pub use satn_network::{Host, HostPair, SelfAdjustingNetwork};
pub use satn_obs::{EngineMetrics, LatencyHistogram, MetricsSnapshot, TraceRing};
pub use satn_rotor::{RotorState, RotorWalk};
pub use satn_serve::{
    ingest_channel_with_metrics, replay, serve_connections, EngineReport, EngineSnapshot, Frame,
    Ingest, IngestMessage, IngestQueue, IngestSender, LookupAnswer, ServeError, ShardedEngine,
    ShardedEngineConfig, SnapshotReader, TcpIngest, WireError,
};
pub use satn_sim::{
    Checkpoints, InvariantObserver, Observer, ReshardPlan, ReshardPolicy, ReshardSchedule,
    Scenario, ScenarioGrid, ShardRouter, ShardedReplay, ShardedScenario, SimRunner, WorkloadSpec,
};
pub use satn_tree::{
    CompleteTree, CostSummary, Direction, ElementId, Fingerprint, MigrationCost, NodeId, Occupancy,
    ServeCost, TreeError, TreeSnapshot,
};
pub use satn_workloads::{fit_tree_levels, Workload};
