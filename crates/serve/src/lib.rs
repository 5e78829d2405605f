//! # satn-serve
//!
//! The sharded multi-tree serving engine: the production-scale front of the
//! workspace, serving a global request stream across `S` independent
//! per-shard self-adjusting trees.
//!
//! ```text
//!                          ┌──────────────── satn-serve ────────────────┐
//!  producers               │   ShardRouter        per-shard batches     │
//!  (workloads,   bounded   │   (hash or           ┌─────┐   drain       │
//!   sockets,  ── MPSC ───▶ │    range)           ─▶ S₀  │── pool ──┐    │
//!   tests)       IngestQueue                      ├─────┤  drains  │    │
//!                 + flush  │                    ─▶ S₁  │  batches  ▼    │
//!                protocol  │                      ├─────┤   shard-order │
//!                          │                    ─▶ ⋮   │   merge:      │
//!                          │                      └─────┘   costs +     │
//!                          │                               fingerprints │
//!                          └────────────────────────────────────────────┘
//! ```
//!
//! * [`ShardedEngine`] — `S` per-shard trees (any
//!   [`AlgorithmKind`](satn_sim::AlgorithmKind)) partitioning the element
//!   universe via an **epoch-versioned** [`Partition`] built from a
//!   pluggable [`ShardRouter`] policy (the engine keeps only the live
//!   epoch's partition); requests buffer per shard and drain concurrently through the
//!   allocation-free `serve_batch` fast path, one job per shard batch on
//!   the engine's long-lived drain pool, which the draining thread serves
//!   in too,
//! * [`ShardedEngine::reshard`] — the deterministic handover: **drain
//!   fence** (buffered batches served under the closing epoch, boundary
//!   fingerprints recorded) → **migrate** (moved elements deleted from
//!   their source trees and re-inserted at their destinations in canonical
//!   element order, each paying its access cost; the touched shards'
//!   trees are rebuilt carrying their rotor/recency/RNG state, the others
//!   keep their live trees) → **epoch bump** (partition + ledger). Also
//!   reachable as a [`ReshardPlan`] control frame through the ingest
//!   queue, or automatically via a load-adaptive [`ReshardPolicy`],
//! * [`Ingest`] — the transport-agnostic ingestion trait (`send`,
//!   `send_burst`, `flush`, `reshard`, `lookup`), implemented by both the
//!   in-process [`IngestSender`] and the TCP client [`TcpIngest`]; code
//!   written against it runs identically over either transport,
//! * [`ShardedEngine::snapshots`] / [`SnapshotReader`] — the lock-free
//!   **read phase**: every drain boundary atomically publishes an immutable
//!   [`EngineSnapshot`] (epoch partition + one frozen
//!   [`TreeSnapshot`](satn_tree::TreeSnapshot) per shard) that any number
//!   of reader handles serve lookups from without touching the write path,
//! * [`ingest_channel`] / [`IngestQueue`] — the bounded channel-based
//!   ingestion layer with backpressure and a drain/flush/reshard protocol,
//! * [`wire`](crate::Frame) / [`serve_connections`] — the length-prefixed
//!   binary wire protocol and the server-side accept loop behind the
//!   `satnd` binary, carrying the same protocol over TCP with per-frame
//!   acknowledgements and end-to-end backpressure,
//! * [`EngineMetrics`] / [`TraceRing`] — the `satn-obs` observability
//!   layer threaded through the engine: lock-free counters and gauges
//!   updated at drain boundaries (so every counter in a
//!   [`MetricsSnapshot`] equals its serial-replay total), a bounded ring
//!   of deterministic reshard-handover and drain trace stamps, and a
//!   `Stats`/`StatsReply` wire frame pair polling it all over TCP,
//! * [`ShardedEngineConfig`] — the builder-style engine configuration,
//!   validating every knob at [`ShardedEngineConfig::build`],
//! * [`EngineReport`] — per-shard cost summaries, per-epoch sub-summaries
//!   with explicit [`MigrationCost`] terms, and placement
//!   [**fingerprints**](Fingerprint) at every epoch boundary.
//!
//! ## Determinism contract
//!
//! Everything is bit-identical at every thread count, drain cadence, and
//! burst shape: per-shard request order is submission order, shards share no
//! state, results merge in shard order, and the reshard handover is a pure
//! function of the scenario and the stream position. The serial reference
//! replay — [`satn_sim::ShardedScenario::epoch_replay`] serving each epoch's
//! per-shard batches on its own trees through [`satn_sim::SimRunner`],
//! re-deriving every handover and rebuilding every shard itself — reproduces
//! the engine's per-epoch cost sub-summaries, migration costs, and boundary
//! fingerprints byte for byte, which is exactly what the crate's property
//! tests and `satnd --verify` assert.
//!
//! ## Example
//!
//! ```
//! use satn_serve::{Ingest, Parallelism, ShardedEngineConfig};
//! use satn_sim::{AlgorithmKind, ShardRouter, ShardedScenario, WorkloadSpec};
//!
//! // 4 shards × 31 elements, Zipf traffic, hash routing.
//! let scenario = ShardedScenario::new(
//!     AlgorithmKind::RotorPush,
//!     WorkloadSpec::Zipf { a: 1.8 },
//!     4,     // shards
//!     5,     // levels per shard => 31 elements each
//!     2_000, // requests
//!     42,    // seed
//! );
//! let mut engine = ShardedEngineConfig::from_scenario(&scenario)
//!     .parallelism(Parallelism::Auto)
//!     .build()?;
//! for request in scenario.stream() {
//!     engine.submit(request)?;
//! }
//! let report = engine.finish()?;
//! assert_eq!(report.merged.requests(), 2_000);
//! assert_eq!(report.per_shard.len(), 4);
//! # Ok::<(), satn_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod config;
mod drain;
mod engine;
mod error;
mod ingest;
mod net;
mod snapshot;
mod wire;

pub use config::ShardedEngineConfig;
pub use engine::{EngineReport, ShardReport, ShardedEngine, DEFAULT_DRAIN_THRESHOLD};
pub use error::ServeError;
pub use ingest::{
    ingest_channel, ingest_channel_with_metrics, replay, Ingest, IngestMessage, IngestQueue,
    IngestSender,
};
pub use net::{serve_connections, ConnectionReport, TcpIngest, DEFAULT_WINDOW};
pub use snapshot::{EngineSnapshot, LookupAnswer, SnapshotReader};
pub use wire::{
    decode_body, encode_frame, read_frame, write_frame, Frame, WireError, MAX_BURST_ELEMENTS,
    MAX_FRAME_BODY, MAX_PLAN_MOVES,
};

// Re-exported so engines can be configured without extra imports.
pub use satn_exec::Parallelism;
// Re-exported so stats consumers and instrumented callers need no direct
// dependency on the observability crate.
pub use satn_obs::{EngineMetrics, MetricsSnapshot, TraceEvent, TraceKind, TraceRing, TraceStamp};
pub use satn_sim::{HandoverMode, ReshardSchedule, ShardedReplay, ShardedScenario};
pub use satn_tree::{EpochCostSummary, Fingerprint, MigrationCost, ShardedCostSummary};
pub use satn_workloads::shard::{
    Partition, ReshardError, ReshardEvent, ReshardPlan, ReshardPolicy, ShardRouter,
};

// Engines cross thread boundaries wholesale in server settings (built on one
// thread, driven on another), and the ingestion halves are shared across
// producer threads by design.
#[allow(dead_code)]
fn _assert_parallel_safe() {
    fn assert_send<T: Send + 'static>() {}
    assert_send::<ShardedEngine>();
    assert_send::<IngestSender>();
    assert_send::<IngestQueue>();
    assert_send::<EngineReport>();
    assert_send::<ServeError>();
    assert_send::<ShardedEngineConfig>();
    assert_send::<TcpIngest>();
    assert_send::<ConnectionReport>();
    assert_send::<Frame>();
    // Readers are cloned across connection threads; snapshots are shared
    // behind `Arc` by arbitrarily many reader threads.
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send::<SnapshotReader>();
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<LookupAnswer>();
    // The registry and tracer are shared by the engine thread, every
    // connection thread, and any number of stats pollers at once.
    assert_send_sync::<EngineMetrics>();
    assert_send_sync::<TraceRing>();
    assert_send_sync::<MetricsSnapshot>();
}
