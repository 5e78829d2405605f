//! The sharded multi-tree serving engine.

use crate::drain::{DrainControl, DrainPool, Shards};
use crate::error::ServeError;
use crate::ingest::{IngestMessage, IngestQueue};
use crate::snapshot::{EngineSnapshot, SnapshotHub, SnapshotReader};
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_exec::Parallelism;
use satn_obs::{EngineMetrics, TraceKind, TraceRing, TraceStamp};
use satn_sim::{ReshardDriver, ReshardSchedule, ShardedScenario};
use satn_tree::{
    CompleteTree, CostSummary, ElementId, Fingerprint, MigrationCost, Occupancy,
    ShardedCostSummary, TreeSnapshot,
};
use satn_workloads::shard::{
    algorithm_seed, carry_remap, handover, shard_epoch_seed, Partition, ReshardPlan,
};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Pending requests buffered across all shards before an automatic drain.
pub const DEFAULT_DRAIN_THRESHOLD: usize = 4_096;

/// Mirrors one drain's cost ledger delta into the engine's metric registry.
/// Called only after the drain's snapshot is published, so a reader that
/// sees `requests_served == n` finds a published snapshot stamped with at
/// least `n`. Pure mirror: it never feeds back into the ledger, so the
/// counters equal the replay totals at every drain boundary.
fn mirror_drain(metrics: &EngineMetrics, drained: &CostSummary) {
    metrics.requests_served.add(drained.requests());
    metrics.access_cost.add(drained.total().access);
    metrics.adjustment_cost.add(drained.total().adjustment);
}

/// The sharded serving engine: `S` independent per-shard trees partitioning
/// the element universe, fed through an epoch-versioned [`Partition`]
/// router, drained concurrently on a pool of long-lived worker threads
/// that the engine spawns once and the draining thread serves in.
///
/// Requests enter via [`ShardedEngine::submit`] (or a whole
/// [`IngestQueue`] via [`ShardedEngine::serve_queue`]), are routed to their
/// owning shard under the **current epoch's** partition and buffered; once
/// the buffered total reaches the drain threshold, every non-empty shard
/// batch is served through the allocation-free
/// [`SelfAdjustingTree::serve_batch`] fast path — one work item per
/// non-empty shard batch (shards with nothing buffered are not dispatched at
/// all). Once every batch is served, the results are merged **in ascending
/// shard order**, so per-shard cost totals, the merged summary, and the
/// per-shard placement [`Fingerprint`]s are identical at every thread count
/// and every drain cadence.
///
/// ## The drain pool
///
/// An engine built with [`Parallelism`] `p` over `S` shards spawns
/// `min(p, S) − 1` worker threads once, when it is built; between drains
/// they sleep. Each drain moves every non-empty shard by value into one
/// queue, which the workers and the draining thread empty together, so a
/// drain is served by `min(p, S)` threads and [`Parallelism::Serial`]
/// spawns none. Every shard comes back to the engine before `drain`
/// returns. Dropping the engine wakes the workers and joins them.
///
/// ## Resharding
///
/// [`ShardedEngine::reshard`] performs the deterministic handover protocol:
///
/// 1. **drain fence** — every buffered batch is served under the closing
///    epoch, and the closing epoch's per-shard fingerprints are recorded;
/// 2. **migrate** — the moved elements are deleted from their source trees
///    and re-inserted into their destinations in canonical element order
///    ([`satn_workloads::shard::handover`]), each paying its access cost,
///    and the touched shards' trees are rebuilt warm from the post-handover
///    placement while untouched shards keep their live trees;
/// 3. **epoch bump** — the plan-patched partition replaces the closing
///    one, and the accounting opens a new epoch sub-summary carrying the
///    migration cost.
///
/// The engine keeps only the live partition: a closing epoch's partition is
/// freed once no published snapshot holds it. Nothing needs an older one —
/// the future of the run depends only on the live placements and the
/// rotor/recency state the trees carry.
///
/// Everything is read off the plan: the moved elements, the touched
/// shards, the rebuilds, and the partition update cost work in proportion
/// to the moves, plus one digest and one partition copy per shard.
///
/// The protocol is a pure function of (scenario, stream position), so the
/// epoch-segmented serial reference replay
/// ([`ShardedScenario::epoch_replay`]) reproduces the engine's per-epoch
/// cost summaries, migration costs, and boundary fingerprints byte for byte
/// at every thread count — determinism stays *derived*, not hand-kept.
///
/// ## The read phase
///
/// Lookups never enter the write path above. Call
/// [`ShardedEngine::snapshots`] to open the engine's **read side**: from
/// then on every batch-drain boundary (automatic, flush-forced, reshard
/// fence, or final) atomically publishes an immutable [`EngineSnapshot`] —
/// the epoch's partition plus one frozen [`TreeSnapshot`] per shard —
/// which any number of [`SnapshotReader`] handles serve lock-free, on any
/// thread, while the engine keeps draining. Reads never mutate, so the
/// determinism oracle is untouched; each snapshot is stamped with the
/// requests accounted when it was frozen, tying every answered lookup to
/// one point on the deterministic write timeline.
///
/// A publication only assembles pointers. While the read side is open, the
/// drain worker that serves a shard's batch also captures the shard, at the
/// same drain boundary, into the buffer that the shard's previous
/// publication replaced (when no reader still holds it). The publication
/// then takes those captures in shard order and shares every unchanged
/// shard's [`TreeSnapshot`] `Arc` with the previous publication. The engine
/// thread captures only what no worker did: every shard at the first
/// publication, the shards a handover rebuilt, and the shards of a failed
/// drain, whose captures are dropped unpublished.
pub struct ShardedEngine {
    /// The live epoch's partition, shared with the snapshots published in
    /// that epoch.
    partition: Arc<Partition>,
    /// The live epoch index (0 = the initial assignment).
    epoch: u32,
    shards: Shards,
    accounting: ShardedCostSummary,
    parallelism: Parallelism,
    /// The drain workers, spawned once here and joined when the engine
    /// drops.
    pool: DrainPool,
    control: DrainControl,
    rebuild: Option<(AlgorithmKind, u64)>,
    /// Fires the scenario's reshard schedule; explicit
    /// [`ShardedEngine::reshard`] calls and `Reshard` ingest frames bypass it.
    schedule: ReshardDriver,
    /// Per completed epoch, the per-shard fingerprints at its closing drain
    /// fence (the final epoch's fingerprints are appended by `finish`).
    epoch_fingerprints: Vec<Vec<Fingerprint>>,
    /// Requests submitted before each epoch boundary, matching
    /// [`satn_sim::ShardedReplay::boundaries`].
    boundaries: Vec<usize>,
    /// The read side, opened by [`ShardedEngine::snapshots`]: `None` until
    /// a reader exists, so write-only runs pay nothing for the feature.
    hub: Option<Arc<SnapshotHub>>,
    /// Every shard's [`TreeSnapshot`] in the latest publication (empty until
    /// the read side opens). A publication replaces the shards captured for
    /// it or flagged `changed` and shares the rest of these `Arc`s.
    published: Vec<Arc<TreeSnapshot>>,
    /// The engine's atomic metric registry — always present (updating an
    /// atomic costs a few nanoseconds; gating it would cost a branch in the
    /// same places), shared with the ingest channel and the network layer.
    metrics: Arc<EngineMetrics>,
    /// The bounded drain/reshard/snapshot event tracer.
    tracer: Arc<TraceRing>,
}

impl ShardedEngine {
    /// An engine over a partition and one tree per shard (shard `s`'s tree
    /// serves local ids `0..` of `partition.owned(s)`). It has no rebuild
    /// recipe and no reshard schedule until
    /// [`ShardedEngine::build_from_scenario`] sets them.
    pub(crate) fn assemble(
        partition: Partition,
        trees: Vec<Box<dyn SelfAdjustingTree + Send>>,
        parallelism: Parallelism,
    ) -> Self {
        let shards = Shards::new(trees);
        let accounting = ShardedCostSummary::new(partition.shards());
        let metrics = Arc::new(EngineMetrics::new(partition.shards()));
        let pool = DrainPool::new(parallelism, shards.len(), Arc::clone(&metrics));
        ShardedEngine {
            partition: Arc::new(partition),
            epoch: 0,
            shards,
            accounting,
            parallelism,
            pool,
            control: DrainControl::new(DEFAULT_DRAIN_THRESHOLD),
            rebuild: None,
            schedule: ReshardDriver::default(),
            epoch_fingerprints: Vec::new(),
            boundaries: Vec::new(),
            hub: None,
            published: Vec::new(),
            metrics,
            tracer: Arc::new(TraceRing::with_default_capacity()),
        }
    }

    /// The construction behind
    /// [`ShardedEngineConfig::from_scenario`](crate::ShardedEngineConfig::from_scenario):
    /// the scenario's epoch-0 partition, with every shard tree built by
    /// [`ShardedScenario::shard_trees`], the construction
    /// [`ShardedScenario::epoch_replay`] starts from (same levels, same
    /// derived seeds, same initial placement — that is what makes the serial
    /// replay a byte-exact oracle). The scenario's [`ReshardSchedule`] runs
    /// through its [`ReshardDriver`], the same driver the replay walks.
    pub(crate) fn build_from_scenario(
        scenario: &ShardedScenario,
        parallelism: Parallelism,
    ) -> Result<Self, ServeError> {
        let offline = scenario.algorithm == AlgorithmKind::StaticOpt;
        if offline && scenario.reshard != ReshardSchedule::Static {
            return Err(ServeError::ReshardUnsupported {
                reason: "offline algorithms cannot be rebuilt mid-stream",
            });
        }
        let schedule = scenario
            .reshard
            .driver(scenario.universe(), scenario.shards)
            .map_err(ServeError::InvalidConfig)?;
        let partition = scenario.partition();
        let trees = scenario
            .shard_trees(&partition)
            .map_err(|(shard, error)| ServeError::Tree { shard, error })?;
        let mut engine = ShardedEngine::assemble(partition, trees, parallelism);
        engine.rebuild = (!offline).then_some((scenario.algorithm, scenario.seed));
        engine.schedule = schedule;
        Ok(engine)
    }

    /// The validated setter behind
    /// [`ShardedEngineConfig::drain_threshold`](crate::ShardedEngineConfig::drain_threshold).
    /// The cadence never changes any result — only how much is buffered
    /// between drains.
    pub(crate) fn set_drain_threshold(&mut self, threshold: usize) -> Result<(), ServeError> {
        if threshold == 0 {
            return Err(ServeError::InvalidConfig(
                "the drain threshold must be positive".to_owned(),
            ));
        }
        self.control.set_threshold(threshold);
        Ok(())
    }

    /// The engine's current element-to-shard assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The current epoch index.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The worker budget used for drains.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Requests submitted so far (served or still buffered).
    pub fn submitted(&self) -> u64 {
        self.control.submitted()
    }

    /// Drains triggered so far.
    pub fn drains(&self) -> u64 {
        self.control.drains()
    }

    /// The epoch-versioned per-shard cost accounting of everything served so
    /// far (buffered requests are not yet included — call
    /// [`ShardedEngine::drain`] first).
    pub fn accounting(&self) -> &ShardedCostSummary {
        &self.accounting
    }

    /// The engine's atomic metric registry. Clone the `Arc` to poll from
    /// other threads (the ingest channel and the network front door do);
    /// counters mirroring the cost ledger equal serial-replay totals at
    /// every drain boundary, timing data is advisory.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The engine's bounded event tracer: drain, snapshot-publish, and
    /// three-phase reshard-handover events, deterministically stamped.
    pub fn tracer(&self) -> &Arc<TraceRing> {
        &self.tracer
    }

    /// Opens the engine's read side and hands out a lock-free
    /// [`SnapshotReader`]. The first call freezes and publishes the current
    /// state; from then on every drain boundary publishes a fresh
    /// [`EngineSnapshot`] that all readers (this one and its clones, on any
    /// thread) observe via one atomic version check. Call before moving the
    /// engine to its serving thread; clone the reader per consumer.
    pub fn snapshots(&mut self) -> SnapshotReader {
        if self.hub.is_none() {
            let initial = self.freeze(Vec::new());
            self.hub = Some(Arc::new(SnapshotHub::new(
                initial,
                Arc::clone(&self.metrics),
            )));
            self.metrics.snapshot_publishes.inc();
            self.metrics.snapshot_version.set(1);
        }
        SnapshotReader::new(Arc::clone(self.hub.as_ref().expect("hub just installed")))
    }

    /// Freezes the engine's current served state (the most recent drain
    /// boundary: trees only change inside drains and handovers, so capturing
    /// between them is always consistent with the accounting). `captured`
    /// holds the drain workers' captures of the shards they just served, in
    /// ascending shard order. The snapshot shares the engine's own partition
    /// allocation, and every shard that was neither served nor rebuilt since
    /// the last publication shares that publication's [`TreeSnapshot`].
    /// Only changed shards that no worker captured are captured here, except
    /// on the first call, which captures them all. Each replaced snapshot
    /// becomes its shard's spare buffer.
    fn freeze(&mut self, captured: Vec<(u32, Arc<TreeSnapshot>)>) -> EngineSnapshot {
        let allocations = &self.metrics.snapshot_capture_allocations;
        let captures = if self.published.is_empty() {
            debug_assert!(captured.is_empty(), "workers capture once a hub exists");
            self.published = self
                .shards
                .iter_mut()
                .map(|shard| {
                    shard.changed = false;
                    shard.capture(allocations)
                })
                .collect();
            self.shards.len()
        } else {
            let mut captured = captured.into_iter().peekable();
            let mut captures = 0;
            for (index, (shard, published)) in
                self.shards.iter_mut().zip(&mut self.published).enumerate()
            {
                let fresh = match captured.next_if(|&(shard, _)| shard as usize == index) {
                    Some((_, fresh)) => fresh,
                    None if shard.changed => shard.capture(allocations),
                    None => {
                        shard.spare = None;
                        continue;
                    }
                };
                shard.changed = false;
                shard.spare = Some(std::mem::replace(published, fresh));
                captures += 1;
            }
            debug_assert!(captured.next().is_none(), "captures in shard order");
            captures
        };
        self.metrics.snapshot_shard_captures.add(captures as u64);
        EngineSnapshot::assemble(
            self.epoch,
            self.accounting.requests(),
            Arc::clone(&self.partition),
            self.published.clone(),
        )
    }

    /// Publishes the current state to the read side, if one is open, with
    /// the drain workers' `captured` shards (see [`ShardedEngine::freeze`]).
    /// Called at every boundary where the served state advanced: after a
    /// drain, after a reshard's epoch bump, and at `finish`.
    fn publish_snapshot(&mut self, captured: Vec<(u32, Arc<TreeSnapshot>)>) {
        if self.hub.is_none() {
            return;
        }
        let started = Instant::now();
        let snapshot = self.freeze(captured);
        let served = snapshot.served();
        let version = self.hub.as_ref().expect("checked above").publish(snapshot);
        self.metrics.publish_latency.record(started.elapsed());
        self.metrics.snapshot_publishes.inc();
        self.metrics.snapshot_version.set(version);
        self.tracer.record(TraceStamp {
            kind: TraceKind::SnapshotPublish,
            epoch: self.epoch,
            served,
            detail: version,
        });
    }

    /// Routes one request to its owning shard's batch under the current
    /// epoch's partition, firing any due scheduled reshard first and
    /// draining every shard once the buffered total reaches the threshold.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfUniverse`] for foreign elements (nothing is
    /// enqueued), or a drain or reshard error.
    pub fn submit(&mut self, element: ElementId) -> Result<(), ServeError> {
        while let Some(plan) = self.schedule.due(self.control.submitted() as usize) {
            self.reshard(plan)?;
        }
        let (shard, local) =
            self.partition
                .localize(element)
                .ok_or_else(|| ServeError::OutOfUniverse {
                    element,
                    universe: self.partition.universe(),
                })?;
        self.shards[shard as usize].pending.push(local);
        self.metrics.shard_buffered[shard as usize].inc();
        let should_drain = self.control.note_submitted();
        if let Some(plan) = self.schedule.observe(element, &self.partition) {
            // The reshard's drain fence also covers the threshold.
            return self.reshard(plan);
        }
        if should_drain {
            self.drain()?;
        }
        Ok(())
    }

    /// Submits a burst of requests in order.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedEngine::submit`], failing at the first
    /// offending request.
    pub fn submit_burst(&mut self, burst: &[ElementId]) -> Result<(), ServeError> {
        for &element in burst {
            self.submit(element)?;
        }
        Ok(())
    }

    /// Serves every pending per-shard batch concurrently on the engine's
    /// drain pool: one job per non-empty shard batch, each through
    /// [`SelfAdjustingTree::serve_batch`], claimed by the pool's long-lived
    /// workers and by the calling thread, which serves too and then collects
    /// the rest. Once all are served, the batch summaries are merged in
    /// ascending shard order. Shards with nothing buffered are never
    /// dispatched (merging their empty summary would be the identity), so a
    /// drain's work grows with the shards it serves, not with the shard
    /// count. While the read side is open, the thread that served a batch
    /// without error also captures the shard for the drain's publication.
    ///
    /// Returns the cost of exactly the requests this call served: the
    /// shard-order merge of the batch summaries, `max_*` fields included
    /// (empty when nothing was buffered).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Tree`] for the failing shard that comes first
    /// in shard order. Every shard's batch is still served (and accounted)
    /// up to its own failure point; the unserved tail of a failing batch is
    /// discarded, so [`EngineReport::requests`] reports what was actually
    /// accounted, not what was submitted.
    ///
    /// # Panics
    ///
    /// If a shard's tree panics, the panic is re-raised here, on the
    /// caller, once every other batch has been served.
    pub fn drain(&mut self) -> Result<CostSummary, ServeError> {
        if !self.control.begin_drain() {
            return Ok(CostSummary::new());
        }
        let before = self.accounting.requests();
        let started = Instant::now();
        // The drain's summed delta reaches the registry only after the
        // publication below.
        let mut drained = CostSummary::new();
        // The pool hands back every served shard's summary in ascending
        // shard order; summaries merge in that order (every shard's served
        // prefix is accounted, failed or not), and the error reported is the
        // lowest-indexed failing shard's, independent of completion order.
        let capturing = self.hub.is_some();
        let mut failure = None;
        let mut captured = Vec::new();
        for (index, (delta, outcome, capture)) in self.pool.drain(&mut self.shards, capturing) {
            drained.merge(&delta);
            self.accounting.merge_into_shard(index, &delta);
            // The batch was consumed (cleared even on failure).
            self.metrics.shard_buffered[index as usize].set(0);
            if let Err(error) = outcome {
                failure.get_or_insert((index, error));
            }
            captured.extend(capture.map(|capture| (index, capture)));
        }
        // A failed drain is still a counted drain — so the registry records
        // the drain before the error propagates, keeping it equal to the
        // ledger.
        self.metrics.batches_drained.inc();
        self.metrics.drain_latency.record(started.elapsed());
        let served = self.accounting.requests();
        self.tracer.record(TraceStamp {
            kind: TraceKind::Drain,
            epoch: self.epoch,
            served,
            detail: served - before,
        });
        if let Some((shard, error)) = failure {
            // Nothing is published, so the captures are dropped: the served
            // shards stay flagged `changed`, and the next publication
            // recaptures them at its own boundary.
            mirror_drain(&self.metrics, &drained);
            return Err(ServeError::Tree { shard, error });
        }
        // The drain boundary is the read side's publication point.
        self.publish_snapshot(captured);
        mirror_drain(&self.metrics, &drained);
        Ok(drained)
    }

    /// Reshards the engine with the deterministic handover protocol: drain
    /// fence (every buffered request is served under the closing epoch, and
    /// the closing epoch's fingerprints are recorded), element migration via
    /// the canonical delete/re-insert order of
    /// [`satn_workloads::shard::handover`], and the epoch bump (partition
    /// and accounting).
    ///
    /// Only the shards the plan touches (move sources and destinations) are
    /// rebuilt — each re-instantiated warm, carrying its predecessor's
    /// rotor/recency/RNG state across the boundary
    /// ([`satn_core::WarmState`]) — while every untouched shard keeps its
    /// live tree verbatim, paying zero handover work. The rotor-walk
    /// determinism results of Angel & Holroyd make a carried rotor
    /// configuration as sound a starting point as a fresh one, so the serial
    /// reference replay ([`ShardedScenario::epoch_replay`]), which carries
    /// the same states, stays a byte-exact oracle.
    ///
    /// # Errors
    ///
    /// [`ServeError::ReshardUnsupported`] if the engine's algorithm is
    /// offline, [`ServeError::Reshard`] if the plan does not fit the
    /// partition (the engine is unchanged beyond the drain fence),
    /// [`ServeError::Handover`] if the handover produced a placement no
    /// shard tree can be rebuilt from, or a drain/rebuild error.
    pub fn reshard(&mut self, plan: ReshardPlan) -> Result<(), ServeError> {
        let Some((kind, base_seed)) = self.rebuild else {
            return Err(ServeError::ReshardUnsupported {
                reason: "offline algorithms cannot be rebuilt mid-stream",
            });
        };
        let planned_moves = plan.moves().len() as u64;
        // 1. Drain fence: the closing epoch serves everything it buffered.
        self.drain()?;
        // The handover clock starts after the fence: it measures the
        // migration and rebuild work itself, not the backlog drained first.
        let started = Instant::now();
        let closing_epoch = self.epoch;
        let new = Arc::new(self.partition.apply(&plan).map_err(ServeError::Reshard)?);
        let old = std::mem::replace(&mut self.partition, Arc::clone(&new));
        self.epoch += 1;
        let epoch = self.epoch;
        let served = self.accounting.requests();
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardFence,
            epoch: closing_epoch,
            served,
            detail: planned_moves,
        });
        // The fence state is the closing epoch's boundary fingerprint.
        self.capture_boundary_fingerprints();
        self.boundaries.push(self.control.submitted() as usize);
        // 2. Migrate: canonical delete/re-insert. Only the touched shards
        // get a placement; `None` means "keep the live tree".
        let outcome = {
            let occupancies: Vec<&Occupancy> = self
                .shards
                .iter()
                .map(|shard| shard.tree.occupancy())
                .collect();
            handover(&old, &new, &plan, &occupancies)
        };
        let mut touched = 0u64;
        let mut rebuilt_nodes = 0u64;
        for (shard, placement) in outcome.placements.into_iter().enumerate() {
            let Some(placement) = placement else {
                continue;
            };
            let levels = (placement.len() + 1).trailing_zeros();
            let geometry =
                CompleteTree::with_levels(levels).map_err(|error| ServeError::Handover {
                    shard: shard as u32,
                    reason: format!("{} slots: {error}", placement.len()),
                })?;
            let occupancy = Occupancy::from_placement(geometry, placement).map_err(|error| {
                ServeError::Handover {
                    shard: shard as u32,
                    reason: error.to_string(),
                }
            })?;
            let seed = algorithm_seed(shard_epoch_seed(base_seed, shard as u32, epoch));
            let remap = carry_remap(&old, &new, shard as u32);
            let state = self.shards[shard]
                .tree
                .export_state()
                .carried_into(geometry, &remap);
            let tree = kind
                .instantiate_warm(occupancy, seed, &[], &state)
                .map_err(|error| ServeError::Tree {
                    shard: shard as u32,
                    error,
                })?;
            touched += 1;
            rebuilt_nodes += (1u64 << levels) - 1;
            self.shards[shard].tree = tree;
            self.shards[shard].changed = true;
        }
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardMigrate,
            epoch,
            served,
            detail: touched,
        });
        // 3. Epoch bump in the ledger, carrying the migration cost — and a
        // publication, so readers see the new epoch's placement immediately
        // rather than at the next drain.
        self.accounting.begin_epoch(outcome.migration);
        self.metrics.handover_latency.record(started.elapsed());
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardEpochBump,
            epoch,
            served,
            detail: outcome.migration.moved,
        });
        self.publish_snapshot(Vec::new());
        // Mirrored after the publication, like a drain's counters: a reader
        // that sees the new epoch finds it published.
        self.metrics.reshard_epoch.set(epoch as u64);
        self.metrics.migration_units.add(outcome.migration.total());
        self.metrics
            .migration_touched_units
            .add(outcome.migration.total());
        self.metrics.migration_rebuilt_nodes.add(rebuilt_nodes);
        Ok(())
    }

    /// Consumes an ingestion queue to completion: bursts are submitted in
    /// arrival order (auto-draining at the threshold), flush messages force
    /// a drain, reshard frames run the full handover protocol, and sender
    /// shutdown triggers a final drain.
    ///
    /// # Errors
    ///
    /// Propagates the first submit, drain, or reshard error.
    pub fn serve_queue(&mut self, queue: &IngestQueue) -> Result<(), ServeError> {
        loop {
            match queue.recv() {
                Some(IngestMessage::Burst(burst)) => self.submit_burst(&burst)?,
                Some(IngestMessage::Flush) => {
                    self.drain()?;
                }
                Some(IngestMessage::Reshard(plan)) => self.reshard(plan)?,
                None => return self.drain().map(|_| ()),
            }
        }
    }

    /// The replay fingerprint of one shard: its tree's placement digest.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn fingerprint(&self, shard: u32) -> Fingerprint {
        self.shards[shard as usize].tree.occupancy().fingerprint()
    }

    /// Records every shard's fingerprint as the closing epoch's boundary
    /// state (at a reshard's drain fence, and once more at `finish`).
    fn capture_boundary_fingerprints(&mut self) {
        self.epoch_fingerprints.push(
            (0..self.shards())
                .map(|shard| self.fingerprint(shard))
                .collect(),
        );
    }

    /// Drains any remaining batches, fires any remaining scheduled manual
    /// reshards (their epochs close empty, exactly as in the reference
    /// replay), and emits the final report.
    ///
    /// # Errors
    ///
    /// Propagates the final drain's (or reshard's) error.
    pub fn finish(mut self) -> Result<EngineReport, ServeError> {
        self.drain()?;
        while let Some(plan) = self.schedule.due(usize::MAX) {
            self.reshard(plan)?;
        }
        // Readers outlive the engine: leave them the final state.
        self.publish_snapshot(Vec::new());
        self.capture_boundary_fingerprints();
        let per_shard = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardReport {
                shard: index as u32,
                elements: self.partition.owned(index as u32).len() as u32,
                summary: *self.accounting.shard(index as u32),
                fingerprint: shard.tree.occupancy().fingerprint(),
            })
            .collect();
        Ok(EngineReport {
            per_shard,
            merged: self.accounting.merged(),
            migration: self.accounting.migration_total(),
            drains: self.control.drains(),
            requests: self.accounting.requests(),
            epoch_fingerprints: self.epoch_fingerprints,
            boundaries: self.boundaries,
            accounting: self.accounting,
        })
    }
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards())
            .field("universe", &self.partition.universe())
            .field("router", &self.partition.router())
            .field("epoch", &self.epoch())
            .field("parallelism", &self.parallelism)
            .field("submitted", &self.submitted())
            .field("drains", &self.drains())
            .finish_non_exhaustive()
    }
}

/// The final state of one shard after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Elements the shard owns (under the final epoch's partition).
    pub elements: u32,
    /// Everything this shard served, in per-request detail totals (across
    /// all epochs).
    pub summary: CostSummary,
    /// The shard's deterministic replay fingerprint (placement digest).
    pub fingerprint: Fingerprint,
}

/// The outcome of a sharded serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Per-shard summaries and fingerprints, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// The shard-order merge of every per-shard summary (serving cost only).
    pub merged: CostSummary,
    /// The accumulated handover cost of every reshard in the run.
    pub migration: MigrationCost,
    /// Number of drains the run used (cadence never affects results).
    pub drains: u64,
    /// Total requests served and accounted (equals the submitted count on a
    /// clean run; smaller if a drain failed and discarded a batch tail).
    pub requests: u64,
    /// Per epoch, the per-shard fingerprints at the epoch's closing drain
    /// fence (the last entry is the final state). Equal to the
    /// epoch-segmented reference replay's digests of its per-epoch final
    /// placements.
    pub epoch_fingerprints: Vec<Vec<Fingerprint>>,
    /// Requests submitted before each epoch boundary.
    pub boundaries: Vec<usize>,
    /// The full epoch-versioned ledger: per-epoch sub-summaries and
    /// migration costs.
    pub accounting: ShardedCostSummary,
}

impl EngineReport {
    /// Verifies this report byte for byte against the epoch-segmented
    /// serial reference replay of the same scenario — the determinism
    /// oracle shared by the `satnd --verify` mode and the transport tests:
    /// epoch schedule and boundaries, the full epoch-versioned cost ledger,
    /// and every per-epoch per-shard boundary fingerprint must all match.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify_against(&self, replay: &satn_sim::ShardedReplay) -> Result<(), String> {
        if self.epoch_fingerprints.len() as u32 != replay.epochs() {
            return Err(format!(
                "epoch count diverged: engine ran {} epochs, replay {}",
                self.epoch_fingerprints.len(),
                replay.epochs()
            ));
        }
        if self.boundaries != replay.boundaries {
            return Err(format!(
                "epoch boundaries diverged: engine {:?}, replay {:?}",
                self.boundaries, replay.boundaries
            ));
        }
        if self.accounting != replay.accounting {
            return Err("the epoch-versioned cost ledger diverged".to_owned());
        }
        for epoch in 0..replay.epochs() {
            let fingerprints = &self.epoch_fingerprints[epoch as usize];
            for shard in 0..fingerprints.len() as u32 {
                if fingerprints[shard as usize] != replay.fingerprint(epoch, shard) {
                    return Err(format!(
                        "epoch {epoch} shard {shard} boundary fingerprint diverged"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardedEngineConfig;
    use crate::ingest::ingest_channel_with_metrics;
    use satn_sim::{AlgorithmKind, ShardRouter, SimRunner, WorkloadSpec};
    use satn_workloads::shard::{ReshardEvent, ReshardPolicy};

    fn scenario(algorithm: AlgorithmKind, router: ShardRouter) -> ShardedScenario {
        let mut s = ShardedScenario::new(
            algorithm,
            WorkloadSpec::Combined { a: 1.5, p: 0.6 },
            4,
            5,
            3_000,
            13,
        );
        s.router = router;
        s
    }

    fn engine(scenario: &ShardedScenario, parallelism: Parallelism) -> ShardedEngine {
        ShardedEngineConfig::from_scenario(scenario)
            .parallelism(parallelism)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_matches_the_serial_reference_replay() {
        // Static-Opt is the one algorithm whose engine trees are laid out
        // from the split stream.
        for algorithm in [AlgorithmKind::RotorPush, AlgorithmKind::StaticOpt] {
            let sharded = scenario(algorithm, ShardRouter::Hash);
            let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                .parallelism(Parallelism::Threads(3))
                .drain_threshold(257)
                .build()
                .unwrap();
            for element in sharded.stream() {
                engine.submit(element).unwrap();
            }
            let report = engine.finish().unwrap();
            assert_eq!(report.requests, 3_000);
            assert!(report.drains >= 3_000 / 257);
            assert_eq!(report.migration, MigrationCost::ZERO);
            assert_eq!(report.epoch_fingerprints.len(), 1);

            let runner = SimRunner::new();
            for (shard, reference) in sharded.shard_scenarios().iter().enumerate() {
                let expected = runner.run(reference).unwrap();
                let got = &report.per_shard[shard];
                assert_eq!(got.summary, expected.summary, "{algorithm} shard {shard}");
                assert_eq!(
                    got.fingerprint,
                    expected.final_occupancy.fingerprint(),
                    "{algorithm} shard {shard}"
                );
            }
            report
                .verify_against(&sharded.epoch_replay(&runner).unwrap())
                .unwrap_or_else(|divergence| panic!("{algorithm}: {divergence}"));
        }
    }

    #[test]
    fn drain_cadence_and_thread_count_never_change_results() {
        let sharded = scenario(AlgorithmKind::MaxPush, ShardRouter::Range);
        let mut reports = Vec::new();
        for (threshold, parallelism) in [
            (1usize, Parallelism::Serial),
            (64, Parallelism::Threads(2)),
            (100_000, Parallelism::Threads(7)),
        ] {
            let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                .parallelism(parallelism)
                .drain_threshold(threshold)
                .build()
                .unwrap();
            let requests: Vec<ElementId> = sharded.stream().collect();
            engine.submit_burst(&requests).unwrap();
            reports.push(engine.finish().unwrap());
        }
        assert_eq!(reports[0].per_shard, reports[1].per_shard);
        assert_eq!(reports[0].merged, reports[1].merged);
        assert_eq!(reports[1].per_shard, reports[2].per_shard);
        assert_eq!(reports[1].merged, reports[2].merged);
        // The full epoch ledger is cadence-invariant too.
        assert_eq!(reports[0].accounting, reports[1].accounting);
        assert_eq!(reports[1].accounting, reports[2].accounting);
    }

    #[test]
    fn queue_fed_runs_match_direct_submission() {
        let sharded = scenario(AlgorithmKind::MoveHalf, ShardRouter::Range);

        let mut direct = engine(&sharded, Parallelism::Threads(2));
        for element in sharded.stream() {
            direct.submit(element).unwrap();
        }
        let direct_report = direct.finish().unwrap();

        let mut queued = engine(&sharded, Parallelism::Threads(2));
        let (sender, queue) = ingest_channel_with_metrics(8, Arc::clone(queued.metrics()));
        let requests: Vec<ElementId> = sharded.stream().collect();
        let producer = std::thread::spawn(move || {
            for chunk in requests.chunks(97) {
                sender.send_burst(chunk.to_vec()).unwrap();
            }
            sender.flush().unwrap();
        });
        queued.serve_queue(&queue).unwrap();
        producer.join().unwrap();
        let queued_report = queued.finish().unwrap();

        assert_eq!(direct_report, queued_report);
    }

    #[test]
    fn merged_summary_is_the_shard_order_merge() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let merged = engine.accounting().merged();
        let report = engine.finish().unwrap();
        let mut recombined = CostSummary::new();
        for shard in &report.per_shard {
            recombined.merge(&shard.summary);
        }
        assert_eq!(report.merged, recombined);
        assert_eq!(report.merged, merged);
        assert_eq!(report.merged.requests(), 3_000);
    }

    /// A real shard tree that fails on one poisoned local element. Before
    /// failing it waits on `gate` and then sends on `signal`, so a test can
    /// order the failures of shards served by different workers.
    struct Poisoned {
        inner: Box<dyn SelfAdjustingTree + Send>,
        poison: ElementId,
        gate: Option<std::sync::mpsc::Receiver<()>>,
        signal: Option<std::sync::mpsc::Sender<()>>,
    }

    impl SelfAdjustingTree for Poisoned {
        fn name(&self) -> &'static str {
            "poisoned"
        }

        fn occupancy(&self) -> &Occupancy {
            self.inner.occupancy()
        }

        fn serve(
            &mut self,
            element: ElementId,
        ) -> Result<satn_tree::ServeCost, satn_tree::TreeError> {
            if element == self.poison {
                if let Some(gate) = &self.gate {
                    gate.recv().expect("the signalling shard is still alive");
                }
                if let Some(signal) = &self.signal {
                    signal.send(()).expect("the gated shard is still alive");
                }
                return Err(satn_tree::TreeError::ElementOutOfRange {
                    element,
                    num_elements: 0,
                });
            }
            self.inner.serve(element)
        }
    }

    #[test]
    fn failed_drains_account_every_served_prefix_and_report_the_lowest_shard() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let partition = sharded.partition();
        let mut batches = vec![Vec::new(); 4];
        for element in sharded.stream() {
            let (shard, local) = partition.localize(element).unwrap();
            batches[shard as usize].push(local);
        }
        assert!(batches.iter().all(|batch| !batch.is_empty()));
        // Shards 1 and 3 fail midway through their batch; at every worker
        // count the ledger must hold exactly what each tree served before
        // its failure.
        let midway = |batch: &Vec<ElementId>| Some(batch[batch.len() / 2]);
        let poisons = [None, midway(&batches[1]), None, midway(&batches[3])];
        let expected: Vec<CostSummary> = sharded
            .shard_scenarios()
            .iter()
            .zip(&batches)
            .zip(poisons)
            .map(|((reference, batch), poison)| {
                let served = poison.map_or(batch.len(), |poison| {
                    batch.iter().position(|&local| local == poison).unwrap()
                });
                let mut tree = reference.instantiate().unwrap();
                tree.serve_sequence(&batch[..served]).unwrap()
            })
            .collect();
        assert!(expected[1].requests() < batches[1].len() as u64);
        assert!(expected[3].requests() < batches[3].len() as u64);

        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(4),
        ] {
            // With two or more workers, shard 1 fails only after shard 3
            // has, so a merge in completion order would report shard 3.
            // One worker serves shard 1 first and must not wait.
            let (signal, gate) = std::sync::mpsc::channel();
            let parallel = parallelism != Parallelism::Serial;
            let (mut signal, mut gate) = (parallel.then_some(signal), parallel.then_some(gate));
            let mut trees: Vec<Box<dyn SelfAdjustingTree + Send>> = Vec::new();
            for (shard, (reference, poison)) in
                sharded.shard_scenarios().iter().zip(poisons).enumerate()
            {
                let inner = reference.instantiate().unwrap();
                trees.push(match poison {
                    Some(poison) => Box::new(Poisoned {
                        inner,
                        poison,
                        gate: if shard == 1 { gate.take() } else { None },
                        signal: if shard == 3 { signal.take() } else { None },
                    }),
                    None => inner,
                });
            }
            let mut engine = ShardedEngine::assemble(partition.clone(), trees, parallelism);
            engine.set_drain_threshold(1_000_000).unwrap();
            for element in sharded.stream() {
                engine.submit(element).unwrap();
            }
            let err = engine.drain().unwrap_err();
            assert!(
                matches!(err, ServeError::Tree { shard: 1, .. }),
                "{parallelism:?}: {err}"
            );
            assert_eq!(engine.accounting().per_shard(), expected, "{parallelism:?}");
            for (shard, gauge) in engine.metrics().shard_buffered.iter().enumerate() {
                assert_eq!(gauge.get(), 0, "{parallelism:?}: shard {shard} gauge");
            }
        }
    }

    /// A real shard tree that panics on one poisoned local element, after
    /// the same optional `gate`/`signal` handshake as [`Poisoned`].
    struct Panicking {
        inner: Box<dyn SelfAdjustingTree + Send>,
        shard: u32,
        poison: ElementId,
        gate: Option<std::sync::mpsc::Receiver<()>>,
        signal: Option<std::sync::mpsc::Sender<()>>,
    }

    impl SelfAdjustingTree for Panicking {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn occupancy(&self) -> &Occupancy {
            self.inner.occupancy()
        }

        fn serve(
            &mut self,
            element: ElementId,
        ) -> Result<satn_tree::ServeCost, satn_tree::TreeError> {
            if element == self.poison {
                if let Some(gate) = &self.gate {
                    gate.recv().expect("the signalling shard is still alive");
                }
                if let Some(signal) = &self.signal {
                    signal.send(()).expect("the gated shard is still alive");
                }
                panic!("shard {}'s tree panicked", self.shard);
            }
            self.inner.serve(element)
        }
    }

    /// Runs `f` on a thread of its own and returns its result, failing the
    /// test if `f` panics or has not returned within a minute, so a drain
    /// pool that deadlocks fails the suite instead of hanging it.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = std::sync::mpsc::channel();
        std::thread::spawn(move || done.send(f()));
        result
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run panicked or hung")
    }

    #[test]
    fn a_panicking_tree_panics_the_drain_caller_and_every_shard_comes_back() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let partition = sharded.partition();
        let requests: Vec<ElementId> = sharded.stream().collect();
        let first_local = |shard: u32| {
            requests
                .iter()
                .find_map(|&element| partition.localize(element).filter(|&(s, _)| s == shard))
                .map(|(_, local)| local)
                .unwrap()
        };
        let poisons = [first_local(0), first_local(3)];
        let (message, fingerprints, workers, shared) = within_a_minute(move || {
            // Shards 0 and 3 panic, shard 0 only after shard 3 has: whichever
            // thread claims shard 0 waits, so the other serves shard 3, and
            // at least one of the two panics is a worker's. The panic
            // re-raised must still be shard 0's, the lowest.
            let (signal, gate) = std::sync::mpsc::channel();
            let (mut signal, mut gate) = (Some(signal), Some(gate));
            let trees = sharded
                .shard_scenarios()
                .iter()
                .zip(0u32..)
                .map(|(reference, shard)| {
                    let inner = reference.instantiate().unwrap();
                    match shard {
                        0 | 3 => Box::new(Panicking {
                            inner,
                            shard,
                            poison: poisons[(shard / 3) as usize],
                            gate: if shard == 0 { gate.take() } else { None },
                            signal: if shard == 3 { signal.take() } else { None },
                        }),
                        _ => inner,
                    }
                })
                .collect();
            let mut engine = ShardedEngine::assemble(partition, trees, Parallelism::Threads(2));
            engine.set_drain_threshold(1_000_000).unwrap();
            let _reader = engine.snapshots();
            engine.submit_burst(&requests).unwrap();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.drain().map(|_| ())
            }))
            .expect_err("a panicking tree must panic the drain caller");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            // Every shard is back home: each answers for its tree.
            let fingerprints: Vec<Fingerprint> = (0..engine.shards())
                .map(|shard| engine.fingerprint(shard))
                .collect();
            assert_eq!(engine.accounting().requests(), 0, "a panic merges nothing");
            let (workers, shared) = engine.pool.watch();
            drop(engine);
            (message, fingerprints, workers, shared.strong_count())
        });
        assert_eq!(message, "shard 0's tree panicked");
        assert_eq!(fingerprints.len(), 4);
        assert_eq!(workers, 1);
        assert_eq!(shared, 0, "the dropped engine joined its worker");
    }

    #[test]
    fn dropping_an_engine_with_buffered_requests_joins_its_workers() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        for parallelism in [Parallelism::Threads(2), Parallelism::Threads(7)] {
            let sharded = sharded.clone();
            let (workers, shared, mut reader) = within_a_minute(move || {
                let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                    .parallelism(parallelism)
                    .drain_threshold(1_000)
                    .build()
                    .unwrap();
                let reader = engine.snapshots();
                // Three drains, then requests still buffered at the drop.
                let requests: Vec<ElementId> = sharded.stream().collect();
                engine.submit_burst(&requests).unwrap();
                engine.submit_burst(&requests[..500]).unwrap();
                assert_eq!(engine.drains(), 3);
                let (workers, shared) = engine.pool.watch();
                drop(engine);
                (workers, shared.strong_count(), reader)
            });
            // Four shards: more threads than that would never get a job.
            assert_eq!(workers, parallelism.threads().min(4) - 1, "{parallelism:?}");
            assert_eq!(shared, 0, "{parallelism:?}: a worker outlived the drop");
            // The read side outlives the engine.
            assert!(
                reader.lookup(ElementId::new(0)).is_some(),
                "{parallelism:?}"
            );
        }
    }

    #[test]
    fn a_failed_drain_publishes_nothing_and_the_next_publication_is_current() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let partition = sharded.partition();
        let requests: Vec<ElementId> = sharded.stream().collect();
        let shard_one: Vec<ElementId> = requests
            .iter()
            .filter_map(|&element| partition.localize(element))
            .filter(|&(shard, _)| shard == 1)
            .map(|(_, local)| local)
            .collect();
        let poison = shard_one[shard_one.len() / 2];
        let moved = partition.owned(1)[0];
        let shard_two = *requests
            .iter()
            .find(|&&element| partition.shard_of(element) == Some(2))
            .unwrap();
        for rebuild_after in [false, true] {
            let trees = sharded
                .shard_scenarios()
                .iter()
                .enumerate()
                .map(|(shard, reference)| {
                    let inner = reference.instantiate().unwrap();
                    if shard != 1 {
                        return inner;
                    }
                    Box::new(Poisoned {
                        inner,
                        poison,
                        gate: None,
                        signal: None,
                    }) as Box<dyn SelfAdjustingTree + Send>
                })
                .collect();
            let mut engine =
                ShardedEngine::assemble(partition.clone(), trees, Parallelism::Threads(2));
            engine.set_drain_threshold(1_000_000).unwrap();
            let mut reader = engine.snapshots();
            engine.submit_burst(&requests).unwrap();
            let err = engine.drain().unwrap_err();
            assert!(matches!(err, ServeError::Tree { shard: 1, .. }), "{err}");
            assert_eq!(reader.version(), 1, "a failed drain publishes nothing");
            let before = Arc::clone(reader.snapshot());
            for shard in 0..engine.shards() {
                assert_ne!(
                    before.fingerprint(shard),
                    engine.fingerprint(shard),
                    "shard {shard} served nothing before the failure"
                );
            }

            if rebuild_after {
                // Rebuilds shards 1 and 2; shards 0 and 3 are untouched but
                // still unpublished since the failed drain.
                engine.rebuild = Some((AlgorithmKind::RotorPush, sharded.seed));
                engine.reshard(ReshardPlan::new([(moved, 2)])).unwrap();
            } else {
                // A drain that serves shard 2 alone.
                engine.submit(shard_two).unwrap();
                engine.drain().unwrap();
            }
            assert_eq!(reader.version(), 2, "rebuild_after = {rebuild_after}");
            let snapshot = reader.snapshot();
            for shard in 0..engine.shards() {
                assert_eq!(
                    snapshot.shard(shard).fingerprint(),
                    engine.fingerprint(shard),
                    "rebuild_after = {rebuild_after}: shard {shard} published stale"
                );
            }
        }
    }

    #[test]
    fn held_snapshots_keep_their_trees_and_released_buffers_are_recycled() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Threads(2))
            .drain_threshold(1_000_000)
            .build()
            .unwrap();
        let mut reader = engine.snapshots();
        let universe = sharded.universe();
        // Each round requests every element once, so every drain serves
        // (and its workers capture) all four shards.
        let mut round = 0;
        let mut drain = |engine: &mut ShardedEngine| {
            round += 1;
            for step in 0..universe {
                let element = (step * 7 + round) % universe;
                engine.submit(ElementId::new(element)).unwrap();
            }
            engine.drain().unwrap();
        };
        let fingerprints = |snapshot: &EngineSnapshot| -> Vec<Fingerprint> {
            (0..snapshot.shards())
                .map(|shard| snapshot.fingerprint(shard))
                .collect()
        };
        let buffers = |engine: &ShardedEngine| -> Vec<*const TreeSnapshot> {
            engine.published.iter().map(Arc::as_ptr).collect()
        };

        // A snapshot held across three further drains keeps the trees it
        // was published with: no capture ever writes into a shared buffer.
        drain(&mut engine);
        let held = Arc::clone(reader.snapshot());
        let published = fingerprints(&held);
        let live: Vec<Fingerprint> = (0..4).map(|shard| engine.fingerprint(shard)).collect();
        assert_eq!(published, live);
        for _ in 0..3 {
            drain(&mut engine);
            reader.snapshot();
            assert_eq!(fingerprints(&held), published);
        }
        for shard in 0..4 {
            assert_ne!(engine.fingerprint(shard), published[shard as usize]);
            assert!(!std::ptr::eq(
                held.shard(shard),
                &*engine.published[shard as usize]
            ));
        }
        drop(held);

        // Once nobody holds publication k, publication k + 2 captures into
        // its buffers, and still publishes the live trees.
        drain(&mut engine);
        reader.snapshot();
        let k = buffers(&engine);
        drain(&mut engine);
        reader.snapshot();
        assert!(buffers(&engine).iter().zip(&k).all(|(a, b)| a != b));
        drain(&mut engine);
        let snapshot = Arc::clone(reader.snapshot());
        assert_eq!(buffers(&engine), k, "publication k + 2 reuses k's buffers");
        for shard in 0..4 {
            assert_eq!(snapshot.fingerprint(shard), engine.fingerprint(shard));
        }
    }

    #[test]
    fn foreign_elements_are_rejected_without_side_effects() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let universe = sharded.universe();
        let err = engine.submit(ElementId::new(universe)).unwrap_err();
        assert!(matches!(err, ServeError::OutOfUniverse { .. }));
        assert!(err.to_string().contains("outside"));
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 0);
        assert_eq!(report.drains, 0);
    }

    #[test]
    fn warm_handover_keeps_untouched_shard_trees_verbatim() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let addresses = |engine: &ShardedEngine| -> Vec<*const u8> {
            engine
                .shards
                .iter()
                .map(|shard| &*shard.tree as *const dyn SelfAdjustingTree as *const u8)
                .collect()
        };
        let before = addresses(&engine);
        // The plan touches shards 0 (source) and 1 (destination) only.
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap();
        let after = addresses(&engine);
        // Untouched shards keep the exact same live tree object — zero
        // per-shard handover work, not merely an equal rebuild.
        assert_eq!(
            before[2], after[2],
            "shard 2 was rebuilt despite being untouched"
        );
        assert_eq!(
            before[3], after[3],
            "shard 3 was rebuilt despite being untouched"
        );
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.partition().shard_of(ElementId::new(0)), Some(1));
        // The engine still serves and finishes cleanly on the carried trees.
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 6_000);
    }

    #[test]
    fn warm_engines_match_the_warm_serial_reference_replay() {
        for algorithm in [
            AlgorithmKind::RotorPush,
            AlgorithmKind::MaxPush,
            AlgorithmKind::RandomPush,
        ] {
            let mut sharded = scenario(algorithm, ShardRouter::Hash);
            sharded.reshard = satn_sim::ReshardSchedule::Manual(vec![
                ReshardEvent {
                    at: 1_000,
                    plan: ReshardPlan::new([(ElementId::new(0), 1), (ElementId::new(5), 2)]),
                },
                ReshardEvent {
                    at: 2_000,
                    plan: ReshardPlan::new([(ElementId::new(0), 3)]),
                },
            ]);
            let replay = sharded.epoch_replay(&SimRunner::new()).unwrap();
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                    .parallelism(parallelism)
                    .drain_threshold(313)
                    .build()
                    .unwrap();
                for element in sharded.stream() {
                    engine.submit(element).unwrap();
                }
                let report = engine.finish().unwrap();
                report.verify_against(&replay).unwrap_or_else(|divergence| {
                    panic!("{algorithm:?} at {parallelism:?}: {divergence}")
                });
            }
        }
    }

    #[test]
    fn migrate_trace_detail_counts_touched_shards() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap();
        let migrate = engine
            .tracer()
            .stamps()
            .into_iter()
            .find(|stamp| stamp.kind == TraceKind::ReshardMigrate)
            .expect("a reshard records a migrate span");
        assert_eq!(
            migrate.detail, 2,
            "the migrate detail must be the touched-shard count, not migration cost"
        );
    }

    #[test]
    fn invalid_plans_leave_the_engine_usable() {
        let sharded = scenario(AlgorithmKind::MaxPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let err = engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 99)]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Reshard(_)));
        assert_eq!(engine.epoch(), 0);
        // The engine still serves normally afterwards.
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 3_000);
    }

    #[test]
    fn offline_algorithms_reject_reshard_schedules() {
        let mut sharded = scenario(AlgorithmKind::StaticOpt, ShardRouter::Range);
        sharded.reshard = satn_sim::ReshardSchedule::Manual(vec![ReshardEvent {
            at: 100,
            plan: ReshardPlan::new([(ElementId::new(0), 1)]),
        }]);
        let err = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Serial)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));

        // A static offline engine builds, but refuses an explicit reshard
        // before its drain fence.
        sharded.reshard = satn_sim::ReshardSchedule::Static;
        let mut engine = engine(&sharded, Parallelism::Serial);
        engine.submit(ElementId::new(0)).unwrap();
        let err = engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));
        assert!(err.to_string().contains("offline"), "{err}");
        assert_eq!((engine.epoch(), engine.drains()), (0, 0));
    }

    #[test]
    fn snapshot_readers_track_drain_boundaries() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Serial)
            .drain_threshold(500)
            .build()
            .unwrap();
        let mut reader = engine.snapshots();
        assert_eq!(reader.snapshot().served(), 0);
        assert_eq!(reader.lookup(ElementId::new(0)).unwrap().epoch, 0);

        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let at_drain = std::sync::Arc::clone(reader.snapshot());
        assert_eq!(at_drain.served(), 3_000);
        for shard in 0..engine.shards() {
            assert_eq!(at_drain.fingerprint(shard), engine.fingerprint(shard));
        }

        let report = engine.finish().unwrap();
        let final_snap = std::sync::Arc::clone(reader.snapshot());
        for (shard, shard_report) in report.per_shard.iter().enumerate() {
            assert_eq!(
                final_snap.fingerprint(shard as u32),
                shard_report.fingerprint,
                "published snapshot diverged from the final report on shard {shard}"
            );
        }
    }

    #[test]
    fn snapshots_follow_reshards_to_the_new_epoch() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let mut reader = engine.snapshots();
        let moved = ElementId::new(0);
        let before = reader.lookup(moved).unwrap();
        assert_eq!((before.epoch, before.shard), (0, 0));
        engine.reshard(ReshardPlan::new([(moved, 2)])).unwrap();
        let after = reader.lookup(moved).unwrap();
        assert_eq!(
            (after.epoch, after.shard),
            (1, 2),
            "the post-reshard publication must route under the new partition"
        );
    }

    #[test]
    fn handovers_republish_the_shards_they_rebuild() {
        // 64 range shards under a hot-shard stream: every handover rebuilds
        // a hot source and a cold destination, and most drains skip most
        // shards, so a rebuilt shard is often one the fence did not serve.
        let mut sharded =
            ShardedScenario::hot_shard(AlgorithmKind::RotorPush, 64, 4, 6_000, 31, 8, 1.9);
        sharded.reshard = satn_sim::ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 500,
            max_moves: 8,
        });
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Threads(2))
            .drain_threshold(97)
            .build()
            .unwrap();
        let mut reader = engine.snapshots();
        let mut previous = Arc::clone(reader.snapshot());
        let (mut handovers, mut moved) = (0, 0);
        for element in sharded.stream() {
            let epoch = engine.epoch();
            engine.submit(element).unwrap();
            if engine.epoch() == epoch {
                continue;
            }
            handovers += 1;
            let snapshot = Arc::clone(reader.snapshot());
            assert_eq!(snapshot.epoch(), engine.epoch());
            assert_eq!(previous.epoch() + 1, engine.epoch());
            for shard in 0..engine.shards() {
                assert_eq!(
                    snapshot.fingerprint(shard),
                    engine.fingerprint(shard),
                    "epoch {}: shard {shard}'s published tree is not its live tree",
                    engine.epoch()
                );
            }
            for (element, _, to) in previous.partition().diff(engine.partition()) {
                let (shard, local) = engine.partition().localize(element).unwrap();
                assert_eq!(shard, to);
                let live = engine.shards[shard as usize]
                    .tree
                    .occupancy()
                    .node_of(local);
                let answer = snapshot.lookup(element).unwrap();
                assert_eq!(
                    (answer.shard, answer.node),
                    (shard, live),
                    "moved element {element:?} answered from a stale tree"
                );
                moved += 1;
            }
            previous = snapshot;
        }
        assert!(handovers >= 5, "only {handovers} handovers fired");
        assert!(moved > 0);
    }

    #[test]
    fn publications_capture_only_the_shards_that_changed() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Threads(2))
            .drain_threshold(1_000_000)
            .build()
            .unwrap();
        let metrics = Arc::clone(engine.metrics());
        let captures = || metrics.snapshot_shard_captures.get();
        let shard_of = |engine: &ShardedEngine, element: u32| {
            engine
                .partition()
                .shard_of(ElementId::new(element))
                .unwrap()
        };
        // The first publication captures all four shards.
        let _reader = engine.snapshots();
        assert_eq!(captures(), 4);

        // A drain serving two shards recaptures exactly those two.
        for element in [0, 1, 70] {
            engine.submit(ElementId::new(element)).unwrap();
        }
        assert_eq!((shard_of(&engine, 0), shard_of(&engine, 70)), (0, 2));
        engine.drain().unwrap();
        assert_eq!(captures(), 4 + 2);
        // An empty drain publishes nothing.
        engine.drain().unwrap();
        assert_eq!(captures(), 4 + 2);

        // A handover with nothing buffered rebuilds its source and
        // destination (shards 0 and 3) and recaptures just those.
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 3)]))
            .unwrap();
        assert_eq!(captures(), 4 + 2 + 2);

        // The fence of a handover recaptures the shard it served, then the
        // rebuilt shards (1 and 2) once more: a served shard that is also
        // rebuilt is captured twice, once per publication.
        engine.submit(ElementId::new(40)).unwrap();
        assert_eq!(shard_of(&engine, 40), 1);
        engine
            .reshard(ReshardPlan::new([(ElementId::new(40), 2)]))
            .unwrap();
        assert_eq!(captures(), 4 + 2 + 2 + 1 + 2);

        // `finish` publishes again, but nothing changed since.
        let report = engine.finish().unwrap();
        assert_eq!(captures(), 4 + 2 + 2 + 1 + 2);
        assert_eq!(report.drains, 2);
        assert_eq!(metrics.snapshot_publishes.get(), 1 + 1 + 1 + 2 + 1);
    }

    #[test]
    fn debug_output_names_the_configuration() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let engine = engine(&sharded, Parallelism::Serial);
        let rendered = format!("{engine:?}");
        assert!(rendered.contains("ShardedEngine"));
        assert!(rendered.contains("universe"));
        assert!(rendered.contains("epoch"));
    }
}
