//! The sharded multi-tree serving engine.

use crate::drain::DrainControl;
use crate::error::ServeError;
use crate::ingest::{IngestMessage, IngestQueue};
use crate::snapshot::{EngineSnapshot, SnapshotHub, SnapshotReader};
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_exec::{for_each_ordered, Parallelism};
use satn_obs::{EngineMetrics, TraceKind, TraceRing, TraceStamp};
use satn_sim::{ReshardSchedule, ShardedScenario};
use satn_tree::{
    CompleteTree, CostObserver, CostSummary, ElementId, Fingerprint, LayoutKind, MigrationCost,
    Occupancy, ShardedCostSummary, TreeSnapshot,
};
use satn_workloads::shard::{
    algorithm_seed, carry_remap, handover, shard_epoch_seed, EpochedPartition, Partition,
    PolicyDriver, ReshardEvent, ReshardPlan,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Pending requests buffered across all shards before an automatic drain.
pub const DEFAULT_DRAIN_THRESHOLD: usize = 4_096;

/// One shard: its tree plus the batch of localized requests accumulated for
/// the next drain.
struct Shard {
    tree: Box<dyn SelfAdjustingTree + Send>,
    pending: Vec<ElementId>,
}

/// Mirrors the deterministic cost ledger into the engine's atomic metric
/// registry: batch summaries land in the served/cost counters as they merge
/// (in shard order, on the merge thread), epoch bumps land in the epoch
/// gauge and migration counter. Pure mirror — it never feeds back into the
/// ledger, so the oracle sees metrics equal to replay totals at every drain
/// boundary.
struct MetricsCostObserver<'a>(&'a EngineMetrics);

impl CostObserver for MetricsCostObserver<'_> {
    fn on_batch(&self, _shard: u32, batch: &CostSummary) {
        self.0.requests_served.add(batch.requests());
        self.0.access_cost.add(batch.total().access);
        self.0.adjustment_cost.add(batch.total().adjustment);
    }

    fn on_epoch(&self, epoch: u32, migration: MigrationCost) {
        self.0.reshard_epoch.set(epoch as u64);
        self.0.migration_units.add(migration.total());
    }
}

/// How the engine reshards on its own, mirroring
/// [`satn_sim::ReshardSchedule`] online.
enum OnlineSchedule {
    /// Only explicit [`ShardedEngine::reshard`] calls (or `Reshard` ingest
    /// frames) change the partition.
    External,
    /// Fire each event's plan at its stream position.
    Manual(VecDeque<ReshardEvent>),
    /// Let the policy observe the routed stream and fire at its cadence.
    Policy(PolicyDriver),
}

/// The sharded serving engine: `S` independent per-shard trees partitioning
/// the element universe, fed through an epoch-versioned [`Partition`]
/// router, drained concurrently on the `satn-exec` pool.
///
/// Requests enter via [`ShardedEngine::submit`] (or a whole
/// [`IngestQueue`] via [`ShardedEngine::serve_queue`]), are routed to their
/// owning shard under the **current epoch's** partition and buffered; once
/// the buffered total reaches the drain threshold, every shard's batch is
/// served through the allocation-free
/// [`SelfAdjustingTree::serve_batch`] fast path — one worker per shard batch,
/// results merged back **in shard order** via
/// [`satn_exec::for_each_ordered`], so per-shard cost totals, the merged
/// summary, and the per-shard placement [`Fingerprint`]s are identical at
/// every thread count and every drain cadence.
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
/// 3. **epoch bump** — the [`EpochedPartition`] log grows by the
///    plan-patched partition, and the accounting opens a new epoch
///    sub-summary carrying the migration cost.
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
pub struct ShardedEngine {
    log: EpochedPartition,
    shards: Vec<Shard>,
    accounting: ShardedCostSummary,
    parallelism: Parallelism,
    control: DrainControl,
    rebuild: Option<(AlgorithmKind, u64)>,
    /// The physical tree-storage layout applied to post-handover rebuilds
    /// (scenario-built engines inherit the scenario's; see
    /// [`satn_tree::LayoutKind`]). Pure performance knob: every fingerprint
    /// and cost is layout-invariant.
    layout: LayoutKind,
    schedule: OnlineSchedule,
    /// Per completed epoch, the per-shard fingerprints at its closing drain
    /// fence (the final epoch's fingerprints are appended by `finish`).
    epoch_fingerprints: Vec<Vec<Fingerprint>>,
    /// Requests submitted before each epoch boundary, matching
    /// [`satn_sim::ShardedReplay::boundaries`].
    boundaries: Vec<usize>,
    /// The read side, opened by [`ShardedEngine::snapshots`]: `None` until
    /// a reader exists, so write-only runs pay nothing for the feature.
    hub: Option<Arc<SnapshotHub>>,
    /// The engine's atomic metric registry — always present (updating an
    /// atomic costs a few nanoseconds; gating it would cost a branch in the
    /// same places), shared with the ingest channel and the network layer.
    metrics: Arc<EngineMetrics>,
    /// The bounded drain/reshard/snapshot event tracer.
    tracer: Arc<TraceRing>,
}

impl ShardedEngine {
    /// The non-panicking constructor behind
    /// [`ShardedEngineConfig::from_parts`](crate::ShardedEngineConfig::from_parts):
    /// a **static** engine from a partition and one pre-built tree per shard
    /// (shard `s`'s tree serves local ids `0..` of `partition.owned(s)`).
    /// Built this way the engine cannot reshard — arbitrary pre-built trees
    /// carry no rebuild recipe.
    pub(crate) fn assemble(
        partition: Partition,
        trees: Vec<Box<dyn SelfAdjustingTree + Send>>,
        parallelism: Parallelism,
    ) -> Result<Self, ServeError> {
        if trees.len() as u32 != partition.shards() {
            return Err(ServeError::InvalidConfig(format!(
                "one tree per shard is required ({} trees for {} shards)",
                trees.len(),
                partition.shards()
            )));
        }
        let shards: Vec<Shard> = trees
            .into_iter()
            .map(|tree| Shard {
                tree,
                pending: Vec::new(),
            })
            .collect();
        let accounting = ShardedCostSummary::new(partition.shards());
        let metrics = Arc::new(EngineMetrics::new(partition.shards()));
        Ok(ShardedEngine {
            log: EpochedPartition::from_partition(partition),
            shards,
            accounting,
            parallelism,
            control: DrainControl::new(DEFAULT_DRAIN_THRESHOLD),
            rebuild: None,
            layout: LayoutKind::default(),
            schedule: OnlineSchedule::External,
            epoch_fingerprints: Vec::new(),
            boundaries: Vec::new(),
            hub: None,
            metrics,
            tracer: Arc::new(TraceRing::with_default_capacity()),
        })
    }

    /// The construction behind
    /// [`ShardedEngineConfig::from_scenario`](crate::ShardedEngineConfig::from_scenario):
    /// the scenario's epoch-0 partition, with every shard tree instantiated
    /// exactly as the scenario's standalone per-shard reference scenarios
    /// build theirs (same levels, same derived seeds, same initial placement
    /// — that is what makes the serial replay a byte-exact oracle). The
    /// scenario's [`ReshardSchedule`] is applied online: manual events fire
    /// at their stream positions, a policy observes the routed stream at its
    /// cadence — both reproducing the schedule
    /// [`ShardedScenario::epoch_log`] derives offline.
    pub(crate) fn build_from_scenario(
        scenario: &ShardedScenario,
        parallelism: Parallelism,
    ) -> Result<Self, ServeError> {
        let offline = scenario.algorithm == AlgorithmKind::StaticOpt;
        let schedule = match &scenario.reshard {
            ReshardSchedule::Static => OnlineSchedule::External,
            _ if offline => {
                return Err(ServeError::ReshardUnsupported {
                    reason: "offline algorithms cannot be rebuilt mid-stream",
                })
            }
            ReshardSchedule::Manual(events) => {
                OnlineSchedule::Manual(events.iter().cloned().collect())
            }
            ReshardSchedule::Policy(policy) => {
                OnlineSchedule::Policy(PolicyDriver::new(policy.clone(), scenario.universe()))
            }
        };
        let partition = scenario.partition();
        let mut trees = Vec::with_capacity(partition.shards() as usize);
        for (shard, shard_scenario) in scenario.shard_scenarios().iter().enumerate() {
            // `instantiate` hands offline algorithms their per-shard
            // sequence itself (the scenario's Fixed workload carries it).
            let tree = shard_scenario
                .instantiate()
                .map_err(|error| ServeError::Tree {
                    shard: shard as u32,
                    error,
                })?;
            trees.push(tree);
        }
        let mut engine = ShardedEngine::assemble(partition, trees, parallelism)?;
        engine.rebuild = (!offline).then_some((scenario.algorithm, scenario.seed));
        engine.layout = scenario.layout;
        engine.schedule = schedule;
        Ok(engine)
    }

    /// The validated setter behind
    /// [`ShardedEngineConfig::resharding`](crate::ShardedEngineConfig::resharding):
    /// the rebuild recipe a raw-tree engine needs to reshard — the algorithm
    /// every post-handover tree is re-instantiated with, and the base seed
    /// of the per-`(shard, epoch)` derived seeds.
    pub(crate) fn set_resharding(
        &mut self,
        algorithm: AlgorithmKind,
        seed: u64,
    ) -> Result<(), ServeError> {
        if algorithm == AlgorithmKind::StaticOpt {
            return Err(ServeError::InvalidConfig(
                "offline algorithms cannot be rebuilt mid-stream".to_owned(),
            ));
        }
        self.rebuild = Some((algorithm, seed));
        Ok(())
    }

    /// The setter behind
    /// [`ShardedEngineConfig::layout`](crate::ShardedEngineConfig::layout)
    /// for parts-built engines: the storage layout every post-handover tree
    /// is rebuilt under (the pre-built trees keep their own).
    pub(crate) fn set_rebuild_layout(&mut self, layout: LayoutKind) {
        self.layout = layout;
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
        self.log.current()
    }

    /// The full epoch log (epoch 0 = the initial assignment).
    pub fn epoch_log(&self) -> &EpochedPartition {
        &self.log
    }

    /// The current epoch index.
    pub fn epoch(&self) -> u32 {
        self.log.current_epoch()
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
            let initial = self.freeze();
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
    /// boundary: trees only change inside drains, so capturing between them
    /// is always consistent with the accounting). The snapshot shares the
    /// epoch log's own partition allocation.
    fn freeze(&self) -> EngineSnapshot {
        let epoch = self.log.current_epoch();
        let partition = Arc::clone(self.log.current_shared());
        let shards = self
            .shards
            .iter()
            .map(|shard| TreeSnapshot::capture(shard.tree.occupancy()))
            .collect();
        EngineSnapshot::assemble(epoch, self.accounting.requests(), partition, shards)
    }

    /// Publishes the current state to the read side, if one is open. Called
    /// at every boundary where the served state advanced: after a drain,
    /// after a reshard's epoch bump, and at `finish`.
    fn publish_snapshot(&mut self) {
        if self.hub.is_none() {
            return;
        }
        let snapshot = self.freeze();
        let served = snapshot.served();
        let version = self.hub.as_ref().expect("checked above").publish(snapshot);
        self.metrics.snapshot_publishes.inc();
        self.metrics.snapshot_version.set(version);
        self.tracer.record(TraceStamp {
            kind: TraceKind::SnapshotPublish,
            epoch: self.log.current_epoch(),
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
        self.fire_due_manual_events(false)?;
        let (shard, local) =
            self.log
                .current()
                .localize(element)
                .ok_or_else(|| ServeError::OutOfUniverse {
                    element,
                    universe: self.log.current().universe(),
                })?;
        self.shards[shard as usize].pending.push(local);
        self.metrics.shard_buffered[shard as usize].inc();
        let should_drain = self.control.note_submitted();
        if let OnlineSchedule::Policy(driver) = &mut self.schedule {
            let plan = driver.observe(element, self.log.current());
            if let Some(plan) = plan {
                // The reshard's drain fence also covers the threshold.
                return self.reshard(plan);
            }
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

    /// Serves every pending per-shard batch concurrently on the pool: one
    /// worker per non-empty shard batch, each through
    /// [`SelfAdjustingTree::serve_batch`]; batch summaries are merged back
    /// in shard order as their prefix completes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Tree`] for the failing shard that comes first
    /// in shard order. Every shard's batch is still served (and accounted)
    /// up to its own failure point; the unserved tail of a failing batch is
    /// discarded, so [`EngineReport::requests`] reports what was actually
    /// accounted, not what was submitted.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        if !self.control.begin_drain() {
            return Ok(());
        }
        let before = self.accounting.requests();
        let started = Instant::now();
        let observer = MetricsCostObserver(&self.metrics);
        // One worker per shard batch; summaries merge in shard order (every
        // shard's served prefix is accounted, failed or not), and the error
        // reported is the lowest-indexed failing shard's, independent of
        // completion order.
        let mut failure = None;
        for_each_ordered(
            &mut self.shards,
            self.parallelism,
            |_, shard| {
                let mut delta = CostSummary::new();
                let outcome = if shard.pending.is_empty() {
                    Ok(())
                } else {
                    shard.tree.serve_batch(&shard.pending, &mut delta)
                };
                shard.pending.clear();
                (delta, outcome)
            },
            |index, (delta, outcome)| {
                observer.on_batch(index as u32, &delta);
                self.accounting.merge_into_shard(index as u32, &delta);
                if let (Err(error), None) = (outcome, failure.as_ref()) {
                    failure = Some((index as u32, error));
                }
            },
        );
        // Every pending buffer was consumed (cleared even on failure), and a
        // failed drain is still a counted drain — so the registry records the
        // drain before the error propagates, keeping it equal to the ledger.
        for gauge in self.metrics.shard_buffered.iter() {
            gauge.set(0);
        }
        self.metrics.batches_drained.inc();
        self.metrics.drain_latency.record(started.elapsed());
        let served = self.accounting.requests();
        self.tracer.record(TraceStamp {
            kind: TraceKind::Drain,
            epoch: self.log.current_epoch(),
            served,
            detail: served - before,
        });
        if let Some((shard, error)) = failure {
            return Err(ServeError::Tree { shard, error });
        }
        // The drain boundary is the read side's publication point.
        self.publish_snapshot();
        Ok(())
    }

    /// Reshards the engine with the deterministic handover protocol: drain
    /// fence (every buffered request is served under the closing epoch, and
    /// the closing epoch's fingerprints are recorded), element migration via
    /// the canonical delete/re-insert order of
    /// [`satn_workloads::shard::handover`], and the epoch bump (partition
    /// log + accounting).
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
    /// [`ServeError::ReshardUnsupported`] if the engine has no rebuild
    /// recipe, [`ServeError::Reshard`] if the plan does not fit the
    /// partition (the engine is unchanged beyond the drain fence),
    /// [`ServeError::Handover`] if the handover produced a placement no
    /// shard tree can be rebuilt from, or a drain/rebuild error.
    pub fn reshard(&mut self, plan: ReshardPlan) -> Result<(), ServeError> {
        let Some((kind, base_seed)) = self.rebuild else {
            return Err(ServeError::ReshardUnsupported {
                reason: "the engine was built from raw trees without a rebuild recipe",
            });
        };
        let planned_moves = plan.moves().len() as u64;
        // 1. Drain fence: the closing epoch serves everything it buffered.
        self.drain()?;
        // The handover clock starts after the fence: it measures the
        // migration and rebuild work itself, not the backlog drained first.
        let started = Instant::now();
        let closing_epoch = self.log.current_epoch();
        let old = Arc::clone(self.log.current_shared());
        let epoch = self
            .log
            .apply(plan.clone())
            .map_err(ServeError::Reshard)?
            .epoch();
        let new = Arc::clone(self.log.current_shared());
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
            let occupancy = Occupancy::from_placement_with_layout(geometry, placement, self.layout)
                .map_err(|error| ServeError::Handover {
                    shard: shard as u32,
                    reason: error.to_string(),
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
        MetricsCostObserver(&self.metrics).on_epoch(epoch, outcome.migration);
        self.metrics
            .migration_touched_units
            .add(outcome.migration.total());
        self.metrics.migration_rebuilt_nodes.add(rebuilt_nodes);
        self.metrics.handover_latency.record(started.elapsed());
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardEpochBump,
            epoch,
            served,
            detail: outcome.migration.moved,
        });
        self.publish_snapshot();
        Ok(())
    }

    /// Fires every manual event that is due at the current stream position
    /// (all remaining ones when `all` is set, at the end of a run).
    fn fire_due_manual_events(&mut self, all: bool) -> Result<(), ServeError> {
        loop {
            let OnlineSchedule::Manual(events) = &mut self.schedule else {
                return Ok(());
            };
            let due = events
                .front()
                .is_some_and(|event| all || event.at as u64 <= self.control.submitted());
            if !due {
                return Ok(());
            }
            let plan = events.pop_front().expect("front checked").plan;
            self.reshard(plan)?;
        }
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
                Some(IngestMessage::Request(element)) => self.submit(element)?,
                Some(IngestMessage::Burst(burst)) => self.submit_burst(&burst)?,
                Some(IngestMessage::Flush) => self.drain()?,
                Some(IngestMessage::Reshard(plan)) => self.reshard(plan)?,
                None => return self.drain(),
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
        self.fire_due_manual_events(true)?;
        // Readers outlive the engine: leave them the final state.
        self.publish_snapshot();
        self.capture_boundary_fingerprints();
        let per_shard = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardReport {
                shard: index as u32,
                elements: self.log.current().owned(index as u32).len() as u32,
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
            .field("universe", &self.log.current().universe())
            .field("router", &self.log.current().router())
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
    /// oracle shared by the `serve-smoke` CI binary, the `satnd --verify`
    /// mode, and the transport tests: epoch schedule and boundaries, the
    /// full epoch-versioned cost ledger, and every per-epoch per-shard
    /// boundary fingerprint must all match.
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
    use crate::ingest::ingest_channel;
    use satn_sim::{AlgorithmKind, ShardRouter, SimRunner, WorkloadSpec};

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
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
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
            assert_eq!(got.summary, expected.summary, "shard {shard} costs");
            assert_eq!(
                got.fingerprint,
                expected.final_occupancy().fingerprint(),
                "shard {shard} fingerprint"
            );
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
        let sharded = scenario(AlgorithmKind::MoveHalf, ShardRouter::SourceAffinity);

        let mut direct = engine(&sharded, Parallelism::Threads(2));
        for element in sharded.stream() {
            direct.submit(element).unwrap();
        }
        let direct_report = direct.finish().unwrap();

        let mut queued = engine(&sharded, Parallelism::Threads(2));
        let (sender, queue) = ingest_channel(8);
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
    fn raw_tree_engines_cannot_reshard_without_a_recipe() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let partition = sharded.partition();
        let trees: Vec<_> = sharded
            .shard_scenarios()
            .iter()
            .map(|s| s.instantiate().unwrap())
            .collect();
        let mut engine = ShardedEngineConfig::from_parts(partition, trees)
            .parallelism(Parallelism::Serial)
            .build()
            .unwrap();
        let err = engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));
        assert!(err.to_string().contains("cannot reshard"));
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn raw_tree_engines_reshard_with_a_recipe() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let partition = sharded.partition();
        let trees: Vec<_> = sharded
            .shard_scenarios()
            .iter()
            .map(|s| s.instantiate().unwrap())
            .collect();
        let mut engine = ShardedEngineConfig::from_parts(partition, trees)
            .parallelism(Parallelism::Serial)
            .resharding(AlgorithmKind::RotorPush, sharded.seed)
            .build()
            .unwrap();
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.partition().shard_of(ElementId::new(0)), Some(1));
        assert_eq!(engine.accounting().migration_total().moved, 1);
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
    fn debug_output_names_the_configuration() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let engine = engine(&sharded, Parallelism::Serial);
        let rendered = format!("{engine:?}");
        assert!(rendered.contains("ShardedEngine"));
        assert!(rendered.contains("universe"));
        assert!(rendered.contains("epoch"));
    }
}
