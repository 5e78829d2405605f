//! Lock-free snapshot reads: the read phase of the serving protocol.
//!
//! The paper's self-adjusting trees mutate on every access, so writes must
//! serialize through each shard's single-writer drain path. Pure lookups do
//! not: at every batch-drain boundary the engine freezes an
//! [`EngineSnapshot`] — the current epoch's partition plus one immutable
//! [`TreeSnapshot`] per shard — and publishes it through a [`SnapshotHub`]
//! with an atomic version-stamped pointer swap. Any number of
//! [`SnapshotReader`] handles then serve lookups against the published
//! snapshot without acquiring the drain path, a queue slot, or (in steady
//! state) any lock at all.
//!
//! ```text
//!            writes (serialized)                 reads (lock-free)
//!  ingest ──▶ ShardedEngine ── drain ──▶ publish ──▶ SnapshotHub
//!             per-shard batches          Arc swap     │ version: AtomicU64
//!             serve_batch                + version    ▼
//!                                                  SnapshotReader*
//!                                                  (cached Arc; refreshes
//!                                                   only when the version
//!                                                   moved)
//! ```
//!
//! The idiom is a simplified epoch-based-reclamation guard: because readers
//! only ever *clone an `Arc`* (never borrow into the writer's state), no
//! reader can block or be blocked by a publication — the publisher swaps the
//! pointer and bumps the version; stale snapshots are freed when the last
//! reader drops its clone. A reader's steady-state lookup is one atomic
//! load (version check) plus two array reads; the tiny publication mutex is
//! touched only when the version has actually moved — at most once per
//! drain.
//!
//! **Publication is O(shards changed), and the captures run in the drain
//! workers.** Each shard's frozen tree sits behind its own `Arc`. The
//! worker that serves a shard's batch also captures the shard, so a
//! publication after a drain mostly assembles pointers; the engine thread
//! captures only the shards a handover rebuilt (and every shard at the
//! first publication). Every other shard is handed on by `Arc::clone`.
//! Successive snapshots therefore share the trees of unchanged shards, and
//! a held older snapshot keeps exactly the trees it was published with.
//!
//! **Buffers are recycled when unshared.** The snapshot a publication
//! replaces becomes its shard's spare buffer. The next capture of that
//! shard overwrites the spare in place only when `Arc::get_mut` proves no
//! hub, reader or snapshot still holds it, and allocates a new one
//! otherwise; so recycling never changes what any reader sees.
//!
//! **Determinism stays derived:** reads never mutate, so the write-side
//! oracle is untouched; and every snapshot is stamped with the number of
//! requests accounted when it was frozen, so a lookup answered from
//! snapshot stamp `k` must equal the serial reference replay of the first
//! `k` requests — which is exactly what `tests/snapshot_reads.rs` asserts
//! at every thread count.

use satn_obs::EngineMetrics;
use satn_tree::{ElementId, Fingerprint, NodeId, TreeSnapshot};
use satn_workloads::shard::Partition;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The answer to one snapshot lookup: where the element sat in the
/// published snapshot, and which snapshot answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupAnswer {
    /// The element that was looked up.
    pub element: ElementId,
    /// The shard that owned the element under the snapshot's partition.
    pub shard: u32,
    /// The node (within the owning shard's tree) that held the element.
    pub node: NodeId,
    /// The partition epoch the snapshot was taken under.
    pub epoch: u32,
    /// Requests the engine had served and accounted when the snapshot was
    /// frozen — the lookup's position on the deterministic write timeline.
    pub served: u64,
}

impl LookupAnswer {
    /// The level the element sat at (root = 0).
    #[inline]
    pub fn level(&self) -> u32 {
        self.node.level()
    }

    /// The access cost `ℓ(e) + 1` the element would pay if requested now.
    #[inline]
    pub fn access_cost(&self) -> u64 {
        self.level() as u64 + 1
    }
}

/// One frozen, immutable view of a whole engine: the epoch's partition and
/// every shard's [`TreeSnapshot`], stamped with the write-timeline position
/// it was taken at.
///
/// Both the partition and the shard trees are `Arc`-shared with other
/// publications: the partition with every snapshot of the same epoch, and
/// each shard's tree with every later snapshot up to the next drain that
/// serves the shard or handover that rebuilds it.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    epoch: u32,
    served: u64,
    partition: Arc<Partition>,
    shards: Vec<Arc<TreeSnapshot>>,
}

impl EngineSnapshot {
    /// Assembles a snapshot. `partition` is the engine's own shared
    /// allocation: it only changes at epoch boundaries while snapshots are
    /// published at every drain. `shards` shares the unchanged shards'
    /// trees with the previous publication.
    pub(crate) fn assemble(
        epoch: u32,
        served: u64,
        partition: Arc<Partition>,
        shards: Vec<Arc<TreeSnapshot>>,
    ) -> Self {
        debug_assert_eq!(partition.shards() as usize, shards.len());
        EngineSnapshot {
            epoch,
            served,
            partition,
            shards,
        }
    }

    /// The partition epoch the snapshot was taken under.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Requests served and accounted when the snapshot was frozen.
    #[inline]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The element-to-shard assignment of the snapshot's epoch.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The same partition as its shared allocation — the very `Arc` the
    /// engine held while the snapshot's epoch was live.
    #[inline]
    pub fn shared_partition(&self) -> &Arc<Partition> {
        &self.partition
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// One shard's frozen tree.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    #[inline]
    pub fn shard(&self, shard: u32) -> &TreeSnapshot {
        &self.shards[shard as usize]
    }

    /// The replay fingerprint of one shard at snapshot time — equal to what
    /// the engine (or the serial reference replay) would report had the run
    /// stopped at this snapshot's drain boundary.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn fingerprint(&self, shard: u32) -> Fingerprint {
        self.shards[shard as usize].fingerprint()
    }

    /// Answers a lookup from this snapshot: routes the element under the
    /// snapshot's partition and reads its node out of the owning shard's
    /// frozen tree. `None` for elements outside the universe.
    pub fn lookup(&self, element: ElementId) -> Option<LookupAnswer> {
        let (shard, local) = self.partition.localize(element)?;
        let node = self.shards[shard as usize].node_of(local)?;
        Some(LookupAnswer {
            element,
            shard,
            node,
            epoch: self.epoch,
            served: self.served,
        })
    }
}

/// The publication point writers swap snapshots through: an `Arc` slot plus
/// an atomic version counter. One hub is shared by the publishing engine and
/// every [`SnapshotReader`] cloned from it.
pub(crate) struct SnapshotHub {
    /// Bumped (release) on every publication; readers check it (acquire)
    /// to decide whether their cached `Arc` is still current.
    version: AtomicU64,
    /// The current snapshot. The mutex only guards the pointer swap and the
    /// reader's occasional re-clone — never a lookup.
    current: Mutex<Arc<EngineSnapshot>>,
    /// The engine's registry, so readers can count answered lookups and
    /// compare the live served counter against their snapshot's stamp.
    metrics: Arc<EngineMetrics>,
}

impl SnapshotHub {
    pub(crate) fn new(initial: EngineSnapshot, metrics: Arc<EngineMetrics>) -> Self {
        SnapshotHub {
            version: AtomicU64::new(1),
            current: Mutex::new(Arc::new(initial)),
            metrics,
        }
    }

    /// Atomically replaces the published snapshot, returning the new
    /// version. Readers never block this: the critical section is one
    /// pointer swap. The replaced snapshot is dropped after the lock is
    /// released, so freeing its trees never stalls a reader's `load`.
    pub(crate) fn publish(&self, snapshot: EngineSnapshot) -> u64 {
        let snapshot = Arc::new(snapshot);
        let (replaced, version) = {
            let mut slot = self.current.lock().unwrap_or_else(PoisonError::into_inner);
            let replaced = std::mem::replace(&mut *slot, snapshot);
            // Bump while still holding the lock so a reader that observes
            // the new version and then locks always finds the snapshot that
            // (or a newer one than) the version promised.
            (replaced, self.version.fetch_add(1, Ordering::Release) + 1)
        };
        drop(replaced);
        version
    }

    fn load(&self) -> (u64, Arc<EngineSnapshot>) {
        let slot = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        let snapshot = Arc::clone(&slot);
        // Read the version under the lock: the pair is consistent.
        (self.version.load(Ordering::Acquire), snapshot)
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

impl fmt::Debug for SnapshotHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotHub")
            .field("version", &self.version())
            .finish_non_exhaustive()
    }
}

/// A read handle serving lock-free lookups against the engine's most
/// recently published snapshot.
///
/// Obtain one from [`ShardedEngine::snapshots`](crate::ShardedEngine::snapshots)
/// and clone it freely — each clone caches its own `Arc` to the current
/// snapshot, so the steady-state path of [`SnapshotReader::snapshot`] (and
/// everything built on it) is a single atomic version check with **no lock
/// and no allocation**; the publication mutex is touched only when a drain
/// has actually published a newer snapshot since the handle last looked.
///
/// Readers never block the engine and the engine never blocks readers: a
/// reader holds (a clone of) an immutable snapshot while the writer swaps in
/// new ones. Reads are therefore *stale-bounded*, not stale-unbounded — a
/// lookup reflects the tree state at the latest batch-drain boundary, which
/// is exactly the granularity at which the deterministic write timeline is
/// defined.
#[derive(Debug)]
pub struct SnapshotReader {
    hub: Arc<SnapshotHub>,
    cached_version: u64,
    cached: Arc<EngineSnapshot>,
}

impl SnapshotReader {
    pub(crate) fn new(hub: Arc<SnapshotHub>) -> Self {
        let (version, snapshot) = hub.load();
        SnapshotReader {
            hub,
            cached_version: version,
            cached: snapshot,
        }
    }

    /// The current snapshot (refreshing the cache only if a newer one has
    /// been published). The returned reference is valid until the next call
    /// on this handle; clone the `Arc` to hold a snapshot across calls.
    pub fn snapshot(&mut self) -> &Arc<EngineSnapshot> {
        let version = self.hub.version();
        if version != self.cached_version {
            let (version, snapshot) = self.hub.load();
            self.cached_version = version;
            self.cached = snapshot;
        }
        &self.cached
    }

    /// Answers one lookup against the current snapshot — the lock-free read
    /// path. `None` for elements outside the engine's universe. Answered
    /// lookups count into the engine's `lookups_answered` metric (one
    /// relaxed atomic add — the path stays lock- and allocation-free).
    pub fn lookup(&mut self, element: ElementId) -> Option<LookupAnswer> {
        let answer = self.snapshot().lookup(element);
        if answer.is_some() {
            self.hub.metrics.lookups_answered.inc();
        }
        answer
    }

    /// The hub's publication count so far (monotonic; starts at 1 for the
    /// initial snapshot). Mostly useful in tests and diagnostics.
    pub fn version(&self) -> u64 {
        self.hub.version()
    }

    /// How many requests the engine has counted as served *beyond* this
    /// reader's current snapshot — the read side's staleness, in requests.
    /// Refreshes the snapshot cache first, and the engine counts a drain's
    /// requests only after publishing them, so the figure is zero unless a
    /// drain published and counted between the refresh and the counter
    /// read.
    pub fn staleness(&mut self) -> u64 {
        let stamped = self.snapshot().served();
        self.hub
            .metrics
            .requests_served
            .get()
            .saturating_sub(stamped)
    }
}

impl Clone for SnapshotReader {
    /// A fresh handle on the same hub, with its own cache (so clones on
    /// different threads never contend on anything but the hub itself).
    fn clone(&self) -> Self {
        SnapshotReader::new(Arc::clone(&self.hub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::{CompleteTree, Occupancy};
    use satn_workloads::shard::ShardRouter;

    fn snapshot(epoch: u32, served: u64, levels: u32, shards: u32) -> EngineSnapshot {
        let universe = shards * ((1 << levels) - 1);
        let partition = Arc::new(Partition::new(ShardRouter::Range, universe, shards));
        let trees = (0..shards)
            .map(|_| {
                let tree = CompleteTree::with_levels(levels).unwrap();
                Arc::new(TreeSnapshot::capture(&Occupancy::identity(tree)))
            })
            .collect();
        EngineSnapshot::assemble(epoch, served, partition, trees)
    }

    fn hub(initial: EngineSnapshot) -> Arc<SnapshotHub> {
        let metrics = Arc::new(EngineMetrics::new(initial.shards()));
        Arc::new(SnapshotHub::new(initial, metrics))
    }

    #[test]
    fn lookups_route_and_localize_under_the_partition() {
        let snap = snapshot(0, 42, 3, 4);
        // Range routing: element 9 is shard 1's local element 2.
        let answer = snap.lookup(ElementId::new(9)).unwrap();
        assert_eq!(answer.shard, 1);
        assert_eq!(answer.node, NodeId::new(2)); // identity placement
        assert_eq!(answer.epoch, 0);
        assert_eq!(answer.served, 42);
        assert_eq!(answer.level(), 1);
        assert_eq!(answer.access_cost(), 2);
        // Outside the 28-element universe.
        assert_eq!(snap.lookup(ElementId::new(28)), None);
    }

    #[test]
    fn readers_see_publications_exactly_once_per_version() {
        let hub = hub(snapshot(0, 0, 3, 2));
        let mut reader = SnapshotReader::new(Arc::clone(&hub));
        assert_eq!(reader.snapshot().served(), 0);
        assert_eq!(reader.version(), 1);

        hub.publish(snapshot(0, 100, 3, 2));
        assert_eq!(reader.version(), 2);
        assert_eq!(reader.snapshot().served(), 100);

        // A held clone of the old snapshot stays valid after publication.
        let held = Arc::clone(reader.snapshot());
        hub.publish(snapshot(1, 200, 3, 2));
        assert_eq!(held.served(), 100);
        assert_eq!(reader.snapshot().served(), 200);
        assert_eq!(reader.snapshot().epoch(), 1);
    }

    #[test]
    fn cloned_readers_have_independent_caches_on_one_hub() {
        let hub = hub(snapshot(0, 0, 3, 2));
        let mut first = SnapshotReader::new(Arc::clone(&hub));
        let mut second = first.clone();
        hub.publish(snapshot(0, 7, 3, 2));
        assert_eq!(first.snapshot().served(), 7);
        assert_eq!(second.snapshot().served(), 7);
    }

    #[test]
    fn lookups_count_and_staleness_tracks_the_live_counter() {
        let hub = hub(snapshot(0, 10, 3, 2));
        let mut reader = SnapshotReader::new(Arc::clone(&hub));
        assert_eq!(reader.lookup(ElementId::new(0)).unwrap().served, 10);
        assert_eq!(reader.lookup(ElementId::new(1)).map(|a| a.shard), Some(0));
        // Misses (outside the universe) are not "answered".
        assert_eq!(reader.lookup(ElementId::new(10_000)), None);
        assert_eq!(hub.metrics.lookups_answered.get(), 2);

        // Snapshot stamped at 10, live counter at 10: no staleness.
        hub.metrics.requests_served.add(10);
        assert_eq!(reader.staleness(), 0);
        // A counter ahead of every publication reads as staleness.
        hub.metrics.requests_served.add(7);
        assert_eq!(reader.staleness(), 7);
        // A newer publication catches the reader up again.
        hub.publish(snapshot(0, 17, 3, 2));
        assert_eq!(reader.staleness(), 0);
    }

    #[test]
    fn concurrent_readers_never_miss_the_final_publication() {
        let hub = hub(snapshot(0, 0, 4, 2));
        let publications = 500u64;
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let mut reader = SnapshotReader::new(Arc::clone(&hub));
                    scope.spawn(move || {
                        let mut last = 0;
                        loop {
                            let snap = reader.snapshot();
                            // The served stamp is monotone under publication
                            // order — a reader can skip versions but never
                            // travel back in time.
                            assert!(snap.served() >= last);
                            last = snap.served();
                            if last == publications {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    })
                })
                .collect();
            for served in 1..=publications {
                hub.publish(snapshot(0, served, 4, 2));
            }
            for reader in readers {
                reader.join().unwrap();
            }
        });
    }
}
