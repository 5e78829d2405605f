//! Snapshot-buffer recycling, counted with the allocator instead of
//! inferred from addresses (an allocator may hand a freed block straight
//! back, so equal pointers alone cannot tell a recycled buffer from a new
//! one).
//!
//! While the read side is open, the drain worker that serves a shard
//! captures it into the buffer that the shard's previous publication
//! replaced, but only when no reader, hub or snapshot still holds that
//! buffer. So a drain whose spares are free allocates exactly three times
//! per shard fewer (the snapshot `Arc` and its two slabs) than the same
//! drain while a held snapshot pins every spare.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; it only delegates to `System` after bumping a counter.
#![allow(unsafe_code)]

use satn_core::AlgorithmKind;
use satn_serve::{
    EngineSnapshot, Fingerprint, Parallelism, ShardedEngine, ShardedEngineConfig, ShardedScenario,
    SnapshotReader,
};
use satn_sim::WorkloadSpec;
use satn_tree::ElementId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Only the measuring thread counts, so the libtest harness cannot
    /// perturb the figures. The engine drains serially, on this thread.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const SHARDS: u32 = 4;

/// Buffers one request for every element, so the next drain serves (and
/// captures) every shard, then counts the allocations of that drain alone.
/// The reader is refreshed afterwards, so it holds only the newest
/// publication.
fn counted_drain(engine: &mut ShardedEngine, reader: &mut SnapshotReader) -> u64 {
    let universe = engine.partition().universe();
    let round = engine.drains() as u32;
    for step in 0..universe {
        let element = (step * 7 + round) % universe;
        engine.submit(ElementId::new(element)).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|counting| counting.set(true));
    engine.drain().unwrap();
    COUNTING.with(|counting| counting.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    reader.snapshot();
    allocations
}

#[test]
fn drains_recapture_into_free_spares_and_allocate_for_held_ones() {
    let scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Uniform,
        SHARDS,
        8,
        1,
        7,
    );
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Serial)
        .drain_threshold(usize::MAX)
        .build()
        .unwrap();
    let metrics = Arc::clone(engine.metrics());
    let mut reader = engine.snapshots();
    let fingerprints = |snapshot: &EngineSnapshot| -> Vec<Fingerprint> {
        (0..SHARDS)
            .map(|shard| snapshot.fingerprint(shard))
            .collect()
    };

    // Two drains give every shard a spare: the snapshot it replaced.
    counted_drain(&mut engine, &mut reader);
    counted_drain(&mut engine, &mut reader);
    let free = counted_drain(&mut engine, &mut reader);
    assert_eq!(
        counted_drain(&mut engine, &mut reader),
        free,
        "steady state"
    );

    // Pin the newest publication: two drains later its buffers are the
    // spares, and that drain must allocate fresh ones for every shard.
    let held = Arc::clone(reader.snapshot());
    let published = fingerprints(&held);
    assert_eq!(counted_drain(&mut engine, &mut reader), free);
    assert_eq!(
        counted_drain(&mut engine, &mut reader),
        free + 3 * SHARDS as u64,
        "a held buffer is never recaptured"
    );
    assert_eq!(
        fingerprints(&held),
        published,
        "a held snapshot never changes"
    );
    drop(held);
    assert_eq!(
        counted_drain(&mut engine, &mut reader),
        free,
        "recycling resumes once the snapshot is released"
    );

    let live: Vec<Fingerprint> = (0..SHARDS).map(|shard| engine.fingerprint(shard)).collect();
    assert_eq!(fingerprints(reader.snapshot()), live);
    assert_eq!(
        metrics.snapshot_shard_captures.get(),
        (1 + 7) * SHARDS as u64
    );
    // The registry counts the captures that allocated: the first
    // publication's and the first drain's (no spare yet), and the drain
    // whose spares the held snapshot pinned.
    assert_eq!(
        metrics.snapshot_capture_allocations.get(),
        3 * SHARDS as u64
    );
}
