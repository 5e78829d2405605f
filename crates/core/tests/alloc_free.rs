//! Verifies the allocation-free serving criterion directly: **zero heap
//! allocations per served request** on the steady-state path of every
//! deterministic self-adjusting algorithm — Rotor-Push, Move-To-Front,
//! Move-Half, and Max-Push — of the seeded Random-Push, of the lazy and
//! scrambled Rotor-Push ablations, and of the two static baselines, for both
//! the per-request `serve` path (ancestor iteration + the reused
//! `MarkScratch`, plus Max-Push's reused victim buffer) and the batched
//! `serve_batch` fast path.
//!
//! The test installs a counting global allocator and measures the exact
//! number of allocations across thousands of steady-state requests. The
//! counter is gated by a thread-local flag so only the measuring thread is
//! ever counted — allocations from the libtest harness or any other process
//! thread cannot perturb it — and the test is still the only one in this
//! integration binary so the measured windows never interleave.
//!
//! The same criterion covers the `satn-obs` instrumentation the serving
//! engine threads through its drain boundaries: counters, gauges, the
//! atomic drain- and publish-latency histograms, per-tag wire accounting,
//! and the bounded trace ring must all stay allocation-free in steady
//! state, so turning metrics on cannot regress the hot path they observe.
//! So must the recycled snapshot capture a drain worker makes after
//! serving its shard: a same-geometry `TreeSnapshot::recapture`.

// The counting allocator must implement `GlobalAlloc`, which is an unsafe
// trait; this is the one place in the workspace that needs it, and it only
// delegates to `System` after bumping a counter.
#![allow(unsafe_code)]

use satn_core::ablation::{LazyRotorPush, ScrambledRotorPush};
use satn_core::{
    MaxPush, MoveHalf, MoveToFront, RandomPush, RotorPush, SelfAdjustingTree, StaticOblivious,
    StaticOpt,
};
use satn_tree::{CompleteTree, CostSummary, ElementId, Occupancy, TreeSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    /// Counting is gated per thread: the measured sections flip this on, so
    /// allocations made concurrently by other process threads (the libtest
    /// harness, its output capture) can never perturb the counter. The
    /// `const` initializer keeps the TLS access itself allocation-free.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_enabled() -> bool {
    // `try_with` instead of `with`: the allocator can be called during
    // thread teardown after the TLS slot is gone.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Runs `f` with this thread's allocations counted, returning how many
/// happened inside.
fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = allocations();
    COUNTING.with(|counting| counting.set(true));
    f();
    COUNTING.with(|counting| counting.set(false));
    allocations() - before
}

/// A deterministic request pattern mixing levels (same recurrence the
/// rotor-push unit tests use), precomputed so the measurement loop itself
/// performs no workload generation.
fn steady_state_requests(num_elements: u32, count: usize) -> Vec<ElementId> {
    (0..count)
        .map(|step| ElementId::new(((step as u32) * 17 + 3) % num_elements))
        .collect()
}

/// Measures both serve paths of `build`'s algorithm: warm up (growing the
/// per-instance scratch buffers once), then count allocations over the whole
/// steady-state request block.
fn assert_steady_state_alloc_free<A, F>(name: &str, build: F)
where
    A: SelfAdjustingTree,
    F: Fn(Occupancy) -> A,
{
    let tree = CompleteTree::with_levels(10).unwrap();
    let requests = steady_state_requests(tree.num_nodes(), 4_096);

    // --- serve(): the per-request path through MarkedRound. ---
    let mut network = build(Occupancy::identity(tree));
    for &element in &requests[..64] {
        network.serve(element).unwrap();
    }
    let mut total = 0u64;
    let serve_allocations = count_allocations(|| {
        for &element in &requests {
            total += network.serve(element).unwrap().total();
        }
    });
    assert!(total > 0);
    assert_eq!(
        serve_allocations,
        0,
        "{name}: serve() allocated {serve_allocations} times over {} steady-state requests",
        requests.len()
    );

    // --- serve_batch(): the batched fast path (or the default loop over the
    // now allocation-free serve()). ---
    let mut network = build(Occupancy::identity(tree));
    let mut warmup = CostSummary::new();
    network.serve_batch(&requests[..64], &mut warmup).unwrap();
    let mut summary = CostSummary::new();
    let batch_allocations = count_allocations(|| {
        network.serve_batch(&requests, &mut summary).unwrap();
    });
    assert_eq!(summary.requests() as usize, requests.len());
    assert_eq!(
        batch_allocations,
        0,
        "{name}: serve_batch() allocated {batch_allocations} times over {} steady-state requests",
        requests.len()
    );
}

/// Measures serving **with the observability layer on**: per batch, exactly
/// the registry updates the engine performs at a drain boundary (counters,
/// cost adds, per-shard gauges, queue-depth inc/dec, a latency sample, a
/// wire-frame note, and a trace-ring record). Zero allocations: the
/// histogram's buckets are boxed at construction and the ring recycles its
/// preallocated slots once full.
fn assert_instrumented_serving_alloc_free() {
    use satn_obs::{EngineMetrics, TraceKind, TraceRing, TraceStamp};
    use std::time::Duration;

    let tree = CompleteTree::with_levels(10).unwrap();
    let requests = steady_state_requests(tree.num_nodes(), 4_096);
    let metrics = EngineMetrics::new(4);
    let tracer = TraceRing::new(64);
    // Fill the ring past capacity so the measured block exercises the
    // recycling path, not the initial growth into preallocated slots.
    for served in 0..128u64 {
        tracer.record(TraceStamp {
            kind: TraceKind::Drain,
            epoch: 0,
            served,
            detail: 1,
        });
    }
    let mut network = RotorPush::new(Occupancy::identity(tree));
    let mut warmup = CostSummary::new();
    network.serve_batch(&requests[..64], &mut warmup).unwrap();

    let mut served = 0u64;
    let instrumented_allocations = count_allocations(|| {
        for (batch, chunk) in requests.chunks(256).enumerate() {
            let mut delta = CostSummary::new();
            network.serve_batch(chunk, &mut delta).unwrap();
            let cost = delta.total();
            metrics.requests_served.add(delta.requests());
            metrics.access_cost.add(cost.access);
            metrics.adjustment_cost.add(cost.adjustment);
            metrics.batches_drained.inc();
            metrics.shard_buffered[batch % 4].set(0);
            metrics.ingest_queue_depth.inc();
            metrics.ingest_queue_depth.dec();
            metrics
                .drain_latency
                .record(Duration::from_nanos(1 + 977 * batch as u64));
            metrics
                .publish_latency
                .record(Duration::from_nanos(1 + 331 * batch as u64));
            metrics.note_wire_frame(0, 9);
            served += delta.requests();
            tracer.record(TraceStamp {
                kind: TraceKind::Drain,
                epoch: 0,
                served,
                detail: delta.requests(),
            });
        }
    });
    assert_eq!(served as usize, requests.len());
    assert_eq!(metrics.requests_served.get() as usize, requests.len());
    assert_eq!(
        instrumented_allocations,
        0,
        "instrumented serving allocated {instrumented_allocations} times over {} requests",
        requests.len()
    );
}

/// Measures a drain worker's recycled capture: serve a batch, then
/// recapture the tree into the same snapshot buffer. A same-geometry
/// recapture copies into the buffer's slabs, so the pair allocates nothing.
fn assert_recapture_alloc_free() {
    let tree = CompleteTree::with_levels(10).unwrap();
    let requests = steady_state_requests(tree.num_nodes(), 4_096);
    let mut network = RotorPush::new(Occupancy::identity(tree));
    let mut warmup = CostSummary::new();
    network.serve_batch(&requests[..64], &mut warmup).unwrap();
    let mut snapshot = TreeSnapshot::capture(network.occupancy());

    let mut summary = CostSummary::new();
    let recapture_allocations = count_allocations(|| {
        for chunk in requests.chunks(256) {
            network.serve_batch(chunk, &mut summary).unwrap();
            snapshot.recapture(network.occupancy());
        }
    });
    assert_eq!(summary.requests() as usize, requests.len());
    assert_eq!(snapshot.fingerprint(), network.occupancy().fingerprint());
    assert_eq!(
        recapture_allocations,
        0,
        "serve_batch + recapture allocated {recapture_allocations} times over {} requests",
        requests.len()
    );
}

#[test]
fn self_adjusting_steady_state_serves_without_allocating() {
    assert_steady_state_alloc_free("rotor-push", RotorPush::new);
    assert_steady_state_alloc_free("random-push", |occupancy| {
        RandomPush::with_seed(occupancy, 7)
    });
    assert_steady_state_alloc_free("move-to-front", MoveToFront::new);
    assert_steady_state_alloc_free("move-half", MoveHalf::new);
    assert_steady_state_alloc_free("max-push", MaxPush::new);
    assert_steady_state_alloc_free("rotor-push-lazy", |occupancy| {
        LazyRotorPush::new(occupancy, 3)
    });
    assert_steady_state_alloc_free("rotor-push-scrambled", |occupancy| {
        ScrambledRotorPush::with_seed(occupancy, 7)
    });
    assert_steady_state_alloc_free("static-oblivious", StaticOblivious::new);
    assert_steady_state_alloc_free("static-opt", |occupancy| {
        let weights: Vec<f64> = (0..occupancy.num_elements()).map(f64::from).collect();
        StaticOpt::from_weights(occupancy.tree(), &weights)
    });
    // The same criterion with the metrics registry and tracer engaged: the
    // observability layer adds no allocation to the path it observes.
    assert_instrumented_serving_alloc_free();
    // A recycled snapshot capture after each batch adds none either.
    assert_recapture_alloc_free();
}
