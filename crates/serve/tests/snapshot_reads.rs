//! Property: every snapshot the engine publishes — and therefore every
//! lookup answered from it — matches the **serial prefix replay** at that
//! checkpoint, at every thread count and drain cadence.
//!
//! A snapshot stamped `served = n` freezes the engine's state at the drain
//! boundary after the first `n` global requests. The oracle
//! ([`ShardedScenario::prefix_fingerprints`]) replays exactly those `n`
//! requests serially, shard by shard, and digests each tree's placement.
//! A fingerprint digests the full placement, so fingerprint equality
//! implies every individual lookup answer (node, level, access cost) agrees
//! with the serial replay too.
//!
//! The property runs on two shapes: a dense one, where every drain serves
//! all four shards, and a sparse one — 64 range shards under a hot-shard
//! stream — where most drains skip most shards, so most of every
//! publication is shared with the previous one rather than recaptured.
//!
//! Each run also races a lock-free reader thread against the engine while
//! it drains: whatever snapshots that thread happens to catch mid-flight
//! are held to the same oracle, proving the read phase never observes a
//! half-published state.

use satn_serve::{EngineSnapshot, Parallelism, ReshardPlan, ShardedEngineConfig};
use satn_sim::{AlgorithmKind, ShardedScenario, SimRunner, WorkloadSpec};
use satn_tree::ElementId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn scenario() -> ShardedScenario {
    ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Combined { a: 1.8, p: 0.7 },
        4,
        5,
        3_000,
        22,
    )
}

/// 64 range shards of 15 elements, with each of 8 stream phases confined to
/// one shard: a drain serves one or two shards and skips the rest.
fn sparse_scenario() -> ShardedScenario {
    ShardedScenario::hot_shard(AlgorithmKind::RotorPush, 64, 4, 2_000, 23, 8, 1.9)
}

/// Drives the full scenario stream through an engine, collecting every
/// distinct snapshot the submitting thread observes at drain boundaries
/// plus whatever a concurrent lock-free reader catches mid-flight.
fn observed_snapshots(
    scenario: &ShardedScenario,
    parallelism: Parallelism,
    threshold: usize,
) -> Vec<Arc<EngineSnapshot>> {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(threshold)
        .build()
        .unwrap();
    let mut reader = engine.snapshots();

    let stop = Arc::new(AtomicBool::new(false));
    let racer = {
        let mut reader = reader.clone();
        let stop = Arc::clone(&stop);
        let universe = scenario.universe();
        thread::spawn(move || {
            let mut caught: Vec<Arc<EngineSnapshot>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snapshot = Arc::clone(reader.snapshot());
                if caught.last().map(|s| s.served()) == Some(snapshot.served()) {
                    continue;
                }
                // Answer a spread of lookups from whatever is current —
                // lock-free, while the engine is draining.
                for element in (0..universe).step_by(7) {
                    let answer = snapshot.lookup(ElementId::new(element)).unwrap();
                    assert_eq!(answer.served, snapshot.served());
                    assert_eq!(answer.epoch, snapshot.epoch());
                }
                caught.push(snapshot);
            }
            caught
        })
    };

    let mut observed: Vec<Arc<EngineSnapshot>> = Vec::new();
    for request in scenario.stream() {
        engine.submit(request).unwrap();
        let snapshot = reader.snapshot();
        if observed.last().map(|s| s.served()) != Some(snapshot.served()) {
            observed.push(Arc::clone(snapshot));
        }
    }
    engine.finish().unwrap();
    observed.push(Arc::clone(reader.snapshot()));
    stop.store(true, Ordering::Relaxed);
    observed.extend(racer.join().unwrap());
    observed
}

/// The property itself: every observed snapshot equals the serial replay
/// of its own prefix of the request stream, byte for byte.
fn snapshots_match_prefix_replay(
    scenario: &ShardedScenario,
    parallelism: Parallelism,
    threshold: usize,
) {
    let runner = SimRunner::new();
    let observed = observed_snapshots(scenario, parallelism, threshold);

    // Dedup by served stamp; two observations of the same checkpoint
    // (submitter vs racer) must already agree with each other.
    let mut checkpoints: BTreeMap<u64, Arc<EngineSnapshot>> = BTreeMap::new();
    for snapshot in observed {
        let shards = scenario.partition().shards();
        if let Some(previous) = checkpoints.get(&snapshot.served()) {
            for shard in 0..shards {
                assert_eq!(previous.fingerprint(shard), snapshot.fingerprint(shard));
            }
        } else {
            checkpoints.insert(snapshot.served(), snapshot);
        }
    }
    assert!(
        checkpoints.keys().any(|&served| served > 0),
        "the run must publish at least one post-drain snapshot"
    );
    assert_eq!(
        checkpoints.keys().next_back(),
        Some(&(scenario.requests as u64)),
        "the final snapshot carries the whole stream"
    );

    for (&served, snapshot) in &checkpoints {
        let reference = scenario
            .prefix_fingerprints(&runner, served as usize)
            .unwrap();
        for shard in 0..scenario.partition().shards() {
            assert_eq!(
                snapshot.fingerprint(shard),
                reference[shard as usize],
                "shard {shard} diverged from the serial replay at checkpoint {served} \
                 ({parallelism:?}, threshold {threshold})"
            );
        }
        // Spot-check the answers a client would actually receive.
        for element in (0..scenario.universe()).step_by(11) {
            let answer = snapshot.lookup(ElementId::new(element)).unwrap();
            assert_eq!(answer.element, ElementId::new(element));
            assert_eq!(answer.served, served);
            let (shard, local) = snapshot
                .partition()
                .localize(ElementId::new(element))
                .unwrap();
            assert_eq!(shard, answer.shard);
            assert_eq!(snapshot.shard(shard).node_of(local), Some(answer.node));
        }
    }
}

/// Regression for the partition-publication cost and for bounded memory:
/// every published snapshot holds the engine's **own** partition allocation
/// for its epoch (one `Arc` clone per publication, never a copy), so all
/// snapshots of one epoch share it, a reshard's epoch bump switches to the
/// new allocation, and a closing epoch's partition is freed once no
/// snapshot holds it.
#[test]
fn snapshots_share_one_partition_allocation_per_epoch() {
    let scenario = scenario();
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Serial)
        .drain_threshold(256)
        .build()
        .unwrap();
    let mut reader = engine.snapshots();

    let mut epoch0: Vec<Arc<EngineSnapshot>> = Vec::new();
    for request in scenario.stream() {
        engine.submit(request).unwrap();
        let snapshot = reader.snapshot();
        if epoch0.last().map(|s| s.served()) != Some(snapshot.served()) {
            epoch0.push(Arc::clone(snapshot));
        }
    }
    assert!(
        epoch0.len() >= 4,
        "the stream must cross several drain boundaries for the property to bite"
    );
    assert!(
        std::ptr::eq(epoch0[0].partition(), engine.partition()),
        "an epoch-0 snapshot copied the engine's partition instead of sharing it"
    );
    for snapshot in &epoch0 {
        assert_eq!(snapshot.epoch(), 0);
        assert!(
            Arc::ptr_eq(snapshot.shared_partition(), epoch0[0].shared_partition()),
            "two epoch-0 snapshots hold different partition allocations"
        );
    }
    let retired = Arc::downgrade(epoch0[0].shared_partition());
    drop(epoch0);

    // The reshard bumps the epoch: its publication carries the new
    // partition's allocation, which every later epoch-1 snapshot shares in
    // turn.
    engine
        .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
        .unwrap();
    let bumped = Arc::clone(reader.snapshot());
    assert_eq!(bumped.epoch(), 1);
    assert!(
        !std::ptr::eq(Arc::as_ptr(bumped.shared_partition()), retired.as_ptr()),
        "the epoch bump must publish the new epoch's partition"
    );
    let mut epoch1 = vec![bumped];
    for request in scenario.stream() {
        engine.submit(request).unwrap();
        let snapshot = reader.snapshot();
        if epoch1.last().map(|s| s.served()) != Some(snapshot.served()) {
            epoch1.push(Arc::clone(snapshot));
        }
    }
    assert!(epoch1.len() >= 4);
    assert!(std::ptr::eq(epoch1[0].partition(), engine.partition()));
    for snapshot in &epoch1 {
        assert_eq!(snapshot.epoch(), 1);
        assert!(
            Arc::ptr_eq(snapshot.shared_partition(), epoch1[0].shared_partition()),
            "two epoch-1 snapshots hold different partition allocations"
        );
    }

    // Once no snapshot holds it, no epoch's partition outlives the epoch:
    // the engine keeps only the live one.
    engine
        .reshard(ReshardPlan::new([(ElementId::new(1), 2)]))
        .unwrap();
    assert_eq!(reader.snapshot().epoch(), 2);
    assert!(
        retired.upgrade().is_none(),
        "the epoch-0 partition outlived its epoch and every snapshot of it"
    );
    engine.finish().unwrap();
}

#[test]
fn serial_snapshots_match_the_prefix_replay() {
    snapshots_match_prefix_replay(&scenario(), Parallelism::Serial, 250);
}

#[test]
fn two_thread_snapshots_match_the_prefix_replay() {
    snapshots_match_prefix_replay(&scenario(), Parallelism::Threads(2), 500);
}

#[test]
fn auto_snapshots_match_the_prefix_replay() {
    snapshots_match_prefix_replay(&scenario(), Parallelism::Auto, 997);
}

/// Sparse drains: at threshold 1 each publication recaptures one shard and
/// shares 63; at 97 a drain spans a phase change at most; at 4096 the
/// whole stream is one final drain.
const SPARSE_THRESHOLDS: [usize; 3] = [1, 97, 4_096];

#[test]
fn serial_sparse_snapshots_match_the_prefix_replay() {
    for threshold in SPARSE_THRESHOLDS {
        snapshots_match_prefix_replay(&sparse_scenario(), Parallelism::Serial, threshold);
    }
}

#[test]
fn two_thread_sparse_snapshots_match_the_prefix_replay() {
    for threshold in SPARSE_THRESHOLDS {
        snapshots_match_prefix_replay(&sparse_scenario(), Parallelism::Threads(2), threshold);
    }
}

#[test]
fn auto_sparse_snapshots_match_the_prefix_replay() {
    for threshold in SPARSE_THRESHOLDS {
        snapshots_match_prefix_replay(&sparse_scenario(), Parallelism::Auto, threshold);
    }
}

/// A publication recaptures only the shards its drain served: every other
/// shard's frozen tree is the previous publication's very allocation, and
/// the older snapshot, held across the publication, still answers from its
/// own point on the write timeline.
#[test]
fn publications_share_the_trees_of_unserved_shards() {
    let scenario = sparse_scenario();
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Threads(2))
        .drain_threshold(100_000)
        .build()
        .unwrap();
    let mut reader = engine.snapshots();
    let older = Arc::clone(reader.snapshot());

    let batch: Vec<ElementId> = scenario.stream().take(300).collect();
    let served: BTreeSet<u32> = batch
        .iter()
        .map(|&element| engine.partition().shard_of(element).unwrap())
        .collect();
    assert!(
        served.len() * 4 < scenario.shards as usize,
        "the drain must leave most shards unserved ({} served)",
        served.len()
    );
    engine.submit_burst(&batch).unwrap();
    engine.drain().unwrap();
    let newer = Arc::clone(reader.snapshot());
    assert_eq!((older.served(), newer.served()), (0, 300));

    for shard in 0..scenario.shards {
        // `shard` derefs the snapshot's per-shard `Arc`: equal addresses
        // are one shared allocation, exactly what `Arc::ptr_eq` compares.
        let shared = std::ptr::eq(older.shard(shard), newer.shard(shard));
        assert_eq!(
            shared,
            !served.contains(&shard),
            "shard {shard}: served shards must be recaptured, unserved ones shared"
        );
    }

    let runner = SimRunner::new();
    for (snapshot, served) in [(&older, 0), (&newer, 300)] {
        let reference = scenario.prefix_fingerprints(&runner, served).unwrap();
        for shard in 0..scenario.shards {
            assert_eq!(snapshot.fingerprint(shard), reference[shard as usize]);
        }
    }
    for element in (0..scenario.universe()).map(ElementId::new) {
        let answer = older.lookup(element).unwrap();
        assert_eq!(answer.served, 0, "the held snapshot keeps its own stamp");
        let (shard, local) = older.partition().localize(element).unwrap();
        assert_eq!(older.shard(shard).node_of(local), Some(answer.node));
    }
}

/// The served counter never runs ahead of the published snapshot: a reader
/// that reads `requests_served` and then looks an element up always gets an
/// answer stamped with at least that many requests, while the engine drains
/// (and so publishes and counts) concurrently, many times over.
#[test]
fn lookups_never_trail_the_served_counter() {
    let scenario = scenario();
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Threads(2))
        .drain_threshold(40)
        .build()
        .unwrap();
    let metrics = Arc::clone(engine.metrics());
    let mut reader = engine.snapshots();
    let stop = Arc::new(AtomicBool::new(false));
    // The engine starts only once the racer has checked once, so the two
    // overlap even when a drain takes a few microseconds and the racer's
    // thread is scheduled late.
    let (started, racing) = std::sync::mpsc::channel();
    let racer = {
        let stop = Arc::clone(&stop);
        let universe = scenario.universe();
        thread::spawn(move || {
            let mut checks = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let counted = metrics.requests_served.get();
                let element = ElementId::new(checks % universe);
                let answer = reader.lookup(element).unwrap();
                assert!(
                    answer.served >= counted,
                    "the registry counted {counted} requests served, \
                     but the lookup answered from a snapshot of {}",
                    answer.served
                );
                checks += 1;
                if checks == 1 {
                    started.send(()).unwrap();
                }
            }
            checks
        })
    };
    racing.recv().unwrap();
    for request in scenario.stream() {
        engine.submit(request).unwrap();
    }
    let report = engine.finish().unwrap();
    stop.store(true, Ordering::Relaxed);
    assert!(racer.join().unwrap() > 0);
    assert!(report.drains > 50, "the stream must drain many times");
}
