//! The sharded-serving determinism oracle, end to end.
//!
//! * The **acceptance test**: a `--shards 4 --threads N` run through the
//!   channel-based ingestion layer produces per-shard fingerprints and a
//!   merged cost summary byte-identical to the serial single-shard reference
//!   replay (each shard's subsequence served by `satn-sim`'s `SimRunner` on
//!   a standalone tree).
//! * The **property test**: for *every* [`ShardRouter`] policy, every
//!   algorithm, and randomized shard counts / sizes / drain cadences /
//!   thread counts, sharded serving over a partitioned stream reproduces
//!   the standalone per-shard replays byte for byte — costs and
//!   fingerprints.

use proptest::prelude::*;
use satn_core::AlgorithmKind;
use satn_serve::{ingest_channel, Parallelism, ShardedEngineConfig};
use satn_sim::{ShardRouter, ShardedScenario, SimRunner, WorkloadSpec};
use satn_tree::{CostSummary, ElementId};

/// Runs `scenario` through the engine (optionally via the ingest queue) and
/// asserts byte-identity against the serial standalone replay of every
/// shard. Returns the merged summary for further checks.
fn assert_matches_reference(
    scenario: &ShardedScenario,
    parallelism: Parallelism,
    drain_threshold: usize,
    via_queue: bool,
) -> CostSummary {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(drain_threshold)
        .build()
        .unwrap();
    if via_queue {
        let (sender, queue) = ingest_channel(4);
        let requests: Vec<ElementId> = scenario.stream().collect();
        let producer = std::thread::spawn(move || {
            for chunk in requests.chunks(61) {
                sender.send_burst(chunk.to_vec()).unwrap();
            }
            // Exercise the flush protocol mid-stream shutdown.
            sender.flush().unwrap();
        });
        engine.serve_queue(&queue).unwrap();
        producer.join().unwrap();
    } else {
        for request in scenario.stream() {
            engine.submit(request).unwrap();
        }
    }
    let report = engine.finish().unwrap();

    let runner = SimRunner::new();
    let mut merged = CostSummary::new();
    for (shard, reference) in scenario.shard_scenarios().iter().enumerate() {
        let expected = runner.run(reference).unwrap();
        let got = &report.per_shard[shard];
        assert_eq!(
            got.summary,
            expected.summary,
            "{}: shard {shard} cost summary diverged",
            scenario.name()
        );
        assert_eq!(
            got.fingerprint,
            expected.final_occupancy.fingerprint(),
            "{}: shard {shard} fingerprint diverged",
            scenario.name()
        );
        merged.merge(&expected.summary);
    }
    assert_eq!(
        report.merged,
        merged,
        "{}: merged summary is not the shard-order merge of the references",
        scenario.name()
    );
    assert_eq!(report.merged.requests() as usize, scenario.requests);
    report.merged
}

/// The acceptance criterion: `--shards 4 --threads N` (N = all cores, and a
/// fixed multi-thread count) through the ingestion queue, byte-identical to
/// the serial reference replay.
#[test]
fn four_shard_parallel_run_matches_serial_reference_replay() {
    let mut scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Combined { a: 1.9, p: 0.75 },
        4,
        6,
        10_000,
        2022,
    );
    scenario.router = ShardRouter::Hash;
    let serial = assert_matches_reference(&scenario, Parallelism::Serial, 512, false);
    let threaded = assert_matches_reference(&scenario, Parallelism::Threads(4), 512, true);
    let auto = assert_matches_reference(&scenario, Parallelism::Auto, 2_048, true);
    assert_eq!(serial, threaded);
    assert_eq!(serial, auto);
}

#[test]
fn every_router_policy_matches_at_every_thread_count() {
    for router in ShardRouter::ALL {
        let mut scenario = ShardedScenario::new(
            AlgorithmKind::MaxPush,
            WorkloadSpec::Zipf { a: 1.5 },
            3,
            5,
            4_000,
            7,
        );
        scenario.router = router;
        let serial = assert_matches_reference(&scenario, Parallelism::Serial, 1_000, false);
        let threaded = assert_matches_reference(&scenario, Parallelism::Threads(3), 97, true);
        assert_eq!(serial, threaded, "{router}");
    }
}

#[test]
fn single_shard_engine_degenerates_to_the_plain_scenario() {
    // With S = 1 every policy routes everything to shard 0 and the engine
    // must reproduce an ordinary single-tree run.
    for router in ShardRouter::ALL {
        let mut scenario = ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Temporal { p: 0.8 },
            1,
            6,
            3_000,
            42,
        );
        scenario.router = router;
        assert_matches_reference(&scenario, Parallelism::Threads(2), 333, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite property: every `ShardRouter` policy × every algorithm,
    /// randomized shard counts, tree sizes, seeds, drain cadences and thread
    /// counts — sharded serving over the partitioned stream is byte-identical
    /// to serving each shard's subsequence serially on a standalone tree.
    #[test]
    fn sharded_serving_equals_standalone_per_shard_replay(
        router_index in 0..ShardRouter::ALL.len(),
        algorithm_index in 0usize..AlgorithmKind::ALL.len(),
        shards in 1u32..5,
        shard_levels in 3u32..6,
        requests in 200usize..1_200,
        seed in 0u64..1_000,
        drain_threshold in 1usize..2_000,
        threads in 1usize..5,
        via_queue in any::<bool>(),
    ) {
        let workload = WorkloadSpec::Combined { a: 1.4, p: 0.5 };
        let mut scenario = ShardedScenario::new(
            AlgorithmKind::ALL[algorithm_index],
            workload,
            shards,
            shard_levels,
            requests,
            seed,
        );
        scenario.router = ShardRouter::ALL[router_index];
        assert_matches_reference(
            &scenario,
            Parallelism::from_thread_count(threads),
            drain_threshold,
            via_queue,
        );
    }
}
