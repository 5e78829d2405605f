//! The resharding determinism oracle, end to end.
//!
//! * The **acceptance test**: a 4-shard engine resharding mid-stream under a
//!   load-adaptive policy, run at serial / 2 / auto thread counts through
//!   the channel-based ingestion layer, matches the epoch-segmented
//!   [`ShardedScenario::epoch_replay`] serial reference byte for byte:
//!   per-epoch per-shard fingerprints at every epoch boundary, per-epoch
//!   cost sub-summaries, migration costs, and the merged ledger.
//! * The **property test**: every router policy × every online algorithm ×
//!   random reshard cadences / drain cadences / thread counts — the
//!   resharded engine reproduces the epoch-segmented replay exactly.
//! * The **frame test**: explicit `Reshard` ingest frames interleaved with
//!   bursts are equivalent to the same manual schedule replayed offline.

use proptest::prelude::*;
use satn_core::AlgorithmKind;
use satn_serve::{
    ingest_channel_with_metrics, EngineReport, Parallelism, ReshardPlan, ReshardPolicy,
    ReshardSchedule, ShardedEngineConfig,
};
use satn_sim::{ReshardEvent, ShardRouter, ShardedScenario, SimRunner, WorkloadSpec};
use satn_tree::ElementId;
use std::sync::Arc;

/// Runs `scenario` through the engine (optionally via the ingest queue) and
/// asserts byte-identity against the epoch-segmented serial replay at every
/// epoch boundary. Returns the engine report for cross-run comparisons.
fn assert_matches_epoch_replay(
    scenario: &ShardedScenario,
    parallelism: Parallelism,
    drain_threshold: usize,
    via_queue: bool,
) -> EngineReport {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(drain_threshold)
        .build()
        .unwrap();
    if via_queue {
        let (sender, queue) = ingest_channel_with_metrics(4, Arc::clone(engine.metrics()));
        let requests: Vec<ElementId> = scenario.stream().collect();
        let producer = std::thread::spawn(move || {
            for chunk in requests.chunks(61) {
                sender.send_burst(chunk.to_vec()).unwrap();
            }
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

    let replay = scenario.epoch_replay(&SimRunner::new()).unwrap();
    let name = scenario.name();
    assert_eq!(
        report.epoch_fingerprints.len() as u32,
        replay.epochs(),
        "{name}: epoch count diverged"
    );
    assert_eq!(
        report.boundaries, replay.boundaries,
        "{name}: epoch boundaries diverged"
    );
    for epoch in 0..replay.epochs() {
        for shard in 0..scenario.shards {
            assert_eq!(
                report.epoch_fingerprints[epoch as usize][shard as usize],
                replay.fingerprint(epoch, shard),
                "{name}: epoch {epoch} shard {shard} boundary fingerprint diverged"
            );
        }
        assert_eq!(
            report.accounting.epoch(epoch),
            replay.accounting.epoch(epoch),
            "{name}: epoch {epoch} cost sub-summary diverged"
        );
    }
    assert_eq!(
        report.accounting, replay.accounting,
        "{name}: the epoch-versioned ledger diverged"
    );
    assert_eq!(report.merged, replay.accounting.merged(), "{name}: merged");
    assert_eq!(
        report.migration,
        replay.accounting.migration_total(),
        "{name}: migration cost diverged"
    );
    assert_eq!(report.requests as usize, scenario.requests, "{name}");
    report
}

/// The acceptance criterion: S = 4 with a policy resharding mid-stream,
/// serial / 2 / auto thread counts via the ingestion queue, byte-identical
/// to the epoch-segmented serial reference replay (per-epoch fingerprints
/// and the merged `ShardedCostSummary` including migration cost).
#[test]
fn four_shard_resharding_run_matches_the_epoch_segmented_replay() {
    let mut scenario =
        ShardedScenario::hot_shard(AlgorithmKind::RotorPush, 4, 6, 10_000, 2022, 10, 2.0);
    scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
        every: 500,
        max_moves: 16,
    });
    let serial = assert_matches_epoch_replay(&scenario, Parallelism::Serial, 512, false);
    assert!(
        serial.epoch_fingerprints.len() > 2,
        "the hot-shard stream must trigger several reshards"
    );
    assert!(serial.migration.moved > 0);
    let threaded = assert_matches_epoch_replay(&scenario, Parallelism::Threads(2), 512, true);
    let auto = assert_matches_epoch_replay(&scenario, Parallelism::Auto, 2_048, true);
    assert_eq!(serial, threaded);
    assert_eq!(serial, auto);
}

/// The acceptance run again for the algorithms whose carried state is not
/// a rotor configuration: Max-Push carries its recency ranks and
/// Random-Push its generator position across every epoch, while untouched
/// shards keep their live trees. Both still match the epoch-segmented
/// serial reference byte for byte at serial / 2 / auto thread counts.
#[test]
fn warm_resharding_run_matches_the_warm_epoch_segmented_replay() {
    for algorithm in [AlgorithmKind::MaxPush, AlgorithmKind::RandomPush] {
        let mut scenario = ShardedScenario::hot_shard(algorithm, 4, 6, 10_000, 2022, 10, 2.0);
        scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 500,
            max_moves: 16,
        });
        let serial = assert_matches_epoch_replay(&scenario, Parallelism::Serial, 512, false);
        assert!(serial.epoch_fingerprints.len() > 2);
        assert!(serial.migration.moved > 0);
        let threaded = assert_matches_epoch_replay(&scenario, Parallelism::Threads(2), 512, true);
        let auto = assert_matches_epoch_replay(&scenario, Parallelism::Auto, 2_048, true);
        assert_eq!(serial, threaded);
        assert_eq!(serial, auto);
    }
}

/// Explicit `Reshard` ingest frames interleaved with bursts are the same
/// protocol as a manual schedule: the queue-fed engine must match the
/// offline epoch replay of the equivalent `ReshardSchedule::Manual`.
#[test]
fn reshard_frames_interleaved_with_bursts_match_the_manual_schedule() {
    let base = ShardedScenario::new(
        AlgorithmKind::MaxPush,
        WorkloadSpec::Combined { a: 1.7, p: 0.6 },
        4,
        5,
        6_000,
        7,
    );
    let plans = [
        ReshardPlan::new([(ElementId::new(0), 2), (ElementId::new(1), 3)]),
        ReshardPlan::new([(ElementId::new(0), 1), (ElementId::new(40), 0)]),
    ];
    let positions = [2_000usize, 4_000];

    // Queue-fed: bursts with Reshard frames at the boundary positions.
    let mut engine = ShardedEngineConfig::from_scenario(&base)
        .parallelism(Parallelism::Threads(3))
        .drain_threshold(777)
        .build()
        .unwrap();
    let (sender, queue) = ingest_channel_with_metrics(4, Arc::clone(engine.metrics()));
    let requests: Vec<ElementId> = base.stream().collect();
    let frames: Vec<(usize, ReshardPlan)> = positions
        .iter()
        .copied()
        .zip(plans.iter().cloned())
        .collect();
    let producer = std::thread::spawn(move || {
        let mut sent = 0usize;
        for chunk in requests.chunks(250) {
            sender.send_burst(chunk.to_vec()).unwrap();
            sent += chunk.len();
            for (at, plan) in &frames {
                if *at == sent {
                    sender.reshard(plan.clone()).unwrap();
                }
            }
            if sent % 1_000 == 0 {
                sender.flush().unwrap();
            }
        }
    });
    engine.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    let report = engine.finish().unwrap();

    // The offline oracle: the same schedule as a Manual scenario.
    let mut manual = base.clone();
    manual.reshard = ReshardSchedule::Manual(
        positions
            .iter()
            .zip(plans)
            .map(|(&at, plan)| ReshardEvent { at, plan })
            .collect(),
    );
    let replay = manual.epoch_replay(&SimRunner::new()).unwrap();
    assert_eq!(report.boundaries, replay.boundaries);
    assert_eq!(report.accounting, replay.accounting);
    for epoch in 0..replay.epochs() {
        for shard in 0..4 {
            assert_eq!(
                report.epoch_fingerprints[epoch as usize][shard as usize],
                replay.fingerprint(epoch, shard),
                "epoch {epoch} shard {shard}"
            );
        }
    }

    // And the manual-schedule engine drives itself to the same state
    // (drain counts differ by cadence; every observable result must not).
    let auto = assert_matches_epoch_replay(&manual, Parallelism::Threads(2), 999, false);
    assert_eq!(report.per_shard, auto.per_shard);
    assert_eq!(report.accounting, auto.accounting);
    assert_eq!(report.epoch_fingerprints, auto.epoch_fingerprints);
    assert_eq!(report.boundaries, auto.boundaries);
    assert_eq!(report.migration, auto.migration);
}

/// A manual event scheduled past the stream end fires at the end of the
/// run on both sides: the engine closes the final epoch empty at `finish`,
/// and the oracle at the end of its walk, both at the stream length — the
/// two must still agree byte for byte (regression: the engine used to
/// record the submitted count while the oracle recorded the literal event
/// position).
#[test]
fn manual_events_past_the_stream_end_fire_at_finish() {
    let mut scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Zipf { a: 1.5 },
        3,
        4,
        1_000,
        5,
    );
    scenario.reshard = ReshardSchedule::Manual(vec![
        ReshardEvent {
            at: 400,
            plan: ReshardPlan::new([(ElementId::new(1), 2)]),
        },
        ReshardEvent {
            at: 5_000, // Beyond the 1000-request stream.
            plan: ReshardPlan::new([(ElementId::new(1), 0)]),
        },
    ]);
    let report = assert_matches_epoch_replay(&scenario, Parallelism::Serial, 128, false);
    assert_eq!(report.boundaries, vec![400, 1_000]);
    assert_eq!(report.epoch_fingerprints.len(), 3);
    // The past-end epoch served nothing but still paid its migration.
    assert_eq!(report.accounting.epoch(2).requests(), 0);
    assert_eq!(report.accounting.epoch(2).migration().moved, 1);
}

/// Manual events at position 0 and at exactly the stream length close an
/// empty first epoch and an empty last epoch, on the engine and the oracle
/// alike.
#[test]
fn manual_events_at_both_stream_ends_close_empty_epochs() {
    let mut scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Zipf { a: 1.5 },
        3,
        4,
        1_000,
        5,
    );
    scenario.reshard = ReshardSchedule::Manual(vec![
        ReshardEvent {
            at: 0,
            plan: ReshardPlan::new([(ElementId::new(1), 2)]),
        },
        ReshardEvent {
            at: 1_000,
            plan: ReshardPlan::new([(ElementId::new(1), 0)]),
        },
    ]);
    let report = assert_matches_epoch_replay(&scenario, Parallelism::Threads(2), 97, true);
    assert_eq!(report.boundaries, vec![0, 1_000]);
    let served: Vec<u64> = (0..3)
        .map(|epoch| report.accounting.epoch(epoch).requests())
        .collect();
    assert_eq!(served, vec![0, 1_000, 0]);
}

/// Every online algorithm survives a mid-stream reshard and still matches
/// the replay (Static-Opt is rejected up front — covered in the engine's
/// unit tests).
#[test]
fn every_online_algorithm_reshards_deterministically() {
    for algorithm in AlgorithmKind::ALL {
        if algorithm == AlgorithmKind::StaticOpt {
            continue;
        }
        let mut scenario =
            ShardedScenario::new(algorithm, WorkloadSpec::Zipf { a: 1.6 }, 3, 5, 3_000, 42);
        scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 600,
            max_moves: 4,
        });
        assert_matches_epoch_replay(&scenario, Parallelism::Threads(3), 321, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The acceptance property: routers × online algorithms × random
    /// reshard cadences, shard counts, drain cadences and thread counts —
    /// resharded serving is byte-identical to the epoch-segmented serial
    /// replay.
    #[test]
    fn resharded_serving_equals_the_epoch_segmented_replay(
        router_index in 0..ShardRouter::ALL.len(),
        algorithm_index in 0usize..AlgorithmKind::ALL.len() - 1,
        shards in 2u32..5,
        shard_levels in 3u32..6,
        requests in 400usize..1_500,
        seed in 0u64..1_000,
        every in 100usize..400,
        max_moves in 1u32..8,
        drain_threshold in 1usize..2_000,
        threads in 1usize..5,
        via_queue in any::<bool>(),
    ) {
        // `ALL` ends with the offline Static-Opt at no fixed index, so
        // filter rather than slice.
        let algorithm = AlgorithmKind::ALL
            .into_iter()
            .filter(|&kind| kind != AlgorithmKind::StaticOpt)
            .nth(algorithm_index % (AlgorithmKind::ALL.len() - 1))
            .unwrap();
        let mut scenario = ShardedScenario::new(
            algorithm,
            WorkloadSpec::Combined { a: 1.4, p: 0.5 },
            shards,
            shard_levels,
            requests,
            seed,
        );
        scenario.router = ShardRouter::ALL[router_index];
        scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every,
            max_moves,
        });
        assert_matches_epoch_replay(
            &scenario,
            Parallelism::from_thread_count(threads),
            drain_threshold,
            via_queue,
        );
    }
}
