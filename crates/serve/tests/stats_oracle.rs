//! The deterministic-metrics oracle: every counter the engine updates at
//! drain boundaries must equal the corresponding serial-replay total — the
//! `satn-obs` registry is an `AtomicU64` restatement of the replay ledger,
//! never an approximation of it.
//!
//! * Counters vs the [`EngineReport`] and the epoch-segmented reference
//!   replay, at serial / 2 / auto thread counts, with resharding on.
//! * The tracer's deterministic stamps (kind, epoch, served, detail) are
//!   bit-identical across thread counts; only the advisory wall clock may
//!   differ.
//! * A `MetricsSnapshot` taken at the final drain boundary survives the
//!   wire codec and still answers by metric name.

use satn_core::AlgorithmKind;
use satn_obs::names;
use satn_serve::{
    ingest_channel_with_metrics, EngineMetrics, EngineReport, Parallelism, ReshardPolicy,
    ReshardSchedule, ShardedEngineConfig, ShardedScenario, TraceKind, TraceStamp,
};
use satn_sim::{ShardRouter, SimRunner, WorkloadSpec};
use std::sync::Arc;

fn reshard_scenario() -> ShardedScenario {
    let mut scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Combined { a: 1.9, p: 0.75 },
        4,
        5,
        6_000,
        2022,
    );
    scenario.router = ShardRouter::Hash;
    scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
        every: 1_500,
        max_moves: 8,
    });
    scenario
}

/// Drives `scenario` through a metered ingest channel at `parallelism`, with
/// the read side open, and returns the registry, the tracer's deterministic
/// stamps, and the report.
fn run_metered(
    scenario: &ShardedScenario,
    parallelism: Parallelism,
) -> (Arc<EngineMetrics>, Vec<TraceStamp>, EngineReport) {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(512)
        .build()
        .unwrap();
    let metrics = Arc::clone(engine.metrics());
    let tracer = Arc::clone(engine.tracer());
    let _reader = engine.snapshots();
    let (sender, queue) = ingest_channel_with_metrics(8, Arc::clone(&metrics));
    let requests: Vec<_> = scenario.stream().collect();
    let producer = std::thread::spawn(move || {
        for chunk in requests.chunks(97) {
            sender.send_burst(chunk.to_vec()).unwrap();
        }
    });
    engine.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    let report = engine.finish().unwrap();
    (metrics, tracer.stamps(), report)
}

/// The oracle proper: at a drain boundary (and `finish` ends on one) every
/// deterministic counter in the registry equals its report total exactly.
fn assert_counters_equal_report(metrics: &EngineMetrics, report: &EngineReport) {
    let serving = report.merged.total();
    assert_eq!(metrics.requests_served.get(), report.requests);
    assert_eq!(metrics.batches_drained.get(), report.drains);
    assert_eq!(metrics.access_cost.get(), serving.access);
    assert_eq!(metrics.adjustment_cost.get(), serving.adjustment);
    assert_eq!(metrics.migration_units.get(), report.migration.total());
    assert_eq!(
        metrics.reshard_epoch.get(),
        report.epoch_fingerprints.len() as u64 - 1,
    );
    // The stream is fully drained: no queue depth, no buffered requests.
    assert_eq!(metrics.ingest_queue_depth.get(), 0);
    for gauge in &metrics.shard_buffered {
        assert_eq!(gauge.get(), 0);
    }
}

#[test]
fn counters_equal_replay_totals_at_every_thread_count() {
    let scenario = reshard_scenario();
    let reference = scenario.epoch_replay(&SimRunner::new()).unwrap();
    let mut baseline = None;
    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ] {
        let (metrics, stamps, report) = run_metered(&scenario, parallelism);
        // The report itself matches the serial reference replay...
        report.verify_against(&reference).unwrap();
        // ...and the registry matches the report, counter for counter, so
        // transitively every counter equals its serial-replay total.
        assert_counters_equal_report(&metrics, &report);
        // The same numbers answer by name through the snapshot codec.
        let snapshot = metrics.snapshot();
        assert_eq!(
            snapshot.counter(names::REQUESTS_SERVED),
            Some(report.requests)
        );
        assert_eq!(
            snapshot.counter(names::BATCHES_DRAINED),
            Some(report.drains)
        );
        assert_eq!(
            snapshot.gauge(names::RESHARD_EPOCH),
            Some(report.epoch_fingerprints.len() as u64 - 1)
        );
        let drain = snapshot.histogram(names::DRAIN_LATENCY).unwrap();
        assert_eq!(
            drain.samples(),
            report.drains,
            "one latency sample per drain (advisory values, deterministic count)"
        );
        let publishes = snapshot.counter(names::SNAPSHOT_PUBLISHES).unwrap();
        assert!(
            publishes > report.drains,
            "every drain and handover publishes"
        );
        assert_eq!(
            snapshot
                .histogram(names::PUBLISH_LATENCY)
                .unwrap()
                .samples(),
            publishes - 1,
            "one latency sample per publication but the one opening the read side"
        );
        match &baseline {
            None => baseline = Some((stamps, report)),
            Some((reference_stamps, reference_report)) => {
                assert_eq!(
                    &stamps, reference_stamps,
                    "tracer stamps must be bit-identical across thread counts"
                );
                assert_eq!(&report, reference_report);
            }
        }
    }
}

#[test]
fn tracer_spans_record_the_three_phase_handover() {
    let scenario = reshard_scenario();
    let (_metrics, stamps, report) = run_metered(&scenario, Parallelism::Threads(2));
    let epochs = report.epoch_fingerprints.len() as u64 - 1;
    assert!(epochs >= 1, "the scenario must actually reshard");
    // Every handover appears as fence → migrate → epoch-bump, in order,
    // with the migrate and bump stamped under the new epoch.
    let handovers: Vec<_> = stamps
        .iter()
        .filter(|stamp| {
            matches!(
                stamp.kind,
                TraceKind::ReshardFence | TraceKind::ReshardMigrate | TraceKind::ReshardEpochBump
            )
        })
        .collect();
    assert_eq!(handovers.len() as u64, 3 * epochs);
    for (index, span) in handovers.chunks(3).enumerate() {
        let epoch = index as u32;
        assert_eq!(span[0].kind, TraceKind::ReshardFence);
        assert_eq!(span[0].epoch, epoch, "the fence closes the old epoch");
        assert_eq!(span[1].kind, TraceKind::ReshardMigrate);
        assert_eq!(span[1].epoch, epoch + 1);
        assert_eq!(span[2].kind, TraceKind::ReshardEpochBump);
        assert_eq!(span[2].epoch, epoch + 1);
        assert_eq!(
            span[0].served, span[1].served,
            "the whole span happens at one fenced stream position"
        );
        assert_eq!(span[1].served, span[2].served);
    }
    // Drain events account for every request exactly once.
    let drained: u64 = stamps
        .iter()
        .filter(|stamp| stamp.kind == TraceKind::Drain)
        .map(|stamp| stamp.detail)
        .sum();
    assert_eq!(drained, report.requests);
    // And the final drain's running total is the report's.
    let last = stamps
        .iter()
        .rev()
        .find(|stamp| stamp.kind == TraceKind::Drain)
        .unwrap();
    assert_eq!(last.served, report.requests);
}

#[test]
fn the_wire_codec_preserves_the_oracle_snapshot() {
    let scenario = reshard_scenario();
    let (metrics, _stamps, report) = run_metered(&scenario, Parallelism::Auto);
    let snapshot = metrics.snapshot();
    let mut encoded = Vec::new();
    snapshot.encode_into(&mut encoded);
    let decoded = satn_serve::MetricsSnapshot::decode(&encoded).unwrap();
    assert_eq!(decoded, snapshot);
    assert_eq!(
        decoded.counter(names::REQUESTS_SERVED),
        Some(report.requests)
    );
    assert_eq!(
        decoded.counter(names::MIGRATION_UNITS),
        Some(report.migration.total())
    );
    // The Prometheus dump names every deterministic counter.
    let text = decoded.to_prometheus();
    for name in [
        names::REQUESTS_SERVED,
        names::BATCHES_DRAINED,
        names::ACCESS_COST,
        names::ADJUSTMENT_COST,
        names::MIGRATION_UNITS,
        names::RESHARD_EPOCH,
    ] {
        assert!(text.contains(name), "prometheus dump is missing {name}");
    }
}
