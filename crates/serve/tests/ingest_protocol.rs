//! Edge cases of the channel-based ingestion protocol: flush-then-send,
//! producers dropped mid-burst, zero-capacity channels, and `Reshard`
//! control frames interleaved with bursts — written against the
//! transport-agnostic `Ingest` trait wherever a producer speaks the
//! protocol, so the same shapes hold verbatim for the TCP transport
//! (`tests/wire_protocol.rs` mirrors them over a loopback socket).

use satn_core::AlgorithmKind;
use satn_serve::{
    ingest_channel_with_metrics, EngineMetrics, Ingest, IngestQueue, IngestSender, Parallelism,
    ReshardPlan, ServeError, ShardedEngine, ShardedEngineConfig, ShardedScenario,
};
use satn_sim::WorkloadSpec;
use satn_tree::ElementId;
use std::sync::Arc;

fn scenario(requests: usize) -> ShardedScenario {
    ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Zipf { a: 1.7 },
        3,
        5,
        requests,
        99,
    )
}

fn engine(scenario: &ShardedScenario, parallelism: Parallelism) -> ShardedEngine {
    ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

/// A channel reporting into `engine`'s registry, as `satnd` wires it.
fn channel(engine: &ShardedEngine, capacity: usize) -> (IngestSender, IngestQueue) {
    ingest_channel_with_metrics(capacity, Arc::clone(engine.metrics()))
}

/// Flushing mid-stream and then continuing to send is fully transparent:
/// the run is byte-identical to one with no flushes at all.
#[test]
fn flush_then_send_changes_nothing_but_the_drain_count() {
    let scenario = scenario(2_400);
    let requests: Vec<ElementId> = scenario.stream().collect();

    let mut unflushed = engine(&scenario, Parallelism::Threads(2));
    unflushed.submit_burst(&requests).unwrap();
    let unflushed = unflushed.finish().unwrap();

    let mut queued = engine(&scenario, Parallelism::Threads(2));
    let (mut sender, queue) = channel(&queued, 2);
    let producer = std::thread::spawn({
        let requests = requests.clone();
        move || {
            for (index, chunk) in requests.chunks(100).enumerate() {
                Ingest::send_burst(&mut sender, chunk).unwrap();
                // Flush after every second burst, then keep sending.
                if index % 2 == 1 {
                    Ingest::flush(&mut sender).unwrap();
                }
            }
            Ingest::flush(&mut sender).unwrap();
        }
    });
    queued.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    let flushed = queued.finish().unwrap();

    assert!(flushed.drains > unflushed.drains);
    assert_eq!(flushed.per_shard, unflushed.per_shard);
    assert_eq!(flushed.accounting, unflushed.accounting);
}

/// A producer dropped mid-burst (without flush or shutdown handshake) still
/// yields a clean run: the engine serves exactly what arrived, then drains
/// on queue closure.
#[test]
fn sender_dropped_mid_burst_serves_the_delivered_prefix() {
    let scenario = scenario(2_000);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let mut queued = engine(&scenario, Parallelism::Serial);
    let (mut sender, queue) = channel(&queued, 4);
    let delivered: Vec<ElementId> = requests[..700].to_vec();
    let producer = std::thread::spawn({
        let delivered = delivered.clone();
        move || {
            for chunk in delivered.chunks(70) {
                Ingest::send_burst(&mut sender, chunk).unwrap();
            }
            // Dropped here: no flush, no shutdown message.
        }
    });
    queued.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    let report = queued.finish().unwrap();
    assert_eq!(report.requests, 700);

    // Identical to submitting the delivered prefix directly.
    let mut direct = engine(&scenario, Parallelism::Serial);
    direct.submit_burst(&delivered).unwrap();
    let direct = direct.finish().unwrap();
    assert_eq!(report.per_shard, direct.per_shard);
    assert_eq!(report.accounting, direct.accounting);
}

/// One of several cloned producers dropping early never wedges the queue;
/// the survivors' requests all arrive, and sends into a dropped consumer
/// fail cleanly with the unified `ServeError::Closed`.
#[test]
fn surviving_senders_keep_the_queue_open() {
    let scenario = scenario(600);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let mut queued = engine(&scenario, Parallelism::Serial);
    let (sender, queue) = channel(&queued, 4);
    let mut clone = sender.clone();
    drop(sender); // The original goes away mid-setup.
    let producer = std::thread::spawn({
        let requests = requests.clone();
        move || {
            for chunk in requests.chunks(50) {
                Ingest::send_burst(&mut clone, chunk).unwrap();
            }
        }
    });
    queued.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    assert_eq!(queued.submitted(), 600);

    // With the consumer gone, every protocol message errors — through the
    // trait and the inherent methods alike.
    let (mut sender, queue) = channel(&queued, 1);
    drop(queued);
    drop(queue);
    assert!(matches!(
        sender.send_burst(vec![ElementId::new(0)]),
        Err(ServeError::Closed)
    ));
    assert!(matches!(
        Ingest::send_burst(&mut sender, &[ElementId::new(0)]),
        Err(ServeError::Closed)
    ));
    assert!(matches!(
        Ingest::flush(&mut sender),
        Err(ServeError::Closed)
    ));
    assert!(matches!(
        Ingest::reshard(&mut sender, &ReshardPlan::empty()),
        Err(ServeError::Closed)
    ));
    assert!(ServeError::Closed.is_disconnect());
}

/// A zero-capacity channel would deadlock single-threaded producers and is
/// rejected at construction.
#[test]
#[should_panic(expected = "must be positive")]
fn zero_capacity_channels_are_rejected() {
    let _ = ingest_channel_with_metrics(0, Arc::new(EngineMetrics::new(1)));
}

/// `Reshard` frames interleaved with bursts: every request sent before the
/// frame is served under the old epoch, every request after it under the
/// new one, regardless of burst boundaries and queue capacity.
#[test]
fn reshard_frames_interleave_cleanly_with_bursts() {
    let scenario = scenario(1_800);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let plan = ReshardPlan::new([(ElementId::new(0), 1), (ElementId::new(3), 2)]);

    let mut queued = engine(&scenario, Parallelism::Threads(2));
    let (mut sender, queue) = channel(&queued, 1); // Minimal capacity: full backpressure.
    let producer = std::thread::spawn({
        let requests = requests.clone();
        let plan = plan.clone();
        move || {
            Ingest::send_burst(&mut sender, &requests[..900]).unwrap();
            Ingest::reshard(&mut sender, &plan).unwrap();
            // Continue in one-element and longer bursts after the handover.
            for request in requests[900..950].chunks(1) {
                Ingest::send_burst(&mut sender, request).unwrap();
            }
            Ingest::send_burst(&mut sender, &requests[950..]).unwrap();
        }
    });
    queued.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    let queued = queued.finish().unwrap();

    // Equivalent direct run: submit 900, reshard, submit the rest.
    let mut direct = engine(&scenario, Parallelism::Threads(2));
    direct.submit_burst(&requests[..900]).unwrap();
    direct.reshard(plan).unwrap();
    direct.submit_burst(&requests[900..]).unwrap();
    let direct = direct.finish().unwrap();

    assert_eq!(queued.boundaries, vec![900]);
    assert_eq!(queued.epoch_fingerprints.len(), 2);
    assert_eq!(queued.per_shard, direct.per_shard);
    assert_eq!(queued.accounting, direct.accounting);
    assert_eq!(queued.epoch_fingerprints, direct.epoch_fingerprints);
    assert!(queued.migration.moved >= 1);
}
