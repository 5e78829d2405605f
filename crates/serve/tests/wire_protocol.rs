//! Robustness of the TCP transport over a loopback socket — the networked
//! mirror of `tests/ingest_protocol.rs`: truncated, oversized, and garbage
//! frames; connections dropped mid-burst; zero-length bursts; `Reshard`
//! frames interleaved with flushes; and slow, byte-at-a-time clients. The
//! engine behind the channel must stay deterministic and the server must
//! contain every failure to the connection that caused it.

use satn_core::AlgorithmKind;
use satn_obs::WIRE_TAG_COUNT;
use satn_serve::{
    encode_frame, ingest_channel, ingest_channel_with_metrics, read_frame, serve_connections,
    EngineMetrics, EngineReport, Frame, Ingest, IngestMessage, IngestQueue, IngestSender,
    Parallelism, ReshardPlan, ServeError, ShardedEngine, ShardedEngineConfig, ShardedScenario,
    TcpIngest, WireError, MAX_FRAME_BODY,
};
use satn_sim::WorkloadSpec;
use satn_tree::ElementId;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
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

fn loopback() -> (TcpListener, SocketAddr) {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    (listener, addr)
}

/// Spawns a single-connection server over a fresh channel and hands back the
/// queue plus the server's join handle.
fn single_connection_server(
    listener: TcpListener,
    capacity: usize,
) -> (
    IngestQueue,
    std::thread::JoinHandle<Vec<satn_serve::ConnectionReport>>,
) {
    let (sender, queue) = ingest_channel(capacity);
    let server =
        std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
    (queue, server)
}

/// Drains a queue on a helper thread so servers never block on a full
/// channel while a test is inspecting connection reports.
fn drain_in_background(queue: IngestQueue) -> std::thread::JoinHandle<Vec<IngestMessage>> {
    std::thread::spawn(move || {
        let mut messages = Vec::new();
        while let Some(message) = queue.recv() {
            messages.push(message);
        }
        messages
    })
}

/// A connection cut mid-frame (half a header, then half a body) is reported
/// as a disconnect on that connection; everything already acknowledged is in
/// the queue.
#[test]
fn connections_dropped_mid_frame_are_contained_disconnects() {
    let (listener, addr) = loopback();
    let (queue, server) = single_connection_server(listener, 64);
    let drainer = drain_in_background(queue);

    let mut raw = TcpStream::connect(addr).unwrap();
    // One complete Request frame: length=5, tag=0, element=9.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&9u32.to_le_bytes());
    // Then a truncated one: a full header promising 5 bytes, but only 2 sent.
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(&[0, 9]);
    raw.write_all(&bytes).unwrap();
    drop(raw); // Vanish mid-body.

    let reports = server.join().unwrap();
    assert_eq!(reports[0].frames, 1);
    let error = reports[0].error.as_ref().expect("the cut must be reported");
    assert!(error.is_disconnect(), "unexpected error: {error}");
    assert_eq!(
        drainer.join().unwrap(),
        vec![IngestMessage::Request(ElementId::new(9))]
    );
}

/// An oversized length prefix is rejected before any allocation and closes
/// only that connection with a protocol error.
#[test]
fn oversized_frames_are_rejected_as_protocol_errors() {
    let (listener, addr) = loopback();
    let (queue, server) = single_connection_server(listener, 4);
    let drainer = drain_in_background(queue);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&(MAX_FRAME_BODY + 1).to_le_bytes()).unwrap();
    let reports = server.join().unwrap();
    let error = reports[0].error.as_ref().expect("oversize must be fatal");
    assert!(
        matches!(error, ServeError::Protocol(_)),
        "unexpected error: {error}"
    );
    assert!(error.to_string().contains("exceeds"));
    // The server closed the socket: further writes eventually fail.
    let gone = (0..1_000).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(1));
        raw.write_all(&[0u8; 64]).is_err()
    });
    assert!(gone, "the server left a poisoned connection open");
    assert!(drainer.join().unwrap().is_empty());
}

/// Garbage bodies — unknown tags, truncated payloads, trailing bytes — are
/// protocol errors, and nothing from the bad frame reaches the engine.
#[test]
fn garbage_frames_are_protocol_errors() {
    for body in [
        vec![42u8],                      // unknown tag
        vec![1, 3, 0, 0, 0, 7, 0, 0, 0], // burst promising 3 elements, carrying 1
        vec![2, 0xFF],                   // flush with trailing bytes
        vec![],                          // empty body (no tag at all)
    ] {
        let (listener, addr) = loopback();
        let (queue, server) = single_connection_server(listener, 4);
        let drainer = drain_in_background(queue);
        let mut raw = TcpStream::connect(addr).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
        raw.write_all(&bytes).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let reports = server.join().unwrap();
        assert_eq!(reports[0].frames, 0, "body {body:?} must not be accepted");
        assert!(
            matches!(
                reports[0].error.as_ref(),
                Some(ServeError::Protocol(_)) | Some(ServeError::Closed)
            ),
            "body {body:?}: unexpected outcome {:?}",
            reports[0].error
        );
        assert!(drainer.join().unwrap().is_empty());
    }
}

/// A zero-length burst is valid protocol: it crosses the wire, is
/// acknowledged, and the engine treats it as a no-op.
#[test]
fn zero_length_bursts_are_acknowledged_noops() {
    let scenario = scenario(600);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let (listener, addr) = loopback();
    let (sender, queue) = ingest_channel(8);
    let server =
        std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
    let mut engine = engine(&scenario, Parallelism::Serial);
    let engine_thread = std::thread::spawn(move || {
        engine.serve_queue(&queue).unwrap();
        engine.finish().unwrap()
    });

    let mut client = TcpIngest::connect(addr).unwrap();
    client.send_burst(&[]).unwrap();
    client.send_burst(&requests).unwrap();
    client.send_burst(&[]).unwrap();
    assert_eq!(client.finish().unwrap(), 3);
    assert!(server.join().unwrap()[0].is_clean());
    let report = engine_thread.join().unwrap();
    assert_eq!(report.requests, 600);

    let mut direct = self::engine(&scenario, Parallelism::Serial);
    direct.submit_burst(&requests).unwrap();
    let direct = direct.finish().unwrap();
    assert_eq!(report.per_shard, direct.per_shard);
}

/// `Reshard` frames interleaved with flushes over TCP match the same
/// schedule executed in process — the wire adds nothing and loses nothing.
#[test]
fn reshard_frames_interleave_with_flushes_over_the_wire() {
    let scenario = scenario(1_800);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let plan = ReshardPlan::new([(ElementId::new(0), 1), (ElementId::new(3), 2)]);

    let (listener, addr) = loopback();
    let (sender, queue) = ingest_channel(4);
    let server =
        std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
    let mut engine = engine(&scenario, Parallelism::Threads(2));
    let engine_thread = std::thread::spawn(move || {
        engine.serve_queue(&queue).unwrap();
        engine.finish().unwrap()
    });

    let mut client = TcpIngest::connect(addr).unwrap();
    client.send_burst(&requests[..900]).unwrap();
    client.flush().unwrap();
    client.reshard(&plan).unwrap();
    client.flush().unwrap();
    client.send_burst(&requests[900..]).unwrap();
    client.finish().unwrap();
    assert!(server.join().unwrap()[0].is_clean());
    let over_wire = engine_thread.join().unwrap();

    let mut direct = self::engine(&scenario, Parallelism::Threads(2));
    direct.submit_burst(&requests[..900]).unwrap();
    direct.reshard(plan).unwrap();
    direct.submit_burst(&requests[900..]).unwrap();
    let direct = direct.finish().unwrap();

    assert_eq!(over_wire.boundaries, vec![900]);
    assert_eq!(over_wire.per_shard, direct.per_shard);
    assert_eq!(over_wire.accounting, direct.accounting);
    assert_eq!(over_wire.epoch_fingerprints, direct.epoch_fingerprints);
}

/// A slow client dribbling a frame one byte at a time is merely slow, not
/// broken: the server waits for the full frame and serves it normally.
#[test]
fn byte_at_a_time_clients_are_served_normally() {
    let (listener, addr) = loopback();
    let (queue, server) = single_connection_server(listener, 8);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&13u32.to_le_bytes());
    bytes.push(1); // burst tag
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&5u32.to_le_bytes());
    bytes.extend_from_slice(&6u32.to_le_bytes());
    for byte in bytes {
        raw.write_all(&[byte]).unwrap();
        raw.flush().unwrap();
    }
    // The ack comes back once the whole frame has dribbled in.
    let mut ack = [0u8; 13];
    raw.read_exact(&mut ack).unwrap();
    assert_eq!(
        queue.recv(),
        Some(IngestMessage::Burst(vec![
            ElementId::new(5),
            ElementId::new(6)
        ]))
    );
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let reports = server.join().unwrap();
    assert!(reports[0].is_clean());
    assert_eq!(reports[0].frames, 1);
}

/// One misbehaving connection never poisons its neighbours: with several
/// concurrent connections, the garbage one dies alone and the clean ones run
/// the full protocol.
#[test]
fn failures_are_isolated_per_connection() {
    let (listener, addr) = loopback();
    let (sender, queue) = ingest_channel(64);
    let server =
        std::thread::spawn(move || serve_connections(&listener, &sender, None, 3).unwrap());
    let drainer = drain_in_background(queue);

    let clean = |offset: u32| {
        let mut client = TcpIngest::connect(addr).unwrap();
        let burst: Vec<ElementId> = (offset..offset + 10).map(ElementId::new).collect();
        client.send_burst(&burst).unwrap();
        client.finish().unwrap()
    };
    assert_eq!(clean(0), 1);
    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage.write_all(&2u32.to_le_bytes()).unwrap();
    garbage.write_all(&[99, 99]).unwrap(); // unknown tag
    garbage.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(clean(100), 1);

    let reports = server.join().unwrap();
    let clean_count = reports.iter().filter(|r| r.is_clean()).count();
    assert_eq!(clean_count, 2);
    let failed: Vec<_> = reports.iter().filter(|r| !r.is_clean()).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].frames, 0);
    assert_eq!(drainer.join().unwrap().len(), 2);
}

/// The channel transport and the TCP transport are interchangeable behind
/// the `Ingest` trait: the generic replay driver in `satn_serve::replay`
/// produces identical queue contents through either.
#[test]
fn both_transports_feed_the_queue_identically() {
    let elements: Vec<ElementId> = (0..100).map(ElementId::new).collect();

    let (mut sender, queue) = ingest_channel(64);
    satn_serve::replay(&mut sender, elements.iter().copied(), 7).unwrap();
    drop(sender);
    let mut in_process = Vec::new();
    while let Some(message) = queue.recv() {
        in_process.push(message);
    }

    let (listener, addr) = loopback();
    let (queue, server) = single_connection_server(listener, 64);
    let mut client = TcpIngest::connect(addr).unwrap();
    satn_serve::replay(&mut client, elements.iter().copied(), 7).unwrap();
    client.finish().unwrap();
    server.join().unwrap();
    let mut over_wire = Vec::new();
    while let Some(message) = queue.recv() {
        over_wire.push(message);
    }

    assert_eq!(in_process, over_wire);
}

/// The read phase end to end: a `TcpIngest` client interleaves `Lookup`
/// frames with pipelined writes, and every `Found` answer — whatever
/// snapshot the server happened to hold when it arrived — names exactly
/// the node the serial prefix replay puts that element at, at the
/// checkpoint the answer is stamped with.
#[test]
fn lookups_are_served_end_to_end_from_published_snapshots() {
    let scenario = scenario(1_200);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let (listener, addr) = loopback();
    let (sender, queue) = ingest_channel(8);
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Threads(2))
        .drain_threshold(300)
        .build()
        .unwrap();
    let reader = engine.snapshots();
    let server = std::thread::spawn(move || {
        serve_connections(&listener, &sender, Some(&reader), 1).unwrap()
    });
    let engine_thread = std::thread::spawn(move || {
        engine.serve_queue(&queue).unwrap();
        engine.finish().unwrap()
    });

    let mut client = TcpIngest::connect(addr).unwrap();
    let mut answers = Vec::new();
    // A lookup before any write is answered from the initial snapshot.
    answers.push(client.lookup(ElementId::new(5)).unwrap());
    for (chunk, probe) in requests.chunks(300).zip([2u32, 9, 17, 23]) {
        client.send_burst(chunk).unwrap();
        client.flush().unwrap();
        answers.push(client.lookup(ElementId::new(probe)).unwrap());
    }
    client.finish().unwrap();
    assert!(server.join().unwrap()[0].is_clean());
    let report = engine_thread.join().unwrap();
    assert_eq!(report.requests, 1_200);

    // Answers come back in request order from monotonically advancing
    // snapshots; each one matches the serial replay of its own prefix.
    let runner = satn_sim::SimRunner::new();
    let partition = scenario.partition();
    for pair in answers.windows(2) {
        assert!(pair[0].served <= pair[1].served);
    }
    for answer in answers {
        let reference = scenario
            .prefix_occupancies(&runner, answer.served as usize)
            .unwrap();
        let (shard, local) = partition.localize(answer.element).unwrap();
        assert_eq!(shard, answer.shard);
        assert_eq!(reference[shard as usize].node_of(local), answer.node);
        assert_eq!(answer.epoch, 0);
    }
}

/// `IngestSender` is still exported and still the channel producer — the
/// trait did not change the in-process API surface.
#[test]
fn the_channel_sender_still_works_through_the_trait_object() {
    let (mut sender, queue) = ingest_channel(4);
    let ingest: &mut dyn Ingest = &mut sender;
    ingest.send(ElementId::new(1)).unwrap();
    drop(sender);
    assert_eq!(
        queue.recv(),
        Some(IngestMessage::Request(ElementId::new(1)))
    );
    let _: Option<IngestSender> = None; // the type stays nameable
}

/// Encodes `frames` back to back, as one client write would carry them.
fn encode_all(frames: &[Frame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_frame(frame, &mut bytes).unwrap();
    }
    bytes
}

/// A lookup-serving, metered server over one connection whose engine
/// drains every `threshold` requests on its own thread. Returns the
/// client-facing address, the scenario, the shared registry, and the join
/// handles of the server and the engine.
#[allow(clippy::type_complexity)]
fn metered_lookup_server(
    threshold: usize,
) -> (
    SocketAddr,
    ShardedScenario,
    Arc<EngineMetrics>,
    std::thread::JoinHandle<Vec<satn_serve::ConnectionReport>>,
    std::thread::JoinHandle<EngineReport>,
) {
    let scenario = scenario(1_200);
    let (listener, addr) = loopback();
    let mut engine = ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(Parallelism::Threads(2))
        .drain_threshold(threshold)
        .build()
        .unwrap();
    let metrics = Arc::clone(engine.metrics());
    let (sender, queue) = ingest_channel_with_metrics(8, Arc::clone(&metrics));
    let reader = engine.snapshots();
    let server = std::thread::spawn(move || {
        serve_connections(&listener, &sender, Some(&reader), 1).unwrap()
    });
    let engine_thread = std::thread::spawn(move || {
        engine.serve_queue(&queue).unwrap();
        engine.finish().unwrap()
    });
    (addr, scenario, metrics, server, engine_thread)
}

/// Reply coalescing end to end: a burst, a thousand lookups and a stats
/// poll arrive in one client write. The replies come back strictly in
/// request order, every `Found` matches the serial prefix replay at its own
/// stamp, the per-tag traffic counters equal the bytes actually exchanged,
/// and the replies shared far fewer socket writes than there were replies.
#[test]
fn pipelined_replies_are_coalesced_in_order() {
    const LOOKUPS: u32 = 1_000;
    let (addr, scenario, metrics, server, engine_thread) = metered_lookup_server(100);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let universe = scenario.universe();
    let mut sent = vec![Frame::Ingest(IngestMessage::Burst(
        requests[..300].to_vec(),
    ))];
    sent.extend((0..LOOKUPS).map(|i| Frame::Lookup {
        element: ElementId::new(i % universe),
    }));
    sent.push(Frame::Stats);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&encode_all(&sent)).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = std::io::BufReader::new(raw);
    let mut received = Vec::new();
    while let Some(frame) = read_frame(&mut reader, &mut Vec::new()).unwrap() {
        received.push(frame);
    }
    assert!(server.join().unwrap()[0].is_clean());
    let report = engine_thread.join().unwrap();
    assert_eq!(report.requests, 300);

    // Strict request order: the ack, one `Found` per lookup, the stats reply.
    assert_eq!(received.len(), LOOKUPS as usize + 2);
    assert_eq!(received[0], Frame::Ack { seq: 1 });
    assert!(matches!(received.last(), Some(Frame::StatsReply(_))));
    let runner = satn_sim::SimRunner::new();
    let partition = scenario.partition();
    let mut references = BTreeMap::new();
    let mut last_served = 0;
    for (i, frame) in received[1..=LOOKUPS as usize].iter().enumerate() {
        let Frame::Found(answer) = frame else {
            panic!("reply {} is not a Found: {frame:?}", i + 1);
        };
        assert_eq!(answer.element, ElementId::new(i as u32 % universe));
        assert!(
            answer.served >= last_served,
            "answers never go back in time"
        );
        last_served = answer.served;
        let reference = references.entry(answer.served).or_insert_with(|| {
            scenario
                .prefix_occupancies(&runner, answer.served as usize)
                .unwrap()
        });
        let (shard, local) = partition.localize(answer.element).unwrap();
        assert_eq!(shard, answer.shard);
        assert_eq!(reference[shard as usize].node_of(local), answer.node);
    }

    // The registry counted exactly the frames and bytes that crossed.
    let mut frames = [0u64; WIRE_TAG_COUNT];
    let mut bytes = [0u64; WIRE_TAG_COUNT];
    for frame in sent.iter().chain(&received) {
        frames[frame.tag() as usize] += 1;
        bytes[frame.tag() as usize] += encode_all(std::slice::from_ref(frame)).len() as u64;
    }
    for tag in 0..WIRE_TAG_COUNT {
        assert_eq!(
            metrics.wire_frames[tag].get(),
            frames[tag],
            "tag {tag} frames"
        );
        assert_eq!(metrics.wire_bytes[tag].get(), bytes[tag], "tag {tag} bytes");
    }
    let writes = metrics.wire_reply_writes.get();
    assert!(
        (1..received.len() as u64).contains(&writes),
        "{writes} socket writes for {} replies",
        received.len()
    );
}

/// A frame that has only partly arrived must not hold back the replies
/// already queued: the server writes them before it blocks reading the
/// rest.
#[test]
fn queued_replies_are_written_before_waiting_on_a_partial_frame() {
    let (addr, _scenario, _metrics, server, engine_thread) = metered_lookup_server(100);
    let next = encode_all(&[Frame::Lookup {
        element: ElementId::new(4),
    }]);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut bytes = encode_all(&[Frame::Lookup {
        element: ElementId::new(3),
    }]);
    bytes.extend_from_slice(&next[..3]);
    raw.write_all(&bytes).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let first = read_frame(&mut reader, &mut Vec::new()).expect("the Found must arrive");
    assert!(
        matches!(first, Some(Frame::Found(answer)) if answer.element == ElementId::new(3)),
        "{first:?}"
    );
    // The rest of the partial frame completes it normally.
    raw.write_all(&next[3..]).unwrap();
    let second = read_frame(&mut reader, &mut Vec::new()).unwrap();
    assert!(
        matches!(second, Some(Frame::Found(answer)) if answer.element == ElementId::new(4)),
        "{second:?}"
    );
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    assert!(read_frame(&mut reader, &mut Vec::new()).unwrap().is_none());
    assert!(server.join().unwrap()[0].is_clean());
    assert_eq!(engine_thread.join().unwrap().requests, 0);
}

/// Replies to frames served before a garbage frame still reach the client
/// before the server closes the connection.
#[test]
fn replies_queued_before_a_garbage_frame_are_delivered() {
    let (addr, _scenario, _metrics, server, engine_thread) = metered_lookup_server(100);
    let mut bytes = encode_all(&[
        Frame::Lookup {
            element: ElementId::new(1),
        },
        Frame::Lookup {
            element: ElementId::new(2),
        },
    ]);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.push(42); // unknown tag
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&bytes).unwrap();
    let mut reader = std::io::BufReader::new(raw);
    for element in [1, 2] {
        let reply = read_frame(&mut reader, &mut Vec::new()).unwrap();
        assert!(
            matches!(reply, Some(Frame::Found(answer)) if answer.element == ElementId::new(element)),
            "{reply:?}"
        );
    }
    // Then the close: a clean end of stream or a reset, never another frame.
    assert!(!matches!(
        read_frame(&mut reader, &mut Vec::new()),
        Ok(Some(_))
    ));
    let reports = server.join().unwrap();
    assert_eq!(reports[0].lookups, 2);
    assert!(matches!(
        reports[0].error,
        Some(ServeError::Protocol(WireError::UnknownTag(42)))
    ));
    assert_eq!(engine_thread.join().unwrap().requests, 0);
}
