//! The networked determinism oracle — the PR's acceptance criterion: a
//! [`ShardedScenario`] replayed through the TCP front door (client →
//! loopback socket → accept loop → bounded channel → engine) produces
//! **byte-identical** engine reports — per-epoch fingerprints, per-epoch
//! cost sub-summaries, migration ledger — to the same scenario driven
//! through the in-process [`Ingest`] transport, at serial, 2-thread, and
//! auto parallelism, and both match the epoch-segmented serial reference
//! replay ([`ShardedScenario::epoch_replay`]).

use satn_core::AlgorithmKind;
use satn_serve::{
    ingest_channel, replay, serve_connections, EngineReport, Parallelism, ReshardPolicy,
    ReshardSchedule, ShardedEngineConfig, ShardedScenario, TcpIngest,
};
use satn_sim::{ShardRouter, SimRunner, WorkloadSpec};
use satn_tree::ElementId;
use std::net::{Ipv4Addr, TcpListener};

fn resharding_scenario() -> ShardedScenario {
    let mut scenario = ShardedScenario::new(
        AlgorithmKind::RotorPush,
        WorkloadSpec::Combined { a: 1.9, p: 0.75 },
        4,
        6,
        12_000,
        2022,
    );
    scenario.router = ShardRouter::Hash;
    scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
        every: 2_000,
        max_moves: 16,
    });
    scenario
}

/// Drives `scenario` through the engine via the in-process channel
/// transport.
fn run_in_process(scenario: &ShardedScenario, parallelism: Parallelism) -> EngineReport {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(512)
        .build()
        .unwrap();
    let (mut sender, queue) = ingest_channel(16);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let producer = std::thread::spawn(move || {
        replay(&mut sender, requests, 256).unwrap();
    });
    engine.serve_queue(&queue).unwrap();
    producer.join().unwrap();
    engine.finish().unwrap()
}

/// Drives `scenario` through the engine via a real loopback TCP connection:
/// the exact path `satnd` + the load generator exercise.
fn run_over_tcp(scenario: &ShardedScenario, parallelism: Parallelism) -> EngineReport {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(512)
        .build()
        .unwrap();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let (sender, queue) = ingest_channel(16);
    let server =
        std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
    let requests: Vec<ElementId> = scenario.stream().collect();
    let client = std::thread::spawn(move || {
        let mut client = TcpIngest::connect(addr).unwrap();
        replay(&mut client, requests, 256).unwrap();
        client.finish().unwrap()
    });
    engine.serve_queue(&queue).unwrap();
    let acked = client.join().unwrap();
    assert!(acked > 0);
    let reports = server.join().unwrap();
    assert!(reports[0].is_clean(), "{:?}", reports[0].error);
    engine.finish().unwrap()
}

/// The acceptance criterion, including mid-stream resharding: TCP and
/// in-process runs are byte-identical to each other at every thread count,
/// and all of them match the serial epoch replay.
#[test]
fn tcp_and_in_process_runs_are_byte_identical() {
    let scenario = resharding_scenario();
    let reference = scenario.epoch_replay(&SimRunner::new()).unwrap();

    let baseline = run_in_process(&scenario, Parallelism::Serial);
    assert!(
        baseline.epoch_fingerprints.len() > 1,
        "resharding must fire"
    );
    baseline.verify_against(&reference).unwrap();

    for parallelism in [
        Parallelism::Serial,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ] {
        let over_wire = run_over_tcp(&scenario, parallelism);
        assert_eq!(over_wire, baseline, "{parallelism:?} diverged over TCP");
        over_wire.verify_against(&reference).unwrap();
        if parallelism != Parallelism::Serial {
            let in_process = run_in_process(&scenario, parallelism);
            assert_eq!(in_process, baseline, "{parallelism:?} diverged in process");
        }
    }
}

/// The same oracle without resharding, across router policies: the wire is
/// invisible to the engine regardless of how requests are routed to shards.
#[test]
fn every_router_policy_is_wire_transparent() {
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
        let in_process = run_in_process(&scenario, Parallelism::Threads(2));
        let over_wire = run_over_tcp(&scenario, Parallelism::Threads(2));
        assert_eq!(in_process, over_wire, "{router} diverged over TCP");
    }
}
