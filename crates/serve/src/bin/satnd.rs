//! `satnd` — the network front door of the sharded serving engine.
//!
//! Binds a TCP listener, accepts `--connections` clients speaking the
//! length-prefixed wire protocol (`satn_serve::wire`), forwards every
//! decoded ingest frame into the engine's bounded ingest channel
//! (acknowledging each frame only once enqueued, so backpressure reaches
//! the clients), and drains the
//! [`ShardedEngine`](satn_serve::ShardedEngine) concurrently on the
//! `satn-exec` pool. `Lookup` frames never enter the channel: each
//! connection answers them lock-free from the engine's published snapshots
//! (the read phase), so read-mostly traffic bypasses the write path
//! entirely.
//!
//! ```text
//! satnd [--listen ADDR] [--shards N] [--levels N] [--algorithm A]
//!       [--workload W] [--requests N] [--seed S] [--router R]
//!       [--threads N|auto|serial] [--layout heap|blocked]
//!       [--reshard-every N] [--handover warm] [--connections N]
//!       [--capacity N] [--verify] [--metrics-dump]
//! ```
//!
//! Every reshard handover is warm; `--handover warm` is accepted (and any
//! other value rejected) only because `perfbench/` still passes it.
//!
//! The scenario flags describe the engine the server fronts; with
//! `--verify`, after the last connection closes the engine report is checked
//! byte for byte against the epoch-segmented serial reference replay
//! ([`ShardedScenario::epoch_replay`]) — which requires the clients to have
//! replayed exactly the scenario's request stream (what `satn-load` does) —
//! and the live metrics registry is checked counter for counter against the
//! report (the deterministic-metrics oracle). Clients can also poll the same
//! registry mid-run over the wire with a `Stats` frame, and
//! `--metrics-dump` prints the final registry as Prometheus-style text plus
//! the tracer's recent handover/drain spans on shutdown.
//! Prints `satnd listening on ADDR` once ready; exits non-zero on any
//! serving failure or oracle divergence.

use satn_core::AlgorithmKind;
use satn_obs::names;
use satn_serve::{
    ingest_channel_with_metrics, serve_connections, EngineMetrics, EngineReport, Parallelism,
    ReshardPolicy, ReshardSchedule, ServeError, ShardedEngineConfig, ShardedScenario,
};
use satn_sim::{ShardRouter, SimRunner, WorkloadSpec};
use satn_tree::LayoutKind;
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: satnd [--listen ADDR] [--shards N] [--levels N] [--algorithm A] \
                     [--workload W] [--requests N] [--seed S] [--router hash|range|source] \
                     [--threads N|auto|serial] [--layout heap|blocked] [--reshard-every N] \
                     [--handover warm] [--connections N] [--capacity N] [--verify] \
                     [--metrics-dump]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// The deterministic-metrics oracle: every counter the engine thread updates
/// at drain boundaries must equal the corresponding [`EngineReport`] total
/// exactly — the registry is an `AtomicU64` restatement of the replay
/// ledger, not an approximation of it.
fn verify_metrics(metrics: &EngineMetrics, report: &EngineReport) -> Result<(), String> {
    let serving = report.merged.total();
    let epoch = (report.epoch_fingerprints.len() as u64).saturating_sub(1);
    let expectations = [
        (
            names::REQUESTS_SERVED,
            metrics.requests_served.get(),
            report.requests,
        ),
        (
            names::BATCHES_DRAINED,
            metrics.batches_drained.get(),
            report.drains,
        ),
        (
            names::ACCESS_COST,
            metrics.access_cost.get(),
            serving.access,
        ),
        (
            names::ADJUSTMENT_COST,
            metrics.adjustment_cost.get(),
            serving.adjustment,
        ),
        (
            names::MIGRATION_UNITS,
            metrics.migration_units.get(),
            report.migration.total(),
        ),
        (names::RESHARD_EPOCH, metrics.reshard_epoch.get(), epoch),
    ];
    for (name, got, want) in expectations {
        if got != want {
            return Err(format!(
                "{name}: registry says {got}, the report says {want}"
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut listen = String::from("127.0.0.1:7411");
    let mut shards = 4u32;
    let mut levels = 6u32;
    let mut algorithm = AlgorithmKind::RotorPush;
    let mut workload = WorkloadSpec::Combined { a: 1.9, p: 0.75 };
    let mut requests = 20_000usize;
    let mut seed = 2022u64;
    let mut router: Option<ShardRouter> = None;
    let mut parallelism = Parallelism::Auto;
    let mut layout = LayoutKind::default();
    let mut reshard_every = 0usize;
    let mut connections = 1usize;
    let mut capacity = 16usize;
    let mut verify = false;
    let mut metrics_dump = false;

    let mut args = std::env::args().skip(1);
    while let Some(argument) = args.next() {
        match argument.as_str() {
            "--listen" => match args.next() {
                Some(value) => listen = value,
                None => return usage(),
            },
            "--shards" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(value) if value > 0 => shards = value,
                _ => return usage(),
            },
            "--levels" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(value) if value > 0 => levels = value,
                _ => return usage(),
            },
            "--algorithm" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => algorithm = value,
                None => return usage(),
            },
            "--workload" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => workload = value,
                None => return usage(),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => requests = value,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => seed = value,
                None => return usage(),
            },
            "--router" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => router = Some(value),
                None => return usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => parallelism = value,
                None => return usage(),
            },
            "--layout" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => layout = value,
                None => return usage(),
            },
            "--reshard-every" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => reshard_every = value,
                _ => return usage(),
            },
            // Selects nothing: kept only for `perfbench/`'s command line.
            "--handover" => match args.next().as_deref() {
                Some("warm") => {}
                _ => return usage(),
            },
            "--connections" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => connections = value,
                _ => return usage(),
            },
            "--capacity" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => capacity = value,
                _ => return usage(),
            },
            "--verify" => verify = true,
            "--metrics-dump" => metrics_dump = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    if verify && connections != 1 {
        eprintln!("satnd: --verify requires --connections 1 (one ordered stream)");
        return ExitCode::FAILURE;
    }

    let mut scenario = ShardedScenario::new(algorithm, workload, shards, levels, requests, seed);
    scenario.layout = layout;
    if let Some(router) = router {
        scenario.router = router;
    }
    if reshard_every > 0 {
        scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: reshard_every,
            max_moves: 16,
        });
    }

    let engine = match ShardedEngineConfig::from_scenario(&scenario)
        .parallelism(parallelism)
        .build()
    {
        Ok(engine) => engine,
        Err(error) => {
            eprintln!("satnd: engine configuration rejected: {error}");
            return ExitCode::FAILURE;
        }
    };

    let listener = match TcpListener::bind(&listen) {
        Ok(listener) => listener,
        Err(error) => {
            eprintln!("satnd: cannot bind {listen}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address");
    println!("satnd listening on {addr} — {}", scenario.name());
    let _ = std::io::stdout().flush();

    // The registry and tracer outlive the engine's serving thread: the
    // connection workers answer Stats frames from the registry mid-run, and
    // the shutdown path dumps and oracle-checks it after the thread joins.
    let metrics = Arc::clone(engine.metrics());
    let tracer = Arc::clone(engine.tracer());
    let (sender, queue) = ingest_channel_with_metrics(capacity, Arc::clone(&metrics));
    // Open the read side before the engine moves to its serving thread:
    // every connection worker answers Lookup frames lock-free from the
    // snapshots the engine publishes at each drain boundary.
    let mut engine = engine;
    let reader = engine.snapshots();
    let engine_thread = std::thread::spawn(move || -> Result<EngineReport, ServeError> {
        engine.serve_queue(&queue)?;
        engine.finish()
    });

    let started = Instant::now();
    let reports = serve_connections(
        &listener,
        &sender,
        Some(&reader),
        Parallelism::from_thread_count(connections),
        connections,
    );
    drop(sender); // Close the channel so the engine drains and finishes.
    let elapsed = started.elapsed().as_secs_f64();

    let report = match engine_thread
        .join()
        .expect("the engine thread never panics")
    {
        Ok(report) => report,
        Err(error) => {
            eprintln!("satnd: engine failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    let reports = match reports {
        Ok(reports) => reports,
        Err(error) => {
            eprintln!("satnd: accept loop failed: {error}");
            return ExitCode::FAILURE;
        }
    };

    let mut dirty = 0usize;
    let mut lookups = 0u64;
    for connection in &reports {
        lookups += connection.lookups;
        match &connection.error {
            None => println!(
                "connection {}: {} frames, {} lookups, clean shutdown",
                connection.connection, connection.frames, connection.lookups
            ),
            Some(error) if error.is_disconnect() => println!(
                "connection {}: {} frames, {} lookups, peer disconnected ({error})",
                connection.connection, connection.frames, connection.lookups
            ),
            Some(error) => {
                println!(
                    "connection {}: {} frames, {} lookups, FAILED: {error}",
                    connection.connection, connection.frames, connection.lookups
                );
                dirty += 1;
            }
        }
    }
    println!(
        "served {} requests + {lookups} lookups across {} epochs in {elapsed:.3}s ({:.0} req/s)",
        report.requests,
        report.epoch_fingerprints.len(),
        (report.requests + lookups) as f64 / elapsed.max(f64::MIN_POSITIVE),
    );
    if dirty > 0 {
        eprintln!("satnd: {dirty} connection(s) failed with protocol errors");
        return ExitCode::FAILURE;
    }

    if verify {
        if report.requests != scenario.requests as u64 {
            eprintln!(
                "satnd: oracle needs the full scenario stream ({} requests), got {}",
                scenario.requests, report.requests
            );
            return ExitCode::FAILURE;
        }
        let reference = match scenario.epoch_replay(&SimRunner::new()) {
            Ok(reference) => reference,
            Err(error) => {
                eprintln!("satnd: reference replay failed: {error}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(divergence) = report.verify_against(&reference) {
            eprintln!("satnd: ORACLE DIVERGED: {divergence}");
            return ExitCode::FAILURE;
        }
        if let Err(divergence) = verify_metrics(&metrics, &report) {
            eprintln!("satnd: METRICS ORACLE DIVERGED: {divergence}");
            return ExitCode::FAILURE;
        }
        println!("oracle ok: replay matched the serial reference byte for byte");
        println!("metrics ok: every drain-boundary counter equals its replay total");
    }

    if metrics_dump {
        print!("{}", metrics.snapshot().to_prometheus());
        let events = tracer.recent();
        println!(
            "# trace ring: {} recorded, {} dropped, showing last {}",
            tracer.recorded(),
            tracer.dropped(),
            events.len().min(16),
        );
        for event in events.iter().rev().take(16).rev() {
            println!(
                "# trace[{}] {:?} epoch={} served={} detail={} t={:.6}s",
                event.seq,
                event.stamp.kind,
                event.stamp.epoch,
                event.stamp.served,
                event.stamp.detail,
                event.wall.as_secs_f64(),
            );
        }
    }
    ExitCode::SUCCESS
}
