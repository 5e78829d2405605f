//! `satn-load` — the TCP load generator for `satnd`.
//!
//! Replays any [`WorkloadSpec`] request stream over the wire protocol
//! through a [`TcpIngest`] connection (the same scenario grammar `satnd`
//! accepts, so client and server agree on the stream byte for byte) and
//! reports per-frame round-trip latency quantiles. A frame's RTT spans from
//! its write to the server's acknowledgement — which the server only sends
//! once the frame is enqueued for the engine, so the tail latencies surface
//! engine backpressure, not just network time.
//!
//! ```text
//! satn-load --addr ADDR [--shards N] [--levels N] [--algorithm A]
//!           [--workload W] [--requests N] [--seed S] [--burst N]
//!           [--window N] [--reads FRACTION] [--reshard-every N]
//!           [--stats] [--out FILE]
//! ```
//!
//! With `--reads FRACTION` (0 ≤ f < 1) the generator interleaves `Lookup`
//! frames with the write bursts so that lookups make up that fraction of
//! all operations — `--reads 0.99` is the 99:1 read-mostly mix. Lookups
//! probe elements from the burst just written and are answered from the
//! server's published snapshots, so their RTTs measure the lock-free read
//! path, not the write path.
//!
//! With `--reshard-every N` the generator injects a `Reshard` control frame
//! after every `N` requests sent, moving two elements of the latest burst to
//! their next shard (the client tracks its own epoch log, so every plan names
//! real cross-shard moves). Each reshard frame's write-to-ack RTT is reported
//! separately, so the client sees exactly what a handover costs the write
//! path.
//!
//! With `--stats` the generator additionally polls the server's metrics
//! registry over the wire (a `Stats` frame, answered off the write path)
//! roughly every reporting interval, printing the server-side drain latency
//! quantiles, served counts, and migration ledger beside the client RTTs,
//! and embeds the final server snapshot in the JSON report. That snapshot
//! is taken after a `Flush` once the server reports every sent request
//! served, so its counters are final.
//!
//! Writes a JSON report (throughput + p50/p99/p999/max frame RTT, and the
//! same quantiles for lookup RTTs when reads are mixed in) to `--out`, and
//! prints the same summary to stdout. Retries the initial connection for a
//! few seconds so it can be launched alongside `satnd`.

use satn_core::AlgorithmKind;
use satn_obs::{names, LatencyHistogram, MetricsSnapshot};
use satn_serve::{
    EpochedPartition, Ingest, ReshardPlan, ServeError, ShardedScenario, TcpIngest, DEFAULT_WINDOW,
};
use satn_sim::WorkloadSpec;
use satn_tree::ElementId;
use std::collections::VecDeque;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: satn-load --addr ADDR [--shards N] [--levels N] [--algorithm A] \
                     [--workload W] [--requests N] [--seed S] [--burst N] [--window N] \
                     [--reads FRACTION] [--reshard-every N] [--stats] [--out FILE]";

/// How often `--stats` polls the server registry mid-run.
const STATS_INTERVAL: Duration = Duration::from_millis(250);

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Retries the connection for ~5 seconds: `satn-load` is routinely launched
/// in the same breath as `satnd`, before the listener is up.
fn connect_with_retry(addr: &str) -> Result<TcpIngest, ServeError> {
    let mut last = None;
    for _ in 0..50 {
        match TcpIngest::connect(addr) {
            Ok(client) => return Ok(client),
            Err(error) => last = Some(error),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(last.expect("fifty attempts leave an error"))
}

struct LoadReport {
    frames: u64,
    requests: usize,
    lookups: u64,
    reshards: u64,
    elapsed: f64,
    histogram: LatencyHistogram,
    lookup_histogram: LatencyHistogram,
    reshard_histogram: LatencyHistogram,
    server: Option<MetricsSnapshot>,
}

/// One interim `--stats` line: the server-side counters and drain quantiles
/// a client can see mid-run, printed beside the client's own RTT numbers.
fn print_stats_line(snapshot: &MetricsSnapshot) {
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    let (p50, p99) = snapshot
        .histogram(names::DRAIN_LATENCY)
        .map(|drain| (micros(drain.quantile(0.50)), micros(drain.quantile(0.99))))
        .unwrap_or((0.0, 0.0));
    println!(
        "stats: served={} drains={} drain_us p50={p50:.1} p99={p99:.1} lookups={} \
         queue_depth={} epoch={} touched_units={} rebuilt_nodes={}",
        counter(names::REQUESTS_SERVED),
        counter(names::BATCHES_DRAINED),
        counter(names::LOOKUPS_ANSWERED),
        snapshot.gauge(names::INGEST_QUEUE_DEPTH).unwrap_or(0),
        snapshot.gauge(names::RESHARD_EPOCH).unwrap_or(0),
        counter(names::MIGRATION_TOUCHED_UNITS),
        counter(names::MIGRATION_REBUILT_NODES),
    );
}

/// Replays the scenario stream in bursts, timing each frame from write to
/// acknowledgement. With `reads > 0`, lookups are interleaved after every
/// burst (probing elements the burst just wrote) so they make up `reads`
/// of all operations; each lookup's RTT spans write to `Found`. With
/// `reshard_every > 0`, a `Reshard` frame follows every `reshard_every`-th
/// request: the client applies each plan to its own epoch log, so every
/// plan moves two of the latest burst's elements to their next shard.
fn run(
    addr: &str,
    scenario: &ShardedScenario,
    burst: usize,
    window: usize,
    reads: f64,
    reshard_every: usize,
    stats: bool,
) -> Result<LoadReport, ServeError> {
    let mut client = connect_with_retry(addr)?.with_window(window);
    let requests: Vec<ElementId> = scenario.stream().collect();
    let mut histogram = LatencyHistogram::new();
    let mut lookup_histogram = LatencyHistogram::new();
    let mut reshard_histogram = LatencyHistogram::new();
    let mut in_flight: VecDeque<(Instant, bool)> = VecDeque::with_capacity(window);
    let mut recorded = 0u64;
    let mut lookups = 0u64;
    let mut reshards = 0u64;
    let mut log = EpochedPartition::from_partition(scenario.partition());
    let shards = scenario.shards;
    let mut sent_requests = 0usize;
    // Lookups owed so the read fraction converges on `reads`: every write
    // earns reads / (1 - reads) of a lookup.
    let mut owed = 0.0f64;
    let started = Instant::now();
    let mut last_poll = started;
    for chunk in requests.chunks(burst) {
        client.send_burst(chunk)?;
        in_flight.push_back((Instant::now(), false));
        sent_requests += chunk.len();
        if reshard_every > 0 && sent_requests / reshard_every > reshards as usize {
            // Move the burst's first two distinct elements one shard over
            // (per the client's own epoch log, so the moves are real).
            let mut moves = Vec::new();
            for &element in chunk {
                if moves.iter().any(|&(seen, _)| seen == element) {
                    continue;
                }
                let from = log.current().shard_of(element).expect("routed elements");
                moves.push((element, (from + 1) % shards));
                if moves.len() == 2 {
                    break;
                }
            }
            let plan = ReshardPlan::new(moves);
            log.apply(plan.clone()).expect("plans move owned elements");
            client.reshard(&plan)?;
            in_flight.push_back((Instant::now(), true));
            reshards += 1;
        }
        owed += chunk.len() as f64 * reads / (1.0 - reads);
        while owed >= 1.0 {
            let probe = chunk[lookups as usize % chunk.len()];
            let asked_at = Instant::now();
            client.lookup(probe)?;
            lookup_histogram.record(asked_at.elapsed());
            lookups += 1;
            owed -= 1.0;
        }
        if stats && last_poll.elapsed() >= STATS_INTERVAL {
            print_stats_line(&client.stats()?);
            last_poll = Instant::now();
        }
        // Every ack the send and lookup loops have absorbed closes one
        // frame's RTT.
        while recorded < client.acked() {
            let (sent_at, was_reshard) = in_flight.pop_front().expect("one send per ack");
            if was_reshard {
                reshard_histogram.record(sent_at.elapsed());
            } else {
                histogram.record(sent_at.elapsed());
            }
            recorded += 1;
        }
    }
    client.drain_acks()?;
    while recorded < client.acked() {
        let (sent_at, was_reshard) = in_flight.pop_front().expect("one send per ack");
        if was_reshard {
            reshard_histogram.record(sent_at.elapsed());
        } else {
            histogram.record(sent_at.elapsed());
        }
        recorded += 1;
    }
    // An ack only means enqueued: the final poll must wait for the engine
    // to serve every request, or its counters trail the sent count.
    let server = if stats {
        let snapshot = final_stats(&mut client, requests.len() as u64)?;
        print_stats_line(&snapshot);
        Some(snapshot)
    } else {
        None
    };
    let frames = client.finish()?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok(LoadReport {
        frames,
        requests: requests.len(),
        lookups,
        reshards,
        elapsed,
        histogram,
        lookup_histogram,
        reshard_histogram,
        server,
    })
}

/// How long [`final_stats`] waits for the server to serve every request.
const FINAL_STATS_DEADLINE: Duration = Duration::from_secs(60);

/// Sends `Flush` (the engine drains what it buffered), then polls `Stats`
/// until the server reports all `sent` requests served, and returns that
/// final snapshot.
fn final_stats(client: &mut TcpIngest, sent: u64) -> Result<MetricsSnapshot, ServeError> {
    client.flush()?;
    let deadline = Instant::now() + FINAL_STATS_DEADLINE;
    loop {
        let snapshot = client.stats()?;
        if snapshot.counter(names::REQUESTS_SERVED).unwrap_or(0) >= sent {
            return Ok(snapshot);
        }
        if Instant::now() >= deadline {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("the server never reported all {sent} requests served"),
            )));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn json(
    report: &LoadReport,
    scenario: &ShardedScenario,
    burst: usize,
    window: usize,
    reads: f64,
) -> String {
    let micros = |d: Duration| d.as_secs_f64() * 1e6;
    let quantiles = |histogram: &LatencyHistogram| {
        format!(
            "{{\n    \"p50\": {:.1},\n    \"p99\": {:.1},\n    \"p999\": {:.1},\n    \
             \"max\": {:.1}\n  }}",
            micros(histogram.quantile(0.50)),
            micros(histogram.quantile(0.99)),
            micros(histogram.quantile(0.999)),
            micros(histogram.max()),
        )
    };
    let elapsed = report.elapsed.max(f64::MIN_POSITIVE);
    let server = report
        .server
        .as_ref()
        .map(|snapshot| {
            let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
            let drain = snapshot
                .histogram(names::DRAIN_LATENCY)
                .cloned()
                .unwrap_or_default();
            let handover_latency = snapshot
                .histogram(names::HANDOVER_LATENCY)
                .cloned()
                .unwrap_or_default();
            format!(
                "{{\n    \"requests_served\": {},\n    \"batches_drained\": {},\n    \
                 \"lookups_answered\": {},\n    \"migration_units\": {},\n    \
                 \"migration_touched_units\": {},\n    \"migration_rebuilt_nodes\": {},\n    \
                 \"reshard_epoch\": {},\n    \"drain_latency_us\": {{\n      \
                 \"p50\": {:.1},\n      \"p99\": {:.1},\n      \"max\": {:.1}\n    }},\n    \
                 \"handover_latency_us\": {{\n      \
                 \"p50\": {:.1},\n      \"p99\": {:.1},\n      \"max\": {:.1}\n    }}\n  }}",
                counter(names::REQUESTS_SERVED),
                counter(names::BATCHES_DRAINED),
                counter(names::LOOKUPS_ANSWERED),
                counter(names::MIGRATION_UNITS),
                counter(names::MIGRATION_TOUCHED_UNITS),
                counter(names::MIGRATION_REBUILT_NODES),
                snapshot.gauge(names::RESHARD_EPOCH).unwrap_or(0),
                micros(drain.quantile(0.50)),
                micros(drain.quantile(0.99)),
                micros(drain.max()),
                micros(handover_latency.quantile(0.50)),
                micros(handover_latency.quantile(0.99)),
                micros(handover_latency.max()),
            )
        })
        .unwrap_or_else(|| String::from("null"));
    format!(
        "{{\n  \"scenario\": \"{}\",\n  \"requests\": {},\n  \"frames\": {},\n  \
         \"lookups\": {},\n  \"reshards\": {},\n  \
         \"reads\": {:.4},\n  \"burst\": {},\n  \"window\": {},\n  \
         \"elapsed_s\": {:.6},\n  \"throughput_req_per_s\": {:.0},\n  \
         \"throughput_ops_per_s\": {:.0},\n  \"frame_rtt_us\": {},\n  \
         \"lookup_rtt_us\": {},\n  \"reshard_rtt_us\": {},\n  \"server\": {}\n}}\n",
        scenario.name(),
        report.requests,
        report.frames,
        report.lookups,
        report.reshards,
        reads,
        burst,
        window,
        report.elapsed,
        report.requests as f64 / elapsed,
        (report.requests as u64 + report.lookups) as f64 / elapsed,
        quantiles(&report.histogram),
        quantiles(&report.lookup_histogram),
        quantiles(&report.reshard_histogram),
        server,
    )
}

fn main() -> ExitCode {
    let mut addr = None;
    let mut shards = 4u32;
    let mut levels = 6u32;
    let mut algorithm = AlgorithmKind::RotorPush;
    let mut workload = WorkloadSpec::Combined { a: 1.9, p: 0.75 };
    let mut requests = 20_000usize;
    let mut seed = 2022u64;
    let mut burst = 512usize;
    let mut window = DEFAULT_WINDOW;
    let mut reads = 0.0f64;
    let mut reshard_every = 0usize;
    let mut stats = false;
    let mut out = None;

    let mut args = std::env::args().skip(1);
    while let Some(argument) = args.next() {
        match argument.as_str() {
            "--addr" => match args.next() {
                Some(value) => addr = Some(value),
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
            "--burst" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => burst = value,
                _ => return usage(),
            },
            "--window" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => window = value,
                _ => return usage(),
            },
            "--reads" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(value) if (0.0..1.0).contains(&value) => reads = value,
                _ => return usage(),
            },
            "--reshard-every" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => reshard_every = value,
                _ => return usage(),
            },
            "--stats" => stats = true,
            "--out" => match args.next() {
                Some(value) => out = Some(value),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let Some(addr) = addr else {
        return usage();
    };

    let scenario = ShardedScenario::new(algorithm, workload, shards, levels, requests, seed);
    let report = match run(&addr, &scenario, burst, window, reads, reshard_every, stats) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("satn-load: {error}");
            return ExitCode::FAILURE;
        }
    };

    let rendered = json(&report, &scenario, burst, window, reads);
    print!("{rendered}");
    if let Some(path) = out {
        if let Err(error) = std::fs::write(&path, &rendered) {
            eprintln!("satn-load: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
