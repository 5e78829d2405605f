//! The static engine metric registry and its wire-encodable snapshot.
//!
//! [`EngineMetrics`] is the fixed set of named metrics one serving engine
//! exposes: every field is an atomic primitive from [`crate::metrics`] (or
//! the lock-free [`AtomicHistogram`]), so the hot paths that feed it pay one
//! relaxed read-modify-write per event — no lock, no allocation.
//! [`EngineMetrics::snapshot`] freezes the registry into a
//! [`MetricsSnapshot`]: an ordered list of `(name, value)` pairs plus the
//! latency histograms, with a canonical binary encoding (for the `Stats`
//! wire frames) and a Prometheus-style text rendering (for
//! `satnd --metrics-dump`).
//!
//! **Determinism contract:** the counters that mirror the cost ledger
//! (requests served, batch cost totals, migration units, drains) are updated
//! only from the engine thread at drain boundaries, so a snapshot taken at a
//! drain boundary equals the serial-replay totals exactly — that is the
//! oracle `satnd --verify` and the serve-side tests assert. Timing data (the
//! drain- and handover-latency histograms) and transport-side counters are
//! advisory.

use crate::histogram::{AtomicHistogram, LatencyHistogram, NUM_BUCKETS};
use crate::metrics::{Counter, Gauge, TaskGauges};
use std::fmt;
use std::fmt::Write as _;

/// Number of distinct wire-frame tags the per-tag counters cover (tags
/// `0..=8`: request, burst, flush, reshard, ack, lookup, found, stats,
/// stats-reply).
pub const WIRE_TAG_COUNT: usize = 9;

/// The canonical metric names, shared by the registry, the tests, and every
/// consumer that looks values up in a [`MetricsSnapshot`].
pub mod names {
    /// Requests served and accounted (counter; oracle-checked).
    pub const REQUESTS_SERVED: &str = "satn_requests_served_total";
    /// Batch drains performed (counter; oracle-checked).
    pub const BATCHES_DRAINED: &str = "satn_batches_drained_total";
    /// Accumulated access cost over all served requests (counter;
    /// oracle-checked).
    pub const ACCESS_COST: &str = "satn_access_cost_total";
    /// Accumulated adjustment cost over all served requests (counter;
    /// oracle-checked).
    pub const ADJUSTMENT_COST: &str = "satn_adjustment_cost_total";
    /// Accumulated migration cost units over all reshard handovers
    /// (counter; oracle-checked).
    pub const MIGRATION_UNITS: &str = "satn_migration_units_total";
    /// The touched term of the migration ledger: delete/re-insert cost
    /// units spent on shards a reshard plan actually touched (counter;
    /// oracle-checked). Scales with moved elements, never with universe
    /// size; every moved element's source and destination are touched, so
    /// it always equals [`MIGRATION_UNITS`] (the benchmark in `perfbench/`
    /// reads it under this name).
    pub const MIGRATION_TOUCHED_UNITS: &str = "satn_migration_touched_units_total";
    /// The rebuilt term of the migration ledger: tree nodes reconstructed
    /// across all handovers (counter; oracle-checked). Only the touched
    /// shards' nodes count: untouched shards keep their live trees, so this
    /// stays proportional to the moved work.
    pub const MIGRATION_REBUILT_NODES: &str = "satn_migration_rebuilt_nodes_total";
    /// Snapshots published to the read side (counter).
    pub const SNAPSHOT_PUBLISHES: &str = "satn_snapshot_publishes_total";
    /// Lookups answered from published snapshots (counter).
    pub const LOOKUPS_ANSWERED: &str = "satn_lookups_answered_total";
    /// Connections accepted since startup (counter).
    pub const CONNECTIONS_TOTAL: &str = "satn_connections_total";
    /// Pool tasks completed (counter).
    pub const POOL_COMPLETED: &str = "satn_pool_tasks_completed_total";
    /// Protocol messages currently queued in the ingest channel (gauge).
    pub const INGEST_QUEUE_DEPTH: &str = "satn_ingest_queue_depth";
    /// The engine's current reshard epoch (gauge; oracle-checked).
    pub const RESHARD_EPOCH: &str = "satn_reshard_epoch";
    /// The read side's current snapshot version (gauge).
    pub const SNAPSHOT_VERSION: &str = "satn_snapshot_version";
    /// Connections currently being served (gauge).
    pub const CONNECTIONS_ACTIVE: &str = "satn_connections_active";
    /// Pool tasks spawned but not yet running (gauge).
    pub const POOL_QUEUED: &str = "satn_pool_tasks_queued";
    /// Pool tasks currently running (gauge).
    pub const POOL_RUNNING: &str = "satn_pool_tasks_running";
    /// Drain wall-clock latency in nanoseconds (histogram; advisory).
    pub const DRAIN_LATENCY: &str = "satn_drain_latency_nanos";
    /// Reshard-handover wall-clock latency in nanoseconds, one sample per
    /// completed handover, drain fence excluded (histogram; advisory).
    pub const HANDOVER_LATENCY: &str = "satn_handover_latency_nanos";

    /// The labelled per-shard buffered-requests gauge name.
    pub fn shard_buffered(shard: u32) -> String {
        format!("satn_shard_buffered_requests{{shard=\"{shard}\"}}")
    }

    /// The labelled per-tag wire-frame counter name.
    pub fn wire_frames(tag: usize) -> String {
        format!("satn_wire_frames_total{{tag=\"{tag}\"}}")
    }

    /// The labelled per-tag wire-byte counter name.
    pub fn wire_bytes(tag: usize) -> String {
        format!("satn_wire_bytes_total{{tag=\"{tag}\"}}")
    }
}

/// The static metric registry of one serving engine. Fields are public: the
/// hot paths update them directly (`metrics.requests_served.add(n)`), with
/// no name lookup and no indirection.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Requests served and accounted — equals the cost ledger's request
    /// total at every drain boundary (oracle-checked).
    pub requests_served: Counter,
    /// Batch drains performed (matches the engine's drain counter).
    pub batches_drained: Counter,
    /// Accumulated access cost over all served requests.
    pub access_cost: Counter,
    /// Accumulated adjustment cost over all served requests.
    pub adjustment_cost: Counter,
    /// Accumulated migration cost units over all reshard handovers.
    pub migration_units: Counter,
    /// Migration cost units spent on touched shards (the moved-element
    /// delete/re-insert work; equals the migration total, split out so the
    /// ledger separates moving work from rebuilding work).
    pub migration_touched_units: Counter,
    /// Tree nodes reconstructed across all handovers (touched shards only;
    /// untouched shards keep their live trees).
    pub migration_rebuilt_nodes: Counter,
    /// Snapshots published through the hub.
    pub snapshot_publishes: Counter,
    /// Lookups answered from published snapshots (all readers combined).
    pub lookups_answered: Counter,
    /// Connections accepted since startup.
    pub connections_total: Counter,
    /// Protocol messages currently queued in the ingest channel.
    pub ingest_queue_depth: Gauge,
    /// The engine's current reshard epoch.
    pub reshard_epoch: Gauge,
    /// The read side's current snapshot version.
    pub snapshot_version: Gauge,
    /// Connections currently being served.
    pub connections_active: Gauge,
    /// Requests buffered per shard, awaiting the next drain.
    pub shard_buffered: Vec<Gauge>,
    /// Wire frames seen, by frame tag (received and sent combined).
    pub wire_frames: [Counter; WIRE_TAG_COUNT],
    /// Wire bytes seen, by frame tag (length prefix included).
    pub wire_bytes: [Counter; WIRE_TAG_COUNT],
    /// Connection-pool task gauges.
    pub pool: TaskGauges,
    /// Wall-clock latency of each drain (advisory: never oracle-checked).
    pub drain_latency: AtomicHistogram,
    /// Wall-clock latency of each reshard handover, drain fence excluded
    /// (advisory: never oracle-checked).
    pub handover_latency: AtomicHistogram,
}

impl EngineMetrics {
    /// A fresh registry for an engine with `shards` shards, all zeros.
    pub fn new(shards: u32) -> Self {
        EngineMetrics {
            requests_served: Counter::new(),
            batches_drained: Counter::new(),
            access_cost: Counter::new(),
            adjustment_cost: Counter::new(),
            migration_units: Counter::new(),
            migration_touched_units: Counter::new(),
            migration_rebuilt_nodes: Counter::new(),
            snapshot_publishes: Counter::new(),
            lookups_answered: Counter::new(),
            connections_total: Counter::new(),
            ingest_queue_depth: Gauge::new(),
            reshard_epoch: Gauge::new(),
            snapshot_version: Gauge::new(),
            connections_active: Gauge::new(),
            shard_buffered: (0..shards).map(|_| Gauge::new()).collect(),
            wire_frames: std::array::from_fn(|_| Counter::new()),
            wire_bytes: std::array::from_fn(|_| Counter::new()),
            pool: TaskGauges::new(),
            drain_latency: AtomicHistogram::new(),
            handover_latency: AtomicHistogram::new(),
        }
    }

    /// Number of shards the per-shard gauges cover.
    pub fn shards(&self) -> u32 {
        self.shard_buffered.len() as u32
    }

    /// Counts one wire frame of `frame_bytes` total bytes (length prefix
    /// included) under its tag. Unknown tags are ignored — the codec rejects
    /// them separately, and a counter slot per garbage byte would be an
    /// amplification vector.
    #[inline]
    pub fn note_wire_frame(&self, tag: u8, frame_bytes: usize) {
        if let Some(frames) = self.wire_frames.get(tag as usize) {
            frames.inc();
            self.wire_bytes[tag as usize].add(frame_bytes as u64);
        }
    }

    /// Freezes every metric into an ordered, wire-encodable
    /// [`MetricsSnapshot`]. Allocates — call it from polling paths (the
    /// `Stats` frame handler, dump-at-exit), never from the hot path.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = vec![
            (
                names::REQUESTS_SERVED.to_owned(),
                self.requests_served.get(),
            ),
            (
                names::BATCHES_DRAINED.to_owned(),
                self.batches_drained.get(),
            ),
            (names::ACCESS_COST.to_owned(), self.access_cost.get()),
            (
                names::ADJUSTMENT_COST.to_owned(),
                self.adjustment_cost.get(),
            ),
            (
                names::MIGRATION_UNITS.to_owned(),
                self.migration_units.get(),
            ),
            (
                names::MIGRATION_TOUCHED_UNITS.to_owned(),
                self.migration_touched_units.get(),
            ),
            (
                names::MIGRATION_REBUILT_NODES.to_owned(),
                self.migration_rebuilt_nodes.get(),
            ),
            (
                names::SNAPSHOT_PUBLISHES.to_owned(),
                self.snapshot_publishes.get(),
            ),
            (
                names::LOOKUPS_ANSWERED.to_owned(),
                self.lookups_answered.get(),
            ),
            (
                names::CONNECTIONS_TOTAL.to_owned(),
                self.connections_total.get(),
            ),
            (names::POOL_COMPLETED.to_owned(), self.pool.completed.get()),
        ];
        for (tag, counter) in self.wire_frames.iter().enumerate() {
            counters.push((names::wire_frames(tag), counter.get()));
        }
        for (tag, counter) in self.wire_bytes.iter().enumerate() {
            counters.push((names::wire_bytes(tag), counter.get()));
        }
        let mut gauges = vec![
            (
                names::INGEST_QUEUE_DEPTH.to_owned(),
                self.ingest_queue_depth.get(),
            ),
            (names::RESHARD_EPOCH.to_owned(), self.reshard_epoch.get()),
            (
                names::SNAPSHOT_VERSION.to_owned(),
                self.snapshot_version.get(),
            ),
            (
                names::CONNECTIONS_ACTIVE.to_owned(),
                self.connections_active.get(),
            ),
            (names::POOL_QUEUED.to_owned(), self.pool.queued.get()),
            (names::POOL_RUNNING.to_owned(), self.pool.running.get()),
        ];
        for (shard, gauge) in self.shard_buffered.iter().enumerate() {
            gauges.push((names::shard_buffered(shard as u32), gauge.get()));
        }
        let histograms = vec![
            (
                names::DRAIN_LATENCY.to_owned(),
                self.drain_latency.snapshot(),
            ),
            (
                names::HANDOVER_LATENCY.to_owned(),
                self.handover_latency.snapshot(),
            ),
        ];
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A malformed [`MetricsSnapshot`] wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetricsCodecError {
    /// The payload ended inside a field.
    Truncated,
    /// A metric name was not valid UTF-8.
    BadName,
    /// A histogram's sparse bucket list was out of contract.
    BadHistogram {
        /// What was wrong.
        reason: &'static str,
    },
    /// Bytes remained after the last section.
    TrailingBytes,
    /// A section count implied more data than the payload holds.
    Oversized,
}

impl fmt::Display for MetricsCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsCodecError::Truncated => f.write_str("metrics payload ended inside a field"),
            MetricsCodecError::BadName => f.write_str("metric name is not valid UTF-8"),
            MetricsCodecError::BadHistogram { reason } => {
                write!(f, "malformed histogram encoding: {reason}")
            }
            MetricsCodecError::TrailingBytes => {
                f.write_str("trailing bytes after the metrics payload")
            }
            MetricsCodecError::Oversized => {
                f.write_str("metrics section count exceeds the payload")
            }
        }
    }
}

impl std::error::Error for MetricsCodecError {}

/// A frozen, ordered view of an [`EngineMetrics`] registry: what the `Stats`
/// wire reply carries and what `satn-load --stats` renders.
///
/// The order of entries is the registry's canonical order, so two snapshots
/// of the same registry are comparable field by field, and the binary
/// encoding is canonical (one encoding per snapshot value).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, LatencyHistogram)>,
}

impl MetricsSnapshot {
    /// The counters, in registry order.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The gauges, in registry order.
    pub fn gauges(&self) -> &[(String, u64)] {
        &self.gauges
    }

    /// The histograms, in registry order.
    pub fn histograms(&self) -> &[(String, LatencyHistogram)] {
        &self.histograms
    }

    /// Looks up a counter by its canonical name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }

    /// Looks up a gauge by its canonical name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, value)| value)
    }

    /// Looks up a histogram by its canonical name.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, histogram)| histogram)
    }

    /// Appends the canonical binary encoding to `buf` (all integers
    /// little-endian): three sections — counters, gauges, histograms — each
    /// a `u32` entry count followed by its entries. Counter/gauge entries
    /// are `u16` name length + name bytes + `u64` value; histogram entries
    /// are `u16` name length + name bytes + `u64` exact max + `u32` pair
    /// count + ascending `(u16 bucket index, u64 count)` pairs over the
    /// non-empty buckets only.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        fn push_name(buf: &mut Vec<u8>, name: &str) {
            let len = u16::try_from(name.len()).expect("metric names are short");
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
        }
        buf.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.counters {
            push_name(buf, name);
            buf.extend_from_slice(&value.to_le_bytes());
        }
        buf.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (name, value) in &self.gauges {
            push_name(buf, name);
            buf.extend_from_slice(&value.to_le_bytes());
        }
        buf.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (name, histogram) in &self.histograms {
            push_name(buf, name);
            buf.extend_from_slice(&histogram.max_nanos().to_le_bytes());
            let pairs: Vec<(usize, u64)> = histogram.nonzero_buckets().collect();
            buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (index, count) in pairs {
                buf.extend_from_slice(&(index as u16).to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
            }
        }
    }

    /// Decodes a payload produced by [`MetricsSnapshot::encode_into`],
    /// validating the full contract: exact field lengths, UTF-8 names,
    /// strictly ascending in-range non-zero histogram buckets, and no
    /// trailing bytes.
    ///
    /// # Errors
    ///
    /// [`MetricsCodecError`] describing the first violation.
    pub fn decode(mut payload: &[u8]) -> Result<Self, MetricsCodecError> {
        let bytes = &mut payload;
        let counters = decode_values(bytes)?;
        let gauges = decode_values(bytes)?;
        let histogram_count = take_u32(bytes)?;
        check_count(histogram_count, bytes.len(), 11)?;
        let mut histograms = Vec::with_capacity(histogram_count as usize);
        for _ in 0..histogram_count {
            let name = take_name(bytes)?;
            let max = take_u64(bytes)?;
            let pair_count = take_u32(bytes)?;
            check_count(pair_count, bytes.len(), 10)?;
            let mut pairs = Vec::with_capacity(pair_count as usize);
            let mut previous: Option<usize> = None;
            for _ in 0..pair_count {
                let index = take_u16(bytes)? as usize;
                let count = take_u64(bytes)?;
                if index >= NUM_BUCKETS {
                    return Err(MetricsCodecError::BadHistogram {
                        reason: "bucket index out of range",
                    });
                }
                if previous.is_some_and(|p| index <= p) {
                    return Err(MetricsCodecError::BadHistogram {
                        reason: "bucket indices must be strictly ascending",
                    });
                }
                if count == 0 {
                    return Err(MetricsCodecError::BadHistogram {
                        reason: "empty buckets must be omitted",
                    });
                }
                previous = Some(index);
                pairs.push((index, count));
            }
            histograms.push((name, LatencyHistogram::from_sparse(max, &pairs)));
        }
        if !payload.is_empty() {
            return Err(MetricsCodecError::TrailingBytes);
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot as Prometheus-style exposition text: one
    /// `name value` line per counter and gauge, and per histogram the
    /// interpolated p50/p90/p99/p999 quantiles (as `{quantile="…"}` labels)
    /// plus `_count` and `_max` lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, histogram) in &self.histograms {
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)] {
                let _ = writeln!(
                    out,
                    "{name}{{quantile=\"{label}\"}} {}",
                    histogram.quantile(q).as_nanos()
                );
            }
            let _ = writeln!(out, "{name}_count {}", histogram.samples());
            let _ = writeln!(out, "{name}_max {}", histogram.max().as_nanos());
        }
        out
    }
}

fn take_u16(bytes: &mut &[u8]) -> Result<u16, MetricsCodecError> {
    let (head, rest) = bytes
        .split_at_checked(2)
        .ok_or(MetricsCodecError::Truncated)?;
    *bytes = rest;
    Ok(u16::from_le_bytes(head.try_into().expect("2-byte split")))
}

fn take_u32(bytes: &mut &[u8]) -> Result<u32, MetricsCodecError> {
    let (head, rest) = bytes
        .split_at_checked(4)
        .ok_or(MetricsCodecError::Truncated)?;
    *bytes = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4-byte split")))
}

fn take_u64(bytes: &mut &[u8]) -> Result<u64, MetricsCodecError> {
    let (head, rest) = bytes
        .split_at_checked(8)
        .ok_or(MetricsCodecError::Truncated)?;
    *bytes = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8-byte split")))
}

fn take_name(bytes: &mut &[u8]) -> Result<String, MetricsCodecError> {
    let len = take_u16(bytes)? as usize;
    let (name, rest) = bytes
        .split_at_checked(len)
        .ok_or(MetricsCodecError::Truncated)?;
    *bytes = rest;
    String::from_utf8(name.to_vec()).map_err(|_| MetricsCodecError::BadName)
}

/// Rejects a section count whose minimum possible byte footprint already
/// exceeds the remaining payload — so a hostile count cannot reserve
/// gigabytes before the per-entry reads catch the truncation.
fn check_count(
    count: u32,
    remaining: usize,
    min_entry_bytes: usize,
) -> Result<(), MetricsCodecError> {
    if (count as u64).saturating_mul(min_entry_bytes as u64) > remaining as u64 {
        return Err(MetricsCodecError::Oversized);
    }
    Ok(())
}

fn decode_values(bytes: &mut &[u8]) -> Result<Vec<(String, u64)>, MetricsCodecError> {
    let count = take_u32(bytes)?;
    check_count(count, bytes.len(), 10)?;
    let mut values = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let name = take_name(bytes)?;
        let value = take_u64(bytes)?;
        values.push((name, value));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_registry() -> EngineMetrics {
        let metrics = EngineMetrics::new(3);
        metrics.requests_served.add(1_000);
        metrics.batches_drained.add(4);
        metrics.access_cost.add(3_456);
        metrics.adjustment_cost.add(789);
        metrics.reshard_epoch.set(2);
        metrics.shard_buffered[1].set(17);
        metrics.note_wire_frame(1, 4096);
        metrics.note_wire_frame(1, 128);
        metrics.note_wire_frame(4, 13);
        metrics.drain_latency.record(Duration::from_micros(250));
        metrics.drain_latency.record(Duration::from_micros(90));
        metrics
    }

    #[test]
    fn snapshots_carry_every_registered_metric() {
        let snapshot = sample_registry().snapshot();
        assert_eq!(snapshot.counter(names::REQUESTS_SERVED), Some(1_000));
        assert_eq!(snapshot.counter(names::BATCHES_DRAINED), Some(4));
        assert_eq!(snapshot.counter(names::ACCESS_COST), Some(3_456));
        assert_eq!(snapshot.counter(&names::wire_frames(1)), Some(2));
        assert_eq!(snapshot.counter(&names::wire_bytes(1)), Some(4_224));
        assert_eq!(snapshot.counter(&names::wire_frames(4)), Some(1));
        assert_eq!(snapshot.gauge(names::RESHARD_EPOCH), Some(2));
        assert_eq!(snapshot.gauge(&names::shard_buffered(1)), Some(17));
        assert_eq!(snapshot.gauge(&names::shard_buffered(0)), Some(0));
        assert_eq!(snapshot.counter("no_such_metric"), None);
        let drain = snapshot.histogram(names::DRAIN_LATENCY).unwrap();
        assert_eq!(drain.samples(), 2);
        assert_eq!(drain.max(), Duration::from_micros(250));
    }

    #[test]
    fn wire_frame_counts_ignore_unknown_tags() {
        let metrics = EngineMetrics::new(1);
        metrics.note_wire_frame(200, 1_000_000);
        let snapshot = metrics.snapshot();
        for tag in 0..WIRE_TAG_COUNT {
            assert_eq!(snapshot.counter(&names::wire_frames(tag)), Some(0));
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        let snapshot = sample_registry().snapshot();
        let mut buf = Vec::new();
        snapshot.encode_into(&mut buf);
        let decoded = MetricsSnapshot::decode(&buf).unwrap();
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn empty_snapshots_roundtrip() {
        let snapshot = MetricsSnapshot::default();
        let mut buf = Vec::new();
        snapshot.encode_into(&mut buf);
        assert_eq!(MetricsSnapshot::decode(&buf).unwrap(), snapshot);
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let snapshot = sample_registry().snapshot();
        let mut buf = Vec::new();
        snapshot.encode_into(&mut buf);
        for cut in [1, 5, buf.len() / 2, buf.len() - 1] {
            assert!(
                MetricsSnapshot::decode(&buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut extended = buf.clone();
        extended.push(0);
        assert_eq!(
            MetricsSnapshot::decode(&extended),
            Err(MetricsCodecError::TrailingBytes)
        );
    }

    #[test]
    fn hostile_section_counts_fail_before_reserving_memory() {
        // A payload claiming u32::MAX counters but holding none.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            MetricsSnapshot::decode(&buf),
            Err(MetricsCodecError::Oversized)
        );
    }

    #[test]
    fn malformed_histogram_buckets_are_rejected() {
        fn encode_with_pairs(pairs: &[(u16, u64)]) -> Vec<u8> {
            let mut buf = Vec::new();
            buf.extend_from_slice(&0u32.to_le_bytes()); // counters
            buf.extend_from_slice(&0u32.to_le_bytes()); // gauges
            buf.extend_from_slice(&1u32.to_le_bytes()); // one histogram
            buf.extend_from_slice(&1u16.to_le_bytes());
            buf.push(b'h');
            buf.extend_from_slice(&100u64.to_le_bytes()); // max
            buf.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for &(index, count) in pairs {
                buf.extend_from_slice(&index.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
            }
            buf
        }
        // Out-of-range bucket index.
        assert!(matches!(
            MetricsSnapshot::decode(&encode_with_pairs(&[(u16::MAX, 1)])),
            Err(MetricsCodecError::BadHistogram { .. })
        ));
        // Non-ascending indices.
        assert!(matches!(
            MetricsSnapshot::decode(&encode_with_pairs(&[(5, 1), (5, 2)])),
            Err(MetricsCodecError::BadHistogram { .. })
        ));
        // Explicit zero count.
        assert!(matches!(
            MetricsSnapshot::decode(&encode_with_pairs(&[(5, 0)])),
            Err(MetricsCodecError::BadHistogram { .. })
        ));
        // A valid single pair decodes.
        let decoded = MetricsSnapshot::decode(&encode_with_pairs(&[(5, 3)])).unwrap();
        assert_eq!(decoded.histogram("h").unwrap().samples(), 3);
    }

    #[test]
    fn invalid_utf8_names_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes()); // one counter
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]); // not UTF-8
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            MetricsSnapshot::decode(&buf),
            Err(MetricsCodecError::BadName)
        );
    }

    #[test]
    fn prometheus_rendering_lists_names_and_quantiles() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("satn_requests_served_total 1000"));
        assert!(text.contains("satn_reshard_epoch 2"));
        assert!(text.contains("satn_shard_buffered_requests{shard=\"1\"} 17"));
        assert!(text.contains("satn_wire_frames_total{tag=\"1\"} 2"));
        assert!(text.contains("satn_drain_latency_nanos{quantile=\"0.5\"}"));
        assert!(text.contains("satn_drain_latency_nanos_count 2"));
        assert!(text.contains("satn_drain_latency_nanos_max 250000"));
    }
}
