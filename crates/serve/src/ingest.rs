//! Transport-agnostic request ingestion: the [`Ingest`] trait and its
//! in-process channel implementation.
//!
//! Producers (workload generators, sockets, test threads) speak the
//! ingestion protocol through any [`Ingest`] implementor — the bounded MPSC
//! [`IngestSender`] here, or the TCP-backed [`TcpIngest`](crate::TcpIngest)
//! — and the engine owns the single [`IngestQueue`] consumer, serving
//! messages in arrival order. The channel is **bounded**, so a producer that
//! outruns the engine blocks on [`IngestSender::send_burst`] — backpressure
//! instead of unbounded memory. (The TCP transport inherits the same
//! property through the socket: the server forwards frames into this channel
//! and only acknowledges once they are enqueued.)
//!
//! The drain/flush protocol: a [`Ingest::flush`] message forces the engine
//! to drain every pending per-shard batch before reading further input;
//! dropping all senders closes the queue, upon which the engine drains once
//! more and returns. Determinism: the per-shard request order is the queue
//! arrival order, so a single producer (or any externally ordered producer
//! set) yields bit-identical replays at every thread count — over a channel
//! or over a wire.

use crate::error::ServeError;
use crate::snapshot::{LookupAnswer, SnapshotReader};
use satn_obs::{EngineMetrics, MetricsSnapshot};
use satn_tree::ElementId;
use satn_workloads::shard::ReshardPlan;
use std::sync::mpsc;
use std::sync::Arc;

/// One message of the ingestion protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestMessage {
    /// A single request (no per-message heap allocation on the producer).
    Request(ElementId),
    /// A burst of requests to route and enqueue in burst order.
    Burst(Vec<ElementId>),
    /// Force a drain of all pending per-shard batches before continuing.
    Flush,
    /// A reshard control frame: the engine performs the full deterministic
    /// handover — drain fence, element migration, epoch bump — before
    /// reading further input, so resharding composes with in-flight bursts
    /// exactly like a flush does.
    Reshard(ReshardPlan),
}

/// The transport-agnostic producer half of the ingestion protocol.
///
/// Implementors carry the four protocol verbs over some transport: the
/// in-process [`IngestSender`] moves them through a bounded channel, the
/// network client [`TcpIngest`](crate::TcpIngest) encodes them as
/// length-prefixed wire frames. Code written against this trait — replay
/// drivers, smoke binaries, tests — runs identically against either, which
/// is what lets the epoch-replay oracle validate the networked engine.
///
/// All methods take `&mut self` so implementors may keep per-connection
/// state (write buffers, acknowledgement windows); the channel implementor
/// simply ignores the exclusivity.
pub trait Ingest {
    /// Submits a single request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consuming peer is gone; transport
    /// implementors may also surface [`ServeError::Io`] /
    /// [`ServeError::Protocol`].
    fn send(&mut self, element: ElementId) -> Result<(), ServeError>;

    /// Submits a burst of requests, served in burst order.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ingest::send`].
    fn send_burst(&mut self, burst: &[ElementId]) -> Result<(), ServeError>;

    /// Forces the engine to drain all pending per-shard batches before
    /// reading further input.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ingest::send`].
    fn flush(&mut self) -> Result<(), ServeError>;

    /// Requests a reshard: every request submitted before this call is
    /// served under the old epoch, every request after it under the new
    /// one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Ingest::send`].
    fn reshard(&mut self, plan: &ReshardPlan) -> Result<(), ServeError>;

    /// Looks up an element's current placement — the **read phase** of the
    /// protocol. Lookups never enter the write path: they are answered from
    /// the engine's most recently published snapshot (in-process via a
    /// [`SnapshotReader`], over the network via a `Lookup`/`Found` frame
    /// exchange), so they neither mutate the trees nor contend with the
    /// shard drain path.
    ///
    /// # Errors
    ///
    /// [`ServeError::LookupUnsupported`] if this handle has no read side
    /// attached, [`ServeError::OutOfUniverse`] for an element the engine
    /// does not hold, plus the transport errors of [`Ingest::send`].
    fn lookup(&mut self, element: ElementId) -> Result<LookupAnswer, ServeError>;

    /// Polls the engine's runtime metrics — the observability verb of the
    /// protocol. Like [`Ingest::lookup`] this never enters the write path:
    /// in-process it freezes the shared [`EngineMetrics`] registry, over the
    /// network it is a `Stats`/`StatsReply` frame exchange.
    ///
    /// # Errors
    ///
    /// [`ServeError::StatsUnsupported`] if this handle has no metrics
    /// registry attached, plus the transport errors of [`Ingest::send`].
    fn stats(&mut self) -> Result<MetricsSnapshot, ServeError>;
}

/// Replays a request stream through any [`Ingest`] transport in bursts of
/// `burst_size` (the common shape of every driver, smoke binary, and load
/// generator in the workspace). A `burst_size` of 1 degenerates to
/// per-request [`Ingest::send`] calls.
///
/// # Errors
///
/// Propagates the first transport error.
///
/// # Panics
///
/// Panics if `burst_size` is zero.
pub fn replay<I: Ingest + ?Sized>(
    ingest: &mut I,
    stream: impl IntoIterator<Item = ElementId>,
    burst_size: usize,
) -> Result<(), ServeError> {
    assert!(burst_size > 0, "the replay burst size must be positive");
    let mut burst = Vec::with_capacity(burst_size);
    for element in stream {
        burst.push(element);
        if burst.len() == burst_size {
            ingest.send_burst(&burst)?;
            burst.clear();
        }
    }
    if !burst.is_empty() {
        ingest.send_burst(&burst)?;
    }
    Ok(())
}

/// The in-process producer half: cloneable, blocking on a full queue
/// (backpressure).
///
/// A plain sender carries only the write verbs; attach a
/// [`SnapshotReader`] with [`IngestSender::with_snapshots`] to serve
/// [`Ingest::lookup`] as well (each clone of the sender gets its own
/// independently cached read handle).
#[derive(Debug, Clone)]
pub struct IngestSender {
    inner: mpsc::SyncSender<IngestMessage>,
    snapshots: Option<SnapshotReader>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl IngestSender {
    /// Attaches the read side: lookups on the returned sender are answered
    /// lock-free from the engine's published snapshots.
    #[must_use]
    pub fn with_snapshots(mut self, reader: SnapshotReader) -> Self {
        self.snapshots = Some(reader);
        self
    }

    /// The attached metrics registry, if the channel was built with
    /// [`ingest_channel_with_metrics`]. The network layer uses this to reach
    /// the engine's registry through the sender it already holds.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// Enqueues one protocol message, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consumer has been dropped.
    pub fn send_message(&self, message: IngestMessage) -> Result<(), ServeError> {
        // Count before the (possibly blocking) send so the gauge includes
        // the message a blocked producer is holding at the door; undo on a
        // closed queue, whose messages never became visible to anyone.
        if let Some(metrics) = &self.metrics {
            metrics.ingest_queue_depth.inc();
        }
        self.inner.send(message).map_err(|_| {
            if let Some(metrics) = &self.metrics {
                metrics.ingest_queue_depth.dec();
            }
            ServeError::Closed
        })
    }

    /// Enqueues a single request (allocation-free on the producer side).
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consumer has been dropped.
    pub fn send(&self, element: ElementId) -> Result<(), ServeError> {
        self.send_message(IngestMessage::Request(element))
    }

    /// Enqueues a burst of requests (served in burst order), blocking while
    /// the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consumer has been dropped.
    pub fn send_burst(&self, burst: Vec<ElementId>) -> Result<(), ServeError> {
        self.send_message(IngestMessage::Burst(burst))
    }

    /// Asks the engine to drain all pending per-shard batches before reading
    /// further input.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consumer has been dropped.
    pub fn flush(&self) -> Result<(), ServeError> {
        self.send_message(IngestMessage::Flush)
    }

    /// Asks the engine to reshard: every request enqueued before this frame
    /// is served under the old epoch (the handover starts with a drain
    /// fence), every request after it under the new one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] if the consumer has been dropped.
    pub fn reshard(&self, plan: ReshardPlan) -> Result<(), ServeError> {
        self.send_message(IngestMessage::Reshard(plan))
    }

    /// Answers a lookup from the attached [`SnapshotReader`] — never touches
    /// the queue, never blocks on the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::LookupUnsupported`] without an attached reader,
    /// [`ServeError::OutOfUniverse`] for an unknown element.
    pub fn lookup(&mut self, element: ElementId) -> Result<LookupAnswer, ServeError> {
        let reader = self
            .snapshots
            .as_mut()
            .ok_or(ServeError::LookupUnsupported)?;
        let universe = reader.snapshot().partition().universe();
        reader
            .lookup(element)
            .ok_or(ServeError::OutOfUniverse { element, universe })
    }

    /// Freezes the attached metrics registry into a snapshot — never touches
    /// the queue, never blocks on the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::StatsUnsupported`] without an attached registry.
    pub fn stats(&self) -> Result<MetricsSnapshot, ServeError> {
        self.metrics
            .as_ref()
            .map(|metrics| metrics.snapshot())
            .ok_or(ServeError::StatsUnsupported)
    }
}

impl Ingest for IngestSender {
    fn send(&mut self, element: ElementId) -> Result<(), ServeError> {
        IngestSender::send(self, element)
    }

    fn send_burst(&mut self, burst: &[ElementId]) -> Result<(), ServeError> {
        IngestSender::send_burst(self, burst.to_vec())
    }

    fn flush(&mut self) -> Result<(), ServeError> {
        IngestSender::flush(self)
    }

    fn reshard(&mut self, plan: &ReshardPlan) -> Result<(), ServeError> {
        IngestSender::reshard(self, plan.clone())
    }

    fn lookup(&mut self, element: ElementId) -> Result<LookupAnswer, ServeError> {
        IngestSender::lookup(self, element)
    }

    fn stats(&mut self) -> Result<MetricsSnapshot, ServeError> {
        IngestSender::stats(self)
    }
}

/// The consumer half, owned by the serving engine.
#[derive(Debug)]
pub struct IngestQueue {
    inner: mpsc::Receiver<IngestMessage>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl IngestQueue {
    /// Blocks for the next message; `None` once every sender is dropped and
    /// the queue is empty (the shutdown signal).
    pub fn recv(&self) -> Option<IngestMessage> {
        let message = self.inner.recv().ok();
        if message.is_some() {
            if let Some(metrics) = &self.metrics {
                metrics.ingest_queue_depth.dec();
            }
        }
        message
    }
}

/// Creates a bounded ingestion channel holding at most `capacity` queued
/// messages (bursts count as one message each).
///
/// # Panics
///
/// Panics if `capacity` is zero (a zero-capacity rendezvous channel would
/// deadlock single-threaded producers).
pub fn ingest_channel(capacity: usize) -> (IngestSender, IngestQueue) {
    build_channel(capacity, None)
}

/// [`ingest_channel`] wired into a metrics registry: senders maintain the
/// registry's `ingest_queue_depth` gauge (incremented on enqueue, decremented
/// on dequeue — both halves installed together, so the gauge cannot drift)
/// and answer [`Ingest::stats`] with registry snapshots. Pass the engine's
/// own [`ShardedEngine::metrics`](crate::ShardedEngine::metrics) `Arc` so
/// channel and engine report into one registry.
///
/// # Panics
///
/// Panics if `capacity` is zero, like [`ingest_channel`].
pub fn ingest_channel_with_metrics(
    capacity: usize,
    metrics: Arc<EngineMetrics>,
) -> (IngestSender, IngestQueue) {
    build_channel(capacity, Some(metrics))
}

fn build_channel(
    capacity: usize,
    metrics: Option<Arc<EngineMetrics>>,
) -> (IngestSender, IngestQueue) {
    assert!(capacity > 0, "the ingest queue capacity must be positive");
    let (sender, receiver) = mpsc::sync_channel(capacity);
    (
        IngestSender {
            inner: sender,
            snapshots: None,
            metrics: metrics.clone(),
        },
        IngestQueue {
            inner: receiver,
            metrics,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_arrive_in_send_order() {
        let (sender, queue) = ingest_channel(16);
        sender.send(ElementId::new(1)).unwrap();
        sender
            .send_burst(vec![ElementId::new(2), ElementId::new(3)])
            .unwrap();
        sender.flush().unwrap();
        drop(sender);
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Request(ElementId::new(1)))
        );
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Burst(vec![
                ElementId::new(2),
                ElementId::new(3)
            ]))
        );
        assert_eq!(queue.recv(), Some(IngestMessage::Flush));
        assert_eq!(queue.recv(), None);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let (sender, queue) = ingest_channel(1);
        sender.send(ElementId::new(0)).unwrap();
        // The queue is full: a second send must block until the consumer
        // makes room. Run it on a helper thread and unblock it by receiving.
        let helper = std::thread::spawn(move || sender.send(ElementId::new(1)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(queue.recv().is_some());
        helper.join().unwrap().unwrap();
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Request(ElementId::new(1)))
        );
    }

    #[test]
    fn sending_into_a_dropped_queue_errors() {
        let (sender, queue) = ingest_channel(4);
        drop(queue);
        let err = sender.send(ElementId::new(0)).unwrap_err();
        assert!(matches!(err, ServeError::Closed));
        assert!(err.is_disconnect());
        let err = sender.flush().unwrap_err();
        assert!(err.to_string().contains("gone"));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_capacity_is_rejected() {
        ingest_channel(0);
    }

    #[test]
    fn the_trait_and_inherent_methods_agree() {
        let (mut sender, queue) = ingest_channel(8);
        let ingest: &mut dyn Ingest = &mut sender;
        ingest.send(ElementId::new(7)).unwrap();
        ingest
            .send_burst(&[ElementId::new(8), ElementId::new(9)])
            .unwrap();
        ingest.flush().unwrap();
        ingest.reshard(&ReshardPlan::empty()).unwrap();
        drop(sender);
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Request(ElementId::new(7)))
        );
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Burst(vec![
                ElementId::new(8),
                ElementId::new(9)
            ]))
        );
        assert_eq!(queue.recv(), Some(IngestMessage::Flush));
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Reshard(ReshardPlan::empty()))
        );
        assert_eq!(queue.recv(), None);
    }

    #[test]
    fn lookups_without_a_reader_are_unsupported_not_silent() {
        let (mut sender, _queue) = ingest_channel(4);
        let err = Ingest::lookup(&mut sender, ElementId::new(0)).unwrap_err();
        assert!(matches!(err, ServeError::LookupUnsupported));
        assert!(err.to_string().contains("snapshot reader"));
    }

    #[test]
    fn stats_without_a_registry_are_unsupported_not_silent() {
        let (mut sender, _queue) = ingest_channel(4);
        let err = Ingest::stats(&mut sender).unwrap_err();
        assert!(matches!(err, ServeError::StatsUnsupported));
        assert!(err.to_string().contains("metrics"));
    }

    #[test]
    fn metered_channels_track_queue_depth_and_serve_stats() {
        use satn_obs::names;
        let metrics = Arc::new(EngineMetrics::new(1));
        let (mut sender, queue) = ingest_channel_with_metrics(8, Arc::clone(&metrics));
        sender.send(ElementId::new(0)).unwrap();
        sender.send_burst(vec![ElementId::new(1)]).unwrap();
        assert_eq!(metrics.ingest_queue_depth.get(), 2);
        // The sender's stats verb reads the shared registry.
        let snapshot = Ingest::stats(&mut sender).unwrap();
        assert_eq!(snapshot.gauge(names::INGEST_QUEUE_DEPTH), Some(2));
        assert!(queue.recv().is_some());
        assert_eq!(metrics.ingest_queue_depth.get(), 1);
        assert!(queue.recv().is_some());
        assert_eq!(metrics.ingest_queue_depth.get(), 0);
        // A send into a dropped queue is undone in the gauge.
        drop(queue);
        assert!(sender.send(ElementId::new(2)).is_err());
        assert_eq!(metrics.ingest_queue_depth.get(), 0);
    }

    #[test]
    fn replay_chunks_the_stream_into_bursts() {
        let (mut sender, queue) = ingest_channel(8);
        let stream: Vec<ElementId> = (0..7).map(ElementId::new).collect();
        replay(&mut sender, stream, 3).unwrap();
        drop(sender);
        let mut bursts = Vec::new();
        while let Some(IngestMessage::Burst(burst)) = queue.recv() {
            bursts.push(burst.len());
        }
        assert_eq!(bursts, vec![3, 3, 1]);
    }
}
