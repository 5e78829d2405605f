//! The TCP transport of the ingestion protocol: the client-side
//! [`TcpIngest`] implementor of [`Ingest`] and the server-side accept loop
//! feeding an [`IngestSender`].
//!
//! ```text
//!  client                         server (satnd)
//!  ───────                        ──────────────────────────────────────
//!  TcpIngest ── frames ──▶ accept loop (one scoped thread per connection)
//!      ▲                        │ decode, forward
//!      └────── Ack{seq} ────────┤
//!                               ▼ bounded channel (backpressure)
//!                          IngestSender ──▶ IngestQueue ──▶ ShardedEngine
//! ```
//!
//! **Backpressure end to end:** the server acknowledges a frame only after
//! it is accepted by the bounded ingest channel, and the client sends at
//! most `window` unacknowledged frames before blocking on acks. A slow
//! engine therefore stalls the channel, which stalls acknowledgements,
//! which stalls every client — no unbounded buffering anywhere.
//!
//! **When replies are written:** each connection appends its replies to one
//! reused buffer and writes the buffer to the socket in one `write_all`
//! only where the server would otherwise stop and wait: before reading a
//! frame whose bytes have not all arrived yet, before handing an ingest
//! frame to the channel (a full channel blocks), and right after each
//! `Ack`. A burst of pipelined lookups that arrived together is therefore
//! answered with one write, not one write per `Found`, while a write-only
//! stream makes exactly one write per ack at the moment its frame was
//! enqueued — so the backpressure contract above is unchanged. The
//! advisory `satn_wire_reply_writes_total` counter counts these writes. On
//! an error, the queued replies are still written (best effort) before the
//! connection is shut down.
//!
//! **Determinism:** the engine behind the queue never knows which transport
//! a message crossed, so a single connection replaying a stream in order is
//! bit-identical to the same stream submitted in-process (asserted by
//! `tests/net_determinism.rs` and the `satnd --verify` oracle). Multiple
//! concurrent connections interleave at the channel exactly like multiple
//! in-process producers do: each connection's own frame order is preserved.
//!
//! **Failure isolation:** a malformed frame or I/O error closes only its
//! own connection (reported per connection in [`ConnectionReport`]); the
//! engine and the other connections keep running. A panicking connection
//! thread poisons nothing that matters: the report mutex recovers via
//! [`PoisonError::into_inner`], so the accept loop and the remaining
//! connections carry on.
//!
//! **The read path:** a `Lookup` frame never enters the channel above.
//! When the accept loop is given a [`SnapshotReader`], each connection
//! thread answers lookups directly from the engine's published snapshot —
//! lock-free, off the write path — and replies with a `Found` frame.
//! Lookups carry no sequence number and consume no window slot; the
//! `Found` reply is their acknowledgement. The engine adds to its served
//! counter only after publishing the snapshot that covers those requests,
//! so a `StatsReply` reporting `served = N` guarantees that every later
//! lookup on the connection is answered from a snapshot of at least `N`.

use crate::error::ServeError;
use crate::ingest::{Ingest, IngestMessage, IngestSender};
use crate::snapshot::{LookupAnswer, SnapshotReader};
use crate::wire::{encode_frame, read_frame, write_frame, Frame, WireError, MAX_BURST_ELEMENTS};
use satn_obs::{EngineMetrics, MetricsSnapshot};
use satn_tree::ElementId;
use satn_workloads::shard::ReshardPlan;
use std::fmt;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Mutex, PoisonError};

/// Default number of unacknowledged frames a [`TcpIngest`] keeps in flight.
pub const DEFAULT_WINDOW: usize = 32;

/// The TCP implementor of [`Ingest`]: encodes protocol messages as wire
/// frames on a connection to a `satnd` server, pipelining up to `window`
/// frames ahead of the server's cumulative acknowledgements.
pub struct TcpIngest {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    write_scratch: Vec<u8>,
    read_scratch: Vec<u8>,
    sent: u64,
    acked: u64,
    window: usize,
}

impl TcpIngest {
    /// Connects to a `satnd` server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(TcpIngest {
            reader,
            writer,
            write_scratch: Vec::new(),
            read_scratch: Vec::new(),
            sent: 0,
            acked: 0,
            window: DEFAULT_WINDOW,
        })
    }

    /// Overrides the pipelining window (builder style). A window of 1 makes
    /// every frame a synchronous round trip.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (nothing could ever be sent).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "the pipelining window must be positive");
        self.window = window;
        self
    }

    /// Frames sent so far on this connection.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames the server has acknowledged so far (cumulative). An ack means
    /// the frame was accepted into the engine's ingest queue.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Validates and applies one cumulative acknowledgement.
    fn note_ack(&mut self, seq: u64) -> Result<(), ServeError> {
        if seq <= self.acked || seq > self.sent {
            return Err(WireError::Malformed {
                reason: "acknowledgement sequence out of range",
            }
            .into());
        }
        self.acked = seq;
        Ok(())
    }

    /// Reads one acknowledgement frame from the server.
    fn recv_ack(&mut self) -> Result<(), ServeError> {
        match read_frame(&mut self.reader, &mut self.read_scratch)? {
            Some(Frame::Ack { seq }) => self.note_ack(seq),
            Some(_) => Err(WireError::Malformed {
                reason: "expected an acknowledgement frame",
            }
            .into()),
            None => Err(ServeError::Closed),
        }
    }

    fn send_frame(&mut self, message: IngestMessage) -> Result<(), ServeError> {
        while self.sent - self.acked >= self.window as u64 {
            self.recv_ack()?;
        }
        write_frame(
            &mut self.writer,
            &Frame::Ingest(message),
            &mut self.write_scratch,
        )?;
        self.sent += 1;
        Ok(())
    }

    /// Waits until every sent frame is acknowledged (without closing the
    /// connection), then returns the count — the network analogue of a
    /// producer observing that its sends were all accepted.
    ///
    /// # Errors
    ///
    /// Any transport or protocol error while draining acknowledgements.
    pub fn drain_acks(&mut self) -> Result<u64, ServeError> {
        while self.acked < self.sent {
            self.recv_ack()?;
        }
        Ok(self.acked)
    }

    /// Performs the orderly shutdown handshake: drains all outstanding
    /// acknowledgements, half-closes the write side (the server sees a
    /// clean end of stream, exactly like the last in-process sender
    /// dropping), and waits for the server to close its side. Returns the
    /// total number of acknowledged frames.
    ///
    /// # Errors
    ///
    /// Any transport or protocol error during the handshake.
    pub fn finish(mut self) -> Result<u64, ServeError> {
        self.drain_acks()?;
        self.writer.shutdown(Shutdown::Write)?;
        match read_frame(&mut self.reader, &mut self.read_scratch)? {
            None => Ok(self.acked),
            Some(_) => Err(WireError::Malformed {
                reason: "unexpected frame after the shutdown handshake",
            }
            .into()),
        }
    }
}

impl Ingest for TcpIngest {
    fn send(&mut self, element: ElementId) -> Result<(), ServeError> {
        self.send_frame(IngestMessage::Request(element))
    }

    /// A burst longer than [`MAX_BURST_ELEMENTS`] is split into cap-sized
    /// frames client-side — the elements still arrive in burst order, one
    /// frame after another on the same ordered connection, so the engine
    /// serves the exact same request sequence. (Before this split existed,
    /// an over-cap burst encoded a frame the server rejected as oversized,
    /// silently killing the connection mid-stream.)
    fn send_burst(&mut self, burst: &[ElementId]) -> Result<(), ServeError> {
        if burst.is_empty() {
            // An explicit empty burst is still one protocol message.
            return self.send_frame(IngestMessage::Burst(Vec::new()));
        }
        for chunk in burst.chunks(MAX_BURST_ELEMENTS) {
            self.send_frame(IngestMessage::Burst(chunk.to_vec()))?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ServeError> {
        self.send_frame(IngestMessage::Flush)
    }

    fn reshard(&mut self, plan: &ReshardPlan) -> Result<(), ServeError> {
        self.send_frame(IngestMessage::Reshard(plan.clone()))
    }

    /// Sends a `Lookup` frame and blocks for its `Found` reply. Lookups
    /// take no window slot and no acknowledgement — but acknowledgements
    /// for previously pipelined write frames may arrive first (the server
    /// replies strictly in request order), so they are absorbed here.
    fn lookup(&mut self, element: ElementId) -> Result<LookupAnswer, ServeError> {
        write_frame(
            &mut self.writer,
            &Frame::Lookup { element },
            &mut self.write_scratch,
        )?;
        loop {
            match read_frame(&mut self.reader, &mut self.read_scratch)? {
                Some(Frame::Found(answer)) => {
                    if answer.element != element {
                        return Err(WireError::Malformed {
                            reason: "found frame answers a different element",
                        }
                        .into());
                    }
                    return Ok(answer);
                }
                Some(Frame::Ack { seq }) => self.note_ack(seq)?,
                Some(_) => {
                    return Err(WireError::Malformed {
                        reason: "expected a found or acknowledgement frame",
                    }
                    .into())
                }
                None => return Err(ServeError::Closed),
            }
        }
    }

    /// Sends a `Stats` frame and blocks for its `StatsReply`. Like
    /// [`lookup`](Ingest::lookup), a stats poll takes no window slot and
    /// absorbs any acknowledgements for pipelined write frames that arrive
    /// ahead of the reply.
    fn stats(&mut self) -> Result<MetricsSnapshot, ServeError> {
        write_frame(&mut self.writer, &Frame::Stats, &mut self.write_scratch)?;
        loop {
            match read_frame(&mut self.reader, &mut self.read_scratch)? {
                Some(Frame::StatsReply(snapshot)) => return Ok(snapshot),
                Some(Frame::Ack { seq }) => self.note_ack(seq)?,
                Some(_) => {
                    return Err(WireError::Malformed {
                        reason: "expected a stats reply or acknowledgement frame",
                    }
                    .into())
                }
                None => return Err(ServeError::Closed),
            }
        }
    }
}

impl fmt::Debug for TcpIngest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpIngest")
            .field("peer", &self.writer.peer_addr().ok())
            .field("sent", &self.sent)
            .field("acked", &self.acked)
            .field("window", &self.window)
            .finish()
    }
}

/// The outcome of one served connection.
#[derive(Debug)]
pub struct ConnectionReport {
    /// The connection's accept-order index.
    pub connection: u64,
    /// Ingest frames accepted from this connection into the engine queue.
    pub frames: u64,
    /// Lookups answered from the published snapshot (never enqueued).
    pub lookups: u64,
    /// The error that closed the connection, if it did not end cleanly.
    /// Disconnects ([`ServeError::is_disconnect`]) are recorded here too —
    /// a client vanishing mid-burst is an observation, not a server
    /// failure.
    pub error: Option<ServeError>,
}

impl ConnectionReport {
    /// Whether the connection ran the full protocol to a clean end of
    /// stream.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
    }
}

/// Serves one established connection: ingest frames are forwarded into the
/// engine's bounded channel (blocking there is what propagates engine
/// backpressure onto the socket) and acknowledged once enqueued; lookup
/// frames are answered on the spot from `reads`' published snapshot,
/// without ever touching the channel. Returns the accepted-frame and
/// answered-lookup counts and the error that ended the connection, if any.
fn serve_connection(
    stream: &TcpStream,
    sender: &IngestSender,
    mut reads: Option<SnapshotReader>,
) -> (u64, u64, Option<ServeError>) {
    let metrics = sender.metrics().cloned();
    let mut frames = 0u64;
    let mut lookups = 0u64;
    let mut error = None;
    // Encoded replies not yet written to the socket.
    let mut replies = Vec::new();
    let outcome = (|| -> Result<(), ServeError> {
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut read_scratch = Vec::new();
        loop {
            // Reading past the buffered bytes may block on the client, which
            // may itself be waiting for the replies queued so far.
            if !holds_complete_frame(reader.buffer()) {
                write_replies(stream, &mut replies, metrics.as_deref())?;
            }
            let Some(frame) = read_frame(&mut reader, &mut read_scratch)? else {
                return Ok(());
            };
            if let Some(metrics) = &metrics {
                // The body sits in `read_scratch`; the length prefix adds 4.
                metrics.note_wire_frame(frame.tag(), read_scratch.len() + 4);
            }
            let reply = match frame {
                Frame::Ingest(message) => {
                    // A full channel blocks here, so nothing may wait behind it.
                    write_replies(stream, &mut replies, metrics.as_deref())?;
                    sender.send_message(message)?;
                    frames += 1;
                    Frame::Ack { seq: frames }
                }
                Frame::Lookup { element } => {
                    let reader = reads.as_mut().ok_or(ServeError::LookupUnsupported)?;
                    let answer = reader.lookup(element).ok_or_else(|| {
                        let universe = reader.snapshot().partition().universe();
                        ServeError::OutOfUniverse { element, universe }
                    })?;
                    lookups += 1;
                    Frame::Found(answer)
                }
                Frame::Stats => {
                    let metrics = metrics.as_ref().ok_or(ServeError::StatsUnsupported)?;
                    Frame::StatsReply(metrics.snapshot())
                }
                Frame::Ack { .. } | Frame::Found(_) | Frame::StatsReply(_) => {
                    return Err(WireError::Malformed {
                        reason: "clients may not send server reply frames",
                    }
                    .into())
                }
            };
            let start = replies.len();
            encode_frame(&reply, &mut replies)?;
            if let Some(metrics) = &metrics {
                metrics.note_wire_frame(reply.tag(), replies.len() - start);
            }
            // An ack leaves at once, exactly when the frame was enqueued.
            if matches!(reply, Frame::Ack { .. }) {
                write_replies(stream, &mut replies, metrics.as_deref())?;
            }
        }
    })();
    if let Err(cause) = outcome {
        // Replies to frames served before the failure still go out.
        let _ = write_replies(stream, &mut replies, metrics.as_deref());
        // Closing the read side unblocks a client still writing frames.
        let _ = stream.shutdown(Shutdown::Both);
        error = Some(cause);
    }
    (frames, lookups, error)
}

/// Whether `buffered` starts with a whole frame (length prefix and body),
/// so decoding it cannot block on the socket.
fn holds_complete_frame(buffered: &[u8]) -> bool {
    match buffered.first_chunk::<4>() {
        Some(prefix) => buffered.len() - 4 >= u32::from_le_bytes(*prefix) as usize,
        None => false,
    }
}

/// Writes the queued replies in one `write_all` (counted in the registry's
/// reply-write counter) and empties the queue. Does nothing when no reply
/// is queued.
fn write_replies(
    mut writer: &TcpStream,
    replies: &mut Vec<u8>,
    metrics: Option<&EngineMetrics>,
) -> Result<(), ServeError> {
    if replies.is_empty() {
        return Ok(());
    }
    if let Some(metrics) = metrics {
        metrics.wire_reply_writes.inc();
    }
    let written = writer.write_all(replies);
    replies.clear();
    Ok(written?)
}

/// Appends one report, recovering the vector from a poisoned lock: a
/// panicking connection thread must not take the whole accept loop (and
/// every other connection's report) down with it — per-connection failure
/// isolation extends to panics.
fn record_report(reports: &Mutex<Vec<ConnectionReport>>, report: ConnectionReport) {
    reports
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(report);
}

/// The server-side accept loop: accepts exactly `connections` connections
/// from `listener` and serves each on its own scoped thread, spawned as the
/// connection is accepted, forwarding every decoded ingest frame into
/// `sender`'s bounded channel. Every accepted connection is served at once,
/// so an idle client never stalls another. When `reads` is given, each
/// connection gets its own clone of the [`SnapshotReader`] and answers
/// `Lookup` frames lock-free from the engine's published snapshot; without
/// it, a lookup closes its connection with
/// [`ServeError::LookupUnsupported`]. Returns one [`ConnectionReport`] per
/// connection, in accept order, once every connection has closed.
///
/// Per-connection failures (malformed frames, vanished clients) are
/// **contained**: they appear in that connection's report while every
/// other connection and the engine keep running. A panicking connection
/// thread cannot poison the other reports (the report lock recovers); its
/// panic propagates once every connection thread has been joined. Only
/// listener-level failures — `accept` itself erroring — abort the loop.
///
/// # Errors
///
/// [`ServeError::Io`] if accepting a connection fails; already-accepted
/// connections still run to completion (their reports are lost with the
/// error, but their frames reached the channel).
pub fn serve_connections(
    listener: &TcpListener,
    sender: &IngestSender,
    reads: Option<&SnapshotReader>,
    connections: usize,
) -> Result<Vec<ConnectionReport>, ServeError> {
    let reports: Mutex<Vec<ConnectionReport>> = Mutex::new(Vec::with_capacity(connections));
    let metrics = sender.metrics();
    std::thread::scope(|scope| -> Result<(), ServeError> {
        for connection in 0..connections as u64 {
            let (stream, _peer) = listener.accept()?;
            if let Some(metrics) = metrics {
                metrics.connections_total.inc();
            }
            // Each connection reads through its own independently cached
            // handle.
            let reads = reads.cloned();
            let reports = &reports;
            scope.spawn(move || {
                if let Some(metrics) = metrics {
                    metrics.connections_active.inc();
                }
                let (frames, lookups, error) = serve_connection(&stream, sender, reads);
                if let Some(metrics) = metrics {
                    metrics.connections_active.dec();
                }
                record_report(
                    reports,
                    ConnectionReport {
                        connection,
                        frames,
                        lookups,
                        error,
                    },
                );
            });
        }
        Ok(())
    })?;
    let mut reports = reports.into_inner().unwrap_or_else(PoisonError::into_inner);
    reports.sort_unstable_by_key(|report| report.connection);
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_channel;
    use std::net::{Ipv4Addr, SocketAddr};

    fn loopback_listener() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    #[test]
    fn frames_cross_the_wire_in_order() {
        let (listener, addr) = loopback_listener();
        let (sender, queue) = ingest_channel(64);
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
        let mut client = TcpIngest::connect(addr).unwrap();
        client.send(ElementId::new(5)).unwrap();
        client
            .send_burst(&[ElementId::new(6), ElementId::new(7)])
            .unwrap();
        client.flush().unwrap();
        client
            .reshard(&ReshardPlan::new([(ElementId::new(1), 2)]))
            .unwrap();
        assert_eq!(client.finish().unwrap(), 4);
        let reports = server.join().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_clean(), "{:?}", reports[0].error);
        assert_eq!(reports[0].frames, 4);

        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Request(ElementId::new(5)))
        );
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Burst(vec![
                ElementId::new(6),
                ElementId::new(7)
            ]))
        );
        assert_eq!(queue.recv(), Some(IngestMessage::Flush));
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Reshard(ReshardPlan::new([(
                ElementId::new(1),
                2
            )])))
        );
        assert_eq!(queue.recv(), None);
    }

    #[test]
    fn acknowledgements_only_follow_enqueued_frames() {
        // Capacity-1 channel, window-1 client: every acknowledged frame is
        // already sitting in the queue when the ack arrives, so a recv right
        // after `drain_acks` returns it without any waiting.
        let (listener, addr) = loopback_listener();
        let (sender, queue) = ingest_channel(1);
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
        let mut client = TcpIngest::connect(addr).unwrap().with_window(1);
        client.send(ElementId::new(0)).unwrap();
        assert_eq!(client.drain_acks().unwrap(), 1);
        assert_eq!(
            queue.recv(),
            Some(IngestMessage::Request(ElementId::new(0)))
        );
        // Further frames need the drainer: the full channel stalls the
        // server's ack, which stalls the window-1 client — backpressure
        // reaches all the way back to `send`.
        let drainer = std::thread::spawn(move || {
            let mut received = Vec::new();
            while let Some(message) = queue.recv() {
                received.push(message);
            }
            received
        });
        client.send(ElementId::new(1)).unwrap();
        client.send(ElementId::new(2)).unwrap();
        assert!(client.acked() >= 1);
        assert_eq!(client.finish().unwrap(), 3);
        let reports = server.join().unwrap();
        assert_eq!(reports[0].frames, 3);
        assert_eq!(drainer.join().unwrap().len(), 2);
    }

    #[test]
    fn lookups_without_a_server_side_reader_close_only_that_connection() {
        let (listener, addr) = loopback_listener();
        let (sender, queue) = ingest_channel(16);
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 2).unwrap());
        // Connection 0 issues a lookup the server cannot serve: the server
        // closes it, surfacing the failure client-side too.
        let mut reading = TcpIngest::connect(addr).unwrap();
        assert!(Ingest::lookup(&mut reading, ElementId::new(0)).is_err());
        drop(reading);
        // Connection 1 still writes normally: failure isolation held.
        let mut writing = TcpIngest::connect(addr).unwrap();
        writing.send(ElementId::new(3)).unwrap();
        assert_eq!(writing.finish().unwrap(), 1);
        let reports = server.join().unwrap();
        assert!(matches!(
            reports[0].error,
            Some(ServeError::LookupUnsupported)
        ));
        assert!(reports[1].is_clean(), "{:?}", reports[1].error);
        drop(queue);
    }

    #[test]
    fn an_idle_connection_never_stalls_another() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (listener, addr) = loopback_listener();
        let (sender, queue) = ingest_channel(16);
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 2).unwrap());
        let drainer = std::thread::spawn(move || while queue.recv().is_some() {});
        // Connection 0 connects and sends nothing.
        let idle = TcpIngest::connect(addr).unwrap();
        // Connection 1 runs to completion while connection 0 is still open.
        let (done, finished) = mpsc::channel();
        let busy = std::thread::spawn(move || {
            let mut client = TcpIngest::connect(addr).unwrap();
            client
                .send_burst(&[ElementId::new(1), ElementId::new(2)])
                .unwrap();
            done.send(client.finish().unwrap()).unwrap();
        });
        let acked = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("connection 1 stalled behind idle connection 0");
        assert_eq!(acked, 1);
        busy.join().unwrap();
        assert_eq!(idle.finish().unwrap(), 0);
        let reports = server.join().unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!((reports[0].frames, reports[1].frames), (0, 1));
        assert!(
            reports.iter().all(ConnectionReport::is_clean),
            "{reports:?}"
        );
        drainer.join().unwrap();
    }

    #[test]
    fn poisoned_report_locks_are_recovered_not_propagated() {
        // Poison the mutex exactly the way a panicking worker would: by
        // panicking while holding the guard.
        let reports = Mutex::new(vec![ConnectionReport {
            connection: 0,
            frames: 1,
            lookups: 0,
            error: None,
        }]);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = reports.lock().unwrap();
            panic!("worker panic while holding the report lock");
        }));
        assert!(poisoner.is_err());
        assert!(
            reports.is_poisoned(),
            "the panic must have poisoned the lock"
        );

        // The accept loop's recording path shrugs it off — the prior report
        // survives and the new one lands.
        record_report(
            &reports,
            ConnectionReport {
                connection: 1,
                frames: 7,
                lookups: 2,
                error: None,
            },
        );
        let collected = reports.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1].frames, 7);
        assert_eq!(collected[1].lookups, 2);
    }

    #[test]
    fn stats_polls_cross_the_wire_and_count_traffic() {
        use crate::ingest::ingest_channel_with_metrics;
        use satn_obs::{names, EngineMetrics};
        use std::sync::Arc;

        let (listener, addr) = loopback_listener();
        let metrics = Arc::new(EngineMetrics::new(2));
        let (sender, queue) = ingest_channel_with_metrics(16, Arc::clone(&metrics));
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
        let drainer = std::thread::spawn(move || while queue.recv().is_some() {});
        let mut client = TcpIngest::connect(addr).unwrap();
        client.send(ElementId::new(5)).unwrap();
        let snapshot = Ingest::stats(&mut client).unwrap();
        assert_eq!(snapshot.counter(names::CONNECTIONS_TOTAL), Some(1));
        assert_eq!(snapshot.gauge(names::CONNECTIONS_ACTIVE), Some(1));
        // One Request frame (tag 0) and one Stats frame (tag 7) arrived
        // before the snapshot froze; the reply itself is not yet counted.
        assert_eq!(snapshot.counter(&names::wire_frames(0)), Some(1));
        assert_eq!(snapshot.counter(&names::wire_frames(7)), Some(1));
        assert!(snapshot.counter(&names::wire_bytes(0)).unwrap() >= 9);
        assert_eq!(client.finish().unwrap(), 1);
        let reports = server.join().unwrap();
        assert!(reports[0].is_clean(), "{:?}", reports[0].error);
        drainer.join().unwrap();
        // After the connection wound down the live registry shows it gone,
        // and the server's replies (acks + the stats reply) were counted.
        assert_eq!(metrics.connections_active.get(), 0);
        assert_eq!(metrics.wire_frames[4].get(), 1, "one cumulative ack");
        assert_eq!(metrics.wire_frames[8].get(), 1, "one stats reply");
    }

    #[test]
    fn bursts_beyond_the_frame_cap_are_split_client_side() {
        // A tiny window forces the split frames to interleave with acks,
        // exercising the windowed path as well as the chunking itself.
        let (listener, addr) = loopback_listener();
        let (sender, queue) = ingest_channel(64);
        let server =
            std::thread::spawn(move || serve_connections(&listener, &sender, None, 1).unwrap());
        let burst: Vec<ElementId> = (0..2 * MAX_BURST_ELEMENTS as u32 + 3)
            .map(ElementId::new)
            .collect();
        let mut client = TcpIngest::connect(addr).unwrap().with_window(2);
        let drainer = {
            let expected = burst.clone();
            std::thread::spawn(move || {
                let mut received = Vec::new();
                while let Some(IngestMessage::Burst(chunk)) = queue.recv() {
                    received.extend(chunk);
                }
                assert_eq!(received, expected, "split bursts must reassemble exactly");
            })
        };
        Ingest::send_burst(&mut client, &burst).unwrap();
        assert_eq!(client.finish().unwrap(), 3, "three frames, not one");
        let reports = server.join().unwrap();
        assert!(reports[0].is_clean(), "{:?}", reports[0].error);
        assert_eq!(reports[0].frames, 3);
        drainer.join().unwrap();
    }
}
