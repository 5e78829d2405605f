//! The length-prefixed binary wire protocol carrying the ingestion protocol
//! across a byte stream.
//!
//! Every frame is a little-endian `u32` body length followed by the body;
//! the body's first byte is a tag, the rest the tag's fixed-layout payload:
//!
//! | tag | frame        | payload                                        |
//! |-----|--------------|------------------------------------------------|
//! | `0` | —            | retired (once a single request); decodes as [`WireError::Malformed`] |
//! | `1` | `Burst`      | count (`u32`), then count element ids (`u32`)  |
//! | `2` | `Flush`      | empty                                          |
//! | `3` | `Reshard`    | count (`u32`), then count moves (`u32` element, `u32` destination shard) |
//! | `4` | `Ack`        | acknowledged frame count (`u64`), server → client |
//! | `5` | `Lookup`     | element id (`u32`) — snapshot read, client → server |
//! | `6` | `Found`      | element (`u32`), shard (`u32`), node (`u32`), epoch (`u32`), served (`u64`), server → client |
//! | `7` | `Stats`      | empty — metrics poll, client → server          |
//! | `8` | `StatsReply` | an encoded [`MetricsSnapshot`] (see [`MetricsSnapshot::decode`]), server → client |
//!
//! All integers are little-endian. The codec is **canonical**: for every
//! frame there is exactly one encoding, and decoding validates that the
//! body length matches the tag's implied layout exactly — trailing garbage,
//! short payloads, unknown tags, and oversized frames are all
//! [`WireError`]s, never panics, because the bytes come from the network.
//! Decoded reshard plans go through [`ReshardPlan::try_new`], so a plan
//! moving the same element twice is rejected as
//! [`WireError::DuplicateMove`] rather than unbalancing the engine.
//!
//! The [`MAX_FRAME_BODY`] cap is enforced **symmetrically**: [`read_frame`]
//! rejects oversized length prefixes before allocating, and
//! [`encode_frame`] refuses to produce a frame the peer would drop —
//! a burst longer than [`MAX_BURST_ELEMENTS`] or a plan longer than
//! [`MAX_PLAN_MOVES`] is an encode-side [`WireError::Oversized`], not a
//! silently truncated count. (Clients split long bursts instead:
//! [`TcpIngest::send_burst`](crate::TcpIngest::send_burst) chunks at the
//! cap, so over-cap bursts survive end-to-end.)
//!
//! Determinism: the wire format carries the ingestion protocol verbatim —
//! frame order is arrival order, and the engine behind the queue never
//! knows which transport a message crossed. Encode/decode is a bijection
//! (property-tested in `tests/wire_roundtrip.rs`), so a stream replayed
//! over TCP is bit-identical to the same stream submitted in-process.

use crate::error::ServeError;
use crate::ingest::IngestMessage;
use crate::snapshot::LookupAnswer;
use satn_obs::MetricsSnapshot;
use satn_tree::{ElementId, NodeId};
use satn_workloads::shard::ReshardPlan;
use std::fmt;
use std::io::{Read, Write};

/// Largest accepted frame body, in bytes (8 MiB — a burst of two million
/// requests). Anything longer is rejected before allocation, so a corrupt
/// or hostile length prefix cannot balloon server memory.
pub const MAX_FRAME_BODY: u32 = 8 << 20;

/// Most elements a single `Burst` frame can carry without its body
/// exceeding [`MAX_FRAME_BODY`] (tag byte + count + 4 bytes per element).
/// [`encode_frame`] rejects longer bursts; clients split at this boundary.
pub const MAX_BURST_ELEMENTS: usize = (MAX_FRAME_BODY as usize - 5) / 4;

/// Most moves a single `Reshard` frame can carry without its body exceeding
/// [`MAX_FRAME_BODY`] (tag byte + count + 8 bytes per move). A plan is an
/// atomic unit — it cannot be split — so a longer plan is an encode error.
pub const MAX_PLAN_MOVES: usize = (MAX_FRAME_BODY as usize - 5) / 8;

/// Once the single-request frame; a single request is now a one-element
/// burst. The number stays reserved so that tags 1–8, and the per-tag
/// traffic counters indexed by them, keep their positions.
const TAG_RETIRED: u8 = 0;
const TAG_BURST: u8 = 1;
const TAG_FLUSH: u8 = 2;
const TAG_RESHARD: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_LOOKUP: u8 = 5;
const TAG_FOUND: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_STATS_REPLY: u8 = 8;

/// One frame of the wire protocol: an ingestion message travelling client →
/// server, or an acknowledgement travelling server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// An ingestion protocol message (client → server).
    Ingest(IngestMessage),
    /// Cumulative acknowledgement (server → client): `seq` frames of this
    /// connection have been accepted into the engine's ingest queue. Sent
    /// after enqueueing — not after serving — so a client measuring
    /// round-trip time observes engine backpressure, and a client that saw
    /// `seq = n` knows the first `n` frames cannot be lost to a crash of
    /// the connection.
    Ack {
        /// Number of frames acknowledged so far on this connection.
        seq: u64,
    },
    /// A snapshot read (client → server): where does this element currently
    /// sit? Lookups bypass the ingest queue entirely — the server answers
    /// from the engine's published snapshot without touching the write
    /// path, and the frame carries no sequence number because it is not
    /// acknowledged; its [`Frame::Found`] reply *is* the acknowledgement.
    Lookup {
        /// The element being looked up.
        element: ElementId,
    },
    /// The answer to a [`Frame::Lookup`] (server → client): the element's
    /// placement in the snapshot that served the read, stamped with the
    /// snapshot's epoch and write-timeline position.
    Found(LookupAnswer),
    /// A metrics poll (client → server): freeze the engine's registry and
    /// reply. Like [`Frame::Lookup`] it bypasses the ingest queue and is not
    /// acknowledged — its [`Frame::StatsReply`] is the acknowledgement.
    Stats,
    /// The answer to a [`Frame::Stats`] (server → client): the registry
    /// frozen at reply time, in the canonical [`MetricsSnapshot`] encoding.
    StatsReply(MetricsSnapshot),
}

impl Frame {
    /// The frame's wire tag, for per-tag traffic accounting.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Ingest(IngestMessage::Burst(_)) => TAG_BURST,
            Frame::Ingest(IngestMessage::Flush) => TAG_FLUSH,
            Frame::Ingest(IngestMessage::Reshard(..)) => TAG_RESHARD,
            Frame::Ack { .. } => TAG_ACK,
            Frame::Lookup { .. } => TAG_LOOKUP,
            Frame::Found(_) => TAG_FOUND,
            Frame::Stats => TAG_STATS,
            Frame::StatsReply(_) => TAG_STATS_REPLY,
        }
    }
}

/// A malformed or out-of-contract wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The stream ended mid-frame (inside the header or the body).
    Truncated,
    /// A frame body longer than [`MAX_FRAME_BODY`]: on decode, a length
    /// prefix exceeding the cap; on encode, a burst or reshard plan whose
    /// payload cannot fit in one frame (see [`MAX_BURST_ELEMENTS`] /
    /// [`MAX_PLAN_MOVES`]).
    Oversized {
        /// The length the body would have (saturated at `u32::MAX`).
        len: u32,
        /// The maximum this codec accepts.
        max: u32,
    },
    /// The body's first byte is not a known frame tag.
    UnknownTag(u8),
    /// The body length does not match the tag's implied payload layout.
    Malformed {
        /// What was wrong with the payload.
        reason: &'static str,
    },
    /// A decoded reshard plan moves the same element more than once.
    DuplicateMove(ElementId),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("the stream ended mid-frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::Malformed { reason } => write!(f, "malformed frame: {reason}"),
            WireError::DuplicateMove(element) => {
                write!(f, "reshard frame moves element {element} more than once")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn push_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

fn take_u32(bytes: &mut &[u8]) -> Result<u32, WireError> {
    let (head, rest) = bytes.split_at_checked(4).ok_or(WireError::Malformed {
        reason: "payload ends inside an integer",
    })?;
    *bytes = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4-byte split")))
}

fn take_u64(bytes: &mut &[u8]) -> Result<u64, WireError> {
    let (head, rest) = bytes.split_at_checked(8).ok_or(WireError::Malformed {
        reason: "payload ends inside an integer",
    })?;
    *bytes = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8-byte split")))
}

/// Checks that a repeated payload of `count` items at `bytes_per_item`
/// bytes (plus `overhead` bytes of tag, count prefix, and any fixed fields)
/// fits [`MAX_FRAME_BODY`], without the size arithmetic itself overflowing.
fn check_body_fits(count: usize, bytes_per_item: u64, overhead: u64) -> Result<u32, WireError> {
    let body = overhead.saturating_add((count as u64).saturating_mul(bytes_per_item));
    if body > MAX_FRAME_BODY as u64 {
        return Err(WireError::Oversized {
            len: u32::try_from(body).unwrap_or(u32::MAX),
            max: MAX_FRAME_BODY,
        });
    }
    // `count` provably fits a u32 now: body ≤ 8 MiB bounds it.
    Ok(u32::try_from(count).expect("count bounded by MAX_FRAME_BODY"))
}

/// Appends `frame`'s complete encoding (length prefix + body) to `buf`.
/// Reusing one buffer across frames keeps the encode path allocation-free
/// in steady state.
///
/// # Errors
///
/// [`WireError::Oversized`] if the frame's body would exceed
/// [`MAX_FRAME_BODY`] — the encoder refuses to produce a frame the peer's
/// [`read_frame`] would reject, and it never truncates a count to make one
/// fit. `buf` is left unchanged on error.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) -> Result<(), WireError> {
    let start = buf.len();
    push_u32(buf, 0); // Length prefix, patched below.
    let result = (|| {
        match frame {
            Frame::Ingest(IngestMessage::Burst(burst)) => {
                let count = check_body_fits(burst.len(), 4, 5)?;
                buf.push(TAG_BURST);
                push_u32(buf, count);
                for element in burst {
                    push_u32(buf, element.index());
                }
            }
            Frame::Ingest(IngestMessage::Flush) => buf.push(TAG_FLUSH),
            Frame::Ingest(IngestMessage::Reshard(plan)) => {
                let count = check_body_fits(plan.len(), 8, 5)?;
                buf.push(TAG_RESHARD);
                push_u32(buf, count);
                for &(element, shard) in plan.moves() {
                    push_u32(buf, element.index());
                    push_u32(buf, shard);
                }
            }
            Frame::Ack { seq } => {
                buf.push(TAG_ACK);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
            Frame::Lookup { element } => {
                buf.push(TAG_LOOKUP);
                push_u32(buf, element.index());
            }
            Frame::Found(answer) => {
                buf.push(TAG_FOUND);
                push_u32(buf, answer.element.index());
                push_u32(buf, answer.shard);
                push_u32(buf, answer.node.index());
                push_u32(buf, answer.epoch);
                buf.extend_from_slice(&answer.served.to_le_bytes());
            }
            Frame::Stats => buf.push(TAG_STATS),
            Frame::StatsReply(snapshot) => {
                buf.push(TAG_STATS_REPLY);
                snapshot.encode_into(buf);
            }
        }
        // A stats reply's size depends on how many metrics the registry
        // holds, so the cap is checked after encoding rather than predicted
        // from a count the way bursts and plans are.
        let body = buf.len() - start - 4;
        if body > MAX_FRAME_BODY as usize {
            return Err(WireError::Oversized {
                len: u32::try_from(body).unwrap_or(u32::MAX),
                max: MAX_FRAME_BODY,
            });
        }
        Ok(())
    })();
    if result.is_err() {
        buf.truncate(start);
        return result;
    }
    let body_len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    Ok(())
}

/// Decodes one frame **body** (everything after the length prefix).
///
/// # Errors
///
/// Any [`WireError`] except `Truncated`/`Oversized`, which concern the
/// length prefix and are raised by [`read_frame`].
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let Some((&tag, mut payload)) = body.split_first() else {
        return Err(WireError::Malformed {
            reason: "empty frame body (missing tag)",
        });
    };
    let frame = match tag {
        TAG_RETIRED => {
            return Err(WireError::Malformed {
                reason: "tag 0 is retired: a single request is a one-element burst",
            })
        }
        TAG_BURST => {
            let count = take_u32(&mut payload)? as usize;
            if payload.len() != count * 4 {
                return Err(WireError::Malformed {
                    reason: "burst payload length disagrees with its count",
                });
            }
            let mut burst = Vec::with_capacity(count);
            for _ in 0..count {
                burst.push(ElementId::new(take_u32(&mut payload)?));
            }
            Frame::Ingest(IngestMessage::Burst(burst))
        }
        TAG_FLUSH => Frame::Ingest(IngestMessage::Flush),
        TAG_RESHARD => {
            let count = take_u32(&mut payload)? as usize;
            if payload.len() != count * 8 {
                return Err(WireError::Malformed {
                    reason: "reshard payload length disagrees with its move count",
                });
            }
            let mut moves = Vec::with_capacity(count);
            for _ in 0..count {
                let element = ElementId::new(take_u32(&mut payload)?);
                let shard = take_u32(&mut payload)?;
                moves.push((element, shard));
            }
            let plan = ReshardPlan::try_new(moves).map_err(WireError::DuplicateMove)?;
            Frame::Ingest(IngestMessage::Reshard(plan))
        }
        TAG_ACK => {
            let seq = take_u64(&mut payload)?;
            Frame::Ack { seq }
        }
        TAG_LOOKUP => {
            let element = take_u32(&mut payload)?;
            Frame::Lookup {
                element: ElementId::new(element),
            }
        }
        TAG_FOUND => {
            let element = ElementId::new(take_u32(&mut payload)?);
            let shard = take_u32(&mut payload)?;
            let node = NodeId::new(take_u32(&mut payload)?);
            let epoch = take_u32(&mut payload)?;
            let served = take_u64(&mut payload)?;
            Frame::Found(LookupAnswer {
                element,
                shard,
                node,
                epoch,
                served,
            })
        }
        TAG_STATS => Frame::Stats,
        TAG_STATS_REPLY => {
            // The snapshot codec validates the whole payload itself,
            // including its own trailing-byte check.
            let snapshot = MetricsSnapshot::decode(payload).map_err(|_| WireError::Malformed {
                reason: "invalid metrics snapshot payload",
            })?;
            payload = &payload[payload.len()..];
            Frame::StatsReply(snapshot)
        }
        other => return Err(WireError::UnknownTag(other)),
    };
    if !payload.is_empty() {
        return Err(WireError::Malformed {
            reason: "trailing bytes after the frame payload",
        });
    }
    Ok(frame)
}

/// Writes one frame to `writer`, reusing `scratch` as the encode buffer.
///
/// # Errors
///
/// [`ServeError::Protocol`] if the frame is too large to encode (see
/// [`encode_frame`]), [`ServeError::Io`] on a transport failure.
pub fn write_frame<W: Write>(
    writer: &mut W,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> Result<(), ServeError> {
    scratch.clear();
    encode_frame(frame, scratch)?;
    writer.write_all(scratch)?;
    Ok(())
}

/// Reads the next frame from `reader`, reusing `scratch` as the body
/// buffer. Returns `Ok(None)` on a clean end of stream (the peer closed the
/// connection **between** frames — the orderly shutdown signal, mirroring
/// [`crate::IngestQueue::recv`] returning `None`).
///
/// # Errors
///
/// [`ServeError::Protocol`]`(`[`WireError::Truncated`]`)` if the stream
/// ends inside a frame, other [`WireError`]s for malformed frames, and
/// [`ServeError::Io`] for transport failures.
pub fn read_frame<R: Read>(
    reader: &mut R,
    scratch: &mut Vec<u8>,
) -> Result<Option<Frame>, ServeError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None); // Clean EOF at a frame boundary.
            }
            return Err(WireError::Truncated.into());
        }
        filled += n;
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BODY {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BODY,
        }
        .into());
    }
    scratch.clear();
    scratch.resize(len as usize, 0);
    reader.read_exact(scratch).map_err(|error| {
        if error.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Protocol(WireError::Truncated)
        } else {
            ServeError::Io(error)
        }
    })?;
    Ok(Some(decode_body(scratch)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf).unwrap();
        let mut reader = &buf[..];
        let mut scratch = Vec::new();
        let decoded = read_frame(&mut reader, &mut scratch).unwrap().unwrap();
        assert_eq!(decoded, frame);
        assert!(reader.is_empty(), "the frame consumes its exact encoding");
    }

    #[test]
    fn every_frame_kind_round_trips() {
        roundtrip(Frame::Ingest(IngestMessage::Burst(vec![])));
        roundtrip(Frame::Ingest(IngestMessage::Burst(
            (0..100).map(ElementId::new).collect(),
        )));
        roundtrip(Frame::Ingest(IngestMessage::Flush));
        roundtrip(Frame::Ingest(IngestMessage::Reshard(ReshardPlan::empty())));
        roundtrip(Frame::Ingest(IngestMessage::Reshard(ReshardPlan::new([
            (ElementId::new(3), 1),
            (ElementId::new(0), 2),
        ]))));
        roundtrip(Frame::Ack { seq: u64::MAX });
        roundtrip(Frame::Lookup {
            element: ElementId::new(7),
        });
        roundtrip(Frame::Found(LookupAnswer {
            element: ElementId::new(7),
            shard: 3,
            node: NodeId::new(1),
            epoch: 2,
            served: u64::MAX,
        }));
        roundtrip(Frame::Stats);
        roundtrip(Frame::StatsReply(MetricsSnapshot::default()));
        roundtrip(Frame::StatsReply(
            satn_obs::EngineMetrics::new(4).snapshot(),
        ));
    }

    #[test]
    fn a_corrupt_stats_reply_is_malformed_not_a_panic() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::StatsReply(satn_obs::EngineMetrics::new(2).snapshot()),
            &mut buf,
        )
        .unwrap();
        // Flip a byte inside the counter-name section.
        let body = &mut buf[4..];
        body[10] ^= 0xFF;
        assert!(matches!(
            decode_body(body),
            Err(WireError::Malformed {
                reason: "invalid metrics snapshot payload"
            })
        ));
        // Truncating the payload is malformed too, not a slice panic.
        let short = &buf[4..buf.len() - 3];
        assert!(matches!(
            decode_body(short),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn encode_rejects_over_cap_bursts_instead_of_truncating_the_count() {
        // One element past the cap: the old `as u32` cast would have
        // happily encoded a frame the reader rejects as Oversized.
        let burst = vec![ElementId::new(0); MAX_BURST_ELEMENTS + 1];
        let mut buf = vec![0xAB];
        let err = encode_frame(&Frame::Ingest(IngestMessage::Burst(burst)), &mut buf).unwrap_err();
        let over = 5 + 4 * (MAX_BURST_ELEMENTS as u32 + 1);
        assert!(matches!(err, WireError::Oversized { len, max }
            if len == over && max == MAX_FRAME_BODY));
        assert_eq!(buf, vec![0xAB], "a failed encode leaves the buffer intact");

        // Exactly at the cap round-trips.
        let burst = vec![ElementId::new(9); MAX_BURST_ELEMENTS];
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Ingest(IngestMessage::Burst(burst.clone())),
            &mut buf,
        )
        .unwrap();
        assert_eq!(buf.len(), 4 + 5 + 4 * MAX_BURST_ELEMENTS);
        assert!(buf.len() - 4 <= MAX_FRAME_BODY as usize);
        let mut reader = &buf[..];
        let decoded = read_frame(&mut reader, &mut Vec::new()).unwrap().unwrap();
        assert_eq!(decoded, Frame::Ingest(IngestMessage::Burst(burst)));
    }

    #[test]
    fn encode_rejects_over_cap_reshard_plans() {
        let moves: Vec<_> = (0..=MAX_PLAN_MOVES as u32)
            .map(|i| (ElementId::new(i), 0u32))
            .collect();
        let plan = ReshardPlan::new(moves);
        let err = encode_frame(
            &Frame::Ingest(IngestMessage::Reshard(plan)),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
    }

    #[test]
    fn clean_eof_is_a_shutdown_not_an_error() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, &mut Vec::new()), Ok(None)));
    }

    #[test]
    fn eof_inside_the_header_is_truncation() {
        let mut partial: &[u8] = &[5, 0];
        let err = read_frame(&mut partial, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(WireError::Truncated)));
    }

    #[test]
    fn eof_inside_the_body_is_truncation() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Ingest(IngestMessage::Burst((0..10).map(ElementId::new).collect())),
            &mut buf,
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = &buf[..];
        let err = read_frame(&mut reader, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, ServeError::Protocol(WireError::Truncated)));
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(TAG_FLUSH);
        let mut reader = &bytes[..];
        let err = read_frame(&mut reader, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Protocol(WireError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn unknown_tags_and_garbage_are_rejected() {
        assert!(matches!(decode_body(&[99]), Err(WireError::UnknownTag(99))));
        // The retired single-request frame: tag 0 and one element id.
        assert!(matches!(
            decode_body(&[0, 9, 0, 0, 0]),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(decode_body(&[]), Err(WireError::Malformed { .. })));
        // A flush with trailing garbage.
        assert!(matches!(
            decode_body(&[TAG_FLUSH, 0xAA]),
            Err(WireError::Malformed { .. })
        ));
        // A burst whose count disagrees with its payload length.
        let mut body = vec![TAG_BURST];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn duplicate_reshard_moves_error_instead_of_panicking() {
        let mut body = vec![TAG_RESHARD];
        body.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            body.extend_from_slice(&5u32.to_le_bytes()); // element 5, twice
            body.extend_from_slice(&1u32.to_le_bytes());
        }
        assert!(matches!(
            decode_body(&body),
            Err(WireError::DuplicateMove(element)) if element == ElementId::new(5)
        ));
    }

    /// Reshard frames no longer carry a handover mode. A body in the older
    /// format — a mode byte between the count and the moves — is
    /// `1 + 4 + 1 + 8n` bytes long, which no count's `1 + 4 + 8m` layout
    /// matches, so it is rejected whatever the mode byte says.
    #[test]
    fn unknown_handover_modes_are_malformed_not_a_panic() {
        for moves in 0u32..3 {
            for mode in [0u8, 1, 7, u8::MAX] {
                let mut body = vec![TAG_RESHARD];
                body.extend_from_slice(&moves.to_le_bytes());
                body.push(mode);
                for element in 0..moves {
                    body.extend_from_slice(&element.to_le_bytes());
                    body.extend_from_slice(&1u32.to_le_bytes());
                }
                assert!(
                    matches!(
                        decode_body(&body),
                        Err(WireError::Malformed {
                            reason: "reshard payload length disagrees with its move count"
                        })
                    ),
                    "{moves} moves, mode byte {mode}"
                );
            }
        }
    }
}
