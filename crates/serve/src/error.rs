//! The unified error hierarchy of the serving layer: engine, ingestion,
//! wire protocol, and transport failures all surface as one [`ServeError`],
//! so every caller — in-process or networked — handles failure the same way.

use crate::wire::WireError;
use satn_tree::{ElementId, TreeError};
use satn_workloads::shard::ReshardError;
use std::fmt;

/// An error produced while building or driving a sharded serving engine —
/// or while moving its ingestion protocol across a transport.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A submitted request names an element outside the engine's universe.
    OutOfUniverse {
        /// The offending element.
        element: ElementId,
        /// Size of the engine's element universe.
        universe: u32,
    },
    /// A shard's tree failed while instantiating or serving.
    Tree {
        /// The shard the failure occurred on.
        shard: u32,
        /// The underlying tree error.
        error: TreeError,
    },
    /// A reshard plan does not fit the engine's partition.
    Reshard(ReshardError),
    /// The handover protocol produced a placement the engine could not
    /// rebuild a shard tree from — a non-complete-tree size or a placement
    /// that is not a bijection. The protocol derives placements
    /// deterministically, so this indicates an internal inconsistency; it
    /// surfaces as an error rather than a panic because reshard plans
    /// arrive over the wire and must never take the server down.
    Handover {
        /// The shard whose placement was unusable.
        shard: u32,
        /// What was wrong with the placement.
        reason: String,
    },
    /// The engine cannot reshard: its algorithm is offline (Static-Opt
    /// computes its layout from the whole future subsequence, which no
    /// online handover can know).
    ReshardUnsupported {
        /// Why resharding is unavailable.
        reason: &'static str,
    },
    /// A lookup was issued on an ingest handle that has no snapshot reader
    /// attached — the transport can carry writes but not reads.
    LookupUnsupported,
    /// A stats poll was issued on an ingest handle that has no metrics
    /// registry attached.
    StatsUnsupported,
    /// The ingestion peer is gone: the queue consumer was dropped (channel
    /// transport) or the connection was shut down (network transport).
    Closed,
    /// A transport I/O failure (socket read/write, accept, connect).
    Io(std::io::Error),
    /// A malformed or out-of-contract wire frame.
    Protocol(WireError),
    /// An engine configuration rejected at build time.
    InvalidConfig(String),
}

impl ServeError {
    /// Whether this error means the peer is simply gone — the
    /// end-of-stream cases (closed channel, reset/aborted connection, a
    /// stream cut mid-frame) that a server loop logs rather than propagates.
    pub fn is_disconnect(&self) -> bool {
        match self {
            ServeError::Closed => true,
            ServeError::Io(error) => matches!(
                error.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
            ),
            ServeError::Protocol(WireError::Truncated) => true,
            _ => false,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> Self {
        ServeError::Io(error)
    }
}

impl From<WireError> for ServeError {
    fn from(error: WireError) -> Self {
        ServeError::Protocol(error)
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::OutOfUniverse { element, universe } => {
                write!(
                    f,
                    "request {element} is outside the {universe}-element universe"
                )
            }
            ServeError::Tree { shard, error } => write!(f, "shard {shard}: {error}"),
            ServeError::Reshard(error) => error.fmt(f),
            ServeError::Handover { shard, reason } => {
                write!(
                    f,
                    "shard {shard}: handover produced an unusable placement: {reason}"
                )
            }
            ServeError::ReshardUnsupported { reason } => {
                write!(f, "the engine cannot reshard: {reason}")
            }
            ServeError::LookupUnsupported => {
                f.write_str("this ingest handle has no snapshot reader to serve lookups")
            }
            ServeError::StatsUnsupported => {
                f.write_str("this ingest handle has no metrics registry to serve stats")
            }
            ServeError::Closed => f.write_str("the ingest peer is gone"),
            ServeError::Io(error) => write!(f, "transport: {error}"),
            ServeError::Protocol(error) => write!(f, "protocol: {error}"),
            ServeError::InvalidConfig(reason) => {
                write!(f, "invalid engine configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::OutOfUniverse { .. } => None,
            ServeError::Tree { error, .. } => Some(error),
            ServeError::Reshard(error) => Some(error),
            ServeError::Handover { .. } => None,
            ServeError::ReshardUnsupported { .. } => None,
            ServeError::LookupUnsupported => None,
            ServeError::StatsUnsupported => None,
            ServeError::Closed => None,
            ServeError::Io(error) => Some(error),
            ServeError::Protocol(error) => Some(error),
            ServeError::InvalidConfig(_) => None,
        }
    }
}
