//! Error type of the multi-source network layer.

use crate::host::Host;
use satn_serve::ServeError;
use std::fmt;

/// Errors reported by [`crate::SelfAdjustingNetwork`].
#[derive(Debug)]
#[non_exhaustive]
pub enum NetworkError {
    /// The host index is outside `0..num_hosts`.
    UnknownHost {
        /// The offending host.
        host: Host,
        /// The number of hosts in the network.
        num_hosts: u32,
    },
    /// A request had the same source and destination.
    SelfLoop {
        /// The host that would talk to itself.
        host: Host,
    },
    /// A network needs at least two hosts.
    TooFewHosts {
        /// The requested number of hosts.
        num_hosts: u32,
    },
    /// The chosen per-source algorithm needs the full trace in advance
    /// (Static-Opt), but the network was built without one.
    TraceRequired {
        /// The name of the algorithm that needs the trace.
        algorithm: &'static str,
    },
    /// An error from the sharded engine that serves the per-source trees.
    Serve(ServeError),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::UnknownHost { host, num_hosts } => {
                write!(f, "host {host} is outside the network of {num_hosts} hosts")
            }
            NetworkError::SelfLoop { host } => {
                write!(f, "host {host} cannot issue a request to itself")
            }
            NetworkError::TooFewHosts { num_hosts } => {
                write!(f, "a network needs at least 2 hosts, got {num_hosts}")
            }
            NetworkError::TraceRequired { algorithm } => {
                write!(
                    f,
                    "algorithm {algorithm} is offline and needs the trace up front; use with_trace"
                )
            }
            NetworkError::Serve(err) => write!(f, "serving error: {err}"),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Serve(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ServeError> for NetworkError {
    fn from(err: ServeError) -> Self {
        NetworkError::Serve(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let messages = [
            NetworkError::UnknownHost {
                host: Host::new(9),
                num_hosts: 4,
            }
            .to_string(),
            NetworkError::SelfLoop { host: Host::new(2) }.to_string(),
            NetworkError::TooFewHosts { num_hosts: 1 }.to_string(),
            NetworkError::TraceRequired {
                algorithm: "static-opt",
            }
            .to_string(),
        ];
        assert!(messages[0].contains("h9"));
        assert!(messages[1].contains("itself"));
        assert!(messages[2].contains("at least 2"));
        assert!(messages[3].contains("with_trace"));
    }

    #[test]
    fn tree_errors_convert_and_expose_their_source() {
        // A shard tree's error reaches the network wrapped by the engine.
        let error = satn_tree::CompleteTree::with_levels(0).unwrap_err();
        let err: NetworkError = ServeError::Tree { shard: 3, error }.into();
        assert!(matches!(
            err,
            NetworkError::Serve(ServeError::Tree { shard: 3, .. })
        ));
        assert!(std::error::Error::source(&err).is_some());
        assert!(err.to_string().contains("shard 3"), "{err}");
    }
}
