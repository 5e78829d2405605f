//! Host identifiers for the multi-source network model.

use std::fmt;

/// Identifies one host (server, top-of-rack switch, …) of the reconfigurable
/// network. Hosts are numbered `0..num_hosts`.
///
/// A host plays two roles at once: it is the *source* of its own ego-tree and
/// it appears as a *destination element* in the ego-trees of all other hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Host(u32);

impl Host {
    /// Creates a host identifier from its index.
    pub const fn new(index: u32) -> Self {
        Host(index)
    }

    /// The numeric index of the host.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The index as a `usize`, for vector indexing.
    pub const fn usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl From<u32> for Host {
    fn from(index: u32) -> Self {
        Host::new(index)
    }
}

/// A directed communication request between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostPair {
    /// The host issuing the request (the ego-tree that serves it).
    pub source: Host,
    /// The host being contacted.
    pub destination: Host,
}

impl HostPair {
    /// Creates a source–destination pair.
    pub const fn new(source: Host, destination: Host) -> Self {
        HostPair {
            source,
            destination,
        }
    }

    /// Whether source and destination coincide (such requests are rejected by
    /// the network).
    pub const fn is_self_loop(self) -> bool {
        self.source.index() == self.destination.index()
    }
}

impl fmt::Display for HostPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.source, self.destination)
    }
}

impl From<(u32, u32)> for HostPair {
    fn from((source, destination): (u32, u32)) -> Self {
        HostPair::new(Host::new(source), Host::new(destination))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_display_and_conversions() {
        let host = Host::from(7u32);
        assert_eq!(host.index(), 7);
        assert_eq!(host.usize(), 7);
        assert_eq!(host.to_string(), "h7");
    }

    #[test]
    fn pair_display_and_self_loop_detection() {
        let pair = HostPair::from((3u32, 5u32));
        assert_eq!(pair.to_string(), "h3→h5");
        assert!(!pair.is_self_loop());
        assert!(HostPair::from((4u32, 4u32)).is_self_loop());
    }

    #[test]
    fn hosts_order_by_index() {
        let mut hosts = vec![Host::new(4), Host::new(1), Host::new(3)];
        hosts.sort();
        assert_eq!(hosts, vec![Host::new(1), Host::new(3), Host::new(4)]);
    }
}
