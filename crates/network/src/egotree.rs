//! One source's self-adjusting tree over all other hosts.

use crate::error::NetworkError;
use crate::host::Host;
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_tree::{CompleteTree, ElementId, NodeId, Occupancy, ServeCost};

/// The *ego-tree* of one source host: a complete binary tree whose elements
/// are the other hosts of the network, reorganised by one of the paper's
/// single-source algorithms.
///
/// The source itself is attached to the root of the tree; a request from the
/// source to destination `d` costs the current depth of `d` plus one (the
/// access cost of the underlying model) plus whatever swaps the algorithm
/// performs. Because a network with `n` hosts has `n − 1` possible
/// destinations, which is usually not of the form `2^L − 1`, the tree is
/// padded with *placeholder* elements that are never requested.
///
/// # Examples
///
/// ```
/// use satn_core::AlgorithmKind;
/// use satn_network::{EgoTree, Host};
///
/// let mut ego = EgoTree::new(Host::new(0), 16, AlgorithmKind::RotorPush, 1)?;
/// let cost = ego.serve(Host::new(9))?;
/// assert!(cost.access >= 1);
/// // The destination was pulled to the root of the ego-tree.
/// assert_eq!(ego.depth_of(Host::new(9))?, 0);
/// # Ok::<(), satn_network::NetworkError>(())
/// ```
pub struct EgoTree {
    source: Host,
    num_hosts: u32,
    algorithm: Box<dyn SelfAdjustingTree + Send>,
    kind: AlgorithmKind,
}

impl std::fmt::Debug for EgoTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EgoTree")
            .field("source", &self.source)
            .field("num_hosts", &self.num_hosts)
            .field("algorithm", &self.kind)
            .finish_non_exhaustive()
    }
}

impl EgoTree {
    /// Creates the ego-tree of `source` in a network of `num_hosts` hosts,
    /// managed by the given algorithm. `seed` feeds the randomized algorithms
    /// and is ignored by the deterministic ones.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::TooFewHosts`] if `num_hosts < 2`,
    /// * [`NetworkError::UnknownHost`] if `source` is outside the network,
    /// * [`NetworkError::TraceRequired`] for offline algorithms
    ///   ([`AlgorithmKind::StaticOpt`]) — use [`EgoTree::with_trace`] instead.
    pub fn new(
        source: Host,
        num_hosts: u32,
        kind: AlgorithmKind,
        seed: u64,
    ) -> Result<Self, NetworkError> {
        EgoTree::build(source, num_hosts, kind, seed, None)
    }

    /// Creates the ego-tree of `source`, giving offline algorithms the full
    /// sequence of destinations this source will request.
    ///
    /// # Errors
    ///
    /// Same as [`EgoTree::new`], plus [`NetworkError::UnknownHost`] /
    /// [`NetworkError::SelfLoop`] if the trace mentions an invalid
    /// destination.
    pub fn with_trace(
        source: Host,
        num_hosts: u32,
        kind: AlgorithmKind,
        seed: u64,
        destinations: &[Host],
    ) -> Result<Self, NetworkError> {
        EgoTree::build(source, num_hosts, kind, seed, Some(destinations))
    }

    fn build(
        source: Host,
        num_hosts: u32,
        kind: AlgorithmKind,
        seed: u64,
        destinations: Option<&[Host]>,
    ) -> Result<Self, NetworkError> {
        if num_hosts < 2 {
            return Err(NetworkError::TooFewHosts { num_hosts });
        }
        if source.index() >= num_hosts {
            return Err(NetworkError::UnknownHost {
                host: source,
                num_hosts,
            });
        }
        let levels = levels_for(num_hosts - 1);
        let tree = CompleteTree::with_levels(levels)?;
        let sequence = match destinations {
            Some(destinations) => {
                let mut sequence = Vec::with_capacity(destinations.len());
                for &destination in destinations {
                    sequence.push(element_of(source, num_hosts, destination)?);
                }
                sequence
            }
            None => {
                if kind == AlgorithmKind::StaticOpt {
                    return Err(NetworkError::TraceRequired {
                        algorithm: kind.name(),
                    });
                }
                Vec::new()
            }
        };
        let algorithm = kind.instantiate(Occupancy::identity(tree), seed, &sequence)?;
        Ok(EgoTree {
            source,
            num_hosts,
            algorithm,
            kind,
        })
    }

    /// The source host this ego-tree belongs to.
    pub fn source(&self) -> Host {
        self.source
    }

    /// The number of hosts in the surrounding network.
    pub fn num_hosts(&self) -> u32 {
        self.num_hosts
    }

    /// The algorithm managing this tree.
    pub fn algorithm_kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// The current element-to-node mapping of the underlying tree.
    pub fn occupancy(&self) -> &Occupancy {
        self.algorithm.occupancy()
    }

    /// Serves a request from the source to `destination`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::SelfLoop`] if `destination` equals the source,
    /// * [`NetworkError::UnknownHost`] if `destination` is outside the
    ///   network.
    pub fn serve(&mut self, destination: Host) -> Result<ServeCost, NetworkError> {
        let element = element_of(self.source, self.num_hosts, destination)?;
        Ok(self.algorithm.serve(element)?)
    }

    /// The current depth of `destination` in this ego-tree (0 = root).
    ///
    /// # Errors
    ///
    /// Same as [`EgoTree::serve`], but the tree is not modified.
    pub fn depth_of(&self, destination: Host) -> Result<u32, NetworkError> {
        let element = element_of(self.source, self.num_hosts, destination)?;
        Ok(self.occupancy().level_of(element))
    }

    /// The host currently stored at tree node `node`, or `None` for
    /// placeholder elements.
    pub fn host_at(&self, node: NodeId) -> Option<Host> {
        host_of(
            self.source,
            self.num_hosts,
            self.occupancy().element_at(node),
        )
    }
}

/// The number of tree levels needed to store `destinations` elements.
fn levels_for(destinations: u32) -> u32 {
    let mut levels = 1u32;
    while (1u64 << levels) - 1 < u64::from(destinations) {
        levels += 1;
    }
    levels
}

/// Maps a destination host to its element id in `source`'s ego-tree.
fn element_of(source: Host, num_hosts: u32, destination: Host) -> Result<ElementId, NetworkError> {
    if destination.index() >= num_hosts {
        return Err(NetworkError::UnknownHost {
            host: destination,
            num_hosts,
        });
    }
    if destination == source {
        return Err(NetworkError::SelfLoop { host: source });
    }
    let index = if destination.index() < source.index() {
        destination.index()
    } else {
        destination.index() - 1
    };
    Ok(ElementId::new(index))
}

/// Maps an element id back to the destination host, or `None` for
/// placeholders.
fn host_of(source: Host, num_hosts: u32, element: ElementId) -> Option<Host> {
    if element.index() >= num_hosts - 1 {
        return None;
    }
    let host = if element.index() < source.index() {
        element.index()
    } else {
        element.index() + 1
    };
    Some(Host::new(host))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_cover_the_destination_count() {
        assert_eq!(levels_for(1), 1);
        assert_eq!(levels_for(3), 2);
        assert_eq!(levels_for(4), 3);
        assert_eq!(levels_for(7), 3);
        assert_eq!(levels_for(8), 4);
        assert_eq!(levels_for(1023), 10);
        assert_eq!(levels_for(1024), 11);
    }

    #[test]
    fn element_mapping_skips_the_source_and_roundtrips() {
        let source = Host::new(3);
        let num_hosts = 8;
        let mut seen = Vec::new();
        for destination in (0..num_hosts).map(Host::new) {
            if destination == source {
                assert!(matches!(
                    element_of(source, num_hosts, destination),
                    Err(NetworkError::SelfLoop { .. })
                ));
                continue;
            }
            let element = element_of(source, num_hosts, destination).unwrap();
            assert_eq!(host_of(source, num_hosts, element), Some(destination));
            seen.push(element.index());
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..num_hosts - 1).collect::<Vec<_>>());
        // Padding elements map to no host.
        assert_eq!(
            host_of(source, num_hosts, ElementId::new(num_hosts - 1)),
            None
        );
    }

    #[test]
    fn ego_tree_serves_and_self_adjusts() {
        let mut ego = EgoTree::new(Host::new(2), 20, AlgorithmKind::RotorPush, 0).unwrap();
        assert_eq!(ego.source(), Host::new(2));
        assert_eq!(ego.num_hosts(), 20);
        let destination = Host::new(17);
        let before = ego.depth_of(destination).unwrap();
        let cost = ego.serve(destination).unwrap();
        assert_eq!(cost.access, u64::from(before) + 1);
        assert_eq!(ego.depth_of(destination).unwrap(), 0);
        assert!(ego.occupancy().is_consistent());
    }

    #[test]
    fn ego_tree_rejects_bad_requests() {
        let mut ego = EgoTree::new(Host::new(0), 4, AlgorithmKind::MoveHalf, 0).unwrap();
        assert!(matches!(
            ego.serve(Host::new(0)),
            Err(NetworkError::SelfLoop { .. })
        ));
        assert!(matches!(
            ego.serve(Host::new(9)),
            Err(NetworkError::UnknownHost { .. })
        ));
    }

    #[test]
    fn static_opt_requires_a_trace() {
        assert!(matches!(
            EgoTree::new(Host::new(0), 8, AlgorithmKind::StaticOpt, 0),
            Err(NetworkError::TraceRequired { .. })
        ));
        let destinations = [Host::new(3), Host::new(3), Host::new(5)];
        let mut ego =
            EgoTree::with_trace(Host::new(0), 8, AlgorithmKind::StaticOpt, 0, &destinations)
                .unwrap();
        // Static-Opt placed the most frequent destination at the root.
        assert_eq!(ego.depth_of(Host::new(3)).unwrap(), 0);
        let cost = ego.serve(Host::new(3)).unwrap();
        assert_eq!(cost.total(), 1);
    }

    #[test]
    fn construction_validates_hosts() {
        assert!(matches!(
            EgoTree::new(Host::new(0), 1, AlgorithmKind::RotorPush, 0),
            Err(NetworkError::TooFewHosts { .. })
        ));
        assert!(matches!(
            EgoTree::new(Host::new(9), 4, AlgorithmKind::RotorPush, 0),
            Err(NetworkError::UnknownHost { .. })
        ));
    }

    #[test]
    fn host_at_reports_placeholders_as_none() {
        let ego = EgoTree::new(Host::new(1), 4, AlgorithmKind::RotorPush, 0).unwrap();
        let hosts: Vec<Option<Host>> = ego
            .occupancy()
            .tree()
            .nodes()
            .map(|node| ego.host_at(node))
            .collect();
        assert!(hosts.iter().all(Option::is_some));
        let ego = EgoTree::new(Host::new(1), 5, AlgorithmKind::RotorPush, 0).unwrap();
        // 4 destinations in a 7-node tree: 3 placeholders.
        let placeholders = ego
            .occupancy()
            .tree()
            .nodes()
            .filter(|&node| ego.host_at(node).is_none())
            .count();
        assert_eq!(placeholders, 3);
    }
}
