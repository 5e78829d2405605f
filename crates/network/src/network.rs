//! The composed multi-source self-adjusting network.

use crate::egotree::EgoTree;
use crate::error::NetworkError;
use crate::host::{Host, HostPair};
use satn_core::AlgorithmKind;
use satn_tree::{CostSummary, NodeId, ServeCost};
use std::fmt;

/// A reconfigurable network of `n` hosts in which every host maintains its
/// own self-adjusting *ego-tree* over the other `n − 1` hosts.
///
/// This is the composition sketched in the paper's introduction: single-source
/// tree networks are the building block of demand-aware, bounded-degree
/// reconfigurable topologies (Avin et al., DISC 2017 / APOCS 2021). A request
/// `(s, d)` is served on `s`'s ego-tree at the usual cost (depth of `d` plus
/// one, plus the adjustment swaps); the physical degree of a host is the
/// number of links it participates in across all ego-trees.
///
/// # Examples
///
/// ```
/// use satn_core::AlgorithmKind;
/// use satn_network::{Host, SelfAdjustingNetwork};
///
/// let mut network = SelfAdjustingNetwork::new(16, AlgorithmKind::RotorPush, 7)?;
/// // A skewed pair keeps getting cheaper as the ego-tree adapts.
/// let first = network.serve(Host::new(3), Host::new(12))?;
/// let second = network.serve(Host::new(3), Host::new(12))?;
/// assert!(second.total() <= first.total());
/// # Ok::<(), satn_network::NetworkError>(())
/// ```
pub struct SelfAdjustingNetwork {
    egotrees: Vec<EgoTree>,
    per_source: Vec<CostSummary>,
    total: CostSummary,
    kind: AlgorithmKind,
}

impl SelfAdjustingNetwork {
    /// Builds a network of `num_hosts` hosts whose ego-trees are all managed
    /// by `kind`. Randomized algorithms are seeded per source with
    /// `seed + source index`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::TooFewHosts`] if `num_hosts < 2`,
    /// * [`NetworkError::TraceRequired`] for offline algorithms — use
    ///   [`SelfAdjustingNetwork::with_trace`].
    pub fn new(num_hosts: u32, kind: AlgorithmKind, seed: u64) -> Result<Self, NetworkError> {
        if num_hosts < 2 {
            return Err(NetworkError::TooFewHosts { num_hosts });
        }
        let mut egotrees = Vec::with_capacity(num_hosts as usize);
        for source in 0..num_hosts {
            egotrees.push(EgoTree::new(
                Host::new(source),
                num_hosts,
                kind,
                seed.wrapping_add(u64::from(source)),
            )?);
        }
        Ok(SelfAdjustingNetwork {
            egotrees,
            per_source: vec![CostSummary::new(); num_hosts as usize],
            total: CostSummary::new(),
            kind,
        })
    }

    /// Builds a network, handing every source the sub-trace of destinations it
    /// will request (required by the offline [`AlgorithmKind::StaticOpt`]
    /// baseline, harmless for the online algorithms).
    ///
    /// # Errors
    ///
    /// Construction errors of [`SelfAdjustingNetwork::new`], plus
    /// [`NetworkError::UnknownHost`] / [`NetworkError::SelfLoop`] if the trace
    /// contains invalid pairs.
    pub fn with_trace(
        num_hosts: u32,
        kind: AlgorithmKind,
        seed: u64,
        trace: &[HostPair],
    ) -> Result<Self, NetworkError> {
        if num_hosts < 2 {
            return Err(NetworkError::TooFewHosts { num_hosts });
        }
        let mut per_source_destinations: Vec<Vec<Host>> = vec![Vec::new(); num_hosts as usize];
        for pair in trace {
            if pair.source.index() >= num_hosts {
                return Err(NetworkError::UnknownHost {
                    host: pair.source,
                    num_hosts,
                });
            }
            per_source_destinations[pair.source.usize()].push(pair.destination);
        }
        let mut egotrees = Vec::with_capacity(num_hosts as usize);
        for source in 0..num_hosts {
            egotrees.push(EgoTree::with_trace(
                Host::new(source),
                num_hosts,
                kind,
                seed.wrapping_add(u64::from(source)),
                &per_source_destinations[source as usize],
            )?);
        }
        Ok(SelfAdjustingNetwork {
            egotrees,
            per_source: vec![CostSummary::new(); num_hosts as usize],
            total: CostSummary::new(),
            kind,
        })
    }

    /// The number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.egotrees.len() as u32
    }

    /// The algorithm managing every ego-tree.
    pub fn algorithm_kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Serves one request from `source` to `destination`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownHost`] if either endpoint is outside the
    ///   network,
    /// * [`NetworkError::SelfLoop`] if they coincide.
    pub fn serve(&mut self, source: Host, destination: Host) -> Result<ServeCost, NetworkError> {
        if source.index() >= self.num_hosts() {
            return Err(NetworkError::UnknownHost {
                host: source,
                num_hosts: self.num_hosts(),
            });
        }
        let cost = self.egotrees[source.usize()].serve(destination)?;
        self.per_source[source.usize()].record(cost);
        self.total.record(cost);
        Ok(cost)
    }

    /// Serves a whole trace of host pairs and returns the aggregate cost of
    /// just that trace.
    ///
    /// # Errors
    ///
    /// Returns the first error produced by [`SelfAdjustingNetwork::serve`].
    pub fn serve_trace(&mut self, trace: &[HostPair]) -> Result<CostSummary, NetworkError> {
        let mut summary = CostSummary::new();
        for pair in trace {
            summary.record(self.serve(pair.source, pair.destination)?);
        }
        Ok(summary)
    }

    /// The cost accumulated by requests issued by `source` since construction.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the network.
    pub fn cost_of_source(&self, source: Host) -> &CostSummary {
        &self.per_source[source.usize()]
    }

    /// The total cost accumulated since construction.
    pub fn total_cost(&self) -> &CostSummary {
        &self.total
    }

    /// The current routing distance from `source` to `destination` (depth of
    /// the destination in the source's ego-tree plus one), without serving a
    /// request.
    ///
    /// # Errors
    ///
    /// Same as [`SelfAdjustingNetwork::serve`], but nothing is modified.
    pub fn route_length(&self, source: Host, destination: Host) -> Result<u64, NetworkError> {
        if source.index() >= self.num_hosts() {
            return Err(NetworkError::UnknownHost {
                host: source,
                num_hosts: self.num_hosts(),
            });
        }
        Ok(u64::from(self.egotrees[source.usize()].depth_of(destination)?) + 1)
    }

    /// The current physical degree of `host`: the number of links it
    /// participates in across all ego-trees (its link to the root of its own
    /// ego-tree, its link to a source whenever it currently sits at the root
    /// of that source's tree, and its tree links to other *real* hosts).
    ///
    /// # Panics
    ///
    /// Panics if `host` is outside the network.
    pub fn physical_degree(&self, host: Host) -> u32 {
        let mut degree = 1; // link from `host` to the root of its own ego-tree
        for ego in &self.egotrees {
            if ego.source() == host {
                continue;
            }
            let occupancy = ego.occupancy();
            let tree = occupancy.tree();
            // Find the node currently holding `host` in this ego-tree; padding
            // means `host` is always present as a destination element.
            let Some(node) = tree.nodes().find(|&node| ego.host_at(node) == Some(host)) else {
                continue;
            };
            if node == NodeId::ROOT {
                degree += 1; // link to the source attached to this root
            }
            if let Some(parent) = node.parent() {
                if ego.host_at(parent).is_some() {
                    degree += 1;
                }
            }
            for child in [node.left_child(), node.right_child()] {
                if tree.contains(child) && ego.host_at(child).is_some() {
                    degree += 1;
                }
            }
        }
        degree
    }

    /// The maximum physical degree over all hosts.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_hosts())
            .map(|h| self.physical_degree(Host::new(h)))
            .max()
            .unwrap_or(0)
    }

    /// The average physical degree over all hosts.
    pub fn mean_degree(&self) -> f64 {
        let total: u64 = (0..self.num_hosts())
            .map(|h| u64::from(self.physical_degree(Host::new(h))))
            .sum();
        total as f64 / f64::from(self.num_hosts())
    }
}

impl fmt::Debug for SelfAdjustingNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelfAdjustingNetwork")
            .field("num_hosts", &self.num_hosts())
            .field("algorithm", &self.kind)
            .field("total_cost", &self.total)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_pairs_become_cheap_under_rotor_push() {
        let mut network = SelfAdjustingNetwork::new(32, AlgorithmKind::RotorPush, 3).unwrap();
        let pair = HostPair::from((5u32, 29u32));
        let first = network.serve(pair.source, pair.destination).unwrap();
        for _ in 0..5 {
            network.serve(pair.source, pair.destination).unwrap();
        }
        let later = network.serve(pair.source, pair.destination).unwrap();
        assert!(later.total() < first.total());
        assert_eq!(
            network.route_length(pair.source, pair.destination).unwrap(),
            1
        );
    }

    #[test]
    fn per_source_and_total_costs_add_up() {
        let mut network = SelfAdjustingNetwork::new(8, AlgorithmKind::MoveHalf, 0).unwrap();
        let trace: Vec<HostPair> = vec![
            (0u32, 3u32).into(),
            (0u32, 5u32).into(),
            (4u32, 1u32).into(),
            (7u32, 0u32).into(),
        ];
        let summary = network.serve_trace(&trace).unwrap();
        assert_eq!(summary.requests(), 4);
        assert_eq!(network.total_cost().requests(), 4);
        assert_eq!(network.cost_of_source(Host::new(0)).requests(), 2);
        assert_eq!(network.cost_of_source(Host::new(4)).requests(), 1);
        assert_eq!(network.cost_of_source(Host::new(2)).requests(), 0);
        let per_source_total: u64 = (0..8)
            .map(|h| network.cost_of_source(Host::new(h)).total().total())
            .sum();
        assert_eq!(per_source_total, network.total_cost().total().total());
    }

    #[test]
    fn degrees_are_bounded_by_the_ego_tree_structure() {
        let network = SelfAdjustingNetwork::new(10, AlgorithmKind::RotorPush, 0).unwrap();
        // Every host appears in 9 foreign ego-trees with at most 3 tree links
        // each, plus at most 1 root link per tree and 1 own-tree link.
        let upper = 1 + 9 * 4;
        for host in (0..10).map(Host::new) {
            let degree = network.physical_degree(host);
            assert!(degree >= 1);
            assert!(degree <= upper, "host {host}: degree {degree}");
        }
        assert!(network.max_degree() <= upper);
        assert!(network.mean_degree() >= 1.0);
    }

    #[test]
    fn with_trace_supports_static_opt_and_beats_oblivious_on_skew() {
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(HostPair::from((1u32, 14u32)));
            trace.push(HostPair::from((1u32, 2u32)));
        }
        let mut opt =
            SelfAdjustingNetwork::with_trace(16, AlgorithmKind::StaticOpt, 0, &trace).unwrap();
        let mut oblivious =
            SelfAdjustingNetwork::new(16, AlgorithmKind::StaticOblivious, 0).unwrap();
        let opt_cost = opt.serve_trace(&trace).unwrap().total().total();
        let oblivious_cost = oblivious.serve_trace(&trace).unwrap().total().total();
        assert!(opt_cost < oblivious_cost);
    }

    #[test]
    fn invalid_requests_are_rejected_and_leave_no_trace() {
        let mut network = SelfAdjustingNetwork::new(4, AlgorithmKind::RotorPush, 0).unwrap();
        assert!(matches!(
            network.serve(Host::new(9), Host::new(1)),
            Err(NetworkError::UnknownHost { .. })
        ));
        assert!(matches!(
            network.serve(Host::new(1), Host::new(1)),
            Err(NetworkError::SelfLoop { .. })
        ));
        assert_eq!(network.total_cost().requests(), 0);
    }

    #[test]
    fn debug_output_mentions_the_algorithm() {
        let network = SelfAdjustingNetwork::new(4, AlgorithmKind::MaxPush, 0).unwrap();
        let rendered = format!("{network:?}");
        assert!(rendered.contains("MaxPush"));
        assert!(rendered.contains("num_hosts"));
    }
}
