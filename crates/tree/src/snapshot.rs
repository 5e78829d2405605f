//! Saving and restoring occupancies — and immutable point-in-time views.
//!
//! Long experiments (and the interactive examples) occasionally need to
//! checkpoint the state of a tree and resume later, or to ship an interesting
//! configuration into a bug report or unit test. The snapshot format is a
//! deliberately simple text format: a header with the node count followed by
//! the element stored at each node in heap order. It is a diagnostic and
//! single-tree checkpoint format only; replay oracles compare the fixed-width
//! [`Fingerprint`] digest instead.
//!
//! [`TreeSnapshot`] is the in-memory counterpart: a frozen copy of an
//! occupancy that answers lookups (`nd`, `el`, levels, access costs) without
//! ever mutating, built for concurrent read-mostly serving — writers keep
//! adjusting a live [`Occupancy`] while readers share immutable snapshots of
//! earlier states.

use crate::fingerprint::Fingerprint;
use crate::node::{ElementId, NodeId};
use crate::occupancy::Occupancy;
use crate::topology::CompleteTree;
use std::fmt;

/// An immutable point-in-time view of an [`Occupancy`]: the element↔node
/// bijection and the topology, frozen at capture time.
///
/// Snapshots exist so pure lookups can be served concurrently without
/// synchronizing with writers: a snapshot never changes after
/// [`TreeSnapshot::capture`], so any number of threads may share one (it is
/// `Send + Sync`) while the live tree keeps self-adjusting. Both directions
/// of the bijection are kept, so `nd(e)` and `el(v)` are single array reads.
///
/// [`TreeSnapshot::fingerprint`] is the same digest as
/// [`Occupancy::fingerprint`] of the captured occupancy, which is what lets
/// snapshot reads be checked against the serial-replay determinism oracle.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    tree: CompleteTree,
    /// Element stored at each node, indexed by heap node index.
    element_of: Box<[ElementId]>,
    /// Heap index of the node holding each element, indexed by element id.
    node_of: Box<[u32]>,
}

impl TreeSnapshot {
    /// Freezes the current state of an occupancy. The capture is two slab
    /// memcpys.
    pub fn capture(occupancy: &Occupancy) -> Self {
        let (element_of, node_of) = occupancy.raw_parts();
        TreeSnapshot {
            tree: occupancy.tree(),
            element_of: element_of.into(),
            node_of: node_of.into(),
        }
    }

    /// The tree topology the snapshot was taken on.
    #[inline]
    pub fn tree(&self) -> CompleteTree {
        self.tree
    }

    /// Number of elements (equal to the number of nodes).
    #[inline]
    pub fn num_elements(&self) -> u32 {
        self.tree.num_nodes()
    }

    /// The node that held `element` at capture time, or `None` for an
    /// element outside this tree's universe (lookups come from the network,
    /// so out-of-range ids must not panic).
    #[inline]
    pub fn node_of(&self, element: ElementId) -> Option<NodeId> {
        self.node_of
            .get(element.usize())
            .map(|&index| NodeId::new(index))
    }

    /// The element that was stored at `node`, or `None` for a node outside
    /// the tree.
    #[inline]
    pub fn element_at(&self, node: NodeId) -> Option<ElementId> {
        if self.tree.contains(node) {
            Some(self.element_of[node.usize()])
        } else {
            None
        }
    }

    /// The level `element` sat at, or `None` if out of range.
    #[inline]
    pub fn level_of(&self, element: ElementId) -> Option<u32> {
        self.node_of(element).map(NodeId::level)
    }

    /// The access cost `ℓ(e) + 1` the element would have paid at capture
    /// time, or `None` if out of range.
    #[inline]
    pub fn access_cost(&self, element: ElementId) -> Option<u64> {
        self.level_of(element).map(|level| level as u64 + 1)
    }

    /// The captured placement's [`Fingerprint`] — equal to
    /// [`Occupancy::fingerprint`] of the occupancy the snapshot was captured
    /// from.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_node_map(self.tree.num_nodes(), &self.node_of)
    }
}

/// Equality matching [`Occupancy`]'s: snapshots are equal when they froze
/// the same placement on the same tree.
impl PartialEq for TreeSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.element_of == other.element_of
    }
}

impl Eq for TreeSnapshot {}

/// Errors produced while parsing an occupancy snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The header line is missing or malformed.
    MissingHeader,
    /// The declared node count is not a valid complete-tree size.
    InvalidSize {
        /// The declared number of nodes.
        nodes: u64,
    },
    /// A body line is not a valid element index.
    InvalidEntry {
        /// The 1-based line number of the offending line.
        line: usize,
    },
    /// The body does not describe a bijection (wrong length, duplicates, or
    /// out-of-range elements).
    NotABijection {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MissingHeader => {
                write!(
                    f,
                    "missing snapshot header (expected `satn-occupancy nodes=<n>`)"
                )
            }
            SnapshotError::InvalidSize { nodes } => {
                write!(f, "{nodes} is not a valid complete-tree size")
            }
            SnapshotError::InvalidEntry { line } => {
                write!(f, "line {line} is not a valid element index")
            }
            SnapshotError::NotABijection { detail } => {
                write!(f, "snapshot is not a bijection: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialises an occupancy into the snapshot text format: the elements in
/// heap order, one per line.
pub fn occupancy_to_string(occupancy: &Occupancy) -> String {
    let mut output = format!("satn-occupancy nodes={}\n", occupancy.num_elements());
    for (_, element) in occupancy.iter() {
        output.push_str(&element.index().to_string());
        output.push('\n');
    }
    output
}

/// Parses a snapshot produced by [`occupancy_to_string`].
///
/// # Errors
///
/// Returns a [`SnapshotError`] describing the first problem found: a missing
/// header, an invalid tree size, a malformed entry, or a body that is not a
/// bijection.
pub fn occupancy_from_str(snapshot: &str) -> Result<Occupancy, SnapshotError> {
    let mut lines = snapshot.lines();
    let header = lines.next().ok_or(SnapshotError::MissingHeader)?;
    let nodes: u64 = header
        .strip_prefix("satn-occupancy nodes=")
        .and_then(|value| value.trim().parse().ok())
        .ok_or(SnapshotError::MissingHeader)?;
    let tree = CompleteTree::with_nodes(nodes).map_err(|_| SnapshotError::InvalidSize { nodes })?;
    let mut placement = Vec::with_capacity(nodes as usize);
    for (index, line) in lines.enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let element: u32 = trimmed
            .parse()
            .map_err(|_| SnapshotError::InvalidEntry { line: index + 2 })?;
        placement.push(ElementId::new(element));
    }
    Occupancy::from_placement(tree, placement).map_err(|err| SnapshotError::NotABijection {
        detail: err.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshots_roundtrip_identity_and_random_occupancies() {
        let tree = CompleteTree::with_levels(6).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for occupancy in [
            Occupancy::identity(tree),
            placement::random_occupancy(tree, &mut rng),
        ] {
            let text = occupancy_to_string(&occupancy);
            let restored = occupancy_from_str(&text).unwrap();
            assert_eq!(restored, occupancy);
        }
    }

    #[test]
    fn snapshots_survive_swaps() {
        let tree = CompleteTree::with_levels(4).unwrap();
        let mut occupancy = Occupancy::identity(tree);
        occupancy
            .swap_nodes(NodeId::new(3), NodeId::new(1))
            .unwrap();
        occupancy
            .swap_nodes(NodeId::new(1), NodeId::new(0))
            .unwrap();
        let restored = occupancy_from_str(&occupancy_to_string(&occupancy)).unwrap();
        assert_eq!(restored.element_at(NodeId::ROOT), ElementId::new(3));
        assert_eq!(restored, occupancy);
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_precise_errors() {
        assert_eq!(occupancy_from_str(""), Err(SnapshotError::MissingHeader));
        assert_eq!(
            occupancy_from_str("occupancy nodes=7\n"),
            Err(SnapshotError::MissingHeader)
        );
        assert_eq!(
            occupancy_from_str("satn-occupancy nodes=6\n0\n1\n2\n3\n4\n5\n"),
            Err(SnapshotError::InvalidSize { nodes: 6 })
        );
        assert_eq!(
            occupancy_from_str("satn-occupancy nodes=3\n0\nbanana\n2\n"),
            Err(SnapshotError::InvalidEntry { line: 3 })
        );
        assert!(matches!(
            occupancy_from_str("satn-occupancy nodes=3\n0\n0\n2\n"),
            Err(SnapshotError::NotABijection { .. })
        ));
        assert!(matches!(
            occupancy_from_str("satn-occupancy nodes=3\n0\n1\n"),
            Err(SnapshotError::NotABijection { .. })
        ));
    }

    #[test]
    fn tree_snapshots_freeze_the_captured_state() {
        let tree = CompleteTree::with_levels(5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut occupancy = placement::random_occupancy(tree, &mut rng);
        let snapshot = TreeSnapshot::capture(&occupancy);
        assert_eq!(snapshot.num_elements(), 31);
        for (node, element) in occupancy.iter() {
            assert_eq!(snapshot.node_of(element), Some(node));
            assert_eq!(snapshot.element_at(node), Some(element));
            assert_eq!(snapshot.level_of(element), Some(node.level()));
            assert_eq!(snapshot.access_cost(element), Some(node.level() as u64 + 1));
        }
        // Out-of-range lookups answer None instead of panicking.
        assert_eq!(snapshot.node_of(ElementId::new(31)), None);
        assert_eq!(snapshot.element_at(NodeId::new(31)), None);
        // The snapshot fingerprint is the occupancy's.
        assert_eq!(snapshot.fingerprint(), occupancy.fingerprint());

        // Mutating the live occupancy never changes the frozen view.
        let before = snapshot.clone();
        occupancy.swap_nodes(NodeId::ROOT, NodeId::new(1)).unwrap();
        assert_eq!(snapshot, before);
        assert_ne!(snapshot.fingerprint(), occupancy.fingerprint());
    }

    #[test]
    fn text_snapshots_roundtrip_to_the_same_fingerprint() {
        let tree = CompleteTree::with_levels(4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let occupancy = placement::random_occupancy(tree, &mut rng);
        let snapshot = TreeSnapshot::capture(&occupancy);
        let restored = occupancy_from_str(&occupancy_to_string(&occupancy)).unwrap();
        assert_eq!(restored.fingerprint(), snapshot.fingerprint());
    }

    #[test]
    fn error_messages_are_informative() {
        let err = occupancy_from_str("satn-occupancy nodes=3\n0\n0\n2\n").unwrap_err();
        assert!(err.to_string().contains("bijection"));
        assert!(SnapshotError::MissingHeader.to_string().contains("header"));
        assert!(SnapshotError::InvalidSize { nodes: 12 }
            .to_string()
            .contains("12"));
    }
}
