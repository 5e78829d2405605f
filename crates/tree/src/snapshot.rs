//! Immutable point-in-time views of an occupancy.
//!
//! [`TreeSnapshot`] is a frozen copy of an occupancy that answers lookups
//! (`nd`, `el`, levels, access costs) without ever mutating, built for
//! concurrent read-mostly serving — writers keep adjusting a live
//! [`Occupancy`] while readers share immutable snapshots of earlier states.
//! A placement is identified by its [`Fingerprint`]; there is no text form.

use crate::fingerprint::Fingerprint;
use crate::node::{ElementId, NodeId};
use crate::occupancy::Occupancy;
use crate::topology::CompleteTree;

/// An immutable point-in-time view of an [`Occupancy`]: the element↔node
/// bijection and the topology, frozen at capture time.
///
/// Snapshots exist so pure lookups can be served concurrently without
/// synchronizing with writers: a shared snapshot never changes (only
/// [`TreeSnapshot::recapture`] writes one, through `&mut`), so any number of
/// threads may share one (it is `Send + Sync`) while the live tree keeps
/// self-adjusting. Both directions of the bijection are kept, so `nd(e)`
/// and `el(v)` are single array reads.
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

    /// Overwrites this snapshot with the current state of `occupancy`,
    /// reusing its slabs: on the same geometry this is two in-place slab
    /// memcpys and no allocation; on another geometry it falls back to
    /// [`TreeSnapshot::capture`]. The result equals a fresh capture.
    pub fn recapture(&mut self, occupancy: &Occupancy) {
        if self.tree != occupancy.tree() {
            *self = TreeSnapshot::capture(occupancy);
            return;
        }
        let (element_of, node_of) = occupancy.raw_parts();
        self.element_of.copy_from_slice(element_of);
        self.node_of.copy_from_slice(node_of);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn recapture_reuses_the_slabs_of_the_same_geometry_only() {
        let tree = CompleteTree::with_levels(6).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut occupancy = placement::random_occupancy(tree, &mut rng);
        let mut snapshot = TreeSnapshot::capture(&occupancy);
        let slabs =
            |snapshot: &TreeSnapshot| (snapshot.element_of.as_ptr(), snapshot.node_of.as_ptr());
        let before = slabs(&snapshot);

        occupancy.swap_nodes(NodeId::ROOT, NodeId::new(2)).unwrap();
        snapshot.recapture(&occupancy);
        assert_eq!(slabs(&snapshot), before, "same geometry: slabs reused");
        assert_eq!(snapshot.fingerprint(), occupancy.fingerprint());
        assert_eq!(snapshot, TreeSnapshot::capture(&occupancy));

        let other = placement::random_occupancy(CompleteTree::with_levels(4).unwrap(), &mut rng);
        snapshot.recapture(&other);
        assert_ne!(slabs(&snapshot), before, "new geometry: slabs reallocated");
        assert_eq!(snapshot.tree(), other.tree());
        assert_eq!(snapshot.fingerprint(), other.fingerprint());
        assert_eq!(snapshot, TreeSnapshot::capture(&other));
    }
}
