//! Rotor pointer state: one two-state pointer per non-leaf node.

use satn_tree::{CompleteTree, Direction, NodeId, TreeError};

/// The rotor pointers of a complete binary tree: every non-leaf node points
/// to one of its two children, initially the left one (Section 3 of the
/// paper).
///
/// The *global path* is the root-to-leaf path obtained by starting at the
/// root and following the pointers; `flip(d)` toggles the pointers of the
/// global-path nodes at levels `0, …, d − 1` (Definition 2).
///
/// # Examples
///
/// ```
/// use satn_rotor::RotorState;
/// use satn_tree::{CompleteTree, Direction, NodeId};
///
/// let tree = CompleteTree::with_levels(3)?;
/// let mut rotors = RotorState::new(tree);
/// // Initially every pointer goes left, so the global path is the left spine.
/// assert_eq!(rotors.global_path(), vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
/// rotors.flip(2);
/// // The two topmost pointers toggled: the path now goes right, then right's right... no —
/// // flipping level-0 and level-1 pointers moves the path to the rightmost-of-right spine prefix.
/// assert_eq!(rotors.pointer(NodeId::new(0)), Direction::Right);
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotorState {
    tree: CompleteTree,
    /// Pointer direction per node; leaves carry an unused `Left` entry.
    pointers: Vec<Direction>,
}

impl RotorState {
    /// Creates the initial rotor state with every pointer aimed at the left
    /// child.
    pub fn new(tree: CompleteTree) -> Self {
        RotorState {
            tree,
            pointers: vec![Direction::Left; tree.num_nodes() as usize],
        }
    }

    /// Returns the underlying tree topology.
    #[inline]
    pub fn tree(&self) -> CompleteTree {
        self.tree
    }

    /// Returns the pointer direction at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not part of the tree.
    #[inline]
    pub fn pointer(&self, node: NodeId) -> Direction {
        self.pointers[node.usize()]
    }

    /// Sets the pointer at `node` explicitly (used by tests and ablations).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] if the node does not exist.
    pub fn set_pointer(&mut self, node: NodeId, direction: Direction) -> Result<(), TreeError> {
        self.tree.check_node(node)?;
        self.pointers[node.usize()] = direction;
        Ok(())
    }

    /// Toggles the pointer at `node`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] if the node does not exist.
    pub fn toggle(&mut self, node: NodeId) -> Result<(), TreeError> {
        self.tree.check_node(node)?;
        let p = &mut self.pointers[node.usize()];
        *p = p.toggled();
        Ok(())
    }

    /// Returns the child of `node` indicated by its pointer.
    #[inline]
    pub fn pointed_child(&self, node: NodeId) -> NodeId {
        node.child(self.pointer(node))
    }

    /// Returns the node of the global path at the given level (`P_d` in the
    /// paper's notation).
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the deepest level of the tree.
    pub fn global_path_node(&self, level: u32) -> NodeId {
        assert!(
            level <= self.tree.max_level(),
            "level {level} exceeds tree depth {}",
            self.tree.max_level()
        );
        let mut node = NodeId::ROOT;
        for _ in 0..level {
            node = self.pointed_child(node);
        }
        node
    }

    /// Returns the whole global path from the root to a leaf.
    pub fn global_path(&self) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.tree.num_levels() as usize);
        let mut node = NodeId::ROOT;
        path.push(node);
        while !self.tree.is_leaf(node) {
            node = self.pointed_child(node);
            path.push(node);
        }
        path
    }

    /// Performs the `flip(d)` operation of Definition 2: toggles the pointers
    /// of the global-path nodes at levels `0, …, d − 1`.
    ///
    /// Returns the node the walk reaches at level `d`: the global-path node
    /// `P_d` as it was before the flip, so a caller that needs both walks
    /// one path instead of two. `flip(0)` is a no-op returning the root; for
    /// `d` equal to the number of levels the returned position lies below
    /// the leaves, outside the tree.
    ///
    /// # Panics
    ///
    /// Panics if `d` exceeds the number of levels of the tree.
    pub fn flip(&mut self, d: u32) -> NodeId {
        assert!(
            d <= self.tree.max_level() + 1,
            "flip level {d} exceeds tree depth"
        );
        let mut node = NodeId::ROOT;
        for _ in 0..d {
            let next = self.pointed_child(node);
            let p = &mut self.pointers[node.usize()];
            *p = p.toggled();
            node = next;
        }
        node
    }

    /// Returns the pointer directions of all nodes in heap order (useful for
    /// snapshotting state in tests).
    pub fn pointers(&self) -> &[Direction] {
        &self.pointers
    }

    /// Carries this rotor configuration onto a (possibly resized) tree: the
    /// shared heap-order node prefix keeps its pointers, nodes that exist
    /// only in the new tree start at `Left` (the cold-start direction), and
    /// pointers of nodes beyond the new size are dropped.
    ///
    /// This is the warm-handover transfer rule: heap order is
    /// topology-stable for complete trees (node `i`'s children are always
    /// `2i + 1` and `2i + 2`), so a prefix copy preserves every surviving
    /// node's rotor exactly. Rotor walks remain deterministic and
    /// well-behaved from *any* initial pointer configuration (Angel &
    /// Holroyd), so the carried state is always a valid starting point.
    pub fn carried_into(&self, tree: CompleteTree) -> RotorState {
        let mut carried = RotorState::new(tree);
        let shared = self.pointers.len().min(carried.pointers.len());
        carried.pointers[..shared].copy_from_slice(&self.pointers[..shared]);
        carried
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(levels: u32) -> RotorState {
        RotorState::new(CompleteTree::with_levels(levels).unwrap())
    }

    #[test]
    fn initial_global_path_is_left_spine() {
        let s = state(4);
        assert_eq!(
            s.global_path(),
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(3),
                NodeId::new(7)
            ]
        );
        assert_eq!(s.global_path_node(0), NodeId::ROOT);
        assert_eq!(s.global_path_node(3), NodeId::new(7));
    }

    #[test]
    fn flip_zero_is_noop() {
        let mut s = state(3);
        let before = s.clone();
        s.flip(0);
        assert_eq!(s, before);
    }

    #[test]
    fn flip_toggles_only_global_path_prefix() {
        let mut s = state(4);
        s.flip(3);
        // Levels 0, 1, 2 of the (old) global path 0-1-3 are toggled.
        assert_eq!(s.pointer(NodeId::new(0)), Direction::Right);
        assert_eq!(s.pointer(NodeId::new(1)), Direction::Right);
        assert_eq!(s.pointer(NodeId::new(3)), Direction::Right);
        // Other nodes keep their initial pointer.
        assert_eq!(s.pointer(NodeId::new(2)), Direction::Left);
        assert_eq!(s.pointer(NodeId::new(4)), Direction::Left);
        // The new global path starts at the root going right.
        assert_eq!(s.global_path()[1], NodeId::new(2));
    }

    #[test]
    fn flip_uses_the_path_before_toggling() {
        // After flip(1) the root points right; a subsequent flip(2) must
        // toggle the root and node 2 (the new P_1), not node 1.
        let mut s = state(3);
        s.flip(1);
        assert_eq!(s.pointer(NodeId::ROOT), Direction::Right);
        s.flip(2);
        assert_eq!(s.pointer(NodeId::ROOT), Direction::Left);
        assert_eq!(s.pointer(NodeId::new(2)), Direction::Right);
        assert_eq!(s.pointer(NodeId::new(1)), Direction::Left);
    }

    #[test]
    fn repeated_full_flips_visit_every_leaf_once() {
        // 2^d consecutive flip(d) operations make every d-level node appear on
        // the global path exactly once (the observation below Definition 3).
        let levels = 5;
        let mut s = state(levels);
        let d = levels - 1;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..(1u32 << d) {
            seen.insert(s.global_path_node(d));
            s.flip(d);
        }
        assert_eq!(seen.len(), 1usize << d);
    }

    #[test]
    fn set_and_toggle_pointer() {
        let mut s = state(3);
        s.set_pointer(NodeId::new(1), Direction::Right).unwrap();
        assert_eq!(s.pointer(NodeId::new(1)), Direction::Right);
        s.toggle(NodeId::new(1)).unwrap();
        assert_eq!(s.pointer(NodeId::new(1)), Direction::Left);
        assert!(s.set_pointer(NodeId::new(99), Direction::Left).is_err());
        assert!(s.toggle(NodeId::new(99)).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds tree depth")]
    fn global_path_node_rejects_too_deep_level() {
        state(3).global_path_node(3);
    }

    #[test]
    fn pointers_snapshot_has_one_entry_per_node() {
        let s = state(4);
        assert_eq!(s.pointers().len(), 15);
    }

    #[test]
    fn carried_into_prefix_copies_and_defaults_new_nodes() {
        let mut s = state(3);
        s.flip(3); // toggles the left spine: nodes 0, 1, 3 point right
                   // Same size: an exact copy.
        let same = s.carried_into(CompleteTree::with_levels(3).unwrap());
        assert_eq!(same, s);
        // Grown: the old prefix survives, new nodes start Left.
        let grown = s.carried_into(CompleteTree::with_levels(4).unwrap());
        assert_eq!(grown.pointers()[..7], *s.pointers());
        assert!(grown.pointers()[7..].iter().all(|&p| p == Direction::Left));
        // Shrunk: only the surviving prefix is kept.
        let shrunk = s.carried_into(CompleteTree::with_levels(2).unwrap());
        assert_eq!(*shrunk.pointers(), s.pointers()[..3]);
    }
}
