//! Node identifiers and index arithmetic on the implicit complete binary tree.
//!
//! Nodes are identified by their heap index: the root is `0`, and the children
//! of node `i` are `2i + 1` (left) and `2i + 2` (right). All level, ancestor
//! and path computations are pure index arithmetic, which keeps the rotating
//! tree free of pointers and lifetimes.

use std::fmt;

/// Identifier of a node (a *position*) in the complete binary tree.
///
/// The identity of a node never changes; only the element stored at it does.
///
/// # Examples
///
/// ```
/// use satn_tree::NodeId;
///
/// let root = NodeId::ROOT;
/// assert_eq!(root.level(), 0);
/// assert_eq!(root.left_child(), NodeId::new(1));
/// assert_eq!(NodeId::new(4).parent(), Some(NodeId::new(1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node (heap index 0, level 0).
    pub const ROOT: NodeId = NodeId(0);

    /// Creates a node identifier from its heap index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the heap index of this node.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the heap index as a `usize`, convenient for vector indexing.
    #[inline]
    pub const fn usize(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this node is the tree root.
    #[inline]
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }

    /// Returns the level (depth) of this node; the root has level 0.
    ///
    /// # Examples
    ///
    /// ```
    /// use satn_tree::NodeId;
    /// assert_eq!(NodeId::new(0).level(), 0);
    /// assert_eq!(NodeId::new(2).level(), 1);
    /// assert_eq!(NodeId::new(7).level(), 3);
    /// ```
    #[inline]
    pub const fn level(self) -> u32 {
        // Node indices on level d span [2^d - 1, 2^(d+1) - 2], so the level is
        // the position of the highest set bit of (index + 1).
        u32::BITS - 1 - (self.0 + 1).leading_zeros()
    }

    /// Returns the parent of this node, or `None` for the root.
    #[inline]
    pub const fn parent(self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            Some(NodeId((self.0 - 1) / 2))
        }
    }

    /// Returns the left child position (which may lie outside a finite tree).
    #[inline]
    pub const fn left_child(self) -> NodeId {
        NodeId(2 * self.0 + 1)
    }

    /// Returns the right child position (which may lie outside a finite tree).
    #[inline]
    pub const fn right_child(self) -> NodeId {
        NodeId(2 * self.0 + 2)
    }

    /// Returns the child in the given direction.
    #[inline]
    pub const fn child(self, direction: Direction) -> NodeId {
        match direction {
            Direction::Left => self.left_child(),
            Direction::Right => self.right_child(),
        }
    }

    /// Returns `true` if `self` is the parent of `other`.
    #[inline]
    pub fn is_parent_of(self, other: NodeId) -> bool {
        other.parent() == Some(self)
    }

    /// Returns `true` if the two nodes occupy adjacent positions (parent/child).
    #[inline]
    pub fn is_adjacent_to(self, other: NodeId) -> bool {
        self.is_parent_of(other) || other.is_parent_of(self)
    }

    /// Returns the ancestor of this node at the given level.
    ///
    /// # Panics
    ///
    /// Panics if `level` is greater than the level of this node.
    #[inline]
    pub fn ancestor_at_level(self, level: u32) -> NodeId {
        let own = self.level();
        assert!(
            level <= own,
            "ancestor level {level} exceeds node level {own}"
        );
        // Moving up one level is (i - 1) / 2; moving up k levels maps
        // (i + 1) to (i + 1) >> k.
        NodeId(((self.0 + 1) >> (own - level)) - 1)
    }

    /// Returns `true` if `self` is an ancestor of `other` (or equal to it).
    #[inline]
    pub fn is_ancestor_of_or_equal(self, other: NodeId) -> bool {
        let la = self.level();
        let lb = other.level();
        la <= lb && other.ancestor_at_level(la) == self
    }

    /// Returns an allocation-free iterator over this node and its ancestors,
    /// ascending from `self` to [`NodeId::ROOT`] (inclusive on both ends).
    ///
    /// This is the hot-path replacement for [`NodeId::path_from_root`]: the
    /// iterator is double-ended (`.rev()` walks the root-to-node descent),
    /// exact-sized, and every step is O(1) index arithmetic — no `Vec`.
    ///
    /// # Examples
    ///
    /// ```
    /// use satn_tree::NodeId;
    ///
    /// let node = NodeId::new(12);
    /// let up: Vec<NodeId> = node.ancestors().collect();
    /// assert_eq!(up, vec![NodeId::new(12), NodeId::new(5), NodeId::new(2), NodeId::ROOT]);
    /// let down: Vec<NodeId> = node.ancestors().rev().collect();
    /// assert_eq!(down, node.path_from_root());
    /// ```
    #[inline]
    pub const fn ancestors(self) -> Ancestors {
        Ancestors {
            node: self,
            low: 0,
            high: self.level(),
            exhausted: false,
        }
    }

    /// Returns the path from the root to this node, inclusive on both ends.
    ///
    /// The returned vector has `self.level() + 1` entries and starts at
    /// [`NodeId::ROOT`]. Prefer [`NodeId::ancestors`] (optionally reversed)
    /// on hot paths — it performs the same walk without allocating.
    pub fn path_from_root(self) -> Vec<NodeId> {
        self.ancestors().rev().collect()
    }

    /// Returns the lowest common ancestor of two nodes.
    pub fn lowest_common_ancestor(self, other: NodeId) -> NodeId {
        let (mut a, mut b) = (self, other);
        while a.level() > b.level() {
            a = a.parent().expect("deeper node has a parent");
        }
        while b.level() > a.level() {
            b = b.parent().expect("deeper node has a parent");
        }
        while a != b {
            a = a.parent().expect("non-root differing node");
            b = b.parent().expect("non-root differing node");
        }
        a
    }

    /// Returns the 0-based position of this node within its level
    /// (`0` is the leftmost node of the level).
    #[inline]
    pub const fn offset_in_level(self) -> u32 {
        (self.0 + 1) - (1 << self.level())
    }

    /// Returns the node at `level` whose position within that level is
    /// `offset` (0-based, left to right).
    ///
    /// # Panics
    ///
    /// Panics if `offset >= 2^level`.
    #[inline]
    pub fn from_level_offset(level: u32, offset: u32) -> NodeId {
        assert!(
            offset < (1u32 << level),
            "offset {offset} out of level {level}"
        );
        NodeId((1u32 << level) - 1 + offset)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.0 as usize
    }
}

/// Allocation-free iterator over a node and its ancestors, created by
/// [`NodeId::ancestors`].
///
/// Yields nodes in ascending order (deepest first, root last); reversing it
/// yields the root-to-node descent. Every step is O(1) bit arithmetic via
/// [`NodeId::ancestor_at_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ancestors {
    node: NodeId,
    /// Shallowest level still to be yielded (from the back).
    low: u32,
    /// Deepest level still to be yielded (from the front).
    high: u32,
    exhausted: bool,
}

impl Iterator for Ancestors {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.exhausted {
            return None;
        }
        let item = self.node.ancestor_at_level(self.high);
        if self.high == self.low {
            self.exhausted = true;
        } else {
            self.high -= 1;
        }
        Some(item)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.exhausted {
            0
        } else {
            (self.high - self.low) as usize + 1
        };
        (remaining, Some(remaining))
    }
}

impl DoubleEndedIterator for Ancestors {
    #[inline]
    fn next_back(&mut self) -> Option<NodeId> {
        if self.exhausted {
            return None;
        }
        let item = self.node.ancestor_at_level(self.low);
        if self.low == self.high {
            self.exhausted = true;
        } else {
            self.low += 1;
        }
        Some(item)
    }
}

impl ExactSizeIterator for Ancestors {}

impl std::iter::FusedIterator for Ancestors {}

/// Direction of a child edge in the binary tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// The left child (heap index `2i + 1`).
    Left,
    /// The right child (heap index `2i + 2`).
    Right,
}

impl Direction {
    /// Returns the opposite direction.
    #[inline]
    pub const fn toggled(self) -> Direction {
        match self {
            Direction::Left => Direction::Right,
            Direction::Right => Direction::Left,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Left => write!(f, "L"),
            Direction::Right => write!(f, "R"),
        }
    }
}

/// Identifier of an element (a logical item / destination node of the
/// communication request) stored in the tree.
///
/// Elements move between nodes as the self-adjusting algorithm reorganises
/// the tree; their identity is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ElementId(pub(crate) u32);

impl ElementId {
    /// Creates an element identifier.
    #[inline]
    pub const fn new(index: u32) -> Self {
        ElementId(index)
    }

    /// Returns the numeric identifier.
    #[inline]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the identifier as a `usize`, convenient for vector indexing.
    #[inline]
    pub const fn usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<ElementId> for u32 {
    fn from(id: ElementId) -> u32 {
        id.0
    }
}

impl From<ElementId> for usize {
    fn from(id: ElementId) -> usize {
        id.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_properties() {
        assert_eq!(NodeId::ROOT.level(), 0);
        assert!(NodeId::ROOT.is_root());
        assert_eq!(NodeId::ROOT.parent(), None);
        assert_eq!(NodeId::ROOT.offset_in_level(), 0);
    }

    #[test]
    fn levels_match_heap_layout() {
        let expected = [
            (0, 0),
            (1, 1),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 2),
            (6, 2),
            (7, 3),
            (14, 3),
            (15, 4),
        ];
        for (idx, lvl) in expected {
            assert_eq!(NodeId::new(idx).level(), lvl, "node {idx}");
        }
    }

    #[test]
    fn parent_child_roundtrip() {
        for i in 0..1000u32 {
            let n = NodeId::new(i);
            assert_eq!(n.left_child().parent(), Some(n));
            assert_eq!(n.right_child().parent(), Some(n));
        }
    }

    #[test]
    fn ancestor_at_level_matches_repeated_parent() {
        for i in 0..512u32 {
            let n = NodeId::new(i);
            let mut cur = n;
            let mut level = n.level();
            loop {
                assert_eq!(n.ancestor_at_level(level), cur);
                match cur.parent() {
                    Some(p) => {
                        cur = p;
                        level -= 1;
                    }
                    None => break,
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ancestor level")]
    fn ancestor_at_level_rejects_deeper_level() {
        NodeId::new(1).ancestor_at_level(5);
    }

    #[test]
    fn path_from_root_is_consistent() {
        let n = NodeId::new(12);
        let path = n.path_from_root();
        assert_eq!(path.first(), Some(&NodeId::ROOT));
        assert_eq!(path.last(), Some(&n));
        for pair in path.windows(2) {
            assert!(pair[0].is_parent_of(pair[1]));
        }
        assert_eq!(path.len() as u32, n.level() + 1);
    }

    #[test]
    fn ancestors_ascend_from_node_to_root() {
        let node = NodeId::new(12);
        let up: Vec<NodeId> = node.ancestors().collect();
        assert_eq!(
            up,
            vec![
                NodeId::new(12),
                NodeId::new(5),
                NodeId::new(2),
                NodeId::ROOT
            ]
        );
        assert_eq!(
            NodeId::ROOT.ancestors().collect::<Vec<_>>(),
            vec![NodeId::ROOT]
        );
    }

    #[test]
    fn ancestors_match_path_from_root_reversed_on_many_nodes() {
        for index in 0..2048u32 {
            let node = NodeId::new(index);
            let mut expected = node.path_from_root();
            assert_eq!(
                node.ancestors().rev().collect::<Vec<_>>(),
                expected,
                "descending, node {index}"
            );
            expected.reverse();
            assert_eq!(
                node.ancestors().collect::<Vec<_>>(),
                expected,
                "ascending, node {index}"
            );
            assert_eq!(node.ancestors().len() as u32, node.level() + 1);
        }
    }

    #[test]
    fn ancestors_is_a_well_behaved_double_ended_iterator() {
        let node = NodeId::new(11); // path 0 - 2 - 5 - 11
        let mut iter = node.ancestors();
        assert_eq!(iter.len(), 4);
        assert_eq!(iter.next(), Some(NodeId::new(11)));
        assert_eq!(iter.next_back(), Some(NodeId::ROOT));
        assert_eq!(iter.next_back(), Some(NodeId::new(2)));
        assert_eq!(iter.len(), 1);
        assert_eq!(iter.next(), Some(NodeId::new(5)));
        assert_eq!(iter.next(), None);
        assert_eq!(iter.next_back(), None);
        assert_eq!(iter.next(), None); // fused
        assert_eq!(iter.len(), 0);
    }

    #[test]
    fn lca_examples() {
        // Tree:          0
        //            1       2
        //          3   4   5   6
        assert_eq!(
            NodeId::new(3).lowest_common_ancestor(NodeId::new(4)),
            NodeId::new(1)
        );
        assert_eq!(
            NodeId::new(3).lowest_common_ancestor(NodeId::new(6)),
            NodeId::new(0)
        );
        assert_eq!(
            NodeId::new(5).lowest_common_ancestor(NodeId::new(2)),
            NodeId::new(2)
        );
        assert_eq!(
            NodeId::new(4).lowest_common_ancestor(NodeId::new(4)),
            NodeId::new(4)
        );
    }

    #[test]
    fn level_offset_roundtrip() {
        for level in 0..10u32 {
            for offset in 0..(1u32 << level) {
                let n = NodeId::from_level_offset(level, offset);
                assert_eq!(n.level(), level);
                assert_eq!(n.offset_in_level(), offset);
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_and_parent_child_only() {
        let a = NodeId::new(1);
        assert!(a.is_adjacent_to(NodeId::ROOT));
        assert!(NodeId::ROOT.is_adjacent_to(a));
        assert!(a.is_adjacent_to(NodeId::new(3)));
        assert!(!a.is_adjacent_to(NodeId::new(2)));
        assert!(!a.is_adjacent_to(NodeId::new(7)));
        assert!(!a.is_adjacent_to(a));
    }

    #[test]
    fn ancestor_of_or_equal() {
        assert!(NodeId::ROOT.is_ancestor_of_or_equal(NodeId::new(13)));
        assert!(NodeId::new(1).is_ancestor_of_or_equal(NodeId::new(9)));
        assert!(!NodeId::new(2).is_ancestor_of_or_equal(NodeId::new(9)));
        assert!(NodeId::new(5).is_ancestor_of_or_equal(NodeId::new(5)));
        assert!(!NodeId::new(5).is_ancestor_of_or_equal(NodeId::new(2)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(ElementId::new(7).to_string(), "e7");
        assert_eq!(Direction::Left.to_string(), "L");
        assert_eq!(Direction::Right.to_string(), "R");
    }

    #[test]
    fn direction_toggle() {
        assert_eq!(Direction::Left.toggled(), Direction::Right);
        assert_eq!(Direction::Right.toggled(), Direction::Left);
    }
}
