//! The fixed topology of a complete binary tree.

use crate::error::TreeError;
use crate::node::NodeId;

/// The static shape of a complete binary tree with `2^depth_plus_one - 1`
/// nodes: every level from `0` to [`CompleteTree::max_level`] is full.
///
/// The topology never changes; algorithms only move elements between nodes.
///
/// # Examples
///
/// ```
/// use satn_tree::CompleteTree;
///
/// let tree = CompleteTree::with_levels(4)?;
/// assert_eq!(tree.num_nodes(), 15);
/// assert_eq!(tree.max_level(), 3);
/// assert_eq!(tree.leaves().count(), 8);
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompleteTree {
    /// Number of levels (the depth of the deepest level plus one).
    levels: u32,
    /// Total number of nodes, `2^levels - 1`.
    num_nodes: u32,
}

impl CompleteTree {
    /// Creates a complete tree with the given number of levels (≥ 1).
    ///
    /// A tree with `levels = L` has `2^L - 1` nodes and its deepest level is
    /// `L - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InvalidSize`] if `levels` is zero or larger than
    /// 31 (the node index would not fit in `u32`).
    pub fn with_levels(levels: u32) -> Result<Self, TreeError> {
        if levels == 0 || levels > 31 {
            return Err(TreeError::InvalidSize {
                requested: levels as u64,
            });
        }
        Ok(CompleteTree {
            levels,
            num_nodes: (1u32 << levels) - 1,
        })
    }

    /// Creates a complete tree with exactly `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InvalidSize`] unless `num_nodes` is of the form
    /// `2^L - 1` for some `1 ≤ L ≤ 31`.
    pub fn with_nodes(num_nodes: u64) -> Result<Self, TreeError> {
        let candidate = (num_nodes + 1).trailing_zeros();
        if num_nodes == 0 || num_nodes + 1 != (1u64 << candidate) || candidate > 31 {
            return Err(TreeError::InvalidSize {
                requested: num_nodes,
            });
        }
        Self::with_levels(candidate)
    }

    /// Returns the number of nodes in the tree.
    #[inline]
    pub const fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Returns the number of levels (`max_level + 1`).
    #[inline]
    pub const fn num_levels(&self) -> u32 {
        self.levels
    }

    /// Returns the deepest level index (the root is level 0).
    #[inline]
    pub const fn max_level(&self) -> u32 {
        self.levels - 1
    }

    /// Returns `true` if the node id denotes a node of this tree.
    #[inline]
    pub const fn contains(&self, node: NodeId) -> bool {
        node.0 < self.num_nodes
    }

    /// Returns `true` if the node is a leaf of this tree.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.contains(node) && !self.contains(node.left_child())
    }

    /// Returns the number of nodes at the given level (`2^level`), or zero if
    /// the level does not exist.
    #[inline]
    pub const fn nodes_at_level(&self, level: u32) -> u32 {
        if level >= self.levels {
            0
        } else {
            1 << level
        }
    }

    /// Returns an iterator over all nodes in heap (BFS) order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator {
        (0..self.num_nodes).map(NodeId::new)
    }

    /// Returns an iterator over the nodes of one level, left to right.
    ///
    /// The iterator is empty if the level does not exist in this tree.
    pub fn level_nodes(
        &self,
        level: u32,
    ) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator {
        let (start, end) = if level >= self.levels {
            (0, 0)
        } else {
            ((1u32 << level) - 1, (1u32 << (level + 1)) - 1)
        };
        (start..end).map(NodeId::new)
    }

    /// Returns an iterator over the leaves, left to right.
    pub fn leaves(&self) -> impl ExactSizeIterator<Item = NodeId> + DoubleEndedIterator {
        self.level_nodes(self.max_level())
    }

    /// Validates that a node belongs to the tree.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] if the node does not exist.
    pub fn check_node(&self, node: NodeId) -> Result<(), TreeError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(TreeError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_levels_counts_nodes() {
        for levels in 1..=16 {
            let t = CompleteTree::with_levels(levels).unwrap();
            assert_eq!(t.num_nodes(), (1u32 << levels) - 1);
            assert_eq!(t.max_level(), levels - 1);
            assert_eq!(t.num_levels(), levels);
        }
    }

    #[test]
    fn with_levels_rejects_bad_sizes() {
        assert!(CompleteTree::with_levels(0).is_err());
        assert!(CompleteTree::with_levels(32).is_err());
        assert!(CompleteTree::with_levels(31).is_ok());
    }

    #[test]
    fn with_nodes_accepts_only_complete_sizes() {
        assert!(CompleteTree::with_nodes(0).is_err());
        assert!(CompleteTree::with_nodes(2).is_err());
        assert!(CompleteTree::with_nodes(6).is_err());
        for levels in 1..=20u32 {
            let n = (1u64 << levels) - 1;
            let t = CompleteTree::with_nodes(n).unwrap();
            assert_eq!(t.num_nodes() as u64, n);
        }
        // The paper's evaluation sizes.
        for n in [255u64, 1023, 4095, 16383, 65535] {
            assert!(CompleteTree::with_nodes(n).is_ok(), "size {n}");
        }
    }

    #[test]
    fn contains_and_leaves() {
        let t = CompleteTree::with_levels(3).unwrap(); // 7 nodes
        assert!(t.contains(NodeId::new(6)));
        assert!(!t.contains(NodeId::new(7)));
        assert!(!t.is_leaf(NodeId::new(1)));
        assert!(t.is_leaf(NodeId::new(3)));
        assert_eq!(t.leaves().collect::<Vec<_>>().len(), 4);
        assert_eq!(
            t.leaves().collect::<Vec<_>>(),
            vec![
                NodeId::new(3),
                NodeId::new(4),
                NodeId::new(5),
                NodeId::new(6)
            ]
        );
    }

    #[test]
    fn level_iterators() {
        let t = CompleteTree::with_levels(4).unwrap();
        assert_eq!(t.level_nodes(0).collect::<Vec<_>>(), vec![NodeId::ROOT]);
        assert_eq!(t.level_nodes(2).count(), 4);
        assert_eq!(t.level_nodes(3).count(), 8);
        assert_eq!(t.level_nodes(4).count(), 0);
        assert_eq!(t.nodes_at_level(2), 4);
        assert_eq!(t.nodes_at_level(9), 0);
        assert_eq!(t.nodes().count() as u32, t.num_nodes());
        // Every node reported by level_nodes has the right level.
        for level in 0..t.num_levels() {
            for n in t.level_nodes(level) {
                assert_eq!(n.level(), level);
            }
        }
    }

    #[test]
    fn check_node_errors() {
        let t = CompleteTree::with_levels(2).unwrap();
        assert!(t.check_node(NodeId::new(2)).is_ok());
        let err = t.check_node(NodeId::new(3)).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
