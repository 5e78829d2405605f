//! The bijective mapping between elements and tree nodes.

use crate::error::TreeError;
use crate::fingerprint::Fingerprint;
use crate::node::{ElementId, NodeId};
use crate::topology::CompleteTree;

/// The current assignment of elements to nodes: a bijection `nd : E → T`
/// together with its inverse `el : T → E` (Section 2 of the paper).
///
/// A swap exchanges the elements stored at a parent/child pair of nodes and is
/// the only mutation the model allows.
///
/// Both maps are flat slabs: `el` is indexed by heap node index and `nd` by
/// element id, so either direction is one array read.
///
/// # Examples
///
/// ```
/// use satn_tree::{CompleteTree, ElementId, NodeId, Occupancy};
///
/// let tree = CompleteTree::with_levels(3)?;
/// let mut occ = Occupancy::identity(tree);
/// assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(0));
/// occ.swap_nodes(NodeId::ROOT, NodeId::new(1))?;
/// assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(1));
/// assert_eq!(occ.node_of(ElementId::new(0)), NodeId::new(1));
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Occupancy {
    tree: CompleteTree,
    /// Element stored at each node, indexed by heap node index.
    element_of: Vec<ElementId>,
    /// Heap index of the node holding each element, indexed by element id.
    node_of: Vec<u32>,
}

impl Occupancy {
    /// Creates the identity occupancy: element `i` is stored at node `i`.
    pub fn identity(tree: CompleteTree) -> Self {
        let n = tree.num_nodes();
        Occupancy {
            tree,
            element_of: (0..n).map(ElementId::new).collect(),
            node_of: (0..n).collect(),
        }
    }

    /// Creates an occupancy from an explicit placement: `placement[v]` is the
    /// element stored at node `v` (in heap order).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NotABijection`] if the placement does not contain
    /// every element exactly once, or if its length differs from the number of
    /// tree nodes.
    pub fn from_placement(
        tree: CompleteTree,
        placement: Vec<ElementId>,
    ) -> Result<Self, TreeError> {
        let n = tree.num_nodes() as usize;
        if placement.len() != n {
            return Err(TreeError::NotABijection {
                detail: format!(
                    "placement has {} entries, tree has {} nodes",
                    placement.len(),
                    n
                ),
            });
        }
        let mut node_of = vec![u32::MAX; n];
        let mut seen = vec![false; n];
        for (node_index, &element) in placement.iter().enumerate() {
            let e = element.usize();
            if e >= n {
                return Err(TreeError::NotABijection {
                    detail: format!("element {element} is out of range for {n} elements"),
                });
            }
            if seen[e] {
                return Err(TreeError::NotABijection {
                    detail: format!("element {element} appears more than once"),
                });
            }
            seen[e] = true;
            node_of[e] = node_index as u32;
        }
        Ok(Occupancy {
            tree,
            element_of: placement,
            node_of,
        })
    }

    /// Returns the tree topology this occupancy lives on.
    #[inline]
    pub fn tree(&self) -> CompleteTree {
        self.tree
    }

    /// Returns the number of elements (equal to the number of nodes).
    #[inline]
    pub fn num_elements(&self) -> u32 {
        self.tree.num_nodes()
    }

    /// Returns the element currently stored at `node` (the paper's `el(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the tree.
    #[inline]
    pub fn element_at(&self, node: NodeId) -> ElementId {
        self.element_of[node.usize()]
    }

    /// Returns the node currently holding `element` (the paper's `nd(e)`).
    ///
    /// # Panics
    ///
    /// Panics if `element` is out of range.
    #[inline]
    pub fn node_of(&self, element: ElementId) -> NodeId {
        NodeId::new(self.node_of[element.usize()])
    }

    /// Returns the level of the node currently holding `element`
    /// (the paper's `ℓ(e)`).
    #[inline]
    pub fn level_of(&self, element: ElementId) -> u32 {
        self.node_of(element).level()
    }

    /// Returns the access cost of `element` in the current configuration,
    /// `ℓ(e) + 1`.
    #[inline]
    pub fn access_cost(&self, element: ElementId) -> u64 {
        self.level_of(element) as u64 + 1
    }

    /// Touches the cache lines a future access to `element` will read: its
    /// `nd(e)` entry and the occupancy slab along its root path.
    ///
    /// Batch serve loops call this for request `i + 1` while serving request
    /// `i`, overlapping the next walk's memory latency with the current
    /// one's compute. Out-of-range elements are ignored (the serve itself
    /// reports the error).
    #[inline]
    pub fn touch_path(&self, element: ElementId) {
        let Some(&index) = self.node_of.get(element.usize()) else {
            return;
        };
        let node = NodeId::new(index);
        let mut acc = 0u32;
        for ancestor in node.ancestors() {
            acc ^= self.element_of[ancestor.usize()].index();
        }
        std::hint::black_box(acc);
    }

    /// Checks that an element id is valid for this occupancy.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if it is not.
    pub fn check_element(&self, element: ElementId) -> Result<(), TreeError> {
        if element.usize() < self.node_of.len() {
            Ok(())
        } else {
            Err(TreeError::ElementOutOfRange {
                element,
                num_elements: self.num_elements(),
            })
        }
    }

    /// Swaps the elements stored at two adjacent (parent/child) nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] if either node does not exist and
    /// [`TreeError::NotAdjacent`] if the nodes are not parent and child.
    pub fn swap_nodes(&mut self, a: NodeId, b: NodeId) -> Result<(), TreeError> {
        self.tree.check_node(a)?;
        self.tree.check_node(b)?;
        if !a.is_adjacent_to(b) {
            return Err(TreeError::NotAdjacent {
                first: a,
                second: b,
            });
        }
        self.swap_unchecked(a, b);
        Ok(())
    }

    /// Swaps the elements stored at two nodes without adjacency checks.
    ///
    /// This is used by the offline optimum proxies, which the model allows to
    /// perform arbitrary reorganisation, and by batched fast paths that
    /// write in one step what a chain of adjacent swaps would reach (and
    /// report that chain's cost); online algorithms serve through
    /// [`crate::MarkedRound`] otherwise.
    #[inline]
    pub fn swap_unchecked(&mut self, a: NodeId, b: NodeId) {
        let (ea, eb) = (self.element_of[a.usize()], self.element_of[b.usize()]);
        self.element_of[a.usize()] = eb;
        self.element_of[b.usize()] = ea;
        self.node_of[ea.usize()] = b.index();
        self.node_of[eb.usize()] = a.index();
        debug_assert!(self.is_consistent());
    }

    /// Applies the augmented push-down `PD(u, v)` of Definition 1 as one
    /// cycle shift over `v_0 → v_1 → … → v_d = v → u → v_0`, where
    /// `v_0, …, v_d` is the root path of `v`: the element at `u` moves to the
    /// root, the element at every proper ancestor of `v` moves one level down
    /// the path, and the element at `v` moves to `u`. When `u = v` the cycle
    /// is the root path alone.
    ///
    /// The ancestors of `v` come in closed form, `((v + 1) >> (d − l)) − 1`,
    /// so the shift is `d + 2` writes to each slab (`d + 1` when `u = v`),
    /// against the four writes per swap of the `3d − 1` swaps Lemma 1 prices
    /// it at. Like [`Occupancy::swap_unchecked`] it enforces no marking rule;
    /// online algorithms serve through [`crate::MarkedRound`] and use this
    /// only on batched fast paths that are checked against that reference.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` lies outside the tree. `u` and `v` must share a
    /// level (checked by a debug assertion).
    pub fn push_down_unchecked(&mut self, u: NodeId, v: NodeId) {
        let d = v.level();
        debug_assert_eq!(u.level(), d, "push-down nodes must share a level");
        let path_key = v.index() + 1;
        let mut carried = self.element_of[u.usize()];
        for level in 0..=d {
            let node = (path_key >> (d - level)) - 1;
            let displaced = std::mem::replace(&mut self.element_of[node as usize], carried);
            self.node_of[carried.usize()] = node;
            carried = displaced;
        }
        if u != v {
            self.element_of[u.usize()] = carried;
            self.node_of[carried.usize()] = u.index();
        }
        debug_assert!(self.is_consistent());
    }

    /// Swaps two elements (which must occupy adjacent nodes).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Occupancy::swap_nodes`].
    pub fn swap_elements(&mut self, a: ElementId, b: ElementId) -> Result<(), TreeError> {
        self.check_element(a)?;
        self.check_element(b)?;
        let (na, nb) = (self.node_of(a), self.node_of(b));
        self.swap_nodes(na, nb)
    }

    /// Iterates over `(node, element)` pairs in heap order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, ElementId)> + '_ {
        self.tree.nodes().zip(self.element_of.iter().copied())
    }

    /// Returns the elements in heap (BFS) order, i.e. `el` as a vector: the
    /// canonical serialisation of the placement.
    pub fn placement_in_heap_order(&self) -> Vec<ElementId> {
        self.element_of.clone()
    }

    /// The placement's [`Fingerprint`]: a 128-bit digest read straight off
    /// the `nd` slab, allocating nothing.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_node_map(self.tree.num_nodes(), &self.node_of)
    }

    /// Verifies that the two internal maps are inverse bijections.
    ///
    /// Allocation-free on purpose: `swap_unchecked` runs this under
    /// `debug_assert!` on every swap, and the test profile keeps debug
    /// assertions on — the serve hot path's zero-allocation guarantee is
    /// asserted by a counting-allocator test that would trip on any heap
    /// traffic here. `nd(el(v)) = v` for every node `v` of equal-length maps
    /// makes `el` injective, hence a bijection with `nd` as its inverse.
    pub fn is_consistent(&self) -> bool {
        let n = self.tree.num_nodes() as usize;
        if self.node_of.len() != n || self.element_of.len() != n {
            return false;
        }
        self.iter().all(|(node, element)| {
            element.usize() < n && self.node_of[element.usize()] == node.index()
        })
    }

    /// Total access cost of the current configuration under a request
    /// distribution given as per-element weights: `Σ w(e) · (ℓ(e) + 1)`.
    ///
    /// Weights may be frequencies or probabilities; the result is in the same
    /// unit.
    pub fn expected_access_cost(&self, weights: &[f64]) -> f64 {
        weights
            .iter()
            .enumerate()
            .map(|(e, w)| w * (self.level_of(ElementId::new(e as u32)) as f64 + 1.0))
            .sum()
    }

    /// Grants [`crate::TreeSnapshot`] access to the raw `el` and `nd` slabs
    /// for an allocation-cheap capture.
    #[inline]
    pub(crate) fn raw_parts(&self) -> (&[ElementId], &[u32]) {
        (&self.element_of, &self.node_of)
    }
}

/// Two occupancies are equal when they place the same elements on the same
/// nodes of the same tree.
impl PartialEq for Occupancy {
    fn eq(&self, other: &Self) -> bool {
        self.tree == other.tree && self.element_of == other.element_of
    }
}

impl Eq for Occupancy {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(levels: u32) -> CompleteTree {
        CompleteTree::with_levels(levels).unwrap()
    }

    #[test]
    fn identity_maps_each_element_to_its_node() {
        let occ = Occupancy::identity(tree(4));
        for (node, element) in occ.iter() {
            assert_eq!(node.index(), element.index());
        }
        assert!(occ.is_consistent());
        assert_eq!(occ.num_elements(), 15);
    }

    #[test]
    fn from_placement_accepts_permutations() {
        let t = tree(3);
        let placement: Vec<ElementId> = [6, 5, 4, 3, 2, 1, 0]
            .iter()
            .map(|&i| ElementId::new(i))
            .collect();
        let occ = Occupancy::from_placement(t, placement).unwrap();
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(6));
        assert_eq!(occ.node_of(ElementId::new(6)), NodeId::ROOT);
        assert_eq!(occ.node_of(ElementId::new(0)), NodeId::new(6));
        assert!(occ.is_consistent());
    }

    #[test]
    fn from_placement_rejects_wrong_length() {
        let t = tree(3);
        let err = Occupancy::from_placement(t, vec![ElementId::new(0); 6]).unwrap_err();
        assert!(matches!(err, TreeError::NotABijection { .. }));
    }

    #[test]
    fn from_placement_rejects_duplicates_and_out_of_range() {
        let t = tree(2);
        let dup = vec![ElementId::new(0), ElementId::new(0), ElementId::new(1)];
        assert!(matches!(
            Occupancy::from_placement(t, dup).unwrap_err(),
            TreeError::NotABijection { .. }
        ));
        let oob = vec![ElementId::new(0), ElementId::new(1), ElementId::new(7)];
        assert!(matches!(
            Occupancy::from_placement(t, oob).unwrap_err(),
            TreeError::NotABijection { .. }
        ));
    }

    #[test]
    fn swap_nodes_updates_both_maps() {
        let mut occ = Occupancy::identity(tree(3));
        occ.swap_nodes(NodeId::new(1), NodeId::new(4)).unwrap();
        assert_eq!(occ.element_at(NodeId::new(1)), ElementId::new(4));
        assert_eq!(occ.element_at(NodeId::new(4)), ElementId::new(1));
        assert_eq!(occ.node_of(ElementId::new(4)), NodeId::new(1));
        assert_eq!(occ.node_of(ElementId::new(1)), NodeId::new(4));
        assert!(occ.is_consistent());
    }

    #[test]
    fn swap_nodes_rejects_non_adjacent_and_missing() {
        let mut occ = Occupancy::identity(tree(3));
        assert!(matches!(
            occ.swap_nodes(NodeId::new(1), NodeId::new(2)).unwrap_err(),
            TreeError::NotAdjacent { .. }
        ));
        assert!(matches!(
            occ.swap_nodes(NodeId::new(1), NodeId::new(99)).unwrap_err(),
            TreeError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn swap_elements_uses_their_current_nodes() {
        let mut occ = Occupancy::identity(tree(3));
        occ.swap_elements(ElementId::new(0), ElementId::new(2))
            .unwrap();
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(2));
        // Elements 0 and 2 now occupy each other's old nodes; 0 and 1 are no
        // longer adjacent? node 2 and node 1 are both children of the root, so
        // swapping elements 0 (now at node 2) and 1 (at node 1) must fail.
        assert!(occ
            .swap_elements(ElementId::new(0), ElementId::new(1))
            .is_err());
    }

    #[test]
    fn push_down_shifts_the_cycle_one_step() {
        // Figure 1 of the paper: PD(5, 3) on 15 nodes moves the element at
        // node 5 to the root and the global path 0 → 1 → 3 one step down,
        // and the element at node 3 to node 5.
        let mut occ = Occupancy::identity(tree(4));
        occ.push_down_unchecked(NodeId::new(5), NodeId::new(3));
        for (node, element) in [(0, 5), (1, 0), (3, 1), (5, 3), (2, 2), (4, 4)] {
            assert_eq!(occ.element_at(NodeId::new(node)), ElementId::new(element));
            assert_eq!(occ.node_of(ElementId::new(element)), NodeId::new(node));
        }
        // With u = v the cycle is the root path 0 → 2 → 5 → 11.
        let mut occ = Occupancy::identity(tree(4));
        occ.push_down_unchecked(NodeId::new(11), NodeId::new(11));
        for (node, element) in [(0, 11), (2, 0), (5, 2), (11, 5), (1, 1)] {
            assert_eq!(occ.element_at(NodeId::new(node)), ElementId::new(element));
            assert_eq!(occ.node_of(ElementId::new(element)), NodeId::new(node));
        }
    }

    #[test]
    fn access_cost_is_level_plus_one() {
        let occ = Occupancy::identity(tree(4));
        assert_eq!(occ.access_cost(ElementId::new(0)), 1);
        assert_eq!(occ.access_cost(ElementId::new(2)), 2);
        assert_eq!(occ.access_cost(ElementId::new(14)), 4);
        assert_eq!(occ.level_of(ElementId::new(7)), 3);
    }

    #[test]
    fn expected_access_cost_weighted() {
        let occ = Occupancy::identity(tree(2));
        // levels: node0=0, node1=1, node2=1 -> costs 1,2,2
        let cost = occ.expected_access_cost(&[0.5, 0.25, 0.25]);
        assert!((cost - (0.5 + 0.5 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn check_element_bounds() {
        let occ = Occupancy::identity(tree(2));
        assert!(occ.check_element(ElementId::new(2)).is_ok());
        assert!(occ.check_element(ElementId::new(3)).is_err());
    }

    #[test]
    fn touch_path_is_a_safe_no_op_observably() {
        let occ = Occupancy::identity(tree(5));
        let before = occ.clone();
        occ.touch_path(ElementId::new(17));
        occ.touch_path(ElementId::new(9999)); // out of range: ignored
        assert_eq!(occ, before);
    }
}
