//! Marked swap rounds: the restricted reconfiguration primitive available to
//! online algorithms.
//!
//! The paper (Section 2, "Arbitrary swaps") allows an online algorithm, after
//! accessing an element, to swap only pairs of adjacent nodes of which at
//! least one is *marked*; initially the nodes of the access path are marked
//! and every swap marks both involved nodes. [`MarkedRound`] enforces exactly
//! this rule so that algorithm implementations cannot accidentally perform
//! teleporting reconfigurations that the model forbids.

use crate::cost::ServeCost;
use crate::error::TreeError;
use crate::node::{ElementId, NodeId};
use crate::occupancy::Occupancy;

/// Reusable marking scratch for [`MarkedRound`]s.
///
/// A round needs one "is this node marked?" bit per tree node. Allocating
/// that bitmap per request is the dominant heap traffic of the serve hot
/// path, so algorithms keep a `MarkScratch` alive across requests and open
/// rounds through [`MarkedRound::access_reusing`]. Clearing between rounds is
/// O(1): each round stamps marks with a fresh epoch instead of zeroing the
/// buffer (the buffer is re-zeroed only on the ~never-happening epoch wrap).
#[derive(Debug, Clone, Default)]
pub struct MarkScratch {
    /// `stamps[v] == epoch` means node `v` (by heap index) is marked in the
    /// open round.
    stamps: Vec<u32>,
    epoch: u32,
}

impl MarkScratch {
    /// Creates an empty scratch; the first round sizes it to its tree.
    pub fn new() -> Self {
        MarkScratch::default()
    }

    /// Starts a new round over `num_nodes` nodes with every mark cleared.
    fn begin(&mut self, num_nodes: usize) {
        if self.stamps.len() < num_nodes {
            self.stamps.resize(num_nodes, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale stamps from 2^32 rounds ago could collide.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn mark(&mut self, node: NodeId) {
        self.stamps[node.usize()] = self.epoch;
    }

    /// Marks every node on the root-to-`target` path — the one ancestor walk
    /// shared by [`MarkedRound::access`] and [`MarkedRound::mark_root_path`].
    #[inline]
    fn mark_root_path(&mut self, target: NodeId) {
        for ancestor in target.ancestors() {
            self.mark(ancestor);
        }
    }

    #[inline]
    fn is_marked(&self, node: NodeId) -> bool {
        self.stamps
            .get(node.usize())
            .is_some_and(|&stamp| stamp == self.epoch)
    }
}

/// The marking store of a round: owned (compatibility path, one allocation
/// per round) or borrowed from a caller-held [`MarkScratch`] (hot path, no
/// per-round allocation).
#[derive(Debug)]
enum Marks<'a> {
    Owned(MarkScratch),
    Reused(&'a mut MarkScratch),
}

impl Marks<'_> {
    #[inline]
    fn get(&self) -> &MarkScratch {
        match self {
            Marks::Owned(scratch) => scratch,
            Marks::Reused(scratch) => scratch,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut MarkScratch {
        match self {
            Marks::Owned(scratch) => scratch,
            Marks::Reused(scratch) => scratch,
        }
    }
}

/// One round of serving a request: the access plus a sequence of marked swaps.
///
/// Created by [`MarkedRound::access`]; finished by [`MarkedRound::finish`],
/// which yields the round's [`ServeCost`].
///
/// # Examples
///
/// ```
/// use satn_tree::{CompleteTree, ElementId, MarkedRound, NodeId, Occupancy};
///
/// let tree = CompleteTree::with_levels(3)?;
/// let mut occ = Occupancy::identity(tree);
/// // Access element 4 (stored at node 4, level 2) and move it to the root.
/// let mut round = MarkedRound::access(&mut occ, ElementId::new(4))?;
/// round.swap_with_parent(NodeId::new(4))?;
/// round.swap_with_parent(NodeId::new(1))?;
/// let cost = round.finish();
/// assert_eq!(cost.access, 3);
/// assert_eq!(cost.adjustment, 2);
/// assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(4));
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug)]
pub struct MarkedRound<'a> {
    occupancy: &'a mut Occupancy,
    marks: Marks<'a>,
    requested: ElementId,
    access_cost: u64,
    swaps: u64,
}

impl<'a> MarkedRound<'a> {
    /// Accesses `element`, paying `ℓ(element) + 1`, and marks the nodes of the
    /// root-to-element path.
    ///
    /// Allocates a fresh marking buffer for the round; serve loops should
    /// prefer [`MarkedRound::access_reusing`] with a long-lived
    /// [`MarkScratch`], which opens an identical round without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if the element does not exist.
    pub fn access(occupancy: &'a mut Occupancy, element: ElementId) -> Result<Self, TreeError> {
        Self::access_with_marks(occupancy, element, Marks::Owned(MarkScratch::new()))
    }

    /// Accesses `element` exactly like [`MarkedRound::access`], but marks
    /// nodes in the caller's reusable `scratch` instead of allocating — the
    /// allocation-free serve hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if the element does not exist.
    pub fn access_reusing(
        occupancy: &'a mut Occupancy,
        element: ElementId,
        scratch: &'a mut MarkScratch,
    ) -> Result<Self, TreeError> {
        Self::access_with_marks(occupancy, element, Marks::Reused(scratch))
    }

    fn access_with_marks(
        occupancy: &'a mut Occupancy,
        element: ElementId,
        mut marks: Marks<'a>,
    ) -> Result<Self, TreeError> {
        occupancy.check_element(element)?;
        let node = occupancy.node_of(element);
        let access_cost = node.level() as u64 + 1;
        let scratch = marks.get_mut();
        scratch.begin(occupancy.num_elements() as usize);
        scratch.mark_root_path(node);
        Ok(MarkedRound {
            occupancy,
            marks,
            requested: element,
            access_cost,
            swaps: 0,
        })
    }

    /// The element whose access started this round.
    #[inline]
    pub fn requested(&self) -> ElementId {
        self.requested
    }

    /// Read-only view of the occupancy mid-round.
    #[inline]
    pub fn occupancy(&self) -> &Occupancy {
        self.occupancy
    }

    /// Returns `true` if `node` is currently marked. Nodes outside the tree
    /// are never marked.
    #[inline]
    pub fn is_marked(&self, node: NodeId) -> bool {
        self.occupancy.tree().contains(node) && self.marks.get().is_marked(node)
    }

    /// Number of swaps performed so far in this round.
    #[inline]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Marks every node on the root-to-`target` path.
    ///
    /// This corresponds to the algorithm traversing an additional branch from
    /// the source during the round, as the paper's implementation of the
    /// augmented push-down operation does (Lemma 1 accesses the global-path
    /// node `v` in addition to the requested element): the cost of walking the
    /// branch is accounted for by the swaps subsequently performed along it.
    /// Baseline algorithms whose reconfiguration the paper does not restrict
    /// to marked swaps (Move-Half, Max-Push) also use it.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NodeOutOfRange`] if `target` is not in the tree.
    pub fn mark_root_path(&mut self, target: NodeId) -> Result<(), TreeError> {
        self.occupancy.tree().check_node(target)?;
        self.marks.get_mut().mark_root_path(target);
        Ok(())
    }

    /// Swaps the elements at two adjacent nodes, provided at least one of the
    /// nodes is marked; afterwards both are marked.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NotAdjacent`] for non parent/child pairs,
    /// [`TreeError::NodeOutOfRange`] for foreign nodes, and
    /// [`TreeError::UnmarkedSwap`] when the marking rule is violated.
    pub fn swap(&mut self, a: NodeId, b: NodeId) -> Result<(), TreeError> {
        self.occupancy.tree().check_node(a)?;
        self.occupancy.tree().check_node(b)?;
        if !a.is_adjacent_to(b) {
            return Err(TreeError::NotAdjacent {
                first: a,
                second: b,
            });
        }
        if !self.is_marked(a) && !self.is_marked(b) {
            return Err(TreeError::UnmarkedSwap {
                first: a,
                second: b,
            });
        }
        self.occupancy.swap_unchecked(a, b);
        let scratch = self.marks.get_mut();
        scratch.mark(a);
        scratch.mark(b);
        self.swaps += 1;
        Ok(())
    }

    /// Swaps the element at `node` with the one at its parent.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::NotAdjacent`] if `node` is the root, plus the
    /// errors of [`MarkedRound::swap`].
    pub fn swap_with_parent(&mut self, node: NodeId) -> Result<(), TreeError> {
        let parent = node.parent().ok_or(TreeError::NotAdjacent {
            first: node,
            second: node,
        })?;
        self.swap(parent, node)
    }

    /// Moves the element currently stored at `from` to the root by repeatedly
    /// swapping it with its parent. Returns the number of swaps used.
    ///
    /// Every intermediate element on the root path moves down by one level.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`MarkedRound::swap`].
    pub fn bubble_to_root(&mut self, from: NodeId) -> Result<u64, TreeError> {
        let mut used = 0;
        let mut current = from;
        while let Some(parent) = current.parent() {
            self.swap(parent, current)?;
            current = parent;
            used += 1;
        }
        Ok(used)
    }

    /// Moves the element currently stored at the root down to `target` by
    /// repeatedly swapping it with the next node on the root-to-`target`
    /// path. Returns the number of swaps used.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`MarkedRound::swap`].
    pub fn sink_from_root(&mut self, target: NodeId) -> Result<u64, TreeError> {
        let mut used = 0;
        for node in target.ancestors().rev().skip(1) {
            let parent = node.parent().expect("descent nodes below the root");
            self.swap(parent, node)?;
            used += 1;
        }
        Ok(used)
    }

    /// Finishes the round and returns its cost.
    pub fn finish(self) -> ServeCost {
        ServeCost::new(self.access_cost, self.swaps)
    }
}

/// An unrestricted adjacent-swap session used for the offline optimum proxy
/// (`Opt` in the paper may swap arbitrary adjacent elements at unit cost,
/// without the marking restriction).
#[derive(Debug)]
pub struct FreeSwapSession<'a> {
    occupancy: &'a mut Occupancy,
    swaps: u64,
}

impl<'a> FreeSwapSession<'a> {
    /// Starts an unrestricted swap session on the occupancy.
    pub fn new(occupancy: &'a mut Occupancy) -> Self {
        FreeSwapSession {
            occupancy,
            swaps: 0,
        }
    }

    /// Swaps two adjacent nodes (no marking rule).
    ///
    /// # Errors
    ///
    /// Returns the adjacency / range errors of [`Occupancy::swap_nodes`].
    pub fn swap(&mut self, a: NodeId, b: NodeId) -> Result<(), TreeError> {
        self.occupancy.swap_nodes(a, b)?;
        self.swaps += 1;
        Ok(())
    }

    /// Read-only view of the occupancy mid-session.
    #[inline]
    pub fn occupancy(&self) -> &Occupancy {
        self.occupancy
    }

    /// Number of swaps performed so far.
    #[inline]
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Ends the session, returning the total number of swaps (the cost paid).
    pub fn finish(self) -> u64 {
        self.swaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CompleteTree;

    fn setup(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    #[test]
    fn access_marks_exactly_the_root_path() {
        let mut occ = setup(4);
        let round = MarkedRound::access(&mut occ, ElementId::new(9)).unwrap();
        // node 9 path: 0 -> 1 -> 4 -> 9
        for marked in [0u32, 1, 4, 9] {
            assert!(round.is_marked(NodeId::new(marked)), "node {marked}");
        }
        for unmarked in [2u32, 3, 5, 6, 7, 8, 10, 14] {
            assert!(!round.is_marked(NodeId::new(unmarked)), "node {unmarked}");
        }
        assert_eq!(round.requested(), ElementId::new(9));
    }

    #[test]
    fn access_cost_is_level_plus_one() {
        let mut occ = setup(4);
        let round = MarkedRound::access(&mut occ, ElementId::new(14)).unwrap();
        let cost = round.finish();
        assert_eq!(cost, ServeCost::new(4, 0));
    }

    #[test]
    fn access_rejects_unknown_element() {
        let mut occ = setup(2);
        assert!(matches!(
            MarkedRound::access(&mut occ, ElementId::new(10)).unwrap_err(),
            TreeError::ElementOutOfRange { .. }
        ));
    }

    #[test]
    fn unmarked_swap_is_rejected_until_reachable() {
        let mut occ = setup(4);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(0)).unwrap();
        // Only the root is marked: a swap between nodes 2 and 6 must fail.
        assert!(matches!(
            round.swap(NodeId::new(2), NodeId::new(6)).unwrap_err(),
            TreeError::UnmarkedSwap { .. }
        ));
        // But root <-> node 2 works and marks node 2, after which 2 <-> 6 works.
        round.swap(NodeId::new(0), NodeId::new(2)).unwrap();
        round.swap(NodeId::new(2), NodeId::new(6)).unwrap();
        assert_eq!(round.swaps(), 2);
    }

    #[test]
    fn swap_rejects_non_adjacent_and_foreign_nodes() {
        let mut occ = setup(3);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(3)).unwrap();
        assert!(matches!(
            round.swap(NodeId::new(1), NodeId::new(2)).unwrap_err(),
            TreeError::NotAdjacent { .. }
        ));
        assert!(matches!(
            round.swap(NodeId::new(1), NodeId::new(40)).unwrap_err(),
            TreeError::NodeOutOfRange { .. }
        ));
        assert!(matches!(
            round.swap_with_parent(NodeId::ROOT).unwrap_err(),
            TreeError::NotAdjacent { .. }
        ));
    }

    #[test]
    fn bubble_to_root_moves_requested_element_up() {
        let mut occ = setup(4);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(11)).unwrap();
        let node = round.occupancy().node_of(ElementId::new(11));
        let used = round.bubble_to_root(node).unwrap();
        assert_eq!(used, 3);
        let cost = round.finish();
        assert_eq!(cost.adjustment, 3);
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(11));
        assert!(occ.is_consistent());
    }

    #[test]
    fn sink_from_root_moves_root_element_down_a_path() {
        let mut occ = setup(4);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(0)).unwrap();
        let used = round.sink_from_root(NodeId::new(12)).unwrap();
        assert_eq!(used, 3);
        round.finish();
        assert_eq!(occ.element_at(NodeId::new(12)), ElementId::new(0));
        assert!(occ.is_consistent());
    }

    #[test]
    fn sink_outside_marked_path_requires_progressive_marking() {
        // sink_from_root marks as it goes, so even a path disjoint from the
        // access path is fine: each swap has its parent endpoint marked.
        let mut occ = setup(4);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(7)).unwrap();
        // Access path is 0-1-3-7; sinking towards node 14 goes 0-2-6-14.
        round.sink_from_root(NodeId::new(14)).unwrap();
        round.finish();
        assert_eq!(occ.element_at(NodeId::new(14)), ElementId::new(0));
    }

    #[test]
    fn reused_scratch_rounds_match_owned_rounds() {
        let mut owned_occ = setup(4);
        let mut reused_occ = setup(4);
        let mut scratch = MarkScratch::new();
        // Several consecutive rounds: the scratch must reset between them so
        // marks from an earlier round never leak into a later one.
        for element in [9u32, 14, 3, 9, 0] {
            let element = ElementId::new(element);
            let mut owned = MarkedRound::access(&mut owned_occ, element).unwrap();
            let mut reused =
                MarkedRound::access_reusing(&mut reused_occ, element, &mut scratch).unwrap();
            for node in (0..15u32).map(NodeId::new) {
                assert_eq!(owned.is_marked(node), reused.is_marked(node), "{node}");
            }
            let node = owned.occupancy().node_of(element);
            owned.bubble_to_root(node).unwrap();
            reused.bubble_to_root(node).unwrap();
            assert_eq!(owned.finish(), reused.finish());
            assert_eq!(owned_occ, reused_occ);
        }
    }

    #[test]
    fn reused_scratch_enforces_the_marking_rule() {
        let mut occ = setup(4);
        let mut scratch = MarkScratch::new();
        let mut round =
            MarkedRound::access_reusing(&mut occ, ElementId::new(0), &mut scratch).unwrap();
        assert!(matches!(
            round.swap(NodeId::new(2), NodeId::new(6)).unwrap_err(),
            TreeError::UnmarkedSwap { .. }
        ));
        round.swap(NodeId::new(0), NodeId::new(2)).unwrap();
        round.swap(NodeId::new(2), NodeId::new(6)).unwrap();
        round.finish();
        // The next round starts clean: node 6 is no longer marked.
        let round = MarkedRound::access_reusing(&mut occ, ElementId::new(0), &mut scratch).unwrap();
        let requested_node = round.occupancy().node_of(ElementId::new(0));
        assert!(round.is_marked(requested_node));
        assert!(!round.is_marked(NodeId::new(14)));
    }

    #[test]
    fn scratch_survives_epoch_wrap_and_tree_growth() {
        let mut scratch = MarkScratch::new();
        // Force the epoch to the wrap boundary, then run a round: stale
        // stamps must not count as marks.
        scratch.epoch = u32::MAX - 1;
        let mut occ = setup(3);
        for _ in 0..4 {
            let round =
                MarkedRound::access_reusing(&mut occ, ElementId::new(6), &mut scratch).unwrap();
            let node = round.occupancy().node_of(ElementId::new(6));
            for probe in (0..7u32).map(NodeId::new) {
                let on_path = probe.is_ancestor_of_or_equal(node);
                assert_eq!(round.is_marked(probe), on_path, "{probe}");
            }
            round.finish();
        }
        // The same scratch serves a bigger tree by growing once.
        let mut big = setup(5);
        let round =
            MarkedRound::access_reusing(&mut big, ElementId::new(30), &mut scratch).unwrap();
        assert!(round.is_marked(NodeId::new(30)));
        assert!(!round.is_marked(NodeId::new(29)));
    }

    #[test]
    fn free_swap_session_counts_swaps() {
        let mut occ = setup(3);
        let mut session = FreeSwapSession::new(&mut occ);
        session.swap(NodeId::new(0), NodeId::new(2)).unwrap();
        session.swap(NodeId::new(2), NodeId::new(5)).unwrap();
        assert!(session.swap(NodeId::new(3), NodeId::new(4)).is_err());
        assert_eq!(session.swaps(), 2);
        assert_eq!(session.finish(), 2);
        assert_eq!(occ.element_at(NodeId::new(5)), ElementId::new(0));
    }

    #[test]
    fn round_preserves_bijection() {
        let mut occ = setup(5);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(19)).unwrap();
        let node = round.occupancy().node_of(ElementId::new(19));
        round.bubble_to_root(node).unwrap();
        round.sink_from_root(NodeId::new(22)).unwrap();
        round.finish();
        assert!(occ.is_consistent());
    }
}
