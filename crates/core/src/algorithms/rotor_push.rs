//! **Rotor-Push** — the paper's deterministic self-adjusting tree network.

use crate::pushdown::{augmented_push_down, serve_push_batch};
use crate::traits::SelfAdjustingTree;
use crate::warm::WarmState;
use satn_rotor::RotorState;
use satn_tree::{
    CostSummary, ElementId, MarkScratch, MarkedRound, Occupancy, ServeCost, TreeError,
};

/// The deterministic Rotor-Push algorithm (Section 3 of the paper).
///
/// Every non-leaf node keeps a rotor pointer to one of its children. Upon a
/// request to an element `e*` at level `d*`, the algorithm executes the
/// augmented push-down operation `PD(nd(e*), P_{d*})`, where `P_{d*}` is the
/// node of the rotor global path at level `d*`, and then flips the pointers
/// of the global path above level `d*`. Rotor-Push is 12-competitive
/// (Theorem 7) even though it does not have the working set property
/// (Lemma 8).
///
/// # Examples
///
/// ```
/// use satn_core::{RotorPush, SelfAdjustingTree};
/// use satn_tree::{CompleteTree, ElementId, NodeId, Occupancy};
///
/// let tree = CompleteTree::with_levels(4)?;
/// let mut alg = RotorPush::new(Occupancy::identity(tree));
/// let cost = alg.serve(ElementId::new(5))?;
/// assert_eq!(cost.access, 3); // element 5 was at level 2
/// assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(5));
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RotorPush {
    occupancy: Occupancy,
    rotors: RotorState,
    flipping_enabled: bool,
    /// Reused marking buffer: `serve` opens its [`MarkedRound`] through this
    /// scratch so the steady-state request path performs no heap allocation.
    scratch: MarkScratch,
}

impl RotorPush {
    /// Creates a Rotor-Push network starting from the given occupancy, with
    /// all rotor pointers initially pointing to the left child.
    pub fn new(occupancy: Occupancy) -> Self {
        let rotors = RotorState::new(occupancy.tree());
        RotorPush {
            occupancy,
            rotors,
            flipping_enabled: true,
            scratch: MarkScratch::new(),
        }
    }

    /// Creates a Rotor-Push network with an explicit initial rotor state
    /// (useful for tests and for resuming a saved configuration).
    ///
    /// # Panics
    ///
    /// Panics if the rotor state belongs to a different tree size.
    pub fn with_rotor_state(occupancy: Occupancy, rotors: RotorState) -> Self {
        assert_eq!(
            occupancy.tree(),
            rotors.tree(),
            "occupancy and rotor state must share a topology"
        );
        RotorPush {
            occupancy,
            rotors,
            flipping_enabled: true,
            scratch: MarkScratch::new(),
        }
    }

    /// Creates the *frozen-rotor* ablation: the global path is used for the
    /// push-down but the pointers are never toggled, so every request pushes
    /// elements down the same path. Used by the ablation benchmark to isolate
    /// the contribution of the rotor mechanism.
    pub fn without_flipping(occupancy: Occupancy) -> Self {
        let rotors = RotorState::new(occupancy.tree());
        RotorPush {
            occupancy,
            rotors,
            flipping_enabled: false,
            scratch: MarkScratch::new(),
        }
    }

    /// Returns the current rotor pointer state.
    pub fn rotor_state(&self) -> &RotorState {
        &self.rotors
    }
}

impl SelfAdjustingTree for RotorPush {
    fn name(&self) -> &'static str {
        if self.flipping_enabled {
            "rotor-push"
        } else {
            "rotor-push-frozen"
        }
    }

    fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    fn serve(&mut self, element: ElementId) -> Result<ServeCost, TreeError> {
        self.occupancy.check_element(element)?;
        let u = self.occupancy.node_of(element);
        let level = u.level();
        let mut round =
            MarkedRound::access_reusing(&mut self.occupancy, element, &mut self.scratch)?;
        if level > 0 {
            let v = self.rotors.global_path_node(level);
            augmented_push_down(&mut round, u, v)?;
        }
        let cost = round.finish();
        if self.flipping_enabled && level > 0 {
            self.rotors.flip(level);
        }
        Ok(cost)
    }

    fn rotors(&self) -> Option<&RotorState> {
        Some(&self.rotors)
    }

    fn export_state(&self) -> WarmState {
        WarmState {
            rotors: Some(self.rotors.clone()),
            ..WarmState::default()
        }
    }

    /// The allocation-free batched fast path: writes the push-down as
    /// Definition 1's cycle ([`Occupancy::push_down_unchecked`], `d + 2`
    /// element moves) instead of replaying Lemma 1's `3d − 1` swaps through a
    /// [`MarkedRound`], and records the swap count Lemma 1 prices the cycle
    /// at (`d` when the request sits on the global path, `3d − 1`
    /// otherwise). The resulting occupancy, rotor state and per-request costs
    /// equal those of [`RotorPush::serve`], which stays the marked reference;
    /// the differential tests assert the equivalence per request.
    fn serve_batch(
        &mut self,
        requests: &[ElementId],
        summary: &mut CostSummary,
    ) -> Result<(), TreeError> {
        let rotors = &mut self.rotors;
        let flipping = self.flipping_enabled;
        serve_push_batch(&mut self.occupancy, requests, summary, |level| {
            // `flip` walks the global path anyway and returns its level-d
            // node, so the flipping variant walks it once.
            if flipping {
                rotors.flip(level)
            } else {
                rotors.global_path_node(level)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::{CompleteTree, NodeId};

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    #[test]
    fn figure1_example_including_pointer_flips() {
        // Figure 1: request the element at node 5 (level 2) while all pointers
        // point left. The global path node at level 2 is node 3.
        let mut alg = RotorPush::new(identity(4));
        let cost = alg.serve(ElementId::new(5)).unwrap();
        assert_eq!(cost.access, 3);
        let occ = alg.occupancy();
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(5));
        assert_eq!(occ.element_at(NodeId::new(1)), ElementId::new(0));
        assert_eq!(occ.element_at(NodeId::new(3)), ElementId::new(1));
        assert_eq!(occ.element_at(NodeId::new(5)), ElementId::new(3));
        // The two topmost pointers of the global path flipped, so the new
        // global path leaves the root to the right.
        assert_eq!(alg.rotor_state().global_path_node(1), NodeId::new(2));
        // Flip-rank of the old global-path level-2 node became 2^2 - 1 = 3.
        assert_eq!(alg.rotor_state().flip_rank(NodeId::new(3)), 3);
    }

    #[test]
    fn requested_element_always_ends_at_root() {
        let mut alg = RotorPush::new(identity(5));
        for e in [30u32, 7, 0, 19, 19, 3, 30] {
            alg.serve(ElementId::new(e)).unwrap();
            assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(e));
            assert!(alg.occupancy().is_consistent());
        }
    }

    #[test]
    fn cost_never_exceeds_four_times_level() {
        let mut alg = RotorPush::new(identity(6));
        for step in 0..500u32 {
            let element = ElementId::new((step * 17 + 3) % 63);
            let level = alg.occupancy().level_of(element) as u64;
            let cost = alg.serve(element).unwrap();
            assert!(cost.total() <= (4 * level).max(1), "step {step}: {cost}");
        }
    }

    #[test]
    fn root_request_costs_one_and_keeps_state() {
        let mut alg = RotorPush::new(identity(4));
        let before_pointers = alg.rotor_state().clone();
        let cost = alg.serve(ElementId::new(0)).unwrap();
        assert_eq!(cost, ServeCost::new(1, 0));
        assert_eq!(alg.rotor_state(), &before_pointers);
    }

    #[test]
    fn deterministic_across_instances() {
        let requests: Vec<ElementId> = (0..200u32).map(|i| ElementId::new((i * 31) % 31)).collect();
        let mut a = RotorPush::new(identity(5));
        let mut b = RotorPush::new(identity(5));
        let cost_a = a.serve_sequence(&requests).unwrap();
        let cost_b = b.serve_sequence(&requests).unwrap();
        assert_eq!(cost_a, cost_b);
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn frozen_rotor_never_flips() {
        let mut alg = RotorPush::without_flipping(identity(4));
        assert_eq!(alg.name(), "rotor-push-frozen");
        let initial = alg.rotor_state().clone();
        for e in [7u32, 9, 13, 4] {
            alg.serve(ElementId::new(e)).unwrap();
        }
        assert_eq!(alg.rotor_state(), &initial);
    }

    #[test]
    fn rejects_unknown_element() {
        let mut alg = RotorPush::new(identity(3));
        assert!(alg.serve(ElementId::new(70)).is_err());
    }

    #[test]
    #[should_panic(expected = "share a topology")]
    fn with_rotor_state_requires_matching_tree() {
        let occupancy = identity(3);
        let rotors = RotorState::new(CompleteTree::with_levels(4).unwrap());
        RotorPush::with_rotor_state(occupancy, rotors);
    }

    #[test]
    fn with_rotor_state_uses_given_pointers() {
        let occupancy = identity(3);
        let mut rotors = RotorState::new(occupancy.tree());
        rotors.flip(2); // the root pointer now goes right
        let mut alg = RotorPush::with_rotor_state(occupancy, rotors);
        // Request element 3 at node 3 (level 2); the global path is now
        // 0 -> 2 -> 5, so the push-down targets node 5.
        alg.serve(ElementId::new(3)).unwrap();
        let occ = alg.occupancy();
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(3));
        assert_eq!(occ.element_at(NodeId::new(2)), ElementId::new(0));
        assert_eq!(occ.element_at(NodeId::new(5)), ElementId::new(2));
        assert_eq!(occ.element_at(NodeId::new(3)), ElementId::new(5));
    }
}
