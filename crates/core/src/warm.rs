//! Exportable warm state: the carry-able internals of an online algorithm.
//!
//! A reshard handover moves a few elements between shards; everything else
//! about a shard's tree — its rotor pointers, its recency clock, its random
//! generator position — is still valid afterwards. This module captures that
//! residual state as a plain value ([`WarmState`]) so a tree can be
//! *reconstituted* at its exact pre-handover configuration instead of being
//! reseeded fresh. Rotor walks remain deterministic and well-behaved from
//! arbitrary initial rotor configurations (Angel & Holroyd, "Rotor walks on
//! general trees"), which is what makes the warm restart sound rather than a
//! heuristic.

use crate::recency::RecencyTracker;
use rand::rngs::StdRng;
use satn_rotor::RotorState;
use satn_tree::{CompleteTree, ElementId};

/// The internal (non-occupancy) state of an online self-adjusting tree,
/// exported by [`SelfAdjustingTree::export_state`](crate::SelfAdjustingTree::export_state)
/// and re-imported by [`AlgorithmKind::instantiate_warm`](crate::AlgorithmKind::instantiate_warm).
///
/// Each component is optional: an algorithm fills exactly the fields it
/// maintains (Rotor-Push its rotors, Move-Half/Max-Push their recency
/// tracker, Random-Push its generator), and a missing component falls back
/// to the cold-start value on import. The default value is the fully cold
/// state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarmState {
    /// Rotor pointer directions, one per node (Rotor-Push).
    pub rotors: Option<RotorState>,
    /// Per-element last-access times plus the logical clock (Move-Half,
    /// Max-Push).
    pub recency: Option<RecencyTracker>,
    /// The deterministic generator, mid-stream (Random-Push).
    pub rng: Option<StdRng>,
}

impl WarmState {
    /// Carries this state across a reshard onto a shard's new topology.
    ///
    /// `remap[new_local]` names the element's local id *before* the
    /// handover, or `None` for elements that just arrived (and for padding);
    /// its length must be the new tree's node count. Rotors transfer by
    /// heap-order node prefix ([`RotorState::carried_into`]); recency
    /// transfers per element through the remap, arrivals starting at the
    /// never-accessed time 0; the generator transfers verbatim.
    ///
    /// # Panics
    ///
    /// Panics if a remap entry names an element the old recency tracker does
    /// not cover.
    pub fn carried_into(&self, tree: CompleteTree, remap: &[Option<u32>]) -> WarmState {
        WarmState {
            rotors: self.rotors.as_ref().map(|rotors| rotors.carried_into(tree)),
            recency: self.recency.as_ref().map(|old| {
                let last_access = remap
                    .iter()
                    .map(|slot| slot.map_or(0, |local| old.last_access(ElementId::new(local))))
                    .collect();
                RecencyTracker::from_parts(last_access, old.now())
            }),
            rng: self.rng.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carried_recency_follows_the_remap() {
        let mut recency = RecencyTracker::new(3);
        recency.touch(ElementId::new(0)); // time 1
        recency.touch(ElementId::new(2)); // time 2
        let state = WarmState {
            recency: Some(recency),
            ..WarmState::default()
        };
        let tree = CompleteTree::with_levels(2).unwrap();
        // New local 0 was old local 2, new local 1 arrived, new local 2 was
        // old local 0.
        let carried = state.carried_into(tree, &[Some(2), None, Some(0)]);
        let recency = carried.recency.unwrap();
        assert_eq!(recency.now(), 2);
        assert_eq!(recency.last_access(ElementId::new(0)), 2);
        assert_eq!(recency.last_access(ElementId::new(1)), 0);
        assert_eq!(recency.last_access(ElementId::new(2)), 1);
        assert!(carried.rotors.is_none());
    }

    #[test]
    fn carried_rotors_resize_with_the_tree() {
        let small = CompleteTree::with_levels(2).unwrap();
        let mut rotors = RotorState::new(small);
        rotors.flip(2);
        let state = WarmState {
            rotors: Some(rotors.clone()),
            ..WarmState::default()
        };
        let big = CompleteTree::with_levels(3).unwrap();
        let carried = state.carried_into(big, &[None; 7]);
        let grown = carried.rotors.unwrap();
        assert_eq!(grown.tree(), big);
        assert_eq!(grown.pointers()[..3], *rotors.pointers());
    }
}
