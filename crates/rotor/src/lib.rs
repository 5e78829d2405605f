//! # satn-rotor
//!
//! Rotor pointers, flip operations, flip-ranks and rotor-router walks on
//! complete binary trees — the derandomization machinery behind the
//! **Rotor-Push** algorithm of *Deterministic Self-Adjusting Tree Networks
//! Using Rotor Walks* (ICDCS 2022).
//!
//! Every non-leaf node carries a two-state pointer to one of its children.
//! Following the pointers from the root defines the *global path*; the
//! `flip(d)` operation toggles the pointers of the global-path nodes above
//! level `d`, and the *flip-rank* of a node is the number of flips needed
//! before it joins the global path (Definition 3). The crate provides:
//!
//! * [`RotorState`] — pointer state, global path, `flip`, and flip-rank
//!   computation (closed form per Lemma 2 plus a brute-force verifier),
//! * [`RotorWalk`] / [`RandomWalk`] — chip-dispatching walks used to compare
//!   the deterministic rotor mechanism against the random walk it imitates.
//!
//! ```
//! use satn_rotor::RotorState;
//! use satn_tree::{CompleteTree, NodeId};
//!
//! let tree = CompleteTree::with_levels(4)?;
//! let mut rotors = RotorState::new(tree);
//! assert_eq!(rotors.flip_rank(NodeId::new(14)), 7); // rightmost leaf: all pointers disagree
//! rotors.flip(3);
//! assert_eq!(rotors.flip_rank(NodeId::new(14)), 6); // one flip closer (Lemma 3)
//! # Ok::<(), satn_tree::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod fliprank;
pub mod graph;
mod pointers;
mod walk;

pub use graph::{random_walk_visits, visit_discrepancy, GraphError, RotorGraph};
pub use pointers::RotorState;
pub use walk::{max_discrepancy, RandomWalk, RotorWalk};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use satn_tree::{CompleteTree, NodeId};

    /// A small tree plus a deterministic pointer scramble.
    fn arb_state() -> impl Strategy<Value = RotorState> {
        (2u32..=7, proptest::collection::vec(any::<bool>(), 0..127)).prop_map(
            |(levels, toggles)| {
                let tree = CompleteTree::with_levels(levels).unwrap();
                let mut state = RotorState::new(tree);
                for (i, toggle) in toggles.iter().enumerate() {
                    let node = NodeId::new((i as u32) % tree.num_nodes());
                    if *toggle && !tree.is_leaf(node) {
                        state.toggle(node).unwrap();
                    }
                }
                state
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flip_ranks_form_a_permutation_per_level(state in arb_state()) {
            for level in 0..state.tree().num_levels() {
                let mut ranks = state.level_flip_ranks(level);
                ranks.sort_unstable();
                let expected: Vec<u64> = (0..(1u64 << level)).collect();
                prop_assert_eq!(ranks, expected);
            }
        }

        #[test]
        fn closed_form_flip_rank_matches_simulation(state in arb_state()) {
            // Restrict to levels <= 6 so the simulation stays cheap.
            for node in state.tree().nodes().filter(|n| n.level() <= 6) {
                prop_assert_eq!(state.flip_rank(node), state.flip_rank_by_simulation(node));
            }
        }

        #[test]
        fn flip_then_ranks_respect_lemma3(state in arb_state(), d in 0u32..6) {
            let d = d.min(state.tree().max_level());
            let mut after = state.clone();
            // flip walks the pre-flip global path and returns its level-d node.
            prop_assert_eq!(after.flip(d), state.global_path_node(d));
            for node in state.tree().nodes() {
                let old = state.flip_rank(node);
                let new = after.flip_rank(node);
                if node.level() <= d {
                    if old == 0 {
                        prop_assert_eq!(new, (1u64 << node.level()) - 1);
                    } else {
                        prop_assert_eq!(new, old - 1);
                    }
                } else {
                    prop_assert!(new == old.wrapping_sub(1) || new == old + (1u64 << d) - 1);
                }
            }
        }

        #[test]
        fn global_path_node_has_rank_zero(state in arb_state(), level in 0u32..7) {
            let level = level.min(state.tree().max_level());
            let node = state.global_path_node(level);
            prop_assert_eq!(state.flip_rank(node), 0);
        }

        #[test]
        fn rotor_walk_discrepancy_bounded(levels in 3u32..=7, chips in 1u64..2000) {
            let tree = CompleteTree::with_levels(levels).unwrap();
            let mut walk = RotorWalk::new(tree, tree.max_level());
            let counts = walk.visit_counts(chips);
            prop_assert!(max_discrepancy(&counts) <= 1.0 + 1e-9);
        }
    }
}
