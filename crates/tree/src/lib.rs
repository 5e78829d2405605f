//! # satn-tree
//!
//! The complete-binary-tree substrate for *self-adjusting single-source tree
//! networks* (Avin, Bienkowski, Salem, Sama, Schmid, Schmidt — ICDCS 2022).
//!
//! The model: a fixed complete binary tree of `n = 2^L − 1` nodes stores `n`
//! elements, one per node. A source attached to the root issues requests to
//! elements; accessing the element at level `d` costs `d + 1`, and the
//! algorithm may afterwards swap elements at adjacent nodes for one unit per
//! swap. This crate provides:
//!
//! * [`NodeId`] / [`ElementId`] — index arithmetic on the implicit heap
//!   layout (levels, parents, ancestors, root paths),
//! * [`CompleteTree`] — the fixed topology,
//! * [`Occupancy`] — the element↔node bijection with swap operations,
//!   stored as two flat slabs (`el` by heap node index, `nd` by element),
//! * [`MarkedRound`] — the restricted (marking-rule) swap session online
//!   algorithms must use, and [`FreeSwapSession`] for offline baselines,
//! * [`ServeCost`] / [`CostSummary`] — cost accounting,
//! * [`placement`] — initial placements (random, frequency-BFS),
//! * [`snapshot`] / [`TreeSnapshot`] — immutable point-in-time views for
//!   lock-free concurrent reads,
//! * [`Fingerprint`] — the 128-bit placement digest every replay oracle
//!   compares.
//!
//! Higher layers build on this crate: `satn-rotor` adds rotor pointers and
//! flip-ranks, `satn-core` implements the online algorithms themselves.
//!
//! ```
//! use satn_tree::{CompleteTree, ElementId, MarkedRound, Occupancy};
//!
//! let tree = CompleteTree::with_nodes(15)?;
//! let mut occupancy = Occupancy::identity(tree);
//! let mut round = MarkedRound::access(&mut occupancy, ElementId::new(9))?;
//! let node = round.occupancy().node_of(ElementId::new(9));
//! round.bubble_to_root(node)?;
//! let cost = round.finish();
//! assert_eq!(cost.access, 4);      // element 9 was at level 3
//! assert_eq!(cost.adjustment, 3);  // three swaps moved it to the root
//! # Ok::<(), satn_tree::TreeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cost;
mod error;
mod fingerprint;
mod node;
mod occupancy;
pub mod placement;
pub mod render;
pub mod snapshot;
mod swap;
mod topology;

pub use cost::{CostSummary, EpochCostSummary, MigrationCost, ServeCost, ShardedCostSummary};
pub use error::TreeError;
pub use fingerprint::Fingerprint;
pub use node::{Ancestors, Direction, ElementId, NodeId};
pub use occupancy::Occupancy;
pub use snapshot::TreeSnapshot;
pub use swap::{FreeSwapSession, MarkScratch, MarkedRound};
pub use topology::CompleteTree;

// The parallel execution layer (`satn-exec`) moves these across worker
// threads; keep them `Send + Sync + 'static` by construction.
#[allow(dead_code)]
fn _assert_parallel_safe() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<CompleteTree>();
    assert_send_sync::<Occupancy>();
    assert_send_sync::<CostSummary>();
    assert_send_sync::<ServeCost>();
    assert_send_sync::<MarkScratch>();
    assert_send_sync::<TreeError>();
    assert_send_sync::<Ancestors>();
    assert_send_sync::<TreeSnapshot>();
    assert_send_sync::<Fingerprint>();
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_tree() -> impl Strategy<Value = CompleteTree> {
        (1u32..=10).prop_map(|levels| CompleteTree::with_levels(levels).unwrap())
    }

    proptest! {
        #[test]
        fn node_level_and_offset_roundtrip(index in 0u32..1_000_000) {
            let node = NodeId::new(index);
            let rebuilt = NodeId::from_level_offset(node.level(), node.offset_in_level());
            prop_assert_eq!(rebuilt, node);
        }

        #[test]
        fn parent_level_is_one_less(index in 1u32..1_000_000) {
            let node = NodeId::new(index);
            let parent = node.parent().unwrap();
            prop_assert_eq!(parent.level() + 1, node.level());
            prop_assert!(parent.is_parent_of(node));
        }

        #[test]
        fn ancestors_iterator_matches_reversed_root_path(index in 0u32..1_000_000) {
            let node = NodeId::new(index);
            let mut reversed_path = node.path_from_root();
            reversed_path.reverse();
            prop_assert_eq!(node.ancestors().collect::<Vec<_>>(), reversed_path);
            prop_assert_eq!(node.ancestors().rev().collect::<Vec<_>>(), node.path_from_root());
            prop_assert_eq!(node.ancestors().len() as u32, node.level() + 1);
            prop_assert_eq!(node.ancestors().next_back(), Some(NodeId::ROOT));
        }

        #[test]
        fn lca_is_common_ancestor_and_deepest(a in 0u32..4096, b in 0u32..4096) {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            let lca = a.lowest_common_ancestor(b);
            prop_assert!(lca.is_ancestor_of_or_equal(a));
            prop_assert!(lca.is_ancestor_of_or_equal(b));
            // No child of the LCA is an ancestor of both.
            for child in [lca.left_child(), lca.right_child()] {
                prop_assert!(!(child.is_ancestor_of_or_equal(a) && child.is_ancestor_of_or_equal(b)));
            }
        }

        #[test]
        fn random_occupancy_is_bijective(tree in arb_tree(), seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let occ = placement::random_occupancy(tree, &mut rng);
            prop_assert!(occ.is_consistent());
        }

        #[test]
        fn fingerprints_see_every_adjacent_swap(levels in 1u32..=9, seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let tree = CompleteTree::with_levels(levels).unwrap();
            let mut occ = placement::random_occupancy(tree, &mut rng);
            let before = occ.fingerprint();
            prop_assert_eq!(TreeSnapshot::capture(&occ).fingerprint(), before);
            for child in tree.nodes().skip(1) {
                let parent = child.parent().unwrap();
                occ.swap_nodes(child, parent).unwrap();
                prop_assert_ne!(occ.fingerprint(), before);
                prop_assert_eq!(TreeSnapshot::capture(&occ).fingerprint(), occ.fingerprint());
                occ.swap_nodes(child, parent).unwrap();
                prop_assert_eq!(occ.fingerprint(), before);
            }
        }

        #[test]
        fn arbitrary_swap_sequences_preserve_bijection(
            tree in arb_tree(),
            swaps in proptest::collection::vec((0u32..2048, 0u32..2048), 0..64),
        ) {
            let mut occ = Occupancy::identity(tree);
            for (a, b) in swaps {
                let a = NodeId::new(a % tree.num_nodes());
                let b = NodeId::new(b % tree.num_nodes());
                // Only apply valid swaps; invalid ones must leave the state intact.
                let before = occ.clone();
                if occ.swap_nodes(a, b).is_err() {
                    prop_assert_eq!(&before, &occ);
                }
                prop_assert!(occ.is_consistent());
            }
        }

        #[test]
        fn marked_round_cost_matches_swap_count(
            tree in (3u32..=8).prop_map(|l| CompleteTree::with_levels(l).unwrap()),
            element in 0u32..255,
            target in 0u32..255,
        ) {
            let mut occ = Occupancy::identity(tree);
            let element = ElementId::new(element % tree.num_nodes());
            let target = NodeId::new(target % tree.num_nodes());
            let expected_access = occ.level_of(element) as u64 + 1;
            let mut round = MarkedRound::access(&mut occ, element).unwrap();
            let node = round.occupancy().node_of(element);
            let up = round.bubble_to_root(node).unwrap();
            let down = round.sink_from_root(target).unwrap();
            let cost = round.finish();
            prop_assert_eq!(cost.access, expected_access);
            prop_assert_eq!(cost.adjustment, up + down);
            prop_assert!(occ.is_consistent());
        }
    }
}
