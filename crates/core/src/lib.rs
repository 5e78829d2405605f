//! # satn-core
//!
//! Self-adjusting single-source tree network algorithms — a Rust
//! implementation of *Deterministic Self-Adjusting Tree Networks Using Rotor
//! Walks* (Avin, Bienkowski, Salem, Sama, Schmid, Schmidt — ICDCS 2022).
//!
//! A source attached to the root of a complete binary tree issues an online
//! sequence of requests to the `n` elements stored in the tree (one per
//! node). Serving a request costs the element's depth plus one; afterwards
//! the algorithm may reorganise the tree by swapping elements at adjacent
//! nodes, one unit per swap. This crate implements every algorithm studied
//! in the paper behind the common [`SelfAdjustingTree`] trait:
//!
//! * [`RotorPush`] — the deterministic, 12-competitive algorithm based on
//!   rotor walks (the paper's contribution),
//! * [`RandomPush`] — the randomized 16-competitive algorithm it
//!   derandomizes,
//! * [`MoveHalf`] and [`MaxPush`] (Strict-MRU) — the deterministic baselines
//!   of Avin et al. (LATIN 2020),
//! * [`StaticOpt`] / [`StaticOblivious`] — the static baselines of the
//!   empirical evaluation,
//! * [`MoveToFront`] — the non-competitive strawman from the introduction,
//!
//! together with the augmented push-down operation
//! ([`pushdown::augmented_push_down`], Definition 1 / Lemma 1) that both push
//! algorithms are built on, and the [`AlgorithmKind`] factory used by the
//! experiment harness.
//!
//! ```
//! use satn_core::{AlgorithmKind, RotorPush, SelfAdjustingTree};
//! use satn_tree::{CompleteTree, ElementId, Occupancy};
//!
//! let tree = CompleteTree::with_nodes(127)?;
//! let mut network = RotorPush::new(Occupancy::identity(tree));
//! let requests: Vec<ElementId> = (0..127).map(ElementId::new).collect();
//! let summary = network.serve_sequence(&requests)?;
//! assert_eq!(summary.requests(), 127);
//! // The total cost of a level-d request is at most 4d (Lemma 1).
//! assert!(summary.max_total() <= 4 * tree.max_level() as u64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod algorithms;
pub mod ops;
pub mod pushdown;
mod recency;
mod suite;
mod traits;
mod warm;

pub use algorithms::ablation;
pub use algorithms::{
    MaxPush, MoveHalf, MoveToFront, RandomPush, RotorPush, StaticOblivious, StaticOpt,
};
pub use recency::RecencyTracker;
pub use suite::{AlgorithmKind, ParseAlgorithmError};
pub use traits::SelfAdjustingTree;
pub use warm::WarmState;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use satn_rotor::RotorState;
    use satn_tree::{placement, CompleteTree, CostSummary, Direction, ElementId, Occupancy};

    fn arb_requests(levels: u32, len: usize) -> impl Strategy<Value = Vec<ElementId>> {
        let n = (1u32 << levels) - 1;
        proptest::collection::vec((0..n).prop_map(ElementId::new), 1..len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn every_algorithm_keeps_a_valid_bijection(
            requests in arb_requests(5, 60),
            seed in any::<u64>(),
        ) {
            let tree = CompleteTree::with_levels(5).unwrap();
            for kind in AlgorithmKind::EVALUATED {
                let mut alg = kind
                    .instantiate(Occupancy::identity(tree), seed, &requests)
                    .unwrap();
                alg.serve_sequence(&requests).unwrap();
                prop_assert!(alg.occupancy().is_consistent(), "{}", kind);
            }
        }

        #[test]
        fn push_algorithms_place_the_request_at_the_root(
            requests in arb_requests(5, 40),
            seed in any::<u64>(),
        ) {
            let tree = CompleteTree::with_levels(5).unwrap();
            let mut rotor = RotorPush::new(Occupancy::identity(tree));
            let mut random = RandomPush::with_seed(Occupancy::identity(tree), seed);
            for &request in &requests {
                rotor.serve(request).unwrap();
                random.serve(request).unwrap();
                prop_assert_eq!(rotor.occupancy().element_at(satn_tree::NodeId::ROOT), request);
                prop_assert_eq!(random.occupancy().element_at(satn_tree::NodeId::ROOT), request);
            }
        }

        #[test]
        fn push_costs_respect_lemma1(
            requests in arb_requests(6, 60),
            seed in any::<u64>(),
        ) {
            let tree = CompleteTree::with_levels(6).unwrap();
            let mut rotor = RotorPush::new(Occupancy::identity(tree));
            let mut random = RandomPush::with_seed(Occupancy::identity(tree), seed);
            for &request in &requests {
                for alg in [&mut rotor as &mut dyn SelfAdjustingTree, &mut random] {
                    let level = alg.occupancy().level_of(request) as u64;
                    let cost = alg.serve(request).unwrap();
                    prop_assert_eq!(cost.access, level + 1);
                    prop_assert!(cost.total() <= (4 * level).max(1));
                }
            }
        }

        #[test]
        fn access_costs_match_current_depth_for_all_algorithms(
            requests in arb_requests(4, 30),
            seed in any::<u64>(),
        ) {
            let tree = CompleteTree::with_levels(4).unwrap();
            for kind in AlgorithmKind::EVALUATED {
                let mut alg = kind
                    .instantiate(Occupancy::identity(tree), seed, &requests)
                    .unwrap();
                for &request in &requests {
                    let expected = alg.occupancy().access_cost(request);
                    let cost = alg.serve(request).unwrap();
                    prop_assert_eq!(cost.access, expected, "{}", kind);
                }
            }
        }

        #[test]
        fn serve_batch_matches_a_serve_loop_for_every_algorithm(
            requests in arb_requests(5, 80),
            seed in any::<u64>(),
        ) {
            let tree = CompleteTree::with_levels(5).unwrap();
            for kind in AlgorithmKind::ALL {
                let mut reference = kind
                    .instantiate(Occupancy::identity(tree), seed, &requests)
                    .unwrap();
                let mut batched = kind
                    .instantiate(Occupancy::identity(tree), seed, &requests)
                    .unwrap();
                let mut reference_summary = CostSummary::new();
                for &request in &requests {
                    reference_summary.record(reference.serve(request).unwrap());
                }
                let mut batched_summary = CostSummary::new();
                batched.serve_batch(&requests, &mut batched_summary).unwrap();
                prop_assert_eq!(reference_summary, batched_summary, "{}", kind);
                prop_assert_eq!(reference.occupancy(), batched.occupancy(), "{}", kind);
                prop_assert!(batched.occupancy().is_consistent(), "{}", kind);
            }
        }

        #[test]
        fn push_batches_match_a_serve_loop_on_deep_random_states(
            draws in proptest::collection::vec((0..4095u32, any::<bool>()), 1..100),
            seed in any::<u64>(),
        ) {
            // 12 levels, a random placement and a random rotor state: most
            // requests start at level 10 or 11. A drawn `true` repeats the
            // request, which then sits at the root (a level-0 request).
            let tree = CompleteTree::with_levels(12).unwrap();
            let requests: Vec<ElementId> = draws
                .iter()
                .flat_map(|&(e, repeat)| {
                    std::iter::repeat_n(ElementId::new(e), 1 + usize::from(repeat))
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let initial = placement::random_occupancy(tree, &mut rng);
            let mut rotors = RotorState::new(tree);
            for node in tree.nodes() {
                if rng.gen::<bool>() {
                    rotors.set_pointer(node, Direction::Right).unwrap();
                }
            }
            let build = |which: usize| -> Box<dyn SelfAdjustingTree> {
                match which {
                    0 => Box::new(RotorPush::with_rotor_state(initial.clone(), rotors.clone())),
                    _ => Box::new(RandomPush::with_seed(initial.clone(), seed)),
                }
            };
            for which in 0..2 {
                let mut reference = build(which);
                let mut batched = build(which);
                let mut reference_summary = CostSummary::new();
                for &request in &requests {
                    reference_summary.record(reference.serve(request).unwrap());
                }
                let mut batched_summary = CostSummary::new();
                batched.serve_batch(&requests, &mut batched_summary).unwrap();
                let name = reference.name();
                prop_assert_eq!(reference_summary, batched_summary, "{}", name);
                prop_assert_eq!(reference.occupancy(), batched.occupancy(), "{}", name);
                prop_assert_eq!(reference.rotors(), batched.rotors(), "{}", name);
            }
        }

        #[test]
        fn static_opt_is_never_worse_than_oblivious_on_access(
            requests in arb_requests(5, 120),
        ) {
            let tree = CompleteTree::with_levels(5).unwrap();
            let mut opt = StaticOpt::from_sequence(tree, &requests).unwrap();
            let mut oblivious = StaticOblivious::new(Occupancy::identity(tree));
            let opt_cost = opt.serve_sequence(&requests).unwrap().total().access;
            let oblivious_cost = oblivious.serve_sequence(&requests).unwrap().total().access;
            // Static-Opt is the optimal *static* placement for the measured
            // frequencies, so with the identity initial placement (elements
            // sorted by id, not by frequency) it can only be better or equal
            // up to ties in the frequency ordering.
            prop_assert!(opt_cost <= oblivious_cost + requests.len() as u64);
        }
    }
}
