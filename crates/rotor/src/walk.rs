//! Rotor-router walks ("deterministic random walks", Propp machines) on the
//! complete binary tree, and their randomized counterpart.
//!
//! The Rotor-Push algorithm implicitly replaces the random root-to-level-`d`
//! path of Random-Push by the rotor global path. This module exposes the
//! underlying walk abstraction directly: it dispatches "chips" from the root,
//! each following either the rotor pointers (toggling them as it goes — the
//! classical rotor-router) or independent uniform random choices. The key
//! property, checked by the tests, is that per-node visit counts of the rotor
//! walk stay within a small additive discrepancy of the random walk's
//! expectation — the reason the derandomization works so well in practice.

use crate::pointers::RotorState;
use rand::Rng;
use satn_tree::{CompleteTree, NodeId};

/// Dispatches chips from the root to a target level following the rotor
/// pointers, toggling each pointer right after it is used.
///
/// This is the classical rotor-router ("Eulerian walker") restricted to
/// root-to-level paths, which is exactly the sequence of target nodes that
/// consecutive `flip` operations produce.
#[derive(Debug, Clone)]
pub struct RotorWalk {
    state: RotorState,
    target_level: u32,
}

impl RotorWalk {
    /// Creates a rotor walk dispatching chips to `target_level`.
    ///
    /// # Panics
    ///
    /// Panics if `target_level` exceeds the deepest level of the tree.
    pub fn new(tree: CompleteTree, target_level: u32) -> Self {
        assert!(
            target_level <= tree.max_level(),
            "target level {target_level} exceeds tree depth {}",
            tree.max_level()
        );
        RotorWalk {
            state: RotorState::new(tree),
            target_level,
        }
    }

    /// Returns a reference to the current pointer state.
    pub fn state(&self) -> &RotorState {
        &self.state
    }

    /// Dispatches one chip: returns the node at the target level that the
    /// chip reaches, then toggles every pointer the chip used (this is
    /// `P_{target}` followed by `flip(target_level)`).
    pub fn dispatch(&mut self) -> NodeId {
        let destination = self.state.global_path_node(self.target_level);
        self.state.flip(self.target_level);
        destination
    }

    /// Dispatches `count` chips and returns how many landed on each
    /// target-level node (indexed by the node's offset within its level).
    pub fn visit_counts(&mut self, count: u64) -> Vec<u64> {
        let mut counts = vec![0u64; 1usize << self.target_level];
        for _ in 0..count {
            let node = self.dispatch();
            counts[node.offset_in_level() as usize] += 1;
        }
        counts
    }
}

impl Iterator for RotorWalk {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        Some(self.dispatch())
    }
}

/// Dispatches chips from the root to a target level with independent uniform
/// left/right choices — the randomized counterpart of [`RotorWalk`], used by
/// Random-Push.
#[derive(Debug)]
pub struct RandomWalk<R> {
    tree: CompleteTree,
    target_level: u32,
    rng: R,
}

impl<R: Rng> RandomWalk<R> {
    /// Creates a random walk dispatching chips to `target_level`.
    ///
    /// # Panics
    ///
    /// Panics if `target_level` exceeds the deepest level of the tree.
    pub fn new(tree: CompleteTree, target_level: u32, rng: R) -> Self {
        assert!(target_level <= tree.max_level());
        RandomWalk {
            tree,
            target_level,
            rng,
        }
    }

    /// Dispatches one chip and returns the target-level node it reaches.
    pub fn dispatch(&mut self) -> NodeId {
        let offset = self.rng.gen_range(0..(1u32 << self.target_level));
        NodeId::from_level_offset(self.target_level, offset)
    }

    /// Dispatches `count` chips and returns per-node visit counts.
    pub fn visit_counts(&mut self, count: u64) -> Vec<u64> {
        let mut counts = vec![0u64; 1usize << self.target_level];
        for _ in 0..count {
            let node = self.dispatch();
            counts[node.offset_in_level() as usize] += 1;
        }
        counts
    }

    /// Returns the tree the walk runs on.
    pub fn tree(&self) -> CompleteTree {
        self.tree
    }
}

/// Maximum absolute deviation of per-node visit counts from the ideal uniform
/// share `total / slots`.
pub fn max_discrepancy(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let total: u64 = counts.iter().sum();
    let ideal = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| (c as f64 - ideal).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tree(levels: u32) -> CompleteTree {
        CompleteTree::with_levels(levels).unwrap()
    }

    #[test]
    fn rotor_walk_cycles_through_all_level_nodes() {
        let mut walk = RotorWalk::new(tree(5), 4);
        let first_cycle: Vec<NodeId> = (0..16).map(|_| walk.dispatch()).collect();
        let mut sorted = first_cycle.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "each node visited once per 2^d chips");
        // The next cycle repeats the same order (the rotor walk is periodic
        // with period 2^d once pointers return to their initial state).
        let second_cycle: Vec<NodeId> = (0..16).map(|_| walk.dispatch()).collect();
        assert_eq!(first_cycle, second_cycle);
    }

    #[test]
    fn rotor_walk_discrepancy_is_at_most_one_per_node() {
        // Perfect balance up to rounding for any chip count.
        for count in [1u64, 5, 17, 100, 1000] {
            let mut walk = RotorWalk::new(tree(6), 5);
            let counts = walk.visit_counts(count);
            assert!(
                max_discrepancy(&counts) <= 1.0 + 1e-9,
                "count {count}: discrepancy {}",
                max_discrepancy(&counts)
            );
        }
    }

    #[test]
    fn rotor_walk_beats_random_walk_balance() {
        let chips = 4096u64;
        let mut rotor = RotorWalk::new(tree(7), 6);
        let rotor_counts = rotor.visit_counts(chips);
        let mut random = RandomWalk::new(tree(7), 6, StdRng::seed_from_u64(3));
        let random_counts = random.visit_counts(chips);
        assert!(max_discrepancy(&rotor_counts) <= max_discrepancy(&random_counts));
    }

    #[test]
    fn random_walk_counts_sum_to_total_and_hit_valid_nodes() {
        let mut random = RandomWalk::new(tree(4), 3, StdRng::seed_from_u64(11));
        let counts = random.visit_counts(500);
        assert_eq!(counts.iter().sum::<u64>(), 500);
        assert_eq!(counts.len(), 8);
        let node = random.dispatch();
        assert_eq!(node.level(), 3);
        assert!(random.tree().contains(node));
    }

    #[test]
    fn rotor_walk_iterator_interface() {
        let walk = RotorWalk::new(tree(3), 2);
        let nodes: Vec<NodeId> = walk.take(4).collect();
        assert_eq!(nodes.len(), 4);
        let mut unique = nodes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn dispatch_matches_flip_rank_order() {
        // The k-th dispatched node is exactly the node whose flip-rank is k
        // in the initial state (for k < 2^d).
        let t = tree(5);
        let initial = RotorState::new(t);
        let mut walk = RotorWalk::new(t, 4);
        for k in 0..16u64 {
            let node = walk.dispatch();
            assert_eq!(initial.flip_rank(node), k, "dispatch {k}");
        }
    }

    #[test]
    fn max_discrepancy_handles_edge_cases() {
        assert_eq!(max_discrepancy(&[]), 0.0);
        assert_eq!(max_discrepancy(&[5]), 0.0);
        assert!((max_discrepancy(&[2, 0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds tree depth")]
    fn rotor_walk_rejects_too_deep_target() {
        RotorWalk::new(tree(3), 3);
    }
}
