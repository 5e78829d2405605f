//! The augmented push-down operation `PD(u, v)` (Definition 1, Lemma 1).
//!
//! Given two nodes `u` and `v` of the same level `d`, the operation fixes the
//! cycle of nodes `v_0 → v_1 → … → v_{d-1} → v → u → v_0` (where
//! `v_0, …, v_d = v` is the root path of `v`) and moves the element of every
//! cycle node to the next node of the cycle. It is the single reorganisation
//! primitive of both Random-Push and Rotor-Push.
//!
//! The operation has two implementations. [`augmented_push_down`], used by
//! `serve`, follows the proof of Lemma 1 swap by swap inside a
//! [`MarkedRound`], which enforces the model's marking rule. The batched
//! fast paths write Definition 1's cycle directly
//! ([`Occupancy::push_down_unchecked`], `d + 2` element moves) and report
//! the swap count Lemma 1 prices it at, so both paths yield the same
//! occupancy and the same cost.

use satn_tree::{CostSummary, ElementId, MarkedRound, NodeId, Occupancy, ServeCost, TreeError};

/// Executes `PD(u, v)` inside an open [`MarkedRound`].
///
/// `u` is the node of the requested element and `v` a node of the same level
/// chosen by the caller (the rotor global path node for Rotor-Push, a uniform
/// random node for Random-Push). After the operation:
///
/// * the element previously at `u` is at the root,
/// * the element previously at `v` is at `u`,
/// * every element previously at a proper ancestor `v_i` of `v` has moved one
///   level down, to `v_{i+1}`,
/// * every other element is unchanged.
///
/// The implementation follows the proof of Lemma 1 and uses exactly `d`
/// swaps when `u = v` and `3·d − 1` otherwise, so together with the access
/// cost of `d + 1` a request costs at most `4·d` (for `d ≥ 1`), matching the
/// bound used by the competitive analysis. Every swap is a marked swap of the
/// round. The batched fast paths reach the same occupancy through
/// [`Occupancy::push_down_unchecked`], which writes the cycle directly.
///
/// # Errors
///
/// Returns [`TreeError::NodeOutOfRange`] for nodes outside the tree and the
/// errors of the underlying swap operations.
///
/// # Panics
///
/// Panics if `u` and `v` are not on the same level, or if `u` does not hold
/// the element whose access opened the round.
pub fn augmented_push_down(
    round: &mut MarkedRound<'_>,
    u: NodeId,
    v: NodeId,
) -> Result<(), TreeError> {
    round.occupancy().tree().check_node(u)?;
    round.occupancy().tree().check_node(v)?;
    assert_eq!(
        u.level(),
        v.level(),
        "augmented push-down requires nodes of the same level"
    );
    assert_eq!(
        round.occupancy().node_of(round.requested()),
        u,
        "node u must hold the requested element"
    );

    let d = u.level();
    if d == 0 {
        // The requested element already sits at the root; the cycle is trivial.
        return Ok(());
    }

    if u == v {
        // The cycle degenerates to the root path of u: moving the requested
        // element to the root shifts every ancestor's element one level down.
        round.bubble_to_root(u)?;
        return Ok(());
    }

    // Lemma 1: access the global-path branch as well, then
    //  (1) move e = el(v) to the root     (d swaps)
    //  (2) move e from the root down to u (d swaps; the last swap parks the
    //      requested element e* at the parent of u)
    //  (3) move e* from parent(u) to the root (d − 1 swaps).
    round.mark_root_path(v)?;
    round.bubble_to_root(v)?;
    round.sink_from_root(u)?;
    let parent_of_u = u.parent().expect("level d >= 1 nodes have a parent");
    round.bubble_to_root(parent_of_u)?;
    Ok(())
}

/// Applies `PD(u, v)` to `occupancy` as one cycle shift
/// ([`Occupancy::push_down_unchecked`]) and returns the number of swaps
/// Lemma 1 prices it at: `d` when `u = v`, otherwise `3·d − 1`. These are
/// exactly the swaps [`augmented_push_down`] performs, so a batched request
/// costs what the same request served through a [`MarkedRound`] costs.
///
/// # Panics
///
/// Panics if `u` or `v` lies outside the occupancy's tree.
pub(crate) fn push_down_unchecked(occupancy: &mut Occupancy, u: NodeId, v: NodeId) -> u64 {
    occupancy.push_down_unchecked(u, v);
    let d = u64::from(u.level());
    if u == v {
        d
    } else {
        3 * d - 1
    }
}

/// The batched serve loop of the push algorithms: for every request it
/// touches the next request's root path, then, above the root, asks
/// `target` for the level-`d` node `v` and applies [`push_down_unchecked`],
/// recording the same [`ServeCost`] the marked `serve` path reports.
///
/// # Errors
///
/// Returns [`TreeError::ElementOutOfRange`] for the first unknown element;
/// `summary` holds the costs of the requests served before it.
pub(crate) fn serve_push_batch(
    occupancy: &mut Occupancy,
    requests: &[ElementId],
    summary: &mut CostSummary,
    mut target: impl FnMut(u32) -> NodeId,
) -> Result<(), TreeError> {
    for (i, &element) in requests.iter().enumerate() {
        if let Some(&next) = requests.get(i + 1) {
            occupancy.touch_path(next);
        }
        occupancy.check_element(element)?;
        let u = occupancy.node_of(element);
        let level = u.level();
        let mut swaps = 0;
        if level > 0 {
            swaps = push_down_unchecked(occupancy, u, target(level));
        }
        summary.record(ServeCost::new(u64::from(level) + 1, swaps));
    }
    Ok(())
}

/// Computes the occupancy that `PD(u, v)` must produce, directly from
/// Definition 1, without performing any swaps.
///
/// Intended for tests and verification: apply it to a snapshot and compare
/// with the result of [`augmented_push_down`].
///
/// # Panics
///
/// Panics if `u` and `v` are not nodes of the same level of the occupancy's
/// tree.
pub fn push_down_specification(
    occupancy: &Occupancy,
    u: NodeId,
    v: NodeId,
) -> Vec<(ElementId, NodeId)> {
    assert!(occupancy.tree().contains(u) && occupancy.tree().contains(v));
    assert_eq!(u.level(), v.level());
    let mut cycle: Vec<NodeId> = v.ancestors().rev().collect();
    if u != v {
        cycle.push(u);
    }
    let mut moves = Vec::with_capacity(cycle.len());
    for (i, &node) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        moves.push((occupancy.element_at(node), next));
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::{CompleteTree, ElementId, MarkedRound, Occupancy};

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    fn run_pd(occ: &mut Occupancy, u: NodeId, v: NodeId) -> satn_tree::ServeCost {
        let element = occ.element_at(u);
        let mut round = MarkedRound::access(occ, element).unwrap();
        augmented_push_down(&mut round, u, v).unwrap();
        round.finish()
    }

    fn assert_matches_spec(levels: u32, u: NodeId, v: NodeId) {
        let mut occ = identity(levels);
        let spec = push_down_specification(&occ, u, v);
        let moved_elements: Vec<ElementId> = spec.iter().map(|&(e, _)| e).collect();
        let before = occ.clone();
        run_pd(&mut occ, u, v);
        for (element, target) in spec {
            assert_eq!(
                occ.node_of(element),
                target,
                "element {element} should land on {target}"
            );
        }
        // Elements outside the cycle must not move.
        for (node, element) in before.iter() {
            if !moved_elements.contains(&element) {
                assert_eq!(
                    occ.node_of(element),
                    node,
                    "element {element} moved unexpectedly"
                );
            }
        }
        assert!(occ.is_consistent());
    }

    #[test]
    fn trivial_root_request_costs_one() {
        let mut occ = identity(4);
        let cost = run_pd(&mut occ, NodeId::ROOT, NodeId::ROOT);
        assert_eq!(cost.access, 1);
        assert_eq!(cost.adjustment, 0);
    }

    #[test]
    fn same_node_degenerates_to_bubble() {
        let mut occ = identity(4);
        let u = NodeId::new(11);
        let cost = run_pd(&mut occ, u, u);
        assert_eq!(cost.access, 4);
        assert_eq!(cost.adjustment, 3);
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(11));
        // Ancestors shifted down along the path 0-2-5-11.
        assert_eq!(occ.element_at(NodeId::new(2)), ElementId::new(0));
        assert_eq!(occ.element_at(NodeId::new(5)), ElementId::new(2));
        assert_eq!(occ.element_at(NodeId::new(11)), ElementId::new(5));
    }

    #[test]
    fn figure1_example_reorganisation() {
        // Figure 1 of the paper: elements e1..e15 (here 0-indexed as 0..14) on
        // a 15-node tree, pointers all left, a request to the element at node
        // 5 (the paper's e6) with the global path node v = node 3.
        let mut occ = identity(4);
        let cost = run_pd(&mut occ, NodeId::new(5), NodeId::new(3));
        // e6 (index 5) moves to the root, e1 (0) and e2 (1) move down the
        // global path, e4 (3) moves to the initial position of e6.
        assert_eq!(occ.element_at(NodeId::ROOT), ElementId::new(5));
        assert_eq!(occ.element_at(NodeId::new(1)), ElementId::new(0));
        assert_eq!(occ.element_at(NodeId::new(3)), ElementId::new(1));
        assert_eq!(occ.element_at(NodeId::new(5)), ElementId::new(3));
        // The level-2 request costs 3 to access and at most 3*2 - 1 swaps.
        assert_eq!(cost.access, 3);
        assert!(cost.adjustment <= 5);
    }

    #[test]
    fn matches_specification_for_disjoint_paths() {
        assert_matches_spec(4, NodeId::new(11), NodeId::new(14));
        assert_matches_spec(4, NodeId::new(7), NodeId::new(12));
        assert_matches_spec(5, NodeId::new(16), NodeId::new(30));
    }

    #[test]
    fn matches_specification_for_shared_prefixes() {
        assert_matches_spec(4, NodeId::new(7), NodeId::new(8));
        assert_matches_spec(4, NodeId::new(9), NodeId::new(7));
        assert_matches_spec(5, NodeId::new(17), NodeId::new(16));
        assert_matches_spec(5, NodeId::new(23), NodeId::new(18));
    }

    #[test]
    fn matches_specification_for_level_one() {
        assert_matches_spec(3, NodeId::new(1), NodeId::new(2));
        assert_matches_spec(3, NodeId::new(2), NodeId::new(1));
    }

    #[test]
    fn cost_is_at_most_four_d() {
        // Lemma 1: total cost (access + swaps) of a level-d request is <= 4d.
        for levels in 2..=7u32 {
            let tree = CompleteTree::with_levels(levels).unwrap();
            for u in tree.leaves() {
                for v in tree.leaves() {
                    let mut occ = Occupancy::identity(tree);
                    let cost = run_pd(&mut occ, u, v);
                    let d = u.level() as u64;
                    assert!(
                        cost.total() <= 4 * d,
                        "levels {levels}, u {u}, v {v}: cost {} > 4d = {}",
                        cost.total(),
                        4 * d
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_shift_matches_specification_for_every_same_level_pair() {
        // The batched kernel against Definition 1 directly, for every
        // same-level pair of trees with 1–6 levels, from a random placement;
        // its swap count against the marked Lemma 1 swap sequence.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for levels in 1..=6u32 {
            let tree = CompleteTree::with_levels(levels).unwrap();
            let start = satn_tree::placement::random_occupancy(tree, &mut rng);
            for level in 0..levels {
                for u in tree.level_nodes(level) {
                    for v in tree.level_nodes(level) {
                        let mut shifted = start.clone();
                        let swaps = push_down_unchecked(&mut shifted, u, v);
                        let spec = push_down_specification(&start, u, v);
                        for &(element, target) in &spec {
                            assert_eq!(
                                shifted.node_of(element),
                                target,
                                "levels {levels}, PD({u}, {v}): element {element}"
                            );
                        }
                        for (node, element) in start.iter() {
                            if spec.iter().all(|&(moved, _)| moved != element) {
                                assert_eq!(
                                    shifted.element_at(node),
                                    element,
                                    "levels {levels}, PD({u}, {v}): {node} changed"
                                );
                            }
                        }
                        assert!(shifted.is_consistent());
                        let mut marked = start.clone();
                        let cost = run_pd(&mut marked, u, v);
                        assert_eq!(swaps, cost.adjustment, "levels {levels}, PD({u}, {v})");
                        assert_eq!(shifted, marked, "levels {levels}, PD({u}, {v})");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "same level")]
    fn rejects_nodes_of_different_levels() {
        let mut occ = identity(4);
        let element = occ.element_at(NodeId::new(5));
        let mut round = MarkedRound::access(&mut occ, element).unwrap();
        augmented_push_down(&mut round, NodeId::new(5), NodeId::new(7)).unwrap();
    }

    #[test]
    #[should_panic(expected = "requested element")]
    fn rejects_mismatched_requested_node() {
        let mut occ = identity(4);
        let element = occ.element_at(NodeId::new(5));
        let mut round = MarkedRound::access(&mut occ, element).unwrap();
        augmented_push_down(&mut round, NodeId::new(6), NodeId::new(3)).unwrap();
    }
}
