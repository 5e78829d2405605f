//! Swap-sequence building blocks shared by the baseline algorithms.
//!
//! `Move-Half` and `Max-Push` move elements between arbitrary tree nodes
//! (not only along the access path). These helpers express such relocations
//! as sequences of adjacent swaps along the unique tree path between the
//! source and the destination, which is how the paper accounts for their
//! adjustment cost.

use satn_tree::{ElementId, MarkedRound, NodeId, Occupancy, TreeError};

/// Moves `element` from its current node to `target` by swapping along the
/// unique tree path (up to the lowest common ancestor, then down). Returns
/// the number of swaps used, which equals the tree distance between the two
/// nodes.
///
/// Every element on the path shifts one position towards the element's
/// original node. The root paths of both endpoints are marked first, mirroring
/// the traversal the algorithm performs to locate them (the baselines using
/// this helper are not marking-restricted in the paper).
///
/// # Errors
///
/// Returns [`TreeError::ElementOutOfRange`] / [`TreeError::NodeOutOfRange`]
/// for unknown identifiers, plus any error of the underlying swaps.
pub fn relocate(
    round: &mut MarkedRound<'_>,
    element: ElementId,
    target: NodeId,
) -> Result<u64, TreeError> {
    round.occupancy().check_element(element)?;
    round.occupancy().tree().check_node(target)?;
    let source = round.occupancy().node_of(element);
    round.mark_root_path(source)?;
    round.mark_root_path(target)?;

    let lca = source.lowest_common_ancestor(target);
    let mut swaps = 0;

    // Walk the element up from its node to the LCA.
    let mut current = source;
    while current != lca {
        let parent = current.parent().expect("non-LCA node has a parent");
        round.swap(parent, current)?;
        current = parent;
        swaps += 1;
    }

    // Walk it down from the LCA to the target (allocation-free descent:
    // `ancestors().rev()` is the root-to-target path, skipped past the LCA).
    for node in target.ancestors().rev().skip(lca.level() as usize + 1) {
        let parent = node.parent().expect("descent nodes below the root");
        round.swap(parent, node)?;
        swaps += 1;
    }
    Ok(swaps)
}

/// Exchanges the positions of two elements using `2·dist − 1` adjacent swaps
/// (where `dist` is the tree distance between their nodes), leaving every
/// other element where it was.
///
/// This is the reorganisation step of `Move-Half`: the accessed element moves
/// to the node of the chosen higher-level element and vice versa.
///
/// # Errors
///
/// Propagates the errors of [`relocate`].
pub fn exchange_elements(
    round: &mut MarkedRound<'_>,
    first: ElementId,
    second: ElementId,
) -> Result<u64, TreeError> {
    round.occupancy().check_element(first)?;
    round.occupancy().check_element(second)?;
    if first == second {
        return Ok(0);
    }
    let node_of_first = round.occupancy().node_of(first);
    let node_of_second = round.occupancy().node_of(second);
    let mut swaps = relocate(round, first, node_of_second)?;
    swaps += relocate(round, second, node_of_first)?;
    Ok(swaps)
}

/// The allocation-free counterpart of [`exchange_elements`] used by batched
/// fast paths: trades the two elements' nodes with one unchecked
/// [`Occupancy::swap_unchecked`], without a [`MarkedRound`] bitmap, and
/// returns the `2·dist − 1` swaps (0 when `first == second`) that
/// [`exchange_elements`] performs to reach the same occupancy.
///
/// Callers must pass valid elements.
pub fn exchange_elements_unchecked(
    occupancy: &mut Occupancy,
    first: ElementId,
    second: ElementId,
) -> u64 {
    if first == second {
        return 0;
    }
    let node_of_first = occupancy.node_of(first);
    let node_of_second = occupancy.node_of(second);
    occupancy.swap_unchecked(node_of_first, node_of_second);
    let lca = node_of_first.lowest_common_ancestor(node_of_second);
    let distance = node_of_first.level() + node_of_second.level() - 2 * lca.level();
    2 * u64::from(distance) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::CompleteTree;

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    fn distance(a: NodeId, b: NodeId) -> u64 {
        let lca = a.lowest_common_ancestor(b);
        ((a.level() - lca.level()) + (b.level() - lca.level())) as u64
    }

    #[test]
    fn relocate_moves_element_and_costs_distance() {
        let mut occ = identity(4);
        let element = ElementId::new(11);
        let target = NodeId::new(14);
        let expected = distance(NodeId::new(11), target);
        let mut round = MarkedRound::access(&mut occ, element).unwrap();
        let swaps = relocate(&mut round, element, target).unwrap();
        assert_eq!(swaps, expected);
        let cost = round.finish();
        assert_eq!(cost.adjustment, expected);
        assert_eq!(occ.node_of(element), target);
        assert!(occ.is_consistent());
    }

    #[test]
    fn relocate_to_own_node_is_free() {
        let mut occ = identity(3);
        let element = ElementId::new(5);
        let mut round = MarkedRound::access(&mut occ, element).unwrap();
        let swaps = relocate(&mut round, element, NodeId::new(5)).unwrap();
        assert_eq!(swaps, 0);
    }

    #[test]
    fn relocate_to_ancestor_and_descendant() {
        let mut occ = identity(4);
        let element = ElementId::new(9);
        let mut round = MarkedRound::access(&mut occ, element).unwrap();
        relocate(&mut round, element, NodeId::new(1)).unwrap();
        assert_eq!(round.occupancy().node_of(element), NodeId::new(1));
        relocate(&mut round, element, NodeId::new(10)).unwrap();
        assert_eq!(round.occupancy().node_of(element), NodeId::new(10));
        round.finish();
        assert!(occ.is_consistent());
    }

    #[test]
    fn exchange_swaps_two_elements_and_restores_the_rest() {
        let mut occ = identity(4);
        let before = occ.clone();
        let first = ElementId::new(12);
        let second = ElementId::new(2);
        let expected_swaps = 2 * distance(NodeId::new(12), NodeId::new(2)) - 1;
        let mut round = MarkedRound::access(&mut occ, first).unwrap();
        let swaps = exchange_elements(&mut round, first, second).unwrap();
        assert_eq!(swaps, expected_swaps);
        round.finish();
        assert_eq!(occ.node_of(first), NodeId::new(2));
        assert_eq!(occ.node_of(second), NodeId::new(12));
        for (node, element) in before.iter() {
            if element != first && element != second {
                assert_eq!(
                    occ.node_of(element),
                    node,
                    "element {element} must not move"
                );
            }
        }
    }

    #[test]
    fn exchange_same_element_is_noop() {
        let mut occ = identity(3);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(3)).unwrap();
        assert_eq!(
            exchange_elements(&mut round, ElementId::new(3), ElementId::new(3)).unwrap(),
            0
        );
    }

    #[test]
    fn relocate_rejects_unknown_identifiers() {
        let mut occ = identity(3);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(1)).unwrap();
        assert!(relocate(&mut round, ElementId::new(99), NodeId::new(1)).is_err());
        assert!(relocate(&mut round, ElementId::new(1), NodeId::new(99)).is_err());
    }

    /// `relocate` written without a `MarkedRound`: the same adjacent swaps
    /// along the source → LCA → target path, as unchecked writes.
    fn relocate_by_unchecked_swaps(occ: &mut Occupancy, element: ElementId, target: NodeId) -> u64 {
        let source = occ.node_of(element);
        let lca = source.lowest_common_ancestor(target);
        let mut path: Vec<NodeId> = source.ancestors().take_while(|&n| n != lca).collect();
        path.push(lca);
        path.extend(target.ancestors().rev().skip(lca.level() as usize + 1));
        for pair in path.windows(2) {
            occ.swap_unchecked(pair[0], pair[1]);
        }
        path.len() as u64 - 1
    }

    #[test]
    fn unchecked_relocate_matches_marked_relocate() {
        for (element, target) in [(11u32, 14u32), (9, 1), (2, 12), (5, 5), (7, 8)] {
            let mut marked = identity(4);
            let mut unchecked = identity(4);
            let element = ElementId::new(element);
            let target = NodeId::new(target);
            let mut round = MarkedRound::access(&mut marked, element).unwrap();
            let marked_swaps = relocate(&mut round, element, target).unwrap();
            round.finish();
            let unchecked_swaps = relocate_by_unchecked_swaps(&mut unchecked, element, target);
            assert_eq!(marked_swaps, unchecked_swaps, "{element} -> {target}");
            assert_eq!(marked_swaps, distance(NodeId::new(element.index()), target));
            assert_eq!(marked.node_of(element), target, "{element} -> {target}");
            assert_eq!(marked, unchecked, "{element} -> {target}");
        }
    }

    #[test]
    fn unchecked_exchange_matches_marked_exchange() {
        // Disjoint branches, a pair of equal elements, parent and child,
        // siblings, an ancestor two levels up, and a leaf and the root.
        for (first, second) in [
            (12u32, 2u32),
            (3, 3),
            (1, 0),
            (14, 7),
            (11, 14),
            (9, 1),
            (2, 12),
            (7, 8),
            (13, 0),
        ] {
            let mut marked = identity(4);
            let mut unchecked = identity(4);
            let first = ElementId::new(first);
            let second = ElementId::new(second);
            let mut round = MarkedRound::access(&mut marked, first).unwrap();
            let marked_swaps = exchange_elements(&mut round, first, second).unwrap();
            round.finish();
            let unchecked_swaps = exchange_elements_unchecked(&mut unchecked, first, second);
            assert_eq!(marked_swaps, unchecked_swaps, "{first} <-> {second}");
            assert_eq!(marked, unchecked, "{first} <-> {second}");
        }
    }

    #[test]
    fn exchange_adjacent_elements_uses_single_swap() {
        let mut occ = identity(3);
        let mut round = MarkedRound::access(&mut occ, ElementId::new(1)).unwrap();
        let swaps = exchange_elements(&mut round, ElementId::new(1), ElementId::new(0)).unwrap();
        assert_eq!(swaps, 1);
        round.finish();
        assert_eq!(occ.node_of(ElementId::new(1)), NodeId::ROOT);
    }
}
