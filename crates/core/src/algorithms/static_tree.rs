//! The two static baselines: **Static-Oblivious** and **Static-Opt**.

use crate::traits::SelfAdjustingTree;
use satn_tree::{
    placement, CompleteTree, CostSummary, ElementId, MarkScratch, MarkedRound, Occupancy,
    ServeCost, TreeError,
};

/// The demand-oblivious static baseline: the initial (typically random) tree,
/// never adjusted. Every request simply pays its current access cost.
#[derive(Debug, Clone)]
pub struct StaticOblivious {
    occupancy: Occupancy,
    /// Reused marking buffer, so `serve` performs no heap allocation.
    scratch: MarkScratch,
}

impl StaticOblivious {
    /// Creates the baseline from the given (initial) occupancy.
    pub fn new(occupancy: Occupancy) -> Self {
        StaticOblivious {
            occupancy,
            scratch: MarkScratch::new(),
        }
    }
}

impl SelfAdjustingTree for StaticOblivious {
    fn name(&self) -> &'static str {
        "static-oblivious"
    }

    fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    fn is_self_adjusting(&self) -> bool {
        false
    }

    fn serve(&mut self, element: ElementId) -> Result<ServeCost, TreeError> {
        let round = MarkedRound::access_reusing(&mut self.occupancy, element, &mut self.scratch)?;
        Ok(round.finish())
    }

    fn serve_batch(
        &mut self,
        requests: &[ElementId],
        summary: &mut CostSummary,
    ) -> Result<(), TreeError> {
        static_serve_batch(&self.occupancy, requests, summary)
    }
}

/// The batched fast path shared by the static baselines: the tree never
/// changes, so each request's cost is read straight off the occupancy without
/// opening a [`MarkedRound`] (which marks the access path in a bitmap).
fn static_serve_batch(
    occupancy: &Occupancy,
    requests: &[ElementId],
    summary: &mut CostSummary,
) -> Result<(), TreeError> {
    for (i, &request) in requests.iter().enumerate() {
        if let Some(&next) = requests.get(i + 1) {
            occupancy.touch_path(next);
        }
        occupancy.check_element(request)?;
        summary.record(ServeCost::new(occupancy.access_cost(request), 0));
    }
    Ok(())
}

/// The static offline-optimal baseline of the paper's evaluation: elements
/// are placed in decreasing request-frequency order along a BFS traversal
/// (the most frequent element at the root) and never moved.
///
/// Being offline, it must be constructed from the whole request sequence (or
/// its frequency vector) before serving it.
#[derive(Debug, Clone)]
pub struct StaticOpt {
    occupancy: Occupancy,
    /// Reused marking buffer, so `serve` performs no heap allocation.
    scratch: MarkScratch,
}

impl StaticOpt {
    /// Builds the frequency-ordered static tree from per-element weights
    /// (frequencies or probabilities).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the number of tree nodes.
    pub fn from_weights(tree: CompleteTree, weights: &[f64]) -> Self {
        StaticOpt {
            occupancy: placement::frequency_occupancy(tree, weights),
            scratch: MarkScratch::new(),
        }
    }

    /// Builds the frequency-ordered static tree by counting the occurrences
    /// of every element in `sequence`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if the sequence mentions an
    /// element that does not fit the tree.
    pub fn from_sequence(tree: CompleteTree, sequence: &[ElementId]) -> Result<Self, TreeError> {
        let n = tree.num_nodes();
        let mut weights = vec![0.0f64; n as usize];
        for &element in sequence {
            if element.index() >= n {
                return Err(TreeError::ElementOutOfRange {
                    element,
                    num_elements: n,
                });
            }
            weights[element.usize()] += 1.0;
        }
        Ok(Self::from_weights(tree, &weights))
    }
}

impl SelfAdjustingTree for StaticOpt {
    fn name(&self) -> &'static str {
        "static-opt"
    }

    fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    fn is_self_adjusting(&self) -> bool {
        false
    }

    fn serve(&mut self, element: ElementId) -> Result<ServeCost, TreeError> {
        let round = MarkedRound::access_reusing(&mut self.occupancy, element, &mut self.scratch)?;
        Ok(round.finish())
    }

    fn serve_batch(
        &mut self,
        requests: &[ElementId],
        summary: &mut CostSummary,
    ) -> Result<(), TreeError> {
        static_serve_batch(&self.occupancy, requests, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::NodeId;

    fn tree(levels: u32) -> CompleteTree {
        CompleteTree::with_levels(levels).unwrap()
    }

    #[test]
    fn oblivious_never_moves_anything() {
        let mut alg = StaticOblivious::new(Occupancy::identity(tree(4)));
        let before = alg.occupancy().clone();
        for e in [3u32, 14, 7, 0, 14] {
            let cost = alg.serve(ElementId::new(e)).unwrap();
            assert_eq!(cost.adjustment, 0);
        }
        assert_eq!(alg.occupancy(), &before);
        assert!(!alg.is_self_adjusting());
    }

    #[test]
    fn oblivious_access_cost_is_current_depth_plus_one() {
        let mut alg = StaticOblivious::new(Occupancy::identity(tree(4)));
        assert_eq!(alg.serve(ElementId::new(0)).unwrap().access, 1);
        assert_eq!(alg.serve(ElementId::new(2)).unwrap().access, 2);
        assert_eq!(alg.serve(ElementId::new(14)).unwrap().access, 4);
    }

    #[test]
    fn static_opt_places_most_frequent_element_at_root() {
        let sequence: Vec<ElementId> = [4u32, 4, 4, 2, 2, 6]
            .iter()
            .map(|&i| ElementId::new(i))
            .collect();
        let alg = StaticOpt::from_sequence(tree(3), &sequence).unwrap();
        assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(4));
        assert_eq!(alg.occupancy().level_of(ElementId::new(2)), 1);
        assert_eq!(alg.occupancy().level_of(ElementId::new(6)), 1);
    }

    #[test]
    fn static_opt_beats_oblivious_on_skewed_sequences() {
        let tree = tree(6);
        // A heavily skewed sequence over a few elements placed deep in the
        // identity tree.
        let mut sequence = Vec::new();
        for round in 0..400u32 {
            sequence.push(ElementId::new(60 + (round % 3)));
        }
        let mut opt = StaticOpt::from_sequence(tree, &sequence).unwrap();
        let mut oblivious = StaticOblivious::new(Occupancy::identity(tree));
        let opt_cost = opt.serve_sequence(&sequence).unwrap().total().total();
        let oblivious_cost = oblivious.serve_sequence(&sequence).unwrap().total().total();
        assert!(opt_cost < oblivious_cost);
        // The three hot elements occupy the two topmost levels.
        for e in [60u32, 61, 62] {
            assert!(opt.occupancy().level_of(ElementId::new(e)) <= 1);
        }
    }

    #[test]
    fn static_opt_rejects_out_of_range_sequences() {
        let err = StaticOpt::from_sequence(tree(3), &[ElementId::new(9)]).unwrap_err();
        assert!(matches!(err, TreeError::ElementOutOfRange { .. }));
    }

    #[test]
    fn static_opt_from_weights_matches_frequency_placement() {
        let t = tree(3);
        let weights = vec![1.0, 9.0, 2.0, 0.0, 0.0, 5.0, 0.5];
        let alg = StaticOpt::from_weights(t, &weights);
        assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(1));
        assert_eq!(alg.occupancy().level_of(ElementId::new(5)), 1);
        assert_eq!(alg.occupancy().level_of(ElementId::new(2)), 1);
        assert!(!alg.is_self_adjusting());
        assert_eq!(alg.name(), "static-opt");
    }
}
