//! **Max-Push** (Strict-MRU) — the MRU-maintaining baseline (Algorithm 2).

use crate::ops::{exchange_elements, exchange_elements_unchecked};
use crate::recency::RecencyTracker;
use crate::traits::SelfAdjustingTree;
use crate::warm::WarmState;
use satn_tree::{
    CostSummary, ElementId, MarkScratch, MarkedRound, Occupancy, ServeCost, TreeError,
};

/// The Max-Push algorithm (Algorithm 2 of the paper), also called
/// Strict-MRU: it keeps more recently used elements closer to the root.
///
/// Upon a request to an element `e` at depth `k`, the algorithm moves `e` to
/// the root and demotes, on every level `j ∈ {0, …, k − 1}`, the least
/// recently used element of that level by one level: each demoted element
/// takes the node vacated by the demoted element of the next level, and the
/// last one takes the node `e` vacated. This maintains the strict MRU order
/// among accessed elements, so the access cost has the working-set property,
/// but the demotion cascade is expensive (`Θ(k²)` swaps per request) — which
/// is exactly the behaviour the paper's experiments show: access cost close
/// to Static-Opt, adjustment cost far above the push-down algorithms.
///
/// The paper's pseudocode leaves the exact swap sequence implicit; this
/// implementation selects all demotion victims before moving anything and
/// then realises the resulting cyclic relocation with side-effect-free
/// position exchanges, so the intended MRU invariant holds exactly.
#[derive(Debug, Clone)]
pub struct MaxPush {
    occupancy: Occupancy,
    recency: RecencyTracker,
    /// Scratch buffer for the demotion victims, reused across requests by
    /// both serve paths so serving stays allocation-free.
    victims: Vec<ElementId>,
    /// Reused marking buffer: `serve` opens its [`MarkedRound`] through this
    /// scratch so the steady-state request path performs no heap allocation.
    scratch: MarkScratch,
}

impl MaxPush {
    /// Creates a Max-Push network starting from the given occupancy.
    pub fn new(occupancy: Occupancy) -> Self {
        let recency = RecencyTracker::new(occupancy.num_elements());
        MaxPush::with_recency(occupancy, recency)
    }

    /// Creates a Max-Push network with an explicit recency tracker (used by
    /// warm reshard handovers to resume the MRU order mid-stream).
    ///
    /// # Panics
    ///
    /// Panics if the tracker covers a different element count.
    pub fn with_recency(occupancy: Occupancy, recency: RecencyTracker) -> Self {
        assert_eq!(
            recency.num_elements(),
            occupancy.num_elements(),
            "occupancy and recency tracker must cover the same elements"
        );
        MaxPush {
            occupancy,
            recency,
            victims: Vec::new(),
            scratch: MarkScratch::new(),
        }
    }

    /// Returns the recency tracker (exposed for analysis and tests).
    pub fn recency(&self) -> &RecencyTracker {
        &self.recency
    }

    fn least_recently_used_at_level(&self, level: u32) -> ElementId {
        self.recency
            .least_recently_used(
                self.occupancy
                    .tree()
                    .level_nodes(level)
                    .map(|node| self.occupancy.element_at(node)),
            )
            .expect("every level of a complete tree is non-empty")
    }
}

impl SelfAdjustingTree for MaxPush {
    fn name(&self) -> &'static str {
        "max-push"
    }

    fn occupancy(&self) -> &Occupancy {
        &self.occupancy
    }

    fn serve(&mut self, element: ElementId) -> Result<ServeCost, TreeError> {
        self.occupancy.check_element(element)?;
        let depth = self.occupancy.level_of(element);

        // Select the demotion victims before anything moves: the least
        // recently used element of every level 0, …, depth − 1 (the level-0
        // victim is simply the current root element). The victim buffer and
        // the marking scratch are per-instance, so steady-state serving
        // allocates nothing.
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend((0..depth).map(|level| self.least_recently_used_at_level(level)));

        // The buffer must return to `self.victims` on every exit, including
        // the error paths, or the next serve would silently reallocate it.
        let cost = (|| {
            let mut round =
                MarkedRound::access_reusing(&mut self.occupancy, element, &mut self.scratch)?;
            if depth > 0 {
                // The requested element trades places with the old root
                // element, which temporarily lands on the vacated deep node …
                exchange_elements(&mut round, element, victims[0])?;
                // … and then bubbles back up through the victim chain: after
                // these exchanges victim[j] occupies the old node of
                // victim[j + 1] (one level deeper), and the last victim keeps
                // the node the requested element vacated.
                for level in (1..depth).rev() {
                    exchange_elements(&mut round, victims[0], victims[level as usize])?;
                }
            }
            Ok(round.finish())
        })();
        self.victims = victims;
        let cost = cost?;
        self.recency.touch(element);
        Ok(cost)
    }

    fn export_state(&self) -> WarmState {
        WarmState {
            recency: Some(self.recency.clone()),
            ..WarmState::default()
        }
    }

    /// The batched fast path: same victim selection and exchange sequence as
    /// [`MaxPush::serve`], but each exchange is one unchecked two-node write
    /// (reporting the `2·dist − 1` adjacent swaps it stands for) instead of
    /// a swap chain inside a [`MarkedRound`]. Max-Push is not restricted to
    /// marked swaps in the paper's model, so skipping the marking discipline
    /// changes nothing; the differential tests assert per-request
    /// equivalence with [`MaxPush::serve`].
    fn serve_batch(
        &mut self,
        requests: &[ElementId],
        summary: &mut CostSummary,
    ) -> Result<(), TreeError> {
        for (i, &element) in requests.iter().enumerate() {
            if let Some(&next) = requests.get(i + 1) {
                self.occupancy.touch_path(next);
            }
            self.occupancy.check_element(element)?;
            let depth = self.occupancy.level_of(element);

            let mut victims = std::mem::take(&mut self.victims);
            victims.clear();
            victims.extend((0..depth).map(|level| self.least_recently_used_at_level(level)));

            let mut swaps = 0;
            if depth > 0 {
                swaps += exchange_elements_unchecked(&mut self.occupancy, element, victims[0]);
                for level in (1..depth).rev() {
                    swaps += exchange_elements_unchecked(
                        &mut self.occupancy,
                        victims[0],
                        victims[level as usize],
                    );
                }
            }
            self.victims = victims;
            self.recency.touch(element);
            summary.record(ServeCost::new(u64::from(depth) + 1, swaps));
        }
        Ok(())
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
    fn requested_element_reaches_the_root() {
        let mut alg = MaxPush::new(identity(5));
        for e in [22u32, 9, 30, 0, 22] {
            alg.serve(ElementId::new(e)).unwrap();
            assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(e));
            assert!(alg.occupancy().is_consistent());
        }
    }

    #[test]
    fn demotion_moves_each_victim_exactly_one_level_down() {
        let mut alg = MaxPush::new(identity(5));
        let element = ElementId::new(23); // level 4 in the identity placement
        let victims: Vec<ElementId> = (0..4)
            .map(|l| alg.least_recently_used_at_level(l))
            .collect();
        let victim_levels: Vec<u32> = victims
            .iter()
            .map(|&v| alg.occupancy().level_of(v))
            .collect();
        let before = alg.occupancy().clone();
        alg.serve(element).unwrap();
        for (victim, old_level) in victims.iter().zip(victim_levels) {
            assert_eq!(
                alg.occupancy().level_of(*victim),
                old_level + 1,
                "victim {victim}"
            );
        }
        // Every element that is neither the request nor a victim stays put.
        for (node, other) in before.iter() {
            if other != element && !victims.contains(&other) {
                assert_eq!(alg.occupancy().node_of(other), node, "element {other}");
            }
        }
    }

    #[test]
    fn mru_order_is_maintained_on_the_access_sequence() {
        // After serving a set of distinct elements, more recently accessed
        // elements must never be deeper than less recently accessed ones
        // (the Strict-MRU property for accessed elements).
        let mut alg = MaxPush::new(identity(5));
        let accessed: Vec<u32> = vec![17, 3, 29, 11, 23, 5, 30, 3, 29];
        for &e in &accessed {
            alg.serve(ElementId::new(e)).unwrap();
        }
        // Recency order after the sequence (later accesses win).
        let mut order: Vec<u32> = accessed.clone();
        order.dedup();
        let recency_of = |x: u32| accessed.iter().rposition(|&a| a == x).unwrap();
        for &a in &accessed {
            for &b in &accessed {
                if recency_of(a) > recency_of(b) {
                    assert!(
                        alg.occupancy().level_of(ElementId::new(a))
                            <= alg.occupancy().level_of(ElementId::new(b)),
                        "element {a} (more recent) is deeper than {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn root_request_costs_one() {
        let mut alg = MaxPush::new(identity(4));
        assert_eq!(alg.serve(ElementId::new(0)).unwrap(), ServeCost::new(1, 0));
    }

    #[test]
    fn adjustment_cost_is_quadratic_in_the_depth_at_most() {
        let mut alg = MaxPush::new(identity(5));
        for step in 0..200u32 {
            let element = ElementId::new((step * 19 + 7) % 31);
            let depth = alg.occupancy().level_of(element) as u64;
            let cost = alg.serve(element).unwrap();
            assert!(
                cost.adjustment <= 2 * depth * depth + depth + 1,
                "step {step}: {cost}"
            );
        }
    }

    #[test]
    fn working_set_style_access_costs_for_repeated_small_sets() {
        // Repeatedly accessing a small set keeps its access cost small: the
        // defining property of Strict-MRU.
        let mut alg = MaxPush::new(identity(6));
        let hot: Vec<ElementId> = [40u32, 41, 42].iter().map(|&i| ElementId::new(i)).collect();
        for &e in &hot {
            alg.serve(e).unwrap();
        }
        // Afterwards every access of the hot set costs at most |hot| + 1.
        for _ in 0..10 {
            for &e in &hot {
                let cost = alg.serve(e).unwrap();
                assert!(cost.access <= hot.len() as u64 + 1, "{cost}");
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let requests: Vec<ElementId> = (0..150u32).map(|i| ElementId::new((i * 29) % 31)).collect();
        let mut a = MaxPush::new(identity(5));
        let mut b = MaxPush::new(identity(5));
        assert_eq!(
            a.serve_sequence(&requests).unwrap(),
            b.serve_sequence(&requests).unwrap()
        );
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn rejects_unknown_element() {
        let mut alg = MaxPush::new(identity(3));
        assert!(alg.serve(ElementId::new(31)).is_err());
    }
}
