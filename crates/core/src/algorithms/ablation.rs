//! Ablation variants of Rotor-Push.
//!
//! The paper's design rests on one mechanism: a per-node rotor pointer that is
//! toggled every time it is used, so that consecutive push-downs spread over
//! sibling subtrees. The variants in this module switch parts of that
//! mechanism off (or replace them with randomness) so that experiments can
//! quantify how much each ingredient contributes:
//!
//! * [`RotorPush::without_flipping`](crate::RotorPush::without_flipping) — the
//!   *frozen* rotor: push-downs always use the initial global path,
//! * [`LazyRotorPush`] — pointers are only toggled every `period`-th request,
//!   interpolating between the frozen rotor (`period = ∞`) and the real
//!   algorithm (`period = 1`),
//! * [`ScrambledRotorPush`] — the pointers along the used path are
//!   re-randomized before every request, which makes the push-down target a
//!   uniformly random node of the request's level; this is Random-Push
//!   expressed through the rotor machinery and serves as the randomized
//!   reference point of the ablation,
//! * [`AblationKind`] — a small factory enumerating the variants for the
//!   ablation benchmark.

use crate::pushdown::augmented_push_down;
use crate::traits::SelfAdjustingTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use satn_rotor::RotorState;
use satn_tree::{Direction, ElementId, MarkScratch, MarkedRound, Occupancy, ServeCost, TreeError};

/// Rotor-Push with *lazy* pointer maintenance: the flip of the global-path
/// pointers is executed only on every `period`-th request.
///
/// With `period = 1` the algorithm is exactly Rotor-Push; as `period` grows it
/// degenerates towards the frozen-rotor ablation, which suffers from the same
/// round-robin weakness as the naive Move-To-Front generalisation (Section 1.1
/// of the paper). The ablation benchmark sweeps `period` to show that the
/// constant-factor overhead of flipping buys a qualitatively better worst
/// case.
///
/// # Examples
///
/// ```
/// use satn_core::{ablation::LazyRotorPush, SelfAdjustingTree};
/// use satn_tree::{CompleteTree, ElementId, Occupancy};
///
/// let tree = CompleteTree::with_levels(4)?;
/// let mut alg = LazyRotorPush::new(Occupancy::identity(tree), 3);
/// alg.serve(ElementId::new(9))?;
/// assert_eq!(alg.occupancy().level_of(ElementId::new(9)), 0);
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LazyRotorPush {
    occupancy: Occupancy,
    rotors: RotorState,
    period: u64,
    served: u64,
    /// Reused marking buffer, so the steady-state request path performs no
    /// heap allocation.
    scratch: MarkScratch,
}

impl LazyRotorPush {
    /// Creates a lazy Rotor-Push that flips the global-path pointers on every
    /// `period`-th request (the first flip happens on request number
    /// `period`).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(occupancy: Occupancy, period: u64) -> Self {
        assert!(period > 0, "the flip period must be at least 1");
        let rotors = RotorState::new(occupancy.tree());
        LazyRotorPush {
            occupancy,
            rotors,
            period,
            served: 0,
            scratch: MarkScratch::new(),
        }
    }

    /// The flip period this instance was created with.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The number of requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// The current rotor pointer state.
    pub fn rotor_state(&self) -> &RotorState {
        &self.rotors
    }
}

impl SelfAdjustingTree for LazyRotorPush {
    fn name(&self) -> &'static str {
        "rotor-push-lazy"
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
        self.served += 1;
        if level > 0 && self.served % self.period == 0 {
            self.rotors.flip(level);
        }
        Ok(cost)
    }
}

/// Rotor-Push whose pointers are re-randomized along the used path before
/// every request.
///
/// Because the directions of the first `d` global-path pointers are drawn
/// independently and uniformly, the push-down target is a uniformly random
/// node of level `d` — exactly the choice Random-Push makes. The point of the
/// variant is that it exercises the identical code path as Rotor-Push (rotor
/// state, global path, augmented push-down) with only the pointer-update rule
/// replaced, which makes it the cleanest randomized reference point for the
/// ablation study.
///
/// # Examples
///
/// ```
/// use satn_core::{ablation::ScrambledRotorPush, SelfAdjustingTree};
/// use satn_tree::{CompleteTree, ElementId, Occupancy};
///
/// let tree = CompleteTree::with_levels(4)?;
/// let mut alg = ScrambledRotorPush::with_seed(Occupancy::identity(tree), 7);
/// let cost = alg.serve(ElementId::new(14))?;
/// assert_eq!(cost.access, 4);
/// # Ok::<(), satn_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScrambledRotorPush<R = StdRng> {
    occupancy: Occupancy,
    rotors: RotorState,
    rng: R,
    /// Reused marking buffer, so the steady-state request path performs no
    /// heap allocation.
    scratch: MarkScratch,
}

impl ScrambledRotorPush<StdRng> {
    /// Creates a scrambled-rotor network seeded with `seed`.
    pub fn with_seed(occupancy: Occupancy, seed: u64) -> Self {
        ScrambledRotorPush::with_rng(occupancy, StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> ScrambledRotorPush<R> {
    /// Creates a scrambled-rotor network driven by the given random number
    /// generator.
    pub fn with_rng(occupancy: Occupancy, rng: R) -> Self {
        let rotors = RotorState::new(occupancy.tree());
        ScrambledRotorPush {
            occupancy,
            rotors,
            rng,
            scratch: MarkScratch::new(),
        }
    }

    /// The current rotor pointer state (the state *after* the last request's
    /// scramble).
    pub fn rotor_state(&self) -> &RotorState {
        &self.rotors
    }
}

impl<R: Rng> SelfAdjustingTree for ScrambledRotorPush<R> {
    fn name(&self) -> &'static str {
        "rotor-push-scrambled"
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
            // Re-randomize the pointers along the path that will be used: walk
            // down from the root, drawing each direction uniformly. The node
            // reached at `level` is then uniform over that level.
            let mut node = satn_tree::NodeId::ROOT;
            for _ in 0..level {
                let direction = if self.rng.gen::<bool>() {
                    Direction::Left
                } else {
                    Direction::Right
                };
                self.rotors
                    .set_pointer(node, direction)
                    .expect("path nodes are internal nodes");
                node = node.child(direction);
            }
            let v = self.rotors.global_path_node(level);
            debug_assert_eq!(v, node);
            augmented_push_down(&mut round, u, v)?;
        }
        Ok(round.finish())
    }
}

/// Identifies one variant of the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AblationKind {
    /// The unmodified Rotor-Push algorithm (the baseline of the ablation).
    Standard,
    /// Rotor-Push whose pointers are never toggled.
    Frozen,
    /// Rotor-Push whose pointers are toggled only on every `period`-th
    /// request.
    Lazy(u64),
    /// Rotor-Push whose pointers are re-randomized before every request
    /// (equivalent to Random-Push).
    Scrambled,
}

impl AblationKind {
    /// The variants swept by the ablation benchmark, in presentation order.
    pub const SWEEP: [AblationKind; 6] = [
        AblationKind::Standard,
        AblationKind::Lazy(2),
        AblationKind::Lazy(8),
        AblationKind::Lazy(32),
        AblationKind::Frozen,
        AblationKind::Scrambled,
    ];

    /// A short label for tables and plots.
    pub fn label(self) -> String {
        match self {
            AblationKind::Standard => "rotor".to_owned(),
            AblationKind::Frozen => "frozen".to_owned(),
            AblationKind::Lazy(period) => format!("lazy-{period}"),
            AblationKind::Scrambled => "scrambled".to_owned(),
        }
    }

    /// Builds the variant starting from the given occupancy. `seed` is used
    /// only by [`AblationKind::Scrambled`]. The instance is `Send`, like
    /// every algorithm, so ablation sweeps parallelise per variant.
    pub fn instantiate(self, initial: Occupancy, seed: u64) -> Box<dyn SelfAdjustingTree + Send> {
        match self {
            AblationKind::Standard => Box::new(crate::RotorPush::new(initial)),
            AblationKind::Frozen => Box::new(crate::RotorPush::without_flipping(initial)),
            AblationKind::Lazy(period) => Box::new(LazyRotorPush::new(initial, period)),
            AblationKind::Scrambled => Box::new(ScrambledRotorPush::with_seed(initial, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RotorPush;
    use satn_tree::{CompleteTree, NodeId};

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    fn trace(levels: u32, len: usize) -> Vec<ElementId> {
        let n = (1u32 << levels) - 1;
        (0..len as u32)
            .map(|i| ElementId::new((i.wrapping_mul(2_654_435_761)) % n))
            .collect()
    }

    #[test]
    fn lazy_with_period_one_is_exactly_rotor_push() {
        let requests = trace(6, 500);
        let mut rotor = RotorPush::new(identity(6));
        let mut lazy = LazyRotorPush::new(identity(6), 1);
        for &request in &requests {
            let a = rotor.serve(request).unwrap();
            let b = lazy.serve(request).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(rotor.occupancy(), lazy.occupancy());
        assert_eq!(rotor.rotor_state(), lazy.rotor_state());
    }

    #[test]
    fn lazy_with_huge_period_is_the_frozen_rotor() {
        let requests = trace(5, 200);
        let mut frozen = RotorPush::without_flipping(identity(5));
        let mut lazy = LazyRotorPush::new(identity(5), u64::MAX);
        let a = frozen.serve_sequence(&requests).unwrap();
        let b = lazy.serve_sequence(&requests).unwrap();
        assert_eq!(a, b);
        assert_eq!(frozen.occupancy(), lazy.occupancy());
    }

    #[test]
    fn lazy_counts_served_requests_and_keeps_its_period() {
        let mut lazy = LazyRotorPush::new(identity(4), 3);
        assert_eq!(lazy.period(), 3);
        for &e in &[3u32, 7, 12, 1] {
            lazy.serve(ElementId::new(e)).unwrap();
        }
        assert_eq!(lazy.served(), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn lazy_rejects_period_zero() {
        LazyRotorPush::new(identity(3), 0);
    }

    #[test]
    fn scrambled_places_requests_at_the_root_and_respects_lemma1() {
        let mut alg = ScrambledRotorPush::with_seed(identity(6), 99);
        for &request in &trace(6, 400) {
            let level = alg.occupancy().level_of(request) as u64;
            let cost = alg.serve(request).unwrap();
            assert_eq!(cost.access, level + 1);
            assert!(cost.total() <= (4 * level).max(1));
            assert_eq!(alg.occupancy().element_at(NodeId::ROOT), request);
            assert!(alg.occupancy().is_consistent());
        }
    }

    #[test]
    fn scrambled_is_reproducible_for_a_fixed_seed() {
        let requests = trace(5, 300);
        let mut a = ScrambledRotorPush::with_seed(identity(5), 42);
        let mut b = ScrambledRotorPush::with_seed(identity(5), 42);
        assert_eq!(
            a.serve_sequence(&requests).unwrap(),
            b.serve_sequence(&requests).unwrap()
        );
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn scrambled_differs_across_seeds_on_long_traces() {
        let requests = trace(6, 400);
        let mut a = ScrambledRotorPush::with_seed(identity(6), 1);
        let mut b = ScrambledRotorPush::with_seed(identity(6), 2);
        let cost_a = a.serve_sequence(&requests).unwrap().total().total();
        let cost_b = b.serve_sequence(&requests).unwrap().total().total();
        // The totals are random variables; equality would indicate the seed is
        // ignored. (They could coincide by chance, but the probability is
        // negligible for 400 requests on 63 nodes.)
        assert_ne!(cost_a, cost_b);
    }

    #[test]
    fn ablation_kinds_build_working_networks() {
        let requests = trace(5, 100);
        for kind in AblationKind::SWEEP {
            let mut alg = kind.instantiate(identity(5), 5);
            let summary = alg.serve_sequence(&requests).unwrap();
            assert_eq!(summary.requests(), requests.len() as u64);
            assert!(alg.occupancy().is_consistent(), "{}", kind.label());
        }
    }

    #[test]
    fn ablation_labels_are_unique() {
        let labels: std::collections::HashSet<String> =
            AblationKind::SWEEP.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), AblationKind::SWEEP.len());
    }

    #[test]
    fn frozen_rotor_is_hurt_by_the_round_robin_path_workload() {
        // The frozen rotor always pushes down the same (leftmost) path, so the
        // round-robin adversary of Section 1.1 keeps it expensive, while real
        // Rotor-Push amortizes the damage by spreading push-downs.
        let levels = 8u32;
        let n = (1u32 << levels) - 1;
        // Request the elements initially on the leftmost path, round-robin,
        // many times.
        let path: Vec<ElementId> = (0..levels)
            .map(|l| ElementId::new((1u32 << l) - 1))
            .collect();
        let mut requests = Vec::new();
        for _ in 0..200 {
            requests.extend(path.iter().copied());
        }
        assert!(requests.iter().all(|e| e.index() < n));
        let mut rotor = RotorPush::new(identity(levels));
        let mut frozen = RotorPush::without_flipping(identity(levels));
        let rotor_cost = rotor.serve_sequence(&requests).unwrap().total().total();
        let frozen_cost = frozen.serve_sequence(&requests).unwrap().total().total();
        assert!(
            frozen_cost > rotor_cost,
            "frozen {frozen_cost} should exceed rotor {rotor_cost}"
        );
    }
}
