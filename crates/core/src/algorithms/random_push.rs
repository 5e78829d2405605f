//! **Random-Push** — the randomized algorithm of Avin et al. (LATIN 2020),
//! re-analysed in Section 5 of the paper (16-competitive in expectation).

use crate::pushdown::{augmented_push_down, serve_push_batch};
use crate::traits::SelfAdjustingTree;
use crate::warm::WarmState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use satn_tree::{
    CostSummary, ElementId, MarkScratch, MarkedRound, NodeId, Occupancy, ServeCost, TreeError,
};
use std::any::Any;

/// The randomized Random-Push algorithm.
///
/// Upon a request to an element `e*` at level `d*`, it picks a node `v`
/// uniformly at random among all `d*`-level nodes (possibly `nd(e*)` itself)
/// and executes the augmented push-down `PD(nd(e*), v)`. The random level-`d`
/// node is equivalent to following `d` independent uniform left/right
/// choices from the root — exactly the random walk that Rotor-Push
/// derandomizes with rotor pointers.
///
/// The generic parameter allows injecting any random number generator; the
/// [`RandomPush::with_seed`] constructor provides a reproducible default.
#[derive(Debug, Clone)]
pub struct RandomPush<R = StdRng> {
    occupancy: Occupancy,
    rng: R,
    /// Reused marking buffer: `serve` opens its [`MarkedRound`] through this
    /// scratch so the steady-state request path performs no heap allocation.
    scratch: MarkScratch,
}

impl RandomPush<StdRng> {
    /// Creates a Random-Push network with a seeded default generator, making
    /// runs reproducible.
    pub fn with_seed(occupancy: Occupancy, seed: u64) -> Self {
        RandomPush::with_rng(occupancy, StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> RandomPush<R> {
    /// Creates a Random-Push network using the supplied random number
    /// generator.
    pub fn with_rng(occupancy: Occupancy, rng: R) -> Self {
        RandomPush {
            occupancy,
            rng,
            scratch: MarkScratch::new(),
        }
    }
}

impl<R: Rng + 'static> SelfAdjustingTree for RandomPush<R> {
    fn name(&self) -> &'static str {
        "random-push"
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
            let v = random_level_node(&mut self.rng, level);
            augmented_push_down(&mut round, u, v)?;
        }
        Ok(round.finish())
    }

    /// The allocation-free batched fast path: draws `v` exactly as
    /// [`RandomPush::serve`] does (one draw per request above the root, so
    /// the generator stream is unchanged), writes the push-down as
    /// Definition 1's cycle ([`Occupancy::push_down_unchecked`]) and records
    /// the swap count Lemma 1 prices it at. The differential tests assert
    /// per-request equivalence with [`RandomPush::serve`].
    fn serve_batch(
        &mut self,
        requests: &[ElementId],
        summary: &mut CostSummary,
    ) -> Result<(), TreeError> {
        let rng = &mut self.rng;
        serve_push_batch(&mut self.occupancy, requests, summary, |level| {
            random_level_node(rng, level)
        })
    }

    /// Exports the generator position when the instance runs on the standard
    /// [`StdRng`]; an injected custom generator (whose state the workspace
    /// cannot name) exports the cold state and reseeds on warm import.
    fn export_state(&self) -> WarmState {
        WarmState {
            rng: (&self.rng as &dyn Any).downcast_ref::<StdRng>().cloned(),
            ..WarmState::default()
        }
    }
}

/// Draws the push-down target: a uniform node of `level`, one generator
/// draw.
fn random_level_node<R: Rng>(rng: &mut R, level: u32) -> NodeId {
    NodeId::from_level_offset(level, rng.gen_range(0..(1u32 << level)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::{CompleteTree, NodeId};

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    #[test]
    fn requested_element_moves_to_root() {
        let mut alg = RandomPush::with_seed(identity(5), 1);
        for e in [13u32, 27, 4, 30, 0, 13] {
            alg.serve(ElementId::new(e)).unwrap();
            assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(e));
            assert!(alg.occupancy().is_consistent());
        }
    }

    #[test]
    fn cost_never_exceeds_four_times_level() {
        let mut alg = RandomPush::with_seed(identity(6), 17);
        for step in 0..500u32 {
            let element = ElementId::new((step * 13 + 1) % 63);
            let level = alg.occupancy().level_of(element) as u64;
            let cost = alg.serve(element).unwrap();
            assert!(cost.total() <= (4 * level).max(1), "step {step}");
        }
    }

    #[test]
    fn same_seed_reproduces_the_run() {
        let requests: Vec<ElementId> = (0..300u32).map(|i| ElementId::new((i * 7) % 31)).collect();
        let mut a = RandomPush::with_seed(identity(5), 42);
        let mut b = RandomPush::with_seed(identity(5), 42);
        assert_eq!(
            a.serve_sequence(&requests).unwrap(),
            b.serve_sequence(&requests).unwrap()
        );
        assert_eq!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn different_seeds_usually_diverge() {
        let requests: Vec<ElementId> = (0..100u32).map(|i| ElementId::new((i * 11) % 31)).collect();
        let mut a = RandomPush::with_seed(identity(5), 1);
        let mut b = RandomPush::with_seed(identity(5), 2);
        a.serve_sequence(&requests).unwrap();
        b.serve_sequence(&requests).unwrap();
        assert_ne!(a.occupancy(), b.occupancy());
    }

    #[test]
    fn root_request_is_free_of_swaps() {
        let mut alg = RandomPush::with_seed(identity(4), 5);
        let cost = alg.serve(ElementId::new(0)).unwrap();
        assert_eq!(cost, ServeCost::new(1, 0));
    }

    #[test]
    fn custom_rng_constructor_works() {
        let rng = StdRng::seed_from_u64(9);
        let mut alg = RandomPush::with_rng(identity(4), rng);
        assert_eq!(alg.name(), "random-push");
        alg.serve(ElementId::new(10)).unwrap();
        assert_eq!(alg.occupancy().element_at(NodeId::ROOT), ElementId::new(10));
    }

    #[test]
    fn rejects_unknown_element() {
        let mut alg = RandomPush::with_seed(identity(3), 3);
        assert!(alg.serve(ElementId::new(100)).is_err());
    }
}
