//! A small factory for building any of the paper's algorithms by name,
//! used by the experiment harness and the examples.

use crate::algorithms::{
    MaxPush, MoveHalf, MoveToFront, RandomPush, RotorPush, StaticOblivious, StaticOpt,
};
use crate::recency::RecencyTracker;
use crate::traits::SelfAdjustingTree;
use crate::warm::WarmState;
use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_rotor::RotorState;
use satn_tree::{ElementId, Occupancy, TreeError};
use std::fmt;
use std::str::FromStr;

/// Identifies one of the algorithms studied in the paper (plus the
/// Move-To-Front strawman).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AlgorithmKind {
    /// Deterministic Rotor-Push (the paper's contribution).
    RotorPush,
    /// Randomized Random-Push.
    RandomPush,
    /// Deterministic Move-Half.
    MoveHalf,
    /// Max-Push / Strict-MRU.
    MaxPush,
    /// The frequency-ordered offline static tree.
    StaticOpt,
    /// The unmodified initial tree.
    StaticOblivious,
    /// The naive move-to-front generalisation (lower-bound example).
    MoveToFront,
}

impl AlgorithmKind {
    /// Every algorithm of the crate, including the Move-To-Front strawman
    /// (used by the simulation engine's full-coverage grids).
    pub const ALL: [AlgorithmKind; 7] = [
        AlgorithmKind::RotorPush,
        AlgorithmKind::RandomPush,
        AlgorithmKind::MoveHalf,
        AlgorithmKind::MaxPush,
        AlgorithmKind::StaticOblivious,
        AlgorithmKind::StaticOpt,
        AlgorithmKind::MoveToFront,
    ];

    /// All algorithms compared in the paper's evaluation (Section 6), in the
    /// order used by the figures.
    pub const EVALUATED: [AlgorithmKind; 6] = [
        AlgorithmKind::RotorPush,
        AlgorithmKind::RandomPush,
        AlgorithmKind::MoveHalf,
        AlgorithmKind::MaxPush,
        AlgorithmKind::StaticOblivious,
        AlgorithmKind::StaticOpt,
    ];

    /// The four self-adjusting algorithms (used by Figure 2).
    pub const SELF_ADJUSTING: [AlgorithmKind; 4] = [
        AlgorithmKind::RotorPush,
        AlgorithmKind::RandomPush,
        AlgorithmKind::MoveHalf,
        AlgorithmKind::MaxPush,
    ];

    /// The stable, lowercase name of the algorithm.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::RotorPush => "rotor-push",
            AlgorithmKind::RandomPush => "random-push",
            AlgorithmKind::MoveHalf => "move-half",
            AlgorithmKind::MaxPush => "max-push",
            AlgorithmKind::StaticOpt => "static-opt",
            AlgorithmKind::StaticOblivious => "static-oblivious",
            AlgorithmKind::MoveToFront => "move-to-front",
        }
    }

    /// Whether the algorithm reorganises the tree while serving requests.
    pub fn is_self_adjusting(self) -> bool {
        !matches!(
            self,
            AlgorithmKind::StaticOpt | AlgorithmKind::StaticOblivious
        )
    }

    /// Builds a ready-to-run instance of the algorithm.
    ///
    /// * `initial` — the starting occupancy (shared by all algorithms of an
    ///   experiment so the comparison is fair),
    /// * `seed` — the random seed used by [`RandomPush`] (ignored by the
    ///   deterministic algorithms),
    /// * `sequence` — the full request sequence, needed only by the offline
    ///   [`StaticOpt`] baseline to compute element frequencies.
    ///
    /// The returned instance is `Send` so the parallel execution layer
    /// (`satn-exec`) can construct and drive algorithms on worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if `sequence` refers to an
    /// element outside the tree (only possible for [`AlgorithmKind::StaticOpt`]).
    pub fn instantiate(
        self,
        initial: Occupancy,
        seed: u64,
        sequence: &[ElementId],
    ) -> Result<Box<dyn SelfAdjustingTree + Send>, TreeError> {
        Ok(match self {
            AlgorithmKind::RotorPush => Box::new(RotorPush::new(initial)),
            AlgorithmKind::RandomPush => Box::new(RandomPush::with_seed(initial, seed)),
            AlgorithmKind::MoveHalf => Box::new(MoveHalf::new(initial)),
            AlgorithmKind::MaxPush => Box::new(MaxPush::new(initial)),
            AlgorithmKind::StaticOblivious => Box::new(StaticOblivious::new(initial)),
            AlgorithmKind::StaticOpt => {
                Box::new(StaticOpt::from_sequence(initial.tree(), sequence)?)
            }
            AlgorithmKind::MoveToFront => Box::new(MoveToFront::new(initial)),
        })
    }

    /// Builds an instance resuming from an exported [`WarmState`] — the
    /// import half of the warm reshard handover.
    ///
    /// Every carried component the algorithm maintains is adopted verbatim
    /// (the caller is expected to have fitted the state to `initial`'s
    /// topology via [`WarmState::carried_into`]; rotors are defensively
    /// refitted here, which is a no-op for a matching tree). Components the
    /// state does not carry fall back to the same cold-start values
    /// [`AlgorithmKind::instantiate`] would use — in particular `seed` seeds
    /// [`RandomPush`] only when no generator is carried. Algorithms without
    /// internal state (and the offline [`StaticOpt`], which recomputes its
    /// placement from `sequence`) ignore the state entirely, so
    /// `instantiate_warm` with a cold state is exactly `instantiate`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] under the same conditions as
    /// [`AlgorithmKind::instantiate`].
    ///
    /// # Panics
    ///
    /// Panics if a carried recency tracker does not cover `initial`'s
    /// element count.
    pub fn instantiate_warm(
        self,
        initial: Occupancy,
        seed: u64,
        sequence: &[ElementId],
        state: &WarmState,
    ) -> Result<Box<dyn SelfAdjustingTree + Send>, TreeError> {
        Ok(match self {
            AlgorithmKind::RotorPush => {
                let tree = initial.tree();
                let rotors = state
                    .rotors
                    .as_ref()
                    .map(|rotors| rotors.carried_into(tree))
                    .unwrap_or_else(|| RotorState::new(tree));
                Box::new(RotorPush::with_rotor_state(initial, rotors))
            }
            AlgorithmKind::RandomPush => {
                let rng = state
                    .rng
                    .clone()
                    .unwrap_or_else(|| StdRng::seed_from_u64(seed));
                Box::new(RandomPush::with_rng(initial, rng))
            }
            AlgorithmKind::MoveHalf => {
                let recency = state
                    .recency
                    .clone()
                    .unwrap_or_else(|| RecencyTracker::new(initial.num_elements()));
                Box::new(MoveHalf::with_recency(initial, recency))
            }
            AlgorithmKind::MaxPush => {
                let recency = state
                    .recency
                    .clone()
                    .unwrap_or_else(|| RecencyTracker::new(initial.num_elements()));
                Box::new(MaxPush::with_recency(initial, recency))
            }
            AlgorithmKind::StaticOblivious
            | AlgorithmKind::StaticOpt
            | AlgorithmKind::MoveToFront => return self.instantiate(initial, seed, sequence),
        })
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown algorithm name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlgorithmError {
    input: String,
}

impl fmt::Display for ParseAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown algorithm name: {:?}", self.input)
    }
}

impl std::error::Error for ParseAlgorithmError {}

impl FromStr for AlgorithmKind {
    type Err = ParseAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "rotor" | "rotor-push" | "rtr" => Ok(AlgorithmKind::RotorPush),
            "random" | "random-push" | "rand" => Ok(AlgorithmKind::RandomPush),
            "half" | "move-half" => Ok(AlgorithmKind::MoveHalf),
            "max" | "max-push" | "strict-mru" => Ok(AlgorithmKind::MaxPush),
            "static-opt" | "opt" => Ok(AlgorithmKind::StaticOpt),
            "static-oblivious" | "oblivious" => Ok(AlgorithmKind::StaticOblivious),
            "mtf" | "move-to-front" => Ok(AlgorithmKind::MoveToFront),
            _ => Err(ParseAlgorithmError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_tree::CompleteTree;

    #[test]
    fn names_roundtrip_through_fromstr() {
        for kind in [
            AlgorithmKind::RotorPush,
            AlgorithmKind::RandomPush,
            AlgorithmKind::MoveHalf,
            AlgorithmKind::MaxPush,
            AlgorithmKind::StaticOpt,
            AlgorithmKind::StaticOblivious,
            AlgorithmKind::MoveToFront,
        ] {
            let parsed: AlgorithmKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("splay".parse::<AlgorithmKind>().is_err());
    }

    #[test]
    fn instantiate_builds_working_algorithms() {
        let tree = CompleteTree::with_levels(4).unwrap();
        let sequence: Vec<ElementId> = (0..15u32).map(ElementId::new).collect();
        for kind in AlgorithmKind::EVALUATED {
            let mut alg = kind
                .instantiate(Occupancy::identity(tree), 7, &sequence)
                .unwrap();
            assert_eq!(alg.name(), kind.name());
            assert_eq!(alg.is_self_adjusting(), kind.is_self_adjusting());
            let summary = alg.serve_sequence(&sequence).unwrap();
            assert_eq!(summary.requests(), 15);
        }
    }

    #[test]
    fn static_opt_instantiation_reports_bad_sequences() {
        let tree = CompleteTree::with_levels(3).unwrap();
        let err = AlgorithmKind::StaticOpt
            .instantiate(Occupancy::identity(tree), 0, &[ElementId::new(99)])
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, TreeError::ElementOutOfRange { .. }));
    }

    #[test]
    fn export_then_instantiate_warm_resumes_the_exact_run() {
        let tree = CompleteTree::with_levels(5).unwrap();
        let prefix: Vec<ElementId> = (0..40u32).map(|i| ElementId::new((i * 13) % 31)).collect();
        let suffix: Vec<ElementId> = (0..40u32)
            .map(|i| ElementId::new((i * 7 + 3) % 31))
            .collect();
        for kind in AlgorithmKind::SELF_ADJUSTING {
            let mut original = kind
                .instantiate(Occupancy::identity(tree), 11, &[])
                .unwrap();
            original.serve_sequence(&prefix).unwrap();
            // Reconstituting from the occupancy + warm state must continue
            // exactly like the original instance.
            let mut resumed = kind
                .instantiate_warm(
                    original.occupancy().clone(),
                    999, // a different seed: must be ignored when state is carried
                    &[],
                    &original.export_state(),
                )
                .unwrap();
            // The round trip a sharded replay applies to a shard that a
            // reshard leaves untouched: the placement read back in heap
            // order, the state carried under the identity remap.
            let identity: Vec<Option<u32>> = (0..tree.num_nodes()).map(Some).collect();
            let mut rebuilt = kind
                .instantiate_warm(
                    Occupancy::from_placement(tree, original.occupancy().placement_in_heap_order())
                        .unwrap(),
                    999,
                    &[],
                    &original.export_state().carried_into(tree, &identity),
                )
                .unwrap();
            let original_costs = original.serve_sequence(&suffix).unwrap();
            let resumed_costs = resumed.serve_sequence(&suffix).unwrap();
            assert_eq!(original_costs, resumed_costs, "{kind}");
            assert_eq!(original.occupancy(), resumed.occupancy(), "{kind}");
            let rebuilt_costs = rebuilt.serve_sequence(&suffix).unwrap();
            assert_eq!(original_costs, rebuilt_costs, "{kind} round trip");
            assert_eq!(
                original.occupancy(),
                rebuilt.occupancy(),
                "{kind} round trip"
            );
        }
    }

    #[test]
    fn instantiate_warm_with_a_cold_state_equals_instantiate() {
        let tree = CompleteTree::with_levels(4).unwrap();
        let requests: Vec<ElementId> = (0..30u32).map(|i| ElementId::new((i * 5) % 15)).collect();
        for kind in AlgorithmKind::EVALUATED {
            let mut cold = kind
                .instantiate(Occupancy::identity(tree), 7, &requests)
                .unwrap();
            let mut warm = kind
                .instantiate_warm(
                    Occupancy::identity(tree),
                    7,
                    &requests,
                    &crate::WarmState::default(),
                )
                .unwrap();
            assert_eq!(
                cold.serve_sequence(&requests).unwrap(),
                warm.serve_sequence(&requests).unwrap(),
                "{kind}"
            );
            assert_eq!(cold.occupancy(), warm.occupancy(), "{kind}");
        }
    }

    #[test]
    fn evaluated_and_self_adjusting_sets_are_consistent() {
        for kind in AlgorithmKind::SELF_ADJUSTING {
            assert!(kind.is_self_adjusting());
            assert!(AlgorithmKind::EVALUATED.contains(&kind));
        }
        assert!(!AlgorithmKind::StaticOpt.is_self_adjusting());
    }
}
