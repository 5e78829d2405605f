//! Observer hooks: per-step and per-checkpoint callbacks the engine invokes
//! while driving an algorithm, plus the built-in invariant checker and
//! snapshot recorder.

use satn_core::SelfAdjustingTree;
use satn_tree::{ElementId, ServeCost};
use std::fmt;

/// Everything known about one served request at observation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRecord {
    /// Zero-based index of the request in the scenario's sequence.
    pub step: u64,
    /// The requested element.
    pub element: ElementId,
    /// The cost the algorithm reported for the request.
    pub cost: ServeCost,
    /// The access cost implied by the occupancy *before* the request was
    /// served (`level + 1`), captured by the engine so observers can check
    /// the reported access cost against the model.
    pub access_cost_before: u64,
}

/// A violation reported by an observer; aborts the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The step at which the violation was detected (the number of requests
    /// served so far).
    pub step: u64,
    /// The name of the algorithm under test.
    pub algorithm: String,
    /// Human-readable description of what failed.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant violated at step {} by {}: {}",
            self.step, self.algorithm, self.detail
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// A pluggable observation hook.
///
/// Per-step hooks see every request with its cost; per-checkpoint hooks see
/// the network state at scenario-defined pause points. Observers that only
/// implement `on_checkpoint` keep the engine on its batched fast path;
/// implementing [`Observer::wants_steps`] to return `true` switches the run
/// to request-by-request serving so `on_step` fires.
pub trait Observer {
    /// Whether this observer needs [`Observer::on_step`] to fire (disables
    /// batched serving for the run).
    fn wants_steps(&self) -> bool {
        false
    }

    /// Called once before the first request, with the network in its initial
    /// state (after any offline setup such as Static-Opt's layout).
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] to abort the run.
    fn on_start(&mut self, network: &dyn SelfAdjustingTree) -> Result<(), InvariantViolation> {
        let _ = network;
        Ok(())
    }

    /// Called after every served request, if [`Observer::wants_steps`].
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] to abort the run.
    fn on_step(
        &mut self,
        record: &StepRecord,
        network: &dyn SelfAdjustingTree,
    ) -> Result<(), InvariantViolation> {
        let _ = (record, network);
        Ok(())
    }

    /// Called at every checkpoint (including the final one), with the number
    /// of requests served so far.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] to abort the run.
    fn on_checkpoint(
        &mut self,
        step: u64,
        network: &dyn SelfAdjustingTree,
    ) -> Result<(), InvariantViolation> {
        let _ = (step, network);
        Ok(())
    }
}

/// The built-in invariant checker enforcing the paper's model:
///
/// * **Occupancy bijection** (checkpoints): `node_of ∘ element_of = id` — the
///   element-to-node mapping stays a bijection.
/// * **Rotor-state invariant** (checkpoints): if the algorithm exposes a
///   rotor state, the flip-ranks of every level form a permutation of
///   `0..2^level` (Definition 3 of the paper).
/// * **Access-cost law** (steps): the reported access cost equals
///   `level + 1` for the element's level *before* serving.
/// * **Adjustment accounting** (steps): static algorithms report zero
///   adjustment; self-adjusting ones stay within the generous global bound
///   `2·depth² + depth + 1` (Max-Push's worst case; the push algorithms stay
///   far below it).
#[derive(Debug, Clone, Copy, Default)]
pub struct InvariantObserver {
    checked_steps: u64,
    checked_checkpoints: u64,
}

impl InvariantObserver {
    /// Creates the checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many per-step checks have run.
    pub fn checked_steps(&self) -> u64 {
        self.checked_steps
    }

    /// How many checkpoint checks have run.
    pub fn checked_checkpoints(&self) -> u64 {
        self.checked_checkpoints
    }

    fn violation(
        step: u64,
        network: &dyn SelfAdjustingTree,
        detail: impl Into<String>,
    ) -> InvariantViolation {
        InvariantViolation {
            step,
            algorithm: network.name().to_owned(),
            detail: detail.into(),
        }
    }
}

impl Observer for InvariantObserver {
    fn wants_steps(&self) -> bool {
        true
    }

    fn on_step(
        &mut self,
        record: &StepRecord,
        network: &dyn SelfAdjustingTree,
    ) -> Result<(), InvariantViolation> {
        self.checked_steps += 1;
        if record.cost.access != record.access_cost_before {
            return Err(Self::violation(
                record.step,
                network,
                format!(
                    "request {} reported access cost {}, expected level + 1 = {}",
                    record.element, record.cost.access, record.access_cost_before
                ),
            ));
        }
        if !network.is_self_adjusting() && record.cost.adjustment != 0 {
            return Err(Self::violation(
                record.step,
                network,
                format!(
                    "static algorithm paid adjustment cost {}",
                    record.cost.adjustment
                ),
            ));
        }
        let depth = record.access_cost_before - 1;
        let bound = 2 * depth * depth + depth + 1;
        if record.cost.adjustment > bound {
            return Err(Self::violation(
                record.step,
                network,
                format!(
                    "adjustment cost {} exceeds the depth-{} bound {}",
                    record.cost.adjustment, depth, bound
                ),
            ));
        }
        Ok(())
    }

    fn on_checkpoint(
        &mut self,
        step: u64,
        network: &dyn SelfAdjustingTree,
    ) -> Result<(), InvariantViolation> {
        self.checked_checkpoints += 1;
        if !network.occupancy().is_consistent() {
            return Err(Self::violation(
                step,
                network,
                "occupancy is not a bijection (node_of ∘ element_of ≠ id)",
            ));
        }
        if let Some(rotors) = network.rotors() {
            for level in 0..rotors.tree().num_levels() {
                let mut ranks = rotors.level_flip_ranks(level);
                ranks.sort_unstable();
                let expected: Vec<u64> = (0..(1u64 << level)).collect();
                if ranks != expected {
                    return Err(Self::violation(
                        step,
                        network,
                        format!("level-{level} flip-ranks are not a permutation"),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_core::{RotorPush, StaticOblivious};
    use satn_tree::{CompleteTree, Occupancy};

    fn identity(levels: u32) -> Occupancy {
        Occupancy::identity(CompleteTree::with_levels(levels).unwrap())
    }

    #[test]
    fn invariant_observer_accepts_a_healthy_rotor_push() {
        let mut network = RotorPush::new(identity(4));
        let mut observer = InvariantObserver::new();
        let element = ElementId::new(5);
        let before = network.occupancy().access_cost(element);
        let cost = network.serve(element).unwrap();
        let record = StepRecord {
            step: 0,
            element,
            cost,
            access_cost_before: before,
        };
        observer.on_step(&record, &network).unwrap();
        observer.on_checkpoint(1, &network).unwrap();
        assert_eq!(observer.checked_steps(), 1);
        assert_eq!(observer.checked_checkpoints(), 1);
    }

    #[test]
    fn invariant_observer_rejects_wrong_access_costs() {
        let network = StaticOblivious::new(identity(3));
        let mut observer = InvariantObserver::new();
        let record = StepRecord {
            step: 3,
            element: ElementId::new(4),
            cost: ServeCost::new(9, 0),
            access_cost_before: 3,
        };
        let violation = observer.on_step(&record, &network).unwrap_err();
        assert_eq!(violation.step, 3);
        assert!(violation.to_string().contains("access cost"));
    }

    #[test]
    fn invariant_observer_rejects_adjusting_static_trees() {
        let network = StaticOblivious::new(identity(3));
        let mut observer = InvariantObserver::new();
        let record = StepRecord {
            step: 0,
            element: ElementId::new(4),
            cost: ServeCost::new(3, 2),
            access_cost_before: 3,
        };
        let violation = observer.on_step(&record, &network).unwrap_err();
        assert!(violation.to_string().contains("static algorithm"));
    }
}
