//! Builder-style engine configuration: every knob of a [`ShardedEngine`]
//! in one validated value, replacing the positional constructors and
//! panicking `with_*` chains that grew with the engine.

use crate::engine::ShardedEngine;
use crate::error::ServeError;
use satn_exec::Parallelism;
use satn_sim::ShardedScenario;
use std::fmt;

/// Builder for [`ShardedEngine`]: collect the configuration — scenario,
/// worker budget, drain threshold — then validate it all at once in [`ShardedEngineConfig::build`]. Invalid combinations surface as
/// [`ServeError::InvalidConfig`] values instead of the panics the old
/// positional constructors raised.
///
/// ```
/// use satn_serve::{Parallelism, ShardedEngineConfig};
/// use satn_sim::{AlgorithmKind, ShardedScenario, WorkloadSpec};
///
/// let scenario = ShardedScenario::new(
///     AlgorithmKind::RotorPush,
///     WorkloadSpec::Zipf { a: 1.8 },
///     4, 5, 2_000, 42,
/// );
/// let mut engine = ShardedEngineConfig::from_scenario(&scenario)
///     .parallelism(Parallelism::Threads(2))
///     .drain_threshold(1_024)
///     .build()?;
/// for request in scenario.stream() {
///     engine.submit(request)?;
/// }
/// assert_eq!(engine.finish()?.merged.requests(), 2_000);
/// # Ok::<(), satn_serve::ServeError>(())
/// ```
pub struct ShardedEngineConfig {
    scenario: ShardedScenario,
    parallelism: Parallelism,
    drain_threshold: Option<usize>,
}

impl ShardedEngineConfig {
    /// Configures an engine built from a [`ShardedScenario`]: the
    /// scenario's epoch-0 partition, per-shard trees built by
    /// [`ShardedScenario::shard_trees`], the construction the serial replay
    /// starts from (what makes it a byte-exact oracle), and its reshard
    /// schedule applied online.
    pub fn from_scenario(scenario: &ShardedScenario) -> Self {
        ShardedEngineConfig {
            scenario: scenario.clone(),
            parallelism: Parallelism::default(),
            drain_threshold: None,
        }
    }

    /// Sets the worker budget used for drains (default
    /// [`Parallelism::Auto`]). Every setting produces bit-identical
    /// results; the knob only trades wall-clock time for CPU usage.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the automatic-drain threshold (default
    /// [`crate::DEFAULT_DRAIN_THRESHOLD`]). The cadence never changes any
    /// result — only how much is buffered between drains. Zero is rejected
    /// at [`ShardedEngineConfig::build`].
    #[must_use]
    pub fn drain_threshold(mut self, threshold: usize) -> Self {
        self.drain_threshold = Some(threshold);
        self
    }

    /// Validates the collected configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero drain threshold, a manual
    /// reshard schedule whose positions are not strictly increasing or whose
    /// plan names an element outside the universe or a shard the partition
    /// lacks, or a zero policy cadence;
    /// [`ServeError::Tree`] if a shard's algorithm cannot be instantiated;
    /// [`ServeError::ReshardUnsupported`] for a scenario pairing a reshard
    /// schedule with an offline algorithm.
    pub fn build(self) -> Result<ShardedEngine, ServeError> {
        let mut engine = ShardedEngine::build_from_scenario(&self.scenario, self.parallelism)?;
        if let Some(threshold) = self.drain_threshold {
            engine.set_drain_threshold(threshold)?;
        }
        Ok(engine)
    }
}

impl fmt::Debug for ShardedEngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngineConfig")
            .field(
                "source",
                &format_args!("scenario({})", self.scenario.name()),
            )
            .field("parallelism", &self.parallelism)
            .field("drain_threshold", &self.drain_threshold)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_sim::{
        AlgorithmKind, ReshardEvent, ReshardPlan, ReshardPolicy, ReshardSchedule, WorkloadSpec,
    };
    use satn_tree::ElementId;

    fn scenario() -> ShardedScenario {
        ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Zipf { a: 1.7 },
            3,
            5,
            600,
            7,
        )
    }

    #[test]
    fn zero_drain_thresholds_are_invalid_config() {
        let err = ShardedEngineConfig::from_scenario(&scenario())
            .drain_threshold(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert!(err.to_string().contains("must be positive"));
    }

    #[test]
    fn schedules_the_driver_rejects_are_invalid_config() {
        let manual = |positions: [usize; 2]| {
            ReshardSchedule::Manual(
                positions
                    .map(|at| ReshardEvent {
                        at,
                        plan: ReshardPlan::new([(ElementId::new(0), 1)]),
                    })
                    .to_vec(),
            )
        };
        let moving = |element: u32, shard: u32| {
            ReshardSchedule::Manual(vec![ReshardEvent {
                at: 300,
                plan: ReshardPlan::new([(ElementId::new(element), shard)]),
            }])
        };
        let zero_cadence = ReshardPolicy::MoveHottest {
            every: 0,
            max_moves: 4,
        };
        for (schedule, reason) in [
            (manual([300, 300]), "strictly increasing"),
            (manual([300, 200]), "strictly increasing"),
            // 3 shards of 31 elements: element 93 and shard 3 do not exist.
            (moving(93, 1), "outside the 93-element universe"),
            (moving(0, 3), "the partition has 3 shards"),
            (
                ReshardSchedule::Policy(zero_cadence),
                "cadence must be positive",
            ),
        ] {
            let mut scenario = scenario();
            scenario.reshard = schedule;
            let err = ShardedEngineConfig::from_scenario(&scenario)
                .build()
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(reason), "{err}");
        }
    }

    #[test]
    fn debug_output_names_the_source() {
        let config = ShardedEngineConfig::from_scenario(&scenario()).drain_threshold(64);
        let rendered = format!("{config:?}");
        assert!(rendered.contains("scenario("));
        assert!(rendered.contains("drain_threshold"));
    }
}
