//! Builder-style engine configuration: every knob of a [`ShardedEngine`]
//! in one validated value, replacing the positional constructors and
//! panicking `with_*` chains that grew with the engine.

use crate::engine::ShardedEngine;
use crate::error::ServeError;
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_exec::Parallelism;
use satn_sim::ShardedScenario;
use satn_tree::LayoutKind;
use satn_workloads::shard::Partition;
use std::fmt;

/// What the engine's shard trees are built from.
enum Source {
    /// A scenario: trees instantiated exactly as its per-shard reference
    /// scenarios build theirs, the reshard schedule applied online.
    Scenario(ShardedScenario),
    /// Pre-built trees over an explicit partition (the "static" mode).
    Parts {
        partition: Partition,
        trees: Vec<Box<dyn SelfAdjustingTree + Send>>,
    },
}

/// Builder for [`ShardedEngine`]: collect the configuration — source,
/// worker budget, drain threshold, reshard recipe — then validate it all at
/// once in [`ShardedEngineConfig::build`]. Invalid combinations surface as
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
    source: Source,
    parallelism: Parallelism,
    drain_threshold: Option<usize>,
    resharding: Option<(AlgorithmKind, u64)>,
    layout: Option<LayoutKind>,
}

impl ShardedEngineConfig {
    /// Configures an engine built from a [`ShardedScenario`]: the
    /// scenario's epoch-0 partition, per-shard trees instantiated exactly
    /// as its standalone reference scenarios build theirs (what makes the
    /// serial replay a byte-exact oracle), and its reshard schedule applied
    /// online.
    pub fn from_scenario(scenario: &ShardedScenario) -> Self {
        ShardedEngineConfig::with_source(Source::Scenario(scenario.clone()))
    }

    /// Configures a **static** engine from a partition and one pre-built
    /// tree per shard (shard `s`'s tree serves local ids `0..` of
    /// `partition.owned(s)`). Built this way the engine cannot reshard
    /// unless a rebuild recipe is supplied via
    /// [`ShardedEngineConfig::resharding`].
    pub fn from_parts(partition: Partition, trees: Vec<Box<dyn SelfAdjustingTree + Send>>) -> Self {
        ShardedEngineConfig::with_source(Source::Parts { partition, trees })
    }

    fn with_source(source: Source) -> Self {
        ShardedEngineConfig {
            source,
            parallelism: Parallelism::default(),
            drain_threshold: None,
            resharding: None,
            layout: None,
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

    /// Provides (or overrides) the reshard rebuild recipe: the algorithm
    /// every post-handover tree is re-instantiated with and the base seed
    /// of the per-`(shard, epoch)` derived seeds. Offline algorithms are
    /// rejected at [`ShardedEngineConfig::build`]. Scenario-built engines
    /// of online algorithms already carry their scenario's recipe; this is
    /// chiefly for [`ShardedEngineConfig::from_parts`] engines.
    #[must_use]
    pub fn resharding(mut self, algorithm: AlgorithmKind, seed: u64) -> Self {
        self.resharding = Some((algorithm, seed));
        self
    }

    /// Sets the physical tree-storage layout. For scenario-built engines
    /// this overrides the scenario's own `layout` field; for parts-built
    /// engines it applies to post-handover rebuilds (the pre-built trees
    /// keep whatever layout they were constructed with). Pure performance
    /// knob: every fingerprint and cost is layout-invariant.
    #[must_use]
    pub fn layout(mut self, layout: LayoutKind) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Validates the collected configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero drain threshold, a
    /// tree/shard count mismatch, or an offline reshard algorithm;
    /// [`ServeError::Tree`] if a scenario shard's algorithm cannot be
    /// instantiated; [`ServeError::ReshardUnsupported`] for a scenario
    /// pairing a reshard schedule with an offline algorithm.
    pub fn build(self) -> Result<ShardedEngine, ServeError> {
        let mut engine = match self.source {
            Source::Scenario(mut scenario) => {
                if let Some(layout) = self.layout {
                    scenario.layout = layout;
                }
                ShardedEngine::build_from_scenario(&scenario, self.parallelism)?
            }
            Source::Parts { partition, trees } => {
                let mut engine = ShardedEngine::assemble(partition, trees, self.parallelism)?;
                if let Some(layout) = self.layout {
                    engine.set_rebuild_layout(layout);
                }
                engine
            }
        };
        if let Some(threshold) = self.drain_threshold {
            engine.set_drain_threshold(threshold)?;
        }
        if let Some((algorithm, seed)) = self.resharding {
            engine.set_resharding(algorithm, seed)?;
        }
        Ok(engine)
    }
}

impl fmt::Debug for ShardedEngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.source {
            Source::Scenario(scenario) => format!("scenario({})", scenario.name()),
            Source::Parts { partition, .. } => {
                format!("parts({} shards)", partition.shards())
            }
        };
        f.debug_struct("ShardedEngineConfig")
            .field("source", &source)
            .field("parallelism", &self.parallelism)
            .field("drain_threshold", &self.drain_threshold)
            .field("resharding", &self.resharding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satn_sim::WorkloadSpec;

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
    fn scenario_and_parts_builders_agree_on_static_runs() {
        // The two construction paths — a scenario versus its own partition
        // and freshly instantiated per-shard trees — must produce engines
        // with byte-identical runs.
        let scenario = scenario();
        let mut via_scenario = ShardedEngineConfig::from_scenario(&scenario)
            .parallelism(Parallelism::Threads(2))
            .drain_threshold(128)
            .build()
            .unwrap();
        let trees: Vec<_> = scenario
            .shard_scenarios()
            .iter()
            .map(|s| s.instantiate().unwrap())
            .collect();
        let mut via_parts = ShardedEngineConfig::from_parts(scenario.partition(), trees)
            .parallelism(Parallelism::Threads(2))
            .drain_threshold(128)
            .build()
            .unwrap();
        let requests: Vec<_> = scenario.stream().collect();
        via_scenario.submit_burst(&requests).unwrap();
        via_parts.submit_burst(&requests).unwrap();
        assert_eq!(via_scenario.finish().unwrap(), via_parts.finish().unwrap());
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
    fn tree_count_mismatches_are_invalid_config() {
        let scenario = scenario();
        let mut trees: Vec<_> = scenario
            .shard_scenarios()
            .iter()
            .map(|s| s.instantiate().unwrap())
            .collect();
        trees.pop();
        let err = ShardedEngineConfig::from_parts(scenario.partition(), trees)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert!(err.to_string().contains("one tree per shard"));
    }

    #[test]
    fn offline_reshard_recipes_are_invalid_config() {
        let err = ShardedEngineConfig::from_scenario(&scenario())
            .resharding(AlgorithmKind::StaticOpt, 7)
            .build()
            .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert!(err.to_string().contains("offline"));
    }

    #[test]
    fn parts_engines_gain_resharding_through_the_builder() {
        let scenario = scenario();
        let trees: Vec<_> = scenario
            .shard_scenarios()
            .iter()
            .map(|s| s.instantiate().unwrap())
            .collect();
        let mut engine = ShardedEngineConfig::from_parts(scenario.partition(), trees)
            .parallelism(Parallelism::Serial)
            .resharding(AlgorithmKind::RotorPush, scenario.seed)
            .build()
            .unwrap();
        engine
            .reshard(satn_workloads::shard::ReshardPlan::new([(
                satn_tree::ElementId::new(0),
                1,
            )]))
            .unwrap();
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn debug_output_names_the_source() {
        let config = ShardedEngineConfig::from_scenario(&scenario()).drain_threshold(64);
        let rendered = format!("{config:?}");
        assert!(rendered.contains("scenario("));
        assert!(rendered.contains("drain_threshold"));
    }
}
