//! Experiment configuration: sizes, repetitions, seeds and output handling.

use satn_exec::Parallelism;
use std::path::PathBuf;

/// Scale and reproducibility settings shared by all experiments.
///
/// The paper's evaluation uses trees of 65,535 nodes, 10⁶ requests and ten
/// repetitions per data point. The same code runs at that scale
/// ([`ExperimentConfig::paper`]), but the default
/// ([`ExperimentConfig::standard`]) is a reduced configuration that finishes
/// in minutes while preserving every qualitative shape; the quick preset is
/// for smoke tests and CI.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of tree nodes (must be 2^L − 1).
    pub nodes: u32,
    /// Number of requests per generated sequence.
    pub requests: usize,
    /// Number of repetitions (different initial placements / seeds) averaged
    /// per data point.
    pub repetitions: usize,
    /// Base random seed; every repetition derives its own seed from it.
    pub seed: u64,
    /// Scale factor for the synthetic corpus books of Q5 (1.0 = book-sized).
    pub corpus_scale: f64,
    /// Directory for CSV output (`None` disables file output).
    pub output_dir: Option<PathBuf>,
    /// Worker budget for the measurement pool: every `(algorithm,
    /// repetition)` cell is an independent deterministic run, so this only
    /// changes wall-clock time, never a number in a figure.
    pub parallelism: Parallelism,
}

impl ExperimentConfig {
    /// The paper's full scale: 65,535 nodes, 10⁶ requests, 10 repetitions.
    pub fn paper() -> Self {
        ExperimentConfig {
            nodes: 65_535,
            requests: 1_000_000,
            repetitions: 10,
            seed: 2022,
            corpus_scale: 1.0,
            output_dir: None,
            parallelism: Parallelism::Auto,
        }
    }

    /// The default scale: 4,095 nodes, 200k requests, 3 repetitions.
    pub fn standard() -> Self {
        ExperimentConfig {
            nodes: 4_095,
            requests: 200_000,
            repetitions: 3,
            seed: 2022,
            corpus_scale: 0.2,
            output_dir: None,
            parallelism: Parallelism::Auto,
        }
    }

    /// A smoke-test scale: 1,023 nodes, 20k requests, 2 repetitions.
    pub fn quick() -> Self {
        ExperimentConfig {
            nodes: 1_023,
            requests: 20_000,
            repetitions: 2,
            seed: 2022,
            corpus_scale: 0.05,
            output_dir: None,
            parallelism: Parallelism::Auto,
        }
    }

    /// Number of tree levels implied by `nodes`.
    pub fn levels(&self) -> u32 {
        let mut levels = 1;
        while ((1u64 << levels) - 1) < u64::from(self.nodes) {
            levels += 1;
        }
        levels
    }

    /// Derives the seed of a given repetition.
    pub fn seed_for(&self, repetition: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(repetition as u64)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_complete_tree_sizes() {
        for config in [
            ExperimentConfig::paper(),
            ExperimentConfig::standard(),
            ExperimentConfig::quick(),
        ] {
            let levels = config.levels();
            assert_eq!((1u64 << levels) - 1, u64::from(config.nodes));
        }
        assert_eq!(ExperimentConfig::paper().levels(), 16);
        assert_eq!(ExperimentConfig::standard().levels(), 12);
    }

    #[test]
    fn seeds_differ_per_repetition_and_are_deterministic() {
        let config = ExperimentConfig::quick();
        assert_ne!(config.seed_for(0), config.seed_for(1));
        assert_eq!(config.seed_for(3), config.seed_for(3));
    }

    #[test]
    fn default_config_is_standard() {
        assert_eq!(ExperimentConfig::default(), ExperimentConfig::standard());
    }
}
