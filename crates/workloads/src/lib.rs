//! # satn-workloads
//!
//! Workload generators for self-adjusting tree network experiments,
//! reproducing the methodology of Section 6.1 of *Deterministic
//! Self-Adjusting Tree Networks Using Rotor Walks* (ICDCS 2022):
//!
//! * [`synthetic::uniform`] — uniform request sequences,
//! * [`synthetic::temporal`] — temporal locality via a repeat probability `p`,
//! * [`synthetic::zipf`] — spatial locality via Zipf-distributed requests,
//! * [`synthetic::combined`] — both kinds of locality at once (Q4),
//! * [`synthetic::round_robin_path`] — the Move-To-Front lower-bound
//!   sequence,
//! * [`corpus`] — the Canterbury-corpus preprocessing (sliding 3-letter
//!   window) applied either to user-supplied text or to synthetic
//!   English-like books generated by a Markov chain,
//! * [`Workload`] — the request-sequence container with the statistics the
//!   paper reports (empirical entropy, repeat fraction, frequencies),
//! * [`stream`] — the streaming `Iterator<Item = ElementId>` form of every
//!   generator; the materialized generators above are defined as the
//!   `collect` of these streams, so the two forms are byte-identical,
//! * [`shard`] — deterministic request-stream partitioning for the sharded
//!   serving engine: routing policies ([`ShardRouter`]), materialized
//!   element-to-shard assignments ([`Partition`]), and per-shard stream
//!   splitting.
//!
//! ```
//! use rand::SeedableRng;
//! use satn_workloads::{synthetic, Workload};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let workload: Workload = synthetic::temporal(1023, 10_000, 0.9, &mut rng);
//! assert_eq!(workload.len(), 10_000);
//! assert!(workload.repeat_fraction() > 0.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod corpus;
pub mod lru_stack;
pub mod nonstationary;
pub mod shard;
pub mod stream;
pub mod synthetic;
pub mod trace;
mod workload;

pub use lru_stack::StackDistanceProfile;
pub use shard::{
    carry_remap, derive_schedule, handover, shard_epoch_seed, EpochedPartition, Handover,
    Partition, PartitionEpoch, PolicyDriver, ReshardError, ReshardEvent, ReshardPlan,
    ReshardPolicy, ShardRouter,
};
pub use stream::{
    CombinedStream, HotBlockStream, MarkovBurstyStream, RoundRobinPathStream,
    ShiftingHotspotStream, TemporalStream, UniformStream, ZipfStream,
};
pub use trace::{load_trace, read_trace, save_trace, write_trace, TraceError, TraceStream};
pub use workload::{fit_tree_levels, Workload};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generators_respect_universe_and_length(
            levels in 2u32..=10,
            length in 1usize..2000,
            seed in any::<u64>(),
            p in 0.0f64..=1.0,
            a in 1.001f64..3.0,
        ) {
            let n = (1u32 << levels) - 1;
            let mut rng = StdRng::seed_from_u64(seed);
            for workload in [
                synthetic::uniform(n, length, &mut rng),
                synthetic::temporal(n, length, p, &mut rng),
                synthetic::zipf(n, length, a, &mut rng),
                synthetic::combined(n, length, a, p, &mut rng),
            ] {
                prop_assert_eq!(workload.len(), length);
                prop_assert_eq!(workload.num_elements(), n);
                prop_assert!(workload.requests().iter().all(|e| e.index() < n));
            }
        }

        #[test]
        fn higher_repeat_probability_gives_higher_repeat_fraction(
            seed in any::<u64>(),
        ) {
            let mut rng_low = StdRng::seed_from_u64(seed);
            let mut rng_high = StdRng::seed_from_u64(seed);
            let low = synthetic::temporal(255, 4000, 0.1, &mut rng_low);
            let high = synthetic::temporal(255, 4000, 0.85, &mut rng_high);
            prop_assert!(high.repeat_fraction() > low.repeat_fraction());
        }

        #[test]
        fn zipf_entropy_monotone_in_skewness(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mild = synthetic::zipf(2047, 20_000, 1.1, &mut rng).empirical_entropy();
            let strong = synthetic::zipf(2047, 20_000, 2.2, &mut rng).empirical_entropy();
            prop_assert!(strong < mild);
        }

        #[test]
        fn corpus_workloads_fit_their_declared_universe(words in 20usize..400, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let text = corpus::MarkovTextGenerator::new().text(words, &mut rng);
            let workload = corpus::from_text("prop", &text);
            prop_assert!(workload
                .requests()
                .iter()
                .all(|e| e.index() < workload.num_elements()));
            let levels = fit_tree_levels(workload.num_elements());
            prop_assert!((1u64 << levels) > u64::from(workload.num_elements()));
        }
    }
}
