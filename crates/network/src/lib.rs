//! # satn-network
//!
//! Multi-source self-adjusting networks built from the paper's single-source
//! tree networks.
//!
//! *Deterministic Self-Adjusting Tree Networks Using Rotor Walks* (ICDCS
//! 2022) studies a single source attached to the root of one self-adjusting
//! tree. Its introduction motivates the model through reconfigurable optical
//! datacenter networks, where "single-source tree networks can be combined to
//! form self-adjusting networks which serve multiple sources and whose
//! topology can be an arbitrary degree-bounded graph". This crate provides
//! that composition:
//!
//! * [`Host`] / [`HostPair`] — the network-level request model,
//! * [`SelfAdjustingNetwork`] — `n` ego-trees composed into one reconfigurable
//!   topology, each source's tree over all other hosts managed by any of the
//!   paper's algorithms ([`satn_core::AlgorithmKind`]), with per-source cost
//!   accounting and physical-degree tracking. The ego-trees are the shards
//!   of one [`satn_serve::ShardedEngine`], so a network run is a sharded
//!   scenario and its serial replay is an oracle for every source,
//! * [`traffic`] — pair-level workload generators mirroring the locality
//!   knobs of the paper's evaluation (uniform, Zipf, hotspot, temporal).
//!
//! ```
//! use rand::SeedableRng;
//! use satn_core::AlgorithmKind;
//! use satn_network::{traffic, Host, SelfAdjustingNetwork};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let demand = traffic::hotspot(32, 2_000, 4, 0.9, &mut rng);
//! let mut network = SelfAdjustingNetwork::new(32, AlgorithmKind::RotorPush, 1)?;
//! let cost = network.serve_trace(demand.pairs())?;
//! assert_eq!(cost, network.total_cost());
//! // Every source's tree is one engine shard, accounted on its own.
//! let per_source: u64 = (0..32)
//!     .map(|h| network.cost_of_source(Host::new(h)).requests())
//!     .sum();
//! assert_eq!(per_source, 2_000);
//! # Ok::<(), satn_network::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod host;
mod network;
pub mod traffic;

pub use error::NetworkError;
pub use host::{Host, HostPair};
pub use network::SelfAdjustingNetwork;
pub use traffic::Traffic;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use satn_core::AlgorithmKind;

    fn arb_traffic() -> impl Strategy<Value = Traffic> {
        (4u32..=24, 1usize..300, any::<u64>(), 0.0f64..=0.95).prop_map(
            |(hosts, length, seed, p)| {
                let mut rng = StdRng::seed_from_u64(seed);
                traffic::temporal(hosts, length, p, &mut rng)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_algorithm_serves_arbitrary_traffic(traffic in arb_traffic(), seed in any::<u64>()) {
            for kind in [
                AlgorithmKind::RotorPush,
                AlgorithmKind::RandomPush,
                AlgorithmKind::MoveHalf,
                AlgorithmKind::MaxPush,
                AlgorithmKind::StaticOblivious,
            ] {
                let mut network =
                    SelfAdjustingNetwork::new(traffic.num_hosts(), kind, seed).unwrap();
                let summary = network.serve_trace(traffic.pairs()).unwrap();
                prop_assert_eq!(summary.requests(), traffic.len() as u64);
                // Every ego-tree still stores every destination.
                for source in 0..traffic.num_hosts() {
                    for destination in (0..traffic.num_hosts()).filter(|&d| d != source) {
                        prop_assert!(network
                            .route_length(Host::new(source), Host::new(destination))
                            .is_ok());
                    }
                }
            }
        }

        #[test]
        fn route_lengths_are_within_the_tree_depth(traffic in arb_traffic(), seed in any::<u64>()) {
            let mut network =
                SelfAdjustingNetwork::new(traffic.num_hosts(), AlgorithmKind::RotorPush, seed)
                    .unwrap();
            network.serve_trace(traffic.pairs()).unwrap();
            // The deepest level of a complete tree holding the
            // `num_hosts − 1` destinations of one source.
            let depth = u64::from((traffic.num_hosts() - 1).ilog2());
            for source in 0..traffic.num_hosts() {
                for destination in 0..traffic.num_hosts() {
                    if source == destination {
                        continue;
                    }
                    let length = network
                        .route_length(Host::new(source), Host::new(destination))
                        .unwrap();
                    prop_assert!(length >= 1 && length <= depth + 1);
                }
            }
        }

        #[test]
        fn serving_a_trace_twice_never_increases_the_second_pass_cost_for_static_opt(
            traffic in arb_traffic(),
        ) {
            // Static-Opt is a static tree laid out for the trace frequencies:
            // replaying the same trace must cost exactly the same again.
            let mut network = SelfAdjustingNetwork::with_trace(
                traffic.num_hosts(),
                AlgorithmKind::StaticOpt,
                0,
                traffic.pairs(),
            )
            .unwrap();
            let first = network.serve_trace(traffic.pairs()).unwrap();
            let second = network.serve_trace(traffic.pairs()).unwrap();
            prop_assert_eq!(first.total(), second.total());
        }
    }
}
