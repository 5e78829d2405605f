//! Lock-free runtime observability for the self-adjusting tree engine.
//!
//! The serving stack (PRs 3–8) proved its hot paths clean: zero allocations
//! per steady-state request, no locks on the drain path. This crate adds
//! eyes to that machine without dirtying it. Three layers:
//!
//! - **Primitives** ([`Counter`], [`Gauge`], [`AtomicHistogram`]): single
//!   `AtomicU64` cells (or a preallocated array of them), each updated by
//!   atomic read-modify-writes — no lock, no allocation, wait-free on every
//!   architecture Rust targets.
//! - **Registry** ([`EngineMetrics`] → [`MetricsSnapshot`]): the static,
//!   named set of metrics one engine exposes, frozen on demand into a
//!   snapshot with a canonical binary encoding (carried by the `Stats`
//!   wire frames) and a Prometheus-style text rendering.
//! - **Tracer** ([`TraceRing`]): a bounded ring of drain / snapshot /
//!   reshard-handover events whose [`TraceStamp`]s (epoch + served-count
//!   sequence numbers) are replay-deterministic; wall-clock offsets ride
//!   along as advisory data only.
//!
//! # Determinism contract
//!
//! Counters mirroring the cost ledger (requests served, access/adjustment
//! cost, migration units, drains, reshard epoch) are updated only at drain
//! boundaries on the engine thread, so a snapshot taken at a drain boundary
//! equals the serial-replay totals **exactly** — `satnd --verify` and the
//! serve-side tests assert this. Timing data (histograms, trace wall
//! clocks) and transport counters (wire frames/bytes, connections) are
//! advisory: useful, monotone, but not oracle-checked.
//!
//! The crate is std-only and `#![forbid(unsafe_code)]`; lock-freedom comes
//! from `std::sync::atomic`, not hand-rolled memory games.

#![forbid(unsafe_code)]

mod histogram;
mod metrics;
mod registry;
mod trace;

pub use histogram::{AtomicHistogram, LatencyHistogram};
pub use metrics::{Counter, Gauge};
pub use registry::{names, EngineMetrics, MetricsCodecError, MetricsSnapshot, WIRE_TAG_COUNT};
pub use trace::{TraceEvent, TraceKind, TraceRing, TraceStamp, DEFAULT_TRACE_CAPACITY};

#[cfg(test)]
mod proptests {
    use super::LatencyHistogram;
    use proptest::prelude::*;
    use std::time::Duration;

    fn build(samples: &[u64]) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for &nanos in samples {
            histogram.record(Duration::from_nanos(nanos));
        }
        histogram
    }

    proptest! {
        /// merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        #[test]
        fn merge_is_associative(
            a in proptest::collection::vec(0u64..1 << 44, 0..40),
            b in proptest::collection::vec(0u64..1 << 44, 0..40),
            c in proptest::collection::vec(0u64..1 << 44, 0..40),
        ) {
            let (ha, hb, hc) = (build(&a), build(&b), build(&c));
            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut right = ha.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        /// merge is commutative and equals recording the union directly.
        #[test]
        fn merge_matches_the_union(
            a in proptest::collection::vec(0u64..1 << 44, 0..60),
            b in proptest::collection::vec(0u64..1 << 44, 0..60),
        ) {
            let mut merged = build(&a);
            merged.merge(&build(&b));
            let mut flipped = build(&b);
            flipped.merge(&build(&a));
            let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
            prop_assert_eq!(&merged, &build(&union));
            prop_assert_eq!(&merged, &flipped);
        }

        /// Quantiles are monotone in q and bounded by the recorded extremes.
        #[test]
        fn quantiles_are_monotone_and_bounded(
            samples in proptest::collection::vec(0u64..1 << 44, 1..80),
            qs in proptest::collection::vec(0.0f64..=1.0, 2..8),
        ) {
            let histogram = build(&samples);
            let mut sorted = qs.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).expect("qs are finite"));
            let values: Vec<Duration> =
                sorted.iter().map(|&q| histogram.quantile(q)).collect();
            for pair in values.windows(2) {
                prop_assert!(pair[0] <= pair[1], "quantiles must be monotone in q");
            }
            let max = Duration::from_nanos(*samples.iter().max().expect("non-empty"));
            for value in &values {
                prop_assert!(*value <= max, "quantiles never exceed the exact max");
            }
            prop_assert_eq!(histogram.quantile(1.0), max);
        }
    }
}
