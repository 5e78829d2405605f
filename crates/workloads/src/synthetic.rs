//! Synthetic workload generators used throughout Section 6 of the paper:
//! uniform sequences, temporal locality (repeat probability `p`), spatial
//! locality (Zipf parameter `a`) and their combination.

use crate::stream::{CombinedStream, RoundRobinPathStream, TemporalStream, UniformStream};
use crate::workload::Workload;
use rand::Rng;
use satn_tree::ElementId;

/// Generates a sequence of `length` requests drawn uniformly at random from
/// `num_elements` elements.
///
/// This is the materialized form of
/// [`UniformStream`]; the two produce identical
/// sequences for the same generator state.
pub fn uniform<R: Rng + ?Sized>(num_elements: u32, length: usize, rng: &mut R) -> Workload {
    let requests = UniformStream::new(num_elements, rng).take(length).collect();
    Workload::new(format!("uniform(n={num_elements})"), num_elements, requests)
}

/// Generates a sequence with temporal locality: each request after the first
/// repeats its predecessor with probability `p` and otherwise draws a fresh
/// uniform element (the paper's Q2 workload).
///
/// This is the materialized form of
/// [`TemporalStream`]; the two produce
/// identical sequences for the same generator state.
pub fn temporal<R: Rng + ?Sized>(
    num_elements: u32,
    length: usize,
    repeat_probability: f64,
    rng: &mut R,
) -> Workload {
    let requests = TemporalStream::new(num_elements, repeat_probability, rng)
        .take(length)
        .collect();
    Workload::new(
        format!("temporal(p={repeat_probability},n={num_elements})"),
        num_elements,
        requests,
    )
}

/// A sampler for the Zipf distribution over `num_elements` elements with
/// skewness parameter `a`: element `i` (0-based) has weight `(i + 1)^{-a}`.
///
/// Used for the spatial-locality workloads of Q3/Q4. Sampling is by binary
/// search over the precomputed cumulative distribution, `O(log n)` per draw.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    exponent: f64,
}

impl ZipfSampler {
    /// Creates a sampler for `num_elements` elements with exponent `a`.
    ///
    /// # Panics
    ///
    /// Panics if `num_elements` is zero or `a` is not finite and positive.
    pub fn new(num_elements: u32, a: f64) -> Self {
        assert!(num_elements > 0, "the element universe must not be empty");
        assert!(
            a.is_finite() && a > 0.0,
            "the Zipf exponent must be positive"
        );
        let mut cumulative = Vec::with_capacity(num_elements as usize);
        let mut sum = 0.0;
        for i in 0..num_elements {
            sum += 1.0 / f64::from(i + 1).powf(a);
            cumulative.push(sum);
        }
        let total = sum;
        for value in &mut cumulative {
            *value /= total;
        }
        ZipfSampler {
            cumulative,
            exponent: a,
        }
    }

    /// The skewness exponent `a`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Number of elements the sampler draws from.
    pub fn num_elements(&self) -> u32 {
        self.cumulative.len() as u32
    }

    /// The probability of element `i`.
    pub fn probability(&self, element: ElementId) -> f64 {
        let i = element.usize();
        let low = if i == 0 { 0.0 } else { self.cumulative[i - 1] };
        self.cumulative[i] - low
    }

    /// Draws one element.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ElementId {
        let x: f64 = rng.gen();
        let index = match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite probabilities"))
        {
            Ok(exact) => exact,
            Err(insertion) => insertion,
        };
        ElementId::new(index.min(self.cumulative.len() - 1) as u32)
    }

    /// The full probability vector, indexed by element id.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.num_elements())
            .map(|i| self.probability(ElementId::new(i)))
            .collect()
    }
}

/// Generates a Zipf-distributed sequence (the paper's Q3 workload).
///
/// This is the materialized form of
/// [`ZipfStream`](crate::stream::ZipfStream); the two produce identical
/// sequences for the same generator state.
pub fn zipf<R: Rng + ?Sized>(num_elements: u32, length: usize, a: f64, rng: &mut R) -> Workload {
    let sampler = ZipfSampler::new(num_elements, a);
    let requests = crate::stream::ZipfStream::from_sampler(sampler, rng)
        .take(length)
        .collect();
    Workload::new(
        format!("zipf(a={a},n={num_elements})"),
        num_elements,
        requests,
    )
}

/// Generates the combined workload of Q4: Zipf-distributed fresh draws with
/// the previous request repeated with probability `p`.
///
/// This is the materialized form of
/// [`CombinedStream`]; the two produce
/// identical sequences for the same generator state.
pub fn combined<R: Rng + ?Sized>(
    num_elements: u32,
    length: usize,
    a: f64,
    repeat_probability: f64,
    rng: &mut R,
) -> Workload {
    let requests = CombinedStream::new(num_elements, a, repeat_probability, rng)
        .take(length)
        .collect();
    Workload::new(
        format!("combined(a={a},p={repeat_probability},n={num_elements})"),
        num_elements,
        requests,
    )
}

/// Generates the round-robin root-to-leaf path workload used by the
/// Move-To-Front lower-bound example (Section 1.1): the elements initially
/// stored on the path to `leaf_node_index` are requested in round-robin order.
pub fn round_robin_path(num_elements: u32, leaf_node_index: u32, rounds: usize) -> Workload {
    let stream = RoundRobinPathStream::new(leaf_node_index);
    let length = rounds * stream.period();
    let requests = stream.take(length).collect();
    Workload::new(
        format!("round-robin-path(leaf={leaf_node_index})"),
        num_elements,
        requests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_covers_the_universe_roughly_evenly() {
        let w = uniform(64, 64_000, &mut rng(1));
        assert_eq!(w.len(), 64_000);
        let frequencies = w.frequencies();
        assert_eq!(frequencies.len(), 64);
        for &count in &frequencies {
            assert!((700..1300).contains(&count), "count {count} far from 1000");
        }
        assert!(w.empirical_entropy() > 5.9);
    }

    #[test]
    fn uniform_is_seed_deterministic() {
        assert_eq!(
            uniform(32, 1000, &mut rng(7)),
            uniform(32, 1000, &mut rng(7))
        );
        assert_ne!(
            uniform(32, 1000, &mut rng(7)),
            uniform(32, 1000, &mut rng(8))
        );
    }

    #[test]
    fn temporal_locality_raises_repeat_fraction_and_lowers_nothing_at_p0() {
        let p0 = temporal(255, 20_000, 0.0, &mut rng(2));
        let p9 = temporal(255, 20_000, 0.9, &mut rng(2));
        assert!(p0.repeat_fraction() < 0.02);
        assert!((p9.repeat_fraction() - 0.9).abs() < 0.03);
        // Entropy decreases only mildly (the paper reports 15.95 -> 15.16 for
        // depth-15 trees); for this size we only check the direction.
        assert!(p9.empirical_entropy() <= p0.empirical_entropy() + 0.05);
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decay() {
        let sampler = ZipfSampler::new(1000, 1.3);
        let probabilities = sampler.probabilities();
        assert!((probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for pair in probabilities.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-15);
        }
        assert_eq!(sampler.num_elements(), 1000);
        assert!((sampler.exponent() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn zipf_entropy_decreases_with_skewness() {
        // The paper reports entropies (11.07, 6.47, 3.88, 2.63, 1.92) for
        // a in (1.001, 1.3, 1.6, 1.9, 2.2) over 65,535 elements. We check the
        // monotone trend on a smaller universe.
        let entropies: Vec<f64> = [1.001, 1.3, 1.6, 1.9, 2.2]
            .iter()
            .map(|&a| zipf(4095, 50_000, a, &mut rng(4)).empirical_entropy())
            .collect();
        for pair in entropies.windows(2) {
            assert!(pair[0] > pair[1], "entropies not decreasing: {entropies:?}");
        }
    }

    #[test]
    fn zipf_empirical_frequencies_match_probabilities() {
        let sampler = ZipfSampler::new(50, 1.6);
        let mut counts = vec![0u64; 50];
        let mut r = rng(5);
        let draws = 200_000;
        for _ in 0..draws {
            counts[sampler.sample(&mut r).usize()] += 1;
        }
        for i in [0usize, 1, 5, 20] {
            let expected = sampler.probability(ElementId::new(i as u32));
            let observed = counts[i] as f64 / draws as f64;
            assert!(
                (expected - observed).abs() < 0.01,
                "element {i}: expected {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn combined_workload_has_both_kinds_of_locality() {
        let w = combined(1023, 50_000, 1.9, 0.75, &mut rng(6));
        assert!(w.repeat_fraction() > 0.7);
        // Skewed base distribution keeps the entropy low even before repeats.
        assert!(w.empirical_entropy() < 4.0);
        assert!(w.name().contains("combined"));
    }

    #[test]
    fn round_robin_path_repeats_the_path_elements() {
        let w = round_robin_path(127, 126, 3);
        assert_eq!(w.len(), 3 * 7);
        assert_eq!(w.distinct_requested(), 7);
        assert_eq!(w.requests()[0], ElementId::new(0));
        assert_eq!(w.requests()[6], ElementId::new(126));
        assert_eq!(w.requests()[7], ElementId::new(0));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn zipf_rejects_empty_universe() {
        ZipfSampler::new(0, 1.1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zipf_rejects_non_positive_exponent() {
        ZipfSampler::new(10, 0.0);
    }
}
