//! Cross-algorithm comparisons: per-request cost differences (Figure 5b) and
//! empirical competitive-ratio reports against the paper's lower bounds.

use crate::working_set::working_set_bound;
use satn_core::SelfAdjustingTree;
use satn_tree::{ElementId, ServeCost, TreeError};

/// Runs two algorithms on the same request sequence and returns, for every
/// request, the difference of their **access** costs (`first − second`).
/// This is the quantity plotted as a histogram in Figure 5b (Rotor-Push
/// minus Random-Push over uniform sequences).
///
/// # Errors
///
/// Propagates the first serving error of either algorithm.
pub fn access_cost_differences<A, B>(
    first: &mut A,
    second: &mut B,
    requests: &[ElementId],
) -> Result<Vec<i64>, TreeError>
where
    A: SelfAdjustingTree + ?Sized,
    B: SelfAdjustingTree + ?Sized,
{
    let mut differences = Vec::with_capacity(requests.len());
    for &request in requests {
        let a = first.serve(request)?;
        let b = second.serve(request)?;
        differences.push(a.access as i64 - b.access as i64);
    }
    Ok(differences)
}

/// A fixed-width integer histogram over a symmetric range, mirroring the
/// log-scale histogram of Figure 5b.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    total: u64,
    sum: i64,
}

impl Histogram {
    /// Creates a histogram with one bucket per integer value in
    /// `[min, max]`; values outside the range are clamped to the end buckets.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: i64, max: i64) -> Self {
        assert!(min <= max, "histogram range must not be empty");
        Histogram {
            min,
            max,
            counts: vec![0; (max - min + 1) as usize],
            total: 0,
            sum: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: i64) {
        let clamped = value.clamp(self.min, self.max);
        self.counts[(clamped - self.min) as usize] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// Adds many observations.
    pub fn record_all<I: IntoIterator<Item = i64>>(&mut self, values: I) {
        for value in values {
            self.record(value);
        }
    }

    /// Number of observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The empirical probability of each bucket, as `(value, probability)`
    /// pairs (only non-empty buckets are listed).
    pub fn probabilities(&self) -> Vec<(i64, f64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(index, &count)| (self.min + index as i64, count as f64 / self.total as f64))
            .collect()
    }

    /// The raw count of a specific value's bucket (0 if outside the range).
    pub fn count(&self, value: i64) -> u64 {
        if value < self.min || value > self.max {
            0
        } else {
            self.counts[(value - self.min) as usize]
        }
    }
}

/// The empirical cost report of one algorithm on one workload, with the two
/// lower-bound proxies used by the paper: the working-set bound and the best
/// static tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CompetitiveReport {
    /// Name of the measured algorithm.
    pub algorithm: String,
    /// Total cost (access + adjustment) paid by the algorithm.
    pub total_cost: u64,
    /// Total access cost only.
    pub access_cost: u64,
    /// Total adjustment cost only.
    pub adjustment_cost: u64,
    /// The working-set bound `WS(σ)` of the sequence.
    pub working_set_bound: f64,
    /// The total access cost of the frequency-ordered static tree.
    pub static_opt_cost: u64,
    /// Number of requests.
    pub requests: usize,
}

impl CompetitiveReport {
    /// Ratio of the algorithm's cost to the working-set lower bound
    /// (infinite for a zero bound).
    pub fn ratio_to_working_set_bound(&self) -> f64 {
        if self.working_set_bound <= 0.0 {
            f64::INFINITY
        } else {
            self.total_cost as f64 / self.working_set_bound
        }
    }

    /// Ratio of the algorithm's cost to the static-optimum access cost.
    pub fn ratio_to_static_opt(&self) -> f64 {
        if self.static_opt_cost == 0 {
            f64::INFINITY
        } else {
            self.total_cost as f64 / self.static_opt_cost as f64
        }
    }
}

/// Measures an algorithm on a request sequence and relates its cost to the
/// working-set bound and the static optimum.
///
/// # Errors
///
/// Propagates serving errors.
pub fn competitive_report<A>(
    algorithm: &mut A,
    num_elements: u32,
    requests: &[ElementId],
) -> Result<CompetitiveReport, TreeError>
where
    A: SelfAdjustingTree + ?Sized,
{
    let mut static_opt = satn_core::StaticOpt::from_sequence(algorithm.tree(), requests)?;
    let static_opt_cost = static_opt.serve_sequence(requests)?.total().access;

    let mut total = ServeCost::ZERO;
    for &request in requests {
        total += algorithm.serve(request)?;
    }
    Ok(CompetitiveReport {
        algorithm: algorithm.name().to_owned(),
        total_cost: total.total(),
        access_cost: total.access,
        adjustment_cost: total.adjustment,
        working_set_bound: working_set_bound(num_elements, requests),
        static_opt_cost,
        requests: requests.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use satn_core::{RandomPush, RotorPush, StaticOblivious};
    use satn_tree::{CompleteTree, Occupancy};

    fn uniform_requests(n: u32, len: usize, seed: u64) -> Vec<ElementId> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| ElementId::new(rng.gen_range(0..n)))
            .collect()
    }

    #[test]
    fn histogram_basics() {
        let mut histogram = Histogram::new(-3, 3);
        histogram.record_all([0, 0, 1, -2, 5, -9]);
        assert_eq!(histogram.total(), 6);
        assert_eq!(histogram.count(0), 2);
        assert_eq!(histogram.count(3), 1); // 5 clamped
        assert_eq!(histogram.count(-3), 1); // -9 clamped
        assert_eq!(histogram.count(7), 0);
        assert!((histogram.mean() - (0 + 0 + 1 - 2 + 5 - 9) as f64 / 6.0).abs() < 1e-12);
        let probabilities = histogram.probabilities();
        assert!(probabilities
            .iter()
            .any(|&(v, p)| v == 0 && (p - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn histogram_rejects_inverted_range() {
        Histogram::new(3, -3);
    }

    #[test]
    fn rotor_vs_random_mean_difference_is_tiny_on_uniform_data() {
        // The Figure 5b observation: per-request access costs of Rotor-Push
        // and Random-Push differ by small amounts with mean close to zero.
        let tree = CompleteTree::with_levels(9).unwrap();
        let requests = uniform_requests(tree.num_nodes(), 20_000, 4);
        let initial = satn_tree::placement::random_occupancy(tree, &mut StdRng::seed_from_u64(8));
        let mut rotor = RotorPush::new(initial.clone());
        let mut random = RandomPush::with_seed(initial, 99);
        let differences = access_cost_differences(&mut rotor, &mut random, &requests).unwrap();
        let mut histogram = Histogram::new(-8, 8);
        histogram.record_all(differences.iter().copied());
        assert_eq!(histogram.total() as usize, requests.len());
        assert!(histogram.mean().abs() < 0.25, "mean {}", histogram.mean());
    }

    #[test]
    fn competitive_report_relates_costs_to_lower_bounds() {
        let tree = CompleteTree::with_levels(6).unwrap();
        let requests = uniform_requests(tree.num_nodes(), 3_000, 6);
        let mut rotor = RotorPush::new(Occupancy::identity(tree));
        let report = competitive_report(&mut rotor, tree.num_nodes(), &requests).unwrap();
        assert_eq!(report.requests, 3_000);
        assert_eq!(
            report.total_cost,
            report.access_cost + report.adjustment_cost
        );
        assert!(report.working_set_bound > 0.0);
        assert!(report.static_opt_cost > 0);
        assert!(report.ratio_to_working_set_bound().is_finite());
        assert!(report.ratio_to_static_opt().is_finite());
        assert_eq!(report.algorithm, "rotor-push");
    }

    #[test]
    fn static_oblivious_report_has_zero_adjustment() {
        let tree = CompleteTree::with_levels(5).unwrap();
        let requests = uniform_requests(tree.num_nodes(), 500, 9);
        let mut alg = StaticOblivious::new(Occupancy::identity(tree));
        let report = competitive_report(&mut alg, tree.num_nodes(), &requests).unwrap();
        assert_eq!(report.adjustment_cost, 0);
    }

    #[test]
    fn empty_sequences_produce_empty_reports() {
        let tree = CompleteTree::with_levels(4).unwrap();
        let mut alg = RotorPush::new(Occupancy::identity(tree));
        let report = competitive_report(&mut alg, tree.num_nodes(), &[]).unwrap();
        assert_eq!(report.total_cost, 0);
        assert!(report.ratio_to_working_set_bound().is_infinite());
    }
}
