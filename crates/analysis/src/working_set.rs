//! Working-set ranks and the working-set bound (Section 2 of the paper).

use crate::fenwick::FenwickTree;
use satn_tree::ElementId;

/// Tracks working-set ranks online.
///
/// The working set of an element `e` at round `t` is the set of distinct
/// elements (including `e`) accessed since the last access of `e` before
/// round `t`; its size is the *rank* of `e`. For an element that has never
/// been accessed, the rank is defined as the number of distinct elements
/// accessed so far plus one (the working set is "everything seen, plus `e`").
///
/// The working-set bound of a sequence is `Σ_t log2(rank_t(σ_t))`; the paper
/// shows it is (up to a constant) a lower bound on the cost of *any*
/// algorithm, which makes it the reference for empirical competitive ratios.
///
/// Rank queries and updates take `O(log m)` time for a sequence of length `m`
/// (a Fenwick tree over time slots marks, for every element, the time of its
/// most recent access).
#[derive(Debug, Clone)]
pub struct WorkingSetTracker {
    /// Marks time slots that are the most recent access of some element.
    recent_marks: FenwickTree,
    /// Last access time (1-based) of every element; 0 = never accessed.
    last_access: Vec<u64>,
    /// Number of accesses processed so far.
    clock: u64,
    /// Number of distinct elements accessed so far.
    distinct: u64,
    /// Running working-set bound (sum of log2 ranks).
    bound: f64,
}

impl WorkingSetTracker {
    /// Creates a tracker for `num_elements` elements and a sequence of at
    /// most `capacity` requests.
    pub fn new(num_elements: u32, capacity: usize) -> Self {
        WorkingSetTracker {
            recent_marks: FenwickTree::new(capacity),
            last_access: vec![0; num_elements as usize],
            clock: 0,
            distinct: 0,
            bound: 0.0,
        }
    }

    /// Number of requests processed.
    pub fn requests(&self) -> u64 {
        self.clock
    }

    /// Returns the rank the element would have if it were accessed now,
    /// without recording an access.
    ///
    /// # Panics
    ///
    /// Panics if the element id is out of range.
    pub fn rank(&self, element: ElementId) -> u64 {
        let last = self.last_access[element.usize()];
        if last == 0 {
            self.distinct + 1
        } else {
            // Elements whose most recent access is at time >= last, including
            // `e` itself (whose mark sits exactly at `last`).
            u64::from(self.recent_marks.suffix_sum(last as usize - 1))
        }
    }

    /// Records an access and returns the rank of the accessed element at this
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if the element id is out of range or the configured capacity is
    /// exceeded.
    pub fn access(&mut self, element: ElementId) -> u64 {
        let rank = self.rank(element);
        let previous = self.last_access[element.usize()];
        self.clock += 1;
        assert!(
            self.clock as usize <= self.recent_marks.len(),
            "working-set tracker capacity exceeded"
        );
        if previous == 0 {
            self.distinct += 1;
        } else {
            self.recent_marks.add(previous as usize - 1, -1);
        }
        self.recent_marks.add(self.clock as usize - 1, 1);
        self.last_access[element.usize()] = self.clock;
        self.bound += (rank as f64).log2().max(0.0);
        rank
    }

    /// The working-set bound `Σ_t log2(rank_t(σ_t))` accumulated so far.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// Computes the working-set bound of a whole sequence over `num_elements`
/// elements.
pub fn working_set_bound(num_elements: u32, requests: &[ElementId]) -> f64 {
    let mut tracker = WorkingSetTracker::new(num_elements, requests.len());
    for &request in requests {
        tracker.access(request);
    }
    tracker.bound()
}

/// Computes the per-request working-set ranks of a sequence.
pub fn working_set_ranks(num_elements: u32, requests: &[ElementId]) -> Vec<u64> {
    let mut tracker = WorkingSetTracker::new(num_elements, requests.len());
    requests.iter().map(|&r| tracker.access(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<ElementId> {
        raw.iter().map(|&i| ElementId::new(i)).collect()
    }

    /// Naive O(m²) reference implementation of working-set ranks.
    fn naive_ranks(requests: &[ElementId]) -> Vec<u64> {
        let mut ranks = Vec::new();
        for (t, &e) in requests.iter().enumerate() {
            let last = requests[..t].iter().rposition(|&x| x == e);
            let window = match last {
                Some(pos) => &requests[pos..t],
                None => &requests[..t],
            };
            let mut distinct: Vec<ElementId> = window.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            let includes_e = distinct.contains(&e);
            ranks.push(distinct.len() as u64 + u64::from(!includes_e));
        }
        ranks
    }

    #[test]
    fn ranks_of_a_simple_sequence() {
        // Sequence: a b a c b b
        let requests = ids(&[0, 1, 0, 2, 1, 1]);
        let ranks = working_set_ranks(3, &requests);
        assert_eq!(ranks, vec![1, 2, 2, 3, 3, 1]);
    }

    #[test]
    fn first_accesses_count_everything_seen_plus_one() {
        let requests = ids(&[0, 1, 2, 3]);
        let ranks = working_set_ranks(4, &requests);
        assert_eq!(ranks, vec![1, 2, 3, 4]);
    }

    #[test]
    fn repeated_element_has_rank_one() {
        let requests = ids(&[5, 5, 5, 5]);
        let ranks = working_set_ranks(8, &requests);
        assert_eq!(ranks, vec![1, 1, 1, 1]);
        assert_eq!(working_set_bound(8, &requests), 0.0);
    }

    #[test]
    fn matches_naive_reference_on_pseudorandom_sequences() {
        let requests: Vec<ElementId> = (0..400u32)
            .map(|i| ElementId::new((i * 37 + i * i) % 23))
            .collect();
        assert_eq!(working_set_ranks(23, &requests), naive_ranks(&requests));
    }

    #[test]
    fn bound_is_sum_of_log_ranks() {
        let requests = ids(&[0, 1, 2, 0, 1, 2]);
        let ranks = working_set_ranks(3, &requests);
        let expected: f64 = ranks.iter().map(|&r| (r as f64).log2()).sum();
        assert!((working_set_bound(3, &requests) - expected).abs() < 1e-9);
    }

    #[test]
    fn rank_query_does_not_mutate() {
        let mut tracker = WorkingSetTracker::new(8, 16);
        tracker.access(ElementId::new(1));
        tracker.access(ElementId::new(2));
        let before = tracker.rank(ElementId::new(1));
        assert_eq!(before, tracker.rank(ElementId::new(1)));
        assert_eq!(before, 2);
        assert_eq!(tracker.rank(ElementId::new(5)), 3); // never accessed
        assert_eq!(tracker.requests(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn capacity_is_enforced() {
        let mut tracker = WorkingSetTracker::new(4, 2);
        tracker.access(ElementId::new(0));
        tracker.access(ElementId::new(1));
        tracker.access(ElementId::new(2));
    }
}
