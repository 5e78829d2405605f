//! Access-recency bookkeeping shared by the rank-based algorithms.
//!
//! `Move-Half` and `Max-Push` pick, on each level, the element with the
//! highest working-set rank — equivalently the *least recently used* element
//! of the level. Tracking the last access time of every element is enough to
//! answer these queries; the actual working-set rank (number of distinct
//! elements accessed since) is computed in `satn-analysis` where it is needed.

use satn_tree::ElementId;

/// Tracks the last access time of every element.
///
/// Time starts at 1; elements that have never been accessed report time 0 and
/// therefore always count as least recently used (ties are broken towards the
/// smaller element id, making all algorithms that use the tracker
/// deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecencyTracker {
    last_access: Vec<u64>,
    clock: u64,
}

impl RecencyTracker {
    /// Creates a tracker for `num_elements` elements, none of them accessed.
    pub fn new(num_elements: u32) -> Self {
        RecencyTracker {
            last_access: vec![0; num_elements as usize],
            clock: 0,
        }
    }

    /// Number of elements tracked.
    pub fn num_elements(&self) -> u32 {
        self.last_access.len() as u32
    }

    /// Reconstitutes a tracker from explicit parts: one last-access time per
    /// element plus the logical clock. Used by the warm reshard handover to
    /// carry recency state across an element remap (entries of elements that
    /// just arrived are 0, exactly like never-accessed elements).
    ///
    /// # Panics
    ///
    /// Panics if any last-access time is ahead of the clock.
    pub fn from_parts(last_access: Vec<u64>, clock: u64) -> Self {
        assert!(
            last_access.iter().all(|&t| t <= clock),
            "a last-access time cannot be ahead of the clock"
        );
        RecencyTracker { last_access, clock }
    }

    /// Records an access to `element` at the next time step.
    ///
    /// # Panics
    ///
    /// Panics if the element is out of range.
    pub fn touch(&mut self, element: ElementId) {
        self.clock += 1;
        self.last_access[element.usize()] = self.clock;
    }

    /// Returns the time of the last access of `element` (0 if never accessed).
    ///
    /// # Panics
    ///
    /// Panics if the element is out of range.
    pub fn last_access(&self, element: ElementId) -> u64 {
        self.last_access[element.usize()]
    }

    /// Returns the current logical time (number of accesses recorded).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Returns the least recently used element among `candidates` — the one
    /// with the *highest* working-set rank. Ties (e.g. several never-accessed
    /// elements) are broken towards the smaller element id. Returns `None`
    /// for an empty candidate set.
    pub fn least_recently_used<I>(&self, candidates: I) -> Option<ElementId>
    where
        I: IntoIterator<Item = ElementId>,
    {
        candidates
            .into_iter()
            .min_by_key(|e| (self.last_access(*e), e.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_elements_report_time_zero() {
        let tracker = RecencyTracker::new(4);
        assert_eq!(tracker.now(), 0);
        for i in 0..4 {
            assert_eq!(tracker.last_access(ElementId::new(i)), 0);
        }
        assert_eq!(tracker.num_elements(), 4);
    }

    #[test]
    fn touch_advances_clock_and_updates_element() {
        let mut tracker = RecencyTracker::new(3);
        tracker.touch(ElementId::new(1));
        tracker.touch(ElementId::new(2));
        tracker.touch(ElementId::new(1));
        assert_eq!(tracker.now(), 3);
        assert_eq!(tracker.last_access(ElementId::new(1)), 3);
        assert_eq!(tracker.last_access(ElementId::new(2)), 2);
        assert_eq!(tracker.last_access(ElementId::new(0)), 0);
    }

    #[test]
    fn lru_prefers_never_accessed_then_oldest() {
        let mut tracker = RecencyTracker::new(5);
        tracker.touch(ElementId::new(0));
        tracker.touch(ElementId::new(3));
        // Elements 1, 2, 4 never accessed -> LRU is the smallest id among them.
        let lru = tracker
            .least_recently_used((0..5).map(ElementId::new))
            .unwrap();
        assert_eq!(lru, ElementId::new(1));
        // Among accessed elements only, the earliest touch wins.
        let lru = tracker
            .least_recently_used([ElementId::new(0), ElementId::new(3)])
            .unwrap();
        assert_eq!(lru, ElementId::new(0));
        assert_eq!(tracker.least_recently_used([]), None);
    }
}
