//! The batch-buffer bookkeeping of [`ShardedEngine`](crate::ShardedEngine):
//! [`DrainControl`] decides *when* an automatic drain fires, which the
//! resharding drain fence relies on.

/// The batch-buffer bookkeeping of the serving engine: how many requests
/// are buffered across all shards, when the automatic drain fires, and the
/// run's submitted/drain counters.
#[derive(Debug, Clone)]
pub(crate) struct DrainControl {
    threshold: usize,
    pending: usize,
    drains: u64,
    submitted: u64,
}

impl DrainControl {
    /// Creates a control with the given automatic-drain threshold.
    pub(crate) fn new(threshold: usize) -> Self {
        DrainControl {
            threshold,
            pending: 0,
            drains: 0,
            submitted: 0,
        }
    }

    /// Overrides the automatic-drain threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub(crate) fn set_threshold(&mut self, threshold: usize) {
        assert!(threshold > 0, "the drain threshold must be positive");
        self.threshold = threshold;
    }

    /// Counts one buffered request; `true` when the buffered total has
    /// reached the threshold and the caller must drain.
    pub(crate) fn note_submitted(&mut self) -> bool {
        self.pending += 1;
        self.submitted += 1;
        self.pending >= self.threshold
    }

    /// Starts a drain: `false` (and no drain counted) when nothing is
    /// buffered, else the buffer empties and the drain is counted.
    pub(crate) fn begin_drain(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        self.pending = 0;
        self.drains += 1;
        true
    }

    /// Requests submitted so far (served or still buffered).
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Drains performed so far.
    pub(crate) fn drains(&self) -> u64 {
        self.drains
    }
}
