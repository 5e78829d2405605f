//! The atomic metric primitives: [`Counter`] and [`Gauge`].
//!
//! Every primitive is one `AtomicU64` updated with single atomic
//! read-modify-writes or stores — no lock, no allocation, safe to hammer from
//! any number of threads. [`Counter`] and [`Gauge`] write with `Release` and
//! read with `Acquire`: a reader that sees a value also sees everything its
//! writer did before writing it. The engine relies on that to keep
//! `requests_served` from running ahead of the published snapshot (it adds
//! to the counter only after publishing). On x86 this compiles to the same
//! instructions as relaxed ordering. The determinism oracle only reads
//! metrics at drain boundaries, where the engine thread's own program order
//! fixes their values.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (requests served, frames decoded, …).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Release);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A value that moves both ways (queue depth, buffered requests, epoch).
///
/// [`Gauge::dec`] saturates at zero instead of wrapping: paired
/// increment/decrement sites on different threads can transiently race, and
/// a `u64::MAX` queue depth in a metrics dump would be strictly worse than
/// an off-by-one that the next update corrects.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value outright.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Release);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    /// Subtracts one, saturating at zero.
    #[inline]
    pub fn dec(&self) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(1);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let counter = Counter::new();
        counter.inc();
        counter.add(41);
        assert_eq!(counter.get(), 42);
    }

    #[test]
    fn gauges_move_both_ways_and_saturate() {
        let gauge = Gauge::new();
        gauge.inc();
        gauge.inc();
        gauge.dec();
        assert_eq!(gauge.get(), 1);
        gauge.dec();
        gauge.dec(); // Below zero: saturates instead of wrapping.
        assert_eq!(gauge.get(), 0);
        gauge.set(7);
        assert_eq!(gauge.get(), 7);
    }

    #[test]
    fn concurrent_updates_never_lose_increments() {
        let counter = Counter::new();
        let gauge = Gauge::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        counter.inc();
                        gauge.inc();
                        gauge.dec();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 40_000);
        assert_eq!(gauge.get(), 0);
    }
}
