//! # satn-exec
//!
//! The deterministic parallel execution layer of the workspace: one
//! std-only primitive, [`ordered_map`], that fans independent work items
//! out over scoped threads and merges the results back **in input order**.
//!
//! Everything in this repository is deterministic by construction — rotor
//! walks are the paper's whole point — so the contract of this crate is
//! strict: for a pure function `f`, [`ordered_map`] returns exactly
//! `items.into_iter().map(f).collect()`, bit for bit, regardless of thread
//! count or scheduling. Parallelism changes wall-clock time and nothing
//! else, which is what lets `satn-sim` checkpoint fingerprints, the sharded
//! engine's replay oracle and `satn-bench` golden files act as oracles for
//! the parallel code.
//!
//! ## Design
//!
//! * No dependencies (the build environment has no crates.io access; no
//!   rayon). Workers are [`std::thread::scope`] threads, so borrowed inputs
//!   need no `'static` gymnastics.
//! * Workers claim `(index, item)` pairs from one mutex-guarded iterator:
//!   one short lock per claim, so load balancing is dynamic (a slow cell
//!   never serializes the grid). Items are coarse — a scenario cell, an
//!   experiment repetition — so the claim is noise beside the work.
//! * Each worker buffers `(index, result)` pairs locally; the caller's
//!   thread merges them back into input order after the scope joins.
//!
//! ## Example
//!
//! ```
//! use satn_exec::{ordered_map, Parallelism};
//!
//! let squares = ordered_map(&[1u64, 2, 3, 4], Parallelism::Auto, |&n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Identical output at any thread count — determinism is the contract.
//! assert_eq!(squares, ordered_map(&[1u64, 2, 3, 4], Parallelism::Serial, |&n| n * n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::Mutex;

/// How many worker threads an execution-layer call may use.
///
/// The default is [`Parallelism::Auto`] — all available cores. Every mode
/// produces bit-identical results; the knob only trades wall-clock time for
/// CPU usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// One worker: run on the calling thread, no threads spawned.
    Serial,
    /// Exactly this many workers (`0` and `1` both mean serial).
    Threads(usize),
    /// One worker per available core ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolves the mode to a concrete worker count (always at least 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Maps a CLI-style thread count to a mode: `0` means [`Parallelism::Auto`],
    /// `1` means [`Parallelism::Serial`], anything else a fixed count.
    pub fn from_thread_count(threads: usize) -> Self {
        match threads {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Threads(n) => write!(f, "{n}"),
            Parallelism::Auto => write!(f, "auto({})", self.threads()),
        }
    }
}

/// Error returned when parsing an unrecognised parallelism spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseParallelismError {
    input: String,
}

impl fmt::Display for ParseParallelismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown parallelism {:?} (expected \"auto\", \"serial\", or a thread count)",
            self.input
        )
    }
}

impl std::error::Error for ParseParallelismError {}

impl FromStr for Parallelism {
    type Err = ParseParallelismError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "all" => Ok(Parallelism::Auto),
            "serial" | "1" => Ok(Parallelism::Serial),
            other => other
                .parse::<usize>()
                .map(Parallelism::from_thread_count)
                .map_err(|_| ParseParallelismError {
                    input: s.to_owned(),
                }),
        }
    }
}

/// Maps `f` over `items` on up to `parallelism` worker threads, returning the
/// results **in input order** — the parallel, deterministic equivalent of
/// `items.into_iter().map(f).collect()`.
///
/// `items` is anything whose iterator knows its length: `&[T]` and `&Vec<T>`
/// hand each worker a shared `&T`, `&mut [T]` hands it exclusive `&mut T`
/// (so the items themselves can be stateful, such as an accumulator each
/// call updates in place), and owned collections move their items to the
/// workers. Work is claimed one item at a time, which suits the coarse work
/// items of this workspace (a scenario cell runs for milliseconds to
/// seconds).
///
/// Every call spawns and joins its workers, tens of microseconds per call.
/// That is noise beside a grid, but not beside a loop of short calls, which
/// is why `satn-serve`'s engine drains on long-lived workers of its own.
///
/// # Panics
///
/// Propagates the first panic raised by `f` after all workers have stopped.
pub fn ordered_map<I, R, F>(items: I, parallelism: Parallelism, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let workers = parallelism.threads().min(items.len());
    if workers <= 1 {
        return items.map(f).collect();
    }

    let queue = Mutex::new(items.enumerate());
    // The lock is held for the claim only, never while `f` runs.
    let claim = || queue.lock().expect("claim lock never poisons").next();
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    while let Some((index, item)) = claim() {
                        local.push((index, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(local) => local,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let mut results: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;

    #[test]
    fn preserves_input_order_at_every_parallelism() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|&n| n.wrapping_mul(31) ^ 7).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let got = ordered_map(&items, parallelism, |&n| n.wrapping_mul(31) ^ 7);
            assert_eq!(got, expected, "{parallelism:?}");
        }

        // Item 0 finishes only after item 1 has: results come back in input
        // order, not completion order.
        let (signal, gate) = mpsc::channel();
        let gate = Mutex::new(gate);
        let got = ordered_map([0u8, 1], Parallelism::Threads(2), |n| {
            match n {
                0 => gate.lock().unwrap().recv().unwrap(),
                _ => signal.send(()).unwrap(),
            }
            n
        });
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(&empty, Parallelism::Auto, |&n| n).is_empty());
        assert_eq!(
            ordered_map(&[9u32], Parallelism::Threads(8), |&n| n + 1),
            [10]
        );
    }

    #[test]
    fn multiple_worker_threads_actually_run() {
        // With more blocking items than workers and a barrier-ish workload,
        // at least two distinct threads must participate (skipped on a
        // single-core machine, where the pool rightly stays serial).
        if Parallelism::Auto.threads() < 2 {
            return;
        }
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        ordered_map(&items, Parallelism::Threads(4), |&n| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
            n
        });
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn borrowed_non_static_inputs_work() {
        let words = ["rotor".to_owned(), "walk".to_owned()];
        let lengths = ordered_map(&words, Parallelism::Threads(2), |w| w.len());
        assert_eq!(lengths, vec![5, 4]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            ordered_map(&[1, 2, 3], Parallelism::Threads(2), |&n| {
                assert!(n != 2, "boom");
                n
            })
        });
        assert!(result.is_err());
    }

    // The next four tests map over exclusive `&mut` items, which the
    // workers mutate in place.

    #[test]
    fn for_each_ordered_streams_prefixes_in_input_order() {
        let mut items: Vec<u64> = (0..137).collect();
        for (pass, parallelism) in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ]
        .into_iter()
        .enumerate()
        {
            let got = ordered_map(
                items.iter_mut().enumerate(),
                parallelism,
                |(index, item)| {
                    *item += 1;
                    (index, *item)
                },
            );
            let offset = pass as u64 + 1;
            let expected: Vec<(usize, u64)> = (0..137).map(|n| (n, n as u64 + offset)).collect();
            assert_eq!(got, expected, "{parallelism:?}");
        }
        // The mutations applied by all four passes accumulated determinately.
        assert_eq!(items, (4..141).collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_ordered_mutates_items_exactly_once() {
        let mut items = vec![0u32; 513];
        let got = ordered_map(&mut items, Parallelism::Threads(4), |item| *item += 1);
        assert_eq!(got.len(), 513);
        assert!(items.iter().all(|&n| n == 1));
    }

    #[test]
    fn for_each_ordered_worker_panics_propagate() {
        let mut items: Vec<i32> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ordered_map(&mut items, Parallelism::Threads(3), |n| {
                assert!(*n != 17, "boom");
                *n
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn for_each_ordered_handles_empty_and_singleton() {
        let mut empty: Vec<u8> = Vec::new();
        let none: Vec<u8> = ordered_map(&mut empty, Parallelism::Auto, |_| unreachable!());
        assert!(none.is_empty());
        let mut one = vec![41u8];
        let got = ordered_map(&mut one, Parallelism::Threads(8), |n| {
            *n += 1;
            *n
        });
        assert_eq!((got, one), (vec![42], vec![42]));
    }

    #[test]
    fn parallelism_resolution_and_parsing() {
        assert_eq!(Parallelism::Serial.threads(), 1);
        assert_eq!(Parallelism::Threads(0).threads(), 1);
        assert_eq!(Parallelism::Threads(6).threads(), 6);
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::from_thread_count(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_thread_count(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_thread_count(3), Parallelism::Threads(3));
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!(
            "serial".parse::<Parallelism>().unwrap(),
            Parallelism::Serial
        );
        assert_eq!("4".parse::<Parallelism>().unwrap(), Parallelism::Threads(4));
        assert_eq!("0".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert!("fast".parse::<Parallelism>().is_err());
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
