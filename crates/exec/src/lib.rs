//! # satn-exec
//!
//! The deterministic parallel execution layer of the workspace: a std-only
//! scoped worker pool that fans independent work items out over threads and
//! merges the results back **in input order**.
//!
//! Everything in this repository is deterministic by construction — rotor
//! walks are the paper's whole point — so the contract of this crate is
//! strict: for a pure function `f`, [`ordered_map`] returns exactly
//! `items.iter().map(f).collect()`, bit for bit, regardless of thread count
//! or scheduling. Parallelism changes wall-clock time and nothing else,
//! which is what lets `satn-sim` checkpoint fingerprints and `satn-bench`
//! golden files act as oracles for the parallel engine.
//!
//! ## Design
//!
//! * No dependencies (the build environment has no crates.io access; no
//!   rayon). Workers are [`std::thread::scope`] threads, so borrowed inputs
//!   need no `'static` gymnastics.
//! * Work distribution is an atomic work counter: workers claim the next
//!   index with a single `fetch_add`, so load balancing is dynamic (a slow
//!   cell never serializes the grid) while claim overhead stays one atomic
//!   per item.
//! * Each worker buffers `(index, result)` pairs locally; the caller's
//!   thread merges them back into input order after the scope joins. No
//!   locks anywhere on the hot path.
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

use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

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
/// `items.iter().map(f).collect()`.
///
/// Work is claimed one item at a time, which suits the coarse work items of
/// this workspace (a scenario cell runs for milliseconds to seconds).
///
/// # Panics
///
/// Propagates the first panic raised by `f` after all workers have stopped.
pub fn ordered_map<T, R, F>(items: &[T], parallelism: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = parallelism.threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            return local;
                        }
                        local.push((index, f(&items[index])));
                    }
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

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, result) in buckets.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "index {index} claimed twice");
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

/// Runs `f` over every item on up to `parallelism` worker threads — with
/// **exclusive mutable access** to each item — and feeds the results to
/// `consume` on the calling thread **in input order, streamed as each
/// result's prefix completes**: `consume(i, r)` is invoked as soon as the
/// results of items `0..=i` all exist, without waiting for the rest of the
/// input (the "streaming variant" of [`ordered_map`] the sharded serving
/// engine drains batches through).
///
/// Items are claimed dynamically (a slow item never serializes the rest) and
/// each worker gets `&mut T`, so the items themselves can be stateful workers
/// — e.g. a shard holding a tree plus its pending request batch. Like every
/// primitive of this crate, the observable outcome (item states after the
/// call, the `(index, result)` sequence seen by `consume`) is bit-identical
/// at every thread count; only wall-clock time changes.
///
/// # Panics
///
/// Propagates the first panic raised by `f` after all workers have stopped.
pub fn for_each_ordered<T, R, F, C>(items: &mut [T], parallelism: Parallelism, f: F, mut consume: C)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = parallelism.threads().min(items.len());
    if workers <= 1 {
        for (index, item) in items.iter_mut().enumerate() {
            consume(index, f(index, item));
        }
        return;
    }

    let total = items.len();
    // Workers pull `(index, &mut item)` pairs from a shared hand-out queue
    // (one short lock per claim — items here are coarse, a whole batch of
    // requests each) and push results through a channel; the calling thread
    // reorders arrivals into input order and consumes completed prefixes.
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        let (sender, receiver) = mpsc::channel::<(usize, R)>();
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let sender = sender.clone();
                let queue = &queue;
                let f = &f;
                scope.spawn(move || loop {
                    let claimed = queue.lock().expect("claim lock never poisons").next();
                    let Some((index, item)) = claimed else { return };
                    // A send can only fail if the consumer panicked and the
                    // receiver is gone; stop quietly, the panic wins.
                    if sender.send((index, f(index, item))).is_err() {
                        return;
                    }
                })
            })
            .collect();
        drop(sender);

        let mut pending: Vec<Option<R>> = (0..total).map(|_| None).collect();
        let mut cursor = 0usize;
        while let Ok((index, result)) = receiver.recv() {
            debug_assert!(pending[index].is_none(), "item {index} finished twice");
            pending[index] = Some(result);
            while cursor < total {
                match pending[cursor].take() {
                    Some(ready) => {
                        consume(cursor, ready);
                        cursor += 1;
                    }
                    None => break,
                }
            }
        }
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        assert_eq!(cursor, total, "every item is consumed exactly once");
    });
}

/// A handle for spawning dynamically discovered tasks onto the scoped pool
/// of a [`task_scope`] call.
///
/// Unlike the ordered-map primitives above — whose work list is known up
/// front — a task scope accepts tasks as they appear (e.g. one per accepted
/// network connection) and runs them on a **bounded** set of workers: with
/// `W` workers, at most `W` tasks run concurrently and the rest queue in
/// submission order. Tasks may borrow anything that outlives the
/// [`task_scope`] call, exactly like [`std::thread::scope`] threads.
pub struct TaskScope<'env> {
    state: Mutex<TaskQueue<'env>>,
    available: Condvar,
    gauges: Option<&'env satn_obs::TaskGauges>,
}

struct TaskQueue<'env> {
    tasks: VecDeque<Box<dyn FnOnce() + Send + 'env>>,
    closed: bool,
}

impl<'env> TaskScope<'env> {
    /// Enqueues a task; an idle worker picks it up in submission order.
    /// Tasks produce results through whatever shared state they borrow (a
    /// channel, a mutex-guarded vector) — the scope itself returns nothing.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'env) {
        let mut state = self.state.lock().expect("task queue lock never poisons");
        assert!(!state.closed, "spawn after the task scope closed");
        state.tasks.push_back(Box::new(task));
        drop(state);
        if let Some(gauges) = self.gauges {
            gauges.queued.inc();
        }
        self.available.notify_one();
    }

    fn next_task(&self) -> Option<Box<dyn FnOnce() + Send + 'env>> {
        let mut state = self.state.lock().expect("task queue lock never poisons");
        loop {
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("task queue lock never poisons");
        }
    }

    fn close(&self) {
        self.state
            .lock()
            .expect("task queue lock never poisons")
            .closed = true;
        self.available.notify_all();
    }
}

impl fmt::Debug for TaskScope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().expect("task queue lock never poisons");
        f.debug_struct("TaskScope")
            .field("queued", &state.tasks.len())
            .field("closed", &state.closed)
            .finish()
    }
}

/// Runs `f` with a [`TaskScope`] handle backed by `parallelism` workers,
/// then waits for every spawned task to finish before returning `f`'s
/// result — the dynamic-work sibling of [`ordered_map`], for work that is
/// *discovered* rather than known up front (accepted connections, queue
/// items).
///
/// Workers run concurrently with `f` itself, so a task spawned early makes
/// progress while `f` is still producing more (an accept loop handles its
/// first connection while waiting for the next). At least one worker always
/// runs even under [`Parallelism::Serial`]; serial mode bounds concurrent
/// tasks to one, it does not defer them until `f` returns.
///
/// When `gauges` is provided, spawned tasks move its
/// `queued → running → completed` gauges as they progress through the pool.
/// The gauge updates are relaxed atomics on the existing lock boundaries —
/// instrumentation adds no lock and no allocation to the task path.
///
/// # Panics
///
/// Propagates the first panic raised by a task (after all workers have
/// stopped) — mirroring the ordered-map primitives. Queued tasks behind a
/// panicking worker may be abandoned. A panicking task is neither completed
/// nor decremented from `running` — the whole scope is unwinding at that
/// point and the gauges are advisory.
pub fn task_scope<'env, R>(
    parallelism: Parallelism,
    gauges: Option<&'env satn_obs::TaskGauges>,
    f: impl FnOnce(&TaskScope<'env>) -> R,
) -> R {
    let scope = TaskScope {
        state: Mutex::new(TaskQueue {
            tasks: VecDeque::new(),
            closed: false,
        }),
        available: Condvar::new(),
        gauges,
    };
    let workers = parallelism.threads();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let scope = &scope;
                s.spawn(move || {
                    while let Some(task) = scope.next_task() {
                        if let Some(gauges) = scope.gauges {
                            gauges.queued.dec();
                            gauges.running.inc();
                        }
                        task();
                        if let Some(gauges) = scope.gauges {
                            gauges.running.dec();
                            gauges.completed.inc();
                        }
                    }
                })
            })
            .collect();
        // Close on every exit path: if `f` panics without this, the workers
        // would wait on the condvar forever and the enclosing thread scope
        // would never join.
        struct CloseOnExit<'a, 'env>(&'a TaskScope<'env>);
        impl Drop for CloseOnExit<'_, '_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let result = {
            let _close = CloseOnExit(&scope);
            f(&scope)
        };
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    #[test]
    fn for_each_ordered_streams_prefixes_in_input_order() {
        let mut items: Vec<u64> = (0..137).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
            Parallelism::Auto,
        ] {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            for_each_ordered(
                &mut items,
                parallelism,
                |index, item| {
                    *item += 1;
                    *item * index as u64
                },
                |index, result| seen.push((index, result)),
            );
            // Consumption is strictly in input order, every item exactly once.
            let indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
            assert_eq!(
                indices,
                (0..items.len()).collect::<Vec<_>>(),
                "{parallelism:?}"
            );
        }
        // The mutations applied by all four passes accumulated determinately.
        assert_eq!(items[0], 4);
        assert_eq!(items[136], 140);
    }

    #[test]
    fn for_each_ordered_mutates_items_exactly_once() {
        let mut items = vec![0u32; 513];
        for_each_ordered(
            &mut items,
            Parallelism::Threads(4),
            |_, item| *item += 1,
            |_, ()| {},
        );
        assert!(items.iter().all(|&n| n == 1));
    }

    #[test]
    fn for_each_ordered_worker_panics_propagate() {
        let mut items: Vec<i32> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_ordered(
                &mut items,
                Parallelism::Threads(3),
                |_, n| {
                    assert!(*n != 17, "boom");
                    *n
                },
                |_, _| {},
            );
        }));
        assert!(result.is_err());
    }

    #[test]
    fn task_scope_runs_every_spawned_task() {
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(3),
            Parallelism::Auto,
        ] {
            let done = Mutex::new(Vec::new());
            let produced = task_scope(parallelism, None, |scope| {
                for task in 0..17 {
                    let done = &done;
                    scope.spawn(move || done.lock().unwrap().push(task));
                }
                "from f"
            });
            assert_eq!(produced, "from f");
            let mut done = done.into_inner().unwrap();
            done.sort_unstable();
            assert_eq!(done, (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn task_scope_tasks_run_while_f_is_still_producing() {
        // A task spawned first can complete (and unblock `f`) before `f`
        // returns: `f` waits on a channel that only the task feeds.
        let (sender, receiver) = mpsc::channel();
        task_scope(Parallelism::Serial, None, |scope| {
            scope.spawn(move || sender.send(42u32).unwrap());
            assert_eq!(receiver.recv().unwrap(), 42);
        });
    }

    #[test]
    fn task_scope_tasks_borrow_the_environment() {
        let words = ["rotor".to_owned(), "walk".to_owned()];
        let lengths = Mutex::new(0usize);
        task_scope(Parallelism::Threads(2), None, |scope| {
            for word in &words {
                let lengths = &lengths;
                scope.spawn(move || *lengths.lock().unwrap() += word.len());
            }
        });
        assert_eq!(lengths.into_inner().unwrap(), 9);
    }

    #[test]
    fn task_scope_gauges_settle_to_the_task_count() {
        let gauges = satn_obs::TaskGauges::new();
        task_scope(Parallelism::Threads(3), Some(&gauges), |scope| {
            for _ in 0..25 {
                scope.spawn(|| {});
            }
        });
        assert_eq!(gauges.completed.get(), 25);
        assert_eq!(gauges.queued.get(), 0);
        assert_eq!(gauges.running.get(), 0);
    }

    #[test]
    fn task_scope_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            task_scope(Parallelism::Threads(2), None, |scope| {
                scope.spawn(|| panic!("boom"));
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn for_each_ordered_handles_empty_and_singleton() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_ordered(
            &mut empty,
            Parallelism::Auto,
            |_, n| *n,
            |_, _| unreachable!(),
        );
        let mut one = vec![41u8];
        let mut seen = Vec::new();
        for_each_ordered(
            &mut one,
            Parallelism::Threads(8),
            |_, n| {
                *n += 1;
                *n
            },
            |i, r| seen.push((i, r)),
        );
        assert_eq!(seen, vec![(0, 42)]);
        assert_eq!(one, vec![42]);
    }
}
