//! The drain machinery of [`ShardedEngine`](crate::ShardedEngine):
//! [`DrainControl`] decides *when* an automatic drain fires, which the
//! resharding drain fence relies on; [`Shards`] holds the per-shard trees
//! and batches; and [`DrainPool`] serves one drain's batches on the
//! engine's long-lived workers and on the engine thread itself.

use satn_core::SelfAdjustingTree;
use satn_exec::Parallelism;
use satn_obs::{Counter, EngineMetrics};
use satn_tree::{CostSummary, ElementId, TreeError, TreeSnapshot};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

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

/// One shard: its tree plus the batch of localized requests accumulated for
/// the next drain.
pub(crate) struct Shard {
    pub(crate) tree: Box<dyn SelfAdjustingTree + Send>,
    pub(crate) pending: Vec<ElementId>,
    /// Served or rebuilt since the last snapshot publication, so the next
    /// one must recapture this shard's tree instead of sharing its `Arc`.
    pub(crate) changed: bool,
    /// The snapshot this shard's last publication replaced, kept as the
    /// buffer of its next capture. Dropped by any publication that does not
    /// recapture the shard, so it lives for at most one publication.
    pub(crate) spare: Option<Arc<TreeSnapshot>>,
}

impl Shard {
    /// Captures the tree into the spare buffer when nothing else holds it
    /// (no hub, reader, or snapshot), and into a new allocation otherwise,
    /// counting the new allocation in `allocations`.
    pub(crate) fn capture(&mut self, allocations: &Counter) -> Arc<TreeSnapshot> {
        if let Some(mut spare) = self.spare.take() {
            if let Some(buffer) = Arc::get_mut(&mut spare) {
                buffer.recapture(self.tree.occupancy());
                return spare;
            }
        }
        allocations.inc();
        Arc::new(TreeSnapshot::capture(self.tree.occupancy()))
    }

    /// Serves the pending batch through
    /// [`SelfAdjustingTree::serve_batch`] and consumes it (a failing batch's
    /// unserved tail is discarded). With `capture` set, a batch served
    /// without error is also captured for the drain's publication.
    fn serve_pending(&mut self, capture: bool, allocations: &Counter) -> ShardOutcome {
        let mut delta = CostSummary::new();
        let outcome = self.tree.serve_batch(&self.pending, &mut delta);
        self.pending.clear();
        self.changed = true;
        let capture = (capture && outcome.is_ok()).then(|| self.capture(allocations));
        (delta, outcome, capture)
    }
}

/// What serving one shard's batch produced: the cost of the requests
/// served, the batch's outcome, and the shard's capture (if one was asked
/// for and the batch served cleanly).
pub(crate) type ShardOutcome = (
    CostSummary,
    Result<(), TreeError>,
    Option<Arc<TreeSnapshot>>,
);

/// The engine's shards, indexed by shard. A slot is empty only while
/// [`DrainPool::drain`] has its shard out being served, and that call puts
/// every shard back before it returns or unwinds.
pub(crate) struct Shards(Vec<Option<Shard>>);

const AWAY: &str = "a shard is away only inside a drain";

impl Shards {
    /// One shard per tree, each with an empty batch.
    pub(crate) fn new(trees: Vec<Box<dyn SelfAdjustingTree + Send>>) -> Self {
        Shards(
            trees
                .into_iter()
                .map(|tree| {
                    Some(Shard {
                        tree,
                        pending: Vec::new(),
                        changed: false,
                        spare: None,
                    })
                })
                .collect(),
        )
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The shards in shard order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Shard> {
        self.0.iter().map(|slot| slot.as_ref().expect(AWAY))
    }

    /// The shards in shard order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.0.iter_mut().map(|slot| slot.as_mut().expect(AWAY))
    }
}

impl Index<usize> for Shards {
    type Output = Shard;

    fn index(&self, shard: usize) -> &Shard {
        self.0[shard].as_ref().expect(AWAY)
    }
}

impl IndexMut<usize> for Shards {
    fn index_mut(&mut self, shard: usize) -> &mut Shard {
        self.0[shard].as_mut().expect(AWAY)
    }
}

/// One non-empty shard on its way to whichever thread serves it.
struct Job {
    index: u32,
    shard: Shard,
    capture: bool,
}

/// One shard back from being served, with its outcome or the payload of
/// the panic its tree raised.
struct Served {
    index: u32,
    shard: Shard,
    result: thread::Result<ShardOutcome>,
}

impl Job {
    /// Serves the job, catching a panicking tree so the shard still comes
    /// back to the engine.
    fn serve(self, allocations: &Counter) -> Served {
        let Job {
            index,
            mut shard,
            capture,
        } = self;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            shard.serve_pending(capture, allocations)
        }));
        Served {
            index,
            shard,
            result,
        }
    }
}

/// What the engine thread and the workers share. The lock is held only to
/// queue, claim or hand back a job, never while a tree serves, so it never
/// poisons and no thread ever waits on it for long.
struct Shared {
    state: Mutex<State>,
    /// Wakes workers: jobs were queued, or the pool is shutting down.
    work: Condvar,
    /// Wakes the engine thread: the last job a worker held is back.
    done: Condvar,
    metrics: Arc<EngineMetrics>,
}

#[derive(Default)]
struct State {
    /// The drain's unclaimed jobs, in ascending shard order.
    jobs: VecDeque<Job>,
    /// Jobs the workers have served, in completion order.
    served: Vec<Served>,
    /// Jobs a worker has claimed and not yet handed back.
    in_flight: usize,
    shutdown: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the drain lock is never held while a tree serves")
    }

    /// A worker's life: claim and serve jobs until the pool shuts down,
    /// sleeping on `work` while the queue is empty.
    fn work(&self) {
        let allocations = &self.metrics.snapshot_capture_allocations;
        let mut state = self.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                state.in_flight += 1;
                drop(state);
                let served = job.serve(allocations);
                state = self.lock();
                state.served.push(served);
                state.in_flight -= 1;
                if state.in_flight == 0 && state.jobs.is_empty() {
                    self.done.notify_one();
                }
            } else if state.shutdown {
                return;
            } else {
                state = self
                    .work
                    .wait(state)
                    .expect("the drain lock is never held while a tree serves");
            }
        }
    }
}

/// The engine's drain workers: `min(threads, shards) − 1` long-lived
/// threads, spawned once per engine, plus the engine thread itself, which
/// claims jobs from the same queue while it waits. [`Parallelism::Serial`]
/// spawns nothing and drains on the engine thread alone.
///
/// Each non-empty shard moves by value to the thread that serves it and
/// comes back with its outcome. Results are handed to the engine in
/// ascending shard order, so which thread served which shard never shows
/// in the ledger, the fingerprints or the captures. Between drains the
/// workers sleep on a condition variable. Dropping the pool wakes them to
/// exit and joins them.
pub(crate) struct DrainPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The drain in progress, reused across drains: every shard served,
    /// then every outcome, both in ascending shard order.
    served: Vec<Served>,
    outcomes: Vec<(u32, ShardOutcome)>,
}

impl DrainPool {
    /// A pool serving `shards` shards on at most `parallelism.threads()`
    /// threads, the engine thread included. Captures that allocate are
    /// counted in `metrics`.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a worker thread.
    pub(crate) fn new(
        parallelism: Parallelism,
        shards: usize,
        metrics: Arc<EngineMetrics>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            work: Condvar::new(),
            done: Condvar::new(),
            metrics,
        });
        let workers = (1..parallelism.threads().min(shards))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("satn-drain-{worker}"))
                    .spawn(move || shared.work())
                    .expect("failed to spawn a drain worker")
            })
            .collect();
        DrainPool {
            shared,
            workers,
            served: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Serves every shard with a non-empty batch, capturing each cleanly
    /// served shard when `capture` is set, and returns one
    /// `(shard, (delta, outcome, capture))` per served shard in ascending
    /// shard order. Shards with nothing buffered are never dispatched.
    ///
    /// # Panics
    ///
    /// If a tree panics, every shard is put back first and the panic of the
    /// lowest-indexed panicking shard is then resumed on the caller.
    pub(crate) fn drain(
        &mut self,
        shards: &mut Shards,
        capture: bool,
    ) -> impl Iterator<Item = (u32, ShardOutcome)> + '_ {
        let shared = &*self.shared;
        let allocations = &shared.metrics.snapshot_capture_allocations;
        let mut state = shared.lock();
        for (index, slot) in (0..).zip(&mut shards.0) {
            if slot.as_ref().is_some_and(|shard| !shard.pending.is_empty()) {
                let shard = slot.take().expect("checked above");
                state.jobs.push_back(Job {
                    index,
                    shard,
                    capture,
                });
            }
        }
        // The engine thread keeps one job for itself.
        let helpers = self.workers.len().min(state.jobs.len().saturating_sub(1));
        drop(state);
        for _ in 0..helpers {
            shared.work.notify_one();
        }
        // Serve alongside the workers until the queue is empty, then wait
        // for the jobs they still hold. Neither step ever holds the lock
        // while a tree serves.
        loop {
            let job = shared.lock().jobs.pop_front();
            let Some(job) = job else { break };
            self.served.push(job.serve(allocations));
        }
        let mut state = shared.lock();
        while state.in_flight > 0 {
            state = shared
                .done
                .wait(state)
                .expect("the drain lock is never held while a tree serves");
        }
        self.served.append(&mut state.served);
        drop(state);

        self.served.sort_unstable_by_key(|served| served.index);
        let mut panicked = None;
        for Served {
            index,
            shard,
            result,
        } in self.served.drain(..)
        {
            shards.0[index as usize] = Some(shard);
            match result {
                Ok(outcome) => self.outcomes.push((index, outcome)),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            self.outcomes.clear();
            panic::resume_unwind(payload);
        }
        self.outcomes.drain(..)
    }
}

#[cfg(test)]
impl DrainPool {
    /// The pool's worker count, and a handle to the state its workers
    /// share, which upgrades only while the pool or a worker still runs.
    pub(crate) fn watch(&self) -> (usize, std::sync::Weak<impl Sized>) {
        (self.workers.len(), Arc::downgrade(&self.shared))
    }
}

impl Drop for DrainPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            // Trees never panic a worker (`Job::serve` catches them), so a
            // join error cannot carry anything worth re-raising here.
            let _ = worker.join();
        }
    }
}
