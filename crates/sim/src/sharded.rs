//! Declarative sharded scenarios: one global workload partitioned across
//! per-shard trees.
//!
//! A [`ShardedScenario`] describes a sharded serving run the same way a
//! [`Scenario`] describes a single-tree run: algorithm, workload family,
//! sizes, seed — plus a shard count and a routing policy. Its key property
//! is that it *derives the serial reference replay*. Every shard's epoch-0
//! tree comes from one construction, [`ShardedScenario::shard_trees`], which
//! the sharded engine (`satn-serve`) builds its shards with too.
//! [`ShardedScenario::epoch_replay`] serves each epoch's localized
//! subsequences on those live trees through [`SimRunner`], and at every
//! handover rebuilds each shard from the replay's own occupancies and
//! exported states. It digests its own placements into [`Fingerprint`]s, so
//! the oracle stays derived. [`ShardedScenario::shard_scenarios`] states
//! epoch 0 as standalone per-shard [`Scenario`]s.

use crate::runner::{SimError, SimRunner};
use crate::scenario::{Checkpoints, InitialPlacement, Scenario, WorkloadSpec};
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_tree::{CompleteTree, ElementId, Fingerprint, Occupancy, ShardedCostSummary, TreeError};
use satn_workloads::shard::{
    algorithm_seed, carry_remap, handover, shard_epoch_seed, Partition, ReshardEvent, ReshardPlan,
    ReshardPolicy, ShardRouter,
};
use satn_workloads::Workload;
use std::collections::VecDeque;

/// When (and how) a sharded scenario reshards mid-stream. Both the serving
/// engine and [`ShardedScenario::epoch_replay`] run it through the one
/// [`ReshardDriver`] that [`ReshardSchedule::driver`] builds.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReshardSchedule {
    /// Never reshard: the epoch-0 partition serves the whole stream (the
    /// pre-epoch behavior).
    #[default]
    Static,
    /// Explicit handovers: apply each event's plan after its `at`-th global
    /// request; an event at or past the stream end fires at the end of the
    /// run. Positions must be strictly increasing.
    Manual(Vec<ReshardEvent>),
    /// Load-adaptive handovers: the policy observes the routed stream and
    /// fires at its cadence. The schedule is a pure function of the stream,
    /// so the engine and the reference replay, feeding the same driver the
    /// same requests, always agree on every epoch.
    Policy(ReshardPolicy),
}

impl ReshardSchedule {
    /// The driver that fires this schedule over a partition of `universe`
    /// elements into `shards` shards.
    ///
    /// # Errors
    ///
    /// Describes the fault if a manual schedule's positions are not
    /// strictly increasing, a manual plan names an element outside the
    /// universe or a shard out of range ([`ReshardPlan::check_fits`]), or a
    /// policy's cadence is zero.
    pub fn driver(&self, universe: u32, shards: u32) -> Result<ReshardDriver, String> {
        let mut driver = ReshardDriver::default();
        match self {
            ReshardSchedule::Static => {}
            ReshardSchedule::Manual(events) => {
                if !events.windows(2).all(|pair| pair[0].at < pair[1].at) {
                    return Err("manual reshard positions must be strictly increasing".to_owned());
                }
                for event in events {
                    event
                        .plan
                        .check_fits(universe, shards)
                        .map_err(|error| error.to_string())?;
                }
                driver.manual = events.iter().cloned().collect();
            }
            ReshardSchedule::Policy(policy) => {
                if policy.every() == 0 {
                    return Err("the reshard cadence must be positive".to_owned());
                }
                driver.policy = Some(policy.clone());
                driver.window = vec![0; universe as usize];
            }
        }
        Ok(driver)
    }
}

/// Decides when a [`ReshardSchedule`] fires, for the serving engine and
/// [`ShardedScenario::epoch_replay`] alike. Both call it at the same two
/// points of every request — [`ReshardDriver::due`] before routing it,
/// [`ReshardDriver::observe`] after — and `due(usize::MAX)` once the stream
/// ends, so they close the same epochs with the same plans.
#[derive(Debug, Clone, Default)]
pub struct ReshardDriver {
    /// The manual events still to fire, in stream order.
    manual: VecDeque<ReshardEvent>,
    /// The load-adaptive policy, if the schedule has one.
    policy: Option<ReshardPolicy>,
    /// Requests per element since the policy last ran.
    window: Vec<u64>,
    /// Requests observed since the policy last ran.
    since: usize,
}

impl ReshardDriver {
    /// Pops the next manual event if it is due after `submitted` requests,
    /// returning its plan. Pass `usize::MAX` at the end of the stream to
    /// fire the events scheduled at or past its end.
    #[inline]
    pub fn due(&mut self, submitted: usize) -> Option<ReshardPlan> {
        if self.manual.front()?.at > submitted {
            return None;
        }
        self.manual.pop_front().map(|event| event.plan)
    }

    /// Counts one routed request. At every `every`-th request the policy
    /// derives a plan from the window (which then resets); a non-empty plan
    /// is returned and the caller reshards — an empty plan stays in the
    /// current epoch.
    ///
    /// # Panics
    ///
    /// Panics if the element is outside the driver's universe.
    #[inline]
    pub fn observe(&mut self, element: ElementId, partition: &Partition) -> Option<ReshardPlan> {
        let policy = self.policy.as_ref()?;
        self.window[element.usize()] += 1;
        self.since += 1;
        if self.since < policy.every() {
            return None;
        }
        self.since = 0;
        let plan = policy.plan(partition, &self.window);
        self.window.fill(0);
        (!plan.is_empty()).then_some(plan)
    }
}

/// The one reshard handover: touched shards carry their exported
/// rotor/recency/generator state through the handover remap, untouched
/// shards keep their live trees. Kept only because `perfbench/` still names
/// it; no field or argument of this type selects behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HandoverMode {
    /// The warm handover, the only one there is.
    #[default]
    Warm,
}

/// One fully determined sharded serving run.
///
/// The global element universe has `shards × (2^shard_levels − 1)` elements;
/// `router` assigns each element to its owning shard, whose tree is sized to
/// the smallest complete tree fitting its owned set (exactly
/// `shard_levels` levels under [`ShardRouter::Range`], which partitions into
/// equal blocks; possibly one level more or less under the scattering
/// policies).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedScenario {
    /// The algorithm managing every per-shard tree.
    pub algorithm: AlgorithmKind,
    /// The request source, over the global universe.
    pub workload: WorkloadSpec,
    /// Number of shards.
    pub shards: u32,
    /// Baseline per-shard tree depth: each shard nominally owns
    /// `2^shard_levels − 1` elements.
    pub shard_levels: u32,
    /// Number of requests in the global stream.
    pub requests: usize,
    /// The base random seed (workload stream + per-shard derived seeds).
    pub seed: u64,
    /// How requests are assigned to shards.
    pub router: ShardRouter,
    /// The initial element placement of every shard tree.
    pub initial: InitialPlacement,
    /// When (and how) the partition reshards mid-stream.
    pub reshard: ReshardSchedule,
    /// Read by nothing: kept only because `perfbench/` still sets it. Every
    /// handover is warm (see [`ShardedScenario::epoch_replay`]).
    pub handover: HandoverMode,
}

impl ShardedScenario {
    /// Creates a sharded scenario with hash routing and a random initial
    /// placement; adjust the public fields for anything else.
    pub fn new(
        algorithm: AlgorithmKind,
        workload: WorkloadSpec,
        shards: u32,
        shard_levels: u32,
        requests: usize,
        seed: u64,
    ) -> Self {
        ShardedScenario {
            algorithm,
            workload,
            shards,
            shard_levels,
            requests,
            seed,
            router: ShardRouter::Hash,
            initial: InitialPlacement::Random,
            reshard: ReshardSchedule::Static,
            handover: HandoverMode::Warm,
        }
    }

    /// The skewed-routing preset: range routing plus a
    /// [`WorkloadSpec::HotShard`] stream with one block per shard, so each
    /// phase hammers a single shard and the hot shard moves between phases —
    /// the workload dynamic resharding exists to absorb. Attach a
    /// [`ReshardSchedule::Policy`] to let the engine react.
    pub fn hot_shard(
        algorithm: AlgorithmKind,
        shards: u32,
        shard_levels: u32,
        requests: usize,
        seed: u64,
        phases: usize,
        a: f64,
    ) -> Self {
        let mut scenario = ShardedScenario::new(
            algorithm,
            WorkloadSpec::Uniform,
            shards,
            shard_levels,
            requests,
            seed,
        );
        scenario.workload = WorkloadSpec::HotShard {
            phases,
            a,
            blocks: shards,
        };
        scenario.router = ShardRouter::Range;
        scenario
    }

    /// A human-readable name identifying the sharded run.
    pub fn name(&self) -> String {
        let reshard = match &self.reshard {
            ReshardSchedule::Static => String::new(),
            ReshardSchedule::Manual(events) => format!("/reshard-manual({})", events.len()),
            ReshardSchedule::Policy(policy) => format!("/reshard-every-{}", policy.every()),
        };
        format!(
            "sharded/{}/{}/{}/S{}xL{}/s{}{}",
            self.algorithm,
            self.workload.label(),
            self.router,
            self.shards,
            self.shard_levels,
            self.seed,
            reshard
        )
    }

    /// Elements nominally owned per shard (`2^shard_levels − 1`).
    pub fn shard_capacity(&self) -> u32 {
        (1u32 << self.shard_levels) - 1
    }

    /// Size of the global element universe.
    pub fn universe(&self) -> u32 {
        self.shards * self.shard_capacity()
    }

    /// The global request stream (deterministic in the scenario's seed).
    pub fn stream(&self) -> Box<dyn Iterator<Item = ElementId> + Send + '_> {
        self.workload
            .stream(self.universe(), self.requests, self.seed)
    }

    /// The materialized element-to-shard assignment of the router.
    pub fn partition(&self) -> Partition {
        Partition::new(self.router, self.universe(), self.shards)
    }

    /// The derived base seed of one `(shard, epoch)` pair — every epoch's
    /// fresh tree instances draw from their own seed, decorrelated across
    /// shards and epochs alike.
    pub fn shard_epoch_seed(&self, shard: u32, epoch: u32) -> u64 {
        shard_epoch_seed(self.seed, shard, epoch)
    }

    /// Derives the standalone per-shard reference scenarios of **epoch 0**:
    /// shard `s`'s scenario serves exactly the localized subsequence of the
    /// global stream that routes to `s` under the initial partition, on a
    /// tree sized by [`Partition::shard_levels`], seeded with
    /// [`ShardedScenario::shard_epoch_seed`] at epoch 0.
    ///
    /// Each scenario instantiates exactly the tree
    /// [`ShardedScenario::shard_trees`] builds for its shard, so running
    /// them through [`SimRunner`](crate::SimRunner) serially is the
    /// *reference replay* of a static (non-resharding) engine run:
    /// per-shard cost summaries and final checkpoint fingerprints must
    /// coincide byte for byte with the engine's concurrent run (the
    /// `satn-serve` property tests assert exactly this). For a scenario with
    /// a reshard schedule, the full oracle is
    /// [`ShardedScenario::epoch_replay`]; this method still describes epoch 0
    /// as if the whole stream were served there.
    pub fn shard_scenarios(&self) -> Vec<Scenario> {
        let partition = self.partition();
        let split = partition.split_stream(self.stream());
        self.epoch_scenarios(&partition, split)
    }

    /// Builds every shard's epoch-0 tree under `partition`, which must be
    /// this scenario's [`ShardedScenario::partition`]: the tree of the
    /// shard's epoch-0 [`Scenario`], with the same levels, seeds and initial
    /// placement. Only the offline algorithm (Static-Opt) lays its tree out
    /// from the shard's subsequence, so only then is the stream generated
    /// and split, once, and each tree is laid out from its split slice;
    /// every online tree is built without it.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed shard whose tree cannot be built, with the
    /// reason.
    pub fn shard_trees(
        &self,
        partition: &Partition,
    ) -> Result<Vec<Box<dyn SelfAdjustingTree + Send>>, (u32, TreeError)> {
        let split = (self.algorithm == AlgorithmKind::StaticOpt)
            .then(|| partition.split_stream(self.stream()));
        // The scenarios carry no requests: a tree is built from the levels,
        // seeds and initial placement, plus the slice an offline layout needs.
        let empty = vec![Vec::new(); partition.shards() as usize];
        (0..)
            .zip(self.epoch_scenarios(partition, empty))
            .map(|(shard, scenario)| {
                let sequence = split
                    .as_ref()
                    .map_or(&[][..], |split| &split[shard as usize]);
                scenario
                    .instantiate_with(sequence)
                    .map_err(|error| (shard, error))
            })
            .collect()
    }

    /// The standalone per-shard scenarios of epoch 0: shard `s` serves its
    /// localized subsequence `split[s]` on a tree sized by the partition,
    /// seeded with [`ShardedScenario::shard_epoch_seed`], from the
    /// scenario's initial placement.
    fn epoch_scenarios(&self, partition: &Partition, split: Vec<Vec<ElementId>>) -> Vec<Scenario> {
        (0..)
            .zip(split)
            .map(|(shard, subsequence)| {
                let levels = partition.shard_levels(shard);
                let requests = subsequence.len();
                let workload = Workload::new(
                    format!("{}#s{}", self.workload.label(), shard),
                    (1u32 << levels) - 1,
                    subsequence,
                );
                Scenario {
                    algorithm: self.algorithm,
                    workload: WorkloadSpec::Fixed(workload),
                    levels,
                    requests,
                    seed: self.shard_epoch_seed(shard, 0),
                    checkpoints: Checkpoints::final_only(),
                    initial: self.initial.clone(),
                }
            })
            .collect()
    }

    /// The epoch-segmented serial reference replay — the byte-exact oracle
    /// of a resharding engine run.
    ///
    /// Builds one live tree per shard ([`ShardedScenario::shard_trees`]) and
    /// walks the global stream once, routing each request into the current
    /// epoch's per-shard batches under that epoch's partition and asking the
    /// schedule's [`ReshardDriver`] at the engine's two firing points. When
    /// it fires, the epoch closes: each shard's batch is served on its tree
    /// through [`SimRunner::run_stream`], in shard order, and the trees'
    /// placements are digested. The plan is then applied to the closing
    /// partition, and the deterministic [`handover`] is recomputed from the
    /// replay's own occupancies — never taken from an engine. Finally
    /// **every** shard is rebuilt: from the handover's placement if the plan
    /// touches it and from its own live placement otherwise, carrying its
    /// exported state through [`carry_remap`] into
    /// [`AlgorithmKind::instantiate_warm`]. The engine keeps untouched trees
    /// live, so the export → carry → import round trip stays checked against
    /// it. At most two partitions are alive at once. An engine run matches
    /// this replay at every thread count, drain cadence, and ingestion
    /// framing, or it has a bug.
    ///
    /// # Errors
    ///
    /// Propagates the first failing tree build or per-shard batch, in
    /// epoch-major shard order.
    ///
    /// # Panics
    ///
    /// Panics if the scenario pairs an offline algorithm with any schedule
    /// but [`ReshardSchedule::Static`] (Static-Opt computes its layout from
    /// the whole future subsequence, which no online handover can know), or
    /// if [`ReshardSchedule::driver`] rejects the schedule.
    pub fn epoch_replay(&self, runner: &SimRunner) -> Result<ShardedReplay, SimError> {
        assert!(
            self.reshard == ReshardSchedule::Static || self.algorithm != AlgorithmKind::StaticOpt,
            "resharding is not supported for offline algorithms"
        );
        let mut driver = self
            .reshard
            .driver(self.universe(), self.shards)
            .unwrap_or_else(|reason| panic!("{reason}"));
        let mut replay = ShardedReplay {
            fingerprints: Vec::new(),
            accounting: ShardedCostSummary::new(self.shards),
            boundaries: Vec::new(),
        };
        let mut partition = self.partition();
        let mut trees = self
            .shard_trees(&partition)
            .map_err(|(_, error)| SimError::Tree(error))?;
        let mut stream = self.stream();
        let mut submitted = 0;
        loop {
            // Route requests into the epoch until the driver fires at one of
            // the engine's two points, or the stream ends.
            let mut split = vec![Vec::new(); self.shards as usize];
            let plan = loop {
                if let Some(plan) = driver.due(submitted) {
                    break Some(plan);
                }
                let Some(element) = stream.next() else {
                    break driver.due(usize::MAX);
                };
                let (shard, local) = partition
                    .localize(element)
                    .expect("scenario streams stay inside the universe");
                split[shard as usize].push(local);
                submitted += 1;
                if let Some(plan) = driver.observe(element, &partition) {
                    break Some(plan);
                }
            };
            for (shard, (tree, batch)) in (0..).zip(trees.iter_mut().zip(&split)) {
                let summary = runner.run_stream(
                    tree.as_mut(),
                    batch.iter().copied(),
                    batch.len(),
                    Checkpoints::final_only(),
                    &mut [],
                )?;
                replay.accounting.merge_into_shard(shard, &summary);
            }
            replay.fingerprints.push(
                trees
                    .iter()
                    .map(|tree| tree.occupancy().fingerprint())
                    .collect(),
            );
            let Some(plan) = plan else {
                return Ok(replay);
            };
            replay.boundaries.push(submitted);
            let epoch = replay.fingerprints.len() as u32;
            let next = partition
                .apply(&plan)
                .expect("the driver only fires plans that fit the partition");
            let outcome = {
                let occupancies: Vec<&Occupancy> =
                    trees.iter().map(|tree| tree.occupancy()).collect();
                handover(&partition, &next, &plan, &occupancies)
            };
            replay.accounting.begin_epoch(outcome.migration);
            // Rebuild every shard, touched or not. An untouched shard starts
            // from its live placement verbatim — padding elements included,
            // wherever push-downs drifted them — and carries its state under
            // the identity remap.
            for (shard, (tree, placement)) in (0..).zip(trees.iter_mut().zip(outcome.placements)) {
                let geometry = CompleteTree::with_levels(next.shard_levels(shard))
                    .expect("partitions produce valid shard depths");
                let placement =
                    placement.unwrap_or_else(|| tree.occupancy().placement_in_heap_order());
                let state = tree
                    .export_state()
                    .carried_into(geometry, &carry_remap(&partition, &next, shard));
                *tree = self.algorithm.instantiate_warm(
                    Occupancy::from_placement(geometry, placement)?,
                    algorithm_seed(self.shard_epoch_seed(shard, epoch)),
                    &[],
                    &state,
                )?;
            }
            partition = next;
        }
    }

    /// The serial per-shard reference fingerprints after the first `prefix`
    /// global requests — the oracle for **snapshot reads**: a serving
    /// engine's published snapshot stamped with `prefix` accounted requests
    /// must carry exactly these per-shard [`Fingerprint`]s (`satn-serve`'s
    /// `snapshot_reads` property test asserts this at every thread count),
    /// so every lookup answered from that snapshot reflects the serial
    /// replay's state at that checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates the first failing per-shard run, in shard order.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of
    /// [`ShardedScenario::prefix_occupancies`].
    pub fn prefix_fingerprints(
        &self,
        runner: &SimRunner,
        prefix: usize,
    ) -> Result<Vec<Fingerprint>, SimError> {
        let occupancies = self.prefix_occupancies(runner, prefix)?;
        Ok(occupancies.iter().map(Occupancy::fingerprint).collect())
    }

    /// The serial per-shard reference placements after the first `prefix`
    /// global requests, which [`ShardedScenario::prefix_fingerprints`]
    /// digests; a lookup answered from a snapshot stamped `prefix` must
    /// find its element on the node these placements give it.
    ///
    /// Each shard's localized subsequence of the first `prefix` requests is
    /// replayed through a standalone per-shard [`Scenario`] — the same
    /// construction as [`ShardedScenario::shard_scenarios`], truncated.
    ///
    /// # Errors
    ///
    /// Propagates the first failing per-shard run, in shard order.
    ///
    /// # Panics
    ///
    /// Panics for a scenario with a reshard schedule: prefixes of a
    /// resharding run are epoch-dependent; its oracle is
    /// [`ShardedScenario::epoch_replay`].
    pub fn prefix_occupancies(
        &self,
        runner: &SimRunner,
        prefix: usize,
    ) -> Result<Vec<Occupancy>, SimError> {
        assert!(
            matches!(self.reshard, ReshardSchedule::Static),
            "prefix fingerprints are defined for static schedules only"
        );
        let partition = self.partition();
        let split = partition.split_stream(self.stream().take(prefix));
        self.epoch_scenarios(&partition, split)
            .iter()
            .map(|scenario| runner.run(scenario).map(|result| result.final_occupancy))
            .collect()
    }
}

/// The outcome of an epoch-segmented serial reference replay
/// ([`ShardedScenario::epoch_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedReplay {
    /// The digest of every shard's final placement,
    /// `fingerprints[epoch][shard]`.
    pub fingerprints: Vec<Vec<Fingerprint>>,
    /// The full epoch-versioned ledger: per-epoch sub-summaries, migration
    /// costs, and all-time per-shard totals.
    pub accounting: ShardedCostSummary,
    /// `boundaries[k]` = global requests served before epoch `k + 1` began.
    pub boundaries: Vec<usize>,
}

impl ShardedReplay {
    /// The fingerprint of one shard at the end of one epoch.
    ///
    /// # Panics
    ///
    /// Panics if the epoch or shard is out of range.
    pub fn fingerprint(&self, epoch: u32, shard: u32) -> Fingerprint {
        self.fingerprints[epoch as usize][shard as usize]
    }

    /// Number of epochs of the replay (at least one).
    pub fn epochs(&self) -> u32 {
        self.fingerprints.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRunner;
    use satn_tree::CostSummary;
    use satn_workloads::shard::ReshardPlan;

    fn scenario(router: ShardRouter) -> ShardedScenario {
        let mut s = ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Zipf { a: 1.5 },
            4,
            5,
            2_000,
            7,
        );
        s.router = router;
        s
    }

    /// Serves `batches[s]` on shard `s`'s epoch-0 tree from
    /// [`ShardedScenario::shard_trees`], returning each shard's costs and
    /// the trees.
    fn serve_on_shard_trees(
        sharded: &ShardedScenario,
        batches: &[Vec<ElementId>],
    ) -> (Vec<CostSummary>, Vec<Box<dyn SelfAdjustingTree + Send>>) {
        let mut trees = sharded.shard_trees(&sharded.partition()).unwrap();
        let costs = trees
            .iter_mut()
            .zip(batches)
            .map(|(tree, batch)| tree.serve_sequence(batch).unwrap())
            .collect();
        (costs, trees)
    }

    #[test]
    fn shard_scenarios_cover_the_whole_stream() {
        for router in ShardRouter::ALL {
            let sharded = scenario(router);
            let shards = sharded.shard_scenarios();
            assert_eq!(shards.len(), 4);
            let total: usize = shards.iter().map(|s| s.requests).sum();
            assert_eq!(total, 2_000, "{router}");
        }
    }

    #[test]
    fn shard_scenarios_are_reproducible_and_runnable() {
        let sharded = scenario(ShardRouter::Hash);
        let first = sharded.shard_scenarios();
        let second = sharded.shard_scenarios();
        assert_eq!(first, second);
        let runner = SimRunner::new();
        for shard_scenario in &first {
            let result = runner.run(shard_scenario).unwrap();
            assert_eq!(result.summary.requests() as usize, shard_scenario.requests);
            assert!(runner.replay_matches(shard_scenario).unwrap());
        }
    }

    #[test]
    fn prefix_fingerprints_interpolate_the_replay() {
        let sharded = scenario(ShardRouter::Hash);
        let runner = SimRunner::new();
        // The full-length prefix is the replay itself, byte for byte.
        let full = sharded
            .prefix_fingerprints(&runner, sharded.requests)
            .unwrap();
        let replay = sharded.epoch_replay(&runner).unwrap();
        for shard in 0..4 {
            assert_eq!(full[shard as usize], replay.fingerprint(0, shard));
        }
        // Mid-stream prefixes are deterministic and genuinely intermediate:
        // at least one shard's tree still differs from its final state.
        let mid = sharded.prefix_fingerprints(&runner, 700).unwrap();
        assert_eq!(mid, sharded.prefix_fingerprints(&runner, 700).unwrap());
        assert_ne!(mid, full);
    }

    #[test]
    #[should_panic(expected = "static schedules only")]
    fn prefix_fingerprints_reject_reshard_schedules() {
        let mut sharded = scenario(ShardRouter::Hash);
        sharded.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 500,
            max_moves: 8,
        });
        let _ = sharded.prefix_fingerprints(&SimRunner::new(), 100);
    }

    #[test]
    fn range_routing_gives_every_shard_the_nominal_depth() {
        let sharded = scenario(ShardRouter::Range);
        for shard_scenario in sharded.shard_scenarios() {
            assert_eq!(shard_scenario.levels, 5);
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let sharded = scenario(ShardRouter::Hash);
        let seeds: Vec<u64> = (0..4).map(|s| sharded.shard_epoch_seed(s, 0)).collect();
        let mut deduped = seeds.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), 4);
        assert_eq!(
            seeds,
            (0..4)
                .map(|s| sharded.shard_epoch_seed(s, 0))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn offline_static_opt_shards_receive_their_subsequences() {
        let mut sharded = scenario(ShardRouter::Range);
        sharded.algorithm = AlgorithmKind::StaticOpt;
        let runner = SimRunner::new();
        for shard_scenario in sharded.shard_scenarios() {
            // Static-Opt needs the whole per-shard sequence for its layout;
            // the Fixed workload carries exactly that.
            let result = runner.run(&shard_scenario).unwrap();
            assert_eq!(result.summary.requests() as usize, shard_scenario.requests);
        }
    }

    #[test]
    fn names_identify_the_configuration() {
        let name = scenario(ShardRouter::Range).name();
        assert!(name.contains("rotor-push"));
        assert!(name.contains("range"));
        assert!(name.contains("S4xL5"));

        let mut scheduled = scenario(ShardRouter::Hash);
        scheduled.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 500,
            max_moves: 8,
        });
        assert!(scheduled.name().contains("reshard-every-500"));
    }

    #[test]
    fn static_epoch_replay_reduces_to_the_single_epoch_reference() {
        let sharded = scenario(ShardRouter::Hash);
        let runner = SimRunner::new();
        let replay = sharded.epoch_replay(&runner).unwrap();
        assert_eq!(replay.epochs(), 1);
        assert!(replay.boundaries.is_empty());
        assert_eq!(replay.accounting.current_epoch(), 0);
        // Identical to the flat shard_scenarios() reference, scenario for
        // scenario (epoch-0 workload names use the epoch-tagged labels).
        for (shard, reference) in sharded.shard_scenarios().iter().enumerate() {
            let expected = runner.run(reference).unwrap();
            let shard = shard as u32;
            assert_eq!(replay.accounting.epoch(0).shard(shard), &expected.summary);
            assert_eq!(
                replay.fingerprint(0, shard),
                expected.final_occupancy.fingerprint()
            );
        }
        assert_eq!(replay.epochs() as usize, replay.accounting.epochs().len());
    }

    #[test]
    fn manual_reshard_segments_the_replay_and_prices_the_handover() {
        let mut sharded = scenario(ShardRouter::Range);
        // Move the first two elements of shard 0 to shard 3 after 800
        // requests.
        sharded.reshard = ReshardSchedule::Manual(vec![ReshardEvent {
            at: 800,
            plan: ReshardPlan::new([(ElementId::new(0), 3), (ElementId::new(1), 3)]),
        }]);
        let runner = SimRunner::new();
        let replay = sharded.epoch_replay(&runner).unwrap();
        assert_eq!(replay, sharded.epoch_replay(&runner).unwrap());
        assert_eq!(replay.epochs(), 2);
        assert_eq!(replay.boundaries, vec![800]);

        // The stream is fully covered across epochs and shards, split at the
        // boundary.
        let total: u64 = replay.accounting.requests();
        assert_eq!(total, 2_000);
        assert_eq!(replay.accounting.epochs().len(), 2);
        assert_eq!(replay.accounting.epoch(0).requests(), 800);
        assert_eq!(replay.accounting.epoch(1).requests(), 1_200);

        // The handover moved two elements and was not free.
        let migration = replay.accounting.migration_total();
        assert_eq!(migration.moved, 2);
        assert!(
            migration.total() >= 4,
            "delete + insert cost at least 2 each"
        );
    }

    #[test]
    fn each_epoch_is_localized_under_its_own_partition() {
        // Range over 2 shards of 3 elements: 0-2 | 3-5. Element 0 moves to
        // shard 1 after 4 requests.
        let stream = [0u32, 3, 0, 4, 0, 3, 5, 1].map(ElementId::new).to_vec();
        let mut sharded = ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Fixed(Workload::new("fixed", 6, stream)),
            2,
            2,
            8,
            5,
        );
        sharded.router = ShardRouter::Range;
        sharded.reshard = ReshardSchedule::Manual(vec![ReshardEvent {
            at: 4,
            plan: ReshardPlan::new([(ElementId::new(0), 1)]),
        }]);
        let replay = sharded.epoch_replay(&SimRunner::new()).unwrap();
        assert_eq!(replay.boundaries, vec![4]);
        let requests = |epoch: u32| -> Vec<u64> {
            (0..2)
                .map(|shard| replay.accounting.epoch(epoch).shard(shard).requests())
                .collect()
        };
        // Epoch 0: shard 0 sees globals {0, 0}, shard 1 globals {3, 4}, as
        // locals [0, 0] and [0, 1] on the epoch-0 trees.
        assert_eq!(requests(0), vec![2, 2]);
        let locals = |ids: &[u32]| ids.iter().copied().map(ElementId::new).collect();
        let (costs, _) = serve_on_shard_trees(&sharded, &[locals(&[0, 0]), locals(&[0, 1])]);
        for shard in 0..2 {
            assert_eq!(
                replay.accounting.epoch(0).shard(shard),
                &costs[shard as usize],
                "epoch 0 shard {shard}"
            );
        }
        // Epoch 1: globals 0, 3, 5, 1. Shard 0 now owns {1, 2} and shard 1
        // owns {0, 3, 4, 5}, so shard 0 serves one request and shard 1
        // three; under epoch 0's partition it would be two and two.
        assert_eq!(requests(1), vec![1, 3]);
    }

    #[test]
    fn policy_replay_reshards_against_the_hot_shard_stream() {
        let mut sharded =
            ShardedScenario::hot_shard(AlgorithmKind::RotorPush, 4, 5, 4_000, 11, 8, 2.0);
        sharded.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
            every: 250,
            max_moves: 8,
        });
        let runner = SimRunner::new();
        let replay = sharded.epoch_replay(&runner).unwrap();
        assert!(
            replay.epochs() > 1,
            "the hot-shard stream must trigger the policy"
        );
        assert!(replay.accounting.migration_total().moved > 0);
        // Boundaries fire only at the policy cadence.
        for boundary in &replay.boundaries {
            assert_eq!(boundary % 250, 0);
        }
        // The whole derivation is deterministic.
        let again = sharded.epoch_replay(&runner).unwrap();
        assert_eq!(replay, again);
    }

    #[test]
    fn warm_epoch_replay_continues_untouched_shards_like_live_trees() {
        for algorithm in [
            AlgorithmKind::RotorPush,
            AlgorithmKind::MaxPush,
            AlgorithmKind::RandomPush,
        ] {
            let mut sharded = scenario(ShardRouter::Range);
            sharded.algorithm = algorithm;
            // Moving two elements grows shard 3 past its nominal capacity,
            // so the carried states cross both an identity remap (shards 1
            // and 2) and a genuine resize (shard 3).
            sharded.reshard = ReshardSchedule::Manual(vec![ReshardEvent {
                at: 800,
                plan: ReshardPlan::new([(ElementId::new(0), 3), (ElementId::new(1), 3)]),
            }]);
            let runner = SimRunner::new();
            let replay = sharded.epoch_replay(&runner).unwrap();
            assert_eq!(replay.epochs(), 2, "{algorithm}");
            assert_eq!(replay.accounting.epochs().len(), 2, "{algorithm}");
            // The replay rebuilds shards 1 and 2 from their exported states;
            // their owned sets did not change, so trees that were never
            // rebuilt must serve both epochs exactly as the replay does.
            let partition = sharded.partition();
            let mut epochs = [vec![Vec::new(); 4], vec![Vec::new(); 4]];
            for (position, element) in sharded.stream().enumerate() {
                let (shard, local) = partition.localize(element).unwrap();
                epochs[usize::from(position >= 800)][shard as usize].push(local);
            }
            let (first, mut trees) = serve_on_shard_trees(&sharded, &epochs[0]);
            for shard in [1u32, 2] {
                let index = shard as usize;
                let label = format!("{algorithm} shard {shard}");
                assert_eq!(replay.accounting.epoch(0).shard(shard), &first[index]);
                let second = trees[index].serve_sequence(&epochs[1][index]).unwrap();
                assert_eq!(replay.accounting.epoch(1).shard(shard), &second, "{label}");
                assert_eq!(
                    replay.fingerprint(1, shard),
                    trees[index].occupancy().fingerprint(),
                    "{label}"
                );
            }
            // The whole warm derivation is deterministic.
            assert_eq!(replay, sharded.epoch_replay(&runner).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "offline algorithms")]
    fn resharding_static_opt_is_rejected() {
        let mut sharded = scenario(ShardRouter::Range);
        sharded.algorithm = AlgorithmKind::StaticOpt;
        sharded.reshard = ReshardSchedule::Manual(vec![ReshardEvent {
            at: 100,
            plan: ReshardPlan::new([(ElementId::new(0), 1)]),
        }]);
        let _ = sharded.epoch_replay(&SimRunner::new());
    }

    #[test]
    #[should_panic(expected = "offline algorithms")]
    fn static_opt_replays_reject_schedules_that_never_fire() {
        let mut sharded = scenario(ShardRouter::Range);
        sharded.algorithm = AlgorithmKind::StaticOpt;
        sharded.reshard = ReshardSchedule::Manual(vec![]);
        let _ = sharded.epoch_replay(&SimRunner::new());
    }

    #[test]
    fn reshard_driver_fires_the_policy_at_its_cadence() {
        let partition = Partition::new(ShardRouter::Range, 8, 2);
        let policy = ReshardPolicy::MoveHottest {
            every: 4,
            max_moves: 2,
        };
        // A stream hammering shard 0.
        let stream: Vec<ElementId> = (0..16).map(|i| ElementId::new(i % 3)).collect();

        let mut driver = ReshardSchedule::Policy(policy.clone())
            .driver(8, 2)
            .unwrap();
        let mut current = partition.clone();
        let mut fired = Vec::new();
        for (position, &element) in stream.iter().enumerate() {
            assert_eq!(driver.due(position), None, "a policy has no manual events");
            if let Some(plan) = driver.observe(element, &current) {
                current = current.apply(&plan).unwrap();
                fired.push((position + 1, plan));
            }
        }
        assert!(!fired.is_empty());
        for (boundary, _) in &fired {
            assert_eq!(boundary % 4, 0, "fires only at the cadence");
        }

        // The reference, without the driver: the policy's plan for every
        // `every`-sized window, counted by hand.
        let mut reference = Vec::new();
        let mut current = partition;
        for (index, chunk) in stream.chunks_exact(policy.every()).enumerate() {
            let mut window = vec![0u64; 8];
            for element in chunk {
                window[element.usize()] += 1;
            }
            let plan = policy.plan(&current, &window);
            if !plan.is_empty() {
                current = current.apply(&plan).unwrap();
                reference.push(((index + 1) * policy.every(), plan));
            }
        }
        assert_eq!(fired, reference);
    }

    #[test]
    fn hot_shard_preset_concentrates_load_per_phase() {
        let sharded = ShardedScenario::hot_shard(AlgorithmKind::MoveHalf, 4, 5, 2_000, 3, 4, 2.2);
        assert_eq!(sharded.router, ShardRouter::Range);
        assert!(sharded.name().contains("hot-shard"));
        let partition = sharded.partition();
        // Within one phase, every request lands on a single shard.
        let stream: Vec<ElementId> = sharded.stream().collect();
        let phase_length = 2_000usize.div_ceil(4);
        let mut hot_shards = Vec::new();
        for phase in stream.chunks(phase_length) {
            let shard = partition.shard_of(phase[0]).unwrap();
            assert!(phase.iter().all(|&e| partition.shard_of(e) == Some(shard)));
            hot_shards.push(shard);
        }
        hot_shards.dedup();
        assert!(hot_shards.len() > 1, "the hot shard never moved");
    }
}
