//! Declarative sharded scenarios: one global workload partitioned across
//! per-shard trees.
//!
//! A [`ShardedScenario`] describes a sharded serving run the same way a
//! [`Scenario`] describes a single-tree run: algorithm, workload family,
//! sizes, seed — plus a shard count and a routing policy. Its key property
//! is that it *derives the serial reference replay*: every shard maps to a
//! standalone [`Scenario`] ([`ShardedScenario::shard_scenarios`]) whose tree,
//! seeds and request subsequence are exactly what the sharded engine
//! (`satn-serve`) builds for that shard, so the existing [`SimRunner`] /
//! observer machinery produces the per-shard cost summaries and final
//! placements the engine must reproduce exactly. The replay digests its own
//! final placements into [`Fingerprint`]s, so the oracle stays derived.

use crate::runner::{ScenarioResult, SimError, SimRunner};
use crate::scenario::{Checkpoints, InitialPlacement, Scenario, WorkloadSpec};
use satn_core::{AlgorithmKind, WarmState};
use satn_tree::{CompleteTree, ElementId, Fingerprint, LayoutKind, Occupancy, ShardedCostSummary};
use satn_workloads::shard::{
    carry_remap, derive_schedule, handover, shard_epoch_seed, EpochedPartition, Partition,
    ReshardEvent, ReshardPolicy, ShardRouter,
};
use satn_workloads::Workload;

/// When (and how) a sharded scenario reshards mid-stream.
///
/// (Deliberately exhaustive: the serving engine mirrors every variant
/// online, so a new schedule kind must be handled there too.)
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ReshardSchedule {
    /// Never reshard: the epoch-0 partition serves the whole stream (the
    /// pre-epoch behavior).
    #[default]
    Static,
    /// Explicit handovers: apply each event's plan after its `at`-th global
    /// request. Positions must be strictly increasing.
    Manual(Vec<ReshardEvent>),
    /// Load-adaptive handovers: the policy observes the routed stream and
    /// fires at its cadence. The schedule is a pure function of the stream,
    /// so the engine (applying it online) and the reference replay (deriving
    /// it offline) always agree on every epoch.
    Policy(ReshardPolicy),
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
    /// Storage layout of every shard tree's occupancy (performance knob;
    /// all fingerprints are layout-invariant).
    pub layout: LayoutKind,
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
            layout: LayoutKind::default(),
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

    /// The derived base seed of one shard in epoch 0: decorrelated per shard
    /// so shard trees never share placement or algorithm randomness, yet
    /// fully determined by the scenario seed.
    pub fn shard_seed(&self, shard: u32) -> u64 {
        self.shard_epoch_seed(shard, 0)
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
    /// [`ShardedScenario::shard_seed`].
    ///
    /// Running each of these through [`SimRunner`](crate::SimRunner) serially
    /// is the *reference replay* of a static (non-resharding) engine run:
    /// per-shard cost summaries and final checkpoint fingerprints must
    /// coincide byte for byte with the engine's concurrent run (the
    /// `satn-serve` property tests assert exactly this). For a scenario with
    /// a reshard schedule, the full oracle is
    /// [`ShardedScenario::epoch_replay`]; this method still describes epoch 0
    /// as if the whole stream were served there.
    pub fn shard_scenarios(&self) -> Vec<Scenario> {
        let partition = self.partition();
        let split = partition.split_stream(self.stream());
        self.epoch_scenarios(0, &partition, split, None)
    }

    /// The epoch log and boundary positions of this scenario's reshard
    /// schedule — derived purely from the scenario value (for
    /// [`ReshardSchedule::Policy`], by running the policy over the stream).
    ///
    /// # Panics
    ///
    /// Panics if a manual schedule's plans do not fit the partition or its
    /// positions are not strictly increasing.
    pub fn epoch_log(&self) -> (EpochedPartition, Vec<usize>) {
        match &self.reshard {
            ReshardSchedule::Static => (
                EpochedPartition::from_partition(self.partition()),
                Vec::new(),
            ),
            ReshardSchedule::Manual(events) => {
                let mut log = EpochedPartition::from_partition(self.partition());
                let mut boundaries = Vec::with_capacity(events.len());
                let mut previous = None;
                for event in events {
                    assert!(
                        previous.is_none_or(|last| event.at > last),
                        "manual reshard positions must be strictly increasing"
                    );
                    previous = Some(event.at);
                    log.apply(event.plan.clone())
                        .expect("manual reshard plans must fit the partition");
                    // An event scheduled at or past the stream end fires at
                    // the end of the run (the engine does the same), so its
                    // effective boundary is the stream length.
                    boundaries.push(event.at.min(self.requests));
                }
                (log, boundaries)
            }
            ReshardSchedule::Policy(policy) => {
                derive_schedule(policy, self.partition(), self.stream())
            }
        }
    }

    /// The standalone per-shard scenarios of one epoch: shard `s` serves its
    /// localized subsequence on a tree sized by the epoch's partition,
    /// seeded with [`ShardedScenario::shard_epoch_seed`]. Epoch 0 starts
    /// from the scenario's initial placement; later epochs start from the
    /// explicit post-handover placements plus the per-shard warm states
    /// carried through the handover remap.
    fn epoch_scenarios(
        &self,
        epoch: u32,
        partition: &Partition,
        split: Vec<Vec<ElementId>>,
        carried: Option<(Vec<Vec<ElementId>>, Vec<WarmState>)>,
    ) -> Vec<Scenario> {
        split
            .into_iter()
            .enumerate()
            .map(|(shard, subsequence)| {
                let shard = shard as u32;
                let levels = partition.shard_levels(shard);
                let capacity = (1u32 << levels) - 1;
                let requests = subsequence.len();
                let workload = Workload::new(
                    format!("{}#e{}s{}", self.workload.label(), epoch, shard),
                    capacity,
                    subsequence,
                );
                let (initial, warm) = match &carried {
                    None => (self.initial.clone(), None),
                    Some((placements, states)) => (
                        InitialPlacement::Fixed(placements[shard as usize].clone()),
                        Some(states[shard as usize].clone()),
                    ),
                };
                Scenario {
                    algorithm: self.algorithm,
                    workload: WorkloadSpec::Fixed(workload),
                    levels,
                    requests,
                    seed: self.shard_epoch_seed(shard, epoch),
                    checkpoints: Checkpoints::final_only(),
                    initial,
                    layout: self.layout,
                    warm,
                }
            })
            .collect()
    }

    /// The epoch-segmented serial reference replay — the byte-exact oracle
    /// of a resharding engine run.
    ///
    /// Derives the epoch log, splits the global stream into per-epoch
    /// per-shard subsequences, and runs every epoch's standalone per-shard
    /// [`Scenario`]s through `runner` in epoch-major shard order. At each
    /// boundary the deterministic [`handover`] is recomputed from the
    /// replayed occupancies — never taken from an engine — so the next
    /// epoch's `InitialPlacement::Fixed` scenarios, the migration costs, and
    /// every fingerprint are *derived*, not hand-kept. An engine run matches
    /// this replay at every thread count, drain cadence, and ingestion
    /// framing, or it has a bug.
    ///
    /// # Errors
    ///
    /// Propagates the first failing per-shard run, in epoch-major shard
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the scenario reshards with an offline algorithm
    /// (Static-Opt computes its layout from the whole future subsequence,
    /// which no online handover can know), or if a manual schedule is
    /// invalid.
    pub fn epoch_replay(&self, runner: &SimRunner) -> Result<ShardedReplay, SimError> {
        let (log, boundaries) = self.epoch_log();
        assert!(
            log.len() == 1 || self.algorithm != AlgorithmKind::StaticOpt,
            "resharding is not supported for offline algorithms"
        );
        let splits = log.split_stream_epochs(&boundaries, self.stream());
        let mut accounting = ShardedCostSummary::new(self.shards);
        let mut scenarios = Vec::with_capacity(log.len());
        let mut results: Vec<Vec<ScenarioResult>> = Vec::with_capacity(log.len());
        let mut fingerprints: Vec<Vec<Fingerprint>> = Vec::with_capacity(log.len());
        let mut occupancies: Vec<Occupancy> = Vec::new();
        let mut warm_states: Vec<WarmState> = Vec::new();
        for (split, epoch) in splits.into_iter().zip(log.epochs()) {
            let partition = epoch.partition();
            let carried = (epoch.epoch() > 0).then(|| {
                let previous = log.epoch(epoch.epoch() - 1).partition();
                let refs: Vec<&Occupancy> = occupancies.iter().collect();
                let outcome = handover(previous, partition, epoch.plan(), &refs);
                accounting.begin_epoch(outcome.migration);
                // An untouched shard keeps its live tree verbatim — including
                // padding elements wherever push-downs drifted them — because
                // the engine never rebuilds it. The replay therefore seeds
                // those shards from the live occupancy.
                let placements = outcome
                    .placements
                    .into_iter()
                    .zip(&occupancies)
                    .map(|(placement, live)| {
                        placement.unwrap_or_else(|| live.placement_in_heap_order())
                    })
                    .collect();
                // Carry every shard's exported state through the handover
                // remap onto the epoch's (possibly resized) tree; untouched
                // shards carry under the identity remap, i.e. verbatim.
                let warm = (0..self.shards)
                    .map(|shard| {
                        let remap = carry_remap(previous, partition, shard);
                        let tree = CompleteTree::with_levels(partition.shard_levels(shard))
                            .expect("partitions produce valid shard depths");
                        warm_states[shard as usize].carried_into(tree, &remap)
                    })
                    .collect();
                (placements, warm)
            });
            let epoch_scenarios = self.epoch_scenarios(epoch.epoch(), partition, split, carried);
            let mut epoch_results = Vec::with_capacity(epoch_scenarios.len());
            occupancies.clear();
            warm_states.clear();
            for (shard, scenario) in epoch_scenarios.iter().enumerate() {
                let result = runner.run(scenario)?;
                accounting.merge_into_shard(shard as u32, &result.summary);
                occupancies.push(result.final_occupancy());
                warm_states.push(result.final_warm.clone());
                epoch_results.push(result);
            }
            fingerprints.push(occupancies.iter().map(Occupancy::fingerprint).collect());
            scenarios.push(epoch_scenarios);
            results.push(epoch_results);
        }
        Ok(ShardedReplay {
            scenarios,
            results,
            fingerprints,
            accounting,
            boundaries,
            log,
        })
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
        self.epoch_scenarios(0, &partition, split, None)
            .iter()
            .map(|scenario| runner.run(scenario).map(|result| result.final_occupancy()))
            .collect()
    }
}

/// The outcome of an epoch-segmented serial reference replay
/// ([`ShardedScenario::epoch_replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedReplay {
    /// The standalone per-shard scenarios, `scenarios[epoch][shard]` — each
    /// is a self-contained [`Scenario`] value that any `SimRunner` run
    /// reproduces exactly.
    pub scenarios: Vec<Vec<Scenario>>,
    /// The per-shard results, `results[epoch][shard]`.
    pub results: Vec<Vec<ScenarioResult>>,
    /// The digest of every result's final placement,
    /// `fingerprints[epoch][shard]`.
    pub fingerprints: Vec<Vec<Fingerprint>>,
    /// The full epoch-versioned ledger: per-epoch sub-summaries, migration
    /// costs, and all-time per-shard totals.
    pub accounting: ShardedCostSummary,
    /// `boundaries[k]` = global requests served before epoch `k + 1` began.
    pub boundaries: Vec<usize>,
    /// The epoch log the replay segmented the stream with.
    pub log: EpochedPartition,
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
        self.results.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRunner;
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
        let seeds: Vec<u64> = (0..4).map(|s| sharded.shard_seed(s)).collect();
        let mut deduped = seeds.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), 4);
        assert_eq!(
            seeds,
            (0..4).map(|s| sharded.shard_seed(s)).collect::<Vec<_>>()
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
        let name = scenario(ShardRouter::SourceAffinity).name();
        assert!(name.contains("rotor-push"));
        assert!(name.contains("source-affinity"));
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
            assert_eq!(replay.results[0][shard].summary, expected.summary);
            assert_eq!(
                replay.fingerprint(0, shard as u32),
                expected.final_occupancy().fingerprint()
            );
        }
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
        assert_eq!(replay.epochs(), 2);
        assert_eq!(replay.boundaries, vec![800]);

        // The stream is fully covered across epochs and shards.
        let total: u64 = replay.accounting.requests();
        assert_eq!(total, 2_000);
        assert_eq!(replay.accounting.epochs().len(), 2);

        // The handover moved two elements and was not free.
        let migration = replay.accounting.migration_total();
        assert_eq!(migration.moved, 2);
        assert!(
            migration.total() >= 4,
            "delete + insert cost at least 2 each"
        );

        // Every per-epoch scenario is standalone: an independent run of the
        // scenario value reproduces the replay byte for byte.
        for (epoch, scenarios) in replay.scenarios.iter().enumerate() {
            for (shard, reference) in scenarios.iter().enumerate() {
                let rerun = runner.run(reference).unwrap();
                assert_eq!(
                    &rerun, &replay.results[epoch][shard],
                    "epoch {epoch} shard {shard} is not standalone"
                );
            }
        }

        // Epoch 1 scenarios carry explicit fixed placements.
        for reference in &replay.scenarios[1] {
            assert!(matches!(reference.initial, InitialPlacement::Fixed(_)));
        }
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
    fn warm_epoch_replay_carries_state_and_stays_standalone() {
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
            // Epoch-1 scenarios carry warm state and stay standalone: an
            // independent run of the scenario value reproduces the replay.
            for (shard, reference) in replay.scenarios[1].iter().enumerate() {
                assert!(reference.warm.is_some(), "{algorithm} shard {shard}");
                let rerun = runner.run(reference).unwrap();
                assert_eq!(
                    &rerun, &replay.results[1][shard],
                    "{algorithm} epoch 1 shard {shard} is not standalone"
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
