//! The declarative scenario grammar: what to run, on what tree, against
//! which request source, and where to checkpoint.

use rand::rngs::StdRng;
use rand::SeedableRng;
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_tree::{placement, CompleteTree, ElementId, Occupancy, TreeError};
use satn_workloads::stream::{
    CombinedStream, HotBlockStream, MarkovBurstyStream, RoundRobinPathStream,
    ShiftingHotspotStream, TemporalStream, UniformStream, ZipfStream,
};
use satn_workloads::Workload;
use std::fmt;

/// A workload family in declarative form, instantiated lazily as a stream.
///
/// Every generative variant builds on the streaming iterators of
/// [`satn_workloads::stream`], so a scenario never materializes its request
/// sequence.
/// Pre-recorded sequences (corpus books, loaded traces) plug in through
/// [`WorkloadSpec::Fixed`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadSpec {
    /// Uniform requests over the whole element universe.
    Uniform,
    /// Temporal locality: repeat the previous request with probability `p`.
    Temporal {
        /// The repeat probability.
        p: f64,
    },
    /// Spatial locality: Zipf-distributed requests with exponent `a`.
    Zipf {
        /// The Zipf exponent.
        a: f64,
    },
    /// Both kinds of locality at once (the paper's Q4 workload).
    Combined {
        /// The Zipf exponent.
        a: f64,
        /// The repeat probability.
        p: f64,
    },
    /// Round-robin requests to the element ids of the root-to-rightmost-leaf
    /// node path. This reproduces the Move-To-Front lower-bound adversary
    /// only under [`InitialPlacement::Identity`] (element `i` at node `i`);
    /// under the default random placement it is an ordinary cyclic workload
    /// over `levels` elements.
    RoundRobinPath,
    /// A two-state Markov-modulated (calm / burst) source.
    MarkovBursty {
        /// Size of the random hot set used in the burst state.
        hot_set_size: u32,
        /// Probability of entering a burst from the calm state.
        burst_entry: f64,
        /// Probability of staying in the burst state.
        burst_persistence: f64,
    },
    /// A phase-shifting Zipf workload over freshly shuffled rankings.
    ShiftingHotspot {
        /// Number of phases the sequence is split into.
        phases: usize,
        /// The Zipf exponent within each phase.
        a: f64,
    },
    /// A hot-*shard* workload: each phase's entire Zipf distribution is
    /// confined to one of `blocks` contiguous equal blocks of the universe,
    /// the hot block re-drawn per phase. Under range routing with `blocks`
    /// equal to the shard count, whole shards run hot one at a time — the
    /// skewed-routing axis that dynamic resharding reacts to.
    HotShard {
        /// Number of phases the sequence is split into.
        phases: usize,
        /// The Zipf exponent within each phase.
        a: f64,
        /// Number of contiguous blocks (usually the shard count).
        blocks: u32,
    },
    /// A pre-recorded request sequence (corpus book, loaded trace, or any
    /// hand-built [`Workload`]). The scenario's universe must still fit its
    /// tree; the sequence is replayed as-is.
    Fixed(Workload),
}

impl WorkloadSpec {
    /// A short stable label used in reports and scenario names.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Uniform => "uniform".to_owned(),
            WorkloadSpec::Temporal { p } => format!("temporal(p={p})"),
            WorkloadSpec::Zipf { a } => format!("zipf(a={a})"),
            WorkloadSpec::Combined { a, p } => format!("combined(a={a},p={p})"),
            WorkloadSpec::RoundRobinPath => "round-robin-path".to_owned(),
            WorkloadSpec::MarkovBursty { hot_set_size, .. } => {
                format!("markov-bursty(h={hot_set_size})")
            }
            WorkloadSpec::ShiftingHotspot { phases, a } => {
                format!("shifting-hotspot({phases}x,a={a})")
            }
            WorkloadSpec::HotShard { phases, a, blocks } => {
                format!("hot-shard({phases}x{blocks},a={a})")
            }
            WorkloadSpec::Fixed(workload) => workload.name().to_owned(),
        }
    }

    /// Builds the stream of `length` requests over `num_elements` elements,
    /// seeded deterministically: the same arguments always produce the same
    /// sequence. [`WorkloadSpec::Fixed`] streams borrow the stored sequence
    /// instead of copying it.
    ///
    /// The stream is `Send` so scenario cells can be generated and served
    /// inside `satn-exec` worker threads.
    pub fn stream(
        &self,
        num_elements: u32,
        length: usize,
        seed: u64,
    ) -> Box<dyn Iterator<Item = ElementId> + Send + '_> {
        let rng = StdRng::seed_from_u64(seed);
        match self {
            WorkloadSpec::Uniform => Box::new(UniformStream::new(num_elements, rng).take(length)),
            WorkloadSpec::Temporal { p } => {
                Box::new(TemporalStream::new(num_elements, *p, rng).take(length))
            }
            WorkloadSpec::Zipf { a } => {
                Box::new(ZipfStream::new(num_elements, *a, rng).take(length))
            }
            WorkloadSpec::Combined { a, p } => {
                Box::new(CombinedStream::new(num_elements, *a, *p, rng).take(length))
            }
            WorkloadSpec::RoundRobinPath => {
                Box::new(RoundRobinPathStream::new(num_elements - 1).take(length))
            }
            WorkloadSpec::MarkovBursty {
                hot_set_size,
                burst_entry,
                burst_persistence,
            } => Box::new(
                MarkovBurstyStream::new(
                    num_elements,
                    *hot_set_size,
                    *burst_entry,
                    *burst_persistence,
                    rng,
                )
                .take(length),
            ),
            WorkloadSpec::ShiftingHotspot { phases, a } => Box::new(ShiftingHotspotStream::new(
                num_elements,
                length,
                *phases,
                *a,
                rng,
            )),
            WorkloadSpec::HotShard { phases, a, blocks } => Box::new(HotBlockStream::new(
                num_elements,
                length,
                *phases,
                *a,
                *blocks,
                rng,
            )),
            WorkloadSpec::Fixed(workload) => Box::new(workload.iter().take(length)),
        }
    }

    /// The four stationary synthetic families of the paper's evaluation,
    /// at representative locality levels — the default grid axis.
    pub fn paper_families() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Uniform,
            WorkloadSpec::Temporal { p: 0.9 },
            WorkloadSpec::Zipf { a: 1.9 },
            WorkloadSpec::Combined { a: 1.9, p: 0.75 },
        ]
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error returned when parsing an unrecognised workload spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    input: String,
}

impl fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown workload {:?} (expected \"uniform\", \"temporal:P\", \"zipf:A\", \
             \"combined:A,P\", \"round-robin-path\", \"markov-bursty:H,ENTRY,PERSIST\", \
             \"shifting-hotspot:PHASES,A\", or \"hot-shard:PHASES,A,BLOCKS\")",
            self.input
        )
    }
}

impl std::error::Error for ParseWorkloadError {}

impl std::str::FromStr for WorkloadSpec {
    type Err = ParseWorkloadError;

    /// Parses the CLI-style workload grammar used by the server and
    /// load-generator binaries: a family name, optionally followed by `:`
    /// and comma-separated parameters — e.g. `uniform`, `zipf:1.8`,
    /// `combined:1.5,0.6`, `hot-shard:6,1.9,4`. [`WorkloadSpec::Fixed`]
    /// carries a materialized sequence and has no textual form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let error = || ParseWorkloadError {
            input: s.to_owned(),
        };
        let trimmed = s.trim();
        let (family, params) = match trimmed.split_once(':') {
            Some((family, params)) => (family, params.split(',').collect::<Vec<_>>()),
            None => (trimmed, Vec::new()),
        };
        fn float(token: &str) -> Option<f64> {
            token.trim().parse::<f64>().ok().filter(|v| v.is_finite())
        }
        fn int<T: std::str::FromStr>(token: &str) -> Option<T> {
            token.trim().parse::<T>().ok()
        }
        match (family.trim(), params.as_slice()) {
            ("uniform", []) => Ok(WorkloadSpec::Uniform),
            ("round-robin-path", []) => Ok(WorkloadSpec::RoundRobinPath),
            ("temporal", [p]) => float(p)
                .map(|p| WorkloadSpec::Temporal { p })
                .ok_or_else(error),
            ("zipf", [a]) => float(a).map(|a| WorkloadSpec::Zipf { a }).ok_or_else(error),
            ("combined", [a, p]) => float(a)
                .zip(float(p))
                .map(|(a, p)| WorkloadSpec::Combined { a, p })
                .ok_or_else(error),
            ("markov-bursty", [h, entry, persistence]) => int::<u32>(h)
                .zip(float(entry))
                .zip(float(persistence))
                .map(|((hot_set_size, burst_entry), burst_persistence)| {
                    WorkloadSpec::MarkovBursty {
                        hot_set_size,
                        burst_entry,
                        burst_persistence,
                    }
                })
                .ok_or_else(error),
            ("shifting-hotspot", [phases, a]) => int::<usize>(phases)
                .zip(float(a))
                .map(|(phases, a)| WorkloadSpec::ShiftingHotspot { phases, a })
                .ok_or_else(error),
            ("hot-shard", [phases, a, blocks]) => int::<usize>(phases)
                .zip(float(a))
                .zip(int::<u32>(blocks))
                .map(|((phases, a), blocks)| WorkloadSpec::HotShard { phases, a, blocks })
                .ok_or_else(error),
            _ => Err(error()),
        }
    }
}

/// The initial element placement of a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum InitialPlacement {
    /// Element `i` starts at node `i`.
    Identity,
    /// A seed-derived uniformly random bijection (the paper's methodology).
    #[default]
    Random,
}

/// When the engine pauses serving to run checkpoint observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Checkpoints {
    /// Checkpoint every `every` requests (`0` = only the final checkpoint).
    pub every: usize,
}

impl Checkpoints {
    /// Checkpoint every `every` requests plus a final checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero; use [`Checkpoints::final_only`] for that.
    pub fn every(every: usize) -> Self {
        assert!(
            every > 0,
            "use Checkpoints::final_only() for no interior checkpoints"
        );
        Checkpoints { every }
    }

    /// Only one checkpoint, after the last request.
    pub fn final_only() -> Self {
        Checkpoints { every: 0 }
    }

    /// The number of requests to serve before the next checkpoint, given
    /// `served` requests so far out of `total`.
    pub(crate) fn next_span(&self, served: usize, total: usize) -> usize {
        let remaining = total - served;
        if self.every == 0 {
            remaining
        } else {
            self.every.min(remaining)
        }
    }
}

impl Default for Checkpoints {
    fn default() -> Self {
        Checkpoints::final_only()
    }
}

/// One cell of the evaluation grid: a fully determined, reproducible run.
///
/// `seed` drives everything derived: the workload stream, the random initial
/// placement, and the algorithm's internal randomness (Random-Push), each
/// through a distinct derived seed, so scenarios differing in any field
/// produce independent but reproducible runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which algorithm serves the requests.
    pub algorithm: AlgorithmKind,
    /// The request source.
    pub workload: WorkloadSpec,
    /// Number of tree levels (the tree has `2^levels − 1` nodes).
    pub levels: u32,
    /// Number of requests to serve.
    pub requests: usize,
    /// The base random seed.
    pub seed: u64,
    /// Where to pause for checkpoint observers.
    pub checkpoints: Checkpoints,
    /// The initial element placement.
    pub initial: InitialPlacement,
}

impl Scenario {
    /// Creates a scenario with a random initial placement and a final-only
    /// checkpoint; adjust the public fields for anything else.
    pub fn new(
        algorithm: AlgorithmKind,
        workload: WorkloadSpec,
        levels: u32,
        requests: usize,
        seed: u64,
    ) -> Self {
        Scenario {
            algorithm,
            workload,
            levels,
            requests,
            seed,
            checkpoints: Checkpoints::final_only(),
            initial: InitialPlacement::Random,
        }
    }

    /// A human-readable name identifying the grid cell.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/L{}/s{}",
            self.algorithm,
            self.workload.label(),
            self.levels,
            self.seed
        )
    }

    /// The tree topology of the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or exceeds the supported depth.
    pub fn tree(&self) -> CompleteTree {
        CompleteTree::with_levels(self.levels).expect("scenario levels must be a valid tree depth")
    }

    /// The number of tree nodes (and elements).
    pub fn num_elements(&self) -> u32 {
        self.tree().num_nodes()
    }

    /// The seed of the workload stream.
    pub fn workload_seed(&self) -> u64 {
        self.seed
    }

    /// The seed of the random initial placement — decorrelated from the
    /// workload seed so the initial shuffle and the request draws never
    /// consume positionally identical generator output.
    pub fn placement_seed(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }

    /// The seed of the algorithm's internal randomness (Random-Push),
    /// derived by the workspace-wide
    /// [`satn_workloads::shard::algorithm_seed`] so the serving engine's
    /// post-handover rebuilds and this scenario's replay always agree.
    pub fn algorithm_seed(&self) -> u64 {
        satn_workloads::shard::algorithm_seed(self.seed)
    }

    /// Builds the initial occupancy.
    pub fn initial_occupancy(&self) -> Occupancy {
        let tree = self.tree();
        match &self.initial {
            InitialPlacement::Identity => Occupancy::identity(tree),
            InitialPlacement::Random => {
                placement::random_occupancy(tree, &mut StdRng::seed_from_u64(self.placement_seed()))
            }
        }
    }

    /// The request stream of this scenario.
    pub fn stream(&self) -> Box<dyn Iterator<Item = ElementId> + Send + '_> {
        self.workload
            .stream(self.num_elements(), self.requests, self.workload_seed())
    }

    /// Instantiates the scenario's algorithm, ready to serve.
    ///
    /// Offline algorithms (Static-Opt) receive the materialized sequence to
    /// compute their layout, exactly as the paper's methodology prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if the workload mentions an
    /// element outside the tree.
    pub fn instantiate(&self) -> Result<Box<dyn SelfAdjustingTree + Send>, TreeError> {
        self.instantiate_with(&self.offline_sequence().unwrap_or_default())
    }

    /// Instantiates the algorithm from an already-materialized offline
    /// sequence (as returned by [`Scenario::offline_sequence`]), so callers
    /// that also serve from that buffer generate the stream only once.
    /// Online algorithms ignore `sequence`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::ElementOutOfRange`] if the sequence mentions an
    /// element outside the tree.
    pub fn instantiate_with(
        &self,
        sequence: &[ElementId],
    ) -> Result<Box<dyn SelfAdjustingTree + Send>, TreeError> {
        self.algorithm
            .instantiate(self.initial_occupancy(), self.algorithm_seed(), sequence)
    }

    /// The materialized request sequence, if the scenario's algorithm needs
    /// the whole sequence up front for offline setup (Static-Opt); `None`
    /// for every online algorithm, which are built without materializing.
    pub fn offline_sequence(&self) -> Option<Vec<ElementId>> {
        (self.algorithm == AlgorithmKind::StaticOpt).then(|| self.stream().collect())
    }
}

/// The cartesian product `algorithms × workloads × levels`: the declarative
/// form of the paper's evaluation grid (and of any custom sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The algorithms axis.
    pub algorithms: Vec<AlgorithmKind>,
    /// The workload-family axis.
    pub workloads: Vec<WorkloadSpec>,
    /// The tree-size axis (in levels).
    pub levels: Vec<u32>,
    /// Requests per scenario.
    pub requests: usize,
    /// Base seed shared by every cell.
    pub seed: u64,
    /// Checkpointing policy of every cell.
    pub checkpoints: Checkpoints,
    /// Initial placement of every cell.
    pub initial: InitialPlacement,
}

impl ScenarioGrid {
    /// A grid over the given axes, with a random initial placement and
    /// final-only checkpoints.
    pub fn new(
        algorithms: impl Into<Vec<AlgorithmKind>>,
        workloads: impl Into<Vec<WorkloadSpec>>,
        levels: impl Into<Vec<u32>>,
        requests: usize,
        seed: u64,
    ) -> Self {
        ScenarioGrid {
            algorithms: algorithms.into(),
            workloads: workloads.into(),
            levels: levels.into(),
            requests,
            seed,
            checkpoints: Checkpoints::final_only(),
            initial: InitialPlacement::Random,
        }
    }

    /// The number of grid cells.
    pub fn len(&self) -> usize {
        self.algorithms.len() * self.workloads.len() * self.levels.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over every cell as a fully determined [`Scenario`], in
    /// size-major (levels, workload, algorithm) order.
    pub fn scenarios(&self) -> impl Iterator<Item = Scenario> + '_ {
        self.levels.iter().flat_map(move |&levels| {
            self.workloads.iter().flat_map(move |workload| {
                self.algorithms.iter().map(move |&algorithm| Scenario {
                    algorithm,
                    workload: workload.clone(),
                    levels,
                    requests: self.requests,
                    seed: self.seed,
                    checkpoints: self.checkpoints,
                    initial: self.initial.clone(),
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_streams_are_reproducible() {
        let scenario = Scenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Temporal { p: 0.8 },
            5,
            500,
            42,
        );
        let a: Vec<ElementId> = scenario.stream().collect();
        let b: Vec<ElementId> = scenario.stream().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert!(a.iter().all(|e| e.index() < scenario.num_elements()));
    }

    #[test]
    fn fixed_specs_replay_their_workload() {
        let workload = Workload::new("fixed", 7, vec![ElementId::new(3); 10]);
        let spec = WorkloadSpec::Fixed(workload.clone());
        let streamed: Vec<ElementId> = spec.stream(7, 10, 0).collect();
        assert_eq!(streamed, workload.requests());
        assert_eq!(spec.label(), "fixed");
    }

    #[test]
    fn grid_enumerates_the_full_cartesian_product() {
        let grid = ScenarioGrid::new(
            AlgorithmKind::ALL,
            WorkloadSpec::paper_families(),
            [4u32, 6, 8],
            1_000,
            7,
        );
        assert_eq!(grid.len(), 7 * 4 * 3);
        assert!(!grid.is_empty());
        let scenarios: Vec<Scenario> = grid.scenarios().collect();
        assert_eq!(scenarios.len(), grid.len());
        let mut names: Vec<String> = scenarios.iter().map(Scenario::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), grid.len(), "scenario names must be unique");
    }

    #[test]
    fn checkpoints_partition_the_sequence() {
        let checkpoints = Checkpoints::every(300);
        assert_eq!(checkpoints.next_span(0, 1_000), 300);
        assert_eq!(checkpoints.next_span(900, 1_000), 100);
        assert_eq!(Checkpoints::final_only().next_span(0, 1_000), 1_000);
        assert_eq!(Checkpoints::final_only().next_span(400, 1_000), 600);
    }

    #[test]
    #[should_panic(expected = "final_only")]
    fn zero_interval_checkpoints_are_rejected() {
        Checkpoints::every(0);
    }

    #[test]
    fn workload_specs_parse_from_the_cli_grammar() {
        assert_eq!(
            "uniform".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Uniform
        );
        assert_eq!(
            "round-robin-path".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::RoundRobinPath
        );
        assert_eq!(
            "temporal:0.9".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Temporal { p: 0.9 }
        );
        assert_eq!(
            "zipf:1.8".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Zipf { a: 1.8 }
        );
        assert_eq!(
            "combined:1.5,0.6".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Combined { a: 1.5, p: 0.6 }
        );
        assert_eq!(
            "markov-bursty:8,0.05,0.9".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::MarkovBursty {
                hot_set_size: 8,
                burst_entry: 0.05,
                burst_persistence: 0.9,
            }
        );
        assert_eq!(
            "shifting-hotspot:4,1.7".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::ShiftingHotspot { phases: 4, a: 1.7 }
        );
        assert_eq!(
            "hot-shard:6,1.9,4".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::HotShard {
                phases: 6,
                a: 1.9,
                blocks: 4,
            }
        );
        // Whitespace is tolerated around every token.
        assert_eq!(
            " combined: 1.5 , 0.6 ".parse::<WorkloadSpec>().unwrap(),
            WorkloadSpec::Combined { a: 1.5, p: 0.6 }
        );
    }

    #[test]
    fn malformed_workload_specs_are_rejected() {
        for input in [
            "",
            "nope",
            "zipf",
            "zipf:abc",
            "zipf:inf",
            "zipf:1.8,2",
            "combined:1.5",
            "uniform:1",
            "hot-shard:6,1.9",
            "markov-bursty:0.5,0.05,0.9,1",
        ] {
            let err = input.parse::<WorkloadSpec>().unwrap_err();
            assert!(err.to_string().contains("unknown workload"), "{input}");
        }
    }
}
