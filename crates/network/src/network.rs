//! The composed multi-source self-adjusting network.

use crate::error::NetworkError;
use crate::host::{Host, HostPair};
use satn_core::AlgorithmKind;
use satn_serve::{
    EngineSnapshot, LookupAnswer, ServeError, ShardedEngine, ShardedEngineConfig, SnapshotReader,
};
use satn_sim::{InitialPlacement, ShardRouter, ShardedScenario, WorkloadSpec};
use satn_tree::{CostSummary, ElementId, Fingerprint, NodeId, ServeCost};
use satn_workloads::{fit_tree_levels, Workload};
use std::fmt;
use std::sync::Arc;

/// A reconfigurable network of `n` hosts in which every host maintains its
/// own self-adjusting *ego-tree* over the other `n − 1` hosts.
///
/// This is the composition sketched in the paper's introduction: single-source
/// tree networks are the building block of demand-aware, bounded-degree
/// reconfigurable topologies (Avin et al., DISC 2017 / APOCS 2021). A request
/// `(s, d)` is served on `s`'s ego-tree at the usual cost (depth of `d` plus
/// one, plus the adjustment swaps); the physical degree of a host is the
/// number of links it participates in across all ego-trees.
///
/// The ego-trees are the shards of one [`ShardedEngine`]. Every tree has
/// `L = fit_tree_levels(n − 1)` levels, so `c = 2^L − 1` slots: the `n − 1`
/// destinations, padded with placeholder elements that are never requested.
/// Pair `(s, d)` is the global element `s·c + d′`, where `d′` is `d` with the
/// source skipped; range routing sends it to shard `s` as local element
/// `d′`, and every tree starts from the identity placement. Randomized
/// algorithms draw shard `s`'s seed from the engine's per-shard derivation.
///
/// # Examples
///
/// ```
/// use satn_core::AlgorithmKind;
/// use satn_network::{Host, SelfAdjustingNetwork};
///
/// let mut network = SelfAdjustingNetwork::new(16, AlgorithmKind::RotorPush, 7)?;
/// // A skewed pair keeps getting cheaper as the ego-tree adapts.
/// let first = network.serve(Host::new(3), Host::new(12))?;
/// let second = network.serve(Host::new(3), Host::new(12))?;
/// assert!(second.total() <= first.total());
/// # Ok::<(), satn_network::NetworkError>(())
/// ```
pub struct SelfAdjustingNetwork {
    /// One shard per source; drained by the network itself, once per call.
    engine: ShardedEngine,
    reader: SnapshotReader,
    /// The engine's state at its last drain, which route lengths and
    /// degrees read.
    snapshot: Arc<EngineSnapshot>,
    kind: AlgorithmKind,
}

impl SelfAdjustingNetwork {
    /// Builds a network of `num_hosts` hosts whose ego-trees are all managed
    /// by `kind`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::TooFewHosts`] if `num_hosts < 2`,
    /// * [`NetworkError::Serve`] if the `num_hosts` trees of `2^L − 1` slots
    ///   hold more than `2^32` elements,
    /// * [`NetworkError::TraceRequired`] for offline algorithms — use
    ///   [`SelfAdjustingNetwork::with_trace`].
    pub fn new(num_hosts: u32, kind: AlgorithmKind, seed: u64) -> Result<Self, NetworkError> {
        if num_hosts >= 2 && kind == AlgorithmKind::StaticOpt {
            return Err(NetworkError::TraceRequired {
                algorithm: kind.name(),
            });
        }
        SelfAdjustingNetwork::with_trace(num_hosts, kind, seed, &[])
    }

    /// Builds a network, handing every source the sub-trace of destinations it
    /// will request (required by the offline [`AlgorithmKind::StaticOpt`]
    /// baseline, harmless for the online algorithms).
    ///
    /// # Errors
    ///
    /// Construction errors of [`SelfAdjustingNetwork::new`], plus
    /// [`NetworkError::UnknownHost`] / [`NetworkError::SelfLoop`] if the trace
    /// contains invalid pairs.
    pub fn with_trace(
        num_hosts: u32,
        kind: AlgorithmKind,
        seed: u64,
        trace: &[HostPair],
    ) -> Result<Self, NetworkError> {
        let scenario = scenario(num_hosts, kind, seed, trace)?;
        let mut engine = ShardedEngineConfig::from_scenario(&scenario)
            .drain_threshold(usize::MAX)
            .build()?;
        let mut reader = engine.snapshots();
        let snapshot = Arc::clone(reader.snapshot());
        Ok(SelfAdjustingNetwork {
            engine,
            reader,
            snapshot,
            kind,
        })
    }

    /// The number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.engine.shards()
    }

    /// The algorithm managing every ego-tree.
    pub fn algorithm_kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Serves one request from `source` to `destination`.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::UnknownHost`] if either endpoint is outside the
    ///   network,
    /// * [`NetworkError::SelfLoop`] if they coincide.
    pub fn serve(&mut self, source: Host, destination: Host) -> Result<ServeCost, NetworkError> {
        let element = self.element_of(HostPair::new(source, destination))?;
        self.engine.submit(element)?;
        Ok(self.drain()?.total())
    }

    /// Serves a whole trace of host pairs and returns the aggregate cost of
    /// just that trace.
    ///
    /// # Errors
    ///
    /// The error [`SelfAdjustingNetwork::serve`] reports for the first
    /// invalid pair; the pairs before it are served and accounted.
    pub fn serve_trace(&mut self, trace: &[HostPair]) -> Result<CostSummary, NetworkError> {
        let submitted = trace.iter().try_for_each(|&pair| {
            let element = self.element_of(pair)?;
            Ok::<_, NetworkError>(self.engine.submit(element)?)
        });
        let summary = self.drain()?;
        submitted.map(|()| summary)
    }

    /// Serves everything submitted and publishes the result to the
    /// snapshot that route lengths and degrees read.
    fn drain(&mut self) -> Result<CostSummary, NetworkError> {
        let summary = self.engine.drain()?;
        self.snapshot = Arc::clone(self.reader.snapshot());
        Ok(summary)
    }

    /// The cost accumulated by requests issued by `source` since construction.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the network.
    pub fn cost_of_source(&self, source: Host) -> &CostSummary {
        self.engine.accounting().shard(source.index())
    }

    /// The total cost accumulated since construction.
    pub fn total_cost(&self) -> CostSummary {
        self.engine.accounting().merged()
    }

    /// The placement digest of `source`'s ego-tree.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the network.
    pub fn fingerprint(&self, source: Host) -> Fingerprint {
        self.engine.fingerprint(source.index())
    }

    /// The current routing distance from `source` to `destination` (depth of
    /// the destination in the source's ego-tree plus one), without serving a
    /// request.
    ///
    /// # Errors
    ///
    /// Same as [`SelfAdjustingNetwork::serve`], but nothing is modified.
    pub fn route_length(&self, source: Host, destination: Host) -> Result<u64, NetworkError> {
        let element = self.element_of(HostPair::new(source, destination))?;
        Ok(self.locate(element).access_cost())
    }

    /// The current physical degree of `host`: the number of links it
    /// participates in across all ego-trees (its link to the root of its own
    /// ego-tree, its link to a source whenever it currently sits at the root
    /// of that source's tree, and its tree links to other *real* hosts).
    ///
    /// # Panics
    ///
    /// Panics if `host` is outside the network.
    pub fn physical_degree(&self, host: Host) -> u32 {
        let destinations = self.num_hosts() - 1;
        let mut degree = 1; // link from `host` to the root of its own ego-tree
        for source in (0..self.num_hosts()).map(Host::new) {
            if source == host {
                continue;
            }
            let element = self
                .element_of(HostPair::new(source, host))
                .expect("the host is inside the network");
            let LookupAnswer { shard, node, .. } = self.locate(element);
            if node == NodeId::ROOT {
                degree += 1; // link to the source attached to this root
            }
            // Tree links run only to neighbours holding a destination, not a
            // placeholder.
            let tree = self.snapshot.shard(shard);
            degree += [
                node.parent(),
                Some(node.left_child()),
                Some(node.right_child()),
            ]
            .into_iter()
            .flatten()
            .filter_map(|neighbour| tree.element_at(neighbour))
            .filter(|element| element.index() < destinations)
            .count() as u32;
        }
        degree
    }

    /// The maximum physical degree over all hosts.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_hosts())
            .map(|h| self.physical_degree(Host::new(h)))
            .max()
            .unwrap_or(0)
    }

    /// The average physical degree over all hosts.
    pub fn mean_degree(&self) -> f64 {
        let total: u64 = (0..self.num_hosts())
            .map(|h| u64::from(self.physical_degree(Host::new(h))))
            .sum();
        total as f64 / f64::from(self.num_hosts())
    }

    /// The global element of a validated pair.
    fn element_of(&self, pair: HostPair) -> Result<ElementId, NetworkError> {
        let capacity = self.engine.partition().universe() / self.num_hosts();
        element_of(self.num_hosts(), capacity, pair)
    }

    /// Where `element` sat at the last drain.
    fn locate(&self, element: ElementId) -> LookupAnswer {
        self.snapshot
            .lookup(element)
            .expect("pair elements are inside the universe")
    }
}

impl fmt::Debug for SelfAdjustingNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelfAdjustingNetwork")
            .field("num_hosts", &self.num_hosts())
            .field("algorithm", &self.kind)
            .field("total_cost", &self.total_cost())
            .finish_non_exhaustive()
    }
}

/// The sharded scenario of a network of `num_hosts` hosts serving `trace`:
/// one range-routed shard per source, each an identity-placed tree of
/// `fit_tree_levels(num_hosts − 1)` levels, with `trace` as the workload
/// (the per-source sequences Static-Opt lays its trees out from).
/// [`ShardedScenario::epoch_replay`] of it is the network's oracle.
pub(crate) fn scenario(
    num_hosts: u32,
    kind: AlgorithmKind,
    seed: u64,
    trace: &[HostPair],
) -> Result<ShardedScenario, NetworkError> {
    if num_hosts < 2 {
        return Err(NetworkError::TooFewHosts { num_hosts });
    }
    let levels = fit_tree_levels(num_hosts - 1);
    let universe = u32::try_from(u64::from(num_hosts) * ((1u64 << levels) - 1)).map_err(|_| {
        ServeError::InvalidConfig(format!(
            "{num_hosts} hosts need more than 2^32 pair elements"
        ))
    })?;
    let capacity = universe / num_hosts;
    let requests = trace
        .iter()
        .map(|&pair| element_of(num_hosts, capacity, pair))
        .collect::<Result<Vec<_>, _>>()?;
    let workload = Workload::new("host-pairs", universe, requests);
    let mut scenario = ShardedScenario::new(
        kind,
        WorkloadSpec::Fixed(workload),
        num_hosts,
        levels,
        trace.len(),
        seed,
    );
    scenario.router = ShardRouter::Range;
    scenario.initial = InitialPlacement::Identity;
    Ok(scenario)
}

/// Maps a pair to the global element `source·capacity + d′`, where `d′` is
/// the destination with the source skipped.
fn element_of(num_hosts: u32, capacity: u32, pair: HostPair) -> Result<ElementId, NetworkError> {
    for host in [pair.source, pair.destination] {
        if host.index() >= num_hosts {
            return Err(NetworkError::UnknownHost { host, num_hosts });
        }
    }
    if pair.is_self_loop() {
        return Err(NetworkError::SelfLoop { host: pair.source });
    }
    let skipped = pair.destination.index() - u32::from(pair.destination > pair.source);
    Ok(ElementId::new(pair.source.index() * capacity + skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use satn_serve::Parallelism;
    use satn_sim::SimRunner;

    #[test]
    fn repeated_pairs_become_cheap_under_rotor_push() {
        let mut network = SelfAdjustingNetwork::new(32, AlgorithmKind::RotorPush, 3).unwrap();
        let pair = HostPair::from((5u32, 29u32));
        let before = network.route_length(pair.source, pair.destination).unwrap();
        let first = network.serve(pair.source, pair.destination).unwrap();
        assert_eq!(first.access, before);
        for _ in 0..5 {
            network.serve(pair.source, pair.destination).unwrap();
        }
        let later = network.serve(pair.source, pair.destination).unwrap();
        assert!(later.total() < first.total());
        assert_eq!(
            network.route_length(pair.source, pair.destination).unwrap(),
            1
        );
    }

    #[test]
    fn per_source_and_total_costs_add_up() {
        let mut network = SelfAdjustingNetwork::new(8, AlgorithmKind::MoveHalf, 0).unwrap();
        let trace: Vec<HostPair> = vec![
            (0u32, 3u32).into(),
            (0u32, 5u32).into(),
            (4u32, 1u32).into(),
            (7u32, 0u32).into(),
        ];
        let summary = network.serve_trace(&trace).unwrap();
        assert_eq!(summary.requests(), 4);
        assert_eq!(network.total_cost().requests(), 4);
        assert_eq!(network.cost_of_source(Host::new(0)).requests(), 2);
        assert_eq!(network.cost_of_source(Host::new(4)).requests(), 1);
        assert_eq!(network.cost_of_source(Host::new(2)).requests(), 0);
        let per_source_total: u64 = (0..8)
            .map(|h| network.cost_of_source(Host::new(h)).total().total())
            .sum();
        assert_eq!(per_source_total, network.total_cost().total().total());
    }

    #[test]
    fn degrees_are_bounded_by_the_ego_tree_structure() {
        let network = SelfAdjustingNetwork::new(10, AlgorithmKind::RotorPush, 0).unwrap();
        // Every host appears in 9 foreign ego-trees with at most 3 tree links
        // each, plus at most 1 root link per tree and 1 own-tree link.
        let upper = 1 + 9 * 4;
        for host in (0..10).map(Host::new) {
            let degree = network.physical_degree(host);
            assert!(degree >= 1);
            assert!(degree <= upper, "host {host}: degree {degree}");
        }
        assert!(network.max_degree() <= upper);
        assert!(network.mean_degree() >= 1.0);
    }

    #[test]
    fn placeholder_slots_carry_no_links() {
        // 5 hosts: 4 destinations in a 7-node tree, identity-placed, so
        // nodes 4–6 of every tree hold placeholders. Host 0 is local 0 (the
        // root, linked to the source and two hosts) in every foreign tree;
        // host 4 is local 3 (a leaf below local 1) in every one.
        let network = SelfAdjustingNetwork::new(5, AlgorithmKind::RotorPush, 0).unwrap();
        let degrees: Vec<u32> = (0..5)
            .map(|h| network.physical_degree(Host::new(h)))
            .collect();
        assert_eq!(
            degrees,
            [1 + 4 * 3, 1 + 3 + 3 * 2, 1 + 2 * 2 + 2, 1 + 4, 1 + 4]
        );
    }

    #[test]
    fn pair_elements_skip_the_source_and_land_on_the_source_shard() {
        let network = SelfAdjustingNetwork::new(8, AlgorithmKind::RotorPush, 0).unwrap();
        let partition = network.engine.partition();
        for source in (0..8).map(Host::new) {
            let mut locals = Vec::new();
            for destination in (0..8).map(Host::new) {
                let element = network.element_of(HostPair::new(source, destination));
                if destination == source {
                    assert!(matches!(element, Err(NetworkError::SelfLoop { .. })));
                    continue;
                }
                let (shard, local) = partition.localize(element.unwrap()).unwrap();
                assert_eq!(shard, source.index());
                locals.push(local.index());
            }
            // The 7 destinations fill the 7-node tree in host order.
            assert_eq!(locals, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn with_trace_supports_static_opt_and_beats_oblivious_on_skew() {
        let mut trace = Vec::new();
        for _ in 0..50 {
            trace.push(HostPair::from((1u32, 14u32)));
            trace.push(HostPair::from((1u32, 2u32)));
        }
        let mut opt =
            SelfAdjustingNetwork::with_trace(16, AlgorithmKind::StaticOpt, 0, &trace).unwrap();
        let mut oblivious =
            SelfAdjustingNetwork::new(16, AlgorithmKind::StaticOblivious, 0).unwrap();
        let opt_cost = opt.serve_trace(&trace).unwrap().total().total();
        let oblivious_cost = oblivious.serve_trace(&trace).unwrap().total().total();
        assert!(opt_cost < oblivious_cost);
    }

    #[test]
    fn invalid_requests_are_rejected_and_leave_no_trace() {
        assert!(matches!(
            SelfAdjustingNetwork::new(1, AlgorithmKind::RotorPush, 0),
            Err(NetworkError::TooFewHosts { num_hosts: 1 })
        ));
        // 70,000 trees of 2^17 − 1 slots overflow the u32 element ids.
        assert!(matches!(
            SelfAdjustingNetwork::new(70_000, AlgorithmKind::RotorPush, 0),
            Err(NetworkError::Serve(ServeError::InvalidConfig(_)))
        ));
        assert!(matches!(
            SelfAdjustingNetwork::with_trace(
                4,
                AlgorithmKind::StaticOpt,
                0,
                &[(0u32, 9u32).into()]
            ),
            Err(NetworkError::UnknownHost { .. })
        ));
        let mut network = SelfAdjustingNetwork::new(4, AlgorithmKind::RotorPush, 0).unwrap();
        assert!(matches!(
            network.serve(Host::new(9), Host::new(1)),
            Err(NetworkError::UnknownHost { .. })
        ));
        assert!(matches!(
            network.serve(Host::new(1), Host::new(9)),
            Err(NetworkError::UnknownHost { .. })
        ));
        assert!(matches!(
            network.serve(Host::new(1), Host::new(1)),
            Err(NetworkError::SelfLoop { .. })
        ));
        assert_eq!(network.total_cost().requests(), 0);
    }

    #[test]
    fn serve_trace_serves_the_prefix_before_an_invalid_pair() {
        let mut network = SelfAdjustingNetwork::new(6, AlgorithmKind::MaxPush, 0).unwrap();
        let trace: Vec<HostPair> = vec![
            (0u32, 3u32).into(),
            (2u32, 5u32).into(),
            (4u32, 4u32).into(),
            (1u32, 0u32).into(),
        ];
        assert!(matches!(
            network.serve_trace(&trace),
            Err(NetworkError::SelfLoop { .. })
        ));
        assert_eq!(network.total_cost().requests(), 2);
        assert_eq!(network.cost_of_source(Host::new(2)).requests(), 1);
        assert_eq!(network.cost_of_source(Host::new(1)).requests(), 0);
        // Route lengths read the served prefix: (0, 3) now sits at the root.
        assert_eq!(network.route_length(Host::new(0), Host::new(3)).unwrap(), 1);
    }

    /// The network is an engine run of its own scenario, so the scenario's
    /// epoch-segmented serial replay is an oracle for every source, and the
    /// engine built from it agrees with itself at every thread count.
    #[test]
    fn networks_match_the_replay_of_their_scenario_at_every_thread_count() {
        let demand = traffic::hotspot(13, 4_000, 4, 0.8, &mut StdRng::seed_from_u64(17));
        for kind in AlgorithmKind::ALL {
            let mut network =
                SelfAdjustingNetwork::with_trace(13, kind, 5, demand.pairs()).unwrap();
            network.serve_trace(demand.pairs()).unwrap();
            let sharded = scenario(13, kind, 5, demand.pairs()).unwrap();
            let replay = sharded.epoch_replay(&SimRunner::new()).unwrap();
            assert_eq!(replay.epochs(), 1);
            for source in (0..13).map(Host::new) {
                assert_eq!(
                    network.cost_of_source(source),
                    replay.accounting.shard(source.index()),
                    "{kind} {source} costs"
                );
                assert_eq!(
                    network.fingerprint(source),
                    replay.fingerprint(0, source.index()),
                    "{kind} {source} fingerprint"
                );
            }
            let reports: Vec<_> = [
                Parallelism::Serial,
                Parallelism::Threads(2),
                Parallelism::Auto,
            ]
            .into_iter()
            .map(|parallelism| {
                let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                    .parallelism(parallelism)
                    .build()
                    .unwrap();
                for element in sharded.stream() {
                    engine.submit(element).unwrap();
                }
                engine.finish().unwrap()
            })
            .collect();
            reports[0].verify_against(&replay).unwrap();
            assert_eq!(reports[0], reports[1], "{kind}: Serial vs Threads(2)");
            assert_eq!(reports[1], reports[2], "{kind}: Threads(2) vs Auto");
        }
    }

    #[test]
    fn debug_output_mentions_the_algorithm() {
        let network = SelfAdjustingNetwork::new(4, AlgorithmKind::MaxPush, 0).unwrap();
        let rendered = format!("{network:?}");
        assert!(rendered.contains("MaxPush"));
        assert!(rendered.contains("num_hosts"));
    }
}
