//! Partitioning a request stream across shards.
//!
//! The sharded serving engine (`satn-serve`) splits the element universe
//! across `S` independent per-shard trees. This module holds the pieces of
//! that split that belong with the workloads: the routing *policy*
//! ([`ShardRouter`]), the materialized element-to-shard assignment it induces
//! ([`Partition`]), and the stream adapters that turn one global request
//! stream into per-shard subsequences — all deterministic, so a sharded run
//! can be replayed shard by shard on standalone trees and compared byte for
//! byte.

use crate::workload::fit_tree_levels;
use satn_tree::{ElementId, MigrationCost, NodeId, Occupancy};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// How requests (and hence elements) are assigned to shards.
///
/// Every policy is a pure function of the element and the shard count, so the
/// same stream always partitions the same way: each fixes which shard's tree
/// stores which element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ShardRouter {
    /// Scatter by a Fibonacci multiplicative hash of the element id: shards
    /// receive pseudo-random, size-balanced-in-expectation element sets.
    #[default]
    Hash,
    /// Contiguous balanced ranges: element `e` of a universe of `U` elements
    /// goes to shard `e · S / U`. Preserves key locality within a shard.
    Range,
}

/// The Fibonacci multiplicative hash (Knuth §6.4): deterministic, fast, and
/// well-scattering for consecutive keys.
#[inline]
fn fibonacci_hash(key: u32) -> u64 {
    u64::from(key)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        >> 31
}

impl ShardRouter {
    /// Every routing policy, in a stable order (used by sweeps and tests).
    pub const ALL: [ShardRouter; 2] = [ShardRouter::Hash, ShardRouter::Range];

    /// A short stable label used in reports and scenario names.
    pub fn label(self) -> &'static str {
        match self {
            ShardRouter::Hash => "hash",
            ShardRouter::Range => "range",
        }
    }

    /// The shard an element of a `universe`-element universe is routed to.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `element` is outside the universe.
    pub fn shard_of(self, element: ElementId, universe: u32, shards: u32) -> u32 {
        assert!(shards > 0, "a partition needs at least one shard");
        assert!(
            element.index() < universe,
            "element {element} outside the {universe}-element universe"
        );
        match self {
            ShardRouter::Hash => (fibonacci_hash(element.index()) % u64::from(shards)) as u32,
            ShardRouter::Range => {
                ((u64::from(element.index()) * u64::from(shards)) / u64::from(universe)) as u32
            }
        }
    }
}

impl fmt::Display for ShardRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown router policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouterError {
    input: String,
}

impl fmt::Display for ParseRouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown shard router {:?} (expected \"hash\" or \"range\")",
            self.input
        )
    }
}

impl std::error::Error for ParseRouterError {}

impl FromStr for ShardRouter {
    type Err = ParseRouterError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hash" => Ok(ShardRouter::Hash),
            "range" => Ok(ShardRouter::Range),
            _ => Err(ParseRouterError {
                input: s.to_owned(),
            }),
        }
    }
}

/// The materialized element-to-shard assignment of a routing policy over a
/// fixed universe: global id ⇄ `(shard, local id)` lookup tables.
///
/// Local ids are assigned per shard in increasing global-id order, so the
/// mapping is a bijection between the global universe and the disjoint union
/// of the shard-local universes — every global request stream partitions into
/// per-shard streams of local ids and back without loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    router: ShardRouter,
    universe: u32,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    owned: Vec<Vec<ElementId>>,
}

impl Partition {
    /// Materializes the assignment of `router` over `universe` elements and
    /// `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `universe` is zero.
    pub fn new(router: ShardRouter, universe: u32, shards: u32) -> Self {
        assert!(universe > 0, "a partition needs a non-empty universe");
        let assignment = (0..universe)
            .map(|global| router.shard_of(ElementId::new(global), universe, shards))
            .collect();
        Partition::from_assignment(router, shards, assignment)
    }

    /// Materializes a partition from an explicit element-to-shard assignment
    /// (`assignment[global] = shard`). Local ids are re-derived canonically:
    /// per shard in increasing global-id order, exactly as in
    /// [`Partition::new`]. This is how every epoch after the initial one is
    /// built — `router` is carried along as the originating policy label.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, the assignment is empty, or any entry
    /// names a shard out of range.
    pub fn from_assignment(router: ShardRouter, shards: u32, assignment: Vec<u32>) -> Self {
        assert!(shards > 0, "a partition needs at least one shard");
        assert!(
            !assignment.is_empty(),
            "a partition needs a non-empty universe"
        );
        let mut local_of = Vec::with_capacity(assignment.len());
        let mut owned: Vec<Vec<ElementId>> = vec![Vec::new(); shards as usize];
        for (global, &shard) in assignment.iter().enumerate() {
            assert!(
                shard < shards,
                "element {global} is assigned to shard {shard} of {shards}"
            );
            local_of.push(owned[shard as usize].len() as u32);
            owned[shard as usize].push(ElementId::new(global as u32));
        }
        Partition {
            router,
            universe: assignment.len() as u32,
            shard_of: assignment,
            local_of,
            owned,
        }
    }

    /// Applies a reshard plan, producing the next epoch's partition: the
    /// moved elements change owners, and the shards that lose or gain an
    /// element re-derive their local ids canonically (increasing global-id
    /// order). Every other shard keeps its owned set and local ids
    /// unchanged — canonical numbering makes that the same result as
    /// [`Partition::from_assignment`] on the patched assignment, at a cost
    /// of the partition copy plus the touched shards, never a re-derivation
    /// of the whole universe.
    ///
    /// Moves that name an element's current shard are no-ops and are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ReshardError`] if a move names an element outside the
    /// universe or a shard out of range; the partition is not changed.
    pub fn apply(&self, plan: &ReshardPlan) -> Result<Partition, ReshardError> {
        plan.check_fits(self.universe, self.shards())?;
        let moves = self.effective_moves(plan);
        let mut next = self.clone();
        // Arrivals per destination, each list in increasing id order (the
        // plan's canonical order).
        let mut arrivals: BTreeMap<u32, Vec<ElementId>> = BTreeMap::new();
        for &(element, from, to) in &moves {
            next.shard_of[element.usize()] = to;
            arrivals.entry(from).or_default();
            arrivals.entry(to).or_default().push(element);
        }
        for (shard, arriving) in arrivals {
            let owned = &mut next.owned[shard as usize];
            owned.retain(|element| next.shard_of[element.usize()] == shard);
            owned.extend(arriving);
            // Two sorted runs (survivors, arrivals): the stable sort merges
            // them in one linear pass.
            owned.sort();
            for (local, element) in owned.iter().enumerate() {
                next.local_of[element.usize()] = local as u32;
            }
        }
        Ok(next)
    }

    /// The plan's effective moves against this partition: the
    /// `(element, from, to)` triples of every move that changes an owner, in
    /// canonical (increasing element id) order — for a valid plan, exactly
    /// `self.diff(&self.apply(plan)?)`, read off the plan instead of a
    /// universe scan.
    ///
    /// # Panics
    ///
    /// Panics if a move names an element outside the universe.
    pub fn effective_moves(&self, plan: &ReshardPlan) -> Vec<(ElementId, u32, u32)> {
        plan.moves()
            .iter()
            .filter_map(|&(element, to)| {
                let from = self.shard_of(element).unwrap_or_else(|| {
                    panic!(
                        "reshard plan moves element {element}, outside the {}-element universe",
                        self.universe
                    )
                });
                (from != to).then_some((element, from, to))
            })
            .collect()
    }

    /// The elements owned by a different shard in `newer`, as
    /// `(element, from, to)` triples in canonical (increasing element id)
    /// order. A full universe scan: the reference that
    /// [`Partition::effective_moves`] is checked against.
    ///
    /// # Panics
    ///
    /// Panics if the two partitions cover different universes.
    pub fn diff(&self, newer: &Partition) -> Vec<(ElementId, u32, u32)> {
        assert_eq!(
            self.universe, newer.universe,
            "partitions of different universes cannot be diffed"
        );
        self.shard_of
            .iter()
            .zip(&newer.shard_of)
            .enumerate()
            .filter(|(_, (from, to))| from != to)
            .map(|(global, (&from, &to))| (ElementId::new(global as u32), from, to))
            .collect()
    }

    /// The element-to-shard assignment as a slice indexed by global id.
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }

    /// The routing policy this partition originally materialized. After a
    /// reshard the assignment no longer coincides with the policy's pure
    /// function — the label identifies the epoch-0 ancestry.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Size of the global element universe.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.owned.len() as u32
    }

    /// The shard owning a global element, or `None` outside the universe.
    pub fn shard_of(&self, element: ElementId) -> Option<u32> {
        self.shard_of.get(element.usize()).copied()
    }

    /// Translates a global element into its `(shard, local id)` coordinates,
    /// or `None` outside the universe.
    pub fn localize(&self, element: ElementId) -> Option<(u32, ElementId)> {
        let shard = self.shard_of(element)?;
        Some((shard, ElementId::new(self.local_of[element.usize()])))
    }

    /// The global elements owned by `shard`, in increasing id order (= local
    /// id order).
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn owned(&self, shard: u32) -> &[ElementId] {
        &self.owned[shard as usize]
    }

    /// The tree depth (in levels) the shard's local universe needs: the
    /// smallest complete tree fitting the owned element count. Local ids
    /// beyond the owned count are padding that is never requested.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn shard_levels(&self, shard: u32) -> u32 {
        fit_tree_levels(self.owned[shard as usize].len() as u32)
    }

    /// Routes a global request stream, yielding each request as its
    /// `(shard, local id)` coordinates in stream order — the streaming
    /// adapter between one global workload and the per-shard trees.
    ///
    /// # Panics
    ///
    /// The returned iterator panics on a request outside the universe.
    pub fn route_stream<'p, I>(&'p self, stream: I) -> impl Iterator<Item = (u32, ElementId)> + 'p
    where
        I: Iterator<Item = ElementId> + 'p,
    {
        stream.map(move |element| {
            self.localize(element).unwrap_or_else(|| {
                panic!(
                    "request {element} outside the {}-element universe",
                    self.universe
                )
            })
        })
    }

    /// Splits a global request stream into the per-shard subsequences of
    /// local ids, preserving the relative order within every shard — exactly
    /// the sequences a standalone per-shard tree would serve.
    ///
    /// # Panics
    ///
    /// Panics on a request outside the universe.
    pub fn split_stream<I>(&self, stream: I) -> Vec<Vec<ElementId>>
    where
        I: Iterator<Item = ElementId>,
    {
        let mut split: Vec<Vec<ElementId>> = vec![Vec::new(); self.owned.len()];
        for (shard, local) in self.route_stream(stream) {
            split[shard as usize].push(local);
        }
        split
    }
}

/// The workspace-wide derivation of an algorithm's internal-randomness seed
/// from a scenario's base seed (matching the historical bench-harness
/// derivation, so ported experiments keep their numbers).
///
/// This is the single definition both sides of the reshard determinism
/// contract rely on: the serving engine rebuilds post-handover trees with
/// `algorithm_seed(shard_epoch_seed(base, shard, epoch))`, and the
/// reference replay's per-epoch scenarios derive exactly the same value —
/// change it here and both move together.
pub fn algorithm_seed(base: u64) -> u64 {
    base ^ 0x5DEECE66D
}

/// The derived base seed of one `(shard, epoch)` pair: decorrelated so shard
/// trees never share placement or algorithm randomness — across shards *or*
/// across the fresh per-epoch instances a reshard handover builds — yet
/// fully determined by the base seed. Epoch 0 reproduces the historical
/// per-shard derivation exactly.
pub fn shard_epoch_seed(base: u64, shard: u32, epoch: u32) -> u64 {
    base.wrapping_add(
        u64::from(shard)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
    .wrapping_add(u64::from(epoch).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Error returned for a reshard plan that does not fit its partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReshardError {
    /// A move names an element outside the partition's universe.
    ElementOutOfUniverse {
        /// The offending element.
        element: ElementId,
        /// Size of the partition's universe.
        universe: u32,
    },
    /// A move names a destination shard the partition does not have.
    ShardOutOfRange {
        /// The offending destination shard.
        shard: u32,
        /// Number of shards in the partition.
        shards: u32,
    },
}

impl fmt::Display for ReshardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshardError::ElementOutOfUniverse { element, universe } => write!(
                f,
                "reshard plan moves element {element}, outside the {universe}-element universe"
            ),
            ReshardError::ShardOutOfRange { shard, shards } => write!(
                f,
                "reshard plan targets shard {shard}, but the partition has {shards} shards"
            ),
        }
    }
}

impl std::error::Error for ReshardError {}

/// A deterministic set of ownership changes applied at one epoch boundary:
/// each entry moves one element to a new owning shard.
///
/// Plans are canonical by construction — moves are stored sorted by element
/// id — so two plans describing the same change compare equal and every
/// consumer (the serving engine's handover, the reference replay's epoch
/// segmentation) walks the moves in the same order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ReshardPlan {
    moves: Vec<(ElementId, u32)>,
}

impl ReshardPlan {
    /// Builds a plan from `(element, destination shard)` moves, normalizing
    /// to canonical (increasing element id) order.
    ///
    /// # Panics
    ///
    /// Panics if the same element is moved more than once.
    pub fn new(moves: impl IntoIterator<Item = (ElementId, u32)>) -> Self {
        match ReshardPlan::try_new(moves) {
            Ok(plan) => plan,
            Err(element) => panic!("a reshard plan may move element {element} at most once"),
        }
    }

    /// Non-panicking [`ReshardPlan::new`]: builds the canonical plan, or
    /// reports the first element moved more than once. This is the entry
    /// point for untrusted input (e.g. decoding reshard frames off a wire),
    /// where a malformed plan must surface as an error, not a panic.
    ///
    /// # Errors
    ///
    /// Returns the smallest element id that appears in more than one move.
    pub fn try_new(moves: impl IntoIterator<Item = (ElementId, u32)>) -> Result<Self, ElementId> {
        let mut moves: Vec<(ElementId, u32)> = moves.into_iter().collect();
        moves.sort_unstable_by_key(|&(element, _)| element);
        for pair in moves.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(pair[0].0);
            }
        }
        Ok(ReshardPlan { moves })
    }

    /// An empty plan (the plan "entering" epoch 0).
    pub fn empty() -> Self {
        ReshardPlan::default()
    }

    /// The moves, in canonical (increasing element id) order.
    pub fn moves(&self) -> &[(ElementId, u32)] {
        &self.moves
    }

    /// Number of moves in the plan.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the plan moves nothing.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Checks that every move names an element of a `universe`-element
    /// partition and one of its `shards` shards — the bounds
    /// [`Partition::apply`] enforces.
    ///
    /// # Errors
    ///
    /// Returns [`ReshardError`] for the first move, in canonical order, that
    /// names an element outside the universe or a shard out of range.
    pub fn check_fits(&self, universe: u32, shards: u32) -> Result<(), ReshardError> {
        for &(element, to) in &self.moves {
            if element.index() >= universe {
                return Err(ReshardError::ElementOutOfUniverse { element, universe });
            }
            if to >= shards {
                return Err(ReshardError::ShardOutOfRange { shard: to, shards });
            }
        }
        Ok(())
    }
}

/// A reshard event within a stream: after `at` global requests have been
/// served, `plan` is applied and the next epoch begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardEvent {
    /// Number of global requests served before the handover (the boundary
    /// position: request `at` is the first of the new epoch).
    pub at: usize,
    /// The ownership changes of the handover.
    pub plan: ReshardPlan,
}

/// The warm-state element remap of one shard across a handover:
/// `remap[new_local]` is the element's local id *before* the handover, or
/// `None` for elements that just arrived and for padding ids. The vector
/// covers the shard's full new tree (one entry per node), ready for
/// `WarmState::carried_into`. For an untouched shard the remap is the
/// identity on its owned prefix.
///
/// # Panics
///
/// Panics if the partitions disagree on universe or shard count, or the
/// shard is out of range.
pub fn carry_remap(old: &Partition, new: &Partition, shard: u32) -> Vec<Option<u32>> {
    assert_eq!(
        old.universe(),
        new.universe(),
        "universe changed mid-handover"
    );
    assert_eq!(
        old.shards(),
        new.shards(),
        "shard count changed mid-handover"
    );
    let new_nodes = ((1u64 << new.shard_levels(shard)) - 1) as usize;
    let mut remap = Vec::with_capacity(new_nodes);
    for &global in new.owned(shard) {
        remap.push(match old.localize(global) {
            Some((old_shard, old_local)) if old_shard == shard => Some(old_local.index()),
            _ => None,
        });
    }
    remap.resize(new_nodes, None);
    remap
}

/// The outcome of a deterministic handover: the next epoch's initial
/// placements of the shards the plan touches, plus the migration cost of the
/// moved elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handover {
    /// Per shard, the new epoch's initial placement — the local element id
    /// stored at every node of the shard's (possibly resized) tree, in heap
    /// order, ready for `Occupancy::from_placement` — or `None` for a shard
    /// the plan does not touch, which keeps its live tree.
    pub placements: Vec<Option<Vec<ElementId>>>,
    /// The delete/re-insert cost of every cross-shard move.
    pub migration: MigrationCost,
}

/// Computes the deterministic handover from partition `old` to partition
/// `new = old.apply(plan)`, given each shard's pre-handover occupancy. The
/// moved elements are read off the plan ([`Partition::effective_moves`]),
/// and so is the touched set: the shards some effective move leaves or
/// enters. The work is the moved elements plus the touched shards.
///
/// An untouched shard's owned set, tree size, and every node are unchanged
/// across the handover, so its entry in [`Handover::placements`] is `None`:
/// it keeps its live tree, padding ids included wherever push-downs drifted
/// them. A touched shard's placement follows the protocol:
///
/// 1. **Delete**: elements leaving the shard vacate their nodes, each paying
///    its access cost there (`level + 1`).
/// 2. **Carry**: elements staying keep their exact nodes. If the shard's
///    tree shrinks, staying elements stranded beyond the new size relocate
///    first, in old node order — a free compaction, like the initial
///    placement.
/// 3. **Insert**: arriving elements, in canonical (increasing global id)
///    order, fill the free nodes in increasing node order — shallowest slot
///    first — each paying the access cost of the slot it lands in.
/// 4. **Padding**: unowned local ids fill the remaining nodes in increasing
///    order.
///
/// Every step is a pure function of `(old, plan, occupancies)`, so the
/// serving engine and the reference replay derive byte-identical
/// post-handover states without ever exchanging them.
///
/// # Panics
///
/// Panics if the partitions disagree on universe or shard count, if the
/// plan does not fit `old`, or if an occupancy is smaller than its shard's
/// owned set.
pub fn handover(
    old: &Partition,
    new: &Partition,
    plan: &ReshardPlan,
    occupancies: &[&Occupancy],
) -> Handover {
    assert_eq!(
        old.universe(),
        new.universe(),
        "universe changed mid-handover"
    );
    assert_eq!(
        old.shards(),
        new.shards(),
        "shard count changed mid-handover"
    );
    assert_eq!(
        occupancies.len(),
        old.shards() as usize,
        "one occupancy per shard is required"
    );

    let shards = old.shards();
    let mut migration = MigrationCost::ZERO;
    let mut touched = vec![false; shards as usize];
    // Delete: each moved element pays its access cost on the source shard.
    for (element, from, to) in old.effective_moves(plan) {
        let (_, local) = old.localize(element).expect("moved elements are owned");
        let occupancy = occupancies[from as usize];
        migration.moved += 1;
        migration.delete += u64::from(occupancy.node_of(local).level()) + 1;
        touched[from as usize] = true;
        touched[to as usize] = true;
    }

    let mut placements = Vec::with_capacity(shards as usize);
    for shard in 0..shards {
        if !touched[shard as usize] {
            placements.push(None);
            continue;
        }
        let occupancy = occupancies[shard as usize];
        let old_owned = old.owned(shard);
        let new_owned = new.owned(shard);
        assert!(
            occupancy.num_elements() as usize >= old_owned.len(),
            "shard {shard}: occupancy smaller than its owned set"
        );
        let old_nodes = occupancy.num_elements() as usize;
        let new_nodes = ((1u64 << new.shard_levels(shard)) - 1) as usize;

        // Carry: staying elements keep their nodes (translated to the new
        // epoch's local ids); stranded ones relocate in old node order.
        let mut placement: Vec<Option<ElementId>> = vec![None; new_nodes];
        let mut stranded: Vec<ElementId> = Vec::new();
        for node_index in 0..old_nodes {
            let local = occupancy.element_at(NodeId::new(node_index as u32));
            if local.usize() >= old_owned.len() {
                continue; // Padding never carries over.
            }
            let global = old_owned[local.usize()];
            let Some((new_shard, new_local)) = new.localize(global) else {
                continue;
            };
            if new_shard != shard {
                continue; // Deleted above; the slot stays free.
            }
            if node_index < new_nodes {
                placement[node_index] = Some(new_local);
            } else {
                stranded.push(new_local);
            }
        }

        // Insert: arrivals in canonical order (new_owned is sorted by global
        // id), after any stranded carries, into free nodes shallowest-first.
        let arrivals = new_owned
            .iter()
            .filter(|&&global| old.shard_of(global) != Some(shard))
            .map(|&global| {
                let (_, new_local) = new.localize(global).expect("owned by this shard");
                (new_local, true)
            });
        let mut incoming = stranded
            .into_iter()
            .map(|local| (local, false))
            .chain(arrivals);
        let mut next = incoming.next();
        let mut padding = new_owned.len() as u32..new_nodes as u32;
        for (node_index, slot) in placement.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if let Some((local, is_arrival)) = next {
                if is_arrival {
                    migration.insert += u64::from(NodeId::new(node_index as u32).level()) + 1;
                }
                *slot = Some(local);
                next = incoming.next();
            } else {
                let local = padding.next().expect("enough padding ids for free nodes");
                *slot = Some(ElementId::new(local));
            }
        }
        assert!(next.is_none(), "more elements than nodes on shard {shard}");
        placements.push(Some(
            placement
                .into_iter()
                .map(|slot| slot.expect("every node is filled"))
                .collect(),
        ));
    }
    Handover {
        placements,
        migration,
    }
}

/// A deterministic load-adaptive resharding policy: a pure function from a
/// window of observed per-shard load to the next [`ReshardPlan`]. The
/// serving engine and the reference replay both run it through one driver
/// (`satn_sim::ReshardDriver`) fed the same stream, so neither side ever
/// has to trust the other's epochs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ReshardPolicy {
    /// Every `every` requests, move the hottest elements (window request
    /// counts, ties broken by lower element id) off the most loaded shard to
    /// the least loaded shard, until half the load gap between the two has
    /// been transferred or `max_moves` elements are in the plan. Elements
    /// with no requests in the window never move.
    MoveHottest {
        /// The reshard cadence, in global requests.
        every: usize,
        /// Upper bound on moves per handover.
        max_moves: u32,
    },
}

impl ReshardPolicy {
    /// The policy's reshard cadence, in global requests.
    pub fn every(&self) -> usize {
        match self {
            ReshardPolicy::MoveHottest { every, .. } => *every,
        }
    }

    /// Derives the plan for one window: `window[e]` is the number of
    /// requests element `e` received since the last boundary. Returns an
    /// empty plan when the window gives no reason to move (perfectly
    /// balanced, or nothing hot to transfer).
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the partition's universe.
    pub fn plan(&self, partition: &Partition, window: &[u64]) -> ReshardPlan {
        assert_eq!(
            window.len(),
            partition.universe() as usize,
            "one window count per universe element is required"
        );
        let ReshardPolicy::MoveHottest { max_moves, .. } = self;
        let shards = partition.shards();
        let mut load = vec![0u64; shards as usize];
        for (element, &count) in window.iter().enumerate() {
            let shard = partition.assignment()[element];
            load[shard as usize] += count;
        }
        // Most and least loaded shard, ties to the lower index.
        let from = (0..shards).max_by_key(|&s| (load[s as usize], u32::MAX - s));
        let to = (0..shards).min_by_key(|&s| (load[s as usize], s));
        let (Some(from), Some(to)) = (from, to) else {
            return ReshardPlan::empty();
        };
        if from == to || load[from as usize] == load[to as usize] {
            return ReshardPlan::empty();
        }
        let gap = load[from as usize] - load[to as usize];
        let target = gap / 2;

        // Hottest owned elements of the overloaded shard, hottest first,
        // ties to the lower element id (owned order is increasing id).
        let mut hot: Vec<ElementId> = partition
            .owned(from)
            .iter()
            .copied()
            .filter(|element| window[element.usize()] > 0)
            .collect();
        hot.sort_by_key(|element| (u64::MAX - window[element.usize()], element.index()));

        let mut moves = Vec::new();
        let mut transferred = 0u64;
        for element in hot {
            if transferred >= target || moves.len() as u32 >= *max_moves {
                break;
            }
            transferred += window[element.usize()];
            moves.push((element, to));
        }
        ReshardPlan::new(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_partitions_the_universe_into_a_bijection() {
        for router in ShardRouter::ALL {
            for shards in [1u32, 2, 3, 8] {
                let universe = 96;
                let partition = Partition::new(router, universe, shards);
                assert_eq!(partition.shards(), shards);
                assert_eq!(partition.universe(), universe);
                let total: usize = (0..shards).map(|s| partition.owned(s).len()).sum();
                assert_eq!(total, universe as usize, "{router}/{shards}");
                for global in (0..universe).map(ElementId::new) {
                    let (shard, local) = partition.localize(global).unwrap();
                    assert!(shard < shards);
                    assert_eq!(partition.owned(shard)[local.usize()], global, "{router}");
                    assert_eq!(partition.shard_of(global), Some(shard));
                }
            }
        }
    }

    #[test]
    fn range_routing_keeps_contiguous_balanced_blocks() {
        let partition = Partition::new(ShardRouter::Range, 28, 4);
        for shard in 0..4 {
            let owned = partition.owned(shard);
            assert_eq!(owned.len(), 7);
            // Contiguous: consecutive ids.
            for pair in owned.windows(2) {
                assert_eq!(pair[1].index(), pair[0].index() + 1);
            }
            assert_eq!(owned[0].index(), shard * 7);
        }
    }

    #[test]
    fn hash_routing_is_reasonably_balanced() {
        let partition = Partition::new(ShardRouter::Hash, 1 << 12, 8);
        for shard in 0..8 {
            let size = partition.owned(shard).len();
            // Expected 512 per shard; allow a generous spread.
            assert!((256..=768).contains(&size), "shard {shard}: {size}");
        }
    }

    #[test]
    fn shard_levels_fit_the_owned_count() {
        let partition = Partition::new(ShardRouter::Range, 4 * 31, 4);
        for shard in 0..4 {
            assert_eq!(partition.shard_levels(shard), 5); // 31 elements => 5 levels
        }
        let skewed = Partition::new(ShardRouter::Hash, 100, 3);
        for shard in 0..3 {
            let owned = skewed.owned(shard).len() as u32;
            let capacity = (1u32 << skewed.shard_levels(shard)) - 1;
            assert!(capacity >= owned);
            assert!(shard == 0 || capacity < 2 * owned.max(1));
        }
    }

    #[test]
    fn split_stream_preserves_per_shard_order_and_roundtrips() {
        let partition = Partition::new(ShardRouter::Hash, 64, 4);
        let stream: Vec<ElementId> = (0..500u32).map(|i| ElementId::new((i * 13) % 64)).collect();
        let split = partition.split_stream(stream.iter().copied());
        // Rebuild the per-shard global subsequences independently and compare.
        for shard in 0..4 {
            let expected: Vec<ElementId> = stream
                .iter()
                .copied()
                .filter(|&e| partition.shard_of(e) == Some(shard))
                .collect();
            let globalized: Vec<ElementId> = split[shard as usize]
                .iter()
                .map(|&local| partition.owned(shard)[local.usize()])
                .collect();
            assert_eq!(globalized, expected, "shard {shard}");
        }
        let total: usize = split.iter().map(Vec::len).sum();
        assert_eq!(total, stream.len());
    }

    #[test]
    fn routed_stream_agrees_with_localize() {
        let partition = Partition::new(ShardRouter::Range, 21, 3);
        let requests = [5u32, 20, 0, 13, 13].map(ElementId::new);
        let routed: Vec<(u32, ElementId)> =
            partition.route_stream(requests.iter().copied()).collect();
        for (&request, &(shard, local)) in requests.iter().zip(&routed) {
            assert_eq!(partition.localize(request), Some((shard, local)));
        }
    }

    #[test]
    fn router_labels_roundtrip_through_fromstr() {
        for router in ShardRouter::ALL {
            let parsed: ShardRouter = router.label().parse().unwrap();
            assert_eq!(parsed, router);
            assert_eq!(router.to_string(), router.label());
        }
        assert!("consistent".parse::<ShardRouter>().is_err());
        assert!("source-affinity".parse::<ShardRouter>().is_err());
        assert_eq!(ShardRouter::default(), ShardRouter::Hash);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        Partition::new(ShardRouter::Hash, 10, 0);
    }

    #[test]
    fn out_of_universe_lookups_return_none() {
        let partition = Partition::new(ShardRouter::Hash, 7, 2);
        assert_eq!(partition.shard_of(ElementId::new(7)), None);
        assert_eq!(partition.localize(ElementId::new(99)), None);
    }

    #[test]
    fn reshard_plans_are_canonical() {
        let plan = ReshardPlan::new([
            (ElementId::new(9), 1),
            (ElementId::new(2), 0),
            (ElementId::new(5), 1),
        ]);
        let ids: Vec<u32> = plan.moves().iter().map(|&(e, _)| e.index()).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(
            plan,
            ReshardPlan::new([
                (ElementId::new(5), 1),
                (ElementId::new(2), 0),
                (ElementId::new(9), 1),
            ])
        );
        assert!(ReshardPlan::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "at most once")]
    fn duplicate_moves_are_rejected() {
        ReshardPlan::new([(ElementId::new(3), 0), (ElementId::new(3), 1)]);
    }

    #[test]
    fn apply_moves_ownership_and_renumbers_canonically() {
        let partition = Partition::new(ShardRouter::Range, 12, 3); // 0-3 | 4-7 | 8-11
        let plan = ReshardPlan::new([
            (ElementId::new(0), 2),
            (ElementId::new(5), 0),
            (ElementId::new(8), 2), // no-op: already on shard 2
        ]);
        let next = partition.apply(&plan).unwrap();
        assert_eq!(next.universe(), 12);
        assert_eq!(next.shards(), 3);
        assert_eq!(next.shard_of(ElementId::new(0)), Some(2));
        assert_eq!(next.shard_of(ElementId::new(5)), Some(0));
        // Canonical local ids: shard 0 now owns {1, 2, 3, 5} in id order.
        let owned0: Vec<u32> = next.owned(0).iter().map(|e| e.index()).collect();
        assert_eq!(owned0, vec![1, 2, 3, 5]);
        assert_eq!(
            next.localize(ElementId::new(5)),
            Some((0, ElementId::new(3)))
        );
        // Round-trip still a bijection.
        let total: usize = (0..3).map(|s| next.owned(s).len()).sum();
        assert_eq!(total, 12);
        // Diff reports exactly the effective moves, in canonical order.
        assert_eq!(
            partition.diff(&next),
            vec![(ElementId::new(0), 0, 2), (ElementId::new(5), 1, 0)]
        );
    }

    #[test]
    fn apply_rejects_foreign_elements_and_shards() {
        let partition = Partition::new(ShardRouter::Hash, 8, 2);
        assert_eq!(
            partition.apply(&ReshardPlan::new([(ElementId::new(8), 0)])),
            Err(ReshardError::ElementOutOfUniverse {
                element: ElementId::new(8),
                universe: 8
            })
        );
        let err = partition
            .apply(&ReshardPlan::new([(ElementId::new(1), 2)]))
            .unwrap_err();
        assert_eq!(
            err,
            ReshardError::ShardOutOfRange {
                shard: 2,
                shards: 2
            }
        );
        assert!(err.to_string().contains("2 shards"));
    }

    #[test]
    fn handover_preserves_untouched_shards_and_prices_moves() {
        use satn_tree::CompleteTree;

        let old = Partition::new(ShardRouter::Range, 21, 3); // 7 each, 3 levels
        let plan = ReshardPlan::new([(ElementId::new(0), 1)]);
        let new = old.apply(&plan).unwrap();

        let tree = CompleteTree::with_levels(3).unwrap();
        let occupancies: Vec<Occupancy> = (0..3).map(|_| Occupancy::identity(tree)).collect();
        let refs: Vec<&Occupancy> = occupancies.iter().collect();
        let result = handover(&old, &new, &plan, &refs);

        // Shard 2 is untouched: it keeps its live tree.
        assert!(result.placements[2].is_none());
        let placements: Vec<Vec<ElementId>> = result.placements.into_iter().flatten().collect();

        // Shard 0 lost global 0 (local 0, at the root). Its remaining six
        // elements keep their nodes; the freed root takes the first padding
        // id (6 elements owned, 7 nodes).
        assert_eq!(placements[0][0], ElementId::new(6));
        for node in 1..7 {
            // Globals 1..=6 had old locals 1..=6 and keep nodes 1..=6; their
            // new locals are 0..=5.
            assert_eq!(placements[0][node], ElementId::new(node as u32 - 1));
        }

        // Shard 1 gained global 0: arrivals fill the shallowest free node.
        // Shard 1 still fits in 3 levels (8 elements > 7? no: 7 + 1 = 8 =>
        // needs 4 levels), so the tree grew to 15 nodes.
        assert_eq!(placements[1].len(), 15);
        // Old nodes keep their elements: old local i (global 7 + i) becomes
        // new local i + 1 (global 0 is the new local 0).
        for node in 0..7 {
            assert_eq!(placements[1][node], ElementId::new(node as u32 + 1));
        }
        // The arrival (new local 0) lands at the shallowest free node: 7.
        assert_eq!(placements[1][7], ElementId::new(0));

        // Migration cost: delete at the old root (level 0 -> cost 1),
        // insert at node 7 (level 3 -> cost 4).
        assert_eq!(
            result.migration,
            MigrationCost {
                moved: 1,
                delete: 1,
                insert: 4
            }
        );

        // Every placement is a valid bijection for its tree size.
        for placement in placements {
            let levels = (placement.len() + 1).trailing_zeros();
            let tree = CompleteTree::with_levels(levels).unwrap();
            Occupancy::from_placement(tree, placement).unwrap();
        }
    }

    /// Which shards [`handover`] rebuilds for `plan`, on identity
    /// occupancies.
    fn touched(old: &Partition, plan: &ReshardPlan) -> Vec<bool> {
        use satn_tree::CompleteTree;

        let new = old.apply(plan).unwrap();
        let occupancies: Vec<Occupancy> = (0..old.shards())
            .map(|shard| {
                Occupancy::identity(CompleteTree::with_levels(old.shard_levels(shard)).unwrap())
            })
            .collect();
        let refs: Vec<&Occupancy> = occupancies.iter().collect();
        handover(old, &new, plan, &refs)
            .placements
            .iter()
            .map(Option::is_some)
            .collect()
    }

    #[test]
    fn touched_shards_follow_the_diff_and_gate_the_incremental_handover() {
        let old = Partition::new(ShardRouter::Range, 21, 3); // 7 each, 3 levels
        let plan = ReshardPlan::new([(ElementId::new(0), 1)]);
        assert_eq!(touched(&old, &plan), vec![true, true, false]);
        assert_eq!(touched(&old, &ReshardPlan::empty()), vec![false; 3]);
        // A no-op move (element 8 already lives on shard 1) touches nothing.
        let noop = ReshardPlan::new([(ElementId::new(8), 1)]);
        assert_eq!(touched(&old, &noop), vec![false; 3]);
    }

    #[test]
    fn carry_remap_is_identity_on_untouched_shards_and_tracks_moves() {
        let old = Partition::new(ShardRouter::Range, 21, 3); // 0-6 | 7-13 | 14-20
        let plan = ReshardPlan::new([(ElementId::new(0), 1)]);
        let new = old.apply(&plan).unwrap();

        // Untouched shard 2: identity on the owned prefix, None on padding.
        let remap = carry_remap(&old, &new, 2);
        assert_eq!(remap.len(), 7);
        for (local, slot) in remap.iter().enumerate() {
            assert_eq!(*slot, Some(local as u32));
        }

        // Source shard 0: lost global 0 (old local 0); survivors shift down.
        let remap = carry_remap(&old, &new, 0);
        assert_eq!(remap.len(), 7); // 6 owned + 1 padding, still 3 levels
        assert_eq!(
            &remap[..6],
            &[Some(1), Some(2), Some(3), Some(4), Some(5), Some(6)]
        );
        assert_eq!(remap[6], None);

        // Destination shard 1: global 0 arrives as new local 0 (None); the
        // old elements 7..=13 (old locals 0..=6) become new locals 1..=7.
        // 8 owned elements need 4 levels = 15 nodes.
        let remap = carry_remap(&old, &new, 1);
        assert_eq!(remap.len(), 15);
        assert_eq!(remap[0], None);
        for local in 1..8 {
            assert_eq!(remap[local], Some(local as u32 - 1));
        }
        assert!(remap[8..].iter().all(Option::is_none));
    }

    #[test]
    fn move_hottest_transfers_half_the_gap() {
        let partition = Partition::new(ShardRouter::Range, 8, 2); // 0-3 | 4-7
        let mut window = vec![0u64; 8];
        window[0] = 50;
        window[1] = 30;
        window[2] = 6;
        window[4] = 10;
        let policy = ReshardPolicy::MoveHottest {
            every: 96,
            max_moves: 8,
        };
        // Gap = 86 - 10 = 76, target 38: element 0 (50 >= 38) suffices.
        let plan = policy.plan(&partition, &window);
        assert_eq!(plan.moves(), &[(ElementId::new(0), 1)]);

        // A max_moves cap of 0 yields an empty plan.
        let capped = ReshardPolicy::MoveHottest {
            every: 96,
            max_moves: 0,
        };
        assert!(capped.plan(&partition, &window).is_empty());

        // A balanced window yields an empty plan.
        let balanced = vec![1u64; 8];
        assert!(policy.plan(&partition, &balanced).is_empty());
    }

    #[test]
    fn shard_epoch_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..4)
            .flat_map(|shard| (0..4).map(move |epoch| shard_epoch_seed(7, shard, epoch)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16);
    }

    mod plan_driven {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The plan-driven `apply` equals the reference: re-deriving
            /// every shard from the patched assignment. Plans are random
            /// over any router: targets repeat freely, and a move to the
            /// element's current shard is a no-op `apply` must ignore.
            #[test]
            fn apply_equals_from_assignment_on_the_patched_assignment(
                router in 0..ShardRouter::ALL.len(),
                universe in 1u32..300,
                shards in 1u32..10,
                raw in proptest::collection::vec((0u32..1_000, 0u32..16), 0..24),
            ) {
                let old = Partition::new(ShardRouter::ALL[router], universe, shards);
                // One move per element: the first one drawn.
                let mut moves: BTreeMap<u32, u32> = BTreeMap::new();
                for (element, to) in raw {
                    moves.entry(element % universe).or_insert(to % shards);
                }
                let plan =
                    ReshardPlan::new(moves.into_iter().map(|(e, to)| (ElementId::new(e), to)));
                let mut patched = old.assignment().to_vec();
                for &(element, to) in plan.moves() {
                    patched[element.usize()] = to;
                }
                let reference = Partition::from_assignment(old.router(), shards, patched);
                let applied = old.apply(&plan).unwrap();
                prop_assert_eq!(&applied, &reference);

                // The plan-derived diff and touched set equal the
                // universe-scan ones.
                prop_assert_eq!(old.effective_moves(&plan), old.diff(&applied));
                let mut scanned = vec![false; shards as usize];
                for (_, from, to) in old.diff(&applied) {
                    scanned[from as usize] = true;
                    scanned[to as usize] = true;
                }
                prop_assert_eq!(touched(&old, &plan), scanned);

                // A plan naming only current owners is all no-ops.
                let staying = ReshardPlan::new(
                    plan.moves()
                        .iter()
                        .map(|&(element, _)| (element, old.shard_of(element).unwrap())),
                );
                prop_assert_eq!(&old.apply(&staying).unwrap(), &old);
                prop_assert!(touched(&old, &staying).iter().all(|&t| !t));
            }
        }
    }
}
