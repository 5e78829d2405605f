//! Cost accounting: per-request costs and running summaries.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// The cost of serving one request, split into access and adjustment parts
/// exactly as in the paper's model: accessing an element at level `d` costs
/// `d + 1`, and every swap costs one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ServeCost {
    /// Access cost `ℓ(e) + 1` paid for reaching the requested element.
    pub access: u64,
    /// Adjustment cost: the number of swaps performed while serving.
    pub adjustment: u64,
}

impl ServeCost {
    /// Creates a cost record from its two components.
    pub const fn new(access: u64, adjustment: u64) -> Self {
        ServeCost { access, adjustment }
    }

    /// A request that cost nothing (used as the additive identity).
    pub const ZERO: ServeCost = ServeCost {
        access: 0,
        adjustment: 0,
    };

    /// Total cost of the request (access plus adjustment).
    #[inline]
    pub const fn total(self) -> u64 {
        self.access + self.adjustment
    }
}

impl Add for ServeCost {
    type Output = ServeCost;

    fn add(self, rhs: ServeCost) -> ServeCost {
        ServeCost {
            access: self.access + rhs.access,
            adjustment: self.adjustment + rhs.adjustment,
        }
    }
}

impl AddAssign for ServeCost {
    fn add_assign(&mut self, rhs: ServeCost) {
        *self = *self + rhs;
    }
}

impl Sum for ServeCost {
    fn sum<I: Iterator<Item = ServeCost>>(iter: I) -> ServeCost {
        iter.fold(ServeCost::ZERO, Add::add)
    }
}

impl fmt::Display for ServeCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access={} adjustment={} total={}",
            self.access,
            self.adjustment,
            self.total()
        )
    }
}

/// Running totals over a request sequence.
///
/// # Examples
///
/// ```
/// use satn_tree::{CostSummary, ServeCost};
///
/// let mut summary = CostSummary::new();
/// summary.record(ServeCost::new(3, 5));
/// summary.record(ServeCost::new(1, 0));
/// assert_eq!(summary.requests(), 2);
/// assert_eq!(summary.total().total(), 9);
/// assert!((summary.mean_total() - 4.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostSummary {
    total: ServeCost,
    requests: u64,
    max_access: u64,
    max_total: u64,
}

impl CostSummary {
    /// Creates an empty summary.
    pub const fn new() -> Self {
        CostSummary {
            total: ServeCost::ZERO,
            requests: 0,
            max_access: 0,
            max_total: 0,
        }
    }

    /// Records the cost of one served request.
    pub fn record(&mut self, cost: ServeCost) {
        self.total += cost;
        self.requests += 1;
        self.max_access = self.max_access.max(cost.access);
        self.max_total = self.max_total.max(cost.total());
    }

    /// Number of requests recorded so far.
    #[inline]
    pub const fn requests(&self) -> u64 {
        self.requests
    }

    /// Accumulated cost over all recorded requests.
    #[inline]
    pub const fn total(&self) -> ServeCost {
        self.total
    }

    /// Largest access cost of a single request.
    #[inline]
    pub const fn max_access(&self) -> u64 {
        self.max_access
    }

    /// Largest total cost of a single request.
    #[inline]
    pub const fn max_total(&self) -> u64 {
        self.max_total
    }

    /// Mean access cost per request (0.0 when empty).
    pub fn mean_access(&self) -> f64 {
        self.ratio(self.total.access)
    }

    /// Mean adjustment cost per request (0.0 when empty).
    pub fn mean_adjustment(&self) -> f64 {
        self.ratio(self.total.adjustment)
    }

    /// Mean total cost per request (0.0 when empty).
    pub fn mean_total(&self) -> f64 {
        self.ratio(self.total.total())
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &CostSummary) {
        self.total += other.total;
        self.requests += other.requests;
        self.max_access = self.max_access.max(other.max_access);
        self.max_total = self.max_total.max(other.max_total);
    }

    fn ratio(&self, value: u64) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            value as f64 / self.requests as f64
        }
    }
}

impl fmt::Display for CostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests, mean access {:.3}, mean adjustment {:.3}, mean total {:.3}",
            self.requests,
            self.mean_access(),
            self.mean_adjustment(),
            self.mean_total()
        )
    }
}

/// The cost of one partition handover: the deterministic delete/re-insert
/// work of moving elements between shard trees at an epoch boundary.
///
/// Deleting a migrating element from its source tree pays its access cost
/// there (`level + 1`), and re-inserting it into the destination tree pays
/// the access cost of the slot it lands in — the same unit as serving cost,
/// so resharding shows up in the same ledger as access and adjustment cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MigrationCost {
    /// Number of elements that changed shards.
    pub moved: u64,
    /// Total delete cost paid on the source shards (`old level + 1` each).
    pub delete: u64,
    /// Total insert cost paid on the destination shards (`new level + 1`
    /// each).
    pub insert: u64,
}

impl MigrationCost {
    /// A handover that moved nothing (the additive identity; also the
    /// migration cost of epoch 0).
    pub const ZERO: MigrationCost = MigrationCost {
        moved: 0,
        delete: 0,
        insert: 0,
    };

    /// Total cost units of the handover (delete plus insert).
    #[inline]
    pub const fn total(self) -> u64 {
        self.delete + self.insert
    }

    /// Accumulates another handover's cost into this one.
    pub fn merge(&mut self, other: MigrationCost) {
        self.moved += other.moved;
        self.delete += other.delete;
        self.insert += other.insert;
    }
}

impl fmt::Display for MigrationCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "moved={} delete={} insert={} total={}",
            self.moved,
            self.delete,
            self.insert,
            self.total()
        )
    }
}

/// The serving and migration costs of one partition epoch: per-shard
/// summaries of the requests served while the epoch was current, plus the
/// migration cost paid at the handover that *entered* the epoch (zero for
/// epoch 0, which starts from the initial assignment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCostSummary {
    epoch: u32,
    migration: MigrationCost,
    per_shard: Vec<CostSummary>,
}

impl EpochCostSummary {
    fn new(epoch: u32, shards: u32, migration: MigrationCost) -> Self {
        EpochCostSummary {
            epoch,
            migration,
            per_shard: vec![CostSummary::new(); shards as usize],
        }
    }

    /// The epoch index (0 = the initial assignment).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The handover cost paid to enter this epoch.
    pub fn migration(&self) -> MigrationCost {
        self.migration
    }

    /// The per-shard summaries of requests served during this epoch.
    pub fn per_shard(&self) -> &[CostSummary] {
        &self.per_shard
    }

    /// One shard's summary of requests served during this epoch.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn shard(&self, shard: u32) -> &CostSummary {
        &self.per_shard[shard as usize]
    }

    /// The shard-order merge of this epoch's per-shard summaries.
    pub fn merged(&self) -> CostSummary {
        let mut merged = CostSummary::new();
        for summary in &self.per_shard {
            merged.merge(summary);
        }
        merged
    }

    /// Requests served during this epoch, across all shards.
    pub fn requests(&self) -> u64 {
        self.per_shard.iter().map(CostSummary::requests).sum()
    }
}

/// Shard-aware, epoch-versioned cost accounting: one [`CostSummary`] per
/// shard plus per-epoch sub-summaries and the explicit migration-cost term
/// of every partition handover.
///
/// The sharded serving engine records every request against its shard (and
/// the current epoch); the merged summary is defined as folding the
/// per-shard summaries **in shard order**, so two runs that produce the same
/// per-shard summaries always produce the same merged summary, independent
/// of how batches were drained or how many worker threads served them.
/// Epochs advance via [`ShardedCostSummary::begin_epoch`], which records the
/// handover's [`MigrationCost`] in the same ledger — resharding is never
/// free, and its price is visible next to access and adjustment cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCostSummary {
    per_shard: Vec<CostSummary>,
    epochs: Vec<EpochCostSummary>,
}

impl Default for ShardedCostSummary {
    fn default() -> Self {
        ShardedCostSummary {
            per_shard: Vec::new(),
            epochs: vec![EpochCostSummary::new(0, 0, MigrationCost::ZERO)],
        }
    }
}

impl ShardedCostSummary {
    /// Creates an accounting over `shards` shards, all empty, at epoch 0.
    pub fn new(shards: u32) -> Self {
        ShardedCostSummary {
            per_shard: vec![CostSummary::new(); shards as usize],
            epochs: vec![EpochCostSummary::new(0, shards, MigrationCost::ZERO)],
        }
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> u32 {
        self.per_shard.len() as u32
    }

    /// Records one served request against its shard (in the current epoch).
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn record(&mut self, shard: u32, cost: ServeCost) {
        self.per_shard[shard as usize].record(cost);
        self.current_epoch_mut().per_shard[shard as usize].record(cost);
    }

    /// Merges a batch summary into one shard's totals (in the current epoch).
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn merge_into_shard(&mut self, shard: u32, batch: &CostSummary) {
        self.per_shard[shard as usize].merge(batch);
        self.current_epoch_mut().per_shard[shard as usize].merge(batch);
    }

    /// Starts a new epoch, recording the handover's migration cost. All
    /// subsequent requests are accounted against the new epoch's
    /// sub-summaries (the all-time per-shard totals keep accumulating).
    pub fn begin_epoch(&mut self, migration: MigrationCost) {
        let epoch = self.epochs.len() as u32;
        self.epochs
            .push(EpochCostSummary::new(epoch, self.shards(), migration));
    }

    /// The current epoch index.
    pub fn current_epoch(&self) -> u32 {
        (self.epochs.len() - 1) as u32
    }

    /// The per-epoch sub-summaries, in epoch order (always non-empty).
    pub fn epochs(&self) -> &[EpochCostSummary] {
        &self.epochs
    }

    /// One epoch's sub-summary.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is out of range.
    pub fn epoch(&self, epoch: u32) -> &EpochCostSummary {
        &self.epochs[epoch as usize]
    }

    /// The accumulated migration cost of every handover so far.
    pub fn migration_total(&self) -> MigrationCost {
        let mut total = MigrationCost::ZERO;
        for epoch in &self.epochs {
            total.merge(epoch.migration);
        }
        total
    }

    /// The all-time totals of one shard (across every epoch).
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn shard(&self, shard: u32) -> &CostSummary {
        &self.per_shard[shard as usize]
    }

    /// All per-shard all-time summaries, in shard order.
    pub fn per_shard(&self) -> &[CostSummary] {
        &self.per_shard
    }

    /// The shard-order merge of every per-shard summary (serving cost only;
    /// migration cost is reported separately by
    /// [`ShardedCostSummary::migration_total`]).
    pub fn merged(&self) -> CostSummary {
        let mut merged = CostSummary::new();
        for summary in &self.per_shard {
            merged.merge(summary);
        }
        merged
    }

    /// Total requests recorded across all shards (and epochs).
    pub fn requests(&self) -> u64 {
        self.per_shard.iter().map(CostSummary::requests).sum()
    }

    fn current_epoch_mut(&mut self) -> &mut EpochCostSummary {
        self.epochs
            .last_mut()
            .expect("the epoch log is never empty")
    }
}

impl fmt::Display for ShardedCostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shards, {} epochs: {} (migration: {})",
            self.shards(),
            self.epochs.len(),
            self.merged(),
            self.migration_total()
        )
    }
}

impl FromIterator<ServeCost> for CostSummary {
    fn from_iter<I: IntoIterator<Item = ServeCost>>(iter: I) -> Self {
        let mut summary = CostSummary::new();
        for cost in iter {
            summary.record(cost);
        }
        summary
    }
}

impl Extend<ServeCost> for CostSummary {
    fn extend<I: IntoIterator<Item = ServeCost>>(&mut self, iter: I) {
        for cost in iter {
            self.record(cost);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_cost_arithmetic() {
        let a = ServeCost::new(3, 4);
        let b = ServeCost::new(1, 2);
        assert_eq!((a + b), ServeCost::new(4, 6));
        assert_eq!(a.total(), 7);
        let mut c = a;
        c += b;
        assert_eq!(c, ServeCost::new(4, 6));
        let sum: ServeCost = [a, b, ServeCost::ZERO].into_iter().sum();
        assert_eq!(sum, ServeCost::new(4, 6));
    }

    #[test]
    fn summary_statistics() {
        let mut s = CostSummary::new();
        assert_eq!(s.mean_total(), 0.0);
        s.record(ServeCost::new(2, 6));
        s.record(ServeCost::new(4, 0));
        s.record(ServeCost::new(10, 2));
        assert_eq!(s.requests(), 3);
        assert_eq!(s.total(), ServeCost::new(16, 8));
        assert_eq!(s.max_access(), 10);
        assert_eq!(s.max_total(), 12);
        assert!((s.mean_access() - 16.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_adjustment() - 8.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn summary_merge_equals_sequential_recording() {
        let costs = [
            ServeCost::new(1, 1),
            ServeCost::new(5, 0),
            ServeCost::new(3, 9),
            ServeCost::new(2, 2),
        ];
        let mut all = CostSummary::new();
        costs.iter().for_each(|&c| all.record(c));

        let mut left: CostSummary = costs[..2].iter().copied().collect();
        let right: CostSummary = costs[2..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn summary_extend_and_collect() {
        let mut s = CostSummary::new();
        s.extend([ServeCost::new(1, 0), ServeCost::new(2, 1)]);
        assert_eq!(s.requests(), 2);
        assert_eq!(s.total().total(), 4);
    }

    #[test]
    fn sharded_summary_merges_in_shard_order() {
        let mut sharded = ShardedCostSummary::new(3);
        sharded.record(0, ServeCost::new(3, 1));
        sharded.record(2, ServeCost::new(5, 0));
        sharded.record(0, ServeCost::new(1, 0));
        let mut batch = CostSummary::new();
        batch.record(ServeCost::new(7, 7));
        sharded.merge_into_shard(1, &batch);

        assert_eq!(sharded.shards(), 3);
        assert_eq!(sharded.requests(), 4);
        assert_eq!(sharded.shard(0).requests(), 2);
        assert_eq!(sharded.shard(1).total(), ServeCost::new(7, 7));
        assert_eq!(sharded.shard(2).max_access(), 5);

        // The merged summary equals recording every request into one summary.
        let mut flat = CostSummary::new();
        for cost in [
            ServeCost::new(3, 1),
            ServeCost::new(1, 0),
            ServeCost::new(7, 7),
            ServeCost::new(5, 0),
        ] {
            flat.record(cost);
        }
        assert_eq!(sharded.merged(), flat);
        assert!(sharded.to_string().contains("3 shards"));
    }

    #[test]
    fn migration_cost_arithmetic_and_display() {
        let mut cost = MigrationCost::ZERO;
        assert_eq!(cost.total(), 0);
        cost.merge(MigrationCost {
            moved: 2,
            delete: 5,
            insert: 7,
        });
        cost.merge(MigrationCost {
            moved: 1,
            delete: 3,
            insert: 1,
        });
        assert_eq!(cost.moved, 3);
        assert_eq!(cost.total(), 16);
        assert_eq!(cost.to_string(), "moved=3 delete=8 insert=8 total=16");
    }

    #[test]
    fn epochs_partition_the_ledger_and_totals_span_them() {
        let mut sharded = ShardedCostSummary::new(2);
        assert_eq!(sharded.current_epoch(), 0);
        sharded.record(0, ServeCost::new(3, 1));
        sharded.record(1, ServeCost::new(2, 0));

        let migration = MigrationCost {
            moved: 4,
            delete: 10,
            insert: 12,
        };
        sharded.begin_epoch(migration);
        assert_eq!(sharded.current_epoch(), 1);
        sharded.record(0, ServeCost::new(5, 5));

        // Per-epoch sub-summaries hold exactly their own epoch's requests.
        assert_eq!(sharded.epoch(0).requests(), 2);
        assert_eq!(sharded.epoch(0).shard(0).total(), ServeCost::new(3, 1));
        assert_eq!(sharded.epoch(0).migration(), MigrationCost::ZERO);
        assert_eq!(sharded.epoch(1).requests(), 1);
        assert_eq!(sharded.epoch(1).epoch(), 1);
        assert_eq!(sharded.epoch(1).migration(), migration);
        assert_eq!(sharded.epoch(1).merged().total(), ServeCost::new(5, 5));

        // All-time totals span both epochs; migration is a separate term.
        assert_eq!(sharded.requests(), 3);
        assert_eq!(sharded.shard(0).total(), ServeCost::new(8, 6));
        assert_eq!(sharded.merged().requests(), 3);
        assert_eq!(sharded.migration_total(), migration);
        assert_eq!(sharded.epochs().len(), 2);

        // The epoch-order merge of the sub-summaries equals the totals.
        for shard in 0..2u32 {
            let mut recombined = CostSummary::new();
            for epoch in sharded.epochs() {
                recombined.merge(epoch.shard(shard));
            }
            assert_eq!(&recombined, sharded.shard(shard), "shard {shard}");
        }
        assert!(sharded.to_string().contains("2 epochs"));
    }

    #[test]
    fn batch_merges_land_in_the_current_epoch() {
        let mut sharded = ShardedCostSummary::new(1);
        let mut batch = CostSummary::new();
        batch.record(ServeCost::new(1, 1));
        sharded.merge_into_shard(0, &batch);
        sharded.begin_epoch(MigrationCost::ZERO);
        sharded.merge_into_shard(0, &batch);
        sharded.merge_into_shard(0, &batch);
        assert_eq!(sharded.epoch(0).shard(0).requests(), 1);
        assert_eq!(sharded.epoch(1).shard(0).requests(), 2);
        assert_eq!(sharded.shard(0).requests(), 3);
    }

    #[test]
    fn display_output_mentions_means() {
        let mut s = CostSummary::new();
        s.record(ServeCost::new(2, 2));
        let text = s.to_string();
        assert!(text.contains("1 requests"));
        assert!(text.contains("mean total"));
        assert_eq!(
            ServeCost::new(1, 2).to_string(),
            "access=1 adjustment=2 total=3"
        );
    }
}
