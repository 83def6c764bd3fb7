//! The shared [`DecisionStore`]: one memoized decision layer for the
//! whole search stack, plus the [`SearchStats`] the pruned search records.
//!
//! Before this module existed the workspace stacked two caches on top of
//! each other: every [`crate::Optimizer`] memoized its own `(shape,
//! objective)` decisions, and `morph-core`'s session kept a second
//! `(backend, objective, clusters, shape)` map of the same data. The
//! store unifies them: a searched backend's one optimizer writes every
//! decision through its `Arc<DecisionStore>`, each keyed by the cluster
//! budget it was searched under, and the session reads the very same
//! entries — no double bookkeeping, no duplicated decisions in memory.
//!
//! Entries also carry the [`SearchStats`] of the search that produced
//! them. Stats are recorded **once per key** (the first writer wins; a
//! concurrent duplicate search of the same key computes an identical
//! decision), so any aggregate read off the store is deterministic at
//! every thread count.

use crate::search::{LayerDecision, Objective};
use morph_dataflow::config::TilingConfig;
use morph_dataflow::perf::Parallelism;
use morph_energy::EnergyReport;
use morph_tensor::hash::FxHashMap;
use morph_tensor::shape::ConvShape;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counters of one mapping search (or an aggregate of many): how much of
/// the candidate stream the branch-and-bound loop actually had to cost.
///
/// `enumerated` counts every candidate the stream generated;
/// `bound_pruned` the ones an admissible lower bound proved unable to
/// beat the incumbent; `costed` the ones that went through the full
/// traffic + cycle + energy attribution. Candidates whose hierarchy
/// allocation fails are enumerated but neither pruned nor costed, so
/// `bound_pruned + costed <= enumerated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates generated by the stream.
    pub enumerated: u64,
    /// Candidates skipped via admissible lower bounds.
    pub bound_pruned: u64,
    /// Candidates fully costed.
    pub costed: u64,
}

impl SearchStats {
    /// Element-wise sum (aggregation across layers or searches).
    pub fn add(&self, other: &SearchStats) -> SearchStats {
        SearchStats {
            enumerated: self.enumerated + other.enumerated,
            bound_pruned: self.bound_pruned + other.bound_pruned,
            costed: self.costed + other.costed,
        }
    }

    /// True when nothing was recorded (e.g. a fixed-dataflow evaluation).
    pub fn is_empty(&self) -> bool {
        *self == SearchStats::default()
    }

    /// Fraction of enumerated candidates that never needed full costing.
    pub fn prune_fraction(&self) -> f64 {
        if self.enumerated == 0 {
            0.0
        } else {
            self.bound_pruned as f64 / self.enumerated as f64
        }
    }
}

impl morph_json::ToJson for SearchStats {
    fn to_json(&self) -> morph_json::Value {
        use morph_json::Value;
        Value::obj([
            ("enumerated", Value::Int(self.enumerated as i64)),
            ("bound_pruned", Value::Int(self.bound_pruned as i64)),
            ("costed", Value::Int(self.costed as i64)),
        ])
    }
}

impl morph_json::FromJson for SearchStats {
    fn from_json(v: &morph_json::Value) -> Result<Self, String> {
        use morph_json::field_u64;
        Ok(SearchStats {
            enumerated: field_u64(v, "enumerated")?,
            bound_pruned: field_u64(v, "bound_pruned")?,
            costed: field_u64(v, "costed")?,
        })
    }
}

/// Store key: layer shape, objective, and the cluster budget the decision
/// was searched under (a backend's full chip for ordinary evaluations;
/// sub-chip budgets come from the pipeline rebalancers). Keying the
/// budget explicitly is what keeps budgeted and unbudgeted decisions from
/// ever colliding.
pub type StoreKey = (ConvShape, Objective, usize);

/// One memoized decision: the evaluated cost, the chosen mapping (absent
/// for fixed-dataflow backends, which store cost-only entries), and the
/// stats of the search that produced it.
#[derive(Debug, Clone)]
pub struct StoredDecision {
    /// Energy/cycle breakdown of the decision.
    pub report: EnergyReport,
    /// Chosen mapping; `None` for fixed-dataflow (unsearched) entries.
    pub mapping: Option<(TilingConfig, Parallelism)>,
    /// Stats of the search that produced the entry (zero for unsearched
    /// entries).
    pub stats: SearchStats,
}

impl StoredDecision {
    /// Build a store entry from a searched [`LayerDecision`].
    pub fn from_decision(d: &LayerDecision, stats: SearchStats) -> Self {
        StoredDecision {
            report: d.report,
            mapping: Some((d.config.clone(), d.par)),
            stats,
        }
    }

    /// Recover the [`LayerDecision`] of a searched entry.
    pub fn to_decision(&self) -> Option<LayerDecision> {
        self.mapping.as_ref().map(|(config, par)| LayerDecision {
            config: config.clone(),
            par: *par,
            report: self.report,
        })
    }
}

/// Thread-safe memoization of layer decisions, shared between a backend's
/// optimizer (every cluster budget it searches) and the session that
/// drives it.
#[derive(Debug, Default)]
pub struct DecisionStore {
    entries: Mutex<FxHashMap<StoreKey, StoredDecision>>,
}

impl DecisionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table, locked. Every critical section is one map operation,
    /// so a poisoned lock still guards a whole table: take it rather than
    /// cascade another thread's panic.
    fn table(&self) -> MutexGuard<'_, FxHashMap<StoreKey, StoredDecision>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a memoized decision.
    pub fn get(&self, key: &StoreKey) -> Option<StoredDecision> {
        self.table().get(key).cloned()
    }

    /// True if `key` is already decided.
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.table().contains_key(key)
    }

    /// Memoize a decision. The first write for a key wins — concurrent
    /// duplicate searches compute identical decisions, and keeping the
    /// first keeps the recorded stats deterministic.
    pub fn insert(&self, key: StoreKey, decision: StoredDecision) {
        self.table().entry(key).or_insert(decision);
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    /// Snapshot of every memoized key, in the table's order: unsorted,
    /// but unseeded ([`morph_tensor::hash`]), so the same inserts list
    /// in the same order in every run. So does [`DecisionStore::entries`].
    pub fn keys(&self) -> Vec<StoreKey> {
        self.table().keys().copied().collect()
    }

    /// Snapshot of every memoized `(key, decision)` pair. The clone is
    /// taken under the lock so external verifiers (the audit layer) see a
    /// consistent view without holding up concurrent searches.
    pub fn entries(&self) -> Vec<(StoreKey, StoredDecision)> {
        self.table().iter().map(|(k, v)| (*k, v.clone())).collect()
    }

    /// Aggregate search stats over every memoized decision.
    pub fn stats(&self) -> SearchStats {
        self.table()
            .values()
            .fold(SearchStats::default(), |acc, e| acc.add(&e.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_dataflow::perf::CycleReport;

    fn entry(cycles: u64, stats: SearchStats) -> StoredDecision {
        let mut report = EnergyReport::zero();
        report.cycles = CycleReport {
            compute: cycles,
            dram: 0,
            l2_l1: 0,
            l1_l0: 0,
            total: cycles,
            ideal: cycles,
        };
        StoredDecision {
            report,
            mapping: None,
            stats,
        }
    }

    fn key(clusters: usize) -> StoreKey {
        let shape = ConvShape::new_2d(8, 8, 4, 8, 3, 3);
        (shape, Objective::Energy, clusters)
    }

    #[test]
    fn first_writer_wins() {
        let store = DecisionStore::new();
        let stats = SearchStats {
            enumerated: 10,
            bound_pruned: 6,
            costed: 4,
        };
        store.insert(key(6), entry(100, stats));
        store.insert(key(6), entry(999, SearchStats::default()));
        let got = store.get(&key(6)).unwrap();
        assert_eq!(got.report.cycles.total, 100);
        assert_eq!(got.stats, stats);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn budgeted_keys_do_not_collide() {
        let store = DecisionStore::new();
        store.insert(key(6), entry(100, SearchStats::default()));
        store.insert(key(3), entry(200, SearchStats::default()));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key(6)).unwrap().report.cycles.total, 100);
        assert_eq!(store.get(&key(3)).unwrap().report.cycles.total, 200);
        assert!(!store.contains(&key(1)));
    }

    #[test]
    fn stats_aggregate_and_serialize() {
        let store = DecisionStore::new();
        let a = SearchStats {
            enumerated: 10,
            bound_pruned: 6,
            costed: 4,
        };
        let b = SearchStats {
            enumerated: 5,
            bound_pruned: 0,
            costed: 5,
        };
        store.insert(key(6), entry(1, a));
        store.insert(key(3), entry(2, b));
        let total = store.stats();
        assert_eq!(total, a.add(&b));
        assert!((a.prune_fraction() - 0.6).abs() < 1e-12);
        assert!(!total.is_empty() && SearchStats::default().is_empty());

        use morph_json::{FromJson, ToJson};
        let back = SearchStats::from_json(&total.to_json()).unwrap();
        assert_eq!(back, total);
    }
}
