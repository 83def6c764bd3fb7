//! Real-threads stress test for the shared [`DecisionStore`]: sixteen
//! OS threads race inserts and reads of the same keys. Each repeat must
//! produce the identical entry count and identical aggregate
//! [`SearchStats`] — the determinism the budgeted sweep's reports rely
//! on.

use morph_dataflow::perf::CycleReport;
use morph_energy::EnergyReport;
use morph_optimizer::search::Objective;
use morph_optimizer::store::{DecisionStore, SearchStats, StoredDecision};
use morph_tensor::shape::ConvShape;

/// Worker threads per hammering round.
const THREADS: usize = 16;

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

/// Stats deterministically derived from the key, so duplicate inserts of
/// the same key always carry identical payloads — as real duplicate
/// searches do.
fn stats_for(k: usize) -> SearchStats {
    let enumerated = 10 + k as u64;
    SearchStats {
        enumerated,
        bound_pruned: enumerated / 2,
        costed: enumerated - enumerated / 2,
    }
}

/// One full hammering round: [`THREADS`] workers race inserts and reads
/// of `keys` distinct keys, every key inserted by every worker, with
/// interleaved read-back checks. Returns the end-state summary.
fn hammer(keys: usize, rounds: usize) -> (usize, SearchStats) {
    let store = DecisionStore::new();
    let store = &store;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for r in 0..rounds {
                    // Walk the key space in a thread-dependent order so
                    // writers collide on different keys at different times.
                    for i in 0..keys {
                        let k = (i + t + r) % keys;
                        let shape = ConvShape::new_2d(8, 8, 4, 8, 3, 3);
                        let key = (shape, Objective::Energy, k + 1);
                        store.insert(key, entry(100 + k as u64, stats_for(k)));
                        let got = store.get(&key).expect("inserted key must be present");
                        // First-writer-wins with identical payloads per key:
                        // every read sees exactly the canonical entry.
                        assert_eq!(got.stats, stats_for(k), "key {k} stats corrupted");
                        assert_eq!(got.report.cycles.total, 100 + k as u64);
                    }
                }
            });
        }
    });
    (store.len(), store.stats())
}

#[test]
fn stress_store_is_deterministic_across_repeats() {
    let keys = 17;
    let expected_stats = (0..keys).fold(SearchStats::default(), |acc, k| acc.add(&stats_for(k)));
    let mut outcomes = Vec::new();
    for repeat in 0..3 {
        let (len, stats) = hammer(keys, 4);
        assert_eq!(len, keys, "repeat {repeat}: entry count unstable");
        assert_eq!(
            stats, expected_stats,
            "repeat {repeat}: aggregate stats drifted"
        );
        outcomes.push((len, stats));
    }
    assert!(
        outcomes.windows(2).all(|w| w[0] == w[1]),
        "outcomes must be identical across repeats: {outcomes:?}"
    );
}
