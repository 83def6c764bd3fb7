//! Mapping-legality audit: re-derive every stored decision's feasibility
//! from first principles.
//!
//! The optimizer's search already *believes* its decisions fit — this
//! pass re-checks them against nothing but the architecture description
//! and the tile geometry, so a bug in the allocator, the budget plumbing
//! or the store keying shows up as a [`Violation`] instead of a silently
//! corrupted perf trajectory.
//!
//! For a store entry keyed `(shape, objective, clusters)` the audited
//! architecture is `ArchSpec { clusters, ..chip }` — exactly the
//! reduced-cluster spec a budgeted evaluation
//! (`Backend::evaluate_layer_budget_sweep`) searches under, with the memory
//! hierarchy unchanged. A decision must therefore hold on the cluster
//! share its key claims, never on the full chip it may have been
//! derived next to.

use crate::{AuditPass, Violation};
use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::{tile_bytes, TilingConfig};
use morph_dataflow::perf::Parallelism;
use morph_optimizer::{DecisionStore, StoreKey, StoredDecision};
use morph_tensor::order::Dim;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

fn v(rule: &'static str, subject: &str, detail: String) -> Violation {
    Violation::new(AuditPass::Mapping, rule, subject, detail)
}

/// Compact subject label for a store key.
fn subject(key: &StoreKey) -> String {
    let (s, obj, clusters) = (&key.0, key.1, key.2);
    format!(
        "{}x{}x{}/c{}/k{} {}x{}x{} [{}, {} clusters]",
        s.h,
        s.w,
        s.f,
        s.c,
        s.k,
        s.r,
        s.s,
        s.t,
        obj.label(),
        clusters
    )
}

/// Audit one store entry against the chip it was searched for.
///
/// `banked` selects the stricter bank-granular capacity rule (Morph's
/// §IV-B1 allocator assigns whole banks per data type); without it only
/// the policy-independent double-buffered byte budget is enforced, which
/// both the banked and the statically-partitioned (Morph_base) allocators
/// imply.
pub fn audit_entry(
    chip: &ArchSpec,
    banked: bool,
    key: &StoreKey,
    d: &StoredDecision,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let subj = subject(key);
    let (shape, _, clusters) = (&key.0, key.1, key.2);

    if clusters == 0 || clusters > chip.clusters {
        out.push(v(
            "cluster-budget-exceeds-chip",
            &subj,
            format!(
                "decision keyed to {clusters} clusters, chip has {}",
                chip.clusters
            ),
        ));
    }

    let stats = &d.stats;
    if stats.bound_pruned + stats.costed > stats.enumerated {
        out.push(v(
            "search-stats-arithmetic",
            &subj,
            format!(
                "bound_pruned {} + costed {} exceeds enumerated {}",
                stats.bound_pruned, stats.costed, stats.enumerated
            ),
        ));
    }
    // A searched mapping can only come out of a costed candidate: stats
    // that enumerated a stream yet costed nothing are vacuous — the
    // decision they claim to describe was never actually evaluated.
    // (Matches the streaming trace counters: every search that selects a
    // decision ends with a `costed` counter of at least 1.)
    if d.mapping.is_some() && stats.enumerated > 0 && stats.costed == 0 {
        out.push(v(
            "search-stats-vacuous",
            &subj,
            format!(
                "entry carries a searched mapping but its stats costed 0 of {} enumerated candidates",
                stats.enumerated
            ),
        ));
    }

    let Some((config, par)) = &d.mapping else {
        return out; // cost-only entry (fixed-dataflow backend)
    };

    // The spec the key claims: the chip with its cluster count reduced,
    // memory hierarchy untouched (mirrors budgeted evaluation).
    let arch = ArchSpec {
        clusters: clusters.clamp(1, chip.clusters.max(1)),
        ..*chip
    };

    audit_nesting(shape, config, &subj, &mut out);
    audit_budgets(shape, config, &arch, banked, &subj, &mut out);
    audit_parallelism(par, &arch, &subj, &mut out);
    out
}

/// Geometric nesting re-derived independently of `TilingConfig::validate`:
/// every level's extents are ≥ 1 and ≤ its parent's (the layer itself at
/// the root), and every loop order names each of the five dims exactly
/// once.
fn audit_nesting(shape: &ConvShape, config: &TilingConfig, subj: &str, out: &mut Vec<Violation>) {
    let mut parent = Tile::whole(shape);
    for (i, level) in config.levels.iter().enumerate() {
        for d in Dim::ALL {
            let e = level.tile.extent(d);
            if e == 0 {
                out.push(v(
                    "tile-nesting",
                    subj,
                    format!("level {i}: {d:?} tile extent is zero"),
                ));
            } else if e > parent.extent(d) {
                out.push(v(
                    "tile-nesting",
                    subj,
                    format!(
                        "level {i}: {d:?} extent {e} exceeds parent extent {}",
                        parent.extent(d)
                    ),
                ));
            }
        }
        let dims = level.order.dims();
        let is_permutation = Dim::ALL
            .iter()
            .all(|d| dims.iter().filter(|x| *x == d).count() == 1);
        if !is_permutation {
            out.push(v(
                "loop-order-incomplete",
                subj,
                format!(
                    "level {i}: order {:?} is not a permutation of the five dims",
                    level.order.dims()
                ),
            ));
        }
        parent = level.tile;
    }
}

/// On-chip capacity re-derived from the tile footprints: the first three
/// levels of a standard config are L2/L1/L0; each data type is double
/// buffered, so a level's total footprint must fit half its buffer
/// ([`ArchSpec::tile_budget_bytes`]). With `banked`, each type also
/// occupies whole banks and the bank sum must fit the level's bank count.
fn audit_budgets(
    shape: &ConvShape,
    config: &TilingConfig,
    arch: &ArchSpec,
    banked: bool,
    subj: &str,
    out: &mut Vec<Violation>,
) {
    for (level, onchip) in config.levels.iter().zip(OnChipLevel::ALL) {
        let bytes = tile_bytes(shape, &level.tile);
        let budget = arch.tile_budget_bytes(onchip) as u64;
        if bytes.total() > budget {
            out.push(v(
                "tile-over-budget",
                subj,
                format!(
                    "{onchip:?}: tile footprint {} B (in {} + w {} + ps {}) exceeds double-buffered budget {budget} B",
                    bytes.total(),
                    bytes.input,
                    bytes.weight,
                    bytes.psum
                ),
            ));
        }
        if banked {
            let bank = arch.bank_bytes(onchip) as u64;
            let banks_needed: u64 = [bytes.input, bytes.weight, bytes.psum]
                .iter()
                .map(|b| (2 * b).div_ceil(bank.max(1)))
                .sum();
            if banks_needed > arch.banks as u64 {
                out.push(v(
                    "bank-overflow",
                    subj,
                    format!(
                        "{onchip:?}: tile needs {banks_needed} banks of {bank} B, level has {}",
                        arch.banks
                    ),
                ));
            }
        }
    }
    // The register level (4th entry of a standard config) is the PE's
    // vector of output-channel accumulators: it cannot exceed Vw.
    if let Some(reg) = config.levels.get(3) {
        if reg.tile.k > arch.vector_width.max(1) {
            out.push(v(
                "register-tile-exceeds-vector-width",
                subj,
                format!(
                    "register level holds {} output channels, vector width is {}",
                    reg.tile.k, arch.vector_width
                ),
            ));
        }
    }
}

/// Cluster allocation: the decision's spatial parallelism must fit on the
/// PEs of the cluster share its key claims — a budgeted decision may
/// never silently use the full chip.
fn audit_parallelism(par: &Parallelism, arch: &ArchSpec, subj: &str, out: &mut Vec<Violation>) {
    if par.pes() == 0 {
        out.push(v(
            "parallelism-zero",
            subj,
            format!("degenerate parallelism {par:?} occupies zero PEs"),
        ));
    } else if par.pes() > arch.total_pes() {
        out.push(v(
            "parallelism-over-pes",
            subj,
            format!(
                "parallelism {par:?} needs {} PEs, budget of {} clusters provides {}",
                par.pes(),
                arch.clusters,
                arch.total_pes()
            ),
        ));
    }
}

/// Audit every entry of a backend's decision store against its chip.
pub fn audit_store(chip: &ArchSpec, banked: bool, store: &DecisionStore) -> Vec<Violation> {
    let mut out = Vec::new();
    for (key, entry) in store.entries() {
        out.extend(audit_entry(chip, banked, &key, &entry));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_optimizer::{Objective, SearchStats};
    use morph_tensor::order::LoopOrder;

    fn arch() -> ArchSpec {
        ArchSpec::morph()
    }

    fn shape() -> ConvShape {
        ConvShape::new_2d(16, 16, 4, 16, 3, 3)
    }

    fn good_config(a: &ArchSpec, s: &ConvShape) -> TilingConfig {
        TilingConfig::morph(
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            Tile {
                h: 8,
                w: 8,
                f: 1,
                c: 4,
                k: 8,
            },
            Tile {
                h: 4,
                w: 4,
                f: 1,
                c: 4,
                k: 8,
            },
            Tile {
                h: 2,
                w: 2,
                f: 1,
                c: 2,
                k: 8,
            },
            a.vector_width,
        )
        .normalize(s)
    }

    fn entry(a: &ArchSpec, s: &ConvShape) -> StoredDecision {
        StoredDecision {
            report: morph_energy::EnergyReport::zero(),
            mapping: Some((good_config(a, s), Parallelism::serial())),
            stats: SearchStats {
                enumerated: 10,
                bound_pruned: 4,
                costed: 5,
            },
        }
    }

    fn key(clusters: usize) -> StoreKey {
        (shape(), Objective::Energy, clusters)
    }

    #[test]
    fn clean_entry_passes() {
        let a = arch();
        let violations = audit_entry(&a, true, &key(a.clusters), &entry(&a, &shape()));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn inflated_tile_is_flagged() {
        let a = arch();
        let mut e = entry(&a, &shape());
        // Blow the L2 tile up far past the double-buffered budget without
        // breaking nesting (extents stay within the layer).
        let s = ConvShape::new_2d(256, 256, 4, 512, 3, 3);
        let big = Tile::whole(&s);
        if let Some((config, _)) = &mut e.mapping {
            config.levels[0].tile = big;
            config.levels[1].tile = big;
            config.levels[2].tile = big;
        }
        let k = (s, Objective::Energy, a.clusters);
        let violations = audit_entry(&a, true, &k, &e);
        assert!(
            Violation::any_rule(&violations, "tile-over-budget"),
            "{violations:?}"
        );
        assert!(
            Violation::any_rule(&violations, "bank-overflow"),
            "{violations:?}"
        );
    }

    #[test]
    fn broken_nesting_is_flagged() {
        let a = arch();
        let mut e = entry(&a, &shape());
        if let Some((config, _)) = &mut e.mapping {
            // The L0 tile claims more output channels than its L1 parent.
            config.levels[2].tile.k = config.levels[1].tile.k + 1;
        }
        let violations = audit_entry(&a, true, &key(a.clusters), &e);
        assert!(
            Violation::any_rule(&violations, "tile-nesting"),
            "{violations:?}"
        );
    }

    #[test]
    fn over_budget_clusters_are_flagged() {
        let a = arch();
        let violations = audit_entry(&a, true, &key(a.clusters + 1), &entry(&a, &shape()));
        assert!(
            Violation::any_rule(&violations, "cluster-budget-exceeds-chip"),
            "{violations:?}"
        );
    }

    #[test]
    fn oversubscribed_parallelism_is_flagged() {
        let a = arch();
        let mut e = entry(&a, &shape());
        if let Some((_, par)) = &mut e.mapping {
            // One cluster's worth of PEs cannot carry the full-chip base
            // parallelism.
            *par = Parallelism::base(&a);
        }
        let violations = audit_entry(&a, true, &(shape(), Objective::Energy, 1), &e);
        assert!(
            Violation::any_rule(&violations, "parallelism-over-pes"),
            "{violations:?}"
        );
    }

    #[test]
    fn bad_search_stats_are_flagged() {
        let a = arch();
        let mut e = entry(&a, &shape());
        e.stats = SearchStats {
            enumerated: 3,
            bound_pruned: 2,
            costed: 2,
        };
        let violations = audit_entry(&a, true, &key(a.clusters), &e);
        assert!(
            Violation::any_rule(&violations, "search-stats-arithmetic"),
            "{violations:?}"
        );
    }

    #[test]
    fn vacuous_search_stats_are_flagged() {
        let a = arch();
        let mut e = entry(&a, &shape());
        e.stats = SearchStats {
            enumerated: 10,
            bound_pruned: 10,
            costed: 0,
        };
        let violations = audit_entry(&a, true, &key(a.clusters), &e);
        assert!(
            Violation::any_rule(&violations, "search-stats-vacuous"),
            "{violations:?}"
        );
        // A cost-only entry (no mapping) with empty stats stays clean.
        e.mapping = None;
        e.stats = SearchStats::default();
        let violations = audit_entry(&a, true, &key(a.clusters), &e);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn store_audit_walks_every_entry() {
        let a = arch();
        let store = DecisionStore::new();
        store.insert(key(a.clusters), entry(&a, &shape()));
        store.insert(key(a.clusters + 2), entry(&a, &shape()));
        let violations = audit_store(&a, true, &store);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.rule == "cluster-budget-exceeds-chip")
                .count(),
            1
        );
    }
}
