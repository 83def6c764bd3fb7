//! The `allocate` heuristic (§V-C): choose sub-tile sizes for the lower
//! buffer levels, level by level, maximizing `f_reuse`.
//!
//! For a D-dimensional tile the paper generates `2^D` candidates by setting
//! each dimension to its minimum or maximum, takes the cartesian product
//! across data types (our tile couples the three data types through the
//! five loop dimensions, so the corner set is over the five dims), tests
//! each with `f_reuse` — the ratio of buffer fills from above to the work
//! they enable — and keeps the best that fits.

use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::{tile_bytes, LevelConfig, TilingConfig};
use morph_dataflow::pieces::DimSpec;
use morph_dataflow::traffic::{boundary_traffic, summary_traffic, BoundaryTraffic, DimSummary};
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

/// Fit rule for candidate tiles at a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitPolicy {
    /// Morph: bank-granular shared buffer (§IV-B1).
    Banked,
    /// Morph_base: static Table I partitions.
    Partitioned,
}

/// Check one tile against a level's capacity under a policy.
pub fn tile_fits(
    shape: &ConvShape,
    tile: &Tile,
    level: OnChipLevel,
    arch: &ArchSpec,
    policy: FitPolicy,
) -> bool {
    let bytes = tile_bytes(shape, tile);
    match policy {
        FitPolicy::Banked => {
            let bank = arch.bank_bytes(level) as u64;
            let banks: u64 = [bytes.input, bytes.weight, bytes.psum]
                .iter()
                .map(|b| (2 * b).div_ceil(bank))
                .sum();
            banks <= arch.banks as u64
        }
        FitPolicy::Partitioned => {
            let cap = arch.level_bytes(level) as f64 / 2.0;
            let part = morph_energy::BufferMode::table1(level);
            let morph_energy::BufferMode::Partitioned {
                input,
                output,
                weight,
            } = part
            else {
                return false;
            };
            (bytes.input as f64) <= cap * input
                && (bytes.weight as f64) <= cap * weight
                && (bytes.psum as f64) <= cap * output
        }
    }
}

/// `f_reuse` for a candidate sub-tile: MACCs enabled per byte filled into
/// the level (higher is better). Fill bytes come from the generic traffic
/// engine run on the partially-built hierarchy.
pub fn f_reuse(shape: &ConvShape, levels: &[LevelConfig]) -> f64 {
    let cfg = TilingConfig {
        levels: levels.to_vec(),
    };
    reuse_score(shape, &boundary_traffic(shape, &cfg, levels.len() - 1))
}

/// `f_reuse` of a level whose fill traffic is `fill`.
fn reuse_score(shape: &ConvShape, fill: &BoundaryTraffic) -> f64 {
    shape.maccs() as f64 / fill.total().max(1) as f64
}

/// Corner candidates for one level: each dimension set to min (1), mid
/// (half the parent), or max (the parent extent).
fn corner_candidates(parent: &Tile) -> Vec<Tile> {
    let mut out = Vec::new();
    // The paper's corner set is min/max per dimension (2^D); H and F get
    // the halfway point too, since they dominate halo behaviour.
    let corners = |e: usize| {
        let mut v = vec![1, e];
        v.dedup();
        v
    };
    let choices = |e: usize| {
        let mut v = vec![1, e.div_ceil(2), e];
        v.sort_unstable();
        v.dedup();
        v
    };
    for &h in &choices(parent.h) {
        for &w in &corners(parent.w) {
            for &f in &choices(parent.f) {
                for &c in &corners(parent.c) {
                    for &k in &corners(parent.k) {
                        out.push(Tile { h, w, f, c, k });
                    }
                }
            }
        }
    }
    out
}

/// Choose the sub-tile for the next level down (§V-C), given the levels
/// configured so far. Returns `None` when not even the minimum tile fits
/// (cannot happen for the evaluated architectures: the minimum tile is
/// `R·S·Ct·T` input bytes plus one output column).
///
/// Every corner is scored by `f_reuse`. The corners are a product of at
/// most three extents per dimension, so each dimension's tile chain
/// (the upper levels' extents plus one corner extent) is summarized once
/// and every corner's fill traffic is scored from five summaries.
pub fn allocate_level(
    shape: &ConvShape,
    upper: &[LevelConfig],
    order: LoopOrder,
    level: OnChipLevel,
    arch: &ArchSpec,
    policy: FitPolicy,
) -> Option<Tile> {
    let parent = upper.last().map_or_else(|| Tile::whole(shape), |l| l.tile);
    let corners = corner_candidates(&parent);
    let orders: Vec<LoopOrder> = upper.iter().map(|l| l.order).chain([order]).collect();
    // Per dimension: (corner extent, summary of its chain), one entry per
    // distinct extent.
    let chains = Dim::ALL.map(|d| {
        let spec = DimSpec::of(shape, d);
        let mut out: Vec<(usize, DimSummary)> = Vec::new();
        for cand in &corners {
            let e = cand.extent(d);
            if out.iter().all(|&(x, _)| x != e) {
                let tiles: Vec<usize> = upper.iter().map(|l| l.tile.extent(d)).chain([e]).collect();
                out.push((e, DimSummary::new(d, &spec, &tiles)));
            }
        }
        out
    });
    let summary = |d: Dim, e: usize| {
        chains[d as usize]
            .iter()
            .find(|&&(x, _)| x == e)
            .map(|&(_, s)| s)
            .expect("every corner extent has a chain summary")
    };
    let mut best: Option<(f64, u64, Tile)> = None;
    for cand in corners {
        if !tile_fits(shape, &cand, level, arch, policy) {
            continue;
        }
        let dims = Dim::ALL.map(|d| summary(d, cand.extent(d)));
        let score = reuse_score(shape, &summary_traffic(shape, &orders, &dims));
        let size = (cand.h * cand.w * cand.f * cand.c * cand.k) as u64;
        // Tie-break by larger tiles (fewer iterations, less control).
        let better = match &best {
            None => true,
            Some((s, sz, _)) => score > *s || (score == *s && size > *sz),
        };
        if better {
            best = Some((score, size, cand));
        }
    }
    best.map(|(_, _, t)| t)
}

/// Build the full on-chip hierarchy below a chosen L2 tile: allocate L1
/// then L0 with the given inner order, and append the register level.
pub fn allocate_hierarchy(
    shape: &ConvShape,
    outer: LoopOrder,
    inner: LoopOrder,
    l2: Tile,
    arch: &ArchSpec,
    policy: FitPolicy,
) -> Option<TilingConfig> {
    let mut levels = vec![LevelConfig {
        order: outer,
        tile: l2,
    }];
    let l1 = allocate_level(shape, &levels, inner, OnChipLevel::L1, arch, policy)?;
    levels.push(LevelConfig {
        order: inner,
        tile: l1,
    });
    let l0 = allocate_level(shape, &levels, inner, OnChipLevel::L0, arch, policy)?;
    levels.push(LevelConfig {
        order: inner,
        tile: l0,
    });
    let reg = Tile {
        h: 1,
        w: 1,
        f: 1,
        c: 1,
        k: arch.vector_width.min(l0.k).max(1),
    };
    levels.push(LevelConfig {
        order: inner,
        tile: reg,
    });
    let cfg = TilingConfig { levels }.normalize(shape);
    cfg.validate(shape).ok()?;
    Some(cfg)
}

/// Morph_base's fixed tiling policy: start from the whole parent tile and
/// halve dimensions in a fixed rotation (H/W first, then F, K, C) until the
/// tile fits the level's static partition. This models hard-coded FSM
/// control (§IV-A2): the *strategy* is frozen; only layer bounds vary.
pub fn policy_tile(shape: &ConvShape, parent: &Tile, level: OnChipLevel, arch: &ArchSpec) -> Tile {
    let mut t = *parent;
    let rotation = [
        |t: &mut Tile| t.h = t.h.div_ceil(2),
        |t: &mut Tile| t.w = t.w.div_ceil(2),
        |t: &mut Tile| t.f = t.f.div_ceil(2),
        |t: &mut Tile| t.k = t.k.div_ceil(2),
        |t: &mut Tile| t.c = t.c.div_ceil(2),
    ];
    let mut i = 0;
    while !tile_fits(shape, &t, level, arch, FitPolicy::Partitioned) {
        if t.h <= 1 && t.w <= 1 && t.f <= 1 && t.k <= 1 && t.c <= 1 {
            break;
        }
        rotation[i % rotation.len()](&mut t);
        i += 1;
    }
    t
}

/// Build Morph_base's full fixed-policy hierarchy for a layer.
pub fn base_hierarchy(shape: &ConvShape, arch: &ArchSpec) -> TilingConfig {
    let whole = Tile::whole(shape);
    let outer = LoopOrder::base_outer();
    let inner = LoopOrder::base_inner();
    let l2 = policy_tile(shape, &whole, OnChipLevel::L2, arch);
    let l1 = policy_tile(shape, &l2, OnChipLevel::L1, arch);
    let l0 = policy_tile(shape, &l1, OnChipLevel::L0, arch);
    let reg = Tile {
        h: 1,
        w: 1,
        f: 1,
        c: 1,
        k: arch.vector_width.min(l0.k).max(1),
    };
    TilingConfig {
        levels: vec![
            LevelConfig {
                order: outer,
                tile: l2,
            },
            LevelConfig {
                order: inner,
                tile: l1,
            },
            LevelConfig {
                order: inner,
                tile: l0,
            },
            LevelConfig {
                order: inner,
                tile: reg,
            },
        ],
    }
    .normalize(shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> ConvShape {
        ConvShape::new_3d(28, 28, 8, 128, 256, 3, 3, 3).with_pad(1, 1)
    }

    #[test]
    fn allocate_produces_fitting_hierarchy() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let l2 = Tile {
            h: 28,
            w: 28,
            f: 4,
            c: 64,
            k: 32,
        };
        let cfg = allocate_hierarchy(
            &sh,
            LoopOrder::base_outer(),
            LoopOrder::base_inner(),
            l2,
            &arch,
            FitPolicy::Banked,
        )
        .expect("allocation succeeds");
        assert_eq!(cfg.levels.len(), 4);
        assert!(tile_fits(
            &sh,
            cfg.tile(OnChipLevel::L1),
            OnChipLevel::L1,
            &arch,
            FitPolicy::Banked
        ));
        assert!(tile_fits(
            &sh,
            cfg.tile(OnChipLevel::L0),
            OnChipLevel::L0,
            &arch,
            FitPolicy::Banked
        ));
    }

    #[test]
    fn freuse_prefers_larger_reuse_tiles() {
        // A tile that covers more of the layer yields more MACCs per fill.
        let sh = layer();
        let outer = LevelConfig {
            order: LoopOrder::base_outer(),
            tile: Tile::whole(&sh),
        };
        let small = LevelConfig {
            order: LoopOrder::base_inner(),
            tile: Tile::unit(),
        };
        let big = LevelConfig {
            order: LoopOrder::base_inner(),
            tile: Tile {
                h: 14,
                w: 14,
                f: 4,
                c: 32,
                k: 16,
            },
        };
        let f_small = f_reuse(&sh, &[outer, small]);
        let f_big = f_reuse(&sh, &[outer, big]);
        assert!(f_big > f_small);
    }

    #[test]
    fn partitioned_policy_is_stricter_for_weights() {
        // A weight-heavy tile fits banked sharing but not the 21.5 % L2
        // weight partition.
        let sh = layer();
        let arch = ArchSpec::morph();
        let weighty = Tile {
            h: 2,
            w: 2,
            f: 1,
            c: 128,
            k: 256,
        }; // 864 KB weights? no: 256·128·27 = 884k... pick smaller
        let t = Tile {
            h: 2,
            w: 2,
            f: 1,
            c: 128,
            k: 40,
        }; // 138 KB weights > 110 KB partition
        assert!(tile_fits(
            &sh,
            &t,
            OnChipLevel::L2,
            &arch,
            FitPolicy::Banked
        ));
        assert!(!tile_fits(
            &sh,
            &t,
            OnChipLevel::L2,
            &arch,
            FitPolicy::Partitioned
        ));
        let _ = weighty;
    }

    #[test]
    fn minimum_tile_always_fits() {
        let sh = layer();
        let arch = ArchSpec::morph();
        let min = Tile::unit();
        for level in OnChipLevel::ALL {
            assert!(tile_fits(&sh, &min, level, &arch, FitPolicy::Banked));
            assert!(tile_fits(&sh, &min, level, &arch, FitPolicy::Partitioned));
        }
    }
}
