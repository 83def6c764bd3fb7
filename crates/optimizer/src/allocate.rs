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

/// The order-free half of one level's allocation (§V-C): the corners of
/// the innermost parent tile that fit the level, and each dimension's
/// chain summaries. Nothing here reads a loop order, so one set serves
/// every order [`CornerSet::pick`] is asked about.
///
/// The corners are a product of at most three extents per dimension, so
/// each dimension's tile chain (the parents' extents plus one corner
/// extent) is summarized once and every corner's fill traffic is scored
/// from five summaries.
pub struct CornerSet {
    /// Levels in a chain: the parents plus this level.
    depth: usize,
    /// Fitting corners in enumeration order: the tile, its size, and the
    /// index of each dimension's chain in `chains`.
    fitting: Vec<(Tile, u64, [usize; 5])>,
    /// Per dimension: (corner extent, summary of its chain), one entry per
    /// distinct extent among the fitting corners.
    chains: [Vec<(usize, DimSummary)>; 5],
}

impl CornerSet {
    /// The corners for `level` below the parent tiles `upper` (outermost
    /// first; an empty chain stands for the whole layer).
    pub fn new(
        shape: &ConvShape,
        upper: &[Tile],
        level: OnChipLevel,
        arch: &ArchSpec,
        policy: FitPolicy,
    ) -> Self {
        let parent = upper.last().copied().unwrap_or_else(|| Tile::whole(shape));
        let mut chains: [Vec<(usize, DimSummary)>; 5] = Default::default();
        let mut fitting = Vec::new();
        for cand in corner_candidates(&parent) {
            if !tile_fits(shape, &cand, level, arch, policy) {
                continue;
            }
            let index = Dim::ALL.map(|d| {
                let e = cand.extent(d);
                let chain = &mut chains[d as usize];
                chain.iter().position(|&(x, _)| x == e).unwrap_or_else(|| {
                    let tiles: Vec<usize> = upper.iter().map(|t| t.extent(d)).chain([e]).collect();
                    chain.push((e, DimSummary::new(d, &DimSpec::of(shape, d), &tiles)));
                    chain.len() - 1
                })
            });
            let size = (cand.h * cand.w * cand.f * cand.c * cand.k) as u64;
            fitting.push((cand, size, index));
        }
        Self {
            depth: upper.len() + 1,
            fitting,
            chains,
        }
    }

    /// The fitting corner with the best `f_reuse` when the chain's levels
    /// run in `orders` (one per level, this level's last), larger tiles
    /// winning ties (fewer iterations, less control). `None` when no
    /// corner fits.
    ///
    /// # Panics
    ///
    /// Panics unless `orders` has one order per level of the chain.
    pub fn pick(&self, shape: &ConvShape, orders: &[LoopOrder]) -> Option<Tile> {
        assert_eq!(orders.len(), self.depth, "one loop order per level");
        let mut best: Option<(f64, u64, Tile)> = None;
        for &(cand, size, index) in &self.fitting {
            let dims = Dim::ALL.map(|d| &self.chains[d as usize][index[d as usize]].1);
            let score = reuse_score(shape, &summary_traffic(shape, orders, dims));
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
}

/// Choose the sub-tile for the next level down (§V-C), given the levels
/// configured so far: the [`CornerSet`] below them, picked under their
/// orders and `order`. Returns `None` when not even the minimum tile fits
/// (cannot happen for the evaluated architectures: the minimum tile is
/// `R·S·Ct·T` input bytes plus one output column).
pub fn allocate_level(
    shape: &ConvShape,
    upper: &[LevelConfig],
    order: LoopOrder,
    level: OnChipLevel,
    arch: &ArchSpec,
    policy: FitPolicy,
) -> Option<Tile> {
    let tiles: Vec<Tile> = upper.iter().map(|l| l.tile).collect();
    let orders: Vec<LoopOrder> = upper.iter().map(|l| l.order).chain([order]).collect();
    CornerSet::new(shape, &tiles, level, arch, policy).pick(shape, &orders)
}

/// Hierarchy allocation for the rows of one L2 tile — one (L1, L0) pick
/// per inner order — sharing the order-free work between them: one L1
/// [`CornerSet`] for the tile, and one L0 set per distinct L1 pick, each
/// built on first use. [`allocate_hierarchy`] is one row of it.
pub struct RowAllocator<'a> {
    shape: &'a ConvShape,
    arch: &'a ArchSpec,
    policy: FitPolicy,
    outer: LoopOrder,
    l2: Tile,
    l1_set: Option<CornerSet>,
    l0_sets: Vec<(Tile, CornerSet)>,
}

impl<'a> RowAllocator<'a> {
    /// The rows below `l2`, whose level runs in the `outer` order.
    pub fn new(
        shape: &'a ConvShape,
        outer: LoopOrder,
        l2: Tile,
        arch: &'a ArchSpec,
        policy: FitPolicy,
    ) -> Self {
        Self {
            shape,
            arch,
            policy,
            outer,
            l2,
            l1_set: None,
            l0_sets: Vec::new(),
        }
    }

    /// The L1 then L0 tile allocated with the `inner` order (`None` when a
    /// level has no fitting corner); [`assemble_hierarchy`] completes them.
    pub fn pick(&mut self, inner: LoopOrder) -> Option<(Tile, Tile)> {
        let (shape, arch, policy, l2) = (self.shape, self.arch, self.policy, self.l2);
        let l1 = self
            .l1_set
            .get_or_insert_with(|| CornerSet::new(shape, &[l2], OnChipLevel::L1, arch, policy))
            .pick(shape, &[self.outer, inner])?;
        let i = match self.l0_sets.iter().position(|(t, _)| *t == l1) {
            Some(i) => i,
            None => {
                let set = CornerSet::new(shape, &[l2, l1], OnChipLevel::L0, arch, policy);
                self.l0_sets.push((l1, set));
                self.l0_sets.len() - 1
            }
        };
        let l0 = self.l0_sets[i].1.pick(shape, &[self.outer, inner, inner])?;
        Some((l1, l0))
    }
}

/// The full on-chip hierarchy of an allocated `[L2, L1, L0]` chain: L2 in
/// the `outer` order, the levels below in `inner`, plus the register
/// level; normalized, and `None` if it does not validate.
pub fn assemble_hierarchy(
    shape: &ConvShape,
    outer: LoopOrder,
    inner: LoopOrder,
    [l2, l1, l0]: [Tile; 3],
    arch: &ArchSpec,
) -> Option<TilingConfig> {
    let reg = Tile {
        h: 1,
        w: 1,
        f: 1,
        c: 1,
        k: arch.vector_width.min(l0.k).max(1),
    };
    let level = |order, tile| LevelConfig { order, tile };
    let cfg = TilingConfig {
        levels: vec![
            level(outer, l2),
            level(inner, l1),
            level(inner, l0),
            level(inner, reg),
        ],
    }
    .normalize(shape);
    cfg.validate(shape).ok()?;
    Some(cfg)
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
    let (l1, l0) = RowAllocator::new(shape, outer, l2, arch, policy).pick(inner)?;
    assemble_hierarchy(shape, outer, inner, [l2, l1, l0], arch)
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
