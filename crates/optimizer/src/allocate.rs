//! The `allocate` heuristic (§V-C): choose sub-tile sizes for the lower
//! buffer levels, level by level, maximizing `f_reuse`.
//!
//! For a D-dimensional tile the paper generates `2^D` candidates by setting
//! each dimension to its minimum or maximum, takes the cartesian product
//! across data types (our tile couples the three data types through the
//! five loop dimensions, so the corner set is over the five dims), tests
//! each with `f_reuse` — the ratio of buffer fills from above to the work
//! they enable — and keeps the best that fits.

use crate::space::order_signature;
use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::{tile_bytes, LevelConfig, TilingConfig};
use morph_dataflow::traffic::{boundary_traffic, BoundaryTraffic, ChainId, ChainSummaries};
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;
use std::collections::HashMap;

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
/// the level (higher is better). Fill bytes come from the reference
/// traffic scan ([`boundary_traffic`]) run on the partially-built
/// hierarchy.
pub fn f_reuse(shape: &ConvShape, levels: &[LevelConfig]) -> f64 {
    let cfg = TilingConfig {
        levels: levels.to_vec(),
    };
    reuse_score(
        shape.maccs(),
        &boundary_traffic(shape, &cfg, levels.len() - 1),
    )
}

/// `f_reuse` of a level whose fill traffic is `fill`.
fn reuse_score(maccs: u64, fill: &BoundaryTraffic) -> f64 {
    maccs as f64 / fill.total().max(1) as f64
}

/// Each dimension's corner extents below `parent`, in [`Dim::ALL`]
/// order: min (1) and max (the parent extent). The paper's corner set is
/// min/max per dimension (2^D); H and F get the halfway point too, since
/// they dominate halo behaviour.
fn corner_extents(parent: &Tile) -> [Vec<usize>; 5] {
    Dim::ALL.map(|d| {
        let e = parent.extent(d);
        let mut v = match d {
            Dim::H | Dim::F => vec![1, e.div_ceil(2), e],
            _ => vec![1, e],
        };
        v.dedup();
        v
    })
}

/// The corner candidates: the product of each dimension's corner
/// extents, enumerated `h, w, f, c, k` outermost first, each with the
/// index of its extent per dimension ([`Dim::ALL`] order).
fn corner_candidates(extents: &[Vec<usize>; 5]) -> Vec<(Tile, [usize; 5])> {
    let [ws, hs, cs, ks, fs] = extents;
    let mut out = Vec::new();
    for (ih, &h) in hs.iter().enumerate() {
        for (iw, &w) in ws.iter().enumerate() {
            for (jf, &f) in fs.iter().enumerate() {
                for (ic, &c) in cs.iter().enumerate() {
                    for (ik, &k) in ks.iter().enumerate() {
                        out.push((Tile { h, w, f, c, k }, [iw, ih, ic, ik, jf]));
                    }
                }
            }
        }
    }
    out
}

/// A fitting corner of a [`CornerSet`].
struct Corner {
    tile: Tile,
    /// Its element count (larger tiles win `f_reuse` ties).
    size: u64,
    /// Each dimension's chain: the parents' extents plus the corner's.
    chains: [ChainId; 5],
    /// Its group in [`CornerSet::groups`] and its slot there.
    group: usize,
    slot: usize,
}

/// The order-free half of one level's allocation (§V-C): the corners of
/// the innermost parent tile that fit the level, with each dimension's
/// chain drawn from a [`ChainSummaries`]. Nothing here reads a loop
/// order, so one set serves every order [`CornerSet::pick`] is asked
/// about.
///
/// The transfer rules read a loop only when it has more than one trip, so
/// a corner's `f_reuse` under some orders depends only on each level's
/// [`order_signature`] over the corner's multi-trip dimensions. The
/// parent levels' multi-trip dimensions are the same for every corner;
/// this level's split the corners into groups. Each group's scores are
/// computed once per signature and remembered.
pub struct CornerSet {
    /// Levels in a chain: the parents plus this level.
    depth: usize,
    /// Multi-trip dimensions of each parent level, outermost first.
    upper: Vec<u8>,
    /// Fitting corners in enumeration order.
    corners: Vec<Corner>,
    /// Per group: this level's multi-trip dimensions, shared by its
    /// corners, and the corners' indices in enumeration order.
    groups: Vec<(u8, Vec<usize>)>,
    /// The parent levels' signature lists seen, numbered in order. Few
    /// are distinct, so the memo below is keyed by their number: keying
    /// it by the whole list gives every entry a heap key to compare.
    classes: HashMap<Vec<u16>, usize>,
    /// Per (parent class, this level's signature): where its group's
    /// corner scores start in `scores`, in the group's order. This
    /// level's signature names its multi-trip dimensions, so it names
    /// the group.
    memo: HashMap<(usize, u16), usize>,
    scores: Vec<f64>,
    /// Scratch for [`CornerSet::pick`]: the parents' signature list, and
    /// where each group's scores start.
    key: Vec<u16>,
    starts: Vec<usize>,
}

impl CornerSet {
    /// The corners for `level` below the parent tiles `upper` (outermost
    /// first; an empty chain stands for the whole layer) of the shape
    /// `chains` summarizes.
    pub fn new(
        chains: &mut ChainSummaries,
        upper: &[Tile],
        level: OnChipLevel,
        arch: &ArchSpec,
        policy: FitPolicy,
    ) -> Self {
        let shape = *chains.shape();
        let parent = upper.last().copied().unwrap_or_else(|| Tile::whole(&shape));
        let depth = upper.len();
        let mut set = Self {
            depth: depth + 1,
            upper: Vec::new(),
            corners: Vec::new(),
            groups: Vec::new(),
            classes: HashMap::new(),
            memo: HashMap::new(),
            scores: Vec::new(),
            key: Vec::new(),
            starts: Vec::new(),
        };
        let extents = corner_extents(&parent);
        // Each extent's chain, requested when a fitting corner first
        // uses it.
        let mut ids = extents.each_ref().map(|e| vec![None; e.len()]);
        let mut tiles = Vec::with_capacity(depth + 1);
        for (tile, at) in corner_candidates(&extents) {
            if !tile_fits(&shape, &tile, level, arch, policy) {
                continue;
            }
            let corner_chains = Dim::ALL.map(|d| {
                *ids[d as usize][at[d as usize]].get_or_insert_with(|| {
                    tiles.clear();
                    tiles.extend(upper.iter().map(|t| t.extent(d)));
                    tiles.push(tile.extent(d));
                    chains.chain(d, &tiles)
                })
            });
            if set.corners.is_empty() {
                set.upper = (0..depth)
                    .map(|l| chains.multi_trip(corner_chains, l))
                    .collect();
            }
            let trips = chains.multi_trip(corner_chains, depth);
            let group = match set.groups.iter().position(|(t, _)| *t == trips) {
                Some(group) => group,
                None => {
                    set.groups.push((trips, Vec::new()));
                    set.groups.len() - 1
                }
            };
            let members = &mut set.groups[group].1;
            set.corners.push(Corner {
                tile,
                size: (tile.h * tile.w * tile.f * tile.c * tile.k) as u64,
                chains: corner_chains,
                group,
                slot: members.len(),
            });
            members.push(set.corners.len() - 1);
        }
        set
    }

    /// How many `f_reuse` scores this set has computed.
    fn scored(&self) -> u64 {
        self.scores.len() as u64
    }

    /// The fitting corner with the best `f_reuse` when the chain's levels
    /// run in `orders` (one per level, this level's last), larger tiles
    /// winning ties (fewer iterations, less control). `None` when no
    /// corner fits.
    ///
    /// # Panics
    ///
    /// Panics unless `orders` has one order per level of the chain.
    pub fn pick(&mut self, chains: &ChainSummaries, orders: &[LoopOrder]) -> Option<Tile> {
        assert_eq!(orders.len(), self.depth, "one loop order per level");
        if self.corners.is_empty() {
            return None;
        }
        let (last, parents) = orders.split_last()?;
        self.key.clear();
        self.key.extend(
            parents
                .iter()
                .zip(&self.upper)
                .map(|(&o, &trips)| order_signature(o, trips)),
        );
        let class = match self.classes.get(self.key.as_slice()) {
            Some(&class) => class,
            None => {
                let class = self.classes.len();
                self.classes.insert(self.key.clone(), class);
                class
            }
        };
        // Each group's scores under these orders, scored on first sight.
        self.starts.clear();
        for (trips, members) in &self.groups {
            let key = (class, order_signature(*last, *trips));
            let start = *self.memo.entry(key).or_insert_with(|| {
                let start = self.scores.len();
                self.scores.extend(members.iter().map(|&i| {
                    let fill = chains.boundary(orders, self.corners[i].chains);
                    reuse_score(chains.maccs(), &fill)
                }));
                start
            });
            self.starts.push(start);
        }
        let mut best: Option<(f64, u64, Tile)> = None;
        for c in &self.corners {
            let score = self.scores[self.starts[c.group] + c.slot];
            let better = match &best {
                None => true,
                Some((s, sz, _)) => score > *s || (score == *s && c.size > *sz),
            };
            if better {
                best = Some((score, c.size, c.tile));
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
    let mut chains = ChainSummaries::new(shape);
    CornerSet::new(&mut chains, &tiles, level, arch, policy).pick(&chains, &orders)
}

/// Hierarchy allocation for the rows of one L2 tile — one (L1, L0) pick
/// per inner order — sharing the order-free work between them: one L1
/// [`CornerSet`] for the tile, and one L0 set per distinct L1 pick, each
/// built on first use, with their chains drawn from the caller's
/// [`ChainSummaries`]. [`allocate_hierarchy`] is one row of it.
pub struct RowAllocator<'a> {
    arch: &'a ArchSpec,
    policy: FitPolicy,
    outer: LoopOrder,
    l2: Tile,
    l1_set: Option<CornerSet>,
    l0_sets: Vec<(Tile, CornerSet)>,
}

impl<'a> RowAllocator<'a> {
    /// The rows below `l2`, whose level runs in the `outer` order.
    pub fn new(outer: LoopOrder, l2: Tile, arch: &'a ArchSpec, policy: FitPolicy) -> Self {
        Self {
            arch,
            policy,
            outer,
            l2,
            l1_set: None,
            l0_sets: Vec::new(),
        }
    }

    /// The L1 then L0 tile allocated with the `inner` order (`None` when a
    /// level has no fitting corner), for the shape `chains` summarizes;
    /// [`assemble_hierarchy`] completes them.
    pub fn pick(&mut self, chains: &mut ChainSummaries, inner: LoopOrder) -> Option<(Tile, Tile)> {
        let (arch, policy, l2) = (self.arch, self.policy, self.l2);
        let l1 = self
            .l1_set
            .get_or_insert_with(|| CornerSet::new(chains, &[l2], OnChipLevel::L1, arch, policy))
            .pick(chains, &[self.outer, inner])?;
        let i = match self.l0_sets.iter().position(|(t, _)| *t == l1) {
            Some(i) => i,
            None => {
                let set = CornerSet::new(chains, &[l2, l1], OnChipLevel::L0, arch, policy);
                self.l0_sets.push((l1, set));
                self.l0_sets.len() - 1
            }
        };
        let l0 = self.l0_sets[i]
            .1
            .pick(chains, &[self.outer, inner, inner])?;
        Some((l1, l0))
    }

    /// How many `f_reuse` scores this allocator's corner sets computed.
    pub fn corner_scores(&self) -> u64 {
        self.l1_set
            .iter()
            .chain(self.l0_sets.iter().map(|(_, s)| s))
            .map(CornerSet::scored)
            .sum()
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
    let cfg = TilingConfig::morph(outer, inner, l2, l1, l0, arch.vector_width).normalize(shape);
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
    let mut chains = ChainSummaries::new(shape);
    let (l1, l0) = RowAllocator::new(outer, l2, arch, policy).pick(&mut chains, inner)?;
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
    let l2 = policy_tile(shape, &Tile::whole(shape), OnChipLevel::L2, arch);
    let l1 = policy_tile(shape, &l2, OnChipLevel::L1, arch);
    let l0 = policy_tile(shape, &l1, OnChipLevel::L0, arch);
    TilingConfig::morph(
        LoopOrder::base_outer(),
        LoopOrder::base_inner(),
        l2,
        l1,
        l0,
        arch.vector_width,
    )
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
