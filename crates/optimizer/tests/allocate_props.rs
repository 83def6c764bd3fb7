//! Oracle tests for the allocation kernel. `allocate_hierarchy` scores a
//! level's corner candidates from per-dimension chain summaries; the slow
//! reference here scores every fitting corner with the public `f_reuse`
//! on a freshly built configuration, as the §V-C heuristic states it. The
//! search's shared path, which reuses one L2 tile's corner sets and their
//! memoized scores across its inner orders and one layer's chain
//! summaries across its L2 tiles, is checked against fresh
//! `allocate_hierarchy` calls.

use morph_dataflow::arch::{ArchSpec, OnChipLevel};
use morph_dataflow::config::{LevelConfig, TilingConfig};
use morph_dataflow::traffic::ChainSummaries;
use morph_optimizer::allocate::{
    allocate_hierarchy, allocate_level, assemble_hierarchy, f_reuse, tile_fits, CornerSet,
    FitPolicy, RowAllocator,
};
use morph_optimizer::space::{inner_order_candidates, l2_tile_candidates, Effort};
use morph_tensor::order::{Dim, LoopOrder};
use morph_tensor::rng::XorShift as Rng;
use morph_tensor::shape::ConvShape;
use morph_tensor::tiled::Tile;

fn arb_layer(rng: &mut Rng) -> ConvShape {
    let h = rng.range(1, 20);
    let f = rng.range(1, 6);
    let c = rng.range(1, 48);
    let k = rng.range(1, 64);
    let t = rng.range(1, 3).min(f);
    let stride = rng.range(1, 3);
    ConvShape::new_3d(h, h, f, c, k, 3.min(h), 3.min(h), t)
        .with_stride(stride, 1)
        .with_pad(1, 0)
}

/// The corner set: `H` and `F` at 1, half and all of the parent; `W`, `C`
/// and `K` at 1 and all of it; enumerated `h, w, f, c, k` outermost first.
fn corners(parent: &Tile) -> Vec<Tile> {
    let two = |e: usize| if e == 1 { vec![1] } else { vec![1, e] };
    let three = |e: usize| {
        let mut v = vec![1, e.div_ceil(2), e];
        v.dedup();
        v
    };
    let mut out = Vec::new();
    for &h in &three(parent.h) {
        for &w in &two(parent.w) {
            for &f in &three(parent.f) {
                for &c in &two(parent.c) {
                    for &k in &two(parent.k) {
                        out.push(Tile { h, w, f, c, k });
                    }
                }
            }
        }
    }
    out
}

/// The best-scoring fitting corner, larger tiles winning ties.
fn level_ref(
    shape: &ConvShape,
    upper: &[LevelConfig],
    order: LoopOrder,
    level: OnChipLevel,
    arch: &ArchSpec,
    policy: FitPolicy,
) -> Option<Tile> {
    let parent = upper.last().map_or_else(|| Tile::whole(shape), |l| l.tile);
    let mut best: Option<(f64, u64, Tile)> = None;
    for cand in corners(&parent) {
        if !tile_fits(shape, &cand, level, arch, policy) {
            continue;
        }
        let mut levels = upper.to_vec();
        levels.push(LevelConfig { order, tile: cand });
        let score = f_reuse(shape, &levels);
        let size = (cand.h * cand.w * cand.f * cand.c * cand.k) as u64;
        if best
            .as_ref()
            .is_none_or(|(s, sz, _)| score > *s || (score == *s && size > *sz))
        {
            best = Some((score, size, cand));
        }
    }
    best.map(|(_, _, t)| t)
}

fn hierarchy_ref(
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
    for level in [OnChipLevel::L1, OnChipLevel::L0] {
        let tile = level_ref(shape, &levels, inner, level, arch, policy)?;
        levels.push(LevelConfig { order: inner, tile });
    }
    let l0 = levels[2].tile;
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

/// Summary-scored allocation (`allocate_level` for L1, and the whole
/// `allocate_hierarchy`) equals the `f_reuse` reference under both fit
/// policies and every inner order, below searched L2 tiles, the unit tile
/// and tiles larger than the layer.
#[test]
fn allocation_matches_f_reuse_reference() {
    let mut rng = Rng::new(0xA110);
    let arch = ArchSpec::morph();
    let orders = LoopOrder::all();
    let mut allocated = 0;
    for _ in 0..6 {
        let shape = arb_layer(&mut rng);
        let whole = Tile::whole(&shape);
        let searched = l2_tile_candidates(&shape, &arch, Effort::Fast);
        let mut l2s = vec![
            Tile::unit(),
            searched[rng.range(0, searched.len())],
            Tile {
                h: whole.h + 3,
                w: whole.w + 1,
                f: whole.f + 2,
                c: whole.c,
                k: whole.k + 5,
            },
        ];
        l2s.dedup();
        let outer = orders[rng.range(0, orders.len())];
        for l2 in l2s {
            for policy in [FitPolicy::Banked, FitPolicy::Partitioned] {
                for &inner in &orders {
                    let upper = [LevelConfig {
                        order: outer,
                        tile: l2,
                    }];
                    assert_eq!(
                        allocate_level(&shape, &upper, inner, OnChipLevel::L1, &arch, policy),
                        level_ref(&shape, &upper, inner, OnChipLevel::L1, &arch, policy),
                        "{shape:?} l2 {l2:?} {policy:?} {inner}"
                    );
                    let got = allocate_hierarchy(&shape, outer, inner, l2, &arch, policy);
                    let want = hierarchy_ref(&shape, outer, inner, l2, &arch, policy);
                    assert_eq!(got, want, "{shape:?} l2 {l2:?} {policy:?} {inner}");
                    allocated += usize::from(got.is_some());
                }
            }
        }
    }
    assert!(allocated > 0, "the sweep allocated nothing");
}

/// One `RowAllocator` per L2 candidate, its corner sets shared by every
/// inner order as the search shares them and its chains drawn from one
/// `ChainSummaries` per layer, picks what a fresh `allocate_hierarchy`
/// picks for each (L2 candidate, inner order) row, under both fit
/// policies. Each allocator sees the `Fast` inner orders first, as the
/// `Fast` search does, then the rest of all 120. A fresh call shares
/// nothing, so it never answers from the corner-score memo; on each
/// layer's first L2 candidate, the shared allocator computes fewer scores
/// than one fresh allocator per row.
#[test]
fn shared_corner_sets_match_fresh_allocation() {
    let mut rng = Rng::new(0x5EA2);
    let arch = ArchSpec::morph();
    let orders = LoopOrder::all();
    let fast = inner_order_candidates(Effort::Fast);
    let inners: Vec<LoopOrder> = fast
        .iter()
        .chain(orders.iter().filter(|o| !fast.contains(o)))
        .copied()
        .collect();
    let mut rows = 0;
    let (mut shared_scores, mut fresh_scores) = (0, 0);
    for _ in 0..6 {
        let shape = arb_layer(&mut rng);
        let outer = orders[rng.range(0, orders.len())];
        for policy in [FitPolicy::Banked, FitPolicy::Partitioned] {
            let mut chains = ChainSummaries::new(&shape);
            let l2s = l2_tile_candidates(&shape, &arch, Effort::Fast);
            for (i, &l2) in l2s.iter().enumerate() {
                let mut rows_of_l2 = RowAllocator::new(outer, l2, &arch, policy);
                for &inner in &inners {
                    let got = rows_of_l2.pick(&mut chains, inner).and_then(|(l1, l0)| {
                        assemble_hierarchy(&shape, outer, inner, [l2, l1, l0], &arch)
                    });
                    let want = allocate_hierarchy(&shape, outer, inner, l2, &arch, policy);
                    assert_eq!(got, want, "{shape:?} l2 {l2:?} {policy:?} {inner}");
                    rows += usize::from(want.is_some());
                    if i == 0 {
                        let mut fresh = RowAllocator::new(outer, l2, &arch, policy);
                        let _ = fresh.pick(&mut ChainSummaries::new(&shape), inner);
                        fresh_scores += fresh.corner_scores();
                    }
                }
                if i == 0 {
                    shared_scores += rows_of_l2.corner_scores();
                }
            }
        }
    }
    assert!(rows > 0, "the sweep allocated nothing");
    assert!(
        shared_scores < fresh_scores,
        "shared {shared_scores} vs fresh {fresh_scores}: the memo never answered"
    );
}

/// A tile inside `parent`, each extent drawn from `1..=` the parent's.
fn arb_tile_within(rng: &mut Rng, parent: &Tile) -> Tile {
    Dim::ALL.iter().fold(*parent, |t, &d| {
        t.with_extent(d, rng.range(1, parent.extent(d) + 1))
    })
}

/// One corner set per level below random (L2, L1) chains, its scores
/// memoized across every pick, picks what a fresh `allocate_level` picks
/// (a new set that remembers nothing) for random orders at every level,
/// under both fit policies.
#[test]
fn memoized_corner_picks_match_fresh_levels() {
    let mut rng = Rng::new(0x3E3C);
    let arch = ArchSpec::morph();
    let orders = LoopOrder::all();
    let mut picked = 0;
    for _ in 0..12 {
        let shape = arb_layer(&mut rng);
        let l2 = arb_tile_within(&mut rng, &Tile::whole(&shape));
        let l1 = arb_tile_within(&mut rng, &l2);
        for policy in [FitPolicy::Banked, FitPolicy::Partitioned] {
            let mut chains = ChainSummaries::new(&shape);
            let mut sets = [(OnChipLevel::L1, vec![l2]), (OnChipLevel::L0, vec![l2, l1])].map(
                |(level, upper)| {
                    let set = CornerSet::new(&mut chains, &upper, level, &arch, policy);
                    (level, upper, set)
                },
            );
            for _ in 0..300 {
                for (level, upper, set) in &mut sets {
                    let o: Vec<LoopOrder> = (0..=upper.len())
                        .map(|_| orders[rng.range(0, orders.len())])
                        .collect();
                    let levels: Vec<LevelConfig> = upper
                        .iter()
                        .zip(&o)
                        .map(|(&tile, &order)| LevelConfig { order, tile })
                        .collect();
                    let want =
                        allocate_level(&shape, &levels, o[upper.len()], *level, &arch, policy);
                    assert_eq!(set.pick(&chains, &o), want, "{shape:?} {upper:?} {o:?}");
                    picked += usize::from(want.is_some());
                }
            }
        }
    }
    assert!(picked > 0, "no corner fit");
}
